"""Closeness to partition barriers: deficits, good/bad vertices, density.

Closeness is asymmetric on purpose: a report counts barrier edges missing
from H, because the per-vertex good/bad machinery compares the barrier
neighborhood of a vertex against its actual neighborhood. A hypergraph is
eps-close to a barrier exactly when the reported deficit is at most
eps * n^k.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import ceil, factorial

from .constructions import space_barrier_edge_count
from .core import Hypergraph, _mask, vertex_subset
from .errors import DomainError
from .rng import TAG_SEARCH, TAG_SET_SAMPLE, CounterRng

CLOSEST_MAX_N = 16  # largest n both searches scan exhaustively without force
CLOSEST_RESTARTS = 5  # seeded starts of the local-search mode
DENSITY_TRIALS = 2000  # seeded candidate sets of the sampled mode


def exhaustive(n: int, force: bool) -> bool:
    """Whether closest_partition and f_density_check scan every candidate set on n vertices."""
    return n <= CLOSEST_MAX_N or force


@dataclass(frozen=True)
class ClosenessReport:
    deficit: int
    epsilon_effective: Fraction  # deficit / n^k
    per_vertex_deficits: dict = field(compare=False)


def barrier_deficit(H: Hypergraph, m: int, s: int, W) -> ClosenessReport:
    """Count barrier edges absent from H, overall and per vertex.

    The barrier is never built. Its edge count is the closed form, and the
    barrier degree of v is that count less the closed form on the n - 1
    vertices other than v. One scan of H then takes off each barrier edge of H.
    """
    if not 0 <= m <= H.n:
        raise DomainError(f"need 0 <= m <= n, got m={m}")
    w = vertex_subset(H.n, W)
    if len(w) != m:
        raise DomainError(f"|W|={len(w)} does not match m={m}")
    if not 1 <= s <= H.k:
        raise DomainError(f"need 1 <= s <= k, got s={s}")
    n, k, w_mask = H.n, H.k, _mask(w)
    deficit = space_barrier_edge_count(n, k, s, m)
    degree = [deficit - space_barrier_edge_count(n - 1, k, s, m - inside) for inside in (0, 1)]
    per_vertex = {v: degree[w_mask >> v & 1] for v in range(n)}
    for e in H.edges:
        if 1 <= (_mask(e) & w_mask).bit_count() <= s:
            deficit -= 1
            for v in e:
                per_vertex[v] -= 1
    eps = Fraction(deficit, n**k) if n else Fraction(0)
    return ClosenessReport(deficit, eps, per_vertex)


@dataclass(frozen=True)
class GoodnessReport:
    good: tuple
    bad: tuple
    alpha: Fraction
    bad_bound: Fraction  # k * epsilon_effective * n / alpha
    bad_bound_holds: bool


def classify_good(H: Hypergraph, m: int, s: int, W, alpha: Fraction) -> GoodnessReport:
    """Split vertices by whether they miss at most alpha * n^(k-1) barrier edges.

    Also evaluates the counting bound: the number of bad vertices is at most
    k * eps * n / alpha for eps the effective closeness of H to the barrier.
    """
    alpha = Fraction(alpha)
    if alpha <= 0:
        raise DomainError("alpha must be a positive rational")
    report = barrier_deficit(H, m, s, W)
    cut = alpha * H.n ** (H.k - 1)
    good, bad = [], []
    for v in range(H.n):
        (good if report.per_vertex_deficits[v] <= cut else bad).append(v)
    bound = Fraction(H.k) * report.epsilon_effective * H.n / alpha
    return GoodnessReport(tuple(good), tuple(bad), alpha, bound, len(bad) <= bound)


def _deficit_of(masks: list, s: int, w_mask: int, barrier_total: int) -> int:
    """barrier_total less the edge masks that meet W (as a mask) 1 to s times."""
    hits = 0
    for em in masks:
        if 1 <= (em & w_mask).bit_count() <= s:
            hits += 1
    return barrier_total - hits


def closest_partition(
    H: Hypergraph,
    m: int,
    s: int,
    seed: int = 0,
    force: bool = False,
) -> tuple:
    """W of size m minimizing the barrier deficit, with the deficit.

    When exhaustive(n, force), a scan over all C(n, m) candidates (ties broken
    to the lexicographically least W); otherwise a seeded first-improvement
    swap heuristic (it takes the first swap, in scan order, that lowers the
    deficit) with restarts, which carries no optimality guarantee.
    """
    if not 0 <= m <= H.n:
        raise DomainError(f"need 0 <= m <= n, got m={m}")
    if not 1 <= s <= H.k:
        raise DomainError(f"need 1 <= s <= k, got s={s}")
    rng = CounterRng(seed)  # before the scan too, so a bad seed is refused on either route
    barrier_total = space_barrier_edge_count(H.n, H.k, s, m)
    masks = list(map(_mask, H.edges))
    if exhaustive(H.n, force):
        best_w, best_d = None, None
        for w in combinations(range(H.n), m):
            d = _deficit_of(masks, s, _mask(w), barrier_total)
            if best_d is None or d < best_d:
                best_w, best_d = w, d
                if d == 0:
                    break
        return best_w, best_d

    best_w, best_d = None, None
    for r in range(CLOSEST_RESTARTS):
        w = sorted(rng.sample(list(range(H.n)), m, TAG_SEARCH, r))
        wm = _mask(w)
        d = _deficit_of(masks, s, wm, barrier_total)
        improved = True
        while improved:
            improved = False
            out_side = [v for v in range(H.n) if not wm >> v & 1]
            for v in list(w):
                for u in out_side:
                    cand = wm ^ (1 << v) | (1 << u)
                    cd = _deficit_of(masks, s, cand, barrier_total)
                    if cd < d:
                        wm, d = cand, cd
                        w = [x for x in range(H.n) if wm >> x & 1]
                        improved = True
                        break
                if improved:
                    break
        if best_d is None or d < best_d or (d == best_d and tuple(w) < best_w):
            best_w, best_d = tuple(w), d
    return best_w, best_d


def f_density_check(
    H: Hypergraph,
    eps: Fraction,
    force: bool = False,
    seed: int = 0,
) -> tuple:
    """Whether every large vertex set keeps a proportional share of the edges.

    Large means |A| >= (1 - 1/k - eps/4) * n and the required share is
    eps / (2 * k!) of e(H). Induced edge counts only drop when A shrinks, so
    the exhaustive scan checks just the smallest qualifying size; it returns
    (dense, witness) with a violating A as witness when one exists. Unless
    exhaustive(n, force), a seeded sample of candidate sets is scanned instead,
    so a dense verdict is then no certificate.
    """
    eps = Fraction(eps)
    if eps <= 0:
        raise DomainError("eps must be a positive rational")
    rng = CounterRng(seed)  # before the scan too, so a bad seed is refused on either route
    n, k = H.n, H.k
    floor_frac = (1 - Fraction(1, k) - eps / 4) * n
    size = max(0, ceil(floor_frac))
    need = eps * H.num_edges / (2 * factorial(k))
    masks = list(map(_mask, H.edges))

    def induced_count(am: int) -> int:
        return sum(1 for em in masks if em & am == em)

    if exhaustive(n, force):
        for a in combinations(range(n), size):
            if induced_count(_mask(a)) < need:
                return False, a
        return True, None

    universe = list(range(n))
    for t in range(DENSITY_TRIALS):
        a = tuple(sorted(rng.sample(universe, size, TAG_SET_SAMPLE, t)))
        if induced_count(_mask(a)) < need:
            return False, a
    return True, None
