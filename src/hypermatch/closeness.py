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

from .constructions import barrier_edges, space_barrier_edge_count
from .core import Hypergraph, _mask, vertex_subset
from .errors import DomainError, SizeLimitError
from .rng import TAG_SEARCH, TAG_SET_SAMPLE, CounterRng

CLOSEST_MAX_N = 16
CLOSEST_RESTARTS = 5  # seeded starts of the local-search mode
DENSITY_MAX_N = 16
DENSITY_TRIALS = 2000  # seeded candidate sets of the sampled mode


@dataclass(frozen=True)
class ClosenessReport:
    deficit: int
    epsilon_effective: Fraction  # deficit / n^k
    per_vertex_deficits: dict = field(compare=False)


def barrier_deficit(H: Hypergraph, m: int, s: int, W) -> ClosenessReport:
    """Count barrier edges absent from H, overall and per vertex."""
    w = vertex_subset(H, W)
    if len(w) != m:
        raise DomainError(f"|W|={len(w)} does not match m={m}")
    if not 1 <= s <= H.k:
        raise DomainError(f"need 1 <= s <= k, got s={s}")
    per_vertex = {v: 0 for v in range(H.n)}
    deficit = 0
    for e in barrier_edges(H.n, H.k, s, w):
        if e not in H.edge_set:
            deficit += 1
            for v in e:
                per_vertex[v] += 1
    eps = Fraction(deficit, H.n**H.k) if H.n else Fraction(0)
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


def _deficit_of(H: Hypergraph, s: int, w_mask: int, barrier_total: int) -> int:
    hits = 0
    for em in H.edge_masks:
        c = (em & w_mask).bit_count()
        if 1 <= c <= s:
            hits += 1
    return barrier_total - hits


def closest_partition(
    H: Hypergraph,
    m: int,
    s: int,
    local: bool = False,
    seed: int = 0,
    force: bool = False,
) -> tuple:
    """W of size m minimizing the barrier deficit, with the deficit.

    Exhaustive scan over all C(n, m) candidates (ties broken to the
    lexicographically least W) for n <= 16; beyond that the caller must pick
    the seeded local-search mode, a first-improvement swap heuristic (it takes
    the first swap, in scan order, that lowers the deficit) with restarts that
    carries no optimality guarantee.
    """
    if not 0 <= m <= H.n:
        raise DomainError(f"need 0 <= m <= n, got m={m}")
    if not 1 <= s <= H.k:
        raise DomainError(f"need 1 <= s <= k, got s={s}")
    barrier_total = space_barrier_edge_count(H.n, H.k, s, m)
    if not local:
        if H.n > CLOSEST_MAX_N and not force:
            raise SizeLimitError(
                f"exhaustive closest_partition enforces n <= {CLOSEST_MAX_N}; "
                "pass local=True for the heuristic mode"
            )
        best_w, best_d = None, None
        for w in combinations(range(H.n), m):
            d = _deficit_of(H, s, _mask(w), barrier_total)
            if best_d is None or d < best_d:
                best_w, best_d = w, d
                if d == 0:
                    break
        return best_w, best_d

    rng = CounterRng(seed)
    best_w, best_d = None, None
    for r in range(CLOSEST_RESTARTS):
        w = sorted(rng.sample(list(range(H.n)), m, TAG_SEARCH, r))
        wm = _mask(w)
        d = _deficit_of(H, s, wm, barrier_total)
        improved = True
        while improved:
            improved = False
            out_side = [v for v in range(H.n) if not wm >> v & 1]
            for v in list(w):
                for u in out_side:
                    cand = wm ^ (1 << v) | (1 << u)
                    cd = _deficit_of(H, s, cand, barrier_total)
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
    (dense, witness) with a violating A as witness when one exists. Above the
    exhaustive limit a seeded sample of candidate sets is scanned instead.
    """
    eps = Fraction(eps)
    if eps <= 0:
        raise DomainError("eps must be a positive rational")
    n, k = H.n, H.k
    floor_frac = (1 - Fraction(1, k) - eps / 4) * n
    size = max(0, ceil(floor_frac))
    need = eps * H.num_edges / (2 * factorial(k))
    masks = H.edge_masks

    def induced_count(am: int) -> int:
        return sum(1 for em in masks if em & am == em)

    if n <= DENSITY_MAX_N or force:
        for a in combinations(range(n), size):
            if induced_count(_mask(a)) < need:
                return False, a
        return True, None

    rng = CounterRng(seed)
    universe = list(range(n))
    for t in range(DENSITY_TRIALS):
        a = tuple(sorted(rng.sample(universe, size, TAG_SET_SAMPLE, t)))
        if induced_count(_mask(a)) < need:
            return False, a
    return True, None
