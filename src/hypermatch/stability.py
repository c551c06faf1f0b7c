"""Stable (downward-closed) hypergraphs, shadows, and the extremal checks.

Sorted edges are compared componentwise: e <= f when every coordinate of e
is at most the matching coordinate of f. A hypergraph is stable when its
edge set is downward closed under that order. Closure under all single-step
decrements (lower one coordinate by one where that keeps the set valid) is
equivalent and is what is_stable scans, so a violation witness is always a
covering pair.

No shift operator is implemented: completions arrive already stable through
the cover construction in the fractional module, and the fuzz generator
below closes random seeds downward directly.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import NamedTuple

from .closeness import barrier_deficit
from .constructions import space_barrier_edge_count
from .core import Hypergraph
from .errors import CertificationError, DomainError
from .exact import max_matching
from .rng import TAG_CLOSURE, CounterRng, combination_unrank


def _decrements(f):
    """All valid single-step decrements of a sorted tuple, in position order."""
    for i, x in enumerate(f):
        y = x - 1
        if y < 0 or (i > 0 and y == f[i - 1]):
            continue
        yield f[:i] + (y,) + f[i + 1 :]


class StabilityResult(NamedTuple):
    stable: bool
    witness: tuple | None  # (e, f) with e <= f, f an edge, e missing


def is_stable(H: Hypergraph) -> StabilityResult:
    for f in H.edges:
        for e in _decrements(f):
            if e not in H.edge_set:
                return StabilityResult(False, (e, f))
    return StabilityResult(True, None)


def shadow(H: Hypergraph) -> frozenset:
    """All (k-1)-subsets contained in some edge."""
    out = set()
    for e in H.edges:
        for i in range(H.k):
            out.add(e[:i] + e[i + 1 :])
    return frozenset(out)


class KatonaResult(NamedTuple):
    matching_number: int
    shadow_size: int


def katona_check(H: Hypergraph) -> KatonaResult:
    """Verify nu(H) * |shadow| >= e(H); a failure would be an implementation bug."""
    s = max_matching(H).size
    sh = len(shadow(H))
    if s * sh < H.num_edges:
        raise CertificationError(
            f"shadow bound violated: nu={s}, |shadow|={sh}, e={H.num_edges}"
        )
    return KatonaResult(s, sh)


class FranklResult(NamedTuple):
    applicable: bool  # n >= (2s+1)k - s for s = nu(H)
    holds: bool  # e(H) <= C(n,k) - C(n-s,k)
    matching_number: int
    bound: int


def frankl_bound_check(H: Hypergraph) -> FranklResult:
    s = max_matching(H).size
    bound = space_barrier_edge_count(H.n, H.k, H.k, s)
    applicable = H.n >= (2 * s + 1) * H.k - s
    return FranklResult(applicable, H.num_edges <= bound, s, bound)


class StabilityCloseness(NamedTuple):
    hypotheses_met: bool
    conclusion_holds: bool
    deficit: int


def stability_closeness_check(H: Hypergraph, m: int, xi: Fraction) -> StabilityCloseness:
    """Edge-count hypothesis versus closeness conclusion for a stable H.

    Hypotheses: e(H) > C(n,k) - C(n-m,k) - xi * n^k, with stability and
    nu(H) <= m required up front. Conclusion: the number of barrier edges
    missing from H is at most sqrt(xi) * n^k, tightened to 2*sqrt(xi) * n^2
    when k = 2. Comparisons against the square roots are done on squares, so
    everything stays rational.
    """
    xi = Fraction(xi)
    if xi <= 0:
        raise DomainError("xi must be a positive rational")
    stab = is_stable(H)
    if not stab.stable:
        raise DomainError(f"hypothesis failed: H is not stable, witness {stab.witness}")
    nu = max_matching(H).size
    if nu > m:
        raise DomainError(f"hypothesis failed: matching number {nu} exceeds m={m}")
    n, k = H.n, H.k
    deficit = barrier_deficit(H, m, k, range(m)).deficit
    hypotheses = Fraction(H.num_edges) > space_barrier_edge_count(n, k, k, m) - xi * n**k
    if k == 2:
        conclusion = deficit * deficit <= 4 * xi * n**4
    else:
        conclusion = deficit * deficit <= xi * n ** (2 * k)
    return StabilityCloseness(hypotheses, conclusion, deficit)


def downward_closure(n: int, k: int, generators) -> Hypergraph:
    """Smallest stable hypergraph containing the given k-sets."""
    seen = set()
    stack = []
    for g in generators:
        e = tuple(sorted(g))
        if len(e) != k or len(set(e)) != k or e[0] < 0 or e[-1] >= n:
            raise DomainError(f"generator {list(g)} is not a k-subset of 0..{n - 1}")
        if e not in seen:
            seen.add(e)
            stack.append(e)
    while stack:
        f = stack.pop()
        for e in _decrements(f):
            if e not in seen:
                seen.add(e)
                stack.append(e)
    return Hypergraph(n, k, sorted(seen))


def random_stable_hypergraph(n: int, k: int, seed: int, generator_count: int = 3) -> Hypergraph:
    """Downward closure of random k-sets; the maximal ones form the antichain.

    Every stable hypergraph is the closure of its maximal edges, so this fuzz
    distribution reaches all of them.
    """
    if k > n:
        raise DomainError(f"need k <= n, got n={n}, k={k}")
    rng = CounterRng(seed)
    total = comb(n, k)
    gens = [
        combination_unrank(n, k, rng.below(total, TAG_CLOSURE, j))
        for j in range(generator_count)
    ]
    return downward_closure(n, k, gens)
