"""Stable (downward-closed) hypergraphs, shadows, and the extremal checks.

Sorted edges are compared componentwise: e <= f when every coordinate of e
is at most the matching coordinate of f. A hypergraph is stable when its
edge set is downward closed under that order. Closure under all single-step
decrements (lower one coordinate by one where that keeps the set valid) is
equivalent and is what is_stable scans, so a violation witness is always a
covering pair.

No shift operator is implemented: completions arrive already stable through
the cover construction in the fractional module, and the fuzz generator
below closes random seeds downward directly, as the union of their
down-sets.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import NamedTuple

from .closeness import barrier_deficit
from .constructions import space_barrier_edge_count
from .core import Hypergraph, _check_shape, check_counts, check_enumeration
from .errors import CertificationError, DomainError
from .exact import max_matching
from .rng import TAG_CLOSURE, TAG_SET_SAMPLE, CounterRng, combination_unrank, random_hypergraph


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


def _down_set(g: tuple) -> list:
    """The sorted k-sets e <= g, for a strictly increasing g, built one
    coordinate at a time; since g increases, every prefix extends."""
    out = [()]
    for top in g:
        out = [p + (x,) for p in out for x in range(p[-1] + 1 if p else 0, top + 1)]
    return out


def downward_closure(n: int, k: int, generators) -> Hypergraph:
    """Smallest stable hypergraph containing the given k-sets.

    n and k are checked first, then each generator as edges are, its vertex
    types before it is sorted. The closure is the union of the generators'
    down-sets, each enumerated directly (a generator already in the union adds
    nothing), so the sorted union goes to the trusted constructor.
    """
    _check_shape(n, k)
    seen: set = set()
    for g in generators:
        try:
            raw = list(g)
        except TypeError:
            raise DomainError(f"generator {g!r} is not a k-subset of 0..{n - 1}") from None
        e = tuple(sorted(raw)) if set(map(type, raw)) <= {int} else ()
        if len(e) != k or len(set(e)) != k or e[0] < 0 or e[-1] >= n:
            raise DomainError(f"generator {raw} is not a k-subset of 0..{n - 1}")
        if e not in seen:
            seen.update(_down_set(e))
    return Hypergraph._canonical(n, k, sorted(seen))


def random_stable_hypergraph(n: int, k: int, seed: int, generator_count: int = 3) -> Hypergraph:
    """Downward closure of random k-sets; the maximal ones form the antichain.

    Every stable hypergraph is the closure of its maximal edges, so this fuzz
    distribution reaches all of them.
    """
    if not 1 <= k <= n:
        raise DomainError(f"need 1 <= k <= n, got n={n}, k={k}")
    # type() rather than isinstance(), as in core: a bool is not a count.
    if type(generator_count) is not int or generator_count < 0:
        raise DomainError(f"generator count must be a nonnegative integer, got {generator_count!r}")
    check_enumeration(n, k)  # before the draws, whose unranking walks up to n
    rng = CounterRng(seed)
    total = comb(n, k)
    gens = [
        combination_unrank(n, k, rng.below(total, TAG_CLOSURE, j))
        for j in range(generator_count)
    ]
    return downward_closure(n, k, gens)


def _trials(trials: int) -> range:
    check_counts(trials=trials)
    if trials < 0:
        raise DomainError(f"--trials must be non-negative, got {trials}")
    return range(trials)


def katona_suite(trials: int, seed: int = 0, **_) -> dict:
    """katona_check on seeded random 2- and 3-graphs of at most 10 vertices; a CertificationError fails."""
    rng = CounterRng(seed)
    failures = 0
    for t in _trials(trials):
        k = 2 + rng.below(2, TAG_SET_SAMPLE, t, 0)
        n = k + 1 + rng.below(10 - k, TAG_SET_SAMPLE, t, 1)
        H = random_hypergraph(n, k, Fraction(1, 2), rng.raw(TAG_SET_SAMPLE, t, 2))
        try:
            katona_check(H)
        except CertificationError:
            failures += 1
    return {"trials": trials, "failures": failures}


def frankl_suite(trials: int, seed: int = 0, **_) -> dict:
    """frankl_bound_check on seeded random stable 2- and 3-graphs of 6 to 10 vertices."""
    rng = CounterRng(seed)
    applicable = holds = equality = 0
    for t in _trials(trials):
        k = 2 + rng.below(2, TAG_SET_SAMPLE, t, 0)
        n = 6 + rng.below(5, TAG_SET_SAMPLE, t, 1)
        gens = 1 + rng.below(3, TAG_SET_SAMPLE, t, 2)
        H = random_stable_hypergraph(n, k, rng.raw(TAG_SET_SAMPLE, t, 3), gens)
        res = frankl_bound_check(H)
        if res.applicable:
            applicable += 1
            holds += res.holds
            equality += H.num_edges == res.bound
    return {
        "trials": trials,
        "applicable": applicable,
        "holds": holds,
        "violations": applicable - holds,
        "equality_hits": equality,
    }


def stability2_suite(trials: int, seed: int = 0, n: int = 10, rho=Fraction(1, 100)) -> dict:
    """stability_closeness_check at xi = rho on seeded random stable graphs; skips only nu > m."""
    ts = _trials(trials)  # checked first, as in every suite
    if rho <= 0:
        raise DomainError("rho must be a positive rational")
    if n < 3:
        raise DomainError(f"stability2 needs n >= 3 (the barrier set has m >= 3), got n={n}")
    rng = CounterRng(seed)
    checked = met = failures = 0
    for t in ts:
        gens = 1 + rng.below(4, TAG_SET_SAMPLE, t, 0)
        G = random_stable_hypergraph(n, 2, rng.raw(TAG_SET_SAMPLE, t, 1), gens)
        m = 3 + rng.below(max(1, n // 2 - 3), TAG_SET_SAMPLE, t, 2)
        try:
            res = stability_closeness_check(G, m, rho)
        except DomainError as exc:
            # The check's own nu > m message: one matching search per trial.
            if not str(exc).startswith("hypothesis failed: matching number"):
                raise
            continue
        checked += 1
        if res.hypotheses_met:
            met += 1
            if not res.conclusion_holds:
                failures += 1
    return {
        "trials": trials,
        "checked": checked,
        "skipped": trials - checked,
        "hypotheses_met": met,
        "conclusion_failures": failures,
        "note": "failures at desk scale would be asymptotic-regime artifacts; none expected",
    }


# Each `verify --suite` name: its claim and its function, called as f(trials, seed, n=, rho=).
SUITES = {
    "katona": ("shadow-bound-suite", katona_suite),
    "frankl": ("edge-count-bound-suite", frankl_suite),
    "stability2": ("graph-stability-closeness-suite", stability2_suite),
}
