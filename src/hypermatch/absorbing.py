"""Absorbing families: candidate sets, randomized sampling, iterative use.

A session fixes (k, l) and legal integers (a, h) with h <= l, a <= k - l and
a*l >= a*(k-l) + (k-h). An absorber for an (a*l+h)-set R is an a*k-set Q,
disjoint from R, that spans a matching of size a and satisfies
nu(H[Q u R]) >= a + 1. The test is _matching_in, which runs max_matching's
search on the edges core.edges_within finds inside Q u R, in the host's
labels, with no induced subgraph; disjointness always holds, because every
R (a probe or a set to absorb) is drawn from vertices outside the family.

The family sampler draws every a*k-subset of the vertex set independently
with probability rho * n / C(n, a*k) (clamped to one), then prunes in one
lexicographic scan: it skips each drawn set that meets an earlier disjoint
one, and drops a disjoint set that does not span a matching (its vertices
stay blocked). All randomness is counter-based, so a family is a pure
function of (seed, n, k, a, rho).

The probe count needs no search for a probe R that spans an edge e: R is
drawn from the free vertices, so it misses every member Q, and the a edges
admission certified inside Q plus e are a + 1 disjoint edges of H[R u Q]
(|R| = a*l + h >= a*(k-l) + k >= k). So every member absorbs such an R.
Whether R spans an edge is the first edge core.edges_within yields, if any;
only a probe that spans none runs the search nu(H[R u Q]) >= a + 1 per
member Q.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import NamedTuple

from . import core
from .core import Hypergraph, _mask, check_counts, check_enumeration, vertex_subset
from .errors import AbsorptionStuckError, CertificationError, DomainError
from .exact import _lex_least_matching, validate_matching
from .rng import TAG_FAMILY, TAG_PROBE, CounterRng, bernoulli_subsets


@dataclass(frozen=True)
class AbsorbingParameters:
    """Legal (k, l, a, h) for one absorption session."""

    k: int
    l: int
    a: int
    h: int

    def __post_init__(self):
        k, l, a, h = self.k, self.l, self.a, self.h
        check_counts(k=k, l=l, a=a, h=h)
        if not 1 <= l < k:
            raise DomainError(f"need 1 <= l < k, got k={k}, l={l}")
        if a < 1 or h < 1:
            raise DomainError("a and h must be positive")
        if h > l:
            raise DomainError(f"need h <= l, got h={h}, l={l}")
        if a > k - l:
            raise DomainError(f"need a <= k - l, got a={a}, k-l={k - l}")
        if a * l < a * (k - l) + (k - h):
            raise DomainError(
                f"need a*l >= a*(k-l) + (k-h), got {a * l} < {a * (k - l) + (k - h)}"
            )

    @property
    def r_size(self) -> int:
        return self.a * self.l + self.h

    @property
    def q_size(self) -> int:
        return self.a * self.k

    @property
    def leftover_bound(self) -> int:
        """Largest possible uncovered count after absorption: a*l + h - 1."""
        return self.r_size - 1


def default_parameters(k: int, l: int) -> AbsorbingParameters:
    """The (a, h) minimizing the leftover bound a*l + h - 1, for k/2 < l < k."""
    if not k / 2 < l < k:
        raise DomainError(f"defaults need k/2 < l < k, got k={k}, l={l}")
    a = -(-(k - l) // (2 * l - k))  # ceil((k-l)/(2l-k))
    return AbsorbingParameters(k, l, a, k - a * (2 * l - k))


def _matching_in(H: Hypergraph, X, t: int) -> tuple:
    """First t edges of the lex-least maximum matching of H[X], in host labels; () if nu < t."""
    witness = _lex_least_matching(H, sorted(X), False)
    return tuple(witness[:t]) if len(witness) >= t else ()


@dataclass(frozen=True)
class AbsorbingFamily:
    """Pruned pairwise-disjoint matchable members plus their matchings."""

    params: AbsorbingParameters
    members: tuple  # tuple of sorted a*k-vertex tuples, pairwise disjoint
    member_matchings: tuple  # per-member perfect matchings, aligned with members
    diagnostics: dict

    @property
    def matching(self) -> tuple:
        return tuple(e for mm in self.member_matchings for e in mm)

    @property
    def covered(self) -> frozenset:
        return frozenset(v for member in self.members for v in member)


def sample_absorbing_family(
    H: Hypergraph,
    params: AbsorbingParameters,
    rho: Fraction,
    seed: int,
    probes: int = 100,
    force: bool = False,
) -> AbsorbingFamily:
    """Bernoulli-sample candidate sets, prune to a disjoint matchable family.

    The family size is random. Its mean is at most rho * n (the expected raw
    draw count, before clamping and pruning), and it has no lower bound: a
    family may hold a single member or none.

    Diagnostics record the raw draw count, how many drawn sets pruning removed
    for meeting an earlier one and for spanning no a-matching, and, over
    seeded probe sets R drawn from the uncovered vertices, the smallest number
    of members Q with nu(H[R u Q]) >= a + 1. A probe that spans an edge counts
    every member without a search (see the module docstring). The probes stop
    once the minimum reaches 0, since no later probe can lower it, so the
    reported minimum is exact over all `probes` probes; `probe_count` echoes
    `probes`.

    The sampler enumerates all C(n, a*k) candidates, so it stops with
    SizeLimitError past core.ENUMERATE_MAX_KSETS of them unless force.
    """
    rho = core._rational(rho)
    if rho is None or not 0 < rho < 1:
        raise DomainError("rho must lie strictly between 0 and 1")
    check_counts(probes=probes)
    if probes < 0:
        raise DomainError(f"probes must be non-negative, got {probes}")
    if params.k != H.k:
        raise DomainError(f"session k={params.k} does not match hypergraph k={H.k}")
    n, qk = H.n, params.q_size
    check_enumeration(n, qk, force)
    total = comb(n, qk)
    if total == 0:
        raise DomainError(f"no {qk}-subsets available on n={n} vertices")
    p = Fraction(rho * n, total)
    clamped = p > 1
    if clamped:
        p = Fraction(1)

    rng = CounterRng(seed)
    raw = list(bernoulli_subsets(n, qk, p, rng, TAG_FAMILY))

    members = []
    matchings = []
    used = 0
    dropped_intersecting = dropped_unmatchable = 0
    for cand in raw:
        m = _mask(cand)
        if m & used:
            dropped_intersecting += 1
            continue
        used |= m
        mm = _matching_in(H, cand, params.a)
        if mm:
            members.append(cand)
            matchings.append(mm)
        else:
            dropped_unmatchable += 1

    diagnostics = {
        "p": p,
        "p_clamped": clamped,
        "raw_count": len(raw),
        "intersecting_removed": dropped_intersecting,
        "non_matchable_removed": dropped_unmatchable,
        "family_size": len(members),
    }

    family = AbsorbingFamily(params, tuple(members), tuple(matchings), diagnostics)

    covered = set(family.covered)
    free = [v for v in range(n) if v not in covered]
    if probes > 0 and len(free) >= params.r_size:
        worst = len(members)
        for j in range(probes):
            probe = rng.sample(free, params.r_size, TAG_PROBE, j)
            if next(core.edges_within(H, sorted(probe)), None) is None:
                hits = sum(1 for q in members if _matching_in(H, {*probe, *q}, params.a + 1))
                worst = min(worst, hits)
            if worst == 0:
                break
        diagnostics["probe_count"] = probes
        diagnostics["min_absorbers_over_probes"] = worst
    return family


class AbsorbResult(NamedTuple):
    matching: tuple  # valid matching of H[V(M) u S]
    uncovered: tuple  # vertices of V(M) u S left uncovered, < a*l + h of them


def absorb(H: Hypergraph, family: AbsorbingFamily, S) -> AbsorbResult:
    """Iteratively absorb (a*l+h)-subsets of the leftover set into the family.

    Each round takes the lexicographically least (a*l+h)-subset R of the
    current leftover, finds the first unused member Q with
    nu(H[R u Q]) >= a + 1, replaces Q's matching by a+1 disjoint edges inside
    R u Q, and folds the still-uncovered vertices back into the leftover,
    which shrinks by exactly k per round. Raises AbsorptionStuckError naming
    R when no unused member works.

    Capacity: S needs ceil((|S| - a*l - h + 1) / k) rounds (none if
    |S| < a*l + h), each spending one member, and |S| - k * rounds vertices
    stay uncovered. A family of m members, each absorbing every (a*l+h)-set
    it meets, therefore absorbs any S with |S| <= a*l + h - 1 + k*m; a set one
    vertex larger needs m + 1 rounds and raises.
    """
    params = family.params
    s = vertex_subset(H.n, S)
    if set(s) & family.covered:
        raise DomainError("S must be disjoint from the family's vertices")

    unused = list(range(len(family.members)))
    replacement_edges = []
    leftover = list(s)
    while len(leftover) >= params.r_size:
        r = tuple(leftover[: params.r_size])
        for pos, idx in enumerate(unused):
            q = family.members[idx]
            round_matching = _matching_in(H, set(r) | set(q), params.a + 1)
            if round_matching:
                break
        else:
            raise AbsorptionStuckError(r)
        unused.pop(pos)
        replacement_edges.extend(round_matching)
        covered_now = {v for e in round_matching for v in e}
        before = len(leftover)
        leftover = sorted((set(leftover) | set(q)) - covered_now)
        if len(leftover) != before - H.k:
            raise CertificationError("an absorption round must shrink the leftover by k")

    final = tuple(replacement_edges) + tuple(
        e for idx in unused for e in family.member_matchings[idx]
    )
    if not validate_matching(H, final):
        raise CertificationError("absorption produced an invalid matching")
    return AbsorbResult(final, tuple(leftover))
