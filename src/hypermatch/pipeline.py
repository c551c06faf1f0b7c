"""Two-round randomization: vertex-subset copies, sparsification, matching.

Round one draws independent vertex subsets (copies), each vertex kept with
probability p, then trims fewer than k uniformly chosen vertices so the copy
size is a multiple of k. Round two draws from the weight maps that
`certify_copies` certified as perfect fractional matchings: each certified
copy keeps each of its edges with probability equal to that edge's weight,
and the selections are unioned into a spanning subgraph whose degree spread
and pair codegree are then measured exactly. The measured contract is what
matters downstream; no asymptotic rate is asserted anywhere.

The closing matcher is a deterministic greedy fallback (repeatedly take the
available edge minimizing the worst degree degradation it inflicts, ties by
lexicographic edge order). It stands in for the regularity-based extraction
step, which needs scales far beyond desk size.

Desk-scale note: the copy count and p are explicit parameters, and every
property band is derived from (copies, p, n) and recorded in the report.
Bands center on the exact means (copies*p for per-vertex multiplicity, n*p
for copy size) with a halfwidth of max(mu^(3/4), 3 + 2*sqrt(mu)), a rational
rounding of the usual concentration window that stays meaningful when the
mean is tiny. Pair and edge multiplicities are capped at PAIR_CAP and
EDGE_CAP. Round one draws copies · n vertex flags and keeps every copy, so it
stops with SizeLimitError past ROUND1_MAX_DRAWS of them unless forced. The
property report counts every pair and k-set of every copy, so it stops the
same way when the sum over copies of C(|copy|, 2) + C(|copy|, k) passes
core.ENUMERATE_MAX_KSETS, unless forced. The gate and the fractional check
depend on a copy only through its induced graph, so `certify_copies` gates
and solves each distinct induced graph once per call.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, compress, product

from . import core
from .constructions import comb0
from .core import Hypergraph, _mask, check_counts, check_positive, check_probability, induced, vertex_subset
from .errors import CertificationError, DomainError, PipelineError, SizeLimitError
from .exact import independence_number
from .fractional import fractional_optimum
from .rng import TAG_ROUND1, TAG_ROUND2, TAG_TRIM, CounterRng

PAIR_CAP = 2  # most copies any vertex pair may share
EDGE_CAP = 1  # most copies any host edge may lie in
ROUND1_MAX_DRAWS = 1 << 19  # most vertex draws, copies * n, round one makes without force


@dataclass(frozen=True)
class RoundOneSample:
    n: int
    k: int
    p: Fraction
    copies: tuple  # sorted vertex tuples, each of size divisible by k
    y_singleton: tuple  # y_singleton[v] = number of copies containing v

    def multiplicities(self, r: int) -> Counter:
        """For every r-set inside some copy, the number of copies containing it."""
        out: Counter = Counter()
        for c in self.copies:
            out.update(combinations(c, r))
        return out

    def deg(self, H: Hypergraph, i: int, D) -> int:
        """Edges through D whose other vertices lie in copy i: those inside D u copy i."""
        d = frozenset(D)
        return sum(map(d.issubset, core.edges_within(H, sorted(d.union(self.copies[i])))))


def _round1_domain(copies: int, p: Fraction) -> Fraction:
    """Round one's flag checks; returns p as a Fraction."""
    p = check_probability("p", p)
    check_counts(copies=copies)
    if copies < 1:
        raise DomainError("need at least one copy")
    return p


def round1_sample(H: Hypergraph, copies: int, p: Fraction, seed: int, force: bool = False) -> RoundOneSample:
    p = _round1_domain(copies, p)
    n, k = H.n, H.k
    if not force and copies * max(n, 1) > ROUND1_MAX_DRAWS:  # a copy of an empty host still costs a step
        raise SizeLimitError(
            f"round one enforces copies * n <= {ROUND1_MAX_DRAWS} vertex draws, got copies={copies}, n={n}"
        )
    rng = CounterRng(seed)
    out = []
    y = [0] * n
    for i in range(copies):
        kept = list(compress(range(n), rng.bernoulli_flags(p, n, TAG_ROUND1, i)))
        for j in range(len(kept) % k):
            kept.pop(rng.below(len(kept), TAG_TRIM, i, j))
        copy = tuple(kept)
        out.append(copy)
        for v in copy:
            y[v] += 1
    return RoundOneSample(n, k, p, tuple(out), tuple(y))


def default_halfwidth(mu: Fraction) -> Fraction:
    """max(mu^(3/4), 3 + 2*sqrt(mu)) rounded to a rational with 6 decimals."""
    m = float(mu)
    w = max(m**0.75, 3.0 + 2.0 * m**0.5)
    return Fraction(round(w * 10**6), 10**6)


def _verdict(bad: list, **echo) -> dict:
    """One round-one property: ok, the echoed band or cap, then the violations."""
    return {"ok": not bad, **echo, "violation_count": len(bad), "violations": bad[:20]}


def check_round1_properties(
    sample: RoundOneSample, H: Hypergraph, deg_probes=(), xi: Fraction = Fraction(1, 10), force: bool = False
) -> dict:
    """Evaluate the five round-one properties exactly against derived bands.

    Returns a report keyed by property: per-vertex multiplicity band, pair
    multiplicity cap, edge multiplicity cap, copy-size band, and the degree
    lower bound at each probed set of at most k vertices. Every band used is
    echoed in the report. The pair and edge caps count every pair and k-set
    of every copy; past core.ENUMERATE_MAX_KSETS of them in all, this raises
    SizeLimitError before counting any, unless force. The degree slack xi
    must be positive.
    """
    xi = check_positive("xi", xi)
    for D in deg_probes:
        if len(vertex_subset(H.n, D)) > H.k:
            raise DomainError(f"probe set larger than uniformity: |D|={len(D)} > k={H.k}")
    if not force:
        left = core.ENUMERATE_MAX_KSETS  # a running sum that stops at the cap
        for (i, c), r in product(enumerate(sample.copies), (2, sample.k)):
            if core._comb_exceeds(len(c), r, left):
                raise SizeLimitError(
                    f"round one's multiplicity count enforces the sum over copies of "
                    f"C(|copy|, 2) + C(|copy|, k) <= {core.ENUMERATE_MAX_KSETS}, "
                    f"passed at copy {i} (|copy|={len(c)}, k={sample.k})"
                )
            left -= comb0(len(c), r)
    singleton_center = len(sample.copies) * sample.p
    singleton_halfwidth = default_halfwidth(singleton_center)
    size_center = sample.n * sample.p
    size_halfwidth = default_halfwidth(size_center)

    report: dict = {}

    bad = [
        (v, yv)
        for v, yv in enumerate(sample.y_singleton)
        if abs(yv - singleton_center) > singleton_halfwidth
    ]
    report["singleton"] = _verdict(
        bad,
        center=singleton_center,
        halfwidth=singleton_halfwidth,
        max=max(sample.y_singleton, default=0),
        min=min(sample.y_singleton, default=0),
    )

    pairs = sample.multiplicities(2)
    pair_bad = [(pq, c) for pq, c in pairs.items() if c > PAIR_CAP]
    report["pair"] = _verdict(sorted(pair_bad), cap=PAIR_CAP, max=max(pairs.values(), default=0))

    ksets = sample.multiplicities(sample.k)
    edge_bad = []
    edge_checked = 0
    for e, c in ksets.items():
        if e in H.edge_set:
            edge_checked += 1
            if c > EDGE_CAP:
                edge_bad.append((e, c))
    report["edge"] = _verdict(
        sorted(edge_bad),
        cap=EDGE_CAP,
        edges_seen_in_copies=edge_checked,
        max_over_ksets=max(ksets.values(), default=0),
    )

    size_bad = [
        (i, len(c)) for i, c in enumerate(sample.copies) if abs(len(c) - size_center) > size_halfwidth
    ]
    report["size"] = _verdict(
        size_bad,
        center=size_center,
        halfwidth=size_halfwidth,
        max_deviation=max(
            (abs(len(c) - size_center) for c in sample.copies), default=Fraction(0)
        ),
    )

    if deg_probes:
        k = sample.k
        deg_bad = []
        for D in deg_probes:
            d = len(D)
            for i, c in enumerate(sample.copies):
                r = len(c)
                bound = comb0(r - d, k - d) - comb0(r - d - r // k, k - d) - xi * r ** (k - d)
                val = sample.deg(H, i, D)
                if not val > bound:
                    deg_bad.append((tuple(D), i, val))
        report["deg"] = _verdict(deg_bad, xi=xi, probes=len(deg_probes))
    return report


def _degree_stats(H: Hypergraph):
    deg = [0] * H.n
    codeg: Counter = Counter()
    for e in H.edges:
        for v in e:
            deg[v] += 1
        codeg.update(combinations(e, 2))
    return min(deg, default=0), max(deg, default=0), max(codeg.values(), default=0)


def round2_sparsify(H: Hypergraph, sample: RoundOneSample, fracs, seed: int) -> Hypergraph:
    """Union of per-copy edge selections drawn by fractional weight.

    fracs[i] is None or the host-labeled weight map that `certify_copies`
    certified as a perfect fractional matching of copy i; each positive-weight
    edge is kept with probability its weight. The run fails only if every
    slot is None. Returns the spanning subgraph of the selected edges, which
    are checked to be host edges and so are canonical.
    """
    if len(fracs) != len(sample.copies):
        raise DomainError("need one fractional solution slot per copy")
    if all(weights is None for weights in fracs):
        raise PipelineError("round2: no fractionally matchable copies")
    rng = CounterRng(seed)
    selected = set()
    for i, weights in enumerate(fracs):
        if weights is None:
            continue
        for j, (e, w) in enumerate(sorted((e, w) for e, w in weights.items() if w > 0)):
            if rng.bernoulli(w, TAG_ROUND2, i, j):
                selected.add(e)
    if not selected <= H.edge_set:
        raise CertificationError(f"round2: selected non-host edges {sorted(selected - H.edge_set)}")
    return Hypergraph._canonical(H.n, H.k, sorted(selected))


def greedy_low_degradation_matching(H: Hypergraph) -> tuple:
    """Deterministic greedy: repeatedly add the available edge whose removal
    degrades the surviving degrees least (min over edges of the max, over
    outside vertices, of incident available edges killed), ties lexicographic.
    """
    available = list(zip(H.edges, map(_mask, H.edges)))
    out = []
    while available:
        best = None
        for e, em in available:
            hit: Counter = Counter()
            for f, fm in available:
                if fm & em and f != e:
                    for v in f:
                        if not em >> v & 1:
                            hit[v] += 1
            worst = max(hit.values(), default=0)
            if best is None or worst < best[0] or (worst == best[0] and e < best[1]):
                best = (worst, e, em)
        _, e, em = best
        out.append(e)
        available = [(f, fm) for f, fm in available if not fm & em]
    return tuple(out)


@dataclass(frozen=True)
class PipelineResult:
    matching: tuple
    uncovered_count: int
    uncovered_fraction: Fraction
    diagnostics: dict


def _gate_cut(k: int, eps: Fraction) -> Fraction:
    """The independence gate's bound on alpha(H[R]) / |R|, 1 - 1/k - eps/5, for eps > 0."""
    return 1 - Fraction(1, k) - check_positive("eps", eps) / 5


def certify_copies(H: Hypergraph, sample: RoundOneSample, eps: Fraction) -> tuple:
    """Per-copy certificates: exact independence gate, then fractional check.

    A copy survives when alpha(H[R]) <= (1 - 1/k - eps/5) * |R| and the
    induced subgraph has a perfect fractional matching. Returns (fracs,
    diagnostics) where fracs[i] is a host-labeled weight map or None. Both
    depend on the copy only through its induced graph, so each distinct
    induced graph is gated and solved once per call; every copy still gets
    its own lifted weight map and skip entry, in copy order. The gate's
    slack eps must be positive.
    """
    gate_cut = _gate_cut(H.k, eps)
    solved = {}  # induced graph -> (alpha, its fractional optimum or None when the gate fails)
    fracs = []
    skipped = []
    for i, copy in enumerate(sample.copies):
        sub = induced(H, copy)
        if sub.graph not in solved:
            alpha = independence_number(sub.graph).size
            gated = alpha > gate_cut * len(copy)
            solved[sub.graph] = (alpha, None if gated else fractional_optimum(sub.graph))
        alpha, sol = solved[sub.graph]
        if sol is None:
            fracs.append(None)
            skipped.append((i, "independence", alpha))
            continue
        if sol.nu_star != Fraction(len(copy), H.k):
            fracs.append(None)
            skipped.append((i, "not-perfect", str(sol.nu_star)))
            continue
        fracs.append({sub.lift(e): w for e, w in sol.edge_weights.items() if w > 0})
    return fracs, {"skipped": skipped, "passed": sum(f is not None for f in fracs)}


def sparsify_stage(
    H: Hypergraph, copies: int, p: Fraction, seed: int, eps: Fraction = Fraction(1, 2), force: bool = False
) -> tuple:
    """Rounds one and two together; returns (spanning subgraph, diagnostics)."""
    sample = round1_sample(H, copies, p, seed, force)
    fracs, gate_diag = certify_copies(H, sample, eps)
    sparse = round2_sparsify(H, sample, fracs, seed)
    dmin, dmax, codeg = _degree_stats(sparse)
    diagnostics = {
        "round1": {"copies": copies, "sizes": [len(c) for c in sample.copies]},
        "gate": gate_diag,
        "round2": {
            "edges": sparse.num_edges,
            "min_degree": dmin,
            "max_degree": dmax,
            "max_pair_codegree": codeg,
            "survivors": gate_diag["passed"],
        },
    }
    return sparse, diagnostics


def almost_perfect_pipeline(
    H: Hypergraph,
    copies: int,
    p: Fraction,
    seed: int,
    eps: Fraction = Fraction(1, 2),
    force: bool = False,
) -> PipelineResult:
    """Round 1, per-copy certificates, round 2, then the greedy matcher.

    An edgeless host short-circuits to the empty matching once copies, p and
    eps pass the checks `sparsify_stage` makes, in its order (it draws nothing,
    so the copies guard does not apply); otherwise stage errors propagate with
    their stage label.
    """
    n = H.n
    if H.num_edges == 0:
        _round1_domain(copies, p)
        _gate_cut(H.k, eps)
        diagnostics = {"short_circuit": "host has no edges"}
        return PipelineResult((), n, Fraction(1) if n else Fraction(0), diagnostics)

    sparse, diagnostics = sparsify_stage(H, copies, p, seed, eps, force)
    matching = greedy_low_degradation_matching(sparse)
    uncovered = n - H.k * len(matching)
    diagnostics["greedy"] = {"size": len(matching)}
    return PipelineResult(matching, uncovered, Fraction(uncovered, n), diagnostics)
