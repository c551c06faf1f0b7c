import gc
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest

import hypermatch

from hypermatch import (
    AbsorbingFamily,
    AbsorbingParameters,
    AbsorptionStuckError,
    CertificationError,
    DomainError,
    Hypergraph,
    SizeLimitError,
    absorb,
    build_parity,
    build_space_barrier,
    complete_hypergraph,
    default_parameters,
    induced,
    max_matching,
    sample_absorbing_family,
    validate_matching,
)
from hypermatch import absorbing, core, exact
from hypermatch.rng import TAG_PROBE, CounterRng, random_hypergraph

PARAMS32 = AbsorbingParameters(3, 2, 1, 2)


def induced_matching_in(H, X, t):
    """The route _matching_in replaced, kept as its oracle: build H[X],
    match it, and lift the first t witness edges back to host labels."""
    sub = induced(H, X)
    witness = max_matching(sub.graph).witness
    return tuple(sorted(sub.lift(e) for e in witness[:t])) if len(witness) >= t else ()


ROUTES = {"lookup": True, "scan": False}


def route_verdicts(monkeypatch, forced=None):
    """Patch core._looks_up, the route rule of induced and core.edges_within,
    to record each verdict it gives (always forced, when forced is not None)."""
    real, verdicts = core._looks_up, []

    def looks_up(H, size):
        verdicts.append(real(H, size) if forced is None else forced)
        return verdicts[-1]

    monkeypatch.setattr(core, "_looks_up", looks_up)
    return verdicts


class TestMatchingIn:
    @pytest.mark.parametrize("route", sorted(ROUTES))
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_agrees_with_the_induced_subgraph_route(self, monkeypatch, k, route):
        cases, hosts = [], []
        for seed in range(6):
            rng = CounterRng(seed)
            for n in (k + 1, 9, 12):
                for p in (Fraction(1, 10), Fraction(1, 2), Fraction(9, 10), Fraction(1)):
                    H = random_hypergraph(n, k, p, 100 * seed + n)
                    hosts.append((H, max_matching(H)))
                    for size in range(n + 1):
                        X = rng.sample(list(range(n)), size, n, size, p.denominator)
                        cases += [(H, X, t, induced_matching_in(H, X, t)) for t in range(5)]
        verdicts = route_verdicts(monkeypatch, ROUTES[route])
        for H, X, t, expected in cases:
            assert absorbing._matching_in(H, set(X), t) == expected, (H.edges, X, t)
        for H, expected in hosts:
            assert max_matching(H) == expected, H.edges
        # One forced verdict per search on a proper subset, so the forced
        # route ran; a search on every vertex takes the host's edges unasked.
        subsets = sum(len(X) < H.n for H, X, _, _ in cases)
        assert verdicts == [ROUTES[route]] * subsets and subsets < len(cases)
        assert any(len(expected) == min(4, 12 // k) for _, _, _, expected in cases)

    @pytest.mark.parametrize("route", sorted(ROUTES))
    def test_budget_still_raises(self, monkeypatch, route):
        H = complete_hypergraph(12, 3)
        verdicts = route_verdicts(monkeypatch, ROUTES[route])
        monkeypatch.setattr(exact, "MATCHING_MAX_NODES", 3)
        # The message sizes the searched set H[X] (C(9, 3) = 84 edges), not the host.
        with pytest.raises(SizeLimitError, match="at most 3 search evaluations; n=9, e=84$"):
            absorbing._matching_in(H, range(9), 3)
        with pytest.raises(SizeLimitError, match="at most 3 search evaluations; n=12, e=220$"):
            max_matching(H)
        assert verdicts == [ROUTES[route]]  # asked by the subset search only

    @pytest.mark.parametrize("route", sorted(ROUTES))
    def test_leaves_no_reference_cycle(self, monkeypatch, route):
        # A cycle through the search's closure would keep its memo and edge
        # lists alive until the collector runs, which raises peak memory.
        H = random_hypergraph(12, 3, Fraction(1, 2), 5)
        verdicts = route_verdicts(monkeypatch, ROUTES[route])
        gc.disable()
        try:
            gc.collect()
            assert absorbing._matching_in(H, range(10), 3)
            assert max_matching(H).size
            assert gc.collect() == 0
        finally:
            gc.enable()
        assert verdicts == [ROUTES[route]]  # asked by the subset search only

    def test_both_routes_are_taken_unpatched(self, monkeypatch):
        # Dense and sparse hosts, as the absorbing family meets them.
        dense, sparse = complete_hypergraph(10, 3), random_hypergraph(10, 3, Fraction(1, 20), 3)
        expected = {(H, X): induced_matching_in(H, X, 2)
                    for H in (dense, sparse) for X in ((0, 2, 3, 5, 6, 8, 9), tuple(range(7)))}
        verdicts = route_verdicts(monkeypatch)
        for (H, X), witness in expected.items():
            assert absorbing._matching_in(H, X, 2) == witness
        assert verdicts == [True, True, False, False]


def probe_corpus():
    """(params, host) pairs: complete, barrier, random and parity hosts for
    three legal sessions, so probes both span edges and span none."""
    for params in (PARAMS32, AbsorbingParameters(4, 3, 1, 2), AbsorbingParameters(4, 3, 1, 3)):
        k = params.k
        n = 15 if k == 3 else 16
        yield params, complete_hypergraph(n, k)
        yield params, build_space_barrier(n, k, k, n // k - 1)
        for p in (Fraction(1, 10), Fraction(1, 3), Fraction(2, 3)):
            yield params, random_hypergraph(n, k, p, 10 * n + p.denominator)
        yield params, build_parity(n // 2, n - n // 2, k)


def legal_pairs(k, l):
    out = []
    for a in range(1, k - l + 1):
        for h in range(1, l + 1):
            if a * l >= a * (k - l) + (k - h):
                out.append((a, h))
    return out


class TestParameters:
    def test_session_sizes(self):
        assert PARAMS32.r_size == 4 and PARAMS32.q_size == 3 and PARAMS32.leftover_bound == 3

    def test_default_for_three_two(self):
        assert default_parameters(3, 2) == PARAMS32

    def test_generic_choice_is_legal_for_upper_half(self):
        for k in range(3, 11):
            for l in range(k // 2 + 1, k):
                AbsorbingParameters(k, l, k - l, l)  # a = k-l, h = l always works

    def test_default_minimizes_leftover(self):
        for k in range(3, 11):
            for l in range(k // 2 + 1, k):
                best = min(a * l + h - 1 for a, h in legal_pairs(k, l))
                chosen = default_parameters(k, l)
                assert chosen.leftover_bound == best

    def test_rejects_illegal_combinations(self):
        with pytest.raises(DomainError):
            AbsorbingParameters(3, 2, 2, 2)  # a > k - l
        with pytest.raises(DomainError):
            AbsorbingParameters(3, 2, 1, 3)  # h > l
        with pytest.raises(DomainError):
            AbsorbingParameters(4, 2, 1, 2)  # 2 >= 1*2 + (4-2) fails
        with pytest.raises(DomainError):
            default_parameters(4, 2)  # needs l > k/2

    @pytest.mark.parametrize(
        "make, name, value",
        [
            (lambda: AbsorbingParameters(3, 2, 1.0, 2), "a", 1.0),
            (lambda: AbsorbingParameters(3, 2, True, 2), "a", True),
            (lambda: AbsorbingParameters(3, 2, 1, 2.0), "h", 2.0),
            (lambda: AbsorbingParameters(3.0, 2, 1, 2), "k", 3.0),
            (lambda: default_parameters(3.0, 2), "k", 3.0),
        ],
        ids=["a-float", "a-bool", "h-float", "k-float", "default-k-float"],
    )
    def test_rejects_a_field_that_is_not_an_int(self, make, name, value):
        # default_parameters(3.0, 2) once returned k=3.0, a=1.0, h=2.0.
        with pytest.raises(DomainError) as caught:
            make()
        assert str(caught.value) == f"{name} must be an integer, got {value!r}"


class TestIsAbsorbing:
    # Whether Q = (4, 5, 6) absorbs R = (0, 1, 2, 3), asked through absorb
    # with Q as the family's only member.
    FAMILY = AbsorbingFamily(PARAMS32, ((4, 5, 6),), (((4, 5, 6),),), {})

    def test_complete_seven(self):
        K7 = complete_hypergraph(7, 3)
        res = absorb(K7, self.FAMILY, (0, 1, 2, 3))
        assert len(res.matching) == PARAMS32.a + 1 and validate_matching(K7, res.matching)
        assert len(res.uncovered) == 1

    def test_empty_host_never_absorbs(self):
        H = Hypergraph(7, 3, [])
        assert sample_absorbing_family(H, PARAMS32, Fraction(1, 2), 0, probes=0).members == ()
        with pytest.raises(AbsorptionStuckError) as err:
            absorb(H, self.FAMILY, (0, 1, 2, 3))
        assert err.value.pending == (0, 1, 2, 3)

    def test_spanning_without_extension_fails(self):
        # Q spans a matching but the union has no second disjoint edge.
        H = Hypergraph(7, 3, [(4, 5, 6)])
        with pytest.raises(AbsorptionStuckError) as err:
            absorb(H, self.FAMILY, (0, 1, 2, 3))
        assert err.value.pending == (0, 1, 2, 3)


class TestSampling:
    def test_deterministic_given_seed(self):
        K30 = complete_hypergraph(30, 3)
        a = sample_absorbing_family(K30, PARAMS32, Fraction(1, 5), 2, probes=10)
        b = sample_absorbing_family(K30, PARAMS32, Fraction(1, 5), 2, probes=10)
        assert a.members == b.members and a.diagnostics == b.diagnostics

    def test_members_disjoint_and_matchable(self):
        K30 = complete_hypergraph(30, 3)
        fam = sample_absorbing_family(K30, PARAMS32, Fraction(1, 5), 2, probes=0)
        seen = set()
        for member in fam.members:
            assert not (set(member) & seen)
            seen |= set(member)
        assert validate_matching(K30, fam.matching)
        assert len(fam.matching) == PARAMS32.a * len(fam.members)

    def test_probability_clamp_on_tiny_instance(self):
        H = Hypergraph(3, 3, [(0, 1, 2)])
        fam = sample_absorbing_family(H, PARAMS32, Fraction(9, 10), 0, probes=0)
        assert fam.diagnostics["p_clamped"]
        assert fam.members == ((0, 1, 2),)

    def test_empty_host_gives_empty_family(self):
        fam = sample_absorbing_family(Hypergraph(9, 3, []), PARAMS32, Fraction(1, 3), 1, probes=0)
        assert fam.members == ()
        assert fam.diagnostics["non_matchable_removed"] == fam.diagnostics["raw_count"] - fam.diagnostics["intersecting_removed"]

    def test_uniformity_mismatch_rejected(self):
        with pytest.raises(DomainError):
            sample_absorbing_family(complete_hypergraph(8, 2), PARAMS32, Fraction(1, 4), 0)

    def test_negative_probe_count_rejected(self):
        with pytest.raises(DomainError, match="probes"):
            sample_absorbing_family(complete_hypergraph(8, 3), PARAMS32, Fraction(1, 4), 0, probes=-1)

    def test_rho_range_enforced(self):
        with pytest.raises(DomainError):
            sample_absorbing_family(complete_hypergraph(8, 3), PARAMS32, Fraction(1), 0)

    @pytest.mark.parametrize("seed", [1, 3, 4])
    def test_probe_count_matches_is_absorbing_recount(self, seed):
        # Recount nu(H[R u Q]) >= a + 1 for every probe R and member Q, with no
        # shortcut, over complete, barrier, random and parity hosts.
        spans, minima = Counter(), Counter()
        for (params, H), rho in product(probe_corpus(), (Fraction(1, 3), Fraction(1, 5))):
            fam = sample_absorbing_family(H, params, rho, seed, probes=30)
            free = [v for v in range(H.n) if v not in fam.covered]
            rng = CounterRng(seed)
            counts = []
            for probe in (rng.sample(free, params.r_size, TAG_PROBE, j) for j in range(30)):
                spans[induced(H, probe).graph.num_edges > 0] += 1
                counts.append(sum(
                    max_matching(induced(H, set(probe) | set(q)).graph).size >= params.a + 1
                    for q in fam.members
                ))
            assert fam.diagnostics["probe_count"] == 30
            assert fam.diagnostics["min_absorbers_over_probes"] == min(counts), (H.name, params)
            minima[min(counts) < len(fam.members)] += 1
        # Both sides of the spanning shortcut ran, and on some families a
        # member misses a probe, so counting every member would be caught.
        assert spans[True] and spans[False], spans
        assert minima[True] and minima[False], minima

    def test_probe_searches_only_where_no_edge_is_spanned(self, monkeypatch):
        calls = []
        real = absorbing._matching_in
        monkeypatch.setattr(absorbing, "_matching_in", lambda H, X, t: calls.append(t) or real(H, X, t))
        # Complete host: every probe spans an edge, so only admission searches.
        fam = sample_absorbing_family(complete_hypergraph(30, 3), PARAMS32, Fraction(1, 5), 2, probes=100)
        d = fam.diagnostics
        assert len(fam.members) == 4 and d["min_absorbers_over_probes"] == 4
        assert calls == [PARAMS32.a] * (d["raw_count"] - d["intersecting_removed"])

    def test_memberless_family_draws_one_probe(self, monkeypatch):
        draws = []
        real = CounterRng.sample
        monkeypatch.setattr(CounterRng, "sample", lambda self, *args: draws.append(args[2:]) or real(self, *args))
        fam = sample_absorbing_family(Hypergraph(9, 3, []), PARAMS32, Fraction(1, 3), 1, probes=100)
        assert fam.members == () and fam.diagnostics["raw_count"] > 0
        assert fam.diagnostics["probe_count"] == 100 and fam.diagnostics["min_absorbers_over_probes"] == 0
        assert draws == [(TAG_PROBE, 0)]


class TestAbsorb:
    def setup_method(self):
        self.K30 = complete_hypergraph(30, 3)
        self.family = sample_absorbing_family(self.K30, PARAMS32, Fraction(1, 5), 2, probes=0)
        assert len(self.family.members) == 4
        self.free = sorted(set(range(30)) - self.family.covered)

    def test_empty_leftover_returns_family_matching(self):
        res = absorb(self.K30, self.family, ())
        assert res.matching == self.family.matching
        assert res.uncovered == ()

    def test_small_leftover_skips_the_loop(self):
        s = tuple(self.free[:3])
        res = absorb(self.K30, self.family, s)
        assert res.matching == self.family.matching
        assert res.uncovered == s

    def test_eight_vertices_absorbed(self):
        s = tuple(self.free[:8])
        res = absorb(self.K30, self.family, s)
        assert validate_matching(self.K30, res.matching)
        assert len(res.uncovered) <= PARAMS32.leftover_bound
        total = 3 * len(self.family.members) + len(s)
        assert len(res.uncovered) % 3 == total % 3

    def test_overlap_with_family_rejected(self):
        inside = self.family.members[0][0]
        with pytest.raises(DomainError):
            absorb(self.K30, self.family, (inside,))

    def test_stuck_raises_with_offending_set(self):
        lonely = sample_absorbing_family(self.K30, PARAMS32, Fraction(1, 20), 42, probes=0)
        assert len(lonely.members) == 1
        free = sorted(set(range(30)) - lonely.covered)
        s = tuple(free[:8])  # needs two members, only one exists
        with pytest.raises(AbsorptionStuckError) as err:
            absorb(self.K30, lonely, s)
        assert len(err.value.pending) == PARAMS32.r_size

    def test_invalid_final_matching_raises_certification_error(self, monkeypatch):
        monkeypatch.setattr("hypermatch.absorbing.validate_matching", lambda H, matching: False)
        with pytest.raises(CertificationError):
            absorb(self.K30, self.family, tuple(self.free[:8]))

    def test_certification_error_fires_under_python_O(self):
        script = """
import sys
from fractions import Fraction
import hypermatch.absorbing as ab
from hypermatch import CertificationError, complete_hypergraph
K9 = complete_hypergraph(9, 3)
family = ab.sample_absorbing_family(K9, ab.AbsorbingParameters(3, 2, 1, 2), Fraction(1, 3), 0, probes=0)
ab.validate_matching = lambda H, matching: False
try:
    ab.absorb(K9, family, ())
except CertificationError:
    print("CertificationError", sys.flags.optimize)
"""
        src = os.path.dirname(os.path.dirname(hypermatch.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=path),
            timeout=120,
        )
        assert proc.stdout.split() == ["CertificationError", "1"], proc.stderr


def test_frozen_family_regression_k30():
    # Monte Carlo baseline, frozen on first certified run.
    K30 = complete_hypergraph(30, 3)
    fam = sample_absorbing_family(K30, PARAMS32, Fraction(1, 20), 42, probes=100)
    assert fam.members == ((1, 16, 24),)
    assert fam.diagnostics["raw_count"] == 1
    assert fam.diagnostics["min_absorbers_over_probes"] >= 1
    # Expected family size band: rho*n/2 .. 2*rho*n.
    assert Fraction(3, 4) <= len(fam.members) <= 3
