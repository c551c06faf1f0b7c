import re
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest

from hypermatch import (
    CertificationError,
    DomainError,
    Hypergraph,
    PipelineError,
    RoundOneSample,
    SizeLimitError,
    almost_perfect_pipeline,
    build_space_barrier,
    check_round1_properties,
    complete_hypergraph,
    greedy_low_degradation_matching,
    round1_sample,
    round2_sparsify,
    validate_matching,
)
from hypermatch import core, pipeline
from hypermatch.core import degree, induced
from hypermatch.exact import independence_number
from hypermatch.fractional import fractional_optimum
from hypermatch.pipeline import certify_copies, default_halfwidth, sparsify_stage
from hypermatch.rng import TAG_EDGE_SAMPLE, CounterRng, random_hypergraph

HALF = Fraction(1, 2)


def uniform_perfect_solution(n):
    # K_n^3 with n divisible by 3: weight 1/C(n-1,2) per edge saturates
    # every vertex, so the total is n/3.
    K = complete_hypergraph(n, 3)
    w = Fraction(1, (n - 1) * (n - 2) // 2)
    return {e: w for e in K.edges}


class TestRoundOne:
    def test_full_probability_keeps_everything(self):
        H = complete_hypergraph(6, 3)
        sample = round1_sample(H, 3, Fraction(1), seed=0)
        assert all(c == tuple(range(6)) for c in sample.copies)
        assert sample.y_singleton == (3,) * 6

    def test_zero_probability_keeps_nothing(self):
        H = complete_hypergraph(6, 3)
        sample = round1_sample(H, 4, Fraction(0), seed=0)
        assert all(c == () for c in sample.copies)
        assert set(sample.y_singleton) == {0}

    def test_sizes_are_multiples_of_k(self):
        H = complete_hypergraph(10, 3)
        sample = round1_sample(H, 25, HALF, seed=3)
        assert all(len(c) % 3 == 0 for c in sample.copies)

    def test_multiplicities_match_recount(self):
        H = complete_hypergraph(9, 3)
        sample = round1_sample(H, 12, HALF, seed=5)

        def recount(s):
            return sum(1 for c in sample.copies if set(s) <= set(c))

        for v in range(9):
            assert recount((v,)) == sample.y_singleton[v]
        for r in (2, 3):
            counts = sample.multiplicities(r)
            for s in combinations(range(9), r):
                assert recount(s) == counts.get(s, 0)

    def test_deterministic(self):
        H = complete_hypergraph(9, 3)
        assert round1_sample(H, 6, HALF, 11).copies == round1_sample(H, 6, HALF, 11).copies

    def test_copies_guard_and_force(self, monkeypatch):
        H = complete_hypergraph(9, 3)
        before = round1_sample(H, 6, HALF, 11)
        monkeypatch.setattr(pipeline, "ROUND1_MAX_DRAWS", 6 * 9 - 1)
        with pytest.raises(SizeLimitError, match="copies \\* n <= 53 vertex draws, got copies=6, n=9$"):
            round1_sample(H, 6, HALF, 11)
        assert round1_sample(H, 6, HALF, 11, force=True) == before
        # A copy of an empty host is still a step of the loop.
        with pytest.raises(SizeLimitError):
            round1_sample(Hypergraph(0, 3, []), 54, HALF, 1)

    def test_parameter_validation(self):
        H = complete_hypergraph(9, 3)
        with pytest.raises(DomainError):
            round1_sample(H, 0, HALF, 1)
        with pytest.raises(DomainError):
            round1_sample(H, 2, Fraction(3, 2), 1)
        sample = round1_sample(H, 2, HALF, 1)
        with pytest.raises(DomainError):
            round2_sparsify(H, sample, [None], seed=0)  # one slot per copy


class TestRoundOneProperties:
    def test_repeated_triple_breaks_every_band_and_cap(self):
        # 30 copies of one host edge at p = 1/2: every vertex misses the
        # multiplicity band centred on 15, every copy misses the size band
        # centred on 15, and the shared pairs and edge exceed both caps.
        H = complete_hypergraph(30, 3)
        y = (30,) * 3 + (0,) * 27
        sample = RoundOneSample(30, 3, HALF, ((0, 1, 2),) * 30, y)
        report = check_round1_properties(sample, H)
        width = default_halfwidth(Fraction(15))
        assert (report["singleton"]["center"], report["singleton"]["halfwidth"]) == (15, width)
        assert (report["size"]["center"], report["size"]["halfwidth"]) == (15, width)
        assert not report["singleton"]["ok"] and report["singleton"]["violation_count"] == 30
        assert not report["size"]["ok"] and report["size"]["violation_count"] == 30
        assert not report["pair"]["ok"] and report["pair"]["cap"] == 2
        assert report["pair"]["violations"] == [((0, 1), 30), ((0, 2), 30), ((1, 2), 30)]
        assert not report["edge"]["ok"] and report["edge"]["cap"] == 1
        assert report["edge"]["violations"] == [((0, 1, 2), 30)]

    def test_single_copy_satisfies_multiplicity_caps(self):
        H = complete_hypergraph(9, 3)
        sample = round1_sample(H, 1, HALF, seed=2)
        report = check_round1_properties(sample, H)
        assert report["pair"]["ok"] and report["edge"]["ok"]
        assert report["pair"]["max"] <= 1

    def test_degree_probe_reports_bound(self):
        H = complete_hypergraph(12, 3)
        sample = round1_sample(H, 4, Fraction(1), seed=1)
        report = check_round1_properties(sample, H, ((0,), (1,)), Fraction(1, 10))
        # Complete host at p=1: every probe sees its full degree.
        assert report["deg"]["ok"]

    def test_multiplicity_count_guard_and_force(self, monkeypatch):
        # Three copies of K9^(3) at p = 1: 3 * (C(9, 2) + C(9, 3)) = 360 pairs and triples.
        H = complete_hypergraph(9, 3)
        sample = round1_sample(H, 3, Fraction(1), seed=1)
        before = check_round1_properties(sample, H)
        monkeypatch.setattr(core, "ENUMERATE_MAX_KSETS", 360)
        assert check_round1_properties(sample, H) == before
        monkeypatch.setattr(core, "ENUMERATE_MAX_KSETS", 359)
        with pytest.raises(SizeLimitError, match=re.escape("<= 359, passed at copy 2 (|copy|=9, k=3)")):
            check_round1_properties(sample, H)
        assert check_round1_properties(sample, H, force=True) == before

    def test_desk_scale_regression(self):
        # Frozen 2000-vertex combinatorial universe baseline.
        universe = Hypergraph(2000, 3, [])
        p = Fraction(1069, 1000000)
        sample = round1_sample(universe, 200, p, seed=11)
        report = check_round1_properties(sample, universe)
        assert report["pair"]["ok"] and report["pair"]["max"] == 1
        assert report["edge"]["ok"]
        assert report["singleton"]["ok"] and report["singleton"]["max"] == 2
        assert report["size"]["ok"]
        assert report["size"]["max_deviation"] == Fraction(1931, 500)
        assert max(len(c) for c in sample.copies) == 6


class TestRoundTwo:
    def test_single_full_copy_on_complete_host(self):
        K6 = complete_hypergraph(6, 3)
        sample = round1_sample(K6, 1, Fraction(1), seed=0)
        sub = round2_sparsify(K6, sample, [uniform_perfect_solution(6)], seed=4)
        assert sub.n == 6 and set(sub.edges) <= set(K6.edges)
        assert sub.num_edges >= 1
        # The stage's degree statistics agree with a recount through the core.
        sparse, diag = sparsify_stage(K6, 1, Fraction(1), seed=4)
        degs = [degree(sparse, (v,)) for v in range(6)]
        codeg = Counter()
        for e in sparse.edges:
            codeg.update(combinations(e, 2))
        stats = diag["round2"]
        assert (stats["min_degree"], stats["max_degree"]) == (min(degs), max(degs))
        assert stats["max_pair_codegree"] == max(codeg.values(), default=0)
        assert (stats["edges"], stats["survivors"]) == (sparse.num_edges, diag["gate"]["passed"])

    def test_no_usable_copy_is_an_error(self):
        K6 = complete_hypergraph(6, 3)
        sample = round1_sample(K6, 2, Fraction(1), seed=0)
        with pytest.raises(PipelineError):
            round2_sparsify(K6, sample, [None, None], seed=0)

    def test_disjoint_mass_adds_degrees(self):
        H = Hypergraph(6, 3, [(0, 1, 2), (3, 4, 5)])
        sample = round1_sample(H, 2, Fraction(1), seed=0)
        fracs = [
            {(0, 1, 2): Fraction(1), (3, 4, 5): Fraction(1)},
            {(0, 1, 2): Fraction(1), (3, 4, 5): Fraction(1)},
        ]
        sub = round2_sparsify(H, sample, fracs, seed=0)
        assert sub.edges == H.edges
        assert [degree(sub, (v,)) for v in range(6)] == [1] * 6

    def test_non_host_edge_is_a_certification_error(self):
        # A weight-one edge is always selected; (0, 1, 3) is not a host edge.
        H = Hypergraph(6, 3, [(0, 1, 2), (3, 4, 5)])
        sample = round1_sample(H, 1, Fraction(1), seed=0)
        with pytest.raises(CertificationError):
            round2_sparsify(H, sample, [{(0, 1, 3): Fraction(1)}], seed=0)


class TestGreedyMatcher:
    def test_recovers_a_perfect_matching_host(self):
        H = Hypergraph(9, 3, [(0, 1, 2), (3, 4, 5), (6, 7, 8)])
        assert greedy_low_degradation_matching(H) == ((0, 1, 2), (3, 4, 5), (6, 7, 8))

    def test_prefers_low_degradation(self):
        # Taking (2,3) would kill both neighbors of the path's middle; the
        # greedy takes the ends first.
        path = Hypergraph(6, 2, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
        matching = greedy_low_degradation_matching(path)
        assert validate_matching(path, matching)
        assert len(matching) == 3


class TestPipeline:
    def test_empty_host_short_circuits(self):
        res = almost_perfect_pipeline(Hypergraph(9, 3, []), 5, HALF, seed=1)
        assert res.matching == ()
        assert res.uncovered_fraction == 1

    def test_gate_blocks_sparse_hosts(self):
        H = Hypergraph(9, 3, [(0, 1, 2), (3, 4, 5), (6, 7, 8)])
        with pytest.raises(PipelineError):
            almost_perfect_pipeline(H, 3, Fraction(1), seed=0)

    def test_complete_k30_regression(self):
        res = almost_perfect_pipeline(complete_hypergraph(30, 3), 30, Fraction(1, 3), seed=7)
        assert validate_matching(complete_hypergraph(30, 3), res.matching)
        assert res.uncovered_count == 3  # frozen baseline
        assert res.uncovered_fraction <= Fraction(1, 10)

    def test_matching_always_valid_and_counts_consistent(self):
        K12 = complete_hypergraph(12, 3)
        res = almost_perfect_pipeline(K12, 10, HALF, seed=9)
        assert validate_matching(K12, res.matching)
        assert res.uncovered_count == 12 - 3 * len(res.matching)
        sub_edges = res.diagnostics["round2"]["edges"]
        assert sub_edges >= len(res.matching)


def barrier_with_noise(seed=99):
    barrier = build_space_barrier(30, 3, 3, 10)
    rng = CounterRng(seed)
    noise = [
        c
        for idx, c in enumerate(combinations(range(10, 30), 3))
        if rng.bernoulli(Fraction(3, 10), TAG_EDGE_SAMPLE, idx)
    ]
    return Hypergraph(30, 3, list(barrier.edges) + noise, name="barrier-plus-noise")


def test_barrier_noise_pipeline_regression():
    H = barrier_with_noise()
    res = almost_perfect_pipeline(H, 30, Fraction(1, 3), seed=7)
    assert validate_matching(H, res.matching)
    assert res.uncovered_count == 3  # frozen baseline
    assert res.uncovered_fraction <= Fraction(1, 10)


def certify_every_copy(H, sample, eps):
    """certify_copies as a plain loop that gates and solves every copy afresh."""
    gate_cut = 1 - Fraction(1, H.k) - Fraction(eps) / 5
    fracs, skipped = [], []
    for i, copy in enumerate(sample.copies):
        sub = induced(H, copy)
        alpha = independence_number(sub.graph).size
        if alpha > gate_cut * len(copy):
            fracs.append(None)
            skipped.append((i, "independence", alpha))
            continue
        sol = fractional_optimum(sub.graph)
        if sol.nu_star != Fraction(len(copy), H.k):
            fracs.append(None)
            skipped.append((i, "not-perfect", str(sol.nu_star)))
            continue
        fracs.append({sub.lift(e): w for e, w in sol.edge_weights.items() if w > 0})
    return fracs, {"skipped": skipped, "passed": sum(f is not None for f in fracs)}


def k12_plus_isolated():
    # A copy holding vertex 12 has an isolated vertex, so it passes the gate
    # (alpha = 3) yet is not perfect.
    return Hypergraph(13, 3, list(combinations(range(12), 3)), name="k12-plus-isolated")


# (host, copies, p, seed): the benchmark's shape on K30^(3) and a barrier-noise
# host, random 3-graphs whose small copies repeat and come out empty, and a
# host with an isolated vertex.
CERTIFY_CASES = {
    "k30": (lambda: complete_hypergraph(30, 3), 10, Fraction(1, 4), 5),
    "barrier-noise": (barrier_with_noise, 10, Fraction(1, 4), 5),
    "random-12": (lambda: random_hypergraph(12, 3, Fraction(1, 3), 7012), 10, Fraction(1, 4), 5),
    "random-15": (lambda: random_hypergraph(15, 3, Fraction(2, 3), 7015), 12, HALF, 5),
    "k12-plus-isolated": (k12_plus_isolated, 12, HALF, 1),
}


def counting(monkeypatch, name):
    """Wrap pipeline.<name> so each call is counted by its graph argument."""
    calls = Counter()
    real = getattr(pipeline, name)

    def counted(G, *args, **kwargs):
        calls[G] += 1
        return real(G, *args, **kwargs)

    monkeypatch.setattr(pipeline, name, counted)
    return calls


@pytest.mark.parametrize("case", CERTIFY_CASES)
def test_certify_copies_gates_and_solves_each_distinct_induced_graph_once(monkeypatch, case):
    make, copies, p, seed = CERTIFY_CASES[case]
    H = make()
    sample = round1_sample(H, copies, p, seed)
    expected = certify_every_copy(H, sample, HALF)
    gate_calls = counting(monkeypatch, "independence_number")
    lp_calls = counting(monkeypatch, "fractional_optimum")
    assert certify_copies(H, sample, HALF) == expected
    graphs = [induced(H, c).graph for c in sample.copies]
    gated = {i for i, reason, _ in expected[1]["skipped"] if reason == "independence"}
    assert gate_calls == Counter(set(graphs))
    assert lp_calls == Counter({G for i, G in enumerate(graphs) if i not in gated})


def test_certify_cases_cover_every_outcome():
    # Between them the cases repeat induced graphs and hold an empty copy, a
    # copy that fails the gate, one that is not perfect and one that passes.
    reasons, repeats, empty, passed = set(), 0, 0, 0
    for make, copies, p, seed in CERTIFY_CASES.values():
        H = make()
        sample = round1_sample(H, copies, p, seed)
        fracs, diagnostics = certify_every_copy(H, sample, HALF)
        reasons |= {reason for _, reason, _ in diagnostics["skipped"]}
        repeats += len(sample.copies) - len({induced(H, c).graph for c in sample.copies})
        empty += sum(not c for c in sample.copies)
        passed += diagnostics["passed"]
    assert reasons == {"independence", "not-perfect"}
    assert repeats and empty and passed
