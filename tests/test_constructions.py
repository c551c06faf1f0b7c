import json
from fractions import Fraction
from itertools import combinations
from math import ceil, comb

import pytest

from hypermatch import (
    DomainError,
    Hypergraph,
    SizeLimitError,
    build_clique_minus,
    build_parity,
    build_space_barrier,
    build_space_barrier_at,
    comb0,
    max_matching,
    min_l_degree,
    space_barrier_edge_count,
    theorem_m_range,
    threshold_formula,
    threshold_sweep,
    to_json,
)
from hypermatch import constructions, exact
from hypermatch.cli import main
from hypermatch.exact import greedy_matching
from hypermatch.rng import TAG_SET_SAMPLE, CounterRng, random_hypergraph


def test_comb0_convention():
    assert comb0(5, 2) == 10
    assert comb0(2, 5) == 0
    assert comb0(-1, 2) == 0
    assert comb0(3, -1) == 0


class TestSpaceBarrier:
    def test_edge_count_and_matching_number(self):
        H = build_space_barrier(9, 3, 3, 2)
        assert H.num_edges == 49 == comb(9, 3) - comb(7, 3)
        assert H.num_edges == space_barrier_edge_count(9, 3, 3, 2)
        assert max_matching(H).size == 2

    def test_single_hit_variant_kills_pairs_inside_cover(self):
        H = build_space_barrier(9, 3, 1, 2)
        assert min_l_degree(H, 2) == 0

    def test_empty_cover_gives_empty_hypergraph(self):
        assert build_space_barrier(8, 3, 3, 0).num_edges == 0

    def test_closed_form_matches_enumeration(self):
        for n, k, s, m in [(8, 3, 1, 3), (8, 3, 2, 3), (9, 4, 4, 2), (7, 2, 2, 3)]:
            H = build_space_barrier(n, k, s, m)
            assert H.num_edges == space_barrier_edge_count(n, k, s, m)

    @pytest.mark.parametrize("k", range(1, 7))
    def test_full_barrier_count_is_binomial_difference(self, k):
        # H^k_k(n, m) holds every k-set that meets the m-set W.
        for n in range(16):
            for m in range(n + 1):
                expected = comb0(n, k) - comb0(n - m, k)
                assert space_barrier_edge_count(n, k, k, m) == expected

    def test_matching_number_saturates_at_n_over_k(self):
        # Above n/k the cover can no longer be matched one edge apiece.
        assert max_matching(build_space_barrier(6, 3, 3, 3)).size == 2
        assert max_matching(build_space_barrier(7, 2, 2, 5)).size == 3

    def test_arbitrary_cover_positions(self):
        H = build_space_barrier_at(8, 3, 3, (3, 7))
        expected = {e for e in combinations(range(8), 3) if set(e) & {3, 7}}
        assert set(H.edges) == expected

    def test_barrier_edges_equal_the_per_k_set_count(self):
        # The loop barrier_edges once ran, one k-set at a time.
        def reference(n, k, s, W):
            wset = frozenset(W)
            out = []
            for e in combinations(range(n), k):
                hits = sum(1 for v in e if v in wset)
                if 1 <= hits <= s:
                    out.append(e)
            return out

        rng = CounterRng(5)
        for n in range(13):
            for k in range(1, 6):
                # Empty, a prefix, clique-minus's top vertices, seeded subsets.
                covers = [(), range(n // 2), range(n - n // k + 1, n)]
                covers += (rng.sample(range(n), size, n, k, size) for size in {1, n // 3, n - 1} if 0 <= size <= n)
                for W in covers:
                    for s in range(1, k + 1):
                        assert constructions.barrier_edges(n, k, s, W) == reference(n, k, s, W), (n, k, s, W)

    def test_parameter_validation(self):
        with pytest.raises(DomainError):
            build_space_barrier(5, 3, 0, 2)
        with pytest.raises(DomainError):
            build_space_barrier(5, 3, 4, 2)
        with pytest.raises(DomainError):
            build_space_barrier(5, 3, 3, 6)
        with pytest.raises(DomainError):
            build_space_barrier_at(5, 3, 3, (0, 0))

    @pytest.mark.parametrize("W", [(0, 0), (True, 3), (1.0, 3), (3, 5), (-1, 3)])
    def test_cover_side_follows_the_vertex_set_rule(self, W):
        # core's rule, the one barrier_deficit applies: only ints, no repeats, inside 0..n-1.
        with pytest.raises(DomainError, match="^vertex set "):
            build_space_barrier_at(5, 3, 3, W)


class TestThresholdFormula:
    def test_reference_values(self):
        assert threshold_formula(9, 3, 1, 2) == 13
        assert threshold_formula(9, 3, 2, 2) == 2
        assert threshold_formula(9, 3, 1, 0) == 0

    def test_matches_barrier_min_degree(self):
        for n, k, l, m in [(9, 3, 1, 2), (9, 3, 2, 2), (10, 3, 2, 3), (8, 4, 3, 2)]:
            barrier = build_space_barrier(n, k, k, m)
            assert min_l_degree(barrier, l) == threshold_formula(n, k, l, m)

    def test_range_validation(self):
        with pytest.raises(DomainError):
            threshold_formula(9, 3, 3, 2)
        with pytest.raises(DomainError):
            threshold_formula(9, 3, 1, 9)


class TestTheoremMRange:
    """The paper's m-range n/k - mu*n <= m <= n/k - 1 - (1 - l/k)*ceil((k-l)/(2l-k)), for k/2 < l < k."""

    @pytest.mark.parametrize("mu", [Fraction(1, 10), Fraction(1, 4), Fraction(1)])
    def test_literal_statement(self, mu):
        for k in range(3, 10):
            for l in range(1, k):
                for n in range(k, 61):
                    got = theorem_m_range(n, k, l, mu)
                    if 2 * l <= k:
                        assert len(got) == 0
                        continue
                    a = ceil(Fraction(k - l, 2 * l - k))
                    lower, upper = Fraction(n, k) - mu * n, Fraction(n, k) - 1 - (1 - Fraction(l, k)) * a
                    assert list(got) == [m for m in range(n + 1) if lower <= m <= upper]

    def test_reaches_the_tight_case_of_the_abstract(self):
        # 3l >= 2k and n = r (mod k) with r + l >= k: the theorem's m reaches ceil(n/k) - 2.
        mu = Fraction(1, 4)
        cases, below_mu = 0, []
        for k in range(3, 10):
            for l in range(-(-2 * k // 3), k):
                for n in range(k, 400):
                    if n % k + l < k:
                        continue
                    cases += 1
                    got, target = theorem_m_range(n, k, l, mu), ceil(Fraction(n, k)) - 2
                    assert got.stop - 1 >= target
                    if target >= max(0, ceil(Fraction(n, k) - mu * n)):
                        assert target in got
                    else:
                        below_mu.append((k, l, n))
        assert cases == 3629
        assert below_mu == [(3, 2, 4), (3, 2, 5)]

    @pytest.mark.parametrize("mu", [Fraction(0), Fraction(-1), -1])
    def test_mu_must_be_positive(self, mu):
        with pytest.raises(DomainError, match=f"mu must be a positive rational, got {mu}"):
            theorem_m_range(12, 3, 2, mu)


class TestParity:
    def test_two_by_two_crossing_pairs(self):
        H = build_parity(2, 2, 2)
        assert set(H.edges) == {(0, 2), (0, 3), (1, 2), (1, 3)}

    def test_single_pair_is_empty(self):
        assert build_parity(1, 1, 2).num_edges == 0

    def test_three_three_triple_count(self):
        H = build_parity(3, 3, 3)
        assert H.num_edges == comb(3, 3) + comb(3, 2) * comb(3, 1) == 10

    def test_parity_obstruction_blocks_perfect_matching(self):
        # |A| odd, every edge has even |e n A|: a perfect matching would sum
        # even interceptions to the odd |A|.
        H = build_parity(3, 3, 3)
        assert max_matching(H).size < 2
        H2 = build_parity(5, 4, 3)
        assert max_matching(H2).size < 3

    def test_too_small_rejected(self):
        with pytest.raises(DomainError):
            build_parity(1, 1, 3)
        for k in (0, -1):
            with pytest.raises(DomainError, match="k >= 1"):
                build_parity(4, 3, k)


# (k, l, search_p, seed) for a small sweep n = k + 2 .. k + 5 with m_list 1..4:
# m runs past n // k, so some hosts have nu <= m and the exact predicate decides.
SWEEP_CASES = [
    (k, l, p, 10 * k + l)
    for k, l in ((3, 1), (3, 2), (4, 3), (5, 3))
    for p in (Fraction(1, 10), Fraction(1, 3), Fraction(3, 4), Fraction(1))
]


def small_sweep(k, l, p, seed):
    return threshold_sweep(k, l, k + 2, k + 5, m_list=[1, 2, 3, 4], search_trials=3, search_p=p, seed=seed)


def search_seeds(row, seed):
    """The seeds of the row's search hosts, as threshold_sweep derives them."""
    rng = CounterRng(seed)
    return [rng.raw(TAG_SET_SAMPLE, row["n"], row["m"], t) for t in range(row["search_trials"])]


def search_hosts(row, k, p, seed):
    """The row's seeded search hosts, drawn as threshold_sweep draws them."""
    return [random_hypergraph(row["n"], k, p, host_seed) for host_seed in search_seeds(row, seed)]


class TestSweepSearch:
    """The search counts hosts with min l-degree above the threshold and
    nu <= m; m + 1 disjoint first-fit edges rule a host out before either
    is computed, and before the host is built."""

    def test_counts_equal_the_full_predicate(self):
        found = 0
        for k, l, p, seed in SWEEP_CASES:
            for row in small_sweep(k, l, p, seed)["rows"]:
                thr = threshold_formula(row["n"], k, l, row["m"])
                recount = sum(
                    min_l_degree(H, l) > thr and max_matching(H).size <= row["m"]
                    for H in search_hosts(row, k, p, seed)
                )
                assert row["counterexamples_found"] == recount, (k, l, p, row)
                found += recount
        assert found > 0

    def test_exact_kernels_run_only_where_first_fit_falls_short(self, monkeypatch):
        # The host itself is drawn only there too.
        seen = {"min_l_degree": [], "max_matching": [], "random_hypergraph": []}

        def recorded(name, kernel):
            def call(H, *args):
                seen[name].append(H.edges)
                return kernel(H, *args)
            return call

        def drawn(*args):
            seen["random_hypergraph"].append(args)
            return random_hypergraph(*args)

        monkeypatch.setattr(constructions, "min_l_degree", recorded("min_l_degree", min_l_degree))
        monkeypatch.setattr(constructions, "max_matching", recorded("max_matching", max_matching))
        monkeypatch.setattr(constructions, "random_hypergraph", drawn)
        expected = {"min_l_degree": [], "max_matching": [], "random_hypergraph": []}
        hosts = short = 0
        for k, l, p, seed in SWEEP_CASES:
            for row in small_sweep(k, l, p, seed)["rows"]:
                barrier = build_space_barrier(row["n"], k, k, row["m"]).edges
                expected["min_l_degree"].append(barrier)
                expected["max_matching"].append(barrier)
                for host_seed, H in zip(search_seeds(row, seed), search_hosts(row, k, p, seed)):
                    hosts += 1
                    if len(greedy_matching(H)) <= row["m"]:
                        short += 1
                        expected["random_hypergraph"].append((row["n"], k, p, host_seed))
                        expected["min_l_degree"].append(H.edges)
                        if min_l_degree(H, l) > row["threshold"]:
                            expected["max_matching"].append(H.edges)
        assert seen == expected
        assert 0 < short < hosts

    def test_a_host_ruled_out_by_first_fit_never_meets_the_budget(self, monkeypatch):
        # K12^(3) has min 2-degree 10 > 1, the threshold at m = 1, and takes 9
        # evaluations; the barrier row takes 3. Two first-fit edges rule the
        # host out, so the sweep finishes where the full predicate stopped.
        monkeypatch.setattr(exact, "MATCHING_MAX_NODES", 3)
        report = threshold_sweep(3, 2, 12, 12, mu=Fraction(1, 100), m_list=[1], search_trials=2, search_p=1)
        assert [(row["m"], row["counterexamples_found"]) for row in report["rows"]] == [(1, 0)]
        with pytest.raises(SizeLimitError):
            max_matching(random_hypergraph(12, 3, 1, 0))


@pytest.mark.parametrize(
    "build, name, value",
    [
        (lambda: build_space_barrier(6, 3, 3, 2.0), "m", 2.0),
        (lambda: build_space_barrier(6, 3, 2.0, 2), "s", 2.0),
        (lambda: build_space_barrier(6, 3, True, 2), "s", True),
        (lambda: build_space_barrier_at(6, 3, 2.0, (0,)), "s", 2.0),
        (lambda: build_parity(True, 3, 3), "na", True),
        (lambda: build_parity(3, 3.0, 3), "nb", 3.0),
        (lambda: threshold_formula(9, 3, 2, 2.0), "m", 2.0),
        (lambda: threshold_formula(9, 3, True, 2), "l", True),
        (lambda: space_barrier_edge_count(9, 3, 3, 2.0), "m", 2.0),
        (lambda: theorem_m_range(9, 3, 2.0, Fraction(1, 4)), "l", 2.0),
        (lambda: threshold_sweep(3, 2, 9.0, 10), "n_start", 9.0),
        (lambda: threshold_sweep(3.0, 2, 9, 10), "k", 3.0),
        (lambda: threshold_sweep(3, 2, 9, 10, search_trials=True), "search_trials", True),
        (lambda: threshold_sweep(3, 2, 9, 10, m_list=[1, 99.5]), "m", 99.5),
    ],
    ids=["barrier-m-float", "barrier-s-float", "barrier-s-bool", "barrier-at-s-float", "parity-na-bool",
         "parity-nb-float", "threshold-m-float", "threshold-l-bool", "edge-count-m-float",
         "m-range-l-float", "sweep-n-start-float", "sweep-k-float", "sweep-trials-bool",
         "sweep-m-list-float"],
)
def test_a_count_that_is_not_an_int_is_refused(build, name, value):
    # core._check_shape's rule: a float or a bool is never a count. Each of these
    # once raised TypeError, returned a graph named after the float or bool, ran
    # one search and echoed True (search_trials), or skipped a float m too large
    # for any row (m_list).
    with pytest.raises(DomainError) as caught:
        build()
    assert str(caught.value) == f"{name} must be an integer, got {value!r}"


def construct_clique_minus(capsys, tmp_path, n, k, *flags):
    """Run `construct --family clique-minus`; (exit code, report, file text or None)."""
    path = tmp_path / f"clique-minus-{n}-{k}.json"
    argv = ["construct", "--family", "clique-minus", "--n", str(n), "--k", str(k), "-o", str(path), *flags]
    code = main(argv)
    report = json.loads(capsys.readouterr().out)
    return code, report, path.read_text() if path.exists() else None


class TestCliqueMinus:
    """Clique-minus is the full barrier H^k_k whose cover side is the top n/k - 1 vertices."""

    def test_counts(self, capsys, tmp_path):
        for n, k, edges in [(6, 3, 10), (3, 3, 0), (6, 2, 9)]:
            code, report, _ = construct_clique_minus(capsys, tmp_path, n, k)
            assert code == 0 and report["results"]["edge_count"] == edges
        assert comb(6, 3) - comb(5, 3) == 10 and comb(6, 2) - comb(4, 2) == 9

    def test_divisibility_required(self, capsys, tmp_path):
        code, report, text = construct_clique_minus(capsys, tmp_path, 7, 3)
        assert code == 1 and text is None
        assert report["error"] == {"type": "DomainError", "message": "clique-minus needs k | n, got n=7, k=3"}

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_file_is_the_complete_graph_minus_a_clique_byte_for_byte(self, capsys, tmp_path, k):
        # The definition the family had as a generator of its own: every
        # k-set reaching past the first n - n/k + 1 vertices.
        for n in range(k, 17, k):
            hole = n - n // k + 1
            edges = [e for e in combinations(range(n), k) if e[-1] >= hole]
            expected = to_json(Hypergraph(n, k, edges, name=f"clique-minus(n={n},k={k})"))
            assert construct_clique_minus(capsys, tmp_path, n, k)[2] == expected, (n, k)
            assert to_json(build_clique_minus(n, k)) == expected, (n, k)
            assert build_space_barrier_at(n, k, k, range(hole, n)).edges == tuple(edges)
