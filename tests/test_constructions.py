import json
from fractions import Fraction
from itertools import combinations
from math import ceil, comb

import pytest

from hypermatch import (
    DomainError,
    Hypergraph,
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
from hypermatch.cli import main


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
