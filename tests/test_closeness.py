import json
from fractions import Fraction
from itertools import combinations
from math import comb, factorial
from time import perf_counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hypermatch import (
    DomainError,
    Hypergraph,
    barrier_deficit,
    build_space_barrier,
    build_space_barrier_at,
    classify_good,
    closest_partition,
    complete_hypergraph,
    f_density_check,
)
from hypermatch.cli import main
from hypermatch.closeness import exhaustive
from hypermatch.core import induced
from hypermatch.rng import CounterRng, random_hypergraph

seeds = st.integers(0, 10**9)


def oracle_deficits(H, s, W):
    """Per-vertex deficits from all C(n, k) k-sets: the barrier edges missing from H."""
    per_vertex = dict.fromkeys(range(H.n), 0)
    for e in combinations(range(H.n), H.k):
        if 1 <= len(set(W).intersection(e)) <= s and e not in H.edge_set:
            for v in e:
                per_vertex[v] += 1
    return per_vertex


class TestBarrierDeficit:
    def test_barrier_against_itself(self):
        H = build_space_barrier(9, 3, 3, 2)
        rep = barrier_deficit(H, 2, 3, (0, 1))
        assert rep.deficit == 0 and rep.epsilon_effective == 0
        assert set(rep.per_vertex_deficits.values()) == {0}

    def test_complete_graph_contains_every_barrier(self):
        K = complete_hypergraph(8, 3)
        for m, s in [(2, 1), (3, 2), (2, 3)]:
            assert barrier_deficit(K, m, s, tuple(range(m))).deficit == 0

    def test_removed_edges_are_counted(self):
        H = build_space_barrier(9, 3, 3, 2)
        pruned = Hypergraph(9, 3, H.edges[3:])
        rep = barrier_deficit(pruned, 2, 3, (0, 1))
        assert rep.deficit == 3
        assert rep.epsilon_effective == Fraction(3, 9**3)

    def test_cover_size_mismatch(self):
        H = complete_hypergraph(6, 3)
        with pytest.raises(DomainError):
            barrier_deficit(H, 2, 3, (0, 1, 2))

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_matches_an_oracle_that_builds_the_barrier(self, k):
        # Random hosts of every density, n = 0 included, every m from 0 to n
        # on a seeded W and every s from 1 to k.
        for seed in range(3):
            rng = CounterRng(seed)
            for n in range(0, 10):
                for p in (Fraction(0), Fraction(1, 3), Fraction(2, 3), Fraction(1)):
                    H = random_hypergraph(n, k, p, seed)
                    for m in range(n + 1):
                        W = rng.sample(list(range(n)), m, n, m)
                        for s in range(1, k + 1):
                            rep = barrier_deficit(H, m, s, W)
                            per_vertex = oracle_deficits(H, s, W)
                            assert rep.per_vertex_deficits == per_vertex
                            assert list(rep.per_vertex_deficits) == list(range(n))
                            assert rep.deficit * k == sum(per_vertex.values())
                            assert rep.epsilon_effective == (Fraction(rep.deficit, n**k) if n else 0)

    def test_large_sparse_host_builds_no_barrier(self, capsys, tmp_path):
        # The barrier here has C(200, 4) - C(100, 4) edges, about 6 * 10^7.
        path = tmp_path / "sparse.json"
        path.write_text('{"n":200,"k":4,"edges":[[0,1,2,3]]}')
        start = perf_counter()
        code = main(["closeness", str(path), "--m", "100", "--s", "4"])
        elapsed = perf_counter() - start
        rep = json.loads(capsys.readouterr().out)
        assert code == 0 and elapsed < 1
        assert rep["results"]["deficit"] == comb(200, 4) - comb(100, 4) - 1 == 60_763_724
        per_vertex = rep["results"]["per_vertex_deficits"]
        assert per_vertex["0"] == comb(199, 3) - 1 and per_vertex["99"] == comb(199, 3)
        assert per_vertex["100"] == comb(199, 3) - comb(99, 3)


class TestClassifyGood:
    def test_barrier_is_all_good(self):
        H = build_space_barrier(9, 3, 3, 2)
        rep = classify_good(H, 2, 3, (0, 1), Fraction(1, 1000))
        assert rep.bad == () and rep.bad_bound_holds

    def test_vertex_stripped_of_its_edges_is_the_only_bad_one(self):
        H = build_space_barrier(9, 3, 3, 2)
        pruned = Hypergraph(9, 3, [e for e in H.edges if 5 not in e])
        rep = classify_good(pruned, 2, 3, (0, 1), Fraction(1, 9))
        # Vertex 5 misses all 13 of its barrier edges, over the alpha cut of
        # 9; cover vertices miss 7 each, under it.
        assert rep.bad == (5,)
        assert rep.bad_bound_holds

    def test_huge_alpha_admits_everyone(self):
        H = Hypergraph(7, 3, [])
        rep = classify_good(H, 2, 3, (0, 1), Fraction(1))
        assert rep.bad == ()


class TestClosestPartition:
    def test_recovers_canonical_cover(self):
        H = build_space_barrier(9, 3, 3, 2)
        assert closest_partition(H, 2, 3) == ((0, 1), 0)

    def test_complete_graph_ties_break_low(self):
        assert closest_partition(complete_hypergraph(7, 3), 2, 3) == ((0, 1), 0)

    def test_recovers_planted_cover(self):
        H = build_space_barrier_at(8, 3, 3, (3, 7))
        assert closest_partition(H, 2, 3) == ((3, 7), 0)

    def test_above_the_limit_local_search_replaces_the_size_guard(self):
        # One predicate picks the mode; no size guard is left to raise.
        assert exhaustive(16, False) and exhaustive(17, True) and not exhaustive(17, False)
        H = build_space_barrier_at(17, 3, 3, (4, 9))
        assert closest_partition(H, 2, 3, seed=3) == ((4, 9), 0)
        assert closest_partition(H, 2, 3, seed=3, force=True) == ((4, 9), 0)

    def test_local_search_runs_only_above_the_limit(self):
        # Every W ties on a complete host: the exhaustive scan keeps the
        # lex-least, the local search keeps the least of its seeded starts.
        K17 = complete_hypergraph(17, 3)
        assert closest_partition(K17, 2, 3, seed=1) == ((0, 4), 0)
        assert closest_partition(K17, 2, 3, seed=1, force=True) == ((0, 1), 0)
        assert closest_partition(complete_hypergraph(16, 3), 2, 3, seed=1) == ((0, 1), 0)


class TestFDensity:
    def test_complete_graph_is_dense(self):
        dense, witness = f_density_check(complete_hypergraph(9, 3), Fraction(1, 2))
        assert dense and witness is None

    def test_single_hit_barrier_fails_on_far_side(self):
        H = build_space_barrier(9, 3, 1, 3)
        dense, witness = f_density_check(H, Fraction(1, 2))
        assert not dense
        assert witness == (3, 4, 5, 6, 7)
        # The witness really does violate the density demand.
        need = Fraction(1, 2) * H.num_edges / (2 * factorial(3))
        assert induced(H, witness).graph.num_edges < need

    def test_empty_hypergraph_is_vacuously_dense(self):
        dense, _ = f_density_check(Hypergraph(9, 3, []), Fraction(1, 2))
        assert dense

    def test_sampled_mode_above_guard(self):
        H = complete_hypergraph(18, 3)
        dense, _ = f_density_check(H, Fraction(1, 2), seed=9)
        assert dense


@given(seed=seeds, n=st.integers(5, 8))
def test_bad_vertex_count_bound_is_exact(seed, n):
    H = random_hypergraph(n, 3, Fraction(1, 2), seed)
    for alpha in (Fraction(1, 10), Fraction(1, 100)):
        rep = classify_good(H, 2, 3, (0, 1), alpha)
        assert len(rep.bad) <= rep.bad_bound
        assert rep.bad_bound == 3 * barrier_deficit(H, 2, 3, (0, 1)).epsilon_effective * n / alpha


@given(seed=seeds, n=st.integers(4, 8))
def test_per_vertex_deficits_cannot_exceed_point_degree(seed, n):
    H = random_hypergraph(n, 3, Fraction(1, 3), seed)
    rep = barrier_deficit(H, 2, 3, (0, 1))
    cap = comb(n - 1, 2)
    assert all(0 <= d <= cap for d in rep.per_vertex_deficits.values())
    assert sum(rep.per_vertex_deficits.values()) == 3 * rep.deficit


@given(seed=seeds)
def test_deficit_monotone_under_edge_addition(seed):
    H = random_hypergraph(7, 3, Fraction(1, 4), seed)
    richer = Hypergraph(7, 3, set(H.edges) | {(0, 1, 2), (2, 5, 6)})
    _, d_before = closest_partition(H, 2, 3)
    _, d_after = closest_partition(richer, 2, 3)
    assert d_after <= d_before


def test_density_desk_suite_for_far_hosts():
    """Degree-rich hosts far from every single-hit barrier must stay dense.

    Desk-scale reading of the density implication: for seeded hosts with
    minimum pair degree above threshold - rho' * n and best barrier deficit
    above eps * n^k, the density check at eps must pass. At these sizes most
    hosts are close to some barrier, so qualifying instances are rare; the
    suite reports how many were exercised and treats density violations as
    asymptotic-regime artifacts rather than failures, unless nothing ran at
    all for a structural reason.
    """
    from hypermatch import min_l_degree, threshold_formula

    eps = Fraction(1, 20)
    rho_prime = eps / 8
    checked = qualifying = violations = 0
    for t in range(30):
        n = 9 + t % 2
        m = n // 3
        H = random_hypergraph(n, 3, Fraction(7, 8), 31000 + t)
        checked += 1
        need = threshold_formula(n, 3, 2, m) - rho_prime * n
        if not min_l_degree(H, 2) > need:
            continue
        _, deficit = closest_partition(H, m, 1)
        if not deficit > eps * n**3:
            continue
        qualifying += 1
        dense, _ = f_density_check(H, eps)
        violations += not dense
    print(
        f"density desk suite: {checked} hosts, {qualifying} qualifying, "
        f"{violations} violations (asymptotic-regime artifacts if any)"
    )
    assert checked == 30


@given(seed=seeds)
def test_zero_deficit_iff_barrier_contained(seed):
    H = random_hypergraph(7, 3, Fraction(1, 2), seed)
    rep = barrier_deficit(H, 2, 2, (0, 1))
    contained = all(
        e in H.edge_set
        for e in build_space_barrier(7, 3, 2, 2).edges
    )
    assert (rep.deficit == 0) == contained
