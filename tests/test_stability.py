from fractions import Fraction
from itertools import combinations
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hypermatch import (
    DomainError,
    Hypergraph,
    build_space_barrier,
    complete_hypergraph,
    downward_closure,
    frankl_bound_check,
    is_stable,
    katona_check,
    max_matching,
    random_stable_hypergraph,
    shadow,
    stability_closeness_check,
)
from hypermatch.rng import CounterRng, random_hypergraph

seeds = st.integers(0, 10**9)


def edge_le(e, f):
    # Oracle for the order is_stable scans: componentwise on sorted k-tuples.
    return all(a <= b for a, b in zip(e, f))


class TestIsStable:
    def test_dominated_pairs_are_stable(self):
        assert is_stable(Hypergraph(4, 2, [(0, 1), (0, 2)])).stable

    def test_missing_lower_edge(self):
        res = is_stable(Hypergraph(3, 2, [(1, 2)]))
        assert not res.stable
        e, f = res.witness
        assert f == (1, 2) and edge_le(e, f) and e != f

    def test_barrier_with_low_cover_is_stable(self):
        for n, k, m in [(9, 3, 2), (8, 3, 3), (10, 2, 4)]:
            assert is_stable(build_space_barrier(n, k, k, m)).stable

    def test_witness_is_a_real_violation(self):
        H = Hypergraph(5, 3, [(0, 1, 2), (2, 3, 4)])
        res = is_stable(H)
        assert not res.stable
        e, f = res.witness
        assert f in H.edge_set and e not in H.edge_set and edge_le(e, f)


class TestShadow:
    def test_two_disjoint_pairs(self):
        sh = shadow(Hypergraph(4, 2, [(0, 1), (2, 3)]))
        assert sh == {(0,), (1,), (2,), (3,)}

    def test_fano_shadow_is_all_pairs(self, fano):
        assert len(shadow(fano)) == comb(7, 2)

    def test_single_edge_has_k_facets(self):
        assert len(shadow(Hypergraph(5, 3, [(1, 3, 4)]))) == 3

    def test_monotone_under_edge_addition(self):
        base = random_hypergraph(7, 3, Fraction(1, 3), 5)
        richer = Hypergraph(7, 3, set(base.edges) | {(0, 1, 2), (4, 5, 6)})
        assert shadow(base) <= shadow(richer)


class TestKatona:
    def test_fano(self, fano):
        res = katona_check(fano)
        assert res == (1, 21)

    def test_two_triples(self):
        H = Hypergraph(6, 3, [(0, 1, 2), (3, 4, 5)])
        res = katona_check(H)
        assert res.matching_number == 2 and res.shadow_size == 6

    def test_complete_six(self):
        res = katona_check(complete_hypergraph(6, 3))
        assert res.matching_number * res.shadow_size == 30 >= 20


class TestFranklBound:
    def test_barrier_achieves_equality(self):
        H = build_space_barrier(9, 3, 3, 1)
        res = frankl_bound_check(H)
        assert res.applicable and res.holds
        assert H.num_edges == res.bound == comb(9, 3) - comb(8, 3) == 28

    def test_single_edge_holds(self):
        res = frankl_bound_check(Hypergraph(10, 3, [(0, 1, 2)]))
        assert res.applicable and res.holds

    def test_complete_seven_not_applicable(self):
        res = frankl_bound_check(complete_hypergraph(7, 3))
        assert res.matching_number == 2
        assert not res.applicable  # needs n >= 13


class TestClosenessCheck:
    def test_barrier_itself(self):
        H = build_space_barrier(9, 3, 3, 2)
        res = stability_closeness_check(H, 2, Fraction(1, 100))
        assert res.hypotheses_met and res.conclusion_holds and res.deficit == 0

    def test_barrier_minus_one_maximal_edge(self):
        H = build_space_barrier(9, 3, 3, 2)
        pruned = Hypergraph(9, 3, [e for e in H.edges if e != (1, 7, 8)])
        res = stability_closeness_check(pruned, 2, Fraction(1))
        assert res.deficit == 1
        assert res.hypotheses_met and res.conclusion_holds

    def test_graph_variant_uses_doubled_radius(self):
        # Drop all edges at the top vertex of a graph barrier: still stable,
        # and the deficit is exactly the degree that vertex had.
        G = build_space_barrier(12, 2, 2, 5)
        pruned = Hypergraph(12, 2, [e for e in G.edges if 11 not in e])
        assert is_stable(pruned).stable
        deficit = sum(1 for e in G.edges if e not in pruned.edge_set)
        assert deficit == 5
        res = stability_closeness_check(pruned, 5, Fraction(1, 100))
        assert res.deficit == deficit
        assert res.conclusion_holds == (deficit**2 <= 4 * Fraction(1, 100) * 12**4)

    def test_preconditions_are_named(self):
        unstable = Hypergraph(3, 2, [(1, 2)])
        with pytest.raises(DomainError, match="not stable"):
            stability_closeness_check(unstable, 1, Fraction(1, 10))
        K6 = complete_hypergraph(6, 2)
        with pytest.raises(DomainError, match="matching number"):
            stability_closeness_check(K6, 1, Fraction(1, 10))


class TestClosureGenerator:
    def test_closure_contains_generators_and_is_stable(self):
        H = downward_closure(6, 3, [(2, 4, 5)])
        assert (2, 4, 5) in H.edge_set
        assert is_stable(H).stable

    def test_closure_of_top_is_everything(self):
        H = downward_closure(5, 2, [(3, 4)])
        assert H.num_edges == comb(5, 2)

    def test_generator_validation(self):
        with pytest.raises(DomainError):
            downward_closure(4, 2, [(0, 5)])

    def test_closure_matches_the_decrement_search(self):
        # 2,000 seeded cases, n <= 14, 1 <= k <= 5, 0 to 5 generators, each
        # in sample (unsorted) order, with a repeated generator every third case.
        for i in range(2000):
            rng = CounterRng(i)
            n = 1 + rng.below(14, 0)
            k = 1 + rng.below(min(5, n), 1)
            gens = [rng.sample(list(range(n)), k, 2, j) for j in range(rng.below(6, 3))]
            if gens and i % 3 == 0:
                gens.append(list(reversed(gens[0])))
            assert downward_closure(n, k, gens).edges == decrement_closure(k, gens), (n, k, gens)


def decrement_closure(k, generators):
    # The search downward_closure replaced, kept as an oracle: from the sorted
    # generators, every single-step decrement until nothing new appears.
    seen = set(tuple(sorted(g)) for g in generators)
    stack = list(seen)
    while stack:
        f = stack.pop()
        for i in range(k):
            e = f[:i] + (f[i] - 1,) + f[i + 1 :]
            if e[i] >= 0 and (i == 0 or e[i] > e[i - 1]) and e not in seen:
                seen.add(e)
                stack.append(e)
    return tuple(sorted(seen))


@pytest.mark.parametrize("n, k", [(5, -1), (5, 0), (3, 4)])
def test_random_stable_hypergraph_rejects_bad_uniformity(n, k):
    with pytest.raises(DomainError, match="1 <= k <= n"):
        random_stable_hypergraph(n, k, 3)


def test_random_stable_hypergraph_refuses_bad_counts_and_seeds():
    for seed, count, message in [
        (3, 2.5, "generator count must be a nonnegative integer, got 2.5"),
        (3, -4, "generator count must be a nonnegative integer, got -4"),
        ("x", 3, "seed must be an integer, got 'x'"),
    ]:
        with pytest.raises(DomainError) as info:
            random_stable_hypergraph(12, 2, seed, count)
        assert str(info.value) == message
    assert random_stable_hypergraph(12, 2, 3, 0).num_edges == 0
    assert random_stable_hypergraph(12, 2, -5, 2) == random_stable_hypergraph(12, 2, -5 & (2**64 - 1), 2)


@given(seed=seeds, n=st.integers(4, 9), k=st.integers(2, 3))
def test_random_stable_instances_pass_the_battery(seed, n, k):
    if k > n:
        return
    H = random_stable_hypergraph(n, k, seed)
    assert is_stable(H).stable
    katona_check(H)  # raises on violation
    res = frankl_bound_check(H)
    if res.applicable:
        assert res.holds


@given(seed=seeds)
def test_stability_is_decrement_closed(seed):
    H = random_stable_hypergraph(8, 3, seed)
    for f in H.edges:
        for e in combinations(range(8), 3):
            if edge_le(e, f):
                assert e in H.edge_set


@given(seed=seeds, n=st.integers(3, 7), k=st.integers(2, 3))
def test_is_stable_agrees_with_pairwise_definition(seed, n, k):
    # The scan only inspects single-coordinate decrements; compare with the
    # definition quantified over all dominated pairs.
    if k > n:
        return
    H = random_hypergraph(n, k, Fraction(1, 2), seed)
    brute = all(
        e in H.edge_set
        for f in H.edges
        for e in combinations(range(n), k)
        if edge_le(e, f)
    )
    assert is_stable(H).stable == brute


@given(seed=seeds)
def test_matching_certificate_on_closures(seed):
    H = random_stable_hypergraph(10, 2, seed)
    assert max_matching(H).size * max(len(shadow(H)), 1) >= H.num_edges
