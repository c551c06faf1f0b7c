import gc
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hypermatch import (
    DomainError,
    Hypergraph,
    SizeLimitError,
    berge_deficiency,
    build_parity,
    build_space_barrier,
    complete_hypergraph,
    independence_number,
    induced,
    max_matching,
    remove,
    validate_matching,
)
from hypermatch import core, exact
from hypermatch.core import _mask
from hypermatch.exact import MatchingResult
from hypermatch.rng import CounterRng, random_hypergraph
from hypermatch.stability import random_stable_hypergraph

from conftest import least_budget, padded_host

seeds = st.integers(0, 10**9)


class TestMaxMatching:
    def test_fano_pairwise_intersecting(self, fano):
        # Oracle: every two lines share a point, so no matching of size 2.
        for e, f in combinations(fano.edges, 2):
            assert set(e) & set(f)
        assert max_matching(fano).size == 1

    def test_complete_seven(self):
        assert max_matching(complete_hypergraph(7, 3)).size == 2

    def test_barrier_matches_cover_size(self):
        assert max_matching(build_space_barrier(9, 3, 3, 2)).size == 2

    def test_witness_is_valid_and_deterministic(self, fano):
        r1 = max_matching(fano)
        r2 = max_matching(fano)
        assert r1 == r2
        assert validate_matching(fano, r1.witness)

    def test_empty(self):
        assert max_matching(Hypergraph(5, 2, [])) == (0, ())

    def test_budget_raises_and_force_lifts_it(self, monkeypatch):
        H = complete_hypergraph(9, 3)
        expected = max_matching(H)
        monkeypatch.setattr(exact, "MATCHING_MAX_NODES", 5)
        with pytest.raises(SizeLimitError, match="at most 5 search evaluations; n=9, e=84$"):
            max_matching(H)
        assert max_matching(H, force=True) == expected == (3, ((0, 1, 2), (3, 4, 5), (6, 7, 8)))

    def test_readback_is_charged_to_the_budget(self, monkeypatch):
        # On K9^(3) the search takes 4 evaluations (the root, then one edge
        # per level); reading back the witness charges the 3 edges it takes,
        # as a walk that asked nu again of each would: 7 in all.
        H = complete_hypergraph(9, 3)
        monkeypatch.setattr(exact, "MATCHING_MAX_NODES", 6)
        with pytest.raises(SizeLimitError, match="at most 6 search evaluations; n=9, e=84$"):
            max_matching(H)
        monkeypatch.setattr(exact, "MATCHING_MAX_NODES", 7)
        assert max_matching(H).witness == ((0, 1, 2), (3, 4, 5), (6, 7, 8))


    def test_leaves_no_reference_cycle(self):
        # A cycle through the search's closure would keep its memo and edge
        # lists alive until the collector runs, which raises peak memory.
        H = random_hypergraph(12, 3, Fraction(1, 2), 5)
        gc.disable()
        try:
            gc.collect()
            assert max_matching(H).size == 4
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestIndependenceNumber:
    def test_complete(self):
        for n, k in [(5, 2), (6, 3), (7, 3)]:
            assert independence_number(complete_hypergraph(n, k)).size == k - 1

    def test_fano(self, fano):
        res = independence_number(fano)
        assert res.size == 4
        assert all(not set(e) <= set(res.witness) for e in fano.edges)

    def test_barrier_far_side(self):
        res = independence_number(build_space_barrier(9, 3, 3, 2))
        assert res.size == 7
        assert res.witness == tuple(range(2, 9))

    def test_budget_raises_and_force_lifts_it(self, monkeypatch):
        H = build_space_barrier(9, 3, 3, 2)
        expected = independence_number(H)
        monkeypatch.setattr(exact, "MATCHING_MAX_NODES", 5)
        with pytest.raises(SizeLimitError, match="at most 5 search nodes; n=9, e=49$"):
            independence_number(H)
        assert independence_number(H, force=True) == expected == (7, tuple(range(2, 9)))


class TestBerge:
    def test_k4(self):
        cert = berge_deficiency(complete_hypergraph(4, 2))
        assert cert.vertex_set == () and cert.odd_components == 0 and cert.value == 2

    def test_triangle(self):
        cert = berge_deficiency(Hypergraph(3, 2, [(0, 1), (0, 2), (1, 2)]))
        assert cert.vertex_set == () and cert.odd_components == 1 and cert.value == 1

    def test_star(self):
        cert = berge_deficiency(Hypergraph(4, 2, [(0, 1), (0, 2), (0, 3)]))
        assert cert.vertex_set == (0,) and cert.odd_components == 3 and cert.value == 1

    def test_rejects_non_graphs(self, fano):
        with pytest.raises(DomainError):
            berge_deficiency(fano)

    def test_size_guard(self):
        big = Hypergraph(25, 2, [(0, 1)])
        with pytest.raises(SizeLimitError):
            berge_deficiency(big)
        assert berge_deficiency(big, force=True).value == 1


class TestValidateMatching:
    def test_empty_matching(self, fano):
        assert validate_matching(fano, ())

    def test_disjoint_pair(self):
        K6 = complete_hypergraph(6, 3)
        assert validate_matching(K6, [(0, 1, 2), (3, 4, 5)])

    def test_shared_vertex(self):
        K6 = complete_hypergraph(6, 3)
        assert not validate_matching(K6, [(0, 1, 2), (2, 3, 4)])

    def test_non_edge(self):
        H = Hypergraph(6, 3, [(0, 1, 2)])
        assert not validate_matching(H, [(3, 4, 5)])


@given(seed=seeds, n=st.integers(3, 9), k=st.integers(2, 3))
def test_matching_invariants(seed, n, k):
    if k > n:
        return
    H = random_hypergraph(n, k, Fraction(1, 2), seed)
    size, witness = max_matching(H)
    assert validate_matching(H, witness)
    assert size <= n // k
    # Optimal witnesses are maximal: nothing is left in H - V(M).
    rest = remove(H, sorted(v for e in witness for v in e)).graph
    assert rest.num_edges == 0 or max_matching(rest).size == 0


@given(seed=seeds, n=st.integers(4, 9))
def test_matching_number_drops_by_at_most_removed(seed, n):
    H = random_hypergraph(n, 2, Fraction(1, 2), seed)
    base = max_matching(H).size
    for v in range(min(3, n)):
        smaller = remove(H, (v,)).graph
        assert max_matching(smaller).size >= base - 1


@given(seed=seeds, n=st.integers(3, 10))
def test_berge_equals_matching_number(seed, n):
    G = random_hypergraph(n, 2, Fraction(1, 2), seed)
    cert = berge_deficiency(G)
    assert cert.value == max_matching(G).size
    # The minimized quantity is even at the optimum, so the value is integral.
    assert (n - cert.odd_components + len(cert.vertex_set)) % 2 == 0


def brute_max_matching(H):
    # The lex-least maximum matching: combinations of the sorted edge list come
    # in lexicographic order, so the first disjoint r-set is the least one.
    best = ()
    for r in range(1, H.n // H.k + 1):
        first = next(
            (
                M
                for M in combinations(H.edges, r)
                if all(not set(a) & set(b) for a, b in combinations(M, 2))
            ),
            None,
        )
        if first is None:
            break
        best = first
    return best


def brute_max_independent_set(H):
    # The lex-least largest vertex set that contains no edge.
    masks = list(map(_mask, H.edges))
    for size in range(H.n, -1, -1):
        for S in combinations(range(H.n), size):
            sm = sum(1 << v for v in S)
            if all(em & sm != em for em in masks):
                return S
    return ()


@given(
    seed=seeds,
    k=st.integers(2, 4),
    n=st.integers(4, 10),
    p=st.sampled_from([Fraction(1, 10), Fraction(1, 4), Fraction(1, 2), Fraction(9, 10)]),
)
def test_exact_solvers_match_brute_force(seed, k, n, p):
    H = random_hypergraph(n, k, p, seed)
    M = brute_max_matching(H)
    assert max_matching(H) == (len(M), M)
    S = brute_max_independent_set(H)
    assert independence_number(H) == (len(S), S)


def test_graph_matching_number_matches_edmonds():
    # Edmonds' blossom algorithm is an oracle for k = 2 beyond brute-force sizes.
    nx = pytest.importorskip("networkx")
    for seed in range(200):
        n = 12 + seed % 11
        H = random_hypergraph(n, 2, Fraction(1 + seed % 4, 8), seed)
        G = nx.Graph()
        G.add_nodes_from(range(n))
        G.add_edges_from(H.edges)
        blossom = nx.max_weight_matching(G, maxcardinality=True)
        assert max_matching(H).size == len(blossom), seed


def test_witness_is_lex_least_not_greedy():
    # A lexicographic greedy scan takes (0, 1) and stops at size 1.
    H = Hypergraph(4, 2, [(0, 1), (0, 3), (1, 2)])
    assert brute_max_matching(H) == ((0, 3), (1, 2))
    assert max_matching(H) == (2, ((0, 3), (1, 2)))


def bnb_max_matching(H):
    # The branch-and-bound search the memoized matcher replaced, kept as an
    # oracle: the same branch order, and the first maximum matching in
    # preorder as its witness.
    k = H.k
    full = (1 << H.n) - 1
    starts_at = [[] for _ in range(H.n)]
    for e, m in zip(H.edges, map(_mask, H.edges)):
        starts_at[e[0]].append((e, m))

    best: list = []
    cur: list = []

    def dfs(dead: int):
        nonlocal best
        if len(cur) > len(best):
            best = list(cur)
        while len(cur) + (full & ~dead).bit_count() // k > len(best):
            live = full & ~dead
            v = (live & -live).bit_length() - 1
            for e, m in starts_at[v]:
                if not m & dead:
                    cur.append(e)
                    dfs(dead | m)
                    cur.pop()
            dead |= 1 << v

    dfs(0)
    return MatchingResult(len(best), tuple(best))


# Host families for the oracle. n stops at 13 so the oracle stays quick: at
# n = 15 the branch-and-bound search takes seconds per family.
ORACLE_HOSTS = {
    "space-barriers": lambda: [
        build_space_barrier(n, k, s, m)
        for k in range(2, 5)
        for n in range(k, 14)
        for s in range(1, k + 1)
        for m in range(n + 1)
    ],
    "parity": lambda: [
        build_parity(na, nb, 3) for na in range(14) for nb in range(14 - na) if na + nb >= 3
    ],
    "random": lambda: [
        random_hypergraph(k + i % (14 - k), k, Fraction(1 + i % 9, 10), i)
        for i in range(900)
        for k in [2 + i % 3]
    ],
    "stable": lambda: [
        random_stable_hypergraph(6 + i % 8, 2 + i % 2, i, 1 + i % 4) for i in range(300)
    ],
    "padded": lambda: [padded_host(i) for i in range(300)],
}


@pytest.mark.parametrize("family", sorted(ORACLE_HOSTS))
def test_memoized_search_matches_branch_and_bound(family):
    for H in ORACLE_HOSTS[family]():
        assert max_matching(H) == bnb_max_matching(H), H


def test_search_masks_only_the_edges_at_the_vertices_it_reaches(monkeypatch):
    # On K30^(3) the search reaches 0, 3, ..., 27 and stops at each vertex
    # after one edge, so it masks the 1,495 edges that start there, not all
    # 4,060; the start vertices are found by bisection, with no mask.
    H = complete_hypergraph(30, 3)
    expected = bnb_max_matching(H)
    real, calls = exact._mask, []
    monkeypatch.setattr(exact, "_mask", lambda vs: calls.append(1) or real(vs))
    assert max_matching(H) == expected
    assert len(calls) == sum(comb(29 - v, 2) for v in range(0, 30, 3)) == 1495


def test_isolated_top_vertices_cost_no_evaluations(monkeypatch):
    # The search kills the vertices above every edge at the root, so a
    # host padded with isolated top vertices is searched as the host itself.
    hosts = [complete_hypergraph(7, 2)]
    for i in range(60):
        k = 2 + i % 3
        hosts.append(random_hypergraph(k + 1 + i % (10 - k), k, Fraction(1 + i % 9, 10), i))
    for i, H in enumerate(hosts):
        padded = Hypergraph(H.n + 5 - i % 5, H.k, H.edges)  # K7 gets 5 more vertices
        assert least_budget(padded, monkeypatch) == least_budget(H, monkeypatch), H


def test_budget_message_counts_every_vertex_of_the_search(monkeypatch):
    # K7 plus five isolated vertices: the search ignores vertices 7..11, but
    # the message names all 12 vertices the search was given.
    H = Hypergraph(12, 2, complete_hypergraph(7, 2).edges)
    monkeypatch.setattr(exact, "MATCHING_MAX_NODES", 2)
    with pytest.raises(SizeLimitError) as info:
        max_matching(H)
    assert str(info.value).endswith("n=12, e=21")


def test_scan_route_on_a_vertex_subset_of_a_dense_host(monkeypatch):
    # Dense hosts send small vertex sets to edges_within's lookup route; with
    # the scan route forced, the search must still give the oracle's witness
    # on H[X], in host labels.
    cases = []
    for i in range(120):
        k = 2 + i % 3
        n = k + 2 + i % (12 - k)
        H = random_hypergraph(n, k, (Fraction(3, 4), Fraction(9, 10), Fraction(1))[i % 3], i)
        X = sorted(CounterRng(i).sample(list(range(n)), k + i % (n - k), n))
        sub = induced(H, X)
        witness = bnb_max_matching(sub.graph).witness
        cases.append((H, X, tuple(map(sub.lift, witness))))
    routes = []
    monkeypatch.setattr(core, "_looks_up", lambda H, size: routes.append(size) or False)
    for H, X, witness in cases:
        assert tuple(exact._lex_least_matching(H, X, False)) == witness, (H.edges, X)
    assert routes == [len(X) for _, X, _ in cases]
    assert all(len(X) < H.n for H, X, _ in cases)
