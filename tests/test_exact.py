from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hypermatch import (
    DomainError,
    Hypergraph,
    SizeLimitError,
    berge_deficiency,
    build_space_barrier,
    complete_hypergraph,
    independence_number,
    max_matching,
    remove,
    validate_matching,
)
from hypermatch.rng import random_hypergraph

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


def brute_matching_number(H):
    # The largest r for which some r edges are pairwise disjoint.
    best = 0
    for r in range(1, H.n // H.k + 1):
        if not any(
            all(a & b == 0 for a, b in combinations(masks, 2))
            for masks in combinations(H.edge_masks, r)
        ):
            break
        best = r
    return best


def brute_independence_number(H):
    # The largest vertex set that contains no edge.
    for size in range(H.n, -1, -1):
        for S in combinations(range(H.n), size):
            sm = sum(1 << v for v in S)
            if all(em & sm != em for em in H.edge_masks):
                return size
    return 0


@given(
    seed=seeds,
    k=st.integers(3, 4),
    n=st.integers(4, 10),
    p=st.sampled_from([Fraction(1, 10), Fraction(1, 4), Fraction(1, 2), Fraction(9, 10)]),
)
def test_exact_solvers_match_brute_force(seed, k, n, p):
    H = random_hypergraph(n, k, p, seed)
    nu, matching = max_matching(H)
    assert nu == brute_matching_number(H)
    assert len(matching) == nu and validate_matching(H, matching)
    alpha, independent = independence_number(H)
    assert alpha == brute_independence_number(H)
    assert len(independent) == alpha and list(independent) == sorted(set(independent))
    assert set(independent) <= set(range(n))
    assert not any(set(e) <= set(independent) for e in H.edges)
