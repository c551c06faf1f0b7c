from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hypermatch import (
    Hypergraph,
    berge_deficiency,
    complete_hypergraph,
    build_space_barrier,
    fractional_optimum,
    is_stable,
    max_matching,
    stable_completion,
)
from hypermatch.errors import CertificationError
from hypermatch.fractional import _simplex_optimum
from hypermatch.rng import CounterRng, random_hypergraph

seeds = st.integers(0, 10**9)


class TestFractionalOptimum:
    def test_fano(self, fano):
        sol = fractional_optimum(fano)
        assert sol.nu_star == Fraction(7, 3) == sol.tau_star
        # Uniform third weights are optimal on both sides.
        assert sum(sol.edge_weights.values()) == Fraction(7, 3)
        assert sum(sol.vertex_weights.values()) == Fraction(7, 3)

    def test_single_edge(self):
        sol = fractional_optimum(Hypergraph(3, 3, [(0, 1, 2)]))
        assert sol.nu_star == 1

    def test_complete_six(self):
        assert fractional_optimum(complete_hypergraph(6, 3)).nu_star == 2

    def test_empty(self):
        sol = fractional_optimum(Hypergraph(4, 2, []))
        assert sol.nu_star == 0 == sol.tau_star


class TestPerfectFractional:
    def test_fano_is_perfect(self, fano):
        assert fractional_optimum(fano).nu_star == Fraction(fano.n, fano.k)

    def test_complete_six(self):
        H = complete_hypergraph(6, 3)
        assert fractional_optimum(H).nu_star == Fraction(H.n, H.k)

    def test_lonely_edge_is_not(self):
        H = Hypergraph(4, 3, [(0, 1, 2)])
        assert fractional_optimum(H).nu_star != Fraction(H.n, H.k)


_ZERO = Fraction(0)
_ONE = Fraction(1)


def _fraction_simplex_reference(H: Hypergraph):
    """The textbook simplex over Fraction: the oracle the integer tableau must match.

    Same Bland entering rule and the same ratio-test tie-break (lowest basis
    index), but every pivot divides the pivot row through, so each entry is
    the true tableau entry.
    """
    n = H.n
    edges = H.edges
    ne = len(edges)
    width = ne + n

    if ne == 0:
        return [_ZERO] * 0, [_ZERO] * n, _ZERO

    rows = []
    for v in range(n):
        row = [_ZERO] * (width + 1)
        for j, e in enumerate(edges):
            if v in e:
                row[j] = _ONE
        row[ne + v] = _ONE
        row[width] = _ONE  # rhs
        rows.append(row)
    # Reduced costs for max: z_j = c_B B^-1 A_j - c_j, initially -c.
    z = [-_ONE] * ne + [_ZERO] * n + [_ZERO]
    basis = [ne + v for v in range(n)]

    while True:
        enter = next((j for j in range(width) if z[j] < 0), None)  # Bland: least index
        if enter is None:
            break
        leave_row = None
        best_ratio = None
        for i in range(n):
            coef = rows[i][enter]
            if coef > 0:
                ratio = rows[i][width] / coef
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[i] < basis[leave_row])
                ):
                    best_ratio = ratio
                    leave_row = i
        if leave_row is None:
            raise CertificationError("matching LP reported unbounded; impossible")
        prow = rows[leave_row]
        piv = prow[enter]
        if piv != 1:
            rows[leave_row] = prow = [c / piv for c in prow]
        for i in range(n):
            if i == leave_row:
                continue
            f = rows[i][enter]
            if f != 0:
                rows[i] = [a - f * b for a, b in zip(rows[i], prow)]
        f = z[enter]
        if f != 0:
            z = [a - f * b for a, b in zip(z, prow)]
        basis[leave_row] = enter

    x = [_ZERO] * ne
    for i, b in enumerate(basis):
        if b < ne:
            x[b] = rows[i][width]
    y = [z[ne + v] for v in range(n)]
    return x, y, z[width]


class TestIntegerSimplexMatchesFractionOracle:
    # The integer tableau must take the oracle's pivots step for step, so the
    # vertex (x), the cover (y) and the value come out identical, not merely
    # equally optimal.

    def test_degenerate_ratio_tie(self):
        # Path 0-1-2-3: entering edge (0, 1) ties rows 0 and 1 at ratio 1.
        # The lowest basis index leaves, which fixes the cover at {0, 2};
        # the other choice ends at the equally optimal cover {1, 3}.
        H = Hypergraph(4, 2, [(0, 1), (1, 2), (2, 3)])
        result = _simplex_optimum(H)
        assert result == _fraction_simplex_reference(H)
        assert result == ([1, 0, 1], [1, 0, 1, 0], 2)

    @pytest.mark.parametrize("k, n_max", [(2, 13), (3, 13), (4, 12)])
    def test_random_hosts(self, k, n_max):
        for n in range(k + 2, n_max + 1):
            p = Fraction(1 + n % 3, 4)
            H = random_hypergraph(n, k, p, 61000 + 100 * k + n)
            assert _simplex_optimum(H) == _fraction_simplex_reference(H), (n, k, p)

    @pytest.mark.parametrize("n", range(9, 14))
    def test_complete_triple_systems(self, n):
        H = complete_hypergraph(n, 3)
        assert _simplex_optimum(H) == _fraction_simplex_reference(H)

    def test_space_barriers(self):
        for n in (9, 10, 11):
            for s in (1, 2, 3):
                for m in (1, n // 3):
                    H = build_space_barrier(n, 3, s, m)
                    assert _simplex_optimum(H) == _fraction_simplex_reference(H), H.name

    def test_empty_host(self):
        H = Hypergraph(5, 3, [])
        assert _simplex_optimum(H) == _fraction_simplex_reference(H)


class TestStableCompletion:
    def test_single_edge_blows_up_to_a_star(self):
        H = Hypergraph(5, 3, [(0, 1, 2)])
        comp = stable_completion(H)
        # Cover optimum 1 concentrates on one vertex; after relabeling it is
        # vertex 0 and the completion is every triple through it.
        assert comp.weights[0] == 1 and set(comp.weights[1:]) == {0}
        expected = {(0,) + rest for rest in combinations(range(1, 5), 2)}
        assert set(comp.graph.edges) == expected
        assert max_matching(comp.graph).size == 1

    def test_complete_graph_fixed_point(self):
        K6 = complete_hypergraph(6, 3)
        comp = stable_completion(K6)
        assert comp.graph == K6
        assert set(comp.weights) == {Fraction(1, 3)}

    def test_empty_stays_empty(self):
        comp = stable_completion(Hypergraph(4, 2, []))
        assert comp.graph.num_edges == 0

    def test_relabeling_is_a_permutation(self, fano):
        comp = stable_completion(fano)
        assert sorted(comp.order) == list(range(7))
        assert list(comp.weights) == sorted(comp.weights, reverse=True)


@given(seed=seeds, n=st.integers(3, 8), k=st.integers(2, 3))
def test_duality_and_sandwich(seed, n, k):
    if k > n:
        return
    H = random_hypergraph(n, k, Fraction(1, 2), seed)
    sol = fractional_optimum(H)
    assert sol.nu_star == sol.tau_star
    assert max_matching(H).size <= sol.nu_star <= Fraction(n, k)


@given(seed=seeds, n=st.integers(3, 9), k=st.integers(2, 4), quarters=st.integers(1, 4))
def test_integer_simplex_matches_fraction_oracle(seed, n, k, quarters):
    if k > n:
        return
    H = random_hypergraph(n, k, Fraction(quarters, 4), seed)
    assert _simplex_optimum(H) == _fraction_simplex_reference(H)


@given(seed=seeds, na=st.integers(1, 4), nb=st.integers(1, 4))
def test_bipartite_fractional_is_integral(seed, na, nb):
    # On bipartite graphs the fractional and integral optima agree; the
    # integral side is certified twice over (search and deficiency formula).
    rng = CounterRng(seed)
    edges = [
        (i, na + j)
        for i in range(na)
        for j in range(nb)
        if rng.bernoulli(Fraction(1, 2), i, j)
    ]
    G = Hypergraph(na + nb, 2, edges)
    nu = max_matching(G).size
    assert berge_deficiency(G).value == nu
    assert fractional_optimum(G).nu_star == nu


@given(seed=seeds, n=st.integers(3, 7))
def test_stable_completion_contract(seed, n):
    H = random_hypergraph(n, 3, Fraction(1, 2), seed)
    comp = stable_completion(H)
    assert is_stable(comp.graph).stable
    assert fractional_optimum(comp.graph).tau_star == fractional_optimum(H).tau_star
    assert max_matching(comp.graph).size <= fractional_optimum(H).nu_star


def test_simplex_against_external_lp_solver():
    # Independent oracle: a float LP solver must agree with the exact
    # optimum to numerical tolerance on seeded instances.
    scipy_opt = pytest.importorskip("scipy.optimize")
    for t in range(20):
        n, k = 5 + t % 4, 2 + t % 2
        H = random_hypergraph(n, k, Fraction(1, 2), 90000 + t)
        if H.num_edges == 0:
            continue
        cols = [[1.0 if v in e else 0.0 for e in H.edges] for v in range(n)]
        res = scipy_opt.linprog(
            c=[-1.0] * H.num_edges,
            A_ub=cols,
            b_ub=[1.0] * n,
            bounds=[(0, 1)] * H.num_edges,
            method="highs",
        )
        assert res.status == 0
        exact = fractional_optimum(H).nu_star
        assert abs(float(exact) + res.fun) < 1e-7


def test_perfect_fractional_matches_integral_on_completions():
    # On stable completions at these sizes a perfect fractional matching
    # coexists exactly with a perfect integral one (frozen seed battery).
    for t in range(60):
        n = 3 * (2 + t % 2)
        comp = stable_completion(random_hypergraph(n, 3, Fraction(1, 2), 7000 + t))
        fractional_perfect = fractional_optimum(comp.graph).nu_star == Fraction(n, 3)
        integral_perfect = max_matching(comp.graph).size == n // 3
        assert fractional_perfect == integral_perfect
