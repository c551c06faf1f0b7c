import json
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
import hypermatch
from hypermatch import fractional
from hypermatch.cli import main
from hypermatch.core import induced
from hypermatch.errors import CertificationError, SizeLimitError
from hypermatch.fractional import _simplex_optimum
from hypermatch.pipeline import round1_sample
from hypermatch.rng import CounterRng, random_hypergraph

from conftest import cli_under_a_memory_cap, pipeline_host

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


def _over_denominator(H: Hypergraph):
    """The integer simplex's x, y and value, each divided by its D."""
    x, y, value, D = _simplex_optimum(H)
    assert D > 0
    return [Fraction(w, D) for w in x], [Fraction(w, D) for w in y], Fraction(value, D)


def _assert_matches_oracle(H: Hypergraph):
    # x, y and the value are compared one by one; the value is the tableau's
    # own rhs entry, not a sum of y. fractional_optimum's weight maps, zeros
    # included and in edge and vertex order, are then x and y as Fractions.
    x, y, value = _over_denominator(H)
    ref_x, ref_y, ref_value = _fraction_simplex_reference(H)
    assert x == ref_x, H.name
    assert y == ref_y, H.name
    assert value == ref_value, H.name
    sol = fractional_optimum(H)
    assert list(sol.edge_weights.items()) == list(zip(H.edges, x)), H.name
    assert list(sol.vertex_weights.items()) == list(enumerate(y)), H.name


def _padded(G: Hypergraph, front: int, back: int) -> Hypergraph:
    """G with `front` uncovered vertices before its own and `back` after them."""
    edges = [tuple(v + front for v in e) for e in G.edges]
    return Hypergraph(front + G.n + back, G.k, edges, name=f"{G.name}+{front}+{back}")


class TestIntegerSimplexMatchesFractionOracle:
    # The integer tableau must take the oracle's pivots step for step, so the
    # vertex (x), the cover (y) and the value come out identical, not merely
    # equally optimal.

    def test_degenerate_ratio_tie(self):
        # Path 0-1-2-3: entering edge (0, 1) ties rows 0 and 1 at ratio 1.
        # The lowest basis index leaves, which fixes the cover at {0, 2};
        # the other choice ends at the equally optimal cover {1, 3}.
        H = Hypergraph(4, 2, [(0, 1), (1, 2), (2, 3)])
        _assert_matches_oracle(H)
        assert _over_denominator(H) == ([1, 0, 1], [1, 0, 1, 0], 2)

    @pytest.mark.parametrize("k, n_max", [(2, 13), (3, 13), (4, 12)])
    def test_random_hosts(self, k, n_max):
        for n in range(k + 2, n_max + 1):
            p = Fraction(1 + n % 3, 4)
            _assert_matches_oracle(random_hypergraph(n, k, p, 61000 + 100 * k + n))

    @pytest.mark.parametrize("n", range(9, 14))
    def test_complete_triple_systems(self, n):
        _assert_matches_oracle(complete_hypergraph(n, 3))

    def test_space_barriers(self):
        for n in (9, 10, 11):
            for s in (1, 2, 3):
                for m in (1, n // 3):
                    _assert_matches_oracle(build_space_barrier(n, 3, s, m))

    def test_mostly_zero_weights(self):
        # K9^(3)'s optimum puts weight on 3 of its 84 edges; the other 81 are zeros.
        H = complete_hypergraph(9, 3)
        _assert_matches_oracle(H)
        assert sum(w == 0 for w in fractional_optimum(H).edge_weights.values()) == 81

    def test_empty_host(self):
        H = Hypergraph(5, 3, [])
        assert _simplex_optimum(H) == ([], [0] * 5, 0, 1)
        _assert_matches_oracle(H)

    @pytest.mark.parametrize("index", range(10))
    def test_pipeline_round_one_copies(self, index):
        # The LP shape the pipeline solves: each round-one copy (10 copies at
        # p = 1/4, seeded by the host's index) of a benchmark pipeline host,
        # induced on the copy.
        H = pipeline_host(index)
        for copy in round1_sample(H, 10, Fraction(1, 4), index).copies:
            _assert_matches_oracle(induced(H, copy).graph)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_uncovered_vertices(self, k):
        # An uncovered vertex gets no row, yet y_v = 0 and the pivots of the
        # full tableau are kept.
        for t in range(8):
            G = random_hypergraph(k + 2 + t % 5, k, Fraction(1, 2 + t % 4), 64000 + 100 * k + t)
            for front, back in ((0, 3), (2, 0), (1, 1)):
                _assert_matches_oracle(_padded(G, front, back))
        _assert_matches_oracle(Hypergraph(9, k, [tuple(range(3, 3 + k))]))


class TestCertificate:
    # fractional_optimum checks every answer of the simplex; a tampered
    # answer must be rejected with the message of the first check it fails.

    PATH = Hypergraph(3, 2, [(0, 1), (1, 2)])  # optimum: x = (1, 0), y = (0, 1, 0)

    @pytest.mark.parametrize(
        "x, y, D, message",
        [
            ([3, 0], [0, 2, 0], 2, "edge weight outside [0, 1]"),
            ([-1, 0], [0, 2, 0], 2, "edge weight outside [0, 1]"),
            ([2, 2], [0, 2, 0], 2, "primal infeasible: vertex load exceeds 1"),
            ([2, 0], [0, 3, 0], 2, "dual infeasible: vertex weight outside [0, 1]"),
            ([2, 0], [-1, 2, 1], 2, "dual infeasible: vertex weight outside [0, 1]"),
            ([2, 0], [1, 0, 1], 2, "dual infeasible: uncovered edge"),
            ([2, 0], [2, 2, 0], 2, "duality gap: 1 != 2"),
            ([1, 1], [0, 3, 0], 3, "duality gap: 2/3 != 1"),
        ],
        ids=["x-over-1", "x-negative", "load", "y-over-1", "y-negative", "uncovered", "gap", "gap-reduced"],
    )
    def test_tampered_answer_is_rejected(self, monkeypatch, x, y, D, message):
        monkeypatch.setattr(fractional, "_simplex_optimum", lambda H, force=False: (x, y, sum(x), D))
        with pytest.raises(CertificationError) as info:
            fractional_optimum(self.PATH)
        assert str(info.value) == message

    def test_untampered_answer_is_accepted(self):
        x, y, value, D = _simplex_optimum(self.PATH)
        assert (x, y, value, D) == ([1, 0], [0, 1, 0], 1, 1)
        sol = fractional_optimum(self.PATH)
        assert sol.edge_weights == {(0, 1): 1, (1, 2): 0} and sol.nu_star == 1 == sol.tau_star

    def test_weights_are_fractions_in_edge_and_vertex_order(self, fano):
        sol = fractional_optimum(_padded(fano, 2, 1))
        assert list(sol.edge_weights) == [tuple(v + 2 for v in e) for e in fano.edges]
        assert list(sol.vertex_weights) == list(range(10))
        values = [*sol.edge_weights.values(), *sol.vertex_weights.values(), sol.nu_star, sol.tau_star]
        assert all(type(w) is Fraction for w in values)
        assert sol.vertex_weights[0] == sol.vertex_weights[9] == 0 and sol.nu_star == Fraction(7, 3)


class TestTableauGuard:
    # Only covered vertices get a row; the covered tableau is guarded.

    def test_uncovered_vertices_allocate_nothing(self):
        sol = fractional_optimum(Hypergraph(20000, 2, [(0, 1)]))
        assert sol.nu_star == 1 == sol.tau_star
        assert sum(1 for w in sol.vertex_weights.values() if w) == 1

    def test_guard_counts_covered_vertices(self, monkeypatch):
        # Six covered vertices make a 6 * 7 tableau, whatever n is.
        H = Hypergraph(1000, 3, [(0, 1, 2), (500, 501, 999)])
        monkeypatch.setattr(fractional, "LP_MAX_CELLS", 6 * 7)
        assert fractional_optimum(H).nu_star == 2
        monkeypatch.setattr(fractional, "LP_MAX_CELLS", 6 * 7 - 1)
        with pytest.raises(SizeLimitError, match="got 6 \\* 7"):
            fractional_optimum(H)
        assert fractional_optimum(H, force=True).nu_star == 2

    def test_force_lifts_the_guard_on_the_command_line(self, monkeypatch, tmp_path, capsys, fano):
        path = tmp_path / "fano.json"
        hypermatch.save(fano, path)
        monkeypatch.setattr(fractional, "LP_MAX_CELLS", 7 * 8 - 1)
        for argv in (["fractional", str(path)], ["stable-complete", str(path), "-o", str(tmp_path / "c.json")]):
            assert main(argv) == 2
            rep = json.loads(capsys.readouterr().out)
            assert rep["error"]["type"] == "SizeLimitError"
            assert main([*argv, "--force"]) == 0
            rep = json.loads(capsys.readouterr().out)
            assert rep["parameters"]["force"] is True
        monkeypatch.setattr(fractional, "LP_MAX_CELLS", 7 * 8)
        assert main(["fractional", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["results"]["nu_star"] == "7/3"


def test_sparse_host_solves_under_a_memory_cap(tmp_path):
    # A 40-byte file once asked for a 20,000 x 20,001 tableau and died with a
    # bare MemoryError; only its two covered vertices get rows now.
    pytest.importorskip("resource")  # the address-space cap is POSIX only
    path = tmp_path / "sparse.json"
    path.write_text('{"n": 20000, "k": 2, "edges": [[0, 1]]}')
    proc = cli_under_a_memory_cap("fractional", path)
    assert proc.returncode == 0, proc.stderr
    rep = json.loads(proc.stdout)
    assert rep["results"] == {"nu_star": "1", "perfect": False, "tau_star": "1"}


def test_host_past_the_tableau_guard_ends_in_a_report(tmp_path):
    # 1,024 disjoint pairs cover 2,048 vertices: 2048 * 2049 cells is just
    # past LP_MAX_CELLS = 2^22, while 2047 * 2048 is not.
    pytest.importorskip("resource")
    assert 2047 * 2048 <= fractional.LP_MAX_CELLS < 2048 * 2049
    path = tmp_path / "pairs.json"
    path.write_text(json.dumps({"n": 2048, "k": 2, "edges": [[2 * i, 2 * i + 1] for i in range(1024)]}))
    proc = cli_under_a_memory_cap("fractional", path)
    assert proc.returncode == 2, proc.stderr
    rep = json.loads(proc.stdout)
    assert rep["error"]["type"] == "SizeLimitError"
    assert rep["error"]["message"].endswith("got 2048 * 2049")


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
    _assert_matches_oracle(random_hypergraph(n, k, Fraction(quarters, 4), seed))


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
