from fractions import Fraction
from itertools import combinations, product
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hypermatch import (
    AbsorbingParameters,
    DomainError,
    Hypergraph,
    build_space_barrier,
    complete_hypergraph,
    degree,
    from_json,
    almost_perfect_pipeline,
    check_round1_properties,
    classify_good,
    f_density_check,
    induced,
    min_l_degree,
    remove,
    round1_sample,
    sample_absorbing_family,
    theorem_m_range,
    threshold_sweep,
    to_json,
)
from hypermatch import core
from hypermatch.core import _looks_up, weakest_set
from hypermatch.rng import CounterRng, random_hypergraph
from hypermatch.stability import frankl_suite, katona_suite, stability2_suite, stability_closeness_check

seeds = st.integers(0, 10**9)


def brute_degree(H, T):
    # Independent oracle: scan raw edge tuples with set containment.
    t = set(T)
    return sum(1 for e in H.edges if t <= set(e))


def brute_induced(H, S):
    # Independent oracle: keep the host edges inside S, relabel by rank in S.
    inside = sorted(S)
    rank = {v: i for i, v in enumerate(inside)}
    return tuple(tuple(rank[v] for v in e) for e in H.edges if set(e) <= set(inside))


def mask_scan_weakest_set(H, l):
    # The l-degree minimizer as a mask scan of every edge for every l-set.
    if l == 0:
        return (), H.num_edges
    masks = [sum(1 << v for v in e) for e in H.edges]
    best_t, best_d = None, None
    for t in combinations(range(H.n), l):
        tm = sum(1 << v for v in t)
        d = sum(1 for em in masks if em & tm == tm)
        if best_d is None or d < best_d:
            best_t, best_d = t, d
            if d == 0:
                break
    return best_t, best_d


class TestConstruction:
    def test_rejects_duplicate_edges(self):
        with pytest.raises(DomainError, match="duplicate"):
            Hypergraph(5, 2, [(0, 1), (1, 0)])

    def test_rejects_wrong_arity(self):
        with pytest.raises(DomainError):
            Hypergraph(5, 3, [(0, 1)])
        with pytest.raises(DomainError):
            Hypergraph(5, 3, [(0, 1, 1)])

    def test_rejects_out_of_range_vertices(self):
        with pytest.raises(DomainError):
            Hypergraph(3, 2, [(0, 3)])
        with pytest.raises(DomainError):
            Hypergraph(3, 2, [(-1, 0)])

    def test_rejects_bad_shape_parameters(self):
        with pytest.raises(DomainError):
            Hypergraph(-1, 2, [])
        with pytest.raises(DomainError):
            Hypergraph(3, 0, [])
        for k in (0, -1):
            with pytest.raises(DomainError):
                complete_hypergraph(5, k)

    def test_immutable(self):
        H = complete_hypergraph(4, 2)
        with pytest.raises(AttributeError):
            H.n = 5

    def test_edges_canonically_ordered(self):
        H = Hypergraph(4, 2, [(3, 2), (1, 0)])
        assert H.edges == ((0, 1), (2, 3))


class TestDegree:
    def test_complete_graph_vertex_degree(self):
        assert degree(complete_hypergraph(4, 2), (0,)) == 3

    def test_barrier_far_side_vertex(self):
        # Edges through a non-cover vertex u all meet W = {0, 1}:
        # C(8,2) - C(6,2) of them.
        H = build_space_barrier(9, 3, 3, 2)
        assert comb(8, 2) - comb(6, 2) == 13
        assert degree(H, (5,)) == 13
        assert brute_degree(H, (5,)) == 13

    def test_empty_set_degree_is_edge_count(self, fano):
        assert degree(fano, ()) == fano.num_edges

    def test_oversized_set_rejected(self, fano):
        with pytest.raises(DomainError, match="larger than uniformity"):
            degree(fano, (0, 1, 2, 3))


class TestMinLDegree:
    def test_complete_graph(self):
        for n, k in [(6, 2), (6, 3), (7, 3)]:
            assert min_l_degree(complete_hypergraph(n, k), 1) == comb(n - 1, k - 1)

    def test_barrier_pair_minimum(self):
        H = build_space_barrier(9, 3, 3, 2)
        brute = min(brute_degree(H, t) for t in combinations(range(9), 2))
        assert brute == 2
        assert min_l_degree(H, 2) == 2

    def test_barrier_vertex_minimum(self):
        H = build_space_barrier(9, 3, 3, 2)
        brute = min(brute_degree(H, (v,)) for v in range(9))
        assert brute == 13
        assert min_l_degree(H, 1) == 13

    def test_l_zero_is_edge_count(self, fano):
        assert min_l_degree(fano, 0) == 7

    def test_out_of_range(self, fano):
        with pytest.raises(DomainError):
            min_l_degree(fano, 4)
        with pytest.raises(DomainError):
            min_l_degree(fano, -1)


class TestSubgraphs:
    def test_induced_complete(self):
        sub = induced(complete_hypergraph(6, 3), (0, 1, 2, 4, 5))
        assert sub.graph == complete_hypergraph(5, 3)
        assert sub.vertices == (0, 1, 2, 4, 5)

    def test_remove_fano_point(self, fano):
        assert remove(fano, (0,)).graph.num_edges == 4

    def test_induced_empty(self, fano):
        assert induced(fano, ()).graph.num_edges == 0

    def test_remove_everything_in_stages(self, fano):
        first = remove(fano, (0, 1, 2)).graph
        rest = remove(first, tuple(range(first.n))).graph
        assert rest.n == 0 and rest.num_edges == 0

    def test_lift_recovers_host_edges(self, fano):
        sub = induced(fano, (1, 2, 3, 4, 5, 6))
        lifted = [sub.lift(e) for e in sub.graph.edges]
        assert set(lifted) <= set(fano.edges)
        assert len(lifted) == sub.graph.num_edges


@pytest.mark.parametrize("k", [2, 3, 4])
def test_induced_and_remove_match_brute_force(k):
    # Sets of every size, on sparse, dense and empty hosts, land on both sides
    # of core._looks_up, the route rule induced asks.
    routes = set()
    for seed in range(6):
        rng = CounterRng(seed)
        for n in (k - 1, k + 2, 11):
            for p in (Fraction(0), Fraction(1, 10), Fraction(1, 2), Fraction(1)):
                H = random_hypergraph(n, k, p, seed)
                for size in range(n + 1):
                    S = rng.sample(list(range(n)), size, n, size)
                    rest = [v for v in range(n) if v not in S]
                    routes.add(_looks_up(H, size))
                    sub = induced(H, S)
                    assert sub.vertices == tuple(sorted(S)) and sub.graph.n == size
                    assert sub.graph.edges == brute_induced(H, S)
                    sub = remove(H, S)
                    assert sub.vertices == tuple(rest) and sub.graph.n == n - size
                    assert sub.graph.edges == brute_induced(H, rest)
    assert routes == {True, False}


K9 = complete_hypergraph(9, 3)


@pytest.mark.parametrize(
    "call, name, value",
    [
        (lambda: sample_absorbing_family(K9, AbsorbingParameters(3, 2, 1, 2), Fraction(1, 4), 0, probes=2.5),
         "probes", 2.5),
        (lambda: sample_absorbing_family(K9, AbsorbingParameters(3, 2, 1, 2), Fraction(1, 4), 0, probes=True),
         "probes", True),
        (lambda: katona_suite(2.5), "trials", 2.5),
        (lambda: frankl_suite("3"), "trials", "3"),
        (lambda: stability2_suite(2.0), "trials", 2.0),
        (lambda: round1_sample(K9, 2.5, Fraction(1, 2), 0), "copies", 2.5),
        (lambda: round1_sample(K9, True, Fraction(1, 2), 0), "copies", True),
        (lambda: almost_perfect_pipeline(Hypergraph(9, 3, []), 2.5, Fraction(1, 2), 0), "copies", 2.5),
        (lambda: weakest_set(K9, 2.0), "l", 2.0),
        (lambda: min_l_degree(K9, 2.0), "l", 2.0),
        (lambda: min_l_degree(K9, True), "l", True),
        (lambda: stability_closeness_check(complete_hypergraph(8, 2), 5.5, Fraction(1, 100)), "m", 5.5),
    ],
    ids=["probes-float", "probes-bool", "katona-trials-float", "frankl-trials-str",
         "stability2-trials-float", "round1-copies-float", "round1-copies-bool",
         "edgeless-pipeline-copies-float", "weakest-set-l-float", "min-l-degree-float",
         "min-l-degree-bool", "stability-closeness-m-float"],
)
def test_a_count_that_is_not_an_int_is_refused(call, name, value):
    # core.check_counts' rule: a float, a bool or a str is never a count. Each
    # of these once raised a raw TypeError, or ran and echoed True.
    with pytest.raises(DomainError) as caught:
        call()
    assert str(caught.value) == f"{name} must be an integer, got {value!r}"


# Each entry point of a rational rule whose value core reads: the checked name,
# the rule's message for a value Fraction() cannot read, and a call that puts a
# value where the rule applies. check_positive and check_probability own the
# first two messages; absorbing's rho and the sweep's mu keep their own.
POSITIVE, PROBABILITY = "{name} must be a positive rational", "{name} must lie in [0, 1], got {value!r}"
RATIONAL_RULES = {
    "pipeline-eps": ("eps", POSITIVE, lambda v: almost_perfect_pipeline(K9, 2, Fraction(1, 2), 0, v)),
    "round1-xi": ("xi", POSITIVE,
                  lambda v: check_round1_properties(round1_sample(K9, 2, Fraction(1, 2), 0), K9, (), v)),
    "classify-good-alpha": ("alpha", POSITIVE, lambda v: classify_good(K9, 3, 3, range(3), v)),
    "fdense-eps": ("eps", POSITIVE, lambda v: f_density_check(K9, v)),
    "stability-closeness-xi": ("xi", POSITIVE, lambda v: stability_closeness_check(complete_hypergraph(6, 2), 3, v)),
    "stability2-rho": ("rho", POSITIVE, lambda v: stability2_suite(1, rho=v)),
    "pipeline-p": ("p", PROBABILITY, lambda v: almost_perfect_pipeline(K9, 2, v, 1)),
    "random-hypergraph-p": ("p", PROBABILITY, lambda v: random_hypergraph(6, 3, v, 0)),
    "sweep-search-p": ("--search-p", PROBABILITY, lambda v: threshold_sweep(3, 2, 6, 6, search_p=v)),
    "absorbing-rho": ("rho", "{name} must lie strictly between 0 and 1",
                      lambda v: sample_absorbing_family(K9, AbsorbingParameters(3, 2, 1, 2), v, 0)),
    "theorem-m-range-mu": ("mu", "{name} must be a positive rational, got {value}",
                           lambda v: theorem_m_range(12, 3, 2, v)),
    "sweep-mu": ("mu", "{name} must be a positive rational, got {value}", lambda v: threshold_sweep(3, 2, 6, 6, mu=v)),
}


@pytest.mark.parametrize("value", [None, "x", float("nan"), float("inf"), "1/0"], ids=repr)
@pytest.mark.parametrize("entry", RATIONAL_RULES)
def test_a_value_that_is_not_a_rational_is_refused(entry, value):
    # Fraction() cannot read any of these. Each once raised a raw TypeError,
    # ValueError, OverflowError or ZeroDivisionError.
    name, message, call = RATIONAL_RULES[entry]
    with pytest.raises(DomainError) as caught:
        call(value)
    assert str(caught.value) == message.format(name=name, value=value)


@pytest.mark.parametrize("value, positive, probability", [
    (Fraction(1, 3), True, True), ("1/3", True, True), (0.5, True, True), (1, True, True),
    (0, False, True), (Fraction(3, 2), True, False), ("-1/4", False, False),
], ids=["fraction", "str", "float", "int", "zero", "three-halves", "negative-str"])
def test_the_rational_checks_read_what_fraction_reads(value, positive, probability):
    # Each check returns the value as a Fraction (a float as its exact binary
    # value) or refuses it with the rule's message, which echoes a
    # probability as the Fraction it was read as.
    for check, ok, message in ((core.check_positive, positive, "v must be a positive rational"),
                               (core.check_probability, probability, f"v must lie in [0, 1], got {Fraction(value)}")):
        if ok:
            result = check("v", value)
            assert type(result) is Fraction and result == Fraction(value)
        else:
            with pytest.raises(DomainError) as caught:
                check("v", value)
            assert str(caught.value) == message


@pytest.mark.parametrize("looks_up", [True, False], ids=["lookup", "scan"])
def test_edges_within_yields_the_induced_edges_lifted(monkeypatch, looks_up):
    # Either forced route lists exactly H[X]'s edges, in host labels and lex order.
    cases = []
    for seed, k in product(range(4), (2, 3, 4)):
        rng = CounterRng(seed)
        for p in (Fraction(1, 20), Fraction(1, 4), Fraction(1)):
            H = random_hypergraph(10, k, p, 10 * seed + k)
            for size in range(11):
                X = sorted(rng.sample(list(range(10)), size, k, size, p.denominator))
                sub = induced(H, X)
                cases.append((H, X, tuple(map(sub.lift, sub.graph.edges))))
    routes = []
    monkeypatch.setattr(core, "_looks_up", lambda H, size: routes.append(size) or looks_up)
    for H, X, expected in cases:
        edges = core.edges_within(H, X)
        assert iter(edges) is edges and tuple(edges) == expected, (H.edges, X)
    assert routes == [len(X) for _, X, _ in cases]
    assert {bool(expected) for _, _, expected in cases} == {True, False}


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_weakest_set_matches_mask_scan(monkeypatch, k):
    hosts = []
    for n in (k, k + 2, 9):
        ksets = list(combinations(range(n), k))
        hosts += [Hypergraph(n, k, ksets[1:]), Hypergraph(n, k, ksets[:-1])]  # complete minus one k-set
        # Each side of the switch to counting the missing k-sets, at 2e(H) = C(n, k).
        hosts += [Hypergraph(n, k, ksets[i::2]) for i in (0, 1)]
        hosts += [Hypergraph(n, k, ksets[: len(ksets) // 2 + 1])]
        for seed in range(8):
            for p in (0, Fraction(1, 5), Fraction(1, 2), Fraction(3, 4), Fraction(9, 10), 1):
                hosts.append(random_hypergraph(n, k, Fraction(p), seed))
    # Record which count ran: the host's edges (a True verdict) or its missing k-sets.
    real, counted = core._comb_exceeds, set()

    def comb_exceeds(*args):
        counted.add(real(*args))
        return real(*args)

    monkeypatch.setattr(core, "_comb_exceeds", comb_exceeds)
    zero_degree_seen = False
    for H in hosts:
        for l in range(k + 1):
            T, d = weakest_set(H, l)
            assert (T, d) == mask_scan_weakest_set(H, l)
            assert d == brute_degree(H, T)
            zero_degree_seen |= d == 0 and l > 0
    assert zero_degree_seen
    assert counted == {True, False}


class TestSerialization:
    def test_round_trip_identity(self, fano):
        assert from_json(to_json(fano)) == fano
        assert to_json(from_json(to_json(fano))) == to_json(fano)

    def test_rejects_garbage(self):
        with pytest.raises(DomainError):
            from_json("not json at all {{{")
        with pytest.raises(DomainError):
            from_json("[1,2,3]")
        with pytest.raises(DomainError):
            from_json('{"n": 3, "k": 2}')

    def test_rejects_duplicate_edges_in_file(self):
        with pytest.raises(DomainError):
            from_json('{"n": 4, "k": 2, "edges": [[0,1],[0,1]]}')


@given(seed=seeds, n=st.integers(3, 8), k=st.integers(2, 3))
def test_degree_equals_link_edge_count(seed, n, k):
    # deg(S) is the edge count of S's link: the edges that contain S.
    if k > n:
        return
    H = random_hypergraph(n, k, Fraction(1, 2), seed)
    for size in range(k):
        for s in combinations(range(n), size):
            assert degree(H, s) == brute_degree(H, s)


@given(seed=seeds, n=st.integers(4, 8), k=st.integers(2, 3))
def test_min_degree_cascade(seed, n, k):
    # If the minimum l-degree is at least c * C(n-l, k-l) then every smaller
    # l' has minimum degree at least c * C(n-l', k-l'), with c exact.
    H = random_hypergraph(n, k, Fraction(1, 2), seed)
    for l in range(1, k + 1):
        denom = comb(n - l, k - l)
        if denom == 0:
            continue
        c = Fraction(min_l_degree(H, l), denom)
        for lp in range(l):
            assert min_l_degree(H, lp) >= c * comb(n - lp, k - lp)


@given(seed=seeds)
def test_serialization_round_trip_random(seed):
    H = random_hypergraph(7, 3, Fraction(1, 2), seed)
    assert from_json(to_json(H)) == H
