"""The two ways to build a Hypergraph, and the k-set enumeration guard.

The public constructor validates every edge; `Hypergraph._canonical` trusts
its caller. The oracle below rebuilds each trusted result with the public
constructor and demands the same object, slot for slot. The message tests pin
the public constructor's DomainError texts, which the bulk checks must keep.
"""

import json
import re
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

from hypermatch import (
    DomainError,
    Hypergraph,
    SizeLimitError,
    build_clique_minus,
    build_parity,
    build_space_barrier,
    build_space_barrier_at,
    complete_hypergraph,
    degree,
    downward_closure,
    induced,
    remove,
    stable_completion,
)
from hypermatch import core
from hypermatch.cli import main
from hypermatch.pipeline import sparsify_stage
from hypermatch.rng import CounterRng, random_hypergraph

SEEDS = (0, 1, 7, 2**64 - 1)
DENSITIES = (Fraction(0), Fraction(1, 10), Fraction(1, 2), Fraction(1))  # empty .. complete


def assert_as_validated(H):
    """H equals the public constructor's build of its own edges, slot for slot."""
    ref = Hypergraph(H.n, H.k, list(H.edges), H.name)
    for slot in Hypergraph.__slots__:
        assert getattr(H, slot) == getattr(ref, slot), slot
        assert type(getattr(H, slot)) is type(getattr(ref, slot)), slot


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_complete_and_random_hosts_match_the_validating_constructor(k):
    for n in (0, 1, k, k + 3, 9):
        assert_as_validated(complete_hypergraph(n, k))
        for seed in SEEDS:
            for p in DENSITIES:
                assert_as_validated(random_hypergraph(n, k, p, seed))


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_induced_and_remove_match_the_validating_constructor(k):
    routes = set()
    for seed in SEEDS:
        rng = CounterRng(seed)
        for n in (0, k + 2, 10):
            for p in DENSITIES:
                H = random_hypergraph(n, k, p, seed)
                for size in range(n + 1):
                    S = rng.sample(list(range(n)), size, n, size)
                    routes.add(comb(size, k) < H.num_edges)
                    assert_as_validated(induced(H, S).graph)
                    assert_as_validated(remove(H, S).graph)
    assert routes == {True, False}


def test_extremal_generators_match_the_validating_constructor():
    for k in (1, 2, 3, 4):
        for n in range(k, 10):
            for s in range(1, k + 1):
                for m in range(n + 1):
                    assert_as_validated(build_space_barrier(n, k, s, m))
                assert_as_validated(build_space_barrier_at(n, k, s, {n - 1, 0}))
            if n % k == 0:  # the clique-minus family
                assert_as_validated(build_clique_minus(n, k))
        for na in range(6):
            for nb in range(6):
                if na + nb >= k:
                    assert_as_validated(build_parity(na, nb, k))


def test_downward_closures_match_the_validating_constructor():
    assert_as_validated(downward_closure(0, 2, []))
    for k in (1, 2, 3, 4):
        for n in range(k, 9):
            every = list(combinations(range(n), k))
            for gens in ([], every[:1], every[-1:], every[::3], [tuple(reversed(every[-1]))]):
                assert_as_validated(downward_closure(n, k, gens))


def test_round_two_matches_the_validating_constructor():
    hosts = [complete_hypergraph(10, 2), complete_hypergraph(12, 3), complete_hypergraph(15, 3)]
    for H in hosts:
        for seed in SEEDS:
            sparse, diag = sparsify_stage(H, 6, Fraction(1, 2), seed)
            assert 0 < sparse.num_edges and sparse.edge_set <= H.edge_set
            assert_as_validated(sparse)


# ------------------------------------------------ public constructor messages

# (malformed edge, the DomainError text for n = 5, k = 3)
MALFORMED = [
    (7, "edge 7 is not a list of integer vertices"),
    (None, "edge None is not a list of integer vertices"),
    ([0, "a", 2], "edge [0, 'a', 2] is not a list of integer vertices"),
    ("abc", "edge 'abc' is not a list of integer vertices"),
    ([0, 1.5, 2], "edge [0, 1.5, 2] is not a list of integer vertices"),
    ([0, 2.0, 1], "edge [0, 2.0, 1] is not a list of integer vertices"),
    ([True, 2, 3], "edge [True, 2, 3] is not a list of integer vertices"),
    ([0, 1], "edge [0, 1] does not have exactly 3 distinct vertices"),
    ([0, 1, 2, 3], "edge [0, 1, 2, 3] does not have exactly 3 distinct vertices"),
    ([2, 1, 1], "edge [2, 1, 1] does not have exactly 3 distinct vertices"),
    ([1, 1, 2], "edge [1, 1, 2] does not have exactly 3 distinct vertices"),
    ([-1, 0, 2], "edge [-1, 0, 2] has vertices outside 0..4"),
    ([2, 0, -1], "edge [-1, 0, 2] has vertices outside 0..4"),
    ([0, 1, 5], "edge [0, 1, 5] has vertices outside 0..4"),
    ([4, 9, 0], "edge [0, 4, 9] has vertices outside 0..4"),
]
IDS = [f"edge-{i}" for i in range(len(MALFORMED))]
GOOD = [[0, 1, 2], [1, 3, 4], (2, 3, 4)]
LATER_FAULT = [0, 0, 1.5]  # a second bad edge; the message must name the first


@pytest.mark.parametrize("bad, message", MALFORMED, ids=IDS)
def test_first_bad_edge_in_input_order_is_named(bad, message):
    edges = [*GOOD[:2], bad, LATER_FAULT, GOOD[2]]
    for given in (edges, tuple(edges), (e for e in edges)):
        with pytest.raises(DomainError) as info:
            Hypergraph(5, 3, given)
        assert str(info.value) == message


def test_duplicate_edges_name_the_least_duplicate():
    edges = [[3, 4, 0], [4, 2, 1], [0, 1, 2], [1, 2, 4], [2, 1, 0]]
    for given in (edges, (e for e in edges)):
        with pytest.raises(DomainError) as info:
            Hypergraph(5, 3, given)
        assert str(info.value) == "duplicate edge [0, 1, 2]"


# (n, k, edges, the DomainError text or None for a valid input). Every edge is
# a list or tuple of ints, so the bulk check sees each input whole: it must
# refuse every bad one, for the one-by-one walk to name the fault.
BULK_PATH = [
    (5, 3, [*GOOD, [1, 1, 2]], "edge [1, 1, 2] does not have exactly 3 distinct vertices"),
    (5, 3, [*GOOD, (4, 0, 4)], "edge [4, 0, 4] does not have exactly 3 distinct vertices"),
    (5, 3, [*GOOD, [4, 3, 1]], "duplicate edge [1, 3, 4]"),
    (5, 3, [*GOOD, [4, 0, 1]], None),
    (4, 1, [[2], [0], (3,)], None),
    (4, 1, [[2], [0], [2]], "duplicate edge [2]"),
    (5, 2, [[3, 3]], "edge [3, 3] does not have exactly 2 distinct vertices"),
    (5, 2, [[4, 1], (0, 3)], None),
]


@pytest.mark.parametrize("n, k, edges, message", BULK_PATH, ids=[f"bulk-{i}" for i in range(len(BULK_PATH))])
def test_bulk_check_refuses_every_input_the_walk_refuses(n, k, edges, message):
    checked = core._bulk_checked(n, k, edges)
    if message is None:
        canon = core._walked(n, k, edges)
        assert checked == (canon, frozenset(canon))
        return
    assert checked is None
    with pytest.raises(DomainError) as info:
        Hypergraph(n, k, edges)
    assert str(info.value) == message


def test_any_iterable_of_vertices_is_an_edge():
    edges = [{0, 1, 2}, range(2, 5), frozenset((1, 3, 4)), iter((4, 0, 1)), [3, 1, 0]]
    H = Hypergraph(5, 3, edges)
    assert H.edges == ((0, 1, 2), (0, 1, 3), (0, 1, 4), (1, 3, 4), (2, 3, 4))
    assert_as_validated(H)


@pytest.mark.parametrize("bad, message", MALFORMED, ids=IDS)
def test_nu_reports_the_same_message_for_a_malformed_file(capsys, tmp_path, bad, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n": 5, "k": 3, "edges": [*GOOD[:2], bad, LATER_FAULT]}))
    code = main(["nu", str(path)])
    report = json.loads(capsys.readouterr().out)
    assert code == 1
    assert report == {"error": {"type": "DomainError", "message": message}}


def test_nu_reports_a_duplicate_edge_in_a_file(capsys, tmp_path):
    path = tmp_path / "dup.json"
    path.write_text('{"n": 5, "k": 3, "edges": [[0, 1, 2], [2, 1, 0]]}')
    assert main(["nu", str(path)]) == 1
    assert json.loads(capsys.readouterr().out)["error"]["message"] == "duplicate edge [0, 1, 2]"


# ------------------------------------------------ vertex sets and generator shapes


@pytest.mark.parametrize("members", [[0, True], [0, 1.5], ["a", 1], [0, None]])
def test_vertex_sets_take_only_int_members(members):
    H = complete_hypergraph(5, 3)
    message = f"vertex set {members} is not a list of integer vertices"
    for query in (degree, induced, remove):
        with pytest.raises(DomainError) as info:
            query(H, members)
        assert str(info.value) == message


def test_generators_reject_a_non_integer_vertex_count():
    with pytest.raises(DomainError, match="vertex count must be a nonnegative integer"):
        complete_hypergraph(5.0, 3)
    with pytest.raises(DomainError, match="vertex count must be a nonnegative integer"):
        random_hypergraph(5.0, 3, Fraction(1, 2), 0)
    with pytest.raises(DomainError, match="uniformity must be a positive integer"):
        complete_hypergraph(5, 3.0)
    with pytest.raises(DomainError, match="not a k-subset"):
        downward_closure(5, 2, [(0, 1.5)])
    with pytest.raises(DomainError, match="not a k-subset"):
        downward_closure(5, 2, [(True, 2)])
    with pytest.raises(DomainError, match=re.escape("generator [0, 'a'] is not a k-subset of 0..4")):
        downward_closure(5, 2, [[0, "a"]])
    with pytest.raises(DomainError, match="generator 3 is not a k-subset of 0..4"):
        downward_closure(5, 2, [3])
    with pytest.raises(DomainError, match="uniformity must be a positive integer"):
        downward_closure(5, 0, [()])


# ------------------------------------------------ the k-set enumeration guard


def test_guard_sits_above_every_host_the_tests_and_benchmark_build():
    assert core.ENUMERATE_MAX_KSETS >= comb(24, 4)
    core.check_enumeration(24, 4)
    core.check_enumeration(10**6, 10**6 + 1)  # no k-set at all
    core.check_enumeration(10**6, 10**6)
    with pytest.raises(SizeLimitError, match=re.escape(f"got C(3000, 3) > {core.ENUMERATE_MAX_KSETS}")):
        core.check_enumeration(3000, 3)
    core.check_enumeration(3000, 3, force=True)


def test_vertex_count_is_capped_before_any_work():
    # A solver's mask of an edge is up to n bits wide, so a huge n is refused
    # up front, by every constructor and generator, not met as a MemoryError later.
    cap = core._MAX_VERTICES
    assert Hypergraph(cap, 2, [(0, cap - 1)]).num_edges == 1
    for build in (
        lambda: Hypergraph(cap + 1, 2, [(0, cap)]),
        lambda: Hypergraph._canonical(10**11, 2, [(0, 10**11 - 1)]),
        lambda: complete_hypergraph(10**11, 2),
        lambda: random_hypergraph(10**11, 2, Fraction(1, 2), 0),
    ):
        with pytest.raises(SizeLimitError, match=f"n <= {cap}"):
            build()


def test_outside_input_is_capped_on_its_total_mask_bits(monkeypatch):
    # The bound is the sum of each edge's largest vertex, on both input paths:
    # the bulk check (lists) and the one-by-one walk (here, sets).
    monkeypatch.setattr(core, "_MAX_MASK_BITS", 12)
    assert Hypergraph(9, 2, [(0, 4), (1, 8)]).num_edges == 2
    assert Hypergraph(9, 2, [{0, 4}, {1, 8}]).num_edges == 2
    for edges in ([(0, 5), (1, 8)], [{0, 5}, {1, 8}]):
        with pytest.raises(SizeLimitError, match="at most 12 edge-mask bits"):
            Hypergraph(9, 2, edges)
    assert complete_hypergraph(9, 2).num_edges == 36  # the package's own builders are trusted


def test_guard_compares_without_forming_a_huge_binomial():
    for n in range(0, 40):
        for k in range(1, n + 3):
            for cap in (0, 1, 10, 1000, 1 << 17):
                assert core._comb_exceeds(n, k, cap) == (comb(n, k) > cap), (n, k, cap)
    with pytest.raises(SizeLimitError) as info:
        core.check_enumeration(20000, 10000)  # C(20000, 10000) has about 6,000 digits
    assert str(info.value).endswith(f"got C(20000, 10000) > {core.ENUMERATE_MAX_KSETS}")


def test_every_enumerating_generator_is_guarded_and_force_lifts_it(monkeypatch):
    monkeypatch.setattr(core, "ENUMERATE_MAX_KSETS", comb(6, 3) - 1)
    builds = [
        lambda force: build_space_barrier(6, 3, 3, 2, force),
        lambda force: build_space_barrier_at(6, 3, 3, (1, 4), force),
        lambda force: build_parity(3, 3, 3, force),
        lambda force: build_clique_minus(6, 3, force),
        lambda force: stable_completion(Hypergraph(6, 3, [(0, 1, 2)]), force).graph,
    ]
    for build in builds:
        with pytest.raises(SizeLimitError):
            build(False)
        assert_as_validated(build(True))
    # The library generators no CLI flag sizes stay unguarded.
    assert_as_validated(complete_hypergraph(6, 3))
    assert_as_validated(random_hypergraph(6, 3, Fraction(1, 2), 0))
    assert_as_validated(downward_closure(6, 3, [(3, 4, 5)]))


@pytest.mark.parametrize(
    "argv",
    [
        ["construct", "--family", "space-barrier", "--k", "3", "--s", "1", "--m", "2", "--n", "3000"],
        ["construct", "--family", "parity", "--k", "3", "--na", "1500", "--nb", "1500"],
        ["construct", "--family", "clique-minus", "--k", "3", "--n", "3000"],
        ["construct", "--family", "clique-minus", "--k", "10000", "--n", "20000"],
        ["verify", "--suite", "stability2", "--n", "9999", "--trials", "2"],
        ["stable-complete", "{host}"],
    ],
    ids=["space-barrier", "parity", "clique-minus", "clique-minus-huge-k", "stability2", "stable-complete"],
)
def test_oversized_builds_exit_2_at_once(capsys, tmp_path, argv):
    output = tmp_path / "h.json"
    host = tmp_path / "sparse.json"
    host.write_text('{"n": 3000, "k": 3, "edges": [[0, 1, 2]]}')
    argv = [str(host) if arg == "{host}" else arg for arg in argv]
    if argv[0] in ("construct", "stable-complete"):
        argv = [*argv, "-o", str(output)]
    code = main(argv)
    report = json.loads(capsys.readouterr().out)
    assert code == 2 and report["error"]["type"] == "SizeLimitError"
    assert "enumerating k-sets enforces" in report["error"]["message"]
    assert not output.exists()


def test_construct_force_lifts_the_guard(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(core, "ENUMERATE_MAX_KSETS", 10)
    argv = ["construct", "--family", "clique-minus", "--k", "3", "--n", "6", "-o", str(tmp_path / "c.json")]
    assert main(argv) == 2
    assert json.loads(capsys.readouterr().out)["error"]["type"] == "SizeLimitError"
    assert main([*argv, "--force"]) == 0
    assert json.loads(capsys.readouterr().out)["results"]["edge_count"] == comb(6, 3) - comb(5, 3)
