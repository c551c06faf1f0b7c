"""Kernel outputs pinned by one sha256 per kernel over a fixed, seeded corpus.

A change to a kernel that alters any output on these hosts fails here, so a
speedup cannot change a witness unnoticed. A change that means to alter an
output re-pins the kernel's digest in tests/kernel_digests.json and says so.
"""

import hashlib
import json
from fractions import Fraction
from functools import cache
from itertools import combinations
from math import ceil, factorial
from pathlib import Path

import pytest

from hypermatch import (
    AbsorbingParameters,
    berge_deficiency,
    build_parity,
    build_space_barrier,
    check_round1_properties,
    closest_partition,
    complete_hypergraph,
    f_density_check,
    independence_number,
    max_matching,
    sample_absorbing_family,
    threshold_sweep,
)
from hypermatch.absorbing import _matching_in
from hypermatch.closeness import CLOSEST_MAX_N, DENSITY_TRIALS, exhaustive
from hypermatch.core import _looks_up, induced, weakest_set
from hypermatch.exact import greedy_matching
from hypermatch.fractional import _simplex_optimum
from hypermatch.pipeline import round1_sample
from hypermatch.rng import TAG_SET_SAMPLE, CounterRng, random_hypergraph
from hypermatch.stability import random_stable_hypergraph

from conftest import least_budget, padded_host, pipeline_host

PINNED = json.loads(Path(__file__).with_name("kernel_digests.json").read_text())


@cache
def matcher_hosts() -> list:
    """400 random 2- to 5-graphs, then complete, space-barrier, parity and
    stable hosts."""
    hosts = []
    for i in range(400):
        k = 2 + i % 4
        hosts.append(random_hypergraph(k + i % (14 - k), k, Fraction(1 + i % 9, 10), i))
    for k in (2, 3, 4):
        hosts += (complete_hypergraph(n, k) for n in range(k, 12))
        hosts += (build_space_barrier(11, k, s, m) for s in range(1, k + 1) for m in range(1, 6))
    hosts += (build_parity(na, nb, k) for k in (2, 3) for na in range(1, 7) for nb in (5, 6))
    hosts += (random_stable_hypergraph(n, k, seed) for k in (2, 3, 4) for n in (9, 12) for seed in range(5))
    return hosts


def family_hosts():
    """(params, host) pairs on which some probes span an edge and some do not."""
    for params in (AbsorbingParameters(3, 2, 1, 2), AbsorbingParameters(4, 3, 1, 3)):
        k = params.k
        yield params, complete_hypergraph(12, k)
        yield params, build_space_barrier(12, k, k, 12 // k - 1)
        yield from ((params, random_hypergraph(12, k, Fraction(1, d), d)) for d in (20, 6, 2))
        yield params, build_parity(6, 6, k)


def search_lines(hosts):
    """max_matching on each host, then _matching_in on a seeded vertex subset
    of every size with t = 1..3."""
    for i, H in enumerate(hosts):
        yield repr((H.n, H.k, H.edges, max_matching(H)))
        rng = CounterRng(i)
        for size in range(H.n + 1):
            X = rng.sample(list(range(H.n)), size, size)
            yield repr((X, [_matching_in(H, X, t) for t in (1, 2, 3)]))


def matcher_lines(monkeypatch):
    hosts = matcher_hosts()
    yield from search_lines(hosts)
    for seed, (params, H) in enumerate(family_hosts()):
        fam = sample_absorbing_family(H, params, Fraction(1, 3), seed, probes=40)
        yield repr((params, H.edges, fam.members, fam.member_matchings, fam.diagnostics))
    # Full-host search budgets go last, because they patch the budget.
    for H in hosts[::9][:60]:
        yield repr((H.n, H.k, H.edges, least_budget(H, monkeypatch)))


def digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode() + b"\n")
    return h.hexdigest()


def test_matcher_outputs_match_the_pinned_digest(monkeypatch):
    # max_matching witnesses, _matching_in on seeded vertex subsets of every
    # size, absorbing families with their probe diagnostics, and the least
    # budget of 60 full-host searches, read-back charges included.
    assert digest(matcher_lines(monkeypatch)) == PINNED["matcher"]


def test_padded_matcher_outputs_match_the_pinned_digest(monkeypatch):
    # The padded hosts, whose isolated vertices the search cuts above the
    # largest vertex an edge reaches: witnesses, subsets and least budgets.
    hosts = [padded_host(i) for i in range(100)]
    budgets = (repr((H.n, H.edges, least_budget(H, monkeypatch))) for H in hosts)
    assert digest([*search_lines(hosts), *budgets]) == PINNED["matcher_padded"]


@cache
def pipeline_corpus():
    """The pipeline's kernels over a fixed corpus: (round-one samples, LP and
    independence hosts).

    The samples are 10 copies at p = 1/4 of each benchmark pipeline host,
    seeded by its index, then 3 copies of each other host at p = 1/4, 1/2 or
    3/4. The LP and independence hosts are the pipeline hosts' copies,
    induced, then random 1- to 4-graphs with n <= 12, complete, space-barrier,
    parity and padded hosts.
    """
    pipe = [pipeline_host(index) for index in range(10)]
    hosts = []
    for k in (1, 2, 3, 4):
        hosts += (random_hypergraph(k + i % (13 - k), k, Fraction(1 + i % 9, 10), 100 * k + i) for i in range(60))
        hosts += (complete_hypergraph(n, k) for n in range(k, 12))
    for k in (2, 3, 4):
        hosts += (build_space_barrier(12, k, s, m) for s in range(1, k + 1) for m in range(1, 12 // k + 1))
    hosts += (build_parity(na, nb, k) for k in (2, 3) for na in range(1, 7) for nb in (5, 6))
    hosts += map(padded_host, range(100))
    samples = [round1_sample(H, 10, Fraction(1, 4), index) for index, H in enumerate(pipe)]
    copies = [induced(H, copy).graph for H, sample in zip(pipe, samples) for copy in sample.copies]
    samples += (round1_sample(H, 3, Fraction(1 + i % 3, 4), i) for i, H in enumerate(hosts))
    return samples, copies + hosts


@pytest.mark.usefixtures("simplex_deadline")
def test_lp_outputs_match_the_pinned_digest():
    # _simplex_optimum's (x, y, value, D) on every LP host: the pivots decide
    # all four, so a changed pivot changes the digest.
    _, hosts = pipeline_corpus()
    assert digest(repr((H.n, H.edges, _simplex_optimum(H))) for H in hosts) == PINNED["lp"]


def test_independence_outputs_match_the_pinned_digest():
    _, hosts = pipeline_corpus()
    assert digest(repr((H.n, H.edges, independence_number(H))) for H in hosts) == PINNED["independence"]


def test_round1_outputs_match_the_pinned_digest():
    samples, _ = pipeline_corpus()
    assert digest(repr((s.n, s.p, s.copies)) for s in samples) == PINNED["round1"]


def sweep_reports():
    """threshold_sweep on six (k, l) pairs and five search_p from 1/10 to 1.

    m_list runs to 4, past n // k on the small rows, so on many hosts the
    first-fit prefix falls short and the exact predicate decides; some rows
    find counterexamples.
    """
    for k, l in ((3, 1), (3, 2), (4, 2), (4, 3), (5, 3), (5, 4)):
        for i, p in enumerate((Fraction(1, 10), Fraction(1, 3), Fraction(1, 2), Fraction(3, 4), Fraction(1))):
            yield threshold_sweep(k, l, k + 2, k + 6, m_list=[1, 2, 3, 4], search_trials=3, search_p=p, seed=10 * k + i)


def test_sweep_outputs_match_the_pinned_digest():
    # Every row, barrier and search counts alike.
    assert digest(map(repr, sweep_reports())) == PINNED["sweep"]


def berge_hosts():
    """Graphs for berge_deficiency, whose early exit reads greedy_matching's
    length: random graphs on 2 to 12 vertices, complete graphs, space
    barriers and parity graphs."""
    for i in range(120):
        yield random_hypergraph(2 + i % 11, 2, Fraction(1 + i % 9, 10), 500 + i)
    yield from (complete_hypergraph(n, 2) for n in range(2, 13))
    yield from (build_space_barrier(12, 2, s, m) for s in (1, 2) for m in range(7))
    yield from (build_parity(na, nb, 2) for na in range(1, 7) for nb in (5, 6))


def test_berge_outputs_match_the_pinned_digest():
    # The greedy lower bound decides only when the scan stops, never the
    # certificate, so the bound is pinned beside it.
    lines = (repr((G.n, G.edges, greedy_matching(G), berge_deficiency(G))) for G in berge_hosts())
    assert digest(lines) == PINNED["berge"]


def test_weakest_set_outputs_match_the_pinned_digest():
    # Every l from 0 to k on the matcher corpus, whose dense hosts take the
    # missing-k-set route and whose sparse ones the edge route.
    lines = (repr((H.n, H.k, H.edges, [weakest_set(H, l) for l in range(H.k + 1)])) for H in matcher_hosts())
    assert digest(lines) == PINNED["weakest_set"]


def closest_cases():
    """(H, m, s, seed) for closest_partition: random 2- to 4-graphs on at
    most 10 vertices, scanned exhaustively, with every s and m cycling
    through 0..n; then space barriers and random graphs one vertex past
    CLOSEST_MAX_N, where the seeded swap search runs and can stop short of
    the least deficit."""
    for i in range(48):
        k = 2 + i % 3
        H = random_hypergraph(k + 2 + i % 5, k, Fraction(1 + i % 9, 10), 700 + i)
        yield from ((H, (i + s) % (H.n + 1), s, i) for s in range(1, k + 1))
    n = CLOSEST_MAX_N + 1
    for k in (2, 3):
        for s in range(1, k + 1):
            yield build_space_barrier(n, k, s, 4), 4, s, s
            yield random_hypergraph(n, k, Fraction(1, 4), 40 + s), 3, s, s


def test_closest_partition_outputs_match_the_pinned_digest():
    lines = (repr((H.n, H.edges, m, s, seed, closest_partition(H, m, s, seed))) for H, m, s, seed in closest_cases())
    assert digest(lines) == PINNED["closest_partition"]


def fdense_cases():
    """(H, eps, force, seed) for f_density_check: random 2- to 4-graphs and
    single-hit barriers with n <= 11, scanned exhaustively, then hosts one
    and two vertices past CLOSEST_MAX_N, where DENSITY_TRIALS seeded sets
    are sampled. Dense and sparse hosts put H[A] on both of _looks_up's
    routes, and some hosts are dense while others yield a witness."""
    epsilons = (Fraction(1, 10), Fraction(1, 2), Fraction(1), Fraction(3))
    for i in range(36):
        k = 2 + i % 3
        H = random_hypergraph(k + 3 + i % (9 - k), k, Fraction(1 + i % 9, 10), 900 + i)
        yield H, epsilons[i % 4], False, i
    for k in (2, 3):
        yield build_space_barrier(9, k, 1, 3), Fraction(1, 2), False, k
    n = CLOSEST_MAX_N + 1
    yield complete_hypergraph(n, 3), Fraction(1, 2), False, 1
    yield random_hypergraph(n, 3, Fraction(1, 10), 2), Fraction(1, 2), False, 2
    yield random_hypergraph(n + 1, 2, Fraction(1, 2), 3), Fraction(1, 10), False, 3
    yield build_space_barrier(n, 2, 1, 5), Fraction(1), False, 4


def density_size_and_need(H, eps):
    return max(0, ceil((1 - Fraction(1, H.k) - eps / 4) * H.n)), eps * H.num_edges / (2 * factorial(H.k))


def brute_induced_count(H, A):
    a = set(A)
    return sum(1 for e in H.edges if set(e) <= a)


def test_fdense_outputs_match_the_pinned_digest():
    # Every verdict and witness, on both routes and both route rules.
    routes, lines = set(), []
    for H, eps, force, seed in fdense_cases():
        size, _ = density_size_and_need(H, eps)
        routes.add((exhaustive(H.n, force), _looks_up(H, size)))
        lines.append(repr((H.n, H.k, H.edges, eps, force, seed, f_density_check(H, eps, force, seed))))
    assert routes == {(True, True), (True, False), (False, True), (False, False)}
    assert digest(lines) == PINNED["fdense"]


def test_fdense_matches_brute_force():
    # The exhaustive scan is the first size-|A| set, in lex order, whose
    # brute-force edge count falls short; the sampled one is the first short
    # set among the seeded draws.
    verdicts = set()
    for H, eps, force, seed in fdense_cases():
        size, need = density_size_and_need(H, eps)
        if exhaustive(H.n, force):
            candidates = combinations(range(H.n), size)
        else:
            rng = CounterRng(seed)
            candidates = (tuple(sorted(rng.sample(list(range(H.n)), size, TAG_SET_SAMPLE, t)))
                          for t in range(DENSITY_TRIALS))
        witness = next((A for A in candidates if brute_induced_count(H, A) < need), None)
        assert f_density_check(H, eps, force, seed) == (witness is None, witness)
        verdicts.add(witness is None)
    assert verdicts == {True, False}


def round1_property_cases():
    """(sample, H, probes, xi): 4 copies at p = 1/2 or 3/4 of sparse random
    2- to 4-graphs on 9 to 16 vertices, and of one dense host, probed at the
    empty set, single vertices, pairs and an edge; each copy leaves some
    probed vertices out."""
    hosts = [random_hypergraph(9 + i % 8, 2 + i % 3, Fraction(1 + i % 3, 10), 1200 + i) for i in range(18)]
    hosts.append(random_hypergraph(12, 3, Fraction(9, 10), 1218))
    for i, H in enumerate(hosts):
        sample = round1_sample(H, 4, Fraction(2 + i % 2, 4), i)
        probes = [(), (0,), (H.n - 1,), (1, H.n - 2), (i % H.n, (i + 3) % H.n)]
        probes += H.edges[:1]
        yield sample, H, probes, Fraction(1, 10 ** (i % 3))


def test_round1_property_outputs_match_the_pinned_digest():
    # Each report, and deg itself at every (probe, copy) pair, since a report
    # lists only the failing pairs.
    lines = (
        repr((H.n, H.edges, s.copies, probes, xi, check_round1_properties(s, H, probes, xi),
              [s.deg(H, i, D) for D in probes for i in range(len(s.copies))]))
        for s, H, probes, xi in round1_property_cases()
    )
    assert digest(lines) == PINNED["round1_properties"]


def test_round1_deg_matches_its_definition():
    # deg(H, i, D) counts the edges that contain D and whose other vertices
    # all lie in copy i; some probes meet vertices outside the copy.
    outside = 0
    for sample, H, probes, _ in round1_property_cases():
        for D in probes:
            for i, copy in enumerate(sample.copies):
                d = set(D)
                outside += not d <= set(copy)
                assert sample.deg(H, i, D) == sum(1 for e in H.edges if d <= set(e) and set(e) - d <= set(copy))
    assert outside
