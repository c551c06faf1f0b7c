"""Kernel outputs pinned by one sha256 per kernel over a fixed, seeded corpus.

A change to a kernel that alters any output on these hosts fails here, so a
speedup cannot change a witness unnoticed. A change that means to alter an
output re-pins the kernel's digest in tests/kernel_digests.json and says so.
"""

import hashlib
import json
from fractions import Fraction
from functools import cache
from pathlib import Path

from hypermatch import (
    AbsorbingParameters,
    build_parity,
    build_space_barrier,
    complete_hypergraph,
    independence_number,
    max_matching,
    sample_absorbing_family,
)
from hypermatch.absorbing import _matching_in
from hypermatch.core import induced
from hypermatch.fractional import _simplex_optimum
from hypermatch.pipeline import round1_sample
from hypermatch.rng import CounterRng, random_hypergraph
from hypermatch.stability import random_stable_hypergraph

from conftest import least_budget, padded_host, pipeline_host

PINNED = json.loads(Path(__file__).with_name("kernel_digests.json").read_text())


def matcher_hosts():
    """400 random 2- to 5-graphs, then complete, space-barrier, parity and
    stable hosts."""
    for i in range(400):
        k = 2 + i % 4
        yield random_hypergraph(k + i % (14 - k), k, Fraction(1 + i % 9, 10), i)
    for k in (2, 3, 4):
        yield from (complete_hypergraph(n, k) for n in range(k, 12))
        yield from (build_space_barrier(11, k, s, m) for s in range(1, k + 1) for m in range(1, 6))
    yield from (build_parity(na, nb, k) for k in (2, 3) for na in range(1, 7) for nb in (5, 6))
    yield from (random_stable_hypergraph(n, k, seed) for k in (2, 3, 4) for n in (9, 12) for seed in range(5))


def family_hosts():
    """(params, host) pairs on which some probes span an edge and some do not."""
    for params in (AbsorbingParameters(3, 2, 1, 2), AbsorbingParameters(4, 3, 1, 3)):
        k = params.k
        yield params, complete_hypergraph(12, k)
        yield params, build_space_barrier(12, k, k, 12 // k - 1)
        yield from ((params, random_hypergraph(12, k, Fraction(1, d), d)) for d in (20, 6, 2))
        yield params, build_parity(6, 6, k)


def matcher_lines(monkeypatch):
    hosts = list(matcher_hosts())
    for i, H in enumerate(hosts):
        yield repr((H.n, H.k, H.edges, max_matching(H)))
        rng = CounterRng(i)
        for size in range(H.n + 1):
            X = rng.sample(list(range(H.n)), size, size)
            yield repr((X, [_matching_in(H, X, t) for t in (1, 2, 3)]))
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
