import os
import random
import signal
import subprocess
import sys
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import settings

import hypermatch
from hypermatch import (
    Hypergraph,
    SizeLimitError,
    build_space_barrier,
    complete_hypergraph,
    exact,
    max_matching,
)
from hypermatch.rng import CounterRng, random_hypergraph

settings.register_profile("suite", deadline=None, max_examples=40)
settings.register_profile("intense", deadline=None, max_examples=300)
settings.load_profile(os.getenv("HYPOTHESIS_PROFILE", "suite"))

FANO_LINES = [
    (0, 1, 2),
    (0, 3, 4),
    (0, 5, 6),
    (1, 3, 5),
    (1, 4, 6),
    (2, 3, 6),
    (2, 4, 5),
]


@pytest.fixture
def fano():
    return Hypergraph(7, 3, FANO_LINES, name="fano")


HALF = Fraction(1, 2)

SIMPLEX_DEADLINE_S = 20  # each simplex test takes under 1 s; hypothesis's intense profile a few


class DeadlineExceeded(BaseException):
    """Not an Exception, so neither the code under test nor hypothesis's
    shrinker catches it: the test fails at once, under its own name."""


@pytest.fixture
def simplex_deadline(request):
    """Fail the test if it runs past SIMPLEX_DEADLINE_S, by SIGALRM.

    The simplex has no pivot cap, so a broken tableau loops forever; this
    turns that hang into a failure named after the test. Where SIGALRM does
    not exist, the test runs without a deadline.
    """
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        raise DeadlineExceeded(f"{request.node.nodeid} ran past its {SIMPLEX_DEADLINE_S}-s deadline")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(SIMPLEX_DEADLINE_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def cli_under_a_memory_cap(*argv):
    """Run `hypermatch *argv` in a child capped at a 1 GiB address space."""
    script = """
import resource, sys
hard = resource.getrlimit(resource.RLIMIT_AS)[1]
cap = 1 << 30 if hard == resource.RLIM_INFINITY else min(1 << 30, hard)
resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
from hypermatch.cli import main
sys.exit(main(sys.argv[1:]))
"""
    src = os.path.dirname(os.path.dirname(hypermatch.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-c", script, *map(str, argv)],
        capture_output=True, text=True, env=env, timeout=120,
    )


def least_budget(H, monkeypatch):
    """The fewest MATCHING_MAX_NODES at which max_matching succeeds: the
    search's evaluation count, read-back charges included."""
    def solves(budget):
        monkeypatch.setattr(exact, "MATCHING_MAX_NODES", budget)
        try:
            max_matching(H)
        except SizeLimitError:
            return False
        return True

    hi = 1
    while not solves(hi):
        hi *= 2
    lo = hi // 2 + 1
    while lo < hi:
        mid = (lo + hi) // 2
        if solves(mid):
            hi = mid
        else:
            lo = mid + 1
    return hi


def pipeline_host(index: int) -> Hypergraph:
    """The benchmark's pipeline hosts: K30^(3) (index 0), then barrier-noise hosts.

    A barrier-noise host is the space barrier on 30 vertices with s = k = 3
    and |W| = 10, plus each 3-set outside W at rate 0.3, drawn from the
    benchmark's own host stream: index 1 from seed 0, indices 2-9 from seed 1.
    """
    n, k, w, rate = 30, 3, 10, 0.3
    if index == 0:
        return complete_hypergraph(n, k)
    rng = random.Random(f"hosts:{0 if index == 1 else 1}")
    outside = list(combinations(range(w, n), k))
    for _ in range(1 if index == 1 else index - 1):
        noise = [c for c in outside if rng.random() < rate]
    barrier = list(build_space_barrier(n, k, k, w).edges)
    return Hypergraph(n, k, barrier + noise, name=f"barrier-noise-{index}")


def padded_host(i):
    # A random host with 1 to 5 isolated vertices appended above it; every
    # other one is relabelled at random, so some isolated vertices fall inside.
    k = 2 + i % 3
    n = k + i % (10 - k)
    H = random_hypergraph(n, k, Fraction(1 + i % 9, 10), i)
    size = n + 1 + i % 5
    label = CounterRng(i).sample(list(range(size)), size) if i % 2 else range(size)
    return Hypergraph(size, k, [[label[v] for v in e] for e in H.edges])
