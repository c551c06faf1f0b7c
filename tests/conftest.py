import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import settings

import hypermatch
from hypermatch import Hypergraph, SizeLimitError, exact, max_matching

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
