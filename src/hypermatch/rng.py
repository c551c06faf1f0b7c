"""Deterministic counter-based randomness and seeded instance generators.

Every random decision in the package is a pure function of (seed, key path),
where the key path is a tuple of nonnegative integers naming the decision
(copy index, candidate index, retry counter, ...). Draws therefore replay
bit-identically across platforms and are independent of evaluation order,
which keeps Monte Carlo regression baselines stable. The mixer is SplitMix64.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb

from .core import Hypergraph
from .errors import DomainError

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15

# Key-path namespace tags, one per random decision site.
TAG_EDGE_SAMPLE = 1
TAG_FAMILY = 2
TAG_ROUND1 = 3
TAG_TRIM = 4
TAG_ROUND2 = 5
TAG_PROBE = 6
TAG_CLOSURE = 7
TAG_SEARCH = 8
TAG_SET_SAMPLE = 9


def splitmix64(x: int) -> int:
    """One SplitMix64 output step for a 64-bit state."""
    x = (x + _GAMMA) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class CounterRng:
    """Stateless keyed generator: each draw hashes (seed, *key)."""

    __slots__ = ("seed",)

    def __init__(self, seed: int):
        self.seed = int(seed) & _MASK64

    def raw(self, *key: int) -> int:
        h = splitmix64(self.seed)
        for part in key:
            h = splitmix64(h ^ (int(part) & _MASK64))
        return h

    def bernoulli(self, p: Fraction, *key: int) -> bool:
        """True with probability p: the top 53 bits of the draw, read as a
        rational in [0, 1), fall below p; compared in integers."""
        return (self.raw(*key) >> 11) * p.denominator < p.numerator << 53

    def below(self, bound: int, *key: int) -> int:
        """Uniform integer in [0, bound), unbiased via rejection."""
        if bound <= 0:
            raise DomainError("below() needs a positive bound")
        limit = (1 << 64) - ((1 << 64) % bound)
        retry = 0
        while True:
            v = self.raw(*key, retry)
            if v < limit:
                return v % bound
            retry += 1

    def sample(self, population: list, size: int, *key: int) -> list:
        """Uniform sample without replacement, order-stable given the key."""
        if size > len(population):
            raise DomainError("sample larger than population")
        pool = list(population)
        out = []
        for j in range(size):
            idx = self.below(len(pool), *key, j)
            out.append(pool.pop(idx))
        return out


def combination_unrank(n: int, k: int, rank: int) -> tuple:
    """The rank-th k-subset of range(n) in lexicographic order."""
    if not 0 <= rank < comb(n, k):
        raise DomainError("combination rank out of range")
    out = []
    x = 0
    for slot in range(k, 0, -1):
        while comb(n - x - 1, slot - 1) <= rank:
            rank -= comb(n - x - 1, slot - 1)
            x += 1
        out.append(x)
        x += 1
    return tuple(out)


def bernoulli_subsets(n: int, k: int, p: Fraction, rng: CounterRng, tag: int):
    """Yield each k-subset of range(n) kept with probability p, in lex order."""
    for index, cand in enumerate(combinations(range(n), k)):
        if rng.bernoulli(p, tag, index):
            yield cand


def random_hypergraph(n: int, k: int, p: Fraction, seed: int) -> Hypergraph:
    """Seeded Erdos-Renyi style k-graph: every k-set kept with probability p."""
    rng = CounterRng(seed)
    return Hypergraph(n, k, list(bernoulli_subsets(n, k, p, rng, TAG_EDGE_SAMPLE)))
