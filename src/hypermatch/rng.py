"""Deterministic counter-based randomness and seeded instance generators.

Every random decision in the package is a pure function of (seed, key path),
where the key path is a tuple of nonnegative integers naming the decision
(copy index, candidate index, retry counter, ...). Draws therefore replay
bit-identically across platforms and are independent of evaluation order,
which keeps Monte Carlo regression baselines stable. The mixer is SplitMix64.

A fixed-p Bernoulli stream (CounterRng.bernoulli_flags: the k-subsets of
bernoulli_subsets, the vertices of a round-one copy) is mixed a block of up
to _BLOCK draws at a time: draw i gets one 128-bit lane of a single packed
int, and each SplitMix64 step runs once on the whole int, with every shift
masked back to the low 64 bits of each lane so that no bit crosses into the
next; a 64x64-bit product fits the lane. Every flag equals the scalar
CounterRng.bernoulli verdict bit for bit.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import chain, combinations, compress
from math import comb

from .core import Hypergraph, check_counts
from .errors import DomainError

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1, _MIX2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
_BLOCK = 256  # lanes per block of a Bernoulli stream, a power of two

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
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


@cache
def _lanes(size: int) -> tuple:
    """(ones, index, mask, gamma) for a block of size 128-bit lanes: 1, the
    lane's index, 2^64 - 1 and _GAMMA in every lane; built at first use."""
    ones = int.from_bytes(b"\x01".ljust(16, b"\x00") * size, "little")
    index = int.from_bytes(b"".join(j.to_bytes(16, "little") for j in range(size)), "little")
    return ones, index, _MASK64 * ones, _GAMMA * ones


class CounterRng:
    """Stateless keyed generator: each draw hashes (seed, *key)."""

    __slots__ = ("seed", "_root")

    def __init__(self, seed: int):
        check_counts(seed=seed)  # a float or bool seed would be truncated to another seed's stream
        self.seed = seed & _MASK64
        self._root = splitmix64(self.seed)

    def raw(self, *key: int) -> int:
        """splitmix64 chained over the key parts from splitmix64(seed), which
        is hashed once, at construction: one mixer step per key part."""
        h = self._root
        for part in key:
            h = splitmix64(h ^ (int(part) & _MASK64))
        return h

    def bernoulli(self, p: Fraction, *key: int) -> bool:
        """True with probability p: the top 53 bits of the draw, read as a
        rational in [0, 1), fall below p; compared in integers."""
        return (self.raw(*key) >> 11) * p.denominator < p.numerator << 53

    def bernoulli_flags(self, p: Fraction, count: int, *key: int):
        """Iterator of count 0/1 ints; item i is self.bernoulli(p, *key, i).

        raw(*key) is hashed once, then each block of lanes draws
        splitmix64(raw(*key) ^ i) for its i at once. A block starts at a
        multiple of its size, so its lanes hold (prefix ^ start) ^ j. The test
        (draw >> 11) * den < num << 53 is draw < top with top =
        ceil(num * 2^53 / den) * 2^11 clamped to [0, 2^64]; bit 64 of
        (2^64 - 1 - draw) + top is set exactly then.
        """
        prefix = self.raw(*key)
        top = min(max(-(-(p.numerator << 53) // p.denominator) << 11, 0), 1 << 64)
        size = min(_BLOCK, 1 << max(count - 1, 0).bit_length())
        ones, index, mask, gamma = _lanes(size)
        top_lanes, width = top * ones, 16 * size

        def block(start: int) -> bytes:
            z = ((index ^ ((prefix ^ start) & _MASK64) * ones) + gamma) & mask
            z = ((z ^ z >> 30) & mask) * _MIX1 & mask
            z = ((z ^ z >> 27) & mask) * _MIX2 & mask
            z = ((~(z ^ z >> 31) & mask) + top_lanes) >> 64 & ones
            return z.to_bytes(width, "little")[::16][: count - start]

        return chain.from_iterable(map(block, range(0, count, size)))

    def below(self, bound: int, *key: int) -> int:
        """Uniform integer in [0, bound), unbiased via rejection; bound is at most 2^64."""
        return _below(bound, self.raw(*key))

    def sample(self, population: list, size: int, *key: int) -> list:
        """Uniform sample without replacement, order-stable given the key.

        Element j is popped at self.below(len(pool), *key, j). The key prefix
        is hashed once: raw(*key, j, retry) is splitmix64(splitmix64(raw(*key)
        ^ j) ^ retry).
        """
        if size > len(population):
            raise DomainError("sample larger than population")
        if size < 0:
            raise DomainError(f"sample size must be non-negative, got {size}")
        prefix = self.raw(*key)
        pool = list(population)
        return [pool.pop(_below(len(pool), splitmix64(prefix ^ j))) for j in range(size)]


def _below(bound: int, h: int) -> int:
    """The rejection draw of CounterRng.below from h, the hash of its key:
    the first splitmix64(h ^ retry), retry = 0, 1, ..., below the largest
    multiple of bound that is at most 2^64, reduced mod bound."""
    if bound <= 0:
        raise DomainError("below() needs a positive bound")
    if bound > 1 << 64:
        raise DomainError(f"below() needs a bound of at most 2^64, got {bound}")
    limit = (1 << 64) - (1 << 64) % bound
    retry = 0
    while (v := splitmix64(h ^ retry)) >= limit:
        retry += 1
    return v % bound


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
    """Yield each k-subset of range(n) kept with probability p, in lex order.

    The index-th subset is kept iff rng.bernoulli(p, tag, index). The flags
    come from rng.bernoulli_flags, a block of lanes at a time, and
    itertools.compress picks the kept subsets out of the lex enumeration.
    """
    yield from compress(combinations(range(n), k), rng.bernoulli_flags(p, comb(n, k), tag))


def random_hypergraph(n: int, k: int, p: Fraction, seed: int) -> Hypergraph:
    """Seeded Erdos-Renyi style k-graph: every k-set kept with probability p.

    The kept k-sets come in lex order, so the trusted constructor takes them;
    it checks n and k before it draws the first one.
    """
    if k < 1:
        raise DomainError(f"need k >= 1, got k={k}")
    p = Fraction(p)  # read as pipeline._round1_domain reads it: a float is its exact binary value
    if not 0 <= p <= 1:
        raise DomainError(f"p must lie in [0, 1], got {p}")
    rng = CounterRng(seed)
    return Hypergraph._canonical(n, k, bernoulli_subsets(n, k, p, rng, TAG_EDGE_SAMPLE))
