from fractions import Fraction
from itertools import combinations
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hypermatch import DomainError
from hypermatch.rng import (
    CounterRng,
    bernoulli_subsets,
    combination_unrank,
    random_hypergraph,
    splitmix64,
)


def test_splitmix_reference_values():
    # Fixed points of the implementation, guarding cross-platform drift.
    assert splitmix64(0) == 0xE220A8397B1DCDAF
    assert splitmix64(1) == 0x910A2DEC89025CC1


class TestCounterRng:
    def test_same_key_same_draw(self):
        rng = CounterRng(7)
        assert rng.raw(1, 2, 3) == rng.raw(1, 2, 3)
        assert rng.raw(1, 2, 3) != rng.raw(1, 3, 2)

    def test_draws_independent_of_evaluation_order(self):
        rng = CounterRng(7)
        forward = [rng.raw(0, i) for i in range(10)]
        backward = [rng.raw(0, i) for i in reversed(range(10))]
        assert forward == list(reversed(backward))

    def test_below_bounds_and_error(self):
        rng = CounterRng(5)
        seen = {rng.below(6, i) for i in range(300)}
        assert seen == set(range(6))
        with pytest.raises(DomainError):
            rng.below(0, 1)

    def test_sample_is_without_replacement(self):
        rng = CounterRng(9)
        pop = list(range(20))
        out = rng.sample(pop, 12, 4)
        assert len(out) == len(set(out)) == 12
        assert set(out) <= set(pop)
        with pytest.raises(DomainError):
            rng.sample([1, 2], 3, 0)


@given(st.integers(2, 9), st.integers(1, 4))
def test_combination_unrank_matches_lexicographic_order(n, k):
    if k > n:
        return
    ranked = [combination_unrank(n, k, r) for r in range(comb(n, k))]
    assert ranked == list(combinations(range(n), k))


def test_combination_unrank_range_check():
    with pytest.raises(DomainError):
        combination_unrank(5, 2, comb(5, 2))


@pytest.mark.parametrize(
    "p",
    [Fraction(0), Fraction(1, 3), Fraction(3, 10), Fraction(1, 2), Fraction(2, 3), Fraction(1, 2**53 + 1), Fraction(1)],
)
def test_bernoulli_is_the_unit_comparison(p):
    # The integer comparison must give the verdict of comparing the draw's top
    # 53 bits, read as a rational in [0, 1), with p on every key.
    rng = CounterRng(11)

    def unit(*key):
        return Fraction(rng.raw(*key) >> 11, 2**53)

    assert all(rng.bernoulli(p, 4, i) == (unit(4, i) < p) for i in range(2000))


def test_bernoulli_subsets_extremes():
    rng = CounterRng(1)
    assert list(bernoulli_subsets(5, 2, Fraction(0), rng, 1)) == []
    assert list(bernoulli_subsets(5, 2, Fraction(1), rng, 1)) == list(combinations(range(5), 2))


def test_random_hypergraph_is_reproducible():
    a = random_hypergraph(8, 3, Fraction(1, 2), 123)
    b = random_hypergraph(8, 3, Fraction(1, 2), 123)
    c = random_hypergraph(8, 3, Fraction(1, 2), 124)
    assert a == b
    assert a != c  # overwhelmingly likely and frozen by the seed pair
