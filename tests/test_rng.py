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
    closest_partition,
    complete_hypergraph,
    sample_absorbing_family,
    threshold_sweep,
)
from hypermatch.closeness import f_density_check
from hypermatch.pipeline import round1_sample
from hypermatch.stability import katona_suite, random_stable_hypergraph
from hypermatch.rng import (
    _BLOCK,
    TAG_ROUND1,
    TAG_TRIM,
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
        with pytest.raises(DomainError):
            rng.sample([1, 2], -1, 0)

    def test_below_at_the_largest_bound(self):
        # At 2^64 no draw is rejected, so the value is the first draw itself.
        rng = CounterRng(0)
        assert rng.below(1 << 64) == rng.raw(0) == 12035550249420947055
        # Above 2^64 every draw would be rejected; it must raise, not loop.
        with pytest.raises(DomainError):
            rng.below((1 << 64) + 1)

    def test_sample_equals_the_below_reference(self):
        rng = CounterRng(11)

        def reference(population, size, *key):
            pool = list(population)
            return [pool.pop(rng.below(len(pool), *key, j)) for j in range(size)]

        for length, n in product(range(4), range(1, 41)):
            key = (n, 7, 3 * n + 1)[:length]
            population = [10 * v + 1 for v in range(n)]
            for size in range(n + 1):
                assert rng.sample(population, size, *key) == reference(population, size, *key)


@given(st.integers(2, 9), st.integers(1, 4))
def test_combination_unrank_matches_lexicographic_order(n, k):
    if k > n:
        return
    ranked = [combination_unrank(n, k, r) for r in range(comb(n, k))]
    assert ranked == list(combinations(range(n), k))


@pytest.mark.parametrize("k", [-1, 0])
def test_random_hypergraph_rejects_nonpositive_uniformity(k):
    with pytest.raises(DomainError, match="k >= 1"):
        random_hypergraph(5, k, Fraction(1, 2), 3)


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


KEYED_DRAWS = {
    "raw": lambda rng, *key: rng.raw(*key),
    "below": lambda rng, *key: rng.below(10, *key),
    "sample": lambda rng, *key: rng.sample(list(range(5)), 3, *key),
}


@pytest.mark.parametrize("part", [2.5, True, "x", None])
@pytest.mark.parametrize("draw", sorted(KEYED_DRAWS))
def test_a_key_part_that_is_not_an_int_raises_domain_error(draw, part):
    # int(part) once read 2.5 as key part 2 and True as 1, so raw(2.5) == raw(2)
    # and below(10, 2.5) == below(10, 2); the seed had the same rule already.
    rng = CounterRng(1)
    for key in [(part,), (3, part), (part, 3)]:
        with pytest.raises(DomainError) as info:
            KEYED_DRAWS[draw](rng, *key)
        assert str(info.value) == f"key part must be an integer, got {part!r}"


def test_bernoulli_subsets_extremes():
    rng = CounterRng(1)
    assert list(bernoulli_subsets(5, 2, Fraction(0), rng, 1)) == []
    assert list(bernoulli_subsets(5, 2, Fraction(1), rng, 1)) == list(combinations(range(5), 2))


def test_raw_chains_splitmix_from_the_seed():
    mask = 2**64 - 1
    for seed in (0, 7, mask, 2**64 + 5):
        rng = CounterRng(seed)
        for key in [(), (3,), (1, 2, 3), (2**64 + 1, 0)]:
            h = splitmix64(seed & mask)
            for part in key:
                h = splitmix64(h ^ (part & mask))
            assert rng.raw(*key) == h


@pytest.mark.parametrize("seed", [0, 1, 901, 2**64 - 1])
@pytest.mark.parametrize(
    "p", [Fraction(0), Fraction(1, 3), Fraction(1), Fraction(1, comb(24, 4)), Fraction(5, 2), Fraction(-1, 10**9)]
)
def test_bernoulli_subsets_is_one_bernoulli_per_candidate(p, seed):
    # C(24, 4) = 10,626 candidates fill 41 blocks and part of one more;
    # C(5, 5) and C(3, 5) are the one- and zero-candidate streams.
    rng = CounterRng(seed)
    for n, k in [(9, 3), (12, 2), (10, 4), (3, 5), (5, 5), (24, 4)]:
        for tag in (1, 9):
            expected = [c for i, c in enumerate(combinations(range(n), k)) if rng.bernoulli(p, tag, i)]
            assert list(bernoulli_subsets(n, k, p, rng, tag)) == expected


@pytest.mark.parametrize(
    "p", [Fraction(-1), Fraction(-1, 10**9), Fraction(5, 2), Fraction(10**9 + 1, 10**9), 1.5, -0.25]
)
def test_random_hypergraph_rejects_p_outside_the_unit_interval(p):
    with pytest.raises(DomainError, match="p must lie in"):
        random_hypergraph(5, 2, p, 3)


@pytest.mark.parametrize("p", [0.5, 0.1, 1.0, 0, 1, "1/3"])
def test_random_hypergraph_reads_p_as_round_one_does(p):
    # A float once passed the range check and then died with AttributeError
    # on p.numerator; both generators now read p as Fraction(p).
    assert random_hypergraph(9, 3, p, 1) == random_hypergraph(9, 3, Fraction(p), 1)
    K9 = complete_hypergraph(9, 3)
    assert round1_sample(K9, 2, p, 1) == round1_sample(K9, 2, Fraction(p), 1)


def test_random_hypergraph_is_reproducible():
    a = random_hypergraph(8, 3, Fraction(1, 2), 123)
    b = random_hypergraph(8, 3, Fraction(1, 2), 123)
    c = random_hypergraph(8, 3, Fraction(1, 2), 124)
    assert a == b
    assert a != c  # overwhelmingly likely and frozen by the seed pair


# ------------------------------------------- the block kernel against scalar draws

COUNTS = [0, 1, 2, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 5]
# p at and outside the ends of [0, 1], with odd and huge denominators;
# 1/C(24, 4) is the family sampler's p on K24^(4) at rho = 1/24.
KERNEL_PS = [
    Fraction(0),
    Fraction(1),
    Fraction(1, comb(24, 4)),
    Fraction(1, 3),
    Fraction(5, 7),
    Fraction(999, 1771),
    Fraction(1, 2**53 + 1),
    Fraction(2**64 - 1, 2**64 + 13),
    Fraction(-1),
    Fraction(-1, 10**9),
    Fraction(5, 2),
    Fraction(10**9 + 1, 10**9),
]


def scalar_flags(rng, p, count, *key):
    return [int(rng.bernoulli(p, *key, i)) for i in range(count)]


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
@pytest.mark.parametrize("p", KERNEL_PS)
def test_bernoulli_flags_equal_the_scalar_draws(p, seed):
    rng = CounterRng(seed)
    for count in COUNTS:
        for key in [(1,), (TAG_ROUND1, 7), (2**64 + 3,)]:
            assert list(rng.bernoulli_flags(p, count, *key)) == scalar_flags(rng, p, count, *key)


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_bernoulli_flags_at_the_draws_own_boundary(seed):
    # Random p almost never lands next to a draw; these p sit on either side
    # of draw i's top 53 bits d, read as d / 2^53, so the keep test's rounding
    # decides the flag.
    rng = CounterRng(seed)
    for i in range(_BLOCK + 3):
        d = rng.raw(5, i) >> 11
        for p in (Fraction(d, 2**53), Fraction(2 * d + 1, 2**54), Fraction(2 * d - 1, 2**54)):
            assert list(rng.bernoulli_flags(p, i + 1, 5))[i] == rng.bernoulli(p, 5, i) == (p > Fraction(d, 2**53))


@given(
    st.integers(0, 3 * _BLOCK),
    st.integers(-3, 2**70),
    st.integers(1, 2**70),
    st.integers(0, 2**64 - 1),
    st.integers(0, 2**64 - 1),
)
def test_bernoulli_flags_equal_the_scalar_draws_at_random(count, num, den, seed, tag):
    rng = CounterRng(seed)
    p = Fraction(num, den)
    assert list(rng.bernoulli_flags(p, count, tag)) == scalar_flags(rng, p, count, tag)


def scalar_round1(H, copies, p, seed):
    """round1_sample's copies as drawn one vertex at a time."""
    rng = CounterRng(seed)
    out = []
    for i in range(copies):
        kept = [v for v in range(H.n) if rng.bernoulli(p, TAG_ROUND1, i, v)]
        for j in range(len(kept) % H.k):
            kept.pop(rng.below(len(kept), TAG_TRIM, i, j))
        out.append(tuple(kept))
    return tuple(out)


@pytest.mark.parametrize("seed", [0, 5, 2**64 - 1])
@pytest.mark.parametrize("p", [Fraction(0), Fraction(1, 4), Fraction(2, 3), Fraction(1, 2**53 + 1), Fraction(1)])
def test_round1_sample_equals_the_scalar_loop(p, seed):
    for n in [3, 30, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3]:
        H = Hypergraph(n, 3, [(0, 1, 2)])
        sample = round1_sample(H, 4, p, seed)
        copies = scalar_round1(H, 4, p, seed)
        assert sample.copies == copies
        assert sample.y_singleton == tuple(sum(v in c for c in copies) for v in range(n))


K93 = complete_hypergraph(9, 3)

# Every seeded entry point, called with the seed under test. Each builds a
# CounterRng, which refuses a seed that is not an int; int(seed) would have
# run 2.5 as seed 2 and True as seed 1.
SEEDED_CALLS = {
    "CounterRng": CounterRng,
    "random_hypergraph": lambda seed: random_hypergraph(6, 3, Fraction(1, 2), seed),
    "random_stable_hypergraph": lambda seed: random_stable_hypergraph(9, 3, seed),
    "round1_sample": lambda seed: round1_sample(K93, 2, Fraction(1, 2), seed),
    "sample_absorbing_family": lambda seed: sample_absorbing_family(
        K93, AbsorbingParameters(3, 2, 1, 2), Fraction(1, 3), seed
    ),
    "closest_partition": lambda seed: closest_partition(K93, 3, 1, seed),
    "f_density_check": lambda seed: f_density_check(K93, Fraction(1, 2), seed=seed),
    "katona_suite": lambda seed: katona_suite(1, seed),
    "threshold_sweep": lambda seed: threshold_sweep(3, 2, 9, 9, seed=seed),
}


@pytest.mark.parametrize("seed", [2.5, True, "x", None])
@pytest.mark.parametrize("call", sorted(SEEDED_CALLS))
def test_a_seed_that_is_not_an_int_raises_domain_error(call, seed):
    with pytest.raises(DomainError) as info:
        SEEDED_CALLS[call](seed)
    assert str(info.value) == f"seed must be an integer, got {seed!r}"
