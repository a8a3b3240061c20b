import cmath
import math
import random
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tmscaling import tmcore
from tmscaling.tmcore import exp_sum_direct, exp_sum_recursive, tm_word


def test_word_level_0():
    assert tm_word(0).tolist() == [1]


def test_word_level_1():
    assert tm_word(1).tolist() == [1, -1]


def test_word_level_3():
    # frozen from the bit-count parity oracle
    assert tm_word(3).tolist() == [1, -1, -1, 1, -1, 1, 1, -1]


@pytest.mark.parametrize("n", range(11))
def test_word_matches_popcount_parity(n):
    word = tm_word(n)
    assert len(word) == 2 ** n
    expected = [(-1) ** bin(l).count("1") for l in range(2 ** n)]
    assert word.tolist() == expected


@pytest.mark.parametrize("n", range(1, 11))
def test_word_recursion_structure(n):
    prev = tm_word(n - 1)
    curr = tm_word(n)
    assert (curr[: 2 ** (n - 1)] == prev).all()
    assert (curr[2 ** (n - 1):] == -prev).all()


def test_word_is_read_only_and_cached():
    word = tm_word(4)
    with pytest.raises(ValueError):
        word[0] = -1
    assert tm_word(4) is word
    assert word.tolist() == [(-1) ** bin(l).count("1") for l in range(16)]


def test_word_level_cap():
    with pytest.raises(ValueError):
        tm_word(25)
    with pytest.raises(ValueError):
        tm_word(-1)


def test_direct_level_0_is_one():
    for k in (0.0, 0.37, Fraction(1, 3)):
        assert exp_sum_direct(0, k) == 1.0


def test_direct_level_1_at_zero():
    assert exp_sum_direct(1, 0) == 0.0


def test_direct_level_2_at_one_third():
    # |g_2(1/3)|^2 = 4 * (3/2)^2 = 9
    assert abs(exp_sum_direct(2, Fraction(1, 3))) ** 2 == pytest.approx(9.0, rel=1e-12)


def test_recursive_level_1_at_one_half():
    value = exp_sum_recursive(1, Fraction(1, 2))
    assert value == pytest.approx(2.0 + 0.0j, abs=1e-12)


def test_recursive_level_10_at_one_third():
    # every squared factor contributes 2 * (3/2)
    expected = 2.0 ** 10 * 1.5 ** 10
    assert abs(exp_sum_recursive(10, Fraction(1, 3))) ** 2 == pytest.approx(
        expected, rel=1e-12)


def test_direct_matches_recursive_at_float_sample():
    d = exp_sum_direct(5, 0.1371)
    r = exp_sum_recursive(5, 0.1371)
    assert abs(d - r) <= 1e-10 * abs(r)


@pytest.mark.parametrize("n", range(15))
def test_direct_vs_recursive_random_floats(n):
    rng = random.Random(9000 + n)
    for _ in range(12):
        k = rng.random()
        d = exp_sum_direct(n, k)
        r = exp_sum_recursive(n, k)
        assert abs(d - r) <= 1e-8 * 2 ** n


@given(n=st.integers(0, 12),
       k=st.one_of(st.fractions(0, 1, max_denominator=10 ** 6),
                   st.floats(0.0, 1.0, exclude_max=True)))
def test_recursive_agrees_with_direct(n, k):
    d = exp_sum_direct(n, k)
    r = exp_sum_recursive(n, k)
    assert abs(d - r) <= 1e-9 * max(1.0, abs(d))


def test_squared_recursion_identity():
    # |g_{n+1}|^2 = 2 |g_n|^2 (1 - cos(2^{n+1} pi k))
    rng = random.Random(4242)
    for _ in range(50):
        k = rng.random()
        n = rng.randrange(0, 12)
        gn = abs(exp_sum_recursive(n, k)) ** 2
        gn1 = abs(exp_sum_recursive(n + 1, k)) ** 2
        factor = 2.0 * (1.0 - math.cos(2.0 ** (n + 1) * math.pi * k))
        if gn1 == 0.0 and gn * factor < 1e-12:
            continue
        assert gn1 == pytest.approx(gn * factor, rel=1e-10)


@pytest.mark.parametrize("n", range(13))
def test_parseval_mean_square_is_2_to_n(n):
    # |g_n|^2 is a trig polynomial with frequencies below 2^n, so the
    # uniform mean over 2^{n+2} nodes equals the integral exactly
    grid = 2 ** (n + 2)
    total = math.fsum(
        abs(exp_sum_recursive(n, Fraction(j, grid))) ** 2 for j in range(grid)
    )
    assert total / grid == pytest.approx(2.0 ** n, rel=1e-11)


@pytest.mark.parametrize("n", range(7))
def test_parseval_direct_path(n):
    grid = 2 ** (n + 2)
    total = math.fsum(
        abs(exp_sum_direct(n, Fraction(j, grid))) ** 2 for j in range(grid)
    )
    assert total / grid == pytest.approx(2.0 ** n, rel=1e-11)


def test_direct_level_cap():
    with pytest.raises(ValueError):
        exp_sum_direct(25, 0.5)


def test_direct_brute_force_cross_check():
    # independent implementation: explicit cmath loop
    rng = random.Random(7)
    for _ in range(5):
        k = rng.random()
        n = rng.randrange(0, 9)
        word = tm_word(n)
        expected = sum(
            int(word[l]) * cmath.exp(-2j * math.pi * math.fmod(k * l, 1.0))
            for l in range(2 ** n)
        )
        got = exp_sum_direct(n, k)
        assert abs(got - expected) <= 1e-9 * max(1.0, abs(expected))


def test_recursive_on_stream_matches_truncated_rational():
    from tmscaling.streams import random_bits

    n = 10
    stream = random_bits(321)
    r = exp_sum_recursive(n, stream)
    truncated = Fraction(stream.window_int(0, 64 + n), 1 << (64 + n))
    d = exp_sum_direct(n, stream)
    r2 = exp_sum_recursive(n, truncated)
    assert abs(d - r) <= 1e-8 * 2 ** n
    assert abs(r2 - r) <= 1e-8 * 2 ** n


def test_magnitude_bound():
    rng = random.Random(11)
    for _ in range(20):
        k = rng.random()
        n = rng.randrange(0, 12)
        assert abs(exp_sum_recursive(n, k)) ** 2 <= 4.0 ** n * (1 + 1e-12)


def test_direct_phases_round_once_above_2_to_53():
    # an odd den >= 2**53 with den * count < 2**62: float(den) and the float of
    # the numerator each round, and their quotient rounds a third time
    m, den = 2 ** 59 + 12345, 2 ** 60 - 93
    x = tmcore._direct_fracs(m, den, 4)
    assert x[3] == float(Fraction(3 * m % den, den)) == 0.5000000000000322


@settings(max_examples=100, deadline=None)
@given(m=st.integers(0, 2 ** 80),
       den=st.one_of(st.integers(1, 2 ** 40), st.integers(2 ** 52, 2 ** 54),
                     st.integers(2 ** 58, 2 ** 62), st.integers(2 ** 62, 2 ** 80)),
       count=st.integers(0, 300), block=st.integers(1, 64))
def test_direct_phases_are_exact_fractions(m, den, count, block):
    with mock.patch.object(tmcore, "BLOCK", block):
        x = tmcore._direct_fracs(m, den, count)
    assert x.tolist() == [float(Fraction(l * m % den, den)) for l in range(count)]


@pytest.mark.parametrize("n", [-1, -64])
def test_recursive_sum_refuses_negative_levels(n):
    with pytest.raises(ValueError, match=f"level must be non-negative, got {n}"):
        exp_sum_recursive(n, "1/3")


def test_recursive_sum_past_the_float_range_raises_without_warnings():
    # |g_n(1/3)| = 3**(n/2): about 5.5e307 at n = 1290, past the largest double by n = 1300
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert abs(exp_sum_recursive(1290, "1/3")) == pytest.approx(3.0**645, rel=1e-9)
        with pytest.raises(ValueError, match="n = 1300 leaves the float range"):
            exp_sum_recursive(1300, "1/3")
