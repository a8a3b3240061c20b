"""The array level kernel against a scalar reference in exact Fractions."""

import itertools
import math
import random
import re
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from tmscaling import numtheory, wavenumber
from tmscaling.riesz import trace
from tmscaling.streams import DigitStream, flipped, random_bits, rational_periodic
from tmscaling.wavenumber import FracLevel, WaveNumber, as_wave_number, frac_levels

SETTINGS = settings(max_examples=40, deadline=None)


def reference_rational(k: Fraction, count: int) -> list[tuple]:
    out = []
    for level in range(count):
        x = (k * 2 ** level) % 1
        out.append((float(x), float(min(x, 1 - x)), x == 0, False))
    return out


def reference_stream(digits: list[int], count: int, window: int) -> list[tuple]:
    """Level n reads digits n+1 .. n+window; within 2**-20 of an integer, 2*window."""
    def read(n, width):
        return Fraction(int("".join(map(str, digits[n:n + width])), 2), 2 ** width)

    near = Fraction(1, 2 ** 20)
    ulp = Fraction(1, 2 ** window)
    out = []
    for n in range(count):
        x = read(n, window)
        refined = x < near or 1 - ulp - x < near
        if refined:
            x = read(n, 2 * window)
        half = min(x, 1 - x) or Fraction(1, 2 ** (2 * window + 1))
        out.append((float(x), float(half), False, refined))
    return out


def small_blocks(size):
    """Run the kernel with blocks of at most ``size`` levels."""
    return mock.patch.object(wavenumber, "BLOCK", size)


def kernel(k, count, window=64, size=None) -> list[tuple]:
    with small_blocks(size or wavenumber.BLOCK):
        levels = frac_levels(k, count, window=window)
        blocks = list(levels.blocks())
        lengths = [len(b.value) for b in blocks]
        assert [b.start for b in blocks] == list(itertools.accumulate(lengths, initial=0))[:-1]
        assert 0 not in lengths and all(n <= wavenumber.BLOCK for n in lengths)
        out = [row for b in blocks for row in zip(b.value.tolist(), b.half_dist.tolist(),
                                                   b.is_zero.tolist(), b.refined.tolist())]
        assert [FracLevel(*row) for row in out] == list(levels)
    return out


@SETTINGS
@given(num=st.integers(-10 ** 9, 10 ** 9), den=st.integers(1, 2 ** 70),
       r=st.integers(0, 70), count=st.integers(0, 300), size=st.integers(1, 64))
def test_rational_blocks_match_exact_fractions(num, den, r, count, size):
    k = Fraction(num, den << r)
    assert kernel(k, count, size=size) == reference_rational(k % 1, count)


@SETTINGS
@given(num=st.integers(0, 10 ** 6), den=st.integers(1, 10 ** 6), count=st.integers(0, 200))
def test_rational_stream_takes_the_exact_path(num, den, count):
    want = reference_rational(Fraction(num, den) % 1, count)
    assert kernel(rational_periodic(num, den), count, size=17) == want

    def undrawn():
        raise AssertionError("digits drawn from a rational-periodic stream")
        yield

    params = rational_periodic(num, den).params
    assert kernel(DigitStream(undrawn(), "rational-periodic", params), count) == want


def runs_of_digits(seed: int, n: int) -> list[int]:
    """Digits in runs of 1 to 3 or of 44 to 140 equal digits."""
    rng = random.Random(seed)
    out = []
    while len(out) < n:
        out.extend([rng.getrandbits(1)] * rng.choice([1, 2, 3, 44, 60, 140]))
    return out[:n]


@SETTINGS
@given(seed=st.integers(0, 10 ** 6), window=st.sampled_from([32, 40, 48, 63, 64]),
       count=st.integers(1, 250), size=st.integers(1, 70))
def test_stream_blocks_match_exact_windows(seed, window, count, size):
    digits = runs_of_digits(seed, count + 2 * window)
    stream = DigitStream(iter(digits), "runs", {})
    assert kernel(stream, count, window, size) == reference_stream(digits, count, window)


@pytest.mark.parametrize("window", [31, 65])
def test_stream_windows_outside_32_to_64_digits_are_rejected(window):
    with pytest.raises(ValueError, match="window must be 32 to 64 digits"):
        frac_levels(random_bits(0), 8, window=window)


def test_refinement_threshold_edges():
    window, near = 64, 2 ** 44
    tail = runs_of_digits(5, 2 * window)
    for d in (0, near - 1, near, 2 ** 64 - 1 - near, 2 ** 64 - near, 2 ** 64 - 1):
        digits = [int(b) for b in format(d, "064b")] + tail
        got = kernel(DigitStream(iter(digits), "edge", {}), 1, window)
        assert got == reference_stream(digits, 1, window)
        assert got[0][3] == (d < near or 2 ** 64 - 1 - d < near)


def test_refined_levels_and_count_across_a_block_edge():
    digits = runs_of_digits(0, 40)
    digits[40:] = [0] * 60 + runs_of_digits(1, 300)
    window, count, size = 64, 256, 50
    stream = DigitStream(iter(digits), "runs", {})
    got = kernel(stream, count, window, size)
    want = reference_stream(digits, count, window)
    assert got == want
    refined = [n for n, row in enumerate(got) if row[3]]
    assert min(refined) < size <= max(refined)
    tr = trace(DigitStream(iter(digits), "runs", {}), count)
    assert tr.quality == {"window": window, "near_singular_refined": len(refined)}


def test_streams_draw_at_most_count_plus_two_windows():
    for count, window in ((1, 64), (1000, 64), (777, 40), (300, 48)):
        drawn = 0

        def source():
            nonlocal drawn
            for j, b in enumerate(itertools.chain([0] * 100, itertools.cycle([1, 0])), 1):
                drawn = j
                yield b

        with small_blocks(64):
            for _ in frac_levels(DigitStream(source(), "counted", {}), count, window).blocks():
                pass
        assert count - 1 + window <= drawn <= count + 2 * window


def test_long_periods_are_tiled_and_dyadics_go_extinct():
    k = Fraction(5, 3 * 2 ** 7 * 1000003)
    assert kernel(k, 3000, size=1000) == reference_rational(k, 3000)
    got = kernel(Fraction(3, 8), 70000)
    assert [row[2] for row in got[:5]] == [False, False, False, True, True]
    assert all(row[2] for row in got[3:])


def test_composite_stream_blocks_do_not_depend_on_block_size():
    def make():
        return flipped(random_bits(3))
    whole = kernel(make(), 5000)
    assert kernel(make(), 5000, size=333) == whole
    digits = make().prefix(5000 + 128)
    assert whole[:300] == reference_stream(digits, 300, 64)


def test_unbounded_levels_read_a_finite_iterator_lazily():
    window = 64
    digits = runs_of_digits(2, 300)
    want = reference_stream(digits, 100, window)
    for make in (iter, list):
        stream = DigitStream(make(digits), "finite", {})
        first = next(iter(frac_levels(stream, 100, window=window)))
        assert FracLevel(*want[0]) == first
        stream = DigitStream(make(digits), "finite", {})
        got = list(itertools.islice(frac_levels(stream, 100, window=window), 100))
        assert got == [FracLevel(*row) for row in want[:100]]


def binary_digits(k: Fraction):
    """The binary digits of k in [0, 1), one at a time, from a plain iterator."""
    while True:
        k *= 2
        yield int(k >= 1)
        k %= 1


@SETTINGS
@given(m=st.integers(1, 10 ** 6), r=st.integers(0, 40),
       q=st.integers(0, 2 ** 40).map(lambda i: 2 * i + 1), count=st.integers(1, 400))
def test_exact_ladder_agrees_with_the_window_kernel(m, r, q, count):
    k = Fraction(m, 2 ** r * q) % 1
    exact = kernel(k, count)
    windows = kernel(DigitStream(binary_digits(k), "digits", {}), count)
    assert len(windows) == len(exact) == count
    for (value, half, _, _), (w_value, w_half, _, _) in zip(exact, windows):
        assert abs(w_value - value) <= 1e-12 and abs(w_half - half) <= 1e-12


def test_a_ladder_longer_than_the_orbit_budget_raises(monkeypatch):
    # the orbit of 1 mod 2**8 + 1 has 16 residues; 3 pre-periodic levels come first
    monkeypatch.setattr(numtheory, "MAX_ORBIT_LENGTH", 7)
    k = Fraction(1, 8 * 257)
    assert kernel(k, 10) == reference_rational(k, 10)
    with pytest.raises(ValueError, match="MAX_ORBIT_LENGTH = 7"):
        kernel(k, 11)
    with pytest.raises(ValueError, match="MAX_ORBIT_LENGTH = 7"):
        trace(rational_periodic(1, 8 * 257), 100)
    k = Fraction(1, 8 * 127)   # a closed orbit of 7 residues is tiled as far as wanted
    assert kernel(k, 1000) == reference_rational(k, 1000)


def test_stream_levels_above_the_budget_raise_before_any_digit(monkeypatch):
    monkeypatch.setattr(wavenumber, "MAX_STREAM_LEVELS", 100)
    drawn = []
    stream = DigitStream(lambda start, n: drawn.append(n) or bytes(n), "digits", {})
    with pytest.raises(ValueError, match="MAX_STREAM_LEVELS = 100"):
        frac_levels(stream, 101)
    assert drawn == []
    assert len(kernel(stream, 100)) == 100
    # rationals, rational-periodic streams included, walk levels without a stream budget
    assert len(kernel(rational_periodic(1, 3), 1000)) == 1000
    assert len(kernel(Fraction(1, 3), 1000)) == 1000


def halving_canonical(num: int, den: int) -> tuple[int, int, int]:
    """(m, r, q) the long way: fix the sign, reduce mod 1 and by the gcd, halve den."""
    if den < 0:
        num, den = -num, -den
    num %= den
    g = math.gcd(num, den)
    num, den = num // g, den // g
    r = 0
    while den % 2 == 0:
        den //= 2
        r += 1
    return num, r, den


def fields(wn: WaveNumber) -> tuple[int, int, int]:
    return wn.m, wn.r, wn.q


@SETTINGS
@given(num=st.integers(-2 ** 80, 2 ** 80), den=st.integers(-2 ** 80, 2 ** 80).filter(bool),
       r=st.integers(0, 200))
def test_from_fraction_matches_the_halving_loop(num, den, r):
    wn = WaveNumber.from_fraction(num, den << r)
    assert fields(wn) == halving_canonical(num, den << r)
    value = Fraction(num, den << r) % 1
    assert str(wn) == (f"{value.numerator}/{value.denominator}" if value.denominator > 1
                       else str(value.numerator))


@pytest.mark.parametrize("r", [0, 1, 52, 53, 64, 1000, 10_000])
def test_from_fraction_splits_off_long_dyadic_powers(r):
    den = 3 << r
    for num in (1, -1, 5, 6, -(den + 5), 2 ** (r + 3) + 1, den):
        for sign in (1, -1):
            assert fields(WaveNumber.from_fraction(num, sign * den)) == \
                halving_canonical(num, sign * den)


def test_from_fraction_rejects_a_zero_denominator():
    with pytest.raises(ValueError, match="denominator must be non-zero"):
        WaveNumber.from_fraction(1, 0)


@SETTINGS
@given(x=st.floats(-1e300, 1e300, allow_subnormal=True))
def test_floats_ints_and_fractions_share_one_route(x):
    wn = as_wave_number(x)
    assert fields(wn) == halving_canonical(*x.as_integer_ratio())
    assert as_wave_number(Fraction(x)) == wn
    assert as_wave_number(math.floor(x)) == WaveNumber(0, 0, 1)


@pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan")])
def test_non_finite_floats_are_rejected(bad):
    with pytest.raises(ValueError, match="must be finite"):
        as_wave_number(bad)


def test_other_types_are_rejected():
    with pytest.raises(TypeError, match="cannot interpret list"):
        as_wave_number([1, 3])


@SETTINGS
@given(m=st.integers(-2 ** 40, 2 ** 40), r=st.integers(0, 40),
       q=st.sampled_from([1, 1, 1, 3, 5, 9, 2 ** 31 - 1]), count=st.integers(1, 120),
       size=st.integers(1, 64), stream=st.booleans())
def test_rational_levels_are_zero_exactly_where_the_fraction_is(m, r, q, count, size, stream):
    # dyadic k (q = 1) go extinct at level r; rational-periodic streams take the same path
    k = Fraction(m, q << r)
    source = rational_periodic(m, q << r) if stream else k
    with small_blocks(size):
        zero = [z for b in frac_levels(source, count).blocks() for z in b.is_zero.tolist()]
    assert zero == [Fraction(2 ** level * k) % 1 == 0 for level in range(count)]


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: WaveNumber(m=1, r=-1, q=1), "r must be non-negative, got -1",
                 id="negative-r"),
    pytest.param(lambda: WaveNumber(m=7, r=0, q=3), "m must satisfy 0 <= m < 2**r * q",
                 id="m-out-of-range"),
    pytest.param(lambda: WaveNumber.parse("1/3").with_extra_dyadic_power(-1),
                 "extra_r must be non-negative", id="negative-extra-r"),
])
def test_fields_outside_the_domain_are_refused(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()
