"""Block-filled digit streams against their per-digit definitions.

Each property reads a stream through a random pattern of windows, in
random order, so the source is asked for blocks of many sizes, and
compares every read with a reference built one digit at a time.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tmscaling.streams import (
    DigitStream,
    PowersOfTwo,
    block_mixed,
    flipped,
    random_bits,
    rational_periodic,
)

#: (offset, length) reads; digits offset+1 .. offset+length
READS = st.lists(st.tuples(st.integers(0, 1500), st.integers(1, 200)),
                 min_size=1, max_size=6)
SETTINGS = settings(max_examples=40, deadline=None)


def reference_random(seed, n):
    rng = random.Random(seed)
    return [rng.getrandbits(1) for _ in range(n)]


def reference_rational(num, den, n):
    k = Fraction(num, den)
    return [math.floor(2 ** j * k) % 2 for j in range(1, n + 1)]


def check_reads(stream, reference, reads):
    for offset, length in reads:
        want = reference[offset:offset + length]
        assert list(stream.digits(offset, offset + length)) == want
        assert stream.window_int(offset, length) == int("".join(map(str, want)), 2)
        assert stream.digit(offset + 1) == want[0]
    size = max(offset + length for offset, length in reads)
    prefix = stream.prefix(size)
    assert type(prefix) is list and all(type(b) is int for b in prefix)
    assert prefix == reference[:size]


@SETTINGS
@given(seed=st.integers(0, 2 ** 64), reads=READS)
def test_random_bits_match_getrandbits_one_at_a_time(seed, reads):
    check_reads(random_bits(seed), reference_random(seed, 1700), reads)


@pytest.mark.parametrize("seed", [-1, -(2 ** 64)])
def test_negative_seeds_are_rejected(seed):
    # random.Random seeds with abs(seed), so -N would repeat the digits of N
    with pytest.raises(ValueError, match="seed must be >= 0"):
        random_bits(seed)


@SETTINGS
@given(num=st.integers(-10 ** 6, 10 ** 6), den=st.integers(1, 2 ** 70), reads=READS)
def test_rational_digits_are_floor_2_j_k_mod_2(num, den, reads):
    check_reads(rational_periodic(num, den), reference_rational(num, den, 1700), reads)


@SETTINGS
@given(seed=st.integers(0, 1000), start=st.integers(0, 4),
       extra=st.frozensets(st.integers(1, 1700), max_size=30), reads=READS)
def test_flipped_digits_follow_the_xor_rule(seed, start, extra, reads):
    base = reference_random(seed, 1700)
    rule = PowersOfTwo(start)
    want = [b ^ (j in rule) for j, b in enumerate(base, start=1)]
    check_reads(flipped(random_bits(seed), rule), want, reads)
    want = [b ^ (j in extra) for j, b in enumerate(base, start=1)]
    check_reads(flipped(random_bits(seed), extra), want, reads)


@SETTINGS
@given(seed=st.integers(0, 1000), growth=st.integers(2, 5),
       lengths=st.lists(st.integers(1, 40), min_size=1, max_size=5), reads=READS)
def test_block_mixed_digits_follow_the_schedule(seed, growth, lengths, reads):
    a = reference_rational(1, 3, 1700)
    b = reference_random(seed, 1700)
    schedule = list(itertools.accumulate(lengths))   # strictly increasing
    for mixed, sched in ((block_mixed(rational_periodic(1, 3), random_bits(seed),
                                      growth=growth), lambda j: growth ** j),
                         (block_mixed(rational_periodic(1, 3), random_bits(seed),
                                      schedule=schedule, growth=growth),
                          lambda j: (schedule[j - 1] if j <= len(schedule)
                                     else schedule[-1] * growth ** (j - len(schedule))))):
        want, j = [], 1
        while len(want) < 1700:
            length = sched(j)
            source = a if j % 2 == 1 else b
            want.extend(source[len(want):len(want) + length])
            j += 1
        check_reads(mixed, want[:1700], reads)


def test_non_increasing_schedule_raises_only_when_reached():
    mixed = block_mixed(rational_periodic(1, 3), random_bits(0), schedule=[4, 4])
    assert mixed.prefix(4) == [0, 1, 0, 1]
    with pytest.raises(ValueError, match="strictly increasing"):
        mixed.digit(5)


def test_plain_iterator_is_not_drawn_ahead():
    drawn = 0

    def source():
        nonlocal drawn
        for j in itertools.count(1):
            drawn = j
            yield j % 2

    stream = DigitStream(source(), "counted", {})
    assert stream.window_int(3, 5) == 0b01010
    assert drawn == 8
    assert stream.prefix(3) == [1, 0, 1]
    assert drawn == 8


def test_list_source_is_read_once_in_order():
    digits = [1, 1, 0, 1, 0, 0, 0, 1, 1, 0]
    stream = DigitStream(digits, "listed", {})
    assert stream.digits(0, 3) == bytes([1, 1, 0])
    assert stream.digits(2, 10) == bytes(digits[2:])
    with pytest.raises(ValueError, match="source ended"):
        stream.digit(11)
