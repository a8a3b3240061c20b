"""Canonical rational wave numbers and exact fractional-part ladders.

Every rational in [0, 1) factors uniquely as m / (2**r * q) with q odd,
gcd(m, q) = 1 and m odd whenever r > 0.  The odd part q controls the
asymptotics of the doubling sequence frac(2**l * k): after r initial
levels the numerators cycle through the doubling orbit of m mod q.
Dyadic numbers (q = 1) reach 0 exactly at level r and stay there — these
are the extinction points, read off the canonical form.

``frac_levels`` is the one place fractional parts are produced for the
rest of the package.  It gives, per level, both the value frac(2**l k)
and its exact distance to the nearest integer, so downstream
trigonometry never suffers cancellation near 0 or 1.  Consumers read the
levels as blocks of numpy arrays (``FracLevels.blocks``); iterating
gives the same levels one ``FracLevel`` at a time.  Rational inputs
(including floats, which are exact dyadic rationals, and
``rational-periodic`` digit streams) use exact integer arithmetic: the r
pre-periodic numerators, then the doubling cycle of m mod q from
``numtheory``'s one kernel, read no further than the levels asked for
(at most MAX_ORBIT_LENGTH residues) and tiled, each numerator divided
once by ``numtheory.exact_quotients``; ``riesz`` sums the head and one
period (``rational_period``).  Digit streams read a
64-digit window per level, all windows of a block at once as ``uint64``
integers, refined to 128 digits and flagged when the value sits within
2**-20 of an integer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Union

import numpy as np

from .numtheory import _doubling_cycle, exact_quotients
from .streams import DigitStream

#: digits a stream level reads (one uint64 per level)
WINDOW = 64
#: a stream level within 2**-_NEAR_BITS of an integer is re-read from a doubled window
_NEAR_BITS = 20
#: levels per block of the array kernel
BLOCK = 1 << 14
#: most levels of a digit stream one call walks; its digit cache then holds 64 MB
MAX_STREAM_LEVELS = 2**26


@dataclass(frozen=True)
class WaveNumber:
    """k = m / (2**r * q) reduced mod 1, with q odd and gcd(m, q) = 1."""

    m: int
    r: int
    q: int

    def __post_init__(self):
        if self.q < 1 or self.q % 2 == 0:
            raise ValueError(f"q must be odd and positive, got {self.q}")
        if self.r < 0:
            raise ValueError(f"r must be non-negative, got {self.r}")
        if not 0 <= self.m < (1 << self.r) * self.q:
            raise ValueError("m must satisfy 0 <= m < 2**r * q")
        if math.gcd(self.m, self.q) != 1:
            raise ValueError("m and q must be coprime")
        if self.r > 0 and self.m % 2 == 0:
            raise ValueError("m must be odd when r > 0")

    @classmethod
    def from_fraction(cls, num: int, den: int) -> "WaveNumber":
        """Canonicalise num/den: reduce, drop the integer part, split off 2**r."""
        if den == 0:
            raise ValueError("denominator must be non-zero")
        k = Fraction(num, den) % 1
        # 2**r is the lowest set bit of the reduced denominator
        r = (k.denominator & -k.denominator).bit_length() - 1
        return cls(m=k.numerator, r=r, q=k.denominator >> r)

    @classmethod
    def parse(cls, text: str) -> "WaveNumber":
        """Parse 'p/Q' (or a bare integer) into canonical form."""
        s = text.strip()
        try:
            if "/" in s:
                p_str, q_str = s.split("/")
                return cls.from_fraction(int(p_str), int(q_str))
            return cls.from_fraction(int(s), 1)
        except ValueError as exc:
            raise ValueError(f"not a valid rational wave number: {text!r}") from exc

    @property
    def is_dyadic(self) -> bool:
        return self.q == 1

    @property
    def denominator(self) -> int:
        return (1 << self.r) * self.q

    def value(self) -> Fraction:
        return Fraction(self.m, self.denominator)

    def with_extra_dyadic_power(self, extra_r: int) -> "WaveNumber":
        """The wave number m / (2**(r+extra_r) * q)."""
        if extra_r < 0:
            raise ValueError("extra_r must be non-negative")
        return WaveNumber.from_fraction(self.m, self.denominator << extra_r)

    def __str__(self) -> str:
        return str(self.value())


RationalLike = Union[WaveNumber, Fraction, int, float, tuple, str]
WaveNumberLike = Union[RationalLike, DigitStream]


def as_wave_number(k: RationalLike) -> WaveNumber:
    """Coerce to canonical form.

    Floats are converted exactly via their integer ratio: a float *is* a
    dyadic rational, so e.g. 0.1371 canonicalises with q = 1 and a large
    r rather than pretending to be 1371/10000.
    """
    if isinstance(k, WaveNumber):
        return k
    if isinstance(k, float) and not math.isfinite(k):
        raise ValueError(f"wave number must be finite, got {k}")
    if isinstance(k, (Fraction, int, float)):
        return WaveNumber.from_fraction(*Fraction(k).as_integer_ratio())
    if isinstance(k, tuple) and len(k) == 2:
        return WaveNumber.from_fraction(int(k[0]), int(k[1]))
    if isinstance(k, str):
        return WaveNumber.parse(k)
    raise TypeError(f"cannot interpret {type(k).__name__} as a wave number")


@dataclass(frozen=True, slots=True)
class FracLevel:
    """frac(2**l * k) for one level l.

    ``value`` is the fractional part in [0, 1); ``half_dist`` its exact
    distance to the nearest integer, in [0, 1/2].  ``is_zero`` is set only
    when the fractional part is exactly zero (read off the canonical form,
    rational inputs only).  ``refined`` marks stream samples
    that fell within 2**-20 of an integer and were re-read with a doubled
    window.
    """

    value: float
    half_dist: float
    is_zero: bool
    refined: bool


@dataclass(frozen=True, slots=True)
class LevelBlock:
    """Levels start, start+1, ... as parallel arrays with FracLevel's fields."""

    start: int
    value: np.ndarray
    half_dist: np.ndarray
    is_zero: np.ndarray
    refined: np.ndarray


class FracLevels:
    """The levels of one wave number, as array blocks or as FracLevel objects.

    ``blocks()`` yields LevelBlocks of at most BLOCK levels, in order;
    iterating yields one FracLevel per level.  Each pass starts again at
    level 0 (stream digits are cached, so a second pass reads no new
    digits).
    """

    def __init__(self, blocks: Callable[[], Iterator[LevelBlock]]):
        self._blocks = blocks

    def blocks(self) -> Iterator[LevelBlock]:
        return self._blocks()

    def __iter__(self) -> Iterator[FracLevel]:
        for b in self.blocks():
            for fields in zip(b.value.tolist(), b.half_dist.tolist(),
                              b.is_zero.tolist(), b.refined.tolist()):
                yield FracLevel(*fields)


def frac_levels(k: WaveNumberLike, count: int, window: int = WINDOW) -> FracLevels:
    """The levels l = 0, 1, ..., count - 1 of k.

    Rational inputs, and digit streams of kind ``rational-periodic`` (whose
    ``num``/``den`` make them rationals), take the exact path: the head and
    cycle of ``rational_period``, tiled.  Other streams read ``window``-digit
    windows (32 to 64 digits), built as ``uint64`` integers, for at most
    MAX_STREAM_LEVELS levels, checked before any digit is drawn.
    """
    if isinstance(k, DigitStream) and not 32 <= window <= 64:
        raise ValueError(f"window must be 32 to 64 digits, got {window}")
    wn = as_rational(k)
    if wn is None:
        if count > MAX_STREAM_LEVELS:
            raise ValueError(f"{count} levels of a digit stream exceed "
                             f"MAX_STREAM_LEVELS = {MAX_STREAM_LEVELS}")
        return FracLevels(lambda: (_stream_block(k, start, stop, window)
                                   for start, stop in _spans(count)))
    return FracLevels(lambda: rational_blocks(wn, *rational_period(wn, count), count))


def as_rational(k: WaveNumberLike) -> WaveNumber | None:
    """The canonical form of a rational or ``rational-periodic`` k; None for other digit streams."""
    if isinstance(k, DigitStream):
        if k.kind != "rational-periodic":
            return None
        k = Fraction(k.params["num"], k.params["den"])
    return as_wave_number(k)


def _spans(count: int) -> Iterator[tuple[int, int]]:
    """Consecutive level ranges [start, stop) of at most BLOCK levels, up to ``count``."""
    return ((start, min(start + BLOCK, count)) for start in range(0, count, BLOCK))


def rational_period(wn: WaveNumber, count: int) -> tuple[list[int], np.ndarray]:
    """The numerators over 2**r q of levels 0 .. r - 1 of m / (2**r q), and the cycle of m mod q.

    From level r on the numerator over 2**r q is 2**r times a residue of
    the cycle, so level r + j is that cycle's residue j mod its length over
    q.  The cycle is read no further than the levels below ``count`` need,
    at least one residue; more than ``numtheory.MAX_ORBIT_LENGTH`` residues
    of a cycle that has not closed by then raise ValueError.  r is capped
    at ``count``.
    """
    den, r = wn.denominator, min(wn.r, count)
    head = [(wn.m << level) % den for level in range(r)]
    return head, _doubling_cycle(wn.m, wn.q, max(count - r, 1))


def rational_blocks(wn: WaveNumber, head: list[int], cycle: np.ndarray,
                    count: int) -> Iterator[LevelBlock]:
    """Levels 0 .. count - 1 of m / (2**r q) from ``rational_period``: head, then cycle tiled.

    A level is exactly 0 iff q = 1 and l >= r: for l < r, 2**r q never
    divides m 2**l, as m is odd and coprime to q.
    """
    den, r = wn.denominator, len(head)
    for start, stop in _spans(count):
        levels = np.arange(start, stop)
        periodic = levels >= r
        columns = zip(exact_quotients(head[start:stop], den),
                      exact_quotients(cycle[(levels[periodic] - r) % len(cycle)], wn.q))
        yield LevelBlock(start, *map(np.concatenate, columns), periodic & wn.is_dyadic,
                         np.zeros(stop - start, dtype=bool))


def _windows64(bits: np.ndarray, m: int, width: int) -> np.ndarray:
    """uint64 array whose entry i packs bits[i : i + width] big-endian (width <= 64)."""
    x = np.zeros(m + 63, dtype=np.uint64)   # zero digits past the end fall off below
    x[:len(bits)] = bits
    span = 1
    while span < 64:
        # entry i held bits[i : i + span]; now it holds bits[i : i + 2 * span]
        x = (x[:-span] << span) | x[span:]
        span *= 2
    return x >> (64 - width)


def _stream_block(stream: DigitStream, start: int, stop: int,
                  window: int) -> LevelBlock:
    """Levels start .. stop-1 of a stream from window-digit reads.

    Level n reads digits n+1 .. n+window; a level within 2**-20 of an
    integer is read again from 2*window digits, so the block draws digits
    up to stop-1+window, plus 2*window past a refined level.
    """
    m = stop - start
    near = 1 << (window - _NEAR_BITS)
    mask = (1 << window) - 1
    bits = np.frombuffer(stream.digits(start, stop - 1 + window), dtype=np.uint8)
    d = _windows64(bits, m, window)
    refined = (d < near) | (d > mask - near)
    scale = 2.0 ** -window
    value = d * scale
    half = np.minimum(d, mask - d + 1) * scale
    again = np.flatnonzero(refined)
    value[again], wide_half = exact_quotients(
        [stream.window_int(start + i, 2 * window) for i in again.tolist()], 1 << 2 * window)
    # a wide window of all 0s only bounds the distance below: clamped to half that, not 0
    half[again] = np.maximum(wide_half, 2.0 ** (-2 * window - 1))
    return LevelBlock(start, value, half, np.zeros(m, dtype=bool), refined)
