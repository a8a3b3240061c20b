"""Lazy binary digit streams with memoised prefixes.

A stream represents a number k in [0, 1) through its binary expansion
0.b1 b2 b3 ...; digit j carries weight 2**-j.  Digits are cached on first
read in a growing ``bytearray``, one byte (0 or 1) per digit, so windowed
reads frac(2**n k) are cheap and repeatable, and ``digits`` hands out
whole stretches as bytes (``np.frombuffer`` turns them into a ``uint8``
array without a loop).

A stream's source is either a block source ``fill(start, n)``, returning
digits start+1 .. start+n as bytes (the constructors below generate their
digits this way, a block at a time, with big-integer and bytes
operations), or an iterable of digits such as an ``Iterator[int]`` or a
list.  Sources are only ever asked for the digits a read needs, in
order, so an iterator is never drawn ahead of the highest position read.  Streams are single-consumer
(the cache is not locked); independent streams can be used in parallel.
"""

from __future__ import annotations

import itertools
import random
from typing import Callable, Iterable, Iterator, Union

#: digits a source is asked for at most per call
_MAX_FILL = 1 << 16
#: byte -> its top bit
_TOP_BIT = bytes(b >> 7 for b in range(256))
#: ASCII '0'/'1' <-> digit bytes 0/1
_FROM_ASCII = bytes.maketrans(b"01", b"\x00\x01")
_TO_ASCII = bytes.maketrans(b"\x00\x01", b"01")

BlockSource = Callable[[int, int], bytes]


class DigitStream:
    """Lazy binary expansion with random access via a growing byte cache."""

    def __init__(self, source: Union[BlockSource, Iterable[int]], kind: str,
                 params: dict, label_text: str | None = None):
        if callable(source):
            self._fill = source
        else:
            digits = iter(source)
            self._fill = lambda start, n: bytes(itertools.islice(digits, n))
        self._buf = bytearray()
        self.kind = kind
        self.params = dict(params)
        self._label = label_text

    def _ensure(self, count: int) -> None:
        """Make digits 1 .. count available in the cache."""
        while len(self._buf) < count:
            n = min(count - len(self._buf), _MAX_FILL)
            block = self._fill(len(self._buf), n)
            if len(block) != n:
                raise ValueError(f"digit source ended after {len(self._buf) + len(block)} "
                                 f"digits; {count} were needed")
            self._buf += block

    def digit(self, j: int) -> int:
        """Digit b_j (0 or 1), 1-indexed."""
        if j < 1:
            raise ValueError(f"digit positions are 1-indexed, got {j}")
        self._ensure(j)
        return self._buf[j - 1]

    def digits(self, start: int, stop: int) -> bytes:
        """Digits start+1 .. stop, one byte (0 or 1) each."""
        self._ensure(stop)
        return bytes(self._buf[start:stop])

    def prefix(self, count: int) -> list[int]:
        """First ``count`` digits as a list."""
        if count > 0:
            self._ensure(count)
        return list(self._buf[:count])

    def window_int(self, shift: int, width: int) -> int:
        """Digits shift+1 .. shift+width packed big-endian into an integer."""
        return int(b"0" + self.digits(shift, shift + width).translate(_TO_ASCII), 2)

    def description(self) -> dict:
        """Reproducibility record: construction kind and all parameters."""
        return {"kind": self.kind, **self.params}

    def label(self) -> str:
        if self._label is not None:
            return self._label
        inner = ",".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        return f"{self.kind}({inner})"


def rational_periodic(num: int, den: int) -> DigitStream:
    """Exact (eventually periodic) binary expansion of frac(num/den).

    A block of n digits is one integer step: (rem << n) // den, whose n
    bits are the next n digits, and (rem << n) % den the remainder after
    them.
    """
    if den <= 0:
        raise ValueError(f"denominator must be positive, got {den}")
    rem = num % den

    def fill(start: int, n: int) -> bytes:
        nonlocal rem
        block, rem = divmod(rem << n, den)
        return format(block, f"0{n}b").encode("ascii").translate(_FROM_ASCII)

    return DigitStream(fill, "rational-periodic", {"num": num % den, "den": den},
                       label_text=f"rational-periodic({num % den}/{den})")


def random_bits(seed: int) -> DigitStream:
    """Fair-coin digits from a seeded Mersenne Twister (random.Random).

    Digit j is the top bit of the generator's j-th 32-bit output, which is
    what ``getrandbits(1)`` returns.  ``getrandbits(32 * n)`` packs n
    successive outputs little-endian, so a block of n digits is one call
    (the top bit of every fourth byte), and the digits do not depend on
    how reads are split into blocks.  The seed must be >= 0:
    ``random.Random`` seeds with the absolute value, so -N would repeat
    the digits of N.
    """
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    rng = random.Random(seed)

    def fill(start: int, n: int) -> bytes:
        return rng.getrandbits(32 * n).to_bytes(4 * n, "little")[3::4].translate(_TOP_BIT)

    return DigitStream(fill, "random-bits", {"seed": seed, "generator": "mt19937"})


class PowersOfTwo:
    """Flip-position set {2**r : r >= start_exponent}.

    The default start_exponent 1 selects positions 2, 4, 8, 16, ...;
    passing 0 additionally selects position 1.
    """

    def __init__(self, start_exponent: int = 1):
        if start_exponent < 0:
            raise ValueError("start_exponent must be >= 0")
        self.start_exponent = start_exponent

    def positions_upto(self, n: int) -> list[int]:
        return [1 << r for r in range(self.start_exponent, n.bit_length())]

    def describe(self):
        return {"rule": "powers-of-two", "start_exponent": self.start_exponent}


def flipped(base: DigitStream, positions: PowersOfTwo = PowersOfTwo(1)) -> DigitStream:
    """Stream equal to ``base`` except with digits inverted on ``positions``.

    ``positions`` is a ``PowersOfTwo`` rule; the default flips positions
    2, 4, 8, 16, ...
    """

    def fill(start: int, n: int) -> bytes:
        block = bytearray(base.digits(start, start + n))
        for j in positions.positions_upto(start + n):
            if j > start:
                block[j - start - 1] ^= 1
        return block

    params = {"base": base.description(), "flips": positions.describe()}
    label = f"flipped({base.label()},flips=powers-of-two(start={positions.start_exponent}))"
    return DigitStream(fill, "flipped", params, label_text=label)


def block_ends(growth: int) -> Iterator[int]:
    """End positions growth, growth + growth**2, ... of the blocks of ``block_mixed``."""
    if growth < 2:
        raise ValueError("growth must be >= 2")
    return itertools.accumulate(growth ** j for j in itertools.count(1))


def block_mixed(stream_a: DigitStream, stream_b: DigitStream,
                growth: int = 4) -> DigitStream:
    """Mix two expansions in alternating blocks (A first).

    Block j (1-indexed) has length growth**j and draws from stream A for
    odd j, stream B for even j; each source digit keeps its absolute
    position, so a block reproduces a verbatim stretch of its source's
    expansion.  Each block is at least as long as all previous blocks
    combined (for growth >= 2) and dominates the running averages at its
    end.
    """
    ends = block_ends(growth)
    j = 0          # block holding the last digit filled so far
    end = 0        # its last position

    def fill(start: int, n: int) -> bytes:
        nonlocal j, end
        parts = []
        pos, stop = start, start + n
        while pos < stop:
            if pos == end:
                j += 1
                end = next(ends)
            source = stream_a if j % 2 == 1 else stream_b
            take = min(stop, end)
            parts.append(source.digits(pos, take))
            pos = take
        return b"".join(parts)

    schedule = f"geometric:{growth}"
    params = {"a": stream_a.description(), "b": stream_b.description(), "schedule": schedule}
    label = (f"block-mixed(a={stream_a.label()},b={stream_b.label()},"
             f"schedule={schedule})")
    return DigitStream(fill, "block-mixed", params, label_text=label)
