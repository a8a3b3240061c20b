"""The +/-1 doubling-substitution word and its exponential sums.

The weight sequence v has v_l = (-1)**popcount(l); equivalently the word
at level n+1 is the level-n word followed by its negation.  That
recursion factors the exponential sum

    g_n(k) = sum_{l=0}^{2**n - 1} v_l exp(-2 pi i k l)

as g_{n+1}(k) = (1 - exp(-2 pi i k 2**n)) g_n(k) with g_0 = 1, which ties
|g_n|**2 to the Riesz partial product: |g_n(k)|**2 = 2**n f_n(k).

``exp_sum_direct`` is the brute-force oracle (term-by-term, compensated
summation, exact phases); ``exp_sum_recursive`` is the O(n) product.
Both accept floats (treated as the exact dyadic rationals they are),
Fractions, WaveNumbers, and digit streams — phases always come from
exact fractional parts, never from repeatedly squaring a floating-point
phase.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache

import numpy as np

from .streams import DigitStream
from .wavenumber import BLOCK, WaveNumberLike, as_wave_number, frac_levels

#: direct summation walks 2**n terms; 24 keeps the oracle desk-scale (16M terms)
MAX_LEVEL = 24


@lru_cache(maxsize=8)
def _signs(n: int) -> np.ndarray:
    if n == 0:
        v = np.ones(1, dtype=np.int8)
    else:
        prev = _signs(n - 1)
        v = np.concatenate([prev, -prev])
    v.setflags(write=False)
    return v


def tm_word(n: int) -> np.ndarray:
    """Level-n word of 2**n weights in {+1, -1}; symbol l is (-1)**popcount(l).

    The int8 array is cached and read-only: every call for n returns the same one.
    """
    if not 0 <= n <= MAX_LEVEL:
        raise ValueError(f"level must be in 0..{MAX_LEVEL}, got {n}")
    return _signs(n)


def _direct_fracs(m: int, den: int, count: int) -> np.ndarray:
    """x_l = frac(l * m / den) for l = 0..count-1, each rounded once.

    l * m mod den is exact: int64 while den < 2**53 and den * count < 2**62, else Python ints.
    """
    step = m % den
    fast = den < 2**53 and den * count < 2**62
    xs = np.empty(count)
    for start in range(0, count, BLOCK):
        ell = np.arange(start, min(start + BLOCK, count), dtype=np.int64 if fast else object)
        xs[start:start + len(ell)] = ell * step % den / den
    return xs


def _as_exact_fraction(k: WaveNumberLike, n: int) -> tuple[int, int]:
    """Numerator/denominator for the direct sum's phase arithmetic.

    Digit streams are truncated to 64 + n digits, so every phase of the
    level-n sum is within 2**-64 of the stream's true one.
    """
    if isinstance(k, DigitStream):
        width = 64 + n
        return k.window_int(0, width), 1 << width
    wn = as_wave_number(k)
    return wn.m, wn.denominator


def exp_sum_direct(n: int, k: WaveNumberLike) -> complex:
    """g_n(k) by explicit summation of 2**n terms.

    Phases use exact modular arithmetic on the numerator; the real and
    imaginary parts are reduced with math.fsum, so rounding does not grow
    with the term count.
    """
    if not 0 <= n <= MAX_LEVEL:
        raise ValueError(f"level must be in 0..{MAX_LEVEL}, got {n}")
    signs = _signs(n)
    m, den = _as_exact_fraction(k, n)
    x = _direct_fracs(m, den, 1 << n)
    phases = np.exp(-2j * np.pi * x)
    re = math.fsum(signs * phases.real)
    im = math.fsum(signs * phases.imag)
    return complex(re, im)


def exp_sum_recursive(n: int, k: WaveNumberLike) -> complex:
    """g_n(k) via the doubling recursion: product of (1 - exp(-2 pi i x_l)).

    Each factor is assembled from sin/cos at the exact distance of x_l to
    the nearest integer, so its magnitude 2 sin(pi x_l) matches the Riesz
    factor bit-for-bit even when x_l is very close to an integer.  Dyadic k
    gives 0j; a product that leaves the float range either way raises ValueError.
    """
    if n < 0:
        raise ValueError(f"level must be non-negative, got {n}")
    g = complex(1.0, 0.0)
    for block in frac_levels(k, n).blocks():
        if block.is_zero.any():
            g = complex(0.0, 0.0)
            break
        s = np.sin(np.pi * block.half_dist)
        c = np.cos(np.pi * block.half_dist)
        c[block.value > 0.5] *= -1.0
        # 1 - exp(-2 pi i x) = 2 sin(pi x) * (sin(pi x) + i cos(pi x))
        with np.errstate(over="ignore", invalid="ignore"):
            g *= complex(np.prod((2.0 * s) * (s + 1j * c)))
        if not (math.isfinite(g.real) and math.isfinite(g.imag)):
            raise ValueError(f"g_n(k) for n = {n} leaves the float range: a partial "
                             f"product passes {sys.float_info.max:.4g}")
        if g == 0:              # no factor is 0, so a product underflowed
            raise ValueError(f"g_n(k) for n = {n} leaves the float range: a partial "
                             f"product falls below {math.ulp(0.0):.4g}")
    return g
