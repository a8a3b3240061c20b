"""Digit-stream experiments: equidistribution diagnostics and exponent traces.

Three families of stream-backed wave numbers are built here on top of the
generators in ``streams``:

* seeded random expansions, for which the doubling sequence is
  equidistributed and the running exponent drifts to -1 (Weyl sums and
  the running mean of log factors are reported together);
* sparse digit flips of a rational expansion (positions 2**r), which
  leave the exponent of the base rational intact because ever longer
  stretches of the two expansions agree;
* block mixtures of two expansions on a geometrically growing schedule,
  whose running exponent oscillates — recorded as liminf/limsup over the
  block-boundary checkpoints instead of a single value.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import riesz
from .riesz import RieszTrace, block_log_factors
from .streams import (DigitStream, PowersOfTwo, block_ends, block_mixed, flipped,
                      rational_periodic)
from .wavenumber import BLOCK, WINDOW, RationalLike, as_wave_number, frac_levels


def rational_stream(k: RationalLike) -> DigitStream:
    """Digit stream of a rational wave number's exact binary expansion."""
    wn = as_wave_number(k)
    return rational_periodic(wn.m, wn.denominator)


def frac_pow2(stream: DigitStream, n: int) -> float:
    """frac(2**n k) assembled from the WINDOW = 64 digits n+1 .. n+64.

    Truncation error below 2**-64; the returned float is the correctly
    rounded value of the truncated expansion, so the float mantissa is
    the binding resolution.
    """
    if n < 0:
        raise ValueError(f"shift must be non-negative, got {n}")
    return stream.window_int(n, WINDOW) / float(1 << WINDOW)


@dataclass
class WeylReport:
    """Equidistribution diagnostics for x_n = frac(2**n k), n = 0..samples-1.

    ``weyl_moduli[h-1]`` is |mean of exp(2 pi i h x_n)| for harmonic h;
    all moduli tend to 0 exactly when the sequence is equidistributed.
    Harmonic h is a power of exp(2 pi i x_n), so it carries up to about
    1e-15 * h more rounding than an exp per harmonic would.
    ``mean_log_factor`` is the running exponent after ``samples`` levels,
    which tends to -1 in the equidistributed case.  ``near_singular_refined``
    counts the levels re-read from a doubled window.
    """

    stream: dict
    samples: int
    harmonics: int
    weyl_moduli: list[float]
    mean_log_factor: float
    near_singular_refined: int = 0


def weyl_diagnostics(stream: DigitStream, samples: int, harmonics: int) -> WeylReport:
    """Weyl sums for harmonics 1..``harmonics`` plus the mean log factor.

    One complex exp per level, e = exp(2 pi i x_n); each further harmonic
    multiplies the previous one by e in place, so a block costs one exp and
    ``harmonics`` - 1 products, and the rounding grows about linearly in h.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    if harmonics < 1:
        raise ValueError(f"harmonics must be >= 1, got {harmonics}")
    sums = np.zeros(harmonics, dtype=complex)
    log_sum = 0.0
    refined = 0
    # e and its powers, in two buffers that every block reuses, so peak memory stays flat
    buffers = np.empty((2, min(samples, BLOCK)), dtype=complex)
    for block in frac_levels(stream, samples).blocks():
        first, power = buffers[:, :len(block.value)]
        np.exp(np.multiply(block.value, 2j * np.pi, out=first), out=first)
        np.copyto(power, first)
        sums[0] += power.sum()
        for h in range(1, harmonics):
            power *= first
            sums[h] += power.sum()
        log_sum += float(np.sum(block_log_factors(block)))
        refined += int(np.count_nonzero(block.refined))
    moduli = [float(abs(s / samples)) for s in sums]
    return WeylReport(
        stream=stream.description(),
        samples=samples,
        harmonics=harmonics,
        weyl_moduli=moduli,
        mean_log_factor=log_sum / samples,
        near_singular_refined=refined,
    )


def perturbed_exponent_trace(base: RationalLike, positions: PowersOfTwo = PowersOfTwo(1),
                             n_max: int = 4096) -> RieszTrace:
    """Running-exponent trace of a rational expansion with flipped digits.

    ``base`` must have an odd denominator part (non-extinct); ``positions``
    defaults to flips at 2, 4, 8, ...  The trace converges toward the base
    rational's exponent as the flips thin out.  Every level up to 4096 is
    recorded; beyond that an even stride of about 4096 levels, plus ``n_max``.
    """
    wn = as_wave_number(base)
    if wn.is_dyadic:
        raise ValueError("base must have an odd part q >= 3 (non-dyadic)")
    stream = flipped(rational_stream(wn), positions)
    stride = max(1, math.ceil(n_max / 4096))
    levels = {*range(stride, n_max + 1, stride), n_max}
    return riesz.trace(stream, n_max, sample_levels=levels)


def mixed_exponent_trace(stream_a: DigitStream, stream_b: DigitStream,
                         n_max: int, growth: int = 4) -> tuple[RieszTrace, float, float]:
    """Trace a block mixture and report (trace, liminf, limsup).

    The running exponent is recorded at every block boundary up to
    ``n_max`` and at ``n_max`` itself; the returned liminf/limsup are the
    extremes over those checkpoints, the finite stand-in for the limit
    points of the (non-convergent) exponent sequence.
    """
    mixed = block_mixed(stream_a, stream_b, growth=growth)
    ends = itertools.takewhile(lambda end: end <= n_max, block_ends(growth))
    tr = riesz.trace(mixed, n_max, sample_levels={*ends, n_max})
    running = tr.samples.running_exponent
    return tr, float(running.min()), float(running.max())
