"""Finite Riesz-product densities and their logarithms.

The level-n density is the partial product

    f_n(k) = prod_{l=0}^{n-1} (1 - cos(2**(l+1) pi k)),

whose factors depend only on x_l = frac(2**l k) through
1 - cos(2 pi x) = 2 sin(pi x)**2.  All logarithms are base 2 internally,
because the scaling exponent of interest is log2(f_n)/n; natural-log
values appear only at reporting boundaries (``check_log_integral``,
``check_qsum``).

Numerical policy: factors are always evaluated as 2 sin(pi d)**2 where d
is the exact distance of x_l to the nearest integer (no cancellation near
x = 1), and a factor is declared zero only when the canonical form of k
says x_l is exactly 0 — never by floating-point comparison.

A rational k is summed from one period: a running sum (``np.cumsum``, in
level order) over its r pre-periodic levels and one period of its
doubling cycle, and the period's exact sum (libm and ``fsum``, as the
exponents take it), so a trace costs O(r + t + recorded levels) whatever
its last level.  A digit stream is a running sum over the array blocks of
``frac_levels``, carried from block to block.  Only the recorded levels
are copied out, and log2 f_n is the trace recorded at level n alone.  A
trace is stored as columns: one record array with the fields ``level``,
``log2_f`` and ``running_exponent``.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import numtheory
from .numtheory import exact_quotients
from .serialize import text_rows
from .streams import DigitStream
from .wavenumber import (WINDOW, LevelBlock, WaveNumberLike, as_rational, as_wave_number,
                         frac_levels, rational_blocks, rational_period)

LOG2 = math.log(2.0)
_NEG_INF = float("-inf")
#: most levels one trace records: 24 bytes of samples each (96 MiB at the cap);
#: a whole `riesz-trace --k 1/9 --nmax 4194304` process peaks at 223 MB RSS
MAX_TRACE_SAMPLES = 2**22
TRACE_CSV_HEADER = "n,log2_f,running_exponent"


def log_factor_from_half_dist(half_dist: float) -> float:
    """log2(2 sin(pi*d)**2) for d = distance of x to the nearest integer."""
    if half_dist <= 0.0:
        return _NEG_INF
    return 1.0 + 2.0 * math.log2(math.sin(math.pi * half_dist))


def log_factor(x: float) -> float:
    """log2(1 - cos(2 pi x)), evaluated stably as log2(2 sin(pi x)**2).

    Exactly -inf at x in {0, 1}; raises outside [0, 1].
    """
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must lie in [0, 1], got {x}")
    return log_factor_from_half_dist(min(x, 1.0 - x))


def log_factors(half_dist: np.ndarray) -> np.ndarray:
    """``log_factor_from_half_dist`` elementwise: -inf where the distance is 0."""
    with np.errstate(divide="ignore"):
        return 1.0 + 2.0 * np.log2(np.sin(np.pi * half_dist))


def block_log_factors(block: LevelBlock) -> np.ndarray:
    """``log_factors`` of a level block: -inf only where the level is exactly 0.

    A non-zero level closer than 2**-1022 to an integer raises ValueError: its
    exact distance would lose bits as a subnormal, or round to 0.0 and give -inf.
    """
    lost = np.flatnonzero((block.half_dist < sys.float_info.min) & ~block.is_zero)
    if lost.size:
        raise ValueError(f"level {block.start + lost[0]} of k comes within 2**-1022 of an "
                         f"integer without reaching it, below the normal float range")
    return log_factors(block.half_dist)


def libm_log_factors(residues, q: int) -> np.ndarray:
    """log2(2 sin(pi n/q)**2) for every residue n, in the shape of ``residues``, by libm.

    Each term is bit-equal to ``log_factor_from_half_dist(min(n, q - n) / q)``,
    so callers pass each half-distance once.  numpy does only exactly rounded
    IEEE steps; sin and log2 are ``math.sin`` and ``math.log2`` (libm) mapped
    over a memoryview, as numpy's own may differ from libm in the last bit by
    build and CPU.  The half-distances come from ``exact_quotients``.
    """
    angle = np.pi * exact_quotients(residues, q)[1]
    logs = map(math.log2, map(math.sin, memoryview(angle.ravel())))
    return 1.0 + 2.0 * np.fromiter(logs, float, angle.size).reshape(angle.shape)


def orbit_log_sum(orbit: np.ndarray, q: int) -> float:
    """Sum of log2(1 - cos(2 pi n/q)) over the residues n of a doubling orbit mod q.

    If -1 is in S_q, orbit[k//2 + i] == q - orbit[i] repeats the terms of the
    first half, and twice their sum has the same bits (fsum rounds once; 2x
    is exact).  libm and fsum take the terms ``numtheory._STEP`` residues at a
    time, through memoryviews, so no list of floats is built, and the bits
    do not depend on the slicing.
    """
    k = len(orbit)
    mirrored = k % 2 == 0 and orbit[k // 2] == q - orbit[0]
    if mirrored:
        orbit = orbit[:k // 2]
    step = numtheory._STEP
    slices = (memoryview(libm_log_factors(orbit[i:i + step], q))
              for i in range(0, len(orbit), step))
    total = math.fsum(itertools.chain.from_iterable(slices))
    return 2.0 * total if mirrored else total


def partial_product_log(k: WaveNumberLike, n: int) -> float:
    """log2 f_n(k), summed as ``trace`` sums it (0.0 at n = 0); -inf once extinct."""
    if n < 0:
        raise ValueError(f"level must be non-negative, got {n}")
    return float(_running_sums(k, n, np.array([n]))[0][0]) if n else 0.0


def running_exponent(k: WaveNumberLike, n: int) -> float:
    """Exponent estimate log2(f_n(k)) / n at level n >= 1."""
    if n < 1:
        raise ValueError(f"running exponent needs n >= 1, got {n}")
    return partial_product_log(k, n) / n


@dataclass
class RieszTrace:
    """Sampled history of (n, log2 f_n, log2 f_n / n) for one wave number.

    ``samples`` is a numpy record array with one record per recorded level,
    in increasing level order, and the columns ``level`` (int64),
    ``log2_f`` and ``running_exponent`` (float64; the latter is
    ``log2_f / level``).  ``extinct_at`` is the first level whose factor
    vanishes (dyadic k only); beyond it both float columns are -inf.  For
    a digit stream ``quality`` records the window width
    (``wavenumber.WINDOW`` digits) and how many levels needed the
    near-singular refinement (none for rational-periodic streams, which
    take the exact path); it is empty for rational wave numbers.
    """

    wave_number: str
    samples: np.recarray
    extinct_at: int | None = None
    quality: dict = field(default_factory=dict)

    @property
    def final_running_exponent(self) -> float:
        return float(self.samples.running_exponent[-1])

    def rows(self):
        """(n, log2_f, running_exponent) per level, as Python numbers."""
        s = self.samples
        return zip(s.level.tolist(), s.log2_f.tolist(), s.running_exponent.tolist())

    def to_csv_lines(self, digits: int = 6) -> list[str]:
        """The csv header and one line per record, rendered from the record array's columns."""
        text = text_rows([self.samples[name] for name in self.samples.dtype.names], digits)
        return [TRACE_CSV_HEADER, *text.split("\n")] if text else [TRACE_CSV_HEADER]


def trace(k: WaveNumberLike, n_max: int, sample_levels=None) -> RieszTrace:
    """Build a RieszTrace up to level ``n_max``.

    ``sample_levels`` restricts which levels are recorded (default: all of
    1 .. n_max) and must name 1 to MAX_TRACE_SAMPLES, checked before they are
    stored; ``_running_sums`` walks the levels.  A rational k whose label
    passes Python's int-to-str limit raises ValueError before any level.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    if sample_levels is None:
        sample_levels = range(1, n_max + 1)
    # a range with a positive step is sorted and unique, and slices and counts without a walk
    ordered = isinstance(sample_levels, range) and sample_levels.step > 0
    try:
        if not ordered:
            levels = np.fromiter(itertools.islice(sample_levels, MAX_TRACE_SAMPLES + 1),
                                 np.int64)
        elif not sample_levels or len(sample_levels[:MAX_TRACE_SAMPLES + 1]) > MAX_TRACE_SAMPLES:
            levels = sample_levels[:MAX_TRACE_SAMPLES + 1]      # refused below
        elif -2**63 <= sample_levels[0] and sample_levels[-1] < 2**63:
            levels = np.arange(sample_levels[0], sample_levels[-1] + 1, sample_levels.step,
                               dtype=np.int64)
        else:
            raise OverflowError
    except OverflowError:
        raise ValueError(f"sample levels outside 1..{n_max}: one exceeds int64") from None
    if len(levels) > MAX_TRACE_SAMPLES:
        raise ValueError(f"more levels than MAX_TRACE_SAMPLES = {MAX_TRACE_SAMPLES} to record")
    if not len(levels):
        raise ValueError("sample_levels is empty, so no level would be recorded")
    if not ordered:
        # np.unique hashes; dropping repeats from the sorted array is faster
        levels = np.sort(levels)
        levels = levels[np.concatenate(([True], np.diff(levels) > 0))]
    bad = levels[(levels < 1) | (levels > n_max)]
    if bad.size:
        raise ValueError(f"sample levels outside 1..{n_max}: {bad.tolist()}")

    if isinstance(k, DigitStream):
        label = k.label()
    else:
        wn = as_wave_number(k)
        try:
            label = str(wn)
        except ValueError:      # an integer longer than sys.get_int_max_str_digits()
            raise ValueError(f"k with a {wn.denominator.bit_length()}-bit denominator "
                             f"has too many digits to print") from None
    log2_f, extinct_at, refined = _running_sums(k, n_max, levels)
    samples = np.rec.fromarrays((levels, log2_f, log2_f / levels), dtype=[
        ("level", np.int64), ("log2_f", float), ("running_exponent", float)])
    quality = ({"window": WINDOW, "near_singular_refined": refined}
               if isinstance(k, DigitStream) else {})
    return RieszTrace(label, samples, extinct_at, quality)


def _running_sums(k: WaveNumberLike, n_max: int, levels: np.ndarray):
    """(log2 f at the sorted ``levels``, extinction level or None, refined-level count).

    A rational k sums its r pre-periodic levels and one period of t levels
    (``rational_period``) in level order, into F, and a level n = r + j t + i
    (0 <= i < t) past the head is F[r + i] + j S, where S is the period's
    sum by ``orbit_log_sum``, taken only if a level lies past the first
    period.  A digit stream is summed one block at a time, in level order.
    """
    wn = as_rational(k)
    if wn is None:
        log2_f = np.full(len(levels), _NEG_INF)
        total = 0.0
        refined = 0
        for block in frac_levels(k, n_max).blocks():
            refined += int(np.count_nonzero(block.refined))
            steps = block_log_factors(block)
            steps[0] += total
            running = np.cumsum(steps)
            total = float(running[-1])
            first = block.start + 1
            lo, hi = np.searchsorted(levels, [first, first + len(running)])
            log2_f[lo:hi] = running[levels[lo:hi] - first]
        return log2_f, None, refined
    numerators, cycle = rational_period(wn, n_max)
    r = len(numerators)
    stop = min(r + len(cycle), n_max)
    # sums[n] = log2 f_n up to level stop, the head and one period at most, in level order
    sums = np.zeros(stop + 1)
    for block in rational_blocks(wn, numerators, cycle, stop):
        sums[block.start + 1:block.start + 1 + len(block.value)] = block_log_factors(block)
    np.cumsum(sums, out=sums)
    # a cycle still open at level n_max completes no period
    t = len(cycle) + (2 * int(cycle[-1]) % wn.q != int(cycle[0]))
    if wn.is_dyadic or levels[-1] < r + t:
        # a dyadic k's level r is 0, so its sums are -inf from level r + 1 = stop on
        return sums[np.minimum(levels, stop)], r if wn.is_dyadic and r < n_max else None, 0
    # j in place: each new array of a long trace costs its page faults, and numpy
    # divides by a scalar with SIMD but takes divmod and % slowly
    j = levels - r
    np.maximum(j, 0, out=j)
    j //= t
    log2_f = j * orbit_log_sum(cycle, wn.q)
    j *= t
    log2_f += sums[levels - j]
    return log2_f, None, 0


def _grid_density(n: int, x: np.ndarray) -> np.ndarray:
    """f_n at float grid points (doubling done in floats; fine for n <= 12)."""
    val = np.ones_like(x)
    y = np.mod(x, 1.0)
    for _ in range(n):
        half = np.minimum(y, 1.0 - y)
        s = np.sin(np.pi * half)
        val *= 2.0 * s * s
        y = np.mod(2.0 * y, 1.0)
    return val


def interval_mass(n: int, a: float, b: float) -> float:
    """Mass of f_n over [a, b) by a uniform left-endpoint grid.

    The grid has N = 2**max(n+3, 12) nodes per unit length.  On the full
    interval [0, 1] the sum is the exact integral (f_n is a trigonometric
    polynomial with frequencies below 2**n), so interval_mass(n, 0, 1) is
    1 up to rounding: the nodes j/N are dyadic, so their float doubling
    mod 1 is exact.  Sub-intervals are first-order accurate in the grid
    step.
    """
    if not 0.0 <= a < b <= 1.0:
        raise ValueError(f"need 0 <= a < b <= 1, got a={a}, b={b}")
    if not 0 <= n <= 12:
        raise ValueError(f"level must be in 0..12, got {n}")
    N = 1 << max(n + 3, 12)
    # the float grid keeps at least 16 nodes on a sub-interval narrower than 1/N
    nodes = max(16, math.ceil((b - a) * N))
    h = (b - a) / nodes
    x = a + h * np.arange(nodes)
    return float(_grid_density(n, x).sum() * h)


def _require_array_budget(name: str, value: int) -> None:
    if value > numtheory.MAX_ORBIT_LENGTH:
        raise ValueError(f"{name} = {value} is above the budget of "
                         f"MAX_ORBIT_LENGTH = {numtheory.MAX_ORBIT_LENGTH}")


def check_log_integral(nodes: int) -> float:
    """Midpoint-rule estimate of integral_0^1 log(1 - cos(2 pi x)) dx.

    The integrand has integrable log singularities at both endpoints; the
    midpoint grid avoids them, and the estimate converges to -log(2).
    (For this particular integrand the midpoint defect is exactly
    2 log(2)/nodes, which the tests exploit.)  Natural log.  At most
    ``numtheory.MAX_ORBIT_LENGTH`` nodes, refused before any array is built.
    """
    if nodes < 1:
        raise ValueError(f"nodes must be >= 1, got {nodes}")
    _require_array_budget("nodes", nodes)
    half = exact_quotients(2 * np.arange(nodes) + 1, 2 * nodes)[1]
    return float(np.mean(LOG2 + 2.0 * np.log(np.sin(np.pi * half))))


def check_qsum(n: int) -> tuple[float, float]:
    """Both sides of sum_{m=1}^{n-1} log(1 - cos(2 pi m/n)) = log(n**2 / 2**(n-1)).

    Left side by direct summation, right side in closed form; natural log.
    Holds for every n >= 1 (empty sum = log 1 at n = 1).  n may be at most
    ``numtheory.MAX_ORBIT_LENGTH``, refused before any array is built.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    _require_array_budget("n", n)
    if n == 1:
        return 0.0, 0.0
    half = exact_quotients(np.arange(1, n), n)[1]
    lhs = float((n - 1) * LOG2 + 2.0 * np.sum(np.log(np.sin(np.pi * half))))
    rhs = 2.0 * math.log(n) - (n - 1) * LOG2
    return lhs, rhs
