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
x = 1), and a factor is declared zero only when integer arithmetic says
x_l is exactly 0 — never by floating-point comparison.

The sums run over the array blocks of ``frac_levels``: a whole-product
log is a sum per block, and a trace is a running sum (``np.cumsum``, in
level order, carried from block to block) from which only the recorded
levels are copied out.  A trace is stored as columns: one record array
with the fields ``level``, ``log2_f`` and ``running_exponent``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .serialize import json_number
from .streams import DigitStream
from .wavenumber import WINDOW, WaveNumberLike, as_wave_number, frac_levels

LOG2 = math.log(2.0)
_NEG_INF = float("-inf")


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
    if x == 0.0 or x == 1.0:
        return _NEG_INF
    return log_factor_from_half_dist(min(x, 1.0 - x))


def log_factors(half_dist: np.ndarray) -> np.ndarray:
    """``log_factor_from_half_dist`` elementwise: -inf where the distance is 0."""
    with np.errstate(divide="ignore"):
        return 1.0 + 2.0 * np.log2(np.sin(np.pi * half_dist))


def partial_product_log(k: WaveNumberLike, n: int) -> float:
    """log2 f_n(k): sum of log factors over levels 0 .. n-1; -inf once extinct."""
    if n < 0:
        raise ValueError(f"level must be non-negative, got {n}")
    total = 0.0
    for block in frac_levels(k, n).blocks():
        if block.is_zero.any():
            return _NEG_INF
        total += float(np.sum(log_factors(block.half_dist)))
    return total


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

    def _rows(self):
        s = self.samples
        return zip(s.level.tolist(), s.log2_f.tolist(), s.running_exponent.tolist())

    def to_csv_lines(self, digits: int = 6) -> list[str]:
        row = f"%d,%.{digits}g,%.{digits}g"
        return ["n,log2_f,running_exponent", *map(row.__mod__, self._rows())]

    def to_json_dict(self, digits: int = 6) -> dict:
        return {
            "wave_number": self.wave_number,
            "extinct_at": self.extinct_at,
            "quality": self.quality,
            "samples": [
                {
                    "n": level,
                    "log2_f": json_number(v, digits),
                    "running_exponent": json_number(r, digits),
                }
                for level, v, r in self._rows()
            ],
        }


def trace(k: WaveNumberLike, n_max: int, sample_levels=None) -> RieszTrace:
    """Build a RieszTrace up to level ``n_max``.

    ``sample_levels`` restricts which levels are recorded (default: all of
    1 .. n_max) and must name at least one; the accumulation itself always
    walks every level, holding one block of running sums at a time.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    if sample_levels is None:
        levels = np.arange(1, n_max + 1, dtype=np.int64)
    else:
        try:
            levels = np.sort(np.fromiter(sample_levels, np.int64))
        except OverflowError:
            raise ValueError(f"sample levels outside 1..{n_max}: one exceeds int64") from None
        if not levels.size:
            raise ValueError("sample_levels is empty, so no level would be recorded")
        # np.unique hashes; dropping repeats from the sorted array is faster
        levels = levels[np.concatenate(([True], np.diff(levels) > 0))]
        bad = levels[(levels < 1) | (levels > n_max)]
        if bad.size:
            raise ValueError(f"sample levels outside 1..{n_max}: {bad.tolist()}")

    label = k.label() if isinstance(k, DigitStream) else str(as_wave_number(k))
    log2_f = np.empty(len(levels))
    extinct_at = None
    total = 0.0
    refined = 0
    for block in frac_levels(k, n_max).blocks():
        if extinct_at is None and block.is_zero.any():
            extinct_at = block.start + int(np.argmax(block.is_zero))
        refined += int(np.count_nonzero(block.refined))
        # running sums in level order; a zero factor turns them into -inf for good
        steps = log_factors(block.half_dist)
        steps[0] += total
        running = np.cumsum(steps)
        total = float(running[-1])
        first = block.start + 1
        lo, hi = np.searchsorted(levels, [first, first + len(running)])
        log2_f[lo:hi] = running[levels[lo:hi] - first]
    samples = np.rec.fromarrays((levels, log2_f, log2_f / levels),
                                names=("level", "log2_f", "running_exponent"))
    quality = ({"window": WINDOW, "near_singular_refined": refined}
               if isinstance(k, DigitStream) else {})
    return RieszTrace(label, samples, extinct_at, quality)


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
    polynomial with frequencies below 2**n, and the fractional parts on
    the grid are computed by integer bit arithmetic), so
    interval_mass(n, 0, 1) is 1 up to rounding.  Sub-intervals are
    first-order accurate in the grid step.
    """
    if not 0.0 <= a < b <= 1.0:
        raise ValueError(f"need 0 <= a < b <= 1, got a={a}, b={b}")
    if not 0 <= n <= 12:
        raise ValueError(f"level must be in 0..12, got {n}")
    N = 1 << max(n + 3, 12)
    if a == 0.0 and b == 1.0:
        j = np.arange(N, dtype=np.int64)
        val = np.ones(N)
        for l in range(n):
            idx = (j << l) & (N - 1)
            half = np.minimum(idx, N - idx) / N
            s = np.sin(np.pi * half)
            val *= 2.0 * s * s
        return float(val.mean())

    # the float grid keeps at least 16 nodes on a sub-interval narrower than 1/N
    nodes = max(16, math.ceil((b - a) * N))
    h = (b - a) / nodes
    x = a + h * np.arange(nodes)
    return float(_grid_density(n, x).sum() * h)


def check_log_integral(nodes: int) -> float:
    """Midpoint-rule estimate of integral_0^1 log(1 - cos(2 pi x)) dx.

    The integrand has integrable log singularities at both endpoints; the
    midpoint grid avoids them, and the estimate converges to -log(2).
    (For this particular integrand the midpoint defect is exactly
    2 log(2)/nodes, which the tests exploit.)  Natural log.
    """
    if nodes < 1:
        raise ValueError(f"nodes must be >= 1, got {nodes}")
    x = (np.arange(nodes) + 0.5) / nodes
    half = np.minimum(x, 1.0 - x)
    return float(np.mean(LOG2 + 2.0 * np.log(np.sin(np.pi * half))))


def check_qsum(n: int) -> tuple[float, float]:
    """Both sides of sum_{m=1}^{n-1} log(1 - cos(2 pi m/n)) = log(n**2 / 2**(n-1)).

    Left side by direct summation, right side in closed form; natural log.
    Holds for every n >= 1 (empty sum = log 1 at n = 1).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n == 1:
        return 0.0, 0.0
    m = np.arange(1, n)
    half = np.minimum(m, n - m) / n
    lhs = float((n - 1) * LOG2 + 2.0 * np.sum(np.log(np.sin(np.pi * half))))
    rhs = 2.0 * math.log(n) - (n - 1) * LOG2
    return lhs, rhs
