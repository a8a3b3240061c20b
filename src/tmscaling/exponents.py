"""Exact scaling exponents for rational wave numbers.

For k = m / (2**r * q) with odd q >= 3, the exponent is the average of
log2(1 - cos(2 pi n/q)) over the doubling orbit of m mod q — a finite
formula, since the orbit is a cycle and no factor vanishes for odd q.
The dyadic prefactor 2**r contributes finitely many non-zero factors and
drops out of the limit; dyadic k itself (q = 1) is an extinction point.

When 2 and -1 generate the unit group of a prime q the orbit average
collapses to the closed form g(q) = 2 log(q) / ((q-1) log 2) - 1; for general
odd q the orbit averages across divisors are tied together by a
divisor-sum identity and its Moebius inversion.  Both identities are
implemented as (lhs, rhs) pairs so tests and the CLI can measure the
defect directly.
"""

from __future__ import annotations

import math
import os
import pickle
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from . import riesz
from .numtheory import (
    _require_odd_modulus,
    coset_decomposition,
    divisors,
    doubling_orbit,
    exact_quotients,
    moebius,
)
from .serialize import csv_lines
from .wavenumber import RationalLike, as_wave_number

#: desk-scale guard for the enumeration bounds
MAX_ENUMERATION_BOUND = 10_000
#: cosets whose numpy mean is <= -_SCREEN_MARGIN skip libm; for q < 10**4 the two differ < 3e-15
_SCREEN_MARGIN = 1e-9
#: fewest items per share of ``_fan_out``: a fork costs about 5 ms until the child runs its
#: share, and a 2-way fan-out of the q loops from the smallest q broke even at 256 to 512 items
_MIN_SHARE = 192


@dataclass(frozen=True)
class ExponentResult:
    """Outcome of an exponent computation.

    ``kind`` is 'value' (finite exponent in log-base-2 units, in
    ``value``) or 'extinct' (dyadic wave number, ``value`` is None).
    """

    kind: str
    value: float | None = None
    method: str = ""
    diagnostics: dict = field(default_factory=dict)

    VALUE = "value"
    EXTINCT = "extinct"

    @property
    def is_extinct(self) -> bool:
        return self.kind == self.EXTINCT


def _cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _fan_out(fn, items) -> list:
    """``[fn(x) for x in items]``, its strided shares ``items[i::n]`` run on n CPUs.

    This process computes share 0, and a forked child each other share: it
    pickles the share's results into a pipe and leaves by ``os._exit``, 0 once
    they are sent and 1 on any exception.  A share whose child failed or could
    not be started is computed here, so each value, and each error an item
    raises, is the plain loop's.  n is the number of CPUs, capped so that a share
    has at least ``_MIN_SHARE`` items; the plain loop runs if n < 2 or without ``os.fork``.
    """
    items = list(items)
    n = min(_cpus(), len(items) // _MIN_SHARE)
    if n < 2 or not hasattr(os, "fork"):
        return [fn(x) for x in items]
    shares, pids, pipes = {}, {}, {}
    try:
        for i in range(1, n):
            try:
                r, w = os.pipe()
            except OSError:
                break
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(w)
                break
            if pid == 0:
                code = 1
                try:
                    with os.fdopen(w, "wb") as f:
                        pickle.dump([fn(x) for x in items[i::n]], f)
                    code = 0
                finally:
                    os._exit(code)
            os.close(w)
            pids[i], pipes[i] = pid, r
        shares[0] = [fn(x) for x in items[::n]]
        for i in list(pids):
            with os.fdopen(pipes.pop(i), "rb") as f:   # to EOF first: a full pipe blocks the child
                data = f.read()
            status = os.waitpid(pids[i], 0)[1]
            del pids[i]
            if status == 0:
                shares[i] = pickle.loads(data)
    finally:
        for r in pipes.values():
            os.close(r)
        for pid in pids.values():
            os.kill(pid, 9)             # SIGKILL
            os.waitpid(pid, 0)
    out = [None] * len(items)
    for i in range(n):
        out[i::n] = shares[i] if i in shares else [fn(x) for x in items[i::n]]
    return out


def _coset_means(cosets: np.ndarray, q: int) -> list[float]:
    """``orbit_log_mean`` of every row of ``cosets``, a (cosets x order) array of orbits mod q.

    u*S_q and -u*S_q share half-distances: one table of terms per q, gathered;
    fsum reads each row as a slice of a memoryview.
    """
    half = np.minimum(cosets, q - cosets)
    seen = np.zeros(q // 2 + 1, dtype=bool)
    seen[half] = True
    table = np.zeros(q // 2 + 1)
    table[seen] = riesz.libm_log_factors(np.flatnonzero(seen), q)
    terms, order = memoryview(table[half].ravel()), cosets.shape[1]
    return [math.fsum(terms[i:i + order]) / order for i in range(0, len(terms), order)]


def orbit_log_mean(p: int, q: int) -> float:
    """Average of log2(1 - cos(2 pi n/q)) over the doubling orbit of p mod q.

    Defined for any p not divisible by q; reducing p/q to lowest terms
    gives the same value, because the orbit of p mod q is gcd(p, q) times
    the orbit of the reduced numerator modulo the reduced denominator.
    """
    orbit = doubling_orbit(p, q)
    return riesz.orbit_log_sum(orbit, q) / len(orbit)


def beta_rational(k: RationalLike) -> ExponentResult:
    """Scaling exponent of a rational wave number via the orbit average.

    Dyadic k (odd part 1) is reported as extinct.  Otherwise the result
    carries the orbit the average ran over, its representative (smallest
    element), and the dyadic power r that was ignored.
    """
    wn = as_wave_number(k)
    if wn.is_dyadic:
        return ExponentResult(
            kind=ExponentResult.EXTINCT,
            method="coset-formula",
            diagnostics={"q": 1, "dyadic_power": wn.r},
        )
    orbit = doubling_orbit(wn.m % wn.q, wn.q)
    value = riesz.orbit_log_sum(orbit, wn.q) / len(orbit)
    representative = int(orbit.min())
    # min(n, q - n) is smallest at the smallest or at the largest residue
    min_half = min(representative, wn.q - int(orbit.max())) / wn.q
    return ExponentResult(
        kind=ExponentResult.VALUE,
        value=value,
        method="coset-formula",
        diagnostics={
            "q": wn.q,
            "orbit_size": len(orbit),
            "representative": representative,
            "orbit": orbit,
            "dyadic_power_ignored": wn.r,
            "min_half_dist": min_half,
        },
    )


def g_closed_form(q: int) -> float:
    """g(q) = 2 log(q) / ((q-1) log 2) - 1, for odd q >= 3.

    Equals the exponent of 1/q for prime q with <2, -1> = U_q (and, for odd
    q < 5000, only then); positive exactly for q = 3 and q = 5.
    """
    _require_odd_modulus(q)
    try:
        return 2.0 * math.log2(q) / (q - 1) - 1.0
    except OverflowError:
        raise ValueError(f"q - 1 overflows a float: q has {q.bit_length()} bits") from None


def _coset_sum(d: int) -> tuple[int, float]:
    """(order of 2 mod d, sum of the exponents over the unit cosets of d)."""
    cosets = coset_decomposition(d)
    return cosets.shape[1], math.fsum(_coset_means(cosets, d))


def _coset_sum_pair(q: int, sums: dict[int, tuple[int, float]]) -> tuple[float, float]:
    rhs = g_closed_form(q)      # first: it rejects q = 1, which has no divisor d > 1
    return math.fsum(sums[d][0] * sums[d][1] for d in divisors(q)[1:]) / (q - 1), rhs


def _moebius_pair(q: int, sums: dict[int, tuple[int, float]]) -> tuple[float, float]:
    rhs = math.fsum(moebius(q // d) * (d - 1) * g_closed_form(d) for d in divisors(q)[1:])
    return sums[q][1], rhs / sums[q][0]


def check_coset_sum_identity(q: int) -> tuple[float, float]:
    """Divisor-sum identity tying orbit averages to the closed form.

    lhs = (1/(q-1)) * sum over divisors d > 1 of q of
          card(S_d) * sum of exponents over the unit cosets of d;
    rhs = g(q).  Exact for every odd q >= 3, because the terms regroup
    the full factor sum over m/q, m = 1..q-1.
    """
    sums = {q: _coset_sum(q)}   # first: its budget check refuses a large q before divisors walks it
    sums.update((d, _coset_sum(d)) for d in divisors(q)[1:-1])
    return _coset_sum_pair(q, sums)


def moebius_inverted_coset_sum(q: int) -> tuple[float, float]:
    """Moebius inversion of the divisor-sum identity.

    lhs = sum of exponents over the unit-coset representatives of q;
    rhs = (1/card(S_q)) * sum over divisors d > 1 of mu(q/d) (d-1) g(d).
    """
    return _moebius_pair(q, {q: _coset_sum(q)})


def coset_identities(q_max: int) -> Iterator[tuple[int, tuple[float, float], tuple[float, float]]]:
    """(q, coset-sum pair, Moebius pair) for odd 3 <= q <= q_max, decomposing each q once."""
    odd = range(3, q_max + 1, 2)
    sums = dict(zip(odd, _fan_out(_coset_sum, odd)))   # holds every divisor d > 1 of each q
    for q in odd:
        yield q, _coset_sum_pair(q, sums), _moebius_pair(q, sums)


def _screen_means(cosets: np.ndarray, q: int) -> np.ndarray:
    """``_coset_means`` estimated with numpy's sin and log2: it screens, it is never printed."""
    return riesz.log_factors(exact_quotients(cosets, q)[1]).mean(axis=1)


def _positive_rows(q: int) -> list[tuple[int, int, float]]:
    cosets = coset_decomposition(q)
    kept = _screen_means(cosets, q) > -_SCREEN_MARGIN
    if not kept.any():
        return []
    cosets = cosets[kept]
    return [(q, p, value)
            for p, value in zip(cosets[:, 0].tolist(), _coset_means(cosets, q))
            if value > 0.0]


def enumerate_positive_exponents(q_max: int) -> list[tuple[int, int, float]]:
    """(q, representative, exponent) for every positive exponent, odd 5 < q < q_max.

    For each q every unit coset is considered once through its smallest
    element; a pair is listed iff the computed double-precision orbit
    average is strictly positive.  Rows are sorted by q, then
    representative.
    """
    if q_max > MAX_ENUMERATION_BOUND:
        raise ValueError(f"q_max capped at {MAX_ENUMERATION_BOUND}, got {q_max}")
    return [row for rows in _fan_out(_positive_rows, range(7, q_max, 2)) for row in rows]


def figure_data(q_max: int) -> list[tuple[int, float, float]]:
    """(q, exponent of 1/q, g(q)) for odd 3 <= q < q_max, ascending."""
    if q_max > MAX_ENUMERATION_BOUND:
        raise ValueError(f"q_max capped at {MAX_ENUMERATION_BOUND}, got {q_max}")
    return _fan_out(lambda q: (q, orbit_log_mean(1, q), g_closed_form(q)), range(3, q_max, 2))


TABLE_CSV_HEADER = "q,p,beta"
FIGURE_CSV_HEADER = "q,beta_1_over_q,g_q"


def table_csv_lines(rows: list[tuple[int, int, float]], digits: int = 6) -> list[str]:
    return csv_lines(TABLE_CSV_HEADER, rows, digits, keys=2)


def figure_csv_lines(rows: list[tuple[int, float, float]], digits: int = 6) -> list[str]:
    return csv_lines(FIGURE_CSV_HEADER, rows, digits)
