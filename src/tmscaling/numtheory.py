"""Integer arithmetic for doubling orbits modulo odd q.

The multiplicative structure behind rational wave numbers: the unit group
U_q of residues coprime to q, the cyclic subgroup S_q generated by 2, and
its cosets u*S_q, which are the orbits of n -> 2n (mod q) on U_q.  One
kernel, ``_doubling_cycle``, walks that map for every caller here and for
the exact level ladder in ``wavenumber``: numpy block doubling in exact
integer arithmetic (int64 below 2**31, Python ints above).  A single orbit
may have up to MAX_ORBIT_LENGTH residues (the modulus itself may be any
size, except for ``coset_decomposition``, which covers all of U_q); a
longer one raises ValueError rather than growing without limit.
Enumerations walk every q up to 10**4, where trial division is plenty.
``exact_quotients`` turns residues n into n/q and min(n, q - n)/q for the whole package,
and ``half_distances`` into min(n, q - n)/q alone, rounded the same way.
"""

from __future__ import annotations

import numpy as np

#: longest doubling orbit that ``doubling_orbit``, ``mult_order_of_two`` and the
#: exact level ladder walk; an orbit this long takes 32 MB as int64, about 170 MB as Python ints
#: below 2**60, and its exact mean adds one _STEP slice of floats
MAX_ORBIT_LENGTH = 2**22
#: residues per slice of a block-doubling step and of an exact orbit mean, which bounds their temporaries
_STEP = 1 << 16
#: residues walked one at a time before block doubling, so short orbits skip numpy
_HEAD = 64


def _require_odd_modulus(q: int) -> None:
    if q < 3 or q % 2 == 0:
        raise ValueError(f"modulus must be odd and >= 3, got {q}")


def _require_trial_division_budget(n: int) -> None:
    if n > MAX_ORBIT_LENGTH**2:     # trial division walks up to sqrt(n)
        raise ValueError(f"{n} is above MAX_ORBIT_LENGTH**2 = {MAX_ORBIT_LENGTH**2}: trial division "
                         f"would try more than MAX_ORBIT_LENGTH = {MAX_ORBIT_LENGTH} candidates")


def divisors(q: int) -> list[int]:
    """All positive divisors of q in increasing order."""
    if q < 1:
        raise ValueError(f"q must be positive, got {q}")
    _require_trial_division_budget(q)
    small, large = [], []
    d = 1
    while d * d <= q:
        if q % d == 0:
            small.append(d)
            if d * d != q:
                large.append(q // d)
        d += 1
    return small + large[::-1]


def moebius(n: int) -> int:
    """Moebius function: (-1)**k for squarefree n with k prime factors, else 0."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    _require_trial_division_budget(n)
    sign = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            sign = -sign
        p += 1
    if n > 1:
        sign = -sign
    return sign


def _exact(nums, q: int) -> np.ndarray:
    """n as int64 below q = 2**53 and as Python ints (an object array) above.

    Below 2**53 float64 holds n exactly, so numpy's division rounds like
    Python's int / int.
    """
    return np.asarray(nums, dtype=np.int64 if q < 2**53 else object)


def half_distances(nums, q: int) -> np.ndarray:
    """min(n, q - n) / q as a float64 array for 0 <= n <= q, each rounded once."""
    n = _exact(nums, q)
    return (np.minimum(n, q - n) / q).astype(float, copy=False)


def exact_quotients(nums, q: int) -> tuple[np.ndarray, np.ndarray]:
    """(n / q, min(n, q - n) / q) as float64 arrays for 0 <= n <= q, each rounded once."""
    n = _exact(nums, q)
    return (n / q).astype(float, copy=False), half_distances(n, q)


def _doubling_cycle(p: int, q: int, limit: int) -> np.ndarray:
    """p, 2p, 4p, ... (mod q) until the cycle closes, at most ``limit`` residues.

    The first _HEAD residues, one doubling at a time; then block doubling:
    the one array grows in place to twice its length (at most ``limit``) and
    its new tail is the cycle so far times 2**len (mod q), written in place,
    in slices of at most _STEP residues.  Residues are int64 below 2**31,
    where products stay below 2**62, and Python ints in an object array above.  Rather than hold
    more than MAX_ORBIT_LENGTH residues of an open cycle, raises ValueError.
    """
    start = int(p % q)
    limit = min(limit, MAX_ORBIT_LENGTH + 1)
    head, x, stop = [start], 2 * start % q, min(limit, _HEAD)
    while x != start and len(head) < stop:
        head.append(x)
        x = 2 * x % q
    cycle = np.array(head, dtype=np.int64 if q < 2**31 else object)
    if x == start:
        return cycle
    while (n := len(cycle)) < limit:
        factor = pow(2, n, q)
        cycle.resize(min(2 * n, limit), refcheck=False)   # in place: no view of it exists
        for i in range(n, len(cycle), _STEP):
            block = cycle[i:min(i + _STEP, len(cycle))]
            np.multiply(cycle[i - n:i - n + len(block)], factor, out=block)
            np.remainder(block, q, out=block)
            closed = block == start
            del block
            at = int(closed.argmax())
            if closed[at]:
                cycle.resize(i + at, refcheck=False)
                return cycle
    if len(cycle) > MAX_ORBIT_LENGTH:
        raise ValueError(f"the doubling orbit of {start} mod {q} is longer than "
                         f"the budget of MAX_ORBIT_LENGTH = {MAX_ORBIT_LENGTH} residues")
    return cycle


def mult_order_of_two(q: int) -> int:
    """Multiplicative order of 2 mod q: smallest n >= 1 with 2**n = 1 (mod q).

    This is the length of the doubling orbit of 1; raises ValueError once
    it passes MAX_ORBIT_LENGTH residues.
    """
    _require_odd_modulus(q)
    return len(_doubling_cycle(1, q, q))


def doubling_orbit(p: int, q: int) -> np.ndarray:
    """Cycle of p under n -> 2n (mod q), in orbit order from p, as an array.

    Doubling is a bijection on Z/qZ for odd q, so every residue lies on a
    pure cycle.  The orbit of a unit p is the coset p*S_q; for
    gcd(p, q) = d > 1 it is d times the orbit of p/d modulo q/d.  Raises
    ValueError once the orbit passes MAX_ORBIT_LENGTH residues.  The array
    is int64 below q = 2**31 and an object array of Python ints above.
    """
    _require_odd_modulus(q)
    if p % q == 0:
        raise ValueError(f"p must not be divisible by q (p={p}, q={q})")
    return _doubling_cycle(p, q, q)


def coset_decomposition(q: int) -> np.ndarray:
    """Decompose U_q into the cosets u*S_q with minimal representatives.

    Returns a (cosets x order of 2) integer array.  Row i is the doubling
    cycle of its smallest element, the i-th representative in increasing
    order, so column 0 holds the representatives and row 0 is S_q itself.
    The residues sharing a factor d > 1 with q are d times the unit cosets
    of q/d.  S_q is built once; each next representative is the smallest
    unit not yet covered.  The cosets cover U_q, which takes a q-entry
    mask, so q may be at most MAX_ORBIT_LENGTH.
    """
    _require_odd_modulus(q)
    if q > MAX_ORBIT_LENGTH:
        raise ValueError(f"the cosets of {q} cover more than the budget of "
                         f"MAX_ORBIT_LENGTH = {MAX_ORBIT_LENGTH} residues")
    subgroup = _doubling_cycle(1, q, q)
    # the units, no divisor d > 1 of q dividing them, as bytes that numpy marks
    # off and ``bytearray.find`` scans for the next representative
    free = bytearray(b"\1") * q
    mask = np.frombuffer(free, dtype=bool)
    for d in divisors(q)[1:]:
        mask[::d] = False
    rows = np.empty((np.count_nonzero(mask) // len(subgroup), len(subgroup)), subgroup.dtype)
    rep = 1
    for row in rows:
        np.multiply(subgroup, rep, out=row)
        np.remainder(row, q, out=row)
        mask[row] = False
        rep = free.find(1, rep)
    return rows
