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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: longest doubling orbit that ``doubling_orbit``, ``mult_order_of_two`` and the
#: exact level ladder walk; as a list of Python ints an orbit this long takes about 150 MB
MAX_ORBIT_LENGTH = 2**22
#: residues per slice of a block-doubling step, which bounds object-array temporaries
_STEP = 1 << 16


def _require_odd_modulus(q: int) -> None:
    if q < 3 or q % 2 == 0:
        raise ValueError(f"modulus must be odd and >= 3, got {q}")


def divisors(q: int) -> list[int]:
    """All positive divisors of q in increasing order."""
    if q < 1:
        raise ValueError(f"q must be positive, got {q}")
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


def _doubling_cycle(p: int, q: int, limit: int) -> np.ndarray:
    """p, 2p, 4p, ... (mod q) until the cycle closes, at most ``limit`` residues.

    Block doubling: the next block is the cycle so far times 2**len (mod q),
    taken in slices of at most _STEP residues.  Residues are int64 below
    2**31, where products stay below 2**62, and Python ints in an object
    array above.  Rather than hold more than MAX_ORBIT_LENGTH residues of a
    cycle that has not closed, raises ValueError.
    """
    start = int(p % q)
    limit = min(limit, MAX_ORBIT_LENGTH + 1)
    cycle = np.array([start], dtype=np.int64 if q < 2**31 else object)
    while len(cycle) < limit:
        n = len(cycle)
        factor = pow(2, n, q)
        grown = np.empty(min(2 * n, limit), cycle.dtype)
        grown[:n] = cycle
        for i in range(n, len(grown), _STEP):
            block = cycle[i - n:min(i + _STEP, len(grown)) - n] * factor % q
            grown[i:i + len(block)] = block
            closed = np.flatnonzero(block == start)
            if closed.size:
                return grown[:i + closed[0]]
        if len(grown) > MAX_ORBIT_LENGTH:
            raise ValueError(f"the doubling orbit of {start} mod {q} is longer than "
                             f"the budget of MAX_ORBIT_LENGTH = {MAX_ORBIT_LENGTH} residues")
        cycle = grown
    return cycle


def mult_order_of_two(q: int) -> int:
    """Multiplicative order of 2 mod q: smallest n >= 1 with 2**n = 1 (mod q).

    This is the length of the doubling orbit of 1; raises ValueError once
    it passes MAX_ORBIT_LENGTH residues.
    """
    _require_odd_modulus(q)
    return len(_doubling_cycle(1, q, q))


def doubling_orbit(p: int, q: int) -> list[int]:
    """Cycle of p under n -> 2n (mod q), listed in orbit order from p.

    Doubling is a bijection on Z/qZ for odd q, so every residue lies on a
    pure cycle.  The orbit of a unit p is the coset p*S_q; for
    gcd(p, q) = d > 1 it is d times the orbit of p/d modulo q/d.  Raises
    ValueError once the orbit passes MAX_ORBIT_LENGTH residues.
    """
    _require_odd_modulus(q)
    if p % q == 0:
        raise ValueError(f"p must not be divisible by q (p={p}, q={q})")
    return _doubling_cycle(p, q, q).tolist()


@dataclass(frozen=True)
class OrbitDecomposition:
    """The unit group U_q as the cosets of S_q, one row per coset.

    ``unit_orbits`` is a (cosets x order_of_two) integer array.  Row i is
    the doubling cycle of its smallest element, the i-th representative in
    increasing order, so row 0 is S_q itself.  The residues sharing a
    factor d > 1 with q are d times the unit cosets of q/d.
    """

    q: int
    unit_orbits: np.ndarray
    order_of_two: int

    @property
    def unit_representatives(self) -> list[int]:
        return self.unit_orbits[:, 0].tolist()


def coset_decomposition(q: int) -> OrbitDecomposition:
    """Decompose U_q into the cosets u*S_q with minimal representatives.

    S_q is built once; each next representative is the smallest unit not
    yet covered, so cosets come out sorted by representative.  The cosets
    cover U_q, which takes a q-entry mask, so q may be at most
    MAX_ORBIT_LENGTH.
    """
    _require_odd_modulus(q)
    if q > MAX_ORBIT_LENGTH:
        raise ValueError(f"the cosets of {q} cover more than the budget of "
                         f"MAX_ORBIT_LENGTH = {MAX_ORBIT_LENGTH} residues")
    subgroup = _doubling_cycle(1, q, q)
    free = np.ones(q, dtype=bool)   # the units: no divisor d > 1 of q divides them
    for d in divisors(q)[1:]:
        free[::d] = False
    rows = np.empty((np.count_nonzero(free) // len(subgroup), len(subgroup)), subgroup.dtype)
    rep = 1
    for row in rows:
        row[:] = rep * subgroup % q
        free[row] = False
        rep += int(np.argmax(free[rep:]))
    return OrbitDecomposition(q=q, unit_orbits=rows, order_of_two=len(subgroup))
