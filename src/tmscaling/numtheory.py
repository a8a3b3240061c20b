"""Integer arithmetic for doubling orbits modulo odd q.

The multiplicative structure behind rational wave numbers: the unit group
U_q of residues coprime to q, the cyclic subgroup S_q generated by 2, and
the partition of {1, ..., q-1} into orbits of n -> 2n (mod q).  Everything
here is exact integer work, and residues are always reduced before
doubling.  A single orbit may have up to MAX_ORBIT_LENGTH residues (the
modulus itself may be any size); a longer one raises ValueError rather
than growing without limit.  Enumerations walk every q up to 10**4, where
trial division is plenty.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

#: longest doubling orbit that ``doubling_orbit`` and ``mult_order_of_two``
#: walk; as a list of Python ints an orbit this long takes about 150 MB
MAX_ORBIT_LENGTH = 2**22


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


def _over_budget(start: int, q: int) -> ValueError:
    return ValueError(f"the doubling orbit of {start} mod {q} is longer than "
                      f"the budget of MAX_ORBIT_LENGTH = {MAX_ORBIT_LENGTH} residues")


def mult_order_of_two(q: int) -> int:
    """Multiplicative order of 2 mod q: smallest n >= 1 with 2**n = 1 (mod q).

    This is the length of the doubling orbit of 1; raises ValueError once
    it passes MAX_ORBIT_LENGTH residues.
    """
    _require_odd_modulus(q)
    x = 2
    for order in range(1, MAX_ORBIT_LENGTH + 1):
        if x == 1:
            return order
        x = (2 * x) % q
    raise _over_budget(1, q)


def doubling_orbit(p: int, q: int) -> list[int]:
    """Cycle of p under n -> 2n (mod q), listed in orbit order from p.

    Doubling is a bijection on Z/qZ for odd q, so every residue lies on a
    pure cycle.  The orbit of a unit p is the coset p*S_q; for
    gcd(p, q) = d > 1 it is d times the orbit of p/d modulo q/d.  Raises
    ValueError once the orbit passes MAX_ORBIT_LENGTH residues.
    """
    _require_odd_modulus(q)
    start = p % q
    if start == 0:
        raise ValueError(f"p must not be divisible by q (p={p}, q={q})")
    orbit = [start]
    x = (2 * start) % q
    for _ in itertools.repeat(None, MAX_ORBIT_LENGTH):
        if x == start:
            return orbit
        orbit.append(x)
        x = (2 * x) % q
    raise _over_budget(start, q)


@dataclass(frozen=True)
class OrbitDecomposition:
    """Partition of {1, ..., q-1} into doubling orbits.

    Orbits are listed with ascending representatives, each orbit starting
    at its smallest element.  ``unit_orbits`` is the sub-list of orbits
    inside the unit group U_q; these are exactly the cosets of S_q, so
    they all have length ``order_of_two``.
    """

    q: int
    orbits: list[list[int]]
    unit_orbits: list[list[int]]
    order_of_two: int

    @property
    def representatives(self) -> list[int]:
        return [orbit[0] for orbit in self.orbits]

    @property
    def unit_representatives(self) -> list[int]:
        return [orbit[0] for orbit in self.unit_orbits]


def coset_decomposition(q: int) -> OrbitDecomposition:
    """Decompose {1, ..., q-1} into doubling orbits with minimal representatives.

    Residues are scanned in increasing order, so the first unseen element
    of each orbit is its minimum and orbits come out sorted by
    representative.
    """
    _require_odd_modulus(q)
    seen = bytearray(q)
    orbits: list[list[int]] = []
    unit_orbits: list[list[int]] = []
    for p in range(1, q):
        if seen[p]:
            continue
        orbit = doubling_orbit(p, q)
        for x in orbit:
            seen[x] = 1
        orbits.append(orbit)
        if math.gcd(p, q) == 1:
            unit_orbits.append(orbit)
    return OrbitDecomposition(
        q=q,
        orbits=orbits,
        unit_orbits=unit_orbits,
        order_of_two=len(unit_orbits[0]),
    )
