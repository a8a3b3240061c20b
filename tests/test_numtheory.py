import math
import random
import time
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tmscaling import numtheory
from tmscaling.numtheory import (
    coset_decomposition,
    divisors,
    doubling_orbit,
    moebius,
    mult_order_of_two,
)

from conftest import brute_divisors, brute_prime_factors, euler_phi


def test_divisors_unit():
    assert divisors(1) == [1]


def test_divisors_prime_power():
    assert divisors(9) == [1, 3, 9]


def test_divisors_squarefree_composite():
    # frozen from the trial-division oracle
    assert divisors(105) == [1, 3, 5, 7, 15, 21, 35, 105]


@pytest.mark.parametrize("n", [2, 12, 64, 97, 360, 1001, 4096])
def test_divisors_against_brute_force(n):
    assert divisors(n) == brute_divisors(n)


def test_divisors_rejects_nonpositive():
    with pytest.raises(ValueError):
        divisors(0)


@pytest.mark.parametrize("call", [divisors, moebius])
def test_trial_division_refuses_past_its_budget(call, monkeypatch):
    # sqrt(2**61 - 1) is about 1.5e9 candidates; the budget is MAX_ORBIT_LENGTH of them
    start = time.perf_counter()
    with pytest.raises(ValueError, match=r"MAX_ORBIT_LENGTH\*\*2 = 17592186044416"):
        call(2**61 - 1)
    assert time.perf_counter() - start < 0.1
    monkeypatch.setattr(numtheory, "MAX_ORBIT_LENGTH", 10)
    assert call(100) == {divisors: [1, 2, 4, 5, 10, 20, 25, 50, 100], moebius: 0}[call]
    with pytest.raises(ValueError, match="MAX_ORBIT_LENGTH = 10 candidates"):
        call(101)


def test_moebius_small_values():
    assert moebius(1) == 1
    assert moebius(9) == 0  # square factor
    assert moebius(105) == -1  # 3 * 5 * 7


@pytest.mark.parametrize("n", list(range(1, 200)))
def test_moebius_against_factorisation(n):
    factors = brute_prime_factors(n)
    if len(set(factors)) != len(factors):
        assert moebius(n) == 0
    else:
        assert moebius(n) == (-1) ** len(factors)


@pytest.mark.parametrize("q", list(range(2, 300)))
def test_moebius_divisor_sum(q):
    assert sum(moebius(d) for d in divisors(q)) == 0
    assert sum(moebius(d) for d in divisors(1)) == 1


@pytest.mark.parametrize("q,expected", [(3, 2), (9, 6), (17, 8)])
def test_mult_order_of_two_known(q, expected):
    # frozen from a direct cycle search
    assert mult_order_of_two(q) == expected


@pytest.mark.parametrize("q", list(range(3, 400, 2)))
def test_mult_order_is_minimal(q):
    order = mult_order_of_two(q)
    assert pow(2, order, q) == 1
    assert all(pow(2, j, q) != 1 for j in range(1, order))


@pytest.mark.parametrize("bad", [2, 1, 0, -3, 10])
def test_mult_order_rejects_bad_modulus(bad):
    with pytest.raises(ValueError):
        mult_order_of_two(bad)


def test_doubling_orbit_examples():
    assert doubling_orbit(1, 7).tolist() == [1, 2, 4]
    assert doubling_orbit(3, 7).tolist() == [3, 6, 5]
    # gcd(3, 9) = 3: orbit shorter than the order of 2 mod 9
    assert doubling_orbit(3, 9).tolist() == [3, 6]


@pytest.mark.parametrize("q, dtype", [(7, np.int64), (2**31 - 1, np.int64),
                                      (2**31 + 1, object), (2**61 - 1, object)])
def test_doubling_orbit_is_an_array_of_the_kernel_dtype(q, dtype):
    # 2**n -/+ 1: the orbit of 1 is short on both sides of the dtype switch
    orbit = doubling_orbit(1, q)
    assert isinstance(orbit, np.ndarray) and orbit.dtype == dtype
    assert orbit.tolist() == plain_cycle(1, q, q)


# the orbit of 1 closes inside the last doubled block: 2097159 residues of a
# 2**22-residue buffer for 4194319, 1048578 of 2**21 for 5242891, 200 of 256
# (Python ints) for 2**100 + 1; the orbit must not keep the rest of it alive
@pytest.mark.parametrize("q", [4194319, 5242891, 2**100 + 1])
def test_doubling_orbit_holds_no_memory_beyond_its_residues(q):
    tracemalloc.start()
    try:
        orbit = doubling_orbit(1, q)
        held = tracemalloc.take_snapshot().filter_traces(
            [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)])
    finally:
        tracemalloc.stop()
    assert len(orbit) == mult_order_of_two(q)
    assert sum(stat.size for stat in held.statistics("filename")) <= orbit.nbytes


# the orbit grows in one buffer: a second, longer copy held in the last doubling
# round would peak near 1.5 to 2 times orbit.nbytes; the 2 MB above the orbit
# leave room for a few _STEP-residue temporaries of the block step
@pytest.mark.parametrize("q", [1000003, 4194187])
def test_doubling_orbit_peaks_near_its_own_size(q):
    tracemalloc.start()
    try:
        orbit = doubling_orbit(1, q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(orbit) == q - 1      # 2 is a primitive root of both primes
    assert peak <= orbit.nbytes + 2 * 2**20


def test_doubling_orbit_rejects_multiple_of_q():
    with pytest.raises(ValueError):
        doubling_orbit(0, 7)
    with pytest.raises(ValueError):
        doubling_orbit(14, 7)


def test_orbit_length_equals_order_for_units():
    rng = random.Random(1)
    for _ in range(100):
        q = rng.randrange(3, 1000, 2)
        p = rng.randrange(1, q)
        if math.gcd(p, q) != 1:
            continue
        assert len(doubling_orbit(p, q)) == mult_order_of_two(q)


def test_coset_decomposition_q7():
    cosets = coset_decomposition(7)
    assert cosets.tolist() == [[1, 2, 4], [3, 6, 5]]
    assert cosets[:, 0].tolist() == [1, 3]
    assert cosets.shape[1] == 3


def test_coset_decomposition_q9():
    cosets = coset_decomposition(9)
    assert cosets.tolist() == [[1, 2, 4, 8, 7, 5]]
    # the non-units {3, 6} form the orbit 3 * S_3, outside the decomposition
    assert sorted(doubling_orbit(3, 9)) == [3, 6]
    assert cosets.shape[1] == 6


def test_coset_decomposition_q17():
    cosets = coset_decomposition(17)
    assert cosets[:, 0].tolist() == [1, 3]
    assert all(len(o) == 8 for o in cosets)


def test_coset_decomposition_rejects_even():
    with pytest.raises(ValueError):
        coset_decomposition(8)


@pytest.mark.parametrize("q", list(range(3, 402, 2)))
def test_decomposition_invariants(q):
    cosets = coset_decomposition(q)
    rows = cosets.tolist()
    # the rows partition the unit group U_q
    units = [x for x in range(1, q) if math.gcd(x, q) == 1]
    assert sorted(x for row in rows for x in row) == units
    for row in rows:
        # full doubling cycle starting at the minimum
        assert row[0] == min(row)
        for i, x in enumerate(row):
            assert row[(i + 1) % len(row)] == (2 * x) % q
    # row 0 is the subgroup generated by 2
    assert rows[0] == [pow(2, j, q) for j in range(mult_order_of_two(q))]
    # cosets have equal cardinality and exhaust the unit group
    assert all(len(row) == cosets.shape[1] for row in rows)
    assert len(rows) * cosets.shape[1] == euler_phi(q)
    # deterministic ordering by representative
    reps = cosets[:, 0].tolist()
    assert reps == sorted(reps)
    # the non-units: d times the unit cosets of q/d, each a doubling orbit mod q
    rest = []
    for d in divisors(q)[1:-1]:
        for row in coset_decomposition(q // d).tolist():
            orbit = [d * x for x in row]
            assert orbit == doubling_orbit(orbit[0], q).tolist()
            rest += orbit
    assert sorted(rest + units) == list(range(1, q))


def test_totient_sum_up_to_2000():
    for q in range(3, 2001, 2):
        cosets = coset_decomposition(q)
        assert sum(len(o) for o in cosets) == euler_phi(q)


def test_orbit_longer_than_the_budget_raises(monkeypatch):
    # the orbit of 1 mod 2**7 - 1 has 7 residues, that of 1 mod 2**8 + 1 has 16
    monkeypatch.setattr(numtheory, "MAX_ORBIT_LENGTH", 7)
    assert doubling_orbit(1, 127).tolist() == [1, 2, 4, 8, 16, 32, 64]
    with pytest.raises(ValueError, match="MAX_ORBIT_LENGTH = 7"):
        doubling_orbit(1, 257)
    with pytest.raises(ValueError, match="MAX_ORBIT_LENGTH = 7"):
        coset_decomposition(257)
    assert mult_order_of_two(127) == 7
    with pytest.raises(ValueError, match="MAX_ORBIT_LENGTH = 7"):
        mult_order_of_two(257)


def test_modulus_above_the_budget_raises_before_walking(monkeypatch):
    # 2 has order 11 mod 2047, within the budget, but the unit mask would
    # take 2047 entries; q is refused before the subgroup or the mask is built
    monkeypatch.setattr(numtheory, "MAX_ORBIT_LENGTH", 64)
    assert mult_order_of_two(2047) == 11
    with mock.patch.object(numtheory, "_doubling_cycle", side_effect=AssertionError), \
            pytest.raises(ValueError, match="MAX_ORBIT_LENGTH = 64"):
        coset_decomposition(2047)
    assert coset_decomposition(63).shape[1] == 6


def plain_cycle(p: int, q: int, limit: int) -> list[int]:
    """p, 2p, 4p, ... (mod q) one doubling at a time, until p returns or ``limit`` residues."""
    out = [p % q]
    while len(out) < limit and 2 * out[-1] % q != out[0]:
        out.append(2 * out[-1] % q)
    return out


ODD = st.integers(0, 2 ** 62).map(lambda i: 2 * i + 1)
# 2**n -/+ 1: the orbit of 1 closes after n or 2n residues, on both sides of
# the int64 / object dtype switch at 2**31 and of float64's 2**53
MODULI = st.one_of(st.integers(1, 2000).map(lambda i: 2 * i + 1), ODD,
                   st.sampled_from([2**31 - 1, 2**31 + 1, 2**53 - 1, 2**53 + 1]))


@settings(max_examples=300, deadline=None)
@given(q=MODULI, shared=st.integers(0, 60).map(lambda i: 2 * i + 1),
       p=st.integers(0, 2 ** 72), limit=st.integers(1, 300), step=st.integers(1, 9),
       head=st.integers(1, 80))
def test_doubling_cycle_is_the_plain_walk(q, shared, p, limit, step, head):
    # shared * q stays below 2**70; p * shared has gcd >= shared with it
    q, p = q * shared, p * shared
    with mock.patch.object(numtheory, "_STEP", step), mock.patch.object(numtheory, "_HEAD", head):
        got = numtheory._doubling_cycle(p, q, limit)
    assert got.tolist() == plain_cycle(p, q, limit)


# residues below and above the int64 / object switch at 2**53, and moduli
# beyond the float range, where only Python's int / int rounds once
@settings(max_examples=200, deadline=None)
@given(q=st.one_of(st.integers(1, 2**53 - 1), st.integers(2**53, 2**70),
                   st.integers(2**1100, 2**1100 + 2**80)),
       picks=st.lists(st.integers(0, 2**1200), max_size=20))
def test_exact_quotients_round_each_fraction_once(q, picks):
    nums = [p % (q + 1) for p in picks] + [0, q, q // 2, q - 1]
    value, half = numtheory.exact_quotients(nums, q)
    assert value.dtype == half.dtype == np.float64
    assert value.tolist() == [float(Fraction(n, q)) for n in nums]
    assert half.tolist() == [float(Fraction(min(n, q - n), q)) for n in nums]


def test_exact_quotients_keep_the_shape_of_a_residue_table():
    rows = coset_decomposition(9)
    value, half = numtheory.exact_quotients(rows, 9)
    assert value.shape == half.shape == rows.shape
    assert half[0].tolist() == [1 / 9, 2 / 9, 4 / 9, 1 / 9, 2 / 9, 4 / 9]


@pytest.mark.parametrize("n", [0, -3])
def test_moebius_refuses_non_positive_n(n):
    with pytest.raises(ValueError, match=f"n must be positive, got {n}"):
        moebius(n)
