import contextlib
import json
import math
import os
import random
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from tmscaling.exponents import (
    FIGURE_CSV_HEADER,
    TABLE_CSV_HEADER,
    beta_rational,
    check_coset_sum_identity,
    coset_identities,
    enumerate_positive_exponents,
    figure_csv_lines,
    figure_data,
    g_closed_form,
    moebius_inverted_coset_sum,
    orbit_log_mean,
    table_csv_lines,
)
from tmscaling import cli, exponents, numtheory
from tmscaling.numtheory import coset_decomposition, doubling_orbit, mult_order_of_two
from tmscaling.riesz import log_factor_from_half_dist, running_exponent
from tmscaling.wavenumber import WaveNumber, as_wave_number

from conftest import euler_phi, is_prime
from reference_table import POSITIVE_EXPONENTS_BELOW_1000

LOG2_3_HALVES = math.log2(1.5)
BETA_ONE_FIFTH = math.log2(1.25) / 2.0
BETA_ONE_NINTH = (2.0 * math.log2(3.0) - 6.0) / 6.0  # log2(9/64) / 6


class TestWaveNumberCanonicalisation:
    def test_parse_simple(self):
        wn = WaveNumber.parse("3/17")
        assert (wn.m, wn.r, wn.q) == (3, 0, 17)

    def test_parse_reduces(self):
        assert WaveNumber.parse("3/9") == WaveNumber(m=1, r=0, q=3)

    def test_parse_splits_dyadic_part(self):
        assert WaveNumber.parse("5/12") == WaveNumber(m=5, r=2, q=3)

    def test_parse_reduces_mod_one(self):
        assert WaveNumber.parse("7/3") == WaveNumber(m=1, r=0, q=3)

    def test_parse_dyadic(self):
        wn = WaveNumber.parse("6/8")
        assert (wn.m, wn.r, wn.q) == (3, 2, 1)
        assert wn.is_dyadic

    def test_parse_rejects_garbage(self):
        for bad in ("abc", "3/0", "1/2/3", ""):
            with pytest.raises(ValueError):
                WaveNumber.parse(bad)

    def test_float_is_exact_dyadic(self):
        wn = WaveNumber.from_fraction(*(0.375).as_integer_ratio())
        assert (wn.m, wn.r, wn.q) == (3, 3, 1)

    def test_invalid_canonical_fields_rejected(self):
        with pytest.raises(ValueError):
            WaveNumber(m=2, r=1, q=3)  # even m with r > 0
        with pytest.raises(ValueError):
            WaveNumber(m=3, r=0, q=9)  # gcd(m, q) > 1
        with pytest.raises(ValueError):
            WaveNumber(m=1, r=0, q=4)  # even q

    @given(num=st.integers(-10 ** 6, 10 ** 6), den=st.integers(1, 10 ** 6),
           r=st.integers(0, 70))
    def test_str_parse_round_trip(self, num, den, r):
        wn = as_wave_number(Fraction(num, den << r))
        assert WaveNumber.parse(str(wn)) == wn
        assert as_wave_number((num, den << r)) == wn


class TestBetaRational:
    def test_one_third(self):
        res = beta_rational("1/3")
        assert res.kind == "value"
        assert res.value == pytest.approx(LOG2_3_HALVES, abs=1e-9)
        assert round(res.value, 6) == 0.584963

    def test_one_fifth_family(self):
        for r in range(4):
            for m in (1, 3, 7, 9):
                k = Fraction(m, 2 ** r * 5)
                res = beta_rational(k)
                assert res.value == pytest.approx(BETA_ONE_FIFTH, abs=1e-9), (m, r)
        assert round(beta_rational("1/5").value, 6) == 0.160964

    def test_three_seventeenths(self):
        res = beta_rational("3/17")
        assert res.value == pytest.approx(0.266, abs=5e-4)
        assert res.diagnostics["orbit_size"] == 8
        assert res.diagnostics["representative"] == 3

    def test_one_seventh(self):
        # orbit {1, 2, 4}: the factor product is 7/8, the square root of
        # the full-period product 49/64
        res = beta_rational("1/7")
        assert res.value == pytest.approx(math.log2(7.0 / 8.0) / 3.0, abs=1e-12)
        assert res.value == pytest.approx(-0.06420, abs=5e-5)

    def test_dyadic_is_extinct(self):
        for text in ("1/2", "3/8", "5/16", "0/1"):
            res = beta_rational(text)
            assert res.is_extinct
            assert res.value is None

    def test_reduction_consistency(self):
        rng = random.Random(5)
        for _ in range(50):
            q = rng.randrange(9, 1000, 2)
            p = rng.randrange(1, q)
            d = math.gcd(p, q)
            if d in (1, q):
                continue
            unreduced = orbit_log_mean(p, q)
            reduced = orbit_log_mean(p // d, q // d)
            assert unreduced == pytest.approx(reduced, abs=1e-12)

    def test_coset_independence(self):
        rng = random.Random(6)
        for _ in range(20):
            q = rng.randrange(7, 500, 2)
            p = rng.randrange(1, q)
            if math.gcd(p, q) != 1:
                continue
            base = orbit_log_mean(p, q)
            for other in ((2 * p) % q, (4 * p) % q):
                assert orbit_log_mean(other, q) == pytest.approx(base, abs=1e-12)

    @given(q=st.integers(1, 999).map(lambda i: 2 * i + 1), p=st.integers(1, 10 ** 6))
    def test_coset_rotation_is_bit_equal(self, q, p):
        # fsum is exactly rounded, so rotating the orbit cannot move a bit
        p %= q
        assume(math.gcd(p, q) == 1)
        value = orbit_log_mean(p, q)
        assert beta_rational(Fraction(p, q)).value == value
        assert beta_rational(Fraction(2 * p, q)).value == value

    def test_dyadic_prefactor_invariance(self):
        for r in range(7):
            res = beta_rational(Fraction(5, 2 ** r * 9))
            assert res.value == pytest.approx(beta_rational("5/9").value, abs=1e-12)

    def test_finite_trace_consistency(self):
        # over one orbit period the trace average equals the orbit mean
        rng = random.Random(8)
        checked = 0
        while checked < 25:
            q = rng.randrange(3, 600, 2)
            m = rng.randrange(1, q)
            if math.gcd(m, q) != 1:
                continue
            period = mult_order_of_two(q)
            if period > 60:
                continue
            beta = beta_rational(Fraction(m, q)).value
            cycles = 60 // period
            for c in (1, cycles):
                n = c * period
                assert running_exponent(Fraction(m, q), n) == pytest.approx(
                    beta, abs=1e-9)
            checked += 1


class TestGClosedForm:
    def test_q3(self):
        assert g_closed_form(3) == pytest.approx(math.log2(3.0) - 1.0, rel=1e-15)
        assert round(g_closed_form(3), 6) == 0.584963

    def test_q5(self):
        assert round(g_closed_form(5), 6) == 0.160964

    def test_q9(self):
        assert g_closed_form(9) == pytest.approx(2.0 * math.log2(9.0) / 8.0 - 1.0,
                                                 rel=1e-15)
        assert g_closed_form(9) == pytest.approx(-0.207519, abs=5e-7)

    def test_rejects_even_or_small(self):
        for bad in (1, 2, 4, 0, -3):
            with pytest.raises(ValueError):
                g_closed_form(bad)

    def test_q_beyond_the_float_range_raises_value_error(self):
        # the largest q whose q - 1 is a float keeps the closed form; past it, ValueError
        for q in (10 ** 300 + 1, 2 ** 1023 + 1, 2 ** 1024 - 2 ** 970 - 1):
            assert g_closed_form(q) == 2.0 * math.log2(q) / float(q - 1) - 1.0
        for q in (2 ** 1024 - 2 ** 970 + 1, 2 ** 1024 + 1, 10 ** 400 + 1):
            with pytest.raises(ValueError, match=r"q - 1 overflows a float: q has \d+ bits"):
                g_closed_form(q)

    def test_sign_change_after_5(self):
        assert g_closed_form(3) > 0
        assert g_closed_form(5) > 0
        assert g_closed_form(7) < 0


class TestIdentities:
    def test_coset_sum_q3_definitional(self):
        lhs, rhs = check_coset_sum_identity(3)
        assert lhs == pytest.approx(rhs, abs=1e-14)
        assert lhs == pytest.approx(LOG2_3_HALVES, abs=1e-12)

    def test_coset_sum_q9_forces_one_ninth(self):
        lhs, rhs = check_coset_sum_identity(9)
        assert abs(lhs - rhs) <= 1e-12
        # solving (1/8) * (2 g(3) + 6 beta(1/9)) = g(9) for beta(1/9)
        forced = (8.0 * g_closed_form(9) - 2.0 * g_closed_form(3)) / 6.0
        assert beta_rational("1/9").value == pytest.approx(forced, abs=1e-12)
        assert beta_rational("1/9").value == pytest.approx(-0.471680, abs=1e-6)
        assert beta_rational("1/9").value == pytest.approx(BETA_ONE_NINTH, abs=1e-12)

    def test_coset_sum_q15(self):
        lhs, rhs = check_coset_sum_identity(15)
        assert abs(lhs - rhs) <= 1e-9

    def test_moebius_q9_single_coset(self):
        lhs, rhs = moebius_inverted_coset_sum(9)
        assert lhs == pytest.approx(BETA_ONE_NINTH, abs=1e-6)
        assert rhs == pytest.approx(BETA_ONE_NINTH, abs=1e-6)
        # rhs assembles as (mu(3) * 2 * g(3) + mu(1) * 8 * g(9)) / 6
        manual = (-2.0 * g_closed_form(3) + 8.0 * g_closed_form(9)) / 6.0
        assert rhs == pytest.approx(manual, abs=1e-14)

    def test_moebius_q3(self):
        lhs, rhs = moebius_inverted_coset_sum(3)
        assert lhs == pytest.approx(g_closed_form(3), abs=1e-12)
        assert rhs == pytest.approx(g_closed_form(3), abs=1e-12)

    def test_moebius_q105(self):
        lhs, rhs = moebius_inverted_coset_sum(105)
        assert abs(lhs - rhs) <= 1e-9

    @pytest.mark.parametrize("q", list(range(3, 200, 2)))
    def test_both_identities_small_range(self, q):
        lhs, rhs = check_coset_sum_identity(q)
        assert abs(lhs - rhs) <= 1e-11
        lhs, rhs = moebius_inverted_coset_sum(q)
        assert abs(lhs - rhs) <= 1e-11

    def test_reject_even_or_small_q(self):
        for bad in (1, 2, 4, 0, -3):
            with pytest.raises(ValueError):
                check_coset_sum_identity(bad)
            with pytest.raises(ValueError):
                moebius_inverted_coset_sum(bad)

    def test_modulus_above_the_budget_raises_before_any_divisor(self, monkeypatch):
        # the cosets of 2047 are refused by the budget before divisors
        # trial-divides q, which for q = 2**61 - 1 tries about 1.5e9 candidates
        monkeypatch.setattr(numtheory, "MAX_ORBIT_LENGTH", 64)
        for identity in (check_coset_sum_identity, moebius_inverted_coset_sum):
            with mock.patch.object(exponents, "divisors", side_effect=AssertionError), \
                    pytest.raises(ValueError, match="MAX_ORBIT_LENGTH = 64"):
                identity(2047)
        # q itself is checked first, so an even q is named, not its divisor 2
        with pytest.raises(ValueError, match="got 8"):
            check_coset_sum_identity(8)

    def test_coset_identities_equal_the_per_q_checks(self):
        rows = list(coset_identities(301))
        assert [q for q, _, _ in rows] == list(range(3, 302, 2))
        for q, coset_pair, moebius_pair in rows:
            assert coset_pair == check_coset_sum_identity(q)
            assert moebius_pair == moebius_inverted_coset_sum(q)

    def test_primitive_root_consistency_sample(self):
        for q in (3, 5, 11, 13, 19, 29, 37, 53, 59, 61, 67, 83, 101):
            assert is_prime(q) and mult_order_of_two(q) == q - 1
            assert beta_rational(Fraction(1, q)).value == pytest.approx(
                g_closed_form(q), abs=1e-9)


class TestEnumeration:
    def test_prefix_below_200(self):
        expected = [(q, p, b) for q, p, b in POSITIVE_EXPONENTS_BELOW_1000 if q < 200]
        got = enumerate_positive_exponents(200)
        assert [(q, p) for q, p, _ in got] == [(q, p) for q, p, _ in expected]
        for (q, p, beta), (_, _, printed) in zip(got, expected):
            assert beta == pytest.approx(printed, abs=5e-4), (q, p)

    def test_first_entry(self):
        rows = enumerate_positive_exponents(20)
        assert len(rows) == 1
        q, p, beta = rows[0]
        assert (q, p) == (17, 3)
        assert beta == pytest.approx(0.266, abs=5e-4)

    def test_rows_are_orbit_means_of_positive_cosets(self):
        expected = []
        for q in range(7, 150, 2):
            powers = [pow(2, j, q) for j in range(mult_order_of_two(q))]
            for p in range(1, q):
                if math.gcd(p, q) == 1 and p == min(p * t % q for t in powers):
                    value = orbit_log_mean(p, q)
                    if value > 0.0:
                        expected.append((q, p, value))
        assert enumerate_positive_exponents(150) == expected

    def test_bound_guard(self):
        with pytest.raises(ValueError):
            enumerate_positive_exponents(20_000)

    def test_rows_sorted(self):
        rows = enumerate_positive_exponents(600)
        assert rows == sorted(rows, key=lambda row: (row[0], row[1]))


class TestOrbitWalks:
    """Only a single orbit is walked with ``doubling_orbit``; cosets come from S_q."""

    @pytest.fixture
    def walks(self, monkeypatch):
        calls = []

        def counted(p, q):
            calls.append((p % q, q))
            return doubling_orbit(p, q)

        monkeypatch.setattr(numtheory, "doubling_orbit", counted)
        monkeypatch.setattr(exponents, "doubling_orbit", counted)
        return calls

    def test_beta_rational(self, walks):
        beta_rational(Fraction(3, 4 * 17))
        assert walks == [(3, 17)]

    def test_enumeration(self, walks):
        enumerate_positive_exponents(60)
        assert walks == []

    @pytest.mark.parametrize("q", [3, 45, 63, 105])
    def test_identities(self, walks, q):
        check_coset_sum_identity(q)
        moebius_inverted_coset_sum(q)
        assert walks == []

    @pytest.fixture
    def decompositions(self, monkeypatch):
        calls = []

        def counted(q):
            calls.append(q)
            return coset_decomposition(q)

        monkeypatch.setattr(exponents, "coset_decomposition", counted)
        return calls

    def test_identities_command_decomposes_each_divisor_once(self, decompositions, capsys):
        argv = ["identities", "--qmax", "105", "--qsum-max", "10"]
        assert cli.main(argv) == 0
        assert decompositions == list(range(3, 106, 2))
        # nothing is kept between calls: a second pass decomposes as often
        assert cli.main(argv) == 0
        assert decompositions == 2 * list(range(3, 106, 2))


def scalar_orbit_mean(p: int, q: int) -> float:
    """The orbit average one residue at a time: the reference for the array kernel."""
    orbit = doubling_orbit(p, q)
    return math.fsum(
        log_factor_from_half_dist(min(n, q - n) / q) for n in orbit
    ) / len(orbit)


@contextlib.contextmanager
def sliced(step):
    """``numtheory._STEP`` patched to ``step``; yields the residues passed to libm, per ``_log_terms`` call."""
    sizes = []
    log_terms = exponents._log_terms

    def counted(residues, q):
        sizes.append(len(residues))
        return log_terms(residues, q)

    with mock.patch.object(numtheory, "_STEP", step), \
            mock.patch.object(exponents, "_log_terms", counted):
        yield sizes


@pytest.fixture
def terms():
    """Number of residues passed to libm, per ``_log_terms`` call."""
    with sliced(numtheory._STEP) as sizes:
        yield sizes


def assert_sliced(terms, count, step):
    """``count`` terms went to libm in ceil(count / step) calls of at most ``step`` residues."""
    assert sum(terms) == count
    assert max(terms) <= step and len(terms) == -(-count // step)


STEPS = [1, 2, 3, 7, numtheory._STEP]


class TestArrayKernel:
    """The array pass is bit-equal to the scalar formula (compared with ==)."""

    # fsum rounds once, so the slices that feed it do not change a bit
    @given(q=st.integers(1, 2499).map(lambda i: 2 * i + 1), p=st.integers(1, 10 ** 6),
           step=st.sampled_from(STEPS))
    def test_orbit_mean_is_bit_equal_to_scalar_formula(self, q, p, step):
        assume(p % q)
        expected = scalar_orbit_mean(p, q)
        orbit = doubling_orbit(p, q)
        with sliced(step) as terms:
            assert orbit_log_mean(p, q) == expected
        mirrored = (q - p) % q in orbit
        assert_sliced(terms, len(orbit) // 2 if mirrored else len(orbit), step)

    # short orbits: 2**n -/+ 1 has the orbit of 1 of length n or 2n.  Moduli
    # from 2**53 take the object-array path; as int64 (converted to float64
    # by the division) the orbit of 7 mod 2**53 + 1 would change bits
    @pytest.mark.parametrize("q", [2**53 - 1, 2**53 + 1, 2**61 - 1, 2**64 + 1, 2**89 - 1])
    @pytest.mark.parametrize("p", [1, 3, 7, 2**40 + 5])
    def test_large_moduli_are_bit_equal_to_scalar_formula(self, q, p):
        expected = scalar_orbit_mean(p, q)
        assert orbit_log_mean(p, q) == expected
        result = beta_rational(Fraction(p, q))
        assert result.value == expected
        orbit = doubling_orbit(p, q)
        assert result.diagnostics["min_half_dist"] == min(min(n, q - n) for n in orbit) / q

    @pytest.mark.parametrize("q", [3, 7, 9, 15, 17, 45, 63, 105, 127, 341, 1023, 3003])
    def test_coset_means_equal_per_orbit_means(self, q):
        cosets = coset_decomposition(q)
        assert exponents._coset_means(cosets, q) == [
            scalar_orbit_mean(orbit[0], q) for orbit in cosets]

    @given(q=st.integers(1, 2000).map(lambda i: 2 * i + 1))
    def test_coset_means_equal_per_orbit_means_for_any_q(self, q):
        cosets = coset_decomposition(q)
        assert exponents._coset_means(cosets, q) == [
            scalar_orbit_mean(orbit[0], q) for orbit in cosets]

    # -1 lies in S_q for 9 = 2**3 + 1, 2**53 + 1 and 2**64 + 1 (the last two on
    # the object-array path), not for 7: S_7 = {1, 2, 4}
    @pytest.mark.parametrize("q, mirrored", [(7, False), (9, True),
                                             (2**53 + 1, True), (2**64 + 1, True)])
    @pytest.mark.parametrize("p", [1, 3])
    def test_mirrored_orbits_take_half_the_terms(self, terms, q, mirrored, p):
        orbit = doubling_orbit(p, q)
        assert ((q - p) % q in orbit) == mirrored
        assert orbit_log_mean(p, q) == scalar_orbit_mean(p, q)
        assert terms == [len(orbit) // 2 if mirrored else len(orbit)]

    @pytest.mark.parametrize("q, mirrored", [(7, False), (9, True),
                                             (2**53 + 1, True), (2**64 + 1, True)])
    @pytest.mark.parametrize("p", [1, 3])
    @pytest.mark.parametrize("step", STEPS)
    def test_mirrored_orbits_take_half_the_terms_in_slices(self, q, mirrored, p, step):
        orbit = doubling_orbit(p, q)
        assert ((q - p) % q in orbit) == mirrored
        expected = scalar_orbit_mean(p, q)
        with sliced(step) as terms:
            assert orbit_log_mean(p, q) == expected
        assert_sliced(terms, len(orbit) // 2 if mirrored else len(orbit), step)

    @pytest.mark.parametrize("q", [7, 9, 15, 341])
    def test_coset_means_take_one_term_per_half_distance(self, terms, q):
        exponents._coset_means(coset_decomposition(q), q)
        units = [n for n in range(1, q) if math.gcd(n, q) == 1]
        assert terms == [len(units) // 2]

    def test_a_million_residue_orbit_keeps_its_bits(self):
        assert beta_rational(Fraction(1, 1000003)).value.hex() == "-0x1.fffac66adead7p-1"

    # 2 generates U_q for the prime q = 262147 and -1 lies in S_q, so the mean
    # takes 131073 terms: 9 slices of 2**14.  Two lists of all of them would
    # take 8.4 MB on their own
    def test_the_mean_holds_one_slice_of_floats(self):
        with mock.patch.object(numtheory, "_STEP", 2**14):
            tracemalloc.start()
            try:
                result = beta_rational(Fraction(1, 262147))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert result.diagnostics["orbit_size"] == 262146
        assert peak < 6e6


class TestScreen:
    """``table`` sends to libm only the cosets whose numpy estimate may be positive."""

    def test_rows_equal_the_unscreened_positive_coset_means(self):
        expected = []
        for q in range(7, 1500, 2):
            cosets = coset_decomposition(q)
            expected += [(q, p, value.hex())
                         for p, value in zip(cosets[:, 0].tolist(), exponents._coset_means(cosets, q))
                         if value > 0.0]
        got = [(q, p, value.hex()) for q, p, value in enumerate_positive_exponents(1500)]
        assert got == expected

    def test_estimates_are_far_closer_than_the_margin(self):
        worst = 0.0
        for q in range(3, 1500, 2):
            cosets = coset_decomposition(q)
            screened = exponents._screen_means(cosets, q)
            worst = max(worst, np.max(np.abs(screened - exponents._coset_means(cosets, q))))
        assert worst < exponents._SCREEN_MARGIN / 1000

    # TestSignCertificate.NEAR_ZERO: the cosets with q < 10**4 closest to 0
    @pytest.mark.parametrize("q, p", [(1285, 129), (5461, 537), (4097, 411)])
    def test_near_zero_cosets(self, q, p):
        cosets = coset_decomposition(q)
        row = cosets[:, 0].tolist().index(p)
        exact = exponents._coset_means(cosets, q)[row]
        assert abs(exponents._screen_means(cosets, q)[row] - exact) < exponents._SCREEN_MARGIN / 1000
        listed = [(rep, value) for _, rep, value in exponents._positive_rows(q)]
        assert ((p, exact) in listed) == (exact > 0.0) == (q == 4097)

    def test_libm_takes_under_five_percent_of_the_unscreened_terms(self, terms, monkeypatch):
        monkeypatch.setattr(exponents, "_cpus", lambda: 1)     # a forked child's calls go uncounted
        enumerate_positive_exponents(1000)
        # unscreened, each q sends one term per half-distance of its units
        unscreened = sum(euler_phi(q) // 2 for q in range(7, 1000, 2))
        assert sum(terms) < 0.05 * unscreened


class TestOrbitArrays:
    def test_json_dict_lists_the_orbit(self, capsys):
        result = beta_rational("1/65539")
        walk = [1]
        while 2 * walk[-1] % 65539 != 1:
            walk.append(2 * walk[-1] % 65539)
        assert cli.main(["exponent", "--k", "1/65539", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["diagnostics"]["orbit"] == walk
        assert payload["diagnostics"]["representative"] == 1
        assert isinstance(result.diagnostics["orbit"], np.ndarray)

    # int64 below 2**31, object arrays from 2**31 + 1 on (3 divides 2**31 + 1)
    @pytest.mark.parametrize("p, q", [(3, 7), (1, 2**31 + 1), (3, 2**32 + 1), (3, 2**61 - 1)])
    def test_diagnostics_match_the_list_walk(self, p, q):
        d = beta_rational(Fraction(p, q)).diagnostics
        assert d["q"] == q
        walk = d["orbit"].tolist()
        assert d["representative"] == min(walk)
        assert type(d["representative"]) is int
        assert d["min_half_dist"] == min(min(n, q - n) for n in walk) / q


class TestFigureData:
    def test_q3_row(self):
        rows = figure_data(5)
        assert rows[0][0] == 3
        assert rows[0][1] == pytest.approx(0.584963, abs=5e-7)
        assert rows[0][2] == pytest.approx(0.584963, abs=5e-7)

    def test_negative_beyond_5(self):
        for q, beta, _ in figure_data(120):
            if q >= 7:
                assert beta < 0.0, q

    def test_near_dyadic_q_dip_low(self):
        # q = 2^r - 1: the orbit of 1 is {1, 2, ..., 2^(r-1)}, dominated
        # by factors close to the singularity at 0
        rows = {q: beta for q, beta, _ in figure_data(1050)}
        for r in range(5, 11):
            assert rows[2 ** r - 1] < -0.5

    def test_matches_closed_form_exactly_when_plus_minus_two_generate_the_units(self):
        # beta(1/q) averages the terms over S_q, and term(n) = term(q - n), so
        # it is the average over <2, -1>; g(q) is the average over all
        # 0 < n < q, which are the units only for prime q
        def plus_minus_powers(q):
            found, x = set(), 1
            while not found or x != 1:
                found |= {x, q - x}
                x = 2 * x % q
            return found

        matches = [q for q, beta, g in figure_data(5000) if abs(beta - g) <= 1e-12]
        assert matches == [q for q in range(3, 5000, 2)
                           if is_prime(q) and len(plus_minus_powers(q)) == q - 1]
        assert len(matches) == 383
        # 7 and 23: 2 is not a primitive root, but -2 is
        assert {7, 23, 47, 71} <= set(matches)

    def test_csv_emitters(self):
        lines = figure_csv_lines(figure_data(8))
        assert lines[0] == FIGURE_CSV_HEADER
        assert lines[1].startswith("3,0.584963,0.584963")
        table_lines = table_csv_lines(enumerate_positive_exponents(20))
        assert table_lines[0] == TABLE_CSV_HEADER
        assert table_lines[1] == "17,3,0.266441"


class TestSignCertificate:
    """A row enters the table when its double-precision mean is > 0; certify the signs.

    A priori error bound, for odd q < 2**53, u = 2**-53, and libm sin and
    log2 within one ulp (relative error 2u).  A term is t = 1 + 2 L with
    L = log2 sin(a), a = pi m/q, 0 < m <= q/2:
    - m/q, fl(pi) and their product each round once: a is off by <= 3.01u
      relative, and since a cot(a) <= 1 on (0, pi/2] so is sin(a); libm adds
      2u, so log2 sees sin(a)(1 + eta) with |eta| <= 5.01u, which moves L by
      <= 7.3u; libm log2 adds 2u |L|;
    - 2 L is exact and 1 + 2 L rounds once: |t' - t| <= 14.6u + 4u |L| + u |t'|.
    sin(a) >= 2m/q >= 2/q gives |L| <= log2(q) and |t| <= 2 log2(q), so each
    term is off by <= u (15 + 7 log2 q).  The fsum of the terms and the
    division by the orbit length round once each, relative u, on a mean of
    size <= 2 log2(q): the mean is off by at most u (16 + 12 log2 q).
    """

    #: the unit cosets with q < 10**4 whose means lie closest to 0
    NEAR_ZERO = {(1285, 129): -1.73e-4, (5461, 537): -3.99e-4, (4097, 411): 8.14e-4}

    @staticmethod
    def bound(q: int) -> float:
        return 2.0 ** -53 * (16.0 + 12.0 * math.log2(q))

    def test_margins_dwarf_the_rounding_bound(self):
        mpmath = pytest.importorskip("mpmath")
        rows = [(q, p) for q, p, _ in POSITIVE_EXPONENTS_BELOW_1000] + list(self.NEAR_ZERO)
        assert len(rows) == 102 + 3
        with mpmath.workdps(40):
            for q, p in rows:
                orbit = doubling_orbit(p, q)
                exact = mpmath.fsum(2 * mpmath.log(mpmath.sin(mpmath.pi * n / q), 2) + 1
                                    for n in orbit) / len(orbit)
                value = orbit_log_mean(p, q)
                assert abs(value - exact) <= self.bound(q), (q, p)
                assert abs(exact) > 1e6 * self.bound(q), (q, p)
                assert (value > 0.0) == (exact > 0), (q, p)
        for (q, p), rounded in self.NEAR_ZERO.items():
            assert orbit_log_mean(p, q) == pytest.approx(rounded, abs=5e-7), (q, p)


@pytest.mark.parametrize("enumerate_up_to", [figure_data, enumerate_positive_exponents])
def test_bounds_above_the_enumeration_cap_are_refused(enumerate_up_to):
    with pytest.raises(ValueError, match="q_max capped at 10000, got 10001"):
        enumerate_up_to(10001)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestFanOut:
    """``_fan_out`` runs strided shares of a per-q loop in forked children, keeping every bit."""

    @pytest.fixture
    def forks(self, monkeypatch):
        """The calls of ``os.fork``; a share may be as small as 16 items."""
        calls = []
        fork = os.fork

        def counted():
            calls.append(1)
            return fork()

        monkeypatch.setattr(os, "fork", counted)
        monkeypatch.setattr(exponents, "_MIN_SHARE", 16)
        return calls

    @staticmethod
    def cpus(monkeypatch, n):
        monkeypatch.setattr(exponents, "_cpus", lambda: n)

    def outputs(self, capsys):
        results = []
        for call in (lambda: figure_data(1201), lambda: enumerate_positive_exponents(1201),
                     lambda: list(coset_identities(301)),
                     lambda: cli.main(["identities", "--qmax", "301", "--qsum-max", "400"])
                     or capsys.readouterr().out):
            results.append(repr(call()))   # repr spells every float exactly
            assert_no_child_left()
        return results

    def test_one_and_three_shares_agree_bit_for_bit(self, forks, monkeypatch, capsys):
        self.cpus(monkeypatch, 1)
        expected = self.outputs(capsys)
        assert forks == []
        self.cpus(monkeypatch, 3)
        assert self.outputs(capsys) == expected
        # two children for figure, table and the cosets, and for the identities command's two loops
        assert len(forks) == 2 * 5
        assert "status = ok" in expected[-1]

    def test_an_error_in_the_callers_share_propagates(self, forks, monkeypatch):
        self.cpus(monkeypatch, 3)
        parent = os.getpid()

        def fn(x):
            if x == 30 and os.getpid() == parent:
                raise ValueError("share 0 fails")
            return x * x

        with pytest.raises(ValueError, match="share 0 fails"):
            exponents._fan_out(fn, range(60))
        assert_no_child_left()

    @pytest.mark.parametrize("fail", [lambda: os._exit(1), lambda: 1 / 0])
    def test_a_failing_child_is_recomputed_here(self, forks, monkeypatch, fail):
        self.cpus(monkeypatch, 3)
        parent = os.getpid()

        def fn(x):
            if os.getpid() != parent:
                fail()
            return x * x

        assert exponents._fan_out(fn, range(60)) == [x * x for x in range(60)]
        assert len(forks) == 2
        assert_no_child_left()

    def test_small_inputs_never_fork(self, monkeypatch):
        self.cpus(monkeypatch, 3)
        monkeypatch.setattr(os, "fork", mock.Mock(side_effect=AssertionError))
        rows = figure_data(2 * 2 * exponents._MIN_SHARE)   # one item short of two shares
        assert [q for q, _, _ in rows] == list(range(3, 4 * exponents._MIN_SHARE, 2))

    @pytest.mark.parametrize("call", ["pipe", "fork"])
    def test_a_refused_fork_or_pipe_runs_the_shares_here(self, forks, monkeypatch, call):
        self.cpus(monkeypatch, 3)
        monkeypatch.setattr(os, call, mock.Mock(side_effect=OSError("refused")))
        assert exponents._fan_out(abs, range(-30, 30)) == [abs(x) for x in range(-30, 30)]
        assert_no_child_left()
