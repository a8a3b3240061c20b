import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from tmscaling.riesz import (
    RieszTrace,
    check_log_integral,
    check_qsum,
    interval_mass,
    log_factor,
    partial_product_log,
    running_exponent,
    trace,
)
from tmscaling.serialize import format_float
from tmscaling.tmcore import exp_sum_recursive

from conftest import log2_factor_oracle

LOG2_3_HALVES = math.log2(1.5)
NEG_INF = float("-inf")


class TestLogFactor:
    def test_at_one_half(self):
        assert log_factor(0.5) == pytest.approx(1.0, abs=1e-15)

    def test_at_one_third(self):
        assert log_factor(1 / 3) == pytest.approx(0.584963, abs=5e-7)
        assert log_factor(1 / 3) == pytest.approx(LOG2_3_HALVES, rel=1e-14)

    def test_at_one_quarter(self):
        assert log_factor(0.25) == pytest.approx(0.0, abs=1e-15)

    def test_singular_endpoints(self):
        assert log_factor(0.0) == NEG_INF
        assert log_factor(1.0) == NEG_INF

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            log_factor(-0.1)
        with pytest.raises(ValueError):
            log_factor(1.1)

    def test_matches_naive_formula_away_from_singularities(self):
        rng = random.Random(2)
        for _ in range(200):
            x = 0.05 + 0.9 * rng.random()
            assert log_factor(x) == pytest.approx(log2_factor_oracle(x), rel=1e-12)

    def test_symmetry(self):
        for x in (0.01, 0.123, 0.4999, 0.77):
            assert log_factor(x) == pytest.approx(log_factor(1.0 - x), rel=1e-15)


class TestPartialProductLog:
    def test_one_third(self):
        assert partial_product_log(Fraction(1, 3), 10) == pytest.approx(
            10 * LOG2_3_HALVES, rel=1e-13)

    def test_dyadic_extinction(self):
        assert partial_product_log(Fraction(1, 4), 2) != NEG_INF
        for n in (3, 4, 10):
            assert partial_product_log(Fraction(1, 4), n) == NEG_INF

    def test_one_fifth_over_one_period(self):
        # orbit of 1 mod 5 is {1, 2, 4, 3}; the factor product over one
        # period is 25/16 (brute product oracle), i.e. 2*log2(5/4)
        brute = math.fsum(
            math.log2(1.0 - math.cos(2.0 * math.pi * m / 5)) for m in (1, 2, 4, 3)
        )
        assert brute == pytest.approx(2 * math.log2(1.25), rel=1e-12)
        assert partial_product_log(Fraction(1, 5), 4) == pytest.approx(brute, rel=1e-12)

    def test_level_zero_is_empty_product(self):
        assert partial_product_log(Fraction(3, 7), 0) == 0.0

    def test_periodicity_mod_one(self):
        assert partial_product_log(Fraction(7, 3), 12) == partial_product_log(
            Fraction(1, 3), 12)

    def test_monotone_level_identity(self):
        rng = random.Random(3)
        for _ in range(30):
            q = rng.randrange(3, 500, 2)
            m = rng.randrange(1, q)
            k = Fraction(m, q)
            n = rng.randrange(0, 40)
            lhs = partial_product_log(k, n + 1) - partial_product_log(k, n)
            step = log_factor((2 ** n * m % q) / q)
            assert lhs == pytest.approx(step, rel=1e-9, abs=1e-12)

    def test_agrees_with_exponential_sum(self):
        rng = random.Random(4)
        for _ in range(25):
            q = rng.randrange(3, 999, 2)
            m = rng.randrange(1, q)
            n = rng.randrange(1, 15)
            k = Fraction(m, q)
            product = 2.0 ** n * 2.0 ** partial_product_log(k, n)
            gsq = exp_sum_recursive(n, k).magnitude_sq
            assert gsq == pytest.approx(product, rel=1e-8)


class TestRunningExponent:
    def test_constant_for_one_third(self):
        for n in (1, 2, 7, 40):
            assert running_exponent(Fraction(1, 3), n) == pytest.approx(
                LOG2_3_HALVES, rel=1e-13)

    def test_dyadic_is_neg_inf(self):
        for n in (4, 5, 20):
            assert running_exponent(Fraction(3, 8), n) == NEG_INF

    def test_one_ninth_at_orbit_multiples(self):
        # splitting the full factor sum over m/9 into the unit orbit and
        # the non-unit orbit {3, 6} gives log2(9/64)/6 for the unit part
        expected = (2 * math.log2(3.0) - 6.0) / 6.0
        for n in (6, 12, 18):
            assert running_exponent(Fraction(1, 9), n) == pytest.approx(
                expected, abs=1e-9)
        # six-decimal reference value
        assert running_exponent(Fraction(1, 9), 6) == pytest.approx(-0.471680, abs=1e-6)

    def test_requires_positive_level(self):
        with pytest.raises(ValueError):
            running_exponent(Fraction(1, 3), 0)


class TestTrace:
    def test_extinction_marker(self):
        tr = trace(Fraction(1, 4), 6)
        assert tr.extinct_at == 2
        finite = [s for s in tr.samples if s.level <= 2]
        assert all(math.isfinite(s.log2_f) for s in finite)
        assert all(s.log2_f == NEG_INF for s in tr.samples if s.level > 2)

    def test_extinction_level_zero_for_integer(self):
        tr = trace(Fraction(0, 1), 3)
        assert tr.extinct_at == 0
        assert all(s.log2_f == NEG_INF for s in tr.samples)

    def test_csv_serialisation(self):
        tr = trace(Fraction(1, 4), 4)
        lines = tr.to_csv_lines()
        assert lines[0] == "n,log2_f,running_exponent"
        assert lines[-1].endswith("-inf,-inf")

    def test_json_round_trip(self):
        tr = trace(Fraction(1, 3), 8)
        payload = json.loads(json.dumps(tr.to_json_dict()))
        assert payload["wave_number"] == "1/3"
        assert payload["extinct_at"] is None
        assert len(payload["samples"]) == 8
        assert payload["samples"][0]["running_exponent"] == pytest.approx(
            0.584963, abs=1e-6)

    def test_json_encodes_minus_inf_as_string(self):
        tr = trace(Fraction(1, 2), 3)
        payload = tr.to_json_dict()
        assert payload["samples"][-1]["log2_f"] == "-inf"

    def test_sample_levels_subset(self):
        tr = trace(Fraction(1, 3), 100, sample_levels=[10, 50, 100])
        assert [s.level for s in tr.samples] == [10, 50, 100]
        # unsorted, repeated levels are recorded once each, in order
        tr = trace(Fraction(1, 3), 100, sample_levels=(50, 10, 100, 50, 10))
        assert tr.samples.level.tolist() == [10, 50, 100]
        with pytest.raises(ValueError):
            trace(Fraction(1, 3), 10, sample_levels=[11])
        with pytest.raises(ValueError, match=r"outside 1\.\.10: \[0, 11\]$"):
            trace(Fraction(1, 3), 10, sample_levels=[11, 5, 0, 11, 0])
        with pytest.raises(ValueError, match=r"outside 1\.\.10"):
            trace(Fraction(1, 3), 10, sample_levels=[5, 2 ** 64])

    def test_empty_sample_levels_raises(self):
        with pytest.raises(ValueError, match="sample_levels"):
            trace(Fraction(1, 3), 10, sample_levels=[])

    def test_samples_are_columns(self):
        tr = trace(Fraction(1, 9), 12, sample_levels=[3, 6, 12])
        assert tr.samples.level.tolist() == [3, 6, 12]
        assert tr.samples.log2_f.tolist() == pytest.approx(
            [partial_product_log(Fraction(1, 9), n) for n in (3, 6, 12)], abs=1e-12)
        assert tr.samples.running_exponent.tolist() == [
            v / n for n, v in zip((3, 6, 12), tr.samples.log2_f.tolist())]
        assert tr.final_running_exponent == tr.samples[-1].running_exponent


def per_value_format(x: float, digits: int) -> str:
    """The rendering trace rows used to get, one value at a time."""
    if math.isinf(x):
        return "-inf" if x < 0 else "inf"
    return f"{x:.{digits}g}"


EDGE_FLOATS = st.sampled_from([
    math.inf, -math.inf, math.nan, 0.0, -0.0, 5e-324, -5e-324,
    2.2250738585072014e-308, 1e-310, 1e300, -1e300, 1.7976931348623157e308])
ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)


class TestRowTemplate:
    @given(rows=st.lists(st.tuples(st.integers(1, 2**62), ANY_FLOAT | EDGE_FLOATS,
                                   ANY_FLOAT | EDGE_FLOATS), min_size=1, max_size=5),
           digits=st.integers(1, 17))
    def test_csv_rows_match_per_value_rendering(self, rows, digits):
        levels, log2_f, running = zip(*rows)
        samples = np.rec.fromarrays(
            (np.array(levels, dtype=np.int64), np.array(log2_f), np.array(running)),
            names=("level", "log2_f", "running_exponent"))
        lines = RieszTrace("k", samples).to_csv_lines(digits)
        assert lines[1:] == [
            f"{n},{per_value_format(v, digits)},{per_value_format(r, digits)}"
            for n, v, r in rows]

    @given(x=ANY_FLOAT | EDGE_FLOATS, digits=st.integers(1, 17))
    def test_format_float_matches_per_value_rendering(self, x, digits):
        assert format_float(x, digits) == per_value_format(x, digits)


class TestIntervalMass:
    @pytest.mark.parametrize("n", range(13))
    def test_total_mass_is_one(self, n):
        assert interval_mass(n, 0.0, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_flat_density_half_interval(self):
        assert interval_mass(0, 0.0, 0.5) == pytest.approx(0.5, abs=1e-9)

    def test_level_one_half_interval(self):
        # integral of 1 - cos(2 pi x) over [0, 1/2] is exactly 1/2;
        # left-endpoint quadrature is first-order accurate
        assert interval_mass(1, 0.0, 0.5) == pytest.approx(0.5, abs=1e-3)

    def test_subinterval_masses_are_additive(self):
        total = interval_mass(3, 0.0, 0.5) + interval_mass(3, 0.5, 1.0)
        assert total == pytest.approx(1.0, abs=1e-3)

    def test_validation(self):
        with pytest.raises(ValueError):
            interval_mass(3, 0.5, 0.5)
        with pytest.raises(ValueError):
            interval_mass(3, -0.1, 0.5)
        with pytest.raises(ValueError):
            interval_mass(13, 0.0, 1.0)


class TestLogIntegral:
    def test_two_midpoints_give_zero(self):
        # midpoints 1/4 and 3/4 both have a unit factor
        assert check_log_integral(2) == pytest.approx(0.0, abs=1e-14)

    def test_converges_at_2_16(self):
        assert check_log_integral(2 ** 16) == pytest.approx(-math.log(2), abs=2e-3)

    def test_converges_at_2_20(self):
        assert check_log_integral(2 ** 20) == pytest.approx(-math.log(2), abs=2e-4)

    @pytest.mark.parametrize("nodes", [2, 16, 1024, 2 ** 16])
    def test_exact_midpoint_defect(self, nodes):
        # for this integrand the midpoint sum is -log(2) * (1 - 2/nodes),
        # via the product of sines at odd multiples of pi/(2 * nodes)
        expected = -math.log(2) * (1.0 - 2.0 / nodes)
        assert check_log_integral(nodes) == pytest.approx(expected, abs=1e-11)

    def test_validation(self):
        with pytest.raises(ValueError):
            check_log_integral(0)


class TestQSum:
    def test_n_1_empty(self):
        assert check_qsum(1) == (0.0, 0.0)

    def test_n_3(self):
        lhs, rhs = check_qsum(3)
        assert rhs == pytest.approx(math.log(9.0 / 4.0), rel=1e-15)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_n_1000(self):
        lhs, rhs = check_qsum(1000)
        assert abs(lhs - rhs) <= 1e-9 * abs(rhs)

    @pytest.mark.parametrize("n", [2, 7, 64, 81, 255, 999])
    def test_selected_levels(self, n):
        lhs, rhs = check_qsum(n)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))
