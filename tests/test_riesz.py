import itertools
import json
import math
import random
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from tmscaling import cli, riesz, wavenumber
from tmscaling.exponents import beta_rational
from tmscaling.expansions import weyl_diagnostics
from tmscaling.numtheory import doubling_orbit
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
from tmscaling.serialize import csv_lines, format_float, json_number, json_rows
from tmscaling.streams import rational_periodic
from tmscaling.tmcore import exp_sum_recursive
from tmscaling.wavenumber import as_wave_number, frac_levels

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
            gsq = abs(exp_sum_recursive(n, k)) ** 2
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

    @settings(max_examples=60, deadline=None)
    @given(num=st.integers(-10 ** 12, 10 ** 12), den=st.integers(1, 2 ** 70),
           r=st.integers(0, 12), n=st.integers(1, 400))
    def test_is_the_trace_value_bit_for_bit(self, num, den, r, n):
        # dyadic k included: den = 1 leaves 2**r
        k = Fraction(num, den << r)
        assert running_exponent(k, n).hex() == trace(k, n).final_running_exponent.hex()

    @settings(max_examples=60, deadline=None)
    @given(q=st.integers(1, 99).map(lambda i: 2 * i + 1), p=st.integers(1, 10 ** 6),
           r=st.integers(0, 8), periods=st.integers(1, 40), extra=st.integers(0, 10 ** 6))
    def test_is_the_trace_value_bit_for_bit_past_the_first_period(self, q, p, r, periods, extra):
        assume(p % q)
        k = Fraction(p, q << r)
        wn = as_wave_number(k)
        t = beta_rational(k).diagnostics["orbit_size"]
        n = wn.r + periods * t + extra % t
        assert running_exponent(k, n).hex() == trace(k, n).final_running_exponent.hex()

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 16384, 16385, 40000])
    def test_is_the_trace_value_bit_for_bit_on_a_random_stream(self, n):
        stream = cli.parse_stream_spec("random:5")
        assert running_exponent(stream, n).hex() == trace(stream, n).final_running_exponent.hex()


class TestTrace:
    def test_extinction_marker(self):
        tr = trace(Fraction(1, 4), 6)
        assert tr.extinct_at == 2
        finite = [s for s in tr.samples if s.level <= 2]
        assert all(math.isfinite(s.log2_f) for s in finite)
        assert all(s.log2_f == NEG_INF for s in tr.samples if s.level > 2)

    def test_dyadic_traces_stop_after_the_extinct_block(self, monkeypatch):
        read = []

        def recording(wn, count):
            head, cycle = wavenumber.rational_period(wn, count)
            read.append(len(head) + len(cycle))
            return head, cycle

        monkeypatch.setattr(riesz, "rational_period", recording)
        tr = trace(Fraction(3, 2 ** 9), 10 ** 14, sample_levels=[5, 9, 10, 10 ** 14])
        assert read == [10]     # the 9 head levels, then level 9, which is 0
        assert tr.extinct_at == 9
        assert math.isfinite(tr.samples.log2_f[1])
        assert tr.samples.log2_f.tolist()[2:] == [NEG_INF, NEG_INF]
        assert tr.samples.running_exponent.tolist()[2:] == [NEG_INF, NEG_INF]
        read.clear()
        assert partial_product_log(Fraction(3, 2 ** 9), 10 ** 14) == NEG_INF
        assert read == [10]

    def test_k_too_long_to_print_raises_without_the_raw_limit_text(self, int_str_limit):
        # 3 << 20000 has 6022 digits; the levels of k themselves are all computable
        k = Fraction(1, 3) + Fraction(1, 3 << 20000)
        with pytest.raises(ValueError, match="20002-bit denominator has too many digits "
                                             "to print") as exc:
            trace(k, 5)
        assert "Exceeds the limit" not in str(exc.value)
        assert partial_product_log(k, 5) == pytest.approx(5 * LOG2_3_HALVES)

    def test_levels_at_the_edge_of_the_float_range_are_traced(self):
        # distances of 2**-1022 (the smallest normal float) and 4/3 of it
        for k in (Fraction(sys.float_info.min), Fraction(1, 3 << 1020)):
            assert trace(k, 1).samples.log2_f[0] == 1 + 2 * math.log2(
                math.sin(math.pi * float(k)))

    @pytest.mark.parametrize("k, level", [
        (Fraction(sys.float_info.min) / 2, 0),           # 2**-1023, a subnormal
        (Fraction(1, 3 << 1021), 0),                     # 2/3 of 2**-1022
        (Fraction(5e-324), 0),                           # the smallest subnormal
        (Fraction(1, 3 * 2**2000), 0),                   # rounds to 0.0
        (1 - Fraction(1, 1 << 1030), 0),                 # close to 1, not to 0
        (Fraction(1, 2) + Fraction(1, 1 << 1030), 1),    # level 0 is 1/2 away
        (Fraction(1, 2**1023 + 1), 0),                   # in the doubling cycle, r = 0
    ])
    def test_levels_below_the_float_range_raise(self, k, level):
        # a subnormal distance loses bits, and one that rounds to 0.0 gives a log factor of -inf
        message = re.escape(f"level {level} of k comes within 2**-1022 of an integer "
                            f"without reaching it")
        stream = rational_periodic(k.numerator, k.denominator)
        for walk in (lambda: trace(k, 3), lambda: trace(stream, 3),
                     lambda: weyl_diagnostics(stream, 3, 1)):
            with pytest.raises(ValueError, match=message):
                walk()
        # the levels themselves stay exact: exponential sums take them as they are
        (block,) = frac_levels(k, 3).blocks()
        fracs = [(k * 2 ** n) % 1 for n in range(3)]
        assert block.half_dist.tolist() == [float(min(x, 1 - x)) for x in fracs]

    def test_extinction_level_zero_for_integer(self):
        tr = trace(Fraction(0, 1), 3)
        assert tr.extinct_at == 0
        assert all(s.log2_f == NEG_INF for s in tr.samples)

    def test_csv_serialisation(self):
        tr = trace(Fraction(1, 4), 4)
        lines = tr.to_csv_lines()
        assert lines[0] == "n,log2_f,running_exponent"
        assert lines[-1].endswith("-inf,-inf")

    def test_json_round_trip(self, capsys):
        assert cli.main(["riesz-trace", "--k", "1/3", "--nmax", "8", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["wave_number"] == "1/3"
        assert payload["extinct_at"] is None
        assert len(payload["samples"]) == 8
        assert payload["samples"][0]["running_exponent"] == pytest.approx(
            0.584963, abs=1e-6)

    def test_json_encodes_minus_inf_as_string(self):
        tr = trace(Fraction(1, 2), 3)
        payload = {"samples": json_rows(riesz.TRACE_CSV_HEADER, tr.rows(), 6)}
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

    def test_samples_above_the_budget_raise_before_any_level(self, monkeypatch):
        # an unbounded iterable is read no further than one past the budget
        monkeypatch.setattr(riesz, "MAX_TRACE_SAMPLES", 100)
        assert len(trace(Fraction(1, 3), 100).samples) == 100
        monkeypatch.setattr(riesz, "frac_levels", mock.Mock(side_effect=AssertionError))
        monkeypatch.setattr(riesz, "rational_period", mock.Mock(side_effect=AssertionError))
        for levels in (None, range(1, 10**14), itertools.count(1)):
            with pytest.raises(ValueError, match="MAX_TRACE_SAMPLES = 100"):
                trace(Fraction(1, 3), 10**14, sample_levels=levels)

    @pytest.mark.parametrize("levels", [range(1, 200), range(3, 200, 7), range(5, 6),
                                        range(190, 200, 3)])
    def test_range_and_list_levels_give_identical_samples(self, levels):
        by_range = trace(Fraction(1, 9), 199, sample_levels=levels).samples
        by_list = trace(Fraction(1, 9), 199, sample_levels=list(levels)[::-1]).samples
        assert by_range.dtype == by_list.dtype
        assert by_range.tobytes() == by_list.tobytes()

    def test_a_long_range_is_refused_without_allocating(self):
        tracemalloc.start()
        try:
            for levels in (range(1, 10**15), range(0, 10**30, 3)):
                with pytest.raises(ValueError, match="MAX_TRACE_SAMPLES = 4194304"):
                    trace(Fraction(1, 3), 10**15, sample_levels=levels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20     # the levels at the cap alone take 32 MiB
        with pytest.raises(ValueError, match="one exceeds int64"):
            trace(Fraction(1, 3), 10**15, sample_levels=range(5, 2**64, 2**63))
        with pytest.raises(ValueError, match="is empty"):
            trace(Fraction(1, 3), 10, sample_levels=range(4, 4))
        with pytest.raises(ValueError, match=r"outside 1\.\.10: \[0, 11\]$"):
            trace(Fraction(1, 3), 10, sample_levels=range(0, 12, 11))

    def test_samples_are_columns(self):
        tr = trace(Fraction(1, 9), 12, sample_levels=[3, 6, 12])
        assert tr.samples.level.tolist() == [3, 6, 12]
        assert tr.samples.log2_f.tolist() == pytest.approx(
            [partial_product_log(Fraction(1, 9), n) for n in (3, 6, 12)], abs=1e-12)
        assert tr.samples.running_exponent.tolist() == [
            v / n for n, v in zip((3, 6, 12), tr.samples.log2_f.tolist())]
        assert tr.final_running_exponent == tr.samples[-1].running_exponent


class TestOnePeriod:
    """A rational trace is summed from its head and one period of its doubling cycle."""

    # 2**r q with r <= 8 and odd q < 10**4; j whole periods, up to 5 * 10**9 levels
    @settings(max_examples=100, deadline=None)
    @given(q=st.integers(1, 4999).map(lambda i: 2 * i + 1), p=st.integers(1, 10 ** 6),
           r=st.integers(0, 8), j=st.integers(1, 10 ** 6))
    def test_whole_periods_give_beta_to_a_few_ulp(self, q, p, r, j):
        assume(p % q)
        k = Fraction(p, q << r)
        wn = as_wave_number(k)
        result = beta_rational(k)
        beta, t = result.value, result.diagnostics["orbit_size"]
        periodic = Fraction(wn.m % wn.q, wn.q)      # frac(2**r k): level r of k on
        assert abs(running_exponent(periodic, j * t) - beta) <= 4 * math.ulp(beta)
        # the head adds its r levels and nothing else
        assert partial_product_log(k, wn.r + j * t) == (
            partial_product_log(k, wn.r) + partial_product_log(periodic, j * t))

    # the rows of `riesz-trace --k 1/9 --nmax 4194304` that a level-by-level
    # running sum printed one unit off in the last digit
    MOVED_LEVELS = [611726, 695935, 863962, 1070438, 2858055]

    def test_cells_are_the_correctly_rounded_exact_values(self):
        mpmath = pytest.importorskip("mpmath")
        levels = self.MOVED_LEVELS
        rows = trace(Fraction(1, 9), max(levels), sample_levels=levels).to_csv_lines()[1:]
        with mpmath.workdps(50):
            # level l of 1/9 is the residue 2**l mod 9 over 9, with period 6
            terms = [2 * mpmath.log(mpmath.sin(mpmath.pi * n / 9), 2) + 1
                     for n in (1, 2, 4, 8, 7, 5)]
            for level, row in zip(levels, rows):
                j, i = divmod(level, 6)
                exact = j * mpmath.fsum(terms) + mpmath.fsum(terms[:i])
                # no exact cell lies within 1e-11 of a rounding tie, far above a double's error
                assert row == "%d,%.6g,%.6g" % (level, exact, exact / level)
            exact = 10 ** 7 * mpmath.log(mpmath.mpf(3) / 2, 2)
            log2_f = partial_product_log(Fraction(1, 3), 10 ** 7)
            # a level-by-level running sum was 1.3e-3 off here
            assert abs(log2_f - exact) <= 4 * math.ulp(float(exact))

    def test_trace_and_exponent_print_the_same_12_digits(self, capsys):
        assert cli.main(["riesz-trace", "--k", "1/3", "--nmax", "10000000",
                         "--every", "10000000", "--digits", "12"]) == 0
        row = capsys.readouterr().out.splitlines()[-1]
        assert cli.main(["exponent", "--k", "1/3", "--digits", "12"]) == 0
        (beta,) = [line for line in capsys.readouterr().out.splitlines()
                   if line.startswith("beta = ")]
        assert row == "10000000,5849625.00721,0.584962500721"
        assert beta == "beta = 0.584962500721"

    def test_levels_far_past_the_period_cost_one_period(self):
        # in children, so that a walk of every level ends at the timeout
        argv = [sys.executable, "-m", "tmscaling", "riesz-trace", "--k", "1/3",
                "--nmax", str(10 ** 14), "--every", str(10 ** 11)]
        out = subprocess.run(argv, capture_output=True, text=True, timeout=5, check=True).stdout
        rows = [line for line in out.splitlines() if line[:1].isdigit()]
        assert len(rows) == 1000
        assert rows[-1] == "100000000000000,5.84963e+13,0.584963"
        code = ("from tmscaling.riesz import partial_product_log; "
                "print(partial_product_log('1/3', 10**15))")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             timeout=5, check=True).stdout
        assert float(out) == pytest.approx(10 ** 15 * LOG2_3_HALVES, rel=1e-14)

    def test_no_level_at_or_past_nmax_is_read(self):
        # 1030 head levels; level 2 lies within 2**-1022 of an integer, as would a
        # cycle residue over q = 2**1023 + 1 read at level 2 in its place
        k = Fraction(1, 4) + Fraction(1, ((1 << 1023) + 1) << 1030)
        assert trace(k, 2).samples.level.tolist() == [1, 2]
        with pytest.raises(ValueError, match="level 2 of k comes within 2"):
            trace(k, 3)

    def test_libm_runs_only_for_a_level_past_the_first_period(self, monkeypatch):
        libm = mock.Mock(side_effect=riesz.libm_log_factors)
        monkeypatch.setattr(riesz, "libm_log_factors", libm)
        trace(Fraction(1, 9), 6, sample_levels=[5])
        trace(Fraction(1, 1000003), 5000)       # the cycle has not closed by level 5000
        trace(Fraction(5, 9 << 3), 8)           # 3 head levels, then the period of 6
        assert not libm.called
        trace(Fraction(1, 9), 6, sample_levels=[6])
        trace(Fraction(5, 9 << 3), 9)
        assert libm.call_count == 2


def reference_samples(k, n_max: int, levels) -> np.recarray:
    """The records of a rational trace by the one-period formula, over every level at once.

    F sums the head and one period in level order, and level n reads
    j = max(n - r, 0) // t, log2_f = j S + F[n - j t], running = log2_f / n,
    with S the period's sum, taken only if a level lies past the first period.
    """
    wn = as_wave_number(k)
    r, t = min(wn.r, n_max), len(doubling_orbit(wn.m, wn.q))
    stop = min(r + t, n_max)
    sums = np.zeros(stop + 1)
    for block in frac_levels(k, stop).blocks():
        sums[block.start + 1:block.start + 1 + len(block.value)] = riesz.block_log_factors(block)
    sums = np.cumsum(sums)
    levels = np.array(levels, dtype=np.int64)
    if levels[-1] < r + t:
        log2_f = sums[levels]
    else:
        j = np.maximum(levels - r, 0) // t
        log2_f = j * riesz.orbit_log_sum(doubling_orbit(wn.m, wn.q), wn.q) + sums[levels - j * t]
    return np.rec.fromarrays((levels, log2_f, log2_f / levels),
                             names=("level", "log2_f", "running_exponent"))


class TestPeriodSlices:
    """A rational trace keeps its period and evaluates any slice of its levels from it."""

    # p/(2**r q) with odd q < 10**4 and r <= 8; up to 100 levels of a positive-step
    # range, within or far past the first period
    @settings(max_examples=60, deadline=None)
    @given(q=st.integers(1, 4999).map(lambda i: 2 * i + 1), p=st.integers(1, 10 ** 6),
           r=st.integers(0, 8), start=st.integers(1, 10 ** 5), step=st.integers(1, 10 ** 4),
           count=st.integers(1, 100), extra=st.integers(0, 1000))
    def test_slices_render_the_whole_trace_and_samples_keep_the_formula(
            self, q, p, r, start, step, count, extra):
        assume(p % q)
        k = Fraction(p, q << r)
        levels = range(start, start + step * count, step)
        n_max = levels[-1] + extra
        tr = trace(k, n_max, sample_levels=levels)
        assert tr.levels == levels
        whole = "\n".join(tr.to_csv_lines()) + "\n"
        for size in (1, 2, 7, cli._ORBIT_SLICE):
            with mock.patch.object(cli, "_ORBIT_SLICE", size):
                *_, header, pieces = cli._trace_output("csv", 6, tr, [])
                assert f"{header}\n{''.join(pieces)}\n" == whole, size
        expected = reference_samples(k, n_max, levels)
        assert tr.samples.dtype == expected.dtype
        assert tr.samples.tobytes() == expected.tobytes()
        assert tr.final_running_exponent == expected.running_exponent[-1]

    def test_the_last_record_is_read_without_the_others(self):
        tracemalloc.start()
        try:
            tr = trace(Fraction(1, 9), 2 ** 22)
            last = tr.final_running_exponent
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20     # the records at the cap take 96 MiB
        assert last == tr.samples.running_exponent[-1]


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

    @given(rows=st.lists(st.tuples(st.integers(1, 2**62), st.integers(1, 2**62),
                                   ANY_FLOAT | EDGE_FLOATS), max_size=5),
           digits=st.integers(1, 17))
    def test_table_rows_match_per_value_rendering(self, rows, digits):
        # two integer keys: the rows of `table`
        assert csv_lines("q,p,beta", rows, digits, keys=2) == ["q,p,beta", *(
            f"{q},{p},{per_value_format(beta, digits)}" for q, p, beta in rows)]
        rendered = json_rows("q,p,beta", rows, digits, keys=2)
        expected = [{"q": q, "p": p, "beta": json_number(beta, digits)} for q, p, beta in rows]
        # compared as text, so that the key order counts too
        assert json.dumps(rendered) == json.dumps(expected)

    @given(rows=st.lists(st.tuples(st.integers(1, 2**62), ANY_FLOAT | EDGE_FLOATS,
                                   ANY_FLOAT | EDGE_FLOATS), max_size=5),
           digits=st.integers(1, 17))
    def test_one_key_rows_match_per_value_rendering(self, rows, digits):
        # one integer key: the rows of `figure` and of every trace
        header = "n,log2_f,running_exponent"
        assert csv_lines(header, rows, digits) == [header, *(
            f"{n},{per_value_format(v, digits)},{per_value_format(r, digits)}"
            for n, v, r in rows)]
        expected = [{"n": n, "log2_f": json_number(v, digits),
                     "running_exponent": json_number(r, digits)} for n, v, r in rows]
        assert json.dumps(json_rows(header, rows, digits)) == json.dumps(expected)

    def test_json_cells_follow_json_number_at_the_edge_of_the_float_range(self):
        # the largest double at one digit reads back as inf, a float; only
        # non-finite inputs stay text
        rows = [(1, 1.7976931348623157e308, -math.inf), (2, 0.5, math.nan)]
        assert json_rows("n,a,b", rows, 1) == [{"n": 1, "a": math.inf, "b": "-inf"},
                                               {"n": 2, "a": 0.5, "b": "nan"}]
        assert json_number(1.7976931348623157e308, 1) == math.inf

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


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: trace("1/3", 0), "n_max must be >= 1, got 0", id="trace"),
    pytest.param(lambda: partial_product_log("1/3", -1), "level must be non-negative, got -1",
                 id="partial_product_log"),
    pytest.param(lambda: check_qsum(0), "n must be >= 1, got 0", id="check_qsum"),
    # above MAX_ORBIT_LENGTH = 2**22: refused before the arange of 10**9 terms is built
    pytest.param(lambda: check_qsum(10**9),
                 "n = 1000000000 is above the budget of MAX_ORBIT_LENGTH = 4194304",
                 id="check_qsum_above_budget"),
    pytest.param(lambda: check_log_integral(10**9),
                 "nodes = 1000000000 is above the budget of MAX_ORBIT_LENGTH = 4194304",
                 id="check_log_integral_above_budget"),
])
def test_levels_below_the_domain_are_refused(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


@pytest.mark.parametrize("check", [check_qsum, check_log_integral])
def test_analytic_checks_run_up_to_the_budget_and_refuse_past_it(check, monkeypatch):
    monkeypatch.setattr(riesz.numtheory, "MAX_ORBIT_LENGTH", 64)
    check(64)
    with mock.patch.object(riesz, "half_distances", side_effect=AssertionError), \
            pytest.raises(ValueError, match=re.escape("= 65 is above the budget of MAX_ORBIT_LENGTH = 64")):
        check(65)
