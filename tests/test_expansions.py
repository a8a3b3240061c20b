import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from tmscaling import cli, expansions, wavenumber
from tmscaling.exponents import beta_rational
from tmscaling.expansions import (
    mixed_exponent_trace,
    perturbed_exponent_trace,
    rational_stream,
    weyl_diagnostics,
)
from tmscaling.riesz import partial_product_log, running_exponent, trace
from tmscaling.streams import (PowersOfTwo, block_ends, block_mixed, flipped, random_bits,
                               rational_periodic)
from tmscaling.wavenumber import frac_levels

LOG2_3_HALVES = math.log2(1.5)


class TestDigitStreams:
    def test_one_third_digits(self):
        stream = rational_periodic(1, 3)
        assert stream.prefix(10) == [0, 1, 0, 1, 0, 1, 0, 1, 0, 1]

    def test_rational_digits_match_floor_oracle(self):
        for num, den in ((1, 3), (3, 7), (5, 12), (113, 355)):
            stream = rational_periodic(num, den)
            k = Fraction(num, den)
            expected = [int(2 ** j * k) % 2 for j in range(1, 65)]
            assert stream.prefix(64) == expected

    def test_determinism_first_2_20_digits(self):
        for make in (lambda: random_bits(42),
                     lambda: rational_periodic(5, 11),
                     lambda: flipped(rational_periodic(1, 3)),
                     lambda: block_mixed(rational_periodic(1, 3), random_bits(7))):
            assert make().prefix(2 ** 20) == make().prefix(2 ** 20)

    def test_distinct_seeds_differ(self):
        assert random_bits(1).prefix(64) != random_bits(2).prefix(64)

    def test_flip_involution(self):
        base = random_bits(99)
        twice = flipped(flipped(base))
        n = 2 ** 16
        assert twice.prefix(n) == random_bits(99).prefix(n)

    @pytest.mark.parametrize("n", [2, 3, 4, 100, 1024, 10 ** 6])
    def test_flip_sparsity(self, n):
        base = rational_periodic(1, 3)
        touched = sum(a != b for a, b in zip(flipped(base).digits(0, n), base.digits(0, n)))
        assert touched == int(math.log2(n))

    def test_flip_rule_start_exponent(self):
        rule = PowersOfTwo(0)
        assert rule.positions_upto(8) == [1, 2, 4, 8]
        assert PowersOfTwo(1).positions_upto(8) == [2, 4, 8]

    def test_block_boundaries(self):
        ends = itertools.takewhile(lambda end: end <= 65536, block_ends(4))
        assert list(ends) == [4, 20, 84, 340, 1364, 5460, 21844]

    def test_block_contents_alternate(self):
        a = rational_periodic(1, 3)
        b = random_bits(3)
        mixed = block_mixed(rational_periodic(1, 3), random_bits(3))
        assert mixed.prefix(4) == a.prefix(4)
        assert mixed.prefix(20)[4:] == b.prefix(20)[4:]
        assert mixed.prefix(84)[20:] == a.prefix(84)[20:]

    def test_digit_indexing_validates(self):
        with pytest.raises(ValueError):
            rational_periodic(1, 3).digit(0)


class TestStreamLevels:
    """``frac_levels`` on a stream that is not rational-periodic reads 64-digit windows."""

    def test_flipped_window_matches_flip_rule(self):
        # recompute the expected 8-digit window from the rule directly
        base = rational_periodic(1, 3)
        stream = flipped(rational_periodic(1, 3), PowersOfTwo(1))
        flips = PowersOfTwo(1).positions_upto(8)
        bits = [base.digit(j) ^ (1 if j in flips else 0)
                for j in range(1, 9)]
        expected = sum(b * 2.0 ** -(i + 1) for i, b in enumerate(bits))
        block = next(frac_levels(stream, 1).blocks())
        assert block.value[0] == pytest.approx(expected, abs=2 ** -8)

    def test_error_bound_against_exact_fraction(self):
        # the first flip, at digit 2**200, lies past every digit 40 levels read
        stream = flipped(rational_periodic(3, 7), PowersOfTwo(200))
        values = next(frac_levels(stream, 40).blocks()).value
        for n in range(40):
            exact = Fraction(3 * 2 ** n, 7) % 1
            assert abs(values[n] - float(exact)) < 2 ** -52


class TestWeylDiagnostics:
    def test_two_point_orbit_fails_equidistribution(self):
        report = weyl_diagnostics(rational_stream("1/3"), 10 ** 4, 3)
        assert report.weyl_moduli[2] > 0.9  # harmonic 3 locks onto the orbit

    def test_single_sample_is_unimodular(self):
        report = weyl_diagnostics(random_bits(0), 1, 2)
        assert report.weyl_moduli[0] == pytest.approx(1.0, abs=1e-12)

    def test_random_stream_equidistributes(self):
        report = weyl_diagnostics(random_bits(5), 2 ** 14, 5)
        assert all(w <= 0.05 for w in report.weyl_moduli)
        assert report.mean_log_factor == pytest.approx(-1.0, abs=0.1)

    def test_report_serialises(self, capsys):
        assert cli.main(["weyl", "--stream", "random:5", "--samples", "128",
                         "--harmonics", "2", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["stream"]["seed"] == 5
        assert len(payload["weyl_moduli"]) == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            weyl_diagnostics(random_bits(0), 0, 1)
        with pytest.raises(ValueError):
            weyl_diagnostics(random_bits(0), 10, 0)

    @staticmethod
    def assert_moduli_match_per_harmonic_exps(stream, samples, harmonics):
        # the direct sums: one np.exp per harmonic, over the same levels
        sums = np.zeros(harmonics, dtype=complex)
        for block in frac_levels(stream, samples).blocks():
            for h in range(1, harmonics + 1):
                sums[h - 1] += np.exp((2j * np.pi * h) * block.value).sum()
        oracle = np.abs(sums / samples)
        moduli = np.array(weyl_diagnostics(stream, samples, harmonics).weyl_moduli)
        # the recurrence's rounding grows with the harmonic
        assert np.all(np.abs(moduli - oracle) <= 1e-15 * np.arange(1, harmonics + 1))

    # up to 40 000 samples, so that some cases cross a block boundary (BLOCK = 16384)
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32), samples=st.integers(1, 40_000),
           harmonics=st.integers(1, 64))
    def test_recurrence_matches_per_harmonic_exps(self, seed, samples, harmonics):
        self.assert_moduli_match_per_harmonic_exps(random_bits(seed), samples, harmonics)

    @pytest.mark.parametrize("spec", ["rational:1/3", "flipped:1/5:0"])
    def test_recurrence_matches_per_harmonic_exps_on_structured_streams(self, spec):
        self.assert_moduli_match_per_harmonic_exps(cli.parse_stream_spec(spec), 70_000, 64)

    @pytest.mark.parametrize("spec", ["random:1", "rational:3/11"])
    @pytest.mark.parametrize("harmonics", [1, 2, 64])
    def test_one_exp_per_block_for_any_harmonics(self, monkeypatch, spec, harmonics):
        calls, np_exp = [], np.exp

        def counting_exp(*args, **kwargs):
            calls.append(1)
            return np_exp(*args, **kwargs)

        monkeypatch.setattr(wavenumber, "BLOCK", 64)
        monkeypatch.setattr(expansions.np, "exp", counting_exp)
        weyl_diagnostics(cli.parse_stream_spec(spec), 3 * 64 + 1, harmonics)
        assert len(calls) == 4   # blocks of 64, 64, 64 and 1 levels


class TestWeylRouteToBeta:
    """One period of a rational stream's levels is the doubling orbit of p mod q.

    So ``weyl`` over the orbit length t reaches beta(p/q) through numpy's sin
    and log2 and a per-block np.sum, with neither libm nor fsum.  Over 10**4
    random p/q with odd q < 20000 the worst gaps were 8.9e-16 for the mean log
    factor and 3.9e-16 for a Weyl modulus.
    """

    @settings(max_examples=200, deadline=None)
    @given(q=st.integers(1, 9999).map(lambda i: 2 * i + 1), p=st.integers(1, 10 ** 6))
    def test_one_period_of_weyl_is_the_orbit_mean(self, q, p):
        k = Fraction(p, q)
        assume(k.denominator > 1)
        exact = beta_rational(k)
        orbit = exact.diagnostics["orbit"]      # residues mod k.denominator
        report = weyl_diagnostics(rational_stream(k), len(orbit), 3)
        assert abs(report.mean_log_factor - exact.value) <= 2e-15
        direct = [abs(np.exp((2j * np.pi * h) * (orbit / k.denominator)).mean())
                  for h in (1, 2, 3)]
        assert np.all(np.abs(np.array(report.weyl_moduli) - direct) <= 1e-15)


class TestStreamTracesMatchRationals:
    @pytest.mark.parametrize("num,den", [(1, 3), (3, 7), (5, 11)])
    def test_stream_running_exponent_matches_exact_rational(self, num, den):
        stream = rational_periodic(num, den)
        tr = trace(stream, 2 ** 10)
        k = Fraction(num, den)
        for level in (1, 4, 64, 512, 1024):
            sample = tr.samples[level - 1]
            assert sample.running_exponent == pytest.approx(
                running_exponent(k, level), abs=1e-9)

    def test_stream_partial_product_matches(self):
        stream = rational_periodic(1, 3)
        assert partial_product_log(stream, 100) == pytest.approx(
            partial_product_log(Fraction(1, 3), 100), abs=1e-9)


class TestPerturbedTrace:
    def test_flipped_one_third_converges(self):
        tr = perturbed_exponent_trace("1/3", n_max=2 ** 12)
        final = tr.final_running_exponent
        # frozen from the stream-evaluation oracle: 0.567747 at N=4096
        assert final == pytest.approx(0.567747, abs=1e-5)
        assert abs(final - 0.584963) <= 0.1

    def test_empty_flip_set_reproduces_base(self):
        # level 60 reads digits up to 124; the first flip is at 128
        tr = perturbed_exponent_trace("1/3", positions=PowersOfTwo(7), n_max=60)
        for level in (2, 30, 60):
            assert tr.samples[level - 1].running_exponent == pytest.approx(
                LOG2_3_HALVES, abs=1e-9)

    def test_flipped_one_fifth_converges(self):
        tr = perturbed_exponent_trace("1/5", n_max=2 ** 12)
        assert abs(tr.final_running_exponent - 0.160964) <= 0.1

    def test_rejects_dyadic_base(self):
        with pytest.raises(ValueError):
            perturbed_exponent_trace("1/4", n_max=16)


class TestMixedTrace:
    def test_self_mixture_is_flat(self):
        a = rational_periodic(1, 3)
        b = rational_periodic(1, 3)
        _, lo, hi = mixed_exponent_trace(a, b, 2 ** 12)
        assert hi - lo <= 1e-6
        assert lo == pytest.approx(LOG2_3_HALVES, abs=1e-3)

    def test_one_third_vs_one_fifth_oscillates(self):
        a = rational_periodic(1, 3)
        b = rational_periodic(1, 5)
        _, lo, hi = mixed_exponent_trace(a, b, 2 ** 16)
        assert hi - lo >= 0.1

    def test_one_third_vs_random_swings_wide(self):
        a = rational_periodic(1, 3)
        b = random_bits(2)
        tr, lo, hi = mixed_exponent_trace(a, b, 2 ** 16)
        assert lo <= -0.3
        assert hi >= 0.3
        assert tr.samples[-1].level == 2 ** 16

    def test_checkpoints_are_block_boundaries(self):
        a = rational_periodic(1, 3)
        b = random_bits(1)
        tr, _, _ = mixed_exponent_trace(a, b, 6000)
        assert [s.level for s in tr.samples] == [4, 20, 84, 340, 1364, 5460, 6000]

    def test_zero_levels_are_refused_by_the_trace(self):
        with pytest.raises(ValueError, match="n_max must be >= 1, got 0"):
            mixed_exponent_trace(rational_periodic(1, 3), random_bits(1), 0)
