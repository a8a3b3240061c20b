"""Acceptance suite: one test per criterion, at the stated tolerances.

Each criterion is a separate test so the terminal summary (see conftest)
prints one PASS/FAIL line per criterion.  Expected values are frozen
from independent oracles: direct orbit enumeration for the positive-
exponent table, closed forms for the special rationals, and the stream-
evaluation prototypes for the digit-flip and block-mixture experiments.
"""

import math
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from tmscaling.exponents import (
    beta_rational,
    check_coset_sum_identity,
    enumerate_positive_exponents,
    g_closed_form,
    moebius_inverted_coset_sum,
)
from tmscaling.expansions import mixed_exponent_trace, perturbed_exponent_trace, weyl_diagnostics
from tmscaling.numtheory import mult_order_of_two
from tmscaling.riesz import check_qsum, interval_mass, partial_product_log, trace
from tmscaling.streams import random_bits, rational_periodic
from tmscaling.tmcore import exp_sum_direct, exp_sum_recursive
from tmscaling.wavenumber import WaveNumber

from conftest import is_prime
from reference_table import POSITIVE_EXPONENTS_BELOW_1000


def test_criterion_01_closed_values():
    """Exponents of 1/3 and of m/(2^r 5) match their closed forms in < 1 s."""
    start = time.perf_counter()
    b3 = beta_rational("1/3").value
    assert b3 == pytest.approx(math.log(1.5) / math.log(2.0), abs=1e-9)
    assert round(b3, 6) == 0.584963

    expected5 = math.log(1.25) / (2.0 * math.log(2.0))
    for r in (0, 1, 2, 3):
        for m in (1, 3, 7, 9):
            value = beta_rational(Fraction(m, 2 ** r * 5)).value
            assert value == pytest.approx(expected5, abs=1e-9), (m, r)
    assert round(beta_rational("1/5").value, 6) == 0.160964
    assert time.perf_counter() - start < 1.0


def test_criterion_02_table_reproduction():
    """enumerate_positive_exponents(1000) is exactly the reference table.

    Positivity is classified by the exact sign of the double-precision
    orbit average.  Margin analysis: orbits have at most ~1000 terms with
    per-term rounding ~1e-16, so the computed averages are within ~1e-13
    of exact, while the smallest |beta| in range is the printed 0.001
    (computed 0.000989) — ten orders of magnitude of headroom.
    """
    start = time.perf_counter()
    rows = enumerate_positive_exponents(1000)
    elapsed = time.perf_counter() - start

    got_pairs = [(q, p) for q, p, _ in rows]
    want_pairs = [(q, p) for q, p, _ in POSITIVE_EXPONENTS_BELOW_1000]
    assert got_pairs == want_pairs  # no extras, no omissions, same order

    values = {(q, p): beta for q, p, beta in rows}
    for q, p, printed in POSITIVE_EXPONENTS_BELOW_1000:
        assert values[(q, p)] == pytest.approx(printed, abs=5e-4), (q, p)

    spot = {(17, 3): 0.266, (31, 5): 0.272, (127, 21): 0.373,
            (257, 43): 0.404, (511, 85): 0.422, (195, 17): 0.001}
    for pair, printed in spot.items():
        assert values[pair] == pytest.approx(printed, abs=5e-4), pair

    assert elapsed < 60.0


def test_criterion_03_figure_property():
    """beta(1/q) < 0 for odd 7 <= q < 1050; g > 0 only at q in {3, 5} up to 1e5."""
    start = time.perf_counter()
    for q in range(7, 1050, 2):
        assert beta_rational(Fraction(1, q)).value < 0.0, q
    positive_g = [q for q in range(3, 100_001, 2) if g_closed_form(q) > 0.0]
    assert positive_g == [3, 5]
    assert time.perf_counter() - start < 60.0


def test_criterion_04_primitive_root_consistency():
    """beta(1/q) equals g(q) whenever 2 generates the full unit group mod prime q."""
    checked = 0
    for q in range(3, 1050, 2):
        if not (is_prime(q) and mult_order_of_two(q) == q - 1):
            continue
        assert abs(beta_rational(Fraction(1, q)).value - g_closed_form(q)) <= 1e-9, q
        checked += 1
    assert checked >= 60  # 68 such primes below 1050


def test_criterion_05_identity_suite():
    """Factor-sum identity for 2 <= n <= 1000; coset identities for odd q <= 1005."""
    for n in range(2, 1001):
        lhs, rhs = check_qsum(n)
        assert abs(lhs - rhs) <= 1e-9 * abs(rhs), n
    for q in range(3, 1006, 2):
        lhs, rhs = check_coset_sum_identity(q)
        assert abs(lhs - rhs) <= 1e-9, ("coset-sum", q)
        lhs, rhs = moebius_inverted_coset_sum(q)
        assert abs(lhs - rhs) <= 1e-9, ("moebius", q)
    # the q = 9 instance pins the exponent of 1/9
    assert beta_rational("1/9").value == pytest.approx(-0.471680, abs=1e-6)


def _random_rational(rng):
    q = rng.randrange(3, 1000, 2)
    r = rng.randint(0, 3)
    den = (1 << r) * q
    while True:
        m = rng.randrange(1, den)
        if math.gcd(m, q) == 1:
            return Fraction(m, den)


def test_criterion_06_oracle_equivalence():
    """|g_n|^2 = 2^n f_n and direct sum = recursion, for n <= 14, 200 wave numbers."""
    rng = random.Random(20260808)
    ks = [_random_rational(rng) for _ in range(100)]
    ks += [random_bits(10_000 + i) for i in range(100)]
    for k in ks:
        assert partial_product_log(k, 0) == 0.0  # empty product
        for n in range(15):
            log2f = partial_product_log(k, n)
            rec = exp_sum_recursive(n, k)
            direct = exp_sum_direct(n, k)
            scale = 2.0 ** n
            product = scale * 2.0 ** log2f
            # recursion vs the log-product, relative to the value
            assert abs(abs(rec) ** 2 - product) <= 1e-8 * product
            # direct summation vs the recursion, relative to the 2^n scale
            assert abs(direct - rec) <= 1e-8 * scale
            assert abs(abs(direct) ** 2 - product) <= 1e-8 * scale * scale


def test_criterion_07_mass_normalisation():
    """interval_mass(n, 0, 1) = 1 to 1e-12 for all n <= 12 (exact grid sums)."""
    for n in range(13):
        assert interval_mass(n, 0.0, 1.0) == pytest.approx(1.0, abs=1e-12), n


def test_criterion_08_dyadic_extinction():
    """50 dyadic rationals: extinct verdict and -inf beyond level r, exactly."""
    rng = random.Random(4096)
    seen = 0
    while seen < 50:
        r = rng.randint(0, 20)
        m = rng.randrange(0, 1 << r) | 1 if r > 0 else rng.randrange(0, 8)
        k = Fraction(m, 1 << r)
        wn = WaveNumber.from_fraction(m, 1 << r)
        assert wn.is_dyadic
        result = beta_rational(k)
        assert result.is_extinct
        assert result.value is None
        tr = trace(k, wn.r + 3)
        assert tr.extinct_at == wn.r
        for n in (wn.r + 1, wn.r + 3):
            assert partial_product_log(k, n) == float("-inf")
        if wn.r > 0:
            assert math.isfinite(partial_product_log(k, wn.r))
        seen += 1


def test_criterion_09_monte_carlo_generic_exponent():
    """200 seeded streams at N = 2^14: >= 90% near -1, all Weyl moduli < 0.05."""
    start = time.perf_counter()
    n_samples = 2 ** 14
    near_minus_one = 0
    for seed in range(200):
        report = weyl_diagnostics(random_bits(seed), n_samples, 5)
        assert all(w < 0.05 for w in report.weyl_moduli), seed
        if abs(report.mean_log_factor - (-1.0)) <= 0.1:
            near_minus_one += 1
    assert near_minus_one >= 180
    assert time.perf_counter() - start < 120.0


def test_criterion_10_perturbed_and_mixed_streams():
    """Digit flips keep the base exponent; block mixtures oscillate."""
    tr = perturbed_exponent_trace("1/3", n_max=2 ** 12)
    assert abs(tr.final_running_exponent - 0.584963) <= 0.1

    _, lo, hi = mixed_exponent_trace(rational_periodic(1, 3), random_bits(7),
                                     2 ** 16)
    assert hi - lo >= 0.1


def test_criterion_11_table_determinism():
    """`table --qmax 1000` output is byte-identical across runs."""
    def run() -> bytes:
        return subprocess.run(
            [sys.executable, "-m", "tmscaling", "table", "--qmax", "1000"],
            capture_output=True, check=True).stdout

    single = run()
    assert single == run()
    assert single == run()
    assert single.splitlines()[1] == b"q,p,beta"
