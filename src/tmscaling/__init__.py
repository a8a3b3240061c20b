"""Scaling exponents of the singular peaks of the Thue-Morse diffraction measure.

The measure is the vague limit of the partial Riesz products
f_n(k) = prod_{l<n} (1 - cos(2**(l+1) pi k)); this package computes the
growth exponent log2(f_n(k))/n exactly for rational k (orbit averages
over doubling cosets mod the odd part of the denominator), numerically
for stream-backed k (lazy binary expansions), and reproduces the
reference table of positive exponents and the exponent-vs-q figure data.
"""

from .exponents import (
    ExponentResult,
    beta_rational,
    check_coset_sum_identity,
    enumerate_positive_exponents,
    figure_data,
    g_closed_form,
    moebius_inverted_coset_sum,
    orbit_log_mean,
)
from .expansions import (
    WeylReport,
    frac_pow2,
    mixed_exponent_trace,
    perturbed_exponent_trace,
    rational_stream,
    weyl_diagnostics,
)
from .numtheory import (
    OrbitDecomposition,
    coset_decomposition,
    divisors,
    doubling_orbit,
    moebius,
    mult_order_of_two,
)
from .riesz import (
    RieszTrace,
    check_log_integral,
    check_qsum,
    interval_mass,
    log_factor,
    partial_product_log,
    running_exponent,
    trace,
)
from .streams import (
    DigitStream,
    PowersOfTwo,
    block_mixed,
    flipped,
    random_bits,
    rational_periodic,
)
from .tmcore import ExponentialSum, TmWord, exp_sum_direct, exp_sum_recursive, tm_word
from .wavenumber import WaveNumber, as_wave_number, frac_levels

__version__ = "0.1.0"
