"""Workloads of the tmscaling benchmark and the checks on their outputs.

A workload is a list of CLI calls.  Each call carries its argv for
``tmscaling.cli.main`` and a check that reads the captured stdout and
returns a list of problems (empty when the output is correct).  The
checks use oracles that share no code with the package: the committed
reference table in ``tests/reference_table.py``, the closed form g(q),
orbit averages computed here, and sampling bounds for random digits.

Only the ``random:`` stream specs depend on the seed; ``exact`` runs the
same inputs for every seed.  Nothing here imports ``tmscaling``.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import runpy
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

WORKLOADS = ("exact", "weyl", "trace")
VERBS = ("table", "figure", "identities", "exponent",
         "weyl", "perturb", "mix", "riesz-trace")

#: input sizes; "full" is what the benchmark measures, "tiny" is for self-tests.
#: The exponent q must be a prime modulo which 2 has full order q - 1.
SIZES = {
    "full": {"table_qmax": 3000, "figure_qmax": 5000, "identities_qmax": 1005,
             "qsum_max": 1000, "exponent_q": 1000003, "weyl_samples": 524288,
             "perturb_nmax": 131072, "mix_nmax": 262144, "riesz_nmax": 131072,
             "mix_bounds": (-0.6, 0.2)},
    "tiny": {"table_qmax": 1001, "figure_qmax": 601, "identities_qmax": 105,
             "qsum_max": 200, "exponent_q": 1019, "weyl_samples": 4096,
             "perturb_nmax": 2048, "mix_nmax": 16384, "riesz_nmax": 2048,
             "mix_bounds": (-0.4, 0.0)},
}

#: |mean_log_factor + 1| <= MLF_SPREAD / sqrt(samples).  Over 80 seeds the
#: scaled deviation had standard deviation 4.9 and maximum 9.8; 40 is 8 sd.
MLF_SPREAD = 40.0
#: every Weyl modulus <= MODULUS_SPREAD / sqrt(samples).  The scaled moduli
#: are Rayleigh-like with mean 0.85 (maximum 2.6 over 400 draws).
MODULUS_SPREAD = 6.0


@dataclass(frozen=True)
class Call:
    verb: str
    argv: list[str]
    check: Callable[[str], list[str]]


def calls(workload: str, seed: int, size: str = "full") -> list[Call]:
    """The CLI calls of one pass of ``workload``; ``seed`` feeds ``random:`` specs."""
    s = SIZES[size]
    if workload == "exact":
        q = s["exponent_q"]
        return [
            Call("table", ["table", "--qmax", str(s["table_qmax"])],
                 lambda out: check_table(out, s["table_qmax"])),
            Call("figure", ["figure", "--qmax", str(s["figure_qmax"])],
                 lambda out: check_figure(out, s["figure_qmax"])),
            Call("identities", ["identities", "--qmax", str(s["identities_qmax"]),
                                "--qsum-max", str(s["qsum_max"])],
                 check_identities),
            Call("exponent", ["exponent", "--k", f"1/{q}"],
                 lambda out: check_exponent(out, q)),
        ]
    if workload == "weyl":
        n = s["weyl_samples"]
        return [Call("weyl", ["weyl", "--stream", f"random:{seed}", "--samples", str(n),
                              "--harmonics", "5"],
                     lambda out: check_weyl(out, n, 5))]
    if workload == "trace":
        n_pert, n_mix, n_riesz = s["perturb_nmax"], s["mix_nmax"], s["riesz_nmax"]
        return [
            Call("perturb", ["perturb", "--k", "1/3", "--nmax", str(n_pert)],
                 lambda out: check_perturb(out, n_pert)),
            Call("mix", ["mix", "--a", "rational:1/3", "--b", f"random:{seed}",
                         "--nmax", str(n_mix)],
                 lambda out: check_mix(out, *s["mix_bounds"])),
            Call("riesz-trace", ["riesz-trace", "--k", "1/9", "--nmax", str(n_riesz)],
                 lambda out: check_riesz_trace(out, n_riesz)),
        ]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


# -- independent oracles ----------------------------------------------------

def g_closed_form(q: int) -> float:
    return 2.0 * math.log2(q) / (q - 1) - 1.0


def is_prime(n: int) -> bool:
    return n >= 2 and all(n % p for p in range(2, math.isqrt(n) + 1))


def order_of_two(q: int) -> int:
    order, x = 1, 2 % q
    while x != 1:
        x, order = 2 * x % q, order + 1
    return order


@functools.cache
def full_order_primes(limit: int) -> frozenset[int]:
    """Primes q < limit modulo which 2 has order q - 1 (2 is a primitive root)."""
    return frozenset(q for q in range(3, limit, 2) if is_prime(q) and order_of_two(q) == q - 1)


def orbit_exponent(p: int, q: int) -> float:
    """Mean of log2(2 sin(pi n/q)^2) over the doubling orbit of p mod q."""
    orbit, x = [], p % q
    while x not in orbit:
        orbit.append(x)
        x = 2 * x % q
    return math.fsum(1.0 + 2.0 * math.log2(math.sin(math.pi * min(n, q - n) / q))
                     for n in orbit) / len(orbit)


def reference_table() -> list[tuple[int, int, float]]:
    return runpy.run_path(str(ROOT / "tests" / "reference_table.py"))[
        "POSITIVE_EXPONENTS_BELOW_1000"]


def expected() -> dict:
    return json.loads((BENCH_DIR / "expected.json").read_text())


# -- output parsing ---------------------------------------------------------

def _data_rows(out: str, header: str) -> list[list[str]]:
    lines = [ln for ln in out.splitlines() if ln and not ln.startswith("#")]
    if not lines or lines[0] != header:
        raise ValueError(f"missing header {header!r}")
    return [ln.split(",") for ln in lines[1:]]


def _field(out: str, key: str) -> float:
    """Value of the first 'key = value' line, '#' comment prefix allowed."""
    prefix = f"{key} = "
    for ln in out.splitlines():
        ln = ln.lstrip("# ")
        if ln.startswith(prefix):
            return float(ln[len(prefix):].split()[0])
    raise ValueError(f"no line '{prefix}...'")


def _checked(fn):
    """Turn a parse error in a check into a reported problem."""
    @functools.wraps(fn)
    def wrapper(out, *args):
        try:
            return fn(out, *args)
        except (ValueError, IndexError) as exc:
            return [f"unparseable output: {exc}"]
    return wrapper


# -- checks -----------------------------------------------------------------

@_checked
def check_table(out: str, qmax: int) -> list[str]:
    """Rows below 1000 are the reference table; the bytes match the recorded hash."""
    problems = []
    rows = [(int(q), int(p), float(b)) for q, p, b in _data_rows(out, "q,p,beta")]
    limit = min(qmax, 1000)
    got = [r for r in rows if r[0] < limit]
    want = [r for r in reference_table() if r[0] < limit]
    if [(q, p) for q, p, _ in got] != [(q, p) for q, p, _ in want]:
        problems.append("table rows below 1000 differ from the reference pairs")
    elif any(abs(b - ref) > 5e-4 for (_, _, b), (_, _, ref) in zip(got, want)):
        problems.append("table values below 1000 differ from the reference by > 5e-4")
    digest = expected()["table_sha256"].get(str(qmax))
    if digest is not None and hashlib.sha256(out.encode()).hexdigest() != digest:
        problems.append(f"table --qmax {qmax} bytes differ from the recorded sha256")
    return problems


@_checked
def check_figure(out: str, qmax: int) -> list[str]:
    """beta(1/q) = g(q) where 2 is a primitive root mod prime q; positive only at 3, 5."""
    problems = []
    rows = [(int(q), float(b), float(g))
            for q, b, g in _data_rows(out, "q,beta_1_over_q,g_q")]
    if [q for q, _, _ in rows] != list(range(3, qmax, 2)):
        problems.append("figure rows are not the odd q in [3, qmax)")
    primitive = full_order_primes(qmax)
    for q, b, g in rows:
        if abs(g - g_closed_form(q)) > 1e-5 * abs(g_closed_form(q)):
            problems.append(f"figure g({q}) = {g} is not the closed form")
            break
        if q in primitive and abs(b - g) > 2e-6 * abs(g):
            problems.append(f"figure beta(1/{q}) = {b} differs from g = {g}")
            break
    if [q for q, b, _ in rows if b > 0] != [3, 5] or [q for q, _, g in rows if g > 0] != [3, 5]:
        problems.append("figure values are positive elsewhere than q = 3, 5")
    return problems


def check_identities(out: str) -> list[str]:
    """The identity checks report status ok."""
    lines = out.strip().splitlines()
    if not lines or not lines[-1].startswith("status = ok"):
        return ["identities did not report status = ok"]
    return []


@_checked
def check_exponent(out: str, q: int) -> list[str]:
    """beta(1/q) = g(q), because 2 has full order q - 1 modulo the prime q."""
    beta, g = _field(out, "beta"), g_closed_form(q)
    if abs(beta - g) > 1e-5 * abs(g):
        return [f"exponent beta(1/{q}) = {beta}, expected g = {g:.6g}"]
    return []


@_checked
def check_weyl(out: str, samples: int, harmonics: int) -> list[str]:
    """mean_log_factor is near -1 and the Weyl moduli are small."""
    problems = []
    root = math.sqrt(samples)
    mlf = _field(out, "mean_log_factor")
    if abs(mlf + 1.0) > MLF_SPREAD / root:
        problems.append(f"weyl mean_log_factor = {mlf} is not near -1")
    for h in range(1, harmonics + 1):
        w = _field(out, f"weyl_modulus[{h}]")
        if w > MODULUS_SPREAD / root:
            problems.append(f"weyl_modulus[{h}] = {w} is not small")
    return problems


@_checked
def check_perturb(out: str, nmax: int) -> list[str]:
    """The final running exponent is near beta(1/3).

    The sparse flips pull it down by about 60-95/nmax (measured from
    nmax = 2^10 to 2^17), so the tolerance is 256/nmax.
    """
    final, beta = _field(out, "final_running_exponent"), orbit_exponent(1, 3)
    if abs(final - beta) > 256.0 / nmax:
        return [f"perturb final exponent {final} is not near beta(1/3) = {beta:.6f}"]
    return []


@_checked
def check_mix(out: str, liminf_max: float, limsup_min: float) -> list[str]:
    """The running exponent oscillates: liminf <= liminf_max, limsup >= limsup_min.

    With growth 4 the checkpoint values tend to (4a - 16)/20 = -0.683 and
    (64a - 16)/80 = 0.268 for a = beta(1/3) and exponent -1 on the random
    blocks; the bounds leave 5 standard deviations of the random blocks.
    """
    lo, hi = _field(out, "liminf"), _field(out, "limsup")
    if lo > liminf_max or hi < limsup_min:
        return [f"mix liminf {lo} / limsup {hi} outside <= {liminf_max} / >= {limsup_min}"]
    return []


@_checked
def check_riesz_trace(out: str, nmax: int) -> list[str]:
    """Every level 1..nmax is listed and the last running exponent is near beta(1/9)."""
    rows = _data_rows(out, "n,log2_f,running_exponent")
    if len(rows) != nmax or int(rows[-1][0]) != nmax:
        return [f"riesz-trace lists {len(rows)} levels, expected {nmax}"]
    final, beta = float(rows[-1][2]), orbit_exponent(1, 9)
    if abs(final - beta) > 1e-3:
        return [f"riesz-trace final exponent {final} is not near beta(1/9) = {beta:.6f}"]
    return []
