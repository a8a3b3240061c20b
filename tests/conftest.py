"""Shared oracles and the acceptance-criteria summary hook."""

import math
import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
# tests that run `python -m tmscaling` in a child process need the package
# on PYTHONPATH too; pyproject's pythonpath only reaches this process
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(Path(__file__).resolve().parent.parent / "src"),
                  os.environ.get("PYTHONPATH")]))


def euler_phi(n: int) -> int:
    """Totient by trial-division factorisation (independent oracle)."""
    result = n
    p = 2
    rest = n
    while p * p <= rest:
        if rest % p == 0:
            while rest % p == 0:
                rest //= p
            result -= result // p
        p += 1
    if rest > 1:
        result -= result // rest
    return result


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    p = 2
    while p * p <= n:
        if n % p == 0:
            return False
        p += 1
    return True


def brute_divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def brute_prime_factors(n: int) -> list[int]:
    out = []
    p = 2
    while p * p <= n:
        while n % p == 0:
            out.append(p)
            n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def log2_factor_oracle(x: float) -> float:
    """Direct log2(1 - cos(2 pi x)) without the 2 sin^2 rewrite."""
    return math.log2(1.0 - math.cos(2.0 * math.pi * x))


@pytest.fixture
def int_str_limit():
    """Python's default int-to-str limit of 4300 digits, whatever the environment sets."""
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(saved)


_acceptance_results: dict[str, str] = {}


def pytest_runtest_logreport(report):
    if report.when != "call" or "test_acceptance.py" not in report.nodeid:
        return
    _acceptance_results[report.nodeid.split("::")[-1]] = report.outcome


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _acceptance_results:
        return
    terminalreporter.section("acceptance criteria")
    for name in sorted(_acceptance_results):
        label = name.replace("test_criterion_", "criterion ").replace("_", " ")
        terminalreporter.write_line(f"{label}: {_acceptance_results[name].upper()}")
