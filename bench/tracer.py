"""Per-layer tracing of the tmscaling CLI from outside the package.

Spans.  While a ``Tracer`` is active it replaces public functions with
timing wrappers in the module that makes the call: ``exponents`` imports
``coset_decomposition`` and ``doubling_orbit`` by name, so those are
patched in ``exponents`` as well as in ``numtheory``.  Wrappers keep a
stack, so a span's self time excludes the wrapped calls it makes.

Replays.  Digit generation, ``frac_levels`` and the log factors run once
per level inside ``riesz.trace`` and ``weyl_diagnostics``; wrapping them
would slow the hot loop.  The tracer records the input of every
``frac_levels`` call instead and, after the pass, runs each layer alone
on it: ``DigitStream.prefix`` on a fresh stream of the same spec,
``frac_levels`` drained over that pre-filled stream (or over the
rational), and ``log_factor_from_half_dist`` mapped over the replayed
half-distances.  The replayed time is subtracted from the self time of
the span that called ``frac_levels``.  Formatting is replayed the same
way on the results the wrappers captured.
"""

from __future__ import annotations

import itertools
import time
import tracemalloc
from collections import Counter, defaultdict

from tmscaling import exponents, expansions, numtheory, riesz, streams
from tmscaling.riesz import log_factor_from_half_dist
from tmscaling.serialize import format_float
from tmscaling.streams import DigitStream, PowersOfTwo
from tmscaling.wavenumber import frac_levels

#: (module holding the name the caller looks up, attribute, span name)
SPANS = [
    (numtheory, "doubling_orbit", "numtheory.doubling_orbit"),
    (exponents, "doubling_orbit", "numtheory.doubling_orbit"),
    (exponents, "coset_decomposition", "numtheory.coset_decomposition"),
    (exponents, "orbit_log_mean", "exponents.orbit_log_mean"),
    (exponents, "beta_rational", "exponents.beta_rational"),
    (exponents, "check_coset_sum_identity", "exponents.identity_checks"),
    (exponents, "moebius_inverted_coset_sum", "exponents.identity_checks"),
    (exponents, "enumerate_positive_exponents", "exponents.enumerate_positive_exponents"),
    (exponents, "figure_data", "exponents.figure_data"),
    (riesz, "trace", "riesz.trace"),
    (riesz, "check_qsum", "riesz.check_qsum"),
    (expansions, "weyl_diagnostics", "expansions.weyl_diagnostics"),
    (expansions, "perturbed_exponent_trace", "expansions.perturbed_exponent_trace"),
    (expansions, "mixed_exponent_trace", "expansions.mixed_exponent_trace"),
]
#: modules that call ``frac_levels`` by name
LEVEL_CALLERS = (riesz, expansions)
#: layers timed by replay rather than by a span
REPLAYED = ("streams.digit_gen", "wavenumber.frac_levels", "riesz.log_factor")
COUNTS = ("numtheory.orbit_elements", "exponents.orbit_terms", "riesz.samples_recorded",
          "streams.digits_drawn", "wavenumber.levels", "wavenumber.refined")


def rebuild(desc: dict) -> DigitStream:
    """A fresh stream from ``DigitStream.description()`` (the kinds the CLI builds)."""
    kind = desc["kind"]
    if kind == "random-bits":
        return streams.random_bits(desc["seed"])
    if kind == "rational-periodic":
        return streams.rational_periodic(desc["num"], desc["den"])
    if kind == "flipped" and isinstance(desc["flips"], dict):
        return streams.flipped(rebuild(desc["base"]),
                               PowersOfTwo(desc["flips"]["start_exponent"]))
    if kind == "block-mixed" and str(desc["schedule"]).startswith("geometric:"):
        growth = int(desc["schedule"].split(":")[1])
        return streams.block_mixed(rebuild(desc["a"]), rebuild(desc["b"]), growth=growth)
    raise ValueError(f"cannot rebuild stream {desc!r}")


def digits_drawn(desc: dict, count: int, window: int) -> int:
    """Digits ``frac_levels`` pulls from a stream of this spec for ``count`` levels."""
    base = rebuild(desc)
    drawn = 0

    def source():
        nonlocal drawn
        for j in itertools.count(1):
            drawn = j
            yield base.digit(j)

    for _ in frac_levels(DigitStream(source(), "counted", {}), count, window=window):
        pass
    return drawn


def format_exponent(result) -> list[str]:
    """The value and orbit lines ``exponent`` prints in its plain format."""
    return [f"beta = {format_float(result.value)}",
            "orbit = " + " ".join(str(x) for x in result.diagnostics["orbit"])]


class Tracer:
    """Context manager: spans and counts for the CLI calls made inside it."""

    def __init__(self):
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.cache_peak_mb = 0.0
        self._stack: list[list] = []
        self._level_inputs: list[tuple] = []
        self._format_jobs: list = []
        self._saved: list[tuple] = []

    def __enter__(self):
        originals = {}
        for module, attr, name in SPANS:
            fn = getattr(module, attr)
            # the numtheory and exponents names refer to one function
            originals.setdefault(fn, self._wrap(name, fn))
            self._patch(module, attr, originals[fn])
        for module in LEVEL_CALLERS:
            self._patch(module, "frac_levels", self._record_levels)
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        return False

    def _patch(self, module, attr, replacement):
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def _wrap(self, name, fn):
        stack, self_s, calls = self._stack, self.self_s, self.calls
        on_result = getattr(self, "_on_" + name.replace(".", "_"), None)

        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                self_s[name] += elapsed - frame[1]
                calls[name] += 1
                if stack:
                    stack[-1][1] += elapsed
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _parent(self) -> str | None:
        return self._stack[-1][0] if self._stack else None

    def _on_numtheory_doubling_orbit(self, orbit):
        self.counts["numtheory.orbit_elements"] += len(orbit)
        if self._parent() == "exponents.orbit_log_mean":
            self.counts["exponents.orbit_terms"] += len(orbit)

    def _on_riesz_trace(self, tr):
        self.counts["riesz.samples_recorded"] += len(tr.samples)
        self._format_jobs.append(tr.to_csv_lines)

    def _on_exponents_enumerate_positive_exponents(self, rows):
        self._format_jobs.append(lambda: exponents.table_csv_lines(rows))

    def _on_exponents_figure_data(self, rows):
        self._format_jobs.append(lambda: exponents.figure_csv_lines(rows))

    def _on_exponents_beta_rational(self, result):
        if not result.is_extinct:
            self._format_jobs.append(lambda: format_exponent(result))

    def _record_levels(self, k, count=None, window=64):
        spec = k.description() if isinstance(k, DigitStream) else k
        self._level_inputs.append((self._parent(), spec, count, window))
        return frac_levels(k, count, window=window)

    def replay(self) -> None:
        """Time the per-level layers and the formatting alone on the recorded inputs."""
        for owner, spec, count, window in self._level_inputs:
            replayed = 0.0
            source = spec
            if isinstance(spec, dict):
                n = digits_drawn(spec, count, window)
                self.counts["streams.digits_drawn"] += n
                source = rebuild(spec)
                start = time.perf_counter()
                source.prefix(n)
                replayed += self._add("streams.digit_gen", start)
                probe = rebuild(spec)
                tracemalloc.start()
                try:
                    probe.prefix(n)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                del probe
                self.cache_peak_mb = max(self.cache_peak_mb, peak / 2**20)
            # keep only the half-distances: the loop in place frees each level
            half, refined = [], 0
            start = time.perf_counter()
            for lvl in frac_levels(source, count, window=window):
                half.append(lvl.half_dist)
                refined += lvl.refined
            replayed += self._add("wavenumber.frac_levels", start)
            self.counts["wavenumber.levels"] += len(half)
            self.counts["wavenumber.refined"] += refined
            start = time.perf_counter()
            list(map(log_factor_from_half_dist, half))
            replayed += self._add("riesz.log_factor", start)
            if owner is not None:
                self.self_s[owner] -= replayed
        self._level_inputs.clear()
        for job in self._format_jobs:
            start = time.perf_counter()
            job()
            self._add("serialize.format", start)
        self._format_jobs.clear()

    def _add(self, name: str, start: float) -> float:
        elapsed = time.perf_counter() - start
        self.self_s[name] += elapsed
        return elapsed

    def metrics(self) -> dict[str, float]:
        """Layer metrics by name: span self times and calls, replay times, counts."""
        out: dict[str, float] = {}
        for name in dict.fromkeys(name for _, _, name in SPANS):
            out[f"{name}_s"] = self.self_s[name]
            out[f"{name}_calls"] = self.calls[name]
        for name in REPLAYED + ("serialize.format",):
            out[f"{name}_s"] = self.self_s[name]
        out.update((name, self.counts[name]) for name in COUNTS)
        out["streams.cache_peak_mb"] = self.cache_peak_mb
        out["layers.replayed_s"] = sum(self.self_s[name] for name in REPLAYED)
        return out
