"""One fresh benchmark process: set up, run passes of a workload, report JSON.

run.py starts it as

    python3 bench/worker.py WORKLOAD SEED SIZE BUDGET_S TRACE LAUNCHED_NS

where LAUNCHED_NS is ``time.monotonic_ns()`` (a system-wide clock on
Linux) read by the parent just before the launch, so ``setup_s`` covers
interpreter start, the imports of numpy and tmscaling, and building the
inputs.  A pass makes every CLI call of the workload once through
``tmscaling.cli.main`` with stdout captured, and checks each output.
Passes repeat while another one fits in BUDGET_S; with BUDGET_S = 0 the
process only reports its set-up time.

With TRACE = 1 the process first runs untraced passes for 40% of the
budget, then at least two traced passes, each followed by the layer
replays of tracer.py.  The traced passes must give identical counts.
The result is one JSON line on stdout.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback


def run_pass(calls, cli) -> dict:
    """Make each call once; return per-verb seconds, failures and stdout bytes."""
    times, problems, failed, out_bytes = {}, [], 0, 0
    for call in calls:
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                start = time.perf_counter()
                rc = cli.main(call.argv)
                times[call.verb] = time.perf_counter() - start
        except (Exception, SystemExit):
            problems.append(f"{call.verb}: raised\n{traceback.format_exc()}")
            failed += 1
            continue
        text = buf.getvalue()
        out_bytes += len(text.encode())
        found = ([f"exit code {rc}"] if rc != 0 else []) + call.check(text)
        problems.extend(f"{call.verb}: {p}" for p in found)
        failed += bool(found)
    return {"times": times, "problems": problems, "failed": failed,
            "stdout_bytes": out_bytes}


def run_passes(calls, cli, budget: float, minimum: int, traced: bool = False) -> list[dict]:
    """Passes until the next one would overrun ``budget`` (at least ``minimum``)."""
    from tracer import Tracer

    passes = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        if traced:
            with Tracer() as tracer:
                p = run_pass(calls, cli)
            tracer.replay()
            p["layers"] = tracer.metrics()
        else:
            p = run_pass(calls, cli)
        passes.append(p)
        now = time.perf_counter()
        if len(passes) >= minimum and now + (now - began) > start + budget:
            return passes


def wall(p: dict) -> float:
    return sum(p["times"].values())


def traced_layers(untraced: list[dict], traced: list[dict], verbs) -> tuple[dict, list[str]]:
    """Layer metrics of the traced passes, plus untraced verb times.

    Times are medians over the traced passes; counts and the cache peak
    must repeat exactly, and any difference is reported as a problem.
    """
    first = traced[0]["layers"]
    layers = {n: statistics.median(p["layers"][n] for p in traced) if n.endswith("_s")
              else v for n, v in first.items()}
    problems = [f"trace self-check: {n} differs between traced passes"
                for p in traced[1:] for n, v in first.items()
                if not n.endswith("_s") and p["layers"][n] != v]
    layers["tracing.overhead_s"] = (statistics.median(map(wall, traced))
                                    - statistics.median(map(wall, untraced)))
    for verb in verbs:
        layers[f"cli.{verb}_s"] = (statistics.median(p["times"][verb] for p in untraced)
                                   if verb in untraced[0]["times"] else 0.0)
    layers["cli.stdout_bytes"] = traced[0]["stdout_bytes"]
    return layers, problems


def main(argv: list[str]) -> int:
    workload, seed, size, budget, trace, launched = argv
    import numpy
    from tmscaling import cli

    import workloads

    calls = workloads.calls(workload, int(seed), size)
    setup_s = (time.monotonic_ns() - int(launched)) / 1e9
    budget = float(budget)
    if budget <= 0:
        sys.stdout.write(json.dumps({"setup_s": setup_s}) + "\n")
        return 0
    # the documented default of TM_SCALING_THREADS, which run.py unsets
    workers = int(os.environ.get("TM_SCALING_THREADS") or 1)

    layers, problems, traced = None, [], []
    if trace == "1":
        timed = run_passes(calls, cli, 0.4 * budget, minimum=1)
        traced = run_passes(calls, cli, 0.6 * budget, minimum=2, traced=True)
        layers, problems = traced_layers(timed, traced, workloads.VERBS)
        layers["exponents.workers"] = workers
    else:
        timed = run_passes(calls, cli, budget, minimum=1)

    passes = timed + traced
    for p in passes:
        problems.extend(p["problems"])
    result = {
        "setup_s": setup_s,
        "passes": [p["times"] for p in timed],
        "calls": len(calls) * len(passes),
        "failed_calls": sum(p["failed"] for p in passes),
        "problems": problems,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "numpy": numpy.__version__,
        "workers_effective": workers,
        "layers": layers,
    }
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
