"""Benchmark of the tmscaling CLI: one workload per run, metrics as JSON.

Run from the repository root:

    python3 bench/run.py --workload exact|weyl|trace|all --seed N --seconds S --trace 0|1

The workloads and their output checks are in bench/workloads.py; the
metric names and units are those of BENCHMARK.json.  Every run starts
fresh worker processes (bench/worker.py), one after another, that import
the package from ./src with TM_SCALING_THREADS unset, so one worker
computes.  The runs are closed-loop: each CLI call starts when the
previous one has returned.

--trace 0 first starts SETUP_PROBES workers that stop once set up, then
PROCESSES workers that share the rest of the --seconds budget.  It
reports the end-to-end metrics: the median over passes of the time for
all of the workload's calls (wall_s), the median over all processes of
the time from launch until the first call is ready (setup_s), and the
median peak resident memory of the measuring processes (peak_rss_mb).
--trace 1 runs one worker that times untraced passes, then traced passes
with the layer replays of bench/tracer.py, and reports the per-layer
metrics.

Human-readable lines and a '# machine' record come first; the last line
is the result: {"correct", "attempted", "failed", "metrics"}.  With
--workload all each workload prints its own block, one after another.  The run
exits 1 if any output check fails and 2 if there is nothing to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import workloads  # noqa: E402

#: fresh processes per untraced run that measure passes, and that only set up
PROCESSES = 3
SETUP_PROBES = 8
#: every run must end well inside this many seconds
HARD_LIMIT_S = 170.0


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def launch(args, workload: str, budget: float, env: dict, deadline: float) -> dict:
    """Run one worker process to completion and return its parsed result."""
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), workload,
           str(args.seed), args.size, f"{budget:.3f}", str(args.trace)]
    launched = time.monotonic_ns()
    proc = subprocess.run(cmd + [str(launched)], capture_output=True, text=True,
                          env=env, cwd=ROOT, timeout=max(1.0, deadline - time.monotonic()))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",),
                        help="'all' runs every workload in turn")
    parser.add_argument("--seed", type=int, required=True,
                        help="feeds the random: stream specs (exact ignores it)")
    parser.add_argument("--seconds", type=float, required=True,
                        help="measuring budget of each workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(workloads.SIZES), default="full",
                        help="input sizes; 'tiny' is for the self-tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "tmscaling" / "cli.py").is_file():
        print(f"error: no tmscaling sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("TM_SCALING_THREADS", None)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    return max(run_workload(args, name, spec, env) for name in names)


def run_workload(args, workload: str, spec: dict, env: dict) -> int:
    """Measure one workload, print its report and result line; return the exit code."""
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    count = 1 if args.trace else PROCESSES
    try:
        probes = [launch(args, workload, 0.0, env, deadline)
                  for _ in range(0 if args.trace else SETUP_PROBES)]
        results = []
        for i in range(count):
            left = start + args.seconds - time.monotonic()
            # a positive budget: every measuring process makes at least one pass
            results.append(launch(args, workload, max(0.001, left / (count - i)), env, deadline))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    passes = [p for r in results for p in r["passes"]]
    attempted = sum(r["calls"] for r in results)
    failed = sum(r["failed_calls"] for r in results)
    problems = [m for r in results for m in r["problems"]]
    if args.trace:
        values = results[0]["layers"]
    else:
        values = {
            "wall_s": statistics.median(sum(p.values()) for p in passes),
            "setup_s": statistics.median(r["setup_s"] for r in probes + results),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
        }
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: metrics not measured: {', '.join(missing)}", file=sys.stderr)
        return 1

    print(f"# workload {workload}, seed {args.seed}"
          f"{' (unused)' if workload == 'exact' else ''}, size {args.size}, "
          f"{args.seconds:g} s budget, trace {args.trace}, {len(results)} measuring "
          f"and {len(probes)} set-up-only fresh processes, {len(passes)} untraced passes")
    for m in wanted:
        print(f"{m['name']} = {values[m['name']]:.6g} {m['unit']}")
    if args.trace:
        verbs_s = sum(values[f"cli.{v}_s"] for v in workloads.VERBS)
        print(f"# untraced verbs {verbs_s:.4g} s, of which replayed per-level layers "
              f"{values['layers.replayed_s']:.4g} s")
    else:
        for verb in passes[0]:
            times = [p[verb] for p in passes if verb in p]
            print(f"{verb}_s = {statistics.median(times):.6g} s (median of {len(times)})")
        print(f"# wall_s is the median of {len(passes)} passes")
    print(f"failed_ratio = {failed / max(attempted, 1):g} ({failed} of {attempted} calls)")
    for m in problems:
        print(f"check failed: {m}", file=sys.stderr)
    print("# machine " + json.dumps({
        "nproc": os.cpu_count(), "cpu": cpu_model(),
        "python": platform.python_version(), "numpy": results[0]["numpy"],
        "workers_effective": results[0]["workers_effective"],
        "fresh_processes": len(probes) + len(results), "seed": args.seed,
    }))
    correct = failed == 0 and not problems
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
