"""Time the CLI calls behind the ROADMAP baseline rows, for bench/baseline.json.

    PYTHONPATH=src python3 bench/roadmap_rows.py [--repeats 3]

The benchmark's workloads run other sizes; this script measures the rows
the ROADMAP quotes (table 1000 and 10000, figure 10000, weyl 2^18,
riesz-trace 1/9 at 100000 levels, exponent 1/1000003) in one process,
each as the median of --repeats calls with stdout captured, and prints
one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import statistics
import time

from tmscaling import cli

ROWS = {
    "table --qmax 1000": ["table", "--qmax", "1000"],
    "table --qmax 10000": ["table", "--qmax", "10000"],
    "figure --qmax 10000": ["figure", "--qmax", "10000"],
    "weyl --stream random:0 --samples 262144": ["weyl", "--stream", "random:0",
                                                "--samples", "262144"],
    "riesz-trace --k 1/9 --nmax 100000": ["riesz-trace", "--k", "1/9", "--nmax", "100000"],
    "exponent --k 1/1000003": ["exponent", "--k", "1/1000003"],
}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()
    out = {}
    for name, argv in ROWS.items():
        times = []
        for _ in range(args.repeats):
            with contextlib.redirect_stdout(io.StringIO()):
                start = time.perf_counter()
                if cli.main(argv) != 0:
                    raise SystemExit(f"{name} failed")
                times.append(time.perf_counter() - start)
        out[name] = {"median_s": statistics.median(times), "samples": len(times)}
    print(json.dumps(out, indent=2))


if __name__ == "__main__":
    main()
