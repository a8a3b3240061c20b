"""Self-tests of the benchmark's own code, at tiny sizes.

    python3 -m pytest -q bench

They cover the metric names and units against BENCHMARK.json, the output
checks on correct and on corrupted outputs, the seed reaching only the
random: specs, the tracer's patching, and the refusal to run without
sources.
"""

import contextlib
import io
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import tracer  # noqa: E402
import workloads  # noqa: E402
from tmscaling import cli, exponents, numtheory  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
                          capture_output=True, text=True, cwd=cwd, timeout=170)


def tiny_run(workload, trace, seed=5):
    proc = run_bench("--workload", workload, "--seed", str(seed), "--seconds", "1",
                     "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    return proc, json.loads(proc.stdout.strip().splitlines()[-1])


def output(call):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(call.argv) == 0
    return buf.getvalue()


def tiny_outputs(workload, seed=5):
    return {c.verb: (c, output(c)) for c in workloads.calls(workload, seed, "tiny")}


def test_benchmark_json_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    e2e = {m["name"]: m for m in SPEC["end_to_end"]}
    assert e2e["setup_s"]["unit"] == "s" and e2e["setup_s"]["better"] == "lower"
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values()) <= 0.25
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))


def test_one_command_reports_every_end_to_end_metric_of_every_workload():
    proc = run_bench("--workload", "all", "--seed", "5", "--seconds", "1", "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    results = [json.loads(ln) for ln in proc.stdout.splitlines() if ln.startswith("{")]
    assert len(results) == len(workloads.WORKLOADS)
    for result in results:
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
        assert {n: v["unit"] for n, v in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        assert all(v["value"] > 0 for v in result["metrics"].values())
    for m in SPEC["end_to_end"]:
        assert proc.stdout.count(f"\n{m['name']} = ") == len(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(workload):
    proc, result = tiny_run(workload, trace=1)
    assert result["correct"], proc.stderr
    metrics = result["metrics"]
    assert {n: v["unit"] for n, v in metrics.items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]}
    value = {n: v["value"] for n, v in metrics.items()}
    numtheory_counts = [n for n in value if n.startswith("numtheory.") and n.endswith("_calls")]
    if workload == "exact":
        assert value["wavenumber.levels"] == 0 and value["streams.digits_drawn"] == 0
        assert all(value[n] > 0 for n in numtheory_counts)
        assert value["exponents.orbit_terms"] > 0
    else:
        assert value["wavenumber.levels"] > 0 and value["streams.digits_drawn"] > 0
        assert all(value[n] == 0 for n in numtheory_counts + ["numtheory.orbit_elements"])
    for verb in workloads.VERBS:
        in_workload = verb in {c.verb for c in workloads.calls(workload, 5, "tiny")}
        assert (value[f"cli.{verb}_s"] > 0) == in_workload, verb


def test_every_per_layer_metric_is_measured_somewhere():
    """A name in BENCHMARK.json that no layer fills would read 0 everywhere."""
    measured = set()
    for workload in workloads.WORKLOADS:
        tr = tracer.Tracer()
        with tr:
            for call in workloads.calls(workload, 5, "tiny"):
                output(call)
        tr.replay()
        measured |= set(tr.metrics())
    extra = {"tracing.overhead_s", "cli.stdout_bytes", "exponents.workers"}
    extra |= {f"cli.{v}_s" for v in workloads.VERBS}
    assert {m["name"] for m in SPEC["per_layer"]} <= measured | extra


def test_tracer_counts_repeat_and_patches_are_restored():
    originals = (numtheory.doubling_orbit, exponents.doubling_orbit, exponents.orbit_log_mean)
    counts = []
    for _ in range(2):
        with tracer.Tracer() as tr:
            for call in workloads.calls("trace", 5, "tiny"):
                output(call)
        tr.replay()
        counts.append({n: v for n, v in tr.metrics().items() if not n.endswith("_s")
                       and n != "streams.cache_peak_mb"})
    assert counts[0] == counts[1]
    assert (numtheory.doubling_orbit, exponents.doubling_orbit,
            exponents.orbit_log_mean) == originals


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_checks_pass_on_real_outputs(workload):
    for verb, (call, out) in tiny_outputs(workload).items():
        assert call.check(out) == [], verb


def set_value(key, value):
    """Corruption: replace the number after 'key = ' by ``value``."""
    return lambda out: re.sub(rf"{re.escape(key)} = \S+", f"{key} = {value}", out, count=1)


CORRUPTIONS = {
    "table": lambda out: out + "999,5,0.5\n",
    "figure": lambda out: out.replace("\n7,-", "\n7,", 1),
    "identities": lambda out: out.replace("status = ok", "status = FAIL"),
    "exponent": set_value("beta", -0.5),
    "weyl": set_value("mean_log_factor", -0.2),
    "perturb": set_value("final_running_exponent", 0.3),
    "mix": set_value("limsup", -0.1),
    "riesz-trace": lambda out: out.rsplit("\n", 2)[0] + "\n",
}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_checks_fail_on_corrupted_outputs(workload):
    for verb, (call, out) in tiny_outputs(workload).items():
        bad = CORRUPTIONS[verb](out)
        assert bad != out, verb
        problems = call.check(bad)
        assert problems and not any("unparseable" in p for p in problems), verb
        assert call.check(""), verb


def test_table_hash_catches_a_changed_digit():
    call = workloads.calls("exact", 0, "tiny")[0]
    out = output(call)
    bad = out.replace("0.266441", "0.266442")
    assert bad != out
    assert any("sha256" in p for p in call.check(bad))


def test_seed_reaches_only_the_random_specs():
    exact = [c.argv for c in workloads.calls("exact", 1)]
    assert exact == [c.argv for c in workloads.calls("exact", 2)]
    assert not any("random:" in a for argv in exact for a in argv)
    for workload in ("weyl", "trace"):
        argvs = [c.argv for c in workloads.calls(workload, 17)]
        assert sum("random:17" in argv for argv in argvs) == 1
        assert not any("random:18" in a for argv in argvs for a in argv)
    assert tiny_outputs("weyl", 1)["weyl"][1] != tiny_outputs("weyl", 2)["weyl"][1]
    proc, _ = tiny_run("weyl", trace=0, seed=23)
    assert '"seed": 23' in proc.stdout


def test_exponent_moduli_have_full_order_of_two():
    for size in workloads.SIZES.values():
        q = size["exponent_q"]
        assert workloads.is_prime(q) and workloads.order_of_two(q) == q - 1


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "weyl", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode not in (0, None)
    assert proc.stdout == ""


def test_failed_check_makes_the_run_exit_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for sub in ("bench", "src", "tests"):
        shutil.copytree(ROOT / sub, tmp_path / sub,
                        ignore=shutil.ignore_patterns("__pycache__"))
    expected = json.loads((BENCH_DIR / "expected.json").read_text())
    expected["table_sha256"][str(workloads.SIZES["tiny"]["table_qmax"])] = "0" * 64
    (tmp_path / "bench" / "expected.json").write_text(json.dumps(expected))
    proc = run_bench("--workload", "exact", "--seed", "1", "--seconds", "1",
                     "--size", "tiny", cwd=tmp_path)
    assert proc.returncode == 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert not result["correct"] and result["failed"] == result["attempted"] // 4
    assert "sha256" in proc.stderr
