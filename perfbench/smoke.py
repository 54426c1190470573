"""Smoke test of the benchmark itself, at spacing 1/16 (about a minute).

    python3 perfbench/smoke.py

For every workload in BENCHMARK.json, with tracing off and on, it runs
run.py --smoke and checks that the run exits 0, prints every metric of
BENCHMARK.json by name with its unit, prints ops_failed_frac, and ends with
one JSON result line with exactly the keys correct, attempted, failed and
metrics. It also checks that run.py exits non-zero, printing no result, in
a directory holding only BENCHMARK.json and perfbench/. Exits 1 on the
first problem found.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402

LINE = re.compile(r"^  (\S+) = (\S+) (\S+)")


def fail(msg):
    print(f"FAIL: {msg}")
    sys.exit(1)


def check_declared(bench):
    declared = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    if declared != run.END_TO_END:
        fail(f"BENCHMARK.json end_to_end {declared} != run.py's {run.END_TO_END}")
    declared = {m["name"]: m["unit"] for m in bench["per_layer"]}
    if declared != tracing.metric_units():
        fail("BENCHMARK.json per_layer differs from tracing.metric_units()")


def check_run(workload, trace, metrics):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
           "--seconds", "0", "--trace", str(trace), "--smoke"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        fail(f"{workload} trace {trace}: exit code {proc.returncode}\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload} trace {trace}: result keys {sorted(result)}")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1
            and isinstance(result["failed"], int)):
        fail(f"{workload} trace {trace}: bad attempted/failed {result}")
    printed = {m.group(1): m.group(3) for m in map(LINE.match, lines) if m}
    want = dict(metrics)
    if trace == 0:
        want["ops_failed_frac"] = "ratio"
    for name, unit in want.items():
        if printed.get(name) != unit:
            fail(f"{workload} trace {trace}: {name} printed as {printed.get(name)!r}, want unit {unit}")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != metrics:
        fail(f"{workload} trace {trace}: result metrics differ from BENCHMARK.json")
    print(f"ok  {workload} trace {trace}: {len(got)} metrics, correct={result['correct']}")


def check_bare_checkout():
    bare = worker.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "solve-fine",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        fail("run.py succeeded or printed a result without the ma_lab sources")
    print("ok  bare checkout exits with code", proc.returncode)


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_declared(bench)
    for w in bench["workloads"]:
        check_run(w["name"], 0, {m["name"]: m["unit"] for m in bench["end_to_end"]})
        check_run(w["name"], 1, {m["name"]: m["unit"] for m in bench["per_layer"]})
    check_bare_checkout()
    print("smoke test passed")


if __name__ == "__main__":
    main()
