"""Benchmark of ma_lab: one workload per run, measured from outside the package.

    python3 perfbench/run.py --workload suite-curved --seed 1 --seconds 10 --trace 0

Workloads (see NOTES.md for why each exists and what it should show):

    suite-curved     `ma-lab suite` on the disc at 1/64, then the ellipse at 1/32
    suite-square-32  `ma-lab suite` on the square (side 2) at 1/32
    solve-fine       solve_ma then solve_lma on the g = 1 disc at 1/128 and
                     the bumped square at 1/160

Each run starts worker processes (worker.py) one after another. With
--trace 0 it reports the end-to-end metrics: two set-up-only processes plus
the workload process give three set-up times, whose median is setup_s. With
--trace 1 it runs the workload untraced, then traced, checks that both gave
identical outputs, and reports the per-layer metrics. The operations repeat
until --seconds have passed (at least once); wall_s is the median pass.

Stdout ends with one JSON line: correct, attempted, failed, metrics. The
lines before it print every metric by name with its unit, the diagnostics
(ops_failed_frac, the difference count against the reference outputs in
reference/) and the machine. A copy with the diagnostics is written under
.perfbench_work/results/. `--smoke` runs every workload's code path at
spacing 1/16 with one set-up probe; smoke.py uses it.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import worker  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_ok_frac": "ratio",
    "peak_rss_mb": "MB",
    "phi_err_max": "abs",
}

SETUP_PROBES = 2
DEADLINE_S = 175.0

# The closed-form disc error is about 1.8 h^2 at 1/32, 1/64 and 1/128; a
# correct second-order discretisation stays below 4 h^2.
PHI_ERR_FACTOR = 4.0
REL_TOL = 1e-12

# per-layer counters that must be nonzero on each workload's traced run;
# those marked full-scale depend on grid size and are not expected at 1/16
_SUITE_LAYERS = (
    [f"cli_runner.{e}.s" for e in tracing.SUITE_EXPERIMENTS]
    + ["ma_solve.solve_ma.calls", "ma_solve.newton_iterations", "ma_solve.linear_solve.calls",
       "ma_solve.linear_solve.useful_ratio", "ma_solve.NodeSystem.s",
       "ma_solve.interior_matrix.s", "lma_solve.solve_lma.calls",
       "section_geom.interior_heights.s", "section_geom.section.s",
       "section_geom.engulfing_constant.s", "section_geom.measure_c_cap.s",
       "covering_maximal.maximal_function.calls", "covering_maximal.maximal_function.pair_rate",
       "covering_maximal.vitali_cover.s", "covering_maximal.height_grid.s",
       "good_sets.good_set_survey.s", "good_sets.minimal_opening_field.s",
       "good_sets.quasi_euclidean_ratio_min.s", "good_sets.quasi_euclidean_constant.s",
       "stability_lab.run_sweep.calls", "barriers.build_supersolution.s",
       "barriers.verify_supersolution.s", "domain_grid.discretize.calls",
       "domain_grid.fd_derivatives.calls", "domain_grid.write_field_csv.s"]
)
EXPECTED_NONZERO = {
    "suite-curved": (_SUITE_LAYERS, []),
    "suite-square-32": (_SUITE_LAYERS, ["ma_solve.solve_ma.nested_calls"]),
    "solve-fine": (
        ["ma_solve.solve_ma.calls", "ma_solve.newton_iterations", "ma_solve.linear_solve.calls",
         "ma_solve.linear_solve.n_max", "ma_solve.linear_solve.useful_ratio",
         "ma_solve.NodeSystem.s", "ma_solve.interior_matrix.s", "lma_solve.solve_lma.calls",
         "domain_grid.fd_derivatives.calls"],
        ["ma_solve.solve_ma.nested_calls", "ma_solve.linear_solve.ilu_s"],
    ),
}


def machine_info():
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu}


def spawn(args, name, deadline, trace, setup_only=False):
    """Run worker.py to completion; return (spawn time, its result dict)."""
    result = args.work / f"{name}.json"
    result.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(trace), "--result", str(result)]
    if setup_only:
        cmd.append("--setup-only")
    if args.smoke:
        cmd.append("--smoke")
    t0 = time.monotonic()
    # the worker's stdout (experiment logs) goes to our stderr, keeping
    # stdout for the metric lines
    proc = subprocess.run(cmd, stdout=sys.stderr, timeout=max(deadline - time.monotonic(), 1.0))
    if proc.returncode != 0:
        raise SystemExit(f"worker {name} exited with code {proc.returncode}")
    return t0, json.loads(result.read_text())


def _close(a, b, rel):
    """Equal, both NaN, or floats within rel relative of each other."""
    if a == b:
        return True
    if not (isinstance(a, float) and isinstance(b, float)):
        return False
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= rel * max(abs(a), abs(b))


def count_diffs(a, b, rel=0.0):
    """Keys of two flat dicts whose values are missing on one side or not close."""
    keys = set(a) | set(b)
    return sum(1 for k in keys if k not in a or k not in b or not _close(a[k], b[k], rel))


def reference_diffs(workload, values):
    path = HERE / "reference" / f"{workload}.json"
    if not path.is_file():
        return None
    return count_diffs(json.loads(path.read_text()), values, REL_TOL)


def run_untraced(args, deadline):
    setups = []
    for k in range(1 if args.smoke else SETUP_PROBES):
        t0, probe = spawn(args, f"setup{k}", deadline, 0, setup_only=True)
        setups.append(probe["ready"] - t0)
    t0, res = spawn(args, "run", deadline, 0)
    setups.append(res["ready"] - t0)
    res["setup_samples"] = setups
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": res["wall_s"],
        "ops_ok_frac": (res["attempted"] - res["failed_all"]) / res["attempted"],
        "peak_rss_mb": res["peak_rss_mb"],
        "phi_err_max": res["phi_err_max"],
    }
    return res, metrics, END_TO_END, []


def run_traced(args, deadline):
    plain = spawn(args, "plain", deadline, 0)[1]
    res = spawn(args, "traced", deadline, 1)[1]
    metrics = dict(res["layers"])
    metrics["trace.overhead_frac"] = (res["wall_s"] - plain["wall_s"]) / plain["wall_s"]
    problems = []
    for key in ("values", "files"):
        n = count_diffs(plain[key], res[key])
        if n:
            problems.append(f"traced run differs from the untraced run in {n} {key}")
    if [o["ok"] for o in plain["ops"]] != [o["ok"] for o in res["ops"]]:
        problems.append("traced run's operation outcomes differ from the untraced run's")
    if plain["phi_err_max"] != res["phi_err_max"]:
        problems.append("traced run's phi_err_max differs from the untraced run's")
    always, full_scale = EXPECTED_NONZERO[args.workload]
    for name in always + ([] if args.smoke else full_scale):
        if not metrics[name] > 0:
            problems.append(f"per-layer metric {name} is zero on {args.workload}")
    return res, metrics, tracing.metric_units(), problems


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=worker.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true",
                    help="run every code path at spacing 1/16 (for smoke.py)")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "ma_lab" / "__init__.py").is_file():
        print(f"no ma_lab sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    args.work = worker.WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    args.work.mkdir(parents=True, exist_ok=True)

    run = run_traced if args.trace else run_untraced
    res, metrics, units, problems = run(args, deadline)
    if res["failed_unexpected"]:
        bad = [o["op"] for o in res["ops"] if not o["ok"] and not o.get("expected_failure")]
        problems.append(f"unexpected failures: {', '.join(bad)}")
    h = res["phi_err_spacing"]
    if not res["phi_err_max"] <= PHI_ERR_FACTOR * h * h:
        problems.append(f"phi_err_max {res['phi_err_max']:.3e} above {PHI_ERR_FACTOR} h^2 at h = {h}")
    ref = None if args.smoke or args.workload not in worker.SUITES else \
        reference_diffs(args.workload, res["values"])

    machine = {**machine_info(), **res["machine"]}
    n_failed = res["failed_all"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  passes {res['passes']}")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    print(f"  ops_failed_frac = {n_failed / res['attempted']:.6g} ratio "
          f"({n_failed}/{res['attempted']} failed, {n_failed - res['failed_unexpected']} known)")
    if ref is not None:
        print(f"  reference_diffs = {ref} count (suite values differing from reference/)")
    for p in problems:
        print(f"  problem: {p}")
    print("machine " + json.dumps(machine, sort_keys=True))

    out = {
        "correct": not problems,
        "attempted": res["attempted"],
        "failed": res["failed_unexpected"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    results = worker.WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    record = {**out, "workload": args.workload, "seed": args.seed, "trace": args.trace,
              "smoke": args.smoke, "machine": machine, "problems": problems,
              "reference_diffs": ref, "ops": res["ops"], "walls": res["walls"],
              "failed_all": n_failed, "setup_samples": res.get("setup_samples")}
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
