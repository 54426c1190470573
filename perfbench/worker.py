"""One workload process: import ma_lab, build the grids, run the operations.

Run by run.py, never by hand:

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
        --trace 0|1 --result PATH [--setup-only] [--smoke]

The result file holds the time at which set-up ended (time.monotonic, which
is system-wide on Linux, so the parent can subtract its spawn time), the
operation counts, the output digest and, with --trace 1, the per-layer
metrics. ma_lab is imported from the src/ directory next to perfbench/;
an installed copy elsewhere is refused.
"""

import argparse
import ctypes
import glob
import hashlib
import json
import math
import os
import random
import resource
import shutil
import statistics
import sys
import time
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORK = ROOT / ".perfbench_work"

SMOKE_SPACING = 1.0 / 16
TOL = 1e-8
SUITE_THREADS = 2

DOMAINS = {
    "disc": {"radius": 1.0},
    "ellipse": {"a": 1.2, "b": 0.8},
    "square": {"side": 2.0},
}

# workload -> list of (domain, spacing) suite runs
SUITES = {
    "suite-curved": [("disc", 1.0 / 64), ("ellipse", 1.0 / 32)],
    "suite-square-32": [("square", 1.0 / 32)],
}

# experiments that failed when the benchmark was added, with their exit codes;
# see NOTES.md
KNOWN_FAILURES = {
    ("ellipse", "contact_set"): 1,
    ("square", "barrier"): 1,
    ("square", "contact_set"): 1,
    ("square", "cover"): 1,
}

# solve-fine: (domain, spacing, density bump amplitude); the disc has g = 1
# and the closed form (|x|^2 - 1)/2; the square at 1/160 is above the
# 257^2-unknown limit where linear_solve tries ILU first
FINE = [("disc", 1.0 / 128, 0.0), ("square", 1.0 / 160, 0.2)]

# spacing of the constant-density disc solve that gives phi_err_max
CLOSED_FORM_SPACING = {
    "suite-curved": 1.0 / 64,
    "suite-square-32": 1.0 / 32,
    "solve-fine": 1.0 / 128,
}

WORKLOADS = tuple(SUITES) + ("solve-fine",)


def import_lab():
    """Import ma_lab from this checkout's src/ and return its modules."""
    src = ROOT / "src"
    if not (src / "ma_lab" / "__init__.py").is_file():
        raise SystemExit(f"no ma_lab package under {src}")
    sys.path.insert(0, str(src))
    import ma_lab
    from ma_lab import cli_runner

    if not Path(ma_lab.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"ma_lab imported from {ma_lab.__file__}, not from {src}")
    return ma_lab, cli_runner


def plan(workload, smoke):
    """(domain, spacing) pairs of the workload's grids."""
    if workload in SUITES:
        pairs = SUITES[workload]
    else:
        pairs = [(d, h) for d, h, _ in FINE]
    if smoke:
        pairs = [(d, SMOKE_SPACING) for d, _ in pairs]
    return pairs


def build_grids(ma_lab, pairs):
    dg = ma_lab.domain_grid
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return {(d, h): dg.discretize(dg.build_domain(d, **DOMAINS[d]), h) for d, h in pairs}


def blas_threads():
    """OpenBLAS thread count of the library numpy loaded, or the environment's setting."""
    import numpy as np

    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(glob.glob(str(libdir / "*openblas*.so*"))):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        if os.environ.get(var):
            return int(os.environ[var])
    return None


def _flatten(prefix, value, out):
    if isinstance(value, dict):
        for k in sorted(value):
            _flatten(f"{prefix}/{k}", value[k], out)
    elif isinstance(value, list):
        for i, v in enumerate(value):
            _flatten(f"{prefix}/{i}", v, out)
    else:
        out[prefix] = value


def suite_outputs(out_dir, domain):
    """Reported values and file digests of one suite run.

    `values` holds what a reference comparison checks: every report.json
    value except wall times and the echoed config, each experiment's exit
    code and pass flag, the row count of every CSV and .dat file, and the
    contents hash of every mask file. `files` hashes every output file
    except report.json and summary.json, whose wall times differ per run.
    """
    values = {}
    files = {}
    with open(os.path.join(out_dir, "summary.json")) as fh:
        summary = json.load(fh)
    for exp, entry in summary.items():
        values[f"{domain}/{exp}/exit_code"] = entry["exit_code"]
        values[f"{domain}/{exp}/passed"] = entry["passed"]
    for dirpath, _, names in os.walk(out_dir):
        for name in sorted(names):
            path = os.path.join(dirpath, name)
            rel = f"{domain}/{os.path.relpath(path, out_dir)}"
            if name == "report.json":
                with open(path) as fh:
                    report = json.load(fh)
                report.pop("config", None)
                report.pop("wall_time", None)
                _flatten(rel, report, values)
            elif name != "summary.json":
                with open(path, "rb") as fh:
                    data = fh.read()
                digest = hashlib.sha256(data).hexdigest()
                files[rel] = digest
                values[f"{rel}#rows"] = data.count(b"\n")
                if name.startswith("good_mask"):
                    values[f"{rel}#sha256"] = digest
    return summary, values, files


def run_suites(cli_runner, pairs, scratch):
    """One pass: `ma-lab suite` on each (domain, spacing) in turn."""
    ops = []
    values = {}
    files = {}
    t0 = time.perf_counter()
    outs = []
    for domain, spacing in pairs:
        cfg = cli_runner.ExperimentConfig(experiment="suite", domain=domain, spacing=spacing,
                                          threads=SUITE_THREADS, **DOMAINS[domain])
        out = os.path.join(scratch, domain)
        cli_runner.run(cfg, out_dir=out)
        outs.append((domain, out))
    wall = time.perf_counter() - t0
    for domain, out in outs:
        summary, v, f = suite_outputs(out, domain)
        values.update(v)
        files.update(f)
        for exp, entry in summary.items():
            ops.append({"op": f"{domain}/{exp}", "ok": entry["exit_code"] == 0,
                        "expected_failure": entry["exit_code"] == KNOWN_FAILURES.get((domain, exp))})
    return wall, ops, values, files


def lma_rhs(seed):
    """Smooth right-hand side f >= 1 for solve_lma, with phases drawn from the seed."""
    rng = random.Random(seed)
    px, py = rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.0, 2.0 * math.pi)
    import numpy as np

    return lambda X, Y: 2.0 + np.sin(np.pi * X + px) * np.cos(np.pi * Y + py)


def _digest(arr):
    import numpy as np

    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()


def run_fine(ma_lab, grids, problems, f):
    """One pass: solve_ma then solve_lma on each problem in turn."""
    import numpy as np

    ms, ls = ma_lab.ma_solve, ma_lab.lma_solve
    bump = ma_lab.stability_lab.default_bump
    ops = []
    files = {}
    pots = {}
    t0 = time.perf_counter()
    for domain, spacing, eps in problems:
        grid = grids[(domain, spacing)]
        X, Y = grid.meshes()
        g = 1.0 + eps * np.asarray(bump(grid.domain)(X, Y), dtype=float) if eps else 1.0
        try:
            pot = ms.solve_ma(grid, g, tol_ma=TOL)
        except ms.SolveError as exc:
            ops.append({"op": f"{domain}/solve_ma", "ok": False, "error": str(exc)})
            ops.append({"op": f"{domain}/solve_lma", "ok": False, "error": "not run"})
            continue
        ops.append({"op": f"{domain}/solve_ma", "ok": pot.residual_max <= 10 * TOL})
        pots[domain] = pot
        files[f"{domain}/phi"] = _digest(pot.phi.values)
        files[f"{domain}/newton_iterations"] = pot.newton_iterations
        try:
            sol = ls.solve_lma(pot, f, tol_lma=TOL)
        except ms.SolveError as exc:
            ops.append({"op": f"{domain}/solve_lma", "ok": False, "error": str(exc)})
            continue
        ops.append({"op": f"{domain}/solve_lma", "ok": sol.residual_max <= 10 * TOL})
        files[f"{domain}/u"] = _digest(sol.u.values)
    wall = time.perf_counter() - t0
    return wall, ops, files, pots


def disc_error(ma_lab, grid, pot=None):
    """max |phi_h - (|x|^2 - 1)/2| over in-domain nodes of the g = 1 disc solve."""
    import numpy as np

    if pot is None:
        pot = ma_lab.ma_solve.solve_ma(grid, 1.0, tol_ma=TOL)
    X, Y = grid.meshes()
    err = np.abs(pot.phi.values - 0.5 * (X * X + Y * Y - 1.0))
    return float(np.max(err[grid.in_domain]))


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--result", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)

    ma_lab, cli_runner = import_lab()
    pairs = plan(args.workload, args.smoke)
    grids = build_grids(ma_lab, pairs)
    ready = time.monotonic()
    result = {"ready": ready}
    if args.setup_only:
        Path(args.result).write_text(json.dumps(result))
        return

    import numpy as np
    import scipy

    tracer = uninstall = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        uninstall = tracing.install(tracer, "ma_lab")

    scratch = Path(args.result).with_suffix(".out")
    problems = [(d, h, eps) for (d, h), (_, _, eps) in zip(pairs, FINE)]
    walls = []
    start = time.perf_counter()
    pots = {}
    values = {}
    while True:
        shutil.rmtree(scratch, ignore_errors=True)
        scratch.mkdir(parents=True)
        if args.workload in SUITES:
            wall, ops, values, files = run_suites(cli_runner, pairs, str(scratch))
        else:
            wall, ops, files, pots = run_fine(ma_lab, grids, problems, lma_rhs(args.seed))
        walls.append(wall)
        if time.perf_counter() - start >= args.seconds:
            break
    if uninstall is not None:
        uninstall()
    shutil.rmtree(scratch, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    spacing = SMOKE_SPACING if args.smoke else CLOSED_FORM_SPACING[args.workload]
    if "disc" in pots:
        phi_err = disc_error(ma_lab, grids[("disc", spacing)], pots["disc"])
    else:
        phi_err = disc_error(ma_lab, build_grids(ma_lab, [("disc", spacing)])[("disc", spacing)])

    passes = len(walls)
    result.update({
        "passes": passes,
        "wall_s": statistics.median(walls),
        "walls": walls,
        "ops": ops,
        "attempted": passes * len(ops),
        "failed_all": passes * sum(1 for o in ops if not o["ok"]),
        "failed_unexpected": passes * sum(1 for o in ops
                                          if not o["ok"] and not o.get("expected_failure")),
        "phi_err_max": phi_err,
        "phi_err_spacing": spacing,
        "peak_rss_mb": peak_rss_mb,
        "values": values,
        "files": files,
        "machine": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas_threads": blas_threads(),
        },
    })
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer.spans)
    Path(args.result).write_text(json.dumps(result, allow_nan=True))


if __name__ == "__main__":
    main()
