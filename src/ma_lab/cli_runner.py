"""Batch front end: experiment configs, orchestration, reports, plot data.

Config files are plain text with optional [section] headers and key = value
lines. parse_config validates everything at once and reports every problem
with its line number; run executes a validated config and writes report.json,
one CSV per swept quantity, and two-column gnuplot-friendly .dat files.

Exit codes: 0 all assertions passed, 1 assertion or runtime failure,
2 config error, 3 solver failure. The output directory resolves in the order
--out flag, MA_LAB_OUT environment variable, config `out` key, ./ma_lab_out.
"""

import argparse
import json
import os
import sys
import time
from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait
from dataclasses import dataclass, fields, replace
from typing import Optional

import numpy as np

from .domain_grid import (
    DomainError,
    FieldError,
    GridError,
    build_domain,
    discretize,
    fmt_float,
    write_field_csv,
    write_lines,
)
from .ma_solve import SolveError
from .lma_solve import abp_check, solve_lma
from .section_geom import (
    SectionError,
    engulfing_constant,
    interior_heights,
    measure_c_cap,
    section,
    volume_scaling,
)
from .covering_maximal import CoveringError, maximal_function, strong_type_ratio, vitali_cover
from .good_sets import GoodSetError, good_set_survey
from .barriers import BarrierError, build_supersolution, verify_supersolution
from .stability_lab import (
    ExperimentReport,
    PinchedFamily,
    StabilityError,
    approximation_experiment,
    check,
    cofactor_stability_sweep,
    contact_set_experiment,
    convex_w21e_check,
    default_bump,
    sobolev_stability_sweep,
    w2p_ratio_sweep,
)


class ConfigError(ValueError):
    """Carries every problem found in a config, one message per line issue."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


KNOWN_DOMAINS = ("disc", "ellipse", "square")
KNOWN_G0 = ("bump", "constant")


@dataclass
class ExperimentConfig:
    experiment: str = ""
    domain: str = "disc"
    radius: float = 1.0
    a: float = 1.0
    b: float = 1.0
    side: float = 2.0
    spacing: float = 1.0 / 32
    eps: tuple = (0.2, 0.1, 0.05)
    betas: tuple = ()
    g0: str = "bump"
    p: float = 2.0
    q: float = 4.0
    gamma: float = 1.1
    sigma: float = 0.5
    delta: float = 0.5
    lam: Optional[float] = None
    Lam: Optional[float] = None
    m: float = 2.0
    height: Optional[float] = None
    # experiments running at once in a suite (its peak memory grows with
    # them, up to 13); the sweep pool size for a single experiment; 0 = all cores
    threads: int = 0
    tol_ma: float = 1e-8
    tol_lma: float = 1e-8
    out: str = ""


# each key parses by its field's type: str, int, tuple (a list of floats) or
# float (Optional[float] too); every number must be strictly positive
_KINDS = {f.name: f.type for f in fields(ExperimentConfig)}
KNOWN_KEYS = set(_KINDS)


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a config, collecting every error before raising.

    Lines are key = value pairs; [section] headers and lines starting with #
    are allowed and carry no meaning beyond grouping. List values are comma
    separated. Raises ConfigError with one message per problem, each naming
    the offending key and line.
    """
    errors = []
    seen = {}
    values = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            continue
        if "=" not in line:
            errors.append(f"line {lineno}: expected key = value, got {line!r}")
            continue
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if not key:
            errors.append(f"line {lineno}: expected key = value, got {line!r}")
            continue
        if key not in KNOWN_KEYS:
            errors.append(f"line {lineno}: unknown key {key!r}")
            continue
        if key in seen:
            errors.append(
                f"duplicate key {key!r} at lines {seen[key]} and {lineno}"
            )
            continue
        seen[key] = lineno
        values[key] = (val, lineno)

    cfg = ExperimentConfig()

    def _number(key, raw_val, lineno):
        try:
            x = float(raw_val)
        except ValueError:
            errors.append(
                f"line {lineno}: key {key!r}: could not parse {raw_val!r} as a number"
            )
            return None
        if not x > 0:
            errors.append(f"line {lineno}: key {key!r}: must be positive, got {raw_val}")
            return None
        return x

    for key, (val, lineno) in values.items():
        kind = _KINDS[key]
        if kind is str:
            setattr(cfg, key, val)
            if key == "experiment" and val not in KNOWN_EXPERIMENTS:
                errors.append(
                    f"line {lineno}: unknown experiment {val!r}"
                    f" (known: {', '.join(KNOWN_EXPERIMENTS)})"
                )
            elif key == "domain" and val not in KNOWN_DOMAINS:
                errors.append(
                    f"line {lineno}: unknown domain {val!r} (known: {', '.join(KNOWN_DOMAINS)})"
                )
            elif key == "g0" and val not in KNOWN_G0:
                errors.append(
                    f"line {lineno}: unknown g0 form {val!r} (known: {', '.join(KNOWN_G0)})"
                )
        elif kind is int:
            x = _number(key, val, lineno)
            if x is not None:
                if x != int(x):
                    errors.append(f"line {lineno}: key {key!r}: must be an integer, got {val}")
                else:
                    setattr(cfg, key, int(x))
        elif kind is tuple:
            parts = [s.strip() for s in val.split(",") if s.strip()]
            if not parts:
                errors.append(f"line {lineno}: key {key!r}: empty list")
                continue
            xs = [_number(key, s, lineno) for s in parts]
            if all(x is not None for x in xs):
                setattr(cfg, key, tuple(xs))
        else:
            x = _number(key, val, lineno)
            if x is not None:
                setattr(cfg, key, x)

    if "experiment" not in values:
        errors.append("missing required key 'experiment'")

    if errors:
        raise ConfigError(errors)
    return cfg


# ---------------------------------------------------------------------------
# orchestration
# ---------------------------------------------------------------------------


def _threads(config: ExperimentConfig) -> int:
    """Worker pool size: config.threads, or all available cores when it is 0.

    A suite runs this many experiments at once, and its peak memory grows
    with that number, up to the 13 experiments; a single experiment uses it
    as the pool size of its stability sweep.
    """
    if config.threads > 0:
        return config.threads
    return os.cpu_count() or 1


def _family(config: ExperimentConfig) -> PinchedFamily:
    """The config's grid with its pinched potentials, none solved yet."""
    dom = build_domain(config.domain, radius=config.radius, a=config.a, b=config.b, side=config.side)
    grid = discretize(dom, config.spacing)
    g0 = None if config.g0 == "constant" else default_bump(dom)
    return PinchedFamily(grid, g0, tol_ma=config.tol_ma)


def _pinched(config: ExperimentConfig, family: PinchedFamily):
    """The family's potential at the first sweep entry (flat when there is none)."""
    return family.potential(config.eps[0] if config.eps else 0.0)


def _config_echo(config: ExperimentConfig) -> dict:
    d = {}
    for f in fields(config):
        v = getattr(config, f.name)
        if isinstance(v, tuple):
            v = list(v)
        d[f.name] = v
    return d


def _run_solve_ma(config: ExperimentConfig, out: str, family: PinchedFamily) -> ExperimentReport:
    pot = _pinched(config, family)
    assertions = []
    check(assertions, "newton residual within tolerance",
          pot.residual_max, "<=", 10.0 * config.tol_ma)
    check(assertions, "certified convex", pot.convexity_margin, ">=", 0.0)
    write_field_csv(pot.phi, os.path.join(out, "potential.csv"))
    return ExperimentReport(
        experiment="solve_ma", config=_config_echo(config), sweep=[],
        measured={"residual_max": pot.residual_max,
                  "convexity_margin": pot.convexity_margin,
                  "newton_iterations": pot.newton_iterations,
                  "start": pot.start},
        slopes={}, assertions=assertions,
    )


def _run_solve_lma(config: ExperimentConfig, out: str, family: PinchedFamily) -> ExperimentReport:
    pot = _pinched(config, family)
    grid = family.grid
    X, Y = grid.meshes()
    f = np.sin(np.pi * X) * np.cos(np.pi * Y) + 2.0
    sol = solve_lma(pot, f, tol_lma=config.tol_lma)
    abp = abp_check(sol)
    assertions = []
    check(assertions, "linear solve residual within tolerance",
          sol.residual_max, "<=", 10.0 * config.tol_lma)
    check(assertions, "abp ratio finite", abp.ratio, "<=", 1e6)
    write_field_csv(sol.u, os.path.join(out, "solution.csv"))
    return ExperimentReport(
        experiment="solve_lma", config=_config_echo(config), sweep=[],
        measured={"residual_max": sol.residual_max, "abp_ratio": abp.ratio,
                  "sup_u": float(np.nanmax(np.abs(sol.u.values)))},
        slopes={}, assertions=assertions,
    )


def _run_sections(config: ExperimentConfig, out: str, family: PinchedFamily) -> ExperimentReport:
    pot = _pinched(config, family)
    c_cap = measure_c_cap(interior_heights(pot))
    t_values = [0.2 * c_cap, 0.4 * c_cap, 0.6 * c_cap, 0.8 * c_cap]
    sections = [section(pot, np.zeros(2), t) for t in t_values]
    rows = [(t, sec.measure, int(sec.cells.sum()), sec.is_interior) for t, sec in zip(t_values, sections)]
    theta_star = engulfing_constant(pot, sections, n_random=6, seed=0)
    vol = volume_scaling(sections)
    assertions = []
    check(assertions, "section measures increase with height",
          rows[0][1], "<=", rows[-1][1])
    check(assertions, "volume scaling exponent near linear",
          vol.exponent, "~", 1.0, tol=0.15)
    check(assertions, "engulfing constant bounded", theta_star, "<=", 6.0)
    lines = ["t,measure,cells,interior"]
    for t, meas, n, inter in rows:
        lines.append(f"{fmt_float(t)},{fmt_float(meas)},{n},{int(inter)}")
    write_lines(os.path.join(out, "sections_summary.csv"), lines)
    return ExperimentReport(
        experiment="sections", config=_config_echo(config), sweep=list(t_values),
        measured={"measure": [r[1] for r in rows],
                  "cells": [r[2] for r in rows],
                  "theta_star": theta_star,
                  "volume_exponent": vol.exponent},
        slopes={"volume": vol.exponent},
        assertions=assertions,
    )


def _run_cover(config: ExperimentConfig, out: str, family: PinchedFamily) -> ExperimentReport:
    pot = _pinched(config, family)
    grid = family.grid
    cover = vitali_cover(pot, grid.interior)
    assertions = []
    check(assertions, "half-height sections cover the region",
          cover.coverage_defect, "<=", 0.0)
    lines = ["x,y,height"]
    for (x, y), h in zip(cover.centers, cover.heights):
        lines.append(f"{fmt_float(x)},{fmt_float(y)},{fmt_float(h)}")
    write_lines(os.path.join(out, "cover_centers.csv"), lines)
    return ExperimentReport(
        experiment="cover", config=_config_echo(config), sweep=[],
        measured={"n_selected": int(len(cover.heights)),
                  "delta0": cover.delta0,
                  "coverage_defect": cover.coverage_defect},
        slopes={}, assertions=assertions,
    )


def _run_maximal(config: ExperimentConfig, out: str, family: PinchedFamily) -> ExperimentReport:
    pot = _pinched(config, family)
    grid = family.grid
    X, Y = grid.meshes()
    f = np.ones(grid.shape) if family.g0 is None else np.asarray(family.g0(X, Y), dtype=float)
    m_one, m_f = maximal_function(pot, [1.0, f])
    dev = float(np.nanmax(np.abs(m_one.values[grid.in_domain] - 1.0)))
    ratio = strong_type_ratio(m_f, f, p=config.p)
    assertions = []
    check(assertions, "maximal function of 1 is 1", dev, "<=", 1e-12)
    check(assertions, "strong type ratio finite", ratio, "<=", 1e6)
    check(assertions, "maximal dominates the average", ratio, ">=", 1.0 - 1e-12)
    write_field_csv(m_f, os.path.join(out, "maximal_field.csv"))
    return ExperimentReport(
        experiment="maximal", config=_config_echo(config), sweep=[],
        measured={"m_one_deviation": dev, "strong_type_ratio": ratio},
        slopes={}, assertions=assertions,
    )


def _run_goodsets(config: ExperimentConfig, out: str, family: PinchedFamily) -> ExperimentReport:
    pot = _pinched(config, family)
    grid = family.grid
    X, Y = grid.meshes()
    f = np.sin(np.pi * X) * np.cos(np.pi * Y) + 2.0
    sol = solve_lma(pot, f, tol_lma=config.tol_lma)
    betas = np.asarray(config.betas if config.betas else np.geomspace(1.2, 40.0, 10))
    M_grid = (2.0, 4.0, 8.0)
    sigma_grid = (0.1, 0.3, 0.5)
    res = good_set_survey(pot, sol.u, betas, m=config.m, M_grid=M_grid, sigma_grid=sigma_grid)
    assertions = []
    mono_F2 = bool(np.all(np.diff(res.F2) <= 1e-14))
    check(assertions, "F2 non-increasing", 0.0 if mono_F2 else 1.0, "<=", 0.0)
    for a, b in zip(M_grid, M_grid[1:]):
        grows = not (res.good_masks[a] & ~res.good_masks[b]).any()
        check(assertions, f"good sets grow from M={a} to M={b}",
              0.0 if grows else 1.0, "<=", 0.0)
    for a, b in zip(sigma_grid, sigma_grid[1:]):
        shrinks = not (res.quasi_masks[b] & ~res.quasi_masks[a]).any()
        check(assertions, f"quasi masks shrink from sigma={a} to sigma={b}",
              0.0 if shrinks else 1.0, "<=", 0.0)
    lines = ["beta,F,F1,F2"]
    for k, b in enumerate(res.beta_grid):
        lines.append(",".join(fmt_float(v) for v in (b, res.F[k], res.F1[k], res.F2[k])))
    write_lines(os.path.join(out, "distribution.csv"), lines)
    Xm, Ym = grid.meshes()
    for M in M_grid:
        mask = res.good_masks[M]
        lines = ["x,y"]
        for i, j in np.argwhere(mask):
            lines.append(f"{fmt_float(Xm[i, j])},{fmt_float(Ym[i, j])}")
        write_lines(os.path.join(out, f"good_mask_M{fmt_float(M)}.csv"), lines)
    fits = {k: {"tau": v.tau, "C": v.C, "residual": v.residual} for k, v in res.fits.items()}
    return ExperimentReport(
        experiment="goodsets", config=_config_echo(config), sweep=list(betas),
        measured={"F": list(res.F), "F1": list(res.F1), "F2": list(res.F2),
                  "c_inst": res.c_inst, "fits": fits},
        slopes={k: v.tau for k, v in res.fits.items()},
        assertions=assertions,
    )


def _run_barrier(config: ExperimentConfig, out: str, family: PinchedFamily) -> ExperimentReport:
    pot = _pinched(config, family)
    grid = family.grid
    anchor = grid.domain.boundary_samples(64)[0]
    barrier = build_supersolution(pot, anchor, lam=config.lam, Lam=config.Lam,
                                  delta=config.delta)
    rep = verify_supersolution(barrier, pot)
    assertions = []
    check(assertions, "operator value below the negative threshold",
          rep.interior_max, "<=", rep.threshold)
    check(assertions, "barrier nonnegative on the flat boundary piece",
          rep.boundary_min, ">=", -rep.boundary_tol)
    check(assertions, "barrier dominates the gap on the inner circle",
          rep.circle_min, ">=", rep.delta_tilde - rep.circle_tol)
    write_field_csv(barrier.w, os.path.join(out, "barrier.csv"), mask=barrier.mask)
    return ExperimentReport(
        experiment="barrier", config=_config_echo(config), sweep=[],
        measured={"interior_max": rep.interior_max, "threshold": rep.threshold,
                  "boundary_min": rep.boundary_min, "circle_min": rep.circle_min,
                  "delta_tilde": rep.delta_tilde,
                  "n_interior": rep.n_interior},
        slopes={}, assertions=assertions,
    )


def _run_cofactor_stability(config: ExperimentConfig, out: str, family: PinchedFamily) -> ExperimentReport:
    return cofactor_stability_sweep(family, list(config.eps), q=config.p, threads=_threads(config))


def _run_sobolev_stability(config: ExperimentConfig, out: str, family: PinchedFamily) -> ExperimentReport:
    return sobolev_stability_sweep(family, list(config.eps), gamma=config.gamma, threads=_threads(config))


def _run_approximation(config: ExperimentConfig, out: str, family: PinchedFamily) -> ExperimentReport:
    return approximation_experiment(family, list(config.eps), threads=_threads(config))


def _run_w21e(config: ExperimentConfig, out: str, family: PinchedFamily) -> ExperimentReport:
    pot = _pinched(config, family)
    return convex_w21e_check(pot, 2.0 * pot.g_values, boundary=pot.boundary_datum)


def _run_contact_set(config: ExperimentConfig, out: str, family: PinchedFamily) -> ExperimentReport:
    return contact_set_experiment(family, list(config.eps), sigma=config.sigma, height=config.height)


def _run_w2p_ratio(config: ExperimentConfig, out: str, family: PinchedFamily) -> ExperimentReport:
    return w2p_ratio_sweep(family, list(config.eps), p=config.p, q=config.q, threads=_threads(config))


# every experiment, in suite order: its name, its runner and the config
# overrides it gets inside a suite
_EXPERIMENTS = (
    ("solve_ma", _run_solve_ma, {}),
    ("solve_lma", _run_solve_lma, {}),
    ("sections", _run_sections, {}),
    ("cover", _run_cover, {}),
    ("maximal", _run_maximal, {}),
    ("goodsets", _run_goodsets, {}),
    ("barrier", _run_barrier, {}),
    ("cofactor_stability", _run_cofactor_stability, {"eps": (0.2, 0.1, 0.05, 0.025)}),
    ("sobolev_stability", _run_sobolev_stability, {}),
    ("approximation", _run_approximation, {}),
    ("w21e", _run_w21e, {}),
    ("contact_set", _run_contact_set, {"sigma": 0.9}),
    ("w2p_ratio", _run_w2p_ratio, {}),
)
_RUNNERS = {name: runner for name, runner, _ in _EXPERIMENTS}
_SUITE = tuple((name, overrides) for name, _, overrides in _EXPERIMENTS)
KNOWN_EXPERIMENTS = tuple(_RUNNERS) + ("suite",)


def _dispatch(config: ExperimentConfig, out: str, family: PinchedFamily) -> ExperimentReport:
    runner = _RUNNERS.get(config.experiment)
    if runner is None:
        raise ConfigError([f"experiment {config.experiment!r} cannot be dispatched"])
    return runner(config, out, family)


_SWEEP_LABELS = {
    "goodsets": "beta",
    "sections": "t",
    "convex_w21e_check": "gamma",
}


def _write_artifacts(report: ExperimentReport, out: str) -> None:
    """report.json plus one CSV and one .dat per swept quantity."""
    label = _SWEEP_LABELS.get(report.experiment, "eps")
    sweep = list(report.sweep)
    for key, val in report.measured.items():
        if isinstance(val, (list, tuple, np.ndarray)) and sweep and len(val) == len(sweep):
            csv_path = os.path.join(out, f"{report.experiment}_{key}.csv")
            dat_path = os.path.join(out, f"{report.experiment}_{key}.dat")
            lines = [f"{label},{key}"]
            dat = [f"# {label} {key}"]
            for s, v in zip(sweep, val):
                lines.append(f"{fmt_float(s)},{fmt_float(v)}")
                dat.append(f"{fmt_float(s)} {fmt_float(v)}")
            write_lines(csv_path, lines)
            write_lines(dat_path, dat)
    with open(os.path.join(out, "report.json"), "w") as fh:
        json.dump(report.to_dict(), fh, indent=2, sort_keys=True, default=float)
        fh.write("\n")


def resolve_out(config: ExperimentConfig, out_flag: Optional[str] = None) -> str:
    """Output directory precedence: --out, MA_LAB_OUT, config out key, default."""
    if out_flag:
        return out_flag
    env = os.environ.get("MA_LAB_OUT", "")
    if env:
        return env
    if config.out:
        return config.out
    return "./ma_lab_out"


def run(config: ExperimentConfig, out_dir: Optional[str] = None,
        family: Optional[PinchedFamily] = None) -> int:
    """Execute a validated config; return the process exit code.

    Writes report.json, CSVs, and .dat plot files under the resolved output
    directory. Solver failures exit 3, assertion failures 1, success 0. I/O
    problems exit 1 and are reported with the offending path: the output
    directory, an experiment's own files, report.json and a suite's
    summary.json. family supplies the grid and the potentials; without one,
    run builds it from the config. run sets the report's wall_time: building
    the family, when it is not given, plus running the experiment.
    """
    out = resolve_out(config, out_dir)
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        print(f"cannot create output directory {out}: {exc}", file=sys.stderr)
        return 1

    try:
        t0 = time.perf_counter()
        if family is None:
            family = _family(config)
        if config.experiment == "suite":
            return _run_suite(config, out, family)
        report = _dispatch(config, out, family)
        report.wall_time = time.perf_counter() - t0
        _write_artifacts(report, out)
    except SolveError as exc:
        _write_failure(out, config, "solver", str(exc))
        print(f"solver failure: {config.experiment}: {exc}", file=sys.stderr)
        return 3
    except (DomainError, GridError, FieldError, SectionError, CoveringError,
            GoodSetError, BarrierError, StabilityError) as exc:
        _write_failure(out, config, type(exc).__name__, str(exc))
        print(f"run failed: {config.experiment}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"cannot write {exc.filename or out}: {exc}", file=sys.stderr)
        return 1
    # one write per experiment, so suite experiments running at once do not
    # interleave their lines
    sys.stdout.write("".join(
        f"[{'pass' if a.passed else 'FAIL'}] {config.experiment}: {a.name}: "
        f"{fmt_float(a.lhs)} {a.op} {fmt_float(a.rhs)}\n" for a in report.assertions))
    return 0 if report.passed else 1


def _write_failure(out: str, config: ExperimentConfig, kind: str, message: str) -> None:
    payload = {"experiment": config.experiment, "config": _config_echo(config),
               "failure": {"kind": kind, "message": message}, "passed": False}
    try:
        with open(os.path.join(out, "report.json"), "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        print(f"cannot write {os.path.join(out, 'report.json')}: {exc}", file=sys.stderr)


def _run_suite(config: ExperimentConfig, out: str, family: PinchedFamily) -> int:
    """Run the fixed experiment list, aggregate pass flags into summary.json.

    The experiments run side by side on a pool of _threads(config) workers,
    so the suite's peak memory grows with config.threads, up to the 13
    experiments. Each sub-config has threads = 1: a sweep inside the suite
    runs inline, and no more than _threads(config) experiment threads run at
    once. Every experiment shares the one family, so each potential is solved
    once per suite run, by the first experiment that asks for it. Each
    experiment goes through the module-level run, so a wrapper installed on
    cli_runner.run (perfbench's tracer) sees each one. An exception that run
    does not catch cancels the experiments not yet started and propagates.
    """

    def timed(sub: ExperimentConfig):
        t0 = time.perf_counter()
        code = run(sub, out_dir=os.path.join(out, sub.experiment), family=family)
        return code, time.perf_counter() - t0

    subs = [replace(config, **overrides, experiment=name, out="", threads=1)
            for name, overrides in _SUITE]
    pool = ThreadPoolExecutor(max_workers=_threads(config))
    try:
        futures = [pool.submit(timed, sub) for sub in subs]
        wait(futures, return_when=FIRST_EXCEPTION)
    finally:
        pool.shutdown(cancel_futures=True)
    summary = {}
    for sub, future in zip(subs, futures):
        # queued experiments are cancelled only behind one that raised, so
        # this raises the first exception in suite order
        code, wall = future.result()
        summary[sub.experiment] = {"exit_code": code, "passed": code == 0, "wall_time": wall}
    with open(os.path.join(out, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    n_pass = sum(1 for v in summary.values() if v["passed"])
    print(f"suite: {n_pass}/{len(summary)} experiments passed")
    worst = max(v["exit_code"] for v in summary.values())
    return 0 if worst == 0 else 1 if worst != 3 else 3


_SUBCOMMAND_DEFAULTS = {
    "solve-ma": "solve_ma",
    "solve-lma": "solve_lma",
    "sections": "sections",
    "cover": "cover",
    "maximal": "maximal",
    "goodsets": "goodsets",
    "barrier": "barrier",
    "stability": "cofactor_stability",
    "suite": "suite",
}


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(
        prog="ma-lab",
        description="Monge-Ampere section-geometry laboratory batch runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _SUBCOMMAND_DEFAULTS:
        s = sub.add_parser(name, help=f"run the {name} experiment group")
        s.add_argument("--config", default=None, help="path to a config file")
        s.add_argument("--out", default=None, help="output directory")
        s.add_argument("--spacing", type=float, default=None, help="grid spacing override")
        s.add_argument("--threads", type=int, default=None,
                       help="experiments running at once in a suite (peak memory grows "
                            "with them, up to 13), or the sweep pool size of a single "
                            "experiment; default all cores")
    args = parser.parse_args(argv)

    if args.config is not None:
        try:
            with open(args.config) as fh:
                text = fh.read()
        except OSError as exc:
            print(f"cannot read config {args.config}: {exc}", file=sys.stderr)
            sys.exit(2)
        try:
            config = parse_config(text)
        except ConfigError as exc:
            for err in exc.errors:
                print(f"config error: {err}", file=sys.stderr)
            sys.exit(2)
    else:
        config = ExperimentConfig(experiment=_SUBCOMMAND_DEFAULTS[args.command])

    if args.spacing is not None:
        if not args.spacing > 0:
            print(f"config error: --spacing must be positive, got {args.spacing}",
                  file=sys.stderr)
            sys.exit(2)
        config.spacing = args.spacing
    if args.threads is not None:
        if args.threads < 1:
            print(f"config error: --threads must be at least 1, got {args.threads}",
                  file=sys.stderr)
            sys.exit(2)
        config.threads = args.threads

    sys.exit(run(config, out_dir=args.out))


if __name__ == "__main__":
    main()
