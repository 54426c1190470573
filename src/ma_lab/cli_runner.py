"""Batch front end: config parsing, orchestration and all file writing.

The 13 experiments live in stability_lab, registered by name in EXPERIMENTS;
each returns an ExperimentReport that carries the rows of its own files.
Config files are plain text with optional [section] headers and key = value
lines. parse_value is the one rule for a value: it parses a config line's
value and the --spacing and --threads flags alike, so a flag means what the
same text means in a config. parse_config validates a whole file at once
and reports every problem with its line number; run executes a validated
config, names the report after the experiment, echoes the config into it
beside the pool size it resolves to, and writes its files, here and nowhere
else: _write_table every table (the experiment's own, and a CSV and a
two-column gnuplot .dat per swept quantity), write_field_csv every field and
_write_json every JSON file.

A run computes on one worker pool: the outermost run creates it with
pool_size(config) workers, each of which holds it as
stability_lab.ACTIVE_POOL from its start, and hands it the run as one task.
run_sweep is the one fan-out on that pool: a sweep queues its values there,
idle workers take them, and the sweep's own thread runs every value no
worker has started. A suite is a sweep of its 13 experiments, each run
under the suite's threads, and an experiment's sweep queues its values on
the same pool. The pool is the run's only parallelism: at most
pool_size(config) threads compute at once, the caller only waits for the
run's task, and no worker's hot path calls a multi-threaded BLAS.

The command line has one subcommand per experiment, named as in
EXPERIMENTS, plus suite. Exit codes: 0 all assertions passed, 1 assertion
or runtime failure, 2 config error (a bad config line or flag, or a
--config whose experiment is not the subcommand), 3 solver failure. A NaN
or an inf among a report's measured values is an assertion failure, exit
1: ExperimentReport records one failed assertion naming those values. The
output directory resolves in the order --out flag (run's out_dir), config
`out` key, ./ma_lab_out.
"""

import argparse
import json
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, fields, replace
from functools import partial
from typing import Optional

import numpy as np

from .domain_grid import DOMAINS, LabError, build_domain, discretize, fmt_float, write_field_csv, write_lines
from .ma_solve import SolveError
from .stability_lab import (
    ACTIVE_POOL,
    EXPERIMENTS,
    ExperimentConfig,
    ExperimentReport,
    PinchedFamily,
    default_bump,
    pool_size,
    run_sweep,
)


class ConfigError(ValueError, argparse.ArgumentTypeError):
    """Carries every problem found in a config, one message per line issue.

    parse_value raises it with one message for a bad value, whether the text
    comes from a config line or from a flag; it is also argparse's
    ArgumentTypeError, so a flag that parse_value rejects exits 2 through
    argparse with that message.
    """

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


KNOWN_DOMAINS = tuple(DOMAINS)
KNOWN_G0 = ("bump", "constant")
KNOWN_EXPERIMENTS = tuple(EXPERIMENTS) + ("suite",)
# the str keys whose value must be one of these names
_CHOICES = {"experiment": KNOWN_EXPERIMENTS, "domain": KNOWN_DOMAINS, "g0": KNOWN_G0}

# each key's field type: str, int, tuple (a list of floats) or float (Optional[float] too)
_KINDS = {f.name: f.type for f in fields(ExperimentConfig)}
KNOWN_KEYS = set(_KINDS)


def parse_value(key: str, text: str):
    """The value of a known config key, parsed from its text by the key's field type.

    A str key with choices (experiment, domain, g0) must name one of them;
    every number, each item of a comma-separated list included, must be
    positive, and an int key's number must be whole. Raises ConfigError with
    one message naming the problem.
    """
    kind = _KINDS[key]
    if kind is str:
        if key in _CHOICES and text not in _CHOICES[key]:
            raise ConfigError([f"unknown {key} {text!r} (known: {', '.join(_CHOICES[key])})"])
        return text
    items = [s.strip() for s in text.split(",") if s.strip()] if kind is tuple else [text]
    if not items:
        raise ConfigError([f"key {key!r}: empty list"])
    xs = []
    for item in items:
        try:
            x = float(item)
        except ValueError:
            raise ConfigError([f"key {key!r}: could not parse {item!r} as a number"]) from None
        if not x > 0:
            raise ConfigError([f"key {key!r}: must be positive, got {item}"])
        xs.append(x)
    if kind is tuple:
        return tuple(xs)
    if kind is int:
        if not xs[0].is_integer():
            raise ConfigError([f"key {key!r}: must be an integer, got {text}"])
        return int(xs[0])
    return xs[0]


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a config, collecting every error before raising.

    Lines are key = value pairs; [section] headers and lines starting with #
    are allowed and carry no meaning beyond grouping. parse_value decides
    each value. Raises ConfigError with one message per problem, in line
    order, each naming the offending key and line.
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
        key, eq, val = (part.strip() for part in line.partition("="))
        if not eq or not key:
            errors.append(f"line {lineno}: expected key = value, got {line!r}")
        elif key not in KNOWN_KEYS:
            errors.append(f"line {lineno}: unknown key {key!r}")
        elif key in seen:
            errors.append(f"duplicate key {key!r} at lines {seen[key]} and {lineno}")
        else:
            seen[key] = lineno
            try:
                values[key] = parse_value(key, val)
            except ConfigError as exc:
                errors.append(f"line {lineno}: {exc}")

    if "experiment" not in seen:
        errors.append("missing required key 'experiment'")

    if errors:
        raise ConfigError(errors)
    return ExperimentConfig(**values)


# ---------------------------------------------------------------------------
# orchestration
# ---------------------------------------------------------------------------


def _family(config: ExperimentConfig) -> PinchedFamily:
    """The config's grid with its pinched potentials, none solved yet."""
    dom = build_domain(config.domain, radius=config.radius, a=config.a, b=config.b, side=config.side)
    grid = discretize(dom, config.spacing)
    g0 = None if config.g0 == "constant" else default_bump(dom)
    return PinchedFamily(grid, g0, tol_ma=config.tol_ma)


# the config overrides an experiment gets inside a suite
_SUITE_OVERRIDES = {
    "cofactor_stability": {"eps": (0.2, 0.1, 0.05, 0.025)},
    "contact_set": {"sigma": 0.9},
}


def _write_table(path: str, header, rows, sep: str = ",") -> None:
    """The header's names, then one line per row: a Python int with str, every other number with fmt_float."""
    lines = [sep.join(header)]
    lines += [sep.join(str(x) if isinstance(x, int) else fmt_float(x) for x in row) for row in rows]
    write_lines(path, lines)


def _write_json(path: str, payload) -> None:
    """payload as JSON: indent 2, sorted keys, numpy numbers as floats, and a final newline."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=float)
        fh.write("\n")


def _write_artifacts(report: ExperimentReport, out: str, workers: int) -> None:
    """The experiment's own files, one CSV and one .dat per swept quantity, then report.json.

    report.json holds the report and, beside its echoed config, pool_size:
    workers, the pool size that config resolves to.
    """
    for name, (first, second) in report.files.items():
        if isinstance(first, tuple):
            _write_table(os.path.join(out, name), first, second)
        else:
            write_field_csv(first, os.path.join(out, name), mask=second)
    sweep = list(report.sweep)
    for key, val in report.measured.items():
        if isinstance(val, (list, tuple, np.ndarray)) and sweep and len(val) == len(sweep):
            rows = [(float(s), float(v)) for s, v in zip(sweep, val)]
            path = os.path.join(out, f"{report.experiment}_{key}")
            _write_table(path + ".csv", (report.sweep_label, key), rows)
            _write_table(path + ".dat", (f"# {report.sweep_label}", key), rows, sep=" ")
    _write_json(os.path.join(out, "report.json"), {**report.to_dict(), "pool_size": workers})


def run(config: ExperimentConfig, out_dir: Optional[str] = None,
        family: Optional[PinchedFamily] = None) -> int:
    """Execute a validated config; return the process exit code.

    Writes the experiment's own files, its sweep CSVs and .dat plot files
    and report.json under the resolved output directory. Solver failures
    exit 3, assertion failures 1, success 0. I/O problems exit 1 and are
    reported with the offending path: the output directory, an experiment's
    own files, report.json and a suite's summary.json. family supplies the
    grid and the potentials; without one, run builds it from the config.
    run names the report after config.experiment, echoes the config into
    it, beside the pool size the config resolves to (pool_size), and sets
    its wall_time: building the family, when it is not given, plus
    computing the report; writing the files is not included.

    A run outside any run creates the run's one worker pool, of
    pool_size(config) workers, whose initializer sets ACTIVE_POOL to the
    pool once in each worker, and submits the run to it as one task, an
    experiment or a suite alike, while this thread waits. A run on a pool
    worker, a suite's experiment, computes on the thread that calls it.
    """
    if ACTIVE_POOL.get() is not None:
        return _run_in_pool(config, out_dir, family)
    # the workers start at the first submit, once `pool` is bound
    with ThreadPoolExecutor(max_workers=pool_size(config), initializer=lambda: ACTIVE_POOL.set(pool)) as pool:
        return pool.submit(_run_in_pool, config, out_dir, family).result()


def _run_in_pool(config: ExperimentConfig, out_dir: Optional[str], family: Optional[PinchedFamily]) -> int:
    """run's work, with the run's pool active."""
    out = out_dir or config.out or "./ma_lab_out"
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
        report = EXPERIMENTS[config.experiment](family, config)
        report.wall_time = time.perf_counter() - t0
        report.experiment = config.experiment
        report.config = asdict(config)
        _write_artifacts(report, out, pool_size(config))
    except SolveError as exc:
        _write_failure(out, config, "solver", str(exc))
        print(f"solver failure: {config.experiment}: {exc}", file=sys.stderr)
        return 3
    except LabError as exc:
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
    payload = {"experiment": config.experiment, "config": asdict(config), "pool_size": pool_size(config),
               "failure": {"kind": kind, "message": message}, "passed": False}
    try:
        _write_json(os.path.join(out, "report.json"), payload)
    except OSError as exc:
        print(f"cannot write {os.path.join(out, 'report.json')}: {exc}", file=sys.stderr)


def _run_suite(config: ExperimentConfig, out: str, family: PinchedFamily) -> int:
    """Run every experiment in EXPERIMENTS, aggregate pass flags into summary.json.

    The suite is one sweep of its experiments (run_sweep on the run's pool,
    of pool_size(config) workers): they are queued in suite order, idle
    workers take them, and this thread, itself a pool worker, runs every
    one that no worker has started. So the suite's peak memory grows with
    config.threads, up to the 13 experiments. Each experiment runs under
    the suite's threads, as its report.json echoes, and creates no pool of
    its own: its sweeps queue their values on the suite's pool, so never
    more than pool_size(config) threads compute at once. Every experiment
    shares the one family, so each potential is solved once per suite run,
    by the first experiment that asks for it.
    Each experiment goes through the module-level run, so a wrapper
    installed on cli_runner.run (perfbench's tracer) sees each one, and the
    sweep goes through cli_runner's binding of run_sweep. An exception that
    run does not catch propagates, the first in suite order, after the
    experiments already started finish.
    """

    def timed(sub: ExperimentConfig):
        t0 = time.perf_counter()
        code = run(sub, out_dir=os.path.join(out, sub.experiment), family=family)
        return code, time.perf_counter() - t0

    subs = [replace(config, **_SUITE_OVERRIDES.get(name, {}), experiment=name, out="")
            for name in EXPERIMENTS]
    summary = {sub.experiment: {"exit_code": code, "passed": code == 0, "wall_time": wall}
               for sub, (code, wall) in zip(subs, run_sweep(timed, subs, pool_size(config)))}
    _write_json(os.path.join(out, "summary.json"), summary)
    n_pass = sum(1 for v in summary.values() if v["passed"])
    print(f"suite: {n_pass}/{len(summary)} experiments passed")
    worst = max(v["exit_code"] for v in summary.values())
    return 0 if worst == 0 else 1 if worst != 3 else 3


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(
        prog="ma-lab",
        description="Monge-Ampere section-geometry laboratory batch runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in KNOWN_EXPERIMENTS:
        s = sub.add_parser(name, help=f"run the {name} experiment")
        s.add_argument("--config", default=None, help="path to a config file")
        s.add_argument("--out", default=None, help="output directory")
        s.add_argument("--spacing", type=partial(parse_value, "spacing"), default=None,
                       help="grid spacing override")
        s.add_argument("--threads", type=partial(parse_value, "threads"), default=None,
                       help="threads computing at once, the size of the run's one worker "
                            "pool (a suite's peak memory grows with them, up to 13); "
                            "default the cores this process may run on")
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
        if config.experiment != args.command:
            print(f"config error: {args.config} runs experiment {config.experiment!r}"
                  f" but the subcommand is {args.command!r}", file=sys.stderr)
            sys.exit(2)
    else:
        config = ExperimentConfig(experiment=args.command)

    if args.spacing is not None:
        config.spacing = args.spacing
    if args.threads is not None:
        config.threads = args.threads

    sys.exit(run(config, out_dir=args.out))


if __name__ == "__main__":
    main()
