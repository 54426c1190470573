import inspect
import json
import re
import threading
from dataclasses import fields, replace
from typing import Optional

import numpy as np
import pytest

from ma_lab import cli_runner, good_sets, ma_solve, section_geom, stability_lab
from ma_lab.cli_runner import ExperimentConfig, run
from ma_lab.domain_grid import DOMAINS
from ma_lab.stability_lab import EXPERIMENTS

SWEEPS = ("cofactor_stability", "sobolev_stability", "approximation", "contact_set", "w2p_ratio")


@pytest.fixture
def top_level_solves(monkeypatch):
    """Record every solve_ma call made by stability_lab, where every experiment runs.

    Nested solves (the coarse-grid restarts inside ma_solve) go through
    ma_solve's own binding and are not recorded. Each record keeps a copy of
    the density and of the Newton start, so a later write into a potential
    cannot alter them.
    """
    records = []
    real = ma_solve.solve_ma

    def recording(grid, g, *args, **kwargs):
        start = kwargs.get("start")
        rec = {"grid": grid, "g": np.array(g, dtype=float, copy=True),
               "tol_ma": kwargs.get("tol_ma"),
               "start": None if start is None else np.array(start, copy=True)}
        rec["pot"] = real(grid, g, *args, **kwargs)
        records.append(rec)
        return rec["pot"]

    monkeypatch.setattr(stability_lab, "solve_ma", recording)
    return records


def _arrays(pot):
    return (pot.phi.values, pot.grad.gx, pot.grad.gy, pot.hess.xx, pot.hess.xy,
            pot.hess.yy, pot.g_values)


def _same_potential(a, b):
    return (all(np.array_equal(x, y, equal_nan=True) for x, y in zip(_arrays(a), _arrays(b)))
            and a.residual_max == b.residual_max
            and a.convexity_margin == b.convexity_margin
            and a.newton_iterations == b.newton_iterations)


def test_suite_solves_each_potential_once(tmp_path, top_level_solves, monkeypatch):
    scanned = []
    real = stability_lab.interior_heights
    monkeypatch.setattr(stability_lab, "interior_heights", lambda pot: scanned.append(pot) or real(pot))
    cfg = ExperimentConfig(experiment="suite", domain="disc", spacing=1.0 / 32, threads=2)
    assert run(cfg, out_dir=str(tmp_path)) == 0
    # sections, cover, maximal and contact_set share one scan of the eps = 0.2 potential
    assert len(scanned) == 1
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert len(summary) == 13
    assert all(entry["passed"] for entry in summary.values())

    # flat, the four cofactor eps (0.2, 0.1, 0.05, 0.025) and w2p's strong eps 0.8
    assert len(top_level_solves) == 6
    # every pinched density starts from the flat potential, which starts alone
    assert [rec["g"].ndim for rec in top_level_solves if rec["start"] is None] == [0]
    # no experiment wrote into a shared potential
    for rec in top_level_solves:
        fresh = ma_solve.solve_ma(rec["grid"], rec["g"], tol_ma=rec["tol_ma"], start=rec["start"])
        assert _same_potential(rec["pot"], fresh)


def test_sweeps_honour_the_configured_tolerance(tmp_path, top_level_solves):
    for name in SWEEPS:
        cfg = ExperimentConfig(experiment=name, domain="disc", spacing=1.0 / 32,
                               threads=2, tol_ma=1e-6)
        before = len(top_level_solves)
        assert run(cfg, out_dir=str(tmp_path / name)) == 0
        assert len(top_level_solves) > before
        report = json.loads((tmp_path / name / "report.json").read_text())
        assert report["wall_time"] > 0.0
    assert {rec["tol_ma"] for rec in top_level_solves} == {1e-6}


def test_linearized_experiments_honour_the_configured_tolerance(tmp_path, monkeypatch):
    tolerances = []
    real = stability_lab.solve_lma

    def recording(*args, **kwargs):
        tolerances.append(kwargs.get("tol_lma"))
        return real(*args, **kwargs)

    monkeypatch.setattr(stability_lab, "solve_lma", recording)
    for name in ("solve_lma", "goodsets", "approximation", "w21e", "w2p_ratio"):
        cfg = ExperimentConfig(experiment=name, domain="disc", spacing=1.0 / 16, tol_lma=1e-6)
        before = len(tolerances)
        run(cfg, out_dir=str(tmp_path / name))
        assert len(tolerances) > before, name
    assert set(tolerances) == {1e-6}


def _suite_outputs(out):
    """Each output file's bytes (report.json parsed, without wall_time) and the exit codes."""
    files = {}
    for path in sorted(out.rglob("*")):
        if not path.is_file() or path.name == "summary.json":
            continue
        rel = str(path.relative_to(out))
        if path.name == "report.json":
            report = json.loads(path.read_text())
            report.pop("wall_time")
            files[rel] = report
        else:
            files[rel] = path.read_bytes()
    summary = json.loads((out / "summary.json").read_text())
    return files, {name: entry["exit_code"] for name, entry in summary.items()}


def test_suite_outputs_do_not_depend_on_threads(tmp_path):
    outputs = []
    for threads in (1, 2):
        cfg = ExperimentConfig(experiment="suite", domain="disc", spacing=1.0 / 32,
                               threads=threads)
        out = tmp_path / f"threads{threads}"
        assert run(cfg, out_dir=str(out)) == 0
        outputs.append(_suite_outputs(out))
    (files1, codes1), (files2, codes2) = outputs
    assert list(codes1) == sorted(EXPERIMENTS)
    assert codes1 == codes2
    assert files1.keys() == files2.keys()
    for rel in files1:
        assert files1[rel] == files2[rel], rel
    # one name per experiment: its directory, its report and its sweep files
    sweep_files = 0
    for name in EXPERIMENTS:
        report = files1[f"{name}/report.json"]
        assert report["experiment"] == name
        for key, val in report["measured"].items():
            if isinstance(val, list) and report["sweep"] and len(val) == len(report["sweep"]):
                assert f"{name}/{name}_{key}.csv" in files1
                sweep_files += 1
        dats = [rel for rel in files1 if rel.startswith(f"{name}/") and rel.endswith(".dat")]
        assert all(rel.startswith(f"{name}/{name}_") for rel in dats)
    assert sweep_files == sum(rel.endswith(".dat") for rel in files1)


_ASSERTION_LINE = re.compile(r"\[(pass|FAIL)\] (\w+): ")


def test_suite_lines_name_their_experiment(tmp_path, capsys):
    cfg = ExperimentConfig(experiment="suite", domain="disc", spacing=1.0 / 32, threads=2)
    assert run(cfg, out_dir=str(tmp_path)) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == f"suite: {len(EXPERIMENTS)}/{len(EXPERIMENTS)} experiments passed"
    names = []
    for line in lines[:-1]:
        match = _ASSERTION_LINE.match(line)
        assert match, line
        names.append(match.group(2))
    runs = [name for k, name in enumerate(names) if k == 0 or names[k - 1] != name]
    # every experiment but goodsets and w21e asserts something, and its lines
    # are contiguous; those two are judged by the finiteness rule alone, which
    # adds no line while their measured values are finite
    assert sorted(runs) == sorted(set(EXPERIMENTS) - {"goodsets", "w21e"})


def test_suite_computes_at_most_threads_tasks_and_passes_threads_to_sweeps(tmp_path, monkeypatch):
    # a thread computes while it is inside an experiment or a sweep value;
    # the suite's own thread is a pool worker and computes the experiments it
    # runs itself, and the calling thread only waits, so the count covers the
    # pool
    lock = threading.Lock()
    calls = []
    depth = {}
    busy = 0
    peak = 0
    real_run = cli_runner.run

    def computing(fn, *args, **kwargs):
        nonlocal busy, peak
        me = threading.get_ident()
        with lock:
            depth[me] = depth.get(me, 0) + 1
            if depth[me] == 1:
                busy += 1
                peak = max(peak, busy)
        try:
            return fn(*args, **kwargs)
        finally:
            with lock:
                depth[me] -= 1
                if depth[me] == 0:
                    busy -= 1

    def counting_run(config, *args, **kwargs):
        if config.experiment == "suite":
            return real_run(config, *args, **kwargs)
        with lock:
            calls.append(config.experiment)
        return computing(real_run, config, *args, **kwargs)

    sweep_threads = []
    suite_sweeps = []
    real_sweep = stability_lab.run_sweep
    signature = inspect.signature(real_sweep)

    def recording_sweep(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        sweep_threads.append(bound.arguments["threads"])
        values = list(bound.arguments["values"])
        if all(isinstance(v, ExperimentConfig) for v in values):
            suite_sweeps.append([v.experiment for v in values])
        fn = bound.arguments["fn"]
        return real_sweep(lambda v: computing(fn, v), bound.arguments["values"], bound.arguments["threads"])

    monkeypatch.setattr(cli_runner, "run", counting_run)
    monkeypatch.setattr(stability_lab, "run_sweep", recording_sweep)
    monkeypatch.setattr(cli_runner, "run_sweep", recording_sweep)
    cfg = ExperimentConfig(experiment="suite", domain="disc", spacing=1.0 / 32, threads=2)
    assert cli_runner.run(cfg, out_dir=str(tmp_path)) == 0
    assert sorted(calls) == sorted(EXPERIMENTS)
    assert peak == 2
    # the suite is one sweep of its experiments, in suite order
    assert suite_sweeps == [list(EXPERIMENTS)]
    assert sweep_threads and set(sweep_threads) == {2}


def test_an_unwritable_experiment_file_fails_that_experiment_only(tmp_path, capsys):
    blocked = tmp_path / "solve_ma" / "potential.csv"
    blocked.mkdir(parents=True)
    cfg = ExperimentConfig(experiment="suite", domain="disc", spacing=1.0 / 16, threads=2)
    assert run(cfg, out_dir=str(tmp_path)) == 1
    assert f"cannot write {blocked}: " in capsys.readouterr().err
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert list(summary) == sorted(EXPERIMENTS)
    assert summary["solve_ma"]["exit_code"] == 1
    # the experiments queued behind it still ran
    assert all((tmp_path / name / "report.json").is_file()
               for name in EXPERIMENTS if name != "solve_ma")


def test_an_unwritable_summary_is_reported(tmp_path, capsys):
    blocked = tmp_path / "summary.json"
    blocked.mkdir()
    cfg = ExperimentConfig(experiment="suite", domain="disc", spacing=1.0 / 16, threads=2)
    assert run(cfg, out_dir=str(tmp_path)) == 1
    assert f"cannot write {blocked}: " in capsys.readouterr().err
    assert all((tmp_path / name / "report.json").is_file() for name in EXPERIMENTS)


@pytest.mark.parametrize("domain", ["disc", "square"])
def test_barrier_assertions_take_their_sides_from_the_verifier(tmp_path, monkeypatch, domain):
    """The verifier measures both sides of the three inequalities; the experiment's checks decide them."""
    reports = []
    real = stability_lab.verify_supersolution

    def recording(barrier, potential):
        reports.append((barrier, real(barrier, potential)))
        return reports[-1][1]

    monkeypatch.setattr(stability_lab, "verify_supersolution", recording)
    cfg = ExperimentConfig(experiment="barrier", domain=domain, spacing=1.0 / 32)
    run(cfg, out_dir=str(tmp_path))
    ((barrier, rep),) = reports
    report = json.loads((tmp_path / "report.json").read_text())
    sides = [
        ("operator value below the negative threshold", rep.interior_max, "<=", rep.threshold),
        ("barrier nonnegative on the flat boundary piece", rep.boundary_min, ">=", -rep.boundary_tol),
        ("barrier dominates the gap on the inner circle",
         rep.circle_min, ">=", barrier.delta_tilde - rep.circle_tol),
    ]
    assert [(a["name"], a["lhs"], a["op"], a["rhs"], a["tol"]) for a in report["assertions"]] == [
        side + (0.0,) for side in sides]


@pytest.mark.parametrize("command, text, code, message", [
    ("solve_ma", "experiment = solve_ma\nspacing = 0.0625", 0, None),
    ("barrier", "experiment = barrier\nspacing = 0.0625\ndelta = 5", 1,
     "delta must lie in (0, rho]"),
    ("solve_ma", "experiment = solve_ma\ncolour = blue", 2, "unknown key 'colour'"),
    ("solve_ma", "experiment = solve_ma\nspacing = 0.0625\ntol_ma = 1e-300", 3,
     "Newton line search stalled"),
    ("cofactor_stability", "experiment = solve_ma\nspacing = 0.0625", 2,
     "runs experiment 'solve_ma' but the subcommand is 'cofactor_stability'"),
    ("w21e", None, 0, None),
    ("solve_ma", "experiment = solve_ma\ndomain = polygon", 2,
     f"unknown domain 'polygon' (known: {', '.join(DOMAINS)})"),
    ("solve_ma", "experiment = solve_ma\ndomain = square\nside = inf", 1,
     "square size 'side' must be given, positive and finite; got inf"),
    # refused before any array is allocated
    ("solve_ma", "experiment = solve_ma\nspacing = 1e-300", 1, "more than int32 node numbers reach"),
], ids=["success", "barrier-error", "config-error", "solver-failure", "experiment-mismatch",
        "no-config", "unknown-domain", "infinite-side", "too-fine-spacing"])
def test_main_exit_codes(tmp_path, capsys, command, text, code, message):
    args = [command, "--out", str(tmp_path / "out")]
    if text is None:
        args += ["--spacing", "0.0625"]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text + "\n")
        args += ["--config", str(cfg)]
    with pytest.raises(SystemExit) as exc:
        cli_runner.main(args)
    assert exc.value.code == code
    if message is not None:
        assert message in capsys.readouterr().err
    if code == 2:
        assert not (tmp_path / "out").exists()


def test_every_experiment_is_a_subcommand(tmp_path, monkeypatch):
    ran = []
    monkeypatch.setattr(cli_runner, "run", lambda config, out_dir=None: ran.append(config.experiment) or 0)
    for name in cli_runner.KNOWN_EXPERIMENTS:
        with pytest.raises(SystemExit) as exc:
            cli_runner.main([name, "--out", str(tmp_path)])
        assert exc.value.code == 0
    assert ran == list(EXPERIMENTS) + ["suite"]


def test_known_keys_are_the_config_fields():
    assert {f.name for f in fields(ExperimentConfig)} == cli_runner.KNOWN_KEYS


def test_sections_experiment_floods_each_section_once(tmp_path, monkeypatch):
    # four sections, each flooded at t and at 2t (the interior check) in one
    # call; the engulfing constant and the volume fit measure those same
    # sections
    calls = []
    real = section_geom.section_cells

    def counting(*args):
        calls.append(list(args[3]))
        return real(*args)

    monkeypatch.setattr(section_geom, "section_cells", counting)
    cfg = ExperimentConfig(experiment="sections", domain="disc", spacing=1.0 / 32)
    assert run(cfg, out_dir=str(tmp_path)) == 0
    heights = json.loads((tmp_path / "report.json").read_text())["sweep"]
    assert calls == [[t, 2.0 * t] for t in heights]


_EXPERIMENTS = ", ".join(cli_runner.KNOWN_EXPERIMENTS)


@pytest.mark.parametrize("text, errors", [
    ("experiment = solve_ma\njust words", ["line 2: expected key = value, got 'just words'"]),
    ("experiment = solve_ma\n = 3", ["line 2: expected key = value, got '= 3'"]),
    ("experiment = solve_ma\ncolour = blue", ["line 2: unknown key 'colour'"]),
    ("experiment = solve_ma\nspacing = 0.1\nspacing = 0.2", ["duplicate key 'spacing' at lines 2 and 3"]),
    ("experiment = solve_ma\nradius = abc", ["line 2: key 'radius': could not parse 'abc' as a number"]),
    ("experiment = solve_ma\nspacing = -0.5", ["line 2: key 'spacing': must be positive, got -0.5"]),
    ("experiment = solve_ma\ntol_ma = nan", ["line 2: key 'tol_ma': must be positive, got nan"]),
    ("experiment = solve_ma\nthreads = 1.5", ["line 2: key 'threads': must be an integer, got 1.5"]),
    ("experiment = solve_ma\neps = , ,", ["line 2: key 'eps': empty list"]),
    ("experiment = nope", [f"line 1: unknown experiment 'nope' (known: {_EXPERIMENTS})"]),
    ("experiment = solve_ma\ndomain = polygon",
     [f"line 2: unknown domain 'polygon' (known: {', '.join(DOMAINS)})"]),
    ("experiment = solve_ma\ng0 = wavy", ["line 2: unknown g0 'wavy' (known: bump, constant)"]),
    ("spacing = 0.1", ["missing required key 'experiment'"]),
    # a list stops at its first bad item
    ("experiment = solve_ma\neps = -1, abc", ["line 2: key 'eps': must be positive, got -1"]),
    ("experiment = solve_ma\nthreads = inf", ["line 2: key 'threads': must be an integer, got inf"]),
    # in line order
    ("spacing = abc\ncolour = blue\nthreads = 0",
     ["line 1: key 'spacing': could not parse 'abc' as a number", "line 2: unknown key 'colour'",
      "line 3: key 'threads': must be positive, got 0", "missing required key 'experiment'"]),
], ids=["malformed", "empty-key", "unknown-key", "duplicate-key", "not-a-number", "not-positive",
        "nan", "non-integer-threads", "empty-list", "unknown-experiment", "unknown-domain",
        "unknown-g0", "missing-experiment", "bad-list-items", "infinite-threads", "several"])
def test_parse_config_reports_every_error(text, errors):
    with pytest.raises(cli_runner.ConfigError) as exc:
        cli_runner.parse_config(text)
    assert exc.value.errors == errors


def test_parse_config_ignores_comments_and_headers():
    text = ("# a run\n[run]\nexperiment = sections\n\n  # indented comment\n[grid]\n"
            "domain = ellipse\na = 1.2\nb = 0.8\nspacing = 0.03125\neps = 0.2, 0.1\n"
            "threads = 2.0\ng0 = constant\nlam = 0.5\nout = results\n")
    cfg = cli_runner.parse_config(text)
    assert cfg == ExperimentConfig(experiment="sections", domain="ellipse", a=1.2, b=0.8,
                                   spacing=0.03125, eps=(0.2, 0.1), threads=2, g0="constant",
                                   lam=0.5, out="results")
    assert type(cfg.threads) is int


@pytest.mark.parametrize("flag, value, message", [
    ("--spacing", "-1", "must be positive, got -1"),
    ("--spacing", "nan", "must be positive, got nan"),
    ("--spacing", "abc", "could not parse 'abc' as a number"),
    ("--threads", "0", "must be positive, got 0"),
    ("--threads", "1.5", "must be an integer, got 1.5"),
], ids=["negative-spacing", "nan-spacing", "text-spacing", "zero-threads", "fractional-threads"])
def test_bad_flags_exit_2(tmp_path, capsys, flag, value, message):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        cli_runner.main(["solve_ma", "--out", str(out), flag, value])
    assert exc.value.code == 2
    assert f"argument {flag}: key '{flag[2:]}': {message}" in capsys.readouterr().err
    assert not out.exists()


def test_a_flag_means_what_its_config_line_means(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("experiment = solve_ma\nspacing = 0.0625\nthreads = 2.0\n")
    echoed = []
    for name, args in (("file", ["--config", str(cfg)]),
                       ("flags", ["--spacing", "0.0625", "--threads", "2.0"])):
        with pytest.raises(SystemExit) as exc:
            cli_runner.main(["solve_ma", "--out", str(tmp_path / name)] + args)
        assert exc.value.code == 0
        echoed.append(json.loads((tmp_path / name / "report.json").read_text())["config"])
    assert echoed[0] == echoed[1]
    assert echoed[0]["threads"] == 2


def test_every_config_field_has_a_type_parse_value_handles():
    for f in fields(ExperimentConfig):
        assert f.type in (str, int, tuple, float, Optional[float]), f.name
        # the empty defaults ("", (), None) and threads = 0 stand for unset or
        # all cores, values no config line gives
        if not f.default:
            continue
        text = ", ".join(map(str, f.default)) if f.type is tuple else str(f.default)
        value = cli_runner.parse_value(f.name, text)
        assert value == f.default and type(value) is type(f.default), f.name


def test_write_table_writes_python_ints_with_str_and_other_numbers_with_fmt_float(tmp_path):
    csv = tmp_path / "table.csv"
    rows = [(np.float64(0.1), 12, np.float64(1.0) / 3), (0.5, np.int64(7), 2.0)]
    cli_runner._write_table(str(csv), ("t", "cells", "measure"), rows)
    assert csv.read_text() == "t,cells,measure\n0.1,12,0.3333333333333333\n0.5,7.0,2.0\n"
    dat = tmp_path / "table.dat"
    cli_runner._write_table(str(dat), ("# eps", "ratio"), [(0.2, 12.0), (0.1, np.float64(3.5))], sep=" ")
    assert dat.read_text() == "# eps ratio\n0.2 12.0\n0.1 3.5\n"


def _finiteness_assertions(report):
    return [a for a in report["assertions"] if a["name"].startswith("measured values finite")]


def test_a_nan_measured_value_fails_the_experiment_and_names_its_key(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(stability_lab, "abp_check", lambda sol: float("nan"))
    cfg = ExperimentConfig(experiment="solve_lma", domain="disc", spacing=1.0 / 16)
    assert run(cfg, out_dir=str(tmp_path)) == 1
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["passed"] is False
    [finite] = _finiteness_assertions(report)
    assert finite["name"] == "measured values finite: abp_ratio"
    assert (finite["lhs"], finite["op"], finite["rhs"], finite["passed"]) == (1.0, "<=", 0.0, False)
    assert "[FAIL] solve_lma: measured values finite: abp_ratio" in capsys.readouterr().out
    # the experiment's own assertion still holds
    assert [a["passed"] for a in report["assertions"] if a is not finite] == [True]


def test_a_nan_inside_a_nested_measured_value_is_named_by_its_path(tmp_path, monkeypatch):
    real = good_sets.decay_fit
    monkeypatch.setattr(good_sets, "decay_fit", lambda *args, **kwargs: replace(real(*args, **kwargs), tau=np.nan))
    cfg = ExperimentConfig(experiment="goodsets", domain="square", spacing=1.0 / 32)
    assert run(cfg, out_dir=str(tmp_path)) == 1
    report = json.loads((tmp_path / "report.json").read_text())
    [finite] = _finiteness_assertions(report)
    # in the order the survey fits them; the slopes carry the same NaNs and are not checked
    assert finite["name"] == "measured values finite: fits/F2/tau, fits/F1/tau"
    assert finite["lhs"] == 2.0 and report["passed"] is False


def test_the_finiteness_rule_walks_dicts_lists_and_arrays():
    measured = {"a": [1.0, np.inf, 2], "b": {"c": np.float64("nan"), "d": (np.array([0.5, -np.inf]),)},
                "start": "given", "applicable": True, "n": np.int64(3)}
    report = stability_lab.ExperimentReport(measured=measured, assertions=[])
    [finite] = report.assertions
    assert finite.name == "measured values finite: a/1, b/c, b/d/0/1"
    assert finite.lhs == 3.0 and not report.passed


def test_a_finite_report_gains_no_assertion(tmp_path):
    measured = {"x": 1.0, "xs": [0.1, 2], "fits": {"F2": {"tau": np.float64(0.8)}}, "start": "laplacian",
                "applicable": False}
    assert stability_lab.ExperimentReport(measured=measured, assertions=[]).assertions == []
    cfg = ExperimentConfig(experiment="solve_lma", domain="disc", spacing=1.0 / 16)
    assert run(cfg, out_dir=str(tmp_path)) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert [a["name"] for a in report["assertions"]] == ["linear solve residual within tolerance"]
