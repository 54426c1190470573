import json
import shutil

import compare_outputs
from ma_lab.cli_runner import ExperimentConfig, run


def test_two_suite_runs_agree_and_one_changed_byte_is_one_difference(tmp_path, capsys):
    for name in ("a", "b"):
        run(ExperimentConfig(experiment="suite", domain="disc", spacing=1.0 / 16, threads=2),
            out_dir=str(tmp_path / name))
    assert compare_outputs.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 0
    assert capsys.readouterr().out.splitlines()[-1].startswith("0 of ")

    shutil.copytree(tmp_path / "b", tmp_path / "c")
    csv = tmp_path / "c" / "cover" / "cover_centers.csv"
    data = bytearray(csv.read_bytes())
    data[-2] = ord("7") if data[-2] != ord("7") else ord("3")
    csv.write_bytes(bytes(data))
    assert compare_outputs.main([str(tmp_path / "a"), str(tmp_path / "c")]) == 1
    n_files = sum(1 for path in (tmp_path / "a").rglob("*") if path.is_file())
    assert capsys.readouterr().out.splitlines() == [
        "differs: cover/cover_centers.csv",
        f"1 of {n_files} files differ; exit codes match; no measured number moved"]

    # an experiment whose exit code moved is named in the summary line
    summary = json.loads((tmp_path / "c" / "summary.json").read_text())
    summary["cover"]["exit_code"] = 3
    (tmp_path / "c" / "summary.json").write_text(json.dumps(summary))
    assert compare_outputs.main([str(tmp_path / "a"), str(tmp_path / "c")]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == (
        f"2 of {n_files} files differ; exit codes differ: cover; no measured number moved")


def test_moved_measured_values_are_listed_with_their_relative_change(tmp_path, capsys):
    old, new = tmp_path / "old", tmp_path / "new"
    report = {"experiment": "cover", "wall_time": 1.0, "measured": {"delta0": 0.1, "n_selected": 40, "n_cover": 7, "fits": {}}}
    for root, wall in ((old, 1.0), (new, 2.0)):
        (root / "cover").mkdir(parents=True)
        (root / "cover" / "report.json").write_text(json.dumps(dict(report, wall_time=wall)))
    # wall times alone are no difference
    assert compare_outputs.main([str(old), str(new)]) == 0
    # the unchanged n_selected is left out; the moved integer n_cover is listed
    moved = dict(report, measured={"delta0": 0.125, "n_selected": 40, "n_cover": 6, "fits": {"F": [1.5]}})
    (new / "cover" / "report.json").write_text(json.dumps(moved))
    assert compare_outputs.main([str(old), str(new)]) == 1
    assert capsys.readouterr().out.splitlines()[-5:] == [
        "differs: cover/report.json",
        "  cover measured delta0: 0.1 -> 0.125 (relative change +2.500e-01)",
        "  cover measured fits.F[0]: '<missing>' -> 1.5",
        "  cover measured n_cover: 7 -> 6 (relative change -1.429e-01)",
        "1 of 1 files differ; no exit codes recorded; "
        "largest measured change 2.500e-01 relative at cover measured delta0; "
        "measured values only in NEW: 1, only in OLD: 0",
    ]


def test_measured_values_that_appear_or_vanish_are_counted(tmp_path, capsys):
    old, new = tmp_path / "old", tmp_path / "new"
    failed = {"experiment": "cover", "failure": {"kind": "CoveringError", "message": "uncovered"}, "passed": False}
    measured = {"experiment": "cover", "passed": False,
                "measured": {"n_selected": 845, "delta0": 0.0125, "coverage_defect": 0.20703125}}
    for root, report in ((old, failed), (new, measured)):
        (root / "cover").mkdir(parents=True)
        (root / "cover" / "report.json").write_text(json.dumps(report))
    (old / "maximal").mkdir()
    (old / "maximal" / "report.json").write_text(json.dumps({"experiment": "maximal", "measured": {"ratio": 1.0}}))
    assert compare_outputs.main([str(old), str(new)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "differs: cover/report.json",
        "  cover measured coverage_defect: '<missing>' -> 0.20703125",
        "  cover measured delta0: '<missing>' -> 0.0125",
        "  cover measured n_selected: '<missing>' -> 845",
        "only in OLD: maximal/report.json",
        "  maximal measured ratio: 1.0 -> '<missing>'",
        "2 of 2 files differ; no exit codes recorded; no measured number moved; "
        "measured values only in NEW: 3, only in OLD: 1",
    ]
