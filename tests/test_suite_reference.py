"""The suites at 1/32 against their committed outputs.

Three suites run at spacing 1/32: the disc of radius 1, the ellipse with
a = 1.2, b = 0.8 and the square of side 2. For each one, every report.json
value (wall times aside), every exit code, the row count of every CSV
and .dat file, and a sha256 of the x,y columns of the selections (the
cover's centres and the good-set masks) must match its
suite_reference_<name>.json; floats match within 1e-12 relative. The
digests catch a selection that trades nodes at an unchanged count. A
change that moves outputs on purpose rewrites all three files, so their
diffs show what moved:

    PYTHONPATH=src python tests/test_suite_reference.py
"""

import hashlib
import json
import math
import sys
from pathlib import Path

import pytest

from ma_lab.cli_runner import ExperimentConfig, run

SUITES = {
    "disc32": {"domain": "disc", "radius": 1.0},
    "ellipse32": {"domain": "ellipse", "a": 1.2, "b": 0.8},
    "square32": {"domain": "square", "side": 2.0},
}
REL_TOL = 1e-12
# the files whose x,y columns are a selection of nodes, compared by digest
SELECTIONS = ("cover/cover_centers.csv", "goodsets/good_mask_M*.csv")


def reference(name: str) -> Path:
    return Path(__file__).with_name(f"suite_reference_{name}.json")


def _flatten(prefix, value, out):
    if isinstance(value, dict):
        for k in sorted(value):
            _flatten(f"{prefix}/{k}", value[k], out)
    elif isinstance(value, list):
        for i, v in enumerate(value):
            _flatten(f"{prefix}/{i}", v, out)
    else:
        out[prefix] = value


def suite_values(out_dir: Path) -> dict:
    """Exit codes, report values, file row counts and selection digests of one suite run, by path."""
    summary = json.loads((out_dir / "summary.json").read_text())
    values = {f"{exp}/exit_code": entry["exit_code"] for exp, entry in summary.items()}
    for path in sorted(out_dir.rglob("*")):
        rel = path.relative_to(out_dir).as_posix()
        if path.name == "report.json":
            report = json.loads(path.read_text())
            report.pop("wall_time", None)
            _flatten(rel, report, values)
        elif path.suffix in (".csv", ".dat"):
            data = path.read_bytes()
            values[f"{rel}#rows"] = data.count(b"\n")
            if any(path.relative_to(out_dir).match(pattern) for pattern in SELECTIONS):
                xy = b"\n".join(b",".join(line.split(b",")[:2]) for line in data.splitlines())
                values[f"{rel}#xy_sha256"] = hashlib.sha256(xy).hexdigest()
    return values


def run_suite(name: str, out_dir: Path) -> dict:
    cfg = ExperimentConfig(experiment="suite", spacing=1.0 / 32, threads=2, **SUITES[name])
    run(cfg, out_dir=str(out_dir))
    return suite_values(out_dir)


def _close(a, b) -> bool:
    if a == b and type(a) is type(b):
        return True
    if not (isinstance(a, float) and isinstance(b, float)):
        return False
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


@pytest.mark.parametrize("name", list(SUITES))
def test_suite_matches_reference(tmp_path, name):
    want = json.loads(reference(name).read_text())
    got = run_suite(name, tmp_path)
    assert sorted(got) == sorted(want)
    moved = [f"{k}: {want[k]!r} -> {got[k]!r}" for k in sorted(want) if not _close(got[k], want[k])]
    assert not moved, "\n".join(moved)


if __name__ == "__main__":
    import tempfile

    for name in SUITES:
        with tempfile.TemporaryDirectory() as tmp:
            values = run_suite(name, Path(tmp))
        reference(name).write_text(json.dumps(values, indent=1, sort_keys=True) + "\n")
        print(f"wrote {len(values)} values to {reference(name)}", file=sys.stderr)
