"""Compare two ma-lab output trees, file by file.

    python tests/compare_outputs.py OLD NEW

OLD and NEW are output directories of `ma-lab` runs: one experiment, one
suite, or a directory holding several. Every file present in either tree
is compared: report.json and summary.json as JSON without their
`wall_time` keys, every other file byte for byte. The script prints each
differing file, and for each differing report.json, or one present in a
single tree, every `measured` value that moved, appeared or vanished,
numbers with their relative change. It ends with one summary line: the
count of differing files; whether every exit code in the summary.json
files matches, or which experiments' differ; the largest |relative
change| among the moved numeric `measured` values, with where it occurs;
and how many `measured` values are only in NEW or only in OLD, when any
are. It exits 1 if any file differs, 0 otherwise (2 when OLD or NEW is not
a directory).
"""

import json
import math
import sys
from pathlib import Path


def _without_wall_time(value):
    if isinstance(value, dict):
        return {k: _without_wall_time(v) for k, v in value.items() if k != "wall_time"}
    if isinstance(value, list):
        return [_without_wall_time(v) for v in value]
    return value


def _canonical(path: Path) -> bytes:
    """The bytes the comparison sees: JSON without wall times, re-serialized; other files as they are."""
    data = path.read_bytes()
    if path.suffix != ".json":
        return data
    return json.dumps(_without_wall_time(json.loads(data)), sort_keys=True).encode()


def _flatten(prefix, value, out):
    if isinstance(value, dict):
        for k in sorted(value):
            _flatten(f"{prefix}.{k}" if prefix else k, value[k], out)
    elif isinstance(value, list):
        for i, v in enumerate(value):
            _flatten(f"{prefix}[{i}]", v, out)
    else:
        out[prefix] = value


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def moved_measured(old: Path, new: Path) -> tuple[list, list, list]:
    """One line per `measured` value that differs between two report.json files.

    A missing file has no measured values. Also returns (|relative change|,
    where) for each moved pair of finite numbers, and the side, "NEW" or
    "OLD", of each value that only one file has.
    """
    reports = [json.loads(p.read_text()) if p.is_file() else {} for p in (old, new)]
    flat = []
    for report in reports:
        values = {}
        _flatten("", report.get("measured", {}), values)
        flat.append(values)
    label = reports[1].get("experiment", new.parent.name)
    lines, changes, sides = [], [], []
    for key in sorted(set(flat[0]) | set(flat[1])):
        a, b = flat[0].get(key, "<missing>"), flat[1].get(key, "<missing>")
        if json.dumps(a) == json.dumps(b):
            continue
        where = f"{label} measured {key}"
        line = f"  {where}: {a!r} -> {b!r}"
        if key not in flat[0] or key not in flat[1]:
            sides.append("NEW" if key in flat[1] else "OLD")
        elif _is_number(a) and _is_number(b) and math.isfinite(a) and math.isfinite(b):
            rel = (b - a) / abs(a) if a != 0 else math.inf
            line += f" (relative change {rel:+.3e})"
            changes.append((abs(rel), where))
        lines.append(line)
    return lines, changes, sides


def moved_exit_codes(old: Path, new: Path, where: str) -> list:
    """The experiments whose exit code differs between two summary.json files."""
    codes = [json.loads(p.read_text()) for p in (old, new)]
    return [f"{where}{name}" for name in sorted(set(codes[0]) | set(codes[1]))
            if codes[0].get(name, {}).get("exit_code") != codes[1].get(name, {}).get("exit_code")]


def summary_line(n_diff: int, n_files: int, n_summaries: int, exits_differ: list, changes: list,
                 sides: list) -> str:
    """Differing files, exit-code agreement, the largest measured change and the values on one side only, on one line."""
    if exits_differ:
        exits = f"exit codes differ: {', '.join(exits_differ)}"
    else:
        exits = "exit codes match" if n_summaries else "no exit codes recorded"
    if changes:
        rel, where = max(changes)
        moved = f"largest measured change {rel:.3e} relative at {where}"
    else:
        moved = "no measured number moved"
    line = f"{n_diff} of {n_files} files differ; {exits}; {moved}"
    if sides:
        line += f"; measured values only in NEW: {sides.count('NEW')}, only in OLD: {sides.count('OLD')}"
    return line


def compare(old: Path, new: Path) -> tuple[int, list]:
    """The number of differing files between two trees, and the report lines."""
    files = sorted({p.relative_to(root).as_posix() for root in (old, new)
                    for p in root.rglob("*") if p.is_file()})
    n_summaries = sum(Path(rel).name == "summary.json" for rel in files)
    lines, changes, sides, exits_differ = [], [], [], []
    n_diff = 0
    for rel in files:
        a, b = old / rel, new / rel
        one_side = not a.is_file() or not b.is_file()
        if not one_side and _canonical(a) == _canonical(b):
            continue
        n_diff += 1
        lines.append(f"only in {'NEW' if b.is_file() else 'OLD'}: {rel}" if one_side else f"differs: {rel}")
        if a.name == "report.json":
            moved, rels, one = moved_measured(a, b)
            lines += moved
            changes += rels
            sides += one
        elif a.name == "summary.json" and one_side:
            exits_differ.append(rel)
        elif a.name == "summary.json":
            parent = Path(rel).parent.as_posix()
            exits_differ += moved_exit_codes(a, b, "" if parent == "." else f"{parent}/")
    lines.append(summary_line(n_diff, len(files), n_summaries, exits_differ, changes, sides))
    return n_diff, lines


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2 or not all(Path(a).is_dir() for a in args):
        print("usage: python tests/compare_outputs.py OLD NEW (two output directories)", file=sys.stderr)
        return 2
    n_diff, lines = compare(Path(args[0]), Path(args[1]))
    print("\n".join(lines))
    return 1 if n_diff else 0


if __name__ == "__main__":
    sys.exit(main())
