"""Compare two ma-lab output trees, file by file.

    python tests/compare_outputs.py OLD NEW

OLD and NEW are output directories of `ma-lab` runs: one experiment, one
suite, or a directory holding several. Every file present in either tree
is compared: report.json and summary.json as JSON without their
`wall_time` keys, every other file byte for byte. The script prints each
differing file, and for each differing report.json every `measured` value
that moved, numbers with their relative change. It ends with the count of
differing files and exits 1 if there is any, 0 otherwise (2 when OLD or
NEW is not a directory).
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


def moved_measured(old: Path, new: Path) -> list:
    """One line per `measured` value that differs between two report.json files."""
    reports = [json.loads(p.read_text()) for p in (old, new)]
    flat = []
    for report in reports:
        values = {}
        _flatten("", report.get("measured", {}), values)
        flat.append(values)
    label = reports[1].get("experiment", new.parent.name)
    lines = []
    for key in sorted(set(flat[0]) | set(flat[1])):
        a, b = flat[0].get(key, "<missing>"), flat[1].get(key, "<missing>")
        if json.dumps(a) == json.dumps(b):
            continue
        line = f"  {label} measured {key}: {a!r} -> {b!r}"
        if _is_number(a) and _is_number(b) and math.isfinite(a) and math.isfinite(b):
            rel = (b - a) / abs(a) if a != 0 else math.inf
            line += f" (relative change {rel:+.3e})"
        lines.append(line)
    return lines


def compare(old: Path, new: Path) -> tuple[int, list]:
    """The number of differing files between two trees, and the report lines."""
    files = sorted({p.relative_to(root).as_posix() for root in (old, new)
                    for p in root.rglob("*") if p.is_file()})
    lines = []
    n_diff = 0
    for rel in files:
        a, b = old / rel, new / rel
        if not a.is_file() or not b.is_file():
            n_diff += 1
            lines.append(f"only in {'NEW' if b.is_file() else 'OLD'}: {rel}")
            continue
        if _canonical(a) == _canonical(b):
            continue
        n_diff += 1
        lines.append(f"differs: {rel}")
        if a.name == "report.json":
            lines += moved_measured(a, b)
    lines.append(f"{n_diff} of {len(files)} files differ")
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
