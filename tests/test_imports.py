import ast
from pathlib import Path

import ma_lab

SRC = Path(ma_lab.__file__).resolve().parent


def test_no_private_names_imported_across_modules():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.ImportFrom):
                continue
            within = node.level > 0 or (node.module or "").split(".")[0] == "ma_lab"
            offenders += [f"{path.name}:{node.lineno} {alias.name}" for alias in node.names
                          if within and alias.name.startswith("_")]
    assert offenders == []


def test_no_imports_inside_functions():
    offenders = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                    isinstance(sub, (ast.Import, ast.ImportFrom)) for sub in ast.walk(node)):
                offenders.add(f"{path.stem}.{node.name}")
    assert sorted(offenders) == []
