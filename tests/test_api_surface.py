import ast
from pathlib import Path

import ma_lab

SRC = Path(ma_lab.__file__).resolve().parent
ROOT = SRC.parents[1]
# defaulted parameters that no call in src/ or perfbench/ sets, each kept on purpose
ALLOWED = {
    "maximal_function.n_heights": "perfbench's tracer binds it by name to count the pairs scanned",
    "main.argv": "the console entry point calls main(), and the tests drive it with argv",
    "assemble_potential.g": "assemble_potential is a KEPT test fixture",
}


def _defaulted_parameters():
    """(qualified name, call name, positional index or None) per defaulted parameter.

    A method's index leaves out self, and __init__ is called by its class name.
    """
    out = []

    def visit(node, prefix, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                pos = args.posonlyargs + args.args
                first = len(pos) - len(args.defaults)
                name = f"{prefix}{child.name}"
                called = cls if cls and child.name == "__init__" else child.name
                for k in range(first, len(pos)):
                    out.append((f"{name}.{pos[k].arg}", called, k - (1 if cls else 0)))
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        out.append((f"{name}.{arg.arg}", called, None))
                visit(child, f"{name}.", None)
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.", child.name)
            else:
                visit(child, prefix, cls)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(), filename=str(path)), "", None)
    return out


def _calls():
    """Per called name: (positional count, has *args, keyword names) of each call in src/ and perfbench/."""
    calls = {}
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            # a ** splat is recorded as the keyword None and may set anything
            calls.setdefault(name, []).append((len(node.args), starred, {k.arg for k in node.keywords}))
    return calls


def test_every_defaulted_parameter_is_set_by_some_call():
    """Every defaulted parameter is set by some call outside the tests.

    A value that only tests vary, or that every caller leaves at its default,
    is a module constant instead; tests reach such a constant by patching it.
    """
    calls = _calls()

    def is_set(param, called, index):
        arg = param.rsplit(".", 1)[1]
        return any(arg in kws or None in kws or starred or (index is not None and n_pos > index)
                   for n_pos, starred, kws in calls.get(called, ()))

    unset = sorted(param for param, called, index in _defaulted_parameters()
                   if not is_set(param, called, index))
    # an allowed parameter that loses its default, or gains a caller, leaves the list
    assert unset == sorted(ALLOWED)


# the os names that read the environment
ENV_READERS = {"environ", "environb", "getenv", "getenvb"}


def test_no_src_module_reads_the_environment():
    """Settings reach the lab through the config and the command line only."""
    reads = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute) and node.attr in ENV_READERS:
                reads.append(f"{path.name}:{node.lineno} os.{node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                reads += [f"{path.name}:{node.lineno} imports os.{alias.name}" for alias in node.names
                          if alias.name in ENV_READERS]
    assert reads == []


# public names that nothing in src reaches, each kept on purpose
KEPT = {
    "assemble_potential": "test fixture: model potentials sampled from a closed form",
    "identity_coefficients": "test fixture: Phi = I for manufactured linearized solves",
    "quasi_distance": "test fixture: quasi-distances checked against closed forms",
    "maximal_height": "awaits the exact section heights of the ROADMAP's section-height item",
    "quadratic_separation_check": "awaits the hypothesis gates of the ROADMAP",
    "localization_fit": "awaits the boundary-localization experiment of the ROADMAP",
    "dichotomy_classify": "awaits the boundary-localization experiment of the ROADMAP",
}


def _unreached_public_names():
    """Top-level public functions and classes of src that no src code names outside their own body."""
    trees = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in sorted(SRC.glob("*.py"))}
    defined = {}
    named = {}
    for module, tree in trees.items():
        for node in tree.body:
            owner = (module, None)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                owner = (module, node.name)
                if not node.name.startswith("_"):
                    defined[node.name] = owner
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    named.setdefault(sub.id, set()).add(owner)
                elif isinstance(sub, ast.Attribute):
                    named.setdefault(sub.attr, set()).add(owner)
    return sorted(name for name, owner in defined.items() if not named.get(name, set()) - {owner})


def test_every_public_name_is_reached_from_src_or_kept_on_purpose():
    unreached = _unreached_public_names()
    stray = [name for name in unreached if name not in KEPT]
    assert not stray, f"public names no src code reaches: {', '.join(stray)}"
    # a kept name that gains a caller leaves the list
    assert sorted(KEPT) == unreached


# dataclasses, or single fields, that no src or perfbench code reads by name, each kept on purpose
EXEMPT = {
    "Assertion": "ExperimentReport.to_dict serializes each one whole with vars()",
    "SeparationReport": "the result of the KEPT quadratic_separation_check; its reader is the ROADMAP's hypothesis gates",
    "LocalizationFit": "the result of the KEPT localization_fit; its reader is the ROADMAP's localization experiment",
    "DichotomyResult": "the result of the KEPT dichotomy_classify; its reader is the ROADMAP's localization experiment",
    "CoveringResult.cores": "the cover's certificate, compared bit for bit with the dense reference cover in the tests",
    "CoveringResult.covers": "the cover's certificate, compared bit for bit with the dense reference cover in the tests",
}


def _dataclass_fields():
    """(class, field) for every annotated field of a @dataclass class in src."""
    out = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.ClassDef):
                continue
            decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
            if not any(getattr(d, "id", getattr(d, "attr", None)) == "dataclass" for d in decorators):
                continue
            out += [(node.name, stmt.target.id) for stmt in node.body
                    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)]
    return out


def _loaded_attributes():
    """Every attribute name loaded anywhere in src/ or perfbench/; reads from tests do not count."""
    names = set()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    names.add(node.attr)
    return names


def test_every_dataclass_field_is_read():
    """Every field of a src dataclass is read as an attribute in src/ or perfbench/.

    A field that only tests read is a value the program never uses; the test
    recomputes it from public values instead. Fields are matched by name
    only, so a field that shares its name with an attribute of another object
    passes even when nobody reads it.
    """
    read = _loaded_attributes()
    unread = [f"{cls}.{name}" for cls, name in _dataclass_fields()
              if cls not in EXEMPT and f"{cls}.{name}" not in EXEMPT and name not in read]
    assert unread == []


def test_no_private_parameters():
    """No src function takes a parameter named like a private name.

    A leading underscore marks a knob for one caller that other callers must
    not set; such a value belongs in the caller's own code path instead.
    """
    private = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
                names += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
                label = getattr(node, "name", "<lambda>")
                private += [f"{path.stem}.{label}.{name}" for name in names if name.startswith("_")]
    assert private == []


# the calls that write a file
WRITERS = {"open", "write_lines", "write_field_csv"}


def test_only_cli_runner_writes_files():
    """Experiments return their files' rows in their reports, and cli_runner writes them.

    No src function outside cli_runner opens a file or calls a writer;
    domain_grid's definitions of the writers are the exemption.
    """
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "cli_runner":
            continue
        for top in ast.parse(path.read_text(), filename=str(path)).body:
            if path.stem == "domain_grid" and getattr(top, "name", None) in WRITERS:
                continue
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    func = node.func
                    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                    if name in WRITERS:
                        offenders.append(f"{path.name}:{node.lineno} {name}")
    assert offenders == []


def _tracing_constant(name):
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == [name]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"perfbench/tracing.py defines no {name}")


def test_every_module_binding_a_traced_function_is_traced():
    """perfbench's tracer wraps a traced function only in the modules it lists.

    A module outside MODULES that imports a traced function by name calls
    the unwrapped function, and the spans of those calls are lost.
    """
    traced = {(module, attr) for _, module, attr in _tracing_constant("FUNCTIONS")}
    modules = set(_tracing_constant("MODULES"))
    assert {module for module, _ in traced} <= modules
    untraced = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.module:
                module = node.module.split(".")[-1]
                untraced += [f"{path.stem} imports {module}.{alias.name}" for alias in node.names
                             if (module, alias.name) in traced and path.stem not in modules]
    assert untraced == []
