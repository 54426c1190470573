import ast
import importlib
import inspect
from pathlib import Path

import ma_lab
from ma_lab.domain_grid import LabError

SRC = Path(ma_lab.__file__).resolve().parent
ROOT = SRC.parents[1]
# defaulted parameters that no call in src/ or perfbench/ sets, each kept on purpose
ALLOWED = {
    "maximal_function.n_heights": "perfbench's tracer binds it by name to count the pairs scanned",
    "main.argv": "the console entry point calls main(), and the tests drive it with argv",
    "assemble_potential.g": "assemble_potential is a KEPT test fixture",
}


def _parameters_and_calls():
    """The parameters of every function in src/ and perfbench/, and every call there.

    A parameter is ((file, qualified name), call name, positional index or
    None, defaulted); a method's index leaves out self, and __init__ is called
    by its class name. Calls are grouped by called name, each as (positional
    count, has *args, keyword names, pass-throughs). A pass-through maps an
    argument's position or keyword to (its name, (file, qualified parameter))
    when the argument is a bare name that resolves to a parameter of an
    enclosing function, and that function never assigns the name.
    """
    params = []
    calls = {}

    def assigned(fn):
        """The names a function's own scope assigns; nested functions and lambdas are their own scopes."""
        names = set()
        todo = [fn.body] if isinstance(fn, ast.Lambda) else list(fn.body)
        while todo:
            node = todo.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.add(node.name)
                continue
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
            if not isinstance(node, ast.Lambda):
                todo.extend(ast.iter_child_nodes(node))
        return names

    def resolve(name, scopes):
        """The enclosing parameter that a bare name passes on unchanged, or None."""
        for owner, own, local in reversed(scopes):
            if name in own:
                return (owner[0], f"{owner[1]}.{name}") if owner and name not in local else None
            if name in local:
                return None
        return None

    def visit(node, file, prefix, cls, scopes):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = child.args
                pos = args.posonlyargs + args.args
                owner = None
                if not isinstance(child, ast.Lambda):
                    owner = (file, f"{prefix}{child.name}")
                    called = cls if cls and child.name == "__init__" else child.name
                    skip = 1 if cls else 0
                    first = len(pos) - len(args.defaults)
                    params.extend(((file, f"{owner[1]}.{pos[k].arg}"), called, k - skip, k >= first)
                                  for k in range(skip, len(pos)))
                    params.extend(((file, f"{owner[1]}.{arg.arg}"), called, None, default is not None)
                                  for arg, default in zip(args.kwonlyargs, args.kw_defaults))
                own = {a.arg for a in pos + args.kwonlyargs}
                visit(child, file, f"{owner[1]}." if owner else prefix, None,
                      scopes + [(owner, own, assigned(child))])
                continue
            if isinstance(child, ast.ClassDef):
                visit(child, file, f"{prefix}{child.name}.", child.name, scopes)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                starred = any(isinstance(a, ast.Starred) for a in child.args)
                through = {}
                for key, value in [*enumerate(child.args), *((k.arg, k.value) for k in child.keywords)]:
                    enclosing = resolve(value.id, scopes) if isinstance(value, ast.Name) else None
                    if enclosing is not None:
                        through[key] = (value.id, enclosing)
                # a ** splat is recorded as the keyword None and may set anything
                calls.setdefault(name, []).append(
                    (len(child.args), starred, {k.arg for k in child.keywords}, through))
            visit(child, file, prefix, cls, scopes)

    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*.py")):
            file = str(path.relative_to(ROOT))
            visit(ast.parse(path.read_text(), filename=str(path)), file, "", None, [])
    return params, calls


def test_every_defaulted_parameter_is_set_by_some_call():
    """Every defaulted parameter is set by some call outside the tests.

    A value that only tests vary, or that every caller leaves at its default,
    is a module constant instead; tests reach such a constant by patching it.
    An argument that is the enclosing function's own parameter of the same
    name, never reassigned there, passes that parameter on: it sets the
    callee's parameter only if the enclosing one is set, required or not.
    A cycle of such pass-throughs sets nothing; an ALLOWED parameter counts
    as set.
    """
    params, calls = _parameters_and_calls()

    def sets(call, key, index, done):
        n_pos, starred, kws, through = call
        if starred or None in kws:
            return True
        arg = key[1].rsplit(".", 1)[1]
        passed = arg if arg in kws else index if index is not None and n_pos > index else None
        if passed is None:
            return False
        name, enclosing = through.get(passed, (None, None))
        return name != arg or enclosing in done or enclosing[1] in ALLOWED

    done = set()
    grown = True
    while grown:
        grown = False
        for key, called, index, _ in params:
            if key not in done and any(sets(call, key, index, done) for call in calls.get(called, ())):
                done.add(key)
                grown = True
    unset = sorted(key[1] for key, _, _, defaulted in params
                   if defaulted and key[0].startswith("src/") and key not in done)
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


# exception classes of src that are not LabErrors, each kept on purpose
NOT_LAB_ERRORS = {
    "ConfigError": "main handles it with exit 2 before any run; run's LabError branch exits 1",
}


def test_every_exception_class_derives_from_lab_error():
    """cli_runner.run catches SolveError (exit 3), then LabError (exit 1): every error the lab raises is one."""
    modules = [importlib.import_module(f"ma_lab.{path.stem}") for path in sorted(SRC.glob("*.py"))]
    errors = {cls for module in modules for cls in vars(module).values()
              if isinstance(cls, type) and issubclass(cls, BaseException) and cls.__module__ == module.__name__}
    assert LabError in errors
    outside = sorted(cls.__name__ for cls in errors if not issubclass(cls, LabError))
    assert outside == sorted(NOT_LAB_ERRORS)
    # each keeps the builtin base its callers catch
    assert all(issubclass(cls, (ValueError, RuntimeError)) for cls in errors - {LabError})


def test_every_name_the_tracer_binds_exists():
    """perfbench's tracer reaches these names, and these parameters, by name.

    A rename leaves the benchmark's traced run unable to wrap or read them,
    so each one stays as tracing.py names it.
    """
    modules = {name: importlib.import_module(f"ma_lab.{name}") for name in _tracing_constant("MODULES")}
    missing = [f"{module}.{attr}" for _, module, attr in _tracing_constant("FUNCTIONS")
               if not hasattr(modules[module], attr)]
    assert missing == []

    def parameters(fn):
        return set(inspect.signature(fn).parameters)

    assert {"fn", "values", "threads"} <= parameters(modules["stability_lab"].run_sweep)
    assert {"potential", "n_heights"} <= parameters(modules["covering_maximal"].maximal_function)
    node_system = modules["ma_solve"].NodeSystem
    assert {"__init__", "interior_matrix"} <= set(vars(node_system))
    assert hasattr(modules["ma_solve"], "spla") and callable(modules["cli_runner"].run)
    assert tuple(modules["stability_lab"].EXPERIMENTS) == _tracing_constant("SUITE_EXPERIMENTS")
