"""Spans around the public functions of each ma_lab module, from outside the package.

`install` replaces every binding through which callers reach a traced
function (the defining module and each module that imported the name) with a
wrapper that records a span: name, parent span, start, end and a few
attributes. `layer_metrics` turns the spans into the per-layer metrics.
Nothing here changes what a wrapped function computes.
"""

import functools
import importlib
import inspect
import threading
import time

# (span name, module, attribute): module-level functions whose every binding
# in the package is wrapped
FUNCTIONS = (
    ("ma_solve.solve_ma", "ma_solve", "solve_ma"),
    ("ma_solve.linear_solve", "ma_solve", "linear_solve"),
    ("lma_solve.solve_lma", "lma_solve", "solve_lma"),
    ("section_geom.interior_heights", "section_geom", "interior_heights"),
    ("section_geom.section", "section_geom", "section"),
    ("section_geom.engulfing_constant", "section_geom", "engulfing_constant"),
    ("section_geom.measure_c_cap", "section_geom", "measure_c_cap"),
    ("covering_maximal.maximal_function", "covering_maximal", "maximal_function"),
    ("covering_maximal.vitali_cover", "covering_maximal", "vitali_cover"),
    ("covering_maximal.height_grid", "covering_maximal", "height_grid"),
    ("good_sets.good_set_survey", "good_sets", "good_set_survey"),
    ("good_sets.minimal_opening_field", "good_sets", "minimal_opening_field"),
    ("good_sets.quasi_euclidean_ratio_min", "good_sets", "quasi_euclidean_ratio_min"),
    ("good_sets.quasi_euclidean_constant", "good_sets", "quasi_euclidean_constant"),
    ("stability_lab.run_sweep", "stability_lab", "run_sweep"),
    ("barriers.build_supersolution", "barriers", "build_supersolution"),
    ("barriers.verify_supersolution", "barriers", "verify_supersolution"),
    ("domain_grid.discretize", "domain_grid", "discretize"),
    ("domain_grid.fd_derivatives", "domain_grid", "fd_derivatives"),
    ("domain_grid.write_field_csv", "domain_grid", "write_field_csv"),
)

MODULES = (
    "domain_grid", "ma_solve", "lma_solve", "section_geom", "covering_maximal",
    "good_sets", "barriers", "stability_lab", "cli_runner",
)

# the experiments `ma-lab suite` runs, in its order
SUITE_EXPERIMENTS = (
    "solve_ma", "solve_lma", "sections", "cover", "maximal", "goodsets", "barrier",
    "cofactor_stability", "sobolev_stability", "approximation", "w21e",
    "contact_set", "w2p_ratio",
)

ILU = "ma_solve.linear_solve.ilu"

# spans reported as inclusive time `<name>.s` and self time `<name>.self_s`
TIMED = tuple(f"cli_runner.{e}" for e in SUITE_EXPERIMENTS) + (
    "ma_solve.solve_ma", "ma_solve.linear_solve", "ma_solve.NodeSystem",
    "ma_solve.interior_matrix",
) + tuple(name for name, _, _ in FUNCTIONS if not name.startswith("ma_solve."))

# spans whose call count is reported as `<name>.calls`
COUNTED = (
    "ma_solve.linear_solve", "lma_solve.solve_lma", "covering_maximal.maximal_function",
    "stability_lab.run_sweep", "domain_grid.discretize", "domain_grid.fd_derivatives",
)


def metric_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name in TIMED:
        units[f"{name}.s"] = "s"
        units[f"{name}.self_s"] = "s"
    for name in COUNTED:
        units[f"{name}.calls"] = "count"
    units.update({
        "ma_solve.solve_ma.calls": "count",
        "ma_solve.solve_ma.nested_calls": "count",
        "ma_solve.newton_iterations": "count",
        "ma_solve.linear_solve.n_max": "unknowns",
        "ma_solve.linear_solve.useful_ratio": "ratio",
        "ma_solve.linear_solve.ilu_s": "s",
        "covering_maximal.maximal_function.pair_rate": "pairs/s",
        "trace.overhead_frac": "ratio",
    })
    return units


class Span:
    __slots__ = ("id", "parent", "name", "t0", "t1", "attrs")

    def __init__(self, span_id, parent, name, t0):
        self.id = span_id
        self.parent = parent
        self.name = name
        self.t0 = t0
        self.t1 = t0
        self.attrs = {}


class Tracer:
    """Records spans in memory; each thread keeps its own stack of open spans."""

    def __init__(self):
        self.spans = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name):
        stack = self._stack()
        with self._lock:
            self._next_id += 1
            span = Span(self._next_id, stack[-1] if stack else None, name, time.perf_counter())
            self.spans.append(span)
        stack.append(span.id)
        return span

    def close(self, span):
        span.t1 = time.perf_counter()
        self._stack().pop()

    def call(self, name, fn, args, kwargs, attrs=None):
        span = self.open(name)
        try:
            if attrs is not None:
                span.attrs.update(attrs(args, kwargs))
            result = fn(*args, **kwargs)
        except BaseException:
            span.attrs["raised"] = True
            raise
        finally:
            self.close(span)
        return span, result

    def adopt(self, parent_id, fn, value):
        """Run fn(value) with parent_id as the enclosing span on this thread."""
        stack = self._stack()
        stack.append(parent_id)
        try:
            return fn(value)
        finally:
            stack.pop()


def _bound(fn):
    sig = inspect.signature(fn)

    def bind(args, kwargs):
        ba = sig.bind(*args, **kwargs)
        ba.apply_defaults()
        return ba.arguments

    return bind


def _wrap_function(tracer, name, fn):
    if name == "stability_lab.run_sweep":
        bind = _bound(fn)

        @functools.wraps(fn)
        def run_sweep(*args, **kwargs):
            arguments = bind(args, kwargs)
            span = tracer.open(name)
            inner = arguments["fn"]
            try:
                return fn(lambda v: tracer.adopt(span.id, inner, v),
                          arguments["values"], arguments["threads"])
            finally:
                tracer.close(span)

        return run_sweep

    attrs = None
    if name == "ma_solve.linear_solve":
        def attrs(args, kwargs):
            return {"n": int(args[0].shape[0])}
    elif name == "covering_maximal.maximal_function":
        bind = _bound(fn)

        def attrs(args, kwargs):
            a = bind(args, kwargs)
            n_nodes = int(a["potential"].grid.in_domain.sum())
            return {"pairs": n_nodes * n_nodes * int(a["n_heights"])}

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span, result = tracer.call(name, fn, args, kwargs, attrs)
        if name == "ma_solve.solve_ma":
            span.attrs["newton_iterations"] = int(result.newton_iterations)
        return result

    return wrapper


class _SplaProxy:
    """scipy.sparse.linalg as ma_solve sees it, with spilu traced."""

    def __init__(self, tracer, spla):
        self._spla = spla
        self.spilu = lambda *a, **k: tracer.call(ILU, spla.spilu, a, k)[1]

    def __getattr__(self, attr):
        return getattr(self._spla, attr)


def install(tracer, package):
    """Wrap every traced binding in the package; return a function that undoes it."""
    mods = {m: importlib.import_module(f"{package}.{m}") for m in MODULES}
    undo = []

    def replace(owner, attr, new):
        undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    for name, mod_name, attr in FUNCTIONS:
        orig = getattr(mods[mod_name], attr)
        wrapped = _wrap_function(tracer, name, orig)
        for mod in mods.values():
            for key, val in list(vars(mod).items()):
                if val is orig:
                    replace(mod, key, wrapped)

    ms = mods["ma_solve"]
    node_system = ms.NodeSystem
    for name, attr in (("ma_solve.NodeSystem", "__init__"),
                       ("ma_solve.interior_matrix", "interior_matrix")):
        orig = getattr(node_system, attr)

        def method(*args, _orig=orig, _name=name, **kwargs):
            return tracer.call(_name, _orig, args, kwargs)[1]

        replace(node_system, attr, method)
    replace(ms, "spla", _SplaProxy(tracer, ms.spla))

    cli = mods["cli_runner"]
    run = cli.run

    def traced_run(config, *args, **kwargs):
        return tracer.call(f"cli_runner.{config.experiment}", run, (config,) + args, kwargs)[1]

    replace(cli, "run", traced_run)

    def uninstall():
        for owner, attr, val in reversed(undo):
            setattr(owner, attr, val)

    return uninstall


def _union_length(intervals):
    total = 0.0
    end = float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def layer_metrics(spans):
    """Per-layer metrics from recorded spans.

    `.s` sums the spans of a name that have no enclosing span of the same
    name, so recursion is not counted twice; spans running on different
    threads at once are summed, so a layer's time can exceed wall time.
    `.self_s` sums each span's duration minus the time its child spans cover.
    """
    by_id = {s.id: s for s in spans}

    def ancestors(span):
        p = span.parent
        while p is not None:
            node = by_id[p]
            yield node
            p = node.parent

    children = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)

    incl = {}
    self_t = {}
    calls = {}
    top_solves = []
    for s in spans:
        dur = s.t1 - s.t0
        calls[s.name] = calls.get(s.name, 0) + 1
        if not any(a.name == s.name for a in ancestors(s)):
            incl[s.name] = incl.get(s.name, 0.0) + dur
            if s.name == "ma_solve.solve_ma":
                top_solves.append(s)
        kids = [(max(c.t0, s.t0), min(c.t1, s.t1)) for c in children.get(s.id, ())]
        self_t[s.name] = self_t.get(s.name, 0.0) + dur - _union_length(kids)

    top_ids = {s.id for s in top_solves}
    newton = sum(s.attrs.get("newton_iterations", 0) for s in top_solves)
    solves_in_top = sum(1 for s in spans if s.name == "ma_solve.linear_solve"
                        and any(a.id in top_ids for a in ancestors(s)))
    pairs = sum(s.attrs.get("pairs", 0) for s in spans
                if s.name == "covering_maximal.maximal_function")
    mf_s = incl.get("covering_maximal.maximal_function", 0.0)

    out = {}
    for name in TIMED:
        out[f"{name}.s"] = incl.get(name, 0.0)
        out[f"{name}.self_s"] = self_t.get(name, 0.0)
    for name in COUNTED:
        out[f"{name}.calls"] = calls.get(name, 0)
    out["ma_solve.solve_ma.calls"] = len(top_solves)
    out["ma_solve.solve_ma.nested_calls"] = calls.get("ma_solve.solve_ma", 0) - len(top_solves)
    out["ma_solve.newton_iterations"] = newton
    out["ma_solve.linear_solve.n_max"] = max(
        (s.attrs["n"] for s in spans if s.name == "ma_solve.linear_solve"), default=0)
    out["ma_solve.linear_solve.useful_ratio"] = newton / solves_in_top if solves_in_top else 0.0
    out["ma_solve.linear_solve.ilu_s"] = incl.get(ILU, 0.0)
    # computed from grid sizes: centres x in-domain nodes x heights, per second
    out["covering_maximal.maximal_function.pair_rate"] = pairs / mf_s if mf_s > 0 else 0.0
    return out
