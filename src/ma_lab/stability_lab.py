"""The lab's experiments, and the pinched-potential families they measure.

Each of the 13 experiments is a function name_experiment(family, config)
registered under its name in EXPERIMENTS, in suite order. It returns an
ExperimentReport: the sweep values, the measured quantities, fitted slopes
where a trend is claimed, a list of asserted inequalities carrying both
sides and the tolerance, and the rows of its own files. For each
assertion, tests/test_mutations.py names a fault of the code it checks
that makes it fail, or the reason it stays. One rule serves every
experiment in place of per-experiment finiteness bounds: a NaN or an inf
anywhere in the measured values fails the report (ExperimentReport). No
experiment writes a file; cli_runner.run names the report, echoes the
config into it, times it and writes it. Sweeps are deterministic;
rerunning an experiment with the same configuration reproduces every
number bit for bit.
"""

import contextvars
import os
from concurrent.futures import wait
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .domain_grid import ConvexDomain, Grid, LabError, build_once, fd_derivatives, fmt_float, lp_norm
from .ma_solve import PotentialField, SolveError, solve_ma
from .lma_solve import abp_check, solve_lma
from .section_geom import engulfing_constant, interior_heights, measure_c_cap, section, volume_scaling
from .covering_maximal import maximal_function, strong_type_ratio, vitali_cover
from .good_sets import good_set_survey, quasi_euclidean_ratio_min
from .barriers import build_supersolution, verify_supersolution


class StabilityError(LabError, ValueError):
    pass


# every sweep's perturbation sizes lie in (0, _EPS_UPPER)
_EPS_UPPER = 0.5
# approximation_experiment compares on nodes at least this far from the boundary
_INNER_MARGIN = 0.25
# w21e_experiment's Hessian integrability exponents
_W21E_GAMMAS = (1.05, 1.1, 1.25)
# contact_set_experiment: fewest measurable section cells, and the bound on
# the defect at the smallest eps
_CONTACT_MIN_CELLS = 8
_CONTACT_SMALL_TOL = 0.05
# w2p_ratio_experiment's small-exponent regime: the exponent and the strongly
# varying density's eps
_SMALL_P = 0.3
_STRONG_EPS = 0.8


@dataclass
class ExperimentConfig:
    experiment: str = ""
    domain: str = "disc"
    radius: float = 1.0
    a: float = 1.0
    b: float = 1.0
    side: float = 2.0
    spacing: float = 1.0 / 32
    eps: tuple = (0.2, 0.1, 0.05)
    betas: tuple = ()
    g0: str = "bump"
    p: float = 2.0
    q: float = 4.0
    gamma: float = 1.1
    sigma: float = 0.5
    delta: float = 0.5
    lam: Optional[float] = None
    Lam: Optional[float] = None
    m: float = 2.0
    height: Optional[float] = None
    # the size of a run's one worker pool, the threads computing at once (a
    # suite's peak memory grows with them, up to 13); 0 = the cores this
    # process may run on. A suite's experiments run under the suite's threads
    threads: int = 0
    tol_ma: float = 1e-8
    tol_lma: float = 1e-8
    out: str = ""


# the worker pool of the run in progress: the initializer of the pool that
# cli_runner.run creates sets it once in each of its workers; None on any
# other thread
ACTIVE_POOL = contextvars.ContextVar("ACTIVE_POOL", default=None)


def pool_size(config: ExperimentConfig) -> int:
    """Worker pool size: config.threads, or the cores this process may run on when it is 0.

    A run has one pool of this many workers (cli_runner.run), and every task
    of the run computes on it: a suite's experiments, each under the suite's
    threads, and every sweep value handed off by run_sweep. So at most this
    many threads compute at once, and a suite's peak memory grows with that
    number, up to the 13 experiments.
    """
    if config.threads > 0:
        return config.threads
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


@dataclass
class Assertion:
    name: str
    lhs: float
    op: str
    rhs: float
    tol: float
    passed: bool


@dataclass
class ExperimentReport:
    """What one experiment measured and asserted, and the rows of its files.

    files maps a file name to a table (header, rows), a tuple of column
    names and rows of numbers, or to a (ScalarField, mask) pair written one
    node per row (mask None: the in-domain nodes). sweep_label names the
    swept quantity in the sweep files' headers; to_dict leaves it out.
    cli_runner.run sets experiment, config and wall_time; the experiment
    functions leave them at their defaults.

    A NaN or an inf anywhere in measured, inside nested dicts and lists
    too, fails the report: construction appends one failed assertion that
    names each such value by its path (fits/F2/tau, ratio/1). A report whose
    measured values are all finite gains nothing.
    """

    measured: dict
    assertions: list
    sweep: list = field(default_factory=list)
    slopes: dict = field(default_factory=dict)
    files: dict = field(default_factory=dict)
    sweep_label: str = "eps"
    experiment: str = ""
    config: dict = field(default_factory=dict)
    wall_time: float = 0.0

    def __post_init__(self):
        bad = _non_finite(self.measured)
        if bad:
            check(self.assertions, f"measured values finite: {', '.join(bad)}", len(bad), "<=", 0.0)

    @property
    def passed(self) -> bool:
        return all(a.passed for a in self.assertions)

    def to_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "config": self.config,
            "sweep": list(self.sweep),
            "measured": {k: (list(v) if isinstance(v, (list, tuple, np.ndarray)) else v)
                         for k, v in self.measured.items()},
            "slopes": dict(self.slopes),
            "assertions": [vars(a) for a in self.assertions],
            "passed": self.passed,
            "wall_time": self.wall_time,
        }


def _non_finite(value, path: str = "") -> list:
    """The paths of the NaN and inf numbers in value, through dicts, lists, tuples and arrays."""
    if isinstance(value, dict):
        return [bad for k, v in value.items() for bad in _non_finite(v, f"{path}/{k}" if path else str(k))]
    if isinstance(value, (list, tuple, np.ndarray)):
        return [bad for i, v in enumerate(value) for bad in _non_finite(v, f"{path}/{i}")]
    if isinstance(value, (float, np.floating)) and not np.isfinite(value):
        return [path]
    return []


def check(assertions: list, name: str, lhs: float, op: str, rhs: float, tol: float = 0.0) -> bool:
    """Record the assertion lhs op rhs (within tol) and return whether it holds.

    op is one of <=, >=, < and ~ (|lhs - rhs| <= tol).
    """
    if op == "<=":
        ok = lhs <= rhs + tol
    elif op == ">=":
        ok = lhs >= rhs - tol
    elif op == "<":
        ok = lhs < rhs + tol
    elif op == "~":
        ok = abs(lhs - rhs) <= tol
    else:
        raise ValueError(f"unknown assertion op {op!r}")
    assertions.append(Assertion(name, float(lhs), op, float(rhs), float(tol), bool(ok)))
    return ok


def default_bump(domain: ConvexDomain) -> Callable:
    """Smooth density bump scaled to the domain box, bounded by 1 in size."""
    x0, x1, y0, y1 = domain.bbox()
    return lambda X, Y: np.sin(np.pi * (X - x0) / (x1 - x0)) * np.sin(np.pi * (Y - y0) / (y1 - y0))


def run_sweep(fn: Callable, values, threads: int = 1) -> list:
    """fn of each sweep value, in index order; idle workers of the run's pool help.

    With threads > 1 on a worker of the run's pool (ACTIVE_POOL), every
    value is queued on that pool; its workers hold it as their ACTIVE_POOL
    from their start, so a value's own sweeps find it too. The caller then
    walks the values in index order and runs each one that no worker has
    started (its queued task is cancelled), and waits only at the end, for
    the values that workers took. So the caller never waits while a value is
    still queued, no pool size can deadlock a sweep, and the sweep adds no
    thread to the pool's. Off the pool, or with threads <= 1, every value
    runs inline. The first value to fail in index order raises, after the
    values already started have finished; a value that fails on the
    caller's thread ends its walk, and the values still queued then are
    cancelled.
    """
    values = list(values)
    pool = ACTIVE_POOL.get()
    if pool is None or threads <= 1:
        return [fn(v) for v in values]
    futures = [pool.submit(fn, v) for v in values]
    # per value in index order: its result, or the future of the worker that took it
    results = []
    try:
        for v, future in zip(values, futures):
            results.append(fn(v) if future.cancel() else future)
    finally:
        # a cancelled future counts as done only once a worker dequeues it,
        # so wait for the started values alone; a value a worker took before
        # one that failed on this thread raises in its place
        wait([future for future in futures if not future.cancel()])
        results = [r.result() if r is future else r for r, future in zip(results, futures)]
    return results


class PinchedFamily:
    """The pinched potentials phi_eps of one grid, each solved once.

    phi_eps solves det D^2 phi = 1 + eps*g0 with zero boundary data; eps = 0
    is the flat companion, and g0=None makes every density the constant
    1 + eps. The family samples g0 on the grid once, as `bump` (None when g0
    is None); the densities and the maximal experiment's input read it.
    potential(eps) is safe to call from several threads: through
    domain_grid.build_once, a density is solved by the first caller that asks
    for it, outside that function's lock, so different eps solve in parallel
    and later callers share the result (or the SolveError). heights(eps),
    the interior_heights field of phi_eps, is scanned once the same way.
    Callers must not write into the returned potentials or fields.

    Every eps != 0 starts Newton from the flat potential phi_0, solving it
    first if no caller has (continuation in eps). The start is always phi_0,
    never the last eps finished, so each potential is the same whatever the
    thread count or the order of requests. If phi_0 fails to solve, eps != 0
    solves from solve_ma's own start chain and does not share that error.
    """

    def __init__(self, grid: Grid, g0: Optional[Callable] = None, tol_ma: float = 1e-8):
        self.grid = grid
        self.bump = None if g0 is None else np.asarray(g0(*grid.meshes()), dtype=float)
        self.tol_ma = tol_ma
        self._built = {}

    def density(self, eps: float):
        """1 + eps*bump on the grid; the scalar 1 + eps when eps = 0 or bump is None."""
        if eps == 0.0 or self.bump is None:
            return 1.0 + eps
        return 1.0 + eps * self.bump

    def potential(self, eps: float) -> PotentialField:
        return build_once(self._built, ("potential", eps), lambda: solve_ma(
            self.grid, self.density(eps), tol_ma=self.tol_ma, start=self._flat_values(eps)))

    def heights(self, eps: float) -> np.ndarray:
        """interior_heights of potential(eps), scanned once and shared."""
        return build_once(self._built, ("heights", eps), lambda: interior_heights(self.potential(eps)))

    def _flat_values(self, eps: float) -> Optional[np.ndarray]:
        """phi_0's grid values as the Newton start for eps; None for eps = 0
        or when phi_0 failed."""
        if eps == 0.0:
            return None
        try:
            return self.potential(0.0).phi.values
        except SolveError:
            return None


def _first_eps(config: ExperimentConfig) -> float:
    """The first sweep entry (flat when there is none)."""
    return config.eps[0] if config.eps else 0.0


def _pinched(family: PinchedFamily, config: ExperimentConfig) -> PotentialField:
    """The family's potential at the first sweep entry."""
    return family.potential(_first_eps(config))


def _source(grid: Grid) -> np.ndarray:
    """f = sin(pi x) cos(pi y) + 2 on the grid, the linearized experiments' source."""
    X, Y = grid.meshes()
    return np.sin(np.pi * X) * np.cos(np.pi * Y) + 2.0


def _frobenius(xx, yy, xy) -> np.ndarray:
    """Pointwise Frobenius norm of the symmetric matrices with entries xx, yy, xy."""
    return np.sqrt(xx ** 2 + 2.0 * xy ** 2 + yy ** 2)


def _matrix_diff_lq(a, b, q: float) -> float:
    """L^q norm of the pointwise Frobenius distance between two matrix fields on one grid."""
    return lp_norm(a.grid, _frobenius(a.xx - b.xx, a.yy - b.yy, a.xy - b.xy), q)


def _grows_with_eps(assertions: list, eps_list, values, op: str, tol: float, name: str) -> np.ndarray:
    """Assert values at each eps op values at the next larger eps (within tol); return the eps order.

    name is formatted with the two eps, the smaller first.
    """
    order = np.argsort(eps_list)
    for lo, hi in zip(order[:-1], order[1:]):
        check(assertions, name.format(eps_list[lo], eps_list[hi]), values[lo], op, values[hi], tol=tol)
    return order


def _validate_eps(eps_list):
    eps_list = [float(e) for e in eps_list]
    for e in eps_list:
        if not (0.0 < e < _EPS_UPPER):
            raise StabilityError(f"perturbation size must lie in (0, {_EPS_UPPER}), got {e}")
    return eps_list


def _loglog_slope(x, y) -> float:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    ok = (x > 0) & (y > 0)
    if ok.sum() < 2:
        return float("nan")
    return float(np.polyfit(np.log(x[ok]), np.log(y[ok]), 1)[0])


# ---------------------------------------------------------------------------
# solves, sections, covers, the maximal function, good sets and barriers
# ---------------------------------------------------------------------------


def solve_ma_experiment(family: PinchedFamily, config: ExperimentConfig) -> ExperimentReport:
    pot = _pinched(family, config)
    assertions = []
    check(assertions, "newton residual within tolerance",
          pot.residual_max, "<=", 10.0 * config.tol_ma)
    check(assertions, "certified convex", pot.convexity_margin, ">=", 0.0)
    return ExperimentReport(
        measured={"residual_max": pot.residual_max,
                  "convexity_margin": pot.convexity_margin,
                  "newton_iterations": pot.newton_iterations,
                  "start": pot.start},
        assertions=assertions,
        files={"potential.csv": (pot.phi, None)},
    )


def solve_lma_experiment(family: PinchedFamily, config: ExperimentConfig) -> ExperimentReport:
    sol = solve_lma(_pinched(family, config), _source(family.grid), tol_lma=config.tol_lma)
    abp_ratio = abp_check(sol)
    assertions = []
    check(assertions, "linear solve residual within tolerance",
          sol.residual_max, "<=", 10.0 * config.tol_lma)
    return ExperimentReport(
        measured={"residual_max": sol.residual_max, "abp_ratio": abp_ratio,
                  "sup_u": float(np.nanmax(np.abs(sol.u.values)))},
        assertions=assertions,
        files={"solution.csv": (sol.u, None)},
    )


def sections_experiment(family: PinchedFamily, config: ExperimentConfig) -> ExperimentReport:
    eps = _first_eps(config)
    pot = family.potential(eps)
    c_cap = measure_c_cap(family.heights(eps))
    t_values = [0.2 * c_cap, 0.4 * c_cap, 0.6 * c_cap, 0.8 * c_cap]
    sections = [section(pot, np.zeros(2), t) for t in t_values]
    rows = [(t, sec.measure, int(sec.cells.sum()), int(sec.is_interior)) for t, sec in zip(t_values, sections)]
    theta_star = engulfing_constant(pot, sections)
    exponent = volume_scaling(sections)
    assertions = []
    check(assertions, "volume scaling exponent near linear",
          exponent, "~", 1.0, tol=0.15)
    check(assertions, "engulfing constant bounded", theta_star, "<=", 6.0)
    return ExperimentReport(
        sweep=list(t_values),
        measured={"measure": [r[1] for r in rows],
                  "cells": [r[2] for r in rows],
                  "theta_star": theta_star,
                  "volume_exponent": exponent},
        slopes={"volume": exponent},
        assertions=assertions,
        files={"sections_summary.csv": (("t", "measure", "cells", "interior"), rows)},
        sweep_label="t",
    )


def cover_experiment(family: PinchedFamily, config: ExperimentConfig) -> ExperimentReport:
    eps = _first_eps(config)
    cover = vitali_cover(family.potential(eps), family.grid.interior, family.heights(eps))
    assertions = []
    check(assertions, "half-height sections cover the region",
          cover.coverage_defect, "<=", 0.0)
    return ExperimentReport(
        measured={"n_selected": int(len(cover.heights)),
                  "delta0": cover.delta0,
                  "coverage_defect": cover.coverage_defect},
        assertions=assertions,
        files={"cover_centers.csv": (("x", "y", "height"), np.column_stack([cover.centers, cover.heights]))},
    )


def maximal_experiment(family: PinchedFamily, config: ExperimentConfig) -> ExperimentReport:
    f = np.ones(family.grid.shape) if family.bump is None else family.bump
    eps = _first_eps(config)
    m_f = maximal_function(family.potential(eps), f, family.heights(eps))
    ratio = strong_type_ratio(m_f, f, p=config.p)
    assertions = []
    check(assertions, "maximal dominates the average", ratio, ">=", 1.0 - 1e-12)
    return ExperimentReport(
        measured={"strong_type_ratio": ratio},
        assertions=assertions,
        files={"maximal_field.csv": (m_f, None)},
    )


def goodsets_experiment(family: PinchedFamily, config: ExperimentConfig) -> ExperimentReport:
    pot = _pinched(family, config)
    grid = family.grid
    sol = solve_lma(pot, _source(grid), tol_lma=config.tol_lma)
    betas = np.asarray(config.betas if config.betas else np.geomspace(1.2, 40.0, 10))
    res = good_set_survey(pot, sol.u, betas, m=config.m)
    files = {f"good_mask_M{fmt_float(M)}.csv": (("x", "y"), grid.points(res.good_masks[M]))
             for M in sorted(res.good_masks)}
    files["distribution.csv"] = (("beta", "F", "F1", "F2"), list(zip(betas, res.F, res.F1, res.F2)))
    fits = {k: {"tau": v.tau, "C": v.C, "residual": v.residual} for k, v in res.fits.items()}
    return ExperimentReport(
        sweep=list(betas),
        measured={"F": list(res.F), "F1": list(res.F1), "F2": list(res.F2),
                  "c_inst": res.c_inst, "fits": fits},
        slopes={k: v.tau for k, v in res.fits.items()},
        assertions=[],
        files=files,
        sweep_label="beta",
    )


def barrier_experiment(family: PinchedFamily, config: ExperimentConfig) -> ExperimentReport:
    pot = _pinched(family, config)
    anchor = family.grid.domain.boundary_samples(64)[0]
    barrier = build_supersolution(pot, anchor, lam=config.lam, Lam=config.Lam,
                                  delta=config.delta)
    rep = verify_supersolution(barrier, pot)
    assertions = []
    check(assertions, "operator value below the negative threshold",
          rep.interior_max, "<=", rep.threshold)
    check(assertions, "barrier nonnegative on the flat boundary piece",
          rep.boundary_min, ">=", -rep.boundary_tol)
    check(assertions, "barrier dominates the gap on the inner circle",
          rep.circle_min, ">=", barrier.delta_tilde - rep.circle_tol)
    return ExperimentReport(
        measured={"interior_max": rep.interior_max, "threshold": rep.threshold,
                  "boundary_min": rep.boundary_min, "circle_min": rep.circle_min,
                  "delta_tilde": barrier.delta_tilde,
                  "n_interior": rep.n_interior},
        assertions=assertions,
        files={"barrier.csv": (barrier.w, barrier.mask)},
    )


# ---------------------------------------------------------------------------
# cofactor stability
# ---------------------------------------------------------------------------


def cofactor_stability_experiment(family: PinchedFamily, config: ExperimentConfig) -> ExperimentReport:
    """Distance between the cofactor matrices of a perturbed and a flat potential.

    For each eps the family's potentials at eps and at 0 are compared; the
    measured quantity is the L^p norm (p = config.p) of the Frobenius
    distance of their cofactor fields. In the plane the cofactor swaps the
    Hessian's diagonal entries and negates its cross term, so
    |cof A - cof B|_F = |A - B|_F term by term, and the experiment takes
    the Hessian distance directly: at p = 2 it is the L^2 Hessian distance,
    the quantity sobolev_stability measures in L^gamma. Asserts strict
    decrease in eps; the log-log slope against eps is reported, not
    asserted, since strict growth in eps already makes it positive
    (Chebyshev's sum inequality).
    """
    eps_list = _validate_eps(config.eps)
    flat = family.potential(0.0).hess

    def one(eps: float) -> float:
        return _matrix_diff_lq(family.potential(eps).hess, flat, config.p)

    norms = run_sweep(one, eps_list, pool_size(config))
    assertions = []
    _grows_with_eps(assertions, eps_list, norms, "<", 0.0, "norm(eps={}) < norm(eps={})")
    return ExperimentReport(
        sweep=eps_list,
        measured={"cofactor_lq_distance": norms},
        slopes={"norm_vs_eps": _loglog_slope(eps_list, norms)},
        assertions=assertions,
    )


# ---------------------------------------------------------------------------
# Sobolev stability
# ---------------------------------------------------------------------------


def sobolev_stability_experiment(family: PinchedFamily, config: ExperimentConfig) -> ExperimentReport:
    """Hessian distance of the family's potentials at eps and at 0 against their density gap.

    For each eps the measured pair is the L^gamma norm (gamma =
    config.gamma) of the Frobenius distance of the two Hessians and the L^1
    norm of the density difference. Asserts strict decrease in eps; the
    log-log slope of the first against the second is reported, not
    asserted: the density distance is eps times a fixed norm, so strict
    growth in eps already makes the slope positive.
    """
    grid = family.grid
    eps_list = _validate_eps(config.eps)
    w_pot = family.potential(0.0)

    def one(eps: float):
        pot = family.potential(eps)
        lhs = _matrix_diff_lq(pot.hess, w_pot.hess, config.gamma)
        gdiff = lp_norm(grid, pot.g_values - w_pot.g_values, 1.0)
        return lhs, gdiff

    pairs = run_sweep(one, eps_list, pool_size(config))
    lhs = [p[0] for p in pairs]
    gdist = [p[1] for p in pairs]
    assertions = []
    _grows_with_eps(assertions, eps_list, lhs, "<", 0.0, "hessian distance at eps={} < at eps={}")
    return ExperimentReport(
        sweep=eps_list,
        measured={"hessian_lgamma_distance": lhs, "density_l1_distance": gdist},
        slopes={"lhs_vs_density_l1": _loglog_slope(gdist, lhs)},
        assertions=assertions,
    )


# ---------------------------------------------------------------------------
# approximation by the flat companion
# ---------------------------------------------------------------------------


def approximation_experiment(family: PinchedFamily, config: ExperimentConfig) -> ExperimentReport:
    """Distance between a solution and its flat-operator companion.

    For each eps, u solves the homogeneous linearized problem over the
    family's potential at eps and h the same problem over the flat
    companion's cofactor, both with the boundary datum x**2. The sup distance
    is measured on the inner region (boundary distance at least
    _INNER_MARGIN) where the comparison is meaningful; it must decrease
    strictly as eps does.
    """
    grid = family.grid
    eps_list = _validate_eps(config.eps)
    datum = lambda pts: np.atleast_2d(pts)[:, 0] ** 2
    h_sol = solve_lma(family.potential(0.0), 0.0, boundary=datum, tol_lma=config.tol_lma)

    pts = grid.points(grid.in_domain)
    _, dist, _ = grid.domain.project_boundary(pts)
    inner_flat = dist >= _INNER_MARGIN
    inner = np.zeros(grid.shape, dtype=bool)
    inner[grid.in_domain] = inner_flat
    if not inner.any():
        raise StabilityError(f"inner margin {_INNER_MARGIN} leaves no nodes to compare on")

    def one(eps: float) -> float:
        u_sol = solve_lma(family.potential(eps), 0.0, boundary=datum, tol_lma=config.tol_lma)
        return float(np.max(np.abs(u_sol.u.values[inner] - h_sol.u.values[inner])))

    sups = run_sweep(one, eps_list, pool_size(config))
    assertions = []
    _grows_with_eps(assertions, eps_list, sups, "<", 0.0, "sup|u-h| at eps={} < at eps={}")
    return ExperimentReport(
        sweep=eps_list,
        measured={"sup_distance": sups},
        slopes={"sup_vs_eps": _loglog_slope(eps_list, sups)},
        assertions=assertions,
    )


# ---------------------------------------------------------------------------
# W^{2,1+eps} for convex solutions
# ---------------------------------------------------------------------------


def w21e_experiment(family: PinchedFamily, config: ExperimentConfig) -> ExperimentReport:
    """Hessian integrability ratios of the first sweep entry's potential phi.

    Reports |D2 phi|_{L^gamma} / |f|_inf with f = 2 g, g the potential's
    density, for each gamma in _W21E_GAMMAS: the W^{2,1+eps} integrability
    of the Monge-Ampere potential itself, read from its discrete Hessian.
    These are the ratios of the v that solves trace(cof(D2 phi) D2 v) = 2 g
    with phi's own boundary datum: in the plane trace(cof(H) H) = 2 det H
    for every symmetric H, and Newton solves det D2 phi = g with the same
    nine-point Hessian, so v is phi up to Newton's residual; solve_ma has
    already certified phi convex. It asserts nothing of its own: a ratio
    that is not finite fails the report through ExperimentReport's rule.
    """
    potential = _pinched(family, config)
    grid = potential.grid
    h = potential.hess
    fro = _frobenius(h.xx, h.yy, h.xy)
    f_inf = lp_norm(grid, 2.0 * potential.g_values, np.inf)
    measured = {"ratios": [lp_norm(grid, fro, g) / f_inf for g in _W21E_GAMMAS], "f_inf": f_inf}
    return ExperimentReport(sweep=list(_W21E_GAMMAS), measured=measured,
                            assertions=[], sweep_label="gamma")


# ---------------------------------------------------------------------------
# contact-set density of the quasi-Euclidean mask
# ---------------------------------------------------------------------------


def contact_set_experiment(family: PinchedFamily, config: ExperimentConfig) -> ExperimentReport:
    """Fraction of a boundary-anchored section missed by the global mask.

    For each eps the family's potential is taken, the section at the anchor
    (the in-domain node nearest the first of 64 boundary samples) is flooded
    at the chosen height, and the defect is the fraction of its
    measurable cells outside the full-domain quasi-Euclidean mask at
    sigma = config.sigma: cells whose ratio minimum over every node pair
    lies below 0.5 * sigma. The threshold goes to quasi_euclidean_ratio_min,
    which settles a cell from the pairs within its window when one of them
    is already below it and scans every pair only for the cells the window
    leaves open; the masks equal those of the all-pairs minimum. Measurable
    means inside the scan's tangent trust region, with an admissible pair;
    cells in the gradient boundary layer cannot certify either way and are
    reported separately. The height is fixed once across the sweep
    (config.height, or half the cap gap of the first instance when it is
    not set) so the sections stay comparable; measured reports it with
    the anchor. The defect must not grow as eps shrinks and must be at most
    _CONTACT_SMALL_TOL at the smallest eps.
    """
    grid = family.grid
    threshold = 0.5 * config.sigma
    eps_list = _validate_eps(config.eps)
    i, j = grid.nearest_in_domain(grid.domain.boundary_samples(64)[0])
    anchor = np.array([grid.xs[i], grid.ys[j]])
    height = config.height
    if height is None:
        height = 0.5 * measure_c_cap(family.heights(eps_list[0]))
    t = float(height)

    def one(eps: float):
        pot = family.potential(eps)
        sec = section(pot, anchor, t)
        n_cells = int(sec.cells.sum())
        rm = quasi_euclidean_ratio_min(pot, sec.cells, threshold)
        measurable = sec.cells & np.isfinite(rm)
        n_meas = int(measurable.sum())
        if n_meas < _CONTACT_MIN_CELLS:
            raise StabilityError(
                f"section at eps={eps} has only {n_meas} measurable cells"
                f" of {n_cells}; raise the height or refine the grid"
            )
        defect = float((measurable & (rm < threshold)).sum() / n_meas)
        return defect, n_cells, n_meas

    rows = run_sweep(one, eps_list, pool_size(config))
    defects = [r[0] for r in rows]
    cells = [r[1] for r in rows]
    meas_cells = [r[2] for r in rows]
    assertions = []
    order = _grows_with_eps(assertions, eps_list, defects, "<=", 1e-12,
                            "defect at eps={} <= defect at eps={}")
    smallest = int(order[0])
    check(assertions, f"defect small at eps={eps_list[smallest]}",
          defects[smallest], "<=", _CONTACT_SMALL_TOL)
    return ExperimentReport(
        sweep=eps_list,
        measured={"defect_fraction": defects, "section_cells": cells,
                  "measurable_cells": meas_cells, "height": t,
                  "anchor_x": float(anchor[0]), "anchor_y": float(anchor[1])},
        assertions=assertions,
    )


# ---------------------------------------------------------------------------
# W^{2,p} ratio sweeps
# ---------------------------------------------------------------------------


def w2p_ratio_experiment(family: PinchedFamily, config: ExperimentConfig) -> ExperimentReport:
    """Hessian-to-source norm ratios across the pinching sweep.

    R(eps) = |D2 u|_{L^p} / |f|_{L^q} for the solution over each of the
    family's potentials, with f = sin(pi x) cos(pi y) + 2 and p, q from the
    config. Boundedness is asserted as sup <= 3 * median over the sweep;
    linearity is checked by scaling f tenfold at the middle eps; the
    small-exponent quasi-norm regime (p = _SMALL_P) runs once with the
    strongly varying density at eps = _STRONG_EPS and is reported, its
    finiteness checked by ExperimentReport's rule. Those two ratios are the
    last two values of the one sweep, so they share the run's pool with
    the ratios over eps.
    """
    grid = family.grid
    p, q = config.p, config.q
    eps_list = _validate_eps(config.eps)
    if not (1.0 < p < q and q > 2.0):
        raise StabilityError(f"need 1 < p < q and q > 2, got p={p}, q={q}")
    f_vals = _source(grid)

    def ratio_on(case) -> float:
        scale, eps, pp, qq = case
        sol = solve_lma(family.potential(eps), scale * f_vals, tol_lma=config.tol_lma)
        _, hess = fd_derivatives(sol.u)
        num = lp_norm(grid, _frobenius(hess.xx, hess.yy, hess.xy), pp)
        den = lp_norm(grid, sol.f_values, qq)
        return num / den

    mid = eps_list[len(eps_list) // 2]
    cases = [(1.0, e, p, q) for e in eps_list] + [(10.0, mid, p, q), (1.0, _STRONG_EPS, _SMALL_P, 2.0)]
    *ratios, r_scaled, r_small = run_sweep(ratio_on, cases, pool_size(config))
    assertions = []
    med = float(np.median(ratios))
    check(assertions, "sup of ratios <= 3 * median", max(ratios), "<=", 3.0 * med)
    r_mid = ratios[len(eps_list) // 2]
    check(assertions, f"ratio invariant under f -> 10f at eps={mid}",
          abs(r_scaled - r_mid), "<=", 1e-6 * r_mid)
    return ExperimentReport(
        sweep=eps_list,
        measured={"ratio": ratios, "ratio_scaled_f": r_scaled, "ratio_small_exponent": r_small},
        slopes={"ratio_vs_eps": _loglog_slope(eps_list, ratios)},
        assertions=assertions,
    )


# every experiment by name, in suite order; the name is the report's
# experiment, its output directory in a suite and its sweep files' prefix
EXPERIMENTS = {
    "solve_ma": solve_ma_experiment,
    "solve_lma": solve_lma_experiment,
    "sections": sections_experiment,
    "cover": cover_experiment,
    "maximal": maximal_experiment,
    "goodsets": goodsets_experiment,
    "barrier": barrier_experiment,
    "cofactor_stability": cofactor_stability_experiment,
    "sobolev_stability": sobolev_stability_experiment,
    "approximation": approximation_experiment,
    "w21e": w21e_experiment,
    "contact_set": contact_set_experiment,
    "w2p_ratio": w2p_ratio_experiment,
}
