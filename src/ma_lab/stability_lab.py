"""Headline stability and regularity experiments.

Each experiment returns an ExperimentReport: the sweep values, the measured
quantities, fitted slopes where a trend is claimed, and a list of asserted
inequalities carrying both sides and the tolerance. Sweeps are deterministic;
rerunning an experiment with the same configuration reproduces every number
bit for bit.
"""

import threading
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .domain_grid import ConvexDomain, Grid, coerce_samples, fd_derivatives, lp_norm
from .ma_solve import PotentialField, SolveError, certify_convexity, cofactor_field, solve_ma
from .lma_solve import solve_lma
from .section_geom import interior_heights, measure_c_cap, section
from .good_sets import quasi_euclidean_ratio_min


class StabilityError(ValueError):
    pass


# every sweep's perturbation sizes lie in (0, _EPS_UPPER)
_EPS_UPPER = 0.5
# approximation_experiment compares on nodes at least this far from the boundary
_INNER_MARGIN = 0.25
# convex_w21e_check's Hessian integrability exponents
_W21E_GAMMAS = (1.05, 1.1, 1.25)
# contact_set_experiment: fewest measurable section cells, and the bound on
# the defect at the smallest eps
_CONTACT_MIN_CELLS = 8
_CONTACT_SMALL_TOL = 0.05
# w2p_ratio_sweep's small-exponent regime: the exponent and the strongly
# varying density's eps
_SMALL_P = 0.3
_STRONG_EPS = 0.8


@dataclass
class Assertion:
    name: str
    lhs: float
    op: str
    rhs: float
    tol: float
    passed: bool
    note: str = ""


@dataclass
class ExperimentReport:
    """What one experiment measured and asserted.

    wall_time is set by cli_runner.run, which times the whole experiment;
    the experiment functions leave it at 0.
    """

    experiment: str
    config: dict
    sweep: list
    measured: dict
    slopes: dict
    assertions: list
    wall_time: float = 0.0

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
    """Apply fn to each sweep value, optionally across threads, in index order."""
    values = list(values)
    if threads <= 1:
        return [fn(v) for v in values]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, values))


class PinchedFamily:
    """The pinched potentials phi_eps of one grid, each solved once.

    phi_eps solves det D^2 phi = 1 + eps*g0 with zero boundary data; eps = 0
    is the flat companion, and g0=None makes every density the constant
    1 + eps. potential(eps) is safe to call from several threads: a density
    is solved by the first caller that asks for it, outside the lock, so
    different eps solve in parallel and later callers share the result (or
    the SolveError). Callers must not write into the returned potentials.

    Every eps != 0 starts Newton from the flat potential phi_0, solving it
    first if no caller has (continuation in eps). The start is always phi_0,
    never the last eps finished, so each potential is the same whatever the
    thread count or the order of requests. If phi_0 fails to solve, eps != 0
    solves from solve_ma's own start chain and does not share that error.
    """

    def __init__(self, grid: Grid, g0: Optional[Callable] = None, tol_ma: float = 1e-8):
        self.grid = grid
        self.g0 = g0
        self.tol_ma = tol_ma
        self._lock = threading.Lock()
        self._solved = {}

    def density(self, eps: float):
        """1 + eps*g0 on the grid; the scalar 1 + eps when eps = 0 or g0 is None."""
        if eps == 0.0 or self.g0 is None:
            return 1.0 + eps
        X, Y = self.grid.meshes()
        return 1.0 + eps * np.asarray(self.g0(X, Y), dtype=float)

    def potential(self, eps: float) -> PotentialField:
        with self._lock:
            slot = self._solved.get(eps)
            owner = slot is None
            if owner:
                slot = self._solved[eps] = Future()
        if owner:
            try:
                slot.set_result(solve_ma(self.grid, self.density(eps), tol_ma=self.tol_ma,
                                         start=self._flat_values(eps)))
            except BaseException as exc:
                slot.set_exception(exc)
                raise
        return slot.result()

    def _flat_values(self, eps: float) -> Optional[np.ndarray]:
        """phi_0's grid values as the Newton start for eps; None for eps = 0
        or when phi_0 failed."""
        if eps == 0.0:
            return None
        try:
            return self.potential(0.0).phi.values
        except SolveError:
            return None


def _hess_frobenius(hess) -> np.ndarray:
    return np.sqrt(hess.xx ** 2 + 2.0 * hess.xy ** 2 + hess.yy ** 2)


def _matrix_diff_lq(grid: Grid, a, b, q: float) -> float:
    """L^q norm of the pointwise Frobenius distance between two matrix fields."""
    fro = np.sqrt((a.xx - b.xx) ** 2 + 2.0 * (a.xy - b.xy) ** 2 + (a.yy - b.yy) ** 2)
    return lp_norm(grid, fro, q)


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
# cofactor stability
# ---------------------------------------------------------------------------


def cofactor_stability_sweep(family: PinchedFamily, eps_list, q: float = 2.0,
                             threads: int = 1) -> ExperimentReport:
    """Distance between cofactor matrices of a perturbed and a flat solve.

    For each eps the family's potentials at eps and at 0 are compared; the
    measured quantity is the L^q norm of the Frobenius distance of the two
    cofactor fields. Asserts strict decrease in eps and a positive log-log
    slope.
    """
    grid = family.grid
    eps_list = _validate_eps(eps_list)
    W = cofactor_field(family.potential(0.0))

    def one(eps: float) -> float:
        return _matrix_diff_lq(grid, cofactor_field(family.potential(eps)), W, q)

    norms = run_sweep(one, eps_list, threads)
    order = np.argsort(eps_list)
    assertions = []
    for lo, hi in zip(order[:-1], order[1:]):
        check(assertions, f"norm(eps={eps_list[lo]}) < norm(eps={eps_list[hi]})",
              norms[lo], "<", norms[hi])
    slope = _loglog_slope(eps_list, norms)
    check(assertions, "log-log slope of norm vs eps positive", slope, ">=", 0.0)
    return ExperimentReport(
        experiment="cofactor_stability_sweep",
        config={"q": q, "spacing": grid.spacing, "domain": grid.domain.kind, "eps": eps_list},
        sweep=eps_list,
        measured={"cofactor_lq_distance": norms},
        slopes={"norm_vs_eps": slope},
        assertions=assertions,
    )


# ---------------------------------------------------------------------------
# Sobolev stability
# ---------------------------------------------------------------------------


def sobolev_stability_sweep(family: PinchedFamily, eps_list, gamma: float = 1.1,
                            threads: int = 1) -> ExperimentReport:
    """Hessian distance of the family's potentials at eps and at 0 against their density gap.

    For each eps the measured pair is the L^gamma norm of the Frobenius
    distance of the two Hessians and the L^1 norm of the density difference.
    Asserts strict decrease in eps and a positive log-log slope of the first
    against the second.
    """
    grid = family.grid
    eps_list = _validate_eps(eps_list)
    w_pot = family.potential(0.0)

    def one(eps: float):
        pot = family.potential(eps)
        lhs = _matrix_diff_lq(grid, pot.hess, w_pot.hess, gamma)
        gdiff = lp_norm(grid, pot.g_values - w_pot.g_values, 1.0)
        return lhs, gdiff

    pairs = run_sweep(one, eps_list, threads)
    lhs = [p[0] for p in pairs]
    gdist = [p[1] for p in pairs]
    order = np.argsort(eps_list)
    assertions = []
    for lo, hi in zip(order[:-1], order[1:]):
        check(assertions, f"hessian distance at eps={eps_list[lo]} < at eps={eps_list[hi]}",
              lhs[lo], "<", lhs[hi])
    slope = _loglog_slope(gdist, lhs)
    check(assertions, "log-log slope of hessian distance vs density distance positive",
          slope, ">=", 0.0)
    return ExperimentReport(
        experiment="sobolev_stability_sweep",
        config={"gamma": gamma, "spacing": grid.spacing, "domain": grid.domain.kind, "eps": eps_list},
        sweep=eps_list,
        measured={"hessian_lgamma_distance": lhs, "density_l1_distance": gdist},
        slopes={"lhs_vs_density_l1": slope},
        assertions=assertions,
    )


# ---------------------------------------------------------------------------
# approximation by the flat companion
# ---------------------------------------------------------------------------


def approximation_experiment(family: PinchedFamily, eps_list, threads: int = 1) -> ExperimentReport:
    """Distance between a solution and its flat-operator companion.

    For each eps, u solves the homogeneous linearized problem over the
    family's potential at eps and h the same problem over the flat
    companion's cofactor, both with the boundary datum x**2. The sup distance
    is measured on the inner region (boundary distance at least
    _INNER_MARGIN) where the comparison is meaningful; it must decrease
    strictly as eps does.
    """
    grid = family.grid
    eps_list = _validate_eps(eps_list)
    datum = lambda pts: np.atleast_2d(pts)[:, 0] ** 2
    W = cofactor_field(family.potential(0.0))
    h_sol = solve_lma(W, 0.0, boundary=datum)

    pts = grid.points(grid.in_domain)
    _, dist, _ = grid.domain.project_boundary(pts)
    inner_flat = dist >= _INNER_MARGIN
    inner = np.zeros(grid.shape, dtype=bool)
    inner[grid.in_domain] = inner_flat
    if not inner.any():
        raise StabilityError(f"inner margin {_INNER_MARGIN} leaves no nodes to compare on")

    def one(eps: float):
        pot = family.potential(eps)
        u_sol = solve_lma(pot, 0.0, boundary=datum)
        sup = float(np.max(np.abs(u_sol.u.values[inner] - h_sol.u.values[inner])))
        pdist = _matrix_diff_lq(grid, cofactor_field(pot), W, 2.0)
        return sup, pdist

    pairs = run_sweep(one, eps_list, threads)
    sups = [p[0] for p in pairs]
    cof_dists = [p[1] for p in pairs]
    order = np.argsort(eps_list)
    assertions = []
    for lo, hi in zip(order[:-1], order[1:]):
        check(assertions, f"sup|u-h| at eps={eps_list[lo]} < at eps={eps_list[hi]}",
              sups[lo], "<", sups[hi])
    return ExperimentReport(
        experiment="approximation_experiment",
        config={"spacing": grid.spacing, "domain": grid.domain.kind, "eps": eps_list,
                "inner_margin": _INNER_MARGIN, "homogeneous": True},
        sweep=eps_list,
        measured={"sup_distance": sups, "cofactor_l2_distance": cof_dists},
        slopes={"sup_vs_eps": _loglog_slope(eps_list, sups)},
        assertions=assertions,
    )


# ---------------------------------------------------------------------------
# W^{2,1+eps} for convex solutions
# ---------------------------------------------------------------------------


def convex_w21e_check(potential: PotentialField, f, boundary=0.0) -> ExperimentReport:
    """Hessian integrability ratios of a convex solution.

    Solves the linearized problem, certifies convexity of the solution (the
    experiment reports non-applicability instead of failing when the solution
    is not convex), and reports |D2 v|_{L^gamma} / |f|_inf for each gamma in
    _W21E_GAMMAS.
    """
    grid = potential.grid
    gammas = _W21E_GAMMAS
    sol = solve_lma(potential, f, boundary=boundary)
    _, hess = fd_derivatives(sol.u)
    conv = certify_convexity(hess)
    config = {"gammas": list(gammas), "spacing": grid.spacing, "domain": grid.domain.kind}
    assertions = []

    f_inf = lp_norm(grid, sol.f_values, np.inf)
    if not conv.passed:
        return ExperimentReport(
            experiment="convex_w21e_check",
            config=config,
            sweep=list(gammas),
            measured={"applicable": False, "min_hessian_eig": conv.min_eig},
            slopes={},
            assertions=assertions,
        )
    if f_inf == 0.0:
        return ExperimentReport(
            experiment="convex_w21e_check",
            config=config,
            sweep=list(gammas),
            measured={"applicable": True, "degenerate": True, "f_inf": 0.0},
            slopes={},
            assertions=assertions,
        )

    fro = _hess_frobenius(hess)
    ratios = [lp_norm(grid, fro, g) / f_inf for g in gammas]
    for g, r in zip(gammas, ratios):
        check(assertions, f"ratio at gamma={g} finite", r, "<", np.inf)

    return ExperimentReport(
        experiment="convex_w21e_check",
        config=config,
        sweep=list(gammas),
        measured={"applicable": True, "ratios": ratios, "f_inf": f_inf,
                  "min_hessian_eig": conv.min_eig},
        slopes={},
        assertions=assertions,
    )


# ---------------------------------------------------------------------------
# contact-set density of the quasi-Euclidean mask
# ---------------------------------------------------------------------------


def contact_set_experiment(family: PinchedFamily, eps_list, sigma: float,
                           height: Optional[float] = None) -> ExperimentReport:
    """Fraction of a boundary-anchored section missed by the global mask.

    For each eps the family's potential is taken, the section at the anchor
    (the in-domain node nearest the first of 64 boundary samples) is flooded
    at the chosen height, and the defect is the fraction of its
    measurable cells outside the full-domain quasi-Euclidean mask at the
    given sigma. Measurable means inside the scan's tangent trust region;
    cells in the gradient boundary layer cannot certify either way and are
    reported separately. The height is fixed once across the sweep (half the
    cap gap of the first instance when not given) so the sections stay
    comparable. The defect must not grow as eps shrinks and must be at most
    _CONTACT_SMALL_TOL at the smallest eps.
    """
    grid = family.grid
    eps_list = _validate_eps(eps_list)
    i, j = grid.nearest_in_domain(grid.domain.boundary_samples(64)[0])
    anchor = np.array([grid.xs[i], grid.ys[j]])
    if height is None:
        height = 0.5 * measure_c_cap(interior_heights(family.potential(eps_list[0])))
    t = float(height)

    def one(eps: float):
        pot = family.potential(eps)
        sec = section(pot, anchor, t)
        n_cells = int(sec.cells.sum())
        rm = quasi_euclidean_ratio_min(pot, sec.cells)
        measurable = sec.cells & np.isfinite(rm)
        n_meas = int(measurable.sum())
        if n_meas < _CONTACT_MIN_CELLS:
            raise StabilityError(
                f"section at eps={eps} has only {n_meas} measurable cells"
                f" of {n_cells}; raise the height or refine the grid"
            )
        defect = float((measurable & (rm < 0.5 * sigma)).sum() / n_meas)
        return defect, n_cells, n_meas

    rows = run_sweep(one, eps_list, 1)
    defects = [r[0] for r in rows]
    cells = [r[1] for r in rows]
    meas_cells = [r[2] for r in rows]
    order = np.argsort(eps_list)
    assertions = []
    for lo, hi in zip(order[:-1], order[1:]):
        check(assertions, f"defect at eps={eps_list[lo]} <= defect at eps={eps_list[hi]}",
              defects[lo], "<=", defects[hi], tol=1e-12)
    smallest = int(order[0])
    check(assertions, f"defect small at eps={eps_list[smallest]}",
          defects[smallest], "<=", _CONTACT_SMALL_TOL)
    return ExperimentReport(
        experiment="contact_set_experiment",
        config={"sigma": sigma, "spacing": grid.spacing, "domain": grid.domain.kind,
                "eps": eps_list, "height": t,
                "anchor": [float(anchor[0]), float(anchor[1])]},
        sweep=eps_list,
        measured={"defect_fraction": defects, "section_cells": cells,
                  "measurable_cells": meas_cells},
        slopes={},
        assertions=assertions,
    )


# ---------------------------------------------------------------------------
# W^{2,p} ratio sweeps
# ---------------------------------------------------------------------------


def w2p_ratio_sweep(family: PinchedFamily, eps_list, p: float = 2.0, q: float = 4.0,
                    threads: int = 1) -> ExperimentReport:
    """Hessian-to-source norm ratios across the pinching sweep.

    R(eps) = |D2 u|_{L^p} / |f|_{L^q} for the solution over each of the
    family's potentials, with f = sin(pi x) cos(pi y) + 2. Boundedness is
    asserted as sup <= 3 * median over the sweep; linearity is checked by
    scaling f tenfold at one sweep point; the small-exponent quasi-norm
    regime (p = _SMALL_P) runs once with the strongly varying density at
    eps = _STRONG_EPS.
    """
    grid = family.grid
    eps_list = _validate_eps(eps_list)
    if not (1.0 < p < q and q > 2.0):
        raise StabilityError(f"need 1 < p < q and q > 2, got p={p}, q={q}")
    f_vals = coerce_samples(grid, lambda X, Y: np.sin(np.pi * X) * np.cos(np.pi * Y) + 2.0)

    def ratio_on(fv: np.ndarray, eps: float, pp: float, qq: float) -> float:
        sol = solve_lma(family.potential(eps), fv)
        _, hess = fd_derivatives(sol.u)
        num = lp_norm(grid, _hess_frobenius(hess), pp)
        den = lp_norm(grid, sol.f_values, qq)
        return num / den

    ratios = run_sweep(lambda e: ratio_on(f_vals, e, p, q), eps_list, threads)
    assertions = []
    med = float(np.median(ratios))
    check(assertions, "sup of ratios <= 3 * median", max(ratios), "<=", 3.0 * med)

    mid = eps_list[len(eps_list) // 2]
    r_scaled = ratio_on(10.0 * f_vals, mid, p, q)
    r_mid = ratios[len(eps_list) // 2]
    check(assertions, f"ratio invariant under f -> 10f at eps={mid}",
          abs(r_scaled - r_mid), "<=", 1e-6 * r_mid)

    r_small = ratio_on(f_vals, _STRONG_EPS, _SMALL_P, 2.0)
    check(assertions, f"small-exponent ratio finite (p={_SMALL_P}, eps={_STRONG_EPS})",
          r_small, "<", np.inf)

    return ExperimentReport(
        experiment="w2p_ratio_sweep",
        config={"p": p, "q": q, "spacing": grid.spacing, "domain": grid.domain.kind,
                "eps": eps_list, "small_p": _SMALL_P, "strong_eps": _STRONG_EPS},
        sweep=eps_list,
        measured={"ratio": ratios, "ratio_scaled_f": r_scaled, "ratio_small_exponent": r_small},
        slopes={"ratio_vs_eps": _loglog_slope(eps_list, ratios)},
        assertions=assertions,
    )
