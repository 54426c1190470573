"""Headline stability and regularity experiments.

Each experiment returns an ExperimentReport: the sweep values, the measured
quantities, fitted slopes where a trend is claimed, and a list of asserted
inequalities carrying both sides and the tolerance. Sweeps are deterministic;
rerunning an experiment with the same configuration reproduces every number
bit for bit.
"""

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field as dc_field
from typing import Callable, Optional

import numpy as np

from .domain_grid import ConvexDomain, Grid, ScalarField, discretize, fd_derivatives, lp_norm
from .ma_solve import PotentialField, certify_convexity, cofactor_field, solve_ma
from .lma_solve import solve_lma
from .section_geom import measure_c_cap, section
from .good_sets import quasi_euclidean_ratio_min


class StabilityError(ValueError):
    pass


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


def check(assertions: list, name: str, lhs: float, op: str, rhs: float, tol: float = 0.0, note: str = "") -> bool:
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
    assertions.append(Assertion(name, float(lhs), op, float(rhs), float(tol), bool(ok), note))
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


def _as_grid(grid, spacing: Optional[float]) -> Grid:
    if isinstance(grid, Grid):
        return grid
    return discretize(grid, spacing if spacing is not None else 1 / 32)


def _hess_frobenius(grid: Grid, hess) -> np.ndarray:
    return np.sqrt(hess.xx ** 2 + 2.0 * hess.xy ** 2 + hess.yy ** 2)


def _matrix_diff_lq(grid: Grid, a, b, q: float) -> float:
    """L^q norm of the pointwise Frobenius distance between two matrix fields."""
    fro = np.sqrt((a.xx - b.xx) ** 2 + 2.0 * (a.xy - b.xy) ** 2 + (a.yy - b.yy) ** 2)
    return lp_norm((grid, fro), q)


def _validate_eps(eps_list, upper: float = 0.5):
    eps_list = [float(e) for e in eps_list]
    for e in eps_list:
        if not (0.0 < e < upper):
            raise StabilityError(f"perturbation size must lie in (0, {upper}), got {e}")
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


def cofactor_stability_sweep(grid, eps_list, q: float = 2.0, g0=None, threads: int = 1,
                             spacing: Optional[float] = None) -> ExperimentReport:
    """Distance between cofactor matrices of a perturbed and a flat solve.

    For each eps the densities are 1 + eps*g0 and 1, both with zero boundary
    data; the measured quantity is the L^q norm of the Frobenius distance of
    the two cofactor fields. Asserts strict decrease in eps and a positive
    log-log slope.
    """
    t0 = time.perf_counter()
    grid = _as_grid(grid, spacing)
    eps_list = _validate_eps(eps_list)
    if g0 is None:
        g0 = default_bump(grid.domain)
    w_pot = solve_ma(grid, 1.0)
    W = cofactor_field(w_pot)

    def one(eps: float) -> float:
        X, Y = grid.meshes()
        pot = solve_ma(grid, 1.0 + eps * np.asarray(g0(X, Y), dtype=float))
        return _matrix_diff_lq(grid, cofactor_field(pot), W, q)

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
        wall_time=time.perf_counter() - t0,
    )


def cofactor_scaling_oracle(grid, eps: float = 0.2, q: float = 2.0,
                            spacing: Optional[float] = None, rel_tol: float = 0.05) -> ExperimentReport:
    """Constant-density perturbation with a closed-form answer.

    With density 1 + eps constant the perturbed potential is sqrt(1 + eps)
    times the flat one, so the cofactor distance is (sqrt(1+eps) - 1) times
    the L^q norm of the flat cofactor. Measures both sides.
    """
    t0 = time.perf_counter()
    grid = _as_grid(grid, spacing)
    (eps,) = _validate_eps([eps])
    w_pot = solve_ma(grid, 1.0)
    W = cofactor_field(w_pot)
    pot = solve_ma(grid, 1.0 + eps)
    lhs = _matrix_diff_lq(grid, cofactor_field(pot), W, q)
    w_fro = np.sqrt(W.xx ** 2 + 2.0 * W.xy ** 2 + W.yy ** 2)
    rhs = (np.sqrt(1.0 + eps) - 1.0) * lp_norm((grid, w_fro), q)
    assertions = []
    check(assertions, "measured distance matches scaling prediction",
          lhs, "~", rhs, tol=rel_tol * rhs)
    return ExperimentReport(
        experiment="cofactor_scaling_oracle",
        config={"q": q, "eps": eps, "spacing": grid.spacing, "domain": grid.domain.kind},
        sweep=[eps],
        measured={"distance": lhs, "prediction": rhs},
        slopes={},
        assertions=assertions,
        wall_time=time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# Sobolev stability
# ---------------------------------------------------------------------------


def sobolev_stability(phi1: PotentialField, phi2: PotentialField, gamma: float = 1.1) -> ExperimentReport:
    """Hessian distance of two solved potentials against their density gap."""
    t0 = time.perf_counter()
    if phi1.grid is not phi2.grid:
        raise StabilityError("potentials live on different grids")
    grid = phi1.grid
    lhs = _matrix_diff_lq(grid, phi1.hess, phi2.hess, gamma)
    gdiff = lp_norm((grid, np.abs(phi1.g_values - phi2.g_values)), 1.0)
    return ExperimentReport(
        experiment="sobolev_stability",
        config={"gamma": gamma, "spacing": grid.spacing, "domain": grid.domain.kind},
        sweep=[],
        measured={"hessian_lgamma_distance": lhs, "density_l1_distance": gdiff},
        slopes={},
        assertions=[],
        wall_time=time.perf_counter() - t0,
    )


def sobolev_stability_sweep(grid, eps_list, gamma: float = 1.1, g0=None, threads: int = 1,
                            spacing: Optional[float] = None) -> ExperimentReport:
    """Sweep of sobolev_stability over density perturbations 1 + eps*g0 vs 1."""
    t0 = time.perf_counter()
    grid = _as_grid(grid, spacing)
    eps_list = _validate_eps(eps_list)
    if g0 is None:
        g0 = default_bump(grid.domain)
    w_pot = solve_ma(grid, 1.0)

    def one(eps: float):
        X, Y = grid.meshes()
        pot = solve_ma(grid, 1.0 + eps * np.asarray(g0(X, Y), dtype=float))
        rep = sobolev_stability(pot, w_pot, gamma)
        return rep.measured["hessian_lgamma_distance"], rep.measured["density_l1_distance"]

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
        wall_time=time.perf_counter() - t0,
    )


def sobolev_scaling_oracle(grid, eps: float = 0.2, gamma: float = 1.1,
                           spacing: Optional[float] = None, rel_tol: float = 0.05) -> ExperimentReport:
    """Constant-density pair: hessian distance equals (sqrt(1+eps)-1)*|D2w|_gamma."""
    t0 = time.perf_counter()
    grid = _as_grid(grid, spacing)
    (eps,) = _validate_eps([eps])
    w_pot = solve_ma(grid, 1.0)
    pot = solve_ma(grid, 1.0 + eps)
    lhs = _matrix_diff_lq(grid, pot.hess, w_pot.hess, gamma)
    rhs = (np.sqrt(1.0 + eps) - 1.0) * lp_norm((grid, _hess_frobenius(grid, w_pot.hess)), gamma)
    assertions = []
    check(assertions, "hessian distance matches scaling prediction", lhs, "~", rhs, tol=rel_tol * rhs)
    return ExperimentReport(
        experiment="sobolev_scaling_oracle",
        config={"gamma": gamma, "eps": eps, "spacing": grid.spacing, "domain": grid.domain.kind},
        sweep=[eps],
        measured={"distance": lhs, "prediction": rhs},
        slopes={},
        assertions=assertions,
        wall_time=time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# approximation by the flat companion
# ---------------------------------------------------------------------------


def approximation_experiment(grid, eps_list, f=0.0, datum=None, g0=None,
                             inner_margin: float = 0.25, threads: int = 1,
                             spacing: Optional[float] = None) -> ExperimentReport:
    """Distance between a solution and its flat-operator companion.

    For each eps, u solves the linearized problem over the pinched potential
    and h solves the homogeneous problem over the flat companion's cofactor
    with the same boundary datum. The sup distance is measured on the inner
    region (boundary distance at least inner_margin) where the comparison is
    meaningful; it must decrease strictly as eps does when f vanishes.
    """
    t0 = time.perf_counter()
    grid = _as_grid(grid, spacing)
    eps_list = _validate_eps(eps_list)
    if g0 is None:
        g0 = default_bump(grid.domain)
    if datum is None:
        datum = lambda pts: np.atleast_2d(pts)[:, 0] ** 2
    w_pot = solve_ma(grid, 1.0)
    W = cofactor_field(w_pot)
    h_sol = solve_lma(W, 0.0, boundary=datum)

    pts = grid.points(grid.in_domain)
    _, dist, _ = grid.domain.project_boundary(pts)
    inner_flat = dist >= inner_margin
    inner = np.zeros(grid.shape, dtype=bool)
    inner[grid.in_domain] = inner_flat
    if not inner.any():
        raise StabilityError(f"inner margin {inner_margin} leaves no nodes to compare on")

    X, Y = grid.meshes()
    f_vals = f(X, Y) if callable(f) else f

    def one(eps: float):
        pot = solve_ma(grid, 1.0 + eps * np.asarray(g0(X, Y), dtype=float))
        u_sol = solve_lma(pot, f_vals, boundary=datum)
        sup = float(np.max(np.abs(u_sol.u.values[inner] - h_sol.u.values[inner])))
        pdist = _matrix_diff_lq(grid, cofactor_field(pot), W, 2.0)
        return sup, pdist

    pairs = run_sweep(one, eps_list, threads)
    sups = [p[0] for p in pairs]
    cof_dists = [p[1] for p in pairs]
    order = np.argsort(eps_list)
    assertions = []
    is_homogeneous = not np.any(np.asarray(f_vals, dtype=float) != 0.0)
    if is_homogeneous:
        for lo, hi in zip(order[:-1], order[1:]):
            check(assertions, f"sup|u-h| at eps={eps_list[lo]} < at eps={eps_list[hi]}",
                  sups[lo], "<", sups[hi])
    return ExperimentReport(
        experiment="approximation_experiment",
        config={"spacing": grid.spacing, "domain": grid.domain.kind, "eps": eps_list,
                "inner_margin": inner_margin, "homogeneous": is_homogeneous},
        sweep=eps_list,
        measured={"sup_distance": sups, "cofactor_l2_distance": cof_dists},
        slopes={"sup_vs_eps": _loglog_slope(eps_list, sups)},
        assertions=assertions,
        wall_time=time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# W^{2,1+eps} for convex solutions
# ---------------------------------------------------------------------------


def convex_w21e_check(potential: PotentialField, f, gammas=(1.05, 1.1, 1.25),
                      boundary=0.0, refine_potential: Optional[PotentialField] = None) -> ExperimentReport:
    """Hessian integrability ratios of a convex solution.

    Solves the linearized problem, certifies convexity of the solution (the
    experiment reports non-applicability instead of failing when the solution
    is not convex), and reports |D2 v|_{L^gamma} / |f|_inf for each gamma.
    With a finer-grid potential supplied, asserts each ratio is stable within
    a factor of two across the refinement.
    """
    t0 = time.perf_counter()
    grid = potential.grid
    sol = solve_lma(potential, f, boundary=boundary)
    _, hess = fd_derivatives(sol.u)
    conv = certify_convexity(hess)
    config = {"gammas": list(gammas), "spacing": grid.spacing, "domain": grid.domain.kind}
    assertions = []

    f_inf = lp_norm((grid, np.abs(np.where(grid.in_domain, sol.f_values, np.nan))), np.inf)
    if not conv.passed:
        return ExperimentReport(
            experiment="convex_w21e_check",
            config=config,
            sweep=list(gammas),
            measured={"applicable": False, "min_hessian_eig": conv.min_eig},
            slopes={},
            assertions=assertions,
            wall_time=time.perf_counter() - t0,
        )
    if f_inf == 0.0:
        return ExperimentReport(
            experiment="convex_w21e_check",
            config=config,
            sweep=list(gammas),
            measured={"applicable": True, "degenerate": True, "f_inf": 0.0},
            slopes={},
            assertions=assertions,
            wall_time=time.perf_counter() - t0,
        )

    fro = _hess_frobenius(grid, hess)
    ratios = [lp_norm((grid, fro), g) / f_inf for g in gammas]
    for g, r in zip(gammas, ratios):
        check(assertions, f"ratio at gamma={g} finite", r, "<", np.inf)

    measured = {"applicable": True, "ratios": ratios, "f_inf": f_inf,
                "min_hessian_eig": conv.min_eig}
    if refine_potential is not None:
        fine = convex_w21e_check(refine_potential, f, gammas, boundary=boundary)
        fine_ratios = fine.measured.get("ratios", [])
        measured["ratios_fine"] = fine_ratios
        for g, r, rf in zip(gammas, ratios, fine_ratios):
            big, small = max(r, rf), min(r, rf)
            check(assertions, f"refinement stability at gamma={g}", big, "<=", 2.0 * small)
    return ExperimentReport(
        experiment="convex_w21e_check",
        config=config,
        sweep=list(gammas),
        measured=measured,
        slopes={},
        assertions=assertions,
        wall_time=time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# contact-set density of the quasi-Euclidean mask
# ---------------------------------------------------------------------------


def contact_set_experiment(grid, eps_list, sigma: float, anchor=None, height: Optional[float] = None,
                           g0=None, min_cells: int = 8, small_tol: float = 0.05,
                           spacing: Optional[float] = None) -> ExperimentReport:
    """Fraction of a boundary-anchored section missed by the global mask.

    For each eps the pinched potential is solved, the section at the anchor is
    flooded at the chosen height, and the defect is the fraction of its
    measurable cells outside the full-domain quasi-Euclidean mask at the
    given sigma. Measurable means inside the scan's tangent trust region;
    cells in the gradient boundary layer cannot certify either way and are
    reported separately. The height is fixed once across the sweep (half the
    cap gap of the first instance when not given) so the sections stay
    comparable. The defect must not grow as eps shrinks and must be small at
    the smallest eps.
    """
    t0 = time.perf_counter()
    grid = _as_grid(grid, spacing)
    eps_list = _validate_eps(eps_list)
    if g0 is None:
        g0 = default_bump(grid.domain)
    if anchor is None:
        anchor = grid.domain.boundary_samples(64)[0]
    X, Y = grid.meshes()

    def pinched(eps: float) -> PotentialField:
        return solve_ma(grid, 1.0 + eps * np.asarray(g0(X, Y), dtype=float))

    if height is None:
        height = 0.5 * measure_c_cap(pinched(eps_list[0]))
    t = float(height)

    def one(eps: float):
        pot = pinched(eps)
        sec = section(pot, anchor, t)
        n_cells = int(sec.cells.sum())
        rm = quasi_euclidean_ratio_min(pot, neighborhood_radius=None, centers=sec.cells)
        measurable = sec.cells & np.isfinite(rm)
        n_meas = int(measurable.sum())
        if n_meas < min_cells:
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
          defects[smallest], "<=", small_tol)
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
        wall_time=time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# W^{2,p} ratio sweeps
# ---------------------------------------------------------------------------


def w2p_ratio_sweep(grid, eps_list, p: float = 2.0, q: float = 4.0, f=None, g0=None,
                    small_p: float = 0.3, strong_eps: float = 0.8, threads: int = 1,
                    refine_grid: Optional[Grid] = None,
                    spacing: Optional[float] = None) -> ExperimentReport:
    """Hessian-to-source norm ratios across the pinching sweep.

    R(eps) = |D2 u|_{L^p} / |f|_{L^q} for the solution over each pinched
    potential. Boundedness is asserted as sup <= 3 * median over the sweep;
    linearity is checked by scaling f tenfold at one sweep point; the
    small-exponent quasi-norm regime runs once with a strongly varying
    density. A finer grid, when given, adds a factor-two stability assertion.
    """
    t0 = time.perf_counter()
    grid = _as_grid(grid, spacing)
    eps_list = _validate_eps(eps_list)
    if not (1.0 < p < q and q > 2.0):
        raise StabilityError(f"need 1 < p < q and q > 2, got p={p}, q={q}")
    if g0 is None:
        g0 = default_bump(grid.domain)
    if f is None:
        f = lambda X, Y: np.sin(np.pi * X) * np.cos(np.pi * Y) + 2.0
    X, Y = grid.meshes()
    f_vals = np.asarray(f(X, Y), dtype=float) + np.zeros(grid.shape) if callable(f) else np.asarray(f, dtype=float) + np.zeros(grid.shape)

    def ratio_on(g: Grid, fv: np.ndarray, eps: float, pp: float, qq: float) -> float:
        Xg, Yg = g.meshes()
        pot = solve_ma(g, 1.0 + eps * np.asarray(g0(Xg, Yg), dtype=float))
        sol = solve_lma(pot, fv)
        _, hess = fd_derivatives(sol.u)
        num = lp_norm((g, _hess_frobenius(g, hess)), pp)
        den = lp_norm((g, np.abs(np.where(g.in_domain, sol.f_values, np.nan))), qq)
        return num / den

    ratios = run_sweep(lambda e: ratio_on(grid, f_vals, e, p, q), eps_list, threads)
    assertions = []
    med = float(np.median(ratios))
    check(assertions, "sup of ratios <= 3 * median", max(ratios), "<=", 3.0 * med)

    mid = eps_list[len(eps_list) // 2]
    r_scaled = ratio_on(grid, 10.0 * f_vals, mid, p, q)
    r_mid = ratios[len(eps_list) // 2]
    check(assertions, f"ratio invariant under f -> 10f at eps={mid}",
          abs(r_scaled - r_mid), "<=", 1e-6 * r_mid)

    r_small = ratio_on(grid, f_vals, strong_eps, small_p, 2.0) if strong_eps < 1.0 else float("nan")
    check(assertions, f"small-exponent ratio finite (p={small_p}, eps={strong_eps})",
          r_small, "<", np.inf)

    measured = {"ratio": ratios, "ratio_scaled_f": r_scaled, "ratio_small_exponent": r_small}
    if refine_grid is not None:
        Xf, Yf = refine_grid.meshes()
        fv_fine = np.asarray(f(Xf, Yf), dtype=float) + np.zeros(refine_grid.shape) if callable(f) else np.asarray(f, dtype=float) + np.zeros(refine_grid.shape)
        r_fine = ratio_on(refine_grid, fv_fine, mid, p, q)
        measured["ratio_refined"] = r_fine
        big, small = max(r_mid, r_fine), min(r_mid, r_fine)
        check(assertions, f"refinement stability at eps={mid}", big, "<=", 2.0 * small)
    return ExperimentReport(
        experiment="w2p_ratio_sweep",
        config={"p": p, "q": q, "spacing": grid.spacing, "domain": grid.domain.kind,
                "eps": eps_list, "small_p": small_p, "strong_eps": strong_eps},
        sweep=eps_list,
        measured=measured,
        slopes={"ratio_vs_eps": _loglog_slope(eps_list, ratios)},
        assertions=assertions,
        wall_time=time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# the geometric iteration of the proof
# ---------------------------------------------------------------------------


@dataclass
class GeometricIterationResult:
    r: float
    choice_ok: bool
    bounds: np.ndarray
    weighted_sum: float
    closed_form: Optional[float]
    violations: list
    passed: bool


def geometric_iteration_check(a1: float, b, eps0: float, M: float, q: float,
                              a_measured=None, tol: float = 1e-12) -> GeometricIterationResult:
    """Evaluate the decay recursion and its summability closed form.

    The recursion is bound_{k+1} = r*(bound_k + b_k) with r = sqrt(2*eps0),
    starting from bound_1 = a1. The weighted sum is sum_k M^(k*q) * bound_{k+1}
    over the supplied horizon; when M^q * r equals 1/2 (the choice the proof
    makes) the closed form 2*a1 + 2*r*sum_i M^(i*q) b_i is reported alongside.
    Measured sequences are checked step-wise against the recursion; the first
    failing index is flagged.
    """
    if not (0.0 < 2.0 * eps0 < 1.0):
        raise StabilityError(f"need 0 < 2*eps0 < 1, got eps0={eps0}")
    r = float(np.sqrt(2.0 * eps0))
    z = float(M) ** float(q)
    choice_ok = z * r <= 0.5 + tol
    b = np.asarray(list(b), dtype=float)
    K = b.size
    bounds = np.empty(K + 1)
    bounds[0] = float(a1)
    for k in range(K):
        bounds[k + 1] = r * (bounds[k] + b[k])
    weights = z ** np.arange(K + 1)
    weighted_sum = float(np.sum(weights * bounds))
    closed_form = None
    if abs(z * r - 0.5) <= 1e-9:
        closed_form = float(2.0 * a1 + 2.0 * r * np.sum(z ** np.arange(1, K + 1) * b))
    violations = []
    if a_measured is not None:
        a = np.asarray(list(a_measured), dtype=float)
        for k in range(min(a.size, K + 1) - 1):
            if a[k + 1] > r * (a[k] + b[k]) + tol:
                violations.append(k + 1)
    return GeometricIterationResult(
        r=r,
        choice_ok=choice_ok,
        bounds=bounds,
        weighted_sum=weighted_sum,
        closed_form=closed_form,
        violations=violations,
        passed=not violations,
    )
