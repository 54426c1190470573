"""Good sets of a solution relative to a convex potential.

A point belongs to the good set of opening M when the solution is trapped
between quasi-paraboloids of opening M built from the potential's
quasi-distance. This module computes minimal openings, the masks where the
quasi-distance dominates the Euclidean one, the set inclusion connecting
derivative level sets to those masks, power-law decay fits of the bad-set
measures, and good-set density inside sections.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import ndimage

from .domain_grid import ScalarField, fd_derivatives
from .ma_solve import PotentialField, _coerce_samples
from .section_geom import pair_gaps


class GoodSetError(ValueError):
    pass


_PLUS = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)


def tangent_trust_region(potential: PotentialField, margin: int = 3) -> np.ndarray:
    """Nodes at least margin cells (4-connected) away from imposed ring nodes.

    Solved potentials carry a gradient boundary layer: the imposition error
    at the ring turns into a tangent tilt of about two spacings at adjacent
    cells, decaying below a tenth of a spacing three cells out. Pair ratios
    against the squared distance feel that tilt at first order, so the
    quasi-Euclidean scans only trust tangents taken this far inside.
    """
    grid = potential.grid
    trust = grid.in_domain.copy()
    if margin > 0:
        imposed = grid.in_domain & ~grid.interior
        collar = ndimage.binary_dilation(imposed, structure=_PLUS, iterations=margin)
        trust &= ~collar
    return trust


def _solution_fields(potential: PotentialField, u):
    """Coerce u to (values, gradient, hessian) on the potential's grid."""
    grid = potential.grid
    vals = _coerce_samples(grid, u.values if isinstance(u, ScalarField) else u)
    vals = np.where(grid.in_domain, vals, np.nan)
    grad, hess = fd_derivatives(ScalarField(grid, vals))
    return vals, grad, hess


def _default_centers(potential: PotentialField, grad_exact: Optional[np.ndarray]) -> np.ndarray:
    """Interior centers, subsampled every other node per axis on large grids."""
    grid = potential.grid
    centers = grid.interior.copy()
    if potential.grad.quadratic_exact is not None:
        centers &= potential.grad.quadratic_exact
    if grad_exact is not None:
        centers &= grad_exact
    if centers.sum() > 10_000:
        keep = np.zeros(grid.shape, dtype=bool)
        keep[::2, ::2] = True
        centers &= keep
    return centers


def minimal_opening(potential: PotentialField, u, xbar, d_min: Optional[float] = None) -> float:
    """Least paraboloid opening trapping u around the node nearest xbar.

    Twice the supremum of |u(x) - u(xbar) - grad u(xbar).(x - xbar)| over the
    squared quasi-distance, taken over nodes with squared quasi-distance at
    least d_min (default twice the squared spacing, a guard against 0/0
    noise at near-coincident pairs).
    """
    grid = potential.grid
    idx = grid.nearest_node(xbar)
    if not grid.interior[idx]:
        raise GoodSetError("center must be an interior node")
    vals, grad, _ = _solution_fields(potential, u)
    field = minimal_opening_field(
        potential, u, centers=_single_center_mask(grid, idx), d_min=d_min,
        _pre=(vals, grad),
    )
    out = field[idx]
    if not np.isfinite(out):
        raise GoodSetError("grid too coarse around the center: all pairs fall below the distance floor")
    return float(out)


def _single_center_mask(grid, idx):
    m = np.zeros(grid.shape, dtype=bool)
    m[idx] = True
    return m


def minimal_opening_field(
    potential: PotentialField,
    u,
    centers: Optional[np.ndarray] = None,
    d_min: Optional[float] = None,
    chunk: int = 64,
    _pre=None,
) -> np.ndarray:
    """Minimal openings at many centers; NaN where no admissible pair exists."""
    grid = potential.grid
    if d_min is None:
        d_min = 2.0 * grid.spacing ** 2
    if _pre is None:
        vals, grad, _ = _solution_fields(potential, u)
    else:
        vals, grad = _pre
    if centers is None:
        centers = _default_centers(potential, grad.quadratic_exact)

    ni, nj = np.nonzero(grid.in_domain)
    out = np.full(grid.shape, np.nan)
    ci, cj = np.nonzero(centers)
    scans = zip(
        pair_gaps(potential, ci, cj, ni, nj, chunk),
        pair_gaps(potential, ci, cj, ni, nj, chunk, values=vals, grad=grad),
    )
    for (block, D), (_, U) in scans:
        ok = D >= d_min
        ratio = np.where(ok, np.abs(U) / np.where(ok, D, 1.0), -np.inf)
        best = ratio.max(axis=1)
        best = np.where(np.isfinite(best) & ok.any(axis=1), 2.0 * best, np.nan)
        out[ci[block], cj[block]] = best
    return out


# ---------------------------------------------------------------------------
# quasi-Euclidean masks
# ---------------------------------------------------------------------------


def _ratio_extrema(
    potential: PotentialField,
    neighborhood_radius: Optional[float],
    centers: np.ndarray,
    chunk: int = 64,
    pair_floor: Optional[float] = None,
    tangent_margin: int = 3,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-center min and max of squared quasi-distance over squared distance.

    Pairs with squared separation below pair_floor are skipped; the default
    floor of 1.5 squared spacings drops exactly the single-cell axis pairs,
    the same near-coincident guard idea the opening scan applies through its
    distance floor. At one-cell separation both the gap and the quadratic
    comparison sit at the size of the discretization error, so their ratio
    carries no information and, near the boundary, only the imposition error.
    Centers are restricted to the tangent trust region (see
    tangent_trust_region); pass tangent_margin=0 to scan everywhere.

    With a neighborhood radius each center scans only the in-domain nodes
    at grid offsets of at most ceil(radius) + 1 cells along each axis. That
    window is a superset of the admissible pairs; the float test on the
    squared separation (pair_floor <= e2 <= the squared radius) decides
    which pairs count, exactly as in the all-pairs scan. Without a radius
    every in-domain node is a target.
    """
    grid = potential.grid
    if pair_floor is None:
        pair_floor = 1.5 * grid.spacing ** 2
    centers = centers & tangent_trust_region(potential, tangent_margin)
    ci, cj = np.nonzero(centers)
    if neighborhood_radius is None:
        r2_cap = np.inf
        ti, tj = np.nonzero(grid.in_domain)
        inside = None
    else:
        r2_cap = (neighborhood_radius * grid.spacing) ** 2
        w = int(np.ceil(np.sqrt(r2_cap) / grid.spacing)) + 1
        di, dj = (a.ravel() for a in np.mgrid[-w : w + 1, -w : w + 1])
        ti = ci[:, None] + di
        tj = cj[:, None] + dj
        inside = (ti >= 0) & (ti < grid.shape[0]) & (tj >= 0) & (tj < grid.shape[1])
        ti = np.clip(ti, 0, grid.shape[0] - 1)
        tj = np.clip(tj, 0, grid.shape[1] - 1)
        inside &= grid.in_domain[ti, tj]

    lo = np.full(grid.shape, np.nan)
    hi = np.full(grid.shape, np.nan)
    for block, D in pair_gaps(potential, ci, cj, ti, tj, chunk):
        bi = ci[block, None]
        bj = cj[block, None]
        ri, rj = (ti, tj) if inside is None else (ti[block], tj[block])
        dx = grid.xs[ri] - grid.xs[bi]
        dy = grid.ys[rj] - grid.ys[bj]
        e2 = dx * dx + dy * dy
        ok = (e2 >= pair_floor) & (e2 <= r2_cap)
        if inside is not None:
            ok &= inside[block]
        ratio = D / np.where(ok, e2, 1.0)
        lo_s = np.where(ok, ratio, np.inf).min(axis=1)
        hi_s = np.where(ok, ratio, -np.inf).max(axis=1)
        any_ok = ok.any(axis=1)
        lo[ci[block], cj[block]] = np.where(any_ok, lo_s, np.nan)
        hi[ci[block], cj[block]] = np.where(any_ok, hi_s, np.nan)
    return lo, hi


def quasi_euclidean_ratio_min(
    potential: PotentialField,
    neighborhood_radius: Optional[float] = 5.0,
    centers: Optional[np.ndarray] = None,
    chunk: int = 64,
    tangent_margin: int = 3,
) -> np.ndarray:
    """Per-center minimum of squared quasi-distance over squared distance.

    neighborhood_radius counts in grid cells; None scans every node pair.
    Masks for any threshold follow by comparing this field against it.
    Centers outside the tangent trust region come back NaN (unmeasurable);
    see tangent_trust_region.
    """
    grid = potential.grid
    if centers is None:
        centers = grid.in_domain
    lo, _ = _ratio_extrema(
        potential, neighborhood_radius, centers, chunk=chunk, tangent_margin=tangent_margin
    )
    return lo


def local_quasi_euclidean_mask(
    potential: PotentialField,
    sigma: float,
    neighborhood_radius: float = 5.0,
    full_domain: bool = False,
    ratio_min: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Centers where the squared quasi-distance dominates sigma times squared distance.

    The local form tests node pairs within the neighborhood radius against
    sigma itself. With full_domain the scan covers every pair and tests
    against sigma / 2, the convention the global contact-set experiments use.
    """
    if sigma <= 0:
        raise GoodSetError(f"sigma must be positive, got {sigma}")
    if ratio_min is None:
        ratio_min = quasi_euclidean_ratio_min(
            potential, neighborhood_radius=None if full_domain else neighborhood_radius
        )
    threshold = 0.5 * sigma if full_domain else sigma
    return np.isfinite(ratio_min) & (ratio_min >= threshold)


def quasi_euclidean_constant(
    potential: PotentialField, neighborhood_radius: float = 5.0, n: int = 2
) -> float:
    """Instance constant bridging the lower and upper quasi-Euclidean bounds.

    At each center the scan records the smallest ratio sigma and the largest
    ratio U of squared quasi-distance to squared distance over nearby pairs.
    The bridge constant at the center is (U * sigma**(n-1))**(-1/2), the
    tightest c with U <= 1/(c**2 sigma**(n-1)); the instance constant is the
    minimum over centers. For the model quadratic both ratios are 1/2, giving
    exactly 2. The minimum is robust to the near-boundary cells where the
    one-cell ratios are noisy: noise lowers sigma and so raises the bridge
    value there, leaving the minimum to the clean bulk.
    """
    centers = _default_centers(potential, None)
    lo, hi = _ratio_extrema(potential, neighborhood_radius, centers)
    fin = np.isfinite(lo) & np.isfinite(hi) & (lo > 0)
    if not fin.any():
        raise GoodSetError("no centers with admissible pairs")
    c_sq = 1.0 / (hi[fin] * lo[fin] ** (n - 1))
    return float(np.sqrt(c_sq.min()))


# ---------------------------------------------------------------------------
# inclusion of derivative level sets in bad sets
# ---------------------------------------------------------------------------


@dataclass
class InclusionReport:
    beta: float
    m: float
    c_inst: float
    sigma_value: float
    n_centers: int
    n_level: int
    n_violations: int
    fraction: float
    passed: bool


def inclusion_check(
    potential: PotentialField,
    u,
    beta: float,
    m: float,
    c_inst: Optional[float] = None,
    neighborhood_radius: float = 5.0,
    centers: Optional[np.ndarray] = None,
    max_fraction: float = 0.005,
    n: int = 2,
) -> InclusionReport:
    """Verify that high second derivatives force exit from a quasi-Euclidean
    mask or from the good set.

    Tests, node-wise over the center subsample, that every center with some
    second derivative above beta**m lies outside the local quasi-Euclidean
    mask at threshold (c_inst * beta**((m-1)/2))**(-2/(n-1)) or outside the
    good set of opening beta. Violations are counted against a tolerance
    layer. n is the ambient dimension entering the threshold exponent; the
    runtime grid is planar so it defaults to 2.
    """
    if m <= 1 or beta <= 0:
        raise GoodSetError("inclusion check needs m > 1 and beta > 0")
    grid = potential.grid
    vals, grad, hess = _solution_fields(potential, u)
    if centers is None:
        centers = _default_centers(potential, grad.quadratic_exact)
    if c_inst is None:
        c_inst = quasi_euclidean_constant(potential, neighborhood_radius)
    sigma = (c_inst * beta ** ((m - 1.0) / 2.0)) ** (-2.0 / (n - 1))

    openings = minimal_opening_field(potential, u, centers=centers, _pre=(vals, grad))
    used = np.isfinite(openings)
    good = used & (openings <= beta)
    rm = quasi_euclidean_ratio_min(potential, neighborhood_radius=neighborhood_radius, centers=centers)
    quasi = np.isfinite(rm) & (rm >= sigma)

    deriv = np.maximum(np.abs(hess.xx), np.maximum(np.abs(hess.yy), np.abs(hess.xy)))
    level = used & (deriv > beta ** m)
    violations = level & quasi & good
    n_centers = int(used.sum())
    n_level = int(level.sum())
    n_violations = int(violations.sum())
    fraction = n_violations / n_centers if n_centers else 0.0
    return InclusionReport(
        beta=float(beta),
        m=float(m),
        c_inst=float(c_inst),
        sigma_value=float(sigma),
        n_centers=n_centers,
        n_level=n_level,
        n_violations=n_violations,
        fraction=fraction,
        passed=fraction <= max_fraction,
    )


# ---------------------------------------------------------------------------
# decay fits and distribution functions
# ---------------------------------------------------------------------------


@dataclass
class DecayFit:
    tau: float
    C: float
    residual: float
    tau_band: float
    n_used: int


def decay_fit(samples, min_measure: float = 0.0) -> DecayFit:
    """Weighted log-log fit of measure against level: measure ~ C * level**(-tau).

    Weights grow with the measure, so well-resolved levels dominate. Needs at
    least five samples above the measure floor.
    """
    pts = [(float(b), float(m)) for b, m in samples if m > min_measure and b > 0]
    if len(pts) < 5:
        raise GoodSetError(f"decay fit needs at least 5 samples above the measure floor, got {len(pts)}")
    beta = np.array([p[0] for p in pts])
    meas = np.array([p[1] for p in pts])
    w = np.sqrt(meas / meas.max())
    A = np.stack([-np.log(beta), np.ones_like(beta)], axis=1) * w[:, None]
    y = np.log(meas) * w
    coef, _, _, _ = np.linalg.lstsq(A, y, rcond=None)
    fit = A @ coef
    dof = max(len(pts) - 2, 1)
    rms = float(np.sqrt(np.sum((y - fit) ** 2) / dof))
    cov = np.linalg.inv(A.T @ A) * rms ** 2
    band = 1.96 * float(np.sqrt(cov[0, 0]))
    return DecayFit(tau=float(coef[0]), C=float(np.exp(coef[1])), residual=rms, tau_band=band, n_used=len(pts))


@dataclass
class GoodSetResult:
    centers: np.ndarray
    openings: np.ndarray
    good_masks: dict
    quasi_masks: dict
    beta_grid: np.ndarray
    F: np.ndarray
    F1: np.ndarray
    F2: np.ndarray
    fits: dict
    c_inst: float
    m: float
    scale: float


def good_set_survey(
    potential: PotentialField,
    u,
    beta_grid,
    m: float = 2.0,
    M_grid=(),
    sigma_grid=(),
    c_inst: Optional[float] = None,
    neighborhood_radius: float = 5.0,
    centers: Optional[np.ndarray] = None,
    n: int = 2,
) -> GoodSetResult:
    """Distribution functions of the bad sets over a level grid.

    F counts centers whose largest second derivative exceeds level**m, F1
    those outside the local quasi-Euclidean mask at the level-dependent
    threshold, F2 those outside the good set of opening equal to the level.
    All three are scaled to measures through the center subsample density.
    F1 is normalized over the centers where the ratio scan is measurable
    (the tangent trust region), since an unmeasurable tangent certifies
    neither membership nor exit.
    """
    grid = potential.grid
    vals, grad, hess = _solution_fields(potential, u)
    if centers is None:
        centers = _default_centers(potential, grad.quadratic_exact)
    if c_inst is None:
        c_inst = quasi_euclidean_constant(potential, neighborhood_radius)
    openings = minimal_opening_field(potential, u, centers=centers, _pre=(vals, grad))
    used = np.isfinite(openings)
    rm = quasi_euclidean_ratio_min(potential, neighborhood_radius=neighborhood_radius, centers=centers)
    deriv = np.maximum(np.abs(hess.xx), np.maximum(np.abs(hess.yy), np.abs(hess.xy)))

    n_used = int(used.sum())
    scale = grid.cell_area * grid.interior.sum() / n_used if n_used else np.nan
    meas = used & np.isfinite(rm)
    n_meas = int(meas.sum())
    scale1 = grid.cell_area * grid.interior.sum() / n_meas if n_meas else np.nan
    beta_grid = np.asarray(list(beta_grid), dtype=float)
    F = np.zeros_like(beta_grid)
    F1 = np.zeros_like(beta_grid)
    F2 = np.zeros_like(beta_grid)
    for k, b in enumerate(beta_grid):
        sigma = (c_inst * b ** ((m - 1.0) / 2.0)) ** (-2.0 / (n - 1))
        F[k] = (used & (deriv > b ** m)).sum() * scale
        F1[k] = (meas & (rm < sigma)).sum() * scale1
        F2[k] = (used & (openings > b)).sum() * scale

    good_masks = {float(M): (used & (openings <= M)) for M in M_grid}
    quasi_masks = {
        float(s): (used & np.isfinite(rm) & (rm >= s)) for s in sigma_grid
    }
    fits = {}
    try:
        fits["F2"] = decay_fit(zip(beta_grid, F2), min_measure=5.0 * grid.cell_area)
    except GoodSetError:
        pass
    try:
        fits["F1"] = decay_fit(zip(beta_grid, F1), min_measure=5.0 * grid.cell_area)
    except GoodSetError:
        pass
    return GoodSetResult(
        centers=centers,
        openings=openings,
        good_masks=good_masks,
        quasi_masks=quasi_masks,
        beta_grid=beta_grid,
        F=F,
        F1=F1,
        F2=F2,
        fits=fits,
        c_inst=float(c_inst),
        m=float(m),
        scale=float(scale),
    )


def density_in_section(potential: PotentialField, u, section, N: float) -> float:
    """Fraction of section cells whose minimal opening is at most N over the height.

    Cells without a grid gradient of u count as outside the good set, so the
    denominator is the full cell count of the section.
    """
    if N <= 0:
        raise GoodSetError(f"N must be positive, got {N}")
    openings = minimal_opening_field(potential, u, centers=section.cells)
    inside = openings[section.cells]
    if inside.size == 0:
        raise GoodSetError("section has no cells")
    good = np.isfinite(inside) & (inside <= N / section.height)
    return float(good.sum() / inside.size)
