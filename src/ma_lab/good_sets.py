"""Good sets of a solution relative to a convex potential.

A point belongs to the good set of opening M when the solution is trapped
between quasi-paraboloids of opening M built from the potential's
quasi-distance. This module computes minimal openings, the ratio of the
quasi-distance to the Euclidean one, and the distribution functions of the
bad sets with their power-law decay fits.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import ndimage

from .domain_grid import LabError, ScalarField, coerce_samples, fd_derivatives
from .ma_solve import PotentialField
from .section_geom import pair_gaps


class GoodSetError(LabError, ValueError):
    pass


_PLUS = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)
# the ambient dimension n of the paper's exponents; the grids are planar
_DIM = 2
# centres per pair_gaps block in the windowed quasi-Euclidean ratio scan; it
# sets its peak memory
_CHUNK = 64
# centres per pair_gaps block in the all-pairs scans (the openings, and the
# ratio extrema without a radius), which work in place in buffers of one row
# per centre over every in-domain node; 8 was the fastest of 4, 8, 12, 16, 32
# and 64 for the openings on the eps = 0.2 disc at 1/64 (0.47-0.50 s against
# 0.84 s at 64); against 64 it took the ratio scan over every in-domain
# centre from 0.125 to 0.091 s on the eps = 0.2 square at 1/32 and from 1.25
# to 0.94 s on the disc at 1/64 (2-core Xeon)
_ALL_PAIRS_CHUNK = 8
# the quasi-Euclidean scans' neighbourhood radius, in grid cells
_RADIUS = 5.0
# width of the tangent trust region, in cells (4-connected) from imposed ring
# nodes; 0 trusts every in-domain node
_TRUST_MARGIN = 3
# the opening scan's floor on the squared quasi-distance, in squared spacings
_OPENING_FLOOR = 2.0
# the good-set openings M whose masks good_set_survey returns
_M_GRID = (2.0, 4.0, 8.0)


def tangent_trust_region(potential: PotentialField) -> np.ndarray:
    """Nodes at least _TRUST_MARGIN cells (4-connected) away from imposed ring nodes.

    Solved potentials carry a gradient boundary layer: the imposition error
    at the ring turns into a tangent tilt of about two spacings at adjacent
    cells, decaying below a tenth of a spacing three cells out. Pair ratios
    against the squared distance feel that tilt at first order, so the
    quasi-Euclidean scans only trust tangents taken this far inside.
    """
    grid = potential.grid
    trust = grid.in_domain.copy()
    if _TRUST_MARGIN > 0:
        collar = ndimage.binary_dilation(grid.boundary_adjacent, structure=_PLUS, iterations=_TRUST_MARGIN)
        trust &= ~collar
    return trust


def solution_fields(potential: PotentialField, u):
    """Coerce u to (values, gradient, hessian) on the potential's grid.

    The opening scan and the survey read these; a caller differentiates u
    once and passes the result to both.
    """
    grid = potential.grid
    vals = coerce_samples(grid, u.values if isinstance(u, ScalarField) else u)
    vals = np.where(grid.in_domain, vals, np.nan)
    grad, hess = fd_derivatives(ScalarField(grid, vals))
    return vals, grad, hess


def _default_centers(potential: PotentialField) -> np.ndarray:
    """Interior centers, subsampled every other node per axis on large grids.

    Every interior node has central stencils, so its derivatives are exact
    on quadratics for any field on the grid.
    """
    grid = potential.grid
    centers = grid.interior.copy()
    if centers.sum() > 10_000:
        keep = np.zeros(grid.shape, dtype=bool)
        keep[::2, ::2] = True
        centers &= keep
    return centers


def minimal_opening_field(potential: PotentialField, solution, centers: np.ndarray) -> np.ndarray:
    """Least paraboloid openings trapping u around each center node.

    solution is solution_fields(potential, u); the survey's centers are
    _default_centers(potential). At a center xbar the opening is twice the
    supremum of |u(x) - u(xbar) - grad u(xbar).(x - xbar)| over the squared
    quasi-distance, taken over in-domain nodes with squared quasi-distance at
    least d_min = _OPENING_FLOOR squared spacings, a guard against 0/0 noise
    at near-coincident pairs. NaN where no admissible pair exists and off
    the centers.
    """
    grid = potential.grid
    d_min = _OPENING_FLOOR * grid.spacing ** 2
    vals, grad, _ = solution

    ni, nj = np.nonzero(grid.in_domain)
    out = np.full(grid.shape, np.nan)
    ci, cj = np.nonzero(centers)
    scans = zip(
        pair_gaps(potential, ci, cj, ni, nj, _ALL_PAIRS_CHUNK),
        pair_gaps(potential, ci, cj, ni, nj, _ALL_PAIRS_CHUNK, values=vals, grad=grad),
    )
    ok_buf = np.empty((min(_ALL_PAIRS_CHUNK, ci.size), ni.size), dtype=bool)
    for (block, D), (_, U) in scans:
        # |U| / D into U's buffer where D >= d_min, -inf elsewhere
        ok = np.greater_equal(D, d_min, out=ok_buf[: D.shape[0]])
        any_ok = ok.any(axis=1)
        np.abs(U, out=U)
        np.divide(U, D, out=U, where=ok)
        np.copyto(U, -np.inf, where=np.logical_not(ok, out=ok))
        best = U.max(axis=1)
        out[ci[block], cj[block]] = np.where(np.isfinite(best) & any_ok, 2.0 * best, np.nan)
    return out


# ---------------------------------------------------------------------------
# quasi-Euclidean masks
# ---------------------------------------------------------------------------


def _window_gaps(potential: PotentialField, ci, cj, di, dj):
    """pair_gaps from each centre to its window of grid offsets (di, dj), _CHUNK centres at a time.

    Yields (block, ti, tj, inside, D) for consecutive blocks of the centres
    (ci, cj): the block's target rows, one per centre, which of those
    targets are in-domain grid nodes, and its gaps. Offsets that leave the
    grid are clipped to its edge and marked outside. The target arrays are
    built per block, so the scan's memory does not grow with the number of
    centres.
    """
    grid = potential.grid
    for s in range(0, ci.size, _CHUNK):
        block = slice(s, s + _CHUNK)
        ti = ci[block, None] + di
        tj = cj[block, None] + dj
        inside = (ti >= 0) & (ti < grid.shape[0]) & (tj >= 0) & (tj < grid.shape[1])
        ti = np.clip(ti, 0, grid.shape[0] - 1)
        tj = np.clip(tj, 0, grid.shape[1] - 1)
        inside &= grid.in_domain[ti, tj]
        for _, D in pair_gaps(potential, ci[block], cj[block], ti, tj, _CHUNK):
            yield block, ti, tj, inside, D


def _ratio_blocks(potential: PotentialField, neighborhood_radius: Optional[float], ci, cj):
    """Squared quasi-distance over squared distance, one block of centres at a time.

    Yields (block, R, off, any_ok) for consecutive blocks of the centres
    (ci, cj): R holds D / e2 on the admissible pairs and +inf elsewhere, off
    marks the pairs that are not admissible and any_ok the centres that have
    an admissible pair. R and off live in buffers that the next block
    overwrites.

    Pairs with squared separation below the floor of 1.5 squared spacings
    are skipped. That floor drops exactly the single-cell axis pairs,
    the same near-coincident guard idea the opening scan applies through its
    distance floor. At one-cell separation both the gap and the quadratic
    comparison sit at the size of the discretization error, so their ratio
    carries no information and, near the boundary, only the imposition error.

    With a neighborhood radius each center scans only the in-domain nodes
    at grid offsets of length at most ceil(radius) + 1 cells (_window_gaps).
    The window is round because the corners of the square of that
    half-width (a third of its offsets at radius 5) hold no admissible pair
    yet cost as much to evaluate. It is a superset of the admissible pairs;
    the float test on the squared separation (floor <= e2 <= the squared
    radius) decides which pairs count, exactly as in the all-pairs scan.
    Without a radius every in-domain node is a target. Either way a pair
    that counts gets bit for bit the same ratio, so the window's admissible
    ratios are a subset of the all-pairs ones.

    Both paths evaluate each block of centres (_CHUNK of them with a radius,
    _ALL_PAIRS_CHUNK without) in three buffers sized once: e2, the squared
    separations (one more for the y part), and ok, the admissible pairs. The
    expressions are those of the allocating scan kept in
    tests/test_good_sets.py, so the extrema the callers reduce from R are
    bitwise equal to its own.
    """
    grid = potential.grid
    pair_floor = 1.5 * grid.spacing ** 2
    if neighborhood_radius is None:
        ti, tj = np.nonzero(grid.in_domain)
        chunk, width = _ALL_PAIRS_CHUNK, ti.size
        gaps = ((block, ti, tj, None, D) for block, D in pair_gaps(potential, ci, cj, ti, tj, chunk))
    else:
        r2_cap = (neighborhood_radius * grid.spacing) ** 2
        w = int(np.ceil(np.sqrt(r2_cap) / grid.spacing)) + 1
        di, dj = (a.ravel() for a in np.mgrid[-w : w + 1, -w : w + 1])
        near = di * di + dj * dj <= w * w
        di, dj = di[near], dj[near]
        chunk, width = _CHUNK, di.size
        gaps = _window_gaps(potential, ci, cj, di, dj)

    shape = (min(chunk, ci.size), width)
    e2_buf, dy_buf, ok_buf = np.empty(shape), np.empty(shape), np.empty(shape, dtype=bool)
    for block, ri, rj, inside, D in gaps:
        bi = ci[block, None]
        bj = cj[block, None]
        e2, dy, ok = (b[: D.shape[0]] for b in (e2_buf, dy_buf, ok_buf))
        np.subtract(grid.xs[ri], grid.xs[bi], out=e2)
        e2 *= e2
        np.subtract(grid.ys[rj], grid.ys[bj], out=dy)
        dy *= dy
        e2 += dy
        np.greater_equal(e2, pair_floor, out=ok)
        if inside is not None:
            ok &= e2 <= r2_cap
            ok &= inside
        any_ok = ok.any(axis=1)
        # D / e2 into D's buffer on the admissible pairs, +inf elsewhere
        np.divide(D, e2, out=D, where=ok)
        off = np.logical_not(ok, out=ok)
        np.copyto(D, np.inf, where=off)
        yield block, D, off, any_ok


def _ratio_extrema(potential: PotentialField, neighborhood_radius: Optional[float],
                   centers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-center min and max of squared quasi-distance over squared distance.

    The pairs, the window and the buffers are those of _ratio_blocks; the
    maximum reuses R, taking -inf off the admissible pairs. Centers are
    restricted to the tangent trust region (see tangent_trust_region). NaN
    where no admissible pair exists and off the centers.
    """
    grid = potential.grid
    ci, cj = np.nonzero(centers & tangent_trust_region(potential))
    lo = np.full(grid.shape, np.nan)
    hi = np.full(grid.shape, np.nan)
    for block, R, off, any_ok in _ratio_blocks(potential, neighborhood_radius, ci, cj):
        lo[ci[block], cj[block]] = np.where(any_ok, R.min(axis=1), np.nan)
        np.copyto(R, -np.inf, where=off)
        hi[ci[block], cj[block]] = np.where(any_ok, R.max(axis=1), np.nan)
    return lo, hi


def _ratio_min(potential: PotentialField, neighborhood_radius: Optional[float], ci, cj) -> np.ndarray:
    """Per-centre ratio minimum of _ratio_blocks, one entry per centre (ci, cj); NaN without an admissible pair."""
    lo = np.full(ci.size, np.nan)
    for block, R, _, any_ok in _ratio_blocks(potential, neighborhood_radius, ci, cj):
        lo[block] = np.where(any_ok, R.min(axis=1), np.nan)
    return lo


def quasi_euclidean_ratio_min(potential: PotentialField, centers: np.ndarray, threshold: float) -> np.ndarray:
    """Per-center minimum of squared quasi-distance over squared distance, as far as a threshold needs it.

    The answer a caller reads is whether the all-pairs minimum lies below
    threshold. Each center is settled by the smallest scan that gives it:
    - the window pass scans the pairs within _RADIUS cells. Its admissible
      pairs are a subset of the all-pairs ones, with bit for bit the same
      ratios (_ratio_blocks), so a window minimum below threshold means
      the all-pairs minimum is below it too;
    - the all-pairs pass scans every in-domain node, and only for the
      centers the window left open: minimum at or above threshold, or no
      admissible pair in the window.
    So at or above threshold the value is the exact all-pairs minimum; below
    it, an admissible ratio below threshold (the window minimum where the
    window settled the center). Both masks isfinite(rm) and rm < threshold
    equal those of the all-pairs minimum. Centers with no admissible pair,
    and those outside the tangent trust region, come back NaN
    (unmeasurable); see tangent_trust_region.
    """
    grid = potential.grid
    ci, cj = np.nonzero(centers & tangent_trust_region(potential))
    lo = _ratio_min(potential, _RADIUS, ci, cj)
    left_open = ~(lo < threshold)
    lo[left_open] = _ratio_min(potential, None, ci[left_open], cj[left_open])
    out = np.full(grid.shape, np.nan)
    out[ci, cj] = lo
    return out


def quasi_euclidean_constant(lo: np.ndarray, hi: np.ndarray) -> float:
    """Instance constant bridging the lower and upper quasi-Euclidean bounds.

    lo and hi are the per-center smallest ratio sigma and largest ratio U of
    squared quasi-distance to squared distance (_ratio_extrema); n is the
    dimension _DIM. The bridge constant at a center is
    (U * sigma**(n-1))**(-1/2), the tightest c with U <= 1/(c**2 sigma**(n-1));
    the instance constant is the minimum over centers. For the model
    quadratic both ratios are 1/2, giving exactly 2. The minimum is robust to
    the near-boundary cells where the one-cell ratios are noisy: noise lowers
    sigma and so raises the bridge value there, leaving the minimum to the
    clean bulk.
    """
    fin = np.isfinite(lo) & np.isfinite(hi) & (lo > 0)
    if not fin.any():
        raise GoodSetError("no centers with admissible pairs")
    c_sq = 1.0 / (hi[fin] * lo[fin] ** (_DIM - 1))
    return float(np.sqrt(c_sq.min()))


# ---------------------------------------------------------------------------
# decay fits and distribution functions
# ---------------------------------------------------------------------------


@dataclass
class DecayFit:
    tau: float
    C: float
    residual: float


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
    return DecayFit(tau=float(coef[0]), C=float(np.exp(coef[1])), residual=rms)


@dataclass
class GoodSetResult:
    good_masks: dict
    F: np.ndarray
    F1: np.ndarray
    F2: np.ndarray
    fits: dict
    c_inst: float


def good_set_survey(potential: PotentialField, u, beta_grid, m: float = 2.0) -> GoodSetResult:
    """Distribution functions of the bad sets over a level grid.

    F counts centers whose largest second derivative exceeds level**m, F1
    those outside the local quasi-Euclidean mask at the level-dependent
    threshold, F2 those outside the good set of opening equal to the level.
    At level b the threshold on the ratio is
    sigma(b) = (c_inst * b**((m-1)/2))**(-2/(n-1)), with n the dimension
    _DIM. One ratio scan over pairs within _RADIUS cells of each center
    (_ratio_extrema) gives both the ratio minimum that F1 thresholds and the
    instance constant c_inst (quasi_euclidean_constant). All three are
    scaled to measures through the center subsample density.
    F1 is normalized over the centers where the ratio scan is measurable
    (the tangent trust region), since an unmeasurable tangent certifies
    neither membership nor exit. good_masks holds the good set of each
    opening in _M_GRID, keyed by that opening. F, F1 and F2 hold one entry
    per level of beta_grid, in its order.
    """
    grid = potential.grid
    solution = solution_fields(potential, u)
    hess = solution[2]
    centers = _default_centers(potential)
    rm, hi = _ratio_extrema(potential, _RADIUS, centers)
    c_inst = quasi_euclidean_constant(rm, hi)
    openings = minimal_opening_field(potential, solution, centers)
    used = np.isfinite(openings)
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
        sigma = (c_inst * b ** ((m - 1.0) / 2.0)) ** (-2.0 / (_DIM - 1))
        F[k] = (used & (deriv > b ** m)).sum() * scale
        F1[k] = (meas & (rm < sigma)).sum() * scale1
        F2[k] = (used & (openings > b)).sum() * scale

    good_masks = {M: (used & (openings <= M)) for M in _M_GRID}
    fits = {}
    for name, dist in (("F2", F2), ("F1", F1)):
        try:
            fits[name] = decay_fit(zip(beta_grid, dist), min_measure=5.0 * grid.cell_area)
        except GoodSetError:
            pass
    return GoodSetResult(
        good_masks=good_masks,
        F=F,
        F1=F1,
        F2=F2,
        fits=fits,
        c_inst=float(c_inst),
    )

