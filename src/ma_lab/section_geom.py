"""Section geometry of a convex potential.

Sections are connected sublevel sets of the potential below a lifted tangent
plane. This module computes the tangent gaps (quasi-distances) that generate
them, extracts sections by flood fill, measures maximal interior heights, checks quadratic
separation of the boundary data, fits the boundary-localization shear, and
classifies sections as interior or boundary dominated.

Each node-centred object has one builder: the tangent gaps of nodes come
from pair_gaps, the section of a node at a height from section_cells, and
the gap of a boundary point from boundary_frame and BoundaryFrame.tangent_gap.
sublevel_cells floods a gap field the caller already holds. A Section is
flooded once and then shared: engulfing_constant and volume_scaling measure
the cells of the sections they are given and flood nothing themselves.
"""

import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import ndimage

from .domain_grid import FieldError, LabError
from .ma_solve import PotentialField


class SectionError(LabError, ValueError):
    pass


_CROSS = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)
# interior_heights: centres per pair_gaps block
_HEIGHTS_CHUNK = 2048
# engulfing_constant: evenly spread directions of the extreme member cells,
# and the random members drawn per section from one generator of this seed
_N_DIRECTIONS = 16
_N_RANDOM = 6
_SEED = 0
# volume_scaling drops sections with fewer cells
_MIN_CELLS = 20
# measure_c_cap: the cap's fraction of the largest maximal interior height
_C_CAP_FACTOR = 0.05
# quadratic_separation_check: pair separation floor in spacings, passing
# floor on the ratios, and the most band nodes it pairs
_SEP_MIN_FACTOR = 8.0
_SEP_RHO_FLOOR = 0.01
_SEP_MAX_BAND_NODES = 1200


# ---------------------------------------------------------------------------
# pointwise evaluation helpers
# ---------------------------------------------------------------------------


def phi_extended(potential: PotentialField, pts: np.ndarray) -> np.ndarray:
    """Potential values at arbitrary in-domain points.

    Bilinear interpolation where the surrounding cell is fully in-domain,
    second-order Taylor extension from the nearest in-domain node otherwise.
    Points outside the closed domain come back NaN.
    """
    grid = potential.grid
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    vals = grid.interp(potential.phi.values, pts)
    inside = grid.domain.contains(pts)
    vals = np.where(inside, vals, np.nan)
    bad = inside & ~np.isfinite(vals)
    for k in np.nonzero(bad)[0]:
        idx = grid.nearest_in_domain(pts[k])
        if idx is None:
            continue
        i, j = idx
        dx = pts[k, 0] - grid.xs[i]
        dy = pts[k, 1] - grid.ys[j]
        g = potential.grad
        h = potential.hess
        vals[k] = (
            potential.phi.values[i, j]
            + g.gx[i, j] * dx
            + g.gy[i, j] * dy
            + 0.5 * (h.xx[i, j] * dx * dx + 2 * h.xy[i, j] * dx * dy + h.yy[i, j] * dy * dy)
        )
    return vals


def gradient_at(potential: PotentialField, p: np.ndarray) -> np.ndarray:
    """Gradient estimate at an arbitrary point by a Taylor step from the nearest node."""
    idx = potential.grid.nearest_in_domain(p)
    if idx is None:
        raise SectionError(f"no in-domain node near point {tuple(p)}")
    i, j = idx
    dx = p[0] - potential.grid.xs[i]
    dy = p[1] - potential.grid.ys[j]
    h = potential.hess
    gx = potential.grad.gx[i, j] + h.xx[i, j] * dx + h.xy[i, j] * dy
    gy = potential.grad.gy[i, j] + h.xy[i, j] * dx + h.yy[i, j] * dy
    return np.array([gx, gy])


# ---------------------------------------------------------------------------
# sections
# ---------------------------------------------------------------------------


@dataclass
class Section:
    """A connected tangent-sublevel set of the potential."""

    height: float
    cells: np.ndarray
    measure: float
    is_interior: bool


def _component(mask: np.ndarray, seed: tuple) -> np.ndarray:
    labels, n = ndimage.label(mask, structure=_CROSS)
    lab = labels[seed]
    if lab == 0:
        return np.zeros_like(mask)
    return labels == lab


def sublevel_cells(potential: PotentialField, gap: np.ndarray, t: float, seed: tuple) -> np.ndarray:
    """Flood-fill component of the in-domain nodes with gap < t that holds seed (empty if seed is not below t)."""
    with np.errstate(invalid="ignore"):
        mask = potential.grid.in_domain & (gap < t)
    if not mask[seed]:
        return np.zeros_like(mask)
    return _component(mask, seed)


def section(potential: PotentialField, x, t: float) -> Section:
    """Section of the potential centered at the node nearest x with height t.

    The cell set is the flood-fill component of the strict sublevel set that
    contains the center. is_interior reports whether the doubled-height
    section stays clear of the boundary band. One section_cells call floods
    both heights.
    """
    if not t > 0:
        raise SectionError("section height must be positive")
    grid = potential.grid
    i, j = grid.nearest_node(x)
    if not grid.in_domain[i, j]:
        raise SectionError("section center must be an in-domain node")
    flat, flat2 = section_cells(potential, [i, i], [j, j], [t, 2.0 * t])
    cells = np.zeros(grid.shape, dtype=bool)
    cells.flat[flat] = True
    return Section(
        height=float(t),
        cells=cells,
        measure=flat.size * grid.cell_area,
        is_interior=not grid.boundary_adjacent.flat[flat2].any(),
    )


def maximal_height(potential: PotentialField, x) -> tuple[float, np.ndarray]:
    """Largest height whose section around x stays clear of the boundary band.

    The flood-filled section {gap < t} changes only where t passes one of the
    centre's in-domain tangent gaps, so the answer is one of those gaps: the
    bottleneck (minimax-path) value from the centre to the band (Pollack
    1960). It is attained, because sections are strict sublevel sets. A
    binary search over the sorted distinct gaps, with inf appended, finds the
    largest level whose section misses the band, one flood fill per probe.
    Returns the height and a witness node where the section at the next level
    meets the band.
    """
    grid = potential.grid
    idx = grid.nearest_node(x)
    if not grid.interior[idx]:
        raise SectionError("maximal height requires an interior node")
    ti, tj = np.indices(grid.shape).reshape(2, -1)
    _, D = next(pair_gaps(potential, [idx[0]], [idx[1]], ti, tj, 1))
    gap = D.reshape(grid.shape)
    ring = grid.boundary_adjacent
    levels = np.append(np.unique(gap[grid.in_domain]), np.inf)
    # the section at levels[lo] misses the band (at the smallest gap it is
    # empty); the one at levels[hi] meets it in the nodes of band, or hi is
    # past the end and band is the whole ring
    lo, hi = 0, levels.size
    band = ring
    while hi - lo > 1:
        mid = (lo + hi) // 2
        hit = sublevel_cells(potential, gap, levels[mid], idx) & ring
        if hit.any():
            hi, band = mid, hit
        else:
            lo = mid
    bi, bj = np.nonzero(band)
    k = np.argmin(gap[bi, bj])
    witness = np.array([grid.xs[bi[k]], grid.ys[bj[k]]])
    return float(levels[lo]), witness


def pair_gaps(potential: PotentialField, ci, cj, ti, tj, chunk: int, values=None, grad=None):
    """Tangent gaps from centre nodes to target nodes, one block of centres at a time.

    Yields (block, D) for consecutive blocks of at most chunk centres, where
    block is a slice into ci, cj and

        D[k, m] = v(t) - v(c) - gx(c) * (x_t - x_c) - gy(c) * (y_t - y_c)

    for the centre c = (ci, cj)[block][k] and its m-th target t. v and
    (gx, gy) are the potential and its gradient unless values and grad (an
    object with gx and gy arrays) are given. Targets are either one row of
    node indices shared by every centre (1-D ti, tj) or one row per centre
    (2-D, first axis along ci). The expression and its evaluation order are
    fixed, so every scan built on this helper sees bit-for-bit the same
    gaps. D lives in a buffer that the next block overwrites.
    """
    grid = potential.grid
    v = potential.phi.values if values is None else values
    g = potential.grad if grad is None else grad
    ci, cj, ti, tj = (np.asarray(a) for a in (ci, cj, ti, tj))
    shared = ti.ndim == 1
    if shared:
        # the one target row, gathered once for every block
        vt, xt, yt = v[ti, tj], grid.xs[ti], grid.ys[tj]
    bufs = np.empty((2, min(chunk, ci.size), ti.shape[-1]))
    for s in range(0, ci.size, chunk):
        block = slice(s, s + chunk)
        bi = ci[block, None]
        bj = cj[block, None]
        if not shared:
            ri, rj = ti[block], tj[block]
            vt, xt, yt = v[ri, rj], grid.xs[ri], grid.ys[rj]
        D, step = (b[: bi.shape[0]] for b in bufs)
        np.subtract(vt, v[bi, bj], out=D)
        np.subtract(xt, grid.xs[bi], out=step)
        step *= g.gx[bi, bj]
        D -= step
        np.subtract(yt, grid.ys[bj], out=step)
        step *= g.gy[bi, bj]
        D -= step
        yield block, D


@dataclass
class SeparationReport:
    """Quadratic separation ratios r over boundary-band node pairs."""

    r_min: float
    r_max: float
    rho0: float
    passed: bool
    flat_boundary_warning: bool


def quadratic_separation_check(potential: PotentialField) -> SeparationReport:
    """Separation ratios r = [phi(x) - phi(x0) - grad phi(x0).(x - x0)] / |x - x0|^2
    over pairs of boundary-band nodes.

    The boundary-adjacent nodes stand in for boundary points, at most
    _SEP_MAX_BAND_NODES of them, evenly strided; their one-sided stencils
    are exact on quadratics, so model potentials give exact ratios. Pairs
    closer than _SEP_MIN_FACTOR * spacing are skipped (the ratio there is
    dominated by stencil noise). Passing requires min r >= _SEP_RHO_FLOOR
    with a finite max; a flat-sided domain yields a warning, not a failure
    to run.
    """
    grid = potential.grid
    flat = grid.domain.uniform_convexity_modulus == 0.0
    if flat:
        warnings.warn(
            "domain has flat boundary pieces; quadratic separation cannot hold "
            "uniformly there, running the check anyway", UserWarning)
    band = grid.boundary_adjacent & potential.grad.quadratic_exact
    ri, rj = np.nonzero(band)
    if len(ri) > _SEP_MAX_BAND_NODES:
        stride = int(np.ceil(len(ri) / _SEP_MAX_BAND_NODES))
        ri, rj = ri[::stride], rj[::stride]
    _, gap = next(pair_gaps(potential, ri, rj, ri, rj, ri.size))
    dx = grid.xs[ri][None, :] - grid.xs[ri][:, None]
    dy = grid.ys[rj][None, :] - grid.ys[rj][:, None]
    d2 = dx * dx + dy * dy
    min_sep = _SEP_MIN_FACTOR * grid.spacing
    sel = d2 >= min_sep * min_sep
    if not np.any(sel):
        raise FieldError("no boundary pairs at the requested separation")
    r = gap[sel] / d2[sel]
    r_min = float(np.min(r))
    r_max = float(np.max(r))
    rho0 = min(r_min, 1.0 / r_max) if r_max > 0 else r_min
    passed = bool(np.isfinite(r_max) and r_min >= _SEP_RHO_FLOOR)
    return SeparationReport(
        r_min=r_min,
        r_max=r_max,
        rho0=rho0,
        passed=passed,
        flat_boundary_warning=flat,
    )


# section_cells: elements per block of patches (about 2 MB of gaps, 1 MB of
# labels) and the first patch half-width
_FLOOD_BLOCK = 250_000
_FLOOD_W0 = 8
# stacks of patches are labelled in one call; the empty outer planes keep
# the components of different centres apart
_PLANE_CROSS = np.zeros((3, 3, 3), dtype=bool)
_PLANE_CROSS[1] = _CROSS


def section_cells(potential: PotentialField, ci, cj, heights) -> list[np.ndarray]:
    """Flat grid indices of the section of each centre (ci[k], cj[k]) at heights[k].

    The k-th entry is the 4-connected component of the in-domain nodes with
    gap_k < heights[k] that holds the centre, in row-major order, and is
    empty when the centre is not below its height: the same cells as
    sublevel_cells(potential, gap, heights[k], (ci[k], cj[k])) with gap the
    centre's pair_gaps over every grid node. The gaps are evaluated with the
    expression and order of pair_gaps, so they are bitwise the dense ones.

    The floods are exact in grown windows. Each centre's component is
    labelled inside a square patch of half-width _FLOOD_W0 around it, shifted
    to lie in the grid; a component that reaches a patch edge whose outward
    neighbour is a grid node may continue past it, and its centre is redone
    with the half-width doubled, until the patch spans the grid. A component
    that stops short of every such edge is the whole section, so no
    convexity assumption enters. Centres are labelled in blocks of equal
    patches, one ndimage.label call per block.
    """
    grid = potential.grid
    nx, ny = grid.shape
    v = potential.phi.values
    gx, gy = potential.grad.gx, potential.grad.gy
    ci, cj = np.asarray(ci), np.asarray(cj)
    heights = np.asarray(heights, dtype=float)
    out = [np.empty(0, dtype=np.intp)] * ci.size
    # the gap at a centre is 0 (or NaN), so no nonpositive height holds it
    todo = np.flatnonzero(heights > 0)
    w = _FLOOD_W0
    while todo.size:
        pi, pj = min(2 * w + 1, nx), min(2 * w + 1, ny)
        v_win = np.lib.stride_tricks.sliding_window_view(v, (pi, pj))
        dom_win = np.lib.stride_tricks.sliding_window_view(grid.in_domain, (pi, pj))
        # flat grid index of each patch node, less that of the patch corner
        offsets = np.arange(pi)[:, None] * ny + np.arange(pj)
        nb = max(1, _FLOOD_BLOCK // (pi * pj))
        regrow = []
        for s in range(0, todo.size, nb):
            ks = todo[s : s + nb]
            bi, bj = ci[ks], cj[ks]
            i0 = np.clip(bi - w, 0, nx - pi)
            j0 = np.clip(bj - w, 0, ny - pj)
            bi3, bj3 = bi[:, None, None], bj[:, None, None]
            gap = v_win[i0, j0]
            gap -= v[bi3, bj3]
            gap -= gx[bi3, bj3] * (grid.xs[(i0[:, None] + np.arange(pi))[:, :, None]] - grid.xs[bi3])
            gap -= gy[bi3, bj3] * (grid.ys[(j0[:, None] + np.arange(pj))[:, None, :]] - grid.ys[bj3])
            mask = dom_win[i0, j0]
            with np.errstate(invalid="ignore"):
                mask &= gap < heights[ks][:, None, None]
            labels, _ = ndimage.label(mask, structure=_PLANE_CROSS)
            lab = labels[np.arange(ks.size), bi - i0, bj - j0]
            comp = labels == lab[:, None, None]
            comp[lab == 0] = False
            grow = (
                (comp[:, 0, :].any(axis=1) & (i0 > 0))
                | (comp[:, -1, :].any(axis=1) & (i0 + pi < nx))
                | (comp[:, :, 0].any(axis=1) & (j0 > 0))
                | (comp[:, :, -1].any(axis=1) & (j0 + pj < ny))
            )
            comp[grow] = False
            regrow.append(ks[grow])
            flat = ((i0 * ny + j0)[:, None, None] + offsets)[comp]
            ends = np.cumsum(comp.sum(axis=(1, 2))).tolist()
            for k, done, a, b in zip(ks.tolist(), (~grow).tolist(), [0] + ends, ends):
                if done:
                    out[k] = flat[a:b]
        todo = np.concatenate(regrow)
        w *= 2
    return out


def interior_heights(potential: PotentialField) -> np.ndarray:
    """Minimum tangent gap from each interior node to the boundary band.

    This equals the maximal interior height only when every tangent gap of
    the centre is nonnegative (a convex discrete potential): then the section
    first meets the band at the band node with the smallest gap. Solved
    potentials can break that assumption. Where a centre's tangent gap is
    negative at some band node the value returned is negative, and it is not
    the flood-filled maximal height. Scanned in blocks of centres against the
    band nodes (see pair_gaps); NaN off the interior. A row minimum does
    not depend on the block it is taken in, so the value at a node is the
    same bits whichever other centres share the scan.
    """
    grid = potential.grid
    out = np.full(grid.shape, np.nan)
    ci, cj = np.nonzero(grid.interior)
    ri, rj = np.nonzero(grid.boundary_adjacent)
    for block, D in pair_gaps(potential, ci, cj, ri, rj, _HEIGHTS_CHUNK):
        out[ci[block], cj[block]] = D.min(axis=1)
    return out


def measure_c_cap(heights: np.ndarray) -> float:
    """Instance height cap for small-section diagnostics.

    The fraction _C_CAP_FACTOR of the largest maximal interior height, read
    from the interior_heights field of the potential; diagnostics (volume
    slope, engulfing) are validated against this cap in the tests.
    """
    return _C_CAP_FACTOR * float(np.nanmax(heights))


# ---------------------------------------------------------------------------
# boundary normalization and localization
# ---------------------------------------------------------------------------


@dataclass
class BoundaryFrame:
    """Affine normalization at a boundary point.

    Shifts the point to the origin, rotates the inner normal onto the second
    coordinate axis, and records the tangent plane of the potential there so
    it can be subtracted.
    """

    origin: np.ndarray
    rotation: np.ndarray
    phi_origin: float
    gradient_origin: np.ndarray

    def to_frame(self, pts: np.ndarray) -> np.ndarray:
        return (np.atleast_2d(pts) - self.origin) @ self.rotation.T

    def from_frame(self, ys: np.ndarray) -> np.ndarray:
        return self.origin + np.atleast_2d(ys) @ self.rotation

    def tangent_gap(self, pts: np.ndarray, phi_vals: np.ndarray) -> np.ndarray:
        """phi_vals - phi(z) - grad phi(z).(x - z) at the points x = pts[..., :2], z the origin."""
        z, g = self.origin, self.gradient_origin
        return phi_vals - self.phi_origin - g[0] * (pts[..., 0] - z[0]) - g[1] * (pts[..., 1] - z[1])


def boundary_frame(potential: PotentialField, point) -> BoundaryFrame:
    p = np.asarray(point, dtype=float)
    proj, dist, nrm = potential.grid.domain.project_boundary(p)
    z = proj[0]
    inner = -nrm[0]
    rotation = np.array([[inner[1], -inner[0]], [inner[0], inner[1]]])
    phi_z = float(np.atleast_1d(potential.boundary_datum(z[None, :]))[0])
    grad_z = gradient_at(potential, z)
    return BoundaryFrame(origin=z, rotation=rotation, phi_origin=phi_z, gradient_origin=grad_z)


@dataclass
class LocalizationFit:
    frame: BoundaryFrame
    height: float
    tau: float
    k_inner: float
    k_outer: float
    cells: np.ndarray


def _shear_fit(Y: np.ndarray) -> float:
    den = float(np.sum(Y[:, 1] * Y[:, 1]))
    if den <= 0:
        return 0.0
    return float(np.sum(Y[:, 0] * Y[:, 1]) / den)


def localization_fit(potential: PotentialField, boundary_point, h: float) -> LocalizationFit:
    """Shear normalization of a boundary section.

    Fits the unit-determinant shear that makes the height-h section at the
    boundary point closest to a half-ball, by zeroing the mixed second moment
    of the cell set about the frame origin. Reports the largest inner and
    smallest outer dilations of the sheared ball that sandwich the section:
    k_outer is the largest sheared radius of a cell, k_inner the smallest of
    an in-domain non-cell, each divided by the ball radius and capped at 8.

    The shear is A = [[1, -tau], [0, 1]], so it is not stored: its norms
    have the closed form ||A|| = ||A^-1|| = (|tau| + sqrt(tau^2 + 4)) / 2,
    the quantity Savin's theorem bounds by k |log h|.
    """
    if not h > 0:
        raise SectionError("localization height must be positive")
    grid = potential.grid
    frame = boundary_frame(potential, boundary_point)
    gap = frame.tangent_gap(np.stack(grid.meshes(), axis=-1), potential.phi.values)
    seed = grid.nearest_in_domain(frame.origin)
    if seed is None:
        raise SectionError("no in-domain node near the boundary point")
    if not gap[seed] < h:
        raise SectionError("section at this height contains no cells")
    cells = sublevel_cells(potential, gap, h, seed)
    count = int(cells.sum())
    if count < 8:
        raise SectionError(f"section has only {count} cells at height {h}; refine the grid or raise the height")

    Y_cells = frame.to_frame(grid.points(cells))
    tau = _shear_fit(Y_cells)
    A = np.array([[1.0, -tau], [0.0, 1.0]])

    radius = np.sqrt(2.0 * h)
    W_cells = Y_cells @ A.T
    rc = np.hypot(W_cells[:, 0], W_cells[:, 1])

    Y_all = frame.to_frame(grid.points(grid.in_domain))
    W_all = Y_all @ A.T
    r_all = np.hypot(W_all[:, 0], W_all[:, 1])
    cells_flat = cells[grid.in_domain]

    k_outer = min(float(rc.max()) / radius, 8.0)
    k_inner = min(float(np.min(r_all[~cells_flat], initial=np.inf)) / radius, 8.0)
    return LocalizationFit(
        frame=frame,
        height=float(h),
        tau=tau,
        k_inner=k_inner,
        k_outer=k_outer,
        cells=cells,
    )


# ---------------------------------------------------------------------------
# engulfing, volume scaling, dichotomy
# ---------------------------------------------------------------------------


def engulfing_constant(potential: PotentialField, sections) -> float:
    """Smallest uniform dilation factor observed to swallow sections from inside points.

    The members y of each section are its extreme cells in _N_DIRECTIONS
    evenly spread directions plus _N_RANDOM cells drawn by one
    default_rng(_SEED), section by section in the order given; the draws push
    the measured constant toward its supremum. Each member's least theta with
    the section inside its own section of height theta * t is y's largest
    tangent gap over the section's cells divided by t; the result is the
    maximum over all members of all sections. The gaps of a section's
    members come from one pair_gaps block.
    """
    grid = potential.grid
    rng = np.random.default_rng(_SEED)
    angles = np.linspace(0.0, 2.0 * np.pi, _N_DIRECTIONS, endpoint=False)
    dirs = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    theta_star = 0.0
    for sec in sections:
        ci, cj = np.nonzero(sec.cells)
        pts = grid.points(sec.cells)
        chosen = {int(np.argmax(pts @ d)) for d in dirs}
        chosen.update(int(k) for k in rng.integers(0, len(pts), size=_N_RANDOM))
        members = np.array(sorted(chosen))
        _, D = next(pair_gaps(potential, ci[members], cj[members], ci, cj, members.size))
        theta_star = max(theta_star, float(D.max()) / sec.height)
    return theta_star


def volume_scaling(sections) -> float:
    """Least-squares exponent of section measure against height, as a float.

    Measures the given sections as they are. Sections with fewer than
    _MIN_CELLS cells are dropped; fewer than four surviving sections is an
    error.
    """
    kept = [sec for sec in sections if int(sec.cells.sum()) >= _MIN_CELLS]
    if len(kept) < 4:
        raise SectionError(f"only {len(kept)} sections with at least {_MIN_CELLS} cells; need 4")
    heights = np.array([sec.height for sec in kept])
    measures = np.array([sec.measure for sec in kept])
    Amat = np.stack([np.log(heights), np.ones_like(heights)], axis=1)
    coef, _, _, _ = np.linalg.lstsq(Amat, np.log(measures), rcond=None)
    return float(coef[0])


@dataclass
class DichotomyResult:
    kind: str
    boundary_point: Optional[np.ndarray]
    c_bar: Optional[float]
    doubled_cells: np.ndarray


def dichotomy_classify(potential: PotentialField, x, t: float) -> DichotomyResult:
    """Interior when the doubled section avoids the boundary band.

    Otherwise returns the nearest boundary point to the deepest band node and
    c_bar, the infimum of the factors c with the doubled section contained in
    the boundary point's section of height c * t: the largest gap of the
    boundary point over the doubled section, divided by t (0 if negative).
    """
    grid = potential.grid
    i, j = grid.nearest_node(x)
    if not grid.in_domain[i, j]:
        raise SectionError("classification center must be an in-domain node")
    (flat,) = section_cells(potential, [i], [j], [2.0 * t])
    cells2 = np.zeros(grid.shape, dtype=bool)
    cells2.flat[flat] = True
    band = flat[grid.boundary_adjacent.flat[flat]]
    if not band.size:
        return DichotomyResult(kind="interior", boundary_point=None, c_bar=None, doubled_cells=cells2)
    bi, bj = np.unravel_index(band, grid.shape)
    _, D = next(pair_gaps(potential, [i], [j], bi, bj, 1))
    k = np.argmin(D[0])
    frame = boundary_frame(potential, (grid.xs[bi[k]], grid.ys[bj[k]]))
    c_bar = max(float(np.max(frame.tangent_gap(grid.points(cells2), potential.phi.values[cells2]))) / t, 0.0)
    return DichotomyResult(kind="boundary", boundary_point=frame.origin, c_bar=c_bar, doubled_cells=cells2)

