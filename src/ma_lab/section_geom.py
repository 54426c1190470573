"""Section geometry of a convex potential.

Sections are connected sublevel sets of the potential below a lifted tangent
plane. This module computes the quasi-distance that generates them, extracts
sections by flood fill, measures maximal interior heights, fits the
boundary-localization shear, and classifies sections as interior or boundary
dominated. A Section is flooded once and then shared: engulfing_constant and
volume_scaling measure the cells of the sections they are given and flood
nothing themselves.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import ndimage

from .domain_grid import Grid
from .ma_solve import PotentialField


class SectionError(ValueError):
    pass


_CROSS = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)
# interior_heights: centres per pair_gaps block
_HEIGHTS_CHUNK = 2048
# engulfing_constant: evenly spread directions of the extreme member cells
_N_DIRECTIONS = 16
# volume_scaling drops sections with fewer cells
_MIN_CELLS = 20


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


def gap_from_index(potential: PotentialField, i: int, j: int) -> np.ndarray:
    """Tangent-plane gap of the potential relative to the node (i, j), over all nodes."""
    grid = potential.grid
    z = (grid.xs[i], grid.ys[j])
    grad_z = (potential.grad.gx[i, j], potential.grad.gy[i, j])
    return _gap_from_point(potential, z, potential.phi.values[i, j], grad_z)


def _gap_from_point(potential: PotentialField, z, phi_z: float, grad_z) -> np.ndarray:
    grid = potential.grid
    X, Y = grid.meshes()
    return potential.phi.values - phi_z - grad_z[0] * (X - z[0]) - grad_z[1] * (Y - z[1])


def quasi_distance(potential: PotentialField, xbar, x) -> np.ndarray:
    """Squared quasi-distance from the node nearest xbar to the point(s) x.

    Returns phi(x) - phi(xbar) - grad phi(xbar) . (x - xbar). Nonnegative up
    to the convexity tolerance of the potential. Adding an affine function to
    the potential leaves the value unchanged.
    """
    grid = potential.grid
    i, j = grid.nearest_node(xbar)
    if not grid.in_domain[i, j]:
        raise SectionError("base point must be an in-domain node")
    x = np.atleast_2d(np.asarray(x, dtype=float))
    phis = phi_extended(potential, x)
    gx = potential.grad.gx[i, j]
    gy = potential.grad.gy[i, j]
    d2 = phis - potential.phi.values[i, j] - gx * (x[:, 0] - grid.xs[i]) - gy * (x[:, 1] - grid.ys[j])
    return d2 if d2.size > 1 else float(d2[0])


# ---------------------------------------------------------------------------
# sections
# ---------------------------------------------------------------------------


@dataclass
class EllipsoidFit:
    center: np.ndarray
    semi_axes: np.ndarray
    residual: float


@dataclass
class Section:
    """A connected tangent-sublevel set of the potential."""

    center: np.ndarray
    height: float
    cells: np.ndarray
    measure: float
    centroid: np.ndarray
    is_interior: bool
    ellipsoid_fit: Optional[EllipsoidFit]
    warning: Optional[str] = None


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


def _moment_ellipse(grid: Grid, cells: np.ndarray, measure: float) -> EllipsoidFit:
    pts = grid.points(cells)
    mu = pts.mean(axis=0)
    d = pts - mu
    cov = d.T @ d / len(pts) + (grid.spacing ** 2 / 12.0) * np.eye(2)
    # eigh sorts ascending; the axes run from the longest
    w = np.linalg.eigh(cov)[0][::-1]
    axes = 2.0 * np.sqrt(np.maximum(w, 0.0))
    area = np.pi * axes[0] * axes[1]
    residual = abs(area - measure) / measure if measure > 0 else np.nan
    return EllipsoidFit(center=mu, semi_axes=axes, residual=residual)


def section(potential: PotentialField, x, t: float) -> Section:
    """Section of the potential centered at the node nearest x with height t.

    The cell set is the flood-fill component of the strict sublevel set that
    contains the center. is_interior reports whether the doubled-height
    section stays clear of the boundary band.
    """
    if not t > 0:
        raise SectionError("section height must be positive")
    grid = potential.grid
    idx = grid.nearest_node(x)
    if not grid.in_domain[idx]:
        raise SectionError("section center must be an in-domain node")
    gap = gap_from_index(potential, *idx)
    cells = sublevel_cells(potential, gap, t, idx)
    count = int(cells.sum())
    measure = count * grid.cell_area
    centroid = grid.points(cells).mean(axis=0)
    warning = "section is a single cell at this height" if count == 1 else None

    cells2 = sublevel_cells(potential, gap, 2.0 * t, idx)
    is_interior = not (cells2 & grid.boundary_adjacent).any()

    fit = _moment_ellipse(grid, cells, measure) if count >= 3 else None
    return Section(
        center=np.array([grid.xs[idx[0]], grid.ys[idx[1]]]),
        height=float(t),
        cells=cells,
        measure=measure,
        centroid=centroid,
        is_interior=is_interior,
        ellipsoid_fit=fit,
        warning=warning,
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
    gap = gap_from_index(potential, *idx)
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
    bufs = np.empty((2, min(chunk, ci.size), ti.shape[-1]))
    for s in range(0, ci.size, chunk):
        block = slice(s, s + chunk)
        bi = ci[block, None]
        bj = cj[block, None]
        ri, rj = (ti, tj) if shared else (ti[block], tj[block])
        D, step = (b[: bi.shape[0]] for b in bufs)
        np.subtract(v[ri, rj], v[bi, bj], out=D)
        np.subtract(grid.xs[ri], grid.xs[bi], out=step)
        step *= g.gx[bi, bj]
        D -= step
        np.subtract(grid.ys[rj], grid.ys[bj], out=step)
        step *= g.gy[bi, bj]
        D -= step
        yield block, D


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
    sublevel_cells(potential, gap_from_index(potential, ci[k], cj[k]),
    heights[k], (ci[k], cj[k])). The gaps are evaluated with the expression
    and order of gap_from_index, so they are bitwise the dense ones.

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


def interior_heights(potential: PotentialField, mask: Optional[np.ndarray] = None) -> np.ndarray:
    """Minimum tangent gap from each node of the mask to the boundary band.

    This equals the maximal interior height only when every tangent gap of
    the centre is nonnegative (a convex discrete potential): then the section
    first meets the band at the band node with the smallest gap. Solved
    potentials can break that assumption. Where a centre's tangent gap is
    negative at some band node the value returned is negative, and it is not
    the flood-filled maximal height. Scanned in blocks of centres against the
    band nodes (see pair_gaps); NaN off the mask.
    """
    grid = potential.grid
    if mask is None:
        mask = grid.interior
    out = np.full(grid.shape, np.nan)
    ci, cj = np.nonzero(mask)
    ri, rj = np.nonzero(grid.boundary_adjacent)
    for block, D in pair_gaps(potential, ci, cj, ri, rj, _HEIGHTS_CHUNK):
        out[ci[block], cj[block]] = D.min(axis=1)
    return out


def measure_c_cap(potential: PotentialField, factor: float = 0.05, heights: Optional[np.ndarray] = None) -> float:
    """Instance height cap for small-section diagnostics.

    A fixed fraction of the largest maximal interior height; diagnostics
    (volume slope, engulfing) are validated against this cap in the tests.
    heights, when given, is the interior_heights field already computed for
    this potential.
    """
    hs = interior_heights(potential) if heights is None else heights
    return factor * float(np.nanmax(hs))


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


def boundary_frame(potential: PotentialField, point) -> BoundaryFrame:
    p = np.asarray(point, dtype=float)
    proj, dist, nrm = potential.grid.domain.project_boundary(p)
    z = proj[0]
    inner = -nrm[0]
    rotation = np.array([[inner[1], -inner[0]], [inner[0], inner[1]]])
    phi_z = float(np.atleast_1d(potential.boundary_datum(z[None, :]))[0])
    grad_z = gradient_at(potential, z)
    return BoundaryFrame(origin=z, rotation=rotation, phi_origin=phi_z, gradient_origin=grad_z)


def frame_gap(potential: PotentialField, frame: BoundaryFrame) -> np.ndarray:
    """Normalized potential over the grid: tangent plane at the frame origin removed."""
    return _gap_from_point(potential, frame.origin, frame.phi_origin, frame.gradient_origin)


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
    gap = frame_gap(potential, frame)
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


def engulfing_constant(potential: PotentialField, sections, n_random: int = 6, seed: int = 0) -> float:
    """Smallest uniform dilation factor observed to swallow sections from inside points.

    The members y of each section are its extreme cells in _N_DIRECTIONS
    evenly spread directions plus n_random cells drawn by one
    default_rng(seed), section by section in the order given; the draws push
    the measured constant toward its supremum. Each member's least theta with
    the section inside its own section of height theta * t is y's largest
    tangent gap over the section's cells divided by t; the result is the
    maximum over all members of all sections.
    """
    grid = potential.grid
    rng = np.random.default_rng(seed)
    angles = np.linspace(0.0, 2.0 * np.pi, _N_DIRECTIONS, endpoint=False)
    dirs = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    theta_star = 0.0
    for sec in sections:
        ci, cj = np.nonzero(sec.cells)
        pts = grid.points(sec.cells)
        chosen = {int(np.argmax(pts @ d)) for d in dirs}
        chosen.update(int(k) for k in rng.integers(0, len(pts), size=n_random))
        for k in sorted(chosen):
            gap_y = gap_from_index(potential, ci[k], cj[k])
            theta_star = max(theta_star, float(np.max(gap_y[sec.cells]) / sec.height))
    return theta_star


@dataclass
class VolumeScalingFit:
    exponent: float
    C1: float
    C2: float
    n_used: int


def volume_scaling(sections) -> VolumeScalingFit:
    """Least-squares exponent of section measure against height.

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
    ratios = measures / heights
    return VolumeScalingFit(
        exponent=float(coef[0]),
        C1=float(ratios.min()),
        C2=float(ratios.max()),
        n_used=len(kept),
    )


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
    idx = grid.nearest_node(x)
    if not grid.in_domain[idx]:
        raise SectionError("classification center must be an in-domain node")
    gap = gap_from_index(potential, *idx)
    cells2 = sublevel_cells(potential, gap, 2.0 * t, idx)
    band = cells2 & grid.boundary_adjacent
    if not band.any():
        return DichotomyResult(kind="interior", boundary_point=None, c_bar=None, doubled_cells=cells2)
    bi, bj = np.nonzero(band)
    k = np.argmin(gap[bi, bj])
    node = np.array([grid.xs[bi[k]], grid.ys[bj[k]]])
    proj, _, _ = grid.domain.project_boundary(node)
    z = proj[0]
    phi_z = float(np.atleast_1d(potential.boundary_datum(z[None, :]))[0])
    grad_z = gradient_at(potential, z)
    gap_z = _gap_from_point(potential, z, phi_z, grad_z)
    c_bar = max(float(np.max(gap_z[cells2])) / t, 0.0)
    return DichotomyResult(kind="boundary", boundary_point=z, c_bar=c_bar, doubled_cells=cells2)

