"""Section geometry of a convex potential.

Sections are connected sublevel sets of the potential below a lifted tangent
plane. This module computes the quasi-distance that generates them, extracts
sections by flood fill, measures maximal interior heights, fits the
boundary-localization shear, measures engulfing and volume-scaling behavior,
classifies sections as interior or boundary dominated, and applies the two
standard rescalings (sup-norm preserving and curvature preserving).
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy import ndimage

from .domain_grid import Grid, ScalarField
from .ma_solve import PotentialField, _coerce_samples


class SectionError(ValueError):
    pass


_CROSS = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)


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
        idx = _nearest_in_domain(grid, pts[k])
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


def _nearest_in_domain(grid: Grid, p, window: int = 4):
    i0, j0 = grid.nearest_node(p)
    best = None
    best_d = np.inf
    for i in range(max(i0 - window, 0), min(i0 + window + 1, len(grid.xs))):
        for j in range(max(j0 - window, 0), min(j0 + window + 1, len(grid.ys))):
            if not grid.in_domain[i, j]:
                continue
            d = (grid.xs[i] - p[0]) ** 2 + (grid.ys[j] - p[1]) ** 2
            if d < best_d:
                best_d = d
                best = (i, j)
    return best


def _gradient_at(potential: PotentialField, p: np.ndarray) -> np.ndarray:
    """Gradient estimate at an arbitrary point by a Taylor step from the nearest node."""
    idx = _nearest_in_domain(potential.grid, p)
    if idx is None:
        raise SectionError(f"no in-domain node near point {tuple(p)}")
    i, j = idx
    dx = p[0] - potential.grid.xs[i]
    dy = p[1] - potential.grid.ys[j]
    h = potential.hess
    gx = potential.grad.gx[i, j] + h.xx[i, j] * dx + h.xy[i, j] * dy
    gy = potential.grad.gy[i, j] + h.xy[i, j] * dx + h.yy[i, j] * dy
    return np.array([gx, gy])


def _gap_from_index(potential: PotentialField, i: int, j: int) -> np.ndarray:
    """Tangent-plane gap of the potential relative to the node (i, j), over all nodes."""
    grid = potential.grid
    X, Y = grid.meshes()
    v = potential.phi.values
    gx = potential.grad.gx[i, j]
    gy = potential.grad.gy[i, j]
    return v - v[i, j] - gx * (X - grid.xs[i]) - gy * (Y - grid.ys[j])


def _gap_from_point(potential: PotentialField, z: np.ndarray, phi_z: float, grad_z: np.ndarray) -> np.ndarray:
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
    orientation: np.ndarray
    residual: float


@dataclass
class Section:
    """A connected tangent-sublevel set of the potential."""

    center: np.ndarray
    center_index: tuple
    height: float
    cells: np.ndarray
    measure: float
    centroid: np.ndarray
    is_interior: bool
    tangency_point: Optional[np.ndarray]
    ellipsoid_fit: Optional[EllipsoidFit]
    warning: Optional[str] = None


def _component(mask: np.ndarray, seed: tuple) -> np.ndarray:
    labels, n = ndimage.label(mask, structure=_CROSS)
    lab = labels[seed]
    if lab == 0:
        return np.zeros_like(mask)
    return labels == lab


def _sublevel_cells(potential: PotentialField, gap: np.ndarray, t: float, seed: tuple) -> np.ndarray:
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
    w, vecs = np.linalg.eigh(cov)
    order = np.argsort(w)[::-1]
    w = w[order]
    vecs = vecs[:, order]
    axes = 2.0 * np.sqrt(np.maximum(w, 0.0))
    area = np.pi * axes[0] * axes[1]
    residual = abs(area - measure) / measure if measure > 0 else np.nan
    return EllipsoidFit(center=mu, semi_axes=axes, orientation=vecs, residual=residual)


def section(potential: PotentialField, x, t: float) -> Section:
    """Section of the potential centered at the node nearest x with height t.

    The cell set is the flood-fill component of the strict sublevel set that
    contains the center. is_interior reports whether the doubled-height
    section stays clear of the boundary band; when it does not, the nearest
    boundary point to the deepest band node is recorded as tangency_point.
    """
    if not t > 0:
        raise SectionError("section height must be positive")
    grid = potential.grid
    idx = grid.nearest_node(x)
    if not grid.in_domain[idx]:
        raise SectionError("section center must be an in-domain node")
    gap = _gap_from_index(potential, *idx)
    cells = _sublevel_cells(potential, gap, t, idx)
    count = int(cells.sum())
    measure = count * grid.cell_area
    centroid = grid.points(cells).mean(axis=0)
    warning = "section is a single cell at this height" if count == 1 else None

    cells2 = _sublevel_cells(potential, gap, 2.0 * t, idx)
    band = cells2 & grid.boundary_adjacent
    if band.any():
        is_interior = False
        bi, bj = np.nonzero(band)
        k = np.argmin(gap[bi, bj])
        node = np.array([grid.xs[bi[k]], grid.ys[bj[k]]])
        proj, _, _ = grid.domain.project_boundary(node)
        tangency = proj[0]
    else:
        is_interior = True
        tangency = None

    fit = _moment_ellipse(grid, cells, measure) if count >= 3 else None
    return Section(
        center=np.array([grid.xs[idx[0]], grid.ys[idx[1]]]),
        center_index=idx,
        height=float(t),
        cells=cells,
        measure=measure,
        centroid=centroid,
        is_interior=is_interior,
        tangency_point=tangency,
        ellipsoid_fit=fit,
        warning=warning,
    )


def maximal_height(potential: PotentialField, x) -> tuple[float, np.ndarray]:
    """Largest height whose section around x stays clear of the boundary band.

    Bisection on the height, 40 iterations, flood-filled section at each
    probe. Returns the height and a witness node where the section first
    meets the band.
    """
    grid = potential.grid
    idx = grid.nearest_node(x)
    if not grid.interior[idx]:
        raise SectionError("maximal height requires an interior node")
    gap = _gap_from_index(potential, *idx)
    ring = grid.boundary_adjacent
    ring_gaps = gap[ring]
    hi = float(np.nanmax(ring_gaps)) * (1.0 + 1e-9) + 1e-300
    lo = 0.0

    def touches(t):
        cells = _sublevel_cells(potential, gap, t, idx)
        return (cells & ring).any(), cells

    for _ in range(40):
        mid = 0.5 * (lo + hi)
        hit, _ = touches(mid)
        if hit:
            hi = mid
        else:
            lo = mid
    _, cells_hi = touches(hi)
    band = cells_hi & ring
    if band.any():
        bi, bj = np.nonzero(band)
        k = np.argmin(gap[bi, bj])
        witness = np.array([grid.xs[bi[k]], grid.ys[bj[k]]])
    else:
        ri, rj = np.nonzero(ring)
        k = np.argmin(gap[ri, rj])
        witness = np.array([grid.xs[ri[k]], grid.ys[rj[k]]])
    return lo, witness


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
    bufs = [np.empty((min(chunk, ci.size), ti.shape[-1])) for _ in range(2)]
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


def interior_heights(potential: PotentialField, mask: Optional[np.ndarray] = None, chunk: int = 2048) -> np.ndarray:
    """Maximal interior heights at every node of the mask, in closed form.

    For a convex potential the section first meets the boundary band at the
    band node with the smallest tangent gap, so the maximal height is the
    minimum of those gaps. Scanned in blocks of centres against the band
    nodes (see pair_gaps); NaN off the mask.
    """
    grid = potential.grid
    if mask is None:
        mask = grid.interior
    out = np.full(grid.shape, np.nan)
    ci, cj = np.nonzero(mask)
    ri, rj = np.nonzero(grid.boundary_adjacent)
    for block, D in pair_gaps(potential, ci, cj, ri, rj, chunk):
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
    grad_z = _gradient_at(potential, z)
    return BoundaryFrame(origin=z, rotation=rotation, phi_origin=phi_z, gradient_origin=grad_z)


def frame_gap(potential: PotentialField, frame: BoundaryFrame) -> np.ndarray:
    """Normalized potential over the grid: tangent plane at the frame origin removed."""
    return _gap_from_point(potential, frame.origin, frame.phi_origin, frame.gradient_origin)


@dataclass
class RescaledTriple:
    """A unit-determinant shear plus scale, with the rescaled node lattice."""

    map_A: np.ndarray
    scale: float
    domain_points: np.ndarray
    potential_values: np.ndarray
    section_mask: np.ndarray
    norm_A: float
    norm_A_inv: float
    k_measured: float


@dataclass
class LocalizationFit:
    triple: RescaledTriple
    frame: BoundaryFrame
    height: float
    tau: float
    k_inner: float
    k_outer: float
    cells: np.ndarray
    ellipsoid: EllipsoidFit


def _shear_fit(Y: np.ndarray) -> float:
    den = float(np.sum(Y[:, 1] * Y[:, 1]))
    if den <= 0:
        return 0.0
    return float(np.sum(Y[:, 0] * Y[:, 1]) / den)


def _triple_k(domain_img: np.ndarray, section_flat: np.ndarray) -> float:
    r = np.hypot(domain_img[:, 0], domain_img[:, 1])
    k_out = float(r[section_flat].max()) if section_flat.any() else np.inf
    outside = ~section_flat
    k_in = float(r[outside].min()) if outside.any() else np.inf
    if k_out <= 0:
        return 0.0
    return min(k_in, 1.0 / k_out)


def _build_triple(grid: Grid, Y: np.ndarray, gap_flat: np.ndarray, cells_flat: np.ndarray, A: np.ndarray, h: float) -> RescaledTriple:
    img = (Y @ A.T) / np.sqrt(h)
    s = np.linalg.svd(A, compute_uv=False)
    return RescaledTriple(
        map_A=A,
        scale=float(h),
        domain_points=img,
        potential_values=gap_flat / h,
        section_mask=cells_flat,
        norm_A=float(s[0]),
        norm_A_inv=float(1.0 / s[-1]),
        k_measured=_triple_k(img, cells_flat),
    )


def localization_fit(potential: PotentialField, boundary_point, h: float) -> LocalizationFit:
    """Shear normalization of a boundary section.

    Fits the unit-determinant shear that makes the height-h section at the
    boundary point closest to a half-ball, by zeroing the mixed second moment
    of the cell set about the frame origin. Reports the largest inner and
    smallest outer dilations of the sheared ball that sandwich the section,
    each found by bisection.
    """
    if not h > 0:
        raise SectionError("localization height must be positive")
    grid = potential.grid
    frame = boundary_frame(potential, boundary_point)
    gap = frame_gap(potential, frame)
    seed = _nearest_in_domain(grid, frame.origin)
    if seed is None:
        raise SectionError("no in-domain node near the boundary point")
    if not gap[seed] < h:
        raise SectionError("section at this height contains no cells")
    cells = _sublevel_cells(potential, gap, h, seed)
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

    lo, hi = 0.0, 8.0
    for _ in range(48):
        mid = 0.5 * (lo + hi)
        if rc.max() <= mid * radius:
            hi = mid
        else:
            lo = mid
    k_outer = hi

    lo, hi = 0.0, 8.0
    for _ in range(48):
        mid = 0.5 * (lo + hi)
        inside = r_all < mid * radius
        if not np.any(inside & ~cells_flat):
            lo = mid
        else:
            hi = mid
    k_inner = lo

    sv = np.linalg.svd(A, compute_uv=False)
    axes = np.array([radius / sv[1], radius / sv[0]])
    _, _, vt = np.linalg.svd(A)
    half_area = 0.5 * np.pi * radius * radius
    measure = count * grid.cell_area
    ellipsoid = EllipsoidFit(
        center=frame.origin.copy(),
        semi_axes=axes,
        orientation=vt.T,
        residual=abs(measure - half_area) / half_area,
    )

    gap_flat = gap[grid.in_domain]
    triple = _build_triple(grid, Y_all, gap_flat, cells_flat, A, h)
    return LocalizationFit(
        triple=triple,
        frame=frame,
        height=float(h),
        tau=tau,
        k_inner=k_inner,
        k_outer=k_outer,
        cells=cells,
        ellipsoid=ellipsoid,
    )


# ---------------------------------------------------------------------------
# engulfing, volume scaling, dichotomy
# ---------------------------------------------------------------------------


@dataclass
class EngulfingReport:
    theta_star: float
    per_sample: list


def engulfing_samples(potential: PotentialField, t_values, centers=None, n_random: int = 6, n_directions: int = 16, seed: int = 0):
    """Deterministic (center, height, member) triples for the engulfing sweep.

    For each center and height the member points include the extreme cells of
    the section in evenly spread directions plus a few seeded random cells,
    which is what pushes the measured constant toward its supremum.
    """
    grid = potential.grid
    if centers is None:
        ci, cj = np.nonzero(grid.interior)
        k = np.argmin(grid.xs[ci] ** 2 + grid.ys[cj] ** 2)
        centers = [np.array([grid.xs[ci[k]], grid.ys[cj[k]]])]
    rng = np.random.default_rng(seed)
    angles = np.linspace(0.0, 2.0 * np.pi, n_directions, endpoint=False)
    dirs = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    triples = []
    for c in centers:
        idx = grid.nearest_node(c)
        gap = _gap_from_index(potential, *idx)
        for t in t_values:
            cells = _sublevel_cells(potential, gap, float(t), idx)
            if not cells.any():
                continue
            pts = grid.points(cells)
            chosen = set()
            for d in dirs:
                k = int(np.argmax(pts @ d))
                chosen.add(k)
            if len(pts) > 0 and n_random > 0:
                for k in rng.integers(0, len(pts), size=n_random):
                    chosen.add(int(k))
            for k in sorted(chosen):
                triples.append((np.array(c, dtype=float), float(t), pts[k]))
    return triples


def engulfing_constant(potential: PotentialField, samples) -> EngulfingReport:
    """Smallest uniform dilation factor observed to swallow sections from inside points.

    For each (center, height, member) triple with the member inside the
    section, computes the least theta with the section contained in the
    member's section of height theta * t, then takes the supremum.
    """
    grid = potential.grid
    per_sample = []
    theta_star = 0.0
    for x, t, y in samples:
        idx = grid.nearest_node(x)
        gap_x = _gap_from_index(potential, *idx)
        cells = _sublevel_cells(potential, gap_x, float(t), idx)
        yidx = grid.nearest_node(y)
        if not cells[yidx]:
            raise SectionError(f"sample member {tuple(np.asarray(y))} lies outside the section at {tuple(np.asarray(x))}")
        gap_y = _gap_from_index(potential, *yidx)
        theta = float(np.max(gap_y[cells]) / t)
        per_sample.append((np.asarray(x, dtype=float), float(t), np.asarray(y, dtype=float), theta))
        theta_star = max(theta_star, theta)
    return EngulfingReport(theta_star=theta_star, per_sample=per_sample)


@dataclass
class VolumeScalingFit:
    exponent: float
    C1: float
    C2: float
    n_used: int
    heights: np.ndarray
    measures: np.ndarray


def volume_scaling(potential: PotentialField, samples, min_cells: int = 20) -> VolumeScalingFit:
    """Least-squares exponent of section measure against height.

    Sections with fewer than min_cells cells are dropped; fewer than four
    surviving samples is an error.
    """
    grid = potential.grid
    heights = []
    measures = []
    for x, t in samples:
        idx = grid.nearest_node(x)
        gap = _gap_from_index(potential, *idx)
        cells = _sublevel_cells(potential, gap, float(t), idx)
        count = int(cells.sum())
        if count < min_cells:
            continue
        heights.append(float(t))
        measures.append(count * grid.cell_area)
    if len(heights) < 4:
        raise SectionError(f"only {len(heights)} sections with at least {min_cells} cells; need 4")
    heights = np.array(heights)
    measures = np.array(measures)
    Amat = np.stack([np.log(heights), np.ones_like(heights)], axis=1)
    coef, _, _, _ = np.linalg.lstsq(Amat, np.log(measures), rcond=None)
    ratios = measures / heights
    return VolumeScalingFit(
        exponent=float(coef[0]),
        C1=float(ratios.min()),
        C2=float(ratios.max()),
        n_used=len(heights),
        heights=heights,
        measures=measures,
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
    the minimal factor c with the doubled section contained in the boundary
    point's section of height c * t, found by bisection.
    """
    grid = potential.grid
    idx = grid.nearest_node(x)
    if not grid.in_domain[idx]:
        raise SectionError("classification center must be an in-domain node")
    gap = _gap_from_index(potential, *idx)
    cells2 = _sublevel_cells(potential, gap, 2.0 * t, idx)
    band = cells2 & grid.boundary_adjacent
    if not band.any():
        return DichotomyResult(kind="interior", boundary_point=None, c_bar=None, doubled_cells=cells2)
    bi, bj = np.nonzero(band)
    k = np.argmin(gap[bi, bj])
    node = np.array([grid.xs[bi[k]], grid.ys[bj[k]]])
    proj, _, _ = grid.domain.project_boundary(node)
    z = proj[0]
    phi_z = float(np.atleast_1d(potential.boundary_datum(z[None, :]))[0])
    grad_z = _gradient_at(potential, z)
    gap_z = _gap_from_point(potential, z, phi_z, grad_z)
    worst = float(np.max(gap_z[cells2]))
    lo, hi = 0.0, max(worst / t, 1e-12) * (1.0 + 1e-9)
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if np.all(gap_z[cells2] < mid * t):
            hi = mid
        else:
            lo = mid
    return DichotomyResult(kind="boundary", boundary_point=z, c_bar=hi, doubled_cells=cells2)


# ---------------------------------------------------------------------------
# rescalings
# ---------------------------------------------------------------------------


@dataclass
class RescaleResult:
    triple: RescaledTriple
    mode: str
    u_values: np.ndarray
    f_values: np.ndarray
    sup_before: float
    sup_after: float
    integral_ratio: Optional[float]


def rescale(potential: PotentialField, u, f, anchor, h: float, mode: str) -> RescaleResult:
    """Rescale a solution and right side over the section at the anchor.

    mode "linf" keeps the solution values and multiplies the right side by
    the height, so the sup norm is preserved exactly on the node images.
    mode "w2inf" divides the solution by the height and keeps the right side,
    so second derivatives transport by the shear alone and the node mean of
    the squared right side is preserved exactly.

    Boundary anchors use the localization shear; interior anchors must carry
    a section of the requested height inside the domain and use the moment
    shear about the anchor node.
    """
    if mode not in ("linf", "w2inf"):
        raise ValueError(f"unknown rescale mode {mode!r}")
    if not h > 0:
        raise SectionError("rescale height must be positive")
    grid = potential.grid
    u_vals = _coerce_samples(grid, u.values if isinstance(u, ScalarField) else u)
    f_vals = _coerce_samples(grid, f.values if isinstance(f, ScalarField) else f)

    anchor = np.asarray(anchor, dtype=float)
    _, dist, _ = grid.domain.project_boundary(anchor)
    if float(dist[0]) <= 0.5 * grid.spacing:
        fit = localization_fit(potential, anchor, h)
        A = fit.triple.map_A
        Y_all = fit.frame.to_frame(grid.points(grid.in_domain))
        gap = frame_gap(potential, fit.frame)
        cells = fit.cells
    else:
        idx = grid.nearest_node(anchor)
        if not grid.interior[idx]:
            raise SectionError("interior anchor must be an interior node")
        hbar, _ = maximal_height(potential, anchor)
        if h > hbar * (1.0 + 1e-9):
            raise SectionError(f"anchor has no localization fit: height {h} exceeds the maximal interior height {hbar:.6g}")
        gap = _gap_from_index(potential, *idx)
        cells = _sublevel_cells(potential, gap, h, idx)
        base = np.array([grid.xs[idx[0]], grid.ys[idx[1]]])
        Y_all = grid.points(grid.in_domain) - base
        tau = _shear_fit(Y_all[cells[grid.in_domain]])
        A = np.array([[1.0, -tau], [0.0, 1.0]])

    cells_flat = cells[grid.in_domain]
    gap_flat = gap[grid.in_domain]
    triple = _build_triple(grid, Y_all, gap_flat, cells_flat, A, h)

    u_flat = u_vals[grid.in_domain]
    f_flat = f_vals[grid.in_domain]
    if mode == "linf":
        u_h = u_flat.copy()
        f_h = h * f_flat
        integral_ratio = None
    else:
        u_h = u_flat / h
        f_h = f_flat.copy()
        m_before = float(np.mean(np.abs(f_flat) ** 2))
        m_after = float(np.mean(np.abs(f_h) ** 2))
        integral_ratio = m_after / m_before if m_before > 0 else np.nan
    return RescaleResult(
        triple=triple,
        mode=mode,
        u_values=u_h,
        f_values=f_h,
        sup_before=float(np.max(np.abs(u_flat))),
        sup_after=float(np.max(np.abs(u_h))),
        integral_ratio=integral_ratio,
    )
