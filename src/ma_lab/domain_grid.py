"""Convex domains, uniform grids with membership masks, finite differences, L^p norms.

A domain kind is one ConvexDomain subclass, whose base says what a kind must
provide; DOMAINS, the only list of kinds, names each kind's class and size keys.
Everything downstream (solvers, section geometry, covering experiments) works on the
node sets produced here. A node is exactly one of: exterior, boundary-adjacent, or
interior. Interior nodes have their full 8-neighborhood inside the domain, so central
stencils never reach outside. fd_derivatives takes each entry from the first stencil
of a priority list whose nodes all lie in the domain: along an axis central, forward
3-point, backward 3-point (exact on quadratics), then forward and backward 2-point for
first derivatives; for the cross term the four-corner formula, then the 2x2 blocks NE,
SW, SE, NW. A node with no such stencil gets 0: the disc's four lattice poles.
"""

from __future__ import annotations

import copy
import numbers
import threading
import warnings
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy import ndimage


class LabError(Exception):
    """Base of the lab's own errors: invalid input, or a computation that cannot go on."""


class DomainError(LabError, ValueError):
    """Invalid domain description (unknown kind, bad shape parameters)."""


class GridError(LabError, ValueError):
    """Grid cannot be built under the requested spacing."""


class FieldError(LabError, ValueError):
    """Field values incompatible with the grid, or a norm with no finite values."""


_MEMBERSHIP_TOL = 1e-12
# Grid.nearest_in_domain searches this many nodes around the nearest grid node
_NEAR_WINDOW = 4
# guards the lookups of every build_once; builds run outside it
_ONCE_LOCK = threading.Lock()


def build_once(built: dict, key, build: Callable):
    """build()'s result, built by the first caller that asks for key and shared with the rest.

    One module lock guards only the lookups, so different keys build in
    parallel; later callers of a key wait for its result, or its exception.
    A later caller of a failed key gets a copy of the exception, raised from
    the stored one, so each traceback holds only its own caller's frames and
    the stored exception keeps the builder's.
    """
    with _ONCE_LOCK:
        slot = built.get(key)
        owner = slot is None
        if owner:
            slot = built[key] = Future()
    if owner:
        try:
            slot.set_result(build())
        except BaseException as exc:
            slot.set_exception(exc)
            raise
    exc = slot.exception()
    if exc is not None:
        raise copy.copy(exc) from exc
    return slot.result()


# ---------------------------------------------------------------------------
# domains
# ---------------------------------------------------------------------------


class ConvexDomain:
    """A bounded convex domain centered at the origin, the base of one class per kind.

    A kind holds its sizes and two constants, computed once when it is built:
    rho, the normalization constant min(interior tangent ball radius proxy,
    1 / enclosing ball radius), and uniform_convexity_modulus, the minimal
    boundary curvature. A flat-sided kind (the square) takes its inradius as
    the proxy and has modulus 0; the two are not blended. A kind provides
    five methods: contains(pts), the closed membership of an (..., 2) array
    of points; bbox(), the box (x0, x1, y0, y1); diameter();
    boundary_samples(m), m deterministic boundary points, roughly arc-length
    distributed; project_boundary(pts), the nearest boundary point, the
    distance (nonnegative) and the outward unit normal there, for points
    inside or outside.
    """

    rho: float
    uniform_convexity_modulus: float


class Disc(ConvexDomain):
    """x^2 + y^2 <= radius^2."""

    def __init__(self, radius: float):
        self.radius = radius
        self.rho = min(radius, 1.0 / radius)
        self.uniform_convexity_modulus = 1.0 / radius

    def contains(self, pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        x, y, r = pts[..., 0], pts[..., 1], self.radius
        return x * x + y * y <= r * r * (1.0 + _MEMBERSHIP_TOL) + _MEMBERSHIP_TOL

    def bbox(self) -> tuple[float, float, float, float]:
        return (-self.radius, self.radius, -self.radius, self.radius)

    def diameter(self) -> float:
        return 2.0 * self.radius

    def boundary_samples(self, m: int) -> np.ndarray:
        t = np.linspace(0.0, 2.0 * np.pi, m, endpoint=False)
        return np.stack([self.radius * np.cos(t), self.radius * np.sin(t)], axis=-1)

    def project_boundary(self, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        nrm = np.linalg.norm(pts, axis=-1)
        safe = np.where(nrm < 1e-300, 1.0, nrm)
        n = pts / safe[:, None]
        n[nrm < 1e-300] = np.array([0.0, 1.0])
        return self.radius * n, np.abs(nrm - self.radius), n


def _axis_nearest(q: np.ndarray, p: float, r: float) -> tuple[np.ndarray, np.ndarray]:
    """Nearest point (x, y), y >= 0, of (x/p)^2 + (y/r)^2 = 1 to each axis point (q, 0), q >= 0.

    It is the vertex (p, 0) when p <= r, and when p > r for q at or beyond
    the evolute's cusp (p^2 - r^2)/p; nearer the centre it lies off the axis.
    """
    if p > r:
        xc = np.where(q >= (p * p - r * r) / p, p, p * p * q / (p * p - r * r))
    else:
        xc = np.full(q.shape, p)
    return xc, r * np.sqrt(np.maximum(0.0, 1.0 - (xc / p) ** 2))


class Ellipse(ConvexDomain):
    """(x / a)^2 + (y / b)^2 <= 1: semi-axis a along x, b along y."""

    def __init__(self, a: float, b: float):
        self.a, self.b = a, b
        big, small = max(a, b), min(a, b)
        # tangent ball radius small^2/big, enclosing ball radius big
        self.rho = min(small * small / big, 1.0 / big)
        self.uniform_convexity_modulus = small / big**2

    def contains(self, pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        return (pts[..., 0] / self.a) ** 2 + (pts[..., 1] / self.b) ** 2 <= 1.0 + _MEMBERSHIP_TOL

    def bbox(self) -> tuple[float, float, float, float]:
        return (-self.a, self.a, -self.b, self.b)

    def diameter(self) -> float:
        return 2.0 * max(self.a, self.b)

    def boundary_samples(self, m: int) -> np.ndarray:
        t = np.linspace(0.0, 2.0 * np.pi, m, endpoint=False)
        return np.stack([self.a * np.cos(t), self.b * np.sin(t)], axis=-1)

    def project_boundary(self, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        a, b = self.a, self.b
        sx = np.where(pts[:, 0] >= 0, 1.0, -1.0)
        sy = np.where(pts[:, 1] >= 0, 1.0, -1.0)
        qx = np.abs(pts[:, 0])
        qy = np.abs(pts[:, 1])
        px = np.zeros_like(qx)
        py = np.zeros_like(qy)
        # generic branch: root of F(t) = (a qx/(t+a^2))^2 + (b qy/(t+b^2))^2 - 1,
        # monotone decreasing in t; nearest point is (a^2 qx/(t+a^2), b^2 qy/(t+b^2))
        gen = (qx > 1e-14) & (qy > 1e-14)
        if np.any(gen):
            gx, gy = qx[gen], qy[gen]
            lo = np.full(gx.shape, -min(a, b) ** 2 * (1.0 - 1e-12))
            hi = np.maximum(a * gx, b * gy) + max(a, b) ** 2
            for _ in range(100):
                mid = 0.5 * (lo + hi)
                f = (a * gx / (mid + a * a)) ** 2 + (b * gy / (mid + b * b)) ** 2 - 1.0
                lo = np.where(f > 0, mid, lo)
                hi = np.where(f > 0, hi, mid)
            t = 0.5 * (lo + hi)
            px[gen] = a * a * gx / (t + a * a)
            py[gen] = b * b * gy / (t + b * b)
        on_x = ~gen & (qy <= 1e-14)
        px[on_x], py[on_x] = _axis_nearest(qx[on_x], a, b)
        on_y = ~gen & (qx <= 1e-14) & (qy > 1e-14)
        py[on_y], px[on_y] = _axis_nearest(qy[on_y], b, a)
        proj = np.stack([sx * px, sy * py], axis=-1)
        grad = np.stack([proj[:, 0] / a**2, proj[:, 1] / b**2], axis=-1)
        gn = np.linalg.norm(grad, axis=-1, keepdims=True)
        gn[gn == 0] = 1.0
        normal = grad / gn
        dist = np.linalg.norm(pts - proj, axis=-1)
        return proj, dist, normal


class Square(ConvexDomain):
    """max(|x|, |y|) <= side / 2: axis-aligned and flat-sided."""

    def __init__(self, side: float):
        self.side = side
        self.rho = min(0.5 * side, 1.0 / (0.5 * side * np.sqrt(2.0)))  # inradius, circumradius
        self.uniform_convexity_modulus = 0.0

    def contains(self, pts: np.ndarray) -> np.ndarray:
        pts = np.abs(np.asarray(pts, dtype=float))
        half = 0.5 * self.side
        return np.maximum(pts[..., 0], pts[..., 1]) <= half * (1.0 + _MEMBERSHIP_TOL) + _MEMBERSHIP_TOL

    def bbox(self) -> tuple[float, float, float, float]:
        half = 0.5 * self.side
        return (-half, half, -half, half)

    def diameter(self) -> float:
        return self.side * np.sqrt(2.0)

    def boundary_samples(self, m: int) -> np.ndarray:
        half = 0.5 * self.side
        verts = np.array([[half, half], [-half, half], [-half, -half], [half, -half]])
        # walk the closed polyline
        seg = np.roll(verts, -1, axis=0) - verts
        lens = np.hypot(seg[:, 0], seg[:, 1])
        total = lens.sum()
        s = np.linspace(0.0, total, m, endpoint=False)
        cum = np.concatenate([[0.0], np.cumsum(lens)])
        idx = np.searchsorted(cum, s, side="right") - 1
        idx = np.clip(idx, 0, len(verts) - 1)
        frac = (s - cum[idx]) / lens[idx]
        return verts[idx] + seg[idx] * frac[:, None]

    def project_boundary(self, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        # a closed-domain point goes to the side of smallest gap, ties
        # in the order +x, -x, +y, -y; an exterior point is clipped to the box
        half = 0.5 * self.side
        x, y = pts[:, 0], pts[:, 1]
        side = np.argmin(np.stack([half - x, half + x, half - y, half + y], axis=-1), axis=-1)
        rows, axis = np.arange(len(pts)), side // 2
        sign = np.where(side % 2 == 0, 1.0, -1.0)
        proj = pts.copy()
        proj[rows, axis] = sign * half
        normal = np.zeros_like(pts)
        normal[rows, axis] = sign
        out = ~self.contains(pts)
        proj[out] = np.clip(pts[out], -half, half)
        d = pts[out] - proj[out]
        normal[out] = d / np.linalg.norm(d, axis=-1, keepdims=True)
        dist = np.linalg.norm(pts - proj, axis=-1)
        return proj, dist, normal


# each kind's class and the size keys build_domain passes to it, in order
DOMAINS = {
    "disc": (Disc, ("radius",)),
    "ellipse": (Ellipse, ("a", "b")),
    "square": (Square, ("side",)),
}


def build_domain(kind: str, **params) -> ConvexDomain:
    """The domain of a kind in DOMAINS, built from its size keys; other keys are ignored.

    Raises
    ------
    DomainError
        On an unknown kind, or a size that is missing, not a real number, not
        positive or not finite.
    """
    if kind not in DOMAINS:
        raise DomainError(f"unknown domain kind {kind!r}")
    cls, keys = DOMAINS[kind]
    sizes = [params.get(key) for key in keys]
    for key, x in zip(keys, sizes):
        # the type first: a comparison with text, None or a list would raise
        if not (isinstance(x, numbers.Real) and 0.0 < x < np.inf):
            raise DomainError(f"{kind} size {key!r} must be given, positive and finite; got {x}")
    return cls(*map(float, sizes))


# ---------------------------------------------------------------------------
# grids and masks
# ---------------------------------------------------------------------------


@dataclass
class Grid:
    """Uniform tensor grid over the domain's bounding box.

    Masks partition all nodes: exterior (outside the closed domain),
    boundary_adjacent (inside, but some 8-neighbor is exterior or off the
    array), interior (inside with the full 8-neighborhood inside).
    values[i, j] lives at (xs[i], ys[j]); cell_area = spacing**2.
    """

    domain: ConvexDomain
    spacing: float
    xs: np.ndarray
    ys: np.ndarray
    in_domain: np.ndarray
    interior: np.ndarray
    boundary_adjacent: np.ndarray
    # what Grid.once built for this grid (ma_solve's node layout and its
    # double-spacing grid); it lives and dies with the grid
    _built: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def once(self, key: str, build: Callable):
        """build()'s result for this grid, built by the first caller that asks for key."""
        return build_once(self._built, key, build)

    @property
    def cell_area(self) -> float:
        return self.spacing * self.spacing

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.xs), len(self.ys))

    def meshes(self) -> tuple[np.ndarray, np.ndarray]:
        return np.meshgrid(self.xs, self.ys, indexing="ij")

    def points(self, mask: Optional[np.ndarray] = None) -> np.ndarray:
        if mask is None:
            mask = self.in_domain
        X, Y = self.meshes()
        return np.stack([X[mask], Y[mask]], axis=-1)

    def nearest_node(self, p) -> tuple[int, int]:
        i = int(round((p[0] - self.xs[0]) / self.spacing))
        j = int(round((p[1] - self.ys[0]) / self.spacing))
        return (min(max(i, 0), len(self.xs) - 1), min(max(j, 0), len(self.ys) - 1))

    def nearest_in_domain(self, p) -> Optional[tuple[int, int]]:
        """The in-domain node nearest p within _NEAR_WINDOW nodes of nearest_node(p), or None."""
        i0, j0 = self.nearest_node(p)
        best = None
        best_d = np.inf
        for i in range(max(i0 - _NEAR_WINDOW, 0), min(i0 + _NEAR_WINDOW + 1, len(self.xs))):
            for j in range(max(j0 - _NEAR_WINDOW, 0), min(j0 + _NEAR_WINDOW + 1, len(self.ys))):
                if not self.in_domain[i, j]:
                    continue
                d = (self.xs[i] - p[0]) ** 2 + (self.ys[j] - p[1]) ** 2
                if d < best_d:
                    best_d = d
                    best = (i, j)
        return best

    def interp(self, values: np.ndarray, pts: np.ndarray) -> np.ndarray:
        """Bilinear interpolation of node values at arbitrary points.

        Cells touching exterior nodes carry NaN corners; sampling them yields
        NaN, which callers must either avoid or handle. Points outside the
        node lattice are NaN as well: bilinear weights are never extrapolated.
        """
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        h = self.spacing
        fx = (pts[:, 0] - self.xs[0]) / h
        fy = (pts[:, 1] - self.ys[0]) / h
        inside = (fx >= 0) & (fx <= len(self.xs) - 1) & (fy >= 0) & (fy <= len(self.ys) - 1)
        i = np.clip(np.floor(fx).astype(int), 0, len(self.xs) - 2)
        j = np.clip(np.floor(fy).astype(int), 0, len(self.ys) - 2)
        tx = fx - i
        ty = fy - j
        v00 = values[i, j]
        v10 = values[i + 1, j]
        v01 = values[i, j + 1]
        v11 = values[i + 1, j + 1]
        out = (1 - tx) * (1 - ty) * v00 + tx * (1 - ty) * v10 + (1 - tx) * ty * v01 + tx * ty * v11
        return np.where(inside, out, np.nan)


def discretize(domain: ConvexDomain, spacing: float) -> Grid:
    """Build the grid and its masks for a domain at the given spacing.

    A spacing at or above rho/4 builds the grid but warns (UserWarning):
    near-boundary stencils may degrade there.

    Raises
    ------
    GridError
        If spacing is not a positive number (NaN included), if the grid would
        hold more nodes than int32 node numbers reach (spacing too fine), or
        if it ends up with fewer than 16 interior nodes (spacing too coarse).
    """
    if not spacing > 0:
        raise GridError(f"spacing must be positive, got {spacing}")
    if domain.rho > 0 and spacing >= domain.rho / 4.0:
        warnings.warn(
            f"spacing {spacing} is not below rho/4 = {domain.rho / 4.0:.6g}; "
            "near-boundary stencils may degrade",
            stacklevel=2,
        )
    x0, x1, y0, y1 = domain.bbox()
    # node counts as floats first, so that a grid too large is refused before
    # any int or array is made
    nx = np.ceil((x1 - x0) / spacing - 1e-12) + 1
    ny = np.ceil((y1 - y0) / spacing - 1e-12) + 1
    if nx > np.iinfo(np.int32).max / ny:
        raise GridError(f"spacing {spacing} gives {nx:.3g} x {ny:.3g} nodes, "
                        "more than int32 node numbers reach")
    nx, ny = int(nx), int(ny)
    xs = x0 + spacing * np.arange(nx)
    ys = y0 + spacing * np.arange(ny)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    inside = domain.contains(np.stack([X, Y], axis=-1))
    # nodes off the array count as exterior neighbours
    interior = ndimage.binary_erosion(inside, np.ones((3, 3), bool), border_value=0)
    ring = inside & ~interior
    n_int = int(interior.sum())
    if n_int < 16:
        raise GridError(f"spacing too coarse: only {n_int} interior nodes (< 16)")
    return Grid(
        domain=domain,
        spacing=spacing,
        xs=xs,
        ys=ys,
        in_domain=inside,
        interior=interior,
        boundary_adjacent=ring,
    )


# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------


@dataclass
class ScalarField:
    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.grid.shape:
            raise FieldError(f"values shape {self.values.shape} != grid shape {self.grid.shape}")

    @classmethod
    def from_function(cls, grid: Grid, fn: Callable) -> "ScalarField":
        return cls(grid, np.where(grid.in_domain, coerce_samples(grid, fn), np.nan))


@dataclass
class VectorField:
    """Gradient field; quadratic_exact marks the nodes whose stencils are exact on quadratics."""

    grid: Grid
    gx: np.ndarray
    gy: np.ndarray
    quadratic_exact: np.ndarray


@dataclass
class MatrixField:
    """Symmetric 2x2 matrix field stored as the three entries xx, yy, xy."""

    grid: Grid
    xx: np.ndarray
    yy: np.ndarray
    xy: np.ndarray

    def det(self) -> np.ndarray:
        return self.xx * self.yy - self.xy * self.xy

    def eig_min(self) -> np.ndarray:
        mean = 0.5 * (self.xx + self.yy)
        rad = np.sqrt(np.maximum(0.25 * (self.xx - self.yy) ** 2 + self.xy**2, 0.0))
        return mean - rad


def coerce_samples(grid: Grid, f) -> np.ndarray:
    """Node samples of f on the grid: f may be a callable f(X, Y), a scalar, or an array of grid shape."""
    if callable(f):
        X, Y = grid.meshes()
        return np.asarray(f(X, Y), dtype=float) + np.zeros(grid.shape)
    arr = np.asarray(f, dtype=float)
    if arr.ndim == 0:
        return np.full(grid.shape, float(arr))
    if arr.shape != grid.shape:
        raise FieldError(f"sample array shape {arr.shape} != grid shape {grid.shape}")
    return arr


def coerce_datum(datum) -> Callable:
    """A boundary datum as a function of points: callables pass through, a scalar becomes a constant."""
    if callable(datum):
        return datum
    val = float(datum)
    return lambda pts: np.full(np.atleast_2d(pts).shape[0], val)


def _axis_derivatives(v: np.ndarray, steps: list, h: float):
    """First derivative, its exactness on quadratics and second derivative along one axis.

    steps holds the (values, mask) views 1, -1, 2 and -2 nodes along the axis.
    """
    (p, okp), (m, okm), (p2, okp2), (m2, okm2) = steps
    three_point = [okp & okm, okp & okp2, okm & okm2]
    first = np.select(three_point + [okp, okm], [
        (p - m) / (2 * h), (-3 * v + 4 * p - p2) / (2 * h), (3 * v - 4 * m + m2) / (2 * h),
        (p - v) / h, (v - m) / h])
    second = np.select(three_point, [
        (p - 2 * v + m) / (h * h), (v - 2 * p + p2) / (h * h), (v - 2 * m + m2) / (h * h)])
    return first, np.logical_or.reduce(three_point), second


def fd_derivatives(fld: ScalarField) -> tuple[VectorField, MatrixField]:
    """Gradient and symmetric Hessian by finite differences.

    Each entry comes from the first stencil in its priority list whose nodes
    all lie in the domain. Along each axis: central, forward 3-point,
    backward 3-point (exact on quadratics), then, for first derivatives only,
    forward 2-point and backward 2-point. Cross term: the four-corner formula,
    then the 2x2 blocks NE, SW, SE, NW. An in-domain node with no stencil in
    a list gets 0 for that entry. On the disc that happens at the four
    lattice poles on the boundary: gx and hxx at the two on the y-axis, gy
    and hyy at the two on the x-axis, hxy at all four. quadratic_exact marks
    the nodes whose two first derivatives both come from a 3-point stencil.
    Exterior nodes stay NaN.
    """
    g = fld.grid
    h = g.spacing
    nx, ny = g.shape
    vals = np.pad(np.where(g.in_domain, fld.values, np.nan), 2, constant_values=np.nan)
    mask = np.pad(g.in_domain, 2, constant_values=False)

    def at(di, dj):
        """The values and the mask di, dj nodes away from each node."""
        window = (slice(2 + di, 2 + di + nx), slice(2 + dj, 2 + dj + ny))
        return vals[window], mask[window]

    v, ok = at(0, 0)
    gx, gx_exact, hxx = _axis_derivatives(v, [at(k, 0) for k in (1, -1, 2, -2)], h)
    gy, gy_exact, hyy = _axis_derivatives(v, [at(0, k) for k in (1, -1, 2, -2)], h)
    (E, okE), (W, okW), (N, okN), (S, okS) = at(1, 0), at(-1, 0), at(0, 1), at(0, -1)
    (NE, okNE), (NW, okNW), (SE, okSE), (SW, okSW) = at(1, 1), at(-1, 1), at(1, -1), at(-1, -1)
    hxy = np.select(
        [okNE & okNW & okSE & okSW, okE & okN & okNE, okW & okS & okSW, okE & okS & okSE, okW & okN & okNW],
        [(NE + SW - NW - SE) / (4 * h * h), (NE - E - N + v) / (h * h), (SW - W - S + v) / (h * h),
         -(SE - E - S + v) / (h * h), -(NW - W - N + v) / (h * h)])
    gx, gy, hxx, hyy, hxy = (np.where(ok, a, np.nan) for a in (gx, gy, hxx, hyy, hxy))
    return VectorField(g, gx, gy, quadratic_exact=ok & gx_exact & gy_exact), MatrixField(g, hxx, hyy, hxy)


# ---------------------------------------------------------------------------
# norms and export
# ---------------------------------------------------------------------------


def lp_norm(grid: Grid, values: np.ndarray, p: float) -> float:
    """Riemann-sum L^p norm of node values over the in-domain nodes.

    Values off the domain are never read. p = inf gives the max norm.
    0 < p < 1 is accepted and computed by the same formula (a quasi-norm,
    used by the small-exponent experiments).
    """
    vals = values[grid.in_domain]
    vals = vals[np.isfinite(vals)]
    if vals.size == 0:
        raise FieldError("lp_norm: no finite values on the domain")
    if np.isinf(p):
        return float(np.max(np.abs(vals)))
    if p <= 0:
        raise FieldError(f"p must be positive, got {p}")
    return float((np.abs(vals) ** p).sum() * grid.cell_area) ** (1.0 / p)


def fmt_float(x) -> str:
    """Shortest round-trip decimal form, used for deterministic CSV output."""
    return repr(float(x))


def write_lines(path: str, lines) -> None:
    """Write the lines to path, each ended by a newline."""
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_field_csv(fld: ScalarField, path: str, mask: Optional[np.ndarray] = None) -> None:
    """Write (x, y, value) rows for masked nodes in row-major node order."""
    g = fld.grid
    if mask is None:
        mask = g.in_domain
    X, Y = g.meshes()
    # repr of a Python float is fmt_float; boolean indexing walks the mask in
    # row-major order, as argwhere does
    lines = ["x,y,value"]
    for x, y, v in zip(X[mask].tolist(), Y[mask].tolist(), fld.values[mask].tolist()):
        lines.append(f"{x!r},{y!r},{v!r}")
    write_lines(path, lines)
