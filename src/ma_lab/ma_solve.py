"""Damped Newton solver for det D^2 phi = g with Dirichlet data on a convex domain.

Unknowns live at every in-domain node. Interior nodes carry the discrete
determinant equation (central second differences, four-corner cross term),
posed in convexified form so Newton cannot settle on a root whose node
Hessian is negative definite (see _convexified_parts; flat-sided domains
develop such roots at their corners). Boundary-adjacent nodes carry a data
equation: the value extrapolated linearly along the inward normal to the
nearest boundary point must match the boundary datum there. That transfer is
second-order accurate, which the convergence targets require; evaluating the
datum at the projection alone would only be first-order.

Newton is damped by an l2 Armijo line search and starts from the solution of
Delta phi0 = 2 sqrt(g); if that fails (corner layers at fine spacings), the
solve restarts once from a coarse-grid solution prolonged by a cubic spline.
Above the direct-solve limit it starts from the coarse-grid solution, and
the Laplacian start is built only if no coarser grid exists.

Every linear system (Newton steps, the Laplacian start, every continuation
level, and the linearized solves of lma_solve) is numbered by NodeSystem in
geometric nested-dissection order, the fill-optimal order on a regular mesh
(George 1973). The LU keeps that order: SuperLU runs with the natural column
order and a zero diagonal-pivot threshold, so it pivots on the diagonal
unless a diagonal entry is exactly zero (static pivoting, as in SuperLU_DIST;
Li and Demmel 2003). The smallest-pivot check still reports singular systems.
"""

from __future__ import annotations

import warnings

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from scipy import ndimage
from scipy.interpolate import RectBivariateSpline

from .domain_grid import (
    ConvexDomain,
    FieldError,
    Grid,
    GridError,
    MatrixField,
    ScalarField,
    VectorField,
    discretize,
    fd_derivatives,
)

_DIRECT_LIMIT = 257 * 257
# floor on the linearized operator's diagonal coefficients; keeps the Newton
# systems elliptic where the Hessian iterate is still degenerate or indefinite
_ELLIPTIC_FLOOR = 1e-6


class SolveError(RuntimeError):
    """Solver failed: divergence, stall, singular system, or bad data."""


@dataclass
class ConvexityReport:
    min_eig: float
    location: tuple[float, float]
    tol: float
    passed: bool


@dataclass
class SeparationReport:
    """Quadratic separation ratios r over boundary-band node pairs."""

    r_min: float
    r_max: float
    rho0: float
    n_pairs: int
    passed: bool
    flat_boundary_warning: bool


@dataclass
class PotentialField:
    """A convex potential with its discrete derivatives and certificates."""

    domain: ConvexDomain
    grid: Grid
    phi: ScalarField
    grad: VectorField
    hess: MatrixField
    g_values: np.ndarray
    lam: float
    Lam: float
    convexity_margin: float
    residual_max: float
    boundary_datum: Callable
    newton_iterations: int = 0

    def phi_at(self, pts: np.ndarray) -> np.ndarray:
        return self.grid.interp(self.phi.values, pts)


@dataclass
class CofactorField:
    """Cofactor matrix of the discrete Hessian; trace against D^2 u gives the operator."""

    grid: Grid
    xx: np.ndarray
    yy: np.ndarray
    xy: np.ndarray

    def det(self) -> np.ndarray:
        return self.xx * self.yy - self.xy * self.xy


# ---------------------------------------------------------------------------
# discrete system shared by the Newton solver and the linearized solver
# ---------------------------------------------------------------------------


_ND_LEAF = 64


def _nested_dissection(node_ij: np.ndarray) -> np.ndarray:
    """Permutation of lattice nodes into geometric nested-dissection order.

    The index box of the nodes is bisected along its longer axis at the
    median lattice line. Each half is numbered recursively, then the line,
    which the nine-point stencil cannot cross. Leaves of at most _ND_LEAF
    nodes keep their input (row-major) order. On a regular mesh this order
    gives O(n log n) fill and O(n^1.5) flops (George 1973).
    """
    parts = []

    def split(idx):
        if len(idx) <= _ND_LEAF:
            parts.append(idx)
            return
        ij = node_ij[idx]
        extent = ij.max(axis=0) - ij.min(axis=0)
        c = ij[:, 0 if extent[0] >= extent[1] else 1]
        mid = np.partition(c, len(c) // 2)[len(c) // 2]
        split(idx[c < mid])
        split(idx[c > mid])
        parts.append(idx[c == mid])

    split(np.arange(len(node_ij)))
    return np.concatenate(parts)


class NodeSystem:
    """Index bookkeeping for one unknown per in-domain node.

    Interior rows hold PDE stencils; boundary-adjacent rows hold the
    normal-extrapolation data equations. The ring rows are linear and static.
    Unknowns are numbered in nested-dissection order (_nested_dissection);
    `flat` maps lattice indices to unknowns and `node_ij` maps back.
    """

    def __init__(self, grid: Grid, datum: Callable):
        self.grid = grid
        h = grid.spacing
        nx, ny = grid.shape
        flat = -np.ones((nx, ny), dtype=np.int64)
        nodes = np.argwhere(grid.in_domain)
        nodes = nodes[_nested_dissection(nodes)]
        flat[nodes[:, 0], nodes[:, 1]] = np.arange(len(nodes))
        self.flat = flat
        self.n = len(nodes)
        self.node_ij = nodes

        ii, jj = np.nonzero(grid.interior)
        self.int_rows = flat[ii, jj]

        def nb(di, dj):
            return flat[ii + di, jj + dj]

        self.iC = self.int_rows
        self.iE, self.iW = nb(1, 0), nb(-1, 0)
        self.iN, self.iS = nb(0, 1), nb(0, -1)
        self.iNE, self.iNW = nb(1, 1), nb(-1, 1)
        self.iSE, self.iSW = nb(1, -1), nb(-1, -1)
        if np.any(self.iE < 0) or np.any(self.iNE < 0):
            raise SolveError("interior mask inconsistent: missing neighbor unknown")
        self.h = h

        ri, rj = np.nonzero(grid.boundary_adjacent)
        rpts = np.stack([grid.xs[ri], grid.ys[rj]], axis=-1)
        proj, dist, normal = grid.domain.project_boundary(rpts)
        self.ring_rows = flat[ri, rj]
        n_ring = len(ri)
        corner_idx = np.zeros((n_ring, 4), dtype=np.int64)
        corner_w = np.zeros((n_ring, 4))
        coef_r = np.zeros(n_ring)
        for k in range(n_ring):
            d = dist[k]
            if d <= 1e-12:
                continue
            placed = False
            s = 1.5 * h
            while s <= 4.0 * h + 1e-12:
                x2 = rpts[k] - s * normal[k]
                i0 = int(np.floor((x2[0] - grid.xs[0]) / h))
                j0 = int(np.floor((x2[1] - grid.ys[0]) / h))
                if 0 <= i0 < nx - 1 and 0 <= j0 < ny - 1:
                    ids = flat[i0 : i0 + 2, j0 : j0 + 2]
                    if np.all(ids >= 0):
                        tx = (x2[0] - grid.xs[i0]) / h
                        ty = (x2[1] - grid.ys[j0]) / h
                        corner_idx[k] = [ids[0, 0], ids[1, 0], ids[0, 1], ids[1, 1]]
                        corner_w[k] = [
                            (1 - tx) * (1 - ty),
                            tx * (1 - ty),
                            (1 - tx) * ty,
                            tx * ty,
                        ]
                        coef_r[k] = d / s
                        placed = True
                        break
                s += 0.5 * h
            if not placed:
                # fall back to plain projection transfer for this node
                coef_r[k] = 0.0
        self.ring_r = coef_r
        self.ring_corner_idx = corner_idx
        self.ring_corner_w = corner_w
        self.ring_rhs = np.asarray(datum(proj), dtype=float) + np.zeros(n_ring)

        rows = [np.repeat(self.ring_rows, 4), self.ring_rows]
        cols = [corner_idx.ravel(), self.ring_rows]
        vals = [(-coef_r[:, None] * corner_w).ravel(), 1.0 + coef_r]
        self._ring_trip = (np.concatenate(rows), np.concatenate(cols), np.concatenate(vals))

    # -- evaluation helpers -------------------------------------------------

    def hessian_entries(self, U: np.ndarray):
        h2 = self.h * self.h
        H11 = (U[self.iE] - 2 * U[self.iC] + U[self.iW]) / h2
        H22 = (U[self.iN] - 2 * U[self.iC] + U[self.iS]) / h2
        H12 = (U[self.iNE] + U[self.iSW] - U[self.iNW] - U[self.iSE]) / (4 * h2)
        return H11, H22, H12

    def ring_residual(self, U: np.ndarray) -> np.ndarray:
        interp = (self.ring_corner_w * U[self.ring_corner_idx]).sum(axis=1)
        return (1.0 + self.ring_r) * U[self.ring_rows] - self.ring_r * interp - self.ring_rhs

    def interior_matrix(self, c11, c22, c12) -> sp.csr_matrix:
        """Assemble rows sum_ab c_ab D_ab at interior nodes plus the ring rows.

        c11, c22, c12 are arrays over interior nodes; the operator is
        c11 D_xx + c22 D_yy + 2 c12 D_xy.
        """
        h2 = self.h * self.h
        r = self.int_rows
        rows = []
        cols = []
        vals = []

        def add(col, val):
            rows.append(r)
            cols.append(col)
            vals.append(val)

        add(self.iC, -2 * (c11 + c22) / h2)
        add(self.iE, c11 / h2)
        add(self.iW, c11 / h2)
        add(self.iN, c22 / h2)
        add(self.iS, c22 / h2)
        add(self.iNE, c12 / (2 * h2))
        add(self.iSW, c12 / (2 * h2))
        add(self.iNW, -c12 / (2 * h2))
        add(self.iSE, -c12 / (2 * h2))
        tr_r, tr_c, tr_v = self._ring_trip
        rows.append(tr_r)
        cols.append(tr_c)
        vals.append(tr_v)
        A = sp.csr_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(self.n, self.n),
        )
        return A

    def to_grid_values(self, U: np.ndarray) -> np.ndarray:
        out = np.full(self.grid.shape, np.nan)
        out[self.node_ij[:, 0], self.node_ij[:, 1]] = U
        return out


def _direct_solve(A: sp.csr_matrix, rhs: np.ndarray) -> np.ndarray:
    try:
        lu = spla.splu(A.tocsc(), permc_spec="NATURAL", diag_pivot_thresh=0.0)
    except RuntimeError as exc:
        diag = np.abs(A.diagonal())
        raise SolveError(f"singular system (smallest diagonal {diag.min():.3e}): {exc}") from exc
    piv = np.abs(lu.U.diagonal())
    if piv.min() <= 1e-14 * max(piv.max(), 1.0):
        raise SolveError(f"singular system: smallest pivot {piv.min():.3e}")
    return lu.solve(rhs)


def linear_solve(A: sp.csr_matrix, rhs: np.ndarray) -> np.ndarray:
    """Direct sparse solve up to 257^2 unknowns, preconditioned Krylov beyond.

    The direct solve is an LU in the matrix's own order, which for NodeSystem
    matrices is nested dissection: no column permutation, and diagonal
    pivots unless a diagonal entry is exactly zero. The Krylov branch uses
    an incomplete-LU preconditioner (the assembled operator is nonsymmetric
    at the boundary ring, where plain diagonal scaling stalls) and falls
    back to the direct factorization if the iteration does not converge.
    Both branches are deterministic. Raises SolveError on singular systems
    with the smallest pivot reported.
    """
    n = A.shape[0]
    if n <= _DIRECT_LIMIT:
        return _direct_solve(A, rhs)
    if np.any(A.diagonal() == 0):
        raise SolveError("zero diagonal entry in iterative branch")
    try:
        ilu = spla.spilu(A.tocsc(), drop_tol=1e-5, fill_factor=10.0)
        M = spla.LinearOperator(A.shape, matvec=ilu.solve)
        x, info = spla.bicgstab(A, rhs, rtol=1e-12, atol=0.0, maxiter=2000, M=M)
    except RuntimeError:
        info = -1
        x = None
    if info != 0 or x is None or not np.all(np.isfinite(x)):
        return _direct_solve(A, rhs)
    return x


# ---------------------------------------------------------------------------
# the Newton solver
# ---------------------------------------------------------------------------


def _convexified_parts(H11, H22, H12, g_int):
    """Residual and Jacobian coefficients of the convexified determinant.

    The plain determinant H11*H22 - H12^2 = g has spurious roots whose node
    Hessian is negative definite; an iterate that lands on one still zeroes
    the residual but fails the convexity certificate. Replacing the equation
    by max(H11,0)*max(H22,0) - H12^2 + min(H11,0) + min(H22,0) = g keeps
    every positive-definite root (both factors unclipped, the min terms
    vanish, and det = g > 0 with H11 > 0 forces definiteness) while any root
    with H11 <= 0 or H22 <= 0 would need H11 + H22 = g + H12^2 > 0, which
    its own sign pattern contradicts. The returned diagonal coefficients are
    the exact partial derivatives, floored to keep the linearization elliptic.
    """
    pos11 = np.maximum(H11, 0.0)
    pos22 = np.maximum(H22, 0.0)
    F = pos11 * pos22 - H12 * H12 + np.minimum(H11, 0.0) + np.minimum(H22, 0.0) - g_int
    c11 = np.maximum(np.where(H11 > 0.0, pos22, 1.0), _ELLIPTIC_FLOOR)
    c22 = np.maximum(np.where(H22 > 0.0, pos11, 1.0), _ELLIPTIC_FLOOR)
    return F, c11, c22


def _newton_loop(sysm: "NodeSystem", g_int: np.ndarray, U: np.ndarray,
                 tol_ma: float, max_iter: int, damping_min: float) -> tuple[np.ndarray, int]:
    """Damped Newton on the convexified system from the given start vector.

    Convergence is declared in the max norm; the line search accepts a step
    on sufficient decrease of the residual's l2 norm (the max norm is driven
    by single corner nodes and is not monotone along good Newton directions).
    """

    def residual(U):
        H11, H22, H12 = sysm.hessian_entries(U)
        F = np.zeros(sysm.n)
        F[sysm.int_rows] = _convexified_parts(H11, H22, H12, g_int)[0]
        F[sysm.ring_rows] = sysm.ring_residual(U)
        return F

    res = residual(U)
    res_norm = float(np.max(np.abs(res)))
    iters = 0
    while res_norm > tol_ma:
        if iters >= max_iter:
            raise SolveError(f"Newton did not converge in {max_iter} iterations; last residual {res_norm:.3e}")
        H11, H22, H12 = sysm.hessian_entries(U)
        _, c11, c22 = _convexified_parts(H11, H22, H12, g_int)
        J = sysm.interior_matrix(c11, c22, -H12)
        step = linear_solve(J, -res)
        res_l2 = float(np.linalg.norm(res))
        alpha = 1.0
        while True:
            trial = U + alpha * step
            new_res = residual(trial)
            if float(np.linalg.norm(new_res)) < res_l2 * (1.0 - 1e-4 * alpha):
                break
            alpha *= 0.5
            if alpha < damping_min:
                raise SolveError(f"Newton line search stalled; residual {res_norm:.3e} after {iters} iterations")
        U = trial
        res = new_res
        res_norm = float(np.max(np.abs(res)))
        iters += 1
    return U, iters


def _restrict_samples(fine: Grid, coarse: Grid, g) -> np.ndarray:
    """Density samples for the coarse grid when g was given as a fine array."""
    vals = np.asarray(g, dtype=float)
    filled = vals.copy()
    hole = ~np.isfinite(filled)
    if hole.any():
        idx = ndimage.distance_transform_edt(hole, return_distances=False, return_indices=True)
        filled = filled[tuple(idx)]
    pts = np.stack(coarse.meshes(), axis=-1).reshape(-1, 2)
    out = fine.interp(filled, pts).reshape(coarse.shape)
    hole = ~np.isfinite(out)
    if hole.any():
        idx = ndimage.distance_transform_edt(hole, return_distances=False, return_indices=True)
        out = out[tuple(idx)]
    return out


def _continuation_init(grid: Grid, sysm: "NodeSystem", g, boundary,
                       tol_ma: float, max_iter: int, damping_min: float) -> Optional[np.ndarray]:
    """Start vector from a double-spacing solve, prolonged by a cubic spline.

    Piecewise-linear prolongation is useless here: its kinks carry O(1)
    second differences that put the fine iterate outside the Newton basin.
    The spline is fit on the coarse lattice with exterior nodes filled from
    their nearest solved node. Returns None when no usable coarser grid
    exists, so the caller re-raises the original failure.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            coarse = discretize(grid.domain, 2.0 * grid.spacing)
    except GridError:
        return None
    g_coarse = _restrict_samples(grid, coarse, g) if isinstance(g, np.ndarray) and np.shape(g) == grid.shape else g
    coarse_pot = solve_ma(coarse, g_coarse, boundary, tol_ma=tol_ma,
                          max_iter=max_iter, damping_min=damping_min)
    vals = coarse_pot.phi.values.copy()
    hole = ~np.isfinite(vals)
    if hole.any():
        idx = ndimage.distance_transform_edt(hole, return_distances=False, return_indices=True)
        vals = vals[tuple(idx)]
    spline = RectBivariateSpline(coarse.xs, coarse.ys, vals, kx=3, ky=3)
    return spline.ev(grid.xs[sysm.node_ij[:, 0]], grid.ys[sysm.node_ij[:, 1]])


def _coerce_samples(grid: Grid, f) -> np.ndarray:
    if callable(f):
        X, Y = grid.meshes()
        return np.asarray(f(X, Y), dtype=float) + np.zeros(grid.shape)
    arr = np.asarray(f, dtype=float)
    if arr.ndim == 0:
        return np.full(grid.shape, float(arr))
    if arr.shape != grid.shape:
        raise FieldError(f"sample array shape {arr.shape} != grid shape {grid.shape}")
    return arr


def _coerce_datum(datum) -> Callable:
    if callable(datum):
        return datum
    val = float(datum)
    return lambda pts: np.full(np.atleast_2d(pts).shape[0], val)


def solve_ma(
    grid: Grid,
    g,
    boundary=0.0,
    lam: Optional[float] = None,
    Lam: Optional[float] = None,
    tol_ma: float = 1e-8,
    max_iter: int = 50,
    damping_min: float = 2.0**-16,
    tol_convex_factor: float = 1e-6,
) -> PotentialField:
    """Solve det D^2 phi = g with Dirichlet datum `boundary`, certify convexity.

    Parameters
    ----------
    g : callable, scalar, or array
        Right-hand side density; must be strictly positive on in-domain nodes.
    boundary : callable or scalar
        Dirichlet datum evaluated at boundary points.

    Raises
    ------
    SolveError
        Nonpositive density, Newton stall (with the last residual in the
        message), iteration budget exhausted, or failed convexity certificate.
    """
    g_vals = _coerce_samples(grid, g)
    gd = g_vals[grid.in_domain]
    if np.any(~np.isfinite(gd)) or np.any(gd <= 0):
        raise SolveError(f"density must be positive on the domain (min {np.nanmin(gd):.3e})")
    datum = _coerce_datum(boundary)
    sysm = NodeSystem(grid, datum)
    g_int = g_vals[grid.interior]

    def laplacian_start():
        # smooth initial guess: Laplacian comparison solve, Delta phi0 = 2 sqrt(g)
        ones = np.ones_like(g_int)
        A0 = sysm.interior_matrix(ones, ones, np.zeros_like(g_int))
        rhs0 = np.zeros(sysm.n)
        rhs0[sysm.int_rows] = 2.0 * np.sqrt(g_int)
        rhs0[sysm.ring_rows] = sysm.ring_rhs
        return linear_solve(A0, rhs0)

    if sysm.n > _DIRECT_LIMIT:
        # every Newton iterate is expensive here; start from a coarse-grid
        # solve instead of burning iterations on the smooth initial guess
        U1 = _continuation_init(grid, sysm, g, boundary, tol_ma, max_iter, damping_min)
        U, iters = _newton_loop(sysm, g_int, U1 if U1 is not None else laplacian_start(),
                                tol_ma, max_iter, damping_min)
    else:
        U0 = laplacian_start()
        try:
            U, iters = _newton_loop(sysm, g_int, U0, tol_ma, max_iter, damping_min)
        except SolveError:
            # corner layers of flat-sided domains can defeat the smooth
            # initial guess at fine spacings; retry from a coarse-grid solve
            U1 = _continuation_init(grid, sysm, g, boundary, tol_ma, max_iter, damping_min)
            if U1 is None:
                raise
            U, iters = _newton_loop(sysm, g_int, U1, tol_ma, max_iter, damping_min)

    vals = sysm.to_grid_values(U)
    phi = ScalarField(grid, vals)
    grad, hess = fd_derivatives(phi)
    det_int = (hess.xx * hess.yy - hess.xy**2)[grid.interior]
    residual_max = float(np.max(np.abs(det_int - g_int)))
    lam_eff = float(np.min(gd)) if lam is None else float(lam)
    Lam_eff = float(np.max(gd)) if Lam is None else float(Lam)
    report = certify_convexity(hess, grid.interior, tol=tol_convex_factor * Lam_eff)
    if not report.passed:
        raise SolveError(
            f"convexity certification failed: min eigenvalue {report.min_eig:.3e} at {report.location}"
        )
    return PotentialField(
        domain=grid.domain,
        grid=grid,
        phi=phi,
        grad=grad,
        hess=hess,
        g_values=g_vals,
        lam=lam_eff,
        Lam=Lam_eff,
        convexity_margin=report.min_eig,
        residual_max=residual_max,
        boundary_datum=datum,
        newton_iterations=iters,
    )


def assemble_potential(grid: Grid, phi_fn, g=None, lam=None, Lam=None, datum=None) -> PotentialField:
    """Wrap analytic samples as a PotentialField without solving.

    Used for model potentials (for example |x|^2/2) whose derivatives the
    stencils reproduce exactly. The boundary datum defaults to phi_fn itself.
    """
    phi = ScalarField.from_function(grid, phi_fn)
    grad, hess = fd_derivatives(phi)
    det = hess.xx * hess.yy - hess.xy**2
    if g is None:
        g_vals = np.where(grid.in_domain, det, np.nan)
    else:
        g_vals = _coerce_samples(grid, g)
    gd = g_vals[grid.interior]
    lam_eff = float(np.nanmin(gd)) if lam is None else float(lam)
    Lam_eff = float(np.nanmax(gd)) if Lam is None else float(Lam)
    res = float(np.nanmax(np.abs(det[grid.interior] - gd)))
    if datum is None:
        datum = lambda pts: np.asarray(phi_fn(np.atleast_2d(pts)[:, 0], np.atleast_2d(pts)[:, 1]), dtype=float)
    report = certify_convexity(hess, grid.interior, tol=1e-6 * max(abs(Lam_eff), 1.0))
    return PotentialField(
        domain=grid.domain,
        grid=grid,
        phi=phi,
        grad=grad,
        hess=hess,
        g_values=g_vals,
        lam=lam_eff,
        Lam=Lam_eff,
        convexity_margin=report.min_eig,
        residual_max=res,
        boundary_datum=datum,
        newton_iterations=0,
    )


def cofactor_field(potential: PotentialField) -> CofactorField:
    """Cofactor of the discrete Hessian: entry swap with sign flip on the cross term.

    Satisfies Phi D^2 phi = det(D^2 phi) I exactly, entry by entry, because the
    2x2 cofactor is an algebraic rearrangement of the same stored values.
    """
    h = potential.hess
    return CofactorField(grid=potential.grid, xx=h.yy.copy(), yy=h.xx.copy(), xy=-h.xy)


def certify_convexity(hess: MatrixField, region: Optional[np.ndarray] = None, tol: float = 1e-6) -> ConvexityReport:
    """Minimum discrete Hessian eigenvalue over a region, with its location."""
    grid = hess.grid
    if region is None:
        region = grid.interior
    eigs = hess.eig_min()
    masked = np.where(region, eigs, np.inf)
    k = np.unravel_index(np.argmin(masked), masked.shape)
    min_eig = float(masked[k])
    loc = (float(grid.xs[k[0]]), float(grid.ys[k[1]]))
    return ConvexityReport(min_eig=min_eig, location=loc, tol=tol, passed=min_eig >= -tol)


def quadratic_separation_check(
    potential: PotentialField,
    min_sep_factor: float = 8.0,
    rho_floor: float = 0.01,
    max_band_nodes: int = 1200,
) -> SeparationReport:
    """Separation ratios r = [phi(x) - phi(x0) - grad phi(x0).(x - x0)] / |x - x0|^2
    over pairs of boundary-band nodes.

    The boundary-adjacent nodes stand in for boundary points; their one-sided
    stencils are exact on quadratics, so model potentials give exact ratios.
    Pairs closer than min_sep_factor * spacing are skipped (the ratio there is
    dominated by stencil noise). Passing requires min r >= rho_floor with a
    finite max; a flat-sided domain yields a warning, not a failure to run.
    """
    grid = potential.grid
    flat = potential.domain.uniform_convexity_modulus == 0.0
    if flat:
        warnings.warn(
            "domain has flat boundary pieces; quadratic separation cannot hold "
            "uniformly there, running the check anyway", UserWarning)
    band = grid.boundary_adjacent
    if potential.grad.quadratic_exact is not None:
        band = band & potential.grad.quadratic_exact
    ri, rj = np.nonzero(band)
    if len(ri) > max_band_nodes:
        stride = int(np.ceil(len(ri) / max_band_nodes))
        ri, rj = ri[::stride], rj[::stride]
    pts = np.stack([grid.xs[ri], grid.ys[rj]], axis=-1)
    phiv = potential.phi.values[ri, rj]
    gx = potential.grad.gx[ri, rj]
    gy = potential.grad.gy[ri, rj]
    dx = pts[None, :, 0] - pts[:, None, 0]
    dy = pts[None, :, 1] - pts[:, None, 1]
    d2 = dx * dx + dy * dy
    gap = phiv[None, :] - phiv[:, None] - gx[:, None] * dx - gy[:, None] * dy
    min_sep = min_sep_factor * grid.spacing
    sel = d2 >= min_sep * min_sep
    if not np.any(sel):
        raise FieldError("no boundary pairs at the requested separation")
    r = gap[sel] / d2[sel]
    r_min = float(np.min(r))
    r_max = float(np.max(r))
    rho0 = min(r_min, 1.0 / r_max) if r_max > 0 else r_min
    passed = bool(np.isfinite(r_max) and r_min >= rho_floor)
    return SeparationReport(
        r_min=r_min,
        r_max=r_max,
        rho0=rho0,
        n_pairs=int(sel.sum()),
        passed=passed,
        flat_boundary_warning=flat,
    )
