"""Damped Newton solver for det D^2 phi = g with phi = 0 on the boundary of a convex domain.

Unknowns live at every in-domain node. Interior nodes carry the discrete
determinant equation (central second differences, four-corner cross term),
posed in convexified form so Newton cannot settle on a root whose node
Hessian is negative definite (see _convexified_parts; flat-sided domains
develop such roots at their corners). Boundary-adjacent nodes carry a data
equation: the value extrapolated linearly along the inward normal to the
nearest boundary point must match the boundary datum there: zero for the
Monge-Ampere solve, the caller's datum for the linearized solves of
lma_solve. That transfer is second-order accurate, which the convergence
targets require; evaluating the datum at the projection alone would only be
first-order.

Every PotentialField, solved or assembled from samples, is built from the
grid values of phi by one function (_potential_field): its derivatives are
fd_derivatives of those values; residual_max is max |det D^2 phi - g| over
the interior nodes; lam and Lam, the bounds lam <= det D^2 phi <= Lam of the
paper's hypotheses, are the min and max of g over the in-domain nodes; and
the convexity certificate tolerates Hessian eigenvalues down to
-_CONVEX_TOL * Lam. solve_ma raises when the certificate fails;
assemble_potential returns the field unchecked.

Newton is damped by an l2 Armijo line search. It tries its starts from one
ordered list and the result names the first that converges: "given", the
grid values of a caller that holds a nearby solution (PinchedFamily starts
every pinched density 1 + eps*g0 from the flat potential, natural-parameter
continuation in eps; Allgower and Georg 1990, ch. 2), then the two computed
starts: "laplacian", the solution of Delta phi0 = 2 sqrt(g), and "coarse",
a double-spacing solution prolonged by a cubic spline. Their order depends
on the domain alone, at every grid size. A uniformly convex domain tries
"laplacian", then "coarse". A domain with a flat boundary piece
(uniform_convexity_modulus == 0, the square) tries "coarse" first: its flat
sides make D^2 phi degenerate, and Newton from the isotropic Laplacian
start stalls there on fine grids. So each grid of a flat-sided domain is
solved from the next coarser one (nested iteration; Trottenberg, Oosterlee
and Schuller 2001), and its Laplacian start runs only on the coarsest grid
of that chain, where the double spacing raises GridError, or when the
coarse start fails. A coarse start on a grid with no coarser grid is
skipped. If no start converges, the last tried start's SolveError is raised.

Every linear system (Newton steps, the Laplacian start, every continuation
level, and the linearized solves of lma_solve) is a NodeSystem: the grid's
NodeLayout plus the boundary datum at the ring's boundary projections. The
layout is built once per Grid object and shared by every system on it; it
numbers the unknowns in geometric nested-dissection order, the fill-optimal
order on a regular mesh (George 1973), and fixes the CSC pattern that every
matrix on the grid is assembled into, so a Jacobian costs one scatter of its
nine stencil coefficients and no format conversion (the symbolic step done
once per pattern, the numeric step per matrix; Davis 2006, ch. 4-6). A
coarser continuation level is its own grid with its own layout, built once
per finer grid and freed with it. The LU keeps the nested-dissection order:
SuperLU runs with the natural column order and a zero diagonal-pivot
threshold, so it pivots on the diagonal unless a diagonal entry is exactly
zero (static pivoting, as in SuperLU_DIST; Li and Demmel 2003). The
smallest-pivot check still reports singular systems. Above _DIRECT_LIMIT
unknowns, linear_solve first tries an ILU-preconditioned BiCGSTAB, its ILU
in the same nested-dissection order. On every fine system measured that
attempt raises, after about 1 s on the square at 1/160 (1.5 s in scipy's
default COLAMD order; 2-core Xeon). The first time it falls back to the LU
on a NodeSystem, the system records it, and its later solves go straight to
the LU. One solve_ma call (its Laplacian start and every Newton step of
every start) is one system, and so is one solve_lma call.
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
    Grid,
    GridError,
    LabError,
    MatrixField,
    ScalarField,
    VectorField,
    coerce_datum,
    coerce_samples,
    discretize,
    fd_derivatives,
)

# above this many unknowns linear_solve tries an ILU-preconditioned BiCGSTAB
# before the LU, until the attempt fails once on the system (NodeSystem.ilu_failed)
_DIRECT_LIMIT = 257 * 257
# Newton's iteration budget and the smallest step fraction its line search tries
_MAX_ITER = 50
_DAMPING_MIN = 2.0**-16
# the convexity certificate tolerates eigenvalues down to -_CONVEX_TOL * Lam
_CONVEX_TOL = 1e-6
# floor on the linearized operator's diagonal coefficients; keeps the Newton
# systems elliptic where the Hessian iterate is still degenerate or indefinite
_ELLIPTIC_FLOOR = 1e-6


class SolveError(LabError, RuntimeError):
    """Solver failed: divergence, stall, singular system, or bad data."""


@dataclass
class ConvexityReport:
    min_eig: float
    location: tuple[float, float]
    passed: bool


@dataclass
class PotentialField:
    """A convex potential on grid (its domain is grid.domain), with its discrete derivatives and certificates."""

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
    newton_iterations: int
    # the Newton start that converged: "given" (the caller's values),
    # "laplacian" or "coarse"; an assembled potential reads "given", 0 iterations
    start: str


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


class NodeLayout:
    """The node bookkeeping of one grid, shared by every system solved on it.

    Unknowns are numbered in nested-dissection order (_nested_dissection);
    `node_ij` holds the lattice indices of each unknown. `stencil`, of shape
    (9, number of interior nodes), holds the unknowns of the interior nodes'
    nine-point stencils, one row per neighbour in the order C, E, W, N, S,
    NE, SW, NW, SE; its row C is `int_rows`, the interior rows. Ring row k
    holds the data equation
    (1 + r) U - r * sum_m w_m U[corner_m] = datum(proj) with r = ring_r[k],
    the bilinear weights ring_corner_w[k] of the unknowns
    ring_corner_idx[k], and proj = ring_proj[k], the ring node's boundary
    projection. Every index array is int32: the layout lives as long as its
    grid, and on the side-2 square at 1/160 it takes about 12 MB.

    Every system on the grid has one CSC pattern: `indptr` and `indices`
    (int32, read-only, shared by every matrix of the grid), `int_slots`, the
    data slots of the interior stencil entries, shaped and ordered like
    `stencil`, and the ring rows' constant values `ring_vals` at
    `ring_slots`. Entries are sorted by column, then row, with coinciding
    entries summed, as a COO to CSC conversion leaves them. A ring row with
    r = 0 (no probe) points its four zero corner entries at its own unknown,
    so they merge into its diagonal slot, whose value stays 1, and the
    pattern holds only real couplings. Pointed at one shared unknown, they
    would couple its column to every such row; on the square, where every
    ring row has r = 0, that defeats the nested dissection and adds 41-53 %
    to the LU fill on power-of-two grids. The layout holds no reference to
    its grid, so it is freed with it.
    """

    def __init__(self, grid: Grid):
        h = grid.spacing
        nx, ny = grid.shape
        self.h = h
        self.shape = grid.shape
        flat = -np.ones((nx, ny), dtype=np.int32)
        nodes = np.argwhere(grid.in_domain)
        nodes = nodes[_nested_dissection(nodes)]
        flat[nodes[:, 0], nodes[:, 1]] = np.arange(len(nodes))
        self.n = len(nodes)
        self.node_ij = nodes.astype(np.int32)

        ii, jj = np.nonzero(grid.interior)
        # a neighbour off the array reads -1, like one off the domain
        framed = np.pad(flat, 1, constant_values=-1)

        def nb(di, dj):
            return framed[ii + 1 + di, jj + 1 + dj]

        self.stencil = np.stack([nb(0, 0), nb(1, 0), nb(-1, 0), nb(0, 1), nb(0, -1),
                                 nb(1, 1), nb(-1, -1), nb(-1, 1), nb(1, -1)])
        self.int_rows = self.stencil[0]

        ri, rj = np.nonzero(grid.boundary_adjacent)
        rpts = np.stack([grid.xs[ri], grid.ys[rj]], axis=-1)
        proj, dist, normal = grid.domain.project_boundary(rpts)
        self.ring_rows = flat[ri, rj]
        self.ring_proj = proj
        n_ring = len(ri)
        corner_idx = np.repeat(self.ring_rows[:, None], 4, axis=1)
        corner_w = np.zeros((n_ring, 4))
        coef_r = np.zeros(n_ring)
        # each ring node takes the first probe distance s along the inward
        # normal whose bilinear cell is all unknowns; a node at distance 0,
        # or with no such s, keeps coef_r = 0 (plain projection transfer)
        # and zero corner weights on its own unknown
        todo = np.flatnonzero(~(dist <= 1e-12))
        s = 1.5 * h
        while s <= 4.0 * h + 1e-12 and todo.size:
            x2 = rpts[todo] - s * normal[todo]
            i0 = np.floor((x2[:, 0] - grid.xs[0]) / h)
            j0 = np.floor((x2[:, 1] - grid.ys[0]) / h)
            inside = (0 <= i0) & (i0 < nx - 1) & (0 <= j0) & (j0 < ny - 1)
            i0 = np.where(inside, i0, 0).astype(np.int64)
            j0 = np.where(inside, j0, 0).astype(np.int64)
            ids = np.stack([flat[i0, j0], flat[i0 + 1, j0], flat[i0, j0 + 1], flat[i0 + 1, j0 + 1]], axis=-1)
            ok = inside & np.all(ids >= 0, axis=1)
            k = todo[ok]
            tx = (x2[ok, 0] - grid.xs[i0[ok]]) / h
            ty = (x2[ok, 1] - grid.ys[j0[ok]]) / h
            corner_idx[k] = ids[ok]
            corner_w[k] = np.stack([(1 - tx) * (1 - ty), tx * (1 - ty), (1 - tx) * ty, tx * ty], axis=-1)
            coef_r[k] = dist[k] / s
            todo = todo[~ok]
            s += 0.5 * h
        self.ring_r = coef_r
        self.ring_corner_idx = corner_idx
        self.ring_corner_w = corner_w
        self._build_pattern()

    def _build_pattern(self):
        """indptr, indices and the data slots of the interior and ring entries."""
        n = self.n
        stencil = self.stencil
        if np.any(stencil < 0):
            raise SolveError("interior mask inconsistent: an interior node has a neighbor off the domain")
        ring_cols = np.concatenate([self.ring_corner_idx, self.ring_rows[:, None]], axis=1)
        ring_vals = np.concatenate([-self.ring_r[:, None] * self.ring_corner_w, 1.0 + self.ring_r[:, None]], axis=1)
        rows = np.concatenate([np.broadcast_to(self.int_rows, stencil.shape).ravel(), np.repeat(self.ring_rows, 5)])
        cols = np.concatenate([stencil.ravel(), ring_cols.ravel()])
        keys, slot = np.unique(cols.astype(np.int64) * n + rows, return_inverse=True)
        indptr = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(np.bincount(keys // n, minlength=n), out=indptr[1:])
        self.indptr = indptr
        self.indices = (keys % n).astype(np.int32)
        self.indptr.flags.writeable = self.indices.flags.writeable = False
        self.int_slots = slot[: stencil.size].reshape(stencil.shape).astype(np.int32)
        # coinciding ring entries (an r = 0 row's zero corners and its
        # diagonal) sum in entry order, each group starting from its first
        # value: 4 x (-0.0) + 1.0 = 1.0
        ring_slot = slot[stencil.size :]
        order = np.argsort(ring_slot, kind="stable")
        ring_slot = ring_slot[order]
        first = np.flatnonzero(np.r_[True, ring_slot[1:] != ring_slot[:-1]])
        self.ring_slots = ring_slot[first].astype(np.int32)
        self.ring_vals = np.add.reduceat(ring_vals.ravel()[order], first)

    def hessian_entries(self, U: np.ndarray):
        h2 = self.h * self.h
        C, E, W, N, S, NE, SW, NW, SE = self.stencil
        H11 = (U[E] - 2 * U[C] + U[W]) / h2
        H22 = (U[N] - 2 * U[C] + U[S]) / h2
        H12 = (U[NE] + U[SW] - U[NW] - U[SE]) / (4 * h2)
        return H11, H22, H12

    def to_grid_values(self, U: np.ndarray) -> np.ndarray:
        out = np.full(self.shape, np.nan)
        out[self.node_ij[:, 0], self.node_ij[:, 1]] = U
        return out


class NodeSystem:
    """One unknown per in-domain node: the grid's NodeLayout and one boundary datum.

    Interior rows hold PDE stencils; boundary-adjacent rows hold the
    normal-extrapolation data equations, which are linear and static. The
    layout is built by the first system on a Grid object and shared by every
    later one (Grid.once); the only per-datum part is ring_rhs, the datum at
    the ring's boundary projections.

    ilu_failed records that linear_solve's ILU attempt has fallen back to
    the LU on one of this system's matrices; its later solves then skip the
    attempt. The record lives on the system, not on the grid: solve_ma
    builds one system per call and solve_lma one per call, so a solve's path
    never depends on which solve ran before it on the same grid.
    """

    def __init__(self, grid: Grid, datum: Callable):
        self.layout = grid.once("node_layout", lambda: NodeLayout(grid))
        proj = self.layout.ring_proj
        self.ring_rhs = np.asarray(datum(proj), dtype=float) + np.zeros(len(proj))
        self.ilu_failed = False

    def rhs(self, interior_values: np.ndarray) -> np.ndarray:
        """Right-hand side with interior_values on the interior rows and the boundary data on the ring rows."""
        out = np.zeros(self.layout.n)
        out[self.layout.int_rows] = interior_values
        out[self.layout.ring_rows] = self.ring_rhs
        return out

    def ring_residual(self, U: np.ndarray) -> np.ndarray:
        lay = self.layout
        interp = (lay.ring_corner_w * U[lay.ring_corner_idx]).sum(axis=1)
        return (1.0 + lay.ring_r) * U[lay.ring_rows] - lay.ring_r * interp - self.ring_rhs

    def interior_matrix(self, c11, c22, c12) -> sp.csc_matrix:
        """Rows sum_ab c_ab D_ab at interior nodes plus the ring rows, in the layout's CSC pattern.

        c11, c22, c12 are arrays over interior nodes; the operator is
        c11 D_xx + c22 D_yy + 2 c12 D_xy.
        """
        lay = self.layout
        h2 = lay.h * lay.h
        s = lay.int_slots
        data = np.empty(len(lay.indices))
        data[lay.ring_slots] = lay.ring_vals
        data[s[0]] = -2 * (c11 + c22) / h2
        data[s[1:3]] = c11 / h2
        data[s[3:5]] = c22 / h2
        data[s[5:7]] = c12 / (2 * h2)
        data[s[7:9]] = -c12 / (2 * h2)
        return sp.csc_matrix((data, lay.indices, lay.indptr), shape=(lay.n, lay.n))


def _direct_solve(A: sp.csc_matrix, rhs: np.ndarray) -> np.ndarray:
    try:
        lu = spla.splu(A, permc_spec="NATURAL", diag_pivot_thresh=0.0)
    except RuntimeError as exc:
        diag = np.abs(A.diagonal())
        raise SolveError(f"singular system (smallest diagonal {diag.min():.3e}): {exc}") from exc
    piv = np.abs(lu.U.diagonal())
    if piv.min() <= 1e-14 * max(piv.max(), 1.0):
        # a factor must be freed on the thread that built it (scipy 1.17 keeps a
        # SuperLU's memory when another thread frees it), and build_once keeps
        # this error, with its traceback, for the whole run
        del lu
        raise SolveError(f"singular system: smallest pivot {piv.min():.3e}")
    return lu.solve(rhs)


def linear_solve(A: sp.csc_matrix, rhs: np.ndarray, system: NodeSystem) -> np.ndarray:
    """Direct sparse solve up to 257^2 unknowns; above that, an ILU attempt, then the same LU.

    A is one of system's matrices, in CSC form as NodeSystem assembles it,
    and neither branch converts it. The direct solve is an LU in the
    matrix's own order, which for NodeSystem matrices is nested dissection:
    no column permutation, and diagonal pivots unless a diagonal entry is
    exactly zero. Above the limit, spilu, in the same order, is tried as the
    preconditioner of BiCGSTAB, and the LU runs when spilu raises, the
    iteration does not converge or its result is not finite. That fallback
    sets system.ilu_failed, and every later solve of the system goes
    straight to the LU; a successful attempt is not recorded, so the next
    solve tries again. On the Newton and LMA systems of the bumped square at
    1/160 every spilu call raises ("Factor is exactly singular") after
    0.85-1.25 s (1.3-2.0 s in COLAMD order), as it does on every curved fine
    system measured (g = 1 at 1/160, the Laplacian start's and Newton's,
    0.7-0.9 s), so each system there makes one attempt. Both branches are
    deterministic. Raises SolveError on singular systems with the smallest
    pivot reported, and above the limit on a zero diagonal entry.
    """
    n = A.shape[0]
    if n <= _DIRECT_LIMIT:
        return _direct_solve(A, rhs)
    if np.any(A.diagonal() == 0):
        raise SolveError("zero diagonal entry in iterative branch")
    if system.ilu_failed:
        return _direct_solve(A, rhs)
    try:
        ilu = spla.spilu(A, drop_tol=1e-5, fill_factor=10.0, permc_spec="NATURAL")
        M = spla.LinearOperator(A.shape, matvec=ilu.solve)
        x, info = spla.bicgstab(A, rhs, rtol=1e-12, atol=0.0, maxiter=2000, M=M)
    except RuntimeError:
        info = -1
        x = None
    if info != 0 or x is None or not np.all(np.isfinite(x)):
        system.ilu_failed = True
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


def _newton_loop(sysm: "NodeSystem", g_int: np.ndarray, U: np.ndarray, tol_ma: float) -> tuple[np.ndarray, int]:
    """Damped Newton on the convexified system from the given start vector.

    Convergence is declared in the max norm; the line search accepts a step on
    sufficient decrease of the residual's l2 norm (the max norm is driven by
    single corner nodes and is not monotone along good Newton directions), a
    ufunc sum taken once per point: np.linalg.norm's BLAS dot runs its own
    thread team above about 10 000 entries, which contends with the run's pool
    workers. Serial runs are unaffected.
    """

    lay = sysm.layout

    def linearize(U):
        """The residual at U and its Jacobian coefficients (c11, c22, -H12), kept for the next step."""
        H11, H22, H12 = lay.hessian_entries(U)
        F_int, c11, c22 = _convexified_parts(H11, H22, H12, g_int)
        F = np.zeros(lay.n)
        F[lay.int_rows] = F_int
        F[lay.ring_rows] = sysm.ring_residual(U)
        return F, (c11, c22, -H12)

    res, coefs = linearize(U)
    res_norm = float(np.max(np.abs(res)))
    res_l2 = float(np.sqrt(np.sum(res * res)))
    iters = 0
    while res_norm > tol_ma:
        if iters >= _MAX_ITER:
            raise SolveError(f"Newton did not converge in {_MAX_ITER} iterations; last residual {res_norm:.3e}")
        step = linear_solve(sysm.interior_matrix(*coefs), -res, sysm)
        alpha = 1.0
        while True:
            trial = U + alpha * step
            new_res, new_coefs = linearize(trial)
            new_l2 = float(np.sqrt(np.sum(new_res * new_res)))
            if new_l2 < res_l2 * (1.0 - 1e-4 * alpha):
                break
            alpha *= 0.5
            if alpha < _DAMPING_MIN:
                raise SolveError(f"Newton line search stalled; residual {res_norm:.3e} after {iters} iterations")
        U, res, coefs, res_l2 = trial, new_res, new_coefs, new_l2
        res_norm = float(np.max(np.abs(res)))
        iters += 1
    return U, iters


def _fill_nearest(vals: np.ndarray) -> np.ndarray:
    """vals with each non-finite entry replaced by its nearest finite one."""
    hole = ~np.isfinite(vals)
    if hole.any():
        idx = ndimage.distance_transform_edt(hole, return_distances=False, return_indices=True)
        vals = vals[tuple(idx)]
    return vals


def _restrict_samples(fine: Grid, coarse: Grid, g) -> np.ndarray:
    """Density samples for the coarse grid when g was given as a fine array."""
    filled = _fill_nearest(np.asarray(g, dtype=float))
    pts = np.stack(coarse.meshes(), axis=-1).reshape(-1, 2)
    return _fill_nearest(fine.interp(filled, pts).reshape(coarse.shape))


def _continuation_init(grid: Grid, layout: NodeLayout, g, tol_ma: float) -> Optional[np.ndarray]:
    """Start vector from a double-spacing solve, prolonged by a cubic spline.

    Piecewise-linear prolongation is useless here: its kinks carry O(1)
    second differences that put the fine iterate outside the Newton basin.
    The spline is fit on the coarse lattice with exterior nodes filled from
    their nearest solved node. The coarse grid is built once per Grid object
    (Grid.once), or None when there is none: a kept GridError would hold the
    whole solve's frames through its traceback. Returns None then, so the
    caller goes on with its other starts.
    """

    def coarsen():
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                return discretize(grid.domain, 2.0 * grid.spacing)
        except GridError:
            return None

    coarse = grid.once("coarse_grid", coarsen)
    if coarse is None:
        return None
    g_coarse = _restrict_samples(grid, coarse, g) if isinstance(g, np.ndarray) and np.shape(g) == grid.shape else g
    coarse_pot = solve_ma(coarse, g_coarse, tol_ma=tol_ma)
    vals = _fill_nearest(coarse_pot.phi.values)
    spline = RectBivariateSpline(coarse.xs, coarse.ys, vals, kx=3, ky=3)
    return spline.ev(grid.xs[layout.node_ij[:, 0]], grid.ys[layout.node_ij[:, 1]])


def solve_ma(
    grid: Grid,
    g,
    tol_ma: float = 1e-8,
    start: Optional[np.ndarray] = None,
) -> PotentialField:
    """Solve det D^2 phi = g with phi = 0 on the boundary, certify convexity.

    The result's boundary_datum is that zero datum. lam and Lam are the min
    and max of g over the in-domain nodes, and the certificate tolerates
    eigenvalues down to -_CONVEX_TOL * Lam (see the module docstring). Newton
    runs at most _MAX_ITER iterations per start.

    Newton tries the given start, then "laplacian" and "coarse" on a
    uniformly convex domain, or "coarse" and "laplacian" on a domain with a
    flat boundary piece. The order is a property of the domain, the same at
    every grid size (see the module docstring).

    Parameters
    ----------
    g : callable, scalar, or array
        Right-hand side density; must be strictly positive on in-domain nodes.
    start : array of grid shape, optional
        Grid values of phi that Newton starts from, read at the in-domain
        nodes. If Newton fails from it, the solve goes on down its start
        list.

    Raises
    ------
    SolveError
        Nonpositive density; a start of the wrong shape or not finite on
        the domain; the last start's failure when none converges (Newton
        stall with the last residual in the message, iteration budget
        exhausted, or a singular system); or a failed convexity certificate.
    """
    g_vals = coerce_samples(grid, g)
    gd = g_vals[grid.in_domain]
    if np.any(~np.isfinite(gd)) or np.any(gd <= 0):
        raise SolveError(f"density must be positive on the domain (min {np.nanmin(gd):.3e})")
    datum = coerce_datum(0.0)
    sysm = NodeSystem(grid, datum)
    layout = sysm.layout
    g_int = g_vals[grid.interior]

    def laplacian_start():
        # smooth initial guess: Laplacian comparison solve, Delta phi0 = 2 sqrt(g)
        ones = np.ones_like(g_int)
        A0 = sysm.interior_matrix(ones, ones, np.zeros_like(g_int))
        return linear_solve(A0, sysm.rhs(2.0 * np.sqrt(g_int)), sysm)

    starts = []
    if start is not None:
        if np.shape(start) != grid.shape:
            raise SolveError(f"start has shape {np.shape(start)}, the grid {grid.shape}")
        U_given = np.asarray(start, dtype=float)[layout.node_ij[:, 0], layout.node_ij[:, 1]]
        if not np.all(np.isfinite(U_given)):
            raise SolveError("start must be finite at every in-domain node")
        starts.append(("given", lambda: U_given))
    laplacian = ("laplacian", laplacian_start)
    coarse = ("coarse", lambda: _continuation_init(grid, layout, g, tol_ma))
    # a flat boundary piece makes D^2 phi degenerate there, which Newton from
    # the isotropic Laplacian start cannot reach on fine grids
    starts += [coarse, laplacian] if grid.domain.uniform_convexity_modulus == 0.0 else [laplacian, coarse]

    # the Laplacian start converges or raises, so a list run to its end has a failure
    failure = None
    for used, make in starts:
        try:
            U0 = make()
            # None: no coarser grid; go on with the next start
            if U0 is not None:
                U, iters = _newton_loop(sysm, g_int, U0, tol_ma)
                break
        except SolveError as exc:
            failure = exc
    else:
        raise failure
    # a kept failure's traceback holds this frame and the failed Newton's
    # arrays: drop it, or the cycle keeps both alive until a garbage collection
    del failure

    pot, report = _potential_field(grid, layout.to_grid_values(U), g_vals, datum, iters, used)
    if not report.passed:
        raise SolveError(
            f"convexity certification failed: min eigenvalue {report.min_eig:.3e} at {report.location}"
        )
    return pot


def assemble_potential(grid: Grid, phi_fn, g=None) -> PotentialField:
    """Wrap analytic samples as a PotentialField without solving or certifying.

    Used for model potentials (for example |x|^2/2) whose derivatives the
    stencils reproduce exactly, and for saddle and two-well models, which a
    certificate would reject. The boundary datum is phi_fn itself; g defaults
    to the discrete det D^2 phi. lam, Lam, residual_max and convexity_margin
    are those of solve_ma (see the module docstring), so a solved potential's
    own values and density give back its field.
    """
    phi = ScalarField.from_function(grid, phi_fn)
    if g is None:
        g_vals = np.where(grid.in_domain, fd_derivatives(phi)[1].det(), np.nan)
    else:
        g_vals = coerce_samples(grid, g)
    datum = lambda pts: np.asarray(phi_fn(np.atleast_2d(pts)[:, 0], np.atleast_2d(pts)[:, 1]), dtype=float)
    return _potential_field(grid, phi.values, g_vals, datum, 0, "given")[0]


def _potential_field(grid: Grid, values: np.ndarray, g_vals: np.ndarray, datum: Callable,
                     iters: int, start: str) -> tuple[PotentialField, ConvexityReport]:
    """The PotentialField of phi's grid values, and its convexity certificate (module docstring)."""
    phi = ScalarField(grid, values)
    grad, hess = fd_derivatives(phi)
    residual_max = float(np.max(np.abs(hess.det()[grid.interior] - g_vals[grid.interior])))
    gd = g_vals[grid.in_domain]
    lam, Lam = float(np.min(gd)), float(np.max(gd))
    report = certify_convexity(hess, tol=_CONVEX_TOL * Lam)
    pot = PotentialField(grid=grid, phi=phi, grad=grad, hess=hess, g_values=g_vals, lam=lam, Lam=Lam,
                         convexity_margin=report.min_eig, residual_max=residual_max, boundary_datum=datum,
                         newton_iterations=iters, start=start)
    return pot, report


def cofactor_field(potential: PotentialField) -> MatrixField:
    """Cofactor of the discrete Hessian: entry swap with sign flip on the cross term.

    Satisfies Phi D^2 phi = det(D^2 phi) I exactly, entry by entry, because the
    2x2 cofactor is an algebraic rearrangement of the same stored values.
    """
    h = potential.hess
    return MatrixField(grid=potential.grid, xx=h.yy.copy(), yy=h.xx.copy(), xy=-h.xy)


def certify_convexity(hess: MatrixField, tol: float) -> ConvexityReport:
    """Minimum discrete Hessian eigenvalue over the interior nodes, with its location.

    Passes when that eigenvalue is at least -tol.
    """
    grid = hess.grid
    eigs = hess.eig_min()
    masked = np.where(grid.interior, eigs, np.inf)
    k = np.unravel_index(np.argmin(masked), masked.shape)
    min_eig = float(masked[k])
    loc = (float(grid.xs[k[0]]), float(grid.ys[k[1]]))
    return ConvexityReport(min_eig=min_eig, location=loc, passed=min_eig >= -tol)
