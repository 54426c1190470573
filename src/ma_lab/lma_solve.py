"""Nine-point non-divergence solver for trace(Phi D^2 u) = f.

Phi is a cofactor coefficient field (from ma_solve) or any symmetric positive
coefficient field. No upwinding is applied: in the pinched-density regime the
cross term is small next to the diagonal, which keeps the stencil close to an
M-matrix; monotonicity is not guaranteed far from that regime and the maximum
principle is checked empirically by the tests rather than assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .domain_grid import FieldError, MatrixField, ScalarField, coerce_datum, coerce_samples, fd_derivatives, lp_norm
from .ma_solve import NodeSystem, PotentialField, SolveError, cofactor_field, linear_solve


@dataclass
class LmaSolution:
    """A linearized solve: u on the grid, the sampled right-hand side and the residual.

    The grid is u.grid. Callers that need derivatives of u take them with
    fd_derivatives(u).
    """

    u: ScalarField
    f_values: np.ndarray
    residual_max: float


def solve_lma(
    operator: Union[MatrixField, PotentialField],
    f,
    boundary=0.0,
    tol_lma: float = 1e-8,
) -> LmaSolution:
    """Solve trace(Phi D^2 u) = f with Dirichlet datum `boundary`.

    Raises
    ------
    SolveError
        If the assembled system is singular (the smallest pivot is reported).
    """
    cof = cofactor_field(operator) if isinstance(operator, PotentialField) else operator
    grid = cof.grid
    f_vals = coerce_samples(grid, f)
    datum = coerce_datum(boundary)
    sysm = NodeSystem(grid, datum)
    c11 = cof.xx[grid.interior]
    c22 = cof.yy[grid.interior]
    c12 = cof.xy[grid.interior]
    if np.any(~np.isfinite(c11)) or np.any(~np.isfinite(c22)) or np.any(~np.isfinite(c12)):
        raise SolveError("coefficient field holds non-finite interior values")
    A = sysm.interior_matrix(c11, c22, c12)
    rhs = sysm.rhs(f_vals[grid.interior])
    U = linear_solve(A, rhs, sysm)
    resid = A @ U - rhs
    int_rows = sysm.layout.int_rows
    residual_max = float(np.max(np.abs(resid[int_rows]))) if len(int_rows) else 0.0
    if residual_max > max(tol_lma, 1e-9 * max(1.0, float(np.max(np.abs(rhs))))):
        raise SolveError(f"linear solve residual {residual_max:.3e} above tolerance {tol_lma:.3e}")
    vals = sysm.layout.to_grid_values(U)
    return LmaSolution(u=ScalarField(grid, vals), f_values=f_vals, residual_max=residual_max)


def operator_apply(cof: MatrixField, u: ScalarField) -> np.ndarray:
    """Node-wise trace(Phi D^2 u) from the discrete Hessian of u."""
    _, hess = fd_derivatives(u)
    return cof.xx * hess.xx + cof.yy * hess.yy + 2.0 * cof.xy * hess.xy


def abp_check(solution: LmaSolution) -> float:
    """The scale-invariant maximum-principle ratio of a solve, as a float.

    R = ||u||_inf / (diam * ||f||_{L^2}), with diam the domain's diameter;
    dimension 2 fixes the f-norm exponent. A vanishing f forces a vanishing
    solution under zero boundary data, so that case reports R = 0; a
    vanishing f under a nonzero solution has no finite ratio and raises
    FieldError.
    """
    grid = solution.u.grid
    f_l2 = lp_norm(grid, solution.f_values, 2.0)
    u_inf = lp_norm(grid, solution.u.values, np.inf)
    diam = grid.domain.diameter()
    if f_l2 == 0.0:
        if u_inf <= 1e-12:
            return 0.0
        raise FieldError("ABP ratio undefined: f vanishes but the solution does not")
    return u_inf / (diam * f_l2)
