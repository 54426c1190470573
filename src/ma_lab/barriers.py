"""Explicit boundary supersolutions.

The supersolution lives on the patch of the domain within delta of a boundary
point, in the affine frame that puts that point at the origin with the inner
normal along the second axis; build_supersolution makes that frame itself
(section_geom.boundary_frame), so the potential is normalized by it by
construction. Its closed form combines the normalized potential with a
linear lift minus two quadratic penalties, with the constants of the planar
case n = _DIM = 2; the verifier measures both sides of the three defining
inequalities, node-wise and on sampled boundary pieces, and the barrier
experiment decides them.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .domain_grid import LabError, ScalarField
from .ma_solve import PotentialField, cofactor_field
from .lma_solve import operator_apply
from .section_geom import BoundaryFrame, boundary_frame, phi_extended


class BarrierError(LabError, ValueError):
    pass


# the interior check allows this fraction of n*Lam for discretization error
_TOL_FACTOR = 0.1
# boundary points sampled on the domain boundary and on the patch circle
_N_BOUNDARY_SAMPLES = 256
# the dimension n of the barrier constants; the grids are planar
_DIM = 2


@dataclass
class BarrierReport:
    """Both sides of the three supersolution inequalities; no verdict.

    interior: interior_max <= threshold, over n_interior patch nodes;
    domain boundary: boundary_min >= -boundary_tol;
    patch circle: circle_min >= Barrier.delta_tilde - circle_tol.
    """

    threshold: float
    interior_max: float
    n_interior: int
    boundary_min: float
    boundary_tol: float
    circle_min: float
    circle_tol: float


@dataclass
class Barrier:
    delta: float
    delta_tilde: float
    M_delta: float
    K: float
    Lam: float
    frame: BoundaryFrame
    w: ScalarField
    mask: np.ndarray


def _barrier_coefficients(lam: float, Lam: float, delta: float) -> tuple[float, float, float]:
    n = _DIM
    delta_tilde = delta ** 3 / 2.0
    M_delta = (2.0 ** (n - 1) * Lam ** n / lam ** (n - 1)) * delta ** (-(3 * n - 3))
    K = Lam ** n / (lam * delta_tilde) ** (n - 1)
    return delta_tilde, M_delta, K


def _closed_form(M_delta: float, delta_tilde: float, K: float, ys: np.ndarray, gap) -> np.ndarray:
    """w = M_delta*y2 + gap - delta_tilde*y1**2 - K*y2**2 at frame coordinates ys[..., :2]."""
    y1, y2 = ys[..., 0], ys[..., 1]
    return M_delta * y2 + gap - delta_tilde * y1 ** 2 - K * y2 ** 2


def build_supersolution(
    potential: PotentialField,
    point,
    lam: Optional[float] = None,
    Lam: Optional[float] = None,
    delta: float = 0.5,
) -> Barrier:
    """Assemble the explicit supersolution on the boundary patch of radius delta.

    The frame is boundary_frame(potential, point): its origin is the boundary
    projection of point, and its tangent data is the potential's datum and
    gradient there. The field is evaluated on every in-domain node so that
    difference stencils at the edge of the patch still see real values;
    `mask` marks the patch itself.
    """
    grid = potential.grid
    if lam is None:
        lam = potential.lam
    if Lam is None:
        Lam = potential.Lam
    if not (0.0 < lam <= Lam):
        raise BarrierError(f"need 0 < lam <= Lam, got lam={lam}, Lam={Lam}")
    rho = grid.domain.rho
    if not (0.0 < delta <= rho):
        raise BarrierError(f"delta must lie in (0, rho]; got delta={delta}, rho={rho}")

    frame = boundary_frame(potential, point)
    delta_tilde, M_delta, K = _barrier_coefficients(lam, Lam, delta)
    pts = np.stack(grid.meshes(), axis=-1)
    ys = frame.to_frame(pts)
    w_vals = _closed_form(M_delta, delta_tilde, K, ys, frame.tangent_gap(pts, potential.phi.values))
    mask = grid.in_domain & ((ys ** 2).sum(axis=-1) < delta ** 2)
    return Barrier(
        delta=float(delta),
        delta_tilde=delta_tilde,
        M_delta=M_delta,
        K=K,
        Lam=float(Lam),
        frame=frame,
        w=ScalarField(grid, w_vals),
        mask=mask,
    )


def verify_supersolution(barrier: Barrier, potential: PotentialField) -> BarrierReport:
    """Measure both sides of the three supersolution inequalities on the barrier patch.

    Interior: the largest value of the linearized operator applied to w,
    against -n*Lam plus a discretization allowance of _TOL_FACTOR times
    n*Lam. Domain boundary part: the smallest w, evaluated exactly through
    the boundary datum, against 0 less a rounding allowance. Patch circle
    part: the smallest w against delta**3/2 less an interpolation allowance
    proportional to the squared spacing. The report states no verdict; the
    caller decides each inequality (stability_lab.barrier_experiment).
    """
    grid = potential.grid
    if barrier.w.grid is not grid:
        raise BarrierError("barrier was built on a different grid")
    frame = barrier.frame

    L = operator_apply(cofactor_field(potential), barrier.w)
    nodes = grid.interior & barrier.mask
    if not nodes.any():
        raise BarrierError("barrier patch contains no interior nodes; refine the grid or enlarge delta")
    interior_max = float(np.max(L[nodes]))
    threshold = -_DIM * barrier.Lam * (1.0 - _TOL_FACTOR)

    def w_at(pts: np.ndarray, phi_vals: np.ndarray) -> np.ndarray:
        return _closed_form(barrier.M_delta, barrier.delta_tilde, barrier.K, frame.to_frame(pts),
                            frame.tangent_gap(pts, phi_vals))

    bpts = grid.domain.boundary_samples(_N_BOUNDARY_SAMPLES)
    bpts = np.vstack([frame.origin[None, :], bpts])
    ys = frame.to_frame(bpts)
    keep = (ys ** 2).sum(axis=1) <= barrier.delta ** 2
    bpts = bpts[keep]
    wb = w_at(bpts, np.asarray(potential.boundary_datum(bpts), dtype=float))
    boundary_min = float(wb.min())
    boundary_tol = 1e-9 * (1.0 + barrier.M_delta * barrier.delta)

    theta = np.linspace(0.0, 2.0 * np.pi, _N_BOUNDARY_SAMPLES, endpoint=False)
    circ = frame.from_frame(
        np.stack([barrier.delta * np.cos(theta), barrier.delta * np.sin(theta)], axis=-1)
    )
    phi_c = phi_extended(potential, circ)
    ok = np.isfinite(phi_c)
    if ok.any():
        wc = w_at(circ[ok], phi_c[ok])
        circle_min = float(wc.min())
    else:
        circle_min = np.inf
    hess = potential.hess
    hmax = float(
        max(np.nanmax(np.abs(hess.xx)), np.nanmax(np.abs(hess.yy)), np.nanmax(np.abs(hess.xy)))
    )
    circle_tol = grid.spacing ** 2 * (hmax + 2.0 * barrier.delta_tilde + 2.0 * barrier.K)

    return BarrierReport(
        threshold=threshold,
        interior_max=interior_max,
        n_interior=int(nodes.sum()),
        boundary_min=boundary_min,
        boundary_tol=boundary_tol,
        circle_min=circle_min,
        circle_tol=circle_tol,
    )
