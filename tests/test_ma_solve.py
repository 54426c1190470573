import numpy as np
import pytest
import scipy.sparse.linalg as spla
from scipy import ndimage

from ma_lab import ma_solve
from ma_lab.domain_grid import (
    ScalarField,
    build_domain,
    discretize,
    fd_derivatives,
    lp_norm,
)
from ma_lab.ma_solve import (
    NodeSystem,
    SolveError,
    assemble_potential,
    certify_convexity,
    cofactor_field,
    linear_solve,
    quadratic_separation_check,
    solve_ma,
)
from ma_lab.stability_lab import default_bump
from conftest import pinched_density


# -- solve_ma ----------------------------------------------------------------

def test_disc_unit_density_matches_paraboloid(disc64):
    g = disc64.grid
    X, Y = g.meshes()
    exact = 0.5 * (X ** 2 + Y ** 2) - 0.5
    err = np.nanmax(np.abs(disc64.phi.values - exact)[g.in_domain])
    assert err <= 1e-3


def test_disc_solution_converges_second_order(disc32, disc64):
    errs = []
    for pot in (disc32, disc64):
        g = pot.grid
        X, Y = g.meshes()
        exact = 0.5 * (X ** 2 + Y ** 2) - 0.5
        errs.append(np.nanmax(np.abs(pot.phi.values - exact)[g.in_domain]))
    assert errs[0] / errs[1] >= 3.5


def test_pinched_density_residual_small(pinched32):
    pot, _ = pinched32
    assert pot.residual_max <= 1e-6
    assert pot.convexity_margin > 0


def test_solver_is_deterministic(disc_domain):
    g = discretize(disc_domain, 1.0 / 32)
    a = solve_ma(g, 1.0)
    b = solve_ma(g, 1.0)
    assert np.array_equal(a.phi.values, b.phi.values, equal_nan=True)


def test_square_certifies_convex_against_fine_reference():
    # flat-sided corners force the solver off the smooth initial guess; the
    # coarse solve must still certify convex and track a 1/256 reference
    sq = build_domain("square", side=2.0)
    fine = discretize(sq, 1.0 / 256)
    ref = solve_ma(fine, 1.0)
    assert ref.convexity_margin > 0
    coarse = discretize(sq, 1.0 / 64)
    pot = solve_ma(coarse, 1.0)
    assert pot.convexity_margin > 0
    pts = coarse.points(coarse.in_domain)
    dev = np.nanmax(np.abs(pot.phi.values[coarse.in_domain] - fine.interp(ref.phi.values, pts)))
    assert dev <= 5e-3


def test_nonpositive_density_rejected(disc_domain):
    g = discretize(disc_domain, 1.0 / 16)
    with pytest.raises(SolveError, match="positive"):
        solve_ma(g, -1.0)


def test_unreachable_tolerance_raises_with_residual(disc_domain):
    g = discretize(disc_domain, 1.0 / 16)
    with pytest.raises(SolveError, match="residual"):
        solve_ma(g, 1.0, tol_ma=1e-30)


def test_comparison_principle(disc_domain):
    g = discretize(disc_domain, 1.0 / 32)
    hi = solve_ma(g, 1.1)
    lo = solve_ma(g, 1.0)
    gap = np.nanmax((hi.phi.values - lo.phi.values)[g.in_domain])
    assert gap <= 10 * 1e-8


def test_affine_covariance_of_density_scaling(disc_domain):
    g = discretize(disc_domain, 1.0 / 32)
    c = 1.7
    base = solve_ma(g, 1.0)
    scaled = solve_ma(g, c * c)
    dev = np.nanmax(np.abs(scaled.phi.values - c * base.phi.values)[g.in_domain])
    assert dev <= 10 * 1e-8


def test_continuation_path_skips_the_laplacian_start(monkeypatch):
    # above the direct limit the Newton start comes from the coarse grid, so
    # every top-level linear solve must be a Newton step
    grid = discretize(build_domain("square", side=2.0), 1.0 / 32)
    n = NodeSystem(grid, lambda pts: np.zeros(len(pts))).n
    monkeypatch.setattr(ma_solve, "_DIRECT_LIMIT", n - 1)
    sizes = []

    def counting(A, rhs):
        sizes.append(A.shape[0])
        return linear_solve(A, rhs)

    monkeypatch.setattr(ma_solve, "linear_solve", counting)
    pot = solve_ma(grid, 1.0)
    assert pot.newton_iterations > 0
    assert sizes.count(n) == pot.newton_iterations


# -- NodeSystem numbering and the static-pivot LU ----------------------------

def test_nested_dissection_numbering_is_a_permutation(disc_domain):
    grid = discretize(disc_domain, 1.0 / 64)
    sysm = NodeSystem(grid, lambda pts: np.zeros(len(pts)))
    ij = sysm.node_ij
    row_major = ij[np.lexsort((ij[:, 1], ij[:, 0]))]
    assert np.array_equal(row_major, np.argwhere(grid.in_domain))
    assert np.array_equal(sysm.flat[ij[:, 0], ij[:, 1]], np.arange(sysm.n))
    assert np.array_equal(sysm.flat >= 0, grid.in_domain)


def test_nested_dissection_fill_below_default_ordering(disc_domain):
    sysm = NodeSystem(discretize(disc_domain, 1.0 / 64), lambda pts: np.zeros(len(pts)))
    ones = np.ones(len(sysm.int_rows))
    A = sysm.interior_matrix(ones, ones, np.zeros_like(ones)).tocsc()
    nd = spla.splu(A, permc_spec="NATURAL", diag_pivot_thresh=0.0)
    default = spla.splu(A)
    assert nd.L.nnz + nd.U.nnz < default.L.nnz + default.U.nnz


def test_static_pivots_accurate_on_every_newton_jacobian(monkeypatch):
    # the eps = 0.2 square fails from the Laplacian start (its iterates have
    # indefinite node Hessians) and restarts from the coarse grid; every
    # system of that solve, failed attempts included, is checked against
    # partial-pivot LU with its default column order
    sq = build_domain("square", side=2.0)
    grid = discretize(sq, 1.0 / 32)
    X, Y = grid.meshes()
    g = 1.0 + 0.2 * default_bump(sq)(X, Y)
    parts = ma_solve._convexified_parts
    eig_min = [np.inf]
    systems = []

    def recording_parts(H11, H22, H12, g_int):
        eig_min[0] = float(np.min(0.5 * (H11 + H22) - np.hypot(0.5 * (H11 - H22), H12)))
        return parts(H11, H22, H12, g_int)

    def recording_solve(A, rhs):
        systems.append((A, rhs, eig_min[0]))
        return linear_solve(A, rhs)

    monkeypatch.setattr(ma_solve, "_convexified_parts", recording_parts)
    monkeypatch.setattr(ma_solve, "linear_solve", recording_solve)
    solve_ma(grid, g)
    assert min(e for _, _, e in systems) < 0
    for A, rhs, _ in systems:
        x = linear_solve(A, rhs)
        scale = abs(A).sum(axis=1).max() * np.max(np.abs(x)) + np.max(np.abs(rhs))
        assert np.max(np.abs(A @ x - rhs)) <= 1e-12 * scale
        ref = spla.splu(A.tocsc()).solve(rhs)
        assert np.max(np.abs(x - ref)) <= 1e-8 * np.max(np.abs(ref))


# -- cofactor_field ----------------------------------------------------------

def test_cofactor_swaps_diagonal_and_negates_cross(model_square):
    grid = model_square.grid
    pot = assemble_potential(grid, lambda X, Y: X ** 2 + 1.5 * Y ** 2)
    cof = cofactor_field(pot)
    it = grid.interior
    assert np.allclose(cof.xx[it], 3.0) and np.allclose(cof.yy[it], 2.0)
    assert np.allclose(cof.xy[it], 0.0)
    pot2 = assemble_potential(grid, lambda X, Y: X ** 2 + X * Y + Y ** 2)
    cof2 = cofactor_field(pot2)
    assert np.allclose(cof2.xx[it], 2.0) and np.allclose(cof2.yy[it], 2.0)
    assert np.allclose(cof2.xy[it], -1.0)


def test_model_potential_cofactor_is_identity(model_square):
    cof = cofactor_field(model_square)
    it = model_square.grid.interior
    assert np.nanmax(np.abs(cof.xx[it] - 1.0)) == 0.0
    assert np.nanmax(np.abs(cof.yy[it] - 1.0)) == 0.0
    assert np.nanmax(np.abs(cof.xy[it])) == 0.0


def test_cofactor_identity_holds_bitwise(pinched32):
    pot, _ = pinched32
    cof = cofactor_field(pot)
    h = pot.hess
    det = h.xx * h.yy - h.xy ** 2
    it = pot.grid.interior
    assert np.nanmax(np.abs((cof.xx * h.xx + cof.xy * h.xy - det)[it])) == 0.0
    assert np.nanmax(np.abs((cof.xy * h.xx + cof.yy * h.xy)[it])) == 0.0
    assert np.nanmax(np.abs((cof.xy * h.xy + cof.yy * h.yy - det)[it])) == 0.0


def test_cofactor_positive_semidefinite_on_certified_field(pinched32):
    pot, _ = pinched32
    cof = cofactor_field(pot)
    it = pot.grid.interior
    eig_min = 0.5 * (cof.xx + cof.yy) - np.sqrt(0.25 * (cof.xx - cof.yy) ** 2 + cof.xy ** 2)
    assert np.nanmin(eig_min[it]) > 0


# -- certify_convexity -------------------------------------------------------

def test_model_certifies_with_unit_eigenvalue(model_square):
    rep = certify_convexity(model_square.hess)
    assert rep.min_eig == pytest.approx(1.0)
    assert rep.passed


def test_saddle_fails_certification(disc_domain):
    g = discretize(disc_domain, 1.0 / 32)
    _, hess = fd_derivatives(ScalarField.from_function(g, lambda X, Y: X ** 2 - Y ** 2))
    rep = certify_convexity(hess)
    assert rep.min_eig == pytest.approx(-2.0)
    assert not rep.passed


def test_solved_pinched_disc_certifies_positive(disc_domain):
    g = discretize(disc_domain, 1.0 / 32)
    pot = solve_ma(g, lambda X, Y: 1.0 + 0.1 * np.sin(np.pi * X) * np.sin(np.pi * Y))
    rep = certify_convexity(pot.hess)
    assert rep.min_eig > 0


# -- quadratic_separation_check ----------------------------------------------

def test_model_boundary_separation_is_exactly_half(disc_domain):
    g = discretize(disc_domain, 1.0 / 32)
    pot = assemble_potential(g, lambda X, Y: 0.5 * (X ** 2 + Y ** 2))
    rep = quadratic_separation_check(pot)
    assert rep.r_min == 0.5 and rep.r_max == 0.5
    assert rep.rho0 == 0.5
    assert rep.passed and not rep.flat_boundary_warning


def test_solved_disc_separation_bounded_away_from_zero(disc64):
    rep = quadratic_separation_check(disc64)
    assert rep.r_min > 0.1
    assert 0 < rep.rho0 <= 1.0
    assert rep.passed


def test_flat_boundary_quartic_reported_without_pass():
    sq = build_domain("square", side=2.0)
    pot = assemble_potential(discretize(sq, 1.0 / 64), lambda X, Y: X ** 4 + Y ** 4)
    with pytest.warns(UserWarning, match="flat"):
        rep = quadratic_separation_check(pot)
    assert rep.flat_boundary_warning
    assert not rep.passed
    assert rep.r_min < 0.01


# -- divergence structure of the cofactor rows --------------------------------

def _row_divergences(grid, cof):
    g11, _ = fd_derivatives(ScalarField(grid, cof.xx))
    g12, _ = fd_derivatives(ScalarField(grid, cof.xy))
    g22, _ = fd_derivatives(ScalarField(grid, cof.yy))
    return g11.gx + g12.gy, g12.gx + g22.gy


def test_assembled_smooth_cofactor_rows_divergence_free(disc_domain):
    g = discretize(disc_domain, 1.0 / 32)
    pot = assemble_potential(g, lambda X, Y: 0.5 * (X ** 2 + Y ** 2) + 0.1 * X ** 4 + 0.05 * X * Y + 0.08 * Y ** 4)
    d1, d2 = _row_divergences(g, cofactor_field(pot))
    it = g.interior
    assert np.nanmax(np.abs(d1[it])) < 1e-9
    assert np.nanmax(np.abs(d2[it])) < 1e-9


def test_solved_cofactor_rows_divergence_decays_in_the_bulk(disc32, disc64, disc_domain):
    # the near-ring collar carries the instrument's Hessian boundary layer,
    # so the decay is measured on the bulk away from it
    plus = ndimage.generate_binary_structure(2, 1)
    maxima = []
    for h in (1.0 / 32, 1.0 / 64):
        g = discretize(disc_domain, h)
        pot = solve_ma(g, pinched_density(g, 0.1))
        d1, _ = _row_divergences(g, cofactor_field(pot))
        X, Y = g.meshes()
        bulk = ndimage.binary_erosion(g.interior, structure=plus, iterations=3) & (X ** 2 + Y ** 2 < 0.25)
        maxima.append(np.nanmax(np.abs(d1[bulk])))
    assert maxima[0] / maxima[1] >= 1.8


# -- assemble_potential -------------------------------------------------------

def test_assembled_model_has_zero_residual_and_identity_hessian(model_square):
    assert model_square.residual_max <= 1e-10
    it = model_square.grid.interior
    assert np.allclose(model_square.hess.xx[it], 1.0)
    assert model_square.convexity_margin == pytest.approx(1.0)
