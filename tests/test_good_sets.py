"""Tests for paraboloid openings, quasi-Euclidean masks, and bad-set decay."""

import numpy as np
import pytest

from conftest import pinched_density
from ma_lab import good_sets
from ma_lab.domain_grid import ScalarField, build_domain, discretize, fd_derivatives
from ma_lab.good_sets import (
    _CHUNK,
    _RADIUS,
    GoodSetError,
    _default_centers,
    _ratio_extrema,
    decay_fit,
    good_set_survey,
    minimal_opening_field,
    quasi_euclidean_constant,
    solution_fields,
    tangent_trust_region,
)
from ma_lab.lma_solve import solve_lma
from ma_lab.ma_solve import solve_ma
from ma_lab.section_geom import pair_gaps


@pytest.fixture(scope="module")
def pinched_lma(pinched32):
    pot, sol = pinched32
    return pot, sol.u.values


def windowed_ratio_min(potential):
    """The ratio minimum over pairs within _RADIUS cells, at every in-domain centre."""
    return _ratio_extrema(potential, _RADIUS, potential.grid.in_domain)[0]


def survey_constant(potential):
    """quasi_euclidean_constant over the survey's scan: _RADIUS cells, default centres."""
    return quasi_euclidean_constant(*_ratio_extrema(potential, _RADIUS, _default_centers(potential)))


def opening_at(potential, u, x):
    """minimal_opening_field at the single center node nearest x."""
    idx = potential.grid.nearest_node(x)
    centers = np.zeros(potential.grid.shape, dtype=bool)
    centers[idx] = True
    return minimal_opening_field(potential, solution_fields(potential, u), centers)[idx]


def test_opening_of_the_potential_is_two(model_disc):
    openings = minimal_opening_field(model_disc, solution_fields(model_disc, model_disc.phi.values),
                                     _default_centers(model_disc))
    finite = np.isfinite(openings)
    assert int(finite.sum()) == 2957
    assert bool(np.all(openings[finite] == 2.0))


def test_opening_of_affine_data_vanishes(model_disc):
    grid = model_disc.grid
    X, Y = grid.meshes()
    aff = 3.0 * X - 2.0 * Y + 0.7
    assert opening_at(model_disc, aff, (0.2, 0.1)) <= 1e-10


def test_opening_matches_brute_force_scan(model_disc):
    grid = model_disc.grid
    X, Y = grid.meshes()
    u = np.sin(np.pi * X) * np.sin(np.pi * Y)
    got = opening_at(model_disc, u, (0.25, -0.125))

    vals = np.where(grid.in_domain, u, np.nan)
    grad, _ = fd_derivatives(ScalarField(grid, vals))
    i, j = grid.nearest_node((0.25, -0.125))
    ni, nj = np.nonzero(grid.in_domain)
    dx = grid.xs[ni] - grid.xs[i]
    dy = grid.ys[nj] - grid.ys[j]
    phi = model_disc.phi.values
    D = phi[ni, nj] - phi[i, j] - model_disc.grad.gx[i, j] * dx - model_disc.grad.gy[i, j] * dy
    num = np.abs(vals[ni, nj] - vals[i, j] - grad.gx[i, j] * dx - grad.gy[i, j] * dy)
    ok = D >= 2.0 * grid.spacing ** 2
    brute = 2.0 * float(np.max(num[ok] / D[ok]))
    assert got == brute
    assert got == pytest.approx(19.204882274266588, rel=1e-12)


def test_opening_error_paths(pinched_lma, monkeypatch):
    # a center whose every pair falls below the distance floor has no opening
    pot, u = pinched_lma
    monkeypatch.setattr(good_sets, "_OPENING_FLOOR", 1e6)
    assert np.isnan(opening_at(pot, u, (0.0, 0.0)))


def test_opening_stable_against_distance_floor(pinched_lma, monkeypatch):
    pot, u = pinched_lma
    full = opening_at(pot, u, (0.3, 0.2))
    # one squared spacing in place of two
    monkeypatch.setattr(good_sets, "_OPENING_FLOOR", 1.0)
    halved = opening_at(pot, u, (0.3, 0.2))
    assert halved == pytest.approx(full, rel=1e-12)


def test_quasi_euclidean_ratio_exact_on_model(model_disc):
    rm = windowed_ratio_min(model_disc)
    measurable = np.isfinite(rm)
    assert int(measurable.sum()) == 2453
    assert bool(np.all(rm[measurable] == 0.5))


def test_quasi_euclidean_masks_on_model(model_disc):
    rm = windowed_ratio_min(model_disc)
    n_meas = int(np.isfinite(rm).sum())
    at_half, above, tiny = (np.isfinite(rm) & (rm >= s) for s in (0.5, 0.6, 1e-9))
    assert int(at_half.sum()) == n_meas
    assert int(above.sum()) == 0
    assert int(tiny.sum()) == n_meas


def test_quasi_euclidean_constant_values(model_disc, pinched_lma):
    assert survey_constant(model_disc) == 2.0
    pot, _ = pinched_lma
    assert survey_constant(pot) == pytest.approx(1.9072687752022557, rel=1e-12)


def test_quasi_euclidean_boundary_layer_exits_first(pinched_lma):
    pot, _ = pinched_lma
    grid = pot.grid
    X, Y = grid.meshes()
    R = np.hypot(X, Y)
    rm = windowed_ratio_min(pot)
    measurable = np.isfinite(rm)
    masks = {s: measurable & (rm >= s) for s in (0.35, 0.45, 0.5)}
    assert bool(np.all(masks[0.45] <= masks[0.35]))
    assert bool(np.all(masks[0.5] <= masks[0.45]))
    assert [int(masks[s].sum()) for s in (0.35, 0.45, 0.5)] == [2453, 2373, 1909]
    for s in (0.45, 0.5):
        exited = measurable & ~masks[s]
        assert float(R[exited].mean()) > float(R[masks[s]].mean())
    assert float(R[measurable & ~masks[0.45]].mean()) == pytest.approx(0.865790, abs=1e-6)
    assert float(R[masks[0.45]].mean()) == pytest.approx(0.572610, abs=1e-6)
    corr = np.corrcoef(R[measurable], rm[measurable])[0, 1]
    assert corr == pytest.approx(-0.7550024915975293, rel=1e-9)


def test_decay_fit_recovers_planted_exponents():
    betas = np.geomspace(1.0, 50.0, 12)
    fit = decay_fit([(b, b ** -2.0) for b in betas])
    assert fit.tau == pytest.approx(2.0, abs=1e-3)
    assert fit.C == pytest.approx(1.0, rel=1e-9)
    assert fit.residual < 1e-12
    fit2 = decay_fit([(b, 3.0 * b ** -0.5) for b in betas])
    assert fit2.tau == pytest.approx(0.5, abs=1e-3)
    assert fit2.C == pytest.approx(3.0, abs=1e-3)
    with pytest.raises(GoodSetError, match="at least 5"):
        decay_fit([(1.0, 1.0)] * 3)


def test_survey_differentiates_the_solution_once(pinched_lma, monkeypatch):
    # the openings and the F levels read the same derivatives of u
    pot, u = pinched_lma
    calls = []

    def counting(fld):
        calls.append(fld)
        return fd_derivatives(fld)

    monkeypatch.setattr(good_sets, "fd_derivatives", counting)
    good_set_survey(pot, u, np.geomspace(1.2, 40.0, 10))
    assert len(calls) == 1


def test_survey_distributions_on_lma(pinched_lma):
    pot, u = pinched_lma
    bg = np.geomspace(1.45, 2.5, 10)
    sv = good_set_survey(pot, u, bg, m=2.0)
    assert sv.F2 == pytest.approx(
        [2.887695, 2.887695, 2.875, 2.831055, 2.762695, 2.662109, 2.481445, 2.276367, 2.021484, 1.616211],
        abs=1e-6,
    )
    assert bool(np.all(np.diff(sv.F2) <= 1e-12))
    assert sv.F[0] == pytest.approx(0.001953, abs=1e-6)
    assert bool(np.all(sv.F[1:] == 0.0))
    assert bool(np.all(sv.F1 == 0.0))
    assert list(sv.good_masks) == [2.0, 4.0, 8.0]
    assert bool(np.all(sv.good_masks[2.0] <= sv.good_masks[4.0]))
    assert bool(np.all(sv.good_masks[4.0] <= sv.good_masks[8.0]))
    assert "F1" not in sv.fits
    fit = sv.fits["F2"]
    assert fit.tau > 0.0
    assert fit.tau == pytest.approx(0.8484149269284558, rel=1e-12)
    assert fit.residual < 0.1
    # all 10 levels lie above the survey's floor of five cells: the same
    # samples, filtered here, fit to the same tau
    kept = [(b, f) for b, f in zip(bg, sv.F2) if f > 5.0 * pot.grid.cell_area]
    assert len(kept) == 10
    assert decay_fit(kept).tau == fit.tau


def test_tangent_trust_region_counts(model_disc, monkeypatch):
    grid = model_disc.grid
    t3 = tangent_trust_region(model_disc)
    assert int(t3.sum()) == 2453
    assert bool(np.all(t3 <= grid.in_domain))
    monkeypatch.setattr(good_sets, "_TRUST_MARGIN", 0)
    assert bool(np.array_equal(tangent_trust_region(model_disc), grid.in_domain))


def test_interior_nodes_are_quadratic_exact(pinched_suite32):
    # the scans take every interior node as a centre: its stencils are
    # central, so its derivatives are exact on quadratics for any field
    pot = pinched_suite32
    grid = pot.grid
    X, Y = grid.meshes()
    sol = solve_lma(pot, np.sin(np.pi * X) * np.cos(np.pi * Y) + 2.0)
    grad_u, _ = fd_derivatives(ScalarField(grid, sol.u.values))
    assert bool(np.all(pot.grad.quadratic_exact[grid.interior]))
    assert bool(np.all(grad_u.quadratic_exact[grid.interior]))


def test_survey_scans_the_ratios_once(pinched_lma, monkeypatch):
    # the survey's c_inst and F1 come from one ratio scan; each must equal
    # what two separate scans of the same pairs give, bit for bit
    pot, u = pinched_lma
    grid = pot.grid
    m = 2.0
    bg = np.geomspace(0.5, 0.6, 6)
    centers = _default_centers(pot)
    c_ref = survey_constant(pot)
    rm_ref = _ratio_extrema(pot, _RADIUS, centers)[0]
    openings = minimal_opening_field(pot, solution_fields(pot, u), centers)
    meas = np.isfinite(openings) & np.isfinite(rm_ref)
    scale1 = grid.cell_area * grid.interior.sum() / int(meas.sum())
    F1_ref = [(meas & (rm_ref < (c_ref * b ** ((m - 1.0) / 2.0)) ** (-2.0 / (2 - 1)))).sum() * scale1
              for b in bg]

    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return _ratio_extrema(*args, **kwargs)

    monkeypatch.setattr(good_sets, "_ratio_extrema", counting)
    sv = good_set_survey(pot, u, bg, m=m)
    assert len(calls) == 1
    assert sv.c_inst == c_ref
    assert np.array_equal(sv.F1, F1_ref)
    # the levels straddle the ratio minima, so F1 moves across them
    assert sv.F1[0] > sv.F1[-1] > 0.0


def allocating_ratio_extrema(potential, neighborhood_radius, centers):
    """The ratio scan with fresh separation, mask and ratio matrices per block of centres."""
    grid = potential.grid
    pair_floor = 1.5 * grid.spacing ** 2
    centers = centers & tangent_trust_region(potential)
    ci, cj = np.nonzero(centers)
    if neighborhood_radius is None:
        r2_cap = np.inf
        ti, tj = np.nonzero(grid.in_domain)
        inside = None
    else:
        r2_cap = (neighborhood_radius * grid.spacing) ** 2
        w = int(np.ceil(np.sqrt(r2_cap) / grid.spacing)) + 1
        di, dj = (a.ravel() for a in np.mgrid[-w : w + 1, -w : w + 1])
        ti = ci[:, None] + di
        tj = cj[:, None] + dj
        inside = (ti >= 0) & (ti < grid.shape[0]) & (tj >= 0) & (tj < grid.shape[1])
        ti = np.clip(ti, 0, grid.shape[0] - 1)
        tj = np.clip(tj, 0, grid.shape[1] - 1)
        inside &= grid.in_domain[ti, tj]

    lo = np.full(grid.shape, np.nan)
    hi = np.full(grid.shape, np.nan)
    for block, D in pair_gaps(potential, ci, cj, ti, tj, _CHUNK):
        bi = ci[block, None]
        bj = cj[block, None]
        ri, rj = (ti, tj) if inside is None else (ti[block], tj[block])
        dx = grid.xs[ri] - grid.xs[bi]
        dy = grid.ys[rj] - grid.ys[bj]
        e2 = dx * dx + dy * dy
        ok = (e2 >= pair_floor) & (e2 <= r2_cap)
        if inside is not None:
            ok &= inside[block]
        ratio = D / np.where(ok, e2, 1.0)
        lo_s = np.where(ok, ratio, np.inf).min(axis=1)
        hi_s = np.where(ok, ratio, -np.inf).max(axis=1)
        any_ok = ok.any(axis=1)
        lo[ci[block], cj[block]] = np.where(any_ok, lo_s, np.nan)
        hi[ci[block], cj[block]] = np.where(any_ok, hi_s, np.nan)
    return lo, hi


@pytest.fixture(scope="module", params=[("disc", {"radius": 1.0}, 64), ("ellipse", {"a": 1.2, "b": 0.8}, 32),
                                        ("square", {"side": 2.0}, 32)], ids=["disc64", "ellipse32", "square32"])
def pinched_scan_potential(request):
    """Solved eps=0.2 potential on a suite domain: the disc at 1/64, the others at 1/32."""
    kind, params, n = request.param
    grid = discretize(build_domain(kind, **params), 1.0 / n)
    return solve_ma(grid, pinched_density(grid, 0.2))


@pytest.mark.parametrize("radius", [None, _RADIUS], ids=["dense", "windowed"])
@pytest.mark.parametrize("ragged", [False, True], ids=["all-nodes", "ragged"])
def test_ratio_extrema_bitwise_equal_the_allocating_scan(pinched_scan_potential, radius, ragged):
    # the in-place kernel keeps the allocating scan's expressions, so both
    # extrema agree bit for bit; the ragged mask drops 30 % of the centres
    pot = pinched_scan_potential
    centers = pot.grid.in_domain.copy()
    if ragged:
        ii, jj = np.nonzero(centers)
        drop = np.random.default_rng(7).permutation(ii.size)[: int(0.3 * ii.size)]
        centers[ii[drop], jj[drop]] = False
    got = _ratio_extrema(pot, radius, centers)
    ref = allocating_ratio_extrema(pot, radius, centers)
    assert np.isfinite(ref[0]).sum() > 0
    assert np.array_equal(got[0], ref[0], equal_nan=True)
    assert np.array_equal(got[1], ref[1], equal_nan=True)
