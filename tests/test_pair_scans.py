"""The shared tangent-gap kernel and the scans built on it, against dense references.

The references below are the all-pairs formulas the scans replaced: one
boolean matrix per height for the maximal function, the binned scan over
every node pair that the tile-bounded maximal function replaced, an
all-pairs masked ratio matrix for the quasi-Euclidean extrema, and the
opening scan that allocated its masked ratio matrix per block. The probe
heights come from a dense-gap reference of height_grid. They live only here.
"""

import dataclasses

import numpy as np
import pytest

from conftest import pinched_density, tangent_gap
from ma_lab.covering_maximal import _MAXIMAL_CHUNK, _tile_gap_floors, height_grid, maximal_function
from ma_lab import good_sets
from ma_lab.domain_grid import ScalarField, build_domain, coerce_samples, discretize, fd_derivatives
from ma_lab.good_sets import (
    _default_centers,
    _ratio_extrema,
    minimal_opening_field,
    solution_fields,
    tangent_trust_region,
)
from ma_lab.ma_solve import solve_ma
from ma_lab.section_geom import interior_heights, measure_c_cap, pair_gaps, sublevel_cells


@pytest.fixture(scope="module")
def square32():
    """Solved eps=0.2 potential on the side-2 square at spacing 1/32."""
    grid = discretize(build_domain("square", side=2.0), 1.0 / 32)
    return solve_ma(grid, pinched_density(grid, 0.2))


@pytest.fixture(scope="module")
def nonconvex32(pinched32):
    """The eps=0.1 disc potential plus a small oscillation that breaks its convexity.

    The gradient and Hessian are taken again from the new values, so the
    field is a consistent potential whose tangent gaps go negative.
    """
    pot = pinched32[0]
    X, Y = pot.grid.meshes()
    phi = ScalarField(pot.grid, pot.phi.values + 0.005 * np.sin(20.0 * X) * np.sin(20.0 * Y))
    grad, hess = fd_derivatives(phi)
    return dataclasses.replace(pot, phi=phi, grad=grad, hess=hess)


@pytest.fixture(scope="module", params=["pinched32", "square32"])
def potential(request):
    pot = request.getfixturevalue(request.param)
    return pot[0] if isinstance(pot, tuple) else pot


@pytest.fixture(scope="module", params=["pinched32", "square32", "nonconvex32"])
def any_potential(request):
    pot = request.getfixturevalue(request.param)
    return pot[0] if isinstance(pot, tuple) else pot


def dense_gaps(pot, ci, cj, ni, nj):
    grid = pot.grid
    phi = pot.phi.values
    dx = grid.xs[ni][None, :] - grid.xs[ci][:, None]
    dy = grid.ys[nj][None, :] - grid.ys[cj][:, None]
    D = (
        phi[ni, nj][None, :]
        - phi[ci, cj][:, None]
        - pot.grad.gx[ci, cj][:, None] * dx
        - pot.grad.gy[ci, cj][:, None] * dy
    )
    return D, dx, dy


def dense_height_grid(pot, n_heights=12):
    """height_grid with one full-grid gap and one full-grid flood per candidate height."""
    grid = pot.grid
    hs = interior_heights(pot)
    c_cap = measure_c_cap(hs)
    k = np.unravel_index(np.nanargmax(np.where(np.isfinite(hs), hs, -np.inf)), hs.shape)
    gap = tangent_gap(pot, *k)
    t = 2.0 * grid.cell_area
    while t < c_cap / 2.0:
        if sublevel_cells(pot, gap, t, k).sum() >= 8:
            break
        t *= 1.3
    return np.geomspace(min(t, c_cap / 2.0), c_cap, n_heights)


def dense_maximal(pot, f, chunk=256):
    """One boolean matrix and one matrix product per height and centre block."""
    grid = pot.grid
    heights = dense_height_grid(pot)
    ni, nj = np.nonzero(grid.in_domain)
    absf = np.abs(np.broadcast_to(f, grid.shape)[ni, nj])
    out = np.full(grid.shape, np.nan)
    for s in range(0, ni.size, chunk):
        sl = slice(s, s + chunk)
        D, _, _ = dense_gaps(pot, ni[sl], nj[sl], ni, nj)
        best = np.full(D.shape[0], -np.inf)
        for t in heights:
            W = D < t
            best = np.maximum(best, (W @ absf) / np.maximum(W.sum(axis=1), 1))
        out[ni[sl], nj[sl]] = best
    return out


def binned_maximal(pot, fs, heights):
    """The binned all-pairs scan: every centre block against every in-domain node."""
    grid = pot.grid
    ni, nj = np.nonzero(grid.in_domain)
    absf = [np.abs(coerce_samples(grid, f)[ni, nj]) for f in fs]
    probes = height_grid(pot, heights)
    nh = probes.size
    outs = [np.full(grid.shape, np.nan) for _ in absf]
    for block, D in pair_gaps(pot, ni, nj, ni, nj, _MAXIMAL_CHUNK):
        flat = np.flatnonzero(D < probes[-1])
        rows, cols = np.divmod(flat, ni.size)
        key = rows * nh + np.searchsorted(probes, D.reshape(-1)[flat], side="right")
        size = D.shape[0] * nh
        counts = np.maximum(np.bincount(key, minlength=size).reshape(-1, nh).cumsum(axis=1), 1)
        for a, out in zip(absf, outs):
            sums = np.bincount(key, weights=a[cols], minlength=size).reshape(-1, nh).cumsum(axis=1)
            out[ni[block], nj[block]] = (sums / counts).max(axis=1)
    return outs


def dense_ratio_extrema(pot, radius, centers, chunk=512):
    """All-pairs ratio matrix, masked by the separation floor and the radius cap."""
    grid = pot.grid
    floor = 1.5 * grid.spacing ** 2
    cap = np.inf if radius is None else (radius * grid.spacing) ** 2
    ci, cj = np.nonzero(centers & tangent_trust_region(pot))
    ni, nj = np.nonzero(grid.in_domain)
    lo = np.full(grid.shape, np.nan)
    hi = np.full(grid.shape, np.nan)
    for s in range(0, ci.size, chunk):
        sl = slice(s, s + chunk)
        D, dx, dy = dense_gaps(pot, ci[sl], cj[sl], ni, nj)
        e2 = dx * dx + dy * dy
        ok = (e2 >= floor) & (e2 <= cap)
        ratio = D / np.where(ok, e2, 1.0)
        any_ok = ok.any(axis=1)
        lo[ci[sl], cj[sl]] = np.where(any_ok, np.where(ok, ratio, np.inf).min(axis=1), np.nan)
        hi[ci[sl], cj[sl]] = np.where(any_ok, np.where(ok, ratio, -np.inf).max(axis=1), np.nan)
    return lo, hi


def allocating_opening_field(pot, solution, chunk=64):
    """The opening scan with a fresh masked ratio matrix per block of centres."""
    grid = pot.grid
    d_min = 2.0 * grid.spacing ** 2
    vals, grad, _ = solution
    ni, nj = np.nonzero(grid.in_domain)
    ci, cj = np.nonzero(_default_centers(pot))
    out = np.full(grid.shape, np.nan)
    scans = zip(pair_gaps(pot, ci, cj, ni, nj, chunk),
                pair_gaps(pot, ci, cj, ni, nj, chunk, values=vals, grad=grad))
    for (block, D), (_, U) in scans:
        ok = D >= d_min
        ratio = np.where(ok, np.abs(U) / np.where(ok, D, 1.0), -np.inf)
        best = ratio.max(axis=1)
        out[ci[block], cj[block]] = np.where(np.isfinite(best) & ok.any(axis=1), 2.0 * best, np.nan)
    return out


def test_pair_gaps_matches_formula_for_shared_and_per_centre_targets(pinched32):
    pot, _ = pinched32
    grid = pot.grid
    ni, nj = np.nonzero(grid.in_domain)
    ci, cj = ni[::7], nj[::7]
    ref, _, _ = dense_gaps(pot, ci, cj, ni, nj)
    got = np.concatenate([D.copy() for _, D in pair_gaps(pot, ci, cj, ni, nj, 50)])
    assert np.array_equal(got, ref)
    # one row of targets per centre: each centre's own first 40 nodes, reversed
    ti = np.tile(ni[39::-1], (ci.size, 1))
    tj = np.tile(nj[39::-1], (ci.size, 1))
    per = np.concatenate([D.copy() for _, D in pair_gaps(pot, ci, cj, ti, tj, 33)])
    assert np.array_equal(per, ref[:, 39::-1])


def test_height_grid_equals_dense_reference(pinched_suite32):
    got = height_grid(pinched_suite32, interior_heights(pinched_suite32))
    assert np.array_equal(got, dense_height_grid(pinched_suite32))


def test_maximal_function_of_one_is_exactly_one(potential):
    grid = potential.grid
    M = maximal_function(potential, 1.0, interior_heights(potential))
    assert bool(np.all(M.values[grid.in_domain] == 1.0))
    assert bool(np.all(np.isnan(M.values[~grid.in_domain])))


def test_maximal_function_integer_inputs_bitwise_equal_dense(potential):
    grid = potential.grid
    X, Y = grid.meshes()
    indicator = np.where(np.hypot(X - 0.3, Y) < 0.25, 1.0, 0.0)
    small_ints = np.floor(4.0 * np.abs(np.sin(2.0 * X + Y)))
    for f in (indicator, small_ints):
        got = maximal_function(potential, f, interior_heights(potential)).values
        assert np.array_equal(got, dense_maximal(potential, f), equal_nan=True)


def test_maximal_function_smooth_input_matches_dense(potential):
    grid = potential.grid
    X, Y = grid.meshes()
    f = np.sin(3.0 * X) * np.cos(2.0 * Y) + 0.3 * X * Y
    got = maximal_function(potential, f, interior_heights(potential)).values
    ref = dense_maximal(potential, f)
    ind = grid.in_domain
    assert bool(np.all(np.isfinite(got[ind])))
    assert np.allclose(got[ind], ref[ind], rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("radius", [5.0, 2.5, None])
@pytest.mark.parametrize("margin", [0, 3])
def test_ratio_extrema_window_equals_dense_scan(potential, radius, margin, monkeypatch):
    monkeypatch.setattr(good_sets, "_TRUST_MARGIN", margin)
    centers = potential.grid.in_domain
    got = _ratio_extrema(potential, radius, centers)
    ref = dense_ratio_extrema(potential, radius, centers)
    assert np.array_equal(got[0], ref[0], equal_nan=True)
    assert np.array_equal(got[1], ref[1], equal_nan=True)
    assert np.isfinite(got[0]).sum() > 0


def test_tile_gap_floor_bounds_every_gap_of_its_tile(any_potential):
    """L(c, T) <= min over t in T of D(c, t), convex or not, and it skips most tiles."""
    pot = any_potential
    grid = pot.grid
    ni, nj = np.nonzero(grid.in_domain)
    tile, floor = _tile_gap_floors(pot, ni, nj)
    k = np.arange(0, ni.size, 7)
    L = floor(k)
    _, D = next(pair_gaps(pot, ni[k], nj[k], ni, nj, k.size))
    lowest = np.stack([D[:, tile == T].min(axis=1) for T in range(tile.max() + 1)], axis=1)
    assert L.shape == lowest.shape
    assert bool(np.all(L <= lowest))
    # the floor is not vacuous: most tiles lie above the top probe height
    top = measure_c_cap(interior_heights(pot))
    assert np.mean(L >= top) > 0.5


def test_nonconvex_potential_has_deep_negative_gaps(pinched32, nonconvex32):
    """Its gaps go an order of magnitude deeper below zero than the solved potential's."""
    grid = nonconvex32.grid
    ni, nj = np.nonzero(grid.in_domain)
    k = slice(None, None, 5)
    lows = [next(pair_gaps(pot, ni[k], nj[k], ni, nj, ni.size))[1].min()
            for pot in (pinched32[0], nonconvex32)]
    assert lows[1] < 10.0 * lows[0] < 0.0


def _inputs(grid):
    X, Y = grid.meshes()
    return [1.0, np.sin(3.0 * X) * np.cos(2.0 * Y) + 0.3 * X * Y, np.exp(X) * np.cos(Y),
            np.where(np.hypot(X - 0.3, Y) < 0.25, 1.0, 0.0)]


def _assert_maximal_equals_binned_all_pairs(pot):
    fs = _inputs(pot.grid)
    hs = interior_heights(pot)
    for f, ref in zip(fs, binned_maximal(pot, fs, hs)):
        assert np.array_equal(maximal_function(pot, f, hs).values, ref, equal_nan=True)


def test_maximal_function_bitwise_equals_binned_all_pairs(pinched_suite32):
    _assert_maximal_equals_binned_all_pairs(pinched_suite32)


def test_maximal_function_bitwise_equals_binned_all_pairs_when_nonconvex(nonconvex32):
    _assert_maximal_equals_binned_all_pairs(nonconvex32)


def test_opening_field_bitwise_equals_the_allocating_scan(pinched_suite32):
    pot = pinched_suite32
    X, Y = pot.grid.meshes()
    solution = solution_fields(pot, np.sin(3.0 * X) * np.cos(2.0 * Y) + 0.3 * X * Y + X ** 2)
    got = minimal_opening_field(pot, solution, _default_centers(pot))
    assert np.isfinite(got).sum() > 0
    assert np.array_equal(got, allocating_opening_field(pot, solution), equal_nan=True)
