"""The shared tangent-gap kernel and the scans built on it, against dense references.

The references below are the all-pairs formulas the scans replaced: one
boolean matrix per height for the maximal function, and an all-pairs masked
ratio matrix for the quasi-Euclidean extrema. They live only here.
"""

import numpy as np
import pytest

from conftest import pinched_density
from ma_lab.covering_maximal import height_grid, maximal_function
from ma_lab.domain_grid import build_domain, discretize
from ma_lab.good_sets import _ratio_extrema, tangent_trust_region
from ma_lab.ma_solve import solve_ma
from ma_lab.section_geom import pair_gaps


@pytest.fixture(scope="module")
def square32():
    """Solved eps=0.2 potential on the side-2 square at spacing 1/32."""
    grid = discretize(build_domain("square", side=2.0), 1.0 / 32)
    return solve_ma(grid, pinched_density(grid, 0.2))


@pytest.fixture(scope="module", params=["pinched32", "square32"])
def potential(request):
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


def dense_maximal(pot, f, chunk=256):
    """One boolean matrix and one matrix product per height and centre block."""
    grid = pot.grid
    heights = height_grid(pot)
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


def dense_ratio_extrema(pot, radius, centers, margin, chunk=512):
    """All-pairs ratio matrix, masked by the separation floor and the radius cap."""
    grid = pot.grid
    floor = 1.5 * grid.spacing ** 2
    cap = np.inf if radius is None else (radius * grid.spacing) ** 2
    ci, cj = np.nonzero(centers & tangent_trust_region(pot, margin))
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


def test_maximal_function_of_one_is_exactly_one(potential):
    grid = potential.grid
    M = maximal_function(potential, 1.0)
    assert bool(np.all(M.values[grid.in_domain] == 1.0))
    assert bool(np.all(np.isnan(M.values[~grid.in_domain])))


def test_maximal_function_integer_inputs_bitwise_equal_dense(potential):
    grid = potential.grid
    X, Y = grid.meshes()
    indicator = np.where(np.hypot(X - 0.3, Y) < 0.25, 1.0, 0.0)
    small_ints = np.floor(4.0 * np.abs(np.sin(2.0 * X + Y)))
    for f in (indicator, small_ints):
        got = maximal_function(potential, f).values
        assert np.array_equal(got, dense_maximal(potential, f), equal_nan=True)


def test_maximal_function_smooth_input_matches_dense(potential):
    grid = potential.grid
    X, Y = grid.meshes()
    f = np.sin(3.0 * X) * np.cos(2.0 * Y) + 0.3 * X * Y
    got = maximal_function(potential, f).values
    ref = dense_maximal(potential, f)
    ind = grid.in_domain
    assert bool(np.all(np.isfinite(got[ind])))
    assert np.allclose(got[ind], ref[ind], rtol=1e-12, atol=0.0)


def test_maximal_function_several_inputs_equal_single_calls(potential):
    grid = potential.grid
    X, Y = grid.meshes()
    f = np.exp(X) * np.cos(Y)
    g = np.where(X > 0.1, 2.0, 0.0)
    fields = maximal_function(potential, [1.0, f, g])
    assert isinstance(fields, list) and len(fields) == 3
    for inp, M in zip((1.0, f, g), fields):
        assert np.array_equal(M.values, maximal_function(potential, inp).values, equal_nan=True)


@pytest.mark.parametrize("radius", [5.0, 2.5, None])
@pytest.mark.parametrize("margin", [0, 3])
def test_ratio_extrema_window_equals_dense_scan(potential, radius, margin):
    centers = potential.grid.in_domain
    got = _ratio_extrema(potential, radius, centers, tangent_margin=margin)
    ref = dense_ratio_extrema(potential, radius, centers, margin)
    assert np.array_equal(got[0], ref[0], equal_nan=True)
    assert np.array_equal(got[1], ref[1], equal_nan=True)
    assert np.isfinite(got[0]).sum() > 0
