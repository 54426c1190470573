"""Tests for section coverings and the section maximal function."""

import numpy as np
import pytest

from ma_lab.covering_maximal import (
    CoveringError,
    height_grid,
    maximal_function,
    strong_type_ratio,
    vitali_cover,
)
from ma_lab.domain_grid import FieldError, build_domain, discretize
from ma_lab.ma_solve import solve_ma
from ma_lab.section_geom import interior_heights, measure_c_cap, pair_gaps, section_cells, sublevel_cells
from conftest import pinched_density, tangent_gap


def radial_mask(grid, r_lo, r_hi):
    X, Y = grid.meshes()
    R = np.hypot(X, Y)
    return (R >= r_lo) & (R <= r_hi) & grid.interior


def cores_and_covers(potential, res):
    """The picks' cores and half-height sections as flat grid indices, flooded from the cover's public values."""
    grid = potential.grid
    ci = np.searchsorted(grid.xs, res.centers[:, 0])
    cj = np.searchsorted(grid.ys, res.centers[:, 1])
    assert np.array_equal(np.stack([grid.xs[ci], grid.ys[cj]], axis=-1), res.centers)
    return (section_cells(potential, ci, cj, res.delta0 * res.heights),
            section_cells(potential, ci, cj, 0.5 * res.heights))


def test_vitali_cover_annulus(model_disc):
    grid = model_disc.grid
    ann = radial_mask(grid, 0.5, 0.9)
    res = vitali_cover(model_disc, ann, interior_heights(model_disc))
    assert res.coverage_defect == 0.0
    assert len(res.heights) == 282
    assert res.delta0 == 0.1
    # exact set checks on the picks' flat indices
    cores, covers = cores_and_covers(model_disc, res)
    assert np.bincount(np.concatenate(cores), minlength=grid.in_domain.size).max() <= 1
    union = np.zeros(grid.in_domain.size, dtype=bool)
    union[np.concatenate(covers)] = True
    assert bool(np.all(union.reshape(grid.shape)[ann]))


def test_vitali_cover_heights_ordered(model_disc):
    ann = radial_mask(model_disc.grid, 0.5, 0.9)
    res = vitali_cover(model_disc, ann, interior_heights(model_disc))
    diffs = np.diff(res.heights)
    assert bool(np.all(diffs <= 1e-15))
    assert bool(np.all(res.heights[1:] <= 2.0 * res.heights[:-1]))
    assert res.heights.min() > 0.0


def test_vitali_cover_single_point(model_disc):
    grid = model_disc.grid
    single = np.zeros(grid.shape, dtype=bool)
    single[grid.nearest_node((0.2, 0.1))] = True
    res = vitali_cover(model_disc, single, interior_heights(model_disc))
    assert len(res.heights) == 1
    assert res.coverage_defect == 0.0


def test_vitali_cover_errors(model_disc):
    grid = model_disc.grid
    hs = interior_heights(model_disc)
    with pytest.raises(CoveringError, match="empty"):
        vitali_cover(model_disc, np.zeros(grid.shape, dtype=bool), hs)
    with pytest.raises(CoveringError, match="no interior nodes"):
        vitali_cover(model_disc, grid.in_domain & ~grid.interior, hs)
    # band nodes can never sit in a half-height section, so the selection at
    # the smallest core factor leaves them uncovered, and says so
    res = vitali_cover(model_disc, grid.in_domain, hs)
    assert res.delta0 == 0.0125
    assert res.coverage_defect == int((grid.in_domain & ~grid.interior).sum()) * grid.cell_area


def masked_heights(potential, mask):
    """interior_heights scanned over the mask's centres alone, in row-major order."""
    ci, cj = np.nonzero(mask)
    ri, rj = np.nonzero(potential.grid.boundary_adjacent)
    _, D = next(pair_gaps(potential, ci, cj, ri, rj, ci.size))
    return D.min(axis=1)


def test_shared_heights_equal_the_masked_scan(pinched_suite32):
    """The field scanned over the whole interior gives a masked region's centres the same bits."""
    grid = pinched_suite32.grid
    X, Y = grid.meshes()
    hs = interior_heights(pinched_suite32)
    for region in (grid.interior, grid.interior & (X > 0.2), grid.interior & (np.hypot(X, Y) < 0.5)):
        assert np.array_equal(hs[region], masked_heights(pinched_suite32, region))


def dense_vitali_cover(potential, region, delta0=0.1, delta0_floor=0.0125):
    """Reference cover: one full-grid gap and flood per tested candidate and per pick."""
    grid = potential.grid
    cand = region & grid.interior
    ci, cj = np.nonzero(cand)
    hvals = masked_heights(potential, cand)
    positive = hvals > 0
    ci, cj, hvals = ci[positive], cj[positive], hvals[positive]
    # heights agreeing to 1e-9 of the largest tie; ties go to the lower lattice index
    ranks = np.round(hvals / (1e-9 * hvals.max()))
    order = sorted(range(hvals.size), key=lambda k: (-ranks[k], ci[k] * grid.shape[1] + cj[k]))
    d0 = float(delta0)
    while True:
        in_core = np.zeros(grid.shape, dtype=bool)
        cores = []
        picked = []
        for k in order:
            idx = (ci[k], cj[k])
            if in_core[idx]:
                continue
            core = sublevel_cells(potential, tangent_gap(potential, *idx), d0 * hvals[k], idx)
            if (core & in_core).any():
                continue
            in_core |= core
            cores.append(core)
            picked.append(k)
        covers = []
        in_cover = np.zeros(grid.shape, dtype=bool)
        for k in picked:
            idx = (ci[k], cj[k])
            cover = sublevel_cells(potential, tangent_gap(potential, *idx), 0.5 * hvals[k], idx)
            covers.append(cover)
            in_cover |= cover
        defect_cells = int((region & ~in_cover).sum())
        if defect_cells == 0 or d0 <= delta0_floor * (1.0 + 1e-12):
            break
        d0 *= 0.5
    return dict(
        centers=np.stack([grid.xs[ci[picked]], grid.ys[cj[picked]]], axis=-1),
        heights=hvals[picked],
        delta0=d0,
        cores=[np.flatnonzero(m) for m in cores],
        covers=[np.flatnonzero(m) for m in covers],
        coverage_defect=defect_cells * grid.cell_area,
    )


def test_vitali_cover_equals_dense_reference(pinched_suite32):
    pot = pinched_suite32
    ref = dense_vitali_cover(pot, pot.grid.interior)
    res = vitali_cover(pot, pot.grid.interior, interior_heights(pot))
    cores, covers = cores_and_covers(pot, res)
    got = dict(vars(res), cores=cores, covers=covers)
    assert set(ref) == set(got)
    for name, want in ref.items():
        if isinstance(want, list):
            assert len(got[name]) == len(want)
            assert all(np.array_equal(a, b) for a, b in zip(got[name], want))
        else:
            assert np.array_equal(got[name], want)
    if pot.grid.domain.uniform_convexity_modulus == 0.0:
        # the square's selection at the smallest core factor, after four rounds
        assert (len(res.heights), res.delta0) == (845, 0.0125)
        assert res.coverage_defect == 212 * pot.grid.cell_area


def test_vitali_cover_breaks_twin_height_ties_by_lattice_index(model_disc):
    """Mirror twins whose heights differ by rounding are walked in lattice order, whichever is larger.

    The two centres sit close enough that the first one's core holds the
    second, so only the first is picked.
    """
    grid = model_disc.grid
    i, j = grid.nearest_node((-0.05, 0.3))
    twin = (grid.shape[0] - 1 - i, j)
    assert grid.xs[twin[0]] == -grid.xs[i]
    region = np.zeros(grid.shape, dtype=bool)
    region[i, j] = region[twin] = True
    picks = []
    for larger in ((i, j), twin):
        hs = np.zeros(grid.shape)
        hs[i, j] = hs[twin] = 0.2
        hs[larger] = np.nextafter(0.2, 1.0)
        res = vitali_cover(model_disc, region, hs)
        assert len(res.heights) == 1
        picks.append(res.centers[0])
    # the lower lattice index is (i, j), which sits at x < 0
    assert np.array_equal(picks[0], picks[1])
    assert np.array_equal(picks[0], [grid.xs[i], grid.ys[j]])


def test_vitali_cover_picks_no_empty_cover():
    """A candidate whose height is not positive floods nothing, so it is never picked.

    On the eps = 0.2 pinched ellipse at 1/32, five interior nodes have a
    negative tangent gap at some ring node.
    """
    grid = discretize(build_domain("ellipse", a=1.2, b=0.8), 1.0 / 32)
    pot = solve_ma(grid, pinched_density(grid, 0.2))
    hs = interior_heights(pot)
    assert int((hs[grid.interior] <= 0).sum()) == 5
    res = vitali_cover(pot, grid.interior, hs)
    assert sum(c.size == 0 for c in cores_and_covers(pot, res)[1]) == 0
    assert len(res.heights) == 763
    assert res.heights.min() > 0.0
    assert (res.delta0, res.coverage_defect) == (0.05, 0.0)


def test_height_grid_shape(model_disc):
    hs = interior_heights(model_disc)
    hg = height_grid(model_disc, hs)
    cap = measure_c_cap(hs)
    assert hg.size == 12
    assert bool(np.all(np.diff(hg) > 0))
    assert hg[-1] == pytest.approx(cap, rel=1e-12)
    assert hg[0] > 0.0


def test_maximal_function_of_constant(model_disc):
    grid = model_disc.grid
    M = maximal_function(model_disc, np.ones(grid.shape), interior_heights(model_disc))
    assert bool(np.all(M.values[grid.in_domain] == 1.0))
    assert bool(np.all(np.isnan(M.values[~grid.in_domain])))


def test_maximal_function_homogeneity_and_monotonicity(model_disc):
    grid = model_disc.grid
    X, Y = grid.meshes()
    ind = grid.in_domain
    f = np.abs(np.sin(3.0 * X) * np.cos(2.0 * Y)) + 0.1
    hs = interior_heights(model_disc)
    Mf = maximal_function(model_disc, f, hs)
    Mscaled = maximal_function(model_disc, -4.0 * f, hs)
    assert bool(np.array_equal(Mscaled.values[ind], 4.0 * Mf.values[ind]))
    g = f + 0.5 * (1.0 + np.cos(X))
    Mg = maximal_function(model_disc, g, hs)
    assert bool(np.all(Mf.values[ind] <= Mg.values[ind] + 1e-14))


def test_maximal_function_indicator_decay_and_audit(model_disc):
    grid = model_disc.grid
    X, Y = grid.meshes()
    ind = grid.in_domain
    blob = np.where(np.hypot(X - 0.3, Y) < 0.15, 1.0, 0.0)
    hs = interior_heights(model_disc)
    M = maximal_function(model_disc, blob, hs)
    assert M.values[grid.nearest_node((0.3, 0.0))] == 1.0
    assert M.values[grid.nearest_node((-0.6, 0.0))] == 0.0
    # brute-force audit: the reported sup dominates every probed average
    heights = height_grid(model_disc, hs)
    pts = grid.points(ind)
    phi = model_disc.phi.values
    for c in [(0.3, 0.0), (0.0, 0.0), (-0.4, 0.2), (0.1, -0.5)]:
        i, j = grid.nearest_node(c)
        D = (
            phi[ind]
            - phi[i, j]
            - model_disc.grad.gx[i, j] * (pts[:, 0] - grid.xs[i])
            - model_disc.grad.gy[i, j] * (pts[:, 1] - grid.ys[j])
        )
        for t in heights[::4]:
            W = D < t
            if W.any():
                avg = float(np.abs(blob[ind][W]).mean())
                assert M.values[i, j] >= avg - 1e-12


def test_strong_type_constant_gives_one(model_disc):
    grid = model_disc.grid
    ones = np.ones(grid.shape)
    M = maximal_function(model_disc, ones, interior_heights(model_disc))
    assert strong_type_ratio(M, ones, 3.0) == 1.0


def test_strong_type_indicator_stable_under_refinement(model_disc, model_disc_fine):
    def blob_on(pot):
        X, Y = pot.grid.meshes()
        return np.where(np.hypot(X - 0.3, Y) < 0.15, 1.0, 0.0)

    def ratio_on(pot):
        blob = blob_on(pot)
        return strong_type_ratio(maximal_function(pot, blob, interior_heights(pot)), blob, 2.0)

    r32 = ratio_on(model_disc)
    r64 = ratio_on(model_disc_fine)
    assert np.isfinite(r32) and np.isfinite(r64)
    assert 0.5 <= r32 / r64 <= 2.0
    assert r32 == pytest.approx(0.9465845028117216, rel=1e-12)
    assert r64 == pytest.approx(1.0059136435232485, rel=1e-12)


def test_strong_type_smooth_sweep(model_disc):
    grid = model_disc.grid
    X, Y = grid.meshes()
    rng = np.random.default_rng(5)
    coef = rng.normal(size=(3, 3))
    smooth = sum(coef[a, b] * np.cos(a * X + b * Y) for a in range(3) for b in range(3)) + 4.0
    M = maximal_function(model_disc, smooth, interior_heights(model_disc))
    ratios = [strong_type_ratio(M, smooth, p) for p in (1.5, 2.0, 4.0)]
    assert all(np.isfinite(r) for r in ratios)
    assert ratios[0] >= ratios[1] >= ratios[2]
    assert ratios == pytest.approx(
        [1.0030402111618015, 1.0027519557533042, 1.0016745444209436], rel=1e-12
    )


def test_strong_type_errors(model_disc):
    grid = model_disc.grid
    ones, zeros = np.ones(grid.shape), np.zeros(grid.shape)
    hs = interior_heights(model_disc)
    with pytest.raises(FieldError, match="p > 1"):
        strong_type_ratio(maximal_function(model_disc, ones, hs), ones, 1.0)
    with pytest.raises(FieldError, match="zero input"):
        strong_type_ratio(maximal_function(model_disc, zeros, hs), zeros, 2.0)
