"""Tests for quasi-distance sections and their geometry."""

import heapq

import numpy as np
import pytest
from scipy import ndimage

from conftest import quasi_distance, tangent_gap
from ma_lab.domain_grid import build_domain, discretize
from ma_lab.ma_solve import assemble_potential
from ma_lab.section_geom import (
    SectionError,
    dichotomy_classify,
    engulfing_constant,
    gradient_at,
    interior_heights,
    localization_fit,
    maximal_height,
    measure_c_cap,
    pair_gaps,
    phi_extended,
    section,
    section_cells,
    sublevel_cells,
    volume_scaling,
)


def test_quasi_distance_matches_closed_form(model_square_fine):
    d2 = float(quasi_distance(model_square_fine, (0.0, 0.0), np.array([0.6, 0.8])))
    assert d2 == pytest.approx(0.5, abs=1e-4)
    assert d2 == pytest.approx(0.5000122070312499, rel=1e-12)


def test_quasi_distance_nonnegative_and_zero_at_center(pinched32):
    pot, _ = pinched32
    grid = pot.grid
    pts = grid.points(grid.in_domain)
    for c in [(0.0, 0.0), (0.4, 0.3), (-0.5, 0.1), (0.0, -0.7)]:
        vals = quasi_distance(pot, c, pts)
        assert float(np.nanmin(vals)) >= -1e-10
    assert float(quasi_distance(pot, (0.0, 0.0), np.array([0.0, 0.0]))) == 0.0


def test_pair_gaps_over_all_nodes_is_the_tangent_gap_bitwise(pinched_suite32):
    pot = pinched_suite32
    grid = pot.grid
    X, Y = grid.meshes()
    v, gx, gy = pot.phi.values, pot.grad.gx, pot.grad.gy
    ci, cj = np.nonzero(grid.in_domain)
    ti, tj = np.indices(grid.shape).reshape(2, -1)
    for k in np.linspace(0, ci.size - 1, 9).astype(int):
        i, j = ci[k], cj[k]
        _, D = next(pair_gaps(pot, [i], [j], ti, tj, 1))
        gap = D.reshape(grid.shape)
        want = v - v[i, j] - gx[i, j] * (X - grid.xs[i]) - gy[i, j] * (Y - grid.ys[j])
        assert bool(np.all(np.isnan(gap[~grid.in_domain])))
        assert np.array_equal(gap[grid.in_domain], want[grid.in_domain])


def test_quasi_distance_affine_invariance(model_square):
    grid = model_square.grid
    shifted = assemble_potential(
        grid, lambda X, Y: 0.5 * (X ** 2 + Y ** 2) + 3.0 * X - 2.0 * Y + 0.7, g=1.0
    )
    pts = grid.points(grid.in_domain)
    a = quasi_distance(model_square, (0.3, -0.2), pts)
    b = quasi_distance(shifted, (0.3, -0.2), pts)
    assert float(np.nanmax(np.abs(a - b))) <= 1e-12
    sa = section(model_square, (0.3, -0.2), 0.2)
    sb = section(shifted, (0.3, -0.2), 0.2)
    assert np.array_equal(sa.cells, sb.cells)


def test_section_measure_tracks_ball(model_square_fine):
    s_half = section(model_square_fine, (0.0, 0.0), 0.5)
    s_eighth = section(model_square_fine, (0.0, 0.0), 0.125)
    assert s_half.is_interior and s_eighth.is_interior
    assert s_half.measure == pytest.approx(np.pi, rel=2e-3)
    assert s_eighth.measure == pytest.approx(np.pi / 4.0, rel=2e-3)
    assert s_half.measure == pytest.approx(3.13897705078125, rel=1e-12)
    assert s_eighth.measure == pytest.approx(0.78424072265625, rel=1e-12)


def test_section_monotone_inclusion(model_square):
    s1 = section(model_square, (0.3, -0.2), 0.05)
    s2 = section(model_square, (0.3, -0.2), 0.2)
    assert bool(np.all(~s1.cells | s2.cells))
    assert int(s1.cells.sum()) == 325
    assert int(s2.cells.sum()) == 1289


def test_section_flood_fill_keeps_one_component(model_square):
    grid = model_square.grid
    two_well = assemble_potential(
        grid, lambda X, Y: 0.25 * (X ** 2 - 1.0) ** 2 + 0.5 * Y ** 2, g=1.0
    )
    well = section(two_well, (1.0, 0.0), 0.05)
    vals = quasi_distance(two_well, (1.0, 0.0), grid.points(grid.in_domain))
    brute = np.zeros(grid.shape, dtype=bool)
    brute[grid.in_domain] = vals < 0.05
    assert bool(np.all(~well.cells | brute))
    assert int(well.cells.sum()) == 235
    assert int(brute.sum()) == 456
    assert grid.points(well.cells)[:, 0].min() > 0.0
    assert grid.points(brute)[:, 0].min() < 0.0


def test_section_height_validation_and_single_cell(model_square):
    with pytest.raises(SectionError, match="positive"):
        section(model_square, (0.0, 0.0), -1.0)
    tiny = section(model_square, (0.0, 0.0), 1e-6)
    assert int(tiny.cells.sum()) == 1
    assert tiny.measure == model_square.grid.cell_area


def test_section_equals_dense_floods(pinched_suite32):
    pot = pinched_suite32
    grid = pot.grid
    m = interior_heights(pot)
    ci, cj = np.nonzero(np.where(grid.interior, m, 0.0) > 0.0)
    kinds = set()
    for k in range(0, ci.size, 37):
        idx = (ci[k], cj[k])
        gap = tangent_gap(pot, *idx)
        # 2t = 1.5 m passes the least band gap, so the doubled section may
        # reach the band
        for t in (0.25 * m[idx], 0.75 * m[idx]):
            sec = section(pot, (grid.xs[idx[0]], grid.ys[idx[1]]), t)
            cells = sublevel_cells(pot, gap, t, idx)
            is_interior = not (sublevel_cells(pot, gap, 2.0 * t, idx) & grid.boundary_adjacent).any()
            assert np.array_equal(sec.cells, cells)
            assert sec.is_interior == is_interior
            assert sec.measure == int(cells.sum()) * grid.cell_area
            kinds.add(is_interior)
    assert kinds == {True, False}


def test_solved_disc_distance_matches_paraboloid(disc32):
    grid = disc32.grid
    pts = grid.points(grid.interior)
    bulk = np.hypot(pts[:, 0], pts[:, 1]) <= 0.5
    for c in [(0.0, 0.0), (0.3, 0.1), (-0.4, -0.2)]:
        got = quasi_distance(disc32, c, pts)
        i, j = grid.nearest_node(c)
        cx, cy = grid.xs[i], grid.ys[j]
        exact = 0.5 * ((pts[:, 0] - cx) ** 2 + (pts[:, 1] - cy) ** 2)
        diffs = np.abs(got - exact)
        assert float(np.nanmax(diffs[bulk])) <= 1e-4
        assert float(np.nanmax(diffs)) <= 5e-4


def test_maximal_height_on_model_disc(model_disc, model_disc_fine):
    h32 = model_disc.grid.spacing
    hbar, witness = maximal_height(model_disc, (0.5, 0.0))
    assert hbar == pytest.approx(0.10986328124935968, rel=1e-9)
    assert abs(hbar - 0.125) <= 2.5 * h32
    assert np.allclose(witness, [0.96875, 0.0])
    hbar0, _ = maximal_height(model_disc, (0.0, 0.0))
    assert hbar0 == pytest.approx(0.457519531249589, rel=1e-9)
    assert abs(hbar0 - 0.5) <= 2.5 * h32
    hbar_f, _ = maximal_height(model_disc_fine, (0.5, 0.0))
    assert abs(hbar_f - 0.125) < abs(hbar - 0.125)


def test_maximal_height_exact_on_box(model_square):
    grid = model_square.grid
    hbar, witness = maximal_height(model_square, (0.5, 0.0))
    assert hbar == pytest.approx(1.125, abs=1e-9)
    assert np.allclose(witness, [2.0, 0.0])
    hs = interior_heights(model_square)
    for c in [(0.5, 0.0), (0.0, 0.0), (-1.0, 1.0)]:
        pointwise, _ = maximal_height(model_square, c)
        assert hs[grid.nearest_node(c)] == pytest.approx(pointwise, abs=1e-9)


def minimax_height(pot, idx):
    """Priority-flood reference for the maximal height at the node idx.

    Over all 4-connected in-domain node paths from idx to the boundary band,
    the least possible largest tangent gap along the path (Pollack 1960).
    Nodes leave the heap in nondecreasing bottleneck order, so the first band
    node to leave it carries the answer.
    """
    grid = pot.grid
    gap = tangent_gap(pot, *idx)
    best = np.full(grid.shape, np.inf)
    best[idx] = gap[idx]
    heap = [(gap[idx], idx)]
    nx, ny = grid.shape
    while heap:
        b, (i, j) = heapq.heappop(heap)
        if b > best[i, j]:
            continue
        if grid.boundary_adjacent[i, j]:
            return b
        for n in ((i + 1, j), (i - 1, j), (i, j + 1), (i, j - 1)):
            if 0 <= n[0] < nx and 0 <= n[1] < ny and grid.in_domain[n]:
                nb = max(b, gap[n])
                if nb < best[n]:
                    best[n] = nb
                    heapq.heappush(heap, (nb, n))
    raise AssertionError("no path to the boundary band")


def test_maximal_height_equals_minimax_reference(pinched_suite32):
    pot = pinched_suite32
    grid = pot.grid
    ci, cj = np.nonzero(grid.interior)
    # every 3rd centre next to the band, where the ring-gap minimum m of
    # interior_heights falls below the flood-filled height b on the disc and
    # the ellipse, and every 29th of the others (on the square most m != b)
    next_to_band = ndimage.binary_dilation(grid.boundary_adjacent)[ci, cj]
    sample = np.concatenate([np.flatnonzero(next_to_band)[::3], np.flatnonzero(~next_to_band)[::29]])
    m = interior_heights(pot)
    n_differ = 0
    for k in sample:
        idx = (ci[k], cj[k])
        hbar, witness = maximal_height(pot, (grid.xs[idx[0]], grid.ys[idx[1]]))
        b = minimax_height(pot, idx)
        assert hbar == b
        n_differ += bool(m[idx] != b)
        # the witness is a band node in the section just above the height
        w = grid.nearest_node(witness)
        assert grid.boundary_adjacent[w]
        assert sublevel_cells(pot, tangent_gap(pot, *idx), np.nextafter(b, np.inf), idx)[w]
    assert n_differ >= 5


def test_section_cells_equal_dense_floods(pinched_suite32):
    pot = pinched_suite32
    grid = pot.grid
    ci, cj = np.nonzero(grid.interior)
    m = interior_heights(pot)[ci, cj]
    factors = (0.05, 0.5, 1.0, 2.0)
    floods = [section_cells(pot, ci, cj, f * m) for f in factors]
    for k in range(ci.size):
        idx = (ci[k], cj[k])
        gap = tangent_gap(pot, *idx)
        for f, cells in zip(factors, floods):
            ref = np.flatnonzero(sublevel_cells(pot, gap, f * m[k], idx))
            assert np.array_equal(cells[k], ref)
    # at twice the ring-gap minimum some section is the whole domain, which
    # only a patch as large as the grid holds
    assert max(c.size for c in floods[-1]) == grid.in_domain.sum()
    # the centre's own gap is 0, so a nonpositive height holds nothing
    t = np.where(np.arange(ci.size) % 2 == 0, 0.0, -np.abs(m))
    assert all(c.size == 0 for c in section_cells(pot, ci, cj, t))


def test_measure_c_cap(model_square):
    assert measure_c_cap(interior_heights(model_square)) == pytest.approx(0.1, abs=1e-12)


def test_engulfing_constant_on_model(model_square):
    sections = [section(model_square, (0.0, 0.0), t) for t in (0.05, 0.1, 0.2)]
    theta = engulfing_constant(model_square, sections)
    assert 3.8 <= theta <= 4.2
    assert theta == pytest.approx(3.994140625, rel=1e-12)


def test_engulfing_constant_on_solved_potential(pinched32):
    pot, _ = pinched32
    sections = [section(pot, c, t) for c in [(0.0, 0.0), (0.3, 0.1)] for t in (0.02, 0.05, 0.1)]
    theta = engulfing_constant(pot, sections)
    assert 3.8 <= theta <= 4.2
    assert theta == pytest.approx(3.9944297212009228, rel=1e-12)


def test_volume_scaling_on_model(model_square):
    heights = np.geomspace(0.02, 0.5, 8)
    pairs = [((0.0, 0.0), float(t)) for t in heights]
    pairs += [((0.3, -0.2), float(t)) for t in heights]
    sections = [section(model_square, c, t) for c, t in pairs]
    exponent = volume_scaling(sections)
    assert 0.95 <= exponent <= 1.05
    assert exponent == pytest.approx(1.0022209806255131, rel=1e-12)
    # |S_t| = 2 pi t for the model quadratic
    ratios = [sec.measure / sec.height for sec in sections]
    assert min(ratios) == pytest.approx(2.0 * np.pi, rel=0.1)
    assert max(ratios) == pytest.approx(2.0 * np.pi, rel=0.1)


def test_volume_scaling_on_solved_potential(pinched32):
    pot, _ = pinched32
    heights = np.geomspace(0.01, 0.1, 8)
    pairs = [((0.0, 0.0), float(t)) for t in heights]
    pairs += [((0.2, -0.1), float(t)) for t in heights]
    exponent = volume_scaling([section(pot, c, t) for c, t in pairs])
    assert 0.9 <= exponent <= 1.1
    assert exponent == pytest.approx(0.9895738701259338, rel=1e-12)
    lean = volume_scaling([section(pot, (0.0, -0.75), float(t)) for t in np.geomspace(0.01, 0.08, 8)])
    assert 0.85 <= lean <= 1.15
    assert lean == pytest.approx(0.9011598198173538, rel=1e-12)


def test_volume_scaling_needs_enough_sections(model_square):
    with pytest.raises(SectionError, match="need 4"):
        volume_scaling([section(model_square, (0.0, 0.0), 0.1)])


def test_dichotomy_interior_versus_boundary(model_square):
    inner = dichotomy_classify(model_square, (0.0, 0.0), 0.05)
    assert inner.kind == "interior"
    assert inner.boundary_point is None and inner.c_bar is None
    near = dichotomy_classify(model_square, (0.0, -1.9), 0.05)
    assert near.kind == "boundary"
    assert np.allclose(near.boundary_point, [0.0, -2.0])
    assert near.c_bar == pytest.approx(2.8613281250013314, rel=1e-9)
    finer = dichotomy_classify(model_square, (0.0, -1.9), 0.025)
    assert finer.kind == "boundary"
    assert finer.c_bar == pytest.approx(3.3203125000015454, rel=1e-9)
    assert 0.5 <= near.c_bar / finer.c_bar <= 2.0


def test_dichotomy_equals_dense_reference(pinched_suite32):
    pot = pinched_suite32
    grid = pot.grid
    ring = grid.boundary_adjacent
    m = interior_heights(pot)
    ci, cj = np.nonzero(np.where(grid.interior, m, 0.0) > 0.0)
    kinds = set()
    for k in range(0, ci.size, 41):
        idx = (ci[k], cj[k])
        # 2t passes the least band gap m at every other centre
        t = (0.25 if k % 2 else 0.75) * m[idx]
        res = dichotomy_classify(pot, (grid.xs[idx[0]], grid.ys[idx[1]]), t)
        gap = tangent_gap(pot, *idx)
        cells2 = sublevel_cells(pot, gap, 2.0 * t, idx)
        assert np.array_equal(res.doubled_cells, cells2)
        kinds.add(res.kind)
        if res.kind == "interior":
            assert not (cells2 & ring).any()
            continue
        # the band node of least gap, first in row-major order on ties
        bi, bj = np.nonzero(cells2 & ring)
        b = np.argmin(gap[bi, bj])
        z = grid.domain.project_boundary(np.array([grid.xs[bi[b]], grid.ys[bj[b]]]))[0][0]
        assert np.array_equal(res.boundary_point, z)
        phi_z = float(pot.boundary_datum(z[None, :])[0])
        grad_z = gradient_at(pot, z)
        X, Y = grid.meshes()
        gap_z = pot.phi.values - phi_z - grad_z[0] * (X - z[0]) - grad_z[1] * (Y - z[1])
        assert res.c_bar == max(float(np.max(gap_z[cells2])) / t, 0.0)
    assert kinds == {"interior", "boundary"}


@pytest.mark.parametrize("t", [0.05, 0.025])
def test_dichotomy_c_bar_is_largest_boundary_gap(model_square, t):
    pot = model_square
    res = dichotomy_classify(pot, (0.0, -1.9), t)
    z = res.boundary_point
    phi_z = float(pot.boundary_datum(z[None, :])[0])
    grad_z = gradient_at(pot, z)
    X, Y = pot.grid.meshes()
    gap_z = pot.phi.values - phi_z - grad_z[0] * (X - z[0]) - grad_z[1] * (Y - z[1])
    assert res.c_bar * t == pytest.approx(np.max(gap_z[res.doubled_cells]), rel=1e-15, abs=0.0)


@pytest.mark.parametrize("point, h", [((0.0, -2.0), 0.125), ((1.5, -2.0), 0.25), ((2.0, 0.5), 0.0625)])
def test_localization_sandwich_is_attained(model_square, point, h):
    pot = model_square
    grid = pot.grid
    fit = localization_fit(pot, point, h)
    radius = np.sqrt(2.0 * h)
    A = np.array([[1.0, -fit.tau], [0.0, 1.0]])
    W = fit.frame.to_frame(grid.points(grid.in_domain)) @ A.T
    r = np.hypot(W[:, 0], W[:, 1])
    cells = fit.cells[grid.in_domain]
    assert fit.k_outer * radius == pytest.approx(r[cells].max(), rel=1e-15, abs=0.0)
    # the nearest in-domain non-cell attains the inner radius
    assert r[~cells].min() / radius == fit.k_inner


def test_localization_flat_edge_is_half_ball(model_square):
    fit = localization_fit(model_square, (0.0, -2.0), 0.125)
    assert fit.tau == 0.0
    assert fit.k_inner == pytest.approx(1.0, abs=0.05)
    assert fit.k_outer == pytest.approx(1.0, abs=0.05)
    assert fit.k_outer == pytest.approx(0.9882117688026426, rel=1e-9)
    assert int(fit.cells.sum()) == 412


def test_localization_recovers_shear(model_square):
    grid = model_square.grid
    tau_true = 0.3
    sheared = assemble_potential(
        grid,
        lambda X, Y: 0.5 * (X ** 2 + Y ** 2) + tau_true * X * (Y + 2.0),
        g=1.0 - tau_true ** 2,
    )
    fit = localization_fit(sheared, (0.0, -2.0), 0.125)
    assert fit.tau == pytest.approx(-tau_true, abs=0.05)
    assert fit.k_outer <= 1.06
    assert fit.k_inner >= 0.94
    # the closed form of the shear's norms that localization_fit states
    A = np.array([[1.0, -fit.tau], [0.0, 1.0]])
    norm = (abs(fit.tau) + np.sqrt(fit.tau ** 2 + 4.0)) / 2.0
    assert np.linalg.norm(A, 2) == pytest.approx(norm, rel=1e-12)
    assert np.linalg.norm(np.linalg.inv(A), 2) == pytest.approx(norm, rel=1e-12)


def test_localization_sweep_on_solved_disc(disc64):
    ratios = []
    for h in (0.04, 0.02, 0.01):
        fit = localization_fit(disc64, (0.0, -1.0), h)
        assert fit.tau == 0.0
        ratios.append(fit.k_outer / fit.k_inner)
    assert all(r <= 4.0 for r in ratios)
    assert ratios == pytest.approx(
        [1.0719128391201111, 1.1069930108232722, 1.1214864951317631], rel=1e-9
    )


def test_localization_error_paths(model_square):
    with pytest.raises(SectionError, match="positive"):
        localization_fit(model_square, (0.0, -2.0), 0.0)
    with pytest.raises(SectionError, match="refine the grid"):
        localization_fit(model_square, (0.0, -2.0), 1e-6)


def test_phi_extended_values_and_nan(model_square):
    vals = phi_extended(model_square, np.array([[5.0, 5.0], [0.5, 0.25]]))
    assert np.isnan(vals[0])
    assert vals[1] == pytest.approx(0.15625, abs=1e-12)


def test_phi_extended_is_exact_on_a_quadratic_where_the_bilinear_cell_leaves_the_domain():
    # at these points the bilinear cell has an exterior corner, so the value
    # is the second-order Taylor step from the nearest in-domain node, which
    # a quadratic's exact stencil derivatives make exact
    grid = discretize(build_domain("disc", radius=1.0), 1.0 / 32)
    quadratic = lambda X, Y: 0.7 * X ** 2 + 0.3 * X * Y + 0.4 * Y ** 2 + 0.1 * X - 0.2 * Y
    pot = assemble_potential(grid, quadratic)
    theta = np.linspace(0.1, 2.0 * np.pi, 40, endpoint=False)
    pts = 0.99 * np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    assert grid.domain.contains(pts).all()
    pts = pts[np.isnan(grid.interp(pot.phi.values, pts))]
    assert len(pts) >= 30
    np.testing.assert_allclose(phi_extended(pot, pts), quadratic(pts[:, 0], pts[:, 1]), rtol=0.0, atol=1e-13)
