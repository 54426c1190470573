import dataclasses

import numpy as np
import pytest

from ma_lab import domain_grid
from ma_lab.domain_grid import (
    DOMAINS,
    ConvexDomain,
    DomainError,
    FieldError,
    Grid,
    GridError,
    ScalarField,
    build_domain,
    build_once,
    discretize,
    fd_derivatives,
    fmt_float,
    lp_norm,
    write_field_csv,
)


# -- domain construction ----------------------------------------------------

def test_unit_disc_normalization_constant_is_one():
    d = build_domain("disc", radius=1.0)
    assert d.rho == pytest.approx(1.0)
    assert d.uniform_convexity_modulus == pytest.approx(1.0)


def test_ellipse_normalization_uses_minimal_curvature_ball():
    # semi-axes (1, 0.5): tightest curvature ball has radius b^2/a = 0.25,
    # the enclosing ball has radius 1, and the minimum is 0.25
    e = build_domain("ellipse", a=1.0, b=0.5)
    assert e.rho == pytest.approx(0.25)
    assert e.uniform_convexity_modulus == pytest.approx(0.5)


def test_square_is_flat_sided_with_inradius_circumradius_floor():
    s = build_domain("square", side=2.0)
    assert s.uniform_convexity_modulus == 0.0
    assert s.rho == pytest.approx(min(1.0, 1.0 / np.sqrt(2.0)))


def test_polygon_is_an_unknown_kind():
    with pytest.raises(DomainError, match="unknown domain kind 'polygon'"):
        build_domain("polygon", vertices=[(0, 0), (1, 0), (1, 1), (0, 1)])


@pytest.mark.parametrize("kind, params, key", [
    ("disc", {}, "radius"),
    ("disc", {"radius": float("nan")}, "radius"),
    ("disc", {"radius": 0.0}, "radius"),
    ("ellipse", {"a": 1.0}, "b"),
    ("ellipse", {"a": -1.0, "b": 1.0}, "a"),
    ("ellipse", {"a": 1.0, "b": float("inf")}, "b"),
    ("square", {"radius": 1.0}, "side"),
    ("square", {"side": float("inf")}, "side"),
    ("disc", {"radius": "abc"}, "radius"),
    ("disc", {"radius": None}, "radius"),
    ("disc", {"radius": [1.0]}, "radius"),
], ids=["disc-missing", "disc-nan", "disc-zero", "ellipse-missing", "ellipse-negative",
        "ellipse-inf", "square-other-key", "square-inf", "disc-text", "disc-none", "disc-list"])
def test_bad_sizes_are_domain_errors(kind, params, key):
    with pytest.raises(DomainError, match=f"{kind} size '{key}' must be given, positive and finite"):
        build_domain(kind, **params)


@pytest.mark.parametrize("kind", DOMAINS)
def test_membership_and_boundary_samples_agree(kind):
    _, keys = DOMAINS[kind]
    # unequal sizes, so that an ellipse is not a disc
    dom = build_domain(kind, **{key: 1.0 + 0.3 * k for k, key in enumerate(keys)})
    assert isinstance(dom, ConvexDomain)
    pts = dom.boundary_samples(64)
    assert pts.shape == (64, 2)
    assert dom.contains(pts).all()
    assert not dom.contains(np.array([[10.0, 10.0]])).any()
    _, dist, normal = dom.project_boundary(pts)
    np.testing.assert_allclose(dist, 0.0, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(np.linalg.norm(normal, axis=-1), 1.0, rtol=0.0, atol=1e-12)
    x0, x1, y0, y1 = dom.bbox()
    assert np.all((x0 <= pts[:, 0]) & (pts[:, 0] <= x1) & (y0 <= pts[:, 1]) & (pts[:, 1] <= y1))
    assert dom.diameter() >= np.linalg.norm(pts[:, None] - pts[None], axis=-1).max()


def _project_square_loop(dom, pts):
    """Per-point square projection, kept as the reference for project_boundary."""
    half = 0.5 * dom.side
    proj = np.empty_like(pts)
    normal = np.empty_like(pts)
    inside = dom.contains(pts)
    for k, p in enumerate(pts):
        if inside[k]:
            gaps = np.array([half - p[0], half + p[0], half - p[1], half + p[1]])
            side_idx = int(np.argmin(gaps))
            q = p.copy()
            if side_idx == 0:
                q[0] = half
                n = np.array([1.0, 0.0])
            elif side_idx == 1:
                q[0] = -half
                n = np.array([-1.0, 0.0])
            elif side_idx == 2:
                q[1] = half
                n = np.array([0.0, 1.0])
            else:
                q[1] = -half
                n = np.array([0.0, -1.0])
        else:
            q = np.clip(p, -half, half)
            d = p - q
            nn = np.linalg.norm(d)
            n = d / nn if nn > 0 else np.array([1.0, 0.0])
        proj[k] = q
        normal[k] = n
    dist = np.linalg.norm(pts - proj, axis=-1)
    return proj, dist, normal


@pytest.mark.parametrize("h", [1.0 / 32, 1.0 / 160])
def test_square_projection_matches_per_point_loop_on_nodes(h):
    dom = build_domain("square", side=2.0)
    pts = discretize(dom, h).points()
    assert np.any(np.abs(pts[:, 0]) == np.abs(pts[:, 1]))  # diagonal ties are covered
    got = dom.project_boundary(pts)
    ref = _project_square_loop(dom, pts)
    for a, b in zip(got, ref):
        assert np.array_equal(a, b)


def test_square_projection_matches_per_point_loop_outside():
    dom = build_domain("square", side=2.0)
    pts = np.random.default_rng(3).uniform(-3.0, 3.0, size=(6000, 2))
    pts = pts[~dom.contains(pts)][:2000]
    assert len(pts) == 2000
    proj, dist, normal = dom.project_boundary(pts)
    ref_proj, ref_dist, ref_normal = _project_square_loop(dom, pts)
    assert np.array_equal(proj, ref_proj)
    assert np.array_equal(dist, ref_dist)
    # the reference normalises each row through a 1-D norm (a dot product),
    # which may round its last bit differently: allow one ulp at the unit
    # vector's scale
    np.testing.assert_allclose(normal, ref_normal, rtol=0.0, atol=np.finfo(float).eps)


@pytest.mark.parametrize("a, b", [(1.2, 0.8), (0.8, 1.2)])
def test_ellipse_projection_is_the_nearest_boundary_point(a, b):
    dom = build_domain("ellipse", a=a, b=b)
    rng = np.random.default_rng(7)
    scatter = rng.uniform(-2.0, 2.0, size=(3000, 2))
    t = rng.uniform(-2.0, 2.0, size=500)
    # the long axis's evolute cusp: nearer the centre, an axis point's
    # nearest boundary point lies off the axis
    long_, short = max(a, b), min(a, b)
    cusp = (long_ ** 2 - short ** 2) / long_
    near = np.linspace(-0.99 * cusp, 0.99 * cusp, 40)
    zero = np.zeros_like(t)
    x_axis = np.stack([np.r_[t, near], np.r_[zero, 0.0 * near]], axis=-1)
    y_axis = np.stack([np.r_[zero, 0.0 * near], np.r_[t, near]], axis=-1)
    pts = np.vstack([scatter, x_axis, y_axis, [[0.0, 0.0]]])
    assert dom.contains(pts).any() and not dom.contains(pts).all()

    proj, dist, _ = dom.project_boundary(pts)
    np.testing.assert_allclose((proj[:, 0] / a) ** 2 + (proj[:, 1] / b) ** 2, 1.0, rtol=0.0, atol=1e-12)
    dense = dom.boundary_samples(4096)
    nearest_sample = np.sqrt(((pts[:, None, :] - dense[None, :, :]) ** 2).sum(axis=-1)).min(axis=1)
    assert np.all(dist <= nearest_sample + 1e-12)
    # inside the cusp on the long axis the nearest point leaves the axis
    long_axis = x_axis if a > b else y_axis
    across = 1 if a > b else 0
    assert np.all(np.abs(dom.project_boundary(long_axis[-40:])[0][:, across]) > 0.0)

    # off the centre, the y-axis of Ellipse(a, b) is the x-axis of
    # Ellipse(b, a), bit for bit
    on_y = np.r_[t, near]
    got = dom.project_boundary(np.stack([0.0 * on_y, on_y], axis=-1))
    ref = build_domain("ellipse", a=b, b=a).project_boundary(np.stack([on_y, 0.0 * on_y], axis=-1))
    assert got[0].tobytes() == ref[0][:, ::-1].tobytes()
    assert got[1].tobytes() == ref[1].tobytes()
    assert got[2].tobytes() == ref[2][:, ::-1].tobytes()


# -- discretization ---------------------------------------------------------

def test_too_coarse_spacing_is_an_error():
    d = build_domain("disc", radius=1.0)
    with pytest.raises(GridError, match="16"):
        discretize(d, 0.5)
    with pytest.raises(GridError, match="spacing must be positive, got nan"):
        discretize(d, float("nan"))


def test_too_fine_spacing_is_an_error():
    # refused before any array is allocated
    with pytest.raises(GridError, match="more than int32 node numbers reach"):
        discretize(build_domain("disc", radius=1.0), 1e-300)


def _traceback_length(exc):
    n, tb = 0, exc.__traceback__
    while tb is not None:
        n, tb = n + 1, tb.tb_next
    return n


def test_each_reader_of_a_failed_build_gets_a_traceback_of_its_own():
    built = {}

    def fail():
        raise GridError("no grid")

    with pytest.raises(GridError, match="no grid") as first:
        build_once(built, "grid", fail)
    stored = first.value
    depth = _traceback_length(stored)
    lengths = []
    for _ in range(3):
        with pytest.raises(GridError, match="no grid") as later:
            build_once(built, "grid", fail)
        assert later.value is not stored and later.value.__cause__ is stored
        lengths.append(_traceback_length(later.value))
    assert lengths[0] == lengths[1] == lengths[2]
    assert _traceback_length(stored) == depth


def test_marginal_spacing_warns_but_builds():
    d = build_domain("disc", radius=1.0)
    with pytest.warns(UserWarning, match="rho/4"):
        g = discretize(d, 0.25)
    assert int(g.interior.sum()) == 21


def test_interior_count_tracks_disc_area():
    g = discretize(build_domain("disc", radius=1.0), 1.0 / 64)
    n = int(g.interior.sum())
    target = np.pi * 64 ** 2
    assert abs(n - target) / target < 0.05


def test_square_interior_enumeration():
    g = discretize(build_domain("square", side=2.0), 0.25)
    assert int(g.interior.sum()) == 49


def test_masks_are_consistent():
    g = discretize(build_domain("ellipse", a=1.0, b=0.5), 1.0 / 32)
    assert not (g.interior & ~g.in_domain).any()
    assert not (g.boundary_adjacent & g.interior).any()
    assert (g.boundary_adjacent | g.interior).sum() == g.in_domain.sum()
    pts = g.points(g.in_domain)
    assert g.domain.contains(pts).all()


def test_cell_count_area_converges_first_order():
    d = build_domain("disc", radius=1.0)
    errs = []
    for h in (1.0 / 16, 1.0 / 32, 1.0 / 64):
        g = discretize(d, h)
        errs.append(abs(int(g.in_domain.sum()) * g.cell_area - np.pi))
    assert errs[0] > errs[1] > errs[2]
    # rate roughly O(h): each halving should at least halve the error budget 2x
    assert errs[0] / errs[2] > 2.0


def _with_nodes(grid, nodes):
    """The grid with only these (i, j) nodes in the domain."""
    mask = np.zeros(grid.shape, dtype=bool)
    for ij in nodes:
        mask[ij] = True
    return dataclasses.replace(grid, in_domain=mask)


def test_nearest_in_domain_searches_its_window_and_breaks_ties_row_major():
    g = discretize(build_domain("square", side=2.0), 1.0 / 8)
    w = domain_grid._NEAR_WINDOW
    c = 8
    p = (g.xs[c], g.ys[c])
    # the window is every node within w indices of nearest_node(p) along each axis
    assert _with_nodes(g, [(c + w, c - w)]).nearest_in_domain(p) == (c + w, c - w)
    assert _with_nodes(g, [(c - w, c + w)]).nearest_in_domain(p) == (c - w, c + w)
    for outside in [(c + w + 1, c), (c - w - 1, c), (c, c + w + 1), (c, c - w - 1)]:
        assert _with_nodes(g, [outside]).nearest_in_domain(p) is None
    assert _with_nodes(g, []).nearest_in_domain(p) is None
    # the nearest node wins, whatever its place in the window
    assert _with_nodes(g, [(c - 3, c), (c + 2, c + 1)]).nearest_in_domain(p) == (c + 2, c + 1)
    # among equally near nodes the first in row-major order wins: smaller i, then smaller j
    assert _with_nodes(g, [(c + 2, c), (c, c + 2)]).nearest_in_domain(p) == (c, c + 2)
    assert _with_nodes(g, [(c + 2, c), (c, c + 2), (c, c - 2)]).nearest_in_domain(p) == (c, c - 2)
    midway = (g.xs[c] + g.spacing / 2, g.ys[c])
    assert _with_nodes(g, [(c + 1, c), (c, c)]).nearest_in_domain(midway) == (c, c)
    # a point off the lattice searches around the clamped nearest node
    far = (5.0, 5.0)
    assert g.nearest_node(far) == (16, 16)
    assert _with_nodes(g, [(16 - w, 16)]).nearest_in_domain(far) == (16 - w, 16)
    assert _with_nodes(g, [(16 - w - 1, 16)]).nearest_in_domain(far) is None


def test_interp_returns_nan_outside_lattice():
    g = discretize(build_domain("disc", radius=1.0), 1.0 / 16)
    X, _ = g.meshes()
    vals = g.interp(X, np.array([[0.0, 0.0], [0.913, 0.0], [5.0, 5.0]]))
    assert vals[0] == pytest.approx(0.0, abs=1e-12)
    assert vals[1] == pytest.approx(0.913, abs=g.spacing)
    assert np.isnan(vals[2])


# -- finite differences -----------------------------------------------------

def test_quadratic_hessian_is_exact():
    g = discretize(build_domain("disc", radius=1.0), 1.0 / 32)
    X, Y = g.meshes()
    _, hess = fd_derivatives(ScalarField(g, X ** 2 + 3 * Y ** 2))
    it = g.interior
    assert np.nanmax(np.abs(hess.xx[it] - 2.0)) == 0.0
    assert np.nanmax(np.abs(hess.yy[it] - 6.0)) == 0.0
    assert np.nanmax(np.abs(hess.xy[it])) == 0.0


def test_cross_term_exact_on_bilinear():
    g = discretize(build_domain("disc", radius=1.0), 1.0 / 32)
    X, Y = g.meshes()
    _, hess = fd_derivatives(ScalarField(g, X * Y))
    assert np.nanmax(np.abs(hess.xy[g.interior] - 1.0)) == 0.0


def test_gradient_exact_on_affine():
    g = discretize(build_domain("disc", radius=1.0), 1.0 / 32)
    X, Y = g.meshes()
    grad, _ = fd_derivatives(ScalarField(g, 3.0 * X - 2.0 * Y + 7.0))
    it = g.interior
    assert np.nanmax(np.abs(grad.gx[it] - 3.0)) < 1e-12
    assert np.nanmax(np.abs(grad.gy[it] + 2.0)) < 1e-12


def test_smooth_field_second_order_convergence():
    d = build_domain("disc", radius=1.0)
    errs = []
    for h in (1.0 / 32, 1.0 / 64):
        g = discretize(d, h)
        X, Y = g.meshes()
        _, hess = fd_derivatives(ScalarField(g, np.sin(X) * np.sin(Y)))
        it = g.interior
        errs.append(np.nanmax(np.abs(hess.xx[it] + np.sin(X[it]) * np.sin(Y[it]))))
    assert errs[0] / errs[1] >= 3.5


# -- the cascade kept as reference --------------------------------------------

def _shift(a, di, dj, fill=np.nan):
    out = np.full_like(a, fill)
    nx, ny = a.shape
    src_i = slice(max(di, 0), nx + min(di, 0))
    dst_i = slice(max(-di, 0), nx + min(-di, 0))
    src_j = slice(max(dj, 0), ny + min(dj, 0))
    dst_j = slice(max(-dj, 0), ny + min(-dj, 0))
    out[dst_i, dst_j] = a[src_i, src_j]
    return out


def _masks_eight_shift(inside):
    """interior and ring from a padded loop over the 8 neighbours, kept as the reference for discretize."""
    nx, ny = inside.shape
    padded = np.zeros((nx + 2, ny + 2), dtype=bool)
    padded[1:-1, 1:-1] = inside
    has_exterior_neighbor = np.zeros((nx, ny), dtype=bool)
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            if di == 0 and dj == 0:
                continue
            has_exterior_neighbor |= ~padded[1 + di : nx + 1 + di, 1 + dj : ny + 1 + dj]
    ring = inside & has_exterior_neighbor
    return inside & ~ring, ring


def _fd_cascade(fld):
    """fd_derivatives as np.where cascades in which the last step that holds wins, kept as the reference.

    Each step spells out its exclusions. Returns the six arrays, and per
    Hessian and gradient entry the priority level that each in-domain node
    took: its index in fd_derivatives' list, or the list's length where no
    stencil exists (-1 off the domain).
    """
    g = fld.grid
    h = g.spacing
    v = np.where(g.in_domain, fld.values, np.nan)
    ok = g.in_domain

    def sh(di, dj):
        return _shift(v, di, dj)

    def shok(di, dj):
        return _shift(ok, di, dj, fill=False)

    def cascade(n_levels, steps):
        out = np.zeros_like(v)
        level = np.full(v.shape, n_levels)
        for k, cond, value in steps:
            out = np.where(cond, value, out)
            level = np.where(cond, k, level)
        return np.where(ok, out, np.nan), np.where(ok, level, -1)

    E, W = sh(1, 0), sh(-1, 0)
    N, S = sh(0, 1), sh(0, -1)
    EE, WW = sh(2, 0), sh(-2, 0)
    NN, SS = sh(0, 2), sh(0, -2)
    okE, okW, okN, okS = shok(1, 0), shok(-1, 0), shok(0, 1), shok(0, -1)
    okEE, okWW, okNN, okSS = shok(2, 0), shok(-2, 0), shok(0, 2), shok(0, -2)

    def first_deriv(plus, minus, plus2, minus2, okp, okm, okp2, okm2):
        return cascade(5, [
            (4, okm & ~okp & ~okm2, (v - minus) / h),
            (3, okp & ~okm & ~okp2, (plus - v) / h),
            (2, okm & okm2 & ~okp, (3 * v - 4 * minus + minus2) / (2 * h)),
            (1, okp & okp2 & ~okm, (-3 * v + 4 * plus - plus2) / (2 * h)),
            (0, okp & okm, (plus - minus) / (2 * h)),
        ]), (okp & okm) | (okp & okp2) | (okm & okm2)

    def second_deriv(plus, minus, plus2, minus2, okp, okm, okp2, okm2):
        return cascade(3, [
            (2, okm & okm2 & ~okp, (v - 2 * minus + minus2) / (h * h)),
            (1, okp & okp2 & ~okm, (v - 2 * plus + plus2) / (h * h)),
            (0, okp & okm, (plus - 2 * v + minus) / (h * h)),
        ])

    (gx, gx_level), gx_exact = first_deriv(E, W, EE, WW, okE, okW, okEE, okWW)
    (gy, gy_level), gy_exact = first_deriv(N, S, NN, SS, okN, okS, okNN, okSS)
    hxx, hxx_level = second_deriv(E, W, EE, WW, okE, okW, okEE, okWW)
    hyy, hyy_level = second_deriv(N, S, NN, SS, okN, okS, okNN, okSS)

    NE_v, NW_v = sh(1, 1), sh(-1, 1)
    SE_v, SW_v = sh(1, -1), sh(-1, -1)
    okNE, okNW = shok(1, 1), shok(-1, 1)
    okSE, okSW = shok(1, -1), shok(-1, -1)
    hxy, hxy_level = cascade(5, [
        (4, okW & okN & okNW, -(NW_v - W - N + v) / (h * h)),
        (3, okE & okS & okSE, -(SE_v - E - S + v) / (h * h)),
        (2, okW & okS & okSW, (SW_v - W - S + v) / (h * h)),
        (1, okE & okN & okNE, (NE_v - E - N + v) / (h * h)),
        (0, okNE & okNW & okSE & okSW, (NE_v + SW_v - NW_v - SE_v) / (4 * h * h)),
    ])
    values = {"gx": gx, "gy": gy, "quadratic_exact": ok & gx_exact & gy_exact,
              "xx": hxx, "yy": hyy, "xy": hxy}
    levels = {"gx": gx_level, "gy": gy_level, "xx": hxx_level, "yy": hyy_level, "xy": hxy_level}
    return values, levels


def _derivative_arrays(fld):
    grad, hess = fd_derivatives(fld)
    return {"gx": grad.gx, "gy": grad.gy, "quadratic_exact": grad.quadratic_exact,
            "xx": hess.xx, "yy": hess.yy, "xy": hess.xy}


def _assert_bitwise(got, ref):
    assert got.keys() == ref.keys()
    for key in ref:
        assert got[key].dtype == ref[key].dtype, key
        assert got[key].tobytes() == ref[key].tobytes(), key


def _probe(X, Y):
    """A smooth field that no stencil differences to zero."""
    return np.exp(0.7 * X + 1.3 * Y) + np.sin(3.0 * X * Y)


GRIDS = [
    ("disc", {"radius": 1.0}, 1.0 / 16), ("disc", {"radius": 1.0}, 1.0 / 32),
    ("disc", {"radius": 1.0}, 1.0 / 64), ("disc", {"radius": 0.37}, 1.0 / 160),
    ("ellipse", {"a": 1.2, "b": 0.8}, 1.0 / 32), ("ellipse", {"a": 1.2, "b": 0.8}, 1.0 / 64),
    ("ellipse", {"a": 0.3, "b": 1.7}, 1.0 / 80), ("square", {"side": 2.0}, 1.0 / 32),
    ("square", {"side": 2.0}, 1.0 / 160),
]
GRID_IDS = [f"{kind}-{'-'.join(map(str, params.values()))}-1/{round(1 / h)}" for kind, params, h in GRIDS]


@pytest.mark.parametrize("kind, params, h", GRIDS, ids=GRID_IDS)
def test_masks_and_derivatives_match_the_cascade_bit_for_bit(kind, params, h):
    g = discretize(build_domain(kind, **params), h)
    interior, ring = _masks_eight_shift(g.in_domain)
    assert np.array_equal(g.interior, interior)
    assert np.array_equal(g.boundary_adjacent, ring)
    fld = ScalarField.from_function(g, _probe)
    X, Y = g.meshes()
    assert np.array_equal(fld.values, np.where(g.in_domain, _probe(X, Y), np.nan), equal_nan=True)
    _assert_bitwise(_derivative_arrays(fld), _fd_cascade(fld)[0])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_ragged_mask_reaches_every_priority_level_and_matches_the_cascade(seed):
    """A grid whose mask drops 30 % of the in-domain nodes reaches every stencil and the default 0."""
    base = discretize(build_domain("ellipse", a=1.2, b=0.8), 1.0 / 32)
    rng = np.random.default_rng(seed)
    inside = base.in_domain & (rng.random(base.shape) >= 0.3)
    interior, ring = _masks_eight_shift(inside)
    g = Grid(base.domain, base.spacing, base.xs, base.ys, inside, interior, ring)
    fld = ScalarField(g, rng.normal(size=g.shape))
    ref, levels = _fd_cascade(fld)
    _assert_bitwise(_derivative_arrays(fld), ref)
    # 5 stencils for first derivatives and the cross term, 3 for second derivatives, plus no stencil
    n_levels = {"gx": 5, "gy": 5, "xx": 3, "yy": 3, "xy": 5}
    for key, n in n_levels.items():
        assert set(np.unique(levels[key][inside])) == set(range(n + 1)), key
        assert np.all(ref[key][levels[key] == n] == 0.0), key


@pytest.mark.parametrize("kind, params, h, counts", [
    ("disc", {"radius": 1.0}, 1.0 / 32, (2, 2, 4)),
    ("disc", {"radius": 1.0}, 1.0 / 64, (2, 2, 4)),
    ("disc", {"radius": 1.0}, 1.0 / 128, (2, 2, 4)),
    ("ellipse", {"a": 1.2, "b": 0.8}, 1.0 / 32, (0, 0, 0)),
    ("ellipse", {"a": 1.2, "b": 0.8}, 1.0 / 64, (0, 0, 0)),
    ("square", {"side": 2.0}, 1.0 / 32, (0, 0, 0)),
], ids=["disc-1/32", "disc-1/64", "disc-1/128", "ellipse-1/32", "ellipse-1/64", "square-1/32"])
def test_in_domain_nodes_without_a_hessian_stencil(kind, params, h, counts):
    """The in-domain nodes where fd_derivatives finds no stencil and returns its default 0.

    The probe's stencil values are never 0, so a 0 is the default. On the
    disc these are the four lattice poles on the boundary: hxx at (0, ±1),
    hyy at (±1, 0) and hxy at all four. Fixing the pole stencils changes
    this test with the default.
    """
    g = discretize(build_domain(kind, **params), h)
    _, hess = fd_derivatives(ScalarField.from_function(g, lambda X, Y: np.exp(0.7 * X + 1.3 * Y)))
    zeros = tuple(int(np.count_nonzero(entry[g.in_domain] == 0.0)) for entry in (hess.xx, hess.yy, hess.xy))
    assert zeros == counts
    if kind == "disc":
        X, Y = g.meshes()
        on_y, on_x = {(0.0, 1.0), (0.0, -1.0)}, {(1.0, 0.0), (-1.0, 0.0)}
        for entry, poles in ((hess.xx, on_y), (hess.yy, on_x), (hess.xy, on_x | on_y)):
            assert {(X[i, j], Y[i, j]) for i, j in np.argwhere(g.in_domain & (entry == 0.0))} == poles


# -- Lp norms ---------------------------------------------------------------

def test_constant_norm_matches_disc_area():
    g = discretize(build_domain("disc", radius=1.0), 1.0 / 64)
    X, _ = g.meshes()
    val = lp_norm(g, np.ones_like(X), 2)
    assert val == pytest.approx(np.sqrt(np.pi), rel=0.02)


def test_norm_homogeneity_exact():
    g = discretize(build_domain("disc", radius=1.0), 1.0 / 32)
    rng = np.random.default_rng(7)
    f = rng.normal(size=g.shape)
    for p in (1.0, 2.0, 3.5, np.inf):
        base = lp_norm(g, f, p)
        assert lp_norm(g, -2.5 * f, p) == pytest.approx(2.5 * base, rel=1e-14)


def test_linear_profile_l1_on_unit_square():
    # x + 1/2 runs from 0 to 1 across the centred unit square
    g = discretize(build_domain("square", side=1.0), 1.0 / 128)
    X, _ = g.meshes()
    assert lp_norm(g, X + 0.5, 1) == pytest.approx(0.5, rel=0.02)


def test_mean_norms_monotone_in_exponent():
    g = discretize(build_domain("disc", radius=1.0), 1.0 / 32)
    area = g.in_domain.sum() * g.cell_area
    rng = np.random.default_rng(11)
    for _ in range(5):
        f = rng.normal(size=g.shape)
        means = [lp_norm(g, f, p) / area ** (1.0 / p) for p in (1.0, 2.0, 4.0, 8.0)]
        assert all(a <= b + 1e-12 for a, b in zip(means, means[1:]))


def test_max_norm_is_supremum():
    g = discretize(build_domain("disc", radius=1.0), 1.0 / 16)
    X, Y = g.meshes()
    f = X + Y
    assert lp_norm(g, f, np.inf) == pytest.approx(np.max(np.abs(f[g.in_domain])))


def test_float_formatting_round_trips():
    for x in (0.1, 1.0 / 3.0, 2.0, -1e-8, 12345.6789):
        assert float(fmt_float(x)) == x


def test_write_field_csv_rows_are_fmt_float_per_node(tmp_path):
    g = discretize(build_domain("ellipse", a=1.2, b=0.8), 1.0 / 16)
    X, Y = g.meshes()
    f = ScalarField(g, np.exp(X) * np.sin(3.0 * Y) / 7.0)
    band = g.in_domain & ~g.interior
    for mask in (None, band):
        path = tmp_path / "field.csv"
        write_field_csv(f, str(path), mask=mask)
        rows = ["x,y,value"] + [
            f"{fmt_float(X[i, j])},{fmt_float(Y[i, j])},{fmt_float(f.values[i, j])}"
            for i, j in np.argwhere(g.in_domain if mask is None else mask)
        ]
        assert path.read_bytes() == ("\n".join(rows) + "\n").encode()
