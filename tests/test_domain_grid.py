import numpy as np
import pytest

from ma_lab.domain_grid import (
    ConvexDomain,
    DomainError,
    FieldError,
    Grid,
    GridError,
    ScalarField,
    build_domain,
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


def test_membership_and_boundary_samples_agree():
    for dom in (
        build_domain("disc", radius=1.0),
        build_domain("ellipse", a=1.0, b=0.5),
        build_domain("square", side=2.0),
    ):
        pts = dom.boundary_samples(64)
        assert pts.shape == (64, 2)
        assert dom.contains(pts).all()
        assert not dom.contains(np.array([[10.0, 10.0]])).any()


def _project_square_loop(dom, pts):
    """Per-point square projection, kept as the reference for project_boundary."""
    half = 0.5 * dom.params["side"]
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


# -- discretization ---------------------------------------------------------

def test_too_coarse_spacing_is_an_error():
    d = build_domain("disc", radius=1.0)
    with pytest.raises(GridError, match="16"):
        discretize(d, 0.5)


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
