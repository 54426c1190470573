import numpy as np
import pytest

from ma_lab.barriers import BarrierError, build_supersolution, verify_supersolution
from ma_lab.domain_grid import build_domain, discretize
from ma_lab.ma_solve import solve_ma
from ma_lab.section_geom import boundary_frame

from conftest import pinched_density


@pytest.fixture(scope="module")
def pinched_disc():
    """Solved eps=0.2 pinched potential on the unit disc at spacing 1/32."""
    grid = discretize(build_domain("disc", radius=1.0), 1.0 / 32)
    return solve_ma(grid, pinched_density(grid, 0.2))


def test_supersolution_verified_on_pinched_disc(pinched_disc):
    anchor = pinched_disc.grid.domain.boundary_samples(64)[0]
    barrier = build_supersolution(pinched_disc, anchor)
    rep = verify_supersolution(barrier, pinched_disc)
    assert rep.threshold == pytest.approx(-2 * pinched_disc.Lam * 0.9)
    assert rep.n_interior == 314
    # the report holds both sides of each inequality; all three hold here
    assert rep.interior_max <= rep.threshold
    assert rep.boundary_min >= -rep.boundary_tol
    assert rep.circle_min >= barrier.delta_tilde - rep.circle_tol


@pytest.mark.parametrize("kwargs, match", [
    ({"lam": 2.0, "Lam": 1.0}, "lam <= Lam"),
    ({"delta": 1.5}, r"delta must lie in \(0, rho\]"),
])
def test_supersolution_rejects_bad_constants(pinched_disc, kwargs, match):
    anchor = pinched_disc.grid.domain.boundary_samples(64)[0]
    with pytest.raises(BarrierError, match=match):
        build_supersolution(pinched_disc, anchor, **kwargs)



# the suite's anchor (on the x-axis, where the frame rotation is a signed
# permutation) and one off the axes, where every rotation entry is nonzero
ANCHORS = [0, 9]


@pytest.mark.parametrize("sample", ANCHORS)
def test_barrier_is_the_closed_form_in_its_frame(pinched_disc, sample):
    """w = M_delta*y2 + gap - delta_tilde*y1**2 - K*y2**2, recomputed from the barrier's public values."""
    grid = pinched_disc.grid
    barrier = build_supersolution(pinched_disc, grid.domain.boundary_samples(64)[sample])
    frame = barrier.frame
    X, Y = grid.meshes()
    ys = frame.to_frame(np.stack([X, Y], axis=-1))
    y1, y2 = ys[..., 0], ys[..., 1]
    z, g = frame.origin, frame.gradient_origin
    gap = pinched_disc.phi.values - frame.phi_origin - g[0] * (X - z[0]) - g[1] * (Y - z[1])
    w = barrier.M_delta * y2 + gap - barrier.delta_tilde * y1 ** 2 - barrier.K * y2 ** 2
    nodes = grid.in_domain
    assert barrier.w.values[nodes].tobytes() == w[nodes].tobytes()
    assert np.array_equal(barrier.mask, nodes & (y1 ** 2 + y2 ** 2 < barrier.delta ** 2))


@pytest.mark.parametrize("sample", ANCHORS)
def test_boundary_frame_round_trip_and_normalization(pinched_disc, sample):
    grid = pinched_disc.grid
    frame = boundary_frame(pinched_disc, grid.domain.boundary_samples(64)[sample])
    pts = np.random.default_rng(sample).uniform(-1.0, 1.0, size=(200, 2))
    np.testing.assert_allclose(frame.from_frame(frame.to_frame(pts)), pts, rtol=0.0, atol=1e-15)
    # the rotation takes the inner normal at the origin to e2
    _, _, normal = grid.domain.project_boundary(frame.origin)
    np.testing.assert_allclose(frame.rotation @ -normal[0], [0.0, 1.0], rtol=0.0, atol=1e-15)
    np.testing.assert_allclose(frame.to_frame(frame.origin), [[0.0, 0.0]], rtol=0.0, atol=0.0)
    # the unit disc's x-axis anchor (1, 0) is a node at 1/32, so the
    # normalized potential there is its value at the frame origin: 0
    if sample == 0:
        i, j = grid.nearest_node(frame.origin)
        assert (grid.xs[i], grid.ys[j]) == tuple(frame.origin)
        assert abs(frame.tangent_gap(frame.origin, pinched_disc.phi.values[i, j])) <= 1e-12
    # one expression for a grid of points and for a list of them
    gap = frame.tangent_gap(np.stack(grid.meshes(), axis=-1), pinched_disc.phi.values)
    listed = frame.tangent_gap(grid.points(), pinched_disc.phi.values[grid.in_domain])
    assert listed.tobytes() == gap[grid.in_domain].tobytes()
