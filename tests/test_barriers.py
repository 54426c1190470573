import pytest

from ma_lab.barriers import BarrierError, build_supersolution, verify_supersolution
from ma_lab.domain_grid import build_domain, discretize
from ma_lab.ma_solve import solve_ma

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

