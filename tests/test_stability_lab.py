import sys
import threading
import time

import numpy as np
import pytest

from ma_lab import stability_lab
from ma_lab.domain_grid import discretize
from ma_lab.ma_solve import SolveError
from ma_lab.stability_lab import (
    PinchedFamily,
    StabilityError,
    cofactor_scaling_oracle,
    default_bump,
    sobolev_scaling_oracle,
)


@pytest.fixture(scope="module")
def constant_disc32(disc_domain):
    """Constant-density family 1 + eps on the unit disc at 1/32."""
    return PinchedFamily(discretize(disc_domain, 1.0 / 32))


@pytest.mark.parametrize("oracle", [cofactor_scaling_oracle, sobolev_scaling_oracle])
def test_scaling_oracle_matches_closed_form(constant_disc32, oracle):
    # density 1 + eps scales the flat potential by sqrt(1 + eps), so both
    # distances are (sqrt(1 + eps) - 1) times a norm of the flat solution
    rep = oracle(constant_disc32)
    assert rep.config["eps"] == 0.2
    assert rep.passed
    lhs, rhs = rep.measured["distance"], rep.measured["prediction"]
    assert rhs > 0.0
    assert abs(lhs - rhs) <= 0.05 * rhs


def test_scaling_oracle_rejects_a_bump_family(disc_domain):
    grid = discretize(disc_domain, 1.0 / 16)
    with pytest.raises(StabilityError, match="constant-density"):
        cofactor_scaling_oracle(PinchedFamily(grid, default_bump(disc_domain)))


def test_family_densities(disc_domain):
    grid = discretize(disc_domain, 1.0 / 16)
    bump = default_bump(disc_domain)
    X, Y = grid.meshes()
    assert PinchedFamily(grid, bump).density(0.0) == 1.0
    assert PinchedFamily(grid).density(0.25) == 1.25
    want = 1.0 + 0.1 * np.asarray(bump(X, Y), dtype=float)
    assert np.array_equal(PinchedFamily(grid, bump).density(0.1), want)


def test_family_solves_each_density_once_across_threads(disc_domain, monkeypatch):
    solved = []

    def fake_solve(grid, g, tol_ma):
        solved.append(g)
        time.sleep(0.005)
        return object()

    monkeypatch.setattr(stability_lab, "solve_ma", fake_solve)
    family = PinchedFamily(discretize(disc_domain, 1.0 / 16))
    eps_values = (0.0, 0.1, 0.2)
    got = []
    errors = []

    def worker(k):
        try:
            for i in range(20):
                eps = eps_values[(k + i) % len(eps_values)]
                got.append((eps, family.potential(eps)))
        except BaseException as exc:  # reported below
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    assert sorted(solved) == [1.0 + e for e in eps_values]
    assert len(got) == 8 * 20
    for eps in eps_values:
        assert len({id(pot) for e, pot in got if e == eps}) == 1


def test_family_shares_a_failed_solve(disc_domain, monkeypatch):
    calls = []

    def failing_solve(grid, g, tol_ma):
        calls.append(g)
        raise SolveError("no convergence")

    monkeypatch.setattr(stability_lab, "solve_ma", failing_solve)
    family = PinchedFamily(discretize(disc_domain, 1.0 / 16))
    for _ in range(3):
        with pytest.raises(SolveError, match="no convergence"):
            family.potential(0.2)
    assert len(calls) == 1
