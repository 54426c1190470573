import numpy as np
import pytest

from ma_lab.domain_grid import MatrixField, build_domain, discretize
from ma_lab.ma_solve import assemble_potential, solve_ma
from ma_lab.lma_solve import solve_lma
from ma_lab.section_geom import SectionError, phi_extended


def tangent_gap(pot, i, j):
    """Dense reference: tangent-plane gap of the potential at the node (i, j), over all nodes."""
    grid = pot.grid
    X, Y = grid.meshes()
    gx, gy = pot.grad.gx[i, j], pot.grad.gy[i, j]
    return pot.phi.values - pot.phi.values[i, j] - gx * (X - grid.xs[i]) - gy * (Y - grid.ys[j])


def identity_coefficients(grid):
    """Coefficient field Phi = I, for manufactured-solution checks."""
    ones = np.ones(grid.shape)
    return MatrixField(grid=grid, xx=ones, yy=ones.copy(), xy=np.zeros(grid.shape))


def quasi_distance(potential, xbar, x):
    """Squared quasi-distance from the node nearest xbar to the point(s) x.

    Returns phi(x) - phi(xbar) - grad phi(xbar) . (x - xbar). Nonnegative up
    to the convexity tolerance of the potential. Adding an affine function to
    the potential leaves the value unchanged.
    """
    grid = potential.grid
    i, j = grid.nearest_node(xbar)
    if not grid.in_domain[i, j]:
        raise SectionError("base point must be an in-domain node")
    x = np.atleast_2d(np.asarray(x, dtype=float))
    phis = phi_extended(potential, x)
    gx = potential.grad.gx[i, j]
    gy = potential.grad.gy[i, j]
    d2 = phis - potential.phi.values[i, j] - gx * (x[:, 0] - grid.xs[i]) - gy * (x[:, 1] - grid.ys[j])
    return d2 if d2.size > 1 else float(d2[0])


def pinched_density(grid, eps):
    X, Y = grid.meshes()
    x0, x1, y0, y1 = grid.domain.bbox()
    sx = np.sin(np.pi * (X - x0) / (x1 - x0))
    sy = np.sin(np.pi * (Y - y0) / (y1 - y0))
    return 1.0 + eps * sx * sy


@pytest.fixture(scope="session")
def disc_domain():
    return build_domain("disc", radius=1.0)


@pytest.fixture(scope="session")
def disc32(disc_domain):
    return solve_ma(discretize(disc_domain, 1.0 / 32), 1.0)


@pytest.fixture(scope="session")
def disc64(disc_domain):
    return solve_ma(discretize(disc_domain, 1.0 / 64), 1.0)


@pytest.fixture(scope="session")
def pinched32(disc_domain):
    """Solved eps=0.1 disc potential and an LMA solution on it."""
    grid = discretize(disc_domain, 1.0 / 32)
    pot = solve_ma(grid, pinched_density(grid, 0.1))
    X, Y = grid.meshes()
    f = np.sin(np.pi * X) * np.cos(np.pi * Y) + 2.0
    sol = solve_lma(pot, f)
    return pot, sol


@pytest.fixture(scope="session")
def model_disc():
    """Exact quadratic |x|^2/2 sampled on the unit disc at spacing 1/32."""
    grid = discretize(build_domain("disc", radius=1.0), 1.0 / 32)
    return assemble_potential(grid, lambda X, Y: 0.5 * (X ** 2 + Y ** 2), g=1.0)


@pytest.fixture(scope="session")
def model_disc_fine():
    """Same quadratic on the unit disc at spacing 1/64."""
    grid = discretize(build_domain("disc", radius=1.0), 1.0 / 64)
    return assemble_potential(grid, lambda X, Y: 0.5 * (X ** 2 + Y ** 2), g=1.0)


@pytest.fixture(scope="session")
def model_square():
    """Exact quadratic |x|^2/2 sampled on a side-4 square at spacing 1/32."""
    grid = discretize(build_domain("square", side=4.0), 1.0 / 32)
    return assemble_potential(grid, lambda X, Y: 0.5 * (X ** 2 + Y ** 2), g=1.0)


@pytest.fixture(scope="session")
def model_square_fine():
    """Same quadratic at spacing 1/128 for tight section-measure checks."""
    grid = discretize(build_domain("square", side=4.0), 1.0 / 128)
    return assemble_potential(grid, lambda X, Y: 0.5 * (X ** 2 + Y ** 2), g=1.0)


@pytest.fixture(scope="session", params=[("disc", {"radius": 1.0}), ("ellipse", {"a": 1.2, "b": 0.8}),
                                         ("square", {"side": 2.0})], ids=["disc", "ellipse", "square"])
def pinched_suite32(request):
    """Solved eps=0.2 potential on a suite domain at spacing 1/32."""
    kind, params = request.param
    grid = discretize(build_domain(kind, **params), 1.0 / 32)
    return solve_ma(grid, pinched_density(grid, 0.2))
