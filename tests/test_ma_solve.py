import gc
import hashlib
import sys
import threading
import time
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy import ndimage

from ma_lab import lma_solve, ma_solve
from ma_lab.domain_grid import (
    Grid,
    MatrixField,
    ScalarField,
    build_domain,
    discretize,
    fd_derivatives,
)
from ma_lab.ma_solve import (
    NodeSystem,
    SolveError,
    assemble_potential,
    certify_convexity,
    cofactor_field,
    linear_solve,
    solve_ma,
)
from ma_lab.lma_solve import solve_lma
from ma_lab.section_geom import quadratic_separation_check
from ma_lab.stability_lab import default_bump
from conftest import pinched_density

_NEWTON_LOOP = ma_solve._newton_loop


def _zero(pts):
    return np.zeros(len(pts))


def _layout(grid):
    return NodeSystem(grid, _zero).layout

# -- solve_ma ----------------------------------------------------------------

def test_disc_unit_density_matches_paraboloid(disc64):
    g = disc64.grid
    X, Y = g.meshes()
    exact = 0.5 * (X ** 2 + Y ** 2) - 0.5
    err = np.nanmax(np.abs(disc64.phi.values - exact)[g.in_domain])
    assert err <= 1e-3


def test_disc_solution_converges_second_order(disc32, disc64):
    errs = []
    for pot in (disc32, disc64):
        g = pot.grid
        X, Y = g.meshes()
        exact = 0.5 * (X ** 2 + Y ** 2) - 0.5
        errs.append(np.nanmax(np.abs(pot.phi.values - exact)[g.in_domain]))
    assert errs[0] / errs[1] >= 3.5


def test_disc_above_the_direct_limit_solves_from_the_laplacian_start(disc_domain):
    # 80 381 unknowns, above 257^2: the start list is the domain's at every
    # size, and the coarse start alone fails on this grid
    h = 1.0 / 160
    g = discretize(disc_domain, h)
    pot = solve_ma(g, 1.0)
    assert pot.start == "laplacian"
    X, Y = g.meshes()
    err = np.nanmax(np.abs(pot.phi.values - 0.5 * (X ** 2 + Y ** 2 - 1.0))[g.in_domain])
    assert err <= 4 * h * h


def test_pinched_density_residual_small(pinched32):
    pot, _ = pinched32
    assert pot.residual_max <= 1e-6
    assert pot.convexity_margin > 0


def test_solver_is_deterministic(disc_domain):
    g = discretize(disc_domain, 1.0 / 32)
    a = solve_ma(g, 1.0)
    b = solve_ma(g, 1.0)
    assert np.array_equal(a.phi.values, b.phi.values, equal_nan=True)


def test_square_certifies_convex_against_fine_reference():
    # flat-sided corners force the solver off the smooth initial guess; the
    # coarse solve must still certify convex and track a 1/256 reference
    sq = build_domain("square", side=2.0)
    fine = discretize(sq, 1.0 / 256)
    ref = solve_ma(fine, 1.0)
    assert ref.convexity_margin > 0
    coarse = discretize(sq, 1.0 / 64)
    pot = solve_ma(coarse, 1.0)
    assert pot.convexity_margin > 0
    pts = coarse.points(coarse.in_domain)
    dev = np.nanmax(np.abs(pot.phi.values[coarse.in_domain] - fine.interp(ref.phi.values, pts)))
    assert dev <= 5e-3


def test_nonpositive_density_rejected(disc_domain):
    g = discretize(disc_domain, 1.0 / 16)
    with pytest.raises(SolveError, match="positive"):
        solve_ma(g, -1.0)


def test_unreachable_tolerance_raises_with_residual(disc_domain):
    g = discretize(disc_domain, 1.0 / 16)
    with pytest.raises(SolveError, match="residual"):
        solve_ma(g, 1.0, tol_ma=1e-30)


def test_comparison_principle(disc_domain):
    g = discretize(disc_domain, 1.0 / 32)
    hi = solve_ma(g, 1.1)
    lo = solve_ma(g, 1.0)
    gap = np.nanmax((hi.phi.values - lo.phi.values)[g.in_domain])
    assert gap <= 10 * 1e-8


def test_affine_covariance_of_density_scaling(disc_domain):
    g = discretize(disc_domain, 1.0 / 32)
    c = 1.7
    base = solve_ma(g, 1.0)
    scaled = solve_ma(g, c * c)
    dev = np.nanmax(np.abs(scaled.phi.values - c * base.phi.values)[g.in_domain])
    assert dev <= 10 * 1e-8


def test_continuation_path_skips_the_laplacian_start(monkeypatch):
    # the flat-sided square tries its coarse start first and converges from
    # it, so its own Laplacian start never runs: every top-level linear
    # solve must be a Newton step
    grid = discretize(build_domain("square", side=2.0), 1.0 / 32)
    n = _layout(grid).n
    sizes = []

    def counting(A, rhs, system):
        sizes.append(A.shape[0])
        return linear_solve(A, rhs, system)

    monkeypatch.setattr(ma_solve, "linear_solve", counting)
    pot = solve_ma(grid, 1.0)
    assert pot.newton_iterations > 0
    assert sizes.count(n) == pot.newton_iterations


def _fail_first(monkeypatch, grid, n_fail):
    """Make Newton on grid's own system fail its first n_fail starts.

    Returns the list of start vectors Newton was given on that system; the
    nested coarse-grid solves run the real Newton loop and are not recorded.
    """
    n = _layout(grid).n
    seen = []

    def loop(sysm, g_int, U, tol_ma):
        if sysm.layout.n == n:
            seen.append(U)
            if len(seen) <= n_fail:
                raise SolveError(f"planned failure {len(seen)}")
        return _NEWTON_LOOP(sysm, g_int, U, tol_ma)

    monkeypatch.setattr(ma_solve, "_newton_loop", loop)
    return seen


class _SplaSpy:
    """scipy.sparse.linalg as ma_solve sees it, counting spilu calls; fail=True makes each raise.

    orders holds the permc_spec of every spilu and splu call, None where
    the call left scipy's default (COLAMD).
    """

    def __init__(self, fail):
        self.fail = fail
        self.ilu_calls = 0
        self.orders = []

    def spilu(self, *args, **kwargs):
        self.ilu_calls += 1
        self.orders.append(kwargs.get("permc_spec"))
        if self.fail:
            raise RuntimeError("Factor is exactly singular")
        return spla.spilu(*args, **kwargs)

    def splu(self, *args, **kwargs):
        self.orders.append(kwargs.get("permc_spec"))
        return spla.splu(*args, **kwargs)

    def __getattr__(self, attr):
        return getattr(spla, attr)


def _count_solves(monkeypatch, module, n):
    """The list that grows by one for each of module's linear solves of n unknowns."""
    sizes = []
    real = module.linear_solve

    def counting(A, rhs, system):
        if A.shape[0] == n:
            sizes.append(n)
        return real(A, rhs, system)

    monkeypatch.setattr(module, "linear_solve", counting)
    return sizes


@pytest.mark.parametrize("above_limit", [False, True], ids=["below-limit", "above-limit"])
def test_newton_starts_are_tried_in_order(disc_domain, monkeypatch, above_limit):
    # the order is the domain's at every size: above the direct-solve limit
    # the list is the same, and Newton's steps go through the ILU attempt,
    # which succeeds on this disc and so is tried again on every system;
    # every factorization, ILU and LU, keeps the layout's order
    grid = discretize(disc_domain, 1.0 / 16)
    given = solve_ma(grid, 1.0).phi.values
    layout = _layout(grid)
    order = ["given", "laplacian", "coarse"]
    spy = _SplaSpy(fail=False)
    monkeypatch.setattr(ma_solve, "spla", spy)
    if above_limit:
        monkeypatch.setattr(ma_solve, "_DIRECT_LIMIT", layout.n - 1)
    solves = _count_solves(monkeypatch, ma_solve, layout.n)
    for k, name in enumerate(order):
        seen = _fail_first(monkeypatch, grid, k)
        assert solve_ma(grid, 1.1, start=given).start == name
        assert len(seen) == k + 1
        assert np.array_equal(seen[0], given[layout.node_ij[:, 0], layout.node_ij[:, 1]])
    _fail_first(monkeypatch, grid, len(order))
    with pytest.raises(SolveError, match=f"planned failure {len(order)}"):
        solve_ma(grid, 1.1, start=given)
    assert solves
    assert spy.ilu_calls == (len(solves) if above_limit else 0)
    assert set(spy.orders) == {"NATURAL"}


def test_a_failed_ilu_attempt_sends_the_systems_later_solves_to_the_lu(disc_domain, monkeypatch):
    # one attempt per system: each solve_ma call and each solve_lma call
    # makes its own, in the layout's order like the LU that runs instead,
    # and that LU gives the same bits
    grid = discretize(disc_domain, 1.0 / 16)
    n = _layout(grid).n
    pot_lu = solve_ma(grid, 1.0)
    u_lu = solve_lma(pot_lu, 1.0).u.values
    spy = _SplaSpy(fail=True)
    monkeypatch.setattr(ma_solve, "_DIRECT_LIMIT", n - 1)
    monkeypatch.setattr(ma_solve, "spla", spy)
    ma_solves = _count_solves(monkeypatch, ma_solve, n)
    lma_solves = _count_solves(monkeypatch, lma_solve, n)
    pot = solve_ma(grid, 1.0)
    assert spy.ilu_calls == 1 and len(ma_solves) >= 2
    assert np.array_equal(solve_ma(grid, 1.0).phi.values, pot.phi.values, equal_nan=True)
    assert spy.ilu_calls == 2 and len(ma_solves) >= 4
    u = solve_lma(pot, 1.0).u.values
    assert spy.ilu_calls == 3 and len(lma_solves) == 1
    assert np.array_equal(pot.phi.values, pot_lu.phi.values, equal_nan=True)
    assert np.array_equal(u, u_lu, equal_nan=True)
    assert set(spy.orders) == {"NATURAL"} and len(spy.orders) > spy.ilu_calls


def test_grid_without_a_coarser_grid_reraises_the_laplacian_failure(disc_domain, monkeypatch):
    # the double spacing 0.4 leaves fewer than 16 interior nodes
    grid = discretize(disc_domain, 0.2)
    seen = _fail_first(monkeypatch, grid, 1)
    with pytest.raises(SolveError, match="planned failure 1"):
        solve_ma(grid, 1.0)
    assert len(seen) == 1


# -- NodeSystem numbering and the static-pivot LU ----------------------------

def test_nested_dissection_numbering_is_a_permutation(disc_domain):
    grid = discretize(disc_domain, 1.0 / 64)
    layout = _layout(grid)
    ij = layout.node_ij
    row_major = ij[np.lexsort((ij[:, 1], ij[:, 0]))]
    assert np.array_equal(row_major, np.argwhere(grid.in_domain))
    assert layout.n == len(ij)


def test_nested_dissection_fill_below_default_ordering(disc_domain):
    sysm = NodeSystem(discretize(disc_domain, 1.0 / 64), _zero)
    ones = np.ones(len(sysm.layout.int_rows))
    A = sysm.interior_matrix(ones, ones, np.zeros_like(ones))
    nd = spla.splu(A, permc_spec="NATURAL", diag_pivot_thresh=0.0)
    default = spla.splu(A)
    assert nd.L.nnz + nd.U.nnz < default.L.nnz + default.U.nnz


def _unknowns(layout):
    """The unknown of each lattice node, -1 off the domain, rebuilt from node_ij and shape."""
    flat = -np.ones(layout.shape, dtype=np.int64)
    flat[layout.node_ij[:, 0], layout.node_ij[:, 1]] = np.arange(layout.n)
    return flat


def loop_ring_weights(grid, flat):
    """Reference ring interpolation: one ring node at a time, probing s = 1.5h, 2h, ..., 4h.

    A node with no probe (r = 0) keeps zero weights on its own unknown.
    """
    h = grid.spacing
    nx, ny = grid.shape
    ri, rj = np.nonzero(grid.boundary_adjacent)
    rpts = np.stack([grid.xs[ri], grid.ys[rj]], axis=-1)
    _, dist, normal = grid.domain.project_boundary(rpts)
    corner_idx = np.repeat(flat[ri, rj][:, None], 4, axis=1)
    corner_w = np.zeros((len(ri), 4))
    coef_r = np.zeros(len(ri))
    for k in range(len(ri)):
        if dist[k] <= 1e-12:
            continue
        s = 1.5 * h
        while s <= 4.0 * h + 1e-12:
            x2 = rpts[k] - s * normal[k]
            i0 = int(np.floor((x2[0] - grid.xs[0]) / h))
            j0 = int(np.floor((x2[1] - grid.ys[0]) / h))
            if 0 <= i0 < nx - 1 and 0 <= j0 < ny - 1:
                ids = flat[i0 : i0 + 2, j0 : j0 + 2]
                if np.all(ids >= 0):
                    tx = (x2[0] - grid.xs[i0]) / h
                    ty = (x2[1] - grid.ys[j0]) / h
                    corner_idx[k] = [ids[0, 0], ids[1, 0], ids[0, 1], ids[1, 1]]
                    corner_w[k] = [(1 - tx) * (1 - ty), tx * (1 - ty), (1 - tx) * ty, tx * ty]
                    coef_r[k] = dist[k] / s
                    break
            s += 0.5 * h
    return coef_r, corner_idx, corner_w


RING_GRIDS = [
    ("disc", {"radius": 1.0}, 1.0 / 64),
    ("disc", {"radius": 1.0}, 1.0 / 37),
    ("ellipse", {"a": 1.2, "b": 0.8}, 1.0 / 32),
    ("ellipse", {"a": 0.5, "b": 1.3}, 1.0 / 40),
    ("square", {"side": 2.0}, 1.0 / 32),
]


@pytest.mark.parametrize("kind, params, spacing", RING_GRIDS)
def test_ring_weights_equal_the_per_node_loop(kind, params, spacing):
    grid = discretize(build_domain(kind, **params), spacing)
    layout = _layout(grid)
    coef_r, corner_idx, corner_w = loop_ring_weights(grid, _unknowns(layout))
    assert layout.ring_r.tobytes() == coef_r.tobytes()
    assert np.array_equal(layout.ring_corner_idx, corner_idx)
    assert layout.ring_corner_w.tobytes() == corner_w.tobytes()
    # the square's ring nodes lie on its sides, at distance 0: none probes
    assert (coef_r > 0).any() != (kind == "square")


def coo_reference_matrix(sysm, c11, c22, c12):
    """Reference assembly: every entry as a COO triplet, converted to CSR, then CSC."""
    lay = sysm.layout
    h2 = lay.h * lay.h
    C, E, W, N, S, NE, SW, NW, SE = lay.stencil
    stencil = [
        (C, -2 * (c11 + c22) / h2),
        (E, c11 / h2), (W, c11 / h2), (N, c22 / h2), (S, c22 / h2),
        (NE, c12 / (2 * h2)), (SW, c12 / (2 * h2)),
        (NW, -c12 / (2 * h2)), (SE, -c12 / (2 * h2)),
    ]
    rows = [lay.int_rows] * len(stencil) + [np.repeat(lay.ring_rows, 4), lay.ring_rows]
    cols = [col for col, _ in stencil] + [lay.ring_corner_idx.ravel(), lay.ring_rows]
    vals = [val for _, val in stencil]
    vals += [(-lay.ring_r[:, None] * lay.ring_corner_w).ravel(), 1.0 + lay.ring_r]
    A = sp.csr_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(lay.n, lay.n))
    return A.tocsc()


@pytest.mark.parametrize("operator", ["laplacian", "cofactor"])
@pytest.mark.parametrize("kind, params, spacing", RING_GRIDS)
def test_fixed_pattern_assembly_equals_the_coo_reference(kind, params, spacing, operator):
    grid = discretize(build_domain(kind, **params), spacing)
    sysm = NodeSystem(grid, _zero)
    it = grid.interior
    if operator == "laplacian":
        ones = np.ones(int(it.sum()))
        coefs = (ones, ones, np.zeros_like(ones))
    else:
        pot = assemble_potential(grid, lambda X, Y: 0.5 * (X ** 2 + Y ** 2) + 0.1 * X * Y + 0.05 * X ** 4)
        cof = cofactor_field(pot)
        coefs = (cof.xx[it], cof.yy[it], cof.xy[it])
    A = sysm.interior_matrix(*coefs)
    ref = coo_reference_matrix(sysm, *coefs)
    assert A.format == "csc"
    assert A.indptr.tobytes() == ref.indptr.tobytes()
    assert A.indices.tobytes() == ref.indices.tobytes()
    assert A.data.tobytes() == ref.data.tobytes()
    # each ring row with r = 0 points its four zero corner entries at its own
    # unknown, so it holds its diagonal alone, and column 0 couples to no
    # other such row; every ring row of the square has r = 0
    zero_rows = sysm.layout.ring_rows[sysm.layout.ring_r == 0]
    R = A.tocsr()
    assert np.all(np.diff(R.indptr)[zero_rows] == 1)
    assert np.array_equal(R.indices[R.indptr[zero_rows]], zero_rows)
    assert set(A.indices[: A.indptr[1]].tolist()) & set(zero_rows.tolist()) <= {0}
    assert kind != "square" or len(zero_rows) == len(sysm.layout.ring_rows)


@pytest.mark.parametrize("spacing, lu_nnz", [(1.0 / 32, 255311), (1.0 / 64, 1257915)])
def test_square_lu_fill_is_that_of_its_nonzeros(spacing, lu_nnz):
    # on the square every ring row has r = 0; its zero corner entries must
    # add no fill, so the factor of the fixed pattern is that of the matrix
    # with its explicit zeros dropped (a nonzero cross coefficient keeps
    # every interior stencil entry)
    grid = discretize(build_domain("square", side=2.0), spacing)
    sysm = NodeSystem(grid, _zero)
    ones = np.ones(len(sysm.layout.int_rows))
    A = sysm.interior_matrix(ones, ones, 0.1 * ones)
    B = A.copy()
    B.eliminate_zeros()
    lu = spla.splu(A, permc_spec="NATURAL", diag_pivot_thresh=0.0)
    assert lu.nnz == spla.splu(B, permc_spec="NATURAL", diag_pivot_thresh=0.0).nnz == lu_nnz


def test_lma_solution_is_pinned(disc_domain):
    # u of the eps = 0.2 disc at 1/32, bit for bit as the COO-assembled
    # solve gave it
    grid = discretize(disc_domain, 1.0 / 32)
    pot = solve_ma(grid, pinched_density(grid, 0.2))
    X, Y = grid.meshes()
    sol = solve_lma(pot, np.sin(np.pi * X) * np.cos(np.pi * Y) + 2.0)
    digest = hashlib.sha256(sol.u.values.tobytes()).hexdigest()
    assert digest == "5dd94cf7f5824974d74fcaa8679411e7db814e17913c28f3a99981e577e76c01"


def test_systems_on_a_grid_share_one_layout(disc_domain):
    grid = discretize(disc_domain, 1.0 / 16)
    a = NodeSystem(grid, _zero)
    b = NodeSystem(grid, lambda pts: np.ones(len(pts)))
    assert a.layout is b.layout
    assert NodeSystem(discretize(disc_domain, 1.0 / 16), _zero).layout is not a.layout
    assert np.array_equal(a.ring_rhs, np.zeros(len(a.layout.ring_rows)))
    assert np.array_equal(b.ring_rhs, np.ones(len(a.layout.ring_rows)))
    A = a.interior_matrix(*(np.ones(len(a.layout.int_rows)),) * 3)
    assert A.indices is not a.layout.indices and A.indices.base is a.layout.indices
    assert not a.layout.indices.flags.writeable and not a.layout.indptr.flags.writeable


def test_a_dropped_grid_frees_its_layout(disc_domain):
    # the layout holds no reference back to its grid, so dropping the grid
    # frees it without waiting for the cycle collector
    grid = discretize(disc_domain, 1.0 / 16)
    solve_ma(grid, 1.0)
    layout = weakref.ref(NodeSystem(grid, _zero).layout)
    assert layout() is not None
    gc.collect()
    gc.disable()
    try:
        del grid
        assert layout() is None
    finally:
        gc.enable()


def test_threads_asking_at_once_build_a_grids_layout_once(disc_domain, monkeypatch):
    built = []
    real = ma_solve.NodeLayout

    def slow_layout(grid):
        built.append(grid)
        time.sleep(0.05)
        return real(grid)

    monkeypatch.setattr(ma_solve, "NodeLayout", slow_layout)
    grids = [discretize(disc_domain, 1.0 / 16) for _ in range(2)]
    n_threads = 8
    barrier = threading.Barrier(n_threads)
    layouts = []

    def worker(k):
        barrier.wait()
        layouts.append((k % 2, NodeSystem(grids[k % 2], _zero).layout))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert sorted(map(id, built)) == sorted(map(id, grids))
    assert len(layouts) == n_threads
    for g in (0, 1):
        assert len({id(lay) for k, lay in layouts if k == g}) == 1


def test_static_pivots_accurate_on_every_newton_jacobian(monkeypatch):
    # the eps = 0.2 square solves through its coarse chain, and Newton's
    # iterates on every level have indefinite node Hessians; every system
    # of that solve, nested levels included, is checked against
    # partial-pivot LU with its default column order
    sq = build_domain("square", side=2.0)
    grid = discretize(sq, 1.0 / 32)
    X, Y = grid.meshes()
    g = 1.0 + 0.2 * default_bump(sq)(X, Y)
    parts = ma_solve._convexified_parts
    eig_min = [np.inf]
    systems = []

    def recording_parts(H11, H22, H12, g_int):
        eig_min[0] = float(np.min(0.5 * (H11 + H22) - np.hypot(0.5 * (H11 - H22), H12)))
        return parts(H11, H22, H12, g_int)

    def recording_solve(A, rhs, system):
        systems.append((A, rhs, system, eig_min[0]))
        return linear_solve(A, rhs, system)

    monkeypatch.setattr(ma_solve, "_convexified_parts", recording_parts)
    monkeypatch.setattr(ma_solve, "linear_solve", recording_solve)
    solve_ma(grid, g)
    assert min(e for _, _, _, e in systems) < 0
    for A, rhs, system, _ in systems:
        x = linear_solve(A, rhs, system)
        scale = abs(A).sum(axis=1).max() * np.max(np.abs(x)) + np.max(np.abs(rhs))
        assert np.max(np.abs(A @ x - rhs)) <= 1e-12 * scale
        ref = spla.splu(A.tocsc()).solve(rhs)
        assert np.max(np.abs(x - ref)) <= 1e-8 * np.max(np.abs(ref))


# -- cofactor_field ----------------------------------------------------------

def test_cofactor_swaps_diagonal_and_negates_cross(model_square):
    grid = model_square.grid
    pot = assemble_potential(grid, lambda X, Y: X ** 2 + 1.5 * Y ** 2)
    cof = cofactor_field(pot)
    assert isinstance(cof, MatrixField)
    it = grid.interior
    assert np.allclose(cof.xx[it], 3.0) and np.allclose(cof.yy[it], 2.0)
    assert np.allclose(cof.xy[it], 0.0)
    pot2 = assemble_potential(grid, lambda X, Y: X ** 2 + X * Y + Y ** 2)
    cof2 = cofactor_field(pot2)
    assert np.allclose(cof2.xx[it], 2.0) and np.allclose(cof2.yy[it], 2.0)
    assert np.allclose(cof2.xy[it], -1.0)


def test_model_potential_cofactor_is_identity(model_square):
    cof = cofactor_field(model_square)
    it = model_square.grid.interior
    assert np.nanmax(np.abs(cof.xx[it] - 1.0)) == 0.0
    assert np.nanmax(np.abs(cof.yy[it] - 1.0)) == 0.0
    assert np.nanmax(np.abs(cof.xy[it])) == 0.0


def test_cofactor_identity_holds_bitwise(pinched32):
    pot, _ = pinched32
    cof = cofactor_field(pot)
    h = pot.hess
    det = h.xx * h.yy - h.xy ** 2
    it = pot.grid.interior
    assert np.nanmax(np.abs((cof.xx * h.xx + cof.xy * h.xy - det)[it])) == 0.0
    assert np.nanmax(np.abs((cof.xy * h.xx + cof.yy * h.xy)[it])) == 0.0
    assert np.nanmax(np.abs((cof.xy * h.xy + cof.yy * h.yy - det)[it])) == 0.0


def test_cofactor_positive_semidefinite_on_certified_field(pinched32):
    pot, _ = pinched32
    cof = cofactor_field(pot)
    it = pot.grid.interior
    eig_min = 0.5 * (cof.xx + cof.yy) - np.sqrt(0.25 * (cof.xx - cof.yy) ** 2 + cof.xy ** 2)
    assert np.nanmin(eig_min[it]) > 0


# -- certify_convexity -------------------------------------------------------

def test_model_certifies_with_unit_eigenvalue(model_square):
    rep = certify_convexity(model_square.hess, tol=1e-6)
    assert rep.min_eig == pytest.approx(1.0)
    assert rep.passed


def test_saddle_fails_certification(disc_domain):
    g = discretize(disc_domain, 1.0 / 32)
    _, hess = fd_derivatives(ScalarField.from_function(g, lambda X, Y: X ** 2 - Y ** 2))
    rep = certify_convexity(hess, tol=1e-6)
    assert rep.min_eig == pytest.approx(-2.0)
    assert not rep.passed


def test_solved_pinched_disc_certifies_positive(disc_domain):
    g = discretize(disc_domain, 1.0 / 32)
    pot = solve_ma(g, lambda X, Y: 1.0 + 0.1 * np.sin(np.pi * X) * np.sin(np.pi * Y))
    rep = certify_convexity(pot.hess, tol=1e-6)
    assert rep.min_eig > 0


# -- quadratic_separation_check ----------------------------------------------

def test_model_boundary_separation_is_exactly_half(disc_domain):
    g = discretize(disc_domain, 1.0 / 32)
    pot = assemble_potential(g, lambda X, Y: 0.5 * (X ** 2 + Y ** 2))
    rep = quadratic_separation_check(pot)
    assert rep.r_min == 0.5 and rep.r_max == 0.5
    assert rep.rho0 == 0.5
    assert rep.passed and not rep.flat_boundary_warning


def test_solved_disc_separation_bounded_away_from_zero(disc64):
    rep = quadratic_separation_check(disc64)
    assert rep.r_min > 0.1
    assert 0 < rep.rho0 <= 1.0
    assert rep.passed


def test_flat_boundary_quartic_reported_without_pass():
    sq = build_domain("square", side=2.0)
    pot = assemble_potential(discretize(sq, 1.0 / 64), lambda X, Y: X ** 4 + Y ** 4)
    with pytest.warns(UserWarning, match="flat"):
        rep = quadratic_separation_check(pot)
    assert rep.flat_boundary_warning
    assert not rep.passed
    assert rep.r_min < 0.01


# -- divergence structure of the cofactor rows --------------------------------

def _row_divergences(grid, cof):
    g11, _ = fd_derivatives(ScalarField(grid, cof.xx))
    g12, _ = fd_derivatives(ScalarField(grid, cof.xy))
    g22, _ = fd_derivatives(ScalarField(grid, cof.yy))
    return g11.gx + g12.gy, g12.gx + g22.gy


def test_assembled_smooth_cofactor_rows_divergence_free(disc_domain):
    g = discretize(disc_domain, 1.0 / 32)
    pot = assemble_potential(g, lambda X, Y: 0.5 * (X ** 2 + Y ** 2) + 0.1 * X ** 4 + 0.05 * X * Y + 0.08 * Y ** 4)
    d1, d2 = _row_divergences(g, cofactor_field(pot))
    it = g.interior
    assert np.nanmax(np.abs(d1[it])) < 1e-9
    assert np.nanmax(np.abs(d2[it])) < 1e-9


def test_solved_cofactor_rows_divergence_decays_in_the_bulk(disc32, disc64, disc_domain):
    # the near-ring collar carries the instrument's Hessian boundary layer,
    # so the decay is measured on the bulk away from it
    plus = ndimage.generate_binary_structure(2, 1)
    maxima = []
    for h in (1.0 / 32, 1.0 / 64):
        g = discretize(disc_domain, h)
        pot = solve_ma(g, pinched_density(g, 0.1))
        d1, _ = _row_divergences(g, cofactor_field(pot))
        X, Y = g.meshes()
        bulk = ndimage.binary_erosion(g.interior, structure=plus, iterations=3) & (X ** 2 + Y ** 2 < 0.25)
        maxima.append(np.nanmax(np.abs(d1[bulk])))
    assert maxima[0] / maxima[1] >= 1.8


# -- assemble_potential -------------------------------------------------------

def test_assembled_model_has_zero_residual_and_identity_hessian(model_square):
    assert model_square.residual_max <= 1e-10
    it = model_square.grid.interior
    assert np.allclose(model_square.hess.xx[it], 1.0)
    assert model_square.convexity_margin == pytest.approx(1.0)


def test_assembling_a_solved_potential_gives_back_its_field(pinched_suite32):
    """Both constructors build the field one way: a solved potential's own values and density give it back bit for bit."""
    pot = pinched_suite32
    again = assemble_potential(pot.grid, lambda X, Y: pot.phi.values, g=pot.g_values)
    pairs = [(again.phi.values, pot.phi.values), (again.g_values, pot.g_values)]
    pairs += [(getattr(again.grad, k), getattr(pot.grad, k)) for k in ("gx", "gy", "quadratic_exact")]
    pairs += [(getattr(again.hess, k), getattr(pot.hess, k)) for k in ("xx", "yy", "xy")]
    assert all(np.array_equal(a, b, equal_nan=True) for a, b in pairs)
    assert ((again.lam, again.Lam, again.residual_max, again.convexity_margin)
            == (pot.lam, pot.Lam, pot.residual_max, pot.convexity_margin))


def test_start_is_named_and_a_failed_start_falls_back():
    # the flat-sided square starts from the coarse grid, the disc from the Laplacian solve
    for kind, params, computed in (("square", {"side": 2.0}, "coarse"), ("disc", {"radius": 1.0}, "laplacian")):
        grid = discretize(build_domain(kind, **params), 1.0 / 16)
        alone = solve_ma(grid, 1.0)
        assert alone.start == computed
        # started at its own solution, Newton has nothing left to do
        again = solve_ma(grid, 1.0, start=alone.phi.values)
        assert (again.start, again.newton_iterations) == ("given", 0)
        assert np.array_equal(again.phi.values, alone.phi.values, equal_nan=True)
        # a checkerboard start defeats Newton; the computed start still converges
        checker = 1e5 * (np.indices(grid.shape).sum(axis=0) % 2 - 0.5)
        fallback = solve_ma(grid, 1.0, start=checker)
        assert fallback.start == computed
        assert np.array_equal(fallback.phi.values, alone.phi.values, equal_nan=True)


@pytest.mark.parametrize("eps", [0.0, 0.2])
def test_flat_square_runs_one_laplacian_start_per_chain(monkeypatch, eps):
    # each grid starts from the next coarser one, so Newton runs once per
    # level, coarsest first, and only the coarsest grid, which has no
    # coarser grid, assembles the Laplacian start's operator
    sq = build_domain("square", side=2.0)
    grid = discretize(sq, 1.0 / 32)
    X, Y = grid.meshes()
    g = 1.0 + eps * default_bump(sq)(X, Y)
    assemble = NodeSystem.interior_matrix
    laplacians, newtons = [], []

    def recording_matrix(self, c11, c22, c12):
        if np.all(c11 == 1.0) and np.all(c22 == 1.0) and not np.any(c12):
            laplacians.append(self.layout.n)
        return assemble(self, c11, c22, c12)

    def recording_loop(sysm, g_int, U, tol_ma):
        newtons.append(sysm.layout.n)
        return _NEWTON_LOOP(sysm, g_int, U, tol_ma)

    monkeypatch.setattr(NodeSystem, "interior_matrix", recording_matrix)
    monkeypatch.setattr(ma_solve, "_newton_loop", recording_loop)
    assert solve_ma(grid, g).start == "coarse"
    assert newtons == [9 * 9, 17 * 17, 33 * 33, 65 * 65]
    assert laplacians == [9 * 9]


def test_flat_square_falls_back_to_the_laplacian_start(monkeypatch):
    grid = discretize(build_domain("square", side=2.0), 1.0 / 16)
    seen = _fail_first(monkeypatch, grid, 1)
    assert solve_ma(grid, 1.0).start == "laplacian"
    assert len(seen) == 2
    _fail_first(monkeypatch, grid, 2)
    with pytest.raises(SolveError, match="planned failure 2"):
        solve_ma(grid, 1.0)


def test_start_must_fit_the_grid(disc_domain):
    grid = discretize(disc_domain, 1.0 / 16)
    with pytest.raises(SolveError, match="shape"):
        solve_ma(grid, 1.0, start=np.zeros((3, 3)))
    with pytest.raises(SolveError, match="finite"):
        solve_ma(grid, 1.0, start=np.full(grid.shape, np.nan))


def test_square_restart_is_named():
    grid = discretize(build_domain("square", side=2.0), 1.0 / 32)
    assert solve_ma(grid, 1.0).start == "coarse"


def test_a_repeated_coarse_start_reuses_the_coarse_grids(monkeypatch):
    # the chain of double-spacing grids is built by the first solve and kept
    # with the fine grid, and so is the finding that 1/4 has no coarser grid
    # (1/2 raises GridError), so a second solve builds no grid and solves on
    # the same coarse grids
    grid = discretize(build_domain("square", side=2.0), 1.0 / 32)
    built, nested = [], []
    real_discretize, real_solve = ma_solve.discretize, ma_solve.solve_ma

    def counting_discretize(domain, spacing):
        built.append(spacing)
        return real_discretize(domain, spacing)

    def recording_solve(g, density, **kwargs):
        nested.append(g)
        return real_solve(g, density, **kwargs)

    monkeypatch.setattr(ma_solve, "discretize", counting_discretize)
    monkeypatch.setattr(ma_solve, "solve_ma", recording_solve)
    first = real_solve(grid, 1.0)
    assert built == [1.0 / 16, 1.0 / 8, 1.0 / 4, 1.0 / 2]
    first_nested = [(id(g), g.spacing) for g in nested]
    assert [h for _, h in first_nested] == [1.0 / 16, 1.0 / 8, 1.0 / 4]
    built.clear()
    nested.clear()
    second = real_solve(grid, 1.0)
    assert built == []
    assert [(id(g), g.spacing) for g in nested] == first_nested
    assert second.start == first.start == "coarse"
    assert np.array_equal(second.phi.values, first.phi.values, equal_nan=True)


def test_a_dropped_grid_frees_its_coarse_grids(monkeypatch):
    # the coarse grids hang on the fine grid alone: the coarsest level keeps
    # no GridError, whose traceback would hold the solve's frames and so tie
    # the whole chain into a cycle
    real = ma_solve.discretize
    coarse = []

    def recording(domain, spacing):
        g = real(domain, spacing)
        coarse.append(weakref.ref(g))
        return g

    monkeypatch.setattr(ma_solve, "discretize", recording)
    grid = discretize(build_domain("square", side=2.0), 1.0 / 32)
    assert solve_ma(grid, 1.0).start == "coarse"
    assert len(coarse) == 3 and all(ref() is not None for ref in coarse)
    gc.collect()
    gc.disable()
    try:
        del grid
        assert all(ref() is None for ref in coarse)
    finally:
        gc.enable()


def test_newton_linearizes_each_point_once(disc_domain, monkeypatch):
    # each point Newton evaluates, the start and every line-search trial, is
    # linearized once, and the next step's matrix takes the accepted trial's
    # coefficients instead of linearizing that point again
    parts, points, matrices = [], [], []
    real_parts, real_ring, real_matrix = (ma_solve._convexified_parts, NodeSystem.ring_residual,
                                          NodeSystem.interior_matrix)

    def counting_parts(*args):
        parts.append(real_parts(*args))
        return parts[-1]

    def counting_ring(self, U):
        points.append(U)
        return real_ring(self, U)

    def recording_matrix(self, c11, c22, c12):
        matrices.append(c11)
        return real_matrix(self, c11, c22, c12)

    monkeypatch.setattr(ma_solve, "_convexified_parts", counting_parts)
    monkeypatch.setattr(NodeSystem, "ring_residual", counting_ring)
    monkeypatch.setattr(NodeSystem, "interior_matrix", recording_matrix)
    grid = discretize(disc_domain, 1.0 / 32)
    X, Y = grid.meshes()
    pot = solve_ma(grid, 1.0 + 0.2 * default_bump(disc_domain)(X, Y))
    assert pot.start == "laplacian" and pot.newton_iterations > 0
    assert len(parts) == len(points) >= pot.newton_iterations + 1
    # the Laplacian start's operator, then one Newton matrix per iteration
    assert len(matrices) == 1 + pot.newton_iterations
    assert all(any(c11 is p[1] for p in parts) for c11 in matrices[1:])


def test_newton_takes_no_blas_reduction_of_a_pool_sized_vector(disc_domain, monkeypatch):
    # above about 10 000 entries a BLAS dot runs its own thread team, which
    # contends with the run's pool workers; Newton's line-search norms must
    # stay ufunc sums on a system past that size
    grid = discretize(disc_domain, 1.0 / 64)
    assert _layout(grid).n == 12853

    def guarded(real):
        def call(*args, **kwargs):
            big = [np.size(a) for a in args if np.ndim(a) == 1 and np.size(a) > 10_000]
            if big and kwargs.get("axis") is None:
                raise AssertionError(f"{real.__name__} reduced {big[0]} entries through BLAS")
            return real(*args, **kwargs)
        return call

    for module, name in ((np.linalg, "norm"), (np, "dot"), (np, "vdot"), (np, "inner")):
        monkeypatch.setattr(module, name, guarded(getattr(module, name)))
    pot = solve_ma(grid, 1.0)
    assert pot.newton_iterations > 0 and pot.residual_max < 1e-6


@pytest.mark.parametrize("di, dj, edge", [(1, 0, None), (-1, 0, None), (0, 1, None), (0, -1, None),
                                          (1, 1, None), (-1, 1, None), (1, -1, None), (-1, -1, None),
                                          (-1, 0, (0, 10)), (1, 0, (32, 10))],
                         ids=["E", "W", "N", "S", "NE", "NW", "SE", "SW", "W-off-the-array", "E-off-the-array"])
def test_an_interior_node_with_a_neighbor_off_the_domain_is_a_solve_error(disc_domain, di, dj, edge):
    # a hand-built grid keeps one node interior while its (di, dj) neighbour
    # is missing: dropped from the disc's domain next to the centre, or off
    # the array beside the node `edge` on the side of the side-2 square
    if edge is None:
        base = discretize(disc_domain, 1.0 / 16)
        i, j = base.nearest_node((0.0, 0.0))
        inside = base.in_domain.copy()
        inside[i + di, j + dj] = False
        interior = ndimage.binary_erosion(inside, np.ones((3, 3), bool), border_value=0)
        interior[i, j] = True
    else:
        base = discretize(build_domain("square", side=2.0), 1.0 / 16)
        inside = base.in_domain.copy()
        interior = base.interior.copy()
        assert not 0 <= edge[0] + di < base.shape[0]
        inside[edge] = interior[edge] = True
    grid = Grid(base.domain, base.spacing, base.xs, base.ys, inside, interior, inside & ~interior)
    with pytest.raises(SolveError, match="interior mask inconsistent"):
        solve_ma(grid, 1.0)
