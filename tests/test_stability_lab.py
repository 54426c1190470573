import contextlib
import os
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import numpy as np
import pytest

from ma_lab import stability_lab
from ma_lab.domain_grid import build_domain, discretize, lp_norm
from ma_lab.ma_solve import SolveError, cofactor_field, solve_ma
from ma_lab.stability_lab import ExperimentConfig, PinchedFamily, default_bump


@contextlib.contextmanager
def active_pool(workers):
    """A run's pool of this many workers: as in cli_runner.run, its initializer makes it each worker's ACTIVE_POOL.

    A sweep finds the pool only on one of its workers, so the tests submit
    their sweeps to it, as a run submits its task.
    """
    with ThreadPoolExecutor(max_workers=workers, initializer=lambda: stability_lab.ACTIVE_POOL.set(pool)) as pool:
        yield pool


@pytest.fixture(scope="module")
def constant_disc32(disc_domain):
    """Constant-density family 1 + eps on the unit disc at 1/32."""
    return PinchedFamily(discretize(disc_domain, 1.0 / 32), None)


@pytest.mark.parametrize("matrix, q", [(cofactor_field, 2.0), (lambda pot: pot.hess, 1.1)],
                         ids=["cofactor", "sobolev"])
def test_scaling_oracle_matches_closed_form(constant_disc32, matrix, q):
    # density 1 + eps scales the flat potential by sqrt(1 + eps), and with it
    # its Hessian and cofactor, so the distance at eps is (sqrt(1 + eps) - 1)
    # times the norm of the flat field
    grid = constant_disc32.grid
    eps = 0.2
    flat = matrix(constant_disc32.potential(0.0))
    pinched = matrix(constant_disc32.potential(eps))

    def frobenius_lq(xx, xy, yy):
        return lp_norm(grid, np.sqrt(xx ** 2 + 2.0 * xy ** 2 + yy ** 2), q)

    lhs = frobenius_lq(pinched.xx - flat.xx, pinched.xy - flat.xy, pinched.yy - flat.yy)
    rhs = (np.sqrt(1.0 + eps) - 1.0) * frobenius_lq(flat.xx, flat.xy, flat.yy)
    assert rhs > 0.0
    assert abs(lhs - rhs) <= 0.05 * rhs


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

    flat = SimpleNamespace(phi=SimpleNamespace(values=np.zeros(3)))

    def fake_solve(grid, g, tol_ma, start):
        solved.append(g)
        time.sleep(0.005)
        if g == 1.0:
            assert start is None
            return flat
        assert start is flat.phi.values
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

    def failing_solve(grid, g, tol_ma, start):
        calls.append((g, start))
        raise SolveError("no convergence")

    monkeypatch.setattr(stability_lab, "solve_ma", failing_solve)
    family = PinchedFamily(discretize(disc_domain, 1.0 / 16))
    for _ in range(3):
        with pytest.raises(SolveError, match="no convergence"):
            family.potential(0.2)
    # the flat start is solved first; its failure leaves eps = 0.2 start-less
    assert calls == [(1.0, None), (1.2, None)]


def test_family_scans_the_heights_once_per_potential(disc_domain, monkeypatch):
    scanned = []
    real = stability_lab.interior_heights

    def counting(pot):
        scanned.append(pot)
        time.sleep(0.005)
        return real(pot)

    monkeypatch.setattr(stability_lab, "interior_heights", counting)
    family = PinchedFamily(discretize(disc_domain, 1.0 / 16), default_bump(disc_domain))
    eps = [0.2, 0.1] * 6
    with active_pool(4) as pool:
        got = pool.submit(stability_lab.run_sweep, family.heights, eps, 4).result(timeout=60)
    assert len(scanned) == 2
    assert {id(scanned[0]), id(scanned[1])} == {id(family.potential(0.2)), id(family.potential(0.1))}
    for e, hs in zip(eps, got):
        assert hs is family.heights(e)
        assert np.array_equal(hs, real(family.potential(e)), equal_nan=True)


def _family_phis(grid, g0, order, threads):
    family = PinchedFamily(grid, g0)
    with active_pool(threads) as pool:
        pots = pool.submit(stability_lab.run_sweep, family.potential, order, threads).result(timeout=120)
    return {eps: pot.phi.values for eps, pot in zip(order, pots)}


def test_family_potentials_do_not_depend_on_threads_or_order():
    grid = discretize(build_domain("square", side=2.0), 1.0 / 16)
    bump = default_bump(grid.domain)
    eps = [0.2, 0.1, 0.05, 0.025]
    runs = [_family_phis(grid, bump, eps, 1), _family_phis(grid, bump, eps, 2),
            _family_phis(grid, bump, eps[::-1], 1), _family_phis(grid, bump, eps[::-1], 2)]
    for phis in runs[1:]:
        for e in eps:
            assert np.array_equal(phis[e], runs[0][e], equal_nan=True), e


def test_a_one_worker_pool_finishes_a_sweep_in_index_order():
    # the only worker runs the sweep itself, so the sweep's thread runs every
    # value it finds still queued
    seen = []

    def one(v):
        seen.append((v, threading.get_ident()))
        return v * v

    def sweep():
        return stability_lab.run_sweep(one, [3, 1, 2], threads=4)

    with active_pool(1) as pool:
        got = pool.submit(sweep).result(timeout=30)
    assert got == [9, 1, 4]
    assert [v for v, _ in seen] == [3, 1, 2]
    assert len({ident for _, ident in seen}) == 1


def test_sweeps_sharing_a_small_pool_run_each_value_once():
    # eight sweeps, each itself a task on a three-worker pool, hand their
    # values to the same pool; a value that both its sweep and a worker ran,
    # or that neither ran, breaks the counts
    lock = threading.Lock()
    runs = {}

    def one(key):
        with lock:
            runs[key] = runs.get(key, 0) + 1
        return key

    def sweep(k):
        return stability_lab.run_sweep(one, [(k, v) for v in range(20)], threads=3)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with active_pool(3) as pool:
            futures = [pool.submit(sweep, k) for k in range(8)]
            got = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(old)
    assert got == [[(k, v) for v in range(20)] for k in range(8)]
    assert runs == {(k, v): 1 for k in range(8) for v in range(20)}


def test_a_failing_sweep_value_raises_and_leaves_the_pool_usable():
    # the second value raises; the first value in index order to fail is the
    # one the sweep raises, after the values already started have finished
    finished = []

    def one(v):
        if v == 1:
            raise stability_lab.StabilityError(f"value {v} failed")
        time.sleep(0.01)
        finished.append(v)
        return v

    with active_pool(2) as pool:
        with pytest.raises(stability_lab.StabilityError, match="value 1 failed"):
            pool.submit(stability_lab.run_sweep, one, [0, 1, 2, 3], 2).result(timeout=30)
        assert pool.submit(stability_lab.run_sweep, lambda v: v + 1, [0, 1, 2], 2).result(timeout=30) == [1, 2, 3]
        assert pool.submit(lambda: 7).result(timeout=30) == 7
    assert 0 in finished


def test_the_sweep_runs_every_queued_value_before_it_waits():
    # the pool's other worker is held in the first value it takes until the
    # sweep's thread has run every other value; a sweep that waited for the
    # held value first would leave it to time out
    caller = []
    taken = threading.Event()
    release = threading.Event()
    mine = []
    held = []

    def sweep():
        caller.append(threading.get_ident())
        return stability_lab.run_sweep(one, range(5), threads=2)

    def one(v):
        if threading.get_ident() != caller[0]:
            taken.set()
            held.append((v, release.wait(timeout=5)))
            return v
        assert taken.wait(timeout=30)
        mine.append(v)
        if len(mine) == 4:
            release.set()
        return v

    with active_pool(2) as pool:
        assert pool.submit(sweep).result(timeout=60) == list(range(5))
    assert len(held) == 1 and held[0][1] is True
    assert sorted(mine + [held[0][0]]) == list(range(5))


def test_a_worker_value_finds_the_runs_pool_without_a_copied_context(monkeypatch):
    # run_sweep submits fn itself; the worker that takes a value holds the
    # pool as its ACTIVE_POOL through the pool's initializer
    caller = []
    taken = threading.Event()
    submitted = []
    seen = []

    def one(v):
        if threading.get_ident() == caller[0]:
            assert taken.wait(timeout=30)
        else:
            taken.set()
        seen.append((threading.get_ident(), stability_lab.ACTIVE_POOL.get()))
        return v

    def sweep():
        caller.append(threading.get_ident())
        return stability_lab.run_sweep(one, [0, 1, 2], threads=2)

    with active_pool(2) as pool:
        submit = pool.submit
        monkeypatch.setattr(pool, "submit", lambda fn, *args: submitted.append(fn) or submit(fn, *args))
        assert submit(sweep).result(timeout=60) == [0, 1, 2]
    assert submitted == [one] * 3
    assert {active for _, active in seen} == {pool}
    assert {ident for ident, _ in seen} - set(caller)
    assert stability_lab.ACTIVE_POOL.get() is None


def test_a_worker_value_that_fails_first_raises_over_a_later_failure_of_the_sweeps_thread():
    caller = []
    taken = threading.Event()

    def sweep():
        caller.append(threading.get_ident())
        return stability_lab.run_sweep(one, [0, 1, 2, 3], threads=2)

    def one(v):
        if threading.get_ident() != caller[0]:
            taken.set()
            time.sleep(0.05)
            raise stability_lab.StabilityError(f"worker value {v} failed")
        assert taken.wait(timeout=30)
        if v == 3:
            raise stability_lab.StabilityError("the sweep's own value failed")
        return v

    with active_pool(2) as pool:
        with pytest.raises(stability_lab.StabilityError, match=r"worker value [01] failed"):
            pool.submit(sweep).result(timeout=60)



def test_square_pinched_solve_continues_from_the_flat_potential():
    # from the Laplacian start this solve needs 28 damped iterations
    grid = discretize(build_domain("square", side=2.0), 1.0 / 32)
    family = PinchedFamily(grid, default_bump(grid.domain))
    pot = family.potential(0.025)
    assert pot.start == "given"
    assert pot.newton_iterations <= 3
    alone = solve_ma(grid, family.density(0.025))
    assert alone.start != "given"
    assert np.nanmax(np.abs(pot.phi.values - alone.phi.values)) <= 1e-8


def test_family_solves_on_its_own_when_the_flat_solve_fails(disc_domain, monkeypatch):
    starts = []

    def flat_fails(grid, g, tol_ma, start):
        if np.ndim(g) == 0:
            raise SolveError("flat solve failed")
        starts.append(start)
        return solve_ma(grid, g, tol_ma=tol_ma, start=start)

    monkeypatch.setattr(stability_lab, "solve_ma", flat_fails)
    grid = discretize(disc_domain, 1.0 / 16)
    family = PinchedFamily(grid, default_bump(disc_domain))
    pot = family.potential(0.2)
    assert starts == [None]
    assert pot.start == "laplacian"
    assert pot.residual_max <= 1e-7
    with pytest.raises(SolveError, match="flat solve failed"):
        family.potential(0.0)


def test_contact_set_anchor_snaps_to_an_in_domain_node():
    # the ellipse's first boundary sample (1.2, 0) rounds to the exterior node
    # (1.20625, 0); the experiment floods from the nearest in-domain node
    grid = discretize(build_domain("ellipse", a=1.2, b=0.8), 1.0 / 32)
    family = PinchedFamily(grid, default_bump(grid.domain))
    assert not grid.in_domain[grid.nearest_node((1.2, 0.0))]
    config = ExperimentConfig(eps=(0.2, 0.1, 0.05), sigma=0.9)
    report = stability_lab.contact_set_experiment(family, config)
    anchor = [report.measured["anchor_x"], report.measured["anchor_y"]]
    assert anchor == pytest.approx([1.175, 0.0125], abs=1e-12)
    assert report.measured["section_cells"] == [38, 38, 38]
    assert report.measured["measurable_cells"] == [10, 10, 10]
    # the mask threshold 0.5 * sigma = 0.45 lies above the ellipse's
    # quasi-Euclidean ratio, about b / (2a) = 1/3, so no cell passes
    assert report.measured["defect_fraction"] == [1.0, 1.0, 1.0]
    assert not report.passed


def test_pool_size_reads_the_config_not_the_active_pool():
    # a suite's experiment runs on a worker of the suite's pool under its own config
    with active_pool(3) as pool:
        assert pool.submit(stability_lab.pool_size, ExperimentConfig(threads=1)).result(timeout=30) == 1


def test_pool_size_counts_the_cores_this_process_may_run_on(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    assert stability_lab.pool_size(ExperimentConfig(threads=0)) == 1
    assert stability_lab.pool_size(ExperimentConfig(threads=3)) == 3
    # a platform without CPU affinity counts the host's cores
    monkeypatch.delattr(os, "sched_getaffinity")
    assert stability_lab.pool_size(ExperimentConfig(threads=0)) == 8
