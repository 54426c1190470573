"""Every suite assertion can fail: one mutation of src/ per assertion.

Mutation adequacy in the sense of DeMillo, Lipton and Sayward 1978 (IEEE
Computer 11(4)): a check earns its place when some fault of the code it
checks makes it fail. ROWS names, for each assertion the suite makes, a
monkeypatch of a src/ function or constant (MUTATIONS) and a grid of the
unit disc on which the assertion passes as the code stands and FAILS under
that patch. 1/16 is too coarse for sections (fewer than four sections
reach 20 cells) and contact_set (too few measurable cells), which run at
1/32.

LISTED holds the assertions that no mutation tried could flip, each with
the reason it stays. Where the fault class it names is caught, it is caught
by a raise before the assertion runs: the row's mutation then makes the
experiment raise that exception (exit 1 for a LabError, 3 for a
SolveError), and the assertion itself never reads a failing value.

A guard ties the table to the suite: every assertion name in the three
tests/suite_reference_*.json files has a row here, and no row names an
assertion the suite does not make.
"""

import json
from dataclasses import replace
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from ma_lab import barriers, cli_runner, covering_maximal, good_sets, lma_solve, section_geom, stability_lab
from ma_lab.ma_solve import SolveError
from ma_lab.stability_lab import EXPERIMENTS, ExperimentConfig, PinchedFamily

REFERENCES = sorted(Path(__file__).parent.glob("suite_reference_*.json"))


def _mirror(c):
    """The family solves each eps != 0 at c - eps: a sweep run backwards."""
    density = PinchedFamily.density

    def patch(mp):
        mp.setattr(PinchedFamily, "density", lambda self, eps: density(self, c - eps if eps else 0.0))

    return patch


def _loose_newton(mp):
    """The family's Newton solves stop at 1e-4 instead of the configured tolerance."""
    solve_ma = stability_lab.solve_ma
    mp.setattr(stability_lab, "solve_ma",
               lambda grid, g, tol_ma, start: solve_ma(grid, g, tol_ma=1e-4, start=start))


def _scaled_coefficient(k, factor):
    """The k-th barrier coefficient (delta_tilde, M_delta, K) times factor."""
    coefficients = barriers._barrier_coefficients

    def patch(mp):
        def scaled(lam, Lam, delta):
            c = list(coefficients(lam, Lam, delta))
            c[k] *= factor
            return tuple(c)

        mp.setattr(barriers, "_barrier_coefficients", scaled)

    return patch


def _double_flood(mp):
    """Sections are flooded at twice the height they report."""
    section_cells = section_geom.section_cells
    mp.setattr(section_geom, "section_cells",
               lambda pot, ci, cj, heights: section_cells(pot, ci, cj, 2.0 * np.asarray(heights, dtype=float)))


def _probes_at_cap(mp):
    """Every probe height of the maximal function is the cap: no small section is averaged."""
    height_grid = covering_maximal.height_grid

    def at_cap(pot, heights, n_heights=12):
        return np.full(n_heights, height_grid(pot, heights, n_heights=n_heights)[-1])

    mp.setattr(covering_maximal, "height_grid", at_cap)


def _datum_x2(mp):
    """stability_lab's linearized solves take the boundary datum x**2 in place of 0."""
    solve_lma = stability_lab.solve_lma
    mp.setattr(stability_lab, "solve_lma", lambda op, f, boundary=0.0, tol_lma=1e-8: solve_lma(
        op, f, boundary=lambda pts: np.atleast_2d(pts)[:, 0] ** 2, tol_lma=tol_lma))


def _inexact_linear_solve(mp):
    """solve_lma's linear solves come back with a relative error of 1e-6."""
    linear_solve = lma_solve.linear_solve
    mp.setattr(lma_solve, "linear_solve", lambda A, rhs: linear_solve(A, rhs) * (1.0 + 1e-6))


def _empty_flood(mp):
    """The cover's floods return no cells."""
    mp.setattr(covering_maximal, "section_cells",
               lambda pot, ci, cj, heights: [np.empty(0, dtype=np.intp)] * len(ci))


MUTATIONS = {
    "loose newton": _loose_newton,
    "cap factor 2": lambda mp: mp.setattr(section_geom, "_C_CAP_FACTOR", 2.0),
    "double flood": _double_flood,
    "probes at cap": _probes_at_cap,
    "barrier K / 100": _scaled_coefficient(2, 0.01),
    "barrier M_delta / 100": _scaled_coefficient(1, 0.01),
    "barrier delta_tilde * 100": _scaled_coefficient(0, 100.0),
    "mirror 0.25": _mirror(0.25),
    "mirror 0.35": _mirror(0.35),
    "trust margin 1": lambda mp: mp.setattr(good_sets, "_TRUST_MARGIN", 1),
    "datum x**2": _datum_x2,
    "inexact linear solve": _inexact_linear_solve,
    "empty flood": _empty_flood,
}

# (experiment, assertion): (spacing, mutation that makes it fail)
ROWS = {
    ("solve_ma", "newton residual within tolerance"): (1 / 16, "loose newton"),
    ("sections", "volume scaling exponent near linear"): (1 / 32, "cap factor 2"),
    ("sections", "engulfing constant bounded"): (1 / 32, "double flood"),
    ("cover", "half-height sections cover the region"): (1 / 16, "empty flood"),
    ("maximal", "maximal dominates the average"): (1 / 16, "probes at cap"),
    ("barrier", "operator value below the negative threshold"): (1 / 16, "barrier K / 100"),
    ("barrier", "barrier nonnegative on the flat boundary piece"): (1 / 16, "barrier M_delta / 100"),
    ("barrier", "barrier dominates the gap on the inner circle"): (1 / 16, "barrier delta_tilde * 100"),
    ("cofactor_stability", "norm(eps=0.025) < norm(eps=0.05)"): (1 / 16, "mirror 0.25"),
    ("cofactor_stability", "norm(eps=0.05) < norm(eps=0.1)"): (1 / 16, "mirror 0.25"),
    ("cofactor_stability", "norm(eps=0.1) < norm(eps=0.2)"): (1 / 16, "mirror 0.25"),
    ("sobolev_stability", "hessian distance at eps=0.05 < at eps=0.1"): (1 / 16, "mirror 0.25"),
    ("sobolev_stability", "hessian distance at eps=0.1 < at eps=0.2"): (1 / 16, "mirror 0.25"),
    ("approximation", "sup|u-h| at eps=0.05 < at eps=0.1"): (1 / 16, "mirror 0.25"),
    ("approximation", "sup|u-h| at eps=0.1 < at eps=0.2"): (1 / 16, "mirror 0.25"),
    ("contact_set", "defect at eps=0.05 <= defect at eps=0.1"): (1 / 32, "mirror 0.35"),
    ("contact_set", "defect at eps=0.1 <= defect at eps=0.2"): (1 / 32, "mirror 0.25"),
    ("contact_set", "defect small at eps=0.05"): (1 / 32, "trust margin 1"),
    ("w2p_ratio", "ratio invariant under f -> 10f at eps=0.1"): (1 / 16, "datum x**2"),
}

# (experiment, assertion): (spacing, mutation or None, the exception it raises, why the assertion stays)
LISTED = {
    ("solve_ma", "certified convex"): (
        1 / 16, None, None,
        "Newton's convexified equation has only positive-definite interior roots, and solve_ma raises "
        "SolveError when the certificate reads below -_CONVEX_TOL * Lam; neither the plain determinant "
        "nor a concave Newton start gave a margin below 0. It stays as the report's statement of the "
        "certificate, the hypothesis every later experiment leans on."),
    ("solve_lma", "linear solve residual within tolerance"): (
        1 / 16, "inexact linear solve", SolveError,
        "solve_lma raises above max(tol_lma, 1e-9 max|rhs|), which is tol_lma for the suite's source, "
        "before this bound of 10 tol_lma is read; it stays as the report's record of the residual."),
    ("w2p_ratio", "sup of ratios <= 3 * median"): (
        1 / 16, None, None,
        "the paper's estimate bounds the ratio uniformly in the pinching, and the sweep's ratios agree "
        "within 2 % on the three suite domains; a near-degenerate density 1 - 4.99 eps g0 raised the "
        "largest only to 2.0 times the median at 1/16. It stays as the suite's one check of that "
        "uniformity."),
}


def _config(experiment, spacing):
    return replace(ExperimentConfig(experiment=experiment, spacing=spacing, threads=1),
                   **cli_runner._SUITE_OVERRIDES.get(experiment, {}))


def _verdicts(experiment, spacing):
    """Each assertion's name and verdict, from a fresh family (so a patched solve is not shared)."""
    config = _config(experiment, spacing)
    report = EXPERIMENTS[experiment](cli_runner._family(config), config)
    return {a.name: a.passed for a in report.assertions}


@lru_cache(maxsize=None)
def _unmutated(experiment, spacing):
    return _verdicts(experiment, spacing)


def _reference_assertions():
    names = set()
    for path in REFERENCES:
        values = json.loads(path.read_text())
        names |= {(key.split("/")[0], value) for key, value in values.items()
                  if "/report.json/assertions/" in key and key.endswith("/name")}
    return names


def test_every_suite_assertion_has_a_row():
    assert len(REFERENCES) == 3
    assert not set(ROWS) & set(LISTED)
    assert _reference_assertions() == set(ROWS) | set(LISTED)
    assert set(MUTATIONS) == {m for _, m in ROWS.values()} | {m for _, m, _, _ in LISTED.values() if m}


@pytest.mark.parametrize("experiment, assertion", list(ROWS), ids=[f"{e}: {a}" for e, a in ROWS])
def test_mutation_fails_the_assertion(experiment, assertion, monkeypatch):
    spacing, mutation = ROWS[experiment, assertion]
    assert _unmutated(experiment, spacing)[assertion] is True
    MUTATIONS[mutation](monkeypatch)
    assert _verdicts(experiment, spacing)[assertion] is False


@pytest.mark.parametrize("experiment, assertion", list(LISTED), ids=[f"{e}: {a}" for e, a in LISTED])
def test_listed_assertion_passes_and_its_fault_raises(experiment, assertion, monkeypatch):
    spacing, mutation, error, reason = LISTED[experiment, assertion]
    assert reason
    assert _unmutated(experiment, spacing)[assertion] is True
    if mutation is not None:
        MUTATIONS[mutation](monkeypatch)
        with pytest.raises(error):
            _verdicts(experiment, spacing)
