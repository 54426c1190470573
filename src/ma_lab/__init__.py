"""Numerical laboratory for Monge-Ampere section geometry and linearized-solver experiments.

The package is organized around one capability per module:

- domain_grid: convex domains, grids, masks, finite differences, L^p norms
- ma_solve: damped Newton solver for det D^2 phi = g, cofactors, certification
- lma_solve: nine-point solver for the linearized operator trace(Phi D^2 u) = f
- section_geom: quasi-distance, sections, maximal heights, localization, engulfing
- covering_maximal: Vitali-style covers, the section maximal function
- good_sets: quasi-paraboloid openings, quasi-Euclidean ratios, bad-set decay fits
- barriers: explicit boundary supersolutions and their discrete verification
- stability_lab: the 13 experiments, each name_experiment(family, config) returning
  its report and the rows of its files; pinched-potential families
- cli_runner: config parsing, run and the suite, all file writing, and the ma-lab
  command line entry point
"""

from . import (
    barriers,
    covering_maximal,
    domain_grid,
    good_sets,
    lma_solve,
    ma_solve,
    section_geom,
    stability_lab,
)

__all__ = [
    "barriers",
    "covering_maximal",
    "domain_grid",
    "good_sets",
    "lma_solve",
    "ma_solve",
    "section_geom",
    "stability_lab",
]

__version__ = "0.1.0"
