"""Coverings by sections and the section maximal function.

Implements the greedy selection of disjoint small-core sections whose
half-height dilates cover a region, the square-root-density covering
verifier, and the maximal operator that takes suprema of section averages
over a fixed height grid.
"""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .domain_grid import FieldError, ScalarField, lp_norm
from .ma_solve import PotentialField, _coerce_samples
from .section_geom import (
    SectionError,
    _gap_from_index,
    _sublevel_cells,
    engulfing_constant,
    engulfing_samples,
    interior_heights,
    measure_c_cap,
    pair_gaps,
)


class CoveringError(RuntimeError):
    pass


@dataclass
class CoveringResult:
    """Greedy cover of a region by half-height sections with disjoint cores."""

    centers: np.ndarray
    heights: np.ndarray
    delta0: float
    core_masks: list
    cover_masks: list
    core_union: np.ndarray
    cover_union: np.ndarray
    coverage_defect: float
    disjointness_violations: int


def vitali_cover(potential: PotentialField, region: np.ndarray, delta0: float = 0.1, delta0_floor: float = 0.0125) -> CoveringResult:
    """Select sections greedily by maximal height with pairwise disjoint cores.

    Candidates are walked in order of decreasing maximal interior height, so
    every pick has height at least half the supremum of the remaining ones. A
    candidate is selected when its core (section at delta0 times its height)
    misses every previously selected core. If the half-height sections of the
    selection fail to cover the region, delta0 is halved and the selection is
    rebuilt, down to a floor.
    """
    grid = potential.grid
    region = np.asarray(region, dtype=bool)
    if not region.any():
        raise CoveringError("covering region is empty")
    cand = region & grid.interior
    if not cand.any():
        raise CoveringError("covering region holds no interior nodes")
    heights = interior_heights(potential, mask=cand)
    ci, cj = np.nonzero(cand)
    hvals = heights[ci, cj]
    order = np.argsort(-hvals, kind="stable")

    d0 = float(delta0)
    while True:
        core_union = np.zeros(grid.shape, dtype=bool)
        core_count = np.zeros(grid.shape, dtype=np.int32)
        core_masks = []
        picked = []
        for k in order:
            idx = (ci[k], cj[k])
            if core_union[idx]:
                continue
            gap = _gap_from_index(potential, *idx)
            core = _sublevel_cells(potential, gap, d0 * hvals[k], idx)
            if (core & core_union).any():
                continue
            core_union |= core
            core_count += core
            core_masks.append(core)
            picked.append(k)

        cover_masks = []
        cover_union = np.zeros(grid.shape, dtype=bool)
        for k in picked:
            idx = (ci[k], cj[k])
            gap = _gap_from_index(potential, *idx)
            cover = _sublevel_cells(potential, gap, 0.5 * hvals[k], idx)
            cover_masks.append(cover)
            cover_union |= cover
        defect_cells = int((region & ~cover_union).sum())
        if defect_cells == 0:
            break
        if d0 <= delta0_floor * (1.0 + 1e-12):
            raise CoveringError(
                f"half-height sections leave {defect_cells} region cells uncovered at the smallest core factor {d0}"
            )
        d0 *= 0.5

    centers = np.stack([grid.xs[ci[picked]], grid.ys[cj[picked]]], axis=-1)
    return CoveringResult(
        centers=centers,
        heights=hvals[picked],
        delta0=d0,
        core_masks=core_masks,
        cover_masks=cover_masks,
        core_union=core_union,
        cover_union=cover_union,
        coverage_defect=defect_cells * grid.cell_area,
        disjointness_violations=int((core_count > 1).sum()),
    )


# ---------------------------------------------------------------------------
# density-calibrated covering selection
# ---------------------------------------------------------------------------


def density_heights(
    potential: PotentialField,
    target: np.ndarray,
    eps: float,
    t_min: Optional[float] = None,
    t_max: Optional[float] = None,
    n_scan: int = 24,
) -> tuple[np.ndarray, list]:
    """Per-point section heights whose target density is as close to eps as the grid allows.

    For each target node the density |S(x,t) and target| / |S(x,t)| is scanned
    over a geometric height ladder and refined by bisection on its decreasing
    branch. Nodes where no height reaches the band are returned in the
    excluded list.
    """
    grid = potential.grid
    target = np.asarray(target, dtype=bool)
    if not target.any():
        raise CoveringError("density target set is empty")
    if t_max is None:
        hs = interior_heights(potential, mask=target & grid.interior)
        t_max = 0.5 * float(np.nanmax(hs))
    if t_min is None:
        t_min = 8.0 * grid.cell_area
    heights = np.full(grid.shape, np.nan)
    excluded = []
    ti_, tj_ = np.nonzero(target)
    ladder = np.geomspace(t_min, t_max, n_scan)
    for i, j in zip(ti_, tj_):
        if not grid.interior[i, j]:
            excluded.append(((grid.xs[i], grid.ys[j]), "not an interior node"))
            continue
        gap = _gap_from_index(potential, i, j)
        gap_dom = gap[grid.in_domain]
        gap_tgt = gap[target]

        def dens(t):
            # raw sublevel counts; equal to the flood-filled section for a
            # certified convex potential, and far cheaper inside the scan
            n = int(np.count_nonzero(gap_dom < t))
            return int(np.count_nonzero(gap_tgt < t)) / n if n else 0.0

        lo = None
        hi = None
        for a, b in zip(ladder[:-1], ladder[1:]):
            if dens(a) >= eps > dens(b):
                lo, hi = a, b
                break
        if lo is None:
            excluded.append(((grid.xs[i], grid.ys[j]), "no height reaches the density band"))
            continue
        for _ in range(30):
            mid = 0.5 * (lo + hi)
            if dens(mid) >= eps:
                lo = mid
            else:
                hi = mid
        heights[i, j] = lo
    return heights, excluded


@dataclass
class SelectionResult:
    centers: np.ndarray
    heights: np.ndarray
    section_masks: list
    union_mask: np.ndarray
    measure_target: float
    measure_union: float
    slack: float
    bound: float
    passed: bool
    covers_target: bool
    theta_star: float
    excluded: list = field(default_factory=list)


def covering_select(
    potential: PotentialField,
    target: np.ndarray,
    eps: float,
    heights: np.ndarray,
    theta_star: Optional[float] = None,
    density_band: tuple = (0.9, 1.1),
) -> SelectionResult:
    """Greedy subfamily of density-eps sections controlling the target measure.

    Points whose measured density misses the band are reported and excluded.
    Selection walks remaining points by decreasing height; each pick removes
    every point engulfed by the theta-star dilate of its section. Points the
    selected sections leave uncovered get their own section appended, so the
    union always contains the target. The verifier then checks the measure of
    the target against sqrt(eps) times the union measure plus a two-cell
    boundary-layer slack.
    """
    grid = potential.grid
    target = np.asarray(target, dtype=bool)
    if not target.any():
        raise CoveringError("covering target set is empty")
    ti_, tj_ = np.nonzero(target)
    tvals = heights[ti_, tj_]

    excluded = []
    rows = []
    cells_cache = {}
    gaps_cache = {}
    for k in range(ti_.size):
        i, j = ti_[k], tj_[k]
        t = tvals[k]
        if not np.isfinite(t) or t <= 0:
            excluded.append(((grid.xs[i], grid.ys[j]), "no height supplied"))
            continue
        gap = _gap_from_index(potential, i, j)
        cells = _sublevel_cells(potential, gap, t, (i, j))
        n = int(cells.sum())
        dens = (cells & target).sum() / n if n else 0.0
        if not (density_band[0] * eps <= dens <= density_band[1] * eps):
            excluded.append(((grid.xs[i], grid.ys[j]), f"density {dens:.4f} outside the band"))
            continue
        rows.append(k)
        cells_cache[k] = cells
        gaps_cache[k] = gap
    if not rows:
        raise CoveringError("no target point satisfies the density precondition")
    rows = np.asarray(rows)

    if theta_star is None:
        t_med = float(np.median(tvals[rows]))
        probe = rows[np.argsort(-tvals[rows], kind="stable")[: min(3, rows.size)]]
        centers = [np.array([grid.xs[ti_[k]], grid.ys[tj_[k]]]) for k in probe]
        samples = engulfing_samples(potential, [t_med, float(np.max(tvals[rows]))], centers=centers, n_random=4, seed=7)
        theta_star = engulfing_constant(potential, samples).theta_star

    order = rows[np.argsort(-tvals[rows], kind="stable")]
    removed = np.zeros(grid.shape, dtype=bool)
    selected = []
    for k in order:
        i, j = ti_[k], tj_[k]
        if removed[i, j]:
            continue
        selected.append(k)
        with np.errstate(invalid="ignore"):
            removed |= gaps_cache[k] < theta_star * tvals[k]
        removed[i, j] = True

    union = np.zeros(grid.shape, dtype=bool)
    for k in selected:
        union |= cells_cache[k]
    for k in order:
        i, j = ti_[k], tj_[k]
        if not union[i, j]:
            selected.append(k)
            union |= cells_cache[k]

    eligible = np.zeros(grid.shape, dtype=bool)
    eligible[ti_[rows], tj_[rows]] = True
    covers = bool(np.all(union[eligible]))

    perim = union & ~(
        np.roll(union, 1, 0) & np.roll(union, -1, 0) & np.roll(union, 1, 1) & np.roll(union, -1, 1)
    )
    slack = 2.0 * int(perim.sum()) * grid.cell_area
    measure_target = int(eligible.sum()) * grid.cell_area
    measure_union = int(union.sum()) * grid.cell_area
    bound = np.sqrt(eps) * measure_union + slack
    centers = np.stack([grid.xs[ti_[selected]], grid.ys[tj_[selected]]], axis=-1)
    return SelectionResult(
        centers=centers,
        heights=tvals[selected],
        section_masks=[cells_cache[k] for k in selected],
        union_mask=union,
        measure_target=measure_target,
        measure_union=measure_union,
        slack=slack,
        bound=bound,
        passed=measure_target <= bound,
        covers_target=covers,
        theta_star=float(theta_star),
        excluded=excluded,
    )


# ---------------------------------------------------------------------------
# maximal function
# ---------------------------------------------------------------------------


def height_grid(potential: PotentialField, c_cap: Optional[float] = None, n_heights: int = 12) -> np.ndarray:
    """Log-spaced probe heights from the smallest usable section up to the cap."""
    grid = potential.grid
    hs = interior_heights(potential)
    if c_cap is None:
        c_cap = measure_c_cap(potential, heights=hs)
    k = np.unravel_index(np.nanargmax(np.where(np.isfinite(hs), hs, -np.inf)), hs.shape)
    gap = _gap_from_index(potential, *k)
    t = 2.0 * grid.cell_area
    while t < c_cap / 2.0:
        cells = _sublevel_cells(potential, gap, t, k)
        if cells.sum() >= 8:
            break
        t *= 1.3
    t_min = min(t, c_cap / 2.0)
    return np.geomspace(t_min, c_cap, n_heights)


def maximal_function(
    potential: PotentialField,
    f,
    c_cap: Optional[float] = None,
    n_heights: int = 12,
    chunk: int = 32,
) -> ScalarField | list[ScalarField]:
    """Supremum of section averages of |f| over the probe height grid, per node.

    The average at height t uses the full tangent sublevel set, which equals
    the flood-filled section for a certified convex potential. Suprema over a
    finite height set bound the true maximal operator from below, which keeps
    the strong-type measurements honest.

    One scan over the node pairs serves every height: a pair whose tangent
    gap reaches the top height enters no average and is dropped, and each
    kept pair is binned by the lowest height its gap falls below. Cumulative
    sums over the bins give the count and the sum of every section at once.
    f may be a list or tuple of inputs; the pairs are then scanned once for
    all of them and one field per input comes back, in order. A single input
    returns a single ScalarField.
    """
    grid = potential.grid
    many = isinstance(f, (list, tuple))
    ni, nj = np.nonzero(grid.in_domain)
    absf = [
        np.abs(_coerce_samples(grid, g.values if isinstance(g, ScalarField) else g)[ni, nj])
        for g in (f if many else [f])
    ]
    heights = height_grid(potential, c_cap=c_cap, n_heights=n_heights)
    nh = heights.size
    outs = [np.full(grid.shape, np.nan) for _ in absf]
    for block, D in pair_gaps(potential, ni, nj, ni, nj, chunk):
        flat = np.flatnonzero(D < heights[-1])
        rows, cols = np.divmod(flat, ni.size)
        key = rows * nh + np.searchsorted(heights, D.reshape(-1)[flat], side="right")
        size = D.shape[0] * nh
        counts = np.bincount(key, minlength=size).reshape(-1, nh).cumsum(axis=1)
        counts = np.maximum(counts, 1)
        for a, out in zip(absf, outs):
            sums = np.bincount(key, weights=a[cols], minlength=size).reshape(-1, nh).cumsum(axis=1)
            out[ni[block], nj[block]] = (sums / counts).max(axis=1)
    fields = [ScalarField(grid, out) for out in outs]
    return fields if many else fields[0]


def strong_type_ratio(
    potential: PotentialField, f, p: float, c_cap: Optional[float] = None, maximal: Optional[ScalarField] = None
) -> float:
    """Ratio of the L^p norm of the maximal function to the L^p norm of the input.

    maximal, when given, is maximal_function(potential, f) already computed
    with the same cap; otherwise it is computed here.
    """
    if not p > 1:
        raise FieldError(f"strong type ratio needs p > 1, got {p}")
    grid = potential.grid
    fv = _coerce_samples(grid, f.values if isinstance(f, ScalarField) else f)
    denom = lp_norm((grid, fv), p)
    if denom == 0.0:
        raise FieldError("strong type ratio undefined for zero input")
    M = maximal_function(potential, fv, c_cap=c_cap) if maximal is None else maximal
    return lp_norm(M, p) / denom
