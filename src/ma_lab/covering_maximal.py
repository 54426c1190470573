"""Coverings by sections and the section maximal function.

Implements the greedy selection of disjoint small-core sections whose
half-height dilates cover a region, the square-root-density covering
verifier, and the maximal operator that takes suprema of section averages
over a fixed height grid.
"""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .domain_grid import FieldError, ScalarField, coerce_samples, lp_norm
from .ma_solve import PotentialField
from .section_geom import (
    engulfing_constant,
    engulfing_samples,
    gap_from_index,
    interior_heights,
    measure_c_cap,
    pair_gaps,
    section_cells,
    sublevel_cells,
)


# vitali_cover floods the cores of this many candidates per section_cells
# call, so only one block of cores is held besides the picked ones
_WALK_BLOCK = 512
# vitali_cover's first core factor delta0, halved per round down to the floor
_DELTA0 = 0.1
_DELTA0_FLOOR = 0.0125
# density_heights: rungs of the geometric height ladder
_N_SCAN = 24
# covering_select keeps sections whose density lies in this band times eps
_DENSITY_BAND = (0.9, 1.1)
# maximal_function: centres per pair_gaps block; it sets the scan's peak memory
_MAXIMAL_CHUNK = 32


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


def vitali_cover(potential: PotentialField, region: np.ndarray) -> CoveringResult:
    """Select sections greedily by maximal height with pairwise disjoint cores.

    Candidates are walked in order of decreasing maximal interior height, so
    every pick has height at least half the supremum of the remaining ones. A
    candidate is selected when its core (section at the core factor delta0,
    first _DELTA0, times its height) misses every previously selected core.
    If the half-height sections of the selection fail to cover the region,
    delta0 is halved and the selection is rebuilt, down to _DELTA0_FLOOR.

    The heights are interior_heights, the ring-gap minimum. Where a
    candidate's tangent gap is negative at some ring node that height is
    negative: the candidate gets an empty core and an empty cover mask, and
    it is still picked unless an earlier core holds it.

    Every section is flood-filled exactly in grown windows (section_cells).
    The walk floods the cores of a block of candidates per call and skips
    the centres that an earlier core already holds; each pick's half-height
    section does not depend on delta0, so it is flooded once and reused by
    later rounds.
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
    size = grid.in_domain.size
    centre = np.ravel_multi_index((ci, cj), grid.shape)
    covers = {}

    d0 = _DELTA0
    while True:
        core_union = np.zeros(size, dtype=bool)
        cores = {}
        for s in range(0, order.size, _WALK_BLOCK):
            block = order[s : s + _WALK_BLOCK]
            # a centre inside a core now is inside one at its turn too
            block = block[~core_union[centre[block]]]
            for k, core in zip(block.tolist(), section_cells(potential, ci[block], cj[block], d0 * hvals[block])):
                if core_union[centre[k]] or core_union[core].any():
                    continue
                core_union[core] = True
                cores[k] = core
        picked = list(cores)

        new = [k for k in picked if k not in covers]
        covers.update(zip(new, section_cells(potential, ci[new], cj[new], 0.5 * hvals[new])))
        cover_union = np.zeros(size, dtype=bool)
        for k in picked:
            cover_union[covers[k]] = True
        defect_cells = int((region.ravel() & ~cover_union).sum())
        if defect_cells == 0:
            break
        if d0 <= _DELTA0_FLOOR * (1.0 + 1e-12):
            raise CoveringError(
                f"half-height sections leave {defect_cells} region cells uncovered at the smallest core factor {d0}"
            )
        d0 *= 0.5

    def mask(cells):
        m = np.zeros(size, dtype=bool)
        m[cells] = True
        return m.reshape(grid.shape)

    core_count = np.bincount(np.concatenate([cores[k] for k in picked]), minlength=size)
    centers = np.stack([grid.xs[ci[picked]], grid.ys[cj[picked]]], axis=-1)
    return CoveringResult(
        centers=centers,
        heights=hvals[picked],
        delta0=d0,
        core_masks=[mask(cores[k]) for k in picked],
        cover_masks=[mask(covers[k]) for k in picked],
        core_union=core_union.reshape(grid.shape),
        cover_union=cover_union.reshape(grid.shape),
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
    t_max: Optional[float] = None,
) -> tuple[np.ndarray, list]:
    """Per-point section heights whose target density is as close to eps as the grid allows.

    For each target node the density |S(x,t) and target| / |S(x,t)| is scanned
    over a geometric height ladder of _N_SCAN rungs from eight cells up to
    t_max (default half the largest interior height). In the first rung
    [a, b) where it falls from at least eps to below eps, the height is the
    first of the centre's tangent gaps at which the density is at least eps
    and just past which it is below eps; the density is piecewise constant
    between gaps and need not be monotone inside the rung. Nodes where no
    height reaches the band are returned in the excluded list.
    """
    grid = potential.grid
    target = np.asarray(target, dtype=bool)
    if not target.any():
        raise CoveringError("density target set is empty")
    if t_max is None:
        hs = interior_heights(potential, mask=target & grid.interior)
        t_max = 0.5 * float(np.nanmax(hs))
    heights = np.full(grid.shape, np.nan)
    excluded = []
    ti_, tj_ = np.nonzero(target)
    ladder = np.geomspace(8.0 * grid.cell_area, t_max, _N_SCAN)
    for i, j in zip(ti_, tj_):
        if not grid.interior[i, j]:
            excluded.append(((grid.xs[i], grid.ys[j]), "not an interior node"))
            continue
        gap = gap_from_index(potential, i, j)
        gap_dom = np.sort(gap[grid.in_domain])
        gap_tgt = np.sort(gap[target])

        def dens(t, side="left"):
            # raw sublevel counts of gap < t (gap <= t with side="right");
            # equal to the flood-filled section for a certified convex
            # potential, and far cheaper inside the scan
            n = np.searchsorted(gap_dom, t, side)
            return np.searchsorted(gap_tgt, t, side) / np.maximum(n, 1)

        d = dens(ladder)
        k = np.flatnonzero((d[:-1] >= eps) & (d[1:] < eps))
        if k.size == 0:
            excluded.append(((grid.xs[i], grid.ys[j]), "no height reaches the density band"))
            continue
        a, b = ladder[k[0]], ladder[k[0] + 1]
        # the density only moves at gap values; the first one in [a, b) past
        # which it falls below eps is where the band is left
        breaks = np.unique(gap[(grid.in_domain | target) & (gap >= a) & (gap < b)])
        heights[i, j] = breaks[np.argmax(dens(breaks, "right") < eps)]
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
) -> SelectionResult:
    """Greedy subfamily of density-eps sections controlling the target measure.

    Points whose measured density misses the band _DENSITY_BAND times eps are
    reported and excluded. theta_star is the engulfing constant measured on
    the three tallest remaining sections at the median and the largest
    height. Selection walks remaining points by decreasing height; each pick
    removes every point engulfed by the theta-star dilate of its section.
    Points the selected sections leave uncovered get their own section
    appended, so the union always contains the target. The verifier then
    checks the measure of the target against sqrt(eps) times the union
    measure plus a two-cell boundary-layer slack.
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
        gap = gap_from_index(potential, i, j)
        cells = sublevel_cells(potential, gap, t, (i, j))
        n = int(cells.sum())
        dens = (cells & target).sum() / n if n else 0.0
        if not (_DENSITY_BAND[0] * eps <= dens <= _DENSITY_BAND[1] * eps):
            excluded.append(((grid.xs[i], grid.ys[j]), f"density {dens:.4f} outside the band"))
            continue
        rows.append(k)
        cells_cache[k] = cells
        gaps_cache[k] = gap
    if not rows:
        raise CoveringError("no target point satisfies the density precondition")
    rows = np.asarray(rows)

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


def height_grid(potential: PotentialField, n_heights: int = 12) -> np.ndarray:
    """Log-spaced probe heights from the smallest usable section up to the cap (measure_c_cap)."""
    grid = potential.grid
    hs = interior_heights(potential)
    c_cap = measure_c_cap(potential, heights=hs)
    k = np.unravel_index(np.nanargmax(np.where(np.isfinite(hs), hs, -np.inf)), hs.shape)
    gap = gap_from_index(potential, *k)
    t = 2.0 * grid.cell_area
    while t < c_cap / 2.0:
        cells = sublevel_cells(potential, gap, t, k)
        if cells.sum() >= 8:
            break
        t *= 1.3
    t_min = min(t, c_cap / 2.0)
    return np.geomspace(t_min, c_cap, n_heights)


def maximal_function(
    potential: PotentialField,
    f,
    n_heights: int = 12,
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
        np.abs(coerce_samples(grid, g.values if isinstance(g, ScalarField) else g)[ni, nj])
        for g in (f if many else [f])
    ]
    heights = height_grid(potential, n_heights=n_heights)
    nh = heights.size
    outs = [np.full(grid.shape, np.nan) for _ in absf]
    for block, D in pair_gaps(potential, ni, nj, ni, nj, _MAXIMAL_CHUNK):
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


def strong_type_ratio(potential: PotentialField, f, p: float, maximal: Optional[ScalarField] = None) -> float:
    """Ratio of the L^p norm of the maximal function to the L^p norm of the input.

    maximal, when given, is maximal_function(potential, f) already computed;
    otherwise it is computed here.
    """
    if not p > 1:
        raise FieldError(f"strong type ratio needs p > 1, got {p}")
    grid = potential.grid
    fv = coerce_samples(grid, f.values if isinstance(f, ScalarField) else f)
    denom = lp_norm((grid, fv), p)
    if denom == 0.0:
        raise FieldError("strong type ratio undefined for zero input")
    M = maximal_function(potential, fv) if maximal is None else maximal
    return lp_norm(M, p) / denom
