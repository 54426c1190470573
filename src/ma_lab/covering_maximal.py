"""Coverings by sections and the section maximal function.

Implements the greedy selection of disjoint small-core sections whose
half-height dilates cover a region, and the maximal operator that takes
suprema of section averages over a fixed height grid, with its strong-type
ratio.
"""

from dataclasses import dataclass

import numpy as np

from .domain_grid import FieldError, LabError, ScalarField, coerce_samples, lp_norm
from .ma_solve import PotentialField
from .section_geom import measure_c_cap, pair_gaps, section_cells


# vitali_cover floods the cores of this many candidates per section_cells
# call, so only one block of cores is held besides the picked ones
_WALK_BLOCK = 512
# vitali_cover's first core factor delta0, halved per round down to the floor
_DELTA0 = 0.1
_DELTA0_FLOOR = 0.0125
# vitali_cover ranks heights that agree to this fraction of the largest as
# ties, far above the rounding that tells mirror-image centres apart
_TIE_TOL = 1e-9
# maximal_function: centres per pair_gaps block; it sets the scan's peak memory
_MAXIMAL_CHUNK = 32
# maximal_function: side of the square lattice tiles that group its centres
# and its targets, and the slack of a tile's gap floor relative to the size
# of the terms of a gap, far above their rounding (about 1e-15 of it)
_TILE = 8
_FLOOR_SLACK = 1e-9


class CoveringError(LabError, RuntimeError):
    pass


@dataclass
class CoveringResult:
    """Greedy cover of a region by half-height sections with disjoint cores.

    The k-th pick sits at centers[k] with height heights[k]; its core is its
    section at height delta0 * heights[k]. coverage_defect is the area of
    the region's cells that no half-height section covers: 0 unless the
    selection at the smallest core factor still leaves cells uncovered.
    """

    centers: np.ndarray
    heights: np.ndarray
    delta0: float
    coverage_defect: float


def vitali_cover(potential: PotentialField, region: np.ndarray, heights: np.ndarray) -> CoveringResult:
    """Select sections greedily by maximal height with pairwise disjoint cores.

    Candidates are walked in order of decreasing maximal interior height, so
    every pick has height at least half the supremum of the remaining ones.
    Heights are ranked rounded to _TIE_TOL times the largest, and ties go to
    the lower lattice index (row-major): mirror-image centres tie up to
    rounding, so a change of phi by rounding alone would otherwise reorder
    them. The rounded ranks only order the walk; every height stays exact. A
    candidate is selected when its core (section at the core factor delta0,
    first _DELTA0, times its height) misses every previously selected core.
    If the half-height sections of the selection fail to cover the region,
    delta0 is halved and the selection is rebuilt, down to _DELTA0_FLOOR;
    the selection at the floor is returned whether it covers or not, with
    the area it leaves uncovered as coverage_defect, for the caller to
    judge.

    heights is the interior_heights field of the potential, the ring-gap
    minimum, read at the candidates: the interior nodes of the region whose
    height is positive.

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
    cand = region & grid.interior & (heights > 0)
    if not cand.any():
        raise CoveringError("covering region holds no interior nodes of positive height")
    ci, cj = np.nonzero(cand)
    hvals = heights[ci, cj]
    order = np.argsort(-np.round(hvals / (_TIE_TOL * hvals.max())), kind="stable")
    size = grid.in_domain.size
    centre = np.ravel_multi_index((ci, cj), grid.shape)
    covers = {}

    d0 = _DELTA0
    while True:
        in_core = np.zeros(size, dtype=bool)
        picked = []
        for s in range(0, order.size, _WALK_BLOCK):
            block = order[s : s + _WALK_BLOCK]
            # a centre inside a core now is inside one at its turn too
            block = block[~in_core[centre[block]]]
            for k, core in zip(block.tolist(), section_cells(potential, ci[block], cj[block], d0 * hvals[block])):
                if in_core[centre[k]] or in_core[core].any():
                    continue
                in_core[core] = True
                picked.append(k)

        new = [k for k in picked if k not in covers]
        covers.update(zip(new, section_cells(potential, ci[new], cj[new], 0.5 * hvals[new])))
        in_cover = np.zeros(size, dtype=bool)
        for k in picked:
            in_cover[covers[k]] = True
        defect_cells = int((region.ravel() & ~in_cover).sum())
        if defect_cells == 0 or d0 <= _DELTA0_FLOOR * (1.0 + 1e-12):
            break
        d0 *= 0.5

    centers = np.stack([grid.xs[ci[picked]], grid.ys[cj[picked]]], axis=-1)
    return CoveringResult(
        centers=centers,
        heights=hvals[picked],
        delta0=d0,
        coverage_defect=defect_cells * grid.cell_area,
    )


# ---------------------------------------------------------------------------
# maximal function
# ---------------------------------------------------------------------------


def height_grid(potential: PotentialField, heights: np.ndarray, n_heights: int = 12) -> np.ndarray:
    """Log-spaced probe heights from the smallest usable section up to the cap.

    heights is the interior_heights field of the potential; the cap is its
    measure_c_cap, and the smallest section is probed at its largest node.
    """
    grid = potential.grid
    c_cap = measure_c_cap(heights)
    i, j = np.unravel_index(np.nanargmax(np.where(np.isfinite(heights), heights, -np.inf)), heights.shape)
    t = 2.0 * grid.cell_area
    while t < c_cap / 2.0:
        if section_cells(potential, [i], [j], [t])[0].size >= 8:
            break
        t *= 1.3
    t_min = min(t, c_cap / 2.0)
    return np.geomspace(t_min, c_cap, n_heights)


def _tile_gap_floors(potential: PotentialField, ni, nj):
    """Group the nodes (ni, nj) into _TILE x _TILE lattice tiles and bound each tile's gaps from below.

    Returns tile, the tile number of each node (0, 1, ... in order of the
    tiles' lattice keys), and floor, where floor(k)[m, T] bounds the tangent
    gap D(c, t) of pair_gaps from below for the centre c = node k[m] and
    every node t of tile T. With the tile's mean gradient g_T, its least
    w_T = min over t in T of phi(t) - g_T.t, and the box B_T of its nodes,

        D(c, t) = [phi(t) - g_T.t] + (g_T - grad phi(c)).t - phi(c) + grad phi(c).c,

    so L(c, T) = w_T + min over the corners of B_T of (g_T - grad phi(c)).corner
    - phi(c) + grad phi(c).c is at most D(c, t) for any phi, convex or not.
    floor returns L less a slack of _FLOOR_SLACK times the size of the
    gaps' terms, which covers the rounding of both sides. A NaN anywhere in
    the terms makes the floor NaN, which bounds nothing.
    """
    grid = potential.grid
    v = potential.phi.values[ni, nj]
    gx = potential.grad.gx[ni, nj]
    gy = potential.grad.gy[ni, nj]
    x, y = grid.xs[ni], grid.ys[nj]
    _, tile = np.unique((ni // _TILE) * grid.shape[1] + nj // _TILE, return_inverse=True)
    count = np.bincount(tile)
    gbx = np.bincount(tile, gx) / count
    gby = np.bincount(tile, gy) / count
    order = np.argsort(tile, kind="stable")
    starts = np.flatnonzero(np.diff(tile[order], prepend=-1))
    w, x0, y0 = (np.minimum.reduceat(a[order], starts) for a in (v - gbx[tile] * x - gby[tile] * y, x, y))
    x1, y1 = (np.maximum.reduceat(a[order], starts) for a in (x, y))
    size = np.max(np.abs(v)) + np.max(np.abs(gx) + np.abs(gy)) * np.max(np.abs(x) + np.abs(y))
    slack = _FLOOR_SLACK * size

    def floor(k):
        ax = gbx - gx[k, None]
        ay = gby - gy[k, None]
        lift = gx[k] * x[k] + gy[k] * y[k] - v[k] - slack
        return w + np.minimum(ax * x0, ax * x1) + np.minimum(ay * y0, ay * y1) + lift[:, None]

    return tile, floor


def maximal_function(
    potential: PotentialField,
    f,
    heights: np.ndarray,
    n_heights: int = 12,
) -> ScalarField:
    """Supremum of section averages of |f| over the probe height grid, per node.

    heights is the interior_heights field of the potential, from which
    height_grid takes the probe heights. The average at height t uses the
    full tangent sublevel set, which equals the flood-filled section for a
    certified convex potential. Suprema over a finite height set bound the
    true maximal operator from below, which keeps the strong-type
    measurements honest.

    One scan over the node pairs serves every height: a pair whose tangent
    gap reaches the top height enters no average and is dropped, and each
    kept pair is binned by the lowest height its gap falls below. Cumulative
    sums over the bins give the count and the sum of every section at once.

    The scan skips the pairs that cannot fall below the top height. Centres
    and targets are grouped into the same lattice tiles, and each target
    tile carries a floor under the gaps of its nodes that holds for any
    potential (_tile_gap_floors). A centre tile scans only the target tiles
    whose floor lies below the top height for at least one of its centres,
    taking their nodes in ascending order. Every gap it evaluates comes from
    pair_gaps, so it is bitwise the gap of the all-pairs scan; every pair
    it skips has a gap at or above the top height, which the all-pairs scan
    drops too. Each (centre, bin) bincount therefore adds the same weights
    in the same order, and the fields are bitwise those of the all-pairs
    scan.
    """
    grid = potential.grid
    ni, nj = np.nonzero(grid.in_domain)
    absf = np.abs(coerce_samples(grid, f.values if isinstance(f, ScalarField) else f)[ni, nj])
    probes = height_grid(potential, heights, n_heights=n_heights)
    nh = probes.size
    top = probes[-1]
    out = np.full(grid.shape, np.nan)
    tile, floor = _tile_gap_floors(potential, ni, nj)
    order = np.argsort(tile, kind="stable")
    for centres in np.split(order, np.flatnonzero(np.diff(tile[order])) + 1):
        # a NaN floor keeps its tile
        keep = ~np.all(floor(centres) >= top, axis=0)
        targets = np.flatnonzero(keep[tile])
        ci, cj = ni[centres], nj[centres]
        weights = absf[targets]
        for block, D in pair_gaps(potential, ci, cj, ni[targets], nj[targets], _MAXIMAL_CHUNK):
            flat = np.flatnonzero(D < top)
            rows, cols = np.divmod(flat, targets.size)
            key = rows * nh + np.searchsorted(probes, D.reshape(-1)[flat], side="right")
            size = D.shape[0] * nh
            counts = np.bincount(key, minlength=size).reshape(-1, nh).cumsum(axis=1)
            counts = np.maximum(counts, 1)
            sums = np.bincount(key, weights=weights[cols], minlength=size).reshape(-1, nh).cumsum(axis=1)
            out[ci[block], cj[block]] = (sums / counts).max(axis=1)
    return ScalarField(grid, out)


def strong_type_ratio(maximal: ScalarField, f, p: float) -> float:
    """Ratio of the L^p norm of the maximal function to the L^p norm of the input.

    maximal is maximal_function(potential, f).
    """
    if not p > 1:
        raise FieldError(f"strong type ratio needs p > 1, got {p}")
    grid = maximal.grid
    denom = lp_norm(grid, coerce_samples(grid, f), p)
    if denom == 0.0:
        raise FieldError("strong type ratio undefined for zero input")
    return lp_norm(grid, maximal.values, p) / denom
