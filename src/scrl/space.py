"""Finite metric-space models of the compact domains.

Three domains are supported, each sampled on a regular cell-center grid:

* ``circle``: the circle of circumference 1 with the wrap-around
  arc-length metric.
* ``unit-square``: [0, 1]^2 with the Euclidean metric.
* ``roof``: the region under the curved height profile
  ``tau(x) = sqrt(|x - 1/2|) + (sqrt(2) - 1)/sqrt(2)`` on x in [0, 1],
  with the top edge glued to the bottom edge point by point,
  ``(x, tau(x)) ~ (x, 0)``.  Its metric is the ambient planar metric
  closed under travel through the gluing; we realize it exactly as the
  shortest-path metric of a gadget graph whose through-edges pass via a
  fixed set of seam samples.  For any sample count this construction is
  a true metric (symmetry and the triangle inequality hold exactly) and
  it converges to the continuum quotient metric as samples are refined.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

CIRCLE = "circle"
UNIT_SQUARE = "unit-square"
ROOF = "roof"
DOMAINS = (CIRCLE, UNIT_SQUARE, ROOF)

ROOF_RIDGE = (np.sqrt(2.0) - 1.0) / np.sqrt(2.0)

QUERY_BLOCK = 4096      # query points per stacked distance call
TABLE_BLOCK = 128 * QUERY_BLOCK     # entries per dense direct-distance table (4 MiB)

PointId = int


def roof_height(x):
    """Height of the roof profile above x, minimal at x = 1/2."""
    return np.sqrt(np.abs(np.asarray(x, dtype=float) - 0.5)) + ROOF_RIDGE


def circle_gap(a, b):
    """Wrap-around distance between circle positions (unit circumference).

    Each input is reduced mod 1 before the two broadcast against each
    other, so a (k, 1) against (1, n) call takes k + n remainders, not
    k * n.  On inputs in [0, 1) the reduction is exact and the result is
    |a - b| or 1 - |a - b|, as with a remainder of the difference.
    """
    d = np.abs(np.asarray(a, dtype=float) % 1.0 - np.asarray(b, dtype=float) % 1.0)
    return np.minimum(d, 1.0 - d)


def _min_plus(a: np.ndarray, b: np.ndarray, start=0) -> np.ndarray:
    """Min-plus product of (p, w) and rows of (m, q), looping over the
    middle axis: row r is the minimum over k of a[r, k] + b[start[r] + k]."""
    out = np.full((a.shape[0], b.shape[1]), np.inf)
    start = start if np.any(start) else 0       # every run at sample 0: broadcast rows of b
    for k in range(a.shape[1]):
        np.minimum(out, a[:, k, None] + b[start + k], out=out)
    return out


def _euclid(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dense (k, n) Euclidean distances by the direct difference formula.

    Each entry is sqrt(sum_j (a_j - b_j) ** 2), taken elementwise, so it
    is exact to a few ulps, 0 for equal points, symmetric bit for bit,
    and the same whatever the shapes of ``a`` and ``b``.
    """
    sq = np.subtract.outer(a[:, 0], b[:, 0])
    sq *= sq
    for j in range(1, a.shape[1]):
        diff = np.subtract.outer(a[:, j], b[:, j])
        diff *= diff
        sq += diff
    return np.sqrt(sq, out=sq)


def _fw_closure(d: np.ndarray) -> np.ndarray:
    """All-pairs shortest-path closure of a nonnegative cost matrix: one
    vectorised relaxation through each k (row and column k stay fixed
    during it, as costs are nonnegative)."""
    d = d.copy()
    np.fill_diagonal(d, 0.0)
    for k in range(d.shape[0]):
        np.minimum(d, d[:, k, None] + d[None, k, :], out=d)
    return d


class RoofSeam:
    """Precomputed tables for the glued top/bottom edge of the roof domain.

    Seam sample i stands for the identified pair of points
    (x_i, tau(x_i)) == (x_i, 0).  ``closure`` holds seam-to-seam shortest
    quotient distances, ``grid_entry`` the (n, m) direct costs from each
    grid point to each seam sample and ``to_grid`` seam-to-grid-point
    distances.  Every query reads them only over the hull of seam samples
    that can bring it to its bound (``window``).
    """

    def __init__(self, grid_points: np.ndarray, n_samples: int):
        x = np.linspace(0.0, 1.0, n_samples)
        self.x = x                                         # ascending
        self.tau = roof_height(x)
        self.top = np.column_stack([x, self.tau])
        self.bot = np.column_stack([x, np.zeros_like(x)])

        reps = [self.top, self.bot]
        base = np.full((n_samples, n_samples), np.inf)
        for a in reps:
            for b in reps:
                np.minimum(base, _euclid(a, b), out=base)
        self.closure = _fw_closure(base)

        self.points = grid_points
        self.grid_entry = self.entry_costs(grid_points)    # (n, m)
        self.to_grid = _min_plus(self.closure, np.ascontiguousarray(self.grid_entry.T))  # (m, n)
        self.to_grid_min = self.to_grid.min(axis=1)        # (m,)
        self.to_grid_argmin = self.to_grid.argmin(axis=1)  # (m,)
        self.grid_env = self.envelope(self.to_grid_min)

    def entry_costs(self, pts: np.ndarray, start: np.ndarray | None = None,
                    width: int = 0) -> np.ndarray:
        """Euclidean cost from each query point to each seam sample, (k, m);
        with ``start``, (k, width) costs to samples start[p] onward.

        One kernel, sqrt(dx^2 + min((y - tau_i)^2, y^2)) with dx = x - x_i.
        It equals min(_euclid(pts, top), _euclid(pts, bot)) bit for bit:
        the top and bottom samples share x_i, the bottom term y - 0 is
        exact, and rounding and sqrt are monotone, so
        fl(a + min(b, c)) = min(fl(a + b), fl(a + c)).
        """
        if start is None:
            sx, sy = self.x, self.tau
        else:
            sx, sy = _runs(self.x, start, width), _runs(self.tau, start, width)
        y = pts[:, 1:2]
        cost = pts[:, :1] - sx
        cost *= cost
        dy = y - sy
        dy *= dy
        np.minimum(dy, y * y, out=dy)
        cost += dy
        return np.sqrt(cost, out=cost)

    def envelope(self, premin: np.ndarray):
        """Search keys of the 1-Lipschitz lower envelope of seam minima
        ``premin``, as (premin, left, right): left[i] = max over j <= i of
        x_j - premin[j] and right[i] = min over j >= i of premin[j] + x_j,
        both ascending.  Built once per array, read by ``window``."""
        left = np.maximum.accumulate(self.x - premin)
        right = np.minimum.accumulate((premin + self.x)[::-1])[::-1]
        return premin, left, right

    def window(self, pts: np.ndarray, bound, env):
        """The seam samples that can bring each query point to or below its
        ``bound`` (scalar or (k,)) through the seam minima of ``env``, as
        (rows, start, entry, via): ``rows`` are the query points that have
        such samples, and row r of the (len(rows), W) ``entry`` is
        entry(p, i), p = rows[r], over the ascending run i = start[r] ..
        start[r] + W - 1 (one W for all rows; gathered from ``grid_entry``
        when ``pts`` is the grid); ``via`` is entry + premin over the runs.

        A roof path keeps x through the gluing, so entry(p, i) + premin[i]
        >= |x_p - x_i| + premin[i].  With reach = bound + 1e-9 (the slack
        covers rounding), a sample i can bring p to its bound only if
        x_i - premin[i] >= x_p - reach and premin[i] + x_i <= x_p + reach,
        so every such sample lies in the hull [lo, hi): lo is the first i
        with left[i] >= x_p - reach, hi the first i with right[i] >
        x_p + reach.  Points with an empty hull are dropped.  Wherever the
        full minimum is at most bound[p], the run's minimum and lowest
        minimising sample are the full table's.
        """
        premin, left, right = env
        reach = np.asarray(bound) + 1e-9
        x = pts[:, 0]
        lo = np.searchsorted(left, x - reach, side="left")
        hi = np.searchsorted(right, x + reach, side="right")
        rows = np.nonzero(hi > lo)[0]
        lo = lo[rows]
        m = self.x.size
        width = max(int((hi[rows] - lo).max(initial=0)), 1)
        start = np.minimum(lo, m - width)
        if pts is self.points:
            entry = _runs(self.grid_entry.ravel(), start + m * rows, width)
        else:
            entry = self.entry_costs(pts[rows], start, width)
        return rows, start, entry, entry + _runs(premin, start, width)


def _runs(a: np.ndarray, start: np.ndarray, width: int) -> np.ndarray:
    """(k, width) array whose row p is a[start[p]:start[p] + width]."""
    step = a.strides[0]
    view = np.lib.stride_tricks.as_strided(a, (a.size - width + 1, width), (step, step),
                                           writeable=False)
    return view[start]


@dataclass(eq=False)
class GridSpace:
    """Immutable finite sampling of one of the compact domains.

    ``resolution`` bounds the distance from any domain point to its
    nearest grid point; ``pitch`` is the grid cell side length.
    """

    domain: str
    metric_kind: str
    points: np.ndarray = field(repr=False)
    resolution: float
    pitch: float
    seam: RoofSeam | None = field(default=None, repr=False)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @cached_property
    def diameter(self) -> float:
        if self.domain == CIRCLE:
            return 0.5
        if self.domain == UNIT_SQUARE:
            return float(np.sqrt(2.0))
        # Quotient metric diameter, estimated once on the grid itself.
        step = max(1, self.n // 400)
        sub = self.points[::step]
        return float(self.dist_coords_to_grid(sub).max())

    # -- distances ----------------------------------------------------

    def dist_coords_to_grid(self, pts: np.ndarray, cutoff: float = np.inf) -> np.ndarray:
        """Dense (k, n) matrix of distances from query coords to all grid points.

        A distance at most ``cutoff`` is exact; one above it is at least the
        exact one and above ``cutoff``.  On the roof, the seam pass runs only
        over the window of samples i whose entry(p, i) + to_grid_min[i] can
        reach the cutoff (``RoofSeam.window``): the min-plus product of that
        window with the same rows of ``to_grid``, for each row it reaches.
        """
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        if self.domain == CIRCLE:
            return circle_gap(pts[:, :1], self.points[None, :, 0])
        d = _euclid(pts, self.points)
        if self.domain == ROOF:
            rows, start, entry, via = self.seam.window(pts, cutoff, self.seam.grid_env)
            near = via.min(axis=1) <= cutoff
            rows = rows[near]
            d[rows] = np.minimum(d[rows], _min_plus(entry[near], self.seam.to_grid, start[near]))
        return d

    def dist_coords_to_subset(self, pts: np.ndarray, ids) -> np.ndarray:
        """Distances from query coords to the nearest member of a point-id set."""
        return next(self.dist_rows_to_subsets([pts], [ids]))[0]

    def dist_rows_to_subsets(self, rows, id_sets, cutoff=np.inf):
        """Yield the (len(id_sets), k) distances of each query array in ``rows``.

        Each set's sorted ids and, on the roof, the envelope of its seam
        minima premin[i] = min over the set of to_grid[i, .] are computed
        once for all rows.  The direct pass holds at most ``TABLE_BLOCK``
        distances at once, taking the set's ids in column blocks; every
        entry is the same double whatever the block, so the minimum over
        blocks is the full table's.  Each row's seam pass then runs, set by
        set, over the window of samples that can bring a point to
        min(direct, cutoff) (``RoofSeam.window``).  Distances keep the
        ``cutoff`` contract of ``dist_coords_to_grid``; ``cutoff``
        broadcasts against the (sets, k) result.
        """
        sets = [np.asarray(sorted(ids), dtype=int) for ids in id_sets]
        live = [s for s, ids in enumerate(sets) if self.domain == ROOF and ids.size]
        envs = [self.seam.envelope(self.seam.to_grid[:, sets[s]].min(axis=1)) for s in live]
        for pts in rows:
            pts = np.atleast_2d(np.asarray(pts, dtype=float))
            out = np.full((len(sets), pts.shape[0]), np.inf)
            step = max(1, TABLE_BLOCK // max(1, pts.shape[0]))
            for d, ids in zip(out, sets):
                for lo in range(0, ids.size, step):
                    part = ids[lo:lo + step]
                    if self.domain == CIRCLE:
                        table = circle_gap(pts[:, :1], self.points[None, part, 0])
                    else:
                        table = _euclid(pts, self.points[part])
                    np.minimum(d, table.min(axis=1), out=d)
                    del table           # not held while the generator is suspended
            bounds = np.minimum(out, cutoff)
            for s, env in zip(live, envs):
                kept, _, _, via = self.seam.window(pts, bounds[s], env)
                out[s, kept] = np.minimum(out[s, kept], via.min(axis=1))
            yield out

    def nearest(self, pts: np.ndarray) -> np.ndarray:
        """Grid ids of nearest points; ties break toward the lowest id.

        On the circle the nearest id is floor(theta * n) or the next one
        (mod n); the ids one further out on each side absorb rounding in
        the floor, and the lowest of the equally near ids wins, so a tie
        across the wrap between n - 1 and 0 goes to 0.

        Elsewhere the query points go in blocks of TABLE_BLOCK // n rows
        (at least one), so no distance table holds more than TABLE_BLOCK
        entries; each row's id depends on that row alone.

        For the roof, the best through-seam target factorizes exactly:
        min over (seam sample i, grid g) of entry(p, i) + to_grid[i, g]
        equals min over i of entry(p, i) + to_grid_min[i].  Only the window
        of samples that can beat the best direct distance is evaluated
        (``RoofSeam.window``); it keeps the strict ``<`` and, being in
        ascending sample order, the lowest minimising sample.
        """
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        if self.domain == CIRCLE:
            theta = pts[:, :1]
            cell = np.floor((theta % 1.0) * self.n).astype(np.int64)
            ids = (cell + np.arange(-1, 3)) % self.n                  # (k, 4)
            gap = circle_gap(theta, self.points[ids, 0])
            tied = gap == gap.min(axis=1, keepdims=True)
            return np.where(tied, ids, self.n).min(axis=1)
        out = np.empty(pts.shape[0], dtype=np.int64)
        step = max(1, TABLE_BLOCK // self.n)
        for lo in range(0, pts.shape[0], step):
            block = pts[lo:lo + step]
            d = _euclid(block, self.points)
            best = d.argmin(axis=1)
            if self.domain == ROOF:
                best_val = d.min(axis=1)
                rows, start, _, via = self.seam.window(block, best_val, self.seam.grid_env)
                pick = start + via.argmin(axis=1)
                better = via.min(axis=1) < best_val[rows]
                best[rows[better]] = self.seam.to_grid_argmin[pick[better]]
            out[lo:lo + step] = best
        return out

    def thicken(self, ids, radius: float) -> np.ndarray:
        """Sorted ids of all grid points within ``radius`` of the id set."""
        cutoff = radius + 1e-12
        d = next(self.dist_rows_to_subsets([self.points], [ids], cutoff))[0]
        return np.nonzero(d <= cutoff)[0]


def build_grid(domain: str, n: int) -> GridSpace:
    """Build the cell-center grid for a domain.

    ``n`` is the number of points on the circle and the number of cells
    per side on the planar domains.  Rejects n < 8: coarser grids cannot
    resolve any of the built-in systems' features.
    """
    if domain not in DOMAINS:
        raise ValueError(f"unknown domain {domain!r}; expected one of {DOMAINS}")
    if n < 8:
        raise ValueError(f"grid parameter n={n} too coarse; need n >= 8")

    if domain == CIRCLE:
        pts = (np.arange(n, dtype=float) / n).reshape(-1, 1)
        return GridSpace(CIRCLE, "circle-arc-length", pts, 0.5 / n, 1.0 / n)

    centers = (np.arange(n, dtype=float) + 0.5) / n
    xx, yy = np.meshgrid(centers, centers, indexing="ij")
    pts = np.column_stack([xx.ravel(), yy.ravel()])

    if domain == UNIT_SQUARE:
        res = float(np.sqrt(2.0) / (2 * n))
        return GridSpace(UNIT_SQUARE, "euclidean-subset", pts, res, 1.0 / n)

    keep = pts[:, 1] < roof_height(pts[:, 0])
    pts = pts[keep]
    seam = RoofSeam(pts, n_samples=max(257, 4 * n + 1))
    space = GridSpace(ROOF, "roof-intrinsic", pts, np.nan, 1.0 / n, seam=seam)
    space.resolution = _sampled_resolution(space) * 1.05
    return space


def _sampled_resolution(space: GridSpace) -> float:
    """Max distance from a fine lattice of domain points to the grid."""
    n_sub = int(round(1.0 / space.pitch)) * 3
    centers = (np.arange(n_sub, dtype=float) + 0.5) / n_sub
    xx, yy = np.meshgrid(centers, centers, indexing="ij")
    pts = np.column_stack([xx.ravel(), yy.ravel()])
    pts = pts[pts[:, 1] <= roof_height(pts[:, 0])]
    blocks = (pts[lo:lo + QUERY_BLOCK] for lo in range(0, pts.shape[0], QUERY_BLOCK))
    return max(float(d.max()) for d in space.dist_rows_to_subsets(blocks, [np.arange(space.n)]))
