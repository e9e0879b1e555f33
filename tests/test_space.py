import copy
import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import scrl.space
from scrl.cli import RunConfig, default_prune_radius, main
from scrl.flows import build_transition, make_flow
from scrl.orbits import build_orbit_data
from scrl.space import (ROOF, ROOF_RIDGE, TABLE_BLOCK, GridSpace, RoofSeam, _euclid,
                        build_grid, circle_gap, roof_height)

from oracles import (_full_min_plus, direct_distances, grid_distances, max_projection_gap,
                     pair_distance, seam_closure, seam_copies, through_seam)


@pytest.fixture(scope="module")
def roof12():
    return build_grid("roof", 12)


def test_circle_grid_basics():
    s = build_grid("circle", 8)
    assert s.n == 8
    assert s.resolution == pytest.approx(1 / 16)
    # quotient metric on the 8-point circle
    for i in range(8):
        for j in range(8):
            expected = min(abs(i - j), 8 - abs(i - j)) / 8
            assert pair_distance(s, s.points[i], s.points[j]) == pytest.approx(expected)
    assert pair_distance(s, s.points[0], s.points[4]) == pytest.approx(0.5)
    assert pair_distance(s, s.points[0], s.points[7]) == pytest.approx(0.125)


def test_square_grid_resolution_brute_force():
    # oracle: worst distance from a fine domain sample to the grid
    s = build_grid("unit-square", 8)
    assert s.n == 64
    xs = np.linspace(0, 1, 101)
    xx, yy = np.meshgrid(xs, xs)
    samples = np.column_stack([xx.ravel(), yy.ravel()])
    worst = max_projection_gap(s, samples)
    assert worst <= s.resolution + 1e-12
    # cell centers: worst case is a domain corner, half a cell diagonal away
    assert s.resolution == pytest.approx(np.sqrt(2) / 16)
    assert worst == pytest.approx(s.resolution, abs=1e-3)


def test_square_metric_is_euclidean():
    s = build_grid("unit-square", 8)
    assert pair_distance(s, (0, 0), (1, 1)) == pytest.approx(np.sqrt(2))
    assert pair_distance(s, s.points[0], s.points[-1]) == pytest.approx(np.sqrt(2) * (7 / 8))
    # single distances and grid queries are the direct formula, bit for bit
    s = build_grid("unit-square", 24)
    rng = np.random.default_rng(24)
    queries = np.concatenate([rng.uniform(0, 1, (40, 2)), s.points[::37]])
    full = s.dist_coords_to_grid(queries)
    assert full.tobytes() == direct_distances(queries, s.points).tobytes()
    for q, row in zip(queries, full):
        for j in range(0, s.n, 11):
            assert pair_distance(s, q, s.points[j]) == row[j]


def test_rejects_too_coarse():
    with pytest.raises(ValueError):
        build_grid("circle", 7)
    with pytest.raises(ValueError):
        build_grid("roof", 4)
    with pytest.raises(ValueError):
        build_grid("pretzel", 32)


def test_resolution_bounded_by_diameter_over_n():
    for domain, n in (("circle", 16), ("unit-square", 12), ("roof", 12)):
        s = build_grid(domain, n)
        assert 0 < s.resolution <= 2 * s.diameter / n


def test_roof_points_below_roof(roof12):
    assert np.all(roof12.points[:, 1] < roof_height(roof12.points[:, 0]))
    assert np.all(roof12.points[:, 1] >= 0)


def test_roof_identification_has_zero_distance(roof12):
    # identified top and bottom points are the same point of the quotient
    for x in (0.1, 0.3, 0.5, 0.9):
        top = (x, float(roof_height(x)))
        bottom = (x, 0.0)
        assert pair_distance(roof12, top, bottom) <= 2 / 256


@pytest.mark.parametrize("domain,n", [("circle", 16), ("unit-square", 8), ("roof", 12)])
def test_metric_axioms_exhaustive(domain, n):
    s = build_grid(domain, n)
    assert s.n <= 200
    D = np.array([[pair_distance(s, p, q) for q in s.points] for p in s.points])
    assert np.array_equal(D, D.T)
    assert np.all(np.diag(D) == 0)
    off = ~np.eye(s.n, dtype=bool)
    assert np.all(D[off] > 0)
    for k in range(s.n):
        assert np.all(D <= D[:, k:k + 1] + D[None, k, :] + 1e-12)


@pytest.mark.parametrize("domain", ["circle", "unit-square", "roof"])
def test_projection_within_resolution(domain):
    s = build_grid(domain, 16)
    rng = np.random.default_rng(7)
    if domain == "circle":
        samples = rng.uniform(0, 1, (500, 1))
    else:
        xs = rng.uniform(0, 1, 2000)
        ys = rng.uniform(0, 1, 2000)
        if domain == "roof":
            ys = ys * roof_height(xs)
        samples = np.column_stack([xs, ys])
    assert max_projection_gap(s, samples) <= s.resolution + 1e-12


def test_nearest_matches_metric(roof12):
    rng = np.random.default_rng(3)
    xs = rng.uniform(0, 1, 300)
    ys = rng.uniform(0, 1, 300) * roof_height(xs)
    pts = np.column_stack([xs, ys])
    got = roof12.nearest(pts)
    full = roof12.dist_coords_to_grid(pts)
    assert np.array_equal(got, full.argmin(axis=1))


@pytest.mark.parametrize("domain,n", [("roof", 12), ("unit-square", 10)])
def test_nearest_blocks_hold_at_most_table_block_entries(domain, n, monkeypatch):
    s = build_grid(domain, n)
    rng = np.random.default_rng(n)
    xs = rng.uniform(0, 1, 300)
    ys = rng.uniform(0, 1, 300) * (roof_height(xs) if domain == "roof" else 1.0)
    far = np.column_stack([xs[:30], 2.0 + ys[:30]])    # off the domain: no cell certificate
    pts = np.concatenate([np.column_stack([xs, ys]), s.points, far])
    want = s.nearest(pts)
    assert np.array_equal(want, s.dist_coords_to_grid(pts).argmin(axis=1))
    tables = []

    def spy(a, b):
        if b.ndim == 2 and b.shape[0] == s.n:   # a fallback table over the whole grid
            tables.append(a.shape[0])
        return _euclid(a, b)

    monkeypatch.setattr(scrl.space, "TABLE_BLOCK", 7 * s.n + 3)
    monkeypatch.setattr(scrl.space, "_euclid", spy)
    assert np.array_equal(s.nearest(pts), want)
    assert tables == [7] * 4 + [2]              # the 30 far rows, and only they
    assert all(rows * s.n <= 7 * s.n + 3 for rows in tables)
    monkeypatch.setattr(scrl.space, "TABLE_BLOCK", s.n - 1)     # still one row a block
    tables.clear()
    assert np.array_equal(s.nearest(pts[-5:]), want[-5:])
    assert tables == [1] * 5


def _lattice_queries(space, orbit):
    """Planar queries where the 5 x 5 cell search is tight: half-cell
    midpoints of grid neighbours (ties), cell corners, points on cell
    edges, on x = 0, x = 1 and y = 0, flowed orbit points and, on the roof,
    points just under the roof line whose own cell is clipped and points
    up to two cells above it, whose nearest grid point can be two cells
    away."""
    side = round(1 / space.pitch)
    cell = np.floor(space.points * side).astype(int)
    at = {tuple(c): i for i, c in enumerate(cell)}
    pairs = [(i, at[c[0] + di, c[1] + dj]) for i, c in enumerate(cell)
             for di, dj in ((1, 0), (0, 1)) if (c[0] + di, c[1] + dj) in at]
    a, b = np.array(pairs).T
    edges = np.arange(side + 1) / side
    centres = (np.arange(side) + 0.5) / side
    line = np.linspace(0, 1, 4 * side + 1)
    grid = lambda u, v: np.column_stack([np.repeat(u, v.size), np.tile(v, u.size)])
    queries = [(space.points[a] + space.points[b]) / 2, grid(edges, edges),
               grid(edges, centres), grid(centres, edges),
               grid(np.array([0.0, 1.0]), line), grid(line, np.array([0.0])),
               orbit.coords[1], orbit.coords[-1]]
    if space.domain == ROOF:
        xs = np.linspace(0, 1, 40 * side + 1)
        under = np.column_stack([xs, np.nextafter(roof_height(xs), 0.0)])
        c = np.floor(under * side)
        clipped = roof_height((c[:, 0] + 0.5) / side) <= (c[:, 1] + 0.5) / side
        assert clipped.sum() >= 10
        queries.append(under[clipped])
    pts = np.concatenate(queries)
    if space.domain == ROOF:
        xs = np.linspace(0, 1, 4 * side + 1)
        above = [np.column_stack([xs, roof_height(xs) + k / side]) for k in (0.5, 1.0, 1.5, 2.0)]
        pts = np.concatenate([pts[pts[:, 1] <= roof_height(pts[:, 0])], *above])
    return pts


@pytest.mark.parametrize("domain,n", [(d, n) for d in ("unit-square", "roof")
                                      for n in (8, 12, 16, 33)])
def test_lattice_nearest_matches_brute_force(domain, n, monkeypatch):
    s = build_grid(domain, n)
    system = "roof" if domain == ROOF else "square"
    orbit = build_orbit_data(make_flow(system), s, 1.0, fine_horizon=2.0,
                             horizon=4.0, t_steps=4)
    # off the domain, where the 5 x 5 certificate cannot hold; above the
    # roof ridge at grids of 12 and up the whole 5 x 5 block is clipped
    forced = np.array([[0.5, 1.0], [0.45, 0.99], [0.5, 3.0]])
    pts = np.concatenate([_lattice_queries(s, orbit), forced])
    d = _euclid(pts, s.points)
    if domain == ROOF:
        np.minimum(d, through_seam(s, pts), out=d)
    fallback = []

    def spy(a, b):
        if b.ndim == 2:                         # a fallback table, not a 5 x 5 gather
            fallback.append(a.shape[0])
        return _euclid(a, b)

    monkeypatch.setattr(scrl.space, "_euclid", spy)
    assert np.array_equal(s.nearest(pts), d.argmin(axis=1))
    assert sum(fallback) >= 1
    fallback.clear()
    one = -3 if domain == ROOF else -1          # the clipped block; far off the square
    assert np.array_equal(s.nearest(pts[one:][:1]), d[one:][:1].argmin(axis=1))
    assert fallback == [1]


def test_nearest_tie_breaks_low():
    s = build_grid("circle", 8)
    # exactly between grid points 0 and 1
    assert s.nearest(np.array([[0.0625]]))[0] == 0
    # exactly between n - 1 and 0, across the wrap: the lower id, 0
    assert s.nearest(np.array([[0.9375]]))[0] == 0


@pytest.mark.parametrize("n", [8, 13, 256, 1792])
def test_circle_nearest_matches_brute_force(n):
    s = build_grid("circle", n)
    rng = np.random.default_rng(n)
    half_cells = (np.arange(n) + 0.5) / n
    theta = np.concatenate([
        rng.uniform(0, 1, 3000),
        rng.uniform(-3, 4, 1000),                 # unreduced angles
        half_cells,                               # every half-cell tie
        half_cells - 1.0, half_cells + 2.0,
        s.points[:, 0],                           # grid points themselves
        [0.0, -0.0, np.nextafter(1.0, 0.0), 1.0, -np.nextafter(1.0, 0.0),
         np.nextafter(0.0, -1.0), (n - 0.5) / n],
    ])
    pts = theta[:, None]
    brute = circle_gap(pts, s.points[None, :, 0]).argmin(axis=1)
    assert np.array_equal(s.nearest(pts), brute)


@pytest.mark.parametrize("n", [20, 24])
def test_square_nearest_ties_break_toward_lowest_id(n):
    s = build_grid("unit-square", n)
    ids = np.arange(s.n).reshape(n, n)            # ids[i, j]: x cell i, y cell j
    pairs = np.concatenate([
        np.column_stack([ids[:-1].ravel(), ids[1:].ravel()]),        # x neighbours
        np.column_stack([ids[:, :-1].ravel(), ids[:, 1:].ravel()]),  # y neighbours
    ])
    mid = (s.points[pairs[:, 0]] + s.points[pairs[:, 1]]) / 2       # half-cell midpoints
    brute = direct_distances(mid, s.points).argmin(axis=1)         # first minimum
    assert np.array_equal(s.nearest(mid), brute)


@pytest.mark.parametrize("domain,n", [("roof", 16), ("unit-square", 24)])
def test_distances_do_not_depend_on_query_shape(domain, n):
    s = build_grid(domain, n)
    full = s.dist_coords_to_grid(s.points)
    for i in range(s.n):
        row = s.dist_coords_to_grid(s.points[i:i + 1])
        assert row.tobytes() == full[i:i + 1].tobytes(), i
        assert s.dist_coords_to_subset(s.points[[i]], [i])[0] == 0.0
    assert np.all(np.diag(full) == 0.0)


def test_thicken_is_metric_ball():
    s = build_grid("unit-square", 8)
    ids = s.thicken([0], 0.2)
    d = s.dist_coords_to_subset(s.points, [0])
    assert np.array_equal(ids, np.nonzero(d <= 0.2 + 1e-12)[0])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.tuples(st.integers(0, 111), st.integers(0, 111), st.integers(0, 111)))
def test_roof_triangle_inequality_random(triple):
    s = _ROOF20
    p, q, r = (t % s.n for t in triple)
    p, q, r = s.points[[p, q, r]]
    assert pair_distance(s, p, q) <= pair_distance(s, p, r) + pair_distance(s, r, q) + 1e-12


_ROOF20 = build_grid("roof", 12)


def test_circle_gap_wraps():
    assert circle_gap(0.95, 0.05) == pytest.approx(0.1)
    assert circle_gap(0.2, 0.7) == pytest.approx(0.5)


def _gap_of_difference(a, b):
    """circle_gap as a remainder of the difference, one per output entry."""
    d = np.abs(np.asarray(a, dtype=float) - np.asarray(b, dtype=float)) % 1.0
    return np.minimum(d, 1.0 - d)


def test_circle_gap_reduces_inputs_not_differences():
    rng = np.random.default_rng(23)
    grids = [build_grid("circle", n).points[:, 0] for n in (8, 13, 1792)]
    ties = [(np.arange(n) + 0.5) / n for n in (8, 13, 1792)]          # half-cell ties
    edge = [0.0, -0.0, np.nextafter(1.0, 0.0), np.nextafter(0.0, 1.0), 0.5]
    reduced = np.concatenate([rng.uniform(0, 1, 2000), *grids, *ties, edge])
    got = circle_gap(reduced[:, None], reduced[None, ::3])
    want = _gap_of_difference(reduced[:, None], reduced[None, ::3])
    assert np.array_equal(got.view(np.int64), want.view(np.int64))   # bit for bit
    a = np.concatenate([rng.uniform(-3, 4, 2000), ties[2] - 1.0, ties[2] + 2.0])
    b = np.concatenate([rng.uniform(-3, 4, 500), grids[2]])
    got = circle_gap(a[:, None], b[None, :])
    want = _gap_of_difference(a[:, None], b[None, :])
    scale = np.maximum(np.maximum(np.abs(a)[:, None], np.abs(b)[None, :]), 1.0)
    assert np.all(np.abs(got - want) <= 4 * np.spacing(scale))


def test_roof_ridge_value():
    # height profile is 1 at the edges and the ridge constant in the middle
    assert roof_height(0.0) == pytest.approx(1.0)
    assert roof_height(1.0) == pytest.approx(1.0)
    assert roof_height(0.5) == pytest.approx(ROOF_RIDGE)


@pytest.mark.parametrize("m", [257, 513, 321, 401])
def test_seam_closure_is_the_x_gap(m):
    """The closed form |x_i - x_j| against a Floyd-Warshall closure of the
    four-way Euclidean seam costs: bit for bit when m - 1 is a power of
    two, else at most one ulp of 1 (the seam's length) above it."""
    seam = RoofSeam(build_grid("roof", 8).points, m)
    gap = np.abs(np.subtract.outer(seam.x, seam.x))
    # the seam-to-grid table is the closed form's min-plus product
    assert seam.to_grid.tobytes() == _full_min_plus(gap, seam.grid_entry.T).tobytes()
    fw = seam_closure(seam)
    if (m - 1) & (m - 2) == 0:
        assert fw.tobytes() == gap.tobytes()
    else:
        assert np.any(fw != gap)
        assert np.all(fw <= gap) and np.all(gap - fw <= np.spacing(1.0))


@pytest.mark.parametrize("n", [12, 16, 32])
def test_roof_diameter_and_resolution_match_full_tables(n):
    s = build_grid("roof", n)
    sub = s.points[::max(1, s.n // 400)]
    assert s.diameter == float(s.dist_coords_to_grid(sub).max())
    centres = (np.arange(3 * n) + 0.5) / (3 * n)          # the sampled resolution's lattice
    fine = np.column_stack([np.repeat(centres, 3 * n), np.tile(centres, 3 * n)])
    fine = fine[fine[:, 1] <= roof_height(fine[:, 0])]
    d = next(s.dist_rows_to_subsets([fine], [np.arange(s.n)]))
    assert s.resolution == float(d.max()) * 1.05


def _two_table_entry_costs(seam, pts):
    """Seam entry costs as the smaller of two Euclidean tables, top and bottom."""
    top, bot = seam_copies(seam)
    return np.minimum(_euclid(pts, top), _euclid(pts, bot))


def _fresh_dist_to_subset(space, pts, ids):
    """Per-set distance over the full table of fresh seam entry costs."""
    ids = np.asarray(sorted(ids), dtype=int)
    if space.domain == "circle":
        return circle_gap(pts[:, :1], space.points[None, ids, 0]).min(axis=1)
    d = _euclid(pts, space.points[ids]).min(axis=1)
    if space.domain == ROOF:
        premin = space.seam.to_grid[:, ids].min(axis=1)
        entry = _two_table_entry_costs(space.seam, pts)
        np.minimum(d, (entry + premin[None, :]).min(axis=1), out=d)
    return d


def _seam_probe_points(space, rng):
    """Roof queries where the seam entry kernel and its windows are tight."""
    seam = space.seam
    xs = rng.uniform(0, 1, 300)
    sx = seam.x[::3]
    ends = np.array([0.0, 1.0])
    return np.concatenate([
        np.column_stack([xs, rng.uniform(0, 1, 300) * roof_height(xs)]),   # inside
        np.column_stack([xs, np.zeros_like(xs)]),                          # on y = 0
        np.column_stack([xs, roof_height(xs)]),                            # on the top
        np.column_stack([np.repeat(ends, 3), np.tile([0.0, 0.5, 1.0], 2)]),  # x in {0, 1}
        np.column_stack([sx, rng.uniform(0, 1, sx.size) * roof_height(sx)]),
        *(side[::5] for side in seam_copies(seam)),                        # the samples
        space.points,
    ])


@pytest.mark.parametrize("n", [12, 72])
def test_fused_entry_costs_match_two_tables(n):
    s = build_grid("roof", n)
    assert s.seam.x.size == max(257, 4 * n + 1)
    pts = _seam_probe_points(s, np.random.default_rng(n))
    got = s.seam.entry_costs(pts)
    assert got.tobytes() == _two_table_entry_costs(s.seam, pts).tobytes()
    assert s.seam.grid_entry.tobytes() == _two_table_entry_costs(s.seam, s.points).tobytes()
    start = np.arange(pts.shape[0]) % (s.seam.x.size - 40)
    run = s.seam.entry_costs(pts, start, 40)           # a run of samples per point
    assert run.tobytes() == got[np.arange(pts.shape[0])[:, None],
                                start[:, None] + np.arange(40)].tobytes()


def _window_edge_points(space, ids, cutoff):
    """Points on y = 0 whose window for ``ids`` under ``cutoff`` ends exactly
    on a key of the set's seam envelope (x - reach == left[i] or
    x + reach == right[i]), and the points one ulp to either side of them."""
    _, left, right = space.seam.envelope(space.seam.to_grid[:, ids].min(axis=1))
    reach = cutoff + 1e-9
    xs = []
    for keys, sign in ((left, 1.0), (right, -1.0)):    # the hull's low and high edges
        for key in keys[40:-40:23]:
            x = key + sign * reach
            for _ in range(64):                        # x - sign * reach grows with x
                if x - sign * reach == key:
                    if 0.0 < x < 1.0:
                        xs += [np.nextafter(x, -1.0), x, np.nextafter(x, 2.0)]
                    break
                x = np.nextafter(x, -1.0 if x - sign * reach > key else 2.0)
    assert len(xs) >= 3 * 6
    return np.column_stack([xs, np.zeros(len(xs))])


def _brute_hull(seam, premin, pts, bound):
    """Per point, the first sample i with x_i - premin[i] >= x_p - reach and
    one past the last with premin[i] + x_i <= x_p + reach (reach = bound +
    1e-9), taken sample by sample."""
    reach = (np.asarray(bound) + 1e-9)[:, None]
    x = pts[:, :1]
    up = (seam.x - premin) >= x - reach
    down = (premin + seam.x) <= x + reach
    m = seam.x.size
    lo = np.where(up.any(axis=1), up.argmax(axis=1), m)
    hi = np.where(down.any(axis=1), m - down[:, ::-1].argmax(axis=1), 0)
    return lo, hi


def _check_seam_window(seam, premin, pts, bound, single=slice(None)):
    """``seam.window`` on all points at once (one run width for all) and on
    the ``single`` points one at a time, against the full entry table."""
    env = seam.envelope(premin)
    table = seam.entry_costs(pts)
    full = table + premin
    lo, hi = _brute_hull(seam, premin, pts, bound)
    calls = [(np.arange(pts.shape[0]), seam.window(pts, bound, env))]
    calls += [(np.array([p]), seam.window(pts[p:p + 1], bound[p:p + 1], env))
              for p in np.arange(pts.shape[0])[single]]
    for idx, (rows, start, entry, via) in calls:
        assert np.array_equal(rows, np.nonzero(hi[idx] > lo[idx])[0])
        p = idx[rows]
        width = via.shape[1]
        assert np.all(start <= lo[p]) and np.all(start + width >= hi[p])
        if idx.size == 1 and p.size:                    # alone, the run is the hull
            assert (start[0], start[0] + width) == (lo[p[0]], hi[p[0]])
        cols = start[:, None] + np.arange(width)
        assert via.tobytes() == full[p[:, None], cols].tobytes()
        assert entry.tobytes() == table[p[:, None], cols].tobytes()
        least = full[idx].min(axis=1)
        won = least <= bound[idx]
        dropped = np.ones(idx.size, dtype=bool)
        dropped[rows] = False
        assert np.all(least[dropped] > bound[idx][dropped])
        best = via.min(axis=1)
        kept = won[rows]
        assert np.array_equal(best[kept], least[rows][kept])
        first = start + via.argmin(axis=1)
        assert np.array_equal(first[kept], full[p].argmin(axis=1)[kept])
        assert np.all(best[~kept] > bound[p][~kept])
    return lo, hi


def test_seam_window_keeps_every_sample_that_can_win(roof12):
    # one cheap sample i0 among flat seam minima, so on y = 0 the through-seam
    # minimum |x_p - x_i0| + premin[i0] sits exactly at the bound
    seam = roof12.seam
    m = seam.x.size
    rng = np.random.default_rng(5)
    for i0 in (0, 37, m // 2, m - 1):
        premin = rng.uniform(0.3, 0.6, m)
        premin[i0] = 0.01
        xs = rng.uniform(0, 1, 200)
        pts = np.concatenate([np.column_stack([xs, np.zeros_like(xs)]),
                              np.column_stack([xs, rng.uniform(0, 1, 200) * roof_height(xs)])])
        exact = (seam.entry_costs(pts) + premin)[:, i0]
        for bound in (exact, np.nextafter(exact, -1.0), np.nextafter(exact, 2.0),
                      rng.uniform(0, 0.5, exact.size)):
            _check_seam_window(seam, premin, pts, bound, single=slice(None, None, 9))


def _tie_bound(x, key, sign):
    """A bound b whose reach r = b + 1e-9 puts x - sign * r exactly on
    ``key``, or None when no double does."""
    r = sign * (x - key)
    if x - sign * r != key:
        return None
    b = r - 1e-9
    for _ in range(64):
        if b + 1e-9 == r:
            return b
        b = np.nextafter(b, 2.0 if b + 1e-9 < r else -1.0)
    return None


def test_seam_window_edge_is_the_only_winner(roof12):
    # steep seam minima, premin = 0.01 + 3 |x - x_i0|: on y = 0 sample i0
    # alone reaches the bound |x_p - x_i0| + premin[i0], and it is the
    # hull's low edge for points right of it and its high edge left of it
    seam = roof12.seam
    m = seam.x.size
    rng = np.random.default_rng(7)
    for i0 in (0, 37, m // 2, m - 1):
        premin = 0.01 + 3.0 * np.abs(seam.x - seam.x[i0])
        xs = rng.uniform(0, 1, 120)
        pts = np.column_stack([xs, np.zeros_like(xs)])
        exact = (seam.entry_costs(pts) + premin)[:, i0]
        for bound in (exact, np.nextafter(exact, -1.0), np.nextafter(exact, 2.0)):
            lo, hi = _check_seam_window(seam, premin, pts, bound)
        right = xs > seam.x[i0]
        assert np.all(lo[right] == i0) and np.all(hi[~right] == i0 + 1)
        # bounds whose reach lands exactly on an envelope key: the sample of
        # that key is the hull's edge, kept by the non-strict comparisons
        _, left, right = seam.envelope(premin)
        ties, tie_bounds, edges = [], [], []
        for sign, keys, samples, span in (
                (1.0, left, range(max(0, i0 - 20), i0 + 1), (seam.x[i0], 1.0)),
                (-1.0, right, range(i0, min(m, i0 + 21)), (0.0, seam.x[i0]))):
            for i in samples:
                for x in rng.uniform(*span, 4):
                    b = _tie_bound(x, keys[i], sign)
                    if b is not None:
                        ties.append(x)
                        tie_bounds.append(b)
                        edges.append((i, sign))
        assert len(ties) >= 20
        pts = np.column_stack([ties, np.zeros(len(ties))])
        lo, hi = _check_seam_window(seam, premin, pts, np.array(tie_bounds))
        for p, (i, sign) in enumerate(edges):
            assert (lo[p] if sign > 0 else hi[p] - 1) == i
        assert np.sum(hi > lo) >= 10


@pytest.mark.parametrize("n", [12, 16])
def test_windowed_subset_distances_match_full_table(n):
    s = build_grid("roof", n)
    orbit = build_orbit_data(make_flow("roof"), s, 1.0, fine_horizon=2.0,
                             horizon=8.0, t_steps=8)
    rng = np.random.default_rng(n)
    middle = np.nonzero(np.abs(s.points[:, 0] - 0.5) < 0.1)[0]
    id_sets = [middle, [0], rng.choice(s.n, 5, replace=False), np.arange(s.n)[::7]]
    probes = _seam_probe_points(s, rng)
    queries = [s.points, s.points.copy(), orbit.coords[1], orbit.coords[-1], probes]
    for cutoff in (0.05, 0.15):
        queries.append(_window_edge_points(s, middle, cutoff))
    # all sets share one window per row; ``middle`` alone has its own
    for pts, sets in itertools.product(queries, (id_sets, [middle])):
        want = np.array([_fresh_dist_to_subset(s, pts, ids) for ids in sets])
        assert next(s.dist_rows_to_subsets([pts], sets)).tobytes() == want.tobytes()
        per_point = rng.uniform(0, 0.3, want.shape)
        # a cutoff equal to the distance itself leaves no room in any window
        for cutoff in (0.0, 0.05, 0.15, per_point, want, np.nextafter(want, -1.0)):
            got = next(s.dist_rows_to_subsets([pts], sets, cutoff))
            near = want <= cutoff
            assert got[near].tobytes() == want[near].tobytes()
            assert np.all(got[~near] >= want[~near])
            assert np.all(got[~near] > np.broadcast_to(cutoff, want.shape)[~near])
    rows = list(s.dist_rows_to_subsets(orbit.coords, id_sets, cutoff=0.1))
    for pts, got in zip(orbit.coords, rows):
        assert got.tobytes() == next(s.dist_rows_to_subsets([pts], id_sets, 0.1)).tobytes()


@pytest.mark.parametrize("n", [12, 16])
def test_windowed_nearest_matches_full_grid_argmin(n):
    s = build_grid("roof", n)
    orbit = build_orbit_data(make_flow("roof"), s, 1.0, fine_horizon=2.0,
                             horizon=8.0, t_steps=8)
    rng = np.random.default_rng(n)
    middle = np.nonzero(np.abs(s.points[:, 0] - 0.5) < 0.1)[0]
    pts = np.concatenate([_seam_probe_points(s, rng), *orbit.coords[1::2],
                          _window_edge_points(s, middle, 0.05)])
    assert np.array_equal(s.nearest(pts), s.dist_coords_to_grid(pts).argmin(axis=1))


@pytest.mark.parametrize("system,domain,n", [("roof", "roof", 12),
                                             ("square", "unit-square", 10),
                                             ("circle", "circle", 96)])
def test_multi_set_distance_matches_per_set(system, domain, n):
    s = build_grid(domain, n)
    orbit = build_orbit_data(make_flow(system), s, 1.0, fine_horizon=2.0,
                             horizon=4.0, t_steps=4)
    rng = np.random.default_rng(n)
    id_sets = [[0], rng.choice(s.n, 5, replace=False), np.arange(s.n)[::3],
               np.empty(0, dtype=int), [s.n - 1, 1]]
    # the grid itself (cached entry costs), a copy of it, and orbit rows
    for pts in (s.points, s.points.copy(), orbit.coords[3], orbit.coords[-1]):
        got = next(s.dist_rows_to_subsets([pts], id_sets))
        assert got.shape == (len(id_sets), pts.shape[0])
        for row, ids in zip(got, id_sets):
            single = s.dist_coords_to_subset(pts, ids)
            assert row.tobytes() == single.tobytes()
            if len(ids):
                assert row.tobytes() == _fresh_dist_to_subset(s, pts, ids).tobytes()
            else:
                assert np.all(np.isinf(row))


def _attained_cutoffs(direct, through, count=4):
    """Through-seam distances that beat the direct one, among them each
    sampled row's least, at spread quantiles."""
    won = through < direct
    rows = np.nonzero(won.any(axis=1))[0]
    least = through[rows].min(axis=1)
    least = least[least < direct[rows].min(axis=1)]
    values = [np.unique(through[won]), np.unique(least)]
    return [float(v[int(q * (v.size - 1))]) for v in values for q in np.linspace(0, 1, count)]


def _seam_edge_rows(space):
    """Points on y = 0 around the seam sample closest to the grid, and
    each point's through-seam distance to that sample's nearest grid
    point: a cutoff that the point's row attains, along the seam."""
    i0 = space.seam.to_grid_min.argmin()
    xs = np.clip(space.seam.x[i0] + np.linspace(-0.4, 0.4, 81), 0.0, 1.0)
    pts = np.column_stack([xs, np.zeros_like(xs)])
    return pts, through_seam(space, pts)[:, space.seam.to_grid_argmin[i0]]


def _check_cutoff(space, pts, want, cutoff):
    got = space.dist_coords_to_grid(pts, cutoff)
    near = want <= cutoff
    assert got[near].tobytes() == want[near].tobytes(), cutoff
    assert np.all(got[~near] > cutoff), cutoff
    assert np.all(got[~near] >= want[~near]), cutoff


@pytest.mark.parametrize("n", [12, 16])
def test_cutoff_grid_distances_match_full_tables(n):
    s = build_grid("roof", n)
    tr = build_transition(make_flow("roof"), s, 1.0, 2)
    prune = default_prune_radius(RunConfig(system="roof", grid_n=n), s)
    for pts in (_seam_probe_points(s, np.random.default_rng(n)), tr.coords.reshape(-1, 2)):
        direct = direct_distances(pts, s.points)
        through = through_seam(s, pts)
        want = np.minimum(direct, through)
        for c in [np.inf, prune, 0.0, *_attained_cutoffs(direct, through)]:
            for cutoff in {c, float(np.nextafter(c, -1.0)) if c > 0 else c}:
                _check_cutoff(s, pts, want, cutoff)
    edge, cuts = _seam_edge_rows(s)
    want = grid_distances(s, edge)
    for row, c in enumerate(cuts):              # one query row per cutoff
        for cutoff in (c, np.nextafter(c, -1.0)):
            _check_cutoff(s, edge[row:row + 1], want[row:row + 1], cutoff)


def test_cutoff_grid_distances_at_window_edges(roof12):
    # synthetic seam-to-grid costs with one cheap entry (i0, g0): on y = 0
    # the through-seam distance to g0 is |x_p - x_i0| + 0.01, reached only
    # through i0, and a cutoff equal to it puts i0 on the window's edge
    m, n = roof12.seam.x.size, roof12.n
    rng = np.random.default_rng(12)
    for i0, g0 in ((0, 5), (37, n // 2), (m // 2, n - 1), (m - 1, 0)):
        seam = copy.copy(roof12.seam)
        seam.to_grid = rng.uniform(0.3, 0.6, (m, n))
        seam.to_grid[i0, g0] = 0.01
        seam.to_grid_min = seam.to_grid.min(axis=1)
        seam.grid_env = seam.envelope(seam.to_grid_min)
        s = dataclasses.replace(roof12, seam=seam)
        xs = np.clip(seam.x[i0] + rng.uniform(-0.28, 0.28, 100), 0.0, 1.0)
        pts = np.column_stack([xs, np.zeros_like(xs)])
        top, bot = seam_copies(seam)
        entry = np.minimum(direct_distances(pts, top), direct_distances(pts, bot))
        through = (entry[:, :, None] + seam.to_grid[None]).min(axis=1)
        want = np.minimum(direct_distances(pts, s.points), through)
        for row, c in enumerate(through[:, g0]):
            for cutoff in (c, np.nextafter(c, -1.0)):
                _check_cutoff(s, pts[row:row + 1], want[row:row + 1], cutoff)


@pytest.mark.parametrize("n", [12, 16])
def test_thicken_at_attained_radii(n):
    s = build_grid("roof", n)
    rng = np.random.default_rng(n)
    ref = grid_distances(s, s.points)
    seam_side = np.nonzero(s.points[:, 1] < s.pitch)[0]     # the bottom row
    id_sets = [[int(seam_side[0])], [int(seam_side[-1])], rng.choice(s.n, 5, replace=False),
               np.nonzero(np.abs(s.points[:, 0] - 0.5) < 0.1)[0]]
    for ids in id_sets:
        ids = np.asarray(ids)
        direct = direct_distances(s.points, s.points[ids]).min(axis=1)
        want = ref[:, ids].min(axis=1)
        won = np.unique(want[want < direct])
        for D in won[np.linspace(0, won.size - 1, 4).astype(int)]:
            r = D - 1e-12                              # so that r + 1e-12 lands on D
            for _ in range(64):
                if r + 1e-12 == D:
                    break
                r = np.nextafter(r, 2.0 if r + 1e-12 < D else -1.0)
            assert r + 1e-12 == D
            for radius in (D, r, np.nextafter(r, -1.0), np.nextafter(r, 2.0)):
                got = s.thicken(ids, radius)
                assert np.array_equal(got, np.nonzero(want <= radius + 1e-12)[0]), radius


# -- x-slabs ----------------------------------------------------------------


def _slab_query_arrays(space, rng):
    """Query arrays for ``x_slab``: on the circle, arrays that straddle
    theta = 0 (one past 1); on the roof, arrays along the seam (y = 0) and
    along its top edge; then random points and grid points."""
    if space.domain == "circle":
        arrays = [np.array([0.995, 0.002, 0.01]), np.array([0.97, 0.99, 1.003]),
                  space.points[[-1, 0, 1], 0], np.array([0.0, 0.02])]
        arrays = [a[:, None] for a in arrays]
    else:
        xs = rng.uniform(0.0, 0.3, 12)
        arrays = [np.column_stack([xs, np.zeros_like(xs)]),
                  np.column_stack([xs + 0.6, roof_height(xs + 0.6)])]
    width = space.points.shape[1]
    return arrays + [rng.uniform(0.4, 0.6, (5, width)), space.points[rng.choice(space.n, 4)]]


@pytest.mark.parametrize("domain,n", [("circle", 64), ("unit-square", 12), ("roof", 12),
                                      ("roof", 16)])
def test_x_slab_keeps_every_id_within_the_radius(domain, n):
    s = build_grid(domain, n)
    arrays = _slab_query_arrays(s, np.random.default_rng(n))
    pts = np.concatenate(arrays)
    ref = grid_distances(s, pts)
    values = np.unique(ref)
    attained = values[np.linspace(0, values.size - 1, 12).astype(int)]
    gaps = np.unique(circle_gap(pts[:, :1], s.points[None, :, 0]) if domain == "circle"
                     else np.abs(pts[:, :1] - s.points[None, :, 0]))
    tight = gaps[np.isin(gaps, values)]         # distances equal to their x-gap
    attained = np.concatenate([attained, tight[np.linspace(0, tight.size - 1, 8).astype(int)]])
    ends = np.cumsum([0] + [a.shape[0] for a in arrays])
    groups = [(arrays[k:k + 1], slice(ends[k], ends[k + 1])) for k in range(len(arrays))]
    groups.append((arrays, slice(None)))        # each array alone, then all of them
    narrow = 0
    for D in attained:
        for radius in (D, np.nextafter(D, -1.0), np.nextafter(D, 2.0)):
            for group, rows in groups:
                cols = s.x_slab([a[:, 0] for a in group], radius)
                assert np.all(np.diff(cols) > 0), radius
                left_out = np.ones(s.n, dtype=bool)
                left_out[cols] = False
                assert np.all(ref[rows][:, left_out] > radius), radius
                narrow += cols.size < s.n
                full = s.dist_coords_to_grid(pts[rows], radius)
                assert s.dist_coords_to_grid(pts[rows], radius, cols).tobytes() == \
                    full[:, cols].tobytes(), radius
    assert narrow > 0


# -- blocked direct pass --------------------------------------------------------


def _count_direct_tables(monkeypatch, domain):
    """Count the direct-pass tables: ``circle_gap`` on the circle, ``_euclid``
    elsewhere (the roof seam pass uses ``entry_costs``, not these)."""
    name = "circle_gap" if domain == "circle" else "_euclid"
    original, count = getattr(scrl.space, name), [0]

    def spy(*args):
        count[0] += 1
        return original(*args)

    monkeypatch.setattr(scrl.space, name, spy)
    return count


@pytest.mark.parametrize("domain,n", [("roof", 12), ("unit-square", 12), ("circle", 64)])
def test_direct_pass_blocks_match_one_table(domain, n, monkeypatch):
    s = build_grid(domain, n)
    rng = np.random.default_rng(48)
    pts = s.points + rng.uniform(-0.4, 0.4, s.points.shape) * s.pitch
    if domain != "circle":
        pts = pts[pts[:, 1] < roof_height(pts[:, 0])] if domain == "roof" else np.clip(pts, 0, 1)
    id_sets = [np.arange(s.n), rng.choice(s.n, 37, replace=False), [5], []]
    rows = [pts, pts[:7]]
    whole = list(s.dist_rows_to_subsets(rows, id_sets, 3 * s.pitch))
    count = _count_direct_tables(monkeypatch, domain)
    monkeypatch.setattr(scrl.space, "TABLE_BLOCK", 5 * pts.shape[0] + 3)
    blocked = list(s.dist_rows_to_subsets(rows, id_sets, 3 * s.pitch))
    assert all(np.array_equal(a, b) for a, b in zip(whole, blocked))
    steps = [5, (5 * pts.shape[0] + 3) // 7]
    assert count[0] == sum(-(-len(ids) // step) for step in steps for ids in id_sets)


def test_roof16_direct_tables_stay_in_one_block(tmp_path, monkeypatch):
    """Every direct pass of a roof 16 ``analyze`` is one table per set,
    the largest (``sup_along_orbit``'s 3960 orbit points x 9 ids) included."""
    assert 3960 * 9 <= TABLE_BLOCK
    count = _count_direct_tables(monkeypatch, "roof")
    original = GridSpace.dist_rows_to_subsets
    largest = [0]

    def spy(self, rows, id_sets, cutoff=np.inf):
        id_sets = [list(ids) for ids in id_sets]
        gen = original(self, rows, id_sets, cutoff)
        while True:
            before = count[0]
            d = next(gen, None)
            if d is None:
                return
            assert count[0] - before == sum(1 for ids in id_sets if ids)
            largest[0] = max(largest[0], d.shape[1] * max(map(len, id_sets)))
            yield d

    monkeypatch.setattr(GridSpace, "dist_rows_to_subsets", spy)
    assert main(["analyze", "--system", "roof", "--grid", "16", "--out", str(tmp_path)]) == 0
    assert largest[0] == 3960 * 9
