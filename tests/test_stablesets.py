import numpy as np
import pytest

from scrl.chaingraph import build_chain_graph
from scrl.flows import GridTransition, build_transition, make_flow
from scrl.orbits import OrbitData, build_orbit_data
from scrl.space import GridSpace, build_grid, roof_height
from scrl.stablesets import (StablePair, avoidance_profile, build_strongly_stable,
                             complementary, default_eta_samples, find_eta0_and_bstar,
                             grid_image_orbit, nested_neighborhoods, omega_limit_of_set,
                             omega_limits_all)


def make_system(system, domain, n, m_max=2, prune=None):
    s = build_grid(domain, n)
    f = make_flow(system)
    tr = build_transition(f, s, 1.0, m_max)
    g = build_chain_graph(s, tr, prune or 10 * s.resolution)
    return s, f, tr, g


@pytest.fixture(scope="module")
def square16():
    return make_system("square", "unit-square", 16, m_max=4)


@pytest.fixture(scope="module")
def square16_orbit(square16):
    s, f, tr, g = square16
    return build_orbit_data(f, s, 1.0, fine_horizon=24.0, horizon=100.0, t_steps=100)


@pytest.fixture(scope="module")
def circle64():
    return make_system("circle", "circle", 64, m_max=4, prune=0.1)


@pytest.fixture(scope="module")
def circle64_orbit(circle64):
    s, f, tr, g = circle64
    return build_orbit_data(f, s, 1.0, fine_horizon=24.0, horizon=100.0, t_steps=100)


def _nested_by_rows(space, tr, B, R, eta_samples, grid_orbit):
    """nested_neighborhoods as one membership test per level and orbit row."""
    d2B = space.dist_coords_to_subset(space.points, B)
    T_table, failures = {}, {}
    for eta in sorted(float(e) for e in eta_samples):
        inside_mask = d2B <= R * eta + 1e-12
        U = np.nonzero(inside_mask)[0]
        ok = np.array([bool(np.all(inside_mask[row[U]])) for row in grid_orbit])
        good_from = None
        for j in range(len(ok) - 1, -1, -1):
            if not ok[j]:
                break
            good_from = j
        if good_from is None:
            bad_row = grid_orbit[-1][U]
            failures[eta] = int(bad_row[~inside_mask[bad_row]][0])
        else:
            T_table[eta] = max(good_from, 1) * tr.T
    return {"T_table": T_table, "failures": failures}


# -- omega limits -----------------------------------------------------------


def test_omega_set_identity_is_identity():
    s, f, tr, g = make_system("identity", "circle", 8, m_max=1, prune=0.2)
    got = omega_limit_of_set(tr, [1, 2, 5])
    assert got.tolist() == [1, 2, 5]


def test_omega_set_square_bottom_half_drains(square16):
    s, f, tr, g = square16
    U = np.nonzero(s.points[:, 1] <= 0.5)[0]
    got = omega_limit_of_set(tr, U)
    assert np.array_equal(got, np.nonzero(s.points[:, 1] == s.points[:, 1].min())[0])


def test_omega_set_matches_iterated_images_on_random_maps():
    rng = np.random.default_rng(3)
    for n in (1, 2, 7, 40, 200):
        for _ in range(20):
            f = rng.integers(0, n, n)
            if n > 2 and rng.random() < 0.3:
                f[: n // 2] = np.arange(n // 2)            # many fixed points
            # grid ids f on a circle of n points; too few points for build_grid
            tr = GridTransition(T=1.0, coords=f[None, :, None] / n, pad=0.0, image=f)
            U = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
            S = set(U.tolist())
            for _ in range(n):                              # onto the cycles
                S = {int(f[u]) for u in S}
            want = set()
            for _ in range(n):                              # one full period and more
                want |= S
                S = {int(f[u]) for u in S}
            assert omega_limit_of_set(tr, U).tolist() == sorted(want)


def test_omega_set_fixed_arc_subset_stays(circle64):
    s, f, tr, g = circle64
    arc = np.nonzero((s.points[:, 0] >= 0.890) & (s.points[:, 0] <= 0.925))[0]
    assert np.array_equal(omega_limit_of_set(tr, arc), arc)


def _tail(tails, p):
    """Recurring tail cells of point p, from the flat (owner, cell) arrays."""
    owner, cell = tails
    return cell[owner == p]


class _CellTable:
    """Stand-in space for a table of cells: an orbit row's first coordinate
    is its cell.  Records the rows it projects."""

    def __init__(self):
        self.rows = []

    def nearest(self, pts):
        self.rows.append(pts)
        return pts[:, 0].astype(np.int64)


def _table_orbit(t_cells):
    """An orbit whose T-lattice row i projects to the cells t_cells[i]."""
    steps = t_cells.shape[0] - 1
    return OrbitData(T=1.0, times=np.arange(steps + 1, dtype=float),
                     coords=t_cells[:, :, None].astype(float), t_rows=np.arange(steps + 1),
                     window=steps + 1)


def test_omega_point_fixed_is_self(circle64, circle64_orbit):
    s, _, _, _ = circle64
    c_id = int(s.nearest(np.array([[0.375]]))[0])
    tails, flags = omega_limits_all(s, circle64_orbit)
    assert _tail(tails, c_id).tolist() == [c_id]
    assert not flags[c_id]


def test_omega_point_square_interior(square16, square16_orbit):
    s, _, _, _ = square16
    p = int(s.nearest(np.array([[0.3, 0.7]]))[0])
    tails, flags = omega_limits_all(s, square16_orbit)
    bottom = int(s.nearest(np.array([[0.3, 0.0]]))[0])
    assert _tail(tails, p).tolist() == [bottom]
    assert not flags[p]


def test_omega_nonconvergence_flagged():
    # a tail that keeps discovering new cells through the horizon is
    # flagged; a tail that settles is not
    steps, n = 40, 64
    t_cells = np.empty((steps + 1, n), dtype=np.int64)
    for i in range(steps + 1):
        t_cells[i, 0] = i % n              # rotation: always a fresh cell
        t_cells[i, 1:] = np.arange(1, n)   # fixed points
    tails, flags = omega_limits_all(_CellTable(), _table_orbit(t_cells))
    assert flags[0]
    assert not np.any(flags[1:])
    assert all(_tail(tails, p).tolist() == [p] for p in range(1, n))


def test_omega_point_roof_periodic_column():
    s = build_grid("roof", 16)
    f = make_flow("roof")
    orbit = build_orbit_data(f, s, 1.0, fine_horizon=24.0, horizon=100.0, t_steps=100)
    p = int(s.nearest(np.array([[0.5, 0.1]]))[0])
    tails, flags = omega_limits_all(s, orbit)
    assert not flags[p]
    # the recurring cells live in the point's own periodic column
    cells = _tail(tails, p)
    assert np.all(np.abs(s.points[cells, 0] - s.points[p, 0]) < 1e-9)
    assert len(cells) >= 2


def _loop_omega_limits_all(cells, burn_frac=0.5):
    """Point-by-point reference for omega_limits_all on the (steps + 1, n)
    table of every T-lattice row's cells."""
    steps, n = cells.shape[0] - 1, cells.shape[1]
    burn = int(steps * burn_frac)
    probe = max(1, steps // 8)
    tails, nonconv = [], np.zeros(n, dtype=bool)
    for p in range(n):
        tail = cells[burn:, p]
        uniq, counts = np.unique(tail, return_counts=True)
        first_seen = {}
        for i, c in enumerate(tail):
            first_seen.setdefault(c, i)
        nonconv[p] = max(first_seen.values()) >= tail.size - probe
        tails.append(uniq[counts >= 2])
    return tails, nonconv


def _assert_same_omega_limits(space, orbit, cells):
    (owner, cell), got_flags = omega_limits_all(space, orbit)
    want_tails, want_flags = _loop_omega_limits_all(cells)
    assert np.array_equal(got_flags, want_flags)
    want_owner = np.repeat(np.arange(cells.shape[1]), [t.size for t in want_tails])
    want_cell = np.concatenate(want_tails)
    assert owner.dtype == want_owner.dtype and np.array_equal(owner, want_owner)
    assert cell.dtype == want_cell.dtype and np.array_equal(cell, want_cell)


@pytest.mark.parametrize("steps,n,cells", [(0, 5, 3), (1, 4, 2), (7, 30, 4),
                                           (40, 50, 12), (200, 40, 300)])
def test_omega_limits_all_matches_loop_on_random_tables(steps, n, cells):
    rng = np.random.default_rng(steps * 1000 + n)
    t_cells = rng.integers(0, cells, (steps + 1, n)).astype(np.int64)
    t_cells[:, 0] = 7                      # constant tail
    t_cells[:, -1] = np.arange(steps + 1)  # never repeats
    table = _CellTable()
    _assert_same_omega_limits(table, _table_orbit(t_cells), t_cells)
    # only the rows after the burn-in are projected, one call per row
    assert len(table.rows) == steps - steps // 2 + 1


@pytest.mark.parametrize("system,domain", [("roof", "roof"), ("square", "unit-square")])
def test_omega_limits_all_matches_loop_on_orbits(system, domain):
    s = build_grid(domain, 12)
    orbit = build_orbit_data(make_flow(system), s, 1.0, fine_horizon=24.0,
                             horizon=100.0, t_steps=100)
    cells = np.stack([s.nearest(orbit.coords[j]) for j in orbit.t_rows])
    _assert_same_omega_limits(s, orbit, cells)


def test_orbit_rows_are_projected_only_after_the_burn_in(monkeypatch):
    # build_orbit_data projects nothing; omega_limits_all projects each
    # T-lattice row after its burn-in once, and no other row
    s = build_grid("roof", 12)
    projected = []
    nearest = GridSpace.nearest
    monkeypatch.setattr(GridSpace, "nearest",
                        lambda self, pts: projected.append(pts) or nearest(self, pts))
    steps = 101
    orbit = build_orbit_data(make_flow("roof"), s, 1.0, fine_horizon=24.0,
                             horizon=float(steps), t_steps=steps)
    assert projected == []
    omega_limits_all(s, orbit)
    rows = orbit.t_rows[steps // 2:]
    assert len(projected) == rows.size == steps - steps // 2 + 1
    for pts, j in zip(projected, rows):
        assert np.array_equal(pts, orbit.coords[j])


# -- complementary -----------------------------------------------------------


def test_complementary_of_everything_is_empty(square16, square16_orbit):
    s, f, tr, g = square16
    tails, flags = omega_limits_all(s, square16_orbit)
    got = complementary(s, tr, np.arange(s.n), tails, flags)
    assert got.size == 0


def test_complementary_square_origin_cell(square16, square16_orbit):
    # B = the grid cell at the origin corner; its complementary is every
    # column except the first, plus nothing else at grid precision
    s, f, tr, g = square16
    tails, flags = omega_limits_all(s, square16_orbit)
    origin = int(s.nearest(np.array([[0.0, 0.0]]))[0])
    got = complementary(s, tr, [origin], tails, flags)
    got_mask = np.zeros(s.n, dtype=bool)
    got_mask[got] = True
    x_col = s.points[:, 0]
    first_col = x_col == x_col.min()
    assert not np.any(got_mask & first_col)
    # every cell at least one column over is in the complementary
    assert np.all(got_mask[x_col > x_col.min() + s.pitch / 2])


def test_complementary_circle_fixed_arc(circle64, circle64_orbit):
    # B = cells of the closed arc from A to E; complementary is the arc
    # from just past E around to D, inclusive
    s, f, tr, g = circle64
    theta = s.points[:, 0]
    B = np.nonzero((theta >= 0.875 - 1e-12) & (theta <= 0.9375 + 1e-12))[0]
    tails, flags = omega_limits_all(s, circle64_orbit)
    got = complementary(s, tr, B, tails, flags)
    got_set = set(got.tolist())
    inside = np.nonzero((theta > 0.9375 + s.resolution) | (theta <= 0.625))[0]
    expected = set(inside.tolist())
    sym = got_set ^ expected
    # agreement within one cell around the arc ends
    assert all(min(abs(theta[i] - 0.9375), abs(theta[i] - 0.625)) <= 2 / 64 for i in sym)


def test_complementary_requires_invariance(square16, square16_orbit):
    s, f, tr, g = square16
    tails, flags = omega_limits_all(s, square16_orbit)
    drifting = int(s.nearest(np.array([[0.5, 0.5]]))[0])
    with pytest.raises(ValueError, match="not forward invariant"):
        complementary(s, tr, [drifting], tails, flags)


def test_complementary_matches_point_loop(square16, square16_orbit):
    # the mask lookup over the flat tails agrees with a scan of each
    # point's own tail, on invariant sets from seeds across the grid;
    # every fifth point is flagged non-convergent, so the flags count too
    s, f, tr, g = square16
    tails, flags = omega_limits_all(s, square16_orbit)
    flags = flags | (np.arange(s.n) % 5 == 0)
    cells = np.stack([s.nearest(square16_orbit.coords[j]) for j in square16_orbit.t_rows])
    loop_tails, _ = _loop_omega_limits_all(cells)
    sizes = set()
    for seed in range(0, s.n, 17):
        B = omega_limit_of_set(tr, s.thicken([seed], 4 * s.resolution))
        thick = set(s.thicken(B, s.resolution).tolist())
        want = [p for p in range(s.n)
                if not flags[p] and not thick.intersection(loop_tails[p].tolist())]
        got = complementary(s, tr, B, tails, flags)
        assert got.dtype == np.int64 and got.tolist() == want
        sizes.add(len(want))
    assert len(sizes) > 1


# -- strongly stable construction --------------------------------------------


def test_build_identity_no_separation():
    s, f, tr, g = make_system("identity", "circle", 16, m_max=1, prune=0.3)
    seed = [3]
    C = s.thicken(seed, 0.1)
    B, cert, W = build_strongly_stable(g, tr, s, C, 0.25)
    assert not cert                      # every point is recurrent, no ball separates
    assert np.array_equal(B, W)          # identity flow settles nowhere new
    d = s.dist_coords_to_subset(s.points[W], C)
    assert W.size > C.size and d.max() <= 0.25 + 1e-9


def test_build_circle_wandering_seed_certified(circle64):
    s, f, tr, g = circle64
    seed = int(s.nearest(np.array([[0.15]]))[0])
    C = s.thicken([seed], 2 * s.resolution)
    B, cert, W = build_strongly_stable(g, tr, s, C, 0.05)
    assert cert
    assert not np.any(np.isin(C, W))
    assert B.size > 0
    # the seed ball's own points cannot be in the settled set
    assert not np.any(np.isin(C, B))


def test_build_square_bottom_ball_contains_itself(square16):
    s, f, tr, g = square16
    seed = int(s.nearest(np.array([[0.5, 0.0]]))[0])
    C = s.thicken([seed], 2 * s.resolution)
    B, cert, W = build_strongly_stable(g, tr, s, C, 0.05)
    assert not cert                      # fixed points sit inside their own reach
    bottom = np.nonzero(s.points[:, 1] == s.points[:, 1].min())[0]
    assert np.all(np.isin(B, bottom))
    assert np.any(np.isin(C, B))


def test_build_rejects_empty_seed(square16):
    s, f, tr, g = square16
    with pytest.raises(ValueError):
        build_strongly_stable(g, tr, s, [], 0.05)


# -- nested neighborhoods -----------------------------------------------------


def test_nested_identity_invariant_immediately():
    s, f, tr, g = make_system("identity", "circle", 16, m_max=1, prune=0.3)
    out = nested_neighborhoods(s, tr, [2, 3], 0.5, [0.1, 0.5, 0.9],
                               grid_image_orbit(tr, 50))
    assert not out["failures"]
    assert all(v == 1.0 for v in out["T_table"].values())


def test_nested_square_bottom_collar_drains(square16):
    s, f, tr, g = square16
    bottom = np.nonzero(s.points[:, 1] == s.points[:, 1].min())[0]
    out = nested_neighborhoods(s, tr, bottom, np.sqrt(2), [0.1, 0.3, 0.5, 0.9],
                               grid_image_orbit(tr, 100))
    assert not out["failures"]
    assert all(np.isfinite(v) for v in out["T_table"].values())


def test_nested_thickening_nesting_and_gap_condition(square16):
    s, f, tr, g = square16
    bottom = np.nonzero(s.points[:, 1] == s.points[:, 1].min())[0]
    R = np.sqrt(2)
    d2B = s.dist_coords_to_subset(s.points, bottom)
    etas = [0.1, 0.25, 0.5, 0.75]
    masks = {e: d2B <= R * e + 1e-12 for e in etas}
    for lo, hi in zip(etas, etas[1:]):
        assert np.all(masks[hi][masks[lo]])
        # scaled gap condition: within R*(hi-lo) of U_lo implies inside U_hi
        dU = s.dist_coords_to_subset(s.points, np.nonzero(masks[lo])[0])
        assert np.all(masks[hi][dU < R * (hi - lo)])


def test_nested_reports_witness_on_failure(circle64):
    # a lone wandering cell is not forward invariant at any thickening
    s, f, tr, g = circle64
    wanderer = int(s.nearest(np.array([[0.2]]))[0])
    out = nested_neighborhoods(s, tr, [wanderer], 0.5, [0.01], grid_image_orbit(tr, 50))
    assert 0.01 in out["failures"]
    witness = out["failures"][0.01]
    assert 0 <= witness < s.n


# -- avoider levels -------------------------------------------------------------


def test_find_eta0_absent_when_no_complement():
    s, f, tr, g = make_system("identity", "circle", 16, m_max=1, prune=0.3)
    orbit = build_orbit_data(f, s, 1.0, fine_horizon=24.0, horizon=50.0, t_steps=50)
    prof = avoidance_profile(s, orbit, [np.arange(s.n)])[0]
    got = find_eta0_and_bstar(s, np.arange(s.n), [], {0.5: 1.0}, 0.5, prof)
    assert got is None


def test_find_eta0_circle_matched_scale(circle64, circle64_orbit):
    # with levels capped at 1/8 of the half-circle scale, the avoider set
    # recovers the closed arc from B around to D
    s, f, tr, g = circle64
    theta = s.points[:, 0]
    B = np.nonzero((theta >= 0.875 - 1e-12) & (theta <= 0.9375 + 1e-12))[0]
    tails, flags = omega_limits_all(s, circle64_orbit)
    Bb = complementary(s, tr, B, tails, flags)
    R = 0.5
    nn = nested_neighborhoods(s, tr, B, R, list(np.geomspace(0.02, 0.125, 6)),
                              grid_image_orbit(tr, 100))
    assert not nn["failures"]
    prof = avoidance_profile(s, circle64_orbit, [B])[0]
    eta0, B_star = find_eta0_and_bstar(s, B, Bb, nn["T_table"], R, prof)
    assert eta0 == pytest.approx(0.125)
    assert not np.any(np.isin(B_star, B))
    assert np.all(np.isin(B_star, Bb))
    covered = theta[B_star]
    assert covered.min() <= 0.02 + 0.0625    # reaches just past B
    assert covered.max() == pytest.approx(0.625, abs=2 / 64)   # out to D


def test_find_eta0_square_origin(square16, square16_orbit):
    s, f, tr, g = square16
    tails, flags = omega_limits_all(s, square16_orbit)
    origin = int(s.nearest(np.array([[0.0, 0.0]]))[0])
    B = np.asarray([origin])
    Bb = complementary(s, tr, B, tails, flags)
    R = np.sqrt(2)
    nn = nested_neighborhoods(s, tr, B, R, default_eta_samples(16), grid_image_orbit(tr, 100))
    prof = avoidance_profile(s, square16_orbit, [B])[0]
    got = find_eta0_and_bstar(s, B, Bb, nn["T_table"], R, prof)
    assert got is not None
    eta0, B_star = got
    # avoiders are whole far fibers; the far end of the top fixed segment
    # is among them, and nothing near the origin column qualifies
    pts = s.points[B_star]
    assert np.all(pts[:, 0] > 0.5)
    top_right = int(s.nearest(np.array([[1.0, 1.0]]))[0])
    assert top_right in B_star.tolist()
    assert np.all(prof[B_star] > R * eta0)


def _profile_per_set(space, orbit, B):
    """The per-set walk avoidance_profile replaced: one orbit pass per B."""
    out = np.full(space.n, np.inf)
    for j in orbit.t_rows:
        np.minimum(out, space.dist_coords_to_subset(orbit.coords[j], B), out=out)
    return out


@pytest.fixture(scope="module")
def roof12_orbit():
    s = build_grid("roof", 12)
    return s, build_orbit_data(make_flow("roof"), s, 1.0, fine_horizon=24.0,
                               horizon=60.0, t_steps=60)


@pytest.mark.parametrize("system", ["roof", "square", "circle"])
def test_avoidance_profile_matches_per_set_walk(system, roof12_orbit, square16,
                                                square16_orbit, circle64, circle64_orbit):
    s, orbit = {"roof": roof12_orbit,
                "square": (square16[0], square16_orbit),
                "circle": (circle64[0], circle64_orbit)}[system]
    x = s.points[:, 0]
    sets = [np.nonzero(np.abs(x - 0.5) <= 0.1)[0], np.array([s.n - 1, 0, 3]),
            np.arange(s.n), np.nonzero(x < 0.3)[0][::-1]]
    got = avoidance_profile(s, orbit, sets)
    assert got.shape == (len(sets), s.n)
    for row, B in zip(got, sets):
        assert row.tobytes() == _profile_per_set(s, orbit, B).tobytes()
    assert avoidance_profile(s, orbit, []).shape == (0, s.n)


def test_bstar_forward_invariant(circle64, circle64_orbit):
    s, f, tr, g = circle64
    theta = s.points[:, 0]
    B = np.nonzero((theta >= 0.875 - 1e-12) & (theta <= 0.9375 + 1e-12))[0]
    tails, flags = omega_limits_all(s, circle64_orbit)
    Bb = complementary(s, tr, B, tails, flags)
    nn = nested_neighborhoods(s, tr, B, 0.5, list(np.geomspace(0.02, 0.125, 6)),
                              grid_image_orbit(tr, 100))
    prof = avoidance_profile(s, circle64_orbit, [B])[0]
    _, B_star = find_eta0_and_bstar(s, B, Bb, nn["T_table"], 0.5, prof)
    img = np.unique(tr.image[B_star])
    d = s.dist_coords_to_subset(s.points[img], B_star)
    assert d.max() <= s.resolution + 1e-9


def test_omega_of_invariant_set_stays_inside(square16):
    s, f, tr, g = square16
    bottom = np.nonzero(s.points[:, 1] == s.points[:, 1].min())[0]
    settled = omega_limit_of_set(tr, bottom)
    d = s.dist_coords_to_subset(s.points[settled], bottom)
    assert d.max() <= s.resolution + 1e-9


def test_stable_pair_json_round_trip():
    pair = StablePair(
        B=np.array([1, 2]), B_bullet=np.array([5, 6]), R=0.5, eta0=0.25,
        T_table={0.1: 1.0, 0.25: 3.0}, B_star=np.array([6]),
        provenance={"center": 7, "radius": 0.1, "epsilon": 0.05, "T": 1.0})
    back = StablePair.from_json(pair.to_json())
    assert np.array_equal(back.B, pair.B)
    assert np.array_equal(back.B_bullet, pair.B_bullet)
    assert back.eta0 == pair.eta0
    assert back.T_table == pair.T_table
    assert np.array_equal(back.B_star, pair.B_star)
    assert back.provenance == pair.provenance


def _levels_at(d, R):
    """Levels eta with R * eta + 1e-12 equal to each distance in d, where one exists."""
    etas = []
    for target in d:
        eta = (target - 1e-12) / R
        for _ in range(8):
            if R * eta + 1e-12 == target:
                etas.append(eta)
                break
            eta = np.nextafter(eta, -1.0 if R * eta + 1e-12 > target else 2.0)
    return etas


@pytest.mark.parametrize("domain,n", [("unit-square", 8), ("circle", 64), ("roof", 12)])
def test_nested_prefix_maxima_match_row_loop_on_random_maps(domain, n):
    s = build_grid(domain, n)
    rng = np.random.default_rng(n)
    outcomes = set()
    for trial in range(12):
        # random functional graph: a permutation (long cycles, many distinct
        # witnesses) with a share of the points sent into a small core
        core = rng.choice(s.n, 1 + trial % 4, replace=False)
        f = rng.permutation(s.n)
        drop = rng.uniform(size=s.n) < 0.1 * (trial % 6)
        f[drop] = rng.choice(core, drop.sum())
        f[core] = core[rng.integers(0, core.size, core.size)]
        tr = GridTransition.project(s, 0.5 + trial, s.points[f][None])
        assert np.array_equal(tr.image, f)
        B = np.unique(np.concatenate([core, rng.choice(s.n, trial % 3)]))
        R = float(rng.uniform(0.2, 1.5))
        d2B = s.dist_coords_to_subset(s.points, B)
        ties = _levels_at(rng.choice(d2B[(d2B > 0.02 * R) & (d2B < 0.98 * R)], 6), R)
        assert ties
        etas = np.concatenate([rng.uniform(0.01, 0.99, 12), ties])
        grid_orbit = grid_image_orbit(tr, 30)
        got = nested_neighborhoods(s, tr, B, R, etas, grid_orbit)
        want = _nested_by_rows(s, tr, B, R, etas, grid_orbit)
        assert got == want
        assert list(got["T_table"]) == list(want["T_table"])   # same key order
        outcomes.update(["T"] * bool(got["T_table"]) + ["fail"] * bool(got["failures"]))
    assert outcomes == {"T", "fail"}
