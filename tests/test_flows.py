import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import solve_ivp

from scrl import flows
from scrl.flows import (CIRCLE_MARKERS, ROOF_DRIFT_CAP, ROOF_DRIFT_RATE,
                        ROOF_STRIP_HALF_WIDTH, build_transition, load_sampled_transition,
                        make_flow)
from scrl.orbits import build_orbit_data
from scrl.space import build_grid, circle_gap, roof_height

from oracles import grid_distances


def phi(flow, x, t):
    """phi_t(x) for the single point ``x``, as its row of ``flow.evaluate``."""
    return flow.evaluate(np.array([x], float), t)[0]


@pytest.fixture(scope="module")
def circle_flow():
    return make_flow("circle")


@pytest.fixture(scope="module")
def square_flow():
    return make_flow("square")


@pytest.fixture(scope="module")
def roof_flow():
    return make_flow("roof")


# -- fixed sets ---------------------------------------------------------


def test_circle_markers_fixed(circle_flow):
    for t in (0.1, 1.0, 17.0):
        for theta in (CIRCLE_MARKERS["C"], CIRCLE_MARKERS["D"]):
            assert phi(circle_flow, [theta], t)[0] == theta


def test_circle_arc_AE_through_B_fixed(circle_flow):
    # the whole closed arc from A through E to B is fixed
    for theta in (0.875, 0.9, 0.9375, 0.97, 0.0):
        assert phi(circle_flow, [theta], 5.0)[0] == theta


def test_circle_flows_clockwise(circle_flow):
    for theta in (0.05, 0.2, 0.45, 0.7):
        out = phi(circle_flow, [theta], 0.5)[0]
        assert out > theta


def test_square_fixed_segments(square_flow):
    assert phi(square_flow, (0.3, 1.0), 7.0).tolist() == [0.3, 1.0]
    assert phi(square_flow, (0.8, 0.0), 7.0).tolist() == [0.8, 0.0]


def test_square_interior_drains_south(square_flow):
    ys = [phi(square_flow, (0.3, 0.5), t)[1] for t in (0.0, 1.0, 2.0, 5.0, 20.0)]
    assert all(a > b for a, b in zip(ys, ys[1:]))
    assert ys[-1] < 1e-6
    assert all(phi(square_flow, (0.3, 0.5), t)[0] == 0.3 for t in (1.0, 9.0))


# -- chosen speed profiles against an independent integrator ------------


def circle_fixed_distance(theta, markers):
    """Distance from a circle position to the fixed set (arc A..E..B, C, D)."""
    theta = theta % 1.0
    if theta >= markers["A"] or theta <= markers["B"]:    # closed arc from A through E to B
        return 0.0
    return min(float(circle_gap(theta, markers[k])) for k in "ABCD")


def test_circle_profile_matches_ode(circle_flow):
    def rhs(t, y):
        return [circle_fixed_distance(y[0], CIRCLE_MARKERS)]

    for theta0 in (0.05, 0.3, 0.5, 0.8):
        sol = solve_ivp(rhs, (0, 2.0), [theta0], rtol=1e-10, atol=1e-12)
        assert phi(circle_flow, [theta0], 2.0)[0] == pytest.approx(
            sol.y[0, -1] % 1.0, abs=1e-7)


def test_square_profile_matches_ode(square_flow):
    def rhs(t, y):
        return [-y[0] * (1 - y[0])]

    for y0 in (0.2, 0.5, 0.9):
        sol = solve_ivp(rhs, (0, 3.0), [y0], rtol=1e-10, atol=1e-12)
        assert phi(square_flow, (0.5, y0), 3.0)[1] == pytest.approx(
            sol.y[0, -1], abs=1e-7)


# -- semiflow properties -------------------------------------------------


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.floats(0.001, 0.999), st.floats(0.0, 5.0), st.floats(0.0, 5.0))
def test_circle_semigroup(theta, s, t):
    f = make_flow("circle")
    a = phi(f, [theta], s + t)[0]
    b = phi(f, phi(f, [theta], t), s)[0]
    assert circle_gap(a, b) <= 1e-9


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.floats(0.0, 1.0), st.floats(0.001, 0.999), st.floats(0.0, 5.0), st.floats(0.0, 5.0))
def test_square_semigroup(x, y, s, t):
    f = make_flow("square")
    ax, ay = phi(f, (x, y), s + t)
    bx, by = phi(f, (x, y), t)
    cx, cy = phi(f, (bx, by), s)
    assert abs(ax - cx) + abs(ay - cy) <= 1e-9


@pytest.mark.parametrize("system", ["circle", "square", "identity"])
def test_semigroup_bulk_thousand(system):
    f = make_flow(system)
    rng = np.random.default_rng(23)
    k = 1000
    if f.domain == "circle":
        pts = rng.uniform(0, 1, (k, 1))
    else:
        pts = np.column_stack([rng.uniform(0, 1, k), rng.uniform(0, 1, k)])
    s, t = rng.uniform(0.1, 4.0, 2)
    a = f.evaluate(pts, s + t)
    b = f.evaluate(f.evaluate(pts, t), s)
    if f.domain == "circle":
        assert np.max(circle_gap(a[:, 0], b[:, 0])) <= 1e-9
    else:
        assert np.max(np.abs(a - b)) <= 1e-9


def test_circle_marker_override():
    f = make_flow("circle", {"C": 0.4})
    assert phi(f, [0.4], 3.0)[0] == 0.4             # moved fixed point
    assert phi(f, [0.375], 1.0)[0] > 0.375          # old position now drifts
    with pytest.raises(ValueError, match="ordered"):
        make_flow("circle", {"C": 0.9})


def test_roof_semigroup_bulk(roof_flow):
    rng = np.random.default_rng(11)
    xs = rng.uniform(0, 1, 500)
    ys = rng.uniform(0, 0.999, 500) * roof_height(xs)
    pts = np.column_stack([xs, ys])
    for s, t in ((0.7, 1.9), (2.5, 0.25), (1.0, 1.0)):
        a = roof_flow.evaluate(pts, s + t)
        b = roof_flow.evaluate(roof_flow.evaluate(pts, t), s)
        tau = roof_height(a[:, 0])
        dy = np.abs(a[:, 1] - b[:, 1])
        dy = np.minimum(dy, tau - dy)      # wrap-aware vertical gap
        assert np.max(np.abs(a[:, 0] - b[:, 0]) + dy) <= 1e-9


def test_negative_time_rejected(circle_flow, roof_flow):
    with pytest.raises(ValueError):
        phi(circle_flow, [0.2], -0.5)
    with pytest.raises(ValueError):
        roof_flow.evaluate(np.array([[0.5, 0.1]]), -1.0)


def test_outside_domain_rejected(square_flow, roof_flow):
    with pytest.raises(ValueError):
        phi(square_flow, (1.5, 0.5), 1.0)
    with pytest.raises(ValueError):
        phi(roof_flow, (0.5, 0.9), 1.0)        # above the ridge height


# -- roof specifics -------------------------------------------------------


def test_evaluate_leaves_its_input_alone(roof_flow):
    p = np.array([[0.2, roof_height(0.2)]])      # on the roof: identified with the floor
    before = p.copy()
    out = roof_flow.evaluate(p, 0.5)
    assert p.tobytes() == before.tobytes()
    assert out.tobytes() == roof_flow.evaluate(np.array([[0.2, 0.0]]), 0.5).tobytes()


def test_roof_strip_periodicity(roof_flow):
    for x in (0.42, 0.5, 0.58):
        tau = float(roof_height(x))
        for y in (0.0, 0.1):
            out = phi(roof_flow, (x, y), tau)
            assert out[0] == pytest.approx(x)
            gap = abs(out[1] - y)
            assert min(gap, tau - gap) <= 1e-9


def test_roof_outer_points_drift_to_strip(roof_flow):
    out = roof_flow.evaluate(np.array([[0.05, 0.2], [0.95, 0.5]]), 10.0)
    assert out[0, 0] == pytest.approx(0.5 - ROOF_STRIP_HALF_WIDTH, abs=1e-3)
    assert out[1, 0] == pytest.approx(0.5 + ROOF_STRIP_HALF_WIDTH, abs=1e-3)


def test_roof_stays_in_domain(roof_flow):
    rng = np.random.default_rng(5)
    xs = rng.uniform(0, 1, 400)
    ys = rng.uniform(0, 1, 400) * roof_height(xs) * 0.999
    pts = np.column_stack([xs, ys])
    for t in (0.3, 1.0, 7.7):
        out = roof_flow.evaluate(pts, t)
        assert np.all(out[:, 0] >= 0) and np.all(out[:, 0] <= 1)
        assert np.all(out[:, 1] >= 0)
        assert np.all(out[:, 1] <= roof_height(out[:, 0]) + 1e-9)


def test_roof_not_uniformly_lipschitz(roof_flow):
    # phase slip across the square-root crease of the return time at x = 1/2
    def stretch(gap):
        pts = np.array([[0.5, 0.0], [0.5 + gap, 0.0]])
        out = roof_flow.evaluate(pts, 1.0)
        dy = abs(out[0, 1] - out[1, 1])
        return float(np.hypot(out[0, 0] - out[1, 0], dy)) / gap

    assert stretch(1e-3) > 10 * stretch(1e-1)


FROZEN_RIDGE_MIN = float(np.sqrt(2.0) - 1.0) / float(np.sqrt(2.0))   # roof height at x = 1/2


def _frozen_roof_x_at(x0, t):
    """The roof drift as first written: every term recomputed per call."""
    s = np.sign(x0 - 0.5)
    r0 = np.maximum(np.abs(x0 - 0.5) - ROOF_STRIP_HALF_WIDTH, 0.0)
    t = np.asarray(t, dtype=float)
    knee = ROOF_DRIFT_CAP / ROOF_DRIFT_RATE
    t_lin = np.maximum(r0 - knee, 0.0) / ROOF_DRIFT_CAP
    lin = r0 - ROOF_DRIFT_CAP * np.minimum(t, t_lin)
    r = np.where(t <= t_lin, lin,
                 np.minimum(r0, knee) * np.exp(-ROOF_DRIFT_RATE * (t - t_lin)))
    return 0.5 + s * (ROOF_STRIP_HALF_WIDTH + r) * (r0 > 0) \
        + s * np.abs(x0 - 0.5) * (r0 == 0)


def _frozen_roof_outer_y(x0, y0, t):
    """The wrap bisection as first written, with no hoisted invariants."""
    s_cur = np.zeros_like(y0)
    y_cur = y0.copy()
    for _ in range(int(np.ceil(t / FROZEN_RIDGE_MIN)) + 2):
        gap = y_cur + (t - s_cur) - roof_height(_frozen_roof_x_at(x0, t))
        active = gap >= 0
        if not np.any(active):
            break
        lo = s_cur[active].copy()
        hi = np.full(lo.shape, float(t))
        xa, ya, sa = x0[active], y_cur[active], s_cur[active]
        for _ in range(52):
            mid = 0.5 * (lo + hi)
            g = ya + (mid - sa) - roof_height(_frozen_roof_x_at(xa, mid))
            hi = np.where(g >= 0, mid, hi)
            lo = np.where(g >= 0, lo, mid)
        s_cur[active] = hi
        y_cur[active] = 0.0
    return np.clip(y_cur + (t - s_cur), 0.0, None)


def _frozen_roof_flow(pts, t):
    x0, y0 = pts[:, 0].copy(), pts[:, 1].copy()
    tau0 = roof_height(x0)
    y0[y0 >= tau0] = 0.0
    in_strip = np.abs(x0 - 0.5) <= ROOF_STRIP_HALF_WIDTH
    out_x = np.where(in_strip, x0, _frozen_roof_x_at(x0, t))
    out_y = np.empty_like(y0)
    out_y[in_strip] = (y0[in_strip] + t) % tau0[in_strip]
    idx = np.nonzero(~in_strip)[0]
    out_y[idx] = _frozen_roof_outer_y(x0[idx], y0[idx], t)
    return np.column_stack([out_x, out_y])


def _roof_test_points():
    rng = np.random.default_rng(17)
    xs = rng.uniform(0, 1, 600)
    inside = np.column_stack([xs, rng.uniform(0, 1, 600) * roof_height(xs)])
    xr = rng.uniform(0, 1, 200)
    on_roof = np.column_stack([xr, roof_height(xr)])
    edge_x = 0.5 + np.array([-1, 1])[:, None] * (ROOF_STRIP_HALF_WIDTH
                                                + np.array([0.0, 1e-15, 1e-9, 1e-6]))
    edge_x = np.concatenate([edge_x.ravel(), [0.0, 1.0, 0.2, 0.8]])
    edges = np.column_stack([np.repeat(edge_x, 3),
                             np.tile([0.0, 0.5, 1.0], edge_x.size)
                             * roof_height(np.repeat(edge_x, 3))])
    return np.concatenate([inside, on_roof, edges])


@pytest.mark.parametrize("t", [1 / 8, 1 / 4, 1.0, 4.0])
def test_roof_flow_matches_frozen_bisection(roof_flow, t):
    # the first evaluator bisected each wrap on [last wrap, t]; the event
    # rule bisects on [last wrap, last wrap + 2], so wraps move by ulps
    pts = _roof_test_points()
    got = roof_flow.evaluate(pts, t)
    want = _frozen_roof_flow(pts, t)
    assert np.array_equal(got[:, 0], want[:, 0])
    dy = np.abs(got[:, 1] - want[:, 1])
    dy = np.minimum(dy, roof_height(got[:, 0]) - dy)   # wrap-aware vertical gap
    assert dy.max() <= 1e-12


def _frozen_roof_events(x0, y0, times):
    """The roof flow of one point at each of ``times``, wrap event by wrap event.

    Wrap k + 1 is bisected on [s_k, s_k + 2]; a query at a wrap time is
    after the wrap; a wrap in the strip makes the point periodic there.
    """
    x0 = np.float64(x0)
    tau0 = roof_height(x0)
    y0 = np.float64(0.0 if y0 >= tau0 else y0)
    if abs(x0 - 0.5) <= ROOF_STRIP_HALF_WIDTH:
        return [(x0, (y0 + t) % tau0) for t in times]
    wraps, y, x_end = [0.0], y0, None
    while x_end is None and wraps[-1] <= max(times):
        s_k = wraps[-1]
        lo, hi = s_k, s_k + 2.0
        for _ in range(52):
            mid = 0.5 * (lo + hi)
            if y + (mid - s_k) - roof_height(_frozen_roof_x_at(x0, mid)) >= 0:
                hi = mid
            else:
                lo = mid
        wraps.append(hi)
        y = 0.0
        x = _frozen_roof_x_at(x0, hi)
        if abs(x - 0.5) <= ROOF_STRIP_HALF_WIDTH:
            x_end = x
    out = []
    for t in times:
        k = sum(s <= t for s in wraps[1:])
        height = (y0 if k == 0 else 0.0) + (t - wraps[k])
        if x_end is not None and k == len(wraps) - 1:
            out.append((x_end, height % roof_height(x_end)))
        else:
            out.append((_frozen_roof_x_at(x0, t), max(height, 0.0)))
    return out


def _frozen_roof_rows(pts, times):
    rows = np.empty((len(times),) + pts.shape)
    for i, (x0, y0) in enumerate(pts):
        rows[:, i] = _frozen_roof_events(x0, y0, times)
    return rows


def test_roof_flow_bit_identical_to_frozen_events(roof_flow):
    pts = _roof_test_points()
    times = [0.0, 1 / 8, 1 / 4, 1.0, 4.0, 3.3]
    assert roof_flow.evaluate(pts, times).tobytes() == _frozen_roof_rows(pts, times).tobytes()


def test_roof_heights_at_the_floor_and_roof_match_frozen_events(roof_flow):
    # the domain admits heights down to -1e-12: a drifting height is clipped
    # to the floor, and a strip height can come back exactly on the roof
    x = np.array([0.2, 0.5, 0.45, 0.2, 0.5, 0.8])
    pts = np.column_stack([x, np.concatenate([[-1e-13, -1e-17, -1e-13], roof_height(x[3:])])])
    times = [0.0, 0.1, 1e-17, 1 / 4, 9.0]
    assert roof_flow.evaluate(pts, times).tobytes() == _frozen_roof_rows(pts, times).tobytes()


_EDGE_X = [0.5 + side * (ROOF_STRIP_HALF_WIDTH + off)
           for side in (-1, 1) for off in (0.0, 1e-15, -1e-15, 1e-9)] + [0.0, 1.0, 0.2, 0.8]


@st.composite
def _roof_point(draw):
    x = draw(st.one_of(st.floats(0.0, 1.0), st.sampled_from(_EDGE_X)))
    frac = draw(st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 0.5, 1.0])))
    return x, frac * float(roof_height(x))      # frac 1 is on the roof


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.lists(_roof_point(), min_size=1, max_size=8),
       st.lists(st.one_of(st.floats(0.0, 12.0), st.sampled_from([0.0, 1 / 8, 1 / 4, 4.0])),
                min_size=1, max_size=12))
def test_roof_time_lists_bit_identical_to_frozen_events(points, times):
    pts = np.array(points, dtype=float)
    got = make_flow("roof").evaluate(pts, times)
    assert got.tobytes() == _frozen_roof_rows(pts, times).tobytes()


def test_roof_query_on_a_wrap_is_after_it(roof_flow):
    pts = np.array([[0.2, 0.3], [0.85, 0.0]])
    starts, _, _ = flows._roof_wraps(flows._roof_drift(pts[:, 0]), pts[:, 1], 2.0)
    wrap = starts[1]
    before = np.nextafter(wrap, 0.0)
    for i in range(2):
        got = roof_flow.evaluate(pts[i:i + 1], [before[i], wrap[i]])[:, 0]
        assert got.tobytes() == _frozen_roof_rows(pts[i:i + 1], [before[i], wrap[i]]).tobytes()
        assert got[1, 1] == 0.0                      # on the floor at the wrap
        assert got[0, 1] == pytest.approx(roof_height(got[0, 0]), abs=1e-12)


@pytest.mark.parametrize("system", ["circle", "square", "roof", "identity"])
def test_evaluate_rows_are_single_time_calls(system):
    f = make_flow(system)
    s = build_grid(f.domain, 64 if f.domain == "circle" else 12)
    times = np.array([0.0, 4.0, 1 / 8, 0.3, 4.0, 17.5, 1e-9, 0.0])
    rows = f.evaluate(s.points, times)
    assert rows.shape == (times.size,) + s.points.shape
    for row, t in zip(rows, times):
        assert row.tobytes() == f.evaluate(s.points, t).tobytes()


def test_roof_orbit_rows_are_the_flow_and_settle_in_the_strip(roof_flow):
    # the analyze orbit of roof 16: rows are phi at their times, and every
    # point has wound onto the strip by the horizon
    s = build_grid("roof", 16)
    orbit = build_orbit_data(roof_flow, s, 1.0, fine_horizon=24.0, horizon=200.0, t_steps=200)
    assert orbit.coords[0].tobytes() == s.points.tobytes()
    for j in (1, 9, 200, orbit.times.size - 1):
        assert orbit.coords[j].tobytes() == roof_flow.evaluate(s.points, orbit.times[j]).tobytes()
    assert orbit.times[-1] == 200.0
    outside = np.abs(orbit.coords[-1, :, 0] - 0.5) > ROOF_STRIP_HALF_WIDTH
    assert outside.sum() == 0


# -- transitions ----------------------------------------------------------


def test_transition_identity_is_identity():
    s = build_grid("circle", 16)
    f = make_flow("identity")
    tr = build_transition(f, s, 1.0, 3)
    assert np.array_equal(tr.image, np.arange(16))
    assert tr.images.shape == (3, 16)


def test_transition_projection_error_bounded():
    for system, domain, n in (("circle", "circle", 32),
                              ("square", "unit-square", 12),
                              ("roof", "roof", 12)):
        s = build_grid(domain, n)
        f = make_flow(system)
        tr = build_transition(f, s, 1.0, 2)
        for m in range(2):
            d = grid_distances(s, tr.exact_images[m])[np.arange(s.n), tr.images[m]]
            assert d.max() <= s.resolution + 1e-9


def test_transition_clockwise_off_fixed_arc():
    s = build_grid("circle", 256)
    f = make_flow("circle")
    tr = build_transition(f, s, 1.0, 1)
    u = 1                    # just clockwise of the fixed point at 0
    img = tr.image[u]
    assert 1 < img < 96      # moved strictly clockwise, not past C


def test_transition_rejects_bad_args():
    s = build_grid("circle", 8)
    f = make_flow("identity")
    with pytest.raises(ValueError):
        build_transition(f, s, 0.0, 2)
    with pytest.raises(ValueError):
        build_transition(f, s, 1.0, 0)


# -- custom sampled flows --------------------------------------------------


def test_sampled_flow_round_trip(tmp_path):
    s = build_grid("circle", 8)
    f = make_flow("circle")
    tr = build_transition(f, s, 1.0, 2)
    path = tmp_path / "flow.csv"
    with open(path, "w") as fh:
        fh.write("point_index,m,image_index\n")
        for m in range(1, 3):
            for u in range(s.n):
                fh.write(f"{u},{m},{tr.images[m - 1, u]}\n")
    flow2, tr2 = load_sampled_transition(path, s, 1.0, 2)
    assert flow2.kind == "custom-sampled"
    assert np.array_equal(tr2.images, tr.images)
    assert tr2.exact_images is None


def test_sampled_flow_rejects_incomplete(tmp_path):
    s = build_grid("circle", 8)
    path = tmp_path / "flow.csv"
    path.write_text("point_index,m,image_index\n0,1,0\n")
    with pytest.raises(ValueError, match="incomplete"):
        load_sampled_transition(path, s, 1.0, 1)


def test_sampled_flow_rejects_bad_header(tmp_path):
    s = build_grid("circle", 8)
    path = tmp_path / "flow.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(ValueError, match="header"):
        load_sampled_transition(path, s, 1.0, 1)
