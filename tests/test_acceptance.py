"""Acceptance suite: one test per criterion, printed pass lines included.

Run with ``pytest tests/test_acceptance.py -v -s``.  The three reference
pipelines (circle 256, square 32x32, roof 48x48) are session fixtures
shared by the criteria that inspect their outputs.
"""

import time
import warnings

import numpy as np
import pytest

from scrl.chaingraph import graph_from_edges, min_return_cost_all, omega_budget
from scrl.cli import (COMMANDS, RunConfig, build_bundle, floyd_warshall_reference,
                      run_pipeline, stage_cr, stage_scr)
from scrl.lyapunov import sup_along_orbit
from scrl.space import build_grid
from scrl.stablesets import (StablePair, avoidance_profile, complementary,
                             find_eta0_and_bstar, grid_image_orbit,
                             nested_neighborhoods, omega_limits_all)

from oracles import min_return_cost_oracle, omega_oracle, quadrature_bound, random_digraph

EPS_SWEEP = [0.02, 0.05, 0.1]
S_MAX = 20.0


def _report(name, detail):
    print(f"\n[acceptance] {name}: PASS  ({detail})")


def _analyze(system, tmp_path_factory):
    out = tmp_path_factory.mktemp(system)
    return run_pipeline(RunConfig(system=system), out, COMMANDS["analyze"])


@pytest.fixture(scope="session")
def circle_run(tmp_path_factory):
    return _analyze("circle", tmp_path_factory)


@pytest.fixture(scope="session")
def square_run(tmp_path_factory):
    return _analyze("square", tmp_path_factory)


@pytest.fixture(scope="session")
def roof_run(tmp_path_factory):
    return _analyze("roof", tmp_path_factory)


def _run_of(name, circle_run, square_run, roof_run):
    return {"circle": circle_run, "square": square_run, "roof": roof_run}[name]


# -- criterion 1: oracle equivalence ----------------------------------------


def _limited(costs, limit):
    """Reference return costs under a cost limit: +inf above it."""
    return np.where(costs <= limit, costs, np.inf)


def test_criterion_1_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    for trial in range(100):
        n, edges = random_digraph(rng, max_nodes=200)
        g = graph_from_edges(n, edges)
        dist = floyd_warshall_reference(n, edges)
        ref = min_return_cost_oracle(n, edges, dist=dist)
        assert np.array_equal(min_return_cost_all(g), ref)
        costs = np.unique(ref[np.isfinite(ref)])
        if costs.size:                 # a limit that some cycle costs exactly
            limit = float(costs[costs.size // 2])
            assert np.array_equal(min_return_cost_all(g, limit), _limited(ref, limit))
        eps = float(rng.uniform(0.1, 2.0))
        Y = sorted(set(rng.integers(0, n, 3).tolist()))
        assert np.array_equal(omega_budget(g, Y, eps),
                              omega_oracle(n, edges, Y, eps, dist=dist))

    for system in ("circle", "square", "roof"):
        cfg = RunConfig(system=system, grid_n=16 if system != "circle" else 256,
                        epsilon=0.1)
        bundle = build_bundle(cfg)
        raw = bundle.graph
        # dyadic weights make both computations exact in floating point
        q = np.round(raw.edge_w * 2.0 ** 30) / 2.0 ** 30
        edges = list(zip(raw.edge_u.tolist(), raw.edge_v.tolist(), q.tolist()))
        g = graph_from_edges(raw.n, edges, resolution=raw.resolution)
        dist = floyd_warshall_reference(raw.n, edges)
        ref = min_return_cost_oracle(raw.n, edges, dist=dist)
        assert np.array_equal(min_return_cost_all(g), ref)
        assert np.array_equal(min_return_cost_all(g, 0.1), _limited(ref, 0.1))
        Y = [0, raw.n // 2]
        assert np.array_equal(omega_budget(g, Y, 0.1),
                              omega_oracle(raw.n, edges, Y, 0.1, dist=dist))

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report("criterion 1 (oracle equivalence)",
            f"100 random digraphs + 3 example grids exact in {elapsed:.1f}s")


# -- criterion 2: inclusion and monotonicity sweeps ---------------------------


@pytest.mark.parametrize("system", ["circle", "square", "roof"])
def test_criterion_2_sweeps(system):
    start = time.perf_counter()
    cfg = RunConfig(system=system, epsilon=min(EPS_SWEEP), epsilons=EPS_SWEEP)
    bundle = build_bundle(cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        scrs = stage_scr(bundle, EPS_SWEEP)
        crs = stage_cr(bundle, EPS_SWEEP)
    members = [set(r.members.tolist()) for r in scrs]
    for small, big in zip(members, members[1:]):
        assert small <= big
    cr_sets = [set(crs[e].tolist()) for e in sorted(crs)]
    for small, big in zip(cr_sets, cr_sets[1:]):
        assert small <= big
    for r, e in zip(scrs, sorted(crs)):
        assert set(r.members.tolist()) <= set(crs[e].tolist())
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(f"criterion 2 ({system})",
            f"SCR within CR and both monotone over eps {EPS_SWEEP} in {elapsed:.1f}s")


# -- criterion 3: roof recurrence hugs the periodic strip ---------------------


def test_criterion_3_roof_strip(roof_run):
    _, result = roof_run
    bundle, scr = result["bundle"], result["scr"]
    assert scr.epsilon == 0.05
    space = bundle.space
    x = space.points[:, 0]
    strip_gap = np.maximum(np.abs(x - 0.5) - 0.1, 0.0)
    members = scr.members
    assert members.size > 0
    assert np.all(strip_gap[members] <= 2 * space.pitch)
    nonstrip = np.nonzero(strip_gap > 0)[0]
    excluded = np.setdiff1d(nonstrip, members)
    frac = excluded.size / nonstrip.size
    assert frac >= 0.90
    _report("criterion 3 (roof strip)",
            f"members within 2 cells of the strip, {frac:.1%} of non-strip excluded")


# -- criterion 4: square complementary of the origin cell ---------------------


def test_criterion_4_square_complementary(square_run):
    _, result = square_run
    bundle = result["bundle"]
    space, tr = bundle.space, bundle.tr
    orbit = bundle.orbit
    tails, flags = omega_limits_all(space, orbit)
    origin = int(space.nearest(np.array([[0.0, 0.0]]))[0])
    got = set(complementary(space, tr, [origin], tails, flags).tolist())

    x = space.points[:, 0]
    col = np.rint(x / space.pitch - 0.5).astype(int)
    expected = set(np.nonzero(col >= 1)[0].tolist())
    mismatch = got ^ expected
    assert all(col[i] <= 1 for i in mismatch)
    _report("criterion 4 (square complementary)",
            f"matches ((0,1] x [0,1]) with {len(mismatch)} deviations, "
            "all within one cell of the x=0 column")


# -- criterion 5: circle pair summand reproduces the known profile ------------


def test_criterion_5_circle_profile(circle_run):
    _, result = circle_run
    bundle = result["bundle"]
    space, tr = bundle.space, bundle.tr
    orbit = bundle.orbit
    theta = space.points[:, 0]

    B = np.nonzero((theta >= 0.875 - 1e-12) & (theta <= 0.9375 + 1e-12))[0]
    tails, flags = omega_limits_all(space, orbit)
    B_bullet = complementary(space, tr, B, tails, flags)
    R = 0.5
    nn = nested_neighborhoods(space, tr, B, R, list(np.geomspace(0.02, 0.125, 8)),
                              grid_image_orbit(tr, 200))
    assert not nn["failures"]
    prof = avoidance_profile(space, orbit, [B])[0]
    eta0, B_star = find_eta0_and_bstar(space, B, B_bullet, nn["T_table"], R, prof)
    pair = StablePair(B=B, B_bullet=B_bullet, R=R, eta0=eta0,
                      T_table=nn["T_table"], B_star=B_star)
    fld = sup_along_orbit([pair], space, orbit, s_max=S_MAX)[0]

    assert np.max(np.abs(fld.h_values[B])) <= 1e-6
    assert np.max(np.abs(1.0 - fld.h_values[B_star])) <= np.exp(-S_MAX) + 1e-6

    arc = np.nonzero(theta > 0.9375 + 1e-12)[0]      # open arc from E to B
    h_arc = fld.h_values[arc]
    assert np.all(np.diff(h_arc) > 0)

    # the attained values cover [0.05, 0.95] at grid granularity: on the
    # steep outflow arc adjacent cells are 1/16 apart in value, so every
    # target must have an attained value within half that spacing
    h_bullet = np.sort(fld.h_values[B_bullet])
    targets = np.linspace(0.05, 0.95, 181)
    worst = max(float(np.min(np.abs(h_bullet - v))) for v in targets)
    assert worst <= 0.04
    _report("criterion 5 (circle profile)",
            f"h zero on the core, one on avoiders, strictly increasing over "
            f"the outflow arc, covers [0.05, 0.95] within {worst:.4f}")


# -- criterion 6: combined function decreases off the recurrent set -----------


@pytest.mark.parametrize("system", ["circle", "square", "roof"])
def test_criterion_6_combined(system, circle_run, square_run, roof_run):
    _, result = _run_of(system, circle_run, square_run, roof_run)
    report = result["report"]
    n_pairs = report["n_pairs"]
    assert report["tol_num"] == 1e-6
    assert report["monotonicity_violations"] == []
    assert report["margin"] >= 1e-4 * 3.0 ** (-n_pairs)
    assert report["t_probe"] == 1.0
    assert report["strict_pass_fraction"] >= 0.99
    assert report["strict_failures_off_boundary"] == []
    _report(f"criterion 6 ({system})",
            f"0 monotonicity violations, strict decrease at "
            f"{report['strict_pass_fraction']:.1%} of {report['n_strict_universe']} points")


# -- criterion 7: cover soundness ---------------------------------------------


def test_criterion_7_cover(circle_run, square_run, roof_run):
    for name, run in (("circle", circle_run), ("square", square_run)):
        catalog = run[1]["catalog"]
        assert catalog.residual.size == 0, name
    roof_catalog = roof_run[1]["catalog"]
    residual = roof_catalog.residual
    if residual.size:
        # witnesses are reported and doubling the radius menu shrinks them
        bundle, scr = roof_run[1]["bundle"], roof_run[1]["scr"]
        from scrl.pairs import enumerate_pairs, select_cover
        from scrl.stablesets import default_eta_samples
        res = bundle.space.resolution
        doubled = [2 * res, 3 * res, 4 * res, 6 * res, 8 * res, 12 * res]
        bigger = enumerate_pairs(
            bundle.graph, bundle.tr, bundle.space, bundle.cfg.epsilon, doubled,
            4, scr, bundle.orbit, bundle.resolved["neighborhood_scale"], default_eta_samples())
        bigger = select_cover(bigger, scr, bundle.space)
        assert bigger.residual.size <= residual.size
    _report("criterion 7 (cover soundness)",
            f"residual 0 on circle and square; roof residual {residual.size}")


# -- criterion 8: numerical self-consistency ------------------------------------


@pytest.mark.parametrize("system", ["circle", "square", "roof"])
def test_criterion_8_self_consistency(system, circle_run, square_run, roof_run):
    from scrl.orbits import build_orbit_data

    _, result = _run_of(system, circle_run, square_run, roof_run)
    bundle, catalog = result["bundle"], result["catalog"]
    if not catalog.selected:
        pytest.skip("no pairs selected for this system")
    space, flow, T = bundle.space, bundle.flow, bundle.cfg.T
    pairs = [catalog.pairs[i] for i in catalog.selected]

    half = build_orbit_data(flow, space, T, fine_horizon=S_MAX + 4 * T,
                            horizon=60.0 * T, t_steps=60, fine_divisor=16)
    full = build_orbit_data(flow, space, T, fine_horizon=S_MAX + 4 * T,
                            horizon=60.0 * T, t_steps=60, fine_divisor=8)
    long_run = build_orbit_data(flow, space, T, fine_horizon=2 * S_MAX + 4 * T,
                                horizon=60.0 * T, t_steps=60)
    for pair in pairs:
        f_half = sup_along_orbit([pair], space, half, s_max=S_MAX)[0]
        f_full = sup_along_orbit([pair], space, full, s_max=S_MAX)[0]
        change = np.abs(f_half.h_values - f_full.h_values)
        assert np.all(change < quadrature_bound(f_full, full) + 1e-15)

        f_short = sup_along_orbit([pair], space, long_run, s_max=S_MAX)[0]
        f_long = sup_along_orbit([pair], space, long_run, s_max=2 * S_MAX)[0]
        assert np.max(np.abs(f_long.h_values - f_short.h_values)) <= np.exp(-S_MAX)
    _report(f"criterion 8 ({system})",
            f"quadrature and horizon changes bounded for {len(pairs)} pairs")
