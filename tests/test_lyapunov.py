import dataclasses
import warnings

import numpy as np
import pytest

from scrl import lyapunov
from scrl.chaingraph import ScrResult, build_chain_graph
from scrl.cli import RunConfig, build_bundle, stage_pairs, stage_scr
from scrl.flows import build_transition, make_flow
from scrl.lyapunov import combine_pairs, combined_at_shift, sup_along_orbit, verify_lyapunov
from scrl.orbits import build_orbit_data
from scrl.space import QUERY_BLOCK, build_grid, circle_gap
from scrl.stablesets import (StablePair, avoidance_profile, complementary,
                             find_eta0_and_bstar, grid_image_orbit,
                             nested_neighborhoods, omega_limits_all)

from oracles import grid_distances

S_MAX = 20.0


@pytest.fixture(scope="module")
def circle_system():
    s = build_grid("circle", 128)
    f = make_flow("circle")
    tr = build_transition(f, s, 1.0, 4)
    orbit = build_orbit_data(f, s, 1.0, fine_horizon=S_MAX + 4.0,
                             horizon=200.0, t_steps=200)
    return s, f, tr, orbit


@pytest.fixture(scope="module")
def matched_pair(circle_system):
    """The fixed-arc pair at the level scale matched to the arc gap."""
    s, f, tr, orbit = circle_system
    theta = s.points[:, 0]
    B = np.nonzero((theta >= 0.875 - 1e-12) & (theta <= 0.9375 + 1e-12))[0]
    tails, flags = omega_limits_all(s, orbit)
    Bb = complementary(s, tr, B, tails, flags)
    R = 0.5
    nn = nested_neighborhoods(s, tr, B, R, list(np.geomspace(0.02, 0.125, 6)),
                              grid_image_orbit(tr, 200))
    assert not nn["failures"]
    prof = avoidance_profile(s, orbit, [B])[0]
    eta0, B_star = find_eta0_and_bstar(s, B, Bb, nn["T_table"], R, prof)
    return StablePair(B=B, B_bullet=Bb, R=R, eta0=eta0,
                      T_table=nn["T_table"], B_star=B_star)


def _analyzed_pairs(system, n):
    """Space, orbit table and pair catalog of an analyze run."""
    bundle = build_bundle(RunConfig(system=system, grid_n=n))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        scr = stage_scr(bundle, [bundle.cfg.epsilon])[0]
    catalog = stage_pairs(bundle, scr)
    return bundle.space, bundle.ensure_orbit(), catalog


@pytest.fixture(scope="module")
def square20_catalog():
    """Square 20, whose cell centers are not dyadic."""
    return _analyzed_pairs("square", 20)


@pytest.fixture(scope="module")
def roof16_catalog():
    return _analyzed_pairs("roof", 16)


@pytest.fixture(scope="module")
def matched_field(matched_pair, circle_system):
    s, f, tr, orbit = circle_system
    return sup_along_orbit([matched_pair], s, orbit, s_max=S_MAX)[0]


# -- level function ----------------------------------------------------------


def test_level_zero_on_core_one_on_avoiders(matched_pair, matched_field, square20_catalog):
    s, orbit, catalog = square20_catalog
    square_pair = catalog.pairs[catalog.selected[0]]
    square_field = sup_along_orbit([square_pair], s, orbit, s_max=S_MAX)[0]
    for pair, fld in ((matched_pair, matched_field), (square_pair, square_field)):
        l = fld.l_values
        assert np.all(l[pair.B] == 0)
        assert np.all(l[pair.B_star] == 1)
        assert np.all((0 <= l) & (l <= 1))


def test_level_linear_in_distance(matched_pair, matched_field, circle_system):
    s = circle_system[0]
    l = matched_field.l_values
    scale = matched_pair.R * matched_pair.eta0
    d = s.dist_coords_to_subset(s.points, matched_pair.B)
    mid = np.nonzero(np.isclose(d, scale / 2))[0]
    assert mid.size > 0
    assert np.allclose(l[mid], 0.5)


@pytest.mark.parametrize("system", ["circle", "square", "roof"])
def test_level_values_match_grid_distance_oracle(system, request):
    # l = min(d(x, B) / (R * eta0), 1), with eta0 = 1 when no avoider level exists
    if system == "circle":
        s, _, _, orbit = request.getfixturevalue("circle_system")
        pair = request.getfixturevalue("matched_pair")
        pairs = [pair, dataclasses.replace(pair, eta0=None)]
    else:
        s, orbit, catalog = request.getfixturevalue(
            {"square": "square20_catalog", "roof": "roof16_catalog"}[system])
        pairs = catalog.pairs
    assert pairs
    D = grid_distances(s, s.points)
    for pair, fld in zip(pairs, sup_along_orbit(pairs, s, orbit, s_max=S_MAX)):
        eta0 = 1.0 if pair.eta0 is None else pair.eta0
        want = np.minimum(D[:, pair.B].min(axis=1) / (pair.R * eta0), 1.0)
        assert fld.l_values.tobytes() == want.tobytes()


# -- orbit supremum ------------------------------------------------------------


def test_k_zero_on_core_one_on_avoiders(matched_field, matched_pair):
    assert np.all(matched_field.k_values[matched_pair.B] == 0)
    assert np.all(matched_field.k_values[matched_pair.B_star] == 1)


def test_k_between_level_and_one(matched_field):
    assert np.all(matched_field.l_values <= matched_field.k_values + 1e-12)
    assert np.all(matched_field.k_values <= 1.0)


def test_k_monotone_along_flow(matched_field, circle_system):
    # one lattice step along the orbit can never raise the supremum
    orbit = circle_system[3]
    k = matched_field.k_series
    assert np.all(k[1] <= k[0] + 1e-12)
    shift = orbit.index_at(orbit.T / 4)
    assert np.all(k[shift] <= k[0] + 1e-12)


def test_k_matches_brute_force_supremum(circle_system):
    # independent check: dense orbit sampling of the level values for a
    # pair built around the attractor-side arc on a fiber-draining flow
    s, f, tr, orbit = circle_system
    theta = s.points[:, 0]
    B = np.nonzero((theta >= 0.875 - 1e-12) & (theta <= 0.9375 + 1e-12))[0]
    pair = StablePair(B=B, B_bullet=np.empty(0, dtype=np.int64), R=0.5,
                      eta0=0.125, T_table={0.125: 1.0},
                      B_star=np.empty(0, dtype=np.int64))
    fld = sup_along_orbit([pair], s, orbit, s_max=S_MAX)[0]
    rng = np.random.default_rng(2)
    for p in rng.integers(0, s.n, 12):
        ts = np.linspace(0, 60, 6001)
        pos = np.concatenate([f.evaluate(s.points[[p]], t) for t in ts])
        d = s.dist_coords_to_subset(pos, B)
        brute = np.minimum(d / (0.5 * 0.125), 1.0).max()
        assert fld.k_values[p] == pytest.approx(brute, abs=5e-3)


def test_uncertified_points_flagged():
    # roof strip points orbit forever; without an avoider level that
    # certifies truncation they carry the full slack bound
    s = build_grid("roof", 12)
    f = make_flow("roof")
    tr = build_transition(f, s, 1.0, 2)
    orbit = build_orbit_data(f, s, 1.0, fine_horizon=S_MAX + 4.0,
                             horizon=60.0, t_steps=60)
    strip = np.nonzero(np.abs(s.points[:, 0] - 0.5) <= 0.1)[0]
    pair = StablePair(B=strip, B_bullet=np.empty(0, dtype=np.int64),
                      R=1.0, eta0=None, T_table={}, B_star=np.empty(0, dtype=np.int64))
    fld = sup_along_orbit([pair], s, orbit, s_max=S_MAX)[0]
    assert not np.any(fld.certified)
    assert np.all(fld.tail_slack >= 0)
    assert np.all(fld.tail_slack <= 1)


# -- discounted integral -------------------------------------------------------


def test_h_zero_on_core(matched_field, matched_pair):
    assert np.max(np.abs(matched_field.h_values[matched_pair.B])) <= 1e-6


def test_h_one_on_avoiders(matched_field, matched_pair):
    gap = np.abs(1.0 - matched_field.h_values[matched_pair.B_star])
    assert gap.max() <= np.exp(-S_MAX) + 1e-6


def test_h_equals_constant_k_exactly(matched_field, matched_pair, circle_system):
    # fixed points have constant k along the orbit, so the exponentially
    # weighted rule integrates them exactly
    s = circle_system[0]
    theta = s.points[:, 0]
    fixed = np.nonzero((theta > 0.9375 + 1e-9) | np.isclose(theta, 0.375)
                       | np.isclose(theta, 0.625))[0]
    k = matched_field.k_values[fixed]
    assert np.allclose(matched_field.h_values[fixed], k, atol=1e-12)


def test_h_tracks_closed_form_on_outflow_arc(matched_field, circle_system):
    # along the fixed arc between the avoider gap, the summand equals
    # gap-fraction interpolation between the arc ends exactly
    s = circle_system[0]
    theta = s.points[:, 0]
    arc = np.nonzero((theta > 0.9375 + 1e-12))[0]
    h = matched_field.h_values[arc]
    dE = circle_gap(theta[arc], 0.9375)
    dB = circle_gap(theta[arc], 0.0)
    assert np.allclose(h, dE / (dE + dB), atol=1e-9)
    assert np.all(np.diff(h) > 0)


def test_h_in_unit_interval(matched_field):
    assert np.all(matched_field.h_values >= 0)
    assert np.all(matched_field.h_values <= 1.0 + 1e-12)


def test_quadrature_self_consistency(matched_pair, circle_system):
    # halving the quadrature step moves h by less than the advertised bound
    s, f, tr, _ = circle_system
    fine = build_orbit_data(f, s, 1.0, fine_horizon=S_MAX + 4.0,
                            horizon=200.0, t_steps=200, fine_divisor=16)
    coarse = build_orbit_data(f, s, 1.0, fine_horizon=S_MAX + 4.0,
                              horizon=200.0, t_steps=200, fine_divisor=8)
    f_half = sup_along_orbit([matched_pair], s, fine, s_max=S_MAX)[0]
    f_full = sup_along_orbit([matched_pair], s, coarse, s_max=S_MAX)[0]
    change = np.abs(f_half.h_values - f_full.h_values)
    assert np.all(change < f_full.quad_bound + 1e-15)


def test_truncation_soundness(matched_pair, circle_system):
    # doubling the integration horizon moves h by at most exp(-S_max)
    s, f, tr, _ = circle_system
    orbit = build_orbit_data(f, s, 1.0, fine_horizon=2 * S_MAX + 4.0,
                             horizon=200.0, t_steps=200)
    f_short = sup_along_orbit([matched_pair], s, orbit, s_max=S_MAX)[0]
    f_long = sup_along_orbit([matched_pair], s, orbit, s_max=2 * S_MAX)[0]
    assert np.max(np.abs(f_long.h_values - f_short.h_values)) <= np.exp(-S_MAX)


# -- combination ----------------------------------------------------------------


def test_combine_trivial_cases(matched_field):
    n = matched_field.h_values.size
    zero = combine_pairs([], n)
    assert zero.n_pairs == 0
    assert np.array_equal(zero.H_values, np.zeros(n))
    one = combine_pairs([matched_field], n)
    assert np.array_equal(one.H_values, matched_field.h_values)


def test_combine_same_field_twice(matched_field):
    both = combine_pairs([matched_field, matched_field], matched_field.h_values.size)
    assert np.allclose(both.H_values, (4.0 / 3.0) * matched_field.h_values, atol=1e-15)


def test_combined_bounded(matched_field):
    both = combine_pairs([matched_field, matched_field], matched_field.h_values.size)
    assert np.all(both.H_values <= 1.5)


# -- verification -----------------------------------------------------------------


def test_verify_constant_h_identity_clean():
    s = build_grid("circle", 16)
    f = make_flow("identity")
    tr = build_transition(f, s, 1.0, 1)
    g = build_chain_graph(s, tr, f, 0.3)
    orbit = build_orbit_data(f, s, 1.0, fine_horizon=S_MAX + 4.0,
                             horizon=50.0, t_steps=50)
    from scrl.chaingraph import compute_scr
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        scr = compute_scr(g, 0.1)
    report = verify_lyapunov([], [], s, orbit, scr, t_probe=1.0, margin=1e-4)
    assert report["monotonicity_violations"] == []
    assert report["strict_failures"] == []
    assert report["n_strict_universe"] == 0


def test_verify_flags_constant_h_off_recurrent(matched_field, circle_system):
    # a constant summand cannot strictly decrease anywhere
    s, f, tr, orbit = circle_system
    from scrl.lyapunov import LyapunovField
    const = LyapunovField(
        pair_index=0,
        l_values=np.full(s.n, 0.5), k_values=np.full(s.n, 0.5),
        h_values=np.full(s.n, 0.5), tail_slack=np.zeros(s.n),
        certified=np.ones(s.n, dtype=bool), quad_bound=np.zeros(s.n),
        k_series=np.full((orbit.times.size, s.n), 0.5), s_max=S_MAX)

    nothing = np.arange(0)
    scr = ScrResult(epsilon=0.05, min_return_cost=np.full(s.n, np.inf),
                    members=nothing, band=nothing)
    report = verify_lyapunov([const], [], s, orbit, scr, t_probe=1.0, margin=1e-4)
    assert report["monotonicity_violations"] == []
    assert len(report["strict_failures"]) == report["n_strict_universe"] == s.n


def test_verify_monotone_via_shifts(matched_field, matched_pair, circle_system):
    s, f, tr, orbit = circle_system
    h_now = matched_field.h_values
    h_then = combined_at_shift([matched_field], orbit, 2.0)
    assert np.all(h_then <= h_now + 1e-12)


def test_verify_requires_probe_at_least_T(matched_field, matched_pair, circle_system):
    s, f, tr, orbit = circle_system

    class FakeScr:
        members = np.arange(0)
        band = np.arange(0)

    with pytest.raises(ValueError):
        verify_lyapunov([matched_field], [matched_pair], s, orbit, FakeScr(),
                        t_probe=0.25, margin=1e-4)


def _assert_same_fields(got, want):
    assert got.pair_index == want.pair_index
    for name in ("l_values", "k_values", "h_values", "tail_slack", "certified",
                 "quad_bound", "k_series"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes(), name
    assert (got.eta0_effective, got.s_max) == (want.eta0_effective, want.s_max)


def _roof12_pairs():
    s = build_grid("roof", 12)
    orbit = build_orbit_data(make_flow("roof"), s, 1.0, fine_horizon=S_MAX + 4.0,
                             horizon=60.0, t_steps=60)
    x = s.points[:, 0]
    empty = np.empty(0, dtype=np.int64)
    strip = StablePair(B=np.nonzero(np.abs(x - 0.5) <= 0.1)[0], B_bullet=empty, R=1.0,
                       eta0=0.5, T_table={0.05: 4.0, 0.2: 10.0, 0.4: 2.0, 0.8: 1.0},
                       B_star=empty)
    left = StablePair(B=np.nonzero(x < 0.3)[0], B_bullet=empty, R=0.8, eta0=None,
                      T_table={0.3: 6.0}, B_star=empty)
    corner = StablePair(B=np.array([0, 5]), B_bullet=empty, R=1.2, eta0=0.25,
                        T_table={0.1: 3.0, 0.25: 1.0}, B_star=empty)
    return s, orbit, [strip, left, corner]


def test_batched_sup_along_orbit_matches_single_pairs_roof():
    s, orbit, pairs = _roof12_pairs()
    batched = sup_along_orbit(pairs, s, orbit, s_max=S_MAX)
    assert [f.pair_index for f in batched] == [0, 1, 2]
    assert 0 < batched[1].certified.sum() < s.n      # both certificate branches run
    for rank, (pair, fld) in enumerate(zip(pairs, batched)):
        single = sup_along_orbit([pair], s, orbit, s_max=S_MAX)[0]
        single.pair_index = rank
        _assert_same_fields(fld, single)


def test_batched_sup_along_orbit_matches_single_pairs_circle(matched_pair, circle_system):
    s, f, tr, orbit = circle_system
    theta = s.points[:, 0]
    other = StablePair(B=np.nonzero(np.abs(theta - 0.375) < 0.05)[0],
                       B_bullet=np.empty(0, dtype=np.int64), R=0.5, eta0=0.125,
                       T_table={0.05: 2.0, 0.125: 1.0}, B_star=np.empty(0, dtype=np.int64))
    pairs = [matched_pair, other, matched_pair]
    batched = sup_along_orbit(pairs, s, orbit, s_max=S_MAX)
    for rank, (pair, fld) in enumerate(zip(pairs, batched)):
        single = sup_along_orbit([pair], s, orbit, s_max=S_MAX)[0]
        single.pair_index = rank
        _assert_same_fields(fld, single)
    assert sup_along_orbit([], s, orbit, s_max=S_MAX) == []


def test_sup_along_orbit_cutoff_keeps_roof16_fields(roof16_catalog, monkeypatch):
    # the selected pairs of roof 16 analyze, on its orbit table
    s, orbit, catalog = roof16_catalog
    pairs = [catalog.pairs[i] for i in catalog.selected]
    assert pairs
    evaluated = []                              # seam entries each window evaluates
    window = s.seam.window

    def counted_window(pts, bound, env):
        rows, start, entry, via = window(pts, bound, env)
        evaluated.append(entry.size)
        return rows, start, entry, via

    monkeypatch.setattr(s.seam, "window", counted_window)
    fast = sup_along_orbit(pairs, s, orbit, s_max=S_MAX)
    pruned, evaluated[:] = sum(evaluated), []
    rows = s.dist_rows_to_subsets
    monkeypatch.setattr(s, "dist_rows_to_subsets",
                        lambda pts, id_sets, cutoff=np.inf: rows(pts, id_sets))
    full = sup_along_orbit(pairs, s, orbit, s_max=S_MAX)
    assert pruned < sum(evaluated)              # the cutoff did narrow the windows
    for got, want in zip(fast, full):
        _assert_same_fields(got, want)


@pytest.mark.parametrize("system,domain,n", [("roof", "roof", 12),
                                             ("square", "unit-square", 10),
                                             ("circle", "circle", 96)])
def test_sup_along_orbit_stacks_whole_rows(system, domain, n, monkeypatch):
    s = build_grid(domain, n)
    orbit = build_orbit_data(make_flow(system), s, 1.0, fine_horizon=S_MAX + 4.0,
                             horizon=60.0, t_steps=60)
    x = s.points[:, 0]
    empty = np.empty(0, dtype=np.int64)
    pairs = [StablePair(B=np.nonzero(x < 0.3)[0], B_bullet=empty, R=1.0, eta0=0.5,
                        T_table={0.1: 4.0, 0.5: 1.0}, B_star=empty),
             StablePair(B=np.array([0, s.n // 2]), B_bullet=empty, R=0.6, eta0=None,
                        T_table={0.2: 3.0}, B_star=empty)]
    sizes = []
    rows = s.dist_rows_to_subsets

    def counted_rows(blocks, id_sets, cutoff=np.inf):
        def seen():
            for pts in blocks:
                sizes.append(pts.shape[0])
                yield pts
        return rows(seen(), id_sets, cutoff)

    monkeypatch.setattr(s, "dist_rows_to_subsets", counted_rows)
    J = orbit.times.size
    per = QUERY_BLOCK // s.n
    assert J % per                               # the last block is a remainder
    stacked = sup_along_orbit(pairs, s, orbit, s_max=S_MAX)
    assert sizes == [per * s.n] * (J // per) + [J % per * s.n]
    assert max(sizes) <= QUERY_BLOCK
    assert sup_along_orbit([], s, orbit, s_max=S_MAX) == []
    monkeypatch.setattr(lyapunov, "QUERY_BLOCK", 1)      # one orbit row per call
    sizes[:] = []
    single = sup_along_orbit(pairs, s, orbit, s_max=S_MAX)
    assert sizes == [s.n] * J
    for got, want in zip(stacked, single):
        _assert_same_fields(got, want)
