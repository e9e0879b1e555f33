import warnings

import numpy as np
import pytest

import scrl.pairs
import scrl.stablesets
from scrl.chaingraph import build_chain_graph, compute_scr, omega_budget
from scrl.cli import RunConfig, build_bundle, stage_pairs, stage_scr
from scrl.flows import build_transition, make_flow
from scrl.orbits import build_orbit_data
from scrl.pairs import PairCatalog, default_radii, enumerate_pairs, seed_balls, select_cover
from scrl.space import GridSpace, build_grid
from scrl.stablesets import build_strongly_stable, default_eta_samples, find_eta0_and_bstar

from oracles import seed_sweep_reference, settle_reference


def build_all(system, domain, n, epsilon, prune=None, m_max=4):
    s = build_grid(domain, n)
    f = make_flow(system)
    tr = build_transition(f, s, 1.0, m_max)
    g = build_chain_graph(s, tr, prune or max(10 * s.resolution, 1.25 * epsilon))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        scr = compute_scr(g, epsilon)
    orbit = build_orbit_data(f, s, 1.0, fine_horizon=24.0, horizon=100.0, t_steps=100)
    return s, f, tr, g, scr, orbit


def run_enumeration(parts, epsilon, radii=None, stride=1, eta_count=16):
    s, f, tr, g, scr, orbit = parts
    if radii is None:
        radii = default_radii(s.resolution)
    return enumerate_pairs(g, tr, s, epsilon, radii, stride, scr, orbit,
                           s.diameter, default_eta_samples(eta_count),
                           t_cap_steps=100)


@pytest.fixture(scope="module")
def square_parts():
    return build_all("square", "unit-square", 16, 0.05)


@pytest.fixture(scope="module")
def square_catalog(square_parts):
    catalog = run_enumeration(square_parts, 0.05)
    return select_cover(catalog, square_parts[4], square_parts[0])


def test_identity_catalog_empty():
    parts = build_all("identity", "circle", 16, 0.1, prune=0.3, m_max=1)
    catalog = run_enumeration(parts, 0.1)
    assert catalog.pairs == []
    done = select_cover(catalog, parts[4], parts[0])
    assert done.selected == [] and done.residual.size == 0


def test_square_pairs_certified_and_sound(square_parts, square_catalog):
    s, f, tr, g, scr, orbit = square_parts
    catalog = square_catalog
    assert len(catalog.pairs) > 0
    member_mask = np.zeros(s.n, dtype=bool)
    member_mask[scr.members] = True
    for pair in catalog.pairs:
        # settled sets live in the bottom-segment collar
        assert np.all(s.points[pair.B, 1] <= 0.2)
        # disjointness and the seed-exclusion guarantee
        assert not np.any(np.isin(pair.B, pair.B_bullet))
        seed = pair.provenance["center"]
        union = np.union1d(pair.B, pair.B_bullet)
        closed = s.thicken(union, s.pitch)
        assert seed not in closed.tolist()
        # seed ball points settle into B, so none of them complement it
        d_seed = s.dist_coords_to_subset(s.points, [seed])
        ball = np.nonzero(d_seed <= pair.provenance["radius"] + 1e-12)[0]
        assert not np.any(np.isin(ball, pair.B_bullet))
    # grid form of the recurrent-set decomposition, per selected pair:
    # members must lie in the union band except inside the epsilon collar
    # of the fixed segments, where budget-recurrence outruns exact orbits
    # (a cell there returns for ~y - y(1) < eps yet drains to y = 0)
    collar = scr.epsilon / (1 - np.exp(-1.0)) + 3 * s.resolution
    for idx in catalog.selected:
        pair = catalog.pairs[idx]
        union = np.union1d(pair.B, pair.B_bullet)
        band = set(s.thicken(union, 3 * s.resolution).tolist())
        for m in scr.members:
            if int(m) in band:
                continue
            y = s.points[m, 1]
            assert min(y, 1 - y) <= collar


def test_pairs_match_per_pair_avoidance_profiles(square_parts, square_catalog):
    # eta0 and B_star from one orbit pass per pair, as before the profiles
    # of all pairs were batched
    s, f, tr, g, scr, orbit = square_parts
    assert len(square_catalog.pairs) > 1
    for pair in square_catalog.pairs:
        prof = np.full(s.n, np.inf)
        for j in orbit.t_rows:
            np.minimum(prof, s.dist_coords_to_subset(orbit.coords[j], pair.B), out=prof)
        star = find_eta0_and_bstar(s, pair.B, pair.B_bullet, pair.T_table, pair.R, prof)
        eta0, B_star = (None, []) if star is None else star
        assert pair.eta0 == eta0
        assert np.array_equal(pair.B_star, B_star)
    assert any(p.B_star.size for p in square_catalog.pairs)


def test_square_cover_residual_zero(square_catalog):
    # at 16x16 each narrow pair only excludes its own tube column, so the
    # greedy needs roughly one pair per column
    assert square_catalog.residual.size == 0
    assert 0 < len(square_catalog.selected) <= 16


def test_dedupe_keys_unique(square_catalog):
    assert len(set(square_catalog.dedupe_keys)) == len(square_catalog.dedupe_keys)


def test_seeds_only_outside_recurrent_set(square_parts, square_catalog):
    scr = square_parts[4]
    members = set(scr.members.tolist())
    for pair in square_catalog.pairs:
        assert pair.provenance["center"] not in members


def test_cover_monotone_in_radii(square_parts):
    s = square_parts[0]
    small = run_enumeration(square_parts, 0.05, radii=[2 * s.resolution])
    small = select_cover(small, square_parts[4], s)
    more = run_enumeration(square_parts, 0.05,
                           radii=[2 * s.resolution, 4 * s.resolution, 8 * s.resolution])
    more = select_cover(more, square_parts[4], s)
    assert more.residual.size <= small.residual.size


def test_cover_monotone_in_stride(square_parts):
    sparse = run_enumeration(square_parts, 0.05, stride=8)
    sparse = select_cover(sparse, square_parts[4], square_parts[0])
    dense = run_enumeration(square_parts, 0.05, stride=4)
    dense = select_cover(dense, square_parts[4], square_parts[0])
    assert dense.residual.size <= sparse.residual.size


def test_enumeration_deterministic(square_parts):
    a = run_enumeration(square_parts, 0.05, stride=4)
    b = run_enumeration(square_parts, 0.05, stride=4)
    assert a.dedupe_keys == b.dedupe_keys
    for pa, pb in zip(a.pairs, b.pairs):
        assert np.array_equal(pa.B, pb.B)
        assert np.array_equal(pa.B_bullet, pb.B_bullet)


def test_circle_pair_excludes_wandering_arcs():
    parts = build_all("circle", "circle", 64, 0.05, prune=0.1)
    s, f, tr, g, scr, orbit = parts
    catalog = run_enumeration(parts, 0.05, eta_count=24)
    catalog = select_cover(catalog, scr, s)
    assert len(catalog.pairs) >= 1
    assert catalog.residual.size == 0
    # intersection of the selected unions stays inside the recurrent band
    inter = np.ones(s.n, dtype=bool)
    for idx in catalog.selected:
        pair = catalog.pairs[idx]
        mask = np.zeros(s.n, dtype=bool)
        mask[np.union1d(pair.B, pair.B_bullet)] = True
        inter &= mask
    member_band = set(scr.members.tolist()) | set(scr.band.tolist()) \
        | set(s.thicken(scr.members, 3 * s.resolution).tolist())
    assert set(np.nonzero(inter)[0].tolist()) <= member_band


def test_radii_below_resolution_rejected(square_parts):
    s = square_parts[0]
    with pytest.raises(ValueError):
        run_enumeration(square_parts, 0.05, radii=[0.5 * s.resolution])
    with pytest.raises(ValueError):
        run_enumeration(square_parts, 0.05, radii=[])


def test_catalog_json_round_trip(square_catalog):
    back = PairCatalog.from_json(square_catalog.to_json())
    assert back.selected == square_catalog.selected
    assert back.dedupe_keys == square_catalog.dedupe_keys
    assert np.array_equal(back.residual, square_catalog.residual)
    for pa, pb in zip(back.pairs, square_catalog.pairs):
        assert np.array_equal(pa.B, pb.B)
        assert pa.T_table == pb.T_table


@pytest.mark.parametrize("system,domain,n", [("roof", "roof", 12), ("square", "unit-square", 16)])
def test_settled_sets_are_image_invariant(system, domain, n):
    # B is a union of image-map cycles, so image(B) lies in B itself and
    # complementary's invariance check never rejects a settled set
    s, f, tr, g, scr, _ = build_all(system, domain, n, 0.05)
    seeds = np.setdiff1d(np.arange(s.n), scr.members)
    settled = 0
    for radius in default_radii(s.resolution):
        for seed in seeds:
            try:
                B, _, _ = build_strongly_stable(g, tr, s, s.thicken([seed], radius), 0.05)
            except ValueError:
                continue
            assert np.all(np.isin(tr.image[B], B))
            settled += 1
    assert settled > 0


# -- the seed sweep against the per-seed loop ----------------------------------


def _bundle_with_scr(system, n):
    bundle = build_bundle(RunConfig(system=system, grid_n=n))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        scr = stage_scr(bundle, [bundle.cfg.epsilon])[0]
    return bundle, scr


@pytest.mark.parametrize("system,n", [("roof", 12), ("roof", 16), ("square", 12),
                                      ("square", 16), ("circle", 64)])
def test_seed_sweep_matches_per_seed_loop(system, n):
    bundle, scr = _bundle_with_scr(system, n)
    cfg, r = bundle.cfg, bundle.resolved
    got = stage_pairs(bundle, scr)
    ref = seed_sweep_reference(
        bundle.graph, bundle.tr, bundle.space, cfg.epsilon, r["radii"], r["seed_stride"],
        scr, bundle.orbit, r["neighborhood_scale"],
        default_eta_samples(cfg.eta_count, cfg.eta_lo, cfg.eta_hi), t_cap_steps=cfg.horizon_steps)
    ref = select_cover(ref, scr, bundle.space)
    assert len(got.pairs) == len(ref.pairs) > 0
    for a, b in zip(got.pairs, ref.pairs):
        assert np.array_equal(a.B, b.B) and np.array_equal(a.B_bullet, b.B_bullet)
        assert a.T_table == b.T_table and a.provenance == b.provenance
        assert a.eta0 == b.eta0 and np.array_equal(a.B_star, b.B_star)
    assert got.dedupe_keys == ref.dedupe_keys
    assert len(got.closures) == len(ref.closures)
    assert all(np.array_equal(a, b) for a, b in zip(got.closures, ref.closures))
    assert got.selected == ref.selected
    assert np.array_equal(got.residual, ref.residual)


def _attained_radii(s):
    """Two attained seed distances near the default radii, each with one ulp
    either side, and the radii whose ball cutoff r + 1e-12 lands on them."""
    d = next(s.dist_rows_to_subsets([s.points], [[0]]))[0]
    out = []
    for r in default_radii(s.resolution)[:2]:
        v = float(d[d >= r].min())
        for c in (v, v - 1e-12):
            out += [np.nextafter(c, -np.inf), c, np.nextafter(c, np.inf)]
    return sorted(out)


@pytest.mark.parametrize("domain,n", [("roof", 16), ("unit-square", 16), ("circle", 64)])
@pytest.mark.parametrize("radii", ["default", "attained"])
def test_seed_balls_match_thicken(domain, n, radii, monkeypatch):
    s = build_grid(domain, n)
    radii = default_radii(s.resolution) if radii == "default" else _attained_radii(s)
    seeds = np.arange(s.n)
    for per in (None, 7):                       # one block; blocks of 7 and a remainder
        if per:
            monkeypatch.setattr(scrl.pairs, "TABLE_BLOCK", per * s.n)
        balls = seed_balls(s, seeds, radii)
        assert len(balls) == len(radii)
        for r, row in zip(radii, balls):
            assert len(row) == s.n
            for seed, ball in zip(seeds, row):
                want = s.thicken([seed], r)
                assert ball.dtype == want.dtype and np.array_equal(ball, want)


@pytest.mark.parametrize("system,n", [("square", 16), ("roof", 20)])
def test_no_seed_is_searched_after_a_failed_certificate(system, n, monkeypatch):
    """The sweep tries seed i at radius k iff no smaller radius gave it a
    failed certificate, in radius-major order, with ball thicken([seed], r).
    A seed whose settled set escaped (roof 20 has such seeds) is tried again."""
    bundle, scr = _bundle_with_scr(system, n)
    s = bundle.space
    calls = []

    def spy(g, tr, space, C, epsilon):
        try:
            out = build_strongly_stable(g, tr, space, C, epsilon)
        except ValueError:
            calls.append((np.asarray(C), None))
            raise
        calls.append((np.asarray(C), out[1]))
        return out

    searches = []
    monkeypatch.setattr(scrl.pairs, "build_strongly_stable", spy)
    monkeypatch.setattr(scrl.stablesets, "omega_budget",
                        lambda g, Y, *a, **k: searches.append(Y) or omega_budget(g, Y, *a, **k))
    stage_pairs(bundle, scr)
    seeds = np.setdiff1d(np.arange(s.n), scr.members)[::bundle.resolved["seed_stride"]]
    failed, raised, retried, it = set(), set(), 0, iter(calls)
    for radius in sorted(bundle.resolved["radii"]):
        for seed in seeds:
            if seed in failed:
                continue
            C, certificate = next(it)
            assert np.array_equal(C, s.thicken([seed], radius))
            retried += seed in raised
            if certificate is None:
                raised.add(seed)
            elif not certificate:
                failed.add(seed)
    assert next(it, None) is None
    assert len(searches) == len(calls)
    assert failed and len(calls) < len(seeds) * len(bundle.resolved["radii"])
    assert retried > 0 or system != "roof"


@pytest.mark.parametrize("system,n", [("roof", 12), ("square", 16), ("circle", 64)])
def test_escape_query_covers_only_settled_points_outside_reach(system, n, monkeypatch):
    bundle, scr = _bundle_with_scr(system, n)
    s, g, tr, eps = bundle.space, bundle.graph, bundle.tr, bundle.cfg.epsilon
    queries = []
    original = GridSpace.dist_coords_to_subset

    def spy(self, pts, ids):
        queries.append((np.array(pts), np.asarray(ids)))
        return original(self, pts, ids)

    seeds = np.setdiff1d(np.arange(s.n), scr.members)
    outside = 0
    for radius in sorted(bundle.resolved["radii"]):
        for seed in seeds:
            C = s.thicken([seed], radius)
            try:
                want = settle_reference(g, tr, s, C, eps)
            except ValueError:
                want = None
            queries.clear()
            monkeypatch.setattr(GridSpace, "dist_coords_to_subset", spy)
            try:
                got = build_strongly_stable(g, tr, s, C, eps)
            except ValueError:
                got = None
            monkeypatch.undo()
            assert (got is None) == (want is None)
            if got is None:
                continue
            B, certificate, W = got
            assert np.array_equal(B, want[0]) and certificate == want[1]
            assert np.array_equal(W, want[2])
            off = np.setdiff1d(B, W)
            if off.size:
                outside += 1
                (pts, ids), = queries
                assert np.array_equal(pts, s.points[off]) and np.array_equal(ids, W)
            else:
                assert queries == []
    assert outside > 0 or system != "roof"      # roof 12 settles 2 seed balls off W
