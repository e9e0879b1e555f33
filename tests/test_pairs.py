import warnings

import numpy as np
import pytest

from scrl.chaingraph import build_chain_graph, compute_scr
from scrl.flows import build_transition, make_flow
from scrl.orbits import build_orbit_data
from scrl.pairs import PairCatalog, default_radii, enumerate_pairs, select_cover
from scrl.space import build_grid
from scrl.stablesets import build_strongly_stable, default_eta_samples, find_eta0_and_bstar


def build_all(system, domain, n, epsilon, prune=None, m_max=4):
    s = build_grid(domain, n)
    f = make_flow(system)
    tr = build_transition(f, s, 1.0, m_max)
    g = build_chain_graph(s, tr, f, prune or max(10 * s.resolution, 1.25 * epsilon))
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
