import csv
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.csgraph import dijkstra
from hypothesis import given, settings, strategies as st

from scrl.chaingraph import (build_chain_graph, compute_cr, compute_scr, cycle_edges,
                             export_graph_csv, graph_from_edges, min_return_cost_all,
                             omega_budget)
from scrl.cli import RunConfig, build_bundle, stage_pairs, stage_scr
from scrl.flows import build_transition, make_flow
from scrl.space import build_grid

from oracles import (chain_enumeration_oracle, cr_oracle, grid_distances,
                     min_return_cost_oracle, omega_oracle, random_digraph)


@pytest.fixture(scope="module")
def identity_circle8():
    s = build_grid("circle", 8)
    f = make_flow("identity")
    tr = build_transition(f, s, 1.0, 1)
    return s, f, tr, build_chain_graph(s, tr, f, 0.2)


def _quiet_scr(g, eps, **kw):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return compute_scr(g, eps, **kw)


# -- synthetic graphs ------------------------------------------------------


SYNTH = [(0, 1, 0.1), (1, 2, 0.2), (2, 0, 0.3), (2, 3, 0.05), (3, 2, 0.05)]


def test_min_return_cost_synthetic():
    g = graph_from_edges(4, SYNTH)
    # frozen values, cross-checked against the brute-force reference below
    assert min_return_cost_all(g)[0] == pytest.approx(0.6)
    assert min_return_cost_all(g)[3] == pytest.approx(0.1)
    assert np.allclose(min_return_cost_all(g), min_return_cost_oracle(4, SYNTH))


def test_no_cycle_is_unreachable():
    g = graph_from_edges(3, [(0, 1, 0.5), (1, 2, 0.5)])
    assert np.isinf(min_return_cost_all(g)[0])


def test_negative_weight_rejected():
    with pytest.raises(ValueError):
        graph_from_edges(2, [(0, 1, -0.1)])


def test_oracle_equivalence_random_graphs():
    rng = np.random.default_rng(42)
    for _ in range(30):
        n, edges = random_digraph(rng, max_nodes=40)
        g = graph_from_edges(n, edges)
        assert np.array_equal(min_return_cost_all(g), min_return_cost_oracle(n, edges))
        eps = float(rng.uniform(0.2, 2.0))
        Y = sorted(set(rng.integers(0, n, 3).tolist()))
        assert np.array_equal(omega_budget(g, Y, eps), omega_oracle(n, edges, Y, eps))
        assert np.array_equal(omega_budget(g, Y, eps, closed=True),
                              omega_oracle(n, edges, Y, eps, closed=True))


def test_cr_against_scc_oracle():
    rng = np.random.default_rng(9)
    for _ in range(20):
        n, edges = random_digraph(rng, max_nodes=40)
        g = graph_from_edges(n, edges)
        eps = float(rng.uniform(0.2, 1.0))
        assert np.array_equal(compute_cr(g, eps), cr_oracle(n, edges, eps))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(0, 10 ** 6), st.floats(0.05, 0.5), st.floats(0.05, 0.5))
def test_epsilon_monotone_and_scr_in_cr(seed, e1, e2):
    rng = np.random.default_rng(seed)
    n, edges = random_digraph(rng, max_nodes=30)
    g = graph_from_edges(n, edges)
    lo, hi = sorted((e1, e2))
    small = set(_quiet_scr(g, lo).members.tolist())
    big = set(_quiet_scr(g, hi).members.tolist())
    assert small <= big
    assert small <= set(compute_cr(g, lo).tolist())
    y = int(rng.integers(0, n))
    assert set(omega_budget(g, [y], lo).tolist()) <= set(omega_budget(g, [y], hi).tolist())


# -- grid-backed graphs ----------------------------------------------------


def test_identity_circle_edges(identity_circle8):
    s, f, tr, g = identity_circle8
    sel = g.edge_u == 0
    got = sorted(zip(g.edge_v[sel].tolist(), g.edge_w[sel].tolist()))
    assert got == [(0, 0.0), (1, pytest.approx(0.125)), (7, pytest.approx(0.125))]
    # nearest-image edge has zero weight at every node
    for u in range(8):
        sel = (g.edge_u == u) & (g.edge_v == tr.image[u])
        assert g.edge_w[sel].min() == 0.0


def test_identity_scr_cr_all_nodes(identity_circle8):
    _, _, _, g = identity_circle8
    res = _quiet_scr(g, 0.05)
    assert np.array_equal(res.members, np.arange(8))
    assert np.array_equal(compute_cr(g, 0.05), np.arange(8))
    assert np.all(res.min_return_cost == 0)


def test_identity_omega_is_metric_ball(identity_circle8):
    s, _, _, g = identity_circle8
    got = omega_budget(g, [0], 0.3)
    d = s.dist_coords_to_subset(s.points, [0])
    assert np.array_equal(got, np.nonzero(d < 0.3)[0])


def test_forward_image_inclusion(identity_circle8):
    s, f, tr, g = identity_circle8
    Y = [2, 5]
    got = set(omega_budget(g, Y, 2 * s.resolution).tolist())
    for y in Y:
        assert tr.image[y] in got


def test_square_transition_edge_south():
    s = build_grid("unit-square", 16)
    f = make_flow("square")
    tr = build_transition(f, s, 1.0, 1)
    g = build_chain_graph(s, tr, f, 10 * s.resolution)
    u = int(s.nearest(np.array([[0.5, 0.5]]))[0])
    img = tr.image[u]
    assert s.points[img, 1] < s.points[u, 1]          # image lies south
    sel = (g.edge_u == u) & (g.edge_v == img)
    assert g.edge_w[sel].min() <= s.resolution


def test_square_16_scr_hugs_fixed_segments():
    s = build_grid("unit-square", 16)
    f = make_flow("square")
    tr = build_transition(f, s, 1.0, 4)
    g = build_chain_graph(s, tr, f, 10 * s.resolution)
    res = _quiet_scr(g, 0.1)
    ys = s.points[res.members, 1]
    # collar width at budget 0.1: a row returns in one jump of about
    # y - y(1), so membership stops near eps / (1 - 1/e) ~ 0.16
    assert np.all((ys <= 0.2) | (ys >= 0.8))
    assert 0 < len(res.members) < s.n
    # interior rows need a jump comparable to their height to return
    edges = list(zip(g.edge_u.tolist(), g.edge_v.tolist(), g.edge_w.tolist()))
    oracle = min_return_cost_oracle(s.n, edges)
    interior = np.nonzero((s.points[:, 1] > 0.25) & (s.points[:, 1] < 0.75))[0]
    assert np.all(oracle[interior] > 0.1)
    got = min_return_cost_all(g)
    assert np.allclose(got, oracle, rtol=0, atol=1e-12, equal_nan=True)


def test_omega_budget_vs_chain_enumeration():
    s = build_grid("unit-square", 8)
    f = make_flow("square")
    tr = build_transition(f, s, 1.0, 4)
    g = build_chain_graph(s, tr, f, 10 * s.resolution)
    edges = list(zip(g.edge_u.tolist(), g.edge_v.tolist(), g.edge_w.tolist()))
    Y = [int(s.nearest(np.array([[0.4, 0.0]]))[0])]
    eps = 0.08
    got = set(omega_budget(g, Y, eps).tolist())
    # chains of up to 4 jumps reach a subset of the full budgeted set
    four = set(chain_enumeration_oracle(s.n, edges, Y, eps, 4).tolist())
    assert four <= got
    full = set(omega_oracle(s.n, edges, Y, eps).tolist())
    assert got == full


def test_scr_cost_limited_matches_exact():
    s = build_grid("unit-square", 12)
    f = make_flow("square")
    tr = build_transition(f, s, 1.0, 2)
    g = build_chain_graph(s, tr, f, 10 * s.resolution)
    full = _quiet_scr(g, 0.1)
    limited = _quiet_scr(g, 0.1, cost_limit=0.1 + 10 * s.resolution)
    assert np.array_equal(full.members, limited.members)
    assert np.array_equal(full.band, limited.band)


def test_guards():
    s = build_grid("circle", 8)
    f = make_flow("identity")
    tr = build_transition(f, s, 1.0, 1)
    with pytest.raises(ValueError):
        build_chain_graph(s, tr, f, 2 * s.resolution)   # below 3 * resolution
    g = build_chain_graph(s, tr, f, 0.2)
    with pytest.raises(ValueError):
        compute_scr(g, 0.0)
    with pytest.raises(ValueError):
        compute_cr(g, -1.0)
    with pytest.raises(ValueError):
        omega_budget(g, [], 0.1)
    with pytest.raises(ValueError):
        omega_budget(g, [0], 0.0, closed=True)


def test_scr_warns_near_noise_floor(identity_circle8):
    _, _, _, g = identity_circle8
    with pytest.warns(UserWarning, match="noise floor"):
        compute_scr(g, 3 * g.resolution / 2)
    with pytest.warns(UserWarning, match="resolution-limited"):
        compute_scr(g, 5 * g.resolution)


def test_band_flags_threshold_nodes():
    g = graph_from_edges(3, [(0, 0, 0.1), (1, 1, 0.5), (2, 2, 0.101)],
                         resolution=0.001)
    res = _quiet_scr(g, 0.1)
    assert res.members.tolist() == []
    assert res.band.tolist() == [0, 2]


def test_determinism(identity_circle8):
    s, f, tr, _ = identity_circle8
    g1 = build_chain_graph(s, tr, f, 0.2)
    g2 = build_chain_graph(s, tr, f, 0.2)
    assert np.array_equal(g1.edge_u, g2.edge_u)
    assert np.array_equal(g1.edge_v, g2.edge_v)
    assert np.array_equal(g1.edge_w, g2.edge_w)


def test_export_import_round_trip(tmp_path, identity_circle8):
    _, _, _, g = identity_circle8
    path = tmp_path / "graph.csv"
    export_graph_csv(g, path)
    with open(path, newline="") as fh:
        edges = [(int(r["u"]), int(r["v"]), int(r["m"]), float(r["w"]))
                 for r in csv.DictReader(fh)]
    g2 = graph_from_edges(g.n, edges, resolution=g.resolution)
    assert np.array_equal(g.edge_u, g2.edge_u)
    assert np.array_equal(g.edge_v, g2.edge_v)
    assert np.array_equal(g.edge_m, g2.edge_m)
    assert np.array_equal(g.edge_w, g2.edge_w)


def test_custom_sampled_weights_carry_padding():
    s = build_grid("circle", 8)
    f = make_flow("circle")
    tr = build_transition(f, s, 1.0, 1)
    from scrl.flows import FlowModel, GridTransition
    sampled = GridTransition(T=1.0, m_max=1, images=tr.images.copy(), exact_images=None)
    g_exact = build_chain_graph(s, tr, f, 0.3)
    g_pad = build_chain_graph(s, sampled, FlowModel("custom-sampled", "circle"), 0.3)
    # padded self-image edge weight equals the resolution exactly
    for u in range(8):
        sel = (g_pad.edge_u == u) & (g_pad.edge_v == sampled.images[0, u])
        assert g_pad.edge_w[sel].min() == pytest.approx(s.resolution)


# -- fast paths against the reductions they replace --------------------------


def test_graph_from_edges_keeps_cheapest_edge_per_pair():
    rng = np.random.default_rng(11)
    for _ in range(40):
        n = int(rng.integers(1, 30))
        k = int(rng.integers(0, 4 * n * n))
        u = rng.integers(0, n, k)
        v = rng.integers(0, n, k)
        m = rng.integers(1, 5, k)
        w = rng.integers(0, 8, k) / 8.0          # many zeros and duplicate weights
        rows = list(zip(u.tolist(), v.tolist(), m.tolist(), w.tolist()))
        best = {}
        for uu, vv, mm, ww in rows:            # least weight, then lowest m
            if (uu, vv) not in best or (ww, mm) < best[uu, vv]:
                best[uu, vv] = (ww, mm)
        pairs = sorted(best)
        g = graph_from_edges(n, rows)
        assert g.edge_u.tolist() == [p[0] for p in pairs]
        assert g.edge_v.tolist() == [p[1] for p in pairs]
        assert g.edge_w.tolist() == [best[p][0] for p in pairs]
        assert g.edge_m.tolist() == [best[p][1] for p in pairs]
        ref = sp.csr_matrix((np.maximum(g.edge_w, 1e-300), (g.edge_u, g.edge_v)),
                            shape=(n, n))
        got = g.csr()
        assert np.array_equal(got.indptr, ref.indptr)
        assert np.array_equal(got.indices, ref.indices)
        assert np.array_equal(got.data, ref.data)


def _per_m_reference(space, tr, prune):
    """One full-table distance matrix per multiplier, then per (u, v) the
    least weight and the lowest m achieving it, in (u, v) order."""
    us, vs, ms, ws = [], [], [], []
    for m in range(1, tr.m_max + 1):
        if tr.exact_images is not None:
            dmat = grid_distances(space, tr.exact_images[m - 1])
        else:
            dmat = grid_distances(space, space.points[tr.images[m - 1]]) + space.resolution
        uu, vv = np.nonzero(dmat <= prune)
        us.append(uu)
        vs.append(vv)
        ms.append(np.full(uu.size, m))
        ws.append(dmat[uu, vv])
    u, v, m, w = (np.concatenate(a) for a in (us, vs, ms, ws))
    order = np.lexsort((m, w, v, u))
    u, v, m, w = u[order], v[order], m[order], w[order]
    first = np.ones(u.size, dtype=bool)
    first[1:] = (u[1:] != u[:-1]) | (v[1:] != v[:-1])
    return u[first], v[first], m[first], w[first]


@pytest.mark.parametrize("domain,system,n,sampled", [
    ("circle", "circle", 1100, False),        # three 512-row blocks
    ("unit-square", "square", 24, False),     # 576 points, two blocks
    ("roof", "roof", 14, False),
    ("roof", "roof", 26, False),              # past one block
    ("circle", "circle", 600, True),
    ("unit-square", "square", 12, True),
])
def test_build_chain_graph_matches_per_m_reference(domain, system, n, sampled):
    from scrl.flows import FlowModel, GridTransition
    s = build_grid(domain, n)
    f = make_flow(system)
    tr = build_transition(f, s, 1.0, 3)
    if sampled:
        tr = GridTransition(T=1.0, m_max=3, images=tr.images.copy(), exact_images=None)
        f = FlowModel("custom-sampled", domain)
    prune = 10 * s.resolution
    g = build_chain_graph(s, tr, f, prune)
    ref = _per_m_reference(s, tr, prune)
    for got, want in zip((g.edge_u, g.edge_v, g.edge_m, g.edge_w), ref):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


def _dense_return_costs(g, limit):
    """The n x n reduction: every edge reads w + D[v, u] from one matrix."""
    want = np.inf if limit is None else limit
    keep = g.edge_w <= want
    adj = sp.csr_matrix((np.maximum(g.edge_w[keep], 1e-300),
                         (g.edge_u[keep], g.edge_v[keep])), shape=(g.n, g.n))
    dist = dijkstra(adj, directed=True, limit=want)
    out = np.full(g.n, np.inf)
    np.minimum.at(out, g.edge_u, g.edge_w + dist[g.edge_v, g.edge_u])
    out[out > want] = np.inf
    return out


def _grid_graph(domain, system, n):
    s = build_grid(domain, n)
    f = make_flow(system)
    tr = build_transition(f, s, 1.0, 3)
    return build_chain_graph(s, tr, f, 10 * s.resolution)


@pytest.mark.parametrize("limit", [None, 0.1])
def test_chunked_return_costs_match_dense_reduction(limit):
    rng = np.random.default_rng(17)
    graphs = []
    for n in (5, 256, 257, 300, 700):             # one and several source chunks
        u = rng.integers(0, n, 4 * n)
        v = rng.integers(0, n, 4 * n)
        w = rng.integers(1, 2 ** 20, 4 * n) / 2.0 ** 24
        graphs.append(graph_from_edges(n, list(zip(u.tolist(), v.tolist(), w.tolist()))))
    graphs += [_grid_graph("circle", "circle", 300),
               _grid_graph("unit-square", "square", 18),     # 324 points
               _grid_graph("roof", "roof", 20)]              # 304 points
    for g in graphs:
        got = min_return_cost_all(g, limit)
        assert np.array_equal(got, _dense_return_costs(g, limit))
        if limit is not None and g.n > 5:
            assert 0 < np.isfinite(got).mean() < 1      # the limit cuts some cycles


def test_return_costs_never_hold_more_than_64_rows(monkeypatch):
    from scrl.chaingraph import ChainGraph
    rows = []
    original = ChainGraph.all_pairs

    def spy(self, *args, **kwargs):
        out = original(self, *args, **kwargs)
        rows.append(out.shape[0])
        return out

    monkeypatch.setattr(ChainGraph, "all_pairs", spy)
    g = _grid_graph("circle", "circle", 600)
    first = min_return_cost_all(g, 0.2)
    # one round of 8 landmarks forward and backward (it drops no edge, as
    # every edge is far below the limit), then the chunks of the 599
    # sources that have a useful in-edge
    assert rows == [8, 8, *[64] * 9, 23]
    assert max(rows[2:]) <= 64
    # a second budget at the same limit reads the cached costs
    assert np.array_equal(min_return_cost_all(g, 0.2), first)
    assert len(rows) == 12


def _edges_graph(n, u, v, w):
    return graph_from_edges(n, list(zip(np.asarray(u).tolist(), np.asarray(v).tolist(),
                                        np.asarray(w, dtype=float).tolist())))


def _attained_limits(g, count=4):
    """Limits equal to return costs of the full graph, so some cycles cost
    exactly the limit."""
    full = _dense_return_costs(g, None)
    costs = np.unique(full[np.isfinite(full)])
    return [float(c) for c in costs[np.linspace(0, costs.size - 1, count).astype(int)]]


def _pruning_case(name):
    """(graph, limits) for the landmark-pruned return-cost search."""
    rng = np.random.default_rng(sum(map(ord, name)))
    if name == "dyadic-exact-limit":
        # a ring of 0.25 + 0.25 + 0.25 plus a random graph on a coarse dyadic lattice
        n = 60
        u = np.r_[0, 1, 2, rng.integers(0, n, 180)]
        v = np.r_[1, 2, 0, rng.integers(0, n, 180)]
        w = np.r_[0.25, 0.25, 0.25, rng.integers(1, 32, 180) / 64.0]
        g = _edges_graph(n, u, v, w)
        return g, [0.75, *_attained_limits(g)]
    if name == "decimal-exact-limit":
        # decimal weights round, so a cycle at exactly the limit needs the slack
        n = 40
        u, v = rng.integers(0, n, 120), rng.integers(0, n, 120)
        g = _edges_graph(n, u, v, np.round(rng.uniform(0.01, 0.3, 120), 2))
        return g, _attained_limits(g, 8)
    if name == "disconnected":
        # two separate components and isolated nodes: most landmarks reach
        # nothing, and some ids reach no landmark
        n = 64
        a, b = rng.integers(0, 10, (2, 60))
        c, d = rng.integers(40, 64, (2, 90))
        g = _edges_graph(n, np.r_[a, c], np.r_[b, d], rng.integers(1, 2 ** 10, 150) / 2.0 ** 10)
        return g, [0.25, 0.5, *_attained_limits(g)]
    if name == "fewer-nodes-than-landmarks":
        graphs = []
        for n in range(1, 16):
            m = 3 * n
            graphs.append(_edges_graph(n, rng.integers(0, n, m), rng.integers(0, n, m),
                                       rng.integers(1, 2 ** 8, m) / 2.0 ** 8))
        return graphs, [0.3, 1.0]
    if name == "zero-weights-and-self-loops":
        n = 50
        u, v = rng.integers(0, n, 200), rng.integers(0, n, 200)
        v[:25] = u[:25]                                    # self-loops
        w = rng.integers(0, 2 ** 6, 200) / 2.0 ** 6
        w[::7] = 0.0
        g = _edges_graph(n, u, v, w)
        return g, [0.0, 2.0 ** -6, *_attained_limits(g)]
    if name == "several-chunks":
        graphs = []
        for n in (300, 700):
            u, v = rng.integers(0, n, 4 * n), rng.integers(0, n, 4 * n)
            graphs.append(_edges_graph(n, u, v, np.round(rng.uniform(0.001, 0.1, 4 * n), 3)))
        return graphs, [0.15, 0.3]
    if name == "cheap-loops-and-2-cycles":
        # caps below the limit: self-loops and 2-cycles on a random graph;
        # and a graph of zero caps only, a zero-weight self-loop and a
        # zero-weight 2-cycle whose return distance is stored as 1e-300
        n = 80
        u, v = rng.integers(0, n, 240), rng.integers(0, n, 240)
        w = np.round(rng.uniform(0.01, 0.3, 240), 2)
        a = rng.choice(n, 40, replace=False)
        loops = (a[:20], a[:20], np.round(rng.uniform(0.0, 0.1, 20), 2))
        twos = (np.r_[a[20:30], a[30:]], np.r_[a[30:], a[20:30]],
                np.round(rng.uniform(0.0, 0.05, 20), 2))
        g = _edges_graph(n, *(np.r_[x, y, z] for x, y, z in zip((u, v, w), loops, twos)))
        zeros = _edges_graph(3, [0, 1, 2], [1, 0, 2], [0.0, 0.0, 0.0])
        return [g, zeros], [0.25, 0.5, *_attained_limits(g)]
    if name == "useful-at-cap-slack":
        # 0 -> 1 with w + LB landing exactly on cap(0) + 1e-9: the loop at 0
        # sets cap(0) = 0.25, and with every node a landmark LB(1 -> 0) is
        # D[1, 0] = 0.125, so the edge is useful though its cycle is dearer
        a = (0.25 + 1e-9) - 0.125
        assert a + 0.125 == 0.25 + 1e-9
        g = _edges_graph(3, [0, 0, 1, 1, 2], [0, 1, 0, 2, 1], [0.25, a, 0.125, 0.0625, 0.0625])
        return g, [0.3, 0.5]
    if name == "only-self-loop-useful":
        # the loops set cap(0) = 0.01 and cap(1) = 0.02, below the edges
        # between them, so each source is searched only to its own loop
        g = _edges_graph(3, [0, 0, 1, 1, 2], [0, 1, 1, 0, 2], [0.01, 0.2, 0.02, 0.3, 0.0])
        return g, [0.1, 0.6]
    if name == "head-cannot-reach-tail":
        # 0 has a loop and an edge to 1, which has no way back.  Unlimited,
        # the edge is kept, but the landmark at 1 reaches nothing, so it
        # bounds D[1, 0] by the clipped lam (the largest float) and the edge
        # is not useful; under a limit the keep rule drops it
        g = _edges_graph(2, [0, 0], [0, 1], [0.5, 0.25])
        return g, [0.5, 1.0]
    if name == "nothing-within-the-limit":
        # every edge weighs more than the limit: no landmark is searched
        g = _edges_graph(4, [0, 1, 2, 3], [1, 2, 3, 0], [0.5, 0.5, 0.5, 0.5])
        return g, [0.25]
    if name == "reach-overflows":
        # 2 * limit is inf, so unclipped rows meet inf - inf
        n = 40
        g = _edges_graph(n, rng.integers(0, 20, 100), rng.integers(0, 20, 100),
                         rng.uniform(0.0, 1.0, 100))
        return g, [1e308]
    raise KeyError(name)


PRUNING_CASES = ["dyadic-exact-limit", "decimal-exact-limit", "disconnected",
                 "fewer-nodes-than-landmarks", "zero-weights-and-self-loops",
                 "several-chunks", "reach-overflows", "cheap-loops-and-2-cycles",
                 "useful-at-cap-slack", "only-self-loop-useful", "head-cannot-reach-tail",
                 "nothing-within-the-limit"]


def _case_graphs(name):
    graphs, limits = _pruning_case(name)
    graphs = graphs if isinstance(graphs, list) else [graphs]
    return [(g, limit) for g in graphs for limit in limits]


@pytest.mark.parametrize("case", PRUNING_CASES)
def test_pruned_return_costs_match_dense_reduction(case):
    finite = 0
    pairs = _case_graphs(case)
    unlimited = [(g, None) for g in {id(g): g for g, _ in pairs}.values()]
    for g, limit in pairs + unlimited:
        got = min_return_cost_all(g, limit)
        want = _dense_return_costs(g, limit)
        assert np.array_equal(got, want), (g.n, limit)
        finite += np.isfinite(want).sum()
    assert finite > 0


def _dense_distances(g, limit, reach=None, edges=None):
    """n x n distances over ``edges`` (by default those within ``limit``),
    searched up to ``reach`` (the limit by default)."""
    keep = g.edge_w <= limit if edges is None else edges
    adj = sp.csr_matrix((np.maximum(g.edge_w[keep], 1e-300),
                         (g.edge_u[keep], g.edge_v[keep])), shape=(g.n, g.n))
    return dijkstra(adj, directed=True, limit=limit if reach is None else reach)


def _spy_searches(monkeypatch):
    """Record the (sources, limit, adjacency) of every all_pairs call."""
    from scrl.chaingraph import ChainGraph
    calls = []
    original = ChainGraph.all_pairs

    def spy(self, limit=None, sources=None, adjacency=None):
        calls.append((np.asarray(sources).tolist(), limit, adjacency))
        return original(self, limit, sources=sources, adjacency=adjacency)

    monkeypatch.setattr(ChainGraph, "all_pairs", spy)
    return calls


def _round_grids():
    return [(_grid_graph("circle", "circle", 300), 0.1),
            (_grid_graph("unit-square", "square", 18), 0.1),
            (_grid_graph("roof", "roof", 20), 0.3)]


@pytest.mark.parametrize("case", [*PRUNING_CASES, "grids"])
def test_cycle_edges_keep_every_edge_within_the_limit(case, monkeypatch):
    """Every edge of a cycle within the limit is in every round's graph
    and among the kept edges, and the return costs are the dense ones."""
    calls = _spy_searches(monkeypatch)
    pairs = _round_grids() if case == "grids" else _case_graphs(case)
    for g, limit in pairs:
        dist = _dense_distances(g, limit)
        needed = np.flatnonzero(g.edge_w + dist[g.edge_v, g.edge_u] <= limit)
        calls.clear()
        kept = cycle_edges(g, limit)[0]
        for _, _, adj in calls[::2]:         # each round's forward graph
            assert np.all(adj.toarray()[g.edge_u[needed], g.edge_v[needed]] > 0)
        assert np.all(np.diff(kept) > 0)
        assert np.all(g.edge_w[kept] <= limit)
        assert np.all(np.isin(needed, kept)), (g.n, limit)
        assert np.array_equal(min_return_cost_all(g, limit), _dense_return_costs(g, limit))
        if case == "grids":                  # and the landmarks do prune
            assert kept.size < 0.8 * np.count_nonzero(g.edge_w <= limit)


ROUND_OFFSETS = (0, 1 / 2, 1 / 4, 3 / 4, 1 / 8, 5 / 8, 3 / 8, 7 / 8)


def _round_landmarks(n, offset, landmarks=8):
    """The landmark ids of one round: evenly spaced, shifted by ``offset``
    of their spacing."""
    return np.unique(np.floor((np.arange(landmarks) + offset) * n / landmarks).astype(int))


def _landmark_rounds_reference(g, limit, landmarks=8):
    """The documented rounds rule with dense n x n distances and dense
    (landmarks, edges) arrays: the edge ids each round starts with, the
    edges kept at the end, and every edge's bound (never below 0)."""
    lam = min(2 * limit, np.finfo(float).max)
    x, y = g.edge_u, g.edge_v
    kept = np.flatnonzero(g.edge_w <= limit)
    bound = np.zeros(g.n_edges)
    rounds = []
    for offset in ROUND_OFFSETS:
        if kept.size == 0:
            break
        rounds.append(kept)
        marks = _round_landmarks(g.n, offset, landmarks)
        dist = np.minimum(_dense_distances(g, limit, lam, edges=kept), lam)   # clipped to lam
        fwd = dist[marks][:, x] - dist[marks][:, y]        # D[L, x] - D[L, y]
        bwd = dist[y][:, marks] - dist[x][:, marks]        # D[y, L] - D[x, L]
        bound = np.maximum(bound, np.maximum(fwd.max(axis=0), bwd.max(axis=1)))
        kept = kept[g.edge_w[kept] + bound[kept] <= limit + 1e-9]
        if rounds[-1].size - kept.size < rounds[-1].size / 16:
            break
    return rounds, kept, bound


def test_cycle_edges_follow_the_keep_rule():
    # 0 -> 1 -> 0 whose weight plus bound lands exactly on limit + 1e-9:
    # kept by the rule, though the cycle itself is over the limit
    a = (0.25 + 1e-9) - 0.125
    assert a + 0.125 == 0.25 + 1e-9
    g = _edges_graph(2, [0, 1], [1, 0], [a, 0.125])
    assert np.array_equal(cycle_edges(g, 0.25)[0], [0, 1])
    assert np.isinf(min_return_cost_all(g, 0.25)).all()
    pairs = [(g, 0.25), (_grid_graph("circle", "circle", 300), 0.1)]
    for case in ("dyadic-exact-limit", "decimal-exact-limit", "disconnected",
                 "zero-weights-and-self-loops"):
        pairs += _case_graphs(case)
    for g, limit in pairs:
        kept, bound = cycle_edges(g, limit)
        _, want, want_bound = _landmark_rounds_reference(g, limit)
        assert np.array_equal(kept, want)
        assert np.allclose(bound, want_bound[kept], rtol=0, atol=1e-12)


def _ring_per_round():
    """64 nodes in 8 rings of 8, ring s through the ids 8k + s, and a zero
    self-loop at every node: each round's landmarks fill one ring, bound
    its edges exactly and drop the ring (a cycle of 1 > limit 0.5).  The
    first round drops 8 of 128 edges, exactly 1/16, so a second follows;
    every round drops 8 edges and the rounds end at the cap."""
    ids = np.arange(64)
    u = np.r_[ids, ids]
    v = np.r_[(ids + 8) % 64, ids]
    return _edges_graph(64, u, v, np.r_[np.full(64, 0.125), np.zeros(64)]), 0.5


def test_each_round_searches_the_edges_the_last_one_kept(monkeypatch):
    calls = _spy_searches(monkeypatch)
    pairs = [_ring_per_round(), *_round_grids()]
    for case in PRUNING_CASES:
        pairs += _case_graphs(case)
    several = stopped = 0
    for g, limit in pairs:
        calls.clear()
        kept = cycle_edges(g, limit)[0]
        starts, want, _ = _landmark_rounds_reference(g, limit)
        assert np.array_equal(kept, want)
        assert len(calls) == 2 * len(starts) <= 16
        lam = min(2 * limit, np.finfo(float).max)
        for r, start in enumerate(starts):
            (fsources, flimit, fwd), (bsources, blimit, bwd) = calls[2 * r:2 * r + 2]
            marks = _round_landmarks(g.n, ROUND_OFFSETS[r]).tolist()
            assert fsources == bsources == marks and flimit == blimit == lam
            # round r searches exactly the edges kept after round r - 1,
            # forward and reversed
            fwd, bwd = fwd.tocoo(), bwd.tocoo()
            assert np.array_equal(fwd.row, g.edge_u[start])
            assert np.array_equal(fwd.col, g.edge_v[start])
            assert np.array_equal(fwd.data, np.maximum(g.edge_w[start], 1e-300))
            assert sorted(zip(bwd.col, bwd.row)) == sorted(zip(fwd.row, fwd.col))
        sizes = [start.size for start in starts] + [kept.size]
        for begin, end in zip(sizes[:-2], sizes[1:-1]):
            assert begin - end >= begin / 16          # all but the last drop at least 1/16
        if len(starts):
            begin, end = sizes[-2:]
            assert begin - end < begin / 16 or len(starts) == 8 or end == 0
            stopped += begin - end < begin / 16
        several += len(starts) > 1
    assert several > 0 and stopped > 0
    g, limit = pairs[0]
    starts, kept, _ = _landmark_rounds_reference(g, limit)
    assert [start.size for start in starts] == [128 - 8 * r for r in range(8)]
    assert np.array_equal(g.edge_u[kept], g.edge_v[kept]) and kept.size == 64
    assert np.array_equal(min_return_cost_all(g, limit), np.zeros(64))


def _depth_rule_reference(g, limit, chunk=64):
    """(sources, reach) of each return-cost search under the documented
    depth rule, edge by edge in plain Python; no limit is limit +inf."""
    want = np.inf if limit is None else limit
    _, kept, bound = _landmark_rounds_reference(g, want)
    edges = [(int(g.edge_u[e]), int(g.edge_v[e]), g.edge_w[e], bound[e]) for e in kept]
    weight = {(u, v): w for u, v, w, _ in edges}
    cap = [want] * g.n
    for u, v, w, _ in edges:
        cycle = w if u == v else w + weight.get((v, u), np.inf)
        cap[u] = min(cap[u], cycle)
    need = {}
    for u, v, w, lb in edges:
        if w + lb <= cap[u] + 1e-9:
            need[v] = max(need.get(v, -np.inf), cap[u] - w)
    order = sorted(need, key=lambda v: (need[v], v))
    return [(order[lo:lo + chunk], min(want, need[order[lo:lo + chunk][-1]] + 1e-9))
            for lo in range(0, len(order), chunk)]


@pytest.mark.parametrize("case", ["dyadic-exact-limit", "decimal-exact-limit", "disconnected",
                                  "zero-weights-and-self-loops", "several-chunks",
                                  "cheap-loops-and-2-cycles", "useful-at-cap-slack",
                                  "only-self-loop-useful", "head-cannot-reach-tail",
                                  "nothing-within-the-limit", "grids"])
def test_return_cost_searches_follow_the_depth_rule(case, monkeypatch):
    from scrl.chaingraph import ChainGraph
    calls = []
    original = ChainGraph.all_pairs

    def spy(self, limit=None, sources=None, adjacency=None):
        calls.append((np.asarray(sources).tolist(), limit))
        return original(self, limit, sources=sources, adjacency=adjacency)

    monkeypatch.setattr(ChainGraph, "all_pairs", spy)
    if case == "grids":
        pairs = [(_grid_graph("circle", "circle", 300), 0.1),
                 (_grid_graph("unit-square", "square", 18), 0.1)]
    else:
        pairs = _case_graphs(case)
    pairs += [(g, None) for g in {id(g): g for g, _ in pairs}.values()]
    shallow = skipped = 0
    for g, limit in {(id(g), limit): (g, limit) for g, limit in pairs}.values():
        calls.clear()                     # once per limit: a repeat reads the cache
        min_return_cost_all(g, limit)
        rounds = _landmark_rounds_reference(g, np.inf if limit is None else limit)[0]
        landmarks = calls[:2 * len(rounds)]          # forward and backward per round
        assert all(len(sources) <= 8 for sources, _ in landmarks)
        want = _depth_rule_reference(g, limit)
        assert calls[2 * len(rounds):] == want, (g.n, limit)
        shallow += sum(reach < (np.inf if limit is None else limit) for _, reach in want)
        skipped += g.n - sum(len(sources) for sources, _ in want)
    assert shallow > 0 or skipped > 0      # the rule does cut searches
    if case == "only-self-loop-useful":
        assert _depth_rule_reference(*pairs[0]) == [([0, 1, 2], 1e-9)]
    if case == "head-cannot-reach-tail":
        g = pairs[0][0]
        kept, bound = cycle_edges(g, np.inf)
        assert kept.tolist() == [0, 1] and bound[1] == np.finfo(float).max
        # only the loop is useful, so 1 is not searched and 0 only to its loop
        assert _depth_rule_reference(g, None) == [([0], 1e-9)]
        assert np.array_equal(min_return_cost_all(g), [0.5, np.inf])


def test_all_pairs_limit_matches_unpruned_search():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n, edges = random_digraph(rng, max_nodes=60)
        g = graph_from_edges(n, edges)
        every = np.arange(n)
        full = g.all_pairs(np.inf, sources=every, adjacency=g.csr())
        limit = float(rng.uniform(0.05, 1.5))
        got = g.all_pairs(limit, sources=every, adjacency=g.csr(limit))
        within = full <= limit
        assert np.array_equal(got[within], full[within])
        assert np.all(np.isinf(got[~within]))


# -- budgeted reachability without an n x n matrix ----------------------------


def test_reach_cost_is_summed_in_chain_order():
    # (0.1 + 0.2) + 0.3 == 0.6000000000000001, while 0.1 + (0.2 + 0.3) == 0.6:
    # the chain 0 -> 1 -> 2 -> 3 costs just over a closed budget of 0.6
    g = graph_from_edges(4, [(0, 1, 0.1), (1, 2, 0.2), (2, 3, 0.3)])
    assert omega_budget(g, [0], 0.6, closed=True).tolist() == [1, 2]
    assert omega_budget(g, [0], 0.6000000000000001, closed=True).tolist() == [1, 2, 3]


@pytest.fixture(scope="module", params=["square", "roof"])
def grid16_searches(request):
    """stage_scr and stage_pairs at grid 16, recording the rows of every
    array that Dijkstra returns (a 1-D array is one row) and every
    omega_budget call of the seed balls with its result."""
    import scrl.chaingraph
    import scrl.stablesets
    rows, calls = [], []

    def dijkstra_spy(*args, **kwargs):
        out = dijkstra(*args, **kwargs)
        rows.append(1 if out.ndim == 1 else out.shape[0])
        return out

    def omega_spy(g, Y, epsilon, closed=False):
        W = omega_budget(g, Y, epsilon, closed=closed)
        calls.append((np.asarray(Y), epsilon, closed, W))
        return W

    bundle = build_bundle(RunConfig(system=request.param, grid_n=16))
    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
        warnings.simplefilter("ignore")
        mp.setattr(scrl.chaingraph, "dijkstra", dijkstra_spy)
        mp.setattr(scrl.stablesets, "omega_budget", omega_spy)
        stage_pairs(bundle, stage_scr(bundle, [bundle.cfg.epsilon])[0])
    return bundle.graph, rows, calls


def test_pipeline_searches_never_hold_more_than_64_rows(grid16_searches):
    g, rows, calls = grid16_searches
    assert g.n > 64 and calls
    assert max(rows) <= 64


def test_seed_ball_reach_matches_first_jump_plus_distance_rows(grid16_searches):
    """Each W equals the least first jump out of the seed ball plus a row
    of the full budget-limited distance matrix."""
    g, _, calls = grid16_searches
    dist = {}
    for Y, eps, closed, W in calls:
        if eps not in dist:
            dist[eps] = dijkstra(g.csr(eps), directed=True, limit=eps)
        first = np.isin(g.edge_u, Y)
        seed = np.full(g.n, np.inf)
        np.minimum.at(seed, g.edge_v[first], g.edge_w[first])
        starts = np.flatnonzero(np.isfinite(seed))
        total = (seed[starts, None] + dist[eps][starts]).min(axis=0, initial=np.inf)
        assert np.array_equal(W, np.flatnonzero(total <= eps if closed else total < eps))


def _singleton_union(g, Y, eps, closed):
    return np.unique(np.concatenate(
        [omega_budget(g, [y], eps, closed=closed) for y in np.unique(Y)]))


def test_seed_ball_reach_is_the_union_of_point_reaches(grid16_searches):
    """W(C) = union of W({c}) over c in C: the identity that lets the seed
    sweep drop a seed after a failed certificate."""
    g, _, calls = grid16_searches
    for Y, eps, _, _ in calls[::8]:
        for closed in (False, True):
            assert np.array_equal(omega_budget(g, Y, eps, closed=closed),
                                  _singleton_union(g, Y, eps, closed))


def test_reach_union_with_zero_weights_and_attained_budgets():
    rng = np.random.default_rng(19)
    ties = 0
    for _ in range(30):
        n, edges = random_digraph(rng, max_nodes=40)
        edges = [(u, v, 0.0 if rng.random() < 0.3 else w) for u, v, w in edges]
        g = graph_from_edges(n, edges)
        C = np.unique(rng.integers(0, n, int(rng.integers(1, 6))))
        # reach costs as omega_budget sums them: least reach to u, then one jump
        adj = g.csr().tocoo()
        reach = dijkstra(adj, directed=True, indices=C, min_only=True)
        total = np.full(n, np.inf)
        np.minimum.at(total, adj.col, reach[adj.row] + adj.data)
        costs = np.unique(total[np.isfinite(total)])
        for eps in costs[costs > 0][::3]:
            strict, closed = (omega_budget(g, C, eps, closed=c) for c in (False, True))
            ties += not np.array_equal(strict, closed)
            assert np.array_equal(strict, _singleton_union(g, C, eps, False))
            assert np.array_equal(closed, _singleton_union(g, C, eps, True))
    assert ties > 0
