"""Brute-force references, kept independent of the fast paths under test."""

import functools

import numpy as np

from scrl.cli import floyd_warshall_reference


def min_return_cost_oracle(n, edges, dist=None):
    if dist is None:
        dist = floyd_warshall_reference(n, edges)
    out = np.full(n, np.inf)
    for e in edges:
        u, v, w = int(e[0]), int(e[1]), float(e[-1])
        out[u] = min(out[u], w + dist[v, u])
    return out


def omega_oracle(n, edges, Y, eps, closed=False, dist=None):
    if dist is None:
        dist = floyd_warshall_reference(n, edges)
    Y = set(int(y) for y in Y)
    first = np.full(n, np.inf)
    for e in edges:
        u, v, w = int(e[0]), int(e[1]), float(e[-1])
        if u in Y:
            first[v] = min(first[v], w)
    best = (first[:, None] + dist).min(axis=0)
    hit = best <= eps if closed else best < eps
    return np.nonzero(hit)[0]


def chain_enumeration_oracle(n, edges, Y, eps, max_steps):
    """Endpoints reachable by chains of at most max_steps jumps, cost < eps."""
    adj = {}
    for e in edges:
        u, v, w = int(e[0]), int(e[1]), float(e[-1])
        adj.setdefault(u, []).append((v, w))
    frontier = {}
    for y in Y:
        for v, w in adj.get(int(y), []):
            if w < eps and w < frontier.get(v, float("inf")):
                frontier[v] = w
    reached = dict(frontier)
    for _ in range(max_steps - 1):
        nxt = {}
        for u, cost in frontier.items():
            for v, w in adj.get(u, []):
                c = cost + w
                if c < eps and c < reached.get(v, float("inf")) and c < nxt.get(v, float("inf")):
                    nxt[v] = c
        for v, c in nxt.items():
            if c < reached.get(v, float("inf")):
                reached[v] = c
        frontier = nxt
        if not frontier:
            break
    return np.asarray(sorted(reached), dtype=np.int64)


def scc_oracle(n, edges):
    """Kosaraju strongly connected components, iterative DFS."""
    fwd = [[] for _ in range(n)]
    rev = [[] for _ in range(n)]
    for e in edges:
        u, v = int(e[0]), int(e[1])
        fwd[u].append(v)
        rev[v].append(u)
    order = []
    seen = [False] * n
    for s in range(n):
        if seen[s]:
            continue
        stack = [(s, iter(fwd[s]))]
        seen[s] = True
        while stack:
            node, it = stack[-1]
            advanced = False
            for nb in it:
                if not seen[nb]:
                    seen[nb] = True
                    stack.append((nb, iter(fwd[nb])))
                    advanced = True
                    break
            if not advanced:
                order.append(node)
                stack.pop()
    label = [-1] * n
    comp = 0
    for s in reversed(order):
        if label[s] != -1:
            continue
        stack = [s]
        label[s] = comp
        while stack:
            node = stack.pop()
            for nb in rev[node]:
                if label[nb] == -1:
                    label[nb] = comp
                    stack.append(nb)
        comp += 1
    return np.asarray(label)


def cr_oracle(n, edges, eps):
    """Chain recurrent nodes: in an SCC with an internal edge, per-jump budget."""
    kept = [(int(e[0]), int(e[1])) for e in edges if float(e[-1]) < eps]
    label = scc_oracle(n, kept)
    sizes = np.bincount(label, minlength=label.max() + 1 if n else 0)
    out = set(int(i) for i in range(n) if sizes[label[i]] >= 2)
    out.update(u for u, v in kept if u == v)
    return np.asarray(sorted(out), dtype=np.int64)


def max_projection_gap(space, samples):
    """Worst distance from sample coords to the nearest grid point."""
    worst = 0.0
    for lo in range(0, samples.shape[0], 2048):
        d = space.dist_coords_to_subset(samples[lo:lo + 2048], np.arange(space.n))
        worst = max(worst, float(d.max()))
    return worst


def direct_distances(pts, grid):
    """(k, n) Euclidean distances by the textbook difference formula."""
    return np.sqrt(((pts[:, None, :] - grid[None, :, :]) ** 2).sum(-1))


def _full_min_plus(a, b, rows=16):
    """min over k of a[r, k] + b[k, c], as one reduction over every k."""
    return np.concatenate([(a[lo:lo + rows, :, None] + b[None]).min(axis=1)
                           for lo in range(0, a.shape[0], rows)])


def _seam_entry(seam, pts):
    """(k, m) cost from each point to each seam sample: the nearer of the
    sample's top and bottom copies."""
    return np.minimum(direct_distances(pts, seam.top), direct_distances(pts, seam.bot))


@functools.lru_cache(maxsize=8)
def seam_closure(seam):
    """(m, m) seam-to-seam distances: Floyd-Warshall over the cheapest of
    the four Euclidean costs between the top and bottom copies of two
    samples."""
    copies = (seam.top, seam.bot)
    d = np.min([direct_distances(a, b) for a in copies for b in copies], axis=0)
    np.fill_diagonal(d, 0.0)
    for k in range(d.shape[0]):
        d = np.minimum(d, d[:, k:k + 1] + d[k:k + 1, :])
    return d


def through_seam(space, pts):
    """(k, n) roof distances that cross the seam, over full tables: every
    seam sample enters every minimum, with entry costs the nearer of the
    sample's top and bottom copies and seam-to-grid costs closed over
    every sample (``seam_closure``)."""
    to_grid = _full_min_plus(seam_closure(space.seam), _seam_entry(space.seam, space.points).T)
    return _full_min_plus(_seam_entry(space.seam, np.atleast_2d(pts)), to_grid)


def grid_distances(space, pts):
    """(k, n) distances from query coords to every grid point, from full
    tables (``through_seam`` on the roof)."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    if space.domain == "circle":
        gap = np.abs(pts[:, :1] % 1.0 - space.points[None, :, 0] % 1.0)
        return np.minimum(gap, 1.0 - gap)
    d = direct_distances(pts, space.points)
    if space.domain == "roof":
        np.minimum(d, through_seam(space, pts), out=d)
    return d


def pair_distance(space, a, b):
    """Distance between two coordinate tuples, symmetric bit for bit: on the
    roof the two entry costs are summed before the seam closure is added."""
    a, b = (np.asarray(p, dtype=float).reshape(1, -1) for p in (a, b))
    if space.domain == "circle":
        gap = abs(a[0, 0] % 1.0 - b[0, 0] % 1.0)
        return float(min(gap, 1.0 - gap))
    direct = float(direct_distances(a, b)[0, 0])
    if space.domain != "roof":
        return direct
    ea, eb = _seam_entry(space.seam, a)[0], _seam_entry(space.seam, b)[0]
    return min(direct, float(((ea[:, None] + eb[None, :]) + seam_closure(space.seam)).min()))


def quadrature_bound(fld, orbit):
    """Error bound of the discounted-integral quadrature of ``fld`` on the
    lattice of ``orbit``, with S = fld.s_max and dt its widest step up to S:
    0.5 * dt * (k(0) - e^{-S} k(S)) + e^{-S} per grid point."""
    S, k = fld.s_max, fld.k_series
    t = orbit.times[orbit.times <= S + 1e-9]
    return 0.5 * np.diff(t).max() * (k[0] - np.exp(-S) * k[t.size - 1]) + np.exp(-S)


def lyapunov_reference(pairs, space, orbit, s_max, shifts):
    """The summands over the whole orbit table: levels of every orbit row
    from uncut distances one row at a time, suffix maxima over all J rows,
    and the quadrature with one ``index_at`` lookup per row.  Returns each
    pair's (J, n) k and, for each shift, each pair's h and their H."""
    scales = [pair.R * (1.0 if pair.eta0 is None else pair.eta0) for pair in pairs]
    levels = np.array(list(space.dist_rows_to_subsets(orbit.coords, [p.B for p in pairs])))
    levels = np.minimum(levels / np.array(scales)[None, :, None], 1.0)
    ks = [np.maximum.accumulate(levels[::-1, i], axis=0)[::-1] for i in range(len(pairs))]
    times = orbit.times
    fine = np.nonzero(times <= s_max + 1e-9)[0]
    t = times[fine]
    expt = np.exp(-t)
    w0 = expt[:-1] - expt[1:]
    dt = np.diff(t)
    slope_weight = (w0 - dt * expt[1:]) / dt
    hs, Hs = {}, {}
    for shift in shifts:
        rows = np.array([orbit.index_at(times[j] + shift) for j in fine])
        hs[shift] = []
        for k in ks:
            kr = k[rows]
            seg = kr[:-1] * w0[:, None] + (kr[1:] - kr[:-1]) * slope_weight[:, None]
            hs[shift].append(seg.sum(axis=0) + np.exp(-s_max) * kr[-1])
        Hs[shift] = np.zeros(space.n)
        for i, h in enumerate(hs[shift]):
            Hs[shift] += h * 3.0 ** (-i)
    return ks, hs, Hs


def random_digraph(rng, max_nodes=200):
    n = int(rng.integers(4, max_nodes + 1))
    n_edges = max(1, int(n * rng.uniform(1.0, 6.0)))
    u = rng.integers(0, n, n_edges)
    v = rng.integers(0, n, n_edges)
    w = rng.integers(1, 2 ** 20, n_edges) / 2.0 ** 20
    return n, list(zip(u.tolist(), v.tolist(), w.tolist()))


def settle_reference(g, tr, space, C, epsilon):
    """``build_strongly_stable`` with the escape query over all of B."""
    from scrl.chaingraph import omega_budget
    from scrl.stablesets import omega_limit_of_set

    C = np.asarray(sorted(set(int(c) for c in C)), dtype=np.int64)
    if C.size == 0:
        raise ValueError("seed set C must be nonempty")
    W = omega_budget(g, C, epsilon, closed=True)
    if W.size == 0:
        raise ValueError("closed-budget reachable set is empty; cannot settle")
    B = omega_limit_of_set(tr, W)
    certificate = not np.any(np.isin(C, W))
    d = space.dist_coords_to_subset(space.points[B], W)
    if np.any(d > space.resolution + 1e-9):
        raise ValueError("settled set escapes the resolution thickening of its reachable set")
    return B, certificate, W


def seed_sweep_reference(g, tr, space, epsilon, radii, seed_stride, scr, orbit, R,
                         eta_samples, t_cap_steps=200):
    """``enumerate_pairs`` as a plain loop: every seed at every radius, its
    ball from ``thicken([seed], r)`` and its settled set from
    ``settle_reference``."""
    import hashlib

    from scrl.pairs import PairCatalog
    from scrl.stablesets import (StablePair, avoidance_profile, complementary,
                                 find_eta0_and_bstar, grid_image_orbit,
                                 nested_neighborhoods, omega_limits_all)

    radii = sorted(float(r) for r in radii)
    seeds = np.setdiff1d(np.arange(space.n), scr.members)[::seed_stride]
    tails, nonconv = omega_limits_all(space, orbit)
    grid_orbit = grid_image_orbit(tr, t_cap_steps)
    catalog = PairCatalog()
    seen, seen_B, found = set(), set(), []
    for radius in radii:
        for seed in seeds:
            try:
                B, certificate, W = settle_reference(g, tr, space, space.thicken([seed], radius),
                                                     epsilon)
            except ValueError:
                continue
            if not certificate:
                continue
            b_key = hashlib.sha1(B.astype(np.int64).tobytes()).hexdigest()
            if b_key in seen_B:
                continue
            seen_B.add(b_key)
            B_bullet = complementary(space, tr, B, tails, nonconv)
            closed = space.thicken(np.union1d(B, B_bullet), space.pitch)
            key = hashlib.sha1(closed.astype(np.int64).tobytes()).hexdigest()
            if key in seen:
                continue
            nn = nested_neighborhoods(space, tr, B, R, eta_samples, grid_orbit)
            if nn["failures"]:
                continue
            seen.add(key)
            found.append((B, B_bullet, nn["T_table"],
                          {"center": int(seed), "radius": radius,
                           "epsilon": epsilon, "T": tr.T}))
            catalog.dedupe_keys.append(key)
            catalog.closures.append(closed)
    profiles = avoidance_profile(space, orbit, [B for B, *_ in found])
    for (B, B_bullet, T_table, provenance), prof in zip(found, profiles):
        star = find_eta0_and_bstar(space, B, B_bullet, T_table, R, prof)
        eta0, B_star = (None, np.empty(0, dtype=np.int64)) if star is None else star
        catalog.pairs.append(StablePair(B=B, B_bullet=B_bullet, R=R, eta0=eta0,
                                        T_table=T_table, B_star=B_star,
                                        provenance=provenance))
    return catalog
