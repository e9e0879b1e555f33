"""Weighted jump-cost digraph over a grid transition.

An edge (u, v) with multiplier m and weight w records that flowing from
grid point u for time m*T and then jumping to v costs w = d(phi_{mT}(u), v).
A path through this graph whose weights sum below a budget is a strong
chain at that budget with all flow times in {T, ..., m_max*T}; cycle
costs therefore decide strong chain recurrence, per-edge thresholds plus
strong connectivity decide classical chain recurrence, and one
budget-limited Dijkstra from a whole seed set, summing each chain in chain
order, realizes the budgeted reachability operator with no n x n matrix.
All of these read only the cheapest edge per (u, v), so the graph keeps
just that one.

Return costs search a smaller graph: an edge (x, y, w) is kept iff
w + LB <= limit + 1e-9, where LB is a landmark lower bound on the return
distance D[y, x] (with no limit, the limit is +inf and every edge is
kept).  The bounds are raised in rounds, each searching new landmarks on
the edges the earlier rounds kept.  Every edge of a cycle within the
limit satisfies w + D[y, x] <= limit on every round's graph, so no round
drops it, and the shortest paths that close those cycles are all still
there; a bound found on a graph still bounds the distances of the
smaller graph searched in the end.  The costs within the limit are
exact, bit for bit.  Reachability and classical chain recurrence keep
the full graph.

Each Dijkstra source of the return costs then runs only as deep as a
cycle it closes could beat one its target already has.  cap(u), the
least of the limit, u's self-loop and its 2-cycles, bounds u's cost from
above, since the search finds D[u, u] = 0 and D[v, u] <= w(v, u).  The
edge attaining u's cost has w + LB <= w + D[v, u] <= cap(u), so only
edges with w + LB <= cap(u) + 1e-9 are read, and a source v is searched
to the largest cap(u) - w over those edges into it (plus the same
slack).  Distances within a search limit are exact, so the costs stay
bit for bit the same.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components, dijkstra

from .flows import FlowModel, GridTransition
from .space import GridSpace


@dataclass(eq=False)
class ChainGraph:
    """Immutable edge set with one edge per (u, v), sorted by (u, v): its
    least weight and the lowest multiplier m achieving it.  Adjacency and
    return-cost results are cached lazily."""

    n: int
    T: float
    m_max: int
    prune_radius: float
    resolution: float
    edge_u: np.ndarray = field(repr=False)
    edge_v: np.ndarray = field(repr=False)
    edge_m: np.ndarray = field(repr=False)
    edge_w: np.ndarray = field(repr=False)
    _csr: tuple | None = field(default=None, repr=False)      # (limit, adjacency)
    _costs: dict = field(default_factory=dict, repr=False)    # limit -> return costs

    @property
    def n_edges(self) -> int:
        return self.edge_u.size

    def csr(self, limit: float = np.inf) -> sp.csr_matrix:
        """Adjacency of the edges with weight at most ``limit``, entries in
        edge order; the most recent one is cached."""
        if self._csr is None or self._csr[0] != limit:
            u, v, w = self.edge_u, self.edge_v, self.edge_w
            if np.isfinite(limit):
                keep = w <= limit
                u, v, w = u[keep], v[keep], w[keep]
            self._csr = (limit, _adjacency(self.n, u, v, w))
        return self._csr[1]

    # Kept as a method because the perfbench tracer and the test spies wrap it by name.
    def all_pairs(self, limit: float, sources, adjacency: sp.csr_matrix) -> np.ndarray:
        """Shortest path costs D[s, v] from each of ``sources`` on
        ``adjacency`` (this graph's ``csr``, a subgraph or a transpose);
        entries above ``limit`` come back as +inf."""
        return dijkstra(adjacency, directed=True, indices=sources, limit=limit)


def _adjacency(n: int, u: np.ndarray, v: np.ndarray, w: np.ndarray) -> sp.csr_matrix:
    """n x n CSR matrix of edges sorted by (u, v) without duplicates.

    Exact zero weights are stored as 1e-300 so the sparse format does not
    confuse them with absent edges; the offset is far below every
    tolerance in use.
    """
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(u, minlength=n), out=indptr[1:])
    return sp.csr_matrix((np.maximum(w, 1e-300), v, indptr), shape=(n, n))


@dataclass(eq=False)
class ScrResult:
    """Strong chain recurrence at one budget."""

    epsilon: float
    min_return_cost: np.ndarray = field(repr=False)
    members: np.ndarray = field(repr=False)
    band: np.ndarray = field(repr=False)      # ids with |cost - epsilon| <= 3 res
    resolution: float = 0.0
    cost_limit: float = np.inf                # costs above this are reported as inf

    def to_json(self) -> dict:
        cost = [None if not np.isfinite(c) else float(c) for c in self.min_return_cost]
        return {
            "epsilon": self.epsilon,
            "resolution": self.resolution,
            "cost_limit": None if not np.isfinite(self.cost_limit) else self.cost_limit,
            "min_return_cost": cost,
            "members": [int(i) for i in self.members],
            "warning_band": [int(i) for i in self.band],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "ScrResult":
        def inf(c):
            return np.inf if c is None else c
        return cls(
            epsilon=obj["epsilon"], resolution=obj["resolution"],
            cost_limit=inf(obj["cost_limit"]),
            min_return_cost=np.array([inf(c) for c in obj["min_return_cost"]]),
            members=np.asarray(obj["members"], dtype=np.int64),
            band=np.asarray(obj["warning_band"], dtype=np.int64))

    def non_recurrent(self, space: GridSpace) -> np.ndarray:
        """Ids the pairs must cover and H must strictly decrease on: all
        but the members, the warning band and the members' 3 * resolution
        thickening."""
        recurrent = np.zeros(space.n, dtype=bool)
        recurrent[self.members] = True
        recurrent[self.band] = True
        if self.members.size:
            recurrent[space.thicken(self.members, 3 * space.resolution)] = True
        return np.nonzero(~recurrent)[0]


# Source rows per block of build_chain_graph: it holds (_ROW_BLOCK, n)
# distances per multiplier at a time.
_ROW_BLOCK = 512


def build_chain_graph(space: GridSpace, tr: GridTransition, flow: FlowModel,
                      prune_radius: float) -> ChainGraph:
    """Assemble the cheapest jump edge per (u, v) with weight at most
    ``prune_radius``, over all multipliers m = 1..m_max.

    Built-in systems use the exact continuous images; sampled flows only
    know grid images, so their weights carry a + resolution padding.
    """
    if prune_radius < 3 * space.resolution:
        raise ValueError(
            f"prune_radius {prune_radius} < 3 * resolution {3 * space.resolution}; "
            "near-zero-cost continuation edges would be lost")
    us, vs, ms, ws = [], [], [], []
    for lo in range(0, space.n, _ROW_BLOCK):
        hi = min(lo + _ROW_BLOCK, space.n)
        wmin = best = None
        for m in range(1, tr.m_max + 1):
            if tr.exact_images is not None:
                d = space.dist_coords_to_grid(tr.exact_images[m - 1, lo:hi], cutoff=prune_radius)
            else:
                img_pts = space.points[tr.images[m - 1, lo:hi]]
                d = space.dist_coords_to_grid(img_pts, cutoff=prune_radius)
                d += space.resolution
            if wmin is None:
                wmin, best = d, np.ones(d.shape, dtype=np.min_scalar_type(tr.m_max))
                continue
            better = d < wmin                  # strict, so the lowest m keeps a tie
            best[better] = m
            np.minimum(wmin, d, out=wmin)
        uu, vv = np.nonzero(wmin <= prune_radius)      # distinct, in (u, v) order
        us.append(uu + lo)
        vs.append(vv)
        ms.append(best[uu, vv].astype(np.int64))
        ws.append(wmin[uu, vv])
    # concatenate one array at a time, so the pieces of only one are held twice
    u, v, m, w = (_join(parts) for parts in (us, vs, ms, ws))
    return ChainGraph(
        n=space.n, T=tr.T, m_max=tr.m_max, prune_radius=prune_radius,
        resolution=space.resolution, edge_u=u, edge_v=v, edge_m=m, edge_w=w)


def _join(parts: list) -> np.ndarray:
    out = np.concatenate(parts)
    parts.clear()
    return out


def graph_from_edges(n: int, edges, T: float = 1.0, resolution: float = 0.0,
                     prune_radius: float = np.inf) -> ChainGraph:
    """Build a ChainGraph from explicit (u, v, w) or (u, v, m, w) tuples.

    Parallel edges collapse to one per (u, v): the least weight, and the
    lowest m among the edges of that weight.
    """
    rows = [(e[0], e[1], e[2] if len(e) == 4 else 1, e[-1]) for e in edges]
    arr = np.array(rows, dtype=float) if rows else np.empty((0, 4))
    if np.any(arr[:, 3] < 0):
        raise ValueError("edge weights must be nonnegative")
    u, v, m = (arr[:, k].astype(np.int64) for k in range(3))
    w = arr[:, 3]
    key = u * n + v
    order = np.lexsort((m, w, key))
    first = order[np.flatnonzero(np.diff(key[order], prepend=-1))]
    return ChainGraph(
        n=n, T=T, m_max=int(m.max()) if rows else 1,
        prune_radius=prune_radius, resolution=resolution,
        edge_u=u[first], edge_v=v[first], edge_m=m[first], edge_w=w[first])


# Dijkstra sources per all_pairs call of min_return_cost_all: it holds
# (_SOURCE_CHUNK, n) distances at a time rather than an n x n matrix.
_SOURCE_CHUNK = 64
# Landmarks per round of the cycle-edge lower bounds, how far their
# searches reach (a multiple of the cost limit), each round's shift of the
# landmark ids as a fraction of their spacing (van der Corput order, so
# at most 8 rounds), the least share of its edges a round must drop for
# another to follow, and the edges per block of the bound.
_LANDMARKS = 8
_LANDMARK_REACH = 2.0
_ROUND_OFFSETS = (0, 1 / 2, 1 / 4, 3 / 4, 1 / 8, 5 / 8, 3 / 8, 7 / 8)
_ROUND_GAIN = 1 / 16
_BOUND_BLOCK = 1 << 16


def min_return_cost_all(g: ChainGraph, limit: float | None = None) -> np.ndarray:
    """Vector of min cycle costs; entries above ``limit`` come back +inf.

    A cycle through u leaves by an edge (u, v, w) and returns along a
    shortest path v -> u, so its least cost is the least w + D[v, u].
    The search runs only on the edges that ``cycle_edges`` keeps under
    the limit (+inf when there is none), with their landmark bounds
    LB <= D[v, u].  Each source v is searched only as deep as a cycle
    through v could still beat one its tail already has:

    * cap(u) is the least of the limit, the self-loop weight w(u, u) and
      every 2-cycle cost w(u, v) + w(v, u).  The search below finds
      D[u, u] = 0 and D[v, u] <= w(v, u), so u's cost is at most cap(u)
      whenever it is within the limit.
    * An edge (u, v, w) is useful iff w + LB <= cap(u) + 1e-9.  The edge
      attaining u's cost has w + D[v, u] <= cap(u) and LB <= D[v, u], so
      it is useful.
    * need(v) is the largest cap(u) - w over the useful edges into v; a
      source with no useful in-edge is not searched.

    Sources run in increasing need, _SOURCE_CHUNK at a time, each chunk
    to min(limit, its largest need + 1e-9); the slack absorbs rounding
    and the 1e-300 that stands for a zero weight.  A distance within a
    search limit is exact, so every cost within the limit comes out bit
    for bit as on the full graph.  Results are cached per limit.
    """
    want = np.inf if limit is None else float(limit)
    if want not in g._costs:
        e, lb = cycle_edges(g, want)
        u, v, w = g.edge_u[e], g.edge_v[e], g.edge_w[e]
        adj = _adjacency(g.n, u, v, w)
        cap = np.full(g.n, want)
        loop = u == v
        np.minimum.at(cap, u[loop], w[loop])
        key, rev = u * g.n + v, v * g.n + u                 # key ascends: (u, v) order
        back = np.searchsorted(key, rev)        # the reverse edge, if kept; a loop finds itself
        two = np.flatnonzero(back < key.size)
        two = two[key[back[two]] == rev[two]]
        np.minimum.at(cap, u[two], w[two] + w[back[two]])
        useful = w + lb <= cap[u] + 1e-9
        u, v, w = u[useful], v[useful], w[useful]
        need = np.full(g.n, -np.inf)
        np.maximum.at(need, v, cap[u] - w)
        sources = np.flatnonzero(need > -np.inf)
        sources = sources[np.argsort(need[sources], kind="stable")]
        rank = np.full(g.n, -1, dtype=np.int64)             # -1: v is not searched
        rank[sources] = np.arange(sources.size)
        row = rank[v]                                       # v's place in the search order
        into = np.argsort(row, kind="stable")               # edges grouped by that place
        lows = range(0, sources.size, _SOURCE_CHUNK)
        cuts = np.searchsorted(row, [*lows, sources.size], sorter=into)
        out = np.full(g.n, np.inf)
        for k, lo in enumerate(lows):
            chunk = sources[lo:lo + _SOURCE_CHUNK]
            reach = min(want, need[chunk[-1]] + 1e-9)
            dist = g.all_pairs(reach, sources=chunk, adjacency=adj)
            i = into[cuts[k]:cuts[k + 1]]
            np.minimum.at(out, u[i], w[i] + dist[row[i] - lo, u[i]])
        out[out > want] = np.inf
        g._costs[want] = out
    return g._costs[want].copy()


def cycle_edges(g: ChainGraph, limit: float) -> tuple[np.ndarray, np.ndarray]:
    """Indices of the edges that may lie on a cycle of cost <= ``limit``,
    and the landmark bound LB of each.

    An edge (x, y, w) lies on such a cycle only if w + D[y, x] <= limit.
    Landmark distances bound D[y, x] from below (Goldberg & Harrelson's
    ALT bounds): for every landmark L the triangle inequality gives
    D[y, x] >= D[L, x] - D[L, y] and D[y, x] >= D[y, L] - D[x, L].  The
    bounds are raised in rounds.  Round r takes _LANDMARKS evenly spaced
    ids, shifted by _ROUND_OFFSETS[r] of their spacing, and searches them
    forward and backward up to lam = _LANDMARK_REACH * limit (at most the
    largest float) on the edges the earlier rounds kept; the first round
    searches every edge within the limit.  Distances are clipped to lam,
    which keeps each difference a lower bound and finite (an unreached
    node counts as lam away), so no inf - inf turns a bound into NaN.
    Each kept edge's LB becomes the largest of its old bound and the new
    differences, and the edge stays iff w + LB <= limit + 1e-9, the slack
    absorbing the rounding of the distances.  Rounds stop after the first
    one that drops less than _ROUND_GAIN of the edges it started with.

    Every edge of a cycle within the limit has w + D[y, x] <= limit in
    every round's graph, so no round drops it and each round's graph
    holds all those cycles; and a bound found on a graph bounds the
    distances of each of its subgraphs, so the final LB <= D[y, x] on the
    kept edges.
    """
    lam = min(_LANDMARK_REACH * float(limit), np.finfo(float).max)
    kept = np.flatnonzero(g.edge_w <= limit)
    if kept.size == 0:
        return kept, np.zeros(0)
    bounds = None          # round 1's blocks start from 0: no full-length zero array
    for r, offset in enumerate(_ROUND_OFFSETS):
        start = kept.size
        if r == 0:
            adj = g.csr(limit)
        else:
            adj = _adjacency(g.n, g.edge_u[kept], g.edge_v[kept], g.edge_w[kept])
        marks = np.unique((np.arange(_LANDMARKS) + offset) * g.n // _LANDMARKS).astype(np.int64)
        fwd = np.minimum(g.all_pairs(lam, sources=marks, adjacency=adj), lam)   # D[L, x]
        bwd = np.minimum(g.all_pairs(lam, sources=marks, adjacency=adj.T.tocsr()), lam)  # D[x, L]
        del adj
        kept_parts, bound_parts = [], []
        for lo in range(0, start, _BOUND_BLOCK):
            e = kept[lo:lo + _BOUND_BLOCK]
            x, y = g.edge_u[e], g.edge_v[e]
            bound = np.zeros(e.size) if bounds is None else bounds[lo:lo + _BOUND_BLOCK].copy()
            for f, b in zip(fwd, bwd):    # one landmark row at a time, no (k, E) array
                np.maximum(bound, f[x] - f[y], out=bound)
                np.maximum(bound, b[y] - b[x], out=bound)
            keep = g.edge_w[e] + bound <= limit + 1e-9
            kept_parts.append(e[keep])
            bound_parts.append(bound[keep])
        kept, bounds = _join(kept_parts), _join(bound_parts)
        if kept.size == 0 or start - kept.size < _ROUND_GAIN * start:
            break
    return kept, bounds


def compute_scr(g: ChainGraph, epsilon: float, cost_limit: float | None = None) -> ScrResult:
    """Strong chain recurrent members: nodes with min return cost < epsilon."""
    if epsilon <= 0:
        raise ValueError(f"epsilon {epsilon} must be positive")
    if epsilon <= 3 * g.resolution:
        warnings.warn(
            f"epsilon {epsilon} is below the discretization noise floor "
            f"3 * resolution = {3 * g.resolution:.3g}; membership is resolution-limited",
            stacklevel=2)
    elif epsilon < 10 * g.resolution:
        warnings.warn(
            f"epsilon {epsilon} < 10 * resolution {10 * g.resolution:.3g}: "
            "membership near the threshold is resolution-limited", stacklevel=2)
    if cost_limit is not None and cost_limit < epsilon + 3 * g.resolution:
        raise ValueError("cost_limit must exceed epsilon + 3 * resolution")
    cost = min_return_cost_all(g, limit=cost_limit)
    members = np.nonzero(cost < epsilon)[0]
    band = np.nonzero(np.abs(cost - epsilon) <= 3 * g.resolution)[0]
    return ScrResult(epsilon=epsilon, min_return_cost=cost, members=members,
                     band=band, resolution=g.resolution,
                     cost_limit=np.inf if cost_limit is None else cost_limit)


def compute_cr(g: ChainGraph, epsilon: float) -> np.ndarray:
    """Classical chain recurrence: per-edge budget, strongly connected parts."""
    if epsilon <= 0:
        raise ValueError(f"epsilon {epsilon} must be positive")
    keep = g.edge_w < epsilon
    u, v = g.edge_u[keep], g.edge_v[keep]
    mat = _adjacency(g.n, u, v, g.edge_w[keep])
    n_comp, labels = connected_components(mat, directed=True, connection="strong")
    counts = np.bincount(labels, minlength=n_comp)
    qualified = counts[labels] >= 2
    qualified[u[u == v]] = True        # self-loop below budget
    return np.nonzero(qualified)[0]


def omega_budget(g: ChainGraph, Y, epsilon: float, closed: bool = False) -> np.ndarray:
    """Budgeted reachability: endpoints of chains from Y with >= 1 step.

    One epsilon-limited Dijkstra from all of Y gives reach[u], the least
    cost of a chain of zero or more steps from Y to u; every chain starts
    by flowing a point of Y for at least T and then jumping, so an endpoint
    x costs the least reach[u] + w over the edges (u, x, w) out of reached
    nodes.  Costs are summed in chain order, first jump first, and no
    n x n matrix is held.  ``closed`` switches the strict budget to
    <= epsilon, the grid realization of the closure-in-budget variant.
    """
    if epsilon <= 0:
        raise ValueError(f"epsilon {epsilon} must be positive")
    Y = np.unique(np.asarray(Y, dtype=np.int64))
    if Y.size == 0:
        raise ValueError("seed set Y must be nonempty")
    adj = g.csr(epsilon)
    reach = dijkstra(adj, directed=True, indices=Y, limit=epsilon, min_only=True)
    u = np.flatnonzero(np.isfinite(reach))
    first, count = adj.indptr[u], adj.indptr[u + 1] - adj.indptr[u]     # u's out-edges
    e = np.arange(count.sum()) + np.repeat(first - np.cumsum(count) + count, count)
    total = np.full(g.n, np.inf)
    np.minimum.at(total, adj.indices[e], np.repeat(reach[u], count) + adj.data[e])
    hit = total <= epsilon if closed else total < epsilon
    return np.nonzero(hit)[0]


def export_graph_csv(g: ChainGraph, path) -> None:
    """Write edges as ``u,v,m,w`` rows for debugging and oracle harnesses."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["u", "v", "m", "w"])
        for u, v, m, w in zip(g.edge_u, g.edge_v, g.edge_m, g.edge_w):
            writer.writerow([int(u), int(v), int(m), repr(float(w))])

