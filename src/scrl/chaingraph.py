"""Weighted jump-cost digraph over a grid transition.

An edge (u, v) with multiplier m and weight w records that flowing from
grid point u for time m*T and then jumping to v costs w = d(phi_{mT}(u), v).
A path through this graph whose weights sum below a budget is a strong
chain at that budget with all flow times in {T, ..., m_max*T}; cycle
costs therefore decide strong chain recurrence, per-edge thresholds plus
strong connectivity decide classical chain recurrence, and multi-source
shortest paths realize the budgeted reachability operator.
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
    """Immutable edge set; the min-reduced adjacency and shortest-path
    results are cached lazily."""

    n: int
    T: float
    m_max: int
    prune_radius: float
    resolution: float
    edge_u: np.ndarray = field(repr=False)
    edge_v: np.ndarray = field(repr=False)
    edge_m: np.ndarray = field(repr=False)
    edge_w: np.ndarray = field(repr=False)
    _csr: sp.csr_matrix | None = field(default=None, repr=False)
    _min_edges: tuple | None = field(default=None, repr=False)
    _apsp: dict = field(default_factory=dict, repr=False)

    @property
    def n_edges(self) -> int:
        return self.edge_u.size

    def min_edges(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(u, v, w) of each distinct (u, v) pair with its least weight,
        sorted by (u, v): parallel m-edges collapse to the cheapest."""
        if self._min_edges is None:
            key = self.edge_u * self.n + self.edge_v
            order = np.argsort(key, kind="stable")
            key = key[order]
            first = np.flatnonzero(np.diff(key, prepend=-1))
            u, v = np.divmod(key[first], self.n)
            self._min_edges = (u, v, np.minimum.reduceat(self.edge_w[order], first))
        return self._min_edges

    def csr(self) -> sp.csr_matrix:
        """Min-reduced adjacency, its entries aligned with :meth:`min_edges`."""
        if self._csr is None:
            self._csr = _adjacency(self.n, *self.min_edges())
        return self._csr

    def all_pairs(self, limit: float | None = None) -> np.ndarray:
        """Forward all-pairs shortest path matrix D[s, v], optionally cost-limited.

        Entries above ``limit`` come back as +inf; any cached matrix whose
        limit dominates the request is reused.  Edges heavier than the
        limit lie on no path within it, so the search runs without them.
        """
        want = np.inf if limit is None else float(limit)
        for have, mat in self._apsp.items():
            if have >= want:
                return mat
        if np.isfinite(want):
            u, v, w = self.min_edges()
            keep = w <= want
            graph = _adjacency(self.n, u[keep], v[keep], w[keep])
        else:
            graph = self.csr()
        mat = dijkstra(graph, directed=True, limit=want)
        self._apsp[want] = mat
        return mat


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


# Rows of u per block: dist_coords_to_grid's own chunk, so _euclid sees the
# same blocks as on a whole image array and the weights come out the same.
_EDGE_BLOCK = 512


def build_chain_graph(space: GridSpace, tr: GridTransition, flow: FlowModel,
                      prune_radius: float) -> ChainGraph:
    """Assemble all jump edges with weight at most ``prune_radius``.

    Built-in systems use the exact continuous images; sampled flows only
    know grid images, so their weights carry a + resolution padding.
    """
    if prune_radius < 3 * space.resolution:
        raise ValueError(
            f"prune_radius {prune_radius} < 3 * resolution {3 * space.resolution}; "
            "near-zero-cost continuation edges would be lost")
    us, vs, ms, ws = [], [], [], []
    for lo in range(0, space.n, _EDGE_BLOCK):
        hi = min(lo + _EDGE_BLOCK, space.n)
        block = np.empty((hi - lo, tr.m_max, space.n))
        for m in range(tr.m_max):
            if tr.exact_images is not None:
                block[:, m] = space.dist_coords_to_grid(
                    tr.exact_images[m, lo:hi], cutoff=prune_radius)
            else:
                img_pts = space.points[tr.images[m, lo:hi]]
                block[:, m] = space.dist_coords_to_grid(img_pts, cutoff=prune_radius)
                block[:, m] += space.resolution
        keep = block <= prune_radius
        uu, mm, vv = np.nonzero(keep)          # already in (u, m, v) order
        us.append(uu + lo)
        ms.append(mm + 1)
        vs.append(vv)
        ws.append(block[keep])
    return ChainGraph(
        n=space.n, T=tr.T, m_max=tr.m_max, prune_radius=prune_radius,
        resolution=space.resolution,
        edge_u=np.concatenate(us), edge_v=np.concatenate(vs),
        edge_m=np.concatenate(ms), edge_w=np.concatenate(ws))


def graph_from_edges(n: int, edges, T: float = 1.0, resolution: float = 0.0,
                     prune_radius: float = np.inf) -> ChainGraph:
    """Build a ChainGraph from explicit (u, v, w) or (u, v, m, w) tuples."""
    rows = [(e[0], e[1], e[2] if len(e) == 4 else 1, e[-1]) for e in edges]
    arr = np.array(rows, dtype=float) if rows else np.empty((0, 4))
    if np.any(arr[:, 3] < 0):
        raise ValueError("edge weights must be nonnegative")
    return ChainGraph(
        n=n, T=T, m_max=int(arr[:, 2].max()) if rows else 1,
        prune_radius=prune_radius, resolution=resolution,
        edge_u=arr[:, 0].astype(np.int64), edge_v=arr[:, 1].astype(np.int64),
        edge_m=arr[:, 2].astype(np.int64), edge_w=arr[:, 3].copy())


def min_return_cost(g: ChainGraph, u: int) -> float:
    """Cheapest total weight of a cycle through u with at least one edge."""
    if not 0 <= u < g.n:
        raise IndexError(f"node {u} out of range")
    csr = g.csr()
    back = dijkstra(csr.T, directed=True, indices=[u])[0]  # sp(v -> u)
    _, v, w = g.min_edges()
    row = slice(csr.indptr[u], csr.indptr[u + 1])
    if row.start == row.stop:
        return np.inf
    return float(np.min(w[row] + back[v[row]]))


def min_return_cost_all(g: ChainGraph, limit: float | None = None) -> np.ndarray:
    """Vector of min cycle costs; entries above ``limit`` come back +inf."""
    dist = g.all_pairs(limit)
    u, v, w = g.min_edges()
    out = np.full(g.n, np.inf)
    np.minimum.at(out, u, w + dist[v, u])
    if limit is not None:
        out[out > limit] = np.inf
    return out


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
    u, v, w = g.min_edges()
    keep = w < epsilon
    u, v = u[keep], v[keep]
    mat = sp.csr_matrix((np.ones(u.size), (u, v)), shape=(g.n, g.n))
    n_comp, labels = connected_components(mat, directed=True, connection="strong")
    counts = np.bincount(labels, minlength=n_comp)
    qualified = counts[labels] >= 2
    qualified[u[u == v]] = True        # self-loop below budget
    return np.nonzero(qualified)[0]


def omega_budget(g: ChainGraph, Y, epsilon: float, closed: bool = False) -> np.ndarray:
    """Budgeted reachability: endpoints of chains from Y with >= 1 step.

    Every chain starts by flowing some point of Y for at least T and then
    jumping, so sources are the out-edges of Y, not Y itself.  ``closed``
    switches the strict budget to <= epsilon, the grid realization of the
    closure-in-budget variant.
    """
    Y = np.asarray(sorted(set(int(y) for y in Y)), dtype=np.int64)
    if Y.size == 0:
        raise ValueError("seed set Y must be nonempty")
    indptr = g.csr().indptr
    _, v, w = g.min_edges()
    sel = np.concatenate([np.arange(indptr[y], indptr[y + 1]) for y in Y])
    if sel.size == 0:
        return np.empty(0, dtype=np.int64)
    seed = np.full(g.n, np.inf)
    np.minimum.at(seed, v[sel], w[sel])
    starts = np.nonzero(np.isfinite(seed))[0]
    cached = None
    for have, mat in g._apsp.items():
        if have >= epsilon:
            cached = mat
            break
    if cached is not None:
        dist = cached[starts]
    else:
        dist = dijkstra(g.csr(), directed=True, indices=starts, limit=float(epsilon) * 1.0001)
    total = (seed[starts][:, None] + dist).min(axis=0)
    hit = total <= epsilon if closed else total < epsilon
    return np.nonzero(hit)[0]


def export_graph_csv(g: ChainGraph, path) -> None:
    """Write edges as ``u,v,m,w`` rows for debugging and oracle harnesses."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["u", "v", "m", "w"])
        for u, v, m, w in zip(g.edge_u, g.edge_v, g.edge_m, g.edge_w):
            writer.writerow([int(u), int(v), int(m), repr(float(w))])


def import_graph_csv(path, n: int, **kwargs) -> ChainGraph:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        edges = [(int(r["u"]), int(r["v"]), int(r["m"]), float(r["w"])) for r in reader]
    return graph_from_edges(n, edges, **kwargs)
