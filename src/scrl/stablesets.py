"""Omega limits, strongly stable sets, complementaries, and avoider sets.

A strongly stable set here is produced constructively: take a seed ball
C, collect everything reachable from it within a closed jump budget,
and let that region flow until it settles; the settled set B together
with its complementary B_bullet (points whose omega limit misses B) is
the building block for one Lyapunov summand.  Nested neighborhoods of B
are metric thickenings U_eta = {d(., B) <= R * eta}; each certified
level carries the first time multiple after which the grid flow keeps
the thickening inside itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.sparse.csgraph import connected_components

from .chaingraph import ChainGraph, _adjacency, omega_budget
from .flows import FlowModel, GridTransition
from .orbits import OrbitData
from .space import GridSpace


@dataclass(eq=False)
class StablePair:
    """A strongly stable set with its complementary and neighborhood data.

    ``eta0`` and ``B_star`` may be absent (None / empty) when the
    complementary is empty or no sampled level admits an avoider; the
    pair still yields a Lyapunov summand.
    """

    B: np.ndarray
    B_bullet: np.ndarray
    R: float
    eta0: float | None
    T_table: dict
    B_star: np.ndarray
    provenance: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "B": [int(i) for i in self.B],
            "B_bullet": [int(i) for i in self.B_bullet],
            "R": self.R,
            "eta0": self.eta0,
            "T_table": {repr(float(k)): float(v) for k, v in sorted(self.T_table.items())},
            "B_star": [int(i) for i in self.B_star],
            "provenance": self.provenance,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "StablePair":
        return cls(
            B=np.asarray(obj["B"], dtype=np.int64),
            B_bullet=np.asarray(obj["B_bullet"], dtype=np.int64),
            R=float(obj["R"]),
            eta0=None if obj["eta0"] is None else float(obj["eta0"]),
            T_table={float(k): float(v) for k, v in obj["T_table"].items()},
            B_star=np.asarray(obj["B_star"], dtype=np.int64),
            provenance=dict(obj.get("provenance", {})),
        )


def _image_cycles(tr: GridTransition) -> tuple[np.ndarray, np.ndarray]:
    """Weak component and on-cycle flag of every node of the single-step image map.

    The map is a functional graph, so each weak component holds exactly
    one cycle, and a node is on it iff its strong component has more than
    one node or it is a fixed point.  Cached on the transition since the
    map never changes.
    """
    if tr._cycles is None:
        f = tr.image
        nodes = np.arange(f.size)
        graph = _adjacency(f.size, nodes, f, np.ones(f.size))
        _, weak = connected_components(graph, connection="weak")
        _, strong = connected_components(graph, connection="strong")
        tr._cycles = (weak, (np.bincount(strong)[strong] > 1) | (f == nodes))
    return tr._cycles


def omega_limit_of_set(tr: GridTransition, U) -> np.ndarray:
    """Union of the image-map cycles reachable from U.

    Iterating S to image(S) on a finite grid is eventually periodic and
    the union over one period is exactly the union of the cycles that
    points of S fall into: the on-cycle nodes of U's weak components.
    """
    U = np.asarray(U, dtype=np.int64)
    if U.size == 0:
        raise ValueError("U must be nonempty")
    weak, on_cycle = _image_cycles(tr)
    hit = np.zeros(weak.size, dtype=bool)       # weak labels are below the node count
    hit[weak[U]] = True
    return np.nonzero(on_cycle & hit[weak])[0]


def omega_limits_all(space: GridSpace, orbit: OrbitData
                     ) -> tuple[tuple[np.ndarray, np.ndarray], np.ndarray]:
    """Recurring tail cells of each grid point's exact orbit.

    The burn-in lives here: of the T-lattice rows ``orbit.t_rows`` only
    the last ``steps - steps // 2 + 1`` are read, each projected to grid
    cells by one ``space.nearest`` call.  A tail cell recurs when it is
    visited at least twice.  Each point's tail is sorted stably, so a run
    of equal cells starts at the cell's first visit.

    Returns ``((owner, cell), nonconv)``: flat arrays with one entry per
    (point, recurring cell), ascending in owner and, per owner, in cell,
    and a mask of the points whose tails still discover new cells near
    the horizon.  Nothing reports those points; ``complementary`` leaves
    them out of every B_bullet.
    """
    steps = orbit.t_rows.size - 1
    probe = max(1, steps // 8)
    tail = np.stack([space.nearest(orbit.coords[j]) for j in orbit.t_rows[steps // 2:]],
                    axis=1)                                 # (n, L)
    order = np.argsort(tail, axis=1, kind="stable")
    ranked = np.take_along_axis(tail, order, axis=1)
    starts = np.ones(ranked.shape, dtype=bool)
    starts[:, 1:] = ranked[:, 1:] != ranked[:, :-1]
    last_new = np.where(starts, order, 0).max(axis=1)
    nonconv = last_new >= tail.shape[1] - probe
    repeated = starts.copy()
    repeated[:, :-1] &= ~starts[:, 1:]                      # run of length >= 2
    repeated[:, -1] = False
    return (np.nonzero(repeated)[0], ranked[repeated]), nonconv


def check_forward_invariant(space: GridSpace, tr: GridTransition, B) -> None:
    """Require image(B) inside the resolution thickening of B."""
    B = np.asarray(sorted(B), dtype=np.int64)
    img = np.unique(tr.image[B])
    d = space.dist_coords_to_subset(space.points[img], B)
    if np.any(d > space.resolution + 1e-9):
        worst = img[int(np.argmax(d))]
        raise ValueError(
            f"set is not forward invariant within tolerance: image point {worst} "
            f"is {d.max():.4g} from the set (resolution {space.resolution:.4g})")


def complementary(space: GridSpace, tr: GridTransition, B,
                  tails: tuple[np.ndarray, np.ndarray], nonconv: np.ndarray) -> np.ndarray:
    """Points whose omega limit misses the resolution thickening of B.

    ``tails`` and ``nonconv`` are as :func:`omega_limits_all` returns
    them: the flat (owner, cell) arrays of recurring tail cells, read
    after its burn-in.  Non-convergent points are conservatively
    excluded (they cannot be certified to stay away from B).
    """
    B = np.asarray(sorted(B), dtype=np.int64)
    check_forward_invariant(space, tr, B)
    owner, cell = tails
    thick = np.zeros(space.n, dtype=bool)
    thick[space.thicken(B, space.resolution)] = True
    excluded = nonconv.copy()
    excluded[owner[thick[cell]]] = True
    return np.nonzero(~excluded)[0]


def build_strongly_stable(g: ChainGraph, tr: GridTransition, space: GridSpace,
                          C, epsilon: float) -> tuple[np.ndarray, bool, np.ndarray]:
    """Settled set of the closed-budget reachable region of a seed ball.

    Returns (B, separation_certificate, W) where W is the closed-budget
    reachability of C and the certificate records C and W disjoint.  The
    settled set is checked to lie inside the resolution thickening of W
    (grid projection can spill one cell per step; the containment is
    exact in the continuum); a seed whose settled set escapes it yields
    no candidate, so this raises ValueError like the other rejections.
    The escape query covers only the points of B outside W: members of
    W are at distance exactly 0 from it.
    """
    C = np.unique(np.asarray(C, dtype=np.int64))
    if C.size == 0:
        raise ValueError("seed set C must be nonempty")
    W = omega_budget(g, C, epsilon, closed=True)
    if W.size == 0:
        raise ValueError("closed-budget reachable set is empty; cannot settle")
    B = omega_limit_of_set(tr, W)
    in_W = np.zeros(space.n, dtype=bool)
    in_W[W] = True
    certificate = not in_W[C].any()
    off = B[~in_W[B]]
    if off.size and np.any(space.dist_coords_to_subset(space.points[off], W)
                           > space.resolution + 1e-9):
        raise ValueError(
            "settled set escapes the resolution thickening of its reachable set")
    return B, certificate, W


def nested_neighborhoods(space: GridSpace, tr: GridTransition, B, R: float,
                         eta_samples, grid_orbit: np.ndarray) -> dict:
    """Certify eventual forward invariance of metric thickenings of B.

    For each eta, U_eta = {x : d(x, B) <= R * eta}; the certificate is the
    least k with image^j(U_eta) inside U_eta for every j in [k, t_cap],
    where row j of ``grid_orbit`` maps u to image^j(u) for j = 0..t_cap.
    Returns {"T_table": {eta: k * T}, "failures": {eta: witness_id}}.
    """
    B = np.asarray(sorted(B), dtype=np.int64)
    if B.size == 0:
        raise ValueError("B must be nonempty")
    if R <= 0:
        raise ValueError("neighborhood scale R must be positive")
    etas = sorted(float(e) for e in eta_samples)
    for eta in etas:
        if not 0 < eta < 1:
            raise ValueError(f"eta sample {eta} outside (0, 1)")
    d2B = space.dist_coords_to_subset(space.points, B)
    # U_eta is the first count(eta) ids in d2B order, so image^j(U_eta) lies
    # in U_eta iff the prefix maximum of d2B over the images of those ids
    # is <= R * eta + 1e-12: the membership test on the same doubles.
    order = np.argsort(d2B, kind="stable")
    worst = d2B[grid_orbit[:, order]]                                  # (rows, n)
    np.maximum.accumulate(worst, axis=1, out=worst)
    thresholds = [R * eta + 1e-12 for eta in etas]
    counts = np.searchsorted(d2B[order], thresholds, side="right")
    T_table: dict[float, float] = {}
    failures: dict[float, int] = {}
    for eta, threshold, count in zip(etas, thresholds, counts):
        ok = worst[:, count - 1] <= threshold     # count >= |B|, as d2B is 0 on B
        if not ok[-1]:
            U = np.sort(order[:count])
            bad_row = grid_orbit[-1][U]
            failures[eta] = int(bad_row[d2B[bad_row] > threshold][0])
            continue
        bad = np.nonzero(~ok)[0]
        good_from = int(bad[-1]) + 1 if bad.size else 0
        T_table[eta] = max(good_from, 1) * tr.T    # certificate times are positive
    return {"T_table": T_table, "failures": failures}


def grid_image_orbit(tr: GridTransition, steps: int) -> np.ndarray:
    """Iterates of the nearest-image map: row j maps u to image^j(u)."""
    out = np.empty((steps + 1, tr.image.size), dtype=np.int64)
    out[0] = np.arange(tr.image.size)
    for j in range(1, steps + 1):
        out[j] = tr.image[out[j - 1]]
    return out


def avoidance_profile(space: GridSpace, orbit: OrbitData, Bs) -> np.ndarray:
    """(len(Bs), n) per-point minimum distance to each set B along the
    T-lattice samples of the exact orbit, in one pass over them."""
    out = np.full((len(Bs), space.n), np.inf)
    for d in space.dist_rows_to_subsets((orbit.coords[j] for j in orbit.t_rows), Bs):
        np.minimum(out, d, out=out)
    return out


def find_eta0_and_bstar(space: GridSpace, B, B_bullet, T_table: dict, R: float,
                        min_orbit_dist: np.ndarray):
    """Largest certified level whose never-entering set is nonempty.

    The avoider set at level eta holds the points whose sampled orbit
    keeps distance > R * eta from B for the whole horizon; it is
    intersected with B_bullet so that finite-horizon optimism can never
    claim an avoider whose omega limit actually reaches B.  Returns
    (eta0, B_star) or None when the hypothesis fails.
    """
    B = np.asarray(sorted(B), dtype=np.int64)
    B_bullet = np.asarray(sorted(B_bullet), dtype=np.int64)
    if B_bullet.size == 0:
        return None
    bullet_mask = np.zeros(space.n, dtype=bool)
    bullet_mask[B_bullet] = True
    for eta in sorted(T_table, reverse=True):
        cand = np.nonzero((min_orbit_dist > R * eta) & bullet_mask)[0]
        if cand.size:
            if np.any(np.isin(cand, B)):
                raise AssertionError("avoider set intersects B")
            return float(eta), cand
    return None


def default_eta_samples(count: int = 32, lo: float = 0.01, hi: float = 0.99) -> np.ndarray:
    return np.geomspace(lo, hi, count)
