"""Enumeration of candidate stable pairs and greedy cover selection.

Seeds are grid points outside the computed recurrent set (a separating
ball can only exist around such points).  Each seed and radius yields a
candidate via the closed-budget reachability construction; candidates
without a separation certificate are dropped, survivors are deduplicated
on the one-cell closure of B union B_bullet, and a greedy cover then
picks a small subcollection whose joint exclusions account for every
non-recurrent grid point, reporting the residual when they cannot.

The sweep reads every seed ball from one table (``seed_balls``) and
tries the radii in ascending order, dropping a seed from every larger
radius once its certificate fails.  That drop is exact: a budgeted
reach set is the union of its points' reach sets, W(C) = union of
W({c}) over c in C (path costs are summed by monotone float additions
and combined by min), so a ball C inside C' gives C & W(C) inside
C' & W(C'): a ball that meets its reach set keeps meeting it as it grows.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from .chaingraph import ChainGraph, ScrResult
from .flows import GridTransition
from .orbits import OrbitData
from .space import TABLE_BLOCK, GridSpace
from .stablesets import (StablePair, avoidance_profile, build_strongly_stable,
                         complementary, find_eta0_and_bstar, grid_image_orbit,
                         nested_neighborhoods, omega_limits_all)


@dataclass(eq=False)
class PairCatalog:
    pairs: list[StablePair] = field(default_factory=list)
    dedupe_keys: list[str] = field(default_factory=list)
    selected: list[int] = field(default_factory=list)
    residual: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    # one-cell closure of B union B_bullet per pair, the set hashed into its
    # dedupe key; kept in memory for select_cover, not written to JSON
    closures: list[np.ndarray] = field(default_factory=list, repr=False)

    def to_json(self) -> dict:
        return {
            "pairs": [p.to_json() for p in self.pairs],
            "dedupe_keys": list(self.dedupe_keys),
            "selected": [int(i) for i in self.selected],
            "residual": [int(i) for i in self.residual],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "PairCatalog":
        return cls(
            pairs=[StablePair.from_json(p) for p in obj["pairs"]],
            dedupe_keys=list(obj["dedupe_keys"]),
            selected=[int(i) for i in obj["selected"]],
            residual=np.asarray(obj["residual"], dtype=np.int64),
        )


def default_radii(resolution: float) -> list[float]:
    return [2 * resolution, 4 * resolution, 8 * resolution]


def default_seed_stride(n: int) -> int:
    return 1 if n <= 1000 else 4


def seed_balls(space: GridSpace, seeds, radii) -> list[list[np.ndarray]]:
    """balls[k][i]: the sorted ids within radii[k] of seeds[i].

    One distance table per block of seeds, with cutoff max(radii) +
    1e-12.  A distance at most the cutoff is exact, so reading each ball
    as d <= r + 1e-12 gives, at every radius, the same doubles and the
    same rule as ``space.thicken([seed], r)``.
    """
    cutoffs = [float(r) + 1e-12 for r in radii]
    balls = [[] for _ in cutoffs]
    per = max(1, TABLE_BLOCK // space.n)
    for lo in range(0, len(seeds), per):
        block = [[s] for s in seeds[lo:lo + per]]
        d = next(space.dist_rows_to_subsets([space.points], block, max(cutoffs)))
        for ball, cutoff in zip(balls, cutoffs):
            ball.extend(np.nonzero(row <= cutoff)[0] for row in d)
    return balls


def enumerate_pairs(g: ChainGraph, tr: GridTransition, space: GridSpace,
                    epsilon: float, radii, seed_stride: int, scr: ScrResult,
                    orbit: OrbitData, R: float, eta_samples,
                    t_cap_steps: int = 200) -> PairCatalog:
    """Seed balls around non-recurrent points; keep certified, unique pairs.

    A seed whose certificate fails at one radius is not tried at the
    larger ones, where it would fail too (see the module docstring)."""
    if not radii:
        raise ValueError("radii must be nonempty")
    radii = sorted(float(r) for r in radii)
    if radii[0] < 2 * space.resolution:
        raise ValueError(f"smallest radius {radii[0]} below 2 * resolution")

    seeds = np.setdiff1d(np.arange(space.n), scr.members)[::seed_stride]

    tails, nonconv = omega_limits_all(space, orbit)
    grid_orbit = grid_image_orbit(tr, t_cap_steps)

    catalog = PairCatalog()
    seen: set[str] = set()
    seen_B: set[str] = set()
    found = []              # (B, B_bullet, T_table, provenance) per pair
    live = np.ones(seeds.size, dtype=bool)      # no failed certificate yet
    for radius, balls in zip(radii, seed_balls(space, seeds, radii)):
        for i in np.flatnonzero(live):
            seed = seeds[i]
            try:
                B, certificate, W = build_strongly_stable(g, tr, space, balls[i], epsilon)
            except ValueError:
                continue
            if not certificate:
                live[i] = False
                continue
            b_key = hashlib.sha1(B.astype(np.int64).tobytes()).hexdigest()
            if b_key in seen_B:
                continue          # same settled set, same pair
            seen_B.add(b_key)
            # B is a union of image-map cycles, so its invariance check holds
            B_bullet = complementary(space, tr, B, tails, nonconv)
            closed = space.thicken(np.union1d(B, B_bullet), space.pitch)
            key = hashlib.sha1(closed.astype(np.int64).tobytes()).hexdigest()
            if key in seen:
                continue
            nn = nested_neighborhoods(space, tr, B, R, eta_samples, grid_orbit)
            if nn["failures"]:
                continue          # not strongly stable at the sampled levels
            seen.add(key)
            found.append((B, B_bullet, nn["T_table"],
                          {"center": int(seed), "radius": radius,
                           "epsilon": epsilon, "T": tr.T}))
            catalog.dedupe_keys.append(key)
            catalog.closures.append(closed)
    # the avoidance profiles of all pairs share one pass over the orbit
    profiles = avoidance_profile(space, orbit, [B for B, *_ in found])
    for (B, B_bullet, T_table, provenance), prof in zip(found, profiles):
        star = find_eta0_and_bstar(space, B, B_bullet, T_table, R, prof)
        eta0, B_star = (None, np.empty(0, dtype=np.int64)) if star is None else star
        catalog.pairs.append(StablePair(
            B=B, B_bullet=B_bullet, R=R, eta0=eta0, T_table=T_table,
            B_star=B_star, provenance=provenance))
    return catalog


def select_cover(catalog: PairCatalog, scr: ScrResult, space: GridSpace) -> PairCatalog:
    """Greedy cover of the non-recurrent points by pair exclusions.

    A pair excludes the points outside the one-cell closure of B union
    B_bullet, as ``enumerate_pairs`` kept it in ``catalog.closures``.
    Selection stops when every non-recurrent point outside the warning
    band is excluded by some selected pair; leftovers are reported as
    the residual.  Ties break toward the lower pair index.
    """
    universe = set(scr.non_recurrent(space).tolist())

    exclusions = [universe.difference(closed.tolist()) for closed in catalog.closures]

    selected: list[int] = []
    remaining = set(universe)
    while remaining:
        best, best_gain = None, 0
        for i, excl in enumerate(exclusions):
            if i in selected:
                continue
            gain = len(remaining & excl)
            if gain > best_gain:
                best, best_gain = i, gain
        if best is None:
            break
        selected.append(best)
        remaining -= exclusions[best]

    catalog.selected = selected
    catalog.residual = np.asarray(sorted(remaining), dtype=np.int64)
    return catalog
