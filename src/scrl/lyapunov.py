"""Per-pair Lyapunov summands and their weighted combination.

For one stable pair the construction is a three-stage pipeline evaluated
on the shared orbit lattice:

* the level function ``l(x) = min(d(x, B) / (R * eta0), 1)`` is 0
  exactly on B and saturates at 1 once past the avoider level;
* ``k`` is the supremum of ``l`` along the forward orbit, computed as a
  suffix maximum over the sampled orbit, which makes monotonicity along
  the lattice structural rather than numerical;
* ``h`` discounts ``k`` exponentially in time.  The quadrature uses the
  exact integral of e^{-s} against a piecewise-linear interpolant of the
  sampled values, so constant-k orbits integrate exactly, plus a tail
  term bounded by e^{-S_max}.

The combined function weights the summands by powers of 1/3.  Verification
re-evaluates each summand at the flowed point by shifting along the same
lattice, which keeps the comparison free of grid-projection noise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .orbits import OrbitData
from .space import QUERY_BLOCK, GridSpace
from .stablesets import StablePair


@dataclass(eq=False)
class LyapunovField:
    """l, k, h values of one pair on the grid, with truncation metadata."""

    pair_index: int
    l_values: np.ndarray = field(repr=False)
    k_values: np.ndarray = field(repr=False)
    h_values: np.ndarray = field(repr=False)
    tail_slack: np.ndarray = field(repr=False)     # certified bound on sup beyond horizon
    certified: np.ndarray = field(repr=False)      # per-point truncation certificate
    quad_bound: np.ndarray = field(repr=False)     # advertised quadrature error bound
    k_series: np.ndarray | None = field(repr=False, default=None)
    eta0_effective: float = 1.0
    s_max: float = 20.0


@dataclass(eq=False)
class CombinedLyapunov:
    """Weighted sum of per-pair summands, H = sum h_n / 3^n."""

    H_values: np.ndarray = field(repr=False)
    n_pairs: int


def effective_eta0(pair: StablePair) -> float:
    """Pairs without an avoider level fall back to the full scale."""
    return pair.eta0 if pair.eta0 is not None else 1.0


def sup_along_orbit(pairs: list[StablePair], space: GridSpace, orbit: OrbitData,
                    s_max: float = 20.0) -> list[LyapunovField]:
    """Build the full summand of each pair: suffix maxima of orbit levels, then the integral.

    The orbit is walked once for all pairs, and each pair's seam minima
    are computed once for all rows.  Whole orbit rows are stacked into
    query arrays of max(1, QUERY_BLOCK // n) rows, so no array holds more
    than QUERY_BLOCK points unless one row alone does; the last array
    takes the remaining rows.  Distances run with cutoff max(scale):
    one above it clamps every level to 1 whether it is exact or not, so
    the seam pass skips the samples that cannot bring a point within it.
    The per-point truncation certificate looks for a certified nested
    level eta whose neighborhood contains the whole trailing T(eta)
    window of the orbit; past the horizon such orbits cannot raise the
    supremum above eta / eta0.
    """
    eta0s = [effective_eta0(pair) for pair in pairs]
    scales = [pair.R * eta0 for pair, eta0 in zip(pairs, eta0s)]
    J = orbit.times.size
    levels = [np.empty((J, space.n)) for _ in pairs]
    per = max(1, QUERY_BLOCK // space.n)
    starts = range(0, J, per)
    blocks = (orbit.coords[j:j + per].reshape(-1, space.dim) for j in starts)
    rows = space.dist_rows_to_subsets(blocks, [pair.B for pair in pairs],
                                      cutoff=max(scales, default=np.inf))
    for j, d in zip(starts, rows):
        for l_series, d_pair, scale in zip(levels, d, scales):
            l_series[j:j + per] = np.minimum(d_pair / scale, 1.0).reshape(-1, space.n)

    fields = []
    horizon = orbit.times[-1]
    for rank, (pair, eta0, scale, series) in enumerate(zip(pairs, eta0s, scales, levels)):
        l_values = series[0].copy()
        certified = np.zeros(space.n, dtype=bool)
        bound = np.ones(space.n)           # bound on the supremum beyond the horizon
        for eta in sorted(pair.T_table):
            if eta > eta0 + 1e-12:
                break      # saturated levels cannot tighten the bound below 1
            need = pair.T_table[eta]
            window = orbit.times >= horizon - need - 1e-9
            inside = np.all(series[window] * scale <= pair.R * eta + 1e-12, axis=0)
            fresh = inside & ~certified
            certified |= fresh
            bound[fresh] = min(1.0, eta / eta0)
        for j in range(J - 2, -1, -1):     # suffix maxima in place: l becomes k
            np.maximum(series[j], series[j + 1], out=series[j])
        tail_slack = np.maximum(0.0, bound - series[0])

        fld = LyapunovField(
            pair_index=rank,
            l_values=l_values, k_values=series[0].copy(),
            h_values=np.empty(space.n), tail_slack=tail_slack, certified=certified,
            quad_bound=np.empty(space.n), k_series=series,
            eta0_effective=eta0, s_max=s_max)
        fld.h_values, fld.quad_bound = discounted_integral(fld, orbit)
        fields.append(fld)
    return fields


def discounted_integral(fld: LyapunovField, orbit: OrbitData,
                        shift_t: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Integrate e^{-s} k(phi_s(x)) over [0, S_max] plus the tail estimate.

    ``shift_t`` evaluates the integral at the flowed point phi_{shift}(x)
    using the same lattice (the sampled orbit of the flowed point is the
    shifted orbit).
    """
    times = orbit.times
    fine = np.nonzero(times <= fld.s_max + 1e-9)[0]
    if abs(times[fine[-1]] - fld.s_max) > 1e-9:
        raise ValueError("quadrature window must end exactly at S_max")
    rows = np.array([orbit.index_at(times[j] + shift_t) for j in fine])
    k = fld.k_series[rows]                      # (M, n)
    t = times[fine]
    expt = np.exp(-t)
    w0 = expt[:-1] - expt[1:]                   # exact integral of e^-s per segment
    dt = np.diff(t)
    w1 = w0 - dt * expt[1:]                     # integral of (s - t_j) e^-s
    slope_weight = w1 / dt
    seg = k[:-1] * w0[:, None] + (k[1:] - k[:-1]) * slope_weight[:, None]
    tail = np.exp(-fld.s_max) * k[-1]
    h = seg.sum(axis=0) + tail
    bound = 0.5 * dt.max() * (k[0] - np.exp(-fld.s_max) * k[-1]) + np.exp(-fld.s_max)
    return h, bound


def _weighted_sum(summands, n: int) -> np.ndarray:
    """sum over i of summands[i] / 3^i on n grid points (zeros for none)."""
    out = np.zeros(n)
    for i, h in enumerate(summands):
        out += h * 3.0 ** (-i)
    return out


def combine_pairs(fields: list[LyapunovField], n: int) -> CombinedLyapunov:
    """H = sum over i of h_i / 3^i, on n grid points."""
    return CombinedLyapunov(H_values=_weighted_sum([f.h_values for f in fields], n),
                            n_pairs=len(fields))


def combined_at_shift(fields: list[LyapunovField], orbit: OrbitData,
                      shift_t: float) -> np.ndarray:
    """H evaluated at phi_{shift}(x) for every grid x, on the shared lattice."""
    shifted = (discounted_integral(f, orbit, shift_t=shift_t)[0] for f in fields)
    return _weighted_sum(shifted, orbit.coords.shape[1])


def verify_lyapunov(fields: list[LyapunovField], pairs: list[StablePair],
                    space: GridSpace, orbit: OrbitData, scr, t_probe: float,
                    margin: float, tol_num: float = 1e-6) -> dict:
    """Check monotonicity everywhere and strict decrease off the recurrent set.

    Returns a report dict; verification never raises on property failures.
    """
    if t_probe < orbit.T:
        raise ValueError(f"t_probe {t_probe} must be at least T = {orbit.T}")
    n = space.n
    H0 = combine_pairs(fields, n).H_values
    Ht = combined_at_shift(fields, orbit, t_probe)

    mono_bad = np.nonzero(Ht > H0 + tol_num)[0]
    universe = scr.non_recurrent(space)

    decrease = H0 - Ht
    strict_bad = universe[decrease[universe] < margin]

    near_boundary = np.zeros(n, dtype=bool)
    for pair in pairs:
        union = np.union1d(pair.B, pair.B_bullet)
        if union.size == 0 or union.size == n:
            continue
        comp = np.setdiff1d(np.arange(n), union)
        d_in = space.dist_coords_to_subset(space.points, union)
        d_out = space.dist_coords_to_subset(space.points, comp)
        near_boundary |= (d_in <= 3 * space.pitch) & (d_out <= 3 * space.pitch)

    strict_off_boundary = [int(i) for i in strict_bad if not near_boundary[i]]
    n_universe = max(1, universe.size)
    return {
        "t_probe": t_probe,
        "margin": margin,
        "tol_num": tol_num,
        "n_points": n,
        "n_pairs": len(fields),
        "monotonicity_violations": [int(i) for i in mono_bad],
        "n_strict_universe": int(universe.size),
        "strict_failures": [int(i) for i in strict_bad],
        "strict_failures_off_boundary": strict_off_boundary,
        "strict_pass_fraction": float(1.0 - len(strict_bad) / n_universe),
        "max_increase": float(np.max(Ht - H0)) if n else 0.0,
        "median_decrease_universe": float(np.median(decrease[universe])) if universe.size else 0.0,
    }
