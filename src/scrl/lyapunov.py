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
  sampled values, so constant-k orbits integrate exactly, plus the tail
  term e^{-S_max} k(S_max).

The combined function H = sum h_n / 3^n weights the summands by powers
of 1/3.  Verification re-evaluates each summand at the flowed point by
shifting along the same lattice, which keeps the comparison free of
grid-projection noise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .orbits import OrbitData
from .space import QUERY_BLOCK, GridSpace
from .stablesets import StablePair

# H(phi_t(x)) may exceed H(x) by this much before x counts as a
# monotonicity violation; verify_report.json records it as "tol_num".
TOL_NUM = 1e-6


@dataclass(eq=False)
class LyapunovField:
    """One pair's summand on the grid: l and h per point, and k on the
    ``orbit.window`` fine-lattice rows (row 0 is k on the grid, later orbit
    rows enter only through their maximum), integrated up to ``s_max``."""

    l_values: np.ndarray = field(repr=False)
    k_series: np.ndarray = field(repr=False)      # (orbit.window, n)
    h_values: np.ndarray = field(repr=False)
    s_max: float = 20.0

    @property
    def k_values(self) -> np.ndarray:
        """k on the grid, a view of row 0 of ``k_series``."""
        return self.k_series[0]


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
    Levels are kept on the ``orbit.window`` rows only; the suffix maxima
    read later rows only through their maximum, one running row per pair.
    """
    # pairs without an avoider level fall back to the full scale, eta0 = 1
    scales = [pair.R * (1.0 if pair.eta0 is None else pair.eta0) for pair in pairs]
    J, W = orbit.times.size, orbit.window
    levels = [np.full((W + 1, space.n), -np.inf) for _ in pairs]   # row W: max of rows >= W
    per = max(1, QUERY_BLOCK // space.n)
    starts = range(0, J, per)
    blocks = (orbit.coords[j:j + per].reshape(-1, space.dim) for j in starts)
    rows = space.dist_rows_to_subsets(blocks, [pair.B for pair in pairs],
                                      cutoff=max(scales, default=np.inf))
    for j, d in zip(starts, rows):
        cut = max(0, W - j)                     # rows of this block inside the window
        for series, d_pair, scale in zip(levels, d, scales):
            level = np.minimum(d_pair / scale, 1.0).reshape(-1, space.n)
            series[j:min(j + per, W)] = level[:cut]
            np.maximum(series[W], level[cut:].max(axis=0, initial=-np.inf), out=series[W])

    fields = []
    for series in levels:
        l_values = series[0].copy()
        for j in range(W - 1, -1, -1):     # suffix maxima in place: l becomes k
            np.maximum(series[j], series[j + 1], out=series[j])
        fld = LyapunovField(l_values=l_values, k_series=series[:W],
                            h_values=np.empty(space.n), s_max=s_max)
        fld.h_values = discounted_integral(fld, orbit)
        fields.append(fld)
    return fields


def discounted_integral(fld: LyapunovField, orbit: OrbitData,
                        shift_t: float = 0.0) -> np.ndarray:
    """Integrate e^{-s} k(phi_s(x)) over [0, S_max] plus the tail e^{-S_max} k(S_max).

    ``shift_t`` evaluates the integral at the flowed point phi_{shift}(x)
    using the same lattice (the sampled orbit of the flowed point is the
    shifted orbit).  ``ValueError`` unless [shift_t, shift_t + S_max] lies
    on the fine lattice with both ends lattice times.
    """
    m = orbit.index_at(fld.s_max) + 1           # quadrature rows 0..m-1
    p = orbit.index_at(shift_t)
    if p + m > orbit.window:
        raise ValueError(f"window [{shift_t}, {shift_t + fld.s_max}] leaves the fine lattice")
    k = fld.k_series[p:p + m]                   # (m, n)
    t = orbit.times[:m]
    expt = np.exp(-t)
    w0 = expt[:-1] - expt[1:]                   # exact integral of e^-s per segment
    dt = np.diff(t)
    w1 = w0 - dt * expt[1:]                     # integral of (s - t_j) e^-s
    slope_weight = w1 / dt
    seg = k[:-1] * w0[:, None] + (k[1:] - k[:-1]) * slope_weight[:, None]
    tail = np.exp(-fld.s_max) * k[-1]
    return seg.sum(axis=0) + tail


def combine_pairs(summands, n: int) -> np.ndarray:
    """H = sum over i of summands[i] / 3^i on n grid points (zeros for none)."""
    out = np.zeros(n)
    for i, h in enumerate(summands):
        out += h * 3.0 ** (-i)
    return out


def verify_lyapunov(fields: list[LyapunovField], pairs: list[StablePair],
                    space: GridSpace, orbit: OrbitData, scr, t_probe: float,
                    margin: float) -> dict:
    """Check monotonicity everywhere and strict decrease off the recurrent set.

    Returns a report dict; verification never raises on property failures.
    """
    if t_probe < orbit.T:
        raise ValueError(f"t_probe {t_probe} must be at least T = {orbit.T}")
    n = space.n
    H0 = combine_pairs((f.h_values for f in fields), n)
    Ht = combine_pairs((discounted_integral(f, orbit, t_probe) for f in fields), n)

    mono_bad = np.nonzero(Ht > H0 + TOL_NUM)[0]
    universe = scr.non_recurrent(space)

    decrease = H0 - Ht
    strict_bad = universe[decrease[universe] < margin]

    near_boundary = np.zeros(n, dtype=bool)
    for pair in pairs:
        union = np.union1d(pair.B, pair.B_bullet)
        if union.size == 0 or union.size == n:
            continue
        comp = np.setdiff1d(np.arange(n), union)
        # a distance at most the cutoff is exact, so the band is the uncut one
        d = next(space.dist_rows_to_subsets([space.points], [union, comp], 3 * space.pitch))
        near_boundary |= np.all(d <= 3 * space.pitch, axis=0)

    strict_off_boundary = [int(i) for i in strict_bad if not near_boundary[i]]
    n_universe = max(1, universe.size)
    return {
        "t_probe": t_probe,
        "margin": margin,
        "tol_num": TOL_NUM,
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
