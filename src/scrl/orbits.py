"""Shared exact-trajectory tables.

Several stages sample the same forward orbits of every grid point: the
orbit supremum and the discounted integral in :mod:`scrl.lyapunov`, the
avoidance scan and per-point omega limits in :mod:`scrl.stablesets`, and
the flowed-point evaluation in verification.  This module computes the
table once per (flow, grid, T): a fine lattice with step
``T / FINE_DIVISOR`` (T/8) out to ``fine_horizon`` (the quadrature window
plus probe slack), the first ``window`` rows and every row the
quadrature reads, then a coarse lattice with step ``T/4`` out to
``horizon``.

Row j is phi at ``times[j]`` of every grid point, all rows from one
:meth:`FlowModel.evaluate` call on the grid points (row 0 is the grid
itself).  So the table holds the same doubles as the transitions at the
same times, and on the roof every point's wraps are bisected once for
all rows.

The table holds coordinates only.  ``t_rows`` names the rows of the
T-lattice (step T); the one reader that needs grid cells there,
:func:`scrl.stablesets.omega_limits_all`, projects the rows after its
burn-in itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .flows import FlowModel
from .space import GridSpace

FINE_DIVISOR = 8        # the fine lattice has step T / FINE_DIVISOR


@dataclass(eq=False)
class OrbitData:
    """Sampled forward orbits of all grid points, as coordinates.

    ``coords[j]`` holds phi_{times[j]} of every grid point, rows
    ``0 .. window - 1`` are the fine lattice, and ``coords[t_rows[i]]`` is
    the sample at time i * T.
    """

    T: float
    times: np.ndarray = field(repr=False)            # (J,)
    coords: np.ndarray = field(repr=False)           # (J, n, dim)
    t_rows: np.ndarray = field(repr=False)           # (steps+1,) lattice rows
    window: int                                      # rows of the fine lattice

    def index_at(self, t: float) -> int:
        """Lattice row of an exactly representable sample time."""
        j = int(np.searchsorted(self.times, t - 1e-9))
        if j >= self.times.size or abs(self.times[j] - t) > 1e-9:
            raise ValueError(f"time {t} is not on the orbit lattice")
        return j


def build_orbit_data(flow: FlowModel, space: GridSpace, T: float,
                     fine_horizon: float, horizon: float,
                     t_steps: int, fine_divisor: int = FINE_DIVISOR) -> OrbitData:
    """Flow all grid points forward and record the sampled orbits."""
    fine = T / fine_divisor
    coarse = T / 4.0
    times = list(np.arange(0.0, fine_horizon + fine / 2, fine))
    window = len(times)
    t_cur = times[-1]
    while t_cur < horizon - 1e-12:
        t_cur += coarse
        times.append(t_cur)
    times = np.asarray(times)

    if t_steps * T > times[-1] + 1e-9:
        raise ValueError("t_steps * T exceeds the orbit horizon")

    coords = flow.evaluate(space.points, times)
    coords[0] = space.points        # the roof drift formula at t = 0 can move x by an ulp

    t_rows = np.array([int(np.argmin(np.abs(times - i * T))) for i in range(t_steps + 1)])
    return OrbitData(T=T, times=times, coords=coords, t_rows=t_rows, window=window)
