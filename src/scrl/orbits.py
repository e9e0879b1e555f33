"""Shared exact-trajectory tables.

Several stages sample the same forward orbits of every grid point: the
orbit supremum and the discounted integral in :mod:`scrl.lyapunov`, the
avoidance scan and per-point omega limits in :mod:`scrl.stablesets`, and
the flowed-point evaluation in verification.  This module computes the
table once per (flow, grid, T): a fine lattice with step
``T / FINE_DIVISOR`` (T/8) out to ``fine_horizon`` (the quadrature window
plus probe slack) and a coarse lattice with step ``T/4`` out to
``horizon``.

Row j is phi at ``times[j]`` of every grid point, all rows from one
:meth:`FlowModel.evaluate` call on the grid points (row 0 is the grid
itself).  So the table holds the same doubles as the transitions at the
same times, and on the roof every point's wraps are bisected once for
all rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .flows import FlowModel
from .space import GridSpace

FINE_DIVISOR = 8        # the fine lattice has step T / FINE_DIVISOR


@dataclass(eq=False)
class OrbitData:
    """Sampled forward orbits of all grid points.

    ``coords[j]`` holds phi_{times[j]} of every grid point; ``cells[i]``
    holds nearest grid ids along the T-lattice (step T, for omega limits).
    """

    T: float
    times: np.ndarray = field(repr=False)            # (J,)
    coords: np.ndarray = field(repr=False)           # (J, n, dim)
    t_cells: np.ndarray = field(repr=False, default=None)   # (steps+1, n) int
    t_rows: np.ndarray = field(repr=False, default=None)    # (steps+1,) lattice rows
    t_steps: int = 0

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
    t_cur = times[-1]
    while t_cur < horizon - 1e-12:
        t_cur += coarse
        times.append(t_cur)
    times = np.asarray(times)

    if t_steps * T > times[-1] + 1e-9:
        raise ValueError("t_steps * T exceeds the orbit horizon")

    n = space.n
    coords = flow.evaluate(space.points, times)
    coords[0] = space.points        # the roof drift formula at t = 0 can move x by an ulp

    t_rows = np.array([int(np.argmin(np.abs(times - i * T))) for i in range(t_steps + 1)])
    t_cells = np.empty((t_steps + 1, n), dtype=np.int64)
    t_cells[0] = np.arange(n)
    for i in range(1, t_steps + 1):
        t_cells[i] = space.nearest(coords[t_rows[i]])
    return OrbitData(T=T, times=times, coords=coords, t_cells=t_cells,
                     t_rows=t_rows, t_steps=t_steps)
