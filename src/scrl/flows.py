"""Exact forward-time evaluators for the built-in systems.

The built-in systems are specified by their phase portraits; the concrete
speed profiles below are one smooth realization each, chosen so that
every trajectory can be evaluated in closed form (no ODE stepping):

* ``circle``: positions live on the circle of circumference 1, clockwise
  means increasing position.  The closed arc from marker A through E to
  B is fixed, and so are the two isolated markers C and D.  Elsewhere the
  angular speed equals the distance to the fixed set (clamped to 1), so
  each wandering arc is a pair of exponential phases glued at its
  midpoint: repelled from the trailing fixed point, attracted to the
  leading one.

* ``square``: the unit square with the horizontal edges y=0 and y=1
  fixed; on each vertical fiber the flow runs south with dy/dt =
  -y(1-y), the logistic profile, solved exactly in the odds variable
  z = y/(1-y).

* ``roof``: the glued domain of :mod:`scrl.space`.  Vertical speed is 1
  everywhere, and a trajectory that reaches the top curve re-enters at
  the identified bottom point, so the central strip |x - 1/2| <= 0.1 is
  a band of periodic columns whose period is the local roof height.  The
  square-root crease of the roof at x = 1/2 gives nearby columns wildly
  different periods, which is what destroys uniform-in-time Lipschitz
  continuity of this flow.  Outside the strip there is a horizontal
  drift toward the strip with speed min(5 * gap, 1/2), so outer
  trajectories wind inward onto the strip's boundary column.  Each
  trajectory is a function of its start point and the absolute time:
  x in closed form, and the height from one list of wrap events per
  point, bisected in brackets that do not depend on the query time.  A
  wrap that lands in the strip settles the point there, periodic from
  then on.

* ``identity``: every point fixed, on the circle domain.

All evaluators are pure, vectorized over points, and reject negative
times (the theory only ever flows forward).  They also take a 1-D array
of times, one output row per time, each bit for bit the single-time
call; the orbit table and the transitions are such calls from the grid
points.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .space import CIRCLE, ROOF, UNIT_SQUARE, GridSpace, roof_height

CIRCLE_MARKERS = {"B": 0.0, "C": 0.375, "D": 0.625, "A": 0.875, "E": 0.9375}

ROOF_STRIP_HALF_WIDTH = 0.1
ROOF_DRIFT_RATE = 5.0
ROOF_DRIFT_CAP = 0.5

SYSTEMS = ("circle", "square", "roof", "identity", "custom-sampled")


@dataclass(eq=False)
class FlowModel:
    """A forward-time system: domain name, parameters, and an evaluator."""

    kind: str
    domain: str
    params: dict = field(default_factory=dict)

    def evaluate(self, pts: np.ndarray, t) -> np.ndarray:
        """phi_t applied to an array of points, t >= 0.

        ``t`` may also be a 1-D array of times; row j of the result is
        then bit for bit ``evaluate(pts, t[j])``.
        """
        times = np.asarray(t, dtype=float)
        if np.any(times < 0):
            raise ValueError(f"negative flow time t={np.min(times)}; this is a semiflow")
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        if self.kind == "roof":
            return _roof_flow(pts, times.reshape(-1)).reshape(times.shape + pts.shape)
        if times.ndim:
            out = np.empty(times.shape + pts.shape)
            for row, s in zip(out, times):
                row[...] = self.evaluate(pts, s)
            return out
        if self.kind == "identity":
            return pts.copy()
        if self.kind == "circle-arc":
            return _circle_flow(pts, t, self.params)
        if self.kind == "north-south-square":
            return _square_flow(pts, t)
        raise ValueError(f"flow kind {self.kind!r} has no continuous evaluator")

    def describe(self) -> dict:
        """Speed-profile metadata recorded with every run."""
        base = {"kind": self.kind, "domain": self.domain, "params": dict(self.params)}
        profiles = {
            "circle-arc": "angular speed = min(dist to fixed set, 1), closed-form exponentials",
            "north-south-square": "fiber dynamics dy/dt = -y(1-y), closed-form logistic",
            "roof": ("dy/dt = 1 with roof-to-floor wrap; horizontal drift toward the "
                     f"periodic strip |x-1/2| <= {ROOF_STRIP_HALF_WIDTH} at speed "
                     f"min({ROOF_DRIFT_RATE} * gap, {ROOF_DRIFT_CAP})"),
            "identity": "every point fixed",
            "custom-sampled": "grid-projected images ingested from CSV",
        }
        base["profile"] = profiles[self.kind]
        return base


def make_flow(system: str, params: dict | None = None) -> FlowModel:
    """Factory for the built-in systems."""
    if system == "circle":
        markers = dict(CIRCLE_MARKERS)
        if params:
            markers.update(params)
        _validate_markers(markers)
        return FlowModel("circle-arc", CIRCLE, markers)
    if system == "square":
        return FlowModel("north-south-square", UNIT_SQUARE)
    if system == "roof":
        return FlowModel("roof", ROOF)
    if system == "identity":
        return FlowModel("identity", CIRCLE)
    raise ValueError(f"unknown system {system!r}; expected one of {SYSTEMS[:-1]}")


# -- circle ------------------------------------------------------------


def _validate_markers(m: dict) -> None:
    order = [m["B"], m["C"], m["D"], m["A"], m["E"]]
    if not all(0 <= v < 1 for v in order):
        raise ValueError("circle markers must lie in [0, 1)")
    gaps = np.diff(order)
    if not np.all(gaps > 0):
        raise ValueError("circle markers must be ordered B < C < D < A < E clockwise")


def _wander_phase(u: np.ndarray, length: float, t: float) -> np.ndarray:
    """Advance positions u in (0, length) under du/dt = min(u, length - u).

    Exponential repulsion from 0 to the midpoint, then exponential
    attraction into length; fixed endpoints stay put.
    """
    mid = 0.5 * length
    out = u.copy()
    lower = (u > 0) & (u < mid)
    if np.any(lower):
        grown = u[lower] * np.exp(min(t, 700.0))
        done = grown <= mid
        # remaining time after hitting the midpoint
        t_rest = np.maximum(t - np.log(mid / u[lower]), 0.0)
        approach = length - mid * np.exp(-t_rest)
        out[lower] = np.where(done, grown, approach)
    upper = (u >= mid) & (u < length)
    if np.any(upper):
        out[upper] = length - (length - u[upper]) * np.exp(-t)
    return out


def _circle_flow(pts: np.ndarray, t: float, markers: dict) -> np.ndarray:
    theta = pts[:, 0] % 1.0
    b, c, d, a = markers["B"], markers["C"], markers["D"], markers["A"]
    out = theta.copy()
    # wandering arcs between consecutive fixed features, clockwise
    for lo, hi in ((b, c), (c, d), (d, a)):
        sel = (theta > lo) & (theta < hi)
        if np.any(sel):
            out[sel] = lo + _wander_phase(theta[sel] - lo, hi - lo, t)
    return (out % 1.0).reshape(-1, 1)


# -- square ------------------------------------------------------------


def _square_flow(pts: np.ndarray, t: float) -> np.ndarray:
    x, y = pts[:, 0], pts[:, 1]
    if np.any((x < -1e-12) | (x > 1 + 1e-12) | (y < -1e-12) | (y > 1 + 1e-12)):
        raise ValueError("point outside the unit square")
    out_y = np.empty_like(y)
    interior = (y > 0) & (y < 1)
    out_y[~interior] = y[~interior]
    if np.any(interior):
        yi = y[interior]
        z = yi / (1.0 - yi) * np.exp(-t)
        out_y[interior] = z / (1.0 + z)
    return np.column_stack([x, out_y])


# -- roof --------------------------------------------------------------


def _roof_drift(x0: np.ndarray) -> tuple:
    """Time-independent terms of the horizontal drift of points x0 outside the strip."""
    r0 = np.abs(x0 - 0.5) - ROOF_STRIP_HALF_WIDTH
    knee = ROOF_DRIFT_CAP / ROOF_DRIFT_RATE          # gap where regimes meet
    t_lin = np.maximum(r0 - knee, 0.0) / ROOF_DRIFT_CAP
    return np.sign(x0 - 0.5), r0, t_lin, np.minimum(r0, knee)


def _roof_x_at(drift: tuple, t) -> np.ndarray:
    """Horizontal drift toward the periodic strip, in closed form.

    Gap to the strip decays linearly at speed 1/2 while above 0.1, then
    exponentially at rate 5 (the two regimes match at gap 0.1).  ``drift``
    holds the terms of :func:`_roof_drift`, so a bisection over t only
    recomputes the t-dependent part.
    """
    s, r0, t_lin, r_knee = drift
    t = np.asarray(t, dtype=float)
    lin = r0 - ROOF_DRIFT_CAP * np.minimum(t, t_lin)
    r = np.where(t <= t_lin, lin, r_knee * np.exp(-ROOF_DRIFT_RATE * (t - t_lin)))
    return 0.5 + s * (ROOF_STRIP_HALF_WIDTH + r)


_ROW_BLOCK = 32     # query times per pass; bounds the temporaries to 32 rows


def _roof_flow(pts: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Rows phi_{times[j]}(pts) of the roof flow, from one list of wrap events per point.

    A point in the strip keeps its x, and its height is ``(y + t) % tau``.
    A point outside drifts along :func:`_roof_x_at` from its start, and
    its height is ``y_k + (t - s_k)`` after its k-th wrap at time s_k
    (y_0 is the start height and s_0 = 0; later y_k are 0).  A query time
    equal to a wrap time is after that wrap.  A wrap at an x in the strip
    settles the point: x stays there, and the height is
    ``(t - s_k) % tau(x(s_k))`` from then on.  No wrap depends on the
    query times (:func:`_roof_wraps`), so row j is bit for bit the
    single-time call at ``times[j]``.
    """
    x0, y0 = pts[:, 0], pts[:, 1].copy()
    tau0 = roof_height(x0)
    if np.any((x0 < -1e-12) | (x0 > 1 + 1e-12) | (y0 < -1e-12) | (y0 > tau0 + 1e-9)):
        raise ValueError("point outside the roof domain")
    y0[y0 >= tau0] = 0.0                               # identified points
    strip = np.abs(x0 - 0.5) <= ROOF_STRIP_HALF_WIDTH
    ids = np.nonzero(~strip)[0]
    drift = _roof_drift(x0[ids])
    starts, settle, x_end = _roof_wraps(drift, y0[ids], np.max(times, initial=0.0))
    tau_end = roof_height(x_end)
    out = np.empty((times.size,) + pts.shape)
    for a in range(0, times.size, _ROW_BLOCK):
        t = times[a:a + _ROW_BLOCK, None]
        rows = out[a:a + _ROW_BLOCK]
        rows[:, strip, 0] = x0[strip]
        rows[:, strip, 1] = (y0[strip] + t) % tau0[strip]
        k = (starts[1:, None] <= t).sum(axis=0)       # phase: wraps at or before t
        y = np.where(k == 0, y0[ids], 0.0) + (t - np.take_along_axis(starts, k, axis=0))
        settled = k >= settle
        rows[:, ids, 0] = np.where(settled, x_end, _roof_x_at(drift, t))
        rows[:, ids, 1] = np.where(settled, y % tau_end, np.maximum(y, 0.0))
    return out


def _roof_wraps(drift: tuple, y0: np.ndarray, t_max: float) -> tuple:
    """Wrap times of drifting points, each up to its settling wrap or its first past t_max.

    Wrap k + 1 is the root of ``y_k + (s - s_k) >= tau(x(s))``, bisected
    in 52 steps on ``[s_k, s_k + 2]``.  The root is unique, because the
    left side grows at rate 1 while the roof height along the drift
    changes at rate at most |tau'| * |dx/dt| < 0.8, and it lies in the
    bracket, because the roof is at most 1 high.  Returns ``starts``,
    whose row k is s_k (+inf past a point's last wrap), the phase
    ``settle`` from which each point is periodic (past the last row if
    never), and the x each settled point keeps.
    """
    starts = [np.zeros(y0.size)]
    settle = np.full(y0.size, np.iinfo(np.int64).max)
    x_end = np.full(y0.size, 0.5)                      # read only where a point settles
    live, ya = np.arange(y0.size), y0
    while live.size:
        d = tuple(term[live] for term in drift)
        sk = starts[-1][live]
        lo, hi = sk, sk + 2.0
        for _ in range(52):
            mid = 0.5 * (lo + hi)
            wrapped = ya + (mid - sk) >= roof_height(_roof_x_at(d, mid))
            hi = np.where(wrapped, mid, hi)
            lo = np.where(wrapped, lo, mid)
        x = _roof_x_at(d, hi)
        done = np.abs(x - 0.5) <= ROOF_STRIP_HALF_WIDTH
        settle[live[done]] = len(starts)
        x_end[live[done]] = x[done]
        starts.append(np.full(y0.size, np.inf))
        starts[-1][live] = hi
        live = live[~done & (hi <= t_max)]
        ya = np.zeros(live.size)
    return np.array(starts), settle, x_end


# -- grid transitions --------------------------------------------------


@dataclass(eq=False)
class GridTransition:
    """The images of phi_{mT}, m = 1..m_max, as coordinates.

    ``coords[m-1]`` holds the images of phi_{mT} of every grid point: the
    exact continuous images for built-in systems, and the named grid
    points for sampled flows, which know their images only to within a
    resolution.  The jump costs read ``coords`` and add ``pad`` (0 for
    built-in systems, the resolution for sampled flows), so projection
    error is never hidden.  ``image`` is the grid image of phi_T, the
    nearest grid id of ``coords[0]`` (a grid point's own id for sampled
    flows).  Build one with :meth:`project`.
    """

    T: float
    coords: np.ndarray = field(repr=False)          # (m_max, n, dim); m_max = coords.shape[0]
    pad: float
    image: np.ndarray = field(repr=False)           # (n,) int
    _cycles: tuple | None = field(repr=False, default=None)   # image-map cycles, see stablesets

    @classmethod
    def project(cls, space: GridSpace, T: float, coords: np.ndarray,
                pad: float = 0.0) -> "GridTransition":
        """The transition with images ``coords``, phi_T projected to the grid."""
        return cls(T=T, coords=coords, pad=pad, image=space.nearest(coords[0]))


def build_transition(flow: FlowModel, space: GridSpace, T: float, m_max: int) -> GridTransition:
    """Evaluate phi_{mT} exactly on every grid point for m = 1..m_max and
    project phi_T to the grid; the jump costs read the exact images."""
    if T <= 0:
        raise ValueError(f"time step T={T} must be positive")
    if m_max < 1:
        raise ValueError(f"m_max={m_max} must be a positive integer")
    exact = flow.evaluate(space.points, T * np.arange(1, m_max + 1))
    return GridTransition.project(space, T, exact)


def load_sampled_transition(path, space: GridSpace, T: float, m_max: int) -> tuple[FlowModel, GridTransition]:
    """Ingest a custom flow from CSV rows ``point_index,m,image_index``.

    Every (point, m) pair for m = 1..m_max must be present exactly once.
    The images become the coordinates of the named grid points, padded by
    the resolution.
    """
    images = np.full((m_max, space.n), -1, dtype=np.int64)
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        required = {"point_index", "m", "image_index"}
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            raise ValueError(f"custom flow CSV must have header {sorted(required)}")
        for row in reader:
            try:
                u, m, v = int(row["point_index"]), int(row["m"]), int(row["image_index"])
            except (TypeError, ValueError):
                raise ValueError(f"malformed row {reader.line_num}: {row}") from None
            if not (0 <= u < space.n and 0 <= v < space.n):
                raise ValueError(f"point index out of range in row {row}")
            if not (1 <= m <= m_max):
                raise ValueError(f"step multiplier m={m} outside 1..{m_max}")
            if images[m - 1, u] != -1:
                raise ValueError(f"duplicate row for point {u}, m={m}")
            images[m - 1, u] = v
    if np.any(images < 0):
        missing = int((images < 0).sum())
        raise ValueError(f"custom flow CSV incomplete: {missing} (point, m) pairs missing")
    flow = FlowModel("custom-sampled", space.domain)
    return flow, GridTransition.project(space, T, space.points[images], space.resolution)
