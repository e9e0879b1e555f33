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
  trajectories wind inward onto the strip's boundary column.  The time of
  each wrap is found by bisection.  :meth:`FlowModel.march` steps a whole
  lattice of times at once, wrap event by wrap event rather than row by
  row, with the same doubles as :meth:`FlowModel.evaluate` applied to
  each row in turn; roof ``evaluate`` is that march over ``[0, t]``.

* ``identity``: every point fixed, on the circle domain.

All evaluators are pure, vectorized over points, and reject negative
times (the theory only ever flows forward).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .space import CIRCLE, ROOF, ROOF_RIDGE, UNIT_SQUARE, GridSpace, circle_gap, roof_height

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

    def evaluate(self, pts: np.ndarray, t: float) -> np.ndarray:
        """phi_t applied to an array of points, t >= 0."""
        if t < 0:
            raise ValueError(f"negative flow time t={t}; this is a semiflow")
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        if self.kind == "identity":
            return pts.copy()
        if self.kind == "circle-arc":
            return _circle_flow(pts, t, self.params)
        if self.kind == "north-south-square":
            return _square_flow(pts, t)
        if self.kind == "roof":
            coords = np.empty((2,) + pts.shape)
            coords[0] = pts
            _roof_march(coords, np.array([t], dtype=float))
            return coords[1]
        raise ValueError(f"flow kind {self.kind!r} has no continuous evaluator")

    def march(self, coords: np.ndarray, steps: np.ndarray) -> None:
        """Fill ``coords[1:]`` in place: ``coords[j]`` is phi_{steps[j-1]}
        applied to ``coords[j-1]``, the same doubles as :meth:`evaluate`
        row by row."""
        if np.any(steps < 0):
            raise ValueError(f"negative flow time t={np.min(steps)}; this is a semiflow")
        if self.kind == "roof":
            _roof_march(coords, steps)
            return
        for j, dt in enumerate(steps, 1):
            coords[j] = self.evaluate(coords[j - 1], dt)

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


def flow_map(flow: FlowModel, x, t: float):
    """phi_t(x) for a single point; validates domain membership.  ``x`` is
    not modified."""
    x = np.array(x, dtype=float).reshape(1, -1)
    if flow.domain == CIRCLE:
        x = x % 1.0
    elif flow.domain == UNIT_SQUARE:
        if not ((0 <= x[0, 0] <= 1) and (0 <= x[0, 1] <= 1)):
            raise ValueError(f"point {tuple(x[0])} outside the unit square")
    elif flow.domain == ROOF:
        tau = float(roof_height(x[0, 0]))
        if not (0 <= x[0, 0] <= 1) or x[0, 1] < 0 or x[0, 1] > tau + 1e-12:
            raise ValueError(f"point {tuple(x[0])} outside the roof domain")
        if x[0, 1] >= tau:           # identified with the floor
            x[0, 1] = 0.0
    out = flow.evaluate(x, t)[0]
    return float(out[0]) if out.size == 1 else tuple(float(v) for v in out)


# -- circle ------------------------------------------------------------


def _validate_markers(m: dict) -> None:
    order = [m["B"], m["C"], m["D"], m["A"], m["E"]]
    if not all(0 <= v < 1 for v in order):
        raise ValueError("circle markers must lie in [0, 1)")
    gaps = np.diff(order)
    if not np.all(gaps > 0):
        raise ValueError("circle markers must be ordered B < C < D < A < E clockwise")


def circle_fixed_distance(theta, markers: dict):
    """Distance from circle positions to the fixed set (arc AE..B, C, D)."""
    theta = np.asarray(theta, dtype=float) % 1.0
    b, c, d, a = markers["B"], markers["C"], markers["D"], markers["A"]
    in_arc = (theta >= a) | (theta <= b)   # closed arc from A through E to B
    dist = np.minimum.reduce([
        circle_gap(theta, a), circle_gap(theta, b),
        circle_gap(theta, c), circle_gap(theta, d),
    ])
    return np.where(in_arc, 0.0, dist)


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
    """Time-independent terms of the horizontal drift of points x0."""
    s = np.sign(x0 - 0.5)
    r0 = np.maximum(np.abs(x0 - 0.5) - ROOF_STRIP_HALF_WIDTH, 0.0)
    knee = ROOF_DRIFT_CAP / ROOF_DRIFT_RATE          # gap where regimes meet
    t_lin = np.maximum(r0 - knee, 0.0) / ROOF_DRIFT_CAP
    still = s * np.abs(x0 - 0.5) * (r0 == 0)
    return s, r0, t_lin, np.minimum(r0, knee), r0 > 0, still


def _roof_x_at(drift: tuple, t) -> np.ndarray:
    """Horizontal drift toward the periodic strip, in closed form.

    Gap to the strip decays linearly at speed 1/2 while above 0.1, then
    exponentially at rate 5 (the two regimes match at gap 0.1).  ``drift``
    holds the terms of :func:`_roof_drift`, so a bisection over t only
    recomputes the t-dependent part.
    """
    s, r0, t_lin, r_knee, moving, still = drift
    t = np.asarray(t, dtype=float)
    lin = r0 - ROOF_DRIFT_CAP * np.minimum(t, t_lin)
    r = np.where(t <= t_lin, lin, r_knee * np.exp(-ROOF_DRIFT_RATE * (t - t_lin)))
    return 0.5 + s * (ROOF_STRIP_HALF_WIDTH + r) * moving + still


def _roof_march(coords: np.ndarray, steps: np.ndarray) -> None:
    """Fill ``coords[1:]`` in place: ``coords[j]`` is phi_{steps[j-1]} of ``coords[j-1]``.

    Bit for bit the row-by-row application of the single-step evaluator,
    without stepping row by row where nothing happens:

    * x never depends on y, so every row of x comes first, from the same
      :func:`_roof_drift` / :func:`_roof_x_at` calls a single step makes.
    * A point in the strip keeps its x, and its height steps as
      ``(y + dt) % tau``.
    * A drifting point's height steps as ``y + dt`` until a step reaches
      the roof.  Those sums are sequential, so :func:`_roof_scan` takes them
      from ``np.add.accumulate`` over a window of rows: the same doubles.
      The wrap inside that step is then bisected as a single step would,
      and the bisections of all points are batched into one round
      (:func:`_roof_wrap_time`), however far apart their rows are.

    A drifting height is identified with the floor on the first row only:
    a single step never ends it at or above its roof.  A strip height is
    checked on every row, since ``(y + dt) % tau`` rounds to ``tau`` when
    a height just below the floor takes a tiny step.
    """
    rows = coords.shape[0]
    x, y = coords[0, :, 0].copy(), coords[0, :, 1].copy()
    tau0 = roof_height(x)
    if np.any((x < -1e-12) | (x > 1 + 1e-12) | (y < -1e-12) | (y > tau0 + 1e-9)):
        raise ValueError("point outside the roof domain")
    y[y >= tau0] = 0.0                                 # identified points

    entry = np.full(x.size, rows)                      # first row stepped from the strip
    for j in range(1, rows):
        in_strip = np.abs(x - 0.5) <= ROOF_STRIP_HALF_WIDTH
        entry[in_strip & (entry == rows)] = j
        x = np.where(in_strip, x, _roof_x_at(_roof_drift(x), steps[j - 1]))
        coords[j, :, 0] = x
    _roof_drifting_rows(coords, steps, y, entry)
    _roof_strip_rows(coords, steps, y, entry)


def _roof_strip_rows(coords, steps, y0, entry) -> None:
    """Heights of points from the row they step from inside the strip on."""
    ids = np.nonzero(entry < coords.shape[0])[0]
    if not ids.size:
        return
    ids = ids[np.argsort(entry[ids], kind="stable")]
    first = entry[ids]
    tau = roof_height(coords[first - 1, ids, 0])       # x stays put in the strip
    y = np.where(first == 1, y0[ids], coords[first - 1, ids, 1])
    for j in range(int(first[0]), coords.shape[0]):
        k = int(np.searchsorted(first, j, side="right"))
        cur = y[:k]
        cur[cur >= tau[:k]] = 0.0                      # identified points
        np.add(cur, steps[j - 1], out=cur)
        np.remainder(cur, tau[:k], out=cur)
        coords[j, ids[:k], 1] = cur


def _roof_drifting_rows(coords, steps, y0, entry) -> None:
    """Heights of points over the steps they start outside the strip.

    Each round scans every drifting point's steps up to its next wrap and
    bisects all those wraps at once.  A point's state is the step into
    ``row`` and its height ``ya`` at time ``sa`` into that step.
    """
    ids = np.nonzero(entry > 1)[0]
    row = np.ones(ids.size, dtype=np.int64)
    ya, sa = y0[ids], np.zeros(ids.size)
    while ids.size:
        ids, row, ya, sa = _roof_scan(coords, steps, entry, ids, row, ya, sa)
        sa = _roof_wrap_time(_roof_drift(coords[row - 1, ids, 0]), ya, sa, steps[row - 1])
        ya = np.zeros(ids.size)


_SCAN_ROWS = 16     # rows per scan window; a wrap every 9 rows or fewer at steps T/8, T = 1


def _roof_scan(coords, steps, entry, ids, row, ya, sa):
    """Step drifting heights from their state to the first step that wraps.

    The rest of the current step ends at ``clip(ya + (dt - sa), 0)``, as a
    single step ends; each later step adds ``dt``, in order, through
    ``np.add.accumulate`` over a window of rows.  A step wraps when its
    end height reaches the roof: ``a - b >= 0`` is ``a >= b`` for doubles.
    Writes the heights of the steps before; returns the state of every
    point at the start of its wrapping step.
    """
    wraps = []
    k = np.arange(min(_SCAN_ROWS, coords.shape[0] - 1))[:, None]
    while ids.size:
        end = entry[ids]
        r = row + k
        valid = r < end
        r = np.minimum(r, end - 1)
        acc = steps[r - 1]
        acc[0] = np.clip(ya + (acc[0] - sa), 0.0, None)
        np.add.accumulate(acc, axis=0, out=acc)
        hit = (acc >= roof_height(coords[r, ids, 0])) & valid
        first = hit.argmax(axis=0)
        found = hit.any(axis=0)
        write = k < np.where(found, first, valid.sum(axis=0))
        coords[r[write], np.broadcast_to(ids, r.shape)[write], 1] = acc[write]
        f = np.nonzero(found)[0]
        kf, now = first[f], first[f] == 0
        wraps.append((ids[f], r[kf, f], np.where(now, ya[f], acc[kf - 1, f]),
                      np.where(now, sa[f], 0.0)))
        go_on = ~found & (row + k.size < end)
        ids, row, ya = ids[go_on], row[go_on] + k.size, acc[-1, go_on]
        sa = np.zeros(ids.size)
    return tuple(np.concatenate(part) for part in zip(*wraps)) if wraps else (ids, row, ya, sa)


def _roof_wrap_time(drift: tuple, ya, sa, t) -> np.ndarray:
    """Wrap time in [sa, t] of heights ya at time sa, by 52 bisection steps.

    The wrap condition ya + (s - sa) == tau(x(s)) has a unique root
    because d/ds of the left side is 1 while the roof height along the
    drift changes at rate at most |tau'| * |dx/dt| < 0.8.  Elements in the
    exponential drift regime with no earlier wrap in their step take
    :func:`_roof_wrap_exp`; the rest take the general predicate.
    """
    s, _, t_lin, r_knee, _, _ = drift
    hi = np.array(t, dtype=float)
    fast = (t_lin == 0) & (sa == 0)
    slow = np.nonzero(~fast)[0]
    if slow.size:
        hi[slow] = _roof_wrap_general(tuple(term[slow] for term in drift),
                                      ya[slow], sa[slow], hi[slow])
    fast = np.nonzero(fast)[0]
    if fast.size:
        hi[fast] = _roof_wrap_exp(s[fast], r_knee[fast], ya[fast], hi[fast])
    return hi


def _roof_wrap_general(drift: tuple, ya, sa, hi) -> np.ndarray:
    lo = sa.copy()
    for _ in range(52):
        mid = 0.5 * (lo + hi)
        wrapped = ya + (mid - sa) - roof_height(_roof_x_at(drift, mid)) >= 0
        hi = np.where(wrapped, mid, hi)
        lo = np.where(wrapped, lo, mid)
    return hi


def _roof_wrap_exp(s, r_knee, ya, hi) -> np.ndarray:
    """The general bisection where t_lin == 0 and sa == 0, in place.

    Same doubles with fewer calls.  ``mid - sa`` and ``mid - t_lin`` are
    ``mid`` exactly, and the drift takes its exponential branch (at
    mid == 0 both branches give r0).  ``* moving`` multiplies by 1 and
    ``+ still`` adds a zero, since a drifting point has r0 > 0.  With
    v = 0.1 + r and c = s / 2, |(0.5 + s * v) - 0.5| is (v + c) - c:
    rounding commutes with negation, so for s = -1 the two sums are those
    of (v - 0.5) + 0.5 negated, and the absolute value drops the sign.
    And ``a - b >= 0`` is ``a >= b``.  Every rounding step of
    :func:`_roof_x_at` and :func:`roof_height` is kept.
    """
    c = 0.5 * s
    lo = np.zeros_like(hi)
    mid, h, q = np.empty_like(hi), np.empty_like(hi), np.empty_like(hi)
    wrapped = np.empty(hi.shape, dtype=bool)
    for _ in range(52):
        np.add(lo, hi, out=mid)
        mid *= 0.5
        np.multiply(mid, -ROOF_DRIFT_RATE, out=h)
        np.exp(h, out=h)
        h *= r_knee
        h += ROOF_STRIP_HALF_WIDTH                     # v = 0.1 + r
        h += c
        h -= c                                         # |x(mid) - 0.5|
        np.sqrt(h, out=h)
        h += ROOF_RIDGE                                # tau(x(mid))
        np.add(ya, mid, out=q)
        np.greater_equal(q, h, out=wrapped)
        np.copyto(hi, mid, where=wrapped)
        np.logical_not(wrapped, out=wrapped)
        np.copyto(lo, mid, where=wrapped)
    return hi


# -- grid transitions --------------------------------------------------


@dataclass(eq=False)
class GridTransition:
    """Grid-projected images of phi_{mT} for m = 1..m_max.

    ``exact_images[m-1]`` holds the continuous images for built-in
    systems (None for sampled flows); downstream jump costs are derived
    from these, so projection error is never hidden.
    """

    T: float
    m_max: int
    images: np.ndarray = field(repr=False)          # (m_max, n) int
    exact_images: np.ndarray | None = field(repr=False, default=None)
    _cycles: tuple | None = field(repr=False, default=None)   # image-map cycles, see stablesets

    @property
    def image(self) -> np.ndarray:
        """Single-step nearest-image map (m = 1)."""
        return self.images[0]


def build_transition(flow: FlowModel, space: GridSpace, T: float, m_max: int) -> GridTransition:
    """Evaluate phi_{mT} exactly on every grid point and project to the grid."""
    if T <= 0:
        raise ValueError(f"time step T={T} must be positive")
    if m_max < 1:
        raise ValueError(f"m_max={m_max} must be a positive integer")
    exact = np.empty((m_max, space.n, space.dim))
    for m in range(1, m_max + 1):
        exact[m - 1] = flow.evaluate(space.points, m * T)
    images = np.empty((m_max, space.n), dtype=np.int64)
    for m in range(m_max):
        images[m] = space.nearest(exact[m])
    return GridTransition(T=T, m_max=m_max, images=images, exact_images=exact)


def load_sampled_transition(path, space: GridSpace, T: float, m_max: int) -> tuple[FlowModel, GridTransition]:
    """Ingest a custom flow from CSV rows ``point_index,m,image_index``.

    Every (point, m) pair for m = 1..m_max must be present exactly once.
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
    return flow, GridTransition(T=T, m_max=m_max, images=images, exact_images=None)
