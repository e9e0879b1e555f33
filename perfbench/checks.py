"""Output checks for the benchmark workloads.

Each check reads the artifacts of one ``scrl`` run and returns a list of
problems, empty when the outputs are correct.  The references are
computed here from the documented dynamics, or are properties the
method must have; none of them calls into ``scrl``.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

# Default circle markers (README "Built-in systems"): the closed arc from
# A through E to B and the isolated points C and D are fixed.
CIRCLE_B, CIRCLE_C, CIRCLE_D, CIRCLE_A = 0.0, 0.375, 0.625, 0.875
ROOF_STRIP_HALF_WIDTH = 0.1


def digest(out: Path) -> str:
    """One hash over the names and bytes of every artifact in ``out``."""
    h = hashlib.sha256()
    for path in sorted(out.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def _json(out: Path, name: str):
    return json.loads((out / name).read_text())


def _csv(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


# -- analyze -------------------------------------------------------------


def check_lyapunov(out: Path) -> list[str]:
    """Verify report, H = sum h_n 3^-n, 0 <= l <= k <= 1, h = 1 on B_star."""
    problems = []
    report = _json(out, "verify_report.json")
    if report["monotonicity_violations"]:
        problems.append(f"{len(report['monotonicity_violations'])} monotonicity violations")
    if not report["strict_pass_fraction"] >= 0.99:
        problems.append(f"strict pass fraction {report['strict_pass_fraction']} < 0.99")

    s_max = _json(out, "metadata.json")["config"]["s_max"]
    catalog = _json(out, "pairs.json")
    combined = _csv(out / "lyapunov_combined.csv")
    if not catalog["selected"]:
        problems.append("no stable pair selected")
    H = np.zeros(combined.shape[0])
    for rank, idx in enumerate(catalog["selected"]):
        fld = _csv(out / f"lyapunov_pair_{rank}.csv")
        if not np.array_equal(fld[:, :3], combined[:, :3]):
            problems.append(f"pair {rank}: points differ from lyapunov_combined.csv")
            continue
        l, k, h = fld[:, 3], fld[:, 4], fld[:, 5]
        if not (np.all(l >= 0) and np.all(l <= k) and np.all(k <= 1)):
            problems.append(f"pair {rank}: 0 <= l <= k <= 1 fails")
        b_star = np.asarray(catalog["pairs"][idx]["B_star"], dtype=int)
        if b_star.size and np.max(np.abs(1.0 - h[b_star])) > math.exp(-s_max):
            problems.append(f"pair {rank}: h differs from 1 on B_star by more than e^-S_max")
        H += h * 3.0 ** (-rank)
    if (out / f"lyapunov_pair_{len(catalog['selected'])}.csv").exists():
        problems.append("more lyapunov_pair files than selected pairs")
    if not np.array_equal(H, combined[:, 3]):
        problems.append("lyapunov_combined.csv is not sum h_n 3^-n")
    return problems


def check_roof(out: Path, grid: int) -> list[str]:
    """SCR hugs the periodic strip |x - 1/2| <= 0.1."""
    problems = check_lyapunov(out)
    scr = _json(out, "scr.json")["results"][0]
    x = _csv(out / "lyapunov_combined.csv")[:, 1]
    gap = np.maximum(np.abs(x - 0.5) - ROOF_STRIP_HALF_WIDTH, 0.0)
    members = np.asarray(scr["members"], dtype=int)
    if members.size == 0:
        problems.append("no strong chain recurrent points")
    elif np.any(gap[members] > 2.0 / grid):
        problems.append("SCR member farther than 2 cells from the strip")
    nonstrip = np.nonzero(gap > 0)[0]
    excluded = np.setdiff1d(nonstrip, members).size / max(nonstrip.size, 1)
    if excluded < 0.90:
        problems.append(f"only {excluded:.1%} of non-strip points excluded")
    return problems


def square_descent(y: np.ndarray, T: float = 1.0) -> np.ndarray:
    """y - phi_T(y) under dy/dt = -y(1-y), solved in the odds z = y/(1-y)."""
    z = y / (1.0 - y) * math.exp(-T)
    return y - z / (1.0 + z)


def square_member_allowed(y: np.ndarray, epsilon: float) -> np.ndarray:
    """Heights where a chain of total jump cost < epsilon can return.

    Flow only moves points down and jumps must climb back what it took,
    so a cycle costs at least the one-step descent at some height within
    epsilon of the start.
    """
    fine = np.linspace(0.0, 1.0, 20001)[1:-1]
    cheap = fine[square_descent(fine) < epsilon]
    near = np.abs(y[:, None] - cheap[None, :]) <= epsilon
    return near.any(axis=1) | (y <= epsilon) | (y >= 1.0 - epsilon)


def check_square(out: Path, grid: int) -> list[str]:
    """Empty cover residual, SCR at the fixed edges, H rising up every column."""
    problems = check_lyapunov(out)
    if _json(out, "pairs.json")["residual"]:
        problems.append("cover residual is not empty")
    scr = _json(out, "scr.json")["results"][0]
    combined = _csv(out / "lyapunov_combined.csv")
    x, y, H = combined[:, 1], combined[:, 2], combined[:, 3]
    members = np.asarray(scr["members"], dtype=int)
    if members.size == 0:
        problems.append("no strong chain recurrent points")
    elif not np.all(square_member_allowed(y[members], scr["epsilon"])):
        problems.append("SCR member away from the fixed edges y = 0 and y = 1")
    drops = 0
    for col in np.unique(x):
        ids = np.nonzero(x == col)[0]
        drops += int(np.sum(np.diff(H[ids[np.argsort(y[ids])]]) < 0))
    if drops:
        problems.append(f"H decreases up a column at {drops} places")
    return problems


# -- circle sweep ----------------------------------------------------------


def circle_speed(theta: np.ndarray) -> np.ndarray:
    """d theta / dt: distance to the fixed set on each wandering arc."""
    th = theta % 1.0
    speed = np.zeros_like(th)
    for lo, hi in ((CIRCLE_B, CIRCLE_C), (CIRCLE_C, CIRCLE_D), (CIRCLE_D, CIRCLE_A)):
        sel = (th > lo) & (th < hi)
        speed[sel] = np.minimum(th[sel] - lo, hi - th[sel])
    return speed


def circle_fixed(theta: np.ndarray) -> np.ndarray:
    return ((theta >= CIRCLE_A) | (theta <= CIRCLE_B)
            | (theta == CIRCLE_C) | (theta == CIRCLE_D))


def _gap(a, b):
    d = np.abs(a - b) % 1.0
    return np.minimum(d, 1.0 - d)


class CircleReference:
    """Minimum return costs from an independent integration of the circle.

    The flow is integrated with classical RK4 and the jump graph is the
    dense arc-length cost matrix of the m-step images, m = 1..m_max.  A
    plain Dijkstra on the reversed graph gives each sampled point's
    cheapest way back.
    """

    # With 2000 RK4 steps per unit time the costs agree with scrl's
    # closed-form flow to 2e-9 at every point of grids 1024 and 2048.
    TOL = 1e-7

    def __init__(self, n: int, sample, limit: float, T: float = 1.0, m_max: int = 4,
                 steps_per_T: int = 2000):
        self.n, self.limit = n, limit
        self.sample = np.asarray(sample, dtype=int)
        theta = np.arange(n) / n
        x, h = theta.copy(), T / steps_per_T
        W = np.full((n, n), np.inf)
        for _ in range(m_max):
            for _ in range(steps_per_T):
                k1 = circle_speed(x)
                k2 = circle_speed(x + 0.5 * h * k1)
                k3 = circle_speed(x + 0.5 * h * k2)
                k4 = circle_speed(x + h * k3)
                x = x + h / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
            np.minimum(W, _gap(x[:, None] % 1.0, theta[None, :]), out=W)
        W[W > limit + self.TOL] = np.inf
        into = np.ascontiguousarray(W.T)           # into[v] = costs of edges x -> v
        self.cost = np.array([self._return_cost(W, into, int(u)) for u in self.sample])

    def _return_cost(self, W: np.ndarray, into: np.ndarray, u: int) -> float:
        back = np.full(self.n, np.inf)             # cheapest chain cost x -> u
        back[u] = 0.0
        done = np.zeros(self.n, dtype=bool)
        while True:
            open_costs = np.where(done, np.inf, back)
            v = int(np.argmin(open_costs))
            if open_costs[v] > self.limit + self.TOL:
                break
            done[v] = True
            np.minimum(back, into[v] + back[v], out=back)
        return float(np.min(W[u] + back))


def check_circle(out: Path, ref: CircleReference, epsilons) -> list[str]:
    """SCR within CR, nested over epsilon, fixed set inside, costs match ref."""
    problems = []
    scr = sorted(_json(out, "scr.json")["results"], key=lambda r: r["epsilon"])
    cr = {r["epsilon"]: set(r["members"]) for r in _json(out, "cr.json")["results"]}
    if [r["epsilon"] for r in scr] != sorted(epsilons) or sorted(cr) != sorted(epsilons):
        return [f"budgets {[r['epsilon'] for r in scr]} differ from {sorted(epsilons)}"]
    fixed = np.nonzero(circle_fixed(np.arange(ref.n) / ref.n))[0]
    prev: set = set()
    for r in scr:
        members = set(r["members"])
        if not members <= cr[r["epsilon"]]:
            problems.append(f"SCR not within CR at epsilon {r['epsilon']}")
        if not prev <= members:
            problems.append(f"SCR at epsilon {r['epsilon']} misses smaller-budget members")
        if not set(fixed.tolist()) <= members:
            problems.append(f"fixed points missing from SCR at epsilon {r['epsilon']}")
        prev = members
    if not _json(out, "compare.json")["scr_subset_of_cr"]:
        problems.append("compare.json reports SCR outside CR")
    got, limit = scr[-1]["min_return_cost"], scr[-1]["cost_limit"]
    for u, want in zip(ref.sample, ref.cost):
        have = got[u]
        if have is None:
            if want < limit - ref.TOL:
                problems.append(f"point {u}: cost missing, reference {want!r}")
        elif abs(have - want) > ref.TOL:
            problems.append(f"point {u}: cost {have!r}, reference {want!r}")
    return problems
