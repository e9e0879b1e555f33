"""Spans around the public functions of each ``scrl`` layer, and the
per-layer metrics derived from them.

The launcher calls :meth:`Tracer.install` inside the measured ``scrl``
process.  Spans (name, start, end, parent) stay in memory and are
written once, when the process ends.  :func:`layer_metrics` turns one
process's spans and counters into the per-layer figures of the
benchmark: ``.s`` is self time (span minus its child spans), ``.calls``
and the other counts are exact.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

# (module, qualified name, span name).  A dotted qualified name is a method.
TRACED = [
    ("scrl.space", "build_grid", "space.build_grid"),
    ("scrl.space", "GridSpace.nearest", "space.nearest"),
    ("scrl.space", "GridSpace.dist_coords_to_grid", "space.dist_coords_to_grid"),
    ("scrl.space", "GridSpace.dist_coords_to_subset", "space.dist_coords_to_subset"),
    ("scrl.space", "GridSpace.thicken", "space.thicken"),
    ("scrl.flows", "build_transition", "flows.build_transition"),
    ("scrl.flows", "FlowModel.evaluate", "flows.evaluate"),
    ("scrl.orbits", "build_orbit_data", "orbits.build_orbit_data"),
    ("scrl.chaingraph", "build_chain_graph", "chaingraph.build_chain_graph"),
    ("scrl.chaingraph", "ChainGraph.all_pairs", "chaingraph.all_pairs"),
    ("scrl.chaingraph", "omega_budget", "chaingraph.omega_budget"),
    ("scrl.chaingraph", "compute_cr", "chaingraph.compute_cr"),
    ("scrl.stablesets", "build_strongly_stable", "stablesets.build_strongly_stable"),
    ("scrl.stablesets", "complementary", "stablesets.complementary"),
    ("scrl.stablesets", "nested_neighborhoods", "stablesets.nested_neighborhoods"),
    ("scrl.stablesets", "avoidance_profile", "stablesets.avoidance_profile"),
    ("scrl.stablesets", "omega_limits_all", "stablesets.omega_limits_all"),
    ("scrl.pairs", "enumerate_pairs", "pairs.enumerate_pairs"),
    ("scrl.pairs", "select_cover", "pairs.select_cover"),
    ("scrl.lyapunov", "sup_along_orbit", "lyapunov.sup_along_orbit"),
    ("scrl.lyapunov", "verify_lyapunov", "lyapunov.verify_lyapunov"),
    ("scrl.cli", "build_bundle", "cli.build_bundle"),
    ("scrl.cli", "write_json", "cli.write"),
    ("scrl.cli", "write_metadata", "cli.write"),
    ("scrl.cli", "write_field_csv", "cli.write"),
    ("scrl.cli", "write_combined_csv", "cli.write"),
    ("scrl.chaingraph", "export_graph_csv", "cli.write"),
]

# Per-layer metrics in the order they are reported, with their units.
# ``trace.wall_s`` is the traced process's wall time, for the overhead.
LAYER_METRICS = {
    "space.build_grid.s": "s",
    "space.nearest.calls": "count",
    "space.nearest.points": "count",
    "space.nearest.s": "s",
    "space.dist_coords_to_grid.s": "s",
    "space.dist_coords_to_subset.calls": "count",
    "space.dist_coords_to_subset.s": "s",
    "space.thicken.calls": "count",
    "space.thicken.s": "s",
    "flows.build_transition.s": "s",
    "flows.evaluate.points": "count",
    "flows.evaluate.s": "s",
    "orbits.build_orbit_data.s": "s",
    "chaingraph.build_chain_graph.s": "s",
    "chaingraph.edges": "count",
    "chaingraph.all_pairs.s": "s",
    "chaingraph.all_pairs.bytes": "bytes",
    "chaingraph.omega_budget.calls": "count",
    "chaingraph.omega_budget.s": "s",
    "chaingraph.compute_cr.s": "s",
    "stablesets.build_strongly_stable.calls": "count",
    "stablesets.build_strongly_stable.s": "s",
    "stablesets.complementary.s": "s",
    "stablesets.nested_neighborhoods.calls": "count",
    "stablesets.nested_neighborhoods.s": "s",
    "stablesets.avoidance_profile.s": "s",
    "stablesets.omega_limits_all.s": "s",
    "pairs.enumerate_pairs.s": "s",
    "pairs.candidates": "count",
    "pairs.selected": "count",
    "pairs.certified_ratio": "ratio",
    "pairs.selected_ratio": "ratio",
    "pairs.select_cover.s": "s",
    "lyapunov.sup_along_orbit.calls": "count",
    "lyapunov.sup_along_orbit.s": "s",
    "lyapunov.verify_lyapunov.s": "s",
    "cli.build_bundle.s": "s",
    "cli.write.s": "s",
    "cli.artifact_bytes": "bytes",
    "trace.wall_s": "s",
}


def _rows(pts) -> int:
    shape = getattr(pts, "shape", None)
    if shape is None:
        return len(pts)
    return 1 if len(shape) < 2 else int(shape[0])


class Tracer:
    """Records spans and counters for one process."""

    def __init__(self):
        self.spans: list = []          # [name, start, end, parent index]
        self.counters: Counter = Counter()
        self._apsp: dict = {}          # id -> nbytes of matrices all_pairs returned
        self._stack: list = []

    def _count(self, name: str, args, kwargs, result) -> None:
        c = self.counters
        if name in ("space.nearest", "flows.evaluate"):
            c[name + ".points"] += _rows(args[1] if len(args) > 1 else kwargs["pts"])
        elif name == "chaingraph.build_chain_graph":
            c["chaingraph.edges"] += int(result.n_edges)
        elif name == "chaingraph.all_pairs":
            self._apsp[id(result)] = int(result.nbytes)
        elif name == "pairs.enumerate_pairs":
            c["pairs.candidates"] += len(result.pairs)
        elif name == "pairs.select_cover":
            c["pairs.selected"] += len(result.selected)

    def wrap(self, fn, name: str):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = clock()
                stack.pop()
            self._count(name, args, kwargs, result)
            return result
        return traced

    def install(self) -> None:
        """Wrap every traced function wherever ``scrl`` looks it up.

        ``pairs`` and ``cli`` import functions by name, so each module
        attribute bound to an original function is replaced too.
        """
        import scrl.cli  # noqa: F401  (imports every layer)
        modules = [m for k, m in sys.modules.items() if k == "scrl" or k.startswith("scrl.")]
        for mod_name, qual, span in TRACED:
            owner = sys.modules[mod_name]
            if "." in qual:
                cls_name, attr = qual.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, attr, self.wrap(getattr(cls, attr), span))
                continue
            original = getattr(owner, qual)
            wrapped = self.wrap(original, span)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)

    def dump(self) -> dict:
        counters = dict(self.counters)
        counters["chaingraph.all_pairs.bytes"] = sum(self._apsp.values())
        return {"spans": self.spans, "counters": counters}


def self_times(spans) -> dict:
    """Total self time and call count per span name."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    total: dict = {}
    for (name, start, end, _), inner in zip(spans, child):
        s, n = total.get(name, (0.0, 0))
        total[name] = (s + (end - start) - inner, n + 1)
    return total


def layer_metrics(trace: dict, artifact_bytes: int, wall_s: float) -> dict:
    """Per-layer metrics of one traced process, keyed as in LAYER_METRICS."""
    times = self_times(trace["spans"])
    counters = trace["counters"]
    out = {}
    for metric in LAYER_METRICS:
        layer, _, kind = metric.rpartition(".")
        if kind == "s":
            out[metric] = times.get(layer, (0.0, 0))[0]
        elif kind == "calls":
            out[metric] = times.get(layer, (0.0, 0))[1]
        else:
            out[metric] = counters.get(metric, 0)
    tried = out["stablesets.build_strongly_stable.calls"]
    cands = out["pairs.candidates"]
    out["pairs.certified_ratio"] = cands / tried if tried else 0.0
    out["pairs.selected_ratio"] = out["pairs.selected"] / cands if cands else 0.0
    out["cli.artifact_bytes"] = artifact_bytes
    out["trace.wall_s"] = wall_s
    return out
