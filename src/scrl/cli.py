"""Pipeline orchestration and the ``scrl`` command line tool.

Each subcommand is a list of pipeline stages (``COMMANDS``), all run by
``run_pipeline``: ``analyze`` runs every stage, ``compare`` runs scr and
cr and checks SCR within CR, and each other stage subcommand (``scr``,
``cr``, ``pairs``, ``lyapunov``, ``verify``) runs its one stage against
the cached artifacts of the earlier ones in the output directory.
``oracle-check`` diffs the fast shortest-path machinery against
brute-force references.  All outputs are deterministic: repeated
runs with the same configuration produce byte-identical files.

Exit codes: 0 success, 1 configuration or missing-cache error, 2 crash,
3 ran to completion but a verified property failed.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import MISSING, asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import __version__
from .chaingraph import (ChainGraph, ScrResult, build_chain_graph, compute_cr, compute_scr,
                         export_graph_csv, graph_from_edges, min_return_cost_all,
                         omega_budget)
from .flows import FlowModel, GridTransition, build_transition, load_sampled_transition, make_flow
from .lyapunov import (CombinedLyapunov, LyapunovField, combine_pairs,
                       sup_along_orbit, verify_lyapunov)
from .orbits import FINE_DIVISOR, OrbitData, build_orbit_data
from .pairs import PairCatalog, default_radii, default_seed_stride, enumerate_pairs, select_cover
from .space import DOMAINS, GridSpace, _fw_closure, build_grid
from .stablesets import default_eta_samples

DEFAULT_GRID = {"circle": 256, "square": 32, "roof": 48, "identity": 64, "custom": 64}
DOMAIN_OF = {"circle": "circle", "square": "unit-square", "roof": "roof",
             "identity": "circle", "custom": None}


@dataclass
class RunConfig:
    """Everything needed to reproduce a run; serialized into metadata.json."""

    system: str = "circle"
    grid_n: int = 0                  # 0 = per-system default
    grid_domain: str = ""            # custom flows only
    epsilon: float = 0.05
    T: float = 1.0
    m_max: int = 4
    prune_radius: float = 0.0        # 0 = 10 * resolution
    radii: list = field(default_factory=list)
    seed_stride: int = 0
    neighborhood_scale: float = 0.0  # 0 = domain diameter
    eta_count: int = 32
    eta_lo: float = 0.01
    eta_hi: float = 0.99
    s_max: float = 20.0
    horizon_steps: int = 200
    t_probe: float = 1.0
    margin: float = 0.0              # 0 = adaptive
    flow_csv: str = ""
    epsilons: list = field(default_factory=list)   # every budget of a sweep; [] = [epsilon]

    @property
    def budgets(self) -> list:
        """The budgets scr and cr run at, ascending; epsilon is the smallest."""
        return sorted(set(self.epsilons)) or [self.epsilon]

    @property
    def grid(self) -> int:
        """grid_n, or the system's default grid."""
        return self.grid_n or DEFAULT_GRID[self.system]

    def validate(self) -> None:
        if self.system not in DEFAULT_GRID:
            raise ConfigError(f"unknown system {self.system!r}")
        for name in ("epsilon", "T", "s_max", "t_probe"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if self.budgets[0] != self.epsilon:
            raise ConfigError(f"epsilon {self.epsilon} is not the smallest of {self.epsilons}")
        for name in ("m_max", "horizon_steps", "eta_count"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be a positive integer")
        if self.grid_n and self.grid_n < 8:
            raise ConfigError(f"grid {self.grid_n} too coarse; need at least 8 (0 = default)")
        if self.system == "custom" and not self.flow_csv:
            raise ConfigError("custom system needs --flow-csv")
        if self.grid_domain and self.grid_domain not in DOMAINS:
            raise ConfigError(f"unknown grid domain {self.grid_domain!r}")
        if self.grid_domain and self.system != "custom":
            raise ConfigError(f"grid domain applies to custom flows only; "
                              f"{self.system} runs on {DOMAIN_OF[self.system]}")
        for name in ("eta_lo", "eta_hi"):
            if not 0 < getattr(self, name) < 1:
                raise ConfigError(f"{name} must lie in (0, 1)")
        for name in ("neighborhood_scale", "seed_stride", "margin"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must not be negative (0 = default)")

    def check_resolution(self, resolution: float) -> None:
        """Radii the grid cannot resolve: too small to hold their edges or balls."""
        if self.prune_radius and self.prune_radius < 3 * resolution:
            raise ConfigError(
                f"prune radius {self.prune_radius} < 3 * resolution {3 * resolution:.4g}; "
                "near-zero-cost continuation edges would be lost")
        if self.radii and min(self.radii) < 2 * resolution:
            raise ConfigError(
                f"radius {min(self.radii)} < 2 * resolution {2 * resolution:.4g}")

    def check_orbit_times(self) -> None:
        """Times the orbit must sample: its fine lattice has step
        T / FINE_DIVISOR and reaches s_max + 4T."""
        fine = self.T / FINE_DIVISOR
        for name in ("s_max", "t_probe"):
            value = getattr(self, name)
            if abs(round(value / fine) * fine - value) > 1e-9:
                raise ConfigError(f"{name} {value} is not a multiple of T/{FINE_DIVISOR} = {fine}")
        if not self.T <= self.t_probe <= 4 * self.T:
            raise ConfigError(f"t_probe {self.t_probe} outside [T, 4T] for T = {self.T}")


class ConfigError(Exception):
    pass


class MissingCache(Exception):
    def __init__(self, artifact: str, prerequisite: str):
        super().__init__(
            f"missing {artifact}; run `scrl {prerequisite}` with the same "
            f"--out directory first")


@dataclass(eq=False)
class RunBundle:
    cfg: RunConfig
    space: GridSpace
    flow: FlowModel
    tr: GridTransition
    graph: ChainGraph
    orbit: OrbitData | None = None

    @property
    def scale(self) -> float:
        return self.cfg.neighborhood_scale or self.space.diameter

    @property
    def radii(self) -> list:
        return self.cfg.radii or default_radii(self.space.resolution)

    @property
    def seed_stride(self) -> int:
        return self.cfg.seed_stride or default_seed_stride(self.space.n)

    def ensure_orbit(self) -> OrbitData:
        if self.orbit is None:
            self.cfg.check_orbit_times()
            self.orbit = build_orbit_data(
                self.flow, self.space, self.cfg.T,
                fine_horizon=self.cfg.s_max + 4 * self.cfg.T,
                horizon=self.cfg.horizon_steps * self.cfg.T,
                t_steps=self.cfg.horizon_steps)
        return self.orbit


def default_prune_radius(cfg: RunConfig, space: GridSpace) -> float:
    """Sparse by default, but never below the largest requested budget."""
    return max(10 * space.resolution, 1.25 * cfg.budgets[-1])


def build_bundle(cfg: RunConfig) -> RunBundle:
    cfg.validate()
    space = build_grid(DOMAIN_OF[cfg.system] or cfg.grid_domain or "circle", cfg.grid)
    cfg.check_resolution(space.resolution)
    if cfg.system == "custom":
        try:
            flow, tr = load_sampled_transition(cfg.flow_csv, space, cfg.T, cfg.m_max)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"flow CSV {cfg.flow_csv}: {exc}") from exc
    else:
        flow = make_flow(cfg.system)
        tr = build_transition(flow, space, cfg.T, cfg.m_max)
    prune = cfg.prune_radius or default_prune_radius(cfg, space)
    if cfg.budgets[-1] > prune:
        raise ConfigError(
            f"epsilon {cfg.budgets[-1]} exceeds prune radius "
            f"{prune:.4g}; chains at this budget would need pruned edges")
    graph = build_chain_graph(space, tr, flow, prune)
    return RunBundle(cfg=cfg, space=space, flow=flow, tr=tr, graph=graph)


# -- stages --------------------------------------------------------------


def scr_cost_limit(bundle: RunBundle, epsilons: list[float]) -> float:
    """Return costs above this limit are reported as +inf."""
    return max(epsilons) + 10 * bundle.space.resolution


def stage_scr(bundle: RunBundle, epsilons: list[float]) -> list:
    limit = scr_cost_limit(bundle, epsilons)
    return [compute_scr(bundle.graph, e, cost_limit=limit) for e in sorted(epsilons)]


def stage_cr(bundle: RunBundle, epsilons: list[float]) -> dict:
    return {e: compute_cr(bundle.graph, e) for e in sorted(epsilons)}


def stage_pairs(bundle: RunBundle, scr) -> PairCatalog:
    cfg = bundle.cfg
    etas = default_eta_samples(cfg.eta_count, cfg.eta_lo, cfg.eta_hi)
    catalog = enumerate_pairs(
        bundle.graph, bundle.tr, bundle.space, cfg.epsilon, bundle.radii, bundle.seed_stride,
        scr, bundle.ensure_orbit(), bundle.scale, etas, t_cap_steps=cfg.horizon_steps)
    return select_cover(catalog, scr, bundle.space)


def stage_lyapunov(bundle: RunBundle, catalog: PairCatalog
                   ) -> tuple[list[LyapunovField], CombinedLyapunov]:
    orbit = bundle.ensure_orbit()
    fields = sup_along_orbit([catalog.pairs[i] for i in catalog.selected], bundle.space,
                             orbit, s_max=bundle.cfg.s_max)
    return fields, combine_pairs(fields, bundle.space.n)


def adaptive_margin(cfg: RunConfig, space: GridSpace, n_pairs: int) -> float:
    if cfg.margin:
        return cfg.margin
    return max(1e-4, space.resolution / 10) * 3.0 ** (-n_pairs)


def stage_verify(bundle: RunBundle, catalog: PairCatalog,
                 fields: list[LyapunovField], scr) -> dict:
    margin = adaptive_margin(bundle.cfg, bundle.space, len(fields))
    selected_pairs = [catalog.pairs[i] for i in catalog.selected]
    return verify_lyapunov(
        fields, selected_pairs, bundle.space, bundle.ensure_orbit(), scr,
        t_probe=bundle.cfg.t_probe, margin=margin)


def verify_passed(report: dict) -> bool:
    """The pass gate: no monotonicity violation, strict decrease almost everywhere."""
    return not report["monotonicity_violations"] and report["strict_pass_fraction"] >= 0.99


# Stages of each subcommand, in the order they run.
COMMANDS = {
    "analyze": ("scr", "cr", "pairs", "lyapunov", "verify"),
    "compare": ("scr", "cr", "compare"),
    **{stage: (stage,) for stage in ("scr", "cr", "pairs", "lyapunov", "verify")},
}


def run_pipeline(cfg: RunConfig, out: Path, stages):
    """Run ``stages`` in order; returns (exit_code, results by name).

    Each stage writes its artifact to ``out`` when it finishes and prints
    one line.  Its inputs come from the earlier stages of this run, or else
    from their cached artifacts in ``out``.  scr and cr run at each of
    ``cfg.budgets``, but only at ``cfg.epsilon`` in a run that goes on to
    pairs: its later stages read the scr of ``cfg.epsilon``.
    """
    bundle = build_bundle(cfg)
    if stages[0] in ("scr", "cr"):           # a run from the start of the chain
        out.mkdir(parents=True, exist_ok=True)
        write_metadata(out, bundle)
    res = {"bundle": bundle}
    epsilons = [cfg.epsilon] if "pairs" in stages else cfg.budgets
    passed = True
    for stage in stages:
        if stage == "scr":
            results = stage_scr(bundle, epsilons)
            res["scr"] = results[0]
            write_json(out / "scr.json", {"results": [r.to_json() for r in results]})
            sizes = {r.epsilon: len(r.members) for r in results}
            print("scr members per epsilon:", json.dumps(_plain(sizes), sort_keys=True))
        elif stage == "cr":
            crs = res["cr"] = stage_cr(bundle, epsilons)
            write_json(out / "cr.json", {"results": [
                {"epsilon": e, "members": [int(i) for i in m]} for e, m in crs.items()]})
            print("cr members per epsilon:", json.dumps({repr(e): len(m) for e, m in crs.items()}))
        elif stage == "compare":           # after scr and cr
            inclusion = all(set(r.members.tolist()) <= set(res["cr"][r.epsilon].tolist())
                            for r in results)
            write_json(out / "compare.json", {"scr_subset_of_cr": inclusion})
            print("scr subset of cr:", inclusion)
            passed &= inclusion
        elif stage == "pairs":
            catalog = res["catalog"] = stage_pairs(bundle, _earlier(res, "scr", out))
            write_json(out / "pairs.json", catalog.to_json())
            print(f"pairs: {len(catalog.pairs)} unique, {len(catalog.selected)} selected, "
                  f"residual {len(catalog.residual)}")
        elif stage == "lyapunov":
            res["fields"], res["combined"] = stage_lyapunov(
                bundle, _earlier(res, "catalog", out))
            for rank, fld in enumerate(res["fields"]):
                write_field_csv(out / f"lyapunov_pair_{rank}.csv", bundle.space, fld)
            write_combined_csv(out / "lyapunov_combined.csv", bundle.space, res["combined"])
            print(f"lyapunov fields written for {len(res['fields'])} pairs")
        elif stage == "verify":
            catalog = _earlier(res, "catalog", out)
            scr = _earlier(res, "scr", out)
            if "fields" not in res:            # recomputed, not read back from the CSVs
                res["fields"] = stage_lyapunov(bundle, catalog)[0]
            report = res["report"] = stage_verify(bundle, catalog, res["fields"], scr)
            write_json(out / "verify_report.json", report)
            print(f"monotonicity violations: {len(report['monotonicity_violations'])}  "
                  f"strict pass fraction: {report['strict_pass_fraction']:.4f}")
            passed &= verify_passed(report)
    return (0 if passed else 3), res


def _earlier(res: dict, name: str, out: Path):
    """Input ``name`` ("scr" or "catalog") from an earlier stage of this
    run, or else from its cached artifact in ``out``."""
    if name not in res:
        artifact, stage = ("scr.json", "scr") if name == "scr" else ("pairs.json", "pairs")
        if not (out / artifact).exists():
            raise MissingCache(artifact, stage)
        cache = json.loads((out / artifact).read_text())
        if name == "catalog":
            res[name] = PairCatalog.from_json(cache)
        else:
            epsilon = res["bundle"].cfg.epsilon
            hits = [r for r in cache["results"] if abs(r["epsilon"] - epsilon) < 1e-12]
            if not hits:
                raise MissingCache(f"scr.json entry for epsilon {epsilon}", "scr")
            res[name] = ScrResult.from_json(hits[0])
    return res[name]


# -- serialization --------------------------------------------------------


def _plain(obj):
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj) if np.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    return obj


def write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(_plain(obj), sort_keys=True, indent=1) + "\n")


def write_metadata(out: Path, bundle: RunBundle) -> None:
    meta = {
        "version": __version__,
        "config": asdict(bundle.cfg),
        "resolved": {
            "grid_n": bundle.cfg.grid,
            "n_points": bundle.space.n,
            "resolution": bundle.space.resolution,
            "pitch": bundle.space.pitch,
            "prune_radius": bundle.graph.prune_radius,
            "neighborhood_scale": bundle.scale,
            "radii": bundle.radii,
            "seed_stride": bundle.seed_stride,
        },
        "flow": bundle.flow.describe(),
    }
    write_json(out / "metadata.json", meta)


def write_field_csv(path: Path, space: GridSpace, fld: LyapunovField) -> None:
    with open(path, "w") as fh:
        fh.write("point_index,x,y,l,k,h\n")
        for i in range(space.n):
            x = float(space.points[i, 0])
            y = float(space.points[i, 1]) if space.dim > 1 else 0.0
            fh.write(f"{i},{x!r},{y!r},{float(fld.l_values[i])!r},"
                     f"{float(fld.k_values[i])!r},{float(fld.h_values[i])!r}\n")


def write_combined_csv(path: Path, space: GridSpace, combined: CombinedLyapunov) -> None:
    H = combined.H_values
    with open(path, "w") as fh:
        fh.write("point_index,x,y,H\n")
        for i in range(space.n):
            x = float(space.points[i, 0])
            y = float(space.points[i, 1]) if space.dim > 1 else 0.0
            fh.write(f"{i},{x!r},{y!r},{float(H[i])!r}\n")


# -- oracle check ----------------------------------------------------------


def floyd_warshall_reference(n: int, edges) -> np.ndarray:
    """Brute-force all-pairs matrix used to diff the fast paths: the
    Floyd-Warshall closure of the cheapest edge per (u, v)."""
    dist = np.full((n, n), np.inf)
    for u, v, w in edges:
        dist[u, v] = min(dist[u, v], w)
    return _fw_closure(dist)


def oracle_check(seeds: int, rng_seed: int = 0) -> dict:
    """Diff min_return_cost_all and omega_budget against the reference matrix.

    Random weights are dyadic (multiples of 2^-20) so both computations
    are exact in floating point and must agree bit for bit.  Besides the
    ``seeds`` small graphs, one sparse graph of 300 nodes spans more than
    one chunk of Dijkstra sources in min_return_cost_all.  Every graph's
    return costs are also checked under finite cost limits that some
    cycles cost exactly, and the circle and square grid graphs under the
    limit of the scr stage, where self-loops, 2-cycles and landmark
    bounds set the search depths.  Each graph's omega_budget is checked
    strict and closed (<=, as the pipeline calls it) at a budget that
    some reach cost equals, where the two differ.
    """
    rng = np.random.default_rng(rng_seed)
    trials = []                 # (exact, exact under limits, exact at a tied budget) per graph
    for trial in range(seeds):
        n = int(rng.integers(4, 40))
        density = rng.uniform(0.05, 0.4)
        trials.append(_dyadic_trial(rng, n, max(1, int(n * n * density))))
    trials.append(_dyadic_trial(rng, 300, 1200))
    grid = {}
    for system in ("circle", "square"):
        bundle = build_bundle(RunConfig(system=system, grid_n=16, epsilon=0.1))
        g = bundle.graph
        q = np.round(g.edge_w * 2 ** 30) / 2 ** 30
        gq, _, mrc_ref = return_cost_reference(g.n, g.edge_u, g.edge_v, q,
                                               resolution=g.resolution)
        grid[f"grid_{system}_exact"] = np.array_equal(min_return_cost_all(gq), mrc_ref)
        limit = scr_cost_limit(bundle, [bundle.cfg.epsilon])
        grid[f"grid_{system}_limited_exact"] = np.array_equal(
            min_return_cost_all(gq, limit), np.where(mrc_ref <= limit, mrc_ref, np.inf))
    mismatches = sum(not all(trial) for trial in trials)
    return {"trials": seeds, "mismatches": mismatches + sum(not ok for ok in grid.values()),
            "wide_graph_exact": trials[-1][0],
            "limited_return_costs_exact": all(limited for _, limited, _ in trials),
            "tied_budgets_exact": all(ties for _, _, ties in trials), **grid}


def return_cost_reference(n: int, u: np.ndarray, v: np.ndarray, w: np.ndarray, **kwargs):
    """The graph of edges (u, v, w), their reference matrix D, and the
    brute-force return costs: the least w + D[v, u] over the out-edges of u."""
    edges = list(zip(u.tolist(), v.tolist(), w.tolist()))
    ref = floyd_warshall_reference(n, edges)
    mrc_ref = np.full(n, np.inf)
    np.minimum.at(mrc_ref, u, w + ref[v, u])
    return graph_from_edges(n, edges, **kwargs), ref, mrc_ref


def _dyadic_trial(rng, n: int, n_edges: int) -> tuple[bool, bool, bool]:
    """One random dyadic digraph: do both fast paths match the reference,
    do the return costs under two limits, each the cost of some cycle,
    match it with the entries above the limit set to +inf, and do the
    strict and the closed (<=) budget match it at a budget that some
    reach cost equals, where the two differ?"""
    u = rng.integers(0, n, n_edges)
    v = rng.integers(0, n, n_edges)
    w = rng.integers(1, 2 ** 20, n_edges) / 2.0 ** 20
    g, ref, mrc_ref = return_cost_reference(n, u, v, w)
    costs = np.unique(mrc_ref[np.isfinite(mrc_ref)])
    limits = costs[[costs.size // 8, costs.size // 2]] if costs.size else []
    limited = all(np.array_equal(min_return_cost_all(g, float(c)),
                                 np.where(mrc_ref <= c, mrc_ref, np.inf)) for c in limits)
    if not np.array_equal(min_return_cost_all(g), mrc_ref):
        return False, limited, False
    eps = float(rng.uniform(0.1, 2.0))
    Y = sorted(set(rng.integers(0, n, 3).tolist()))
    seed_cost = np.full(n, np.inf)
    out_of_Y = np.isin(u, Y)
    np.minimum.at(seed_cost, v[out_of_Y], w[out_of_Y])
    reach_ref = (seed_cost[:, None] + ref).min(axis=0)
    reached = np.unique(reach_ref[np.isfinite(reach_ref)])
    ties = all(np.array_equal(omega_budget(g, Y, float(c), closed=closed),
                              np.nonzero(reach_ref <= c if closed else reach_ref < c)[0])
               for c in reached[reached.size // 2:][:1] for closed in (False, True))
    exact = np.array_equal(omega_budget(g, Y, eps), np.nonzero(reach_ref < eps)[0])
    return exact, limited, ties


# -- argument parsing --------------------------------------------------------


def _add_common(p: argparse.ArgumentParser) -> None:
    # Every config flag defaults to None (absent), so that a --config file
    # keeps its values unless a flag is given explicitly.
    p.add_argument("--system", choices=("circle", "square", "roof", "identity", "custom"),
                   help="default: circle")
    p.add_argument("--grid", type=int, dest="grid_n",
                   help="grid points (circle) or cells per side (planar); 0 = default")
    p.add_argument("--grid-domain", help="domain for custom flows")
    p.add_argument("--epsilon", type=float, action="append",
                   help="chain budget; repeatable where a sweep makes sense")
    p.add_argument("--T", type=float, help="flow time step")
    p.add_argument("--m-max", type=int)
    p.add_argument("--prune-radius", type=float)
    p.add_argument("--radius", type=float, action="append", dest="radii")
    p.add_argument("--seed-stride", type=int)
    p.add_argument("--scale", type=float, dest="neighborhood_scale")
    p.add_argument("--eta-count", type=int)
    p.add_argument("--s-max", type=float)
    p.add_argument("--t-probe", type=float)
    p.add_argument("--margin", type=float)
    p.add_argument("--flow-csv")
    p.add_argument("--config", default="", help="JSON config file; flags override it")
    p.add_argument("--out", default="scrl-out")


def _number(value, integral: bool = False) -> bool:
    return isinstance(value, int if integral else (int, float)) and not isinstance(value, bool)


def check_config_types(values: dict) -> None:
    """Each config value must have its field's type; ints are accepted as floats."""
    for f in fields(RunConfig):
        if f.name not in values:
            continue
        value = values[f.name]
        kind = list if f.default is MISSING else type(f.default)
        if kind is list:
            ok = isinstance(value, list) and all(_number(v) for v in value)
        elif kind in (int, float):
            ok = _number(value, integral=kind is int)
        else:
            ok = isinstance(value, kind)
        if not ok:
            what = "a list of numbers" if kind is list else f"of type {kind.__name__}"
            raise ConfigError(f"config value {f.name} = {value!r} is not {what}")


def config_from_args(args) -> RunConfig:
    """The config file's values, overridden by the flags given explicitly.

    The ``--epsilon`` flags, when given, are the budgets of the run and
    the smallest is ``epsilon``.  A file key that is not a ``RunConfig``
    field is a config error.
    """
    known = {f.name for f in RunConfig.__dataclass_fields__.values()}
    try:
        merged = json.loads(Path(args.config).read_text()) if args.config else {}
    except (OSError, ValueError) as exc:
        raise ConfigError(f"config file {args.config}: {exc}") from exc
    if not isinstance(merged, dict):
        raise ConfigError(f"config file {args.config}: expected a JSON object")
    unknown = sorted(set(merged) - known)
    if unknown:
        hint = ("; epsilon_max was replaced by epsilons, the list of a sweep's budgets"
                if "epsilon_max" in unknown else "")
        raise ConfigError(f"config file {args.config}: unknown keys {unknown}{hint}")
    check_config_types(merged)
    merged.update({k: v for k, v in vars(args).items() if k in known and v is not None})
    if args.epsilon:
        merged.update(epsilon=min(args.epsilon), epsilons=sorted(args.epsilon))
    return RunConfig(**merged)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="scrl",
        description="Strong chain recurrence and Lyapunov synthesis on sampled flows")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        _add_common(p)
        if name == "analyze":
            p.add_argument("--export-graph", action="store_true")
    oc = sub.add_parser("oracle-check")
    oc.add_argument("--seeds", type=int, default=100)
    oc.add_argument("--rng-seed", type=int, default=0)
    oc.add_argument("--out", default="")
    args = parser.parse_args(argv)

    try:
        return _dispatch(args)
    except (ConfigError, MissingCache) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:        # crash, distinct from property failure
        import traceback
        traceback.print_exc()
        return 2


def _dispatch(args) -> int:
    out = Path(args.out)
    if args.command == "oracle-check":
        report = oracle_check(args.seeds, args.rng_seed)
        print(json.dumps(_plain(report), sort_keys=True))
        if args.out:
            out.mkdir(parents=True, exist_ok=True)
            write_json(out / "oracle_report.json", report)
        return 0 if report["mismatches"] == 0 else 3

    code, result = run_pipeline(config_from_args(args), out, COMMANDS[args.command])
    if getattr(args, "export_graph", False):
        export_graph_csv(result["bundle"].graph, out / "graph.csv")
    return code


if __name__ == "__main__":
    sys.exit(main())
