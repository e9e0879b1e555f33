"""Strong chain recurrence and constructive Lyapunov functions on sampled flows."""

__version__ = "0.1.0"

from .chaingraph import (ChainGraph, ScrResult, build_chain_graph, compute_cr,
                         compute_scr, min_return_cost_all, omega_budget)
from .flows import FlowModel, GridTransition, build_transition, make_flow
from .lyapunov import (CombinedLyapunov, LyapunovField, combine_pairs,
                       discounted_integral, sup_along_orbit, verify_lyapunov)
from .orbits import OrbitData, build_orbit_data
from .pairs import PairCatalog, enumerate_pairs, select_cover
from .space import GridSpace, PointId, build_grid
from .stablesets import (StablePair, build_strongly_stable, complementary,
                         find_eta0_and_bstar, nested_neighborhoods,
                         omega_limit_of_set, omega_limits_all)

__all__ = [
    "ChainGraph", "ScrResult", "build_chain_graph", "compute_cr", "compute_scr",
    "min_return_cost_all", "omega_budget",
    "FlowModel", "GridTransition", "build_transition", "make_flow",
    "CombinedLyapunov", "LyapunovField", "combine_pairs", "discounted_integral",
    "sup_along_orbit", "verify_lyapunov",
    "OrbitData", "build_orbit_data",
    "PairCatalog", "enumerate_pairs", "select_cover",
    "GridSpace", "PointId", "build_grid",
    "StablePair", "build_strongly_stable", "complementary", "find_eta0_and_bstar",
    "nested_neighborhoods", "omega_limit_of_set", "omega_limits_all",
    "__version__",
]
