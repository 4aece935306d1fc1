"""Nested-chain subgraph compression with conformal coverage calibration."""

from .baselines import forward_greedy, reverse_greedy
from .chain import NestedChain, nested_chain
from .compress import (
    FractionalSolution,
    Selection,
    fractional_solution,
    select,
    tau_threshold,
)
from .conformal import (
    CalibrationState,
    LabeledPair,
    calibrate,
    calibrate_stage1,
    calibrate_stage2,
    distance_edge_symdiff,
    fixed_context_fit,
    predict,
    quantile_index,
)
from .flows import LagrangianCutSolver
from .hypergraph import (
    Hyperedge,
    InputError,
    InvariantError,
    WeightedHypergraph,
    as_fraction,
)

__version__ = "0.1.0"

__all__ = [
    "CalibrationState",
    "FractionalSolution",
    "Hyperedge",
    "InputError",
    "InvariantError",
    "LabeledPair",
    "LagrangianCutSolver",
    "NestedChain",
    "Selection",
    "WeightedHypergraph",
    "as_fraction",
    "calibrate",
    "calibrate_stage1",
    "calibrate_stage2",
    "distance_edge_symdiff",
    "fixed_context_fit",
    "forward_greedy",
    "fractional_solution",
    "nested_chain",
    "predict",
    "quantile_index",
    "reverse_greedy",
    "select",
    "tau_threshold",
]
