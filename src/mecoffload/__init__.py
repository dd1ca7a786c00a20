"""Exact and learned-pruning solvers for multiuser MEC task offloading."""

from .scenario import (
    Assignment,
    Scenario,
    ScenarioConfig,
    check_feasible,
    energy,
    generate_frame,
    latency,
    objective,
    rate,
)
from .lp import LinearProgram, LpResult, LpStatus, solve_lp
from .relax import (
    RelaxationSolution,
    build_relaxation,
    extract_solution,
    solve_split,
)
from .bnb import (
    Node,
    NodeAction,
    NodeRecord,
    SolveOptions,
    SolveReport,
    SolveStatus,
    branch,
    solve_bnb,
    solve_exhaustive,
)
from .dataset import Dataset, NodeSample, featurize, label_trace, read_dataset, write_dataset
from .mlp import (
    MlpModel,
    TrainConfig,
    backward,
    forward,
    init_model,
    load_model,
    loss,
    save_model,
    train,
)
from .ibnb import IbnbReport, ThresholdPolicy, prune_decision, solve_ibnb

__version__ = "0.1.0"
