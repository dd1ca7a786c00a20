"""Branch-and-bound with a learned pruning gate and an adaptive threshold.

Each pass is ``bnb.solve_bnb`` with a gate: a fractional node that survives
the (strict) bound check is branched only if the classifier's score
exceeds the threshold; otherwise it is recorded as model-pruned.  If a
pass over-prunes and drains the node list with no incumbent, the threshold
is multiplied by the (sub-unit) step and the search restarts from the
root.  Should the threshold fall below its floor, the solver falls back to
``solve_bnb`` without a gate, the exact search, so a feasible instance
always yields a solution no matter how badly the model behaves.

Node counts include model-pruned pops (each one still costs a relaxation
solve plus a classifier evaluation) and accumulate across restarts; all
passes together never pop more than the node budget.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from .bnb import NodeAction, NodeRecord, SolveOptions, SolveStatus, solve_bnb
from .dataset import feature_length, featurize
from .mlp import MlpModel, forward
from .scenario import Scenario

__all__ = [
    "ThresholdPolicy",
    "SearchPass",
    "IbnbReport",
    "prune_decision",
    "solve_ibnb",
]


@dataclass(frozen=True)
class ThresholdPolicy:
    """Initial pruning threshold, multiplicative step, and fallback floor."""

    theta0: float = 1e-7
    delta_theta: float = 1e-5
    theta_min: float = 1e-30

    def __post_init__(self) -> None:
        if not 0 < self.theta_min < self.theta0 < 1:
            raise ValueError(
                f"need 0 < theta_min < theta0 < 1, got {self.theta_min}, {self.theta0}"
            )
        if not 0 < self.delta_theta < 1:
            raise ValueError(f"delta_theta must lie in (0, 1), got {self.delta_theta}")


def prune_decision(y_hat: float, theta: float) -> int:
    """1 keeps the node for branching, 0 prunes it; the comparison is strict."""
    return 1 if y_hat > theta else 0


@dataclass
class SearchPass:
    """One inner search: the threshold used (None for the exact fallback)
    and the records of every popped node."""

    theta: float | None
    records: list[NodeRecord] = field(default_factory=list)


@dataclass
class IbnbReport:
    status: SolveStatus
    best_x: np.ndarray | None
    best_split: np.ndarray | None
    best_psi: float | None
    nodes_searched: int
    nodes_unsolved: int           # nodes made but never solved, over every pass
    passes: list[SearchPass]
    wall_time: float
    lp_pivots: int                # dual simplex pivots over every pass
    lp_refactors: int             # basis inversions over every pass

    @property
    def trace(self) -> list[NodeRecord]:
        return [rec for p in self.passes for rec in p.records]

    @property
    def thresholds_tried(self) -> list[float]:
        return [p.theta for p in self.passes if p.theta is not None]

    @property
    def restarts(self) -> int:
        return max(0, len(self.thresholds_tried) - 1)

    @property
    def fell_back_to_exact(self) -> bool:
        return bool(self.passes) and self.passes[-1].theta is None


def solve_ibnb(
    scenario: Scenario,
    model: MlpModel,
    policy: ThresholdPolicy | None = None,
    opts: SolveOptions | None = None,
) -> IbnbReport:
    """Learned-pruning search with restart-on-overprune.

    Whenever the instance admits a solution, one is returned: either a pass
    finds an incumbent, or the threshold decays below ``theta_min`` and the
    exact search takes over.
    """
    policy = policy or ThresholdPolicy()
    opts = opts or SolveOptions()
    expected_m = feature_length(scenario.num_mds, scenario.num_channels)
    if model.num_features != expected_m:
        raise ValueError(
            f"model expects {model.num_features} features, scenario needs {expected_m}"
        )

    def model_gate(record: NodeRecord, root_psi: float) -> bool:
        # Reads the threshold of the pass it is called from.
        score = forward(model, featurize(record, root_psi, scenario.task_bits))
        return prune_decision(score, theta) == 1

    t0 = time.perf_counter()
    theta = policy.theta0
    passes: list[SearchPass] = []
    best = None
    best_psi = None
    nodes_total = unsolved_total = 0
    lp_pivots = lp_refactors = 0

    while True:
        if nodes_total >= opts.max_nodes:
            status = SolveStatus.BUDGET_EXHAUSTED
            break
        # Below the floor the exact search takes over, which guarantees
        # termination with a feasible answer.
        fell_back = theta < policy.theta_min
        report = solve_bnb(
            scenario,
            replace(opts, max_nodes=opts.max_nodes - nodes_total),
            None if fell_back else model_gate,
        )
        passes.append(SearchPass(None if fell_back else theta, report.trace))
        nodes_total += report.nodes_searched
        unsolved_total += report.nodes_unsolved
        lp_pivots += report.lp_pivots
        lp_refactors += report.lp_refactors
        status = report.status
        if status is SolveStatus.OPTIMAL:
            best = (report.best_x, report.best_split)
            best_psi = report.best_psi
            break
        if fell_back or status is SolveStatus.BUDGET_EXHAUSTED:
            break
        if not any(rec.action is NodeAction.PRUNED_BY_MODEL for rec in report.trace):
            # The model pruned nothing, so this pass was already an
            # unrestricted search; no smaller threshold can change it.
            break
        theta *= policy.delta_theta

    return IbnbReport(
        status=status,
        best_x=best[0] if best else None,
        best_split=best[1] if best else None,
        best_psi=best_psi,
        nodes_searched=nodes_total,
        nodes_unsolved=unsolved_total,
        passes=passes,
        wall_time=time.perf_counter() - t0,
        lp_pivots=lp_pivots,
        lp_refactors=lp_refactors,
    )
