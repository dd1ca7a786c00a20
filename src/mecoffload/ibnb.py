"""Branch-and-bound with a learned pruning gate and an adaptive threshold.

Each pass is ``bnb.solve_bnb`` with a gate: a fractional node that survives
the (strict) bound check is branched only if the classifier's score
exceeds the threshold; otherwise it is recorded as model-pruned.  If a
pass over-prunes and drains the node list with no incumbent, the threshold
is multiplied by the step :data:`DELTA_THETA` and the search restarts from
the root.  Should the threshold fall below its floor, the solver falls back
to ``solve_bnb`` without a gate, the exact search, so a feasible instance
always yields a solution no matter how badly the model behaves.

The answer is a ``bnb.SolveReport`` with one pass per threshold tried,
and the last pass's incumbent, which a spent budget keeps too.
Node counts include model-pruned pops (each one still costs a relaxation
solve plus a classifier evaluation) and accumulate across restarts; all
passes together never pop more than the node budget.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .bnb import (
    MAX_NODES,
    NodeAction,
    NodeRecord,
    SearchPass,
    SolveReport,
    SolveStatus,
    solve_bnb,
)
from .dataset import feature_length, featurize
from .mlp import MlpModel, forward
from .scenario import Scenario

__all__ = [
    "THETA_MIN",
    "DELTA_THETA",
    "ThresholdPolicy",
    "solve_ibnb",
]


#: The threshold floor: below it, the next pass is the exact search.
THETA_MIN = 1e-30
#: The step: each restart multiplies the threshold by it.
DELTA_THETA = 1e-5


@dataclass(frozen=True)
class ThresholdPolicy:
    """Initial pruning threshold; each restart multiplies it by :data:`DELTA_THETA`."""

    theta0: float = 1e-7

    def __post_init__(self) -> None:
        if not 0 < THETA_MIN < self.theta0 < 1:
            raise ValueError(
                f"need 0 < THETA_MIN < theta0 < 1, got {THETA_MIN}, {self.theta0}"
            )


def solve_ibnb(
    scenario: Scenario,
    model: MlpModel,
    policy: ThresholdPolicy | None = None,
    *,
    max_nodes: int = MAX_NODES,
) -> SolveReport:
    """Learned-pruning search with restart-on-overprune.

    Whenever the instance admits a solution, one is returned: either a pass
    finds an incumbent, or the threshold decays below :data:`THETA_MIN` and
    the exact search takes over.
    """
    policy = policy or ThresholdPolicy()
    expected_m = feature_length(scenario.num_mds, scenario.num_channels)
    if model.num_features != expected_m:
        raise ValueError(
            f"model expects {model.num_features} features, scenario needs {expected_m}"
        )

    tasks = scenario.task_bits.repeat(scenario.num_channels)   # per flow, made once

    def model_gate(record: NodeRecord, root_psi: float) -> bool:
        # Branch only on a score strictly above the threshold of the pass
        # it is called from.
        return forward(model, featurize(record, root_psi, tasks)) > theta

    t0 = time.perf_counter()
    theta = policy.theta0
    passes: list[SearchPass] = []
    nodes_total = unsolved_total = 0
    lp_pivots = lp_refactors = 0

    while True:
        # Below the floor the exact search takes over, which guarantees
        # termination with a feasible answer.
        fell_back = theta < THETA_MIN
        report = solve_bnb(
            scenario,
            None if fell_back else model_gate,
            max_nodes=max_nodes - nodes_total,
        )
        records = report.trace
        passes.append(SearchPass(None if fell_back else theta, records))
        nodes_total += report.nodes_searched
        unsolved_total += report.nodes_unsolved
        lp_pivots += report.lp_pivots
        lp_refactors += report.lp_refactors
        status = report.status
        if status is not SolveStatus.INFEASIBLE or fell_back:
            break
        if not any(rec.action is NodeAction.PRUNED_BY_MODEL for rec in records):
            # The model pruned nothing, so this pass was already an
            # unrestricted search; no smaller threshold can change it.
            break
        if nodes_total >= max_nodes:
            status = SolveStatus.BUDGET_EXHAUSTED
            break
        theta *= DELTA_THETA

    return SolveReport(
        status=status,
        best_x=report.best_x,
        best_split=report.best_split,
        best_psi=report.best_psi,
        nodes_searched=nodes_total,
        nodes_unsolved=unsolved_total,
        passes=passes,
        wall_time=time.perf_counter() - t0,
        lp_pivots=lp_pivots,
        lp_refactors=lp_refactors,
    )
