"""Branch-and-bound with a learned pruning gate and an adaptive threshold.

The inner search is the exact algorithm with one extra test: a fractional
node that survives the bound check is branched only if the classifier's
score exceeds the threshold; otherwise it is recorded as model-pruned.  If
a pass over-prunes and drains the node list with no incumbent, the
threshold is multiplied by the (sub-unit) step and the search restarts from
the root.  Should the threshold fall below its floor, the solver falls back
to the exact search, so a feasible instance always yields a solution no
matter how badly the model behaves.

Node counts include model-pruned pops (each one still costs a relaxation
solve plus a classifier evaluation) and accumulate across restarts.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .bnb import (
    Node,
    NodeAction,
    NodeRecord,
    SolveOptions,
    SolveReport,
    SolveStatus,
    branch,
    solve_bnb,
)
from .dataset import featurize
from .lp import LpStatus, solve_lp
from .mlp import MlpModel, forward
from .relax import build_relaxation, extract_solution, set_node_bounds
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
    passes: list[SearchPass]
    wall_time: float
    thresholds_tried: list[float]
    restarts: int
    fell_back_to_exact: bool

    @property
    def trace(self) -> list[NodeRecord]:
        return [rec for p in self.passes for rec in p.records]


def _run_pass(
    scenario: Scenario,
    model: MlpModel,
    theta: float,
    opts: SolveOptions,
    node_budget: int,
) -> tuple[list[NodeRecord], tuple | None, float | None, bool, bool]:
    """One threshold's search.  Returns (records, best, best_psi,
    model_pruned_any, budget_hit)."""
    n = scenario.num_mds * scenario.num_channels
    lp = build_relaxation(scenario, {})
    queue: deque[Node] = deque([Node(0, 0, None, {})])
    next_id = 1
    z_ub = np.inf
    best = None
    best_psi = None
    records: list[NodeRecord] = []
    root_psi: float | None = None
    model_pruned_any = False

    while queue:
        if len(records) >= node_budget:
            return records, best, best_psi, model_pruned_any, True
        node = queue.popleft()
        zub_at_pop = z_ub

        set_node_bounds(lp, node.constraints)
        result = solve_lp(lp, node.start)
        if result.status is not LpStatus.OPTIMAL:
            records.append(NodeRecord(
                node.node_id, node.depth, node.parent_id, 0,
                NodeAction.PRUNED_INFEASIBLE, float("nan"), zub_at_pop,
                np.zeros(n), np.zeros(n),
            ))
            continue

        sol = extract_solution(scenario, result, opts.integrality_tol)
        if root_psi is None:
            root_psi = sol.psi

        if sol.integral:
            if sol.psi < z_ub:
                z_ub = sol.psi
                s_n, k_n = scenario.num_mds, scenario.num_channels
                best = (
                    np.round(sol.x).astype(int).reshape(s_n, k_n),
                    sol.split_bits.reshape(s_n, k_n).copy(),
                )
                best_psi = sol.psi
                action = NodeAction.NEW_INCUMBENT
            else:
                action = NodeAction.PRUNED_BY_BOUND
        elif sol.psi < z_ub:  # strict: ties are discarded here, unlike the exact search
            record = NodeRecord(
                node.node_id, node.depth, node.parent_id, 1,
                NodeAction.BRANCHED, sol.psi, zub_at_pop,
                sol.x.copy(), sol.split_bits.copy(),
            )
            score = forward(model, featurize(record, root_psi, scenario.task_bits))
            if prune_decision(score, theta):
                child_down, child_up = branch(
                    node, sol.first_fractional, sol.x[sol.first_fractional],
                    next_id, opts.integrality_tol,
                )
                next_id += 2
                child_down.start = child_up.start = result.basis
                queue.append(child_down)
                queue.append(child_up)
                action = NodeAction.BRANCHED
            else:
                action = NodeAction.PRUNED_BY_MODEL
                model_pruned_any = True
        else:
            action = NodeAction.PRUNED_BY_BOUND

        records.append(NodeRecord(
            node.node_id, node.depth, node.parent_id, 1, action,
            sol.psi, zub_at_pop, sol.x.copy(), sol.split_bits.copy(),
        ))
    return records, best, best_psi, model_pruned_any, False


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
    expected_m = 4 + 2 * scenario.num_mds * scenario.num_channels
    if model.num_features != expected_m:
        raise ValueError(
            f"model expects {model.num_features} features, scenario needs {expected_m}"
        )

    t0 = time.perf_counter()
    theta = policy.theta0
    thresholds: list[float] = []
    passes: list[SearchPass] = []
    best = None
    best_psi = None
    status: SolveStatus | None = None
    fell_back = False
    nodes_total = 0

    while True:
        if theta < policy.theta_min:
            # Exact fallback guarantees termination with a feasible answer.
            fallback = solve_bnb(scenario, SolveOptions(
                max_nodes=max(1, opts.max_nodes - nodes_total),
                enum_budget=opts.enum_budget,
                integrality_tol=opts.integrality_tol,
            ))
            passes.append(SearchPass(None, fallback.trace))
            nodes_total += fallback.nodes_searched
            fell_back = True
            status = fallback.status
            if fallback.status is SolveStatus.OPTIMAL:
                best = (fallback.best_x, fallback.best_split)
                best_psi = fallback.best_psi
            break

        thresholds.append(theta)
        records, pass_best, pass_psi, pruned_any, budget_hit = _run_pass(
            scenario, model, theta, opts, opts.max_nodes - nodes_total,
        )
        passes.append(SearchPass(theta, records))
        nodes_total += len(records)
        if budget_hit:
            status = SolveStatus.BUDGET_EXHAUSTED
            break
        if pass_best is not None:
            best = pass_best
            best_psi = pass_psi
            status = SolveStatus.OPTIMAL
            break
        if not pruned_any:
            # The model pruned nothing, so this pass was already an
            # unrestricted search; no smaller threshold can change it.
            status = SolveStatus.INFEASIBLE
            break
        theta *= policy.delta_theta

    return IbnbReport(
        status=status,
        best_x=best[0] if best else None,
        best_split=best[1] if best else None,
        best_psi=best_psi,
        nodes_searched=nodes_total,
        passes=passes,
        wall_time=time.perf_counter() - t0,
        thresholds_tried=thresholds,
        restarts=max(0, len(thresholds) - 1),
        fell_back_to_exact=fell_back,
    )
