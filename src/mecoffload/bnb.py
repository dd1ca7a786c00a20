"""Branch-and-bound over the channel indicators, with trace recording.

The search is best-first: open nodes sit in a heap keyed on a lower bound
on their relaxation value (the root's key is ``-inf``), with the node id
breaking ties so the order is deterministic.  A child's key is read off its
parent's optimal LP without solving it: the parent's value raised by one
bounded dual ratio test on each basic flow the child's fixing pins
(:func:`lp.pinned_bounds`), so it never falls below its parent's value, and
keys never decrease along a path.  A popped node whose key has reached the
incumbent is dropped unsolved, and so is everything still open, since no
key in the heap is lower.  Otherwise the node relaxation is solved, the
node branches on its first fractional indicator (the first index carrying
flow on a channel two devices share), and it is pruned by bound against
the incumbent.  Both bound tests are strict: a node is kept only if its
bound is strictly below the incumbent, since a node tied with it has no
descendant that could improve on it.  One relaxation LP serves the whole
search: each node carries its flow upper bounds, which a pop copies into
the LP in one write, and every child LP is warm-started from its parent's
optimal basis and factor.  Every solved node is appended to the trace,
which later becomes classifier training data, so the records carry the
full relaxation point and the bound that was active at pop time; a node
dropped at pop time costs no LP, has no trace row, and is counted only as
unsolved.

This is the only search loop.  It takes an optional pruning gate that is
asked, for every fractional node surviving the bound test, whether to
branch it; without a gate the search is exact, and the learned-pruning
solver (``ibnb``) runs each of its passes through it with a gate built
from its classifier.

An exhaustive enumerator over channel-to-device maps provides the
ground-truth optimum for desk-scale instances.
"""

from __future__ import annotations

import heapq
import itertools
import time
from collections.abc import Callable
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .lp import Basis, LpStatus, pinned_bounds, solve_lp
from .relax import (
    RelaxationSolution,
    build_relaxation,
    extract_solution,
    pinned_flows,
    solve_split,
)
from .scenario import Scenario

__all__ = [
    "SolveStatus",
    "NodeAction",
    "SolveOptions",
    "Node",
    "NodeRecord",
    "SolveReport",
    "BudgetExceededError",
    "branch",
    "solve_bnb",
    "solve_exhaustive",
    "write_trace_csv",
]


class SolveStatus(Enum):
    OPTIMAL = "Optimal"
    INFEASIBLE = "Infeasible"
    BUDGET_EXHAUSTED = "BudgetExhausted"


class NodeAction(Enum):
    BRANCHED = "Branched"
    PRUNED_BY_BOUND = "PrunedByBound"
    PRUNED_INFEASIBLE = "PrunedInfeasible"
    PRUNED_BY_MODEL = "PrunedByModel"
    NEW_INCUMBENT = "NewIncumbent"


class BudgetExceededError(RuntimeError):
    """Raised when the exhaustive enumeration would exceed its budget."""


@dataclass
class SolveOptions:
    max_nodes: int = 500_000
    enum_budget: int = 1_000_000

    def __post_init__(self) -> None:
        if self.max_nodes < 1 or self.enum_budget < 1:
            raise ValueError("budgets must be positive")


@dataclass
class Node:
    """One search-tree node.  ``fixed`` is its fixing vector over the S*K
    indicators (int8: -1 free, 0 or 1 fixed), and ``upper`` the upper bounds
    of its flows as an (S, K) array: 0 where a fixing pins the flow
    (:func:`relax.pinned_flows`), inf elsewhere, kept so that a pop writes
    the LP's bounds in one copy.  ``start`` is its parent's optimal LP basis
    with its factor, the warm start of its own relaxation (None at the root,
    which starts from the all-slack basis).  Its heap key is not kept here:
    it is the bound :func:`lp.pinned_bounds` reads off the parent's LP."""

    node_id: int
    depth: int
    parent_id: int | None
    fixed: np.ndarray
    upper: np.ndarray
    start: Basis | None = None


@dataclass
class NodeRecord:
    """Trace row: node attributes plus the processing outcome.  ``fixed`` is
    the node's own fixing vector, not a copy (nothing writes it after
    :func:`branch`); neither the trace CSV nor the dataset writes it."""

    node_id: int
    depth: int
    parent_id: int | None
    action: NodeAction            # PRUNED_INFEASIBLE iff the relaxation was infeasible
    psi: float                    # nan when infeasible
    zub_at_pop: float             # incumbent bound when the node was popped
    x: np.ndarray                 # (S*K,) zeros when infeasible
    split_bits: np.ndarray        # (S*K,) zeros when infeasible
    fixed: np.ndarray             # (S*K,) int8: -1 free, 0 or 1 fixed


@dataclass
class SolveReport:
    status: SolveStatus
    best_x: np.ndarray | None     # (S, K) binary, present iff OPTIMAL
    best_split: np.ndarray | None  # (S, K) bits
    best_psi: float | None
    nodes_searched: int
    nodes_unsolved: int           # nodes made but never solved: dropped or left open
    trace: list[NodeRecord]
    wall_time: float
    lp_pivots: int                # dual simplex pivots over every node LP
    lp_refactors: int             # basis inversions over every node LP


def branch(parent: Node, index: int, first_child_id: int) -> tuple[Node, Node]:
    """Split a node on binary indicator ``index`` = s*K + k.

    The down child fixes it to 0, which pins flow y_sk; the up child fixes
    it to 1, giving device s channel k, which pins the flows of every other
    device on k.  Each child gets a copy of its parent's fixing vector with
    ``index`` set, and its parent's flow bounds with those pins added.
    Branching on an index out of range, an index already fixed, or
    a channel another device already owns is a contract violation.
    """
    s_n, k_n = parent.upper.shape
    if not 0 <= index < s_n * k_n:
        raise ValueError(f"indicator {index} out of range [0, {s_n * k_n})")
    existing = parent.fixed[index]
    if existing >= 0:
        raise ValueError(f"indicator {index} is already fixed to {existing}")
    s, k = divmod(index, k_n)
    if parent.upper[s, k] == 0.0:
        # Unfixed yet pinned: another device was given channel k.
        raise ValueError(f"channel {k} of indicator {index} is already owned")
    down = parent.fixed.copy()
    down[index] = 0
    down_upper = parent.upper.copy()
    down_upper[s, k] = 0.0
    up = parent.fixed.copy()
    up[index] = 1
    up_upper = parent.upper.copy()
    up_upper[:, k] = 0.0
    up_upper[s, k] = np.inf
    child_down = Node(first_child_id, parent.depth + 1, parent.node_id, down, down_upper)
    child_up = Node(first_child_id + 1, parent.depth + 1, parent.node_id, up, up_upper)
    return child_down, child_up


def _incumbent_from(scenario: Scenario, sol: RelaxationSolution):
    s_n, k_n = scenario.num_mds, scenario.num_channels
    x = sol.x.astype(int).reshape(s_n, k_n)
    split = sol.split_bits.reshape(s_n, k_n).copy()
    return x, split


def solve_bnb(
    scenario: Scenario,
    opts: SolveOptions | None = None,
    gate: Callable[[NodeRecord, float], bool] | None = None,
) -> SolveReport:
    """Branch-and-bound search for the optimal offloading assignment.

    Without a ``gate`` the search is exact: it returns the global optimum
    whenever one exists (enough channels for the devices), otherwise the
    infeasible status.  A ``gate(record, root_psi)`` is asked about every
    fractional node that survives the bound check; a node it rejects is
    recorded as model-pruned instead of branched, so the search may miss
    the optimum or end with no incumbent.  Exceeding the node budget is
    reported explicitly, never as a silent incumbent.
    """
    opts = opts or SolveOptions()
    t0 = time.perf_counter()
    s_n, k_n = scenario.num_mds, scenario.num_channels
    n = s_n * k_n

    lp = build_relaxation(scenario)
    flow_upper = lp.upper[:n].reshape(s_n, k_n)   # a view: writes reach the LP
    root = Node(0, 0, None, np.full(n, -1, dtype=np.int8), np.full((s_n, k_n), np.inf))
    # Open nodes keyed (bound, node_id); popped nodes are dropped with their
    # bases, and only the trace keeps rows.
    queue: list[tuple[float, int, Node]] = [(-np.inf, 0, root)]
    next_id = 1
    z_ub = np.inf
    best: tuple[np.ndarray, np.ndarray] | None = None
    best_psi: float | None = None
    root_psi: float | None = None
    trace: list[NodeRecord] = []
    lp_pivots = lp_refactors = 0
    exhausted = False

    while queue:
        key, _, node = heapq.heappop(queue)
        if key >= z_ub:
            break  # every open bound has reached the incumbent
        if len(trace) >= opts.max_nodes:
            exhausted = True
            break
        zub_at_pop = z_ub

        np.copyto(flow_upper, node.upper)
        result = solve_lp(lp, node.start)
        lp_pivots += result.pivots
        lp_refactors += result.refactors
        if result.status is not LpStatus.OPTIMAL:
            trace.append(NodeRecord(
                node.node_id, node.depth, node.parent_id,
                NodeAction.PRUNED_INFEASIBLE, float("nan"), zub_at_pop,
                np.zeros(n), np.zeros(n), node.fixed,
            ))
            continue

        sol = extract_solution(scenario, result, node.fixed)
        if root_psi is None:
            root_psi = sol.psi
        # The gate sees the record as it would be kept if branched.  The
        # record takes the arrays extract_solution made for this node, and
        # the node's fixing vector.
        record = NodeRecord(
            node.node_id, node.depth, node.parent_id, NodeAction.BRANCHED,
            sol.psi, zub_at_pop, sol.x, sol.split_bits, node.fixed,
        )
        if sol.integral:
            if sol.psi < z_ub:
                z_ub = sol.psi
                best = _incumbent_from(scenario, sol)
                best_psi = sol.psi
                record.action = NodeAction.NEW_INCUMBENT
            else:
                record.action = NodeAction.PRUNED_BY_BOUND
        elif sol.psi >= z_ub:
            # No descendant of a tied node can strictly improve the incumbent.
            record.action = NodeAction.PRUNED_BY_BOUND
        elif gate is not None and not gate(record, root_psi):
            record.action = NodeAction.PRUNED_BY_MODEL
        else:
            index = sol.first_fractional
            down, up = branch(node, index, next_id)
            next_id += 2
            key_down, key_up = pinned_bounds(lp, result, (
                pinned_flows(index, 0, k_n, n), pinned_flows(index, 1, k_n, n)))
            down.start = up.start = result.basis
            heapq.heappush(queue, (key_down, down.node_id, down))
            heapq.heappush(queue, (key_up, up.node_id, up))
        trace.append(record)

    if exhausted:
        status = SolveStatus.BUDGET_EXHAUSTED
    elif best is None:
        status = SolveStatus.INFEASIBLE
    else:
        status = SolveStatus.OPTIMAL
    return SolveReport(
        status=status,
        best_x=best[0] if best else None,
        best_split=best[1] if best else None,
        best_psi=best_psi,
        nodes_searched=len(trace),
        nodes_unsolved=next_id - len(trace),
        trace=trace,
        wall_time=time.perf_counter() - t0,
        lp_pivots=lp_pivots,
        lp_refactors=lp_refactors,
    )


def solve_exhaustive(scenario: Scenario, opts: SolveOptions | None = None) -> SolveReport:
    """Ground-truth oracle: enumerate every channel-to-device map.

    Each channel is given to one device or left idle, which bakes in
    channel exclusivity; maps leaving some device with no channel are
    skipped.  ``nodes_searched`` counts the evaluated maps (the trace of a
    tree search has no analogue here and is left empty).
    """
    opts = opts or SolveOptions()
    t0 = time.perf_counter()
    s_n, k_n = scenario.num_mds, scenario.num_channels
    total = (s_n + 1) ** k_n
    if total > opts.enum_budget:
        raise BudgetExceededError(
            f"enumeration of {total} maps exceeds budget {opts.enum_budget}"
        )

    best_psi = np.inf
    best: tuple[np.ndarray, np.ndarray] | None = None
    evaluated = 0
    for owners in itertools.product(range(s_n + 1), repeat=k_n):
        if len(set(owners) - {0}) < s_n:
            continue  # some device got no channel
        x = np.zeros((s_n, k_n), dtype=int)
        for k, owner in enumerate(owners):
            if owner > 0:
                x[owner - 1, k] = 1
        split = solve_split(scenario, x)
        evaluated += 1
        if split is not None and split.psi < best_psi:
            best_psi = split.psi
            best = (x, split.split_bits)

    status = SolveStatus.OPTIMAL if best is not None else SolveStatus.INFEASIBLE
    return SolveReport(
        status=status,
        best_x=best[0] if best else None,
        best_split=best[1] if best else None,
        best_psi=best_psi if best is not None else None,
        nodes_searched=evaluated,
        nodes_unsolved=0,
        trace=[],
        wall_time=time.perf_counter() - t0,
        lp_pivots=0,
        lp_refactors=0,
    )


def _csv_float(value: float) -> str:
    return format(float(value), ".17g")


def write_trace_csv(path, passes, num_indicators: int) -> None:
    """Write trace records as versioned CSV.

    ``passes`` is a list of ``(theta, restart_index, records)`` tuples; the
    exact search uses a single pass with ``theta=None``, learned-pruning
    runs annotate each pass with its threshold.
    """
    cols = ["j", "g", "parent", "f", "action", "psi", "zub_at_pop"]
    cols += [f"x{i}" for i in range(num_indicators)]
    cols += [f"l{i}" for i in range(num_indicators)]
    lines = ["# trace-v1", ",".join(cols)]
    for theta, restart, records in passes:
        if theta is not None:
            lines.append(f"# theta={_csv_float(theta)} restart={restart}")
        for rec in records:
            parent = -1 if rec.parent_id is None else rec.parent_id
            row = [
                str(rec.node_id), str(rec.depth), str(parent),
                "0" if rec.action is NodeAction.PRUNED_INFEASIBLE else "1",
                rec.action.value,
                _csv_float(rec.psi), _csv_float(rec.zub_at_pop),
            ]
            row += [_csv_float(v) for v in rec.x]
            row += [_csv_float(v) for v in rec.split_bits]
            lines.append(",".join(row))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
