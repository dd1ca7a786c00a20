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
search.  An open child is its heap entry: its parent, the index it fixes
and the value (0 or 1), with its parent's pin mask (the LP variables the
parent's fixings pin at zero) and its parent's optimal basis and factor,
which both children share and neither writes.  A child is built when it
is popped: the pop makes its fixing vector, its pin mask (its parent's
and those its fixing adds), which it passes to the solve, and its
:class:`Node`, and warm-starts its LP from the parent's basis.  A
:class:`Node` is only its trace row: a solved node is appended to the
trace, which later becomes classifier training data, with its relaxation
value, branching index and flows, and the bound that was active at pop
time.  It holds no frame and keeps no array: each reader (the trace
writer, the dataset, a gate and the incumbent) builds a node's indicators
and shares with :meth:`Node.arrays`, so the search pays for none of them.
A child that is pushed but never built, dropped at pop time or left open,
costs only its heap entry and its key: no node, no LP and no trace row;
it is counted only as unsolved.

A frame with more devices than channels, the only infeasible kind, is
answered up front with no node solved.  Every node of any other frame is
feasible by Hall's theorem (a fixing cuts a device off a channel only where
another one carries flow), so a node LP solve that raises is a fault.

This is the only search loop.  It takes an optional pruning gate that is
asked, for every fractional node surviving the bound test, whether to
branch it; without a gate the search is exact, and the learned-pruning
solver (``ibnb``) runs it once with a gate built from its classifier.  A
gated search that drains its heap with no incumbent branches every node
the gate rejected and goes on without the gate, so it returns an answer
whenever the frame has one, and then the exact optimum.

An exhaustive enumerator over full channel-to-device maps provides the
ground-truth optimum for desk-scale instances; it prices every map with the
closed-form split's core and builds only the winner's split.
"""

from __future__ import annotations

import heapq
import itertools
from collections.abc import Callable
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .lp import Basis, LpResult, pinned_bounds, solve_lp
from .relax import (
    build_relaxation,
    extract_solution,
    node_arrays,
    pinned_flows,
    price_map,
    solve_split,
)
from .scenario import Scenario

__all__ = [
    "MAX_NODES",
    "ENUM_BUDGET",
    "SolveStatus",
    "NodeAction",
    "Node",
    "SolveReport",
    "BudgetExceededError",
    "branch",
    "child",
    "solve_bnb",
    "solve_exhaustive",
    "write_trace_csv",
]


#: Node budget of a search, in solved nodes.
MAX_NODES = 500_000
#: Largest number of full channel-to-device maps (S**K) :func:`solve_exhaustive`
#: enumerates.
ENUM_BUDGET = 1_000_000


class SolveStatus(Enum):
    OPTIMAL = "Optimal"
    INFEASIBLE = "Infeasible"
    BUDGET_EXHAUSTED = "BudgetExhausted"


class NodeAction(Enum):
    BRANCHED = "Branched"
    PRUNED_BY_BOUND = "PrunedByBound"
    PRUNED_BY_MODEL = "PrunedByModel"
    NEW_INCUMBENT = "NewIncumbent"


class BudgetExceededError(RuntimeError):
    """Raised when the exhaustive enumeration would exceed its budget."""


@dataclass(slots=True)
class Node:
    """One search-tree node: once solved, it is its trace row, what a gate
    reads, and the incumbent when it is one.  It holds only what the search
    writes: no frame, and what only an open node needs, its flow pins and
    warm start, rides in its heap entry.  ``fixed`` is its fixing vector
    over the S*K indicators (int8: -1 free, 0 or 1 fixed); nothing writes
    it after :func:`child`.  The solve fills in the rest and clears
    nothing; a reopen turns a model-pruned node's action to ``Branched``.
    ``flows`` is the copy of the node's LP flows, each its share of its
    device's task, that :func:`relax.extract_solution` made."""

    node_id: int
    depth: int
    parent_id: int | None
    fixed: np.ndarray             # (S*K,) int8: -1 free, 0 or 1 fixed
    action: NodeAction | None = None  # None until solved
    psi: float = float("nan")     # nan until solved
    zub_at_pop: float = float("nan")  # incumbent bound when the node was popped
    first_fractional: int | None = None  # index to branch on; None at a leaf
    flows: np.ndarray | None = None  # (S*K,) shares of each device's task; None until solved

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """New (S*K,) arrays ``(x, shares)`` built by :func:`relax.node_arrays`
        from the flows and kept nowhere: x in [0, 1], binary at a leaf, and
        the counted flows; the shares times the frame's
        ``task_bits.repeat(K)`` are the splits in bits."""
        return node_arrays(self.flows, self.fixed, self.first_fractional is None)


@dataclass
class SolveReport:
    """The answer of every solver.  ``trace`` holds every node a tree search
    solved, in order, and is empty for :func:`solve_exhaustive`.
    ``fell_back_to_exact`` is True iff a gated search drained with no
    incumbent and reopened the nodes its gate rejected.  A spent budget
    keeps the incumbent found by then, unproven.

    ``gap_bound`` bounds the answer's relative distance to the optimum,
    (psi - LB) / psi, where LB is the least of psi and the relaxation values
    of the nodes the gate rejected: no map below one of those nodes costs
    less than its relaxation.  It is 0 for an exact search and for a gated
    one that reopened, and None unless the status is optimal.  Left out, a
    field reads as nothing found and nothing done: a frame with more
    devices than channels is answered ``SolveReport(SolveStatus.INFEASIBLE)``."""

    status: SolveStatus
    best_x: np.ndarray | None = None     # (S, K) binary, present iff an incumbent was found
    best_split: np.ndarray | None = None  # (S, K) bits
    best_psi: float | None = None
    gap_bound: float | None = None
    nodes_searched: int = 0
    nodes_unsolved: int = 0       # children pushed but never built: dropped or left open
    trace: list[Node] = field(default_factory=list)
    fell_back_to_exact: bool = False
    lp_pivots: int = 0            # dual simplex pivots over every node LP
    lp_refactors: int = 0         # node LPs repaired by a fresh basis inversion


def branch(parent: Node, index: int, num_channels: int) -> None:
    """Check that a node may split on binary indicator ``index`` = s*K + k
    of its frame of K = ``num_channels`` channels; raise ``ValueError`` if not.

    The down child fixes it to 0 and the up child to 1, and :func:`child`
    builds either.  Branching on an index out of range, an index already
    fixed, or a channel another device already owns is a contract
    violation.  The search checks once per branched node, before it pushes
    either child, and builds a child only when it pops it.
    """
    n, k_n = parent.fixed.size, num_channels
    if not 0 <= index < n:
        raise ValueError(f"indicator {index} out of range [0, {n})")
    existing = parent.fixed[index]
    if existing >= 0:
        raise ValueError(f"indicator {index} is already fixed to {existing}")
    if 1 in parent.fixed[index % k_n::k_n].tolist():
        # Unfixed, so the 1 on its channel is another device's.
        raise ValueError(f"channel {index % k_n} of indicator {index} is already owned")


def child(parent: Node, index: int, value: int, node_id: int) -> Node:
    """Child ``node_id`` of a node that :func:`branch` let split on
    ``index``: a copy of its parent's fixing vector with ``index`` set to
    ``value`` (0 down, 1 up), and nothing else."""
    fixed = parent.fixed.copy()
    fixed[index] = value
    return Node(node_id, parent.depth + 1, parent.node_id, fixed)


def solve_bnb(
    scenario: Scenario,
    gate: Callable[[Node, float], bool] | None = None,
) -> SolveReport:
    """Branch-and-bound search for the optimal offloading assignment.

    A frame with more devices than channels is reported infeasible up
    front: an empty trace, no LP solved and no gate asked.  On every other
    frame a search without a ``gate`` is exact: it returns the global
    optimum.  A ``gate(node, root_psi)`` is asked about every
    fractional node that survives the bound check; a node it rejects is
    recorded as model-pruned instead of branched, so the search may miss
    the optimum.  If the heap drains with no incumbent, every rejected node
    is branched after all, its action turned to ``Branched``, and the search
    goes on without the gate: no node is solved twice, and the answer is
    then the exact optimum.  Solving more than :data:`MAX_NODES` nodes is
    reported explicitly, never as optimal; the report keeps the incumbent
    found by then, if any.
    """
    s_n, k_n = scenario.num_mds, scenario.num_channels
    if s_n > k_n:
        return SolveReport(SolveStatus.INFEASIBLE)
    n = s_n * k_n

    lp = build_relaxation(scenario)
    # The flows each index's down and up child pin, built once per search.
    pin_sets = [(pinned_flows(i, 0, k_n, n), pinned_flows(i, 1, k_n, n)) for i in range(n)]
    # Open children as (bound, node_id, parent, index, value, the parent's
    # pins, warm start: the parent's optimal basis); both children of a
    # node share its pins and basis and never write them.  The root is the
    # entry with no parent.  The unique id keeps entries from being
    # compared.
    queue: list[tuple[float, int, Node | None, int, int, np.ndarray, Basis | None]] = [
        (-np.inf, 0, None, -1, -1, np.zeros(n + 1, dtype=bool), None)]
    next_id = 1
    z_ub = np.inf
    best: Node | None = None   # the incumbent leaf
    trace: list[Node] = []
    # The gate's rejects, each with its pins and the optimal LP its
    # branching reads.
    deferred: list[tuple[Node, np.ndarray, LpResult]] = []
    reopened = False
    lp_pivots = lp_refactors = 0
    exhausted = False

    def open_children(node: Node, pins: np.ndarray, result: LpResult, index: int) -> None:
        """Branch ``node``, solved under ``pins`` to ``result``, on ``index``,
        and push both children unbuilt, keyed by the bounds read off
        ``result``."""
        nonlocal next_id
        branch(node, index, k_n)
        key_down, key_up = pinned_bounds(lp, result, pin_sets[index])
        heapq.heappush(queue, (key_down, next_id, node, index, 0, pins, result.basis))
        heapq.heappush(queue, (key_up, next_id + 1, node, index, 1, pins, result.basis))
        next_id += 2

    while True:
        if not queue:
            if best is not None or not deferred:
                break
            # The gated search drained with no incumbent: branch what the
            # gate rejected, and search on exactly.
            for node, pins, result in deferred:
                open_children(node, pins, result, node.first_fractional)
                node.action = NodeAction.BRANCHED
            deferred.clear()
            gate = None
            reopened = True
        key, node_id, parent, index, value, pins, start = heapq.heappop(queue)
        if key >= z_ub:
            break  # every open bound has reached the incumbent
        if len(trace) >= MAX_NODES:
            exhausted = True
            break
        if parent is None:
            node = Node(0, 0, None, np.full(n, -1, dtype=np.int8))
        else:
            node = child(parent, index, value, node_id)
            pins = pins.copy()
            pins[pin_sets[index][value]] = True
        trace.append(node)
        node.zub_at_pop = z_ub

        result = solve_lp(lp, pins, start)
        lp_pivots += result.pivots
        lp_refactors += result.refactors

        psi, first, node.flows = extract_solution(scenario, result)
        node.psi, node.first_fractional = psi, first
        # The gate sees the node as it would be kept if branched: its fixing
        # vector and its flows, from which it builds whatever arrays it reads.
        node.action = NodeAction.BRANCHED
        if first is None:
            if psi < z_ub:
                z_ub = psi
                best = node
                node.action = NodeAction.NEW_INCUMBENT
            else:
                node.action = NodeAction.PRUNED_BY_BOUND
        elif psi >= z_ub:
            # No descendant of a tied node can strictly improve the incumbent.
            node.action = NodeAction.PRUNED_BY_BOUND
        elif gate is not None and not gate(node, trace[0].psi):
            node.action = NodeAction.PRUNED_BY_MODEL
            deferred.append((node, pins, result))
        else:
            open_children(node, pins, result, first)

    # An exact search of a feasible root ends at a leaf, so only a spent
    # budget leaves no incumbent.
    status = SolveStatus.BUDGET_EXHAUSTED if exhausted else SolveStatus.OPTIMAL
    gap_bound = best_x = best_split = None
    if status is SolveStatus.OPTIMAL:
        lower = min([best.psi, *(node.psi for node, _, _ in deferred)])
        gap_bound = (best.psi - lower) / best.psi
    if best is not None:
        x, shares = best.arrays()
        best_x = x.astype(int).reshape(s_n, k_n)
        best_split = shares.reshape(s_n, k_n) * scenario.task_bits[:, None]
    return SolveReport(
        status=status,
        best_x=best_x,
        best_split=best_split,
        best_psi=None if best is None else best.psi,
        gap_bound=gap_bound,
        nodes_searched=len(trace),
        nodes_unsolved=next_id - len(trace),
        trace=trace,
        fell_back_to_exact=reopened,
        lp_pivots=lp_pivots,
        lp_refactors=lp_refactors,
    )


def solve_exhaustive(scenario: Scenario) -> SolveReport:
    """Ground-truth oracle: enumerate every full channel-to-device map.

    Each channel is given to exactly one device, which bakes in channel
    exclusivity; maps leaving some device with no channel are skipped.
    Maps that leave a channel idle are never priced: an assigned channel
    costs nothing until it carries bits, so giving an idle channel to any
    device never raises the optimal cost.  Maps are priced in lexicographic
    order of their owners, and the first of least cost wins.  Each map is
    priced by :func:`relax.price_map`, the closed-form core of
    :func:`relax.solve_split`, alone, with no checks, indicator matrix or
    split; only the winner goes through
    :func:`relax.solve_split`, which builds its split and prices it the
    same way.  ``nodes_searched`` counts the priced maps, and the trace is
    empty, since no tree is searched.  A frame with more devices than
    channels is infeasible, with no map priced; any other frame with more
    than :data:`ENUM_BUDGET` maps raises :class:`BudgetExceededError`.
    """
    s_n, k_n = scenario.num_mds, scenario.num_channels
    if s_n > k_n:
        return SolveReport(SolveStatus.INFEASIBLE)
    if s_n ** k_n > ENUM_BUDGET:
        raise BudgetExceededError(
            f"enumeration of {s_n ** k_n} maps exceeds budget {ENUM_BUDGET}"
        )

    # The maps are binary and exclusive by construction, and the covering
    # test below stands in for solve_split's empty-device check.
    devices = np.arange(s_n)[:, None]
    best_psi = np.inf
    winner: tuple[int, ...] = ()
    evaluated = 0
    for owners in itertools.product(range(s_n), repeat=k_n):
        if len(set(owners)) < s_n:
            continue  # some device got no channel
        owned = devices == owners
        psi = price_map(scenario, owned, np.add.reduce(owned, axis=1))[0]
        evaluated += 1
        if psi < best_psi:
            best_psi = psi
            winner = owners

    # S <= K, so some map covers every device, and its cost is finite.
    best_x = np.zeros((s_n, k_n), dtype=int)
    best_x[winner, range(k_n)] = 1
    split = solve_split(scenario, best_x)
    return SolveReport(
        status=SolveStatus.OPTIMAL,
        best_x=best_x,
        best_split=split.split_bits,
        best_psi=split.psi,
        gap_bound=0.0,
        nodes_searched=evaluated,
    )


def csv_float(value: float) -> str:
    """A float as CSV text that reads back to the same float; every writer uses it."""
    return format(float(value), ".17g")


def write_trace_csv(path, report: SolveReport, scenario: Scenario) -> None:
    """Write the trace of ``report`` on frame ``scenario`` as versioned CSV,
    one row per node: its indicators x and its splits l in bits."""
    task_bits = scenario.task_bits.repeat(scenario.num_channels)
    cols = ["j", "g", "parent", "action", "psi", "zub_at_pop"]
    cols += [f"x{i}" for i in range(task_bits.size)]
    cols += [f"l{i}" for i in range(task_bits.size)]
    lines = ["# trace-v2", ",".join(cols)]
    for rec in report.trace:
        parent = -1 if rec.parent_id is None else rec.parent_id
        row = [
            str(rec.node_id), str(rec.depth), str(parent), rec.action.value,
            csv_float(rec.psi), csv_float(rec.zub_at_pop),
        ]
        x, shares = rec.arrays()
        row += [csv_float(v) for v in x]
        row += [csv_float(v) for v in shares * task_bits]
        lines.append(",".join(row))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
