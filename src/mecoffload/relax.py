"""Node relaxations of the offloading problem as linear programs.

The objective couples the binary indicators x with the continuous splits l
through products x*l.  Each product is replaced by a flow variable
y = x*l together with the cut y <= L*x, which is exact whenever x is
binary: leaf evaluations in the tree search therefore equal the original
cost, while fractional points still give a valid lower bound.

LP variables are ordered [x (S*K), y (S*K), tau], flat index i = s*K + k.
Internally the bit quantities are rescaled by the largest task size so the
constraint matrix stays O(1); the optimal value is unaffected and the
splits are mapped back to bits on extraction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lp import LinearProgram, LpResult, LpStatus, solve_lp
from .scenario import Scenario

__all__ = [
    "INTEGRALITY_TOL",
    "NodeConstraints",
    "RelaxationSolution",
    "SplitSolution",
    "build_relaxation",
    "extract_solution",
    "set_node_bounds",
    "solve_split",
    "validate_node_constraints",
]

#: An indicator within this distance of 0/1 counts as integral.
INTEGRALITY_TOL = 1e-6

#: Branching overrides: flat x index -> (lo, hi) with values in
#: {(0, 0), (1, 1), (0, 1)}.
NodeConstraints = dict[int, tuple[int, int]]

_ALLOWED_OVERRIDES = {(0, 0), (1, 1), (0, 1)}


def validate_node_constraints(nc: NodeConstraints, num_vars: int) -> None:
    for i, bounds in nc.items():
        if not 0 <= i < num_vars:
            raise ValueError(f"constraint index {i} out of range [0, {num_vars})")
        if tuple(bounds) not in _ALLOWED_OVERRIDES:
            raise ValueError(f"constraint bounds {bounds!r} must be (0,0), (1,1) or (0,1)")


@dataclass
class RelaxationSolution:
    """Point recovered from a node LP: indicators, splits and the bound."""

    x: np.ndarray            # (S*K,) indicator values in [0, 1]
    split_bits: np.ndarray   # (S*K,) recovered splits, bits
    psi: float               # relaxation objective value
    integral: bool
    first_fractional: int | None  # smallest fractional flat index, None iff integral


@dataclass
class SplitSolution:
    """Optimal splits for a fixed binary indicator matrix."""

    split_bits: np.ndarray   # (S, K) bits
    psi: float


def build_relaxation(scenario: Scenario, nc: NodeConstraints) -> LinearProgram:
    """Assemble the LP of one search node.

    Constraints: per-channel exclusivity over x, per-device flow
    conservation over y, the coupling cuts y <= L*x, and the epigraph rows
    that pin tau above every channel's transmission time.  ``nc`` tightens
    individual x bounds; everything else is shared across the tree, so a
    search builds this once and moves between nodes with
    :func:`set_node_bounds`.
    """
    s_n, k_n = scenario.num_mds, scenario.num_channels
    n = s_n * k_n

    scale = float(scenario.task_bits.max())
    tasks = scenario.task_bits / scale            # (S,)
    rates = scenario.rates_bps / scale            # (S, K) in bits-per-scale
    inv_rates = 1.0 / rates

    cfg = scenario.config
    num_vars = 2 * n + 1
    c = np.zeros(num_vars)
    c[n:2 * n] = (cfg.lambda_e * scenario.powers_w[:, None] * inv_rates).ravel()
    c[-1] = cfg.lambda_t

    # Flow conservation: sum_k y[s,k] = L_s.
    a_eq = np.zeros((s_n, num_vars))
    for s in range(s_n):
        a_eq[s, n + s * k_n: n + (s + 1) * k_n] = 1.0
    b_eq = tasks.copy()

    # Channel exclusivity, coupling cuts, then epigraph rows.
    a_ub = np.zeros((k_n + n + k_n, num_vars))
    b_ub = np.zeros(k_n + n + k_n)
    for k in range(k_n):
        a_ub[k, [s * k_n + k for s in range(s_n)]] = 1.0
        b_ub[k] = 1.0
    for i in range(n):
        a_ub[k_n + i, i] = -tasks[i // k_n]
        a_ub[k_n + i, n + i] = 1.0
    for k in range(k_n):
        row = k_n + n + k
        for s in range(s_n):
            a_ub[row, n + s * k_n + k] = inv_rates[s, k]
        a_ub[row, -1] = -1.0

    lower = np.zeros(num_vars)
    upper = np.concatenate([np.ones(n), np.full(n + 1, np.inf)])
    lp = LinearProgram(c, a_eq, b_eq, a_ub, b_ub, lower, upper)
    set_node_bounds(lp, nc)
    return lp


def set_node_bounds(lp: LinearProgram, nc: NodeConstraints) -> None:
    """Turn a relaxation made by :func:`build_relaxation` into that of the
    node ``nc``, in place: every indicator gets [0, 1] unless ``nc``
    overrides it."""
    n = (lp.num_vars - 1) // 2
    validate_node_constraints(nc, n)
    lp.lower[:n] = 0.0
    lp.upper[:n] = 1.0
    for i, (lo, hi) in nc.items():
        lp.lower[i], lp.upper[i] = float(lo), float(hi)


def extract_solution(
    scenario: Scenario, lp_result: LpResult, tol: float = INTEGRALITY_TOL
) -> RelaxationSolution:
    """Map an optimal node LP back to (x, l, psi) and test integrality.

    Splits are read off the flow variables: l = y wherever x is active,
    which is exact at binary x because there y = x*l.
    """
    if lp_result.status is not LpStatus.OPTIMAL:
        raise ValueError(f"cannot extract a solution from status {lp_result.status}")
    n = scenario.num_mds * scenario.num_channels
    scale = float(scenario.task_bits.max())
    x = lp_result.x[:n].copy()
    y = lp_result.x[n:2 * n]
    split_bits = np.where(x >= tol, y * scale, 0.0)
    fractional = np.abs(x - np.round(x)) > tol
    first = int(np.argmax(fractional)) if fractional.any() else None
    return RelaxationSolution(
        x=x,
        split_bits=split_bits,
        psi=float(lp_result.value),
        integral=first is None,
        first_fractional=first,
    )


def solve_split(scenario: Scenario, x_binary: np.ndarray) -> SplitSolution | None:
    """Best splits for a fixed feasible indicator matrix; None if a device
    has no active channel.

    This is an independent formulation over the splits and tau only, used
    as the leaf oracle: it never goes through the product reformulation.
    """
    x = np.asarray(x_binary)
    s_n, k_n = scenario.num_mds, scenario.num_channels
    if x.shape != (s_n, k_n):
        raise ValueError(f"indicator shape {x.shape} does not match ({s_n}, {k_n})")
    if not np.all((x == 0) | (x == 1)):
        raise ValueError("indicator matrix must be binary")
    if np.any(x.sum(axis=0) > 1):
        raise ValueError("indicator matrix assigns a channel to several devices")
    if np.any(x.sum(axis=1) == 0):
        return None

    active = [(s, k) for s in range(s_n) for k in range(k_n) if x[s, k] == 1]
    n_act = len(active)
    scale = float(scenario.task_bits.max())
    cfg = scenario.config

    num_vars = n_act + 1  # splits for active pairs, then tau
    c = np.zeros(num_vars)
    for j, (s, k) in enumerate(active):
        c[j] = cfg.lambda_e * scenario.powers_w[s] * scale / scenario.rates_bps[s, k]
    c[-1] = cfg.lambda_t

    a_eq = np.zeros((s_n, num_vars))
    for j, (s, _) in enumerate(active):
        a_eq[s, j] = 1.0
    b_eq = scenario.task_bits / scale

    # Every channel carries at most one device, so each active pair gets
    # its own epigraph row.
    a_ub = np.zeros((n_act, num_vars))
    for j, (s, k) in enumerate(active):
        a_ub[j, j] = scale / scenario.rates_bps[s, k]
        a_ub[j, -1] = -1.0
    b_ub = np.zeros(n_act)

    result = solve_lp(LinearProgram(c, a_eq, b_eq, a_ub, b_ub))
    if result.status is not LpStatus.OPTIMAL:
        raise ArithmeticError(f"split program unexpectedly returned {result.status}")
    split_bits = np.zeros((s_n, k_n))
    for j, (s, k) in enumerate(active):
        split_bits[s, k] = result.x[j] * scale
    return SplitSolution(split_bits=split_bits, psi=float(result.value))
