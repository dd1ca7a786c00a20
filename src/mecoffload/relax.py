"""Node relaxations of the offloading problem as linear programs, and the
closed-form optimal split of a fixed channel map.

The objective couples the binary indicators x with the continuous splits l
through products x*l.  Each product is replaced by a flow variable
y = x*l, which is exact whenever x is binary.  The indicators then carry no
cost, so at a node optimum they sit at the smallest value y allows,
x = y/L, and they are projected out of the LP: channel exclusivity
sum_s x_sk <= 1 becomes sum_s y_sk / L_s <= 1, and a branching fixing
becomes an upper bound on flows, x_sk = 0 as y_sk <= 0 and x_sk = 1 as
y_s'k <= 0 for every other device s'.  Every node bound is unchanged by
the projection, and children still differ from their parent only in
bounds.

LP variables are ordered [y (S*K), tau], flat index i = s*K + k, the same
index as a node's fixing vector (:attr:`bnb.Node.fixed`).  Internally the bit
quantities are rescaled by the largest task size
(:attr:`Scenario.task_scale`, cached on the frame) so the constraint matrix
stays O(1); the optimal value is unaffected and the splits are mapped back
to bits on extraction.

A node point is a leaf when every channel carries flow from at most one
device: its x is that support, a feasible channel map, and the LP value
is that map's cost.  Elsewhere x is read off as y/L clipped to [0, 1], and
the search branches on the first index carrying flow on a shared channel.

Once x is binary the split problem needs no LP.  :func:`solve_split`, the
leaf oracle of the exhaustive search, fills each device's channels fastest
first and minimises the resulting convex, piecewise linear cost over the
frame time tau by costing each of its breakpoints.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .lp import LinearProgram, LpResult, LpStatus
from .scenario import Scenario

__all__ = [
    "INTEGRALITY_TOL",
    "RelaxationSolution",
    "SplitSolution",
    "build_relaxation",
    "extract_solution",
    "pinned_flows",
    "solve_split",
]

#: A flow above this share of its device's task counts as carried, and an
#: indicator within this distance of 0/1 counts as integral.
INTEGRALITY_TOL = 1e-6


@dataclass
class RelaxationSolution:
    """Point recovered from a node LP: indicators, splits and the bound."""

    x: np.ndarray            # (S*K,) indicator values in [0, 1], binary at a leaf
    split_bits: np.ndarray   # (S*K,) recovered splits, bits
    psi: float               # relaxation objective value
    integral: bool           # a leaf: no channel carries flow from two devices
    first_fractional: int | None  # smallest index on a shared channel, None iff integral


@dataclass
class SplitSolution:
    """Optimal splits for a fixed binary indicator matrix."""

    split_bits: np.ndarray   # (S, K) bits
    psi: float


def build_relaxation(scenario: Scenario) -> LinearProgram:
    """Assemble the LP of the root node, over the flows y and tau.

    Constraints: per-device flow conservation sum_k y_sk = L_s, per-channel
    exclusivity sum_s y_sk / L_s <= 1, and the epigraph rows that pin tau
    above every channel's transmission time.  Every flow is free above
    zero.  A node's fixings only pin flows at zero (:func:`pinned_flows`),
    so a search builds this once and moves between nodes by rewriting the
    flow upper bounds alone.
    """
    s_n, k_n = scenario.num_mds, scenario.num_channels
    n = s_n * k_n

    scale = scenario.task_scale
    tasks = scenario.scaled_tasks                 # (S,)
    rates = scenario.rates_bps / scale            # (S, K) in bits-per-scale
    inv_rates = 1.0 / rates

    cfg = scenario.config
    c = np.zeros(n + 1)
    c[:n] = (cfg.lambda_e * scenario.powers_w[:, None] * inv_rates).ravel()
    c[-1] = cfg.lambda_t

    # Flow conservation: sum_k y[s,k] = L_s.
    a_eq = np.zeros((s_n, n + 1))
    for s in range(s_n):
        a_eq[s, s * k_n:(s + 1) * k_n] = 1.0
    b_eq = tasks.copy()

    # Channel exclusivity, then epigraph rows.
    a_ub = np.zeros((2 * k_n, n + 1))
    b_ub = np.zeros(2 * k_n)
    for k in range(k_n):
        for s in range(s_n):
            a_ub[k, s * k_n + k] = 1.0 / tasks[s]
            a_ub[k_n + k, s * k_n + k] = inv_rates[s, k]
        a_ub[k_n + k, -1] = -1.0
        b_ub[k] = 1.0

    return LinearProgram(c, a_eq, b_eq, a_ub, b_ub, np.zeros(n + 1), np.full(n + 1, np.inf))


@functools.lru_cache(maxsize=None)
def pinned_flows(index: int, value: int, num_channels: int, num_flows: int) -> np.ndarray:
    """Flat indices of the flows that fixing indicator ``index`` to
    ``value`` pins at zero, in increasing order: x_sk = 0 pins y_sk, and
    x_sk = 1 pins y_s'k for every other device s'.  The array is shared
    between calls and read-only."""
    if value == 0:
        flows = np.array([index])
    else:
        flows = np.arange(index % num_channels, num_flows, num_channels)
        flows = flows[flows != index]
    flows.setflags(write=False)
    return flows


def extract_solution(
    scenario: Scenario, lp_result: LpResult, fixed: np.ndarray,
) -> RelaxationSolution:
    """Map the optimal LP of the node with fixing vector ``fixed`` (S*K
    entries: -1 free, 0 or 1 fixed) back to (x, l, psi).

    A flow counts when it exceeds :data:`INTEGRALITY_TOL` of its device's
    task, and only counted flows become splits.  A point whose channels
    each carry counted flow from at most one device is a leaf, and x is
    that support; otherwise x = y/L clipped to [0, 1], and the first fractional
    index is the smallest one with counted flow on a channel that two or
    more devices share.  An indicator that ``fixed`` sets to 1 reads 1.
    """
    if lp_result.status is not LpStatus.OPTIMAL:
        raise ValueError(f"cannot extract a solution from status {lp_result.status}")
    s_n, k_n = scenario.num_mds, scenario.num_channels
    scale = scenario.task_scale
    y = lp_result.x[:s_n * k_n]
    # Support and sharing are found once, on the (S, K) view of the flows;
    # the rest reads their flat views.
    share = y.reshape(s_n, k_n) / scenario.scaled_tasks[:, None]
    support = share > INTEGRALITY_TOL
    contested = support.sum(axis=0) > 1
    integral = not contested[contested.argmax()]
    first = None if integral else int((support & contested).argmax())
    support = support.ravel()
    x = support.astype(float) if integral else share.ravel().clip(0.0, 1.0)
    x[fixed == 1] = 1.0
    split_bits = y * scale
    split_bits[~support] = 0.0
    return RelaxationSolution(
        x=x,
        split_bits=split_bits,
        psi=float(lp_result.value),
        integral=integral,
        first_fractional=first,
    )


def solve_split(scenario: Scenario, x_binary: np.ndarray) -> SplitSolution | None:
    """Best splits for a fixed feasible indicator matrix; None if a device
    has no active channel.

    The leaf oracle, solved in closed form rather than as an LP, and never
    through the product reformulation of the node relaxations.

    Fix the frame time tau.  Energy per bit on channel k is p_s / R_sk, so
    each device fills its active channels fastest first: with its active
    rates sorted r_1 >= ... >= r_m (ties by channel index) and prefix sums
    C_j = r_1 + ... + r_j, channels 1..j-1 carry tau*r_i, channel j the
    rest, and later channels nothing, where j is the first with
    tau*C_j >= L_s.  The device's energy is then
    p_s * ((j-1)*tau + (L_s - tau*C_{j-1}) / r_j), linear in tau between
    the breakpoints L_s / C_j with slope p_s * ((j-1) - C_{j-1}/r_j) <= 0.
    As tau grows j falls, and since r_{j-1} >= r_j that slope can only
    rise, so the cost psi(tau) = lambda_t*tau + lambda_e*sum_s E_s(tau) is
    convex and piecewise linear on tau >= tau_min = max_s L_s / C_{s,m},
    with slope lambda_t >= 0 beyond the last breakpoint.  Its minimum is
    therefore attained at a breakpoint no smaller than tau_min (which is
    itself one); every such breakpoint is costed and the smallest tau of
    least cost wins.
    """
    x = np.asarray(x_binary)
    s_n, k_n = scenario.num_mds, scenario.num_channels
    if x.shape != (s_n, k_n):
        raise ValueError(f"indicator shape {x.shape} does not match ({s_n}, {k_n})")
    if not np.all((x == 0) | (x == 1)):
        raise ValueError("indicator matrix must be binary")
    if np.any(x.sum(axis=0) > 1):
        raise ValueError("indicator matrix assigns a channel to several devices")
    held = x.sum(axis=1).astype(int)
    if np.any(held == 0):
        return None

    rows = np.arange(s_n)
    # Row s lists device s's channels fastest first, its idle ones (rate 0)
    # after them; a stable sort keeps ties in channel order.
    rates = np.where(x == 1, scenario.rates_bps, 0.0)
    order = np.argsort(-rates, axis=1, kind="stable")
    r = rates[rows[:, None], order]
    c = r.cumsum(axis=1)                           # C_j, constant past m
    tasks = scenario.task_bits

    kinks = tasks[:, None] / c                     # past m: repeats of L_s/C_m
    tau = np.sort(kinks[kinks >= kinks[:, -1].max()])
    # j (from 0) of every device at every candidate tau: its partly filled
    # channel.  Capped at m-1 in case tau_min*C_m rounds below L_s.
    j = np.minimum((tau[:, None, None] * c < tasks[:, None]).sum(axis=2), held - 1)
    c_before = np.where(j > 0, c[rows, j - 1], 0.0)
    part = tasks - tau[:, None] * c_before
    energy = scenario.powers_w * (j * tau[:, None] + part / r[rows, j])
    cfg = scenario.config
    psi = cfg.lambda_t * tau + cfg.lambda_e * energy.sum(axis=1)
    best = int(np.argmin(psi))

    partial = j[best]
    sorted_split = np.where(np.arange(k_n) < partial[:, None], tau[best] * r, 0.0)
    sorted_split[rows, partial] = part[best]
    split_bits = np.zeros((s_n, k_n))
    split_bits[rows[:, None], order] = sorted_split
    return SplitSolution(split_bits=split_bits, psi=float(psi[best]))
