"""Node relaxations of the offloading problem as linear programs, and the
closed-form optimal split of a fixed channel map.

The objective couples the binary indicators x with the continuous splits l
through products x*l.  Each product is replaced by a flow variable, the
share z = x*l/L of its device's task, which is exact whenever x is binary.
The indicators then carry no cost, so at a node optimum they sit at the
smallest value z allows, x = z, and they are projected out of the LP:
channel exclusivity sum_s x_sk <= 1 becomes sum_s z_sk <= 1, and a
branching fixing pins flows at zero, x_sk = 0 as z_sk = 0 and x_sk = 1 as
z_s'k = 0 for every other device s'.  Every node bound is unchanged by the
projection, and children still differ from their parent only in which
flows are pinned, the one thing the solves of one
:class:`lp.LinearProgram` may differ in.

LP variables are ordered [z (S*K), tau], flat index i = s*K + k, the same
index as a node's fixing vector (:attr:`bnb.Node.fixed`).  The frame time
tau is counted in units of the largest task's time on the fastest channel,
so the epigraph coefficients and tau itself are O(1) at any time scale, as
the shares are.  Counted in seconds, they shrink with the frame's time
scale beside O(1) entries, and the dual simplex's absolute tolerances fail
on frames of a few microseconds.  Only :func:`build_relaxation` knows these
units: the optimal value is psi itself, and the flows are the shares that
the search, the features and the incumbent read.

A node point is a leaf when every channel carries flow from at most one
device, a flow counting above :data:`lp.FEASIBILITY_TOL`, the bound the
simplex leaves every pinned flow within: its x is that support, a feasible
channel map, and the LP value is that map's cost.  Elsewhere x is the
shares clipped to [0, 1], and the search branches on the first index
carrying flow on a shared channel.  The search reads only the value, the
leaf test and that index, so :func:`extract_solution` finds just these and
a copy of the node's flows.  :func:`node_x` writes the node's x from
those flows into an array its caller gives, the gate's feature vector
among them, and :func:`node_arrays` builds x and the counted shares anew
on each call, for the traces and incumbent that read them.

Once x is binary the split problem needs no LP.  One closed-form core
fills each device's channels fastest first and minimises the resulting
convex, piecewise linear cost over the frame time tau by costing each of
its breakpoints.  :func:`solve_split` checks its indicator matrix, runs
the core, :func:`price_map`, and builds the split.  The exhaustive
oracle, whose maps are valid by construction, runs :func:`price_map` alone
on every map and :func:`solve_split` only on the winner.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .lp import FEASIBILITY_TOL, LinearProgram, LpResult
from .scenario import Scenario

__all__ = [
    "SplitSolution",
    "build_relaxation",
    "extract_solution",
    "node_arrays",
    "node_x",
    "pinned_flows",
    "price_map",
    "solve_split",
]


@dataclass
class SplitSolution:
    """Optimal splits for a fixed binary indicator matrix."""

    split_bits: np.ndarray   # (S, K) bits
    psi: float


def build_relaxation(scenario: Scenario) -> LinearProgram:
    """Assemble the LP of the root node, over the shares z and tau.

    Constraints: per-device flow conservation sum_k z_sk = 1, per-channel
    exclusivity sum_s z_sk <= 1, and the epigraph rows
    (L_s / R_sk / unit) * z_sk <= tau that pin tau above every channel's
    transmission time, with ``unit = max_s L_s / max_sk R_sk`` seconds.
    Share z_sk costs lambda_e * p_s * L_s / R_sk, its energy, and tau costs
    lambda_t * unit, so the LP value is psi.  Every variable is nonnegative.
    A node's fixings only pin flows at zero (:func:`pinned_flows`), so a
    search builds this once and solves each node under its own pins.
    """
    s_n, k_n = scenario.num_mds, scenario.num_channels
    n = s_n * k_n

    tasks = scenario.task_bits
    times = tasks[:, None] / scenario.rates_bps     # (S, K) s to send task s on channel k
    unit = tasks.max() / scenario.rates_bps.max()   # s per unit of tau

    cfg = scenario.config
    c = np.zeros(n + 1)
    c[:n] = (cfg.lambda_e * scenario.powers_w[:, None] * times).ravel()
    c[-1] = cfg.lambda_t * unit

    # Flow conservation: sum_k z[s,k] = 1.
    a_eq = np.zeros((s_n, n + 1))
    for s in range(s_n):
        a_eq[s, s * k_n:(s + 1) * k_n] = 1.0
    b_eq = np.ones(s_n)

    # Channel exclusivity, then epigraph rows.
    a_ub = np.zeros((2 * k_n, n + 1))
    b_ub = np.zeros(2 * k_n)
    for k in range(k_n):
        for s in range(s_n):
            a_ub[k, s * k_n + k] = 1.0
            a_ub[k_n + k, s * k_n + k] = times[s, k] / unit
        a_ub[k_n + k, -1] = -1.0
        b_ub[k] = 1.0

    return LinearProgram(c, a_eq, b_eq, a_ub, b_ub)


@functools.lru_cache(maxsize=None)
def pinned_flows(index: int, value: int, num_channels: int, num_flows: int) -> np.ndarray:
    """Flat indices of the flows that fixing indicator ``index`` to
    ``value`` pins at zero, in increasing order: x_sk = 0 pins z_sk, and
    x_sk = 1 pins z_s'k for every other device s'.  The array is shared
    between calls and read-only."""
    if value == 0:
        flows = np.array([index])
    else:
        flows = np.arange(index % num_channels, num_flows, num_channels)
        flows = flows[flows != index]
    flows.setflags(write=False)
    return flows


def extract_solution(
    scenario: Scenario, lp_result: LpResult,
) -> tuple[float, int | None, np.ndarray]:
    """Read a node's optimal LP as ``(psi, first_fractional, flows)``: the
    relaxation value, the index to branch on (None at a leaf) and a copy
    of the (S*K,) flows, each its share of its device's task.

    A flow counts when it exceeds :data:`lp.FEASIBILITY_TOL`.  A point whose
    channels each carry counted flow from at most one device is a leaf;
    otherwise the first fractional index is the smallest one with counted
    flow on a channel that two or more devices share.  Only psi, the leaf
    test and that index are computed here; :func:`node_arrays` builds x
    and the counted shares from the flows.
    """
    s_n, k_n = scenario.num_mds, scenario.num_channels
    # A copy of the flows, not a view that would keep the simplex's whole
    # point alive; sharing is found on the (S, K) view of their support,
    # and only its verdict is kept.
    z = lp_result.x[:s_n * k_n].copy()
    support = (z > FEASIBILITY_TOL).reshape(s_n, k_n)
    contested = np.add.reduce(support, axis=0) > 1
    integral = not contested[contested.argmax()]
    first = None if integral else int((support & contested).argmax())
    return float(lp_result.value), first, z


def node_x(flows: np.ndarray, fixed: np.ndarray, leaf: bool, out: np.ndarray) -> np.ndarray:
    """Write a node's x into the (S*K,) float64 array ``out`` and return
    it, from the flows :func:`extract_solution` kept and the node's fixing
    vector ``fixed`` (-1 free, 0 or 1 fixed).

    At a ``leaf`` x is the support above :data:`lp.FEASIBILITY_TOL`,
    elsewhere the flows clipped to [0, 1], and 1 wherever ``fixed`` holds a
    1.  ``out`` may be a view, such as the x block of a feature vector.
    """
    if leaf:
        np.greater(flows, FEASIBILITY_TOL, out=out)
    else:
        flows.clip(0.0, 1.0, out=out)
    out[fixed == 1] = 1.0
    return out


def node_arrays(
    flows: np.ndarray, fixed: np.ndarray, leaf: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """A node's ``(x, shares)``, each a new (S*K,) array, on each
    :meth:`bnb.Node.arrays`: x as :func:`node_x` writes it, and the shares,
    the flows above :data:`lp.FEASIBILITY_TOL`, 0 elsewhere.
    """
    x = node_x(flows, fixed, leaf, np.empty(flows.size))
    return x, np.where(flows > FEASIBILITY_TOL, flows, 0.0)


def solve_split(scenario: Scenario, x_binary: np.ndarray) -> SplitSolution:
    """Best splits for a fixed feasible indicator matrix.

    Solved in closed form rather than as an LP, and never through the
    product reformulation of the node relaxations.  This public path
    checks the matrix (shape, binary, one device per channel, a channel
    for every device) and builds the split; the cost itself comes from the
    unchecked core that the exhaustive oracle runs on every map, so both
    price a map to the same bit.

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
        raise ValueError("indicator matrix leaves a device without a channel")

    psi, tau, partial, part, r, order = price_map(scenario, x == 1, held)
    rows = np.arange(s_n)
    sorted_split = np.where(np.arange(k_n) < partial[:, None], tau * r, 0.0)
    sorted_split[rows, partial] = part
    split_bits = np.zeros((s_n, k_n))
    split_bits[rows[:, None], order] = sorted_split
    return SplitSolution(split_bits=split_bits, psi=float(psi))


def price_map(scenario: Scenario, owned: np.ndarray, held: np.ndarray) -> tuple:
    """The closed-form core of :func:`solve_split`, unchecked: the least
    cost of the map whose (S, K) bool mask ``owned`` gives device s its
    ``held[s]`` >= 1 channels, no channel to two devices.

    Returns ``(psi, tau, partial, part, r, order)`` at the least-cost
    breakpoint tau: each device's partly filled channel ``partial`` (from
    0, in fill order) and the bits ``part`` it carries there, and the
    devices' rates ``r`` in fill order with the channel ``order`` that
    sorts them, which is all the split is built from.  The reductions are
    numpy's ufunc and array methods, the same arithmetic as their
    wrappers without their Python overhead, since the exhaustive oracle
    calls this once per map.
    """
    rows = np.arange(held.size)
    # Row s lists device s's channels fastest first, its idle ones (rate 0)
    # after them; a stable sort keeps ties in channel order.
    rates = np.where(owned, scenario.rates_bps, 0.0)
    order = (-rates).argsort(axis=1, kind="stable")
    r = rates[rows[:, None], order]
    c = r.cumsum(axis=1)                           # C_j, constant past m
    tasks = scenario.task_bits

    kinks = tasks[:, None] / c                     # past m: repeats of L_s/C_m
    tau = kinks[kinks >= np.maximum.reduce(kinks[:, -1])]
    tau.sort()
    # j (from 0) of every device at every candidate tau: its partly filled
    # channel.  Capped at m-1 in case tau_min*C_m rounds below L_s.
    j = np.minimum(np.add.reduce(tau[:, None, None] * c < tasks[:, None], axis=2), held - 1)
    c_before = np.where(j > 0, c[rows, j - 1], 0.0)
    part = tasks - tau[:, None] * c_before
    energy = scenario.powers_w * (j * tau[:, None] + part / r[rows, j])
    cfg = scenario.config
    psi = cfg.lambda_t * tau + cfg.lambda_e * np.add.reduce(energy, axis=1)
    best = psi.argmin()
    return psi[best], tau[best], j[best], part[best], r, order
