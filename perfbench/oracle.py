"""Checks on solver outputs that share no code with ``mecoffload``.

The optimum comes from a mixed-integer program solved by HiGHS through
``scipy.optimize.milp``; feasibility and the objective of a returned
assignment are recomputed here from the frame's raw arrays.  Nothing in this
module imports ``mecoffload``: a fault in the package's own cost model or
feasibility test cannot hide itself.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.sparse import lil_matrix

#: Relative tolerance on split sums and split bounds of a returned assignment.
FEASIBILITY_RTOL = 1e-7
#: Relative tolerance between a reported psi and the recomputed objective,
#: and between an exact solver's psi and the MILP optimum.
OBJECTIVE_RTOL = 1e-9
#: HiGHS's tolerance, relative: its objective must agree with the exact
#: re-evaluation to this, and no returned assignment may beat its optimum by
#: more than this.
MILP_RTOL = 1e-6


def milp_optimum(rates, powers, tasks, lambda_t, lambda_e):
    """Optimal weighted latency+energy cost of one frame, or None if infeasible.

    Variables are ``[x (S*K) binary, l (S*K) splits, tau]``, flat index
    ``s*K + k``.  Rows: channel exclusivity ``sum_s x[s,k] <= 1``, task
    conservation ``sum_k l[s,k] = L_s``, coupling ``l[s,k] <= L_s x[s,k]``,
    and one epigraph row per channel ``sum_s l[s,k]/R[s,k] <= tau``.  Splits
    are in units of the largest task and times in units of that task's time
    on the fastest channel, so every coefficient and ``tau`` are O(1) and
    HiGHS's absolute tolerances are relative ones.
    """
    rates = np.asarray(rates, dtype=float)
    s_n, k_n = rates.shape
    n = s_n * k_n
    scale = float(np.max(tasks))
    time_unit = scale / float(rates.max())
    task = np.asarray(tasks, dtype=float) / scale
    per_unit = scale / rates / time_unit            # (S, K) time units per split unit

    c = np.zeros(2 * n + 1)
    c[n:2 * n] = (lambda_e * np.asarray(powers, dtype=float)[:, None] * per_unit).ravel()
    c[-1] = lambda_t

    rows = k_n + s_n + n + k_n
    a = lil_matrix((rows, 2 * n + 1))
    lo = np.full(rows, -np.inf)
    hi = np.zeros(rows)
    for k in range(k_n):
        for s in range(s_n):
            a[k, s * k_n + k] = 1.0
        hi[k] = 1.0
    for s in range(s_n):
        r = k_n + s
        for k in range(k_n):
            a[r, n + s * k_n + k] = 1.0
        lo[r] = hi[r] = task[s]
    for i in range(n):
        r = k_n + s_n + i
        a[r, n + i] = 1.0
        a[r, i] = -task[i // k_n]
    for k in range(k_n):
        r = k_n + s_n + n + k
        for s in range(s_n):
            a[r, n + s * k_n + k] = per_unit[s, k]
        a[r, -1] = -1.0

    integrality = np.zeros(2 * n + 1)
    integrality[:n] = 1
    upper = np.concatenate([np.ones(n), np.full(n + 1, np.inf)])
    res = milp(
        c,
        constraints=LinearConstraint(a.tocsr(), lo, hi),
        integrality=integrality,
        bounds=Bounds(np.zeros(2 * n + 1), upper),
        options={"mip_rel_gap": 0.0, "presolve": True},
    )
    if res.status == 2:          # proven infeasible
        return None
    if res.status != 0:
        raise RuntimeError(f"HiGHS MILP ended with status {res.status}: {res.message}")
    x = np.round(res.x[:n]).reshape(s_n, k_n)
    # Re-evaluate the optimum at the MILP's assignment with the exact split
    # rule below, so the reference value carries no solver tolerance; the two
    # must still agree to within HiGHS's own tolerances.
    exact = optimal_split_cost(rates, powers, tasks, lambda_t, lambda_e, x)
    if not abs(exact - res.fun * time_unit) <= MILP_RTOL * exact:
        raise RuntimeError(
            f"HiGHS objective {res.fun * time_unit!r} disagrees with {exact!r} at its own x")
    return exact


def optimal_split_cost(rates, powers, tasks, lambda_t, lambda_e, x):
    """Best cost for a fixed binary assignment ``x``, or None if a device
    holds no channel.

    At a latency target ``t`` each device fills its channels fastest first,
    up to ``t * R`` bits each (the fastest channel is also the cheapest in
    energy per bit).  The cost is convex and piecewise linear in ``t`` with
    kinks where a device's first ``j`` channels carry exactly its task, so
    the minimum is at the smallest feasible ``t`` or at one of those kinks;
    each candidate is costed exactly.
    """
    rates = np.asarray(rates, dtype=float)
    orders = []
    for s in range(rates.shape[0]):
        chans = np.flatnonzero(np.asarray(x[s]) > 0.5)
        if chans.size == 0:
            return None
        orders.append(chans[np.argsort(-rates[s, chans], kind="stable")])
    kinks = [tasks[s] / np.cumsum(rates[s, order]) for s, order in enumerate(orders)]
    t_min = max(k[-1] for k in kinks)
    best = np.inf
    for t in [t_min, *(t for k in kinks for t in k if t >= t_min)]:
        cost = lambda_t * t
        for s, order in enumerate(orders):
            left = tasks[s]
            for k in order:
                bits = min(left, t * rates[s, k])
                cost += lambda_e * powers[s] * bits / rates[s, k]
                left -= bits
        best = min(best, cost)
    return best


def recompute_objective(rates, powers, lambda_t, lambda_e, split):
    """Weighted cost of splits ``split`` (bits): slowest channel plus energy."""
    seconds = np.asarray(split, dtype=float) / np.asarray(rates, dtype=float)
    latency = float(seconds.sum(axis=0).max())
    energy = float((np.asarray(powers, dtype=float)[:, None] * seconds).sum())
    return lambda_t * latency + lambda_e * energy


def assignment_faults(rates, powers, tasks, lambda_t, lambda_e, x, split, psi):
    """Every way ``(x, split, psi)`` fails to be a feasible, correctly costed
    assignment of the frame; an empty list means it passes."""
    rates = np.asarray(rates, dtype=float)
    tasks = np.asarray(tasks, dtype=float)
    x = np.asarray(x, dtype=float)
    split = np.asarray(split, dtype=float)
    if x.shape != rates.shape or split.shape != rates.shape:
        return [f"shape: x {x.shape}, split {split.shape}, frame {rates.shape}"]
    faults = []
    if not np.all((x == 0) | (x == 1)):
        faults.append("x is not exactly binary")
    for k in np.flatnonzero(x.sum(axis=0) > 1):
        faults.append(f"channel {k} is used by {int(x[:, k].sum())} devices")
    tol = FEASIBILITY_RTOL * tasks[:, None]
    for s, k in zip(*np.nonzero(split < -tol)):
        faults.append(f"split[{s},{k}] = {split[s, k]!r} is negative")
    for s, k in zip(*np.nonzero((split > tol) & (x == 0))):
        faults.append(f"split[{s},{k}] = {split[s, k]!r} on an unassigned channel")
    for s in np.flatnonzero(np.abs(split.sum(axis=1) - tasks) > FEASIBILITY_RTOL * tasks):
        faults.append(f"device {s} sends {split[s].sum()!r} of {tasks[s]!r} bits")
    cost = recompute_objective(rates, powers, lambda_t, lambda_e, np.where(x == 1, split, 0.0))
    if not abs(cost - psi) <= OBJECTIVE_RTOL * abs(cost):
        faults.append(f"reported psi {psi!r} but the assignment costs {cost!r}")
    return faults
