"""Dense linear programming with one bounded-variable simplex: dual pivots
to a feasible basis, then row and optimality checks.

Node relaxations in the tree search are small (a few dozen variables), so a
dense tableau-free simplex with an explicitly maintained basis inverse is
both simple and fast enough.  Branching constraints arrive as variable-bound
tightenings, which the bounded-variable method absorbs without growing the
constraint matrix.

Every row gets a slack column, fixed at zero on an equality row.  The
slack-augmented rows ``[A | I]``, their right-hand side and the padded costs
are built once per :class:`LinearProgram`; only its bounds may change
between solves.  Node relaxations have nonnegative costs and finite lower
bounds, which :func:`solve_lp` requires; then the all-slack basis, with
every structural variable at its lower bound, is dual feasible, and a solve
from scratch starts there with the identity as its inverse and the costs as
its reduced costs.

An optimal solve returns its basis together with the factor it ended on:
the basis inverse, the reduced costs of every column and the number of
product-form updates the inverse has taken since it was last inverted.  A
child node differs from its parent only in tightened bounds, so the
parent's optimal basis is still dual feasible for it: given as ``start``,
the child resumes from that factor, recomputes the basic values
``B^-1 (b - N x_N)`` under its own bounds without inverting, and
re-optimises with a few dual pivots.  Each pivot updates the inverse in
product form and the reduced costs from the pivot row.  The count of
updates carries down the tree, and the inverse is recomputed from the basis
columns (with the reduced costs and basic values) once it reaches
:data:`_REFACTOR_EVERY`, or at once for a start without a factor.

Dual pivots keep the basis dual feasible, so the first primal feasible
basis is optimal; the final point must satisfy the rows, and one pricing
pass from scratch over the final basis certifies it.  An infeasible verdict
rests on a row checked to be a row of ``B^-1 A``.  A solve that fails a
check, such as one started from a stale or foreign factor, is an error.

The solver is deterministic.  The dual pivots leave on the row of largest
bound violation (smallest row on ties) and enter by the bounded dual ratio
test (ties to the largest pivot magnitude, then the smallest column); they
have no anti-cycling fallback, so a stalled dual solve ends in an error at
the iteration cap rather than looping.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "LpStatus",
    "LinearProgram",
    "LpResult",
    "Basis",
    "solve_lp",
    "FEASIBILITY_TOL",
    "OPTIMALITY_TOL",
]

#: Absolute tolerance on constraint residuals.
FEASIBILITY_TOL = 1e-9
#: Tolerance on reduced costs when declaring optimality.
OPTIMALITY_TOL = 1e-9
#: Entries of a pivot column smaller than this are treated as zero.
_PIVOT_TOL = 1e-10
#: Recompute the basis inverse after this many product-form updates, counted
#: across warm starts, to cap drift.
_REFACTOR_EVERY = 64


class LpStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"


@dataclass
class LinearProgram:
    """min c.v  s.t.  a_eq.v = b_eq,  a_ub.v <= b_ub,  lower <= v <= upper.

    ``upper`` entries may be ``+inf`` and ``lower`` entries ``-inf``, though
    :func:`solve_lp` takes only finite lower bounds.  Dimension mismatches
    and inverted bounds are construction-time errors.  The costs and rows
    are read once, at construction; only ``lower`` and ``upper`` may change
    afterwards.
    """

    c: np.ndarray
    a_eq: np.ndarray | None = None
    b_eq: np.ndarray | None = None
    a_ub: np.ndarray | None = None
    b_ub: np.ndarray | None = None
    lower: np.ndarray | None = None
    upper: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.c = np.asarray(self.c, dtype=float).ravel()
        n = self.c.size
        if self.a_eq is None:
            self.a_eq = np.zeros((0, n))
            self.b_eq = np.zeros(0)
        if self.a_ub is None:
            self.a_ub = np.zeros((0, n))
            self.b_ub = np.zeros(0)
        self.a_eq = np.atleast_2d(np.asarray(self.a_eq, dtype=float))
        self.a_ub = np.atleast_2d(np.asarray(self.a_ub, dtype=float))
        self.b_eq = np.asarray(self.b_eq, dtype=float).ravel()
        self.b_ub = np.asarray(self.b_ub, dtype=float).ravel()
        self.lower = (
            np.zeros(n) if self.lower is None
            else np.asarray(self.lower, dtype=float).ravel()
        )
        self.upper = (
            np.full(n, np.inf) if self.upper is None
            else np.asarray(self.upper, dtype=float).ravel()
        )
        if self.a_eq.shape[1] != n and self.a_eq.shape[0] > 0:
            raise ValueError("a_eq column count does not match c")
        if self.a_ub.shape[1] != n and self.a_ub.shape[0] > 0:
            raise ValueError("a_ub column count does not match c")
        if self.a_eq.size == 0:
            self.a_eq = self.a_eq.reshape(0, n)
        if self.a_ub.size == 0:
            self.a_ub = self.a_ub.reshape(0, n)
        if self.b_eq.size != self.a_eq.shape[0]:
            raise ValueError("b_eq length does not match a_eq rows")
        if self.b_ub.size != self.a_ub.shape[0]:
            raise ValueError("b_ub length does not match a_ub rows")
        if self.lower.size != n or self.upper.size != n:
            raise ValueError("bound vectors must match c in length")
        if not (np.all(np.isfinite(self.c))
                and np.all(np.isfinite(self.a_eq))
                and np.all(np.isfinite(self.a_ub))
                and np.all(np.isfinite(self.b_eq))
                and np.all(np.isfinite(self.b_ub))):
            raise ValueError("objective and constraint data must be finite")
        if np.any(self.lower > self.upper):
            raise ValueError("lower bound exceeds upper bound")
        # The simplex form: equality rows first, then inequalities, one
        # slack column per row, fixed at zero on an equality row.
        m_eq, m = self.a_eq.shape[0], self.a_eq.shape[0] + self.a_ub.shape[0]
        self.rows = np.hstack([np.vstack([self.a_eq, self.a_ub]), np.eye(m)])
        self.rhs = np.concatenate([self.b_eq, self.b_ub])
        self.costs = np.concatenate([self.c, np.zeros(m)])
        self.slack_upper = np.concatenate([np.zeros(m_eq), np.full(m - m_eq, np.inf)])

    @property
    def num_vars(self) -> int:
        return self.c.size


@dataclass(frozen=True)
class Basis:
    """A simplex basis over the structural columns of a program followed by
    one slack column per row, and the factor a warm start resumes from.

    ``indices[i]`` is the column basic in row ``i`` (equality rows first);
    ``at_upper[j]`` is True when nonbasic column ``j`` rests on its upper
    bound.  ``binv`` is the inverse of the basis matrix, ``reduced_costs``
    holds the reduced cost of every column, and ``updates`` counts the
    product-form updates ``binv`` has taken since it was last inverted.  A
    solve started here resumes from the factor and inverts again only once
    ``updates`` reaches :data:`_REFACTOR_EVERY`; without a factor (``binv``
    or ``reduced_costs`` None) it inverts first.  The arrays are shared by
    every solve started from the basis and are never written.
    """

    indices: np.ndarray
    at_upper: np.ndarray
    binv: np.ndarray | None = None
    reduced_costs: np.ndarray | None = None
    updates: int = 0


@dataclass
class LpResult:
    status: LpStatus
    x: np.ndarray | None = None
    value: float | None = None
    #: Optimal basis with its factor; None unless OPTIMAL.
    basis: Basis | None = None
    #: Dual simplex basis changes of this solve.
    pivots: int = 0
    #: Basis inversions of this solve.
    refactors: int = 0


def solve_lp(lp: LinearProgram, start: Basis | None = None) -> LpResult:
    """Solve ``lp`` to a vertex optimum; infeasibility is a status.

    ``lp`` must have nonnegative costs and finite lower bounds, as every node
    relaxation does; it is then bounded below, and its all-slack basis with
    every structural variable at its lower bound is dual feasible.  Without
    ``start`` the dual simplex begins there.  ``start`` may instead be an
    optimal basis (``LpResult.basis``) of a program with the same objective
    and rows whose bounds contain those of ``lp``, such as a parent node's.
    A ``start`` that breaks this contract, or whose factor is not that of
    its basis in ``lp``, may end in ``ArithmeticError``, as do an exhausted
    iteration cap and a singular pivot; it never yields OPTIMAL.
    """
    if np.any(lp.c < 0.0):
        raise ValueError("solve_lp needs nonnegative costs")
    if not np.all(np.isfinite(lp.lower)):
        raise ValueError("solve_lp needs finite lower bounds")
    n, m = lp.num_vars, lp.rhs.size
    if start is None:
        start = Basis(n + np.arange(m), np.zeros(n + m, dtype=bool),
                      np.eye(m), lp.costs)

    sim = _BoundedSimplex(lp, start)
    if not sim.dual():
        return LpResult(LpStatus.INFEASIBLE, pivots=sim.pivots,
                        refactors=sim.refactors)
    x = sim.solution()
    if np.abs(lp.rows @ x - lp.rhs).max(initial=0.0) > FEASIBILITY_TOL:
        raise ArithmeticError("final point does not satisfy the rows")
    sim.check_optimal()
    return LpResult(LpStatus.OPTIMAL, x[:n], float(lp.c @ x[:n]),
                    Basis(sim.basis, sim.at_upper, sim.binv, sim.reduced,
                          sim.updates),
                    sim.pivots, sim.refactors)


class _BoundedSimplex:
    """Dual simplex over the rows of a program in simplex form, every lower
    bound finite.

    Nonbasic variables rest exactly on a bound.  The basis inverse, the
    basic values and the reduced costs are maintained incrementally and
    recomputed after :data:`_REFACTOR_EVERY` updates.  The solver owns
    copies of the start's arrays, so a start can serve several solves.
    """

    def __init__(self, lp: LinearProgram, start: Basis) -> None:
        self.a, self.b, self.c = lp.rows, lp.rhs, lp.costs
        self.m, self.num_cols = self.a.shape
        self.lower = np.concatenate([lp.lower, np.zeros(self.m)])
        self.upper = np.concatenate([lp.upper, lp.slack_upper])
        basis = np.array(start.indices, dtype=int)
        at_upper = np.array(start.at_upper, dtype=bool)
        factored = start.binv is not None and start.reduced_costs is not None
        self.in_basis = np.zeros(self.num_cols, dtype=bool)
        if (basis.shape != (self.m,) or at_upper.shape != (self.num_cols,)
                or basis.min(initial=0) < 0 or basis.max(initial=0) >= self.num_cols
                or factored and (np.shape(start.binv) != (self.m, self.m)
                                 or np.shape(start.reduced_costs) != (self.num_cols,))):
            raise ValueError("start basis does not fit the program's rows and columns")
        self.in_basis[basis] = True
        if np.count_nonzero(self.in_basis) != self.m:
            raise ValueError("start basis repeats a column")
        self.basis = basis
        # Nonbasic resting position: True means at the upper bound, which
        # must then be finite.
        self.at_upper = at_upper & np.isfinite(self.upper)
        self.at_upper[basis] = False
        self.pivots = 0
        self.refactors = 0
        if factored and start.updates < _REFACTOR_EVERY:
            self.binv = np.array(start.binv, dtype=float)
            self.reduced = np.array(start.reduced_costs, dtype=float)
            self.updates = start.updates
            self._basic_values()
        else:
            self._refresh()

    # -- current point ----------------------------------------------------

    def _nonbasic_values(self) -> np.ndarray:
        return np.where(self.at_upper, self.upper, self.lower)

    def solution(self) -> np.ndarray:
        x = self._nonbasic_values()
        x[self.basis] = self.xb
        return x

    def _basic_values(self) -> None:
        """x_B = B^-1 (b - N x_N) for the nonbasic variables at rest."""
        x = self._nonbasic_values()
        x[self.basis] = 0.0
        self.xb = self.binv @ (self.b - self.a @ x)

    def _refresh(self) -> None:
        """Invert the basis matrix and recompute what depends on it."""
        self.binv = np.linalg.inv(self.a[:, self.basis])
        self.reduced = self._price()
        self._basic_values()
        self.updates = 0
        self.refactors += 1

    def _price(self) -> np.ndarray:
        """Reduced costs c - c_B B^-1 A from the current inverse."""
        return self.c - (self.c[self.basis] @ self.binv) @ self.a

    # -- dual simplex -----------------------------------------------------

    def dual(self) -> bool:
        """Dual simplex from a dual feasible basis; True once the basis is
        primal feasible, False iff the program is infeasible.

        Leaves on the row with the largest bound violation (smallest row on
        ties).  The entering column is the bounded dual ratio test's minimum
        over the columns that move the leaving variable toward its violated
        bound; ties go to the largest pivot magnitude, then the smallest
        column.  When no column qualifies, the leaving variable cannot reach
        its bound anywhere in the box of the nonbasic variables.
        """
        fixed = self.lower == self.upper  # pinned variables never enter
        max_iter = 10_000 + 200 * (self.num_cols + self.m)

        for _ in range(max_iter):
            below = self.lower[self.basis] - self.xb
            above = self.xb - self.upper[self.basis]
            violation = np.maximum(below, above)
            if violation.max(initial=0.0) <= FEASIBILITY_TOL:
                return True
            pos = int(np.argmax(violation))
            to_upper = bool(above[pos] > 0.0)

            # Row ``pos`` reads x_B = beta - alpha.x_N: a column helps when
            # its feasible move shifts x_B toward the violated bound.
            alpha = self.binv[pos] @ self.a
            toward = alpha if to_upper else -alpha
            eligible = ~self.in_basis & ~fixed & np.where(
                self.at_upper, toward < -_PIVOT_TOL, toward > _PIVOT_TOL)
            idx = np.where(eligible)[0]
            if idx.size == 0:
                # The row proves infeasibility only if it is a row of
                # B^-1 A, which is the unit vector on the basic columns.
                unit = alpha[self.basis]
                unit[pos] -= 1.0
                if np.abs(unit).max() > FEASIBILITY_TOL:
                    raise ArithmeticError("basis inverse does not invert the basis")
                return False

            reduced = self.reduced
            dual_slack = np.where(self.at_upper[idx], -reduced[idx], reduced[idx])
            ratios = np.maximum(dual_slack, 0.0) / np.abs(alpha[idx])
            tie = idx[ratios <= ratios.min() + 1e-12]
            entering = int(tie[np.argmax(np.abs(alpha[tie]))])

            w = self.binv @ self.a[:, entering]
            target = self.upper if to_upper else self.lower
            step = (self.xb[pos] - target[self.basis[pos]]) / w[pos]
            start = (self.upper if self.at_upper[entering] else self.lower)[entering]
            self.xb -= step * w
            # The pivot row prices the new basis: d <- d - (d_q / alpha_q) alpha.
            reduced -= (reduced[entering] / alpha[entering]) * alpha
            reduced[entering] = 0.0
            self._pivot(pos, entering, w, entering_value=start + step,
                        leave_to_upper=to_upper)

        raise ArithmeticError("dual simplex iteration limit exceeded")

    def check_optimal(self) -> None:
        """Raise ``ArithmeticError`` if a nonbasic column that is not fixed
        has a reduced cost of the wrong sign, or a basic column a nonzero
        one, beyond :data:`OPTIMALITY_TOL`.

        The reduced costs are priced afresh from the inverse, not read from
        the ones :meth:`dual` maintains; the basic columns price to zero
        only if the inverse is that of the basis.  Run after :meth:`dual`
        returns True: the basis is then primal feasible, so passing proves
        it optimal.  It fails when the start basis was not dual feasible.
        """
        reduced = self._price()
        if np.abs(reduced[self.basis]).max(initial=0.0) > OPTIMALITY_TOL:
            raise ArithmeticError("basis inverse does not price the basis")
        wrong_sign = np.where(self.at_upper, reduced > OPTIMALITY_TOL,
                              reduced < -OPTIMALITY_TOL)
        if np.any(wrong_sign & ~self.in_basis & (self.lower < self.upper)):
            raise ArithmeticError("final basis is not dual feasible")

    def _pivot(self, pos: int, entering: int, w: np.ndarray,
               entering_value: float, leave_to_upper: bool) -> None:
        leaving = int(self.basis[pos])
        self.in_basis[leaving] = False
        self.at_upper[leaving] = leave_to_upper
        self.in_basis[entering] = True
        self.at_upper[entering] = False
        self.basis[pos] = entering

        pivot = w[pos]
        if abs(pivot) < _PIVOT_TOL:
            raise ArithmeticError("numerically singular pivot")
        row = self.binv[pos] / pivot
        scale = w.copy()
        scale[pos] = 0.0
        self.binv -= np.outer(scale, row)
        self.binv[pos] = row

        # The leaving variable's value is now derived from its resting
        # status, which lands it exactly on the bound it hit.
        self.xb[pos] = entering_value
        self.pivots += 1
        self.updates += 1
        if self.updates >= _REFACTOR_EVERY:
            self._refresh()
