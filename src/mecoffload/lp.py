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

An optimal result also carries the sign of each column's dual slack, and
:func:`pinned_bounds` reads off it, without a solve, a lower bound on the
value of a child that pins some columns at their lower bounds: the dual
objective after one ratio test on a row the pins cut off, the first pivot
the child's own solve would make there.

Dual pivots keep the basis dual feasible, so the first primal feasible
basis is optimal; the final point must satisfy the rows, and one pricing
pass from scratch over the final basis certifies it.  An infeasible verdict
rests on a row checked to be a row of ``B^-1 A``.  A solve that fails a
check, such as one started from a stale or foreign factor, is an error.

A solve reuses what does not change between the nodes of a search and
re-checks what could be wrong.  It reads the program's rows, right-hand
side, padded costs and column bounds in place, and the cost sign test made
at construction.  It never writes into its start: the basis and resting
positions are copied, and each pivot replaces the inverse and the reduced
costs instead of updating them in place, so both children of a node resume
from one ``result.basis``.  Within a solve, a pivot writes the few entries
it changes (the bounds of the basic variables, the nonbasic values and the
sign of each column's dual slack) rather than rebuilding them.  Every solve
re-checks the finite lower bounds, the start's shapes, index range and
repeated columns, the rows at the final point, and a fresh pricing of the
final basis.  On arrays this small the cost of a NumPy call, not its
arithmetic, is what a node pays, so the hot paths use array methods
(``ndarray.dot``, ``argmax``, ``nonzero``) and as few calls as the same
arithmetic allows.

The solver is deterministic.  The dual pivots leave on the row of largest
bound violation (smallest row on ties) and enter by the bounded dual ratio
test (ties to the largest pivot magnitude, then the smallest column); they
have no anti-cycling fallback, so a stalled dual solve ends in an error at
the iteration cap (:func:`_pivot_cap`) rather than looping.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "LpStatus",
    "LinearProgram",
    "LpResult",
    "Basis",
    "solve_lp",
    "pinned_bounds",
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
#: The sign of a column's dual slack, indexed by its at-upper flag.
_SIGNS = np.array([1.0, -1.0])


def _pivot_cap(num_rows: int, num_cols: int) -> int:
    """Most pivots one dual solve may make: the dual rule has no anti-cycling
    fallback, so a solve that needs more ends in ``ArithmeticError``."""
    return 10_000 + 200 * (num_rows + num_cols)


class LpStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"


class LinearProgram:
    """min c.v  s.t.  a_eq.v = b_eq,  a_ub.v <= b_ub,  lower <= v <= upper.

    ``upper`` entries may be ``+inf`` and ``lower`` entries ``-inf``, though
    :func:`solve_lp` takes only finite lower bounds.  Dimension mismatches
    and inverted bounds are construction-time errors.  The costs and rows
    are read once, at construction, into the simplex form: ``rows`` is
    ``[A | I]`` (equality rows first, one slack column per row), ``rhs`` its
    right-hand side and ``costs`` the costs padded with zeros for the
    slacks.  Only the bounds may change afterwards, written in place:
    ``lower`` and ``upper`` are views of the first ``num_vars`` entries of
    ``col_lower`` and ``col_upper``, the bounds of every column (a slack is
    nonnegative, and fixed at zero on an equality row), so a solve reads
    them without copying.  The views cannot be replaced by assignment.
    """

    def __init__(self, c, a_eq=None, b_eq=None, a_ub=None, b_ub=None,
                 lower=None, upper=None) -> None:
        self.c = np.asarray(c, dtype=float).ravel()
        n = self.c.size
        if a_eq is None:
            a_eq, b_eq = np.zeros((0, n)), np.zeros(0)
        if a_ub is None:
            a_ub, b_ub = np.zeros((0, n)), np.zeros(0)
        self.a_eq = np.atleast_2d(np.asarray(a_eq, dtype=float))
        self.a_ub = np.atleast_2d(np.asarray(a_ub, dtype=float))
        self.b_eq = np.asarray(b_eq, dtype=float).ravel()
        self.b_ub = np.asarray(b_ub, dtype=float).ravel()
        lower = np.zeros(n) if lower is None else np.asarray(lower, dtype=float).ravel()
        upper = np.full(n, np.inf) if upper is None else np.asarray(upper, dtype=float).ravel()
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
        if lower.size != n or upper.size != n:
            raise ValueError("bound vectors must match c in length")
        if not (np.all(np.isfinite(self.c))
                and np.all(np.isfinite(self.a_eq))
                and np.all(np.isfinite(self.a_ub))
                and np.all(np.isfinite(self.b_eq))
                and np.all(np.isfinite(self.b_ub))):
            raise ValueError("objective and constraint data must be finite")
        if np.any(lower > upper):
            raise ValueError("lower bound exceeds upper bound")
        m_eq, m = self.a_eq.shape[0], self.a_eq.shape[0] + self.a_ub.shape[0]
        self.rows = np.hstack([np.vstack([self.a_eq, self.a_ub]), np.eye(m)])
        self.rhs = np.concatenate([self.b_eq, self.b_ub])
        self.costs = np.concatenate([self.c, np.zeros(m)])
        #: :func:`solve_lp` refuses a negative cost; the costs are read once.
        self.nonnegative_costs = not np.any(self.c < 0.0)
        self.col_lower = np.concatenate([lower, np.zeros(m)])
        self.col_upper = np.concatenate([upper, np.zeros(m_eq), np.full(m - m_eq, np.inf)])
        self._lower = self.col_lower[:n]
        self._upper = self.col_upper[:n]

    @property
    def lower(self) -> np.ndarray:
        """Structural lower bounds, a view of ``col_lower``."""
        return self._lower

    @property
    def upper(self) -> np.ndarray:
        """Structural upper bounds, a view of ``col_upper``."""
        return self._upper

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
    #: The sign of each column's dual slack at the optimum: +1 resting at
    #: its lower bound, -1 at its upper one, 0 basic or fixed.  None unless
    #: OPTIMAL.
    slack_signs: np.ndarray | None = None


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
    if not lp.nonnegative_costs:
        raise ValueError("solve_lp needs nonnegative costs")
    n, m = lp.num_vars, lp.rhs.size
    if np.count_nonzero(np.isfinite(lp.lower)) != n:
        raise ValueError("solve_lp needs finite lower bounds")
    if start is None:
        start = Basis(n + np.arange(m), np.zeros(n + m, dtype=bool),
                      np.eye(m), lp.costs)

    sim = _BoundedSimplex(lp, start)
    if not sim.dual():
        return LpResult(LpStatus.INFEASIBLE, pivots=sim.pivots,
                        refactors=sim.refactors)
    x = sim.check_optimal()
    return LpResult(LpStatus.OPTIMAL, x[:n], float(lp.c.dot(x[:n])),
                    Basis(sim.basis, sim.at_upper, sim.binv, sim.reduced,
                          sim.updates),
                    sim.pivots, sim.refactors, sim.sign)


def pinned_bounds(lp: LinearProgram, result: LpResult,
                  pin_sets: Sequence[np.ndarray]) -> list[float]:
    """For each integer array of structural columns in ``pin_sets``, a lower
    bound on the value of ``lp`` once those columns are fixed at their lower
    bounds, read off its optimal ``result`` without a solve.

    ``lp`` must still hold the bounds ``result`` was solved under.  Pinning
    a column that rests at its lower bound moves nothing, and every other
    pinned column must be basic: the optimal basis then stays dual feasible,
    and each basic column more than :data:`FEASIBILITY_TOL` above its lower
    bound is cut off.  On each cut-off row, the bounded dual ratio test of
    :meth:`_BoundedSimplex.dual`, with the set's pinned columns barred from
    entering since their dual slacks are free, gives the longest dual step
    that keeps the basis dual feasible.  The dual objective after it is
    ``result.value`` plus the row's violation times the least ratio (none
    below zero), a lower bound on the pinned program's value.  A set's bound
    is the largest of these, and ``result.value`` when it cuts off no row.
    A row no column can enter adds nothing: it proves the pinned program
    infeasible, which is left to its own solve.  The rows of every set are
    priced together.
    """
    basis = result.basis
    sign = result.slack_signs
    # The few entries read one by one are read from lists.
    x, lower = result.x.tolist(), lp.lower.tolist()
    indices, movable = basis.indices.tolist(), sign.tolist()
    rows: list[int] = []
    violations: list[float] = []
    spans: list[tuple[int, int, list[int]]] = []
    for pinned in pin_sets:
        first, barred = len(rows), []
        for j in pinned.tolist():
            violation = x[j] - lower[j]
            if violation > FEASIBILITY_TOL:
                if j not in indices:
                    raise ValueError(f"pinned column {j} rests above its lower bound")
                rows.append(indices.index(j))
                violations.append(violation)
            elif movable[j]:
                # At rest and free to move: barred from this set's rows.
                barred.append(j)
        spans.append((first, len(rows), barred))
    if not rows:
        return [result.value] * len(spans)
    # Every row falls toward its bound from above, so a column may enter
    # when its signed entry is positive; its ratio (d_q s_q) / (alpha_q s_q)
    # is then d_q / alpha_q, as the sign is +-1.
    alpha = basis.binv.take(rows, axis=0).dot(lp.rows)
    eligible = alpha * sign > _PIVOT_TOL
    width = alpha.shape[1]
    for first, last, barred in spans:
        if last > first and barred:
            eligible.put([r * width + j for r in range(first, last) for j in barred], False)
    ratios = np.empty(alpha.shape)
    ratios.fill(np.inf)
    np.divide(basis.reduced_costs, alpha, out=ratios, where=eligible)
    steps = np.minimum.reduce(ratios, axis=1).tolist()
    return [result.value + max([v * t for v, t in zip(violations[first:last], steps[first:last])
                                if 0.0 < t < math.inf], default=0.0)
            for first, last, _ in spans]


class _BoundedSimplex:
    """Dual simplex over the rows of a program in simplex form, every lower
    bound finite.

    Nonbasic variables rest exactly on a bound.  The basis inverse, the
    basic values and the reduced costs are maintained incrementally and
    recomputed after :data:`_REFACTOR_EVERY` updates.

    A solve reads the program's arrays (``rows``, ``rhs``, ``costs`` and the
    column bounds) without copying them, and it never writes into the
    start's arrays: the basis and resting positions are copied, and the
    inverse and reduced costs are replaced, not updated in place, so a
    start can serve several solves.  What a pivot changes in the rest of
    the state (the resting side and value of each nonbasic column, the sign
    of its dual slack, and in :meth:`dual` the bounds of the basic
    variables) is written entry by entry rather than rebuilt.  The start itself is
    checked afresh on every solve (shapes, range, no repeated column), and
    so is the end: the final point must satisfy the rows, and the reduced
    costs are priced again from the inverse, not read from the ones the
    pivots maintained.
    """

    def __init__(self, lp: LinearProgram, start: Basis) -> None:
        self.a, self.b, self.c = lp.rows, lp.rhs, lp.costs
        self.m, self.num_cols = m, num_cols = self.a.shape
        self.lower, self.upper = lower, upper = lp.col_lower, lp.col_upper
        basis = np.array(start.indices, dtype=int)
        at_upper = np.asarray(start.at_upper, dtype=bool)
        factored = start.binv is not None and start.reduced_costs is not None
        if factored:
            binv = np.asarray(start.binv, dtype=float)
            reduced = np.asarray(start.reduced_costs, dtype=float)
        if (basis.shape != (m,) or at_upper.shape != (num_cols,)
                or factored and (binv.shape != (m, m) or reduced.shape != (num_cols,))):
            raise ValueError("start basis does not fit the program's rows and columns")
        try:
            uses = np.bincount(basis, minlength=num_cols)  # refuses a negative index
        except ValueError:
            raise ValueError("start basis does not fit the program's rows and columns") from None
        if uses.size != num_cols:
            raise ValueError("start basis does not fit the program's rows and columns")
        if m and uses[uses.argmax()] > 1:
            raise ValueError("start basis repeats a column")
        self.basis = basis
        # Nonbasic resting position: True means at the upper bound, which
        # must then be finite.
        self.at_upper = at_upper & np.isfinite(upper)
        self.at_upper[basis] = False
        # The sign that turns a reduced cost into the dual slack of its
        # column's resting bound: +1 at the lower bound, -1 at the upper
        # one, and 0 for the columns that may not enter, the basic and the
        # pinned ones, so that no test on a signed entry selects them.
        self.sign = _SIGNS[self.at_upper.astype(np.intp)]
        self.sign *= (lower < upper).astype(float)
        self.sign[basis] = 0.0
        self.pivots = 0
        self.refactors = 0
        if factored and start.updates < _REFACTOR_EVERY:
            self.binv, self.reduced, self.updates = binv, reduced, start.updates
            self._basic_values()
        else:
            self._refresh()

    # -- current point ----------------------------------------------------

    def _basic_values(self) -> None:
        """x_B = B^-1 (b - N x_N) for the nonbasic variables at rest.

        ``x`` keeps the nonbasic values, zero on the basic columns; a pivot
        writes the entries of the two columns it moves.
        """
        self.x = np.where(self.at_upper, self.upper, self.lower)
        self.x[self.basis] = 0.0
        self.xb = self.binv.dot(self.b - self.a.dot(self.x))

    def _refresh(self) -> None:
        """Invert the basis matrix and recompute what depends on it."""
        self.binv = np.linalg.inv(self.a[:, self.basis])
        self.reduced = self._price()
        self._basic_values()
        self.updates = 0
        self.refactors += 1

    def _price(self) -> np.ndarray:
        """Reduced costs c - c_B B^-1 A from the current inverse."""
        return self.c - self.c[self.basis].dot(self.binv).dot(self.a)

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
        if not self.m:
            return True
        a, basis, sign, lower, upper = self.a, self.basis, self.sign, self.lower, self.upper
        # Bounds of the basic variables, kept in step with the basis.
        lower_b, upper_b = lower[basis], upper[basis]
        # One pass more than the cap, to see the point the last pivot left.
        for _ in range(_pivot_cap(self.m, self.num_cols) + 1):
            # A refactorisation replaces these four.
            xb, binv, reduced, x = self.xb, self.binv, self.reduced, self.x
            violation = np.maximum(lower_b - xb, xb - upper_b)
            pos = int(violation.argmax())
            if violation[pos] <= FEASIBILITY_TOL:
                return True
            to_upper = bool(xb[pos] > upper_b[pos])

            # Row ``pos`` reads x_B = beta - alpha.x_N: a column helps when
            # its feasible move shifts x_B toward the violated bound, that
            # is when its signed entry is positive (to the upper bound) or
            # negative (to the lower one).
            alpha = binv[pos].dot(a)
            signed = alpha * sign
            idx = (signed > _PIVOT_TOL if to_upper else signed < -_PIVOT_TOL).nonzero()[0]
            if not idx.size:
                # The row proves infeasibility only if it is a row of
                # B^-1 A, which is the unit vector on the basic columns.
                unit = alpha[basis]
                unit[pos] -= 1.0
                if np.abs(unit).max() > FEASIBILITY_TOL:
                    raise ArithmeticError("basis inverse does not invert the basis")
                return False

            # Nearly every choice has one candidate or a unique minimum
            # ratio; both skip the steps that only break a tie.
            if idx.size == 1:
                entering = int(idx[0])
            else:
                # Ratios below zero, from dual slacks a round-off below
                # zero, count as zero.
                magnitude = np.abs(alpha[idx])
                ratios = (reduced * sign)[idx] / magnitude
                first = ratios.argmin()
                least = ratios[first]
                tie = ratios <= (least if least > 0.0 else 0.0) + 1e-12
                if np.count_nonzero(tie) == 1:
                    entering = int(idx[first])
                else:
                    entering = int(idx[(magnitude * tie).argmax()])

            w = binv.dot(a[:, entering])
            pivot = w[pos]
            if abs(pivot) < _PIVOT_TOL:
                raise ArithmeticError("numerically singular pivot")
            step = (xb[pos] - (upper_b[pos] if to_upper else lower_b[pos])) / pivot
            xb -= step * w
            # The leaving variable's value is now derived from its resting
            # status, which lands it exactly on the bound it hit.
            xb[pos] = x[entering] + step
            # The pivot row prices the new basis: d <- d - (d_q / alpha_q) alpha.
            reduced = reduced - (reduced[entering] / alpha[entering]) * alpha
            reduced[entering] = 0.0
            self.reduced = reduced

            leaving = int(basis[pos])
            basis[pos] = entering
            self.at_upper[leaving] = to_upper
            x[leaving] = upper[leaving] if to_upper else lower[leaving]
            if lower[leaving] < upper[leaving]:
                sign[leaving] = -1.0 if to_upper else 1.0
            self.at_upper[entering] = False
            x[entering] = 0.0
            sign[entering] = 0.0
            lower_b[pos] = lower[entering]
            upper_b[pos] = upper[entering]
            # Product-form update of the inverse, into a new array: the
            # start's inverse may be shared.
            row = binv[pos] / pivot
            binv = binv - w[:, None] * row
            binv[pos] = row
            self.binv = binv
            self.pivots += 1
            self.updates += 1
            if self.updates >= _REFACTOR_EVERY:
                self._refresh()

        raise ArithmeticError("dual simplex iteration limit exceeded")

    def check_optimal(self) -> np.ndarray:
        """The final point, once it is shown to satisfy the rows and the
        basis is shown optimal; raise ``ArithmeticError`` otherwise.

        Run after :meth:`dual` returns True.  The reduced costs are priced
        afresh from the inverse, not read from the ones :meth:`dual`
        maintains: every basic column must price to zero, which holds only
        if the inverse is that of the basis, and no nonbasic column free to
        move may have a reduced cost of the wrong sign for its resting
        bound, beyond :data:`OPTIMALITY_TOL`.  The basis is then primal and
        dual feasible, hence optimal.  This fails when the start basis was
        not dual feasible.
        """
        x = self.x
        x[self.basis] = self.xb
        # Each test reads the extreme entry, found by one arg-reduction.
        residual = np.abs(self.a.dot(x) - self.b)
        if self.m and residual[residual.argmax()] > FEASIBILITY_TOL:
            raise ArithmeticError("final point does not satisfy the rows")
        reduced = self._price()
        basic = np.abs(reduced[self.basis])
        if self.m and basic[basic.argmax()] > OPTIMALITY_TOL:
            raise ArithmeticError("basis inverse does not price the basis")
        slack = reduced * self.sign
        if self.num_cols and slack[slack.argmin()] < -OPTIMALITY_TOL:
            raise ArithmeticError("final basis is not dual feasible")
        return x
