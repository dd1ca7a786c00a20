"""Dense linear programming over nonnegative variables, some pinned at zero:
one dual simplex to a feasible basis, then row and optimality checks.

Node relaxations in the tree search are small (a few dozen variables), so a
dense tableau-free simplex with an explicitly maintained basis inverse is
both simple and fast enough.  Every variable of a node relaxation is
nonnegative, and a branching fixing only pins some of them at zero, so a
solve takes its pins as a mask argument and the constraint matrix never
grows.

Every row gets a slack column, pinned on an equality row.  The
slack-augmented rows ``[A | I]``, their right-hand side and the padded costs
are built once per :class:`LinearProgram`, which holds no pins.  Node
relaxations have nonnegative costs, which :func:`solve_lp` requires; then
the all-slack basis, with every structural variable at zero, is dual
feasible, and a solve from scratch starts there with the identity as its
inverse and the costs as its reduced costs.

The simplex prices in a cost unit, a power of two that puts the largest
cost in [0.5, 1).  Scaling by a power of two is exact, so the point, the
value and every bound are those of the costs as given, while the absolute
tolerances on reduced costs and ratios hold at any cost scale: in the
costs as given, a program whose costs are all near the optimality
tolerance would be declared optimal, or not, by round-off.

Every nonbasic variable, pinned or free, rests at zero, so the basic values
are ``B^-1 b``.  A free basic variable is infeasible below zero and a
pinned one anywhere but at zero; a pinned column never enters the basis.

An optimal solve returns its basis together with the factor it ended on:
the basis inverse and the reduced costs of every column.  A child node
differs from its parent only in pinning more columns, so the parent's
optimal basis is still dual feasible for it: given as ``start``, the child
resumes from that factor, recomputes the basic values without inverting,
and re-optimises with a few dual pivots.  Each pivot updates the inverse in
product form and the reduced costs from the pivot row.  A node LP
re-inverts only to repair a failed end check: the inverse is recomputed
from the basis columns (with the reduced costs and basic values), the dual
pivots run again from there, and the end checks run once more.

An optimal result also carries the sign of each column's dual slack, and
:func:`pinned_bounds` reads off it, without a solve, a lower bound on the
value of a child that pins some more columns: the dual objective after one
ratio test on a row the pins cut off, the first pivot the child's own solve
would make there.

Dual pivots keep the basis dual feasible, so the first primal feasible
basis is optimal; the final point must satisfy the rows, and one pricing
pass from scratch over the final basis certifies it.  A program with no
feasible point is an error, as is a solve that fails a check again after
its repair.  A stale or foreign factor is thus either repaired or an error.

A solve reuses what does not change between the nodes of a search and
re-checks what could be wrong.  It reads the program's rows, right-hand
side and padded costs in place, and the cost sign test made at
construction.  It never writes into its pins or its start: the pins are
copied into a mask over every column, the basis is copied, and
each pivot replaces the inverse and the reduced costs instead of updating
them in place, so both children of a node resume from one
``result.basis``.  Within a solve, a pivot writes the few entries it
changes (the sign of each column's dual slack and which basic variables
are pinned) rather than rebuilding them.  Every solve re-checks the
start's shapes, index range and repeated columns, the rows at the final
point, and a fresh pricing of the final basis.  On arrays this small the
cost of a NumPy call, not its arithmetic, is what a node pays, so the hot
paths use array methods (``ndarray.dot``, ``argmax``, ``nonzero``) and as
few calls as the same arithmetic allows.  They read each scalar they test
or divide by (a pivot, a step, a violation, an extreme entry) as a Python
float with ``ndarray.item``, which rounds every operation exactly as a
NumPy float64 scalar does, at a fraction of its cost; and a dual solve
counts its pinned basic variables once, so that once none is left its
pivots skip the pass that reads a pinned one's violation as ``|x_B|``.

The solver is deterministic.  The dual pivots leave on the row of largest
violation (smallest row on ties) and enter by the dual ratio test (ties to
the largest pivot magnitude, then the smallest column); they have no
anti-cycling fallback, so a stalled dual solve ends in an error at the
iteration cap (:func:`_pivot_cap`) rather than looping.
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
#: Tolerance on reduced costs, in the cost unit, when declaring optimality.
OPTIMALITY_TOL = 1e-9
#: Entries of a pivot row smaller than this are treated as zero, so their
#: columns never enter the basis.  Dividing the product-form update by a
#: noise entry of ~1e-9 beside O(1) ones leaves a basis inverse that no
#: longer inverts its basis, and a later solve fails its row check.
_PIVOT_TOL = 1e-7
#: Entering ratios, reduced costs in the cost unit over pivot entries, tie within this.
_RATIO_TIE_TOL = 1e-12


def _pivot_cap(num_rows: int, num_cols: int) -> int:
    """Most pivots one dual solve may make: the dual rule has no anti-cycling
    fallback, so a solve that needs more ends in ``ArithmeticError``."""
    return 10_000 + 200 * (num_rows + num_cols)


class LpStatus(Enum):
    OPTIMAL = "optimal"


class LinearProgram:
    """min c.v  s.t.  a_eq.v = b_eq,  a_ub.v <= b_ub,  v >= 0, and v_j = 0
    wherever the ``pinned`` mask a solve is given holds True.

    Dimension mismatches are construction-time errors.  The costs and rows
    are read once, at construction, into the simplex form: ``rows`` is
    ``[A | I]`` (equality rows first, one slack column per row), ``rhs`` its
    right-hand side and ``costs`` the costs times ``cost_scale``, padded
    with zeros for the slacks.  ``slack_pinned`` marks the slacks every
    solve pins, the equality rows'.  Nothing changes afterwards.
    """

    def __init__(self, c, a_eq=None, b_eq=None, a_ub=None, b_ub=None) -> None:
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
        if not (np.all(np.isfinite(self.c))
                and np.all(np.isfinite(self.a_eq))
                and np.all(np.isfinite(self.a_ub))
                and np.all(np.isfinite(self.b_eq))
                and np.all(np.isfinite(self.b_ub))):
            raise ValueError("objective and constraint data must be finite")
        m_eq, m = self.a_eq.shape[0], self.a_eq.shape[0] + self.a_ub.shape[0]
        self.rows = np.hstack([np.vstack([self.a_eq, self.a_ub]), np.eye(m)])
        self.rhs = np.concatenate([self.b_eq, self.b_ub])
        #: The power of two that puts the largest |c| times it in [0.5, 1):
        #: the cost unit the simplex prices in.
        self.cost_scale = math.ldexp(1.0, -math.frexp(np.abs(self.c).max(initial=0.0))[1])
        self.costs = np.concatenate([self.c * self.cost_scale, np.zeros(m)])
        #: :func:`solve_lp` refuses a negative cost; the costs are read once.
        self.nonnegative_costs = not np.any(self.c < 0.0)
        self.slack_pinned = np.arange(m) < m_eq

    @property
    def num_vars(self) -> int:
        return self.c.size


@dataclass(frozen=True)
class Basis:
    """A simplex basis over the structural columns of a program followed by
    one slack column per row, and the factor a warm start resumes from.

    ``indices[i]`` is the column basic in row ``i`` (equality rows first);
    every other column rests at zero.  ``binv`` is the inverse of the basis
    matrix and ``reduced_costs`` holds the reduced cost of every column.  A
    solve started here resumes from the factor, and inverts the basis afresh
    only to repair a failed end check.  The arrays are shared by every solve
    started from the basis and are never written.
    """

    indices: np.ndarray
    binv: np.ndarray
    reduced_costs: np.ndarray


@dataclass
class LpResult:
    #: Always OPTIMAL: a solve that finds no optimum raises.
    status: LpStatus
    x: np.ndarray
    value: float
    #: Optimal basis with its factor.
    basis: Basis
    #: Dual simplex basis changes of this solve.
    pivots: int
    #: Basis inversions of this solve: 1 when its end checks failed once
    #: and a fresh inverse repaired it, else 0.
    refactors: int
    #: The sign of each column's dual slack at the optimum: 1 on a free
    #: nonbasic column, 0 on a basic or pinned one.
    slack_signs: np.ndarray


def solve_lp(lp: LinearProgram, pinned: np.ndarray | None = None,
             start: Basis | None = None) -> LpResult:
    """Solve ``lp``, with each variable pinned at zero where the bool mask
    ``pinned`` (over ``lp.num_vars``; None pins none) holds True, to a
    vertex optimum.

    ``lp`` must have nonnegative costs, as every node relaxation does; it
    is then bounded below, and its all-slack basis with every structural
    variable at zero is dual feasible.  Without ``start`` the dual simplex
    begins there.  ``start`` may instead be an optimal basis
    (``LpResult.basis``) of a solve of a program with the same objective
    and rows under pins that ``pinned`` includes, such as a parent node's.
    A program with no feasible point ends in ``ArithmeticError``, as do an
    exhausted iteration cap and a singular pivot.  A solve whose end checks
    fail, as from a ``start`` that breaks this contract or whose factor is
    not that of its basis in ``lp``, inverts its final basis afresh and
    re-optimises once (``refactors`` is then 1); if the checks fail again,
    it ends in ``ArithmeticError`` too.  None of these errors yields a
    result.  A mask of the wrong shape is a ``ValueError``; ``pinned`` is
    never written.
    """
    if not lp.nonnegative_costs:
        raise ValueError("solve_lp needs nonnegative costs")
    n, m = lp.num_vars, lp.rhs.size
    pinned = np.zeros(n, dtype=bool) if pinned is None else np.asarray(pinned, dtype=bool)
    if pinned.shape != (n,):
        raise ValueError(f"pinned mask of shape {pinned.shape} does not match ({n},)")
    if start is None:
        start = Basis(n + np.arange(m), np.eye(m), lp.costs)

    sim = _DualSimplex(lp, np.concatenate((pinned, lp.slack_pinned)), start)
    sim.dual()
    try:
        x = sim.check_optimal()
    except ArithmeticError:
        # Repair once from a fresh inverse of the final basis; a second
        # failure is the solve's.
        sim._refresh()
        sim.dual()
        x = sim.check_optimal()
    return LpResult(LpStatus.OPTIMAL, x[:n], float(lp.c.dot(x[:n])),
                    Basis(sim.basis, sim.binv, sim.reduced),
                    sim.pivots, sim.refactors, sim.sign)


def pinned_bounds(lp: LinearProgram, result: LpResult,
                  pin_sets: Sequence[np.ndarray]) -> list[float]:
    """For each integer array of structural columns in ``pin_sets``, a lower
    bound on the value of the program ``result`` solved, once those columns
    are pinned too, read off that optimal ``result`` without a solve.

    Only ``lp.rows``, ``lp.cost_scale`` and ``result`` are read: the pins
    ``result`` was solved under are in its slack signs.  Every nonbasic column rests at zero, so pinning it
    moves nothing, and each pinned column more than
    :data:`FEASIBILITY_TOL` above zero is basic: the optimal basis stays
    dual feasible, and its row is cut off.  On each cut-off row, the dual
    ratio test of :meth:`_DualSimplex.dual`, with the set's pinned columns
    barred from entering, gives the longest dual step that keeps the basis
    dual feasible.  The dual objective after it is ``result.value`` plus
    the row's violation times the least ratio (none below zero), read back
    from the cost unit, a lower bound on the pinned program's value.  A
    set's bound is the largest of these, and ``result.value`` when it cuts
    off no row.  A row no column can enter adds nothing: the pinned program
    is then infeasible, and its own solve raises.  The rows of every set are
    priced together.
    """
    basis = result.basis
    sign = result.slack_signs
    # Only the pinned entries are read, one by one, as Python floats.
    x = result.x
    indices = basis.indices.tolist()
    rows: list[int] = []
    violations: list[float] = []
    spans: list[tuple[int, int, list[int]]] = []
    for pins in pin_sets:
        first, barred = len(rows), []
        for j in pins.tolist():
            value = x.item(j)
            if value > FEASIBILITY_TOL:
                rows.append(indices.index(j))
                violations.append(value)
            elif sign.item(j):
                # At rest and free to move: barred from this set's rows.
                barred.append(j)
        spans.append((first, len(rows), barred))
    # Every row falls to zero from above, so a free column may enter when
    # its entry is positive; its ratio is then d_q / alpha_q.
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
    bounds = []
    for first, last, _ in spans:
        gain = 0.0
        for v, t in zip(violations[first:last], steps[first:last]):
            if 0.0 < t < math.inf and v * t > gain:
                gain = v * t
        bounds.append(result.value + gain / lp.cost_scale)
    return bounds


class _DualSimplex:
    """Dual simplex over the rows of a program in simplex form, every
    variable nonnegative and some pinned at zero.

    Nonbasic variables rest at zero.  The basis inverse, the basic values
    and the reduced costs are maintained incrementally from the start's
    factor, and recomputed from the basis columns only by :meth:`_refresh`,
    which :func:`solve_lp` calls to repair a failed end check.

    A solve reads the program's arrays (``rows``, ``rhs`` and ``costs``)
    without copying them, ``pinned`` is its own mask over every column, and
    it never writes into the start's
    arrays: the basis is copied, and the inverse and reduced costs are
    replaced, not updated in place, so a start can serve several solves.
    What a pivot changes in the rest of the state (the sign of each
    column's dual slack, and in :meth:`dual` which basic variables are
    pinned, and how many) is written entry by entry rather than rebuilt.
    The start itself is checked afresh on every solve (shapes, range, no
    repeated column), and so is the end: the final point must satisfy the
    rows, and the reduced costs are priced again from the inverse, not read
    from the ones the pivots maintained.
    """

    def __init__(self, lp: LinearProgram, pinned: np.ndarray, start: Basis) -> None:
        self.a, self.b, self.c = lp.rows, lp.rhs, lp.costs
        self.m, self.num_cols = m, num_cols = self.a.shape
        self.pinned = pinned
        basis = np.array(start.indices, dtype=int)
        binv = np.asarray(start.binv, dtype=float)
        reduced = np.asarray(start.reduced_costs, dtype=float)
        if basis.shape != (m,) or binv.shape != (m, m) or reduced.shape != (num_cols,):
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
        # The sign that turns a reduced cost into a dual slack: 1 on the
        # free nonbasic columns, and 0 on those that may not enter, the
        # basic and the pinned ones, so that no test on a signed entry
        # selects them.
        self.sign = np.subtract(1.0, self.pinned)
        self.sign[basis] = 0.0
        self.pivots = 0
        self.refactors = 0
        self.binv, self.reduced = binv, reduced
        self._basic_values()

    # -- current point ----------------------------------------------------

    def _basic_values(self) -> None:
        """x_B = B^-1 b, every nonbasic variable resting at zero."""
        self.xb = self.binv.dot(self.b)

    def _refresh(self) -> None:
        """Invert the basis matrix and recompute what depends on it."""
        self.binv = np.linalg.inv(self.a[:, self.basis])
        self.reduced = self._price()
        self._basic_values()
        self.refactors += 1

    def _price(self) -> np.ndarray:
        """Reduced costs c - c_B B^-1 A from the current inverse."""
        return self.c - self.c[self.basis].dot(self.binv).dot(self.a)

    # -- dual simplex -----------------------------------------------------

    def dual(self) -> None:
        """Dual simplex from a dual feasible basis, until the basis is
        primal feasible.

        Leaves on the row with the largest violation (smallest row on
        ties): ``-x_B`` for a free basic variable, ``|x_B|`` for a pinned
        one.  The entering column is the dual ratio test's minimum over the
        free columns that move the leaving variable toward zero; ties go to
        the largest pivot magnitude, then the smallest column.  When no
        column qualifies, either the leaving variable cannot reach zero
        anywhere in the orthant of the free nonbasic variables, so the
        program has no feasible point, or the factor is wrong; both raise
        ``ArithmeticError``.
        """
        if not self.m:
            return
        a, basis, sign = self.a, self.basis, self.sign
        xb, binv, reduced = self.xb, self.binv, self.reduced
        # Which basic variables are pinned, and how many, kept in step with
        # the basis.  A pinned column never enters, so a pivot only clears
        # an entry, and once none is left no violation needs |x_B|.
        pinned_b = self.pinned[basis]
        pinned_left = np.count_nonzero(pinned_b)
        # One pass more than the cap, to see the point the last pivot left.
        for _ in range(_pivot_cap(self.m, self.num_cols) + 1):
            violation = np.negative(xb)
            if pinned_left:
                np.absolute(xb, out=violation, where=pinned_b)
            pos = int(violation.argmax())
            if violation.item(pos) <= FEASIBILITY_TOL:
                return
            # Only a pinned variable can violate from above.
            above = xb.item(pos) > 0.0

            # Row ``pos`` reads x_B = beta - alpha.x_N: a free column helps
            # when raising it moves x_B toward zero, that is when its entry
            # is positive (from above) or negative (from below).
            alpha = binv[pos].dot(a)
            signed = alpha * sign
            idx = (signed > _PIVOT_TOL if above else signed < -_PIVOT_TOL).nonzero()[0]
            if not idx.size:
                raise ArithmeticError(
                    f"no column can enter row {pos}: no feasible point, or a wrong factor")

            # Nearly every choice has one candidate or a unique minimum
            # ratio; both skip the steps that only break a tie.
            if idx.size == 1:
                entering = idx.item(0)
            else:
                # Ratios below zero, from dual slacks a round-off below
                # zero, count as zero.
                magnitude = np.abs(alpha[idx])
                ratios = reduced[idx] / magnitude
                first = ratios.argmin()
                least = ratios.item(first)
                tie = ratios <= (least if least > 0.0 else 0.0) + _RATIO_TIE_TOL
                if np.count_nonzero(tie) == 1:
                    entering = int(idx[first])
                else:
                    entering = int(idx[(magnitude * tie).argmax()])

            w = binv.dot(a[:, entering])
            pivot = w.item(pos)
            if abs(pivot) < _PIVOT_TOL:
                raise ArithmeticError("numerically singular pivot")
            step = xb.item(pos) / pivot
            xb -= step * w
            # The leaving variable lands exactly on zero, and the entering
            # one, raised from zero, takes its row at the step.
            xb[pos] = step
            # The pivot row prices the new basis: d <- d - (d_q / alpha_q) alpha.
            reduced = reduced - (reduced.item(entering) / alpha.item(entering)) * alpha
            reduced[entering] = 0.0
            self.reduced = reduced

            if pinned_b.item(pos):
                pinned_b[pos] = False
                pinned_left -= 1
            else:
                sign[basis.item(pos)] = 1.0
            basis[pos] = entering
            sign[entering] = 0.0
            # Product-form update of the inverse, into a new array: the
            # start's inverse may be shared.
            row = binv[pos] / pivot
            binv = binv - w[:, None] * row
            binv[pos] = row
            self.binv = binv
            self.pivots += 1

        raise ArithmeticError("dual simplex iteration limit exceeded")

    def check_optimal(self) -> np.ndarray:
        """The final point, once it is shown to satisfy the rows and the
        basis is shown optimal; raise ``ArithmeticError`` otherwise.

        Run after :meth:`dual` returns.  The reduced costs are priced
        afresh from the inverse, not read from the ones :meth:`dual`
        maintains: every basic column must price to zero, which holds only
        if the inverse is that of the basis, and no free nonbasic column
        may have a reduced cost below zero, beyond :data:`OPTIMALITY_TOL`.
        The basis is then primal and dual feasible, hence optimal.  This
        fails when the start basis was not dual feasible.
        """
        x = np.zeros(self.num_cols)
        x[self.basis] = self.xb
        # Each test reads the extreme entry, found by one arg-reduction.
        residual = np.abs(self.a.dot(x) - self.b)
        if self.m and residual.item(residual.argmax()) > FEASIBILITY_TOL:
            raise ArithmeticError("final point does not satisfy the rows")
        reduced = self._price()
        basic = np.abs(reduced[self.basis])
        if self.m and basic.item(basic.argmax()) > OPTIMALITY_TOL:
            raise ArithmeticError("basis inverse does not price the basis")
        slack = reduced * self.sign
        if self.num_cols and slack.item(slack.argmin()) < -OPTIMALITY_TOL:
            raise ArithmeticError("final basis is not dual feasible")
        return x
