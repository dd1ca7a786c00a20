"""Dense linear programming with a bounded-variable simplex: a cold
two-phase primal solve, or a warm-started dual solve.

Node relaxations in the tree search are small (a few dozen variables), so a
dense tableau-free simplex with an explicitly maintained basis inverse is
both simple and fast enough.  Branching constraints arrive as variable-bound
tightenings, which the bounded-variable method absorbs without growing the
constraint matrix.

An optimal solve returns its basis.  A child node differs from its
parent only in tightened bounds, so the parent's optimal basis is still
dual feasible for it: :func:`solve_lp` given that basis as ``start``
refactorises it once and re-optimises with a few bounded dual simplex
pivots instead of a cold phase 1 and phase 2, then confirms optimality with
the same primal pricing the cold solve ends with.

The solver is deterministic: pricing and ratio-test ties always break toward
the smallest variable index, and a Bland's-rule fallback engages when no
objective progress is made for a full pass, so degenerate instances
terminate.  The dual pivots leave on the row of largest bound violation
(smallest row on ties) and enter by the bounded dual ratio test (ties to
the largest pivot magnitude, then the smallest column); they have no
anti-cycling fallback, so a stalled dual solve ends in an error at the
iteration cap rather than looping.
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
#: Refresh the maintained basis inverse this often to cap drift.
_REFACTOR_EVERY = 64


class LpStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass
class LinearProgram:
    """min c.v  s.t.  a_eq.v = b_eq,  a_ub.v <= b_ub,  lower <= v <= upper.

    ``upper`` entries may be ``+inf`` and ``lower`` entries ``-inf``.
    Dimension mismatches and inverted bounds are construction-time errors.
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

    @property
    def num_vars(self) -> int:
        return self.c.size


@dataclass(frozen=True)
class Basis:
    """A simplex basis over the structural columns of a program followed by
    one slack column per inequality row.

    ``indices[i]`` is the column basic in row ``i`` (equality rows first);
    ``at_upper[j]`` is True when nonbasic column ``j`` rests on its upper
    bound.
    """

    indices: np.ndarray
    at_upper: np.ndarray


@dataclass
class LpResult:
    status: LpStatus
    x: np.ndarray | None = None
    value: float | None = None
    #: Optimal basis; None unless OPTIMAL, or when a redundant row keeps an
    #: artificial basic.
    basis: Basis | None = None
    #: Basis changes plus bound flips, over all phases of this solve.
    pivots: int = 0


def solve_lp(lp: LinearProgram, start: Basis | None = None) -> LpResult:
    """Solve ``lp`` to a vertex optimum; Infeasible/Unbounded are statuses.

    Without ``start`` this is the cold two-phase primal simplex.  ``start``
    must be an optimal basis (``LpResult.basis``) of a program with the same
    objective and rows whose bounds contain those of ``lp``, such as a
    parent node's; the solve then runs dual simplex pivots from it.
    """
    n = lp.num_vars
    m_eq, m_ub = lp.a_eq.shape[0], lp.a_ub.shape[0]
    m = m_eq + m_ub

    if m == 0:
        return _solve_bounds_only(lp)

    # Rows: equalities first, then inequalities with one slack column each.
    a = np.zeros((m, n + m_ub))
    a[:m_eq, :n] = lp.a_eq
    a[m_eq:, :n] = lp.a_ub
    a[m_eq:, n:] = np.eye(m_ub)
    b = np.concatenate([lp.b_eq, lp.b_ub])
    lower = np.concatenate([lp.lower, np.zeros(m_ub)])
    upper = np.concatenate([lp.upper, np.full(m_ub, np.inf)])

    if start is None:
        slack_of_row = np.full(m, -1)
        slack_of_row[m_eq:] = n + np.arange(m_ub)
        sim = _BoundedSimplex.cold(a, b, lower, upper, slack_of_row)
    else:
        sim = _BoundedSimplex.warm(a, b, lower, upper, start)
    c_full = np.zeros(sim.num_cols)
    c_full[:n] = lp.c
    feasible = sim.phase1() if start is None else sim.dual(c_full)
    if not feasible:
        return LpResult(LpStatus.INFEASIBLE, pivots=sim.pivots)
    status = sim.phase2(c_full)
    if status is LpStatus.UNBOUNDED:
        return LpResult(LpStatus.UNBOUNDED, pivots=sim.pivots)
    x = sim.solution()[:n]
    return LpResult(LpStatus.OPTIMAL, x, float(lp.c @ x),
                    sim.optimal_basis(), sim.pivots)


def _solve_bounds_only(lp: LinearProgram) -> LpResult:
    """No rows: each variable independently sits at its cheaper bound."""
    x = np.where(np.isfinite(lp.lower), lp.lower,
                 np.where(np.isfinite(lp.upper), lp.upper, 0.0))
    for j in range(lp.num_vars):
        if lp.c[j] > 0:
            if not np.isfinite(lp.lower[j]):
                return LpResult(LpStatus.UNBOUNDED)
            x[j] = lp.lower[j]
        elif lp.c[j] < 0:
            if not np.isfinite(lp.upper[j]):
                return LpResult(LpStatus.UNBOUNDED)
            x[j] = lp.upper[j]
    return LpResult(LpStatus.OPTIMAL, x, float(lp.c @ x))


class _BoundedSimplex:
    """Primal and dual simplex over ``a.x = b`` with two-sided variable bounds.

    Nonbasic variables rest exactly on a bound (free ones at zero); the
    values of basic variables are maintained incrementally and refreshed
    from the basis inverse every :data:`_REFACTOR_EVERY` pivots.  Columns
    from ``art_start`` on are phase-1 artificials.
    """

    def __init__(self, a: np.ndarray, b: np.ndarray, lower: np.ndarray,
                 upper: np.ndarray, basis: np.ndarray, at_upper: np.ndarray,
                 art_start: int) -> None:
        self.m, self.num_cols = a.shape
        self.a = a
        self.b = b
        self.lower = lower
        self.upper = upper
        self.art_start = art_start
        self.basis = basis
        self.in_basis = np.zeros(self.num_cols, dtype=bool)
        self.in_basis[basis] = True
        # Nonbasic resting position: True means at the upper bound.
        self.at_upper = at_upper
        self.at_upper[basis] = False
        self.pivots = 0
        self.pivots_since_refactor = 0

    @classmethod
    def cold(cls, a: np.ndarray, b: np.ndarray, lower: np.ndarray,
             upper: np.ndarray, slack_of_row: np.ndarray) -> "_BoundedSimplex":
        """Phase-1 start: artificials and feasible slacks form the basis."""
        m, n_real = a.shape

        # Nonbasic starting point: finite lower bound, else finite upper,
        # else zero (free).
        x0 = np.where(np.isfinite(lower), lower,
                      np.where(np.isfinite(upper), upper, 0.0))
        residual = b - a @ x0

        # One artificial per row, signed so it starts nonnegative.
        art_sign = np.where(residual >= 0, 1.0, -1.0)

        # Crash basis: an inequality row whose slack starts feasible is
        # covered by that slack; only the rest need their artificial.
        basis = np.arange(n_real, n_real + m)
        diag = art_sign.copy()
        for i in range(m):
            col = slack_of_row[i]
            if col >= 0 and residual[i] >= 0.0 and x0[col] == 0.0:
                basis[i] = col
                diag[i] = 1.0
        lower = np.concatenate([lower, np.zeros(m)])
        upper = np.concatenate([upper, np.full(m, np.inf)])
        sim = cls(np.hstack([a, np.diag(art_sign)]), b, lower, upper, basis,
                  np.isfinite(upper) & ~np.isfinite(lower), n_real)
        sim.binv = np.diag(diag)  # inverse of a diagonal of +-1
        sim.xb = np.abs(residual)
        return sim

    @classmethod
    def warm(cls, a: np.ndarray, b: np.ndarray, lower: np.ndarray,
             upper: np.ndarray, start: Basis) -> "_BoundedSimplex":
        """Start from a given basis, factorised once; no artificials."""
        m, num_cols = a.shape
        basis = np.asarray(start.indices, dtype=int).copy()
        at_upper = np.asarray(start.at_upper, dtype=bool).copy()
        if (basis.shape != (m,) or at_upper.shape != (num_cols,)
                or basis.min(initial=0) < 0 or basis.max(initial=0) >= num_cols
                or np.unique(basis).size != m):
            raise ValueError("start basis does not fit the program's rows and columns")
        # A variable rests on its upper bound only if that bound is finite,
        # and on it necessarily if only that bound is finite.
        has_upper = np.isfinite(upper)
        at_upper = has_upper & (at_upper | ~np.isfinite(lower))
        sim = cls(a, b, lower, upper, basis, at_upper, num_cols)
        sim._refresh()
        return sim

    # -- current point ----------------------------------------------------

    def _nonbasic_values(self) -> np.ndarray:
        vals = np.where(np.isfinite(self.lower), self.lower,
                        np.where(np.isfinite(self.upper), self.upper, 0.0))
        vals = np.where(self.at_upper, self.upper, vals)
        return vals

    def _value_of(self, j: int) -> float:
        if self.at_upper[j]:
            return float(self.upper[j])
        if np.isfinite(self.lower[j]):
            return float(self.lower[j])
        if np.isfinite(self.upper[j]):
            return float(self.upper[j])
        return 0.0

    def solution(self) -> np.ndarray:
        x = self._nonbasic_values()
        x[self.basis] = self.xb
        return x

    def optimal_basis(self) -> Basis | None:
        """The current basis over the non-artificial columns, if it is one."""
        if self.basis.max() >= self.art_start:
            return None
        return Basis(self.basis.copy(), self.at_upper[:self.art_start].copy())

    def _refresh(self) -> None:
        bmat = self.a[:, self.basis]
        self.binv = np.linalg.inv(bmat)
        x = self._nonbasic_values()
        x[self.basis] = 0.0
        self.xb = self.binv @ (self.b - self.a @ x)
        self.pivots_since_refactor = 0

    # -- phases ------------------------------------------------------------

    def phase1(self) -> bool:
        """Minimize the artificial sum; True iff a feasible point exists."""
        c = np.zeros(self.num_cols)
        c[self.art_start:] = 1.0
        status = self._iterate(c)
        if status is not LpStatus.OPTIMAL:
            raise ArithmeticError("phase-1 objective is bounded below by zero")
        infeas = float(self.xb[self._basic_artificial_positions()].sum())
        scale = max(1.0, float(np.abs(self.b).max(initial=0.0)))
        if infeas > FEASIBILITY_TOL * scale:
            return False
        self._fix_artificials()
        return True

    def phase2(self, c: np.ndarray) -> LpStatus:
        return self._iterate(c)

    def dual(self, c: np.ndarray) -> bool:
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
        free = ~np.isfinite(self.lower) & ~np.isfinite(self.upper)
        max_iter = 10_000 + 200 * (self.num_cols + self.m)

        for _ in range(max_iter):
            below = self.lower[self.basis] - self.xb
            above = self.xb - self.upper[self.basis]
            violation = np.maximum(below, above)
            pos = int(np.argmax(violation))
            if violation[pos] <= FEASIBILITY_TOL:
                return True
            to_upper = bool(above[pos] > 0.0)

            # Row ``pos`` reads x_B = beta - alpha.x_N: a column helps when
            # its feasible move shifts x_B toward the violated bound.
            alpha = self.binv[pos] @ self.a
            toward = alpha if to_upper else -alpha
            eligible = ~self.in_basis & ~fixed & np.where(
                free, np.abs(toward) > _PIVOT_TOL,
                np.where(self.at_upper, toward < -_PIVOT_TOL, toward > _PIVOT_TOL))
            idx = np.where(eligible)[0]
            if idx.size == 0:
                return False

            reduced = c - (c[self.basis] @ self.binv) @ self.a
            dual_slack = np.where(self.at_upper[idx], -reduced[idx], reduced[idx])
            dual_slack = np.where(free[idx], np.abs(reduced[idx]), dual_slack)
            ratios = np.maximum(dual_slack, 0.0) / np.abs(alpha[idx])
            tie = idx[ratios <= ratios.min() + 1e-12]
            entering = int(tie[np.argmax(np.abs(alpha[tie]))])

            w = self.binv @ self.a[:, entering]
            target = self.upper if to_upper else self.lower
            step = (self.xb[pos] - target[self.basis[pos]]) / w[pos]
            start = self._value_of(entering)
            self.xb -= step * w
            self._pivot(pos, entering, w, entering_value=start + step,
                        leave_to_upper=to_upper)

        raise ArithmeticError("dual simplex iteration limit exceeded")

    def _basic_artificial_positions(self) -> np.ndarray:
        return np.where(self.basis >= self.art_start)[0]

    def _fix_artificials(self) -> None:
        """Clamp artificials to zero; pivot basic ones out where possible."""
        self.upper[self.art_start:] = 0.0
        for pos in self._basic_artificial_positions():
            row = self.binv[pos] @ self.a
            candidates = np.where(
                (~self.in_basis)
                & (np.arange(self.num_cols) < self.art_start)
                & (np.abs(row) > 1e-7)
            )[0]
            if candidates.size == 0:
                continue  # redundant row; the artificial stays basic at 0
            entering = int(candidates[0])
            w = self.binv @ self.a[:, entering]
            self._pivot(pos, entering, w, entering_value=self._value_of(entering))

    # -- simplex core -------------------------------------------------------

    def _iterate(self, c: np.ndarray) -> LpStatus:
        fixed = self.lower == self.upper  # pinned variables never enter
        free = ~np.isfinite(self.lower) & ~np.isfinite(self.upper)
        bland = False
        stall = 0
        stall_limit = self.num_cols + self.m
        max_iter = 10_000 + 200 * (self.num_cols + self.m)

        for _ in range(max_iter):
            y = c[self.basis] @ self.binv
            reduced = c - y @ self.a

            nonbasic = ~self.in_basis
            at_hi = nonbasic & self.at_upper
            is_free = nonbasic & free
            at_lo = nonbasic & ~self.at_upper & ~free

            eligible = (~fixed) & (
                (at_lo & (reduced < -OPTIMALITY_TOL))
                | (at_hi & (reduced > OPTIMALITY_TOL))
                | (is_free & (np.abs(reduced) > OPTIMALITY_TOL))
            )
            idx = np.where(eligible)[0]
            if idx.size == 0:
                return LpStatus.OPTIMAL

            if bland:
                entering = int(idx[0])
            else:
                entering = int(idx[np.argmax(np.abs(reduced[idx]))])
            d_enter = reduced[entering]
            direction = 1.0 if (at_lo[entering] or (is_free[entering] and d_enter < 0)) else -1.0

            w = self.binv @ self.a[:, entering]
            step, leave_pos, leave_to_upper = self._ratio_test(entering, direction, w, bland)
            if step is None:
                return LpStatus.UNBOUNDED

            improvement = abs(d_enter) * step
            stall = 0 if improvement > 1e-12 else stall + 1
            if stall > stall_limit:
                bland = True

            if leave_pos is None:
                # Bound flip: the entering variable crosses to its other bound.
                self.xb -= direction * step * w
                self.at_upper[entering] = direction > 0
                self.pivots += 1
                self.pivots_since_refactor += 1
                if self.pivots_since_refactor >= _REFACTOR_EVERY:
                    self._refresh()
                continue

            start = self._value_of(entering)
            self.xb -= direction * step * w
            self._pivot(leave_pos, entering, w,
                        entering_value=start + direction * step,
                        leave_to_upper=leave_to_upper)

        raise ArithmeticError("simplex iteration limit exceeded")

    def _ratio_test(self, entering: int, direction: float, w: np.ndarray,
                    bland: bool):
        """Largest step for the entering variable; smallest-index tie-break.

        Returns (step, leaving_position_or_None, leaving_hits_upper).  A
        ``None`` position with finite step means a bound flip; a ``None``
        step means the problem is unbounded in this direction.
        """
        lo_b = self.lower[self.basis]
        hi_b = self.upper[self.basis]
        rate = direction * w

        with np.errstate(divide="ignore", invalid="ignore"):
            dec = rate > _PIVOT_TOL   # basic value moves down toward its lower bound
            inc = rate < -_PIVOT_TOL  # basic value moves up toward its upper bound
            ratios = np.full(self.m, np.inf)
            ratios[dec] = (self.xb[dec] - lo_b[dec]) / rate[dec]
            ratios[inc] = (self.xb[inc] - hi_b[inc]) / rate[inc]
        ratios = np.where(np.isnan(ratios), np.inf, ratios)
        ratios = np.maximum(ratios, 0.0)  # clip tiny negative fp residue

        span = self.upper[entering] - self.lower[entering]
        flip = span if np.isfinite(span) else np.inf

        best = float(ratios.min(initial=np.inf))
        if flip < best - 1e-12:
            return flip, None, False
        if not np.isfinite(best):
            if np.isfinite(flip):
                return flip, None, False
            return None, None, False

        tie = np.where(ratios <= best + 1e-12)[0]
        # Deterministic: leave the candidate with the smallest variable index.
        leave_pos = int(tie[np.argmin(self.basis[tie])])
        leave_to_upper = bool(inc[leave_pos])
        return best, leave_pos, leave_to_upper

    def _pivot(self, pos: int, entering: int, w: np.ndarray,
               entering_value: float, leave_to_upper: bool = False) -> None:
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
        self.pivots_since_refactor += 1
        if self.pivots_since_refactor >= _REFACTOR_EVERY:
            self._refresh()

