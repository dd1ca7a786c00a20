import dataclasses
import itertools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mecoffload.lp import (
    _REFACTOR_EVERY,
    FEASIBILITY_TOL,
    OPTIMALITY_TOL,
    Basis,
    LinearProgram,
    LpResult,
    LpStatus,
    pinned_bounds,
    solve_lp,
)
from mecoffload.relax import build_relaxation
from mecoffload.scenario import generate_frame, read_config_file

from conftest import first_pivot_objective

DESK_CONFIG = Path(__file__).resolve().parents[1] / "scripts" / "desk_config.txt"


def enumerate_vertices(lp: LinearProgram) -> list[np.ndarray]:
    """Brute-force vertex oracle: solve every n-subset of tight constraints.

    Collects all constraint hyperplanes (equalities, inequalities at
    equality, bounds at equality), solves each n-choose-n system, and keeps
    the feasible solutions.  Exponential, fine for n <= 4.
    """
    n = lp.num_vars
    rows = [(row, rhs) for row, rhs in zip(lp.a_eq, lp.b_eq)]
    rows += [(row, rhs) for row, rhs in zip(lp.a_ub, lp.b_ub)]
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        if np.isfinite(lp.lower[j]):
            rows.append((e.copy(), lp.lower[j]))
        if np.isfinite(lp.upper[j]):
            rows.append((e.copy(), lp.upper[j]))
    vertices = []
    for combo in itertools.combinations(range(len(rows)), n):
        a = np.array([rows[i][0] for i in combo])
        b = np.array([rows[i][1] for i in combo])
        if abs(np.linalg.det(a)) < 1e-10:
            continue
        v = np.linalg.solve(a, b)
        if (np.all(lp.a_eq @ v <= lp.b_eq + 1e-9)
                and np.all(lp.a_eq @ v >= lp.b_eq - 1e-9)
                and np.all(lp.a_ub @ v <= lp.b_ub + 1e-9)
                and np.all(v >= lp.lower - 1e-9)
                and np.all(v <= lp.upper + 1e-9)):
            vertices.append(v)
    return vertices


def transportation_lp() -> LinearProgram:
    # Ship from 2 sources to a sink pair through 3 routes; all vertices are
    # enumerable by the brute-force oracle.
    c = np.array([4.0, 1.0, 2.5])
    a_eq = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]])
    b_eq = np.array([3.0, 2.0])
    upper = np.array([5.0, 1.5, 5.0])
    return LinearProgram(c, a_eq, b_eq, None, None, np.zeros(3), upper)


def assert_certified(lp: LinearProgram, res: LpResult) -> None:
    """Check an optimal result against its own basis, independently of the
    solver: rebuild ``[A | I]`` (equality rows first, one slack per row),
    solve for the basic values and the reduced costs, and require ``x`` to
    be that basic solution and every nonbasic reduced cost to have the
    sign of its resting bound, within :data:`OPTIMALITY_TOL`."""
    n = lp.num_vars
    m_eq, m = lp.a_eq.shape[0], lp.a_eq.shape[0] + lp.a_ub.shape[0]
    a = np.hstack([np.vstack([lp.a_eq, lp.a_ub]), np.eye(m)])
    b = np.concatenate([lp.b_eq, lp.b_ub])
    c = np.concatenate([lp.c, np.zeros(m)])
    lower = np.concatenate([lp.lower, np.zeros(m)])
    upper = np.concatenate([lp.upper, np.zeros(m_eq), np.full(m - m_eq, np.inf)])
    basic = res.basis.indices
    nonbasic = np.setdiff1d(np.arange(n + m), basic)
    at_upper = res.basis.at_upper[nonbasic]

    x = np.zeros(n + m)
    x[nonbasic] = np.where(at_upper, upper[nonbasic], lower[nonbasic])
    x[basic] = np.linalg.solve(a[:, basic], b - a[:, nonbasic] @ x[nonbasic])
    assert np.allclose(res.x, x[:n], rtol=0.0, atol=1e-9)

    duals = np.linalg.solve(a[:, basic].T, c[basic])
    reduced = c[nonbasic] - duals @ a[:, nonbasic]
    free = lower[nonbasic] < upper[nonbasic]
    assert np.all(reduced[free & ~at_upper] >= -OPTIMALITY_TOL)
    assert np.all(reduced[free & at_upper] <= OPTIMALITY_TOL)


class TestBasics:
    def test_box_minimum(self):
        lp = LinearProgram(np.array([1.0]), lower=np.array([1.0]),
                           upper=np.array([2.0]))
        res = solve_lp(lp)
        assert res.status is LpStatus.OPTIMAL
        assert res.x[0] == pytest.approx(1.0, abs=1e-12)
        assert res.value == pytest.approx(1.0, abs=1e-12)

    def test_conflicting_rows_infeasible(self):
        lp = LinearProgram(
            np.array([1.0]),
            a_ub=np.array([[-1.0], [1.0]]),
            b_ub=np.array([-2.0, 1.0]),  # v >= 2 and v <= 1
        )
        assert solve_lp(lp).status is LpStatus.INFEASIBLE

    def test_transportation_matches_vertex_enumeration(self):
        lp = transportation_lp()
        res = solve_lp(lp)
        vertices = enumerate_vertices(lp)
        assert vertices, "oracle found no vertices"
        best = min(float(lp.c @ v) for v in vertices)
        assert res.status is LpStatus.OPTIMAL
        assert res.value == pytest.approx(best, rel=1e-9)

    def test_optimal_point_is_feasible(self):
        lp = transportation_lp()
        res = solve_lp(lp)
        assert np.all(np.abs(lp.a_eq @ res.x - lp.b_eq) <= FEASIBILITY_TOL * 10)
        assert np.all(res.x >= lp.lower - FEASIBILITY_TOL)
        assert np.all(res.x <= lp.upper + FEASIBILITY_TOL)

    def test_value_consistent_with_point(self):
        res = solve_lp(transportation_lp())
        assert res.value == pytest.approx(float(transportation_lp().c @ res.x),
                                          rel=1e-9)


class TestConstruction:
    @pytest.mark.parametrize("data, match", [
        (dict(a_eq=[[1.0]], b_eq=[1.0]), "a_eq column count"),
        (dict(a_ub=[[1.0]], b_ub=[1.0]), "a_ub column count"),
        (dict(a_eq=[[1.0, 1.0]], b_eq=[1.0, 2.0]), "b_eq length"),
        (dict(a_ub=[[1.0, 1.0]], b_ub=[1.0, 2.0]), "b_ub length"),
        (dict(lower=[0.0]), "bound vectors"),
        (dict(upper=[1.0, 1.0, 1.0]), "bound vectors"),
    ], ids=["a_eq-columns", "a_ub-columns", "b_eq-rows", "b_ub-rows", "lower-length",
            "upper-length"])
    def test_dimension_mismatch_rejected(self, data, match):
        # Every array must agree with the two costs and with its rows.
        with pytest.raises(ValueError, match=match):
            LinearProgram(np.array([1.0, 2.0]), **{k: np.array(v) for k, v in data.items()})

    def test_inverted_bounds_rejected(self):
        with pytest.raises(ValueError):
            LinearProgram(np.array([1.0]), lower=np.array([2.0]),
                          upper=np.array([1.0]))

    def test_nonfinite_data_rejected(self):
        with pytest.raises(ValueError):
            LinearProgram(np.array([np.nan]))

    def test_bounds_are_views_of_the_column_bounds(self):
        # A bound written in place reaches the solver; replacing the array
        # would leave the solver reading the old one, so it is refused.
        lp = transportation_lp()
        lp.upper[1] = 0.5
        assert lp.col_upper[1] == 0.5
        assert solve_lp(lp).x[1] == pytest.approx(0.5, abs=1e-12)
        with pytest.raises(AttributeError):
            lp.upper = np.full(3, 5.0)
        with pytest.raises(AttributeError):
            lp.lower = np.zeros(3)


class TestProperties:
    def test_weak_duality_on_sampled_feasible_points(self):
        lp = transportation_lp()
        res = solve_lp(lp)
        vertices = enumerate_vertices(lp)
        rng = np.random.default_rng(5)
        for _ in range(100):
            weights = rng.dirichlet(np.ones(len(vertices)))
            point = sum(w * v for w, v in zip(weights, vertices))
            assert float(lp.c @ point) >= res.value - 1e-9

    def test_variable_permutation_invariance(self):
        lp = transportation_lp()
        res = solve_lp(lp)
        perm = np.array([2, 0, 1])
        permuted = LinearProgram(
            lp.c[perm], lp.a_eq[:, perm], lp.b_eq, lp.a_ub[:, perm], lp.b_ub,
            lp.lower[perm], lp.upper[perm],
        )
        res_p = solve_lp(permuted)
        assert res_p.value == pytest.approx(res.value, rel=1e-9)
        assert np.allclose(res_p.x, res.x[perm], atol=1e-9)

    def test_determinism(self):
        lp = transportation_lp()
        a, b = solve_lp(lp), solve_lp(lp)
        assert a.value == b.value
        assert np.array_equal(a.x, b.x)


class TestDegenerate:
    """Termination and correctness on cycling-prone instances."""

    def test_redundant_rows(self):
        c = np.array([1.0, 1.0])
        a_ub = np.array([[-1.0, -1.0]] * 4)  # v0 + v1 >= 1, four times
        b_ub = np.full(4, -1.0)
        res = solve_lp(LinearProgram(c, None, None, a_ub, b_ub))
        assert res.status is LpStatus.OPTIMAL
        assert res.value == pytest.approx(1.0, abs=1e-9)

    def test_equal_rhs_entries(self):
        # Every pairwise sum at least 1 at cost v0 + v1: the optimal face
        # v0 + v1 = 1 holds the degenerate vertices (1, 0, 1), (0, 1, 1)
        # and (0.5, 0.5, 0.5), each with all three rows or a bound tight.
        c = np.array([1.0, 1.0, 0.0])
        a_ub = -np.array([
            [1.0, 1.0, 0.0],
            [0.0, 1.0, 1.0],
            [1.0, 0.0, 1.0],
        ])
        b_ub = np.full(3, -1.0)
        lp = LinearProgram(c, None, None, a_ub, b_ub)
        res = solve_lp(lp)
        assert res.status is LpStatus.OPTIMAL
        assert res.value == pytest.approx(1.0, abs=1e-9)
        assert np.all(lp.a_ub @ res.x <= lp.b_ub + FEASIBILITY_TOL)
        assert np.all(res.x >= -FEASIBILITY_TOL)

    def test_redundant_equalities(self):
        c = np.array([1.0, 2.0])
        a_eq = np.array([[1.0, 1.0], [2.0, 2.0]])
        b_eq = np.array([1.0, 2.0])
        lp = LinearProgram(c, a_eq, b_eq)
        res = solve_lp(lp)
        assert res.status is LpStatus.OPTIMAL
        assert res.value == pytest.approx(1.0, abs=1e-9)
        # The redundant row's slack stays basic at zero, so the optimal
        # basis is a basis of the program and re-solves to the same value.
        assert res.basis is not None
        again = solve_lp(lp, start=res.basis)
        assert again.status is LpStatus.OPTIMAL
        assert again.value == pytest.approx(res.value, abs=1e-12)


class TestContract:
    """Programs whose all-slack basis is not dual feasible are refused."""

    def test_negative_cost_rejected(self):
        lp = LinearProgram(np.array([1.0, -1.0]), upper=np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            solve_lp(lp)

    def test_unbounded_below_variable_rejected(self):
        lp = LinearProgram(np.array([1.0, 1.0]), lower=np.array([0.0, -np.inf]),
                           upper=np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            solve_lp(lp)

    def test_start_basis_of_another_objective_is_an_error(self):
        # The basis is optimal for costs (4, 1, 2.5) but not dual feasible
        # for (1, 4, 2.5); a start must be an optimal basis of the same
        # objective, so the final optimality check refuses the result.
        lp = transportation_lp()
        basis = solve_lp(lp).basis
        other = LinearProgram(np.array([1.0, 4.0, 2.5]), lp.a_eq, lp.b_eq,
                              None, None, lp.lower, lp.upper)
        with pytest.raises(ArithmeticError, match="dual feasible"):
            solve_lp(other, start=basis)


def tightened_bounds(lower, upper, point, rng):
    """Bounds of a child program: one variable's range cut to exclude its
    value at ``point``, or pinned; the cut may leave nothing feasible."""
    lower, upper = lower.copy(), upper.copy()
    j = int(rng.integers(lower.size))
    kind = rng.integers(3)
    if kind == 0:
        upper[j] = max(lower[j], point[j] - rng.uniform(0, 2))
    elif kind == 1:
        lower[j] = min(upper[j], point[j] + rng.uniform(0, 2))
    else:
        lower[j] = upper[j] = np.clip(point[j] + rng.uniform(-1, 1), lower[j], upper[j])
    return lower, upper


def highs(lp: LinearProgram):
    """``lp`` solved by HiGHS through scipy, the independent oracle."""
    from scipy.optimize import linprog

    bounds = list(zip(np.where(np.isfinite(lp.lower), lp.lower, None),
                      np.where(np.isfinite(lp.upper), lp.upper, None)))
    return linprog(lp.c, A_ub=lp.a_ub if lp.a_ub.size else None,
                   b_ub=lp.b_ub if lp.a_ub.size else None,
                   A_eq=lp.a_eq if lp.a_eq.size else None,
                   b_eq=lp.b_eq if lp.a_eq.size else None,
                   bounds=bounds, method="highs")


class TestAgainstScipy:
    """Random cross-check against an independent solver."""

    def test_random_instances(self):
        rng = np.random.default_rng(123)
        warm_rng = np.random.default_rng(321)
        checked = 0
        warm_statuses = []
        for _ in range(150):
            n = int(rng.integers(1, 7))
            m_eq = int(rng.integers(0, 3))
            m_ub = int(rng.integers(0, 5))
            c = np.abs(rng.normal(size=n)).round(3)
            a_eq = rng.normal(size=(m_eq, n)).round(3)
            a_ub = rng.normal(size=(m_ub, n)).round(3)
            b_eq = rng.normal(size=m_eq).round(3)
            b_ub = rng.normal(size=m_ub).round(3)
            lower = rng.uniform(-3, 0, n).round(3)
            upper = np.maximum(
                np.where(rng.random(n) < 0.8,
                         rng.uniform(0.5, 4, n).round(3), np.inf),
                lower,
            )
            lp = LinearProgram(c, a_eq, b_eq, a_ub, b_ub, lower, upper)
            mine = solve_lp(lp)
            ref = highs(lp)
            # Nonnegative costs over finite lower bounds: never unbounded.
            assert ref.status in (0, 2)
            if ref.status == 0:
                assert mine.status is LpStatus.OPTIMAL
                assert mine.value == pytest.approx(ref.fun, abs=1e-7 * max(1, abs(ref.fun)))
                assert_certified(lp, mine)
            else:
                assert mine.status is LpStatus.INFEASIBLE
            checked += 1

            # Warm cases: tighten one bound of a solved program and
            # re-solve from its optimal basis, as a child node does.
            if mine.status is not LpStatus.OPTIMAL:
                continue
            for _ in range(3):
                lo, hi = tightened_bounds(lower, upper, mine.x, warm_rng)
                child = LinearProgram(c, a_eq, b_eq, a_ub, b_ub, lo, hi)
                warm = solve_lp(child, start=mine.basis)
                cold = solve_lp(child)
                ref = highs(child)
                assert warm.status is cold.status
                assert ref.status == (0 if warm.status is LpStatus.OPTIMAL else 2)
                if warm.status is LpStatus.OPTIMAL:
                    tol = 1e-7 * max(1, abs(ref.fun))
                    assert warm.value == pytest.approx(cold.value, abs=tol)
                    assert warm.value == pytest.approx(ref.fun, abs=tol)
                    assert_certified(child, warm)
                    assert_certified(child, cold)
                warm_statuses.append(warm.status)
        assert checked == 150
        # Both exits of the dual simplex ran.
        assert warm_statuses.count(LpStatus.OPTIMAL) > 50
        assert warm_statuses.count(LpStatus.INFEASIBLE) > 10

    def test_start_basis_of_wrong_shape_rejected(self):
        lp = transportation_lp()
        basis = solve_lp(lp).basis
        with pytest.raises(ValueError):
            solve_lp(lp, start=Basis(basis.indices[:1], basis.at_upper, basis.binv,
                                     basis.reduced_costs))

    @pytest.mark.parametrize("column", [-1, 5])
    def test_start_basis_out_of_range_rejected(self, column):
        lp = transportation_lp()
        basis = solve_lp(lp).basis
        indices = basis.indices.copy()
        indices[0] = column
        with pytest.raises(ValueError, match="does not fit"):
            solve_lp(lp, start=Basis(indices, basis.at_upper, basis.binv,
                                     basis.reduced_costs))

    def test_start_basis_repeating_a_column_rejected(self):
        lp = transportation_lp()
        basis = solve_lp(lp).basis
        indices = np.full_like(basis.indices, basis.indices[0])
        with pytest.raises(ValueError, match="repeats"):
            solve_lp(lp, start=Basis(indices, basis.at_upper, basis.binv,
                                     basis.reduced_costs))


def interior_lp(seed: int, n: int = 20, m_eq: int = 4, m_ub: int = 12):
    """A random program with nonnegative costs and a known feasible point
    ``p`` strictly inside every inequality and bound."""
    rng = np.random.default_rng(seed)
    p = rng.uniform(1.0, 3.0, n)
    a_eq = rng.normal(size=(m_eq, n)).round(3)
    a_ub = rng.normal(size=(m_ub, n)).round(3)
    upper = np.where(rng.random(n) < 0.7, p + rng.uniform(1.0, 3.0, n), np.inf)
    lp = LinearProgram(np.abs(rng.normal(size=n)).round(3), a_eq, a_eq @ p,
                       a_ub, a_ub @ p + rng.uniform(0.5, 2.0, m_ub),
                       np.zeros(n), upper)
    return lp, p


def cut_toward(lp: LinearProgram, x: np.ndarray, p: np.ndarray) -> LinearProgram:
    """A child program: the variable farthest from ``p`` at ``x`` gets a
    bound halfway to ``p``, which cuts ``x`` off and keeps ``p`` feasible."""
    j = int(np.argmax(np.abs(x - p)))
    lower, upper = lp.lower.copy(), lp.upper.copy()
    if x[j] < p[j]:
        lower[j] = (x[j] + p[j]) / 2
    else:
        upper[j] = (x[j] + p[j]) / 2
    return LinearProgram(lp.c, lp.a_eq, lp.b_eq, lp.a_ub, lp.b_ub, lower, upper)


class TestCarriedFactor:
    """Warm starts resume from the factor an optimal solve hands over."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_chain_of_warm_solves_matches_cold_and_highs(self, seed):
        # Each link cuts off the previous optimum and re-solves from its
        # basis, as a path down the search tree does, until more than
        # _REFACTOR_EVERY updates have been carried down the chain.  The
        # update count wraps at _REFACTOR_EVERY, and the inverse is
        # recomputed exactly once per wrap.
        lp, p = interior_lp(seed)
        res = solve_lp(lp)
        assert res.refactors == res.pivots // _REFACTOR_EVERY
        carried, refactors = res.pivots, res.refactors
        while carried <= _REFACTOR_EVERY + 10:
            assert np.abs(res.x - p).max() > 1e-6, "chain converged before a refactor"
            child = cut_toward(lp, res.x, p)
            warm = solve_lp(child, start=res.basis)
            cold = solve_lp(child)
            assert warm.status is cold.status is LpStatus.OPTIMAL
            tol = 1e-7 * max(1.0, abs(cold.value))
            assert warm.value == pytest.approx(cold.value, abs=tol)
            ref = highs(child)
            assert ref.status == 0
            assert warm.value == pytest.approx(ref.fun, abs=tol)
            assert_certified(child, warm)
            total = res.basis.updates + warm.pivots
            assert warm.refactors == total // _REFACTOR_EVERY
            assert warm.basis.updates == total % _REFACTOR_EVERY
            carried += warm.pivots
            refactors += warm.refactors
            lp, res = child, warm
        assert refactors >= 1

    def test_root_and_warm_children_do_not_invert(self, monkeypatch):
        # The root starts from the identity; a child from its parent's
        # factor.  Neither inverts while its update count stays below
        # _REFACTOR_EVERY.
        import mecoffload.lp as lp_module

        inversions = []
        real_inv = np.linalg.inv

        def counting_inv(matrix):
            inversions.append(matrix.shape)
            return real_inv(matrix)

        monkeypatch.setattr(lp_module.np.linalg, "inv", counting_inv)
        lp, p = interior_lp(4)
        root = solve_lp(lp)
        child = solve_lp(cut_toward(lp, root.x, p), start=root.basis)
        assert root.pivots + child.pivots < _REFACTOR_EVERY
        assert root.refactors == child.refactors == 0
        assert inversions == []

    def test_basis_without_factor_is_accepted(self):
        # A start whose factor is due is inverted again from its columns
        # before it is read, so a zeroed factor stands in for none.
        lp, p = interior_lp(5)
        root = solve_lp(lp)
        child = cut_toward(lp, root.x, p)
        due = dataclasses.replace(root.basis, binv=np.zeros_like(root.basis.binv),
                                  reduced_costs=np.zeros_like(root.basis.reduced_costs),
                                  updates=_REFACTOR_EVERY)
        bare = solve_lp(child, start=due)
        warm = solve_lp(child, start=root.basis)
        assert bare.status is LpStatus.OPTIMAL
        assert bare.refactors == 1
        assert bare.value == pytest.approx(warm.value, abs=1e-9)
        assert_certified(child, bare)

    @pytest.mark.parametrize("corruption", ["scaled", "one-entry", "transposed", "foreign"])
    def test_wrong_factor_is_an_error(self, corruption):
        # The final point misses the rows, or, on a program the start's
        # bounds make infeasible, the row that would prove it is not a row
        # of B^-1 A.  (The foreign inverse's violating row happens to be a
        # true row of this basis's inverse, a valid proof, so it is not
        # tried there.)
        lp, p = interior_lp(6)
        basis = solve_lp(lp).basis
        if corruption == "scaled":
            binv = 1.5 * basis.binv
        elif corruption == "one-entry":
            binv = basis.binv.copy()
            binv[0, -1] += 0.25
        elif corruption == "transposed":
            binv = basis.binv.T
        else:
            # The inverse of the same basis in a program with other rows.
            a_ub = lp.a_ub.copy()
            a_ub[0] *= 2.0
            other = LinearProgram(lp.c, lp.a_eq, lp.b_eq, a_ub, lp.b_ub,
                                  lp.lower, lp.upper)
            binv = np.linalg.inv(other.rows[:, basis.indices])
        assert not np.allclose(binv, basis.binv)
        bad = Basis(basis.indices, basis.at_upper, binv, basis.reduced_costs,
                    basis.updates)
        for program in (lp, cut_toward(lp, solve_lp(lp).x, p)):
            with pytest.raises(ArithmeticError, match="rows"):
                solve_lp(program, start=bad)
        # With every variable pinned at zero, A_eq x = A_eq p cannot hold.
        empty = LinearProgram(lp.c, lp.a_eq, lp.b_eq, lp.a_ub, lp.b_ub,
                              lp.lower, np.zeros(lp.num_vars))
        assert solve_lp(empty, start=basis).status is LpStatus.INFEASIBLE
        if corruption != "foreign":
            with pytest.raises(ArithmeticError, match="invert"):
                solve_lp(empty, start=bad)

    def test_wrong_factor_that_keeps_the_point_is_an_error(self):
        # Off by a term that vanishes on b - N x_N, the inverse still gives
        # the right basic values, and no pivot is needed; the duals it
        # gives do not price the basic columns to zero.
        lp, p = interior_lp(6)
        basis = solve_lp(lp).basis
        m = lp.rhs.size
        x = np.where(basis.at_upper, lp.col_upper, lp.col_lower)
        x[basis.indices] = 0.0
        r = lp.rhs - lp.rows @ x
        rng = np.random.default_rng(0)
        v = rng.normal(size=m)
        v -= (v @ r) / (r @ r) * r
        bad = Basis(basis.indices, basis.at_upper,
                    basis.binv + 0.1 * np.outer(rng.normal(size=m), v),
                    basis.reduced_costs, basis.updates)
        with pytest.raises(ArithmeticError, match="price"):
            solve_lp(lp, start=bad)

    def test_factor_with_a_nan_row_is_an_error(self):
        # A NaN row of the inverse makes the largest violation NaN, and its
        # row admits no entering column; it proves nothing, so the solve
        # must not call the program infeasible.  So on the seed-21 desk
        # frame's relaxation from its own optimal basis, and with one
        # carried flow pinned, as a child's would be.
        cfg = dataclasses.replace(read_config_file(DESK_CONFIG), rng_seed=21)
        lp = build_relaxation(generate_frame(cfg))
        res = solve_lp(lp)
        binv = res.basis.binv.copy()
        binv[0] = np.nan
        bad = dataclasses.replace(res.basis, binv=binv)
        with pytest.raises(ArithmeticError, match="invert"):
            solve_lp(lp, start=bad)
        lp.upper[int(np.flatnonzero(res.x > FEASIBILITY_TOL)[0])] = 0.0
        with pytest.raises(ArithmeticError, match="invert"):
            solve_lp(lp, start=bad)

    def test_factor_of_other_dimensions_is_rejected(self):
        lp, p = interior_lp(7)
        basis = solve_lp(lp).basis
        with pytest.raises(ValueError):
            solve_lp(lp, start=Basis(basis.indices, basis.at_upper,
                                     basis.binv[:-1, :-1], basis.reduced_costs))


def basis_bytes(basis: Basis) -> list[bytes]:
    return [np.asarray(a).tobytes() for a in
            (basis.indices, basis.at_upper, basis.binv, basis.reduced_costs)]


def result_bytes(res: LpResult) -> list:
    if res.status is not LpStatus.OPTIMAL:
        return [res.status, res.pivots]
    return [res.status, res.x.tobytes(), res.value, res.pivots,
            res.basis.updates, res.slack_signs.tobytes(), *basis_bytes(res.basis)]


def children(lp: LinearProgram, x: np.ndarray, p: np.ndarray):
    """Both children of a branching on the variable farthest from ``p`` at
    ``x``: one cut toward ``p`` (feasible), one cut away from it, down to
    half of its value (possibly infeasible)."""
    toward = cut_toward(lp, x, p)
    j = int(np.argmax(np.abs(x - p)))
    lower, upper = lp.lower.copy(), lp.upper.copy()
    if x[j] < p[j]:
        upper[j] = x[j] / 2
    else:
        lower[j] = 2 * x[j] if np.isinf(upper[j]) else (x[j] + upper[j]) / 2
    away = LinearProgram(lp.c, lp.a_eq, lp.b_eq, lp.a_ub, lp.b_ub, lower, upper)
    return toward, away


class TestSharedStart:
    """Both children of a node resume from the same ``result.basis``; no
    solve writes into a start, so the order of the solves does not matter."""

    # Seeds on which both children pivot away from the shared start.
    @pytest.mark.parametrize("seed", [3, 7, 8, 10])
    def test_both_children_from_one_start_in_either_order(self, seed):
        lp, p = interior_lp(seed)
        parent = solve_lp(lp)
        start = parent.basis
        before = basis_bytes(start)
        kids = children(lp, parent.x, p)
        runs = {}
        for order in ((0, 1), (1, 0)):
            for k in order:
                runs[order, k] = solve_lp(kids[k], start=start)
                assert basis_bytes(start) == before
        for k, child in enumerate(kids):
            first, second = runs[(0, 1), k], runs[(1, 0), k]
            assert result_bytes(first) == result_bytes(second)
            cold = solve_lp(child)
            assert first.status is cold.status
            if cold.status is LpStatus.OPTIMAL:
                assert first.value == pytest.approx(cold.value, abs=1e-7 * max(1.0, abs(cold.value)))
                assert_certified(child, first)
        assert all(runs[(0, 1), k].pivots for k in (0, 1))

    def test_interleaved_programs(self):
        # Two chains of warm solves down two programs, interleaved, give
        # the same results bit for bit as each chain run alone, and leave
        # every start as it was.
        def chain(seed, links=6):
            lp, p = interior_lp(seed)
            res = solve_lp(lp)
            yield res
            for _ in range(links):
                lp = cut_toward(lp, res.x, p)
                start, before = res.basis, basis_bytes(res.basis)
                res = solve_lp(lp, start=start)
                assert basis_bytes(start) == before
                yield res

        alone = [[result_bytes(r) for r in chain(seed)] for seed in (8, 9)]
        mixed = [[], []]
        for a, b in zip(chain(8), chain(9)):
            mixed[0].append(result_bytes(a))
            mixed[1].append(result_bytes(b))
        assert mixed == alone



class TestIterationCap:
    def test_a_solve_needing_more_pivots_than_the_cap_is_an_error(self, monkeypatch):
        import mecoffload.lp as lp_module

        lp, _ = interior_lp(1)
        needed = solve_lp(lp).pivots
        assert needed >= 2
        monkeypatch.setattr(lp_module, "_pivot_cap", lambda rows, cols: needed - 1)
        with pytest.raises(ArithmeticError, match="iteration limit"):
            solve_lp(lp)
        # The cap counts pivots: exactly as many as the solve needs pass.
        monkeypatch.setattr(lp_module, "_pivot_cap", lambda rows, cols: needed)
        res = solve_lp(lp)
        assert res.status is LpStatus.OPTIMAL
        assert res.pivots == needed


def pinned(lp: LinearProgram, columns) -> LinearProgram:
    """``lp`` with ``columns`` fixed at their lower bounds."""
    upper = lp.upper.copy()
    upper[columns] = lp.lower[columns]
    return LinearProgram(lp.c, lp.a_eq, lp.b_eq, lp.a_ub, lp.b_ub, lp.lower, upper)


class TestPinnedBounds:
    """A lower bound on a program with some columns pinned, read off the
    optimal result of the program without the pins."""

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_one_cut_row_gives_the_first_pivot_objective(self, seed, monkeypatch):
        lp, _ = interior_lp(seed)
        res = solve_lp(lp)
        n = lp.num_vars
        basic = [j for j in res.basis.indices if j < n
                 and res.x[j] - lp.lower[j] > FEASIBILITY_TOL]
        raised = 0
        for j in basic:
            bound, = pinned_bounds(lp, res, [np.array([j])])
            child = pinned(lp, [j])
            if bound > res.value:
                raised += 1
                assert bound == pytest.approx(
                    first_pivot_objective(child, res.basis, monkeypatch), rel=1e-12, abs=0.0)
        assert raised >= len(basic) // 2

    @pytest.mark.parametrize("seed", range(1, 9))
    def test_bound_lies_between_the_value_and_the_pinned_optimum(self, seed):
        lp, _ = interior_lp(seed)
        res = solve_lp(lp)
        rng = np.random.default_rng(seed)
        n = lp.num_vars
        # Pinnable: every structural column but those resting at an upper
        # bound above their lower one.
        free = lp.lower < lp.upper
        pinnable = [j for j in range(n) if not (res.basis.at_upper[j] and free[j])]
        sets = [np.sort(rng.choice(pinnable, size=int(rng.integers(1, 4)), replace=False))
                for _ in range(12)]
        bounds = pinned_bounds(lp, res, sets)
        # Each set is priced apart from the others (to the last bits, which
        # follow how many rows one product takes).
        assert bounds == pytest.approx([pinned_bounds(lp, res, [pins])[0] for pins in sets],
                                       rel=1e-14, abs=0.0)
        for pins, bound in zip(sets, bounds):
            assert bound >= res.value
            child = solve_lp(pinned(lp, pins))
            if child.status is LpStatus.OPTIMAL:
                assert bound <= child.value + 1e-12 * abs(child.value)
        assert any(bound > res.value for bound in bounds)

    def test_pinned_columns_may_not_enter(self):
        # Pinning the column the ratio test of a cut-off row would enter as
        # well bars it, so the bound can only rise.
        lp, _ = interior_lp(2)
        res = solve_lp(lp)
        n = lp.num_vars
        rises = 0
        for pos, j in enumerate(res.basis.indices):
            if j >= n or res.x[j] - lp.lower[j] <= FEASIBILITY_TOL:
                continue
            alpha = res.basis.binv[pos].dot(lp.rows)
            movable = res.slack_signs * alpha > 0
            movable[n:] = False
            if not movable.any():
                continue
            ratios = np.where(movable, res.basis.reduced_costs / np.where(movable, alpha, 1.0),
                              np.inf)
            entering = int(ratios.argmin())
            alone, barred = pinned_bounds(lp, res, [np.array([j]),
                                                    np.array(sorted([j, entering]))])
            assert barred >= alone
            child = solve_lp(pinned(lp, [j, entering]))
            if child.status is LpStatus.OPTIMAL:
                assert barred <= child.value + 1e-12 * abs(child.value)
            rises += barred > alone
        assert rises

    def test_ratio_below_zero_counts_as_zero(self):
        # A dual slack a round-off below zero on the column that would
        # enter gives a step of zero, never a bound below the value.
        lp, _ = interior_lp(2)
        res = solve_lp(lp)
        n = lp.num_vars
        j = next(j for j in res.basis.indices
                 if j < n and res.x[j] - lp.lower[j] > FEASIBILITY_TOL
                 and pinned_bounds(lp, res, [np.array([j])])[0] > res.value)
        alpha = res.basis.binv[list(res.basis.indices).index(j)].dot(lp.rows)
        eligible = res.slack_signs * alpha > 0
        entering = int(np.where(eligible, res.basis.reduced_costs
                                / np.where(eligible, alpha, 1.0), np.inf).argmin())
        reduced = res.basis.reduced_costs.copy()
        reduced[entering] = -1e-13 * np.sign(alpha[entering])
        skewed = dataclasses.replace(res, basis=dataclasses.replace(res.basis,
                                                                    reduced_costs=reduced))
        assert pinned_bounds(lp, skewed, [np.array([j])]) == [res.value]

    def test_set_that_cuts_nothing_keeps_the_value(self):
        lp, _ = interior_lp(3)
        res = solve_lp(lp)
        at_lower = [j for j in range(lp.num_vars)
                    if j not in res.basis.indices and not res.basis.at_upper[j]]
        assert at_lower
        assert pinned_bounds(lp, res, [np.array(at_lower), np.array([], dtype=int)]) \
            == [res.value, res.value]

    def test_nonbasic_column_above_its_lower_bound_is_refused(self):
        for seed in range(1, 9):
            lp, _ = interior_lp(seed)
            res = solve_lp(lp)
            at_upper = [j for j in range(lp.num_vars)
                        if res.basis.at_upper[j] and lp.lower[j] < lp.upper[j]]
            if at_upper:
                with pytest.raises(ValueError, match="above its lower bound"):
                    pinned_bounds(lp, res, [np.array(at_upper[:1])])
                return
        pytest.fail("no program rests a column at its upper bound")
