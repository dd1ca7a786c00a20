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
from mecoffload.relax import build_relaxation, pinned_flows
from mecoffload.scenario import generate_frame, read_config_file

from conftest import first_pivot_objective, highs_bounds

DESK_CONFIG = Path(__file__).resolve().parents[1] / "scripts" / "desk_config.txt"


def enumerate_vertices(lp: LinearProgram) -> list[np.ndarray]:
    """Brute-force vertex oracle: solve every n-subset of tight constraints.

    Collects all constraint hyperplanes (equalities, inequalities at
    equality, each variable at zero), solves each n-choose-n system, and
    keeps the feasible solutions: nonnegative, and zero where pinned.
    Exponential, fine for n <= 4.
    """
    n = lp.num_vars
    rows = [(row, rhs) for row, rhs in zip(lp.a_eq, lp.b_eq)]
    rows += [(row, rhs) for row, rhs in zip(lp.a_ub, lp.b_ub)]
    rows += [(e, 0.0) for e in np.eye(n)]
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
                and np.all(v >= -1e-9)
                and np.all(np.abs(v[lp.pinned]) <= 1e-9)):
            vertices.append(v)
    return vertices


def transportation_lp() -> LinearProgram:
    # Ship from 2 sources to a sink pair through 3 routes, the cheap middle
    # one capped at 1.5; all vertices are enumerable by the brute-force
    # oracle.
    c = np.array([4.0, 1.0, 2.5])
    a_eq = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]])
    b_eq = np.array([3.0, 2.0])
    return LinearProgram(c, a_eq, b_eq, np.array([[0.0, 1.0, 0.0]]), np.array([1.5]))


def assert_certified(lp: LinearProgram, res: LpResult) -> None:
    """Check an optimal result against its own basis, independently of the
    solver: rebuild ``[A | I]`` (equality rows first, one slack per row),
    solve for the basic values with every nonbasic variable at zero, and
    require ``x`` to be that basic solution, every variable to be
    nonnegative and zero where pinned (an equality row's slack among them),
    and every free nonbasic reduced cost to be nonnegative, within
    :data:`FEASIBILITY_TOL` and :data:`OPTIMALITY_TOL`."""
    n = lp.num_vars
    m_eq, m = lp.a_eq.shape[0], lp.a_eq.shape[0] + lp.a_ub.shape[0]
    a = np.hstack([np.vstack([lp.a_eq, lp.a_ub]), np.eye(m)])
    b = np.concatenate([lp.b_eq, lp.b_ub])
    c = np.concatenate([lp.c, np.zeros(m)])
    pinned = np.concatenate([lp.pinned, np.ones(m_eq, dtype=bool), np.zeros(m - m_eq, dtype=bool)])
    basic = res.basis.indices
    nonbasic = np.setdiff1d(np.arange(n + m), basic)

    x = np.zeros(n + m)
    x[basic] = np.linalg.solve(a[:, basic], b)
    assert np.allclose(res.x, x[:n], rtol=0.0, atol=1e-9)
    assert np.all(x >= -10 * FEASIBILITY_TOL)
    assert np.all(np.abs(x[pinned]) <= 10 * FEASIBILITY_TOL)

    duals = np.linalg.solve(a[:, basic].T, c[basic])
    reduced = c[nonbasic] - duals @ a[:, nonbasic]
    assert np.all(reduced[~pinned[nonbasic]] >= -OPTIMALITY_TOL)


class TestBasics:
    def test_pinned_column_rests_at_zero(self):
        # v0 + v1 >= 1 at cost v0 + 2 v1: v0 carries the row until it is
        # pinned, and then v1 does.
        cover = dict(a_ub=np.array([[-1.0, -1.0]]), b_ub=np.array([-1.0]))
        free = solve_lp(LinearProgram(np.array([1.0, 2.0]), **cover))
        assert free.x.tolist() == [1.0, 0.0] and free.value == 1.0
        res = solve_lp(LinearProgram(np.array([1.0, 2.0]), pinned=[True, False], **cover))
        assert res.status is LpStatus.OPTIMAL
        assert res.x.tolist() == [0.0, 1.0] and res.value == 2.0

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
        assert np.all(lp.a_ub @ res.x <= lp.b_ub + FEASIBILITY_TOL)
        assert np.all(res.x >= -FEASIBILITY_TOL)

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
        (dict(pinned=[False]), "pinned mask"),
        (dict(pinned=[False, False, False]), "pinned mask"),
    ], ids=["a_eq-columns", "a_ub-columns", "b_eq-rows", "b_ub-rows", "pinned-short",
            "pinned-long"])
    def test_dimension_mismatch_rejected(self, data, match):
        # Every array must agree with the two costs and with its rows.
        with pytest.raises(ValueError, match=match):
            LinearProgram(np.array([1.0, 2.0]), **{k: np.array(v) for k, v in data.items()})

    def test_nonfinite_data_rejected(self):
        with pytest.raises(ValueError):
            LinearProgram(np.array([np.nan]))

    def test_pins_are_a_view_of_the_column_mask(self):
        # A pin written in place reaches the next solve, and so does its
        # removal; replacing the array would leave the solver reading the
        # old one, so it is refused.
        lp = transportation_lp()
        free = solve_lp(lp)
        assert free.x[1] == pytest.approx(1.5, abs=1e-12)
        lp.pinned[1] = True
        assert lp.col_pinned[1]
        res = solve_lp(lp)
        assert res.x[1] == 0.0
        fresh = LinearProgram(lp.c, lp.a_eq, lp.b_eq, lp.a_ub, lp.b_ub, [False, True, False])
        assert res.value == solve_lp(fresh).value == pytest.approx(3 * 4.0 + 2 * 2.5)
        lp.pinned[1] = False
        assert solve_lp(lp).value == free.value
        with pytest.raises(AttributeError):
            lp.pinned = np.zeros(3, dtype=bool)


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
            lp.pinned[perm],
        )
        res_p = solve_lp(permuted)
        assert res_p.value == pytest.approx(res.value, rel=1e-9)
        assert np.allclose(res_p.x, res.x[perm], atol=1e-9)

    def test_determinism(self):
        lp = transportation_lp()
        a, b = solve_lp(lp), solve_lp(lp)
        assert a.value == b.value
        assert np.array_equal(a.x, b.x)

    @pytest.mark.parametrize("exponent", [-60, -20, 20])
    def test_costs_a_power_of_two_apart_solve_alike(self, exponent):
        # The simplex prices in a power-of-two cost unit, so programs whose
        # costs are a power of two apart pivot alike, to the last bit, and
        # their values and bounds are that power apart.  Priced as given,
        # costs near 2**-60 would all sit below the optimality tolerance.
        lp = interior_lp(3)
        scaled = LinearProgram(np.ldexp(lp.c, exponent), lp.a_eq, lp.b_eq, lp.a_ub, lp.b_ub)
        assert np.array_equal(scaled.costs, lp.costs)
        assert 0.5 <= np.abs(lp.costs).max() < 1.0
        res, res_s = solve_lp(lp), solve_lp(scaled)
        assert result_bytes(res_s) == [*result_bytes(res)[:2], np.ldexp(res.value, exponent),
                                       *result_bytes(res)[3:]]
        sets = [np.array([j]) for j in range(lp.num_vars)]
        assert pinned_bounds(scaled, res_s, sets) == [
            np.ldexp(bound, exponent) for bound in pinned_bounds(lp, res, sets)]


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
        lp = LinearProgram(np.array([1.0, -1.0]), a_ub=np.array([[1.0, 1.0]]),
                           b_ub=np.array([1.0]))
        with pytest.raises(ValueError, match="nonnegative costs"):
            solve_lp(lp)

    def test_start_basis_of_another_objective_is_an_error(self):
        # The basis is optimal for costs (4, 1, 2.5) but not dual feasible
        # for (1, 4, 2.5); a start must be an optimal basis of the same
        # objective, so the final optimality check refuses the result.
        lp = transportation_lp()
        basis = solve_lp(lp).basis
        other = LinearProgram(np.array([1.0, 4.0, 2.5]), lp.a_eq, lp.b_eq,
                              lp.a_ub, lp.b_ub)
        with pytest.raises(ArithmeticError, match="dual feasible"):
            solve_lp(other, start=basis)


def highs(lp: LinearProgram):
    """``lp`` solved by HiGHS through scipy, the independent oracle."""
    from scipy.optimize import linprog

    return linprog(lp.c, A_ub=lp.a_ub if lp.a_ub.size else None,
                   b_ub=lp.b_ub if lp.a_ub.size else None,
                   A_eq=lp.a_eq if lp.a_eq.size else None,
                   b_eq=lp.b_eq if lp.a_eq.size else None,
                   bounds=highs_bounds(lp), method="highs")


def pin_largest(lp: LinearProgram, x: np.ndarray, rank: int = 0) -> LinearProgram:
    """A child program: ``lp`` with the column of the ``rank``-th largest
    value at ``x`` (0 the largest, ties to the smaller column) pinned too,
    which cuts ``x`` off when that value is above zero."""
    pinned = lp.pinned.copy()
    pinned[np.argsort(-x, kind="stable")[rank]] = True
    return LinearProgram(lp.c, lp.a_eq, lp.b_eq, lp.a_ub, lp.b_ub, pinned)


class TestAgainstScipy:
    """Random cross-check against an independent solver."""

    def test_random_instances(self):
        rng = np.random.default_rng(123)
        checked = 0
        warm_statuses = []
        for _ in range(150):
            n = int(rng.integers(1, 7))
            m_eq = int(rng.integers(0, 3))
            m_ub = int(rng.integers(0, 5))
            c = np.abs(rng.normal(size=n)).round(3)
            a_eq = rng.normal(size=(m_eq, n)).round(3)
            a_ub = rng.normal(size=(m_ub, n)).round(3)
            # The rows pass through a nonnegative point, the inequalities
            # up to noise, so that most programs are feasible away from
            # zero until pins cut the point off.
            point = rng.uniform(0, 2, n)
            b_eq = (a_eq @ point).round(3)
            b_ub = (a_ub @ point + rng.normal(size=m_ub)).round(3)
            lp = LinearProgram(c, a_eq, b_eq, a_ub, b_ub, rng.random(n) < 0.1)
            mine = solve_lp(lp)
            ref = highs(lp)
            # Nonnegative costs over nonnegative variables: never unbounded.
            assert ref.status in (0, 2)
            if ref.status == 0:
                assert mine.status is LpStatus.OPTIMAL
                assert mine.value == pytest.approx(ref.fun, abs=1e-7 * max(1, abs(ref.fun)))
                assert_certified(lp, mine)
            else:
                assert mine.status is LpStatus.INFEASIBLE
            checked += 1

            # Warm cases: a chain of three children, each pinning the
            # column farthest above zero at its parent's optimum and
            # re-solved from the parent's optimal basis, as a path down the
            # search tree is.  A parent at zero cannot be cut off.
            for _ in range(3):
                if mine.status is not LpStatus.OPTIMAL or mine.x.max() <= FEASIBILITY_TOL:
                    break
                child = pin_largest(lp, mine.x)
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
                lp, mine = child, warm
        assert checked == 150
        # Both exits of the dual simplex ran.
        assert warm_statuses.count(LpStatus.OPTIMAL) > 50
        assert warm_statuses.count(LpStatus.INFEASIBLE) > 10

    def test_start_basis_of_wrong_shape_rejected(self):
        lp = transportation_lp()
        basis = solve_lp(lp).basis
        with pytest.raises(ValueError):
            solve_lp(lp, start=Basis(basis.indices[:1], basis.binv, basis.reduced_costs))

    @pytest.mark.parametrize("column", [-1, 6])
    def test_start_basis_out_of_range_rejected(self, column):
        lp = transportation_lp()
        basis = solve_lp(lp).basis
        indices = basis.indices.copy()
        indices[0] = column
        with pytest.raises(ValueError, match="does not fit"):
            solve_lp(lp, start=Basis(indices, basis.binv, basis.reduced_costs))

    def test_start_basis_repeating_a_column_rejected(self):
        lp = transportation_lp()
        basis = solve_lp(lp).basis
        indices = np.full_like(basis.indices, basis.indices[0])
        with pytest.raises(ValueError, match="repeats"):
            solve_lp(lp, start=Basis(indices, basis.binv, basis.reduced_costs))


def interior_lp(seed: int, n: int = 20, m_eq: int = 4, m_ub: int = 12):
    """A random program with nonnegative costs, feasible at a point ``p``
    whose every entry is above zero and strictly inside every inequality."""
    rng = np.random.default_rng(seed)
    p = rng.uniform(1.0, 3.0, n)
    a_eq = rng.normal(size=(m_eq, n)).round(3)
    a_ub = rng.normal(size=(m_ub, n)).round(3)
    return LinearProgram(np.abs(rng.normal(size=n)).round(3), a_eq, a_eq @ p,
                         a_ub, a_ub @ p + rng.uniform(0.5, 2.0, m_ub))


class TestCarriedFactor:
    """Warm starts resume from the factor an optimal solve hands over."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_chain_of_warm_solves_matches_cold_and_highs(self, seed):
        # Each link pins the column farthest above zero at the previous
        # optimum, which cuts it off, and re-solves from its basis, as a
        # path down the search tree does, until more than
        # _REFACTOR_EVERY updates have been carried down the chain.  The
        # update count wraps at _REFACTOR_EVERY, and the inverse is
        # recomputed exactly once per wrap.  Each pin takes a column away,
        # so the program is wide enough to stay feasible that long.
        lp = interior_lp(seed, n=40)
        res = solve_lp(lp)
        assert res.refactors == res.pivots // _REFACTOR_EVERY
        carried, refactors = res.pivots, res.refactors
        while carried <= _REFACTOR_EVERY + 10:
            child = pin_largest(lp, res.x)
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
        lp = interior_lp(4)
        root = solve_lp(lp)
        child = solve_lp(pin_largest(lp, root.x), start=root.basis)
        assert root.pivots + child.pivots < _REFACTOR_EVERY
        assert root.refactors == child.refactors == 0
        assert inversions == []

    def test_basis_without_factor_is_accepted(self):
        # A start whose factor is due is inverted again from its columns
        # before it is read, so a zeroed factor stands in for none.
        lp = interior_lp(5)
        root = solve_lp(lp)
        child = pin_largest(lp, root.x)
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
        # The final point misses the rows, or, on a program whose pins make
        # it infeasible, the row that would prove it is not a row
        # of B^-1 A.  (The foreign inverse's violating row happens to be a
        # true row of this basis's inverse, a valid proof, so it is not
        # tried there.)
        lp = interior_lp(6)
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
            other = LinearProgram(lp.c, lp.a_eq, lp.b_eq, a_ub, lp.b_ub)
            binv = np.linalg.inv(other.rows[:, basis.indices])
        assert not np.allclose(binv, basis.binv)
        bad = Basis(basis.indices, binv, basis.reduced_costs, basis.updates)
        for program in (lp, pin_largest(lp, solve_lp(lp).x)):
            with pytest.raises(ArithmeticError, match="rows"):
                solve_lp(program, start=bad)
        # With every variable pinned at zero, A_eq x = A_eq p cannot hold.
        empty = LinearProgram(lp.c, lp.a_eq, lp.b_eq, lp.a_ub, lp.b_ub,
                              np.ones(lp.num_vars, dtype=bool))
        assert solve_lp(empty, start=basis).status is LpStatus.INFEASIBLE
        if corruption != "foreign":
            with pytest.raises(ArithmeticError, match="invert"):
                solve_lp(empty, start=bad)

    def test_wrong_factor_that_keeps_the_point_is_an_error(self):
        # Off by a term that vanishes on b, the inverse still gives the
        # right basic values, and no pivot is needed; the duals it gives do
        # not price the basic columns to zero.
        lp = interior_lp(6)
        basis = solve_lp(lp).basis
        m = lp.rhs.size
        r = lp.rhs
        rng = np.random.default_rng(0)
        v = rng.normal(size=m)
        v -= (v @ r) / (r @ r) * r
        bad = Basis(basis.indices,
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
        lp.pinned[int(np.flatnonzero(res.x > FEASIBILITY_TOL)[0])] = True
        with pytest.raises(ArithmeticError, match="invert"):
            solve_lp(lp, start=bad)

    def test_factor_of_other_dimensions_is_rejected(self):
        lp = interior_lp(7)
        basis = solve_lp(lp).basis
        with pytest.raises(ValueError):
            solve_lp(lp, start=Basis(basis.indices, basis.binv[:-1, :-1],
                                     basis.reduced_costs))


def basis_bytes(basis: Basis) -> list[bytes]:
    return [np.asarray(a).tobytes() for a in
            (basis.indices, basis.binv, basis.reduced_costs)]


def result_bytes(res: LpResult) -> list:
    if res.status is not LpStatus.OPTIMAL:
        return [res.status, res.pivots]
    return [res.status, res.x.tobytes(), res.value, res.pivots,
            res.basis.updates, res.slack_signs.tobytes(), *basis_bytes(res.basis)]


def children(lp: LinearProgram, x: np.ndarray):
    """Two children of the program whose optimum is ``x``, as a branching
    makes: one pins the column farthest above zero at ``x``, the other the
    next one; either may be infeasible."""
    return pin_largest(lp, x), pin_largest(lp, x, rank=1)


class TestSharedStart:
    """Both children of a node resume from the same ``result.basis``; no
    solve writes into a start, so the order of the solves does not matter."""

    # Each child pins a basic column above zero, so both pivot away from
    # the shared start.
    @pytest.mark.parametrize("seed", [3, 7, 8, 10])
    def test_both_children_from_one_start_in_either_order(self, seed):
        lp = interior_lp(seed)
        parent = solve_lp(lp)
        start = parent.basis
        before = basis_bytes(start)
        kids = children(lp, parent.x)
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
            lp = interior_lp(seed, n=40)
            res = solve_lp(lp)
            yield res
            for _ in range(links):
                lp = pin_largest(lp, res.x)
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

        lp = interior_lp(1)
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
    """``lp`` with ``columns`` pinned too."""
    mask = lp.pinned.copy()
    mask[columns] = True
    return LinearProgram(lp.c, lp.a_eq, lp.b_eq, lp.a_ub, lp.b_ub, mask)


class TestPinnedBounds:
    """A lower bound on a program with some columns pinned, read off the
    optimal result of the program without the pins."""

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_one_cut_row_gives_the_first_pivot_objective(self, seed, monkeypatch):
        lp = interior_lp(seed)
        res = solve_lp(lp)
        n = lp.num_vars
        basic = [j for j in res.basis.indices if j < n and res.x[j] > FEASIBILITY_TOL]
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
        lp = interior_lp(seed)
        res = solve_lp(lp)
        rng = np.random.default_rng(seed)
        sets = [np.sort(rng.choice(lp.num_vars, size=int(rng.integers(1, 4)), replace=False))
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
        lp = interior_lp(2)
        res = solve_lp(lp)
        n = lp.num_vars
        rises = 0
        for pos, j in enumerate(res.basis.indices):
            if j >= n or res.x[j] <= FEASIBILITY_TOL:
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
        lp = interior_lp(2)
        res = solve_lp(lp)
        n = lp.num_vars
        j = next(j for j in res.basis.indices
                 if j < n and res.x[j] > FEASIBILITY_TOL
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

    def test_bounds_read_no_pin_mask(self):
        # The bounds read the rows and the result alone, whose slack signs
        # hold the pins it was solved under: on a 4x6 search root, the
        # bound of every single fixing stays put when the mask is rewritten.
        config = read_config_file(DESK_CONFIG)
        frame = generate_frame(dataclasses.replace(config, num_mds=4, num_channels=6,
                                                   rng_seed=1))
        lp = build_relaxation(frame)
        res = solve_lp(lp)
        n, k_n = 24, 6
        sets = [pinned_flows(i, v, k_n, n) for i in range(n) for v in (0, 1)]
        bounds = pinned_bounds(lp, res, sets)
        assert sum(bound > res.value for bound in bounds) >= 10
        for mask in (False, True):
            lp.pinned[:] = mask
            assert pinned_bounds(lp, res, sets) == bounds

    def test_set_that_cuts_nothing_keeps_the_value(self):
        lp = interior_lp(3)
        res = solve_lp(lp)
        nonbasic = [j for j in range(lp.num_vars) if j not in res.basis.indices]
        assert nonbasic
        assert pinned_bounds(lp, res, [np.array(nonbasic), np.array([], dtype=int)]) \
            == [res.value, res.value]
