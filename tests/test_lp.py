import dataclasses
import itertools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mecoffload.lp import (
    _RATIO_TIE_TOL,
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

from conftest import first_pivot_objective, highs_bounds, make_frame

DESK_CONFIG = Path(__file__).resolve().parents[1] / "scripts" / "desk_config.txt"


def enumerate_vertices(lp: LinearProgram) -> list[np.ndarray]:
    """Brute-force vertex oracle: solve every n-subset of tight constraints.

    Collects all constraint hyperplanes (equalities, inequalities at
    equality, each variable at zero), solves each n-choose-n system, and
    keeps the feasible solutions, those nonnegative.  Exponential, fine for
    n <= 4.
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
                and np.all(v >= -1e-9)):
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


def assert_certified(lp: LinearProgram, pins: np.ndarray, res: LpResult) -> None:
    """Check an optimal result of ``lp`` under the pin mask ``pins``
    against its own basis, independently of the solver: rebuild ``[A | I]``
    (equality rows first, one slack per row), solve for the basic values
    with every nonbasic variable at zero, and require ``x`` to be that
    basic solution, every variable to be nonnegative and zero where pinned
    (an equality row's slack among them), and every free nonbasic reduced
    cost to be nonnegative, within :data:`FEASIBILITY_TOL` and
    :data:`OPTIMALITY_TOL`."""
    n = lp.num_vars
    m_eq, m = lp.a_eq.shape[0], lp.a_eq.shape[0] + lp.a_ub.shape[0]
    a = np.hstack([np.vstack([lp.a_eq, lp.a_ub]), np.eye(m)])
    b = np.concatenate([lp.b_eq, lp.b_ub])
    c = np.concatenate([lp.c, np.zeros(m)])
    pinned = np.concatenate([pins, np.ones(m_eq, dtype=bool), np.zeros(m - m_eq, dtype=bool)])
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
        res = solve_lp(LinearProgram(np.array([1.0, 2.0]), **cover), np.array([True, False]))
        assert res.status is LpStatus.OPTIMAL
        assert res.x.tolist() == [0.0, 1.0] and res.value == 2.0

    def test_conflicting_rows_infeasible(self):
        lp = LinearProgram(
            np.array([1.0]),
            a_ub=np.array([[-1.0], [1.0]]),
            b_ub=np.array([-2.0, 1.0]),  # v >= 2 and v <= 1
        )
        with pytest.raises(ArithmeticError, match="no column can enter"):
            solve_lp(lp)

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
    ], ids=["a_eq-columns", "a_ub-columns", "b_eq-rows", "b_ub-rows"])
    def test_dimension_mismatch_rejected(self, data, match):
        # Every array must agree with the two costs and with its rows.
        with pytest.raises(ValueError, match=match):
            LinearProgram(np.array([1.0, 2.0]), **{k: np.array(v) for k, v in data.items()})

    def test_nonfinite_data_rejected(self):
        with pytest.raises(ValueError):
            LinearProgram(np.array([np.nan]))



class TestPinMask:
    """A solve takes its pins as a mask over the program's variables, and
    never writes into it."""

    @pytest.mark.parametrize("mask", [[False, False], [False] * 4, [[False] * 3]],
                             ids=["short", "long", "two-dimensional"])
    def test_mask_of_the_wrong_shape_rejected(self, mask):
        with pytest.raises(ValueError, match="pinned mask"):
            solve_lp(transportation_lp(), np.array(mask))

    def test_mask_is_left_untouched(self):
        # Cold and warm, the mask reads the same bits after the solve; a
        # read-only mask is accepted, so no entry is written either.
        lp = interior_lp(4)
        root = solve_lp(lp)
        mask = pin_largest(None, root.x)
        mask.setflags(write=False)
        before = mask.tobytes()
        for start in (None, root.basis):
            assert solve_lp(lp, mask, start).pivots
            assert mask.tobytes() == before

    def test_interleaved_masks_equal_fresh_solves(self):
        # Solves of one program under different masks, cold and warm and in
        # turn, give bit for bit what each gives on a fresh program.
        lp = interior_lp(8, n=40)
        root = solve_lp(lp)
        masks = [pin_largest(None, root.x, rank)
                 for rank in range(4)]
        masks.append(masks[0] | masks[1])

        def fresh(mask, start):
            other = LinearProgram(lp.c, lp.a_eq, lp.b_eq, lp.a_ub, lp.b_ub)
            return result_bytes(solve_lp(other, mask.copy(), start))

        runs = [(mask, start) for start in (None, root.basis) for mask in masks]
        expected = [fresh(mask, start) for mask, start in runs]
        got = [solve_lp(lp, mask, start) for mask, start in runs]
        assert [result_bytes(res) for res in got] == expected
        assert all(not res.x[mask].any() for res, (mask, _) in zip(got, runs))


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
        permuted = LinearProgram(lp.c[perm], lp.a_eq[:, perm], lp.b_eq, lp.a_ub[:, perm], lp.b_ub)
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


def highs(lp: LinearProgram, pins: np.ndarray):
    """``lp`` under the pin mask ``pins`` solved by HiGHS through scipy,
    the independent oracle."""
    from scipy.optimize import linprog

    return linprog(lp.c, A_ub=lp.a_ub if lp.a_ub.size else None,
                   b_ub=lp.b_ub if lp.a_ub.size else None,
                   A_eq=lp.a_eq if lp.a_eq.size else None,
                   b_eq=lp.b_eq if lp.a_eq.size else None,
                   bounds=highs_bounds(pins), method="highs")


def pin_largest(pins: np.ndarray | None, x: np.ndarray, rank: int = 0) -> np.ndarray:
    """A child's pins: a copy of the mask ``pins`` (None pins none) with
    the column of the ``rank``-th largest value at ``x`` (0 the largest,
    ties to the smaller column) pinned too, which cuts ``x`` off when that
    value is above zero."""
    child = np.zeros(x.size, dtype=bool) if pins is None else pins.copy()
    child[np.argsort(-x, kind="stable")[rank]] = True
    return child


class TestAgainstScipy:
    """Random cross-check against an independent solver."""

    def test_random_instances(self):
        # A program HiGHS finds infeasible is an ArithmeticError, cold and
        # warm.
        rng = np.random.default_rng(123)
        checked = optimal = infeasible = 0
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
            lp = LinearProgram(c, a_eq, b_eq, a_ub, b_ub)
            pins = rng.random(n) < 0.1
            ref = highs(lp, pins)
            # Nonnegative costs over nonnegative variables: never unbounded.
            assert ref.status in (0, 2)
            checked += 1
            if ref.status == 2:
                with pytest.raises(ArithmeticError, match="no column can enter"):
                    solve_lp(lp, pins)
                continue
            mine = solve_lp(lp, pins)
            assert mine.value == pytest.approx(ref.fun, abs=1e-7 * max(1, abs(ref.fun)))
            assert_certified(lp, pins, mine)

            # Warm cases: a chain of three children, each pinning the
            # column farthest above zero at its parent's optimum and
            # re-solved from the parent's optimal basis, as a path down the
            # search tree is.  A parent at zero cannot be cut off.
            for _ in range(3):
                if mine.x.max() <= FEASIBILITY_TOL:
                    break
                child = pin_largest(pins, mine.x)
                ref = highs(lp, child)
                assert ref.status in (0, 2)
                if ref.status == 2:
                    for start in (mine.basis, None):
                        with pytest.raises(ArithmeticError, match="no column can enter"):
                            solve_lp(lp, child, start)
                    infeasible += 1
                    break
                warm = solve_lp(lp, child, mine.basis)
                cold = solve_lp(lp, child)
                tol = 1e-7 * max(1, abs(ref.fun))
                assert warm.value == pytest.approx(cold.value, abs=tol)
                assert warm.value == pytest.approx(ref.fun, abs=tol)
                assert_certified(lp, child, warm)
                assert_certified(lp, child, cold)
                optimal += 1
                pins, mine = child, warm
        assert checked == 150
        # Both ends of the dual simplex ran on warm solves.
        assert optimal > 50
        assert infeasible > 10

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


def assert_repaired(lp: LinearProgram, pins: np.ndarray, start: Basis) -> None:
    """A solve of ``lp`` under ``pins`` from the wrong factor ``start``
    fails its end checks, which one fresh inversion repairs: the answer is
    certified and equals the cold solve and HiGHS."""
    res = solve_lp(lp, pins, start)
    assert res.refactors == 1
    assert_certified(lp, pins, res)
    cold = solve_lp(lp, pins)
    assert cold.refactors == 0
    tol = 1e-9 * max(1.0, abs(cold.value))
    assert res.value == pytest.approx(cold.value, abs=tol)
    ref = highs(lp, pins)
    assert ref.status == 0
    assert res.value == pytest.approx(ref.fun, abs=1e-7 * max(1.0, abs(ref.fun)))


class TestCarriedFactor:
    """Warm starts resume from the factor an optimal solve hands over."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_chain_of_warm_solves_matches_cold_and_highs(self, seed):
        # Each link pins the column farthest above zero at the previous
        # optimum, which cuts it off, and re-solves from its basis, as a
        # path down the search tree does, until more than 74 product-form
        # updates have been carried down the chain.  The inverse is never
        # recomputed: no link needs its end checks repaired.  Each pin
        # takes a column away, so the program is wide enough to stay
        # feasible that long.
        lp = interior_lp(seed, n=40)
        pins = None
        res = solve_lp(lp)
        assert res.refactors == 0
        carried = res.pivots
        while carried <= 74:
            child = pin_largest(pins, res.x)
            warm = solve_lp(lp, child, res.basis)
            cold = solve_lp(lp, child)
            tol = 1e-7 * max(1.0, abs(cold.value))
            assert warm.value == pytest.approx(cold.value, abs=tol)
            ref = highs(lp, child)
            assert ref.status == 0
            assert warm.value == pytest.approx(ref.fun, abs=tol)
            assert_certified(lp, child, warm)
            assert warm.refactors == 0
            carried += warm.pivots
            pins, res = child, warm

    def test_root_and_warm_children_do_not_invert(self, monkeypatch):
        # The root starts from the identity; a child from its parent's
        # factor.  Neither inverts: both pass their end checks.
        import mecoffload.lp as lp_module

        inversions = []
        real_inv = np.linalg.inv

        def counting_inv(matrix):
            inversions.append(matrix.shape)
            return real_inv(matrix)

        monkeypatch.setattr(lp_module.np.linalg, "inv", counting_inv)
        lp = interior_lp(4)
        root = solve_lp(lp)
        child = solve_lp(lp, pin_largest(None, root.x), root.basis)
        assert root.refactors == child.refactors == 0
        assert inversions == []

    def test_basis_without_factor_is_accepted(self):
        # A zeroed factor puts every basic value at zero, so the final
        # point misses the rows; the basis is then inverted afresh from its
        # columns and re-optimised, so a zeroed factor stands in for none.
        lp = interior_lp(5)
        root = solve_lp(lp)
        child = pin_largest(None, root.x)
        bare_start = dataclasses.replace(root.basis, binv=np.zeros_like(root.basis.binv),
                                         reduced_costs=np.zeros_like(root.basis.reduced_costs))
        bare = solve_lp(lp, child, bare_start)
        warm = solve_lp(lp, child, root.basis)
        assert bare.status is LpStatus.OPTIMAL
        assert bare.refactors == 1
        assert bare.value == pytest.approx(warm.value, abs=1e-9)
        assert_certified(lp, child, bare)

    @pytest.mark.parametrize("corruption", ["scaled", "one-entry", "transposed", "foreign"])
    def test_wrong_factor_is_repaired(self, corruption):
        # The final point misses the rows, which the end check detects: the
        # basis is inverted afresh, once, and the repaired answer is
        # certified and equals the cold solve and HiGHS.  Under pins that
        # make the program infeasible, the right factor and a wrong one
        # both end in an error.
        lp = interior_lp(6)
        root = solve_lp(lp)
        basis = root.basis
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
        bad = Basis(basis.indices, binv, basis.reduced_costs)
        for pins in (np.zeros(lp.num_vars, dtype=bool), pin_largest(None, root.x)):
            assert_repaired(lp, pins, bad)
        # With every variable pinned at zero, A_eq x = A_eq p cannot hold.
        for start in (basis, bad):
            with pytest.raises(ArithmeticError):
                solve_lp(lp, np.ones(lp.num_vars, dtype=bool), start)

    def test_wrong_factor_that_keeps_the_point_is_repaired(self):
        # Off by a term that vanishes on b, the inverse still gives the
        # right basic values, and no pivot is needed; the duals it gives do
        # not price the basic columns to zero, which the end check detects
        # and a fresh inverse repairs.
        lp = interior_lp(6)
        basis = solve_lp(lp).basis
        m = lp.rhs.size
        r = lp.rhs
        rng = np.random.default_rng(0)
        v = rng.normal(size=m)
        v -= (v @ r) / (r @ r) * r
        bad = Basis(basis.indices,
                    basis.binv + 0.1 * np.outer(rng.normal(size=m), v),
                    basis.reduced_costs)
        assert_repaired(lp, np.zeros(lp.num_vars, dtype=bool), bad)

    def test_factor_with_a_nan_row_is_an_error(self):
        # A NaN row of the inverse makes the largest violation NaN, and its
        # row admits no entering column, so the solve raises rather than
        # answer.  So on the seed-21 desk frame's relaxation from its own
        # optimal basis, and with one carried flow pinned, as a child's
        # would be.
        cfg = dataclasses.replace(read_config_file(DESK_CONFIG), rng_seed=21)
        lp = build_relaxation(generate_frame(cfg))
        res = solve_lp(lp)
        binv = res.basis.binv.copy()
        binv[0] = np.nan
        bad = dataclasses.replace(res.basis, binv=binv)
        child = np.zeros(lp.num_vars, dtype=bool)
        child[int(np.flatnonzero(res.x > FEASIBILITY_TOL)[0])] = True
        for pins in (None, child):
            with pytest.raises(ArithmeticError, match="no column can enter"):
                solve_lp(lp, pins, bad)

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
    return [res.status, res.x.tobytes(), res.value, res.pivots,
            res.refactors, res.slack_signs.tobytes(), *basis_bytes(res.basis)]


def children(pins: np.ndarray | None, x: np.ndarray):
    """The pins of two children of the program solved to ``x`` under
    ``pins``, as a branching makes: one pins the column farthest above zero
    at ``x``, the other the next one."""
    return pin_largest(pins, x), pin_largest(pins, x, rank=1)


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
        kids = children(None, parent.x)
        runs = {}
        for order in ((0, 1), (1, 0)):
            for k in order:
                runs[order, k] = solve_lp(lp, kids[k], start)
                assert basis_bytes(start) == before
        for k, child in enumerate(kids):
            first, second = runs[(0, 1), k], runs[(1, 0), k]
            assert result_bytes(first) == result_bytes(second)
            cold = solve_lp(lp, child)
            assert first.value == pytest.approx(cold.value, abs=1e-7 * max(1.0, abs(cold.value)))
            assert_certified(lp, child, first)
        assert all(runs[(0, 1), k].pivots for k in (0, 1))

    def test_interleaved_programs(self):
        # Two chains of warm solves down two programs, interleaved, give
        # the same results bit for bit as each chain run alone, and leave
        # every start as it was.
        def chain(seed, links=6):
            lp = interior_lp(seed, n=40)
            pins = None
            res = solve_lp(lp)
            yield res
            for _ in range(links):
                pins = pin_largest(pins, res.x)
                start, before = res.basis, basis_bytes(res.basis)
                res = solve_lp(lp, pins, start)
                assert basis_bytes(start) == before
                yield res

        alone = [[result_bytes(r) for r in chain(seed)] for seed in (8, 9)]
        mixed = [[], []]
        for a, b in zip(chain(8), chain(9)):
            mixed[0].append(result_bytes(a))
            mixed[1].append(result_bytes(b))
        assert mixed == alone


class TestPinnedRows:
    """A warm start whose pins cut off several basic columns at once, as an
    up child's do, leaves with every one of them, not only the first.  The
    solver's own end checks do not test that pinned columns rest at zero,
    so these answers are held to their basis, the cold solve and HiGHS."""

    @staticmethod
    def assert_matches(lp, pins, start):
        warm = solve_lp(lp, pins, start)
        assert warm.refactors == 0
        assert_certified(lp, pins, warm)
        assert np.all(warm.x[pins] == 0.0)
        cold = solve_lp(lp, pins)
        tol = 1e-7 * max(1.0, abs(cold.value))
        assert warm.value == pytest.approx(cold.value, abs=tol)
        ref = highs(lp, pins)
        assert ref.status == 0
        assert warm.value == pytest.approx(ref.fun, abs=tol)

    @pytest.mark.parametrize("seed, cut", [(3, 2), (7, 3), (8, 2), (9, 4)])
    def test_several_columns_cut_off_at_once(self, seed, cut):
        lp = interior_lp(seed)
        parent = solve_lp(lp)
        pins = np.zeros(lp.num_vars, dtype=bool)
        pins[np.argsort(-parent.x, kind="stable")[:cut]] = True
        assert np.count_nonzero(parent.x[pins] > FEASIBILITY_TOL) == cut
        self.assert_matches(lp, pins, parent.basis)

    @pytest.mark.parametrize("s_n, k_n, seed", [(3, 5, 201), (4, 6, 203), (4, 6, 1)])
    def test_up_children_of_a_node_relaxation(self, s_n, k_n, seed):
        # Every up child of the root whose pins cut off two or more basic
        # flows, each from the root's basis.
        lp = build_relaxation(make_frame(num_mds=s_n, num_channels=k_n, seed=seed))
        root = solve_lp(lp)
        checked = 0
        for index in range(s_n * k_n):
            pins = np.zeros(lp.num_vars, dtype=bool)
            pins[pinned_flows(index, 1, k_n, s_n * k_n)] = True
            if np.count_nonzero(root.x[pins] > FEASIBILITY_TOL) >= 2:
                self.assert_matches(lp, pins, root.basis)
                checked += 1
        assert checked


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


class TestRatioTie:
    # One equality row, v0 + 2 v1 = 1, leaves the all-slack start through
    # its pinned slack, and both columns may enter.  Their ratios, cost
    # over pivot entry, are 0.25 for v0 and 0.25 + gap for v1; the costs
    # are already in the cost unit, their largest in [0.5, 1).
    @pytest.mark.parametrize("gap, entering", [
        (_RATIO_TIE_TOL / 4, 1),   # a tie: the larger pivot entry enters
        (_RATIO_TIE_TOL * 4, 0),   # no tie: the least ratio enters
    ])
    def test_a_tie_enters_the_larger_pivot_entry(self, gap, entering):
        lp = LinearProgram(np.array([0.25, 0.5 + 2 * gap]), np.array([[1.0, 2.0]]), [1.0])
        assert lp.cost_scale == 1.0
        res = solve_lp(lp)
        assert res.pivots == 1
        assert list(res.basis.indices) == [entering]
        assert res.x.tolist() == ([1.0, 0.0] if entering == 0 else [0.0, 0.5])


def pins_of(lp: LinearProgram, columns) -> np.ndarray:
    """The mask over ``lp``'s variables that pins ``columns``."""
    mask = np.zeros(lp.num_vars, dtype=bool)
    mask[columns] = True
    return mask


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
            if bound > res.value:
                raised += 1
                assert bound == pytest.approx(
                    first_pivot_objective(lp, pins_of(lp, [j]), res.basis, monkeypatch),
                    rel=1e-12, abs=0.0)
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
            try:
                child = solve_lp(lp, pins_of(lp, pins))
            except ArithmeticError:
                assert highs(lp, pins_of(lp, pins)).status == 2
                continue
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
            child = solve_lp(lp, pins_of(lp, [j, entering]))
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

    def test_set_that_cuts_nothing_keeps_the_value(self):
        lp = interior_lp(3)
        res = solve_lp(lp)
        nonbasic = [j for j in range(lp.num_vars) if j not in res.basis.indices]
        assert nonbasic
        assert pinned_bounds(lp, res, [np.array(nonbasic), np.array([], dtype=int)]) \
            == [res.value, res.value]
