import numpy as np
import pytest

from mecoffload.bnb import solve_bnb, solve_exhaustive
from mecoffload.lp import LpResult, LpStatus, solve_lp
from mecoffload.relax import (
    build_relaxation,
    extract_solution,
    set_node_bounds,
    solve_split,
    validate_node_constraints,
)

from conftest import make_frame, make_uniform_frame


def closed_form_single_pair(frame):
    task, p, r = frame.task_bits[0], frame.powers_w[0], frame.rates_bps[0, 0]
    cfg = frame.config
    return cfg.lambda_t * task / r + cfg.lambda_e * p * task / r


def random_feasible_indicator(frame, rng):
    """Each channel idle or owned by one device; every device covered."""
    s_n, k_n = frame.num_mds, frame.num_channels
    while True:
        owners = rng.integers(0, s_n + 1, size=k_n)
        present = set(owners[owners > 0])
        if len(present) == s_n:
            break
    x = np.zeros((s_n, k_n), dtype=int)
    for k, owner in enumerate(owners):
        if owner > 0:
            x[owner - 1, k] = 1
    return x


class TestBuildRelaxation:
    def test_fully_determined_instance(self):
        frame = make_frame(num_mds=1, num_channels=1, seed=2)
        lp = build_relaxation(frame, {})
        assert lp.num_vars == 3  # one indicator, one flow, one epigraph var
        result = solve_lp(lp)
        assert result.status is LpStatus.OPTIMAL
        assert result.value == pytest.approx(closed_form_single_pair(frame), rel=1e-9)
        sol = extract_solution(frame, result)
        assert sol.integral
        assert sol.first_fractional is None
        assert sol.split_bits[0] == pytest.approx(frame.task_bits[0], rel=1e-9)

    @pytest.mark.parametrize("seed", range(6))
    def test_fixed_binary_matches_split_oracle(self, seed):
        frame = make_frame(num_mds=2, num_channels=3, seed=seed)
        rng = np.random.default_rng(seed + 100)
        x = random_feasible_indicator(frame, rng)
        nc = {i: (int(v), int(v)) for i, v in enumerate(x.ravel())}
        lp_value = solve_lp(build_relaxation(frame, nc)).value
        oracle = solve_split(frame, x)
        assert lp_value == pytest.approx(oracle.psi, rel=1e-8)

    def test_device_with_all_channels_off_is_infeasible(self):
        frame = make_frame(num_mds=2, num_channels=3, seed=4)
        nc = {i: (0, 0) for i in range(3)}  # device 0 fully disabled
        assert solve_lp(build_relaxation(frame, nc)).status is LpStatus.INFEASIBLE

    def test_root_feasibility_matches_pigeonhole(self):
        # Feasible iff there are at least as many channels as devices.
        feasible = make_frame(num_mds=3, num_channels=3, seed=5)
        infeasible = make_frame(num_mds=3, num_channels=2, seed=5)
        assert solve_lp(build_relaxation(feasible, {})).status is LpStatus.OPTIMAL
        assert solve_lp(build_relaxation(infeasible, {})).status is LpStatus.INFEASIBLE

    def test_constraint_validation(self):
        frame = make_frame(seed=1)
        with pytest.raises(ValueError):
            build_relaxation(frame, {99: (0, 0)})
        with pytest.raises(ValueError):
            validate_node_constraints({0: (1, 0)}, 6)


class TestWarmStart:
    def test_set_node_bounds_matches_a_fresh_build(self):
        frame = make_frame(num_mds=2, num_channels=3, seed=3)
        lp = build_relaxation(frame, {0: (1, 1), 4: (0, 0)})
        set_node_bounds(lp, {2: (0, 0)})
        fresh = build_relaxation(frame, {2: (0, 0)})
        assert np.array_equal(lp.lower, fresh.lower)
        assert np.array_equal(lp.upper, fresh.upper)

    def test_children_of_the_root_match_cold_solves(self):
        frame = make_frame(num_mds=3, num_channels=4, seed=13)
        lp = build_relaxation(frame, {})
        root = solve_lp(lp)
        for i in range(12):
            for value in (0, 1):
                set_node_bounds(lp, {i: (value, value)})
                warm = solve_lp(lp, start=root.basis)
                cold = solve_lp(build_relaxation(frame, {i: (value, value)}))
                assert warm.status is cold.status
                if cold.status is LpStatus.OPTIMAL:
                    assert warm.value == pytest.approx(cold.value, rel=1e-9)

    def test_device_with_all_channels_off_is_infeasible_from_root_basis(self):
        # The search itself rarely meets an infeasible child, so this is
        # where the dual simplex's infeasibility exit is exercised on a
        # node LP.
        frame = make_frame(num_mds=3, num_channels=4, seed=4)
        lp = build_relaxation(frame, {})
        root = solve_lp(lp)
        set_node_bounds(lp, {i: (0, 0) for i in range(4)})  # device 0 fully disabled
        warm = solve_lp(lp, start=root.basis)
        assert warm.status is LpStatus.INFEASIBLE
        assert warm.pivots > 0


class TestExtractSolution:
    def test_requires_optimal_status(self, small_frame):
        with pytest.raises(ValueError):
            extract_solution(small_frame, LpResult(LpStatus.INFEASIBLE))

    def test_first_fractional_is_smallest_index(self, small_frame):
        n = small_frame.num_mds * small_frame.num_channels
        v = np.concatenate([np.full(n, 0.5), np.zeros(n), [0.0]])
        sol = extract_solution(small_frame, LpResult(LpStatus.OPTIMAL, v, 0.5))
        assert not sol.integral
        assert sol.first_fractional == 0

    def test_root_bound_below_exhaustive_optimum(self):
        for seed in range(5):
            frame = make_frame(num_mds=2, num_channels=3, seed=seed)
            root = solve_lp(build_relaxation(frame, {}))
            best = solve_exhaustive(frame)
            assert root.value <= best.best_psi + 1e-9


class TestSolveSplit:
    def test_equal_rates_split_evenly(self):
        frame = make_uniform_frame(1, 2, lambda_t=1.0, lambda_e=0.25)
        x = np.ones((1, 2), dtype=int)
        sol = solve_split(frame, x)
        task, p, r = frame.task_bits[0], frame.powers_w[0], frame.rates_bps[0, 0]
        # Latency forces an even split; energy is split-invariant here.
        assert np.allclose(sol.split_bits, task / 2, rtol=1e-8)
        expected = 1.0 * task / (2 * r) + 0.25 * p * task / r
        assert sol.psi == pytest.approx(expected, rel=1e-9)

    def test_uncovered_device_infeasible(self):
        frame = make_frame(num_mds=2, num_channels=3, seed=8)
        x = np.zeros((2, 3), dtype=int)
        x[0, 0] = 1
        assert solve_split(frame, x) is None

    def test_private_channels_have_no_freedom(self):
        frame = make_frame(num_mds=2, num_channels=3, seed=9)
        x = np.zeros((2, 3), dtype=int)
        x[0, 1] = 1
        x[1, 2] = 1
        sol = solve_split(frame, x)
        assert sol.split_bits[0, 1] == pytest.approx(frame.task_bits[0], rel=1e-9)
        assert sol.split_bits[1, 2] == pytest.approx(frame.task_bits[1], rel=1e-9)
        cfg = frame.config
        t = max(frame.task_bits[0] / frame.rates_bps[0, 1],
                frame.task_bits[1] / frame.rates_bps[1, 2])
        e = (frame.powers_w[0] * frame.task_bits[0] / frame.rates_bps[0, 1]
             + frame.powers_w[1] * frame.task_bits[1] / frame.rates_bps[1, 2])
        assert sol.psi == pytest.approx(cfg.lambda_t * t + cfg.lambda_e * e, rel=1e-9)

    def test_rejects_invalid_indicators(self):
        frame = make_frame(num_mds=2, num_channels=3, seed=10)
        shared = np.zeros((2, 3), dtype=int)
        shared[:, 0] = 1
        with pytest.raises(ValueError):
            solve_split(frame, shared)
        with pytest.raises(ValueError):
            solve_split(frame, np.full((2, 3), 0.5))


class TestTreeBoundProperties:
    def test_child_bound_dominates_parent(self):
        # Bound tightening can only raise a child's relaxation value.
        frame = make_frame(num_mds=2, num_channels=3, seed=12)
        report = solve_bnb(frame)
        by_id = {rec.node_id: rec for rec in report.trace}
        for rec in report.trace:
            if rec.parent_id is None or not rec.feasible_flag:
                continue
            parent = by_id[rec.parent_id]
            assert rec.psi >= parent.psi - 1e-9
