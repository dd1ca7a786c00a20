import numpy as np
import pytest

from mecoffload.bnb import NodeAction, solve_bnb, solve_exhaustive
from mecoffload.lp import LpResult, LpStatus, solve_lp
from mecoffload.relax import build_relaxation, extract_solution, solve_split
from mecoffload.scenario import Assignment, energy, objective

from conftest import make_frame, make_uniform_frame, node_upper


def closed_form_single_pair(frame):
    task, p, r = frame.task_bits[0], frame.powers_w[0], frame.rates_bps[0, 0]
    cfg = frame.config
    return cfg.lambda_t * task / r + cfg.lambda_e * p * task / r


def free_node(n):
    """The fixing vector of the root: all ``n`` indicators free."""
    return np.full(n, -1, dtype=np.int8)


def set_node(lp, frame, fixed):
    """Give ``lp``, a relaxation of ``frame`` from :func:`build_relaxation`,
    the flow bounds of the node with fixing vector ``fixed``; returns it."""
    lp.upper[:-1] = node_upper(fixed, frame.num_mds, frame.num_channels).ravel()
    return lp


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


def highs_lp(lp):
    """The optimal value of a :class:`LinearProgram` by HiGHS, or None if it
    is infeasible: an oracle independent of the hand-written simplex."""
    from scipy.optimize import linprog

    ref = linprog(lp.c, A_ub=lp.a_ub, b_ub=lp.b_ub, A_eq=lp.a_eq, b_eq=lp.b_eq,
                  bounds=list(zip(lp.lower, np.where(np.isfinite(lp.upper),
                                                     lp.upper, None))),
                  method="highs")
    assert ref.status in (0, 2)
    return ref.fun if ref.status == 0 else None


def highs_split_psi(frame, x):
    """Optimal cost at a fixed binary ``x`` from HiGHS, with the split
    problem written as an LP over the active pairs' splits and tau: each
    device sends its task in full, and each channel's time is at most tau.
    Splits are in units of the largest task and times in units of that
    task's time on the fastest rate, so every coefficient is O(1)."""
    from scipy.optimize import linprog

    active = np.argwhere(x == 1)
    scale = float(frame.task_bits.max())
    time_unit = scale / float(frame.rates_bps.max())
    per_unit = scale / frame.rates_bps / time_unit   # time units per split unit
    cfg = frame.config
    n_act = len(active)
    c = np.zeros(n_act + 1)
    a_eq = np.zeros((frame.num_mds, n_act + 1))
    a_ub = np.zeros((n_act, n_act + 1))
    for j, (s, k) in enumerate(active):
        c[j] = cfg.lambda_e * frame.powers_w[s] * per_unit[s, k]
        a_eq[s, j] = 1.0
        a_ub[j, j] = per_unit[s, k]
        a_ub[j, -1] = -1.0
    c[-1] = cfg.lambda_t
    res = linprog(c, A_ub=a_ub, b_ub=np.zeros(n_act), A_eq=a_eq,
                  b_eq=frame.task_bits / scale, bounds=(0, None), method="highs")
    assert res.status == 0, res.message
    return res.fun * time_unit


def highs_lifted_psi(frame, fixed):
    """Optimal value of the node with fixing vector ``fixed`` by HiGHS on
    the lifted formulation that the node LP projects, or None if it is
    infeasible.  Its variables are [x, y, tau]: indicators next to the
    flows, exclusivity over x, the coupling cuts y <= L*x, and fixings as
    bounds on x.  Units as in :func:`build_relaxation`."""
    from scipy.optimize import linprog

    s_n, k_n = frame.num_mds, frame.num_channels
    n = s_n * k_n
    scale = float(frame.task_bits.max())
    tasks = frame.task_bits / scale
    inv_rates = (scale / frame.rates_bps).ravel()
    cfg = frame.config
    energy = cfg.lambda_e * np.repeat(frame.powers_w, k_n) * inv_rates
    c = np.concatenate([np.zeros(n), energy, [cfg.lambda_t]])
    a_eq = np.hstack([np.zeros((s_n, n)), np.kron(np.eye(s_n), np.ones(k_n)),
                      np.zeros((s_n, 1))])
    per_channel = np.tile(np.eye(k_n), s_n)     # row k sums the column s*K + k
    a_ub = np.vstack([
        np.hstack([per_channel, np.zeros((k_n, n + 1))]),
        np.hstack([-np.diag(np.repeat(tasks, k_n)), np.eye(n), np.zeros((n, 1))]),
        np.hstack([np.zeros((k_n, n)), per_channel * inv_rates, -np.ones((k_n, 1))]),
    ])
    b_ub = np.concatenate([np.ones(k_n), np.zeros(n + k_n)])
    bounds = [(0, 1) if v < 0 else (int(v), int(v)) for v in fixed]
    bounds += [(0, None)] * (n + 1)
    ref = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=tasks, bounds=bounds,
                  method="highs")
    assert ref.status in (0, 2)
    return ref.fun if ref.status == 0 else None


def random_node(rng, s_n, k_n):
    """The fixing vector of a node fixing a random number of indicators,
    each channel fixed to at most one device as in the search; some leave a
    device no channel."""
    n = s_n * k_n
    fixed = free_node(n)
    owned = set()
    for i in rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False):
        k = int(i) % k_n
        up = k not in owned and rng.random() < 0.4
        if up:
            owned.add(k)
        fixed[i] = 1 if up else 0
    return fixed


def assert_split_invariants(frame, x, sol):
    """A returned split sends every task in full, only over active pairs,
    never below zero, and costs exactly the reported psi; when latency is
    priced, the time psi charges covers every channel."""
    split = sol.split_bits
    assert np.allclose(split.sum(axis=1), frame.task_bits, rtol=1e-12, atol=0.0)
    assert np.all(split[x == 0] == 0.0)
    assert np.all(split >= 0.0)
    a = Assignment(x.astype(float), split)
    assert objective(frame, a) == pytest.approx(sol.psi, rel=1e-12)
    cfg = frame.config
    if cfg.lambda_t > 0:
        tau = (sol.psi - cfg.lambda_e * energy(frame, a)) / cfg.lambda_t
        assert np.all(split / frame.rates_bps <= tau * (1 + 1e-9))


def split_cases():
    """(frame, map seed) pairs: six 2x3 frames, random frames up to
    4x6 under latency-only, energy-only and mixed weights, and frames whose
    rates all tie."""
    for seed in range(6):
        yield pytest.param(make_frame(num_mds=2, num_channels=3, seed=seed), seed + 100,
                           id=str(seed))
    weights = [(1.0, 0.25), (0.0, 1.0), (1.0, 0.0), (1.0, 5.0), (0.01, 1.0)]
    for s_n, k_n in [(1, 4), (3, 5), (4, 6)]:
        for lt, le in weights:
            frame = make_frame(num_mds=s_n, num_channels=k_n, seed=40 + s_n * k_n,
                               lambda_t=lt, lambda_e=le)
            yield pytest.param(frame, s_n * k_n, id=f"{s_n}x{k_n}-weights-{lt}-{le}")
    for s_n, k_n, lt, le in [(2, 5, 1.0, 0.25), (3, 5, 0.0, 1.0), (4, 6, 1.0, 0.0),
                             (4, 6, 1.0, 0.25)]:
        frame = make_uniform_frame(s_n, k_n, gain=0.5, lambda_t=lt, lambda_e=le)
        yield pytest.param(frame, 7, id=f"uniform-{s_n}x{k_n}-weights-{lt}-{le}")


class TestBuildRelaxation:
    def test_fully_determined_instance(self):
        frame = make_frame(num_mds=1, num_channels=1, seed=2)
        lp = build_relaxation(frame)
        assert lp.num_vars == 2  # one flow and one epigraph variable
        result = solve_lp(lp)
        assert result.status is LpStatus.OPTIMAL
        assert result.value == pytest.approx(closed_form_single_pair(frame), rel=1e-9)
        sol = extract_solution(frame, result, free_node(1))
        assert sol.integral
        assert sol.first_fractional is None
        assert sol.split_bits[0] == pytest.approx(frame.task_bits[0], rel=1e-9)

    @pytest.mark.parametrize("frame, map_seed", split_cases())
    def test_fixed_binary_matches_split_oracle(self, frame, map_seed):
        # The node LP at pinned x and HiGHS on the split LP are two
        # references independent of the closed form.
        rng = np.random.default_rng(map_seed)
        for _ in range(4):
            x = random_feasible_indicator(frame, rng)
            fixed = x.ravel().astype(np.int8)
            lp_value = solve_lp(set_node(build_relaxation(frame), frame, fixed)).value
            oracle = solve_split(frame, x)
            assert lp_value == pytest.approx(oracle.psi, rel=1e-9)
            assert highs_split_psi(frame, x) == pytest.approx(oracle.psi, rel=1e-9)
            assert_split_invariants(frame, x, oracle)

    def test_device_with_all_channels_off_is_infeasible(self):
        frame = make_frame(num_mds=2, num_channels=3, seed=4)
        fixed = np.array([0, 0, 0, -1, -1, -1], dtype=np.int8)  # device 0 fully disabled
        lp = set_node(build_relaxation(frame), frame, fixed)
        assert solve_lp(lp).status is LpStatus.INFEASIBLE

    def test_root_feasibility_matches_pigeonhole(self):
        # Feasible iff there are at least as many channels as devices.
        feasible = make_frame(num_mds=3, num_channels=3, seed=5)
        infeasible = make_frame(num_mds=3, num_channels=2, seed=5)
        assert solve_lp(build_relaxation(feasible)).status is LpStatus.OPTIMAL
        assert solve_lp(build_relaxation(infeasible)).status is LpStatus.INFEASIBLE


class TestWarmStart:
    def test_children_of_the_root_match_cold_solves(self):
        # A solve from the parent's basis against one from the slack basis
        # (the same simplex) and against HiGHS (an independent one).
        frame = make_frame(num_mds=3, num_channels=4, seed=13)
        lp = build_relaxation(frame)
        root = solve_lp(lp)
        for i in range(12):
            for value in (0, 1):
                fixed = free_node(12)
                fixed[i] = value
                warm = solve_lp(set_node(lp, frame, fixed), start=root.basis)
                cold = solve_lp(set_node(build_relaxation(frame), frame, fixed))
                ref = highs_lp(lp)
                assert warm.status is cold.status
                assert (ref is None) == (warm.status is LpStatus.INFEASIBLE)
                if cold.status is LpStatus.OPTIMAL:
                    assert warm.value == pytest.approx(cold.value, rel=1e-9)
                    assert warm.value == pytest.approx(ref, rel=1e-9)

    def test_device_with_all_channels_off_is_infeasible_from_root_basis(self):
        # The search itself rarely meets an infeasible child, so this is
        # where the dual simplex's infeasibility exit is exercised on a
        # node LP.
        frame = make_frame(num_mds=3, num_channels=4, seed=4)
        lp = build_relaxation(frame)
        root = solve_lp(lp)
        fixed = free_node(12)
        fixed[:4] = 0  # device 0 fully disabled
        set_node(lp, frame, fixed)
        warm = solve_lp(lp, start=root.basis)
        assert warm.status is LpStatus.INFEASIBLE
        assert warm.pivots > 0
        assert highs_lp(lp) is None


class TestAgainstLiftedLp:
    @pytest.mark.parametrize("s_n, k_n, seed", [(3, 5, 201), (3, 5, 14), (4, 6, 203),
                                                 (4, 6, 1030)])
    def test_projection_keeps_every_node_bound(self, s_n, k_n, seed):
        # The projected node LP, solved cold and from the root's basis by
        # the hand-written simplex, against HiGHS on the lifted one.
        frame = make_frame(num_mds=s_n, num_channels=k_n, seed=seed)
        rng = np.random.default_rng(seed)
        lp = build_relaxation(frame)
        root = solve_lp(lp)
        assert root.value == pytest.approx(highs_lifted_psi(frame, free_node(s_n * k_n)),
                                           rel=1e-9)
        infeasible = 0
        for _ in range(40):
            fixed = random_node(rng, s_n, k_n)
            set_node(lp, frame, fixed)
            cold, warm = solve_lp(lp), solve_lp(lp, start=root.basis)
            ref = highs_lifted_psi(frame, fixed)
            assert cold.status is warm.status
            assert (ref is None) == (cold.status is LpStatus.INFEASIBLE)
            if ref is None:
                infeasible += 1
            else:
                assert cold.value == pytest.approx(ref, rel=1e-9)
                assert warm.value == pytest.approx(ref, rel=1e-9)
        assert 0 < infeasible < 40


class TestExtractSolution:
    def test_requires_optimal_status(self, small_frame):
        with pytest.raises(ValueError):
            extract_solution(small_frame, LpResult(LpStatus.INFEASIBLE), free_node(6))

    @staticmethod
    def point(frame, shares):
        """An LP point [y, tau] whose flows send the given shares of each
        device's task, in the LP's units (the largest task is 1)."""
        tasks = frame.task_bits / frame.task_bits.max()
        return np.append((np.asarray(shares) * tasks[:, None]).ravel(), 0.0)

    def test_first_fractional_is_smallest_index(self, small_frame):
        # Channel 0 is device 0's alone, channel 1 carries both devices and
        # channel 2 device 1 alone: index 0 is fractional but private, so
        # the first device with flow on channel 1 is branched.
        shares = [[0.5, 0.5, 0.0], [0.0, 0.25, 0.75]]
        v = self.point(small_frame, shares)
        sol = extract_solution(small_frame, LpResult(LpStatus.OPTIMAL, v, 0.5), free_node(6))
        assert not sol.integral
        assert sol.first_fractional == 1
        assert np.allclose(sol.x, np.ravel(shares), rtol=1e-12)

    def test_single_owner_channels_are_a_leaf(self, small_frame):
        # Device 0 splits its task over channels 0 and 1, device 1 sends all
        # of its task on channel 2: no channel is shared, so the point is
        # a leaf whose indicators are its support.
        shares = [[0.3, 0.7, 0.0], [0.0, 0.0, 1.0]]
        v = self.point(small_frame, shares)
        sol = extract_solution(small_frame, LpResult(LpStatus.OPTIMAL, v, 0.5), free_node(6))
        assert sol.integral
        assert sol.first_fractional is None
        assert np.array_equal(sol.x, [1.0, 1.0, 0.0, 0.0, 0.0, 1.0])
        assert np.allclose(sol.split_bits.reshape(2, 3).sum(axis=1),
                           small_frame.task_bits, rtol=1e-12)

    def test_up_fixed_indicator_reads_one(self):
        # Device 1 holds channel 3 by a fixing but sends nothing on it.
        frame = make_frame(num_mds=2, num_channels=4, seed=11)
        fixed = free_node(8)
        fixed[7] = 1
        leaf = self.point(frame, [[0.4, 0.6, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]])
        sol = extract_solution(frame, LpResult(LpStatus.OPTIMAL, leaf, 0.5), fixed)
        assert sol.integral
        assert np.array_equal(sol.x, [1, 1, 0, 0, 0, 0, 1, 1])
        # Off a leaf too: channel 0 is shared, device 1 holds channel 3.
        inner = self.point(frame, [[0.4, 0.6, 0.0, 0.0], [0.5, 0.0, 0.0, 0.5]])
        sol = extract_solution(frame, LpResult(LpStatus.OPTIMAL, inner, 0.5), fixed)
        assert sol.first_fractional == 0
        assert sol.x[7] == 1.0

    def test_root_bound_below_exhaustive_optimum(self):
        for seed in range(5):
            frame = make_frame(num_mds=2, num_channels=3, seed=seed)
            root = solve_lp(build_relaxation(frame))
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

    def test_tied_rates_fill_lowest_channel_first(self):
        # Device 0's lone channel sets tau = L/r, at which device 1's first
        # channel alone carries its task: of four tied channels, the one
        # with the smallest index.
        frame = make_uniform_frame(2, 5)
        x = np.zeros((2, 5), dtype=int)
        x[0, 0] = 1
        x[1, 1:] = 1
        sol = solve_split(frame, x)
        assert sol.split_bits[1, 1] == pytest.approx(frame.task_bits[1], rel=1e-12)
        assert np.all(sol.split_bits[1, 2:] <= 1e-12 * frame.task_bits[1])

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
            if rec.parent_id is None or rec.action is NodeAction.PRUNED_INFEASIBLE:
                continue
            parent = by_id[rec.parent_id]
            assert rec.psi >= parent.psi - 1e-9
