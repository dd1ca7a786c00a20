import heapq
import itertools
from dataclasses import fields, replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mecoffload import bnb as bnb_module
from mecoffload import relax as relax_module
from mecoffload.bnb import (
    BudgetExceededError,
    Node,
    NodeAction,
    SolveStatus,
    branch,
    child,
    solve_bnb,
    solve_exhaustive,
    write_trace_csv,
)
from mecoffload.dataset import label_trace
from mecoffload.lp import (
    FEASIBILITY_TOL,
    pinned_bounds,
    solve_lp,
)
from mecoffload.relax import node_arrays, solve_split
from mecoffload.scenario import Scenario, ScenarioConfig, rate
from oracle import OBJECTIVE_RTOL, assignment_faults, milp_optimum, recompute_objective

from conftest import (
    covering_maps,
    eager_node_arrays,
    first_pivot_objective,
    frame_args,
    make_frame,
    make_uniform_frame,
    node_pinned,
    same_bits,
)


class TestBranch:
    # Nodes of a frame with 3 devices and K = 4 channels.  ``branch`` checks
    # a split once, when the search pushes both children; ``child`` builds
    # the one the search pops.
    def _root(self, s_n=3, k_n=4):
        return Node(0, 0, None, np.full(s_n * k_n, -1, dtype=np.int8))

    def test_fractional_value_splits_to_unit_bounds(self):
        root = self._root()
        assert branch(root, 3, num_channels=4) is None
        down, up = child(root, 3, 0, node_id=1), child(root, 3, 1, node_id=2)
        assert down.fixed.dtype == up.fixed.dtype == np.int8
        assert down.fixed.tolist() == [-1, -1, -1, 0] + [-1] * 8
        assert up.fixed.tolist() == [-1, -1, -1, 1] + [-1] * 8
        assert down.depth == up.depth == 1
        assert (down.node_id, up.node_id) == (1, 2)
        assert down.parent_id == up.parent_id == 0
        assert root.fixed.tolist() == [-1] * 12

    def test_fixed_index_rejected(self):
        for value in (0, 1):
            parent = child(self._root(), 2, value, node_id=1)
            with pytest.raises(ValueError, match="already fixed"):
                branch(parent, 2, num_channels=4)

    def test_owned_channel_rejected(self):
        # Device 0 holds channel 1, so device 2 may not branch on it.
        up = child(self._root(), 1, 1, node_id=2)
        with pytest.raises(ValueError, match="channel 1 of indicator 9 is already owned"):
            branch(up, 2 * 4 + 1, num_channels=4)

    def test_out_of_range_index_rejected(self):
        for index in (-1, 12):
            with pytest.raises(ValueError, match="out of range"):
                branch(self._root(), index, num_channels=4)

    def test_children_extend_parent_by_one_override(self):
        parent = child(self._root(), 0, 0, node_id=1)
        branch(parent, 4, num_channels=4)
        down, up = child(parent, 4, 0, node_id=5), child(parent, 4, 1, node_id=6)
        assert parent.fixed.tolist() == [0] + [-1] * 11
        for node, value in ((down, 0), (up, 1)):
            assert np.flatnonzero(node.fixed != parent.fixed).tolist() == [4]
            assert node.fixed[4] == value
            assert not np.shares_memory(node.fixed, parent.fixed)


#: Sizes and gains of frames whose devices and channels are all identical:
#: ties in every bound, branching choice and channel map.
TIE_FRAMES = [(2, 3, 1.0), (3, 3, 1.0), (2, 5, 1.0), (3, 4, 0.5), (3, 5, 1.0)]


def random_small_frame(case):
    rng = np.random.default_rng(case)
    s_n = int(rng.integers(2, 4))
    k_n = int(rng.integers(3, 6))
    return make_frame(num_mds=s_n, num_channels=k_n, seed=1000 + case)


class TestSolveBnb:
    def test_single_pair_closed_form(self):
        frame = make_frame(num_mds=1, num_channels=1, seed=3)
        report = solve_bnb(frame)
        assert report.status is SolveStatus.OPTIMAL
        task, p, r = frame.task_bits[0], frame.powers_w[0], frame.rates_bps[0, 0]
        cfg = frame.config
        expected = cfg.lambda_t * task / r + cfg.lambda_e * p * task / r
        assert report.best_psi == pytest.approx(expected, rel=1e-9)
        assert max(rec.depth for rec in report.trace) <= 1

    @pytest.mark.parametrize("gated", [False, True], ids=["exact", "gated"])
    @pytest.mark.parametrize("s_n, k_n", [(2, 1), (4, 3), (6, 5)])
    def test_more_devices_than_channels_infeasible(self, gated, s_n, k_n, monkeypatch):
        # No channel map covers every device: the search answers up front,
        # with no LP solved, no gate asked and nothing to reopen.
        calls = []
        gate = (lambda rec, _: calls.append(rec) or False) if gated else None
        monkeypatch.setattr(bnb_module, "solve_lp",
                            lambda lp, pinned=None, start=None: calls.append(lp))
        report = solve_bnb(make_frame(num_mds=s_n, num_channels=k_n, seed=4), gate=gate)
        assert report.status is SolveStatus.INFEASIBLE
        assert report.best_x is None and report.best_psi is None
        assert calls == []
        assert report.trace == []
        assert report.nodes_searched == report.nodes_unsolved == 0
        assert report.lp_pivots == report.lp_refactors == 0
        assert not report.fell_back_to_exact

    @given(s_n=st.integers(2, 5), extra=st.integers(0, 2), seed=st.integers(0, 10_000),
           lambda_e=st.sampled_from([0.0, 0.25]), gated=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_every_node_of_a_covering_frame_is_feasible(self, s_n, extra, seed,
                                                         lambda_e, gated):
        # At S = K and S < K, from 2x2 to 5x6 (5x7 is capped to 5x6), the
        # search ends optimal, every traced node was solved to an optimum
        # and carries flows, and the answer is the exhaustive optimum;
        # under a gate that rejects every node too, which then reopens.
        k_n = min(s_n + extra, 6)
        frame = make_frame(num_mds=s_n, num_channels=k_n, seed=seed, lambda_e=lambda_e)
        gate = (lambda rec, _: False) if gated else None
        report = solve_bnb(frame, gate=gate)
        assert report.status is SolveStatus.OPTIMAL
        assert report.trace
        for rec in report.trace:
            assert rec.flows is not None and np.isfinite(rec.psi)
            assert rec.action in (NodeAction.BRANCHED, NodeAction.PRUNED_BY_BOUND,
                                  NodeAction.NEW_INCUMBENT)
        assert report.best_psi == pytest.approx(solve_exhaustive(frame).best_psi,
                                                rel=OBJECTIVE_RTOL)

    @pytest.mark.parametrize("frame", [
        *(pytest.param(random_small_frame(case), id=str(case)) for case in range(30)),
        # Identical rates everywhere: ties in every bound and branching choice.
        *(pytest.param(make_uniform_frame(s_n, k_n, gain=gain), id=f"uniform-{s_n}x{k_n}")
          for s_n, k_n, gain in TIE_FRAMES),
        # The size of the benchmark's bnb frames: 1 560 full maps.
        *(pytest.param(make_frame(num_mds=4, num_channels=6, seed=1000 + case),
                       id=f"4x6-{case}") for case in (30, 31)),
    ])
    def test_matches_exhaustive_oracle(self, frame):
        bnb = solve_bnb(frame)
        oracle = solve_exhaustive(frame)
        assert bnb.status is SolveStatus.OPTIMAL
        assert bnb.best_psi == pytest.approx(oracle.best_psi, rel=OBJECTIVE_RTOL, abs=0.0)

    # Frames no other test solves, at the sizes of the learned search's
    # training and benchmark frames.
    @pytest.mark.parametrize("num_channels,seed", [
        (k_n, seed) for k_n in (4, 5) for seed in range(3000, 3030)])
    def test_matches_exhaustive_on_fresh_frames(self, num_channels, seed):
        frame = make_frame(num_mds=3, num_channels=num_channels, seed=seed)
        bnb = solve_bnb(frame)
        exact = solve_exhaustive(frame)
        assert bnb.status is exact.status is SolveStatus.OPTIMAL
        assert bnb.best_psi == pytest.approx(exact.best_psi, rel=1e-12)
        for answer in (bnb, exact):
            assert assignment_faults(*frame_args(frame), answer.best_x, answer.best_split,
                                     answer.best_psi) == []

    def test_solution_feasible_and_priced_consistently(self):
        frame = make_frame(num_mds=3, num_channels=4, seed=77)
        report = solve_bnb(frame)
        assert assignment_faults(*frame_args(frame), report.best_x, report.best_split,
                                 report.best_psi) == []

    @pytest.mark.parametrize("s_n, k_n", [(3, 5), (4, 6), (4, 8)])
    def test_warm_children_need_few_pivots(self, s_n, k_n, monkeypatch):
        # The root's solve from the slack basis takes 33 pivots at 4x8; a
        # child started from its parent's basis should take a handful.  The
        # children resume from the parent's factor and never invert it, down
        # to depth 17 of the 2 716-node 4x8 tree: no solve needs its end
        # checks repaired, which a broken warm start would.
        calls = []

        def recording_solve_lp(lp, pinned=None, start=None):
            result = solve_lp(lp, pinned, start)
            calls.append((start is not None, result.pivots, result.refactors))
            return result

        monkeypatch.setattr(bnb_module, "solve_lp", recording_solve_lp)
        report = solve_bnb(make_frame(num_mds=s_n, num_channels=k_n, seed=1))
        warm = [pivots for started, pivots, _ in calls if started]
        assert len(calls) == report.nodes_searched
        assert len(warm) == report.nodes_searched - 1
        assert np.mean(warm) < 10
        assert report.lp_pivots == sum(pivots for _, pivots, _ in calls)
        assert report.lp_refactors == sum(refactors for *_, refactors in calls) == 0

    def test_node_budget_is_explicit(self, monkeypatch):
        frame = make_frame(num_mds=3, num_channels=4, seed=6)
        monkeypatch.setattr(bnb_module, "MAX_NODES", 3)
        report = solve_bnb(frame)
        assert report.status is SolveStatus.BUDGET_EXHAUSTED
        assert report.nodes_searched == 3

    def test_budget_of_exactly_the_solved_nodes_suffices(self, monkeypatch):
        # Open nodes left at the end are dropped unsolved, so they need no
        # budget: the search is complete once its last LP is solved.
        frame = make_frame(num_mds=3, num_channels=5, seed=14)
        full = solve_bnb(frame)
        monkeypatch.setattr(bnb_module, "MAX_NODES", full.nodes_searched)
        report = solve_bnb(frame)
        assert report.status is SolveStatus.OPTIMAL
        assert report.best_psi == full.best_psi
        assert report.nodes_searched == full.nodes_searched


def scaled_frame(frame, task_factor, gain_factor):
    """``frame`` with every task size multiplied by ``task_factor`` and
    every gain by ``gain_factor``, and its rates recomputed."""
    cfg, gains = frame.config, frame.gains * gain_factor
    rates = rate(frame.powers_w[:, None], gains, cfg.bandwidth_hz, cfg.noise_power_w)
    return Scenario(cfg, gains, frame.powers_w, frame.task_bits * task_factor, rates)


class TestTimeScale:
    # The node LP counts the frame time in units of the largest task's time
    # on the fastest channel.  Counted in seconds, its epigraph rows and the
    # frame time shrink with the frame's time scale beside O(1) entries, and
    # the dual simplex's tolerances fail: on frames of a few microseconds
    # the search raised, or answered below the cost of its own map.  The
    # costs scale with the time unit too, and the simplex prices them in a
    # power-of-two unit of their own.

    def test_tied_frame_answers_its_maps_cost(self):
        cfg = ScenarioConfig(num_mds=3, num_channels=4, lambda_t=1.0, lambda_e=0.25)
        gains = np.full((3, 4), 0.01)
        powers = np.array([1.4522785240794251, 1.451379502743874, 0.2816637703703986])
        rates = rate(powers[:, None], gains, cfg.bandwidth_hz, cfg.noise_power_w)
        frame = Scenario(cfg, gains, powers, np.full(3, 1e4), rates)
        report = solve_bnb(frame)
        assert report.status is SolveStatus.OPTIMAL
        assert report.best_psi == pytest.approx(solve_exhaustive(frame).best_psi,
                                                rel=OBJECTIVE_RTOL, abs=0.0)
        assert report.best_psi == pytest.approx(solve_split(frame, report.best_x).psi,
                                                rel=OBJECTIVE_RTOL, abs=0.0)

    @pytest.mark.parametrize("seed", range(1000, 1060))
    def test_latency_only_microsecond_frames_match_exhaustive(self, seed):
        # Desk frames with tasks of 2e3-8e3 bits, whose frame times are a
        # few microseconds, weighing latency alone.
        frame = make_frame(num_mds=3, num_channels=5, seed=seed,
                           task_size_range_bits=(2.0e3, 8.0e3), lambda_e=0.0)
        report = solve_bnb(frame)
        assert report.status is SolveStatus.OPTIMAL
        assert report.best_psi == pytest.approx(solve_exhaustive(frame).best_psi,
                                                rel=OBJECTIVE_RTOL, abs=0.0)

    @pytest.mark.parametrize("seed, task_min_bits", [(36, 2.0), (93, 0.2), (161, 0.02)])
    def test_tiny_task_frames_match_exhaustive(self, seed, task_min_bits):
        # Desk frames with tasks of a few bits or fewer, energy weighed too.
        # The LP's costs, of the order of the weights times the time unit,
        # are then 1e-8 to 1e-10: priced as they are, they near the
        # simplex's absolute optimality tolerance, and the search answered
        # 0.074% (seed 36) and 0.43% (seed 93) above the optimum, or raised
        # (seed 161).
        frame = make_frame(num_mds=3, num_channels=5, seed=seed,
                           task_size_range_bits=(task_min_bits, 4.0 * task_min_bits))
        report = solve_bnb(frame)
        assert report.status is SolveStatus.OPTIMAL
        assert report.best_psi == pytest.approx(solve_exhaustive(frame).best_psi,
                                                rel=OBJECTIVE_RTOL, abs=0.0)

    @pytest.mark.parametrize("s_n, k_n, seed", [(4, 6, 66), (5, 5, 16), (5, 6, 2),
                                                 (5, 6, 19), (5, 6, 30)])
    def test_latency_only_desk_frames_match_exhaustive(self, s_n, k_n, seed):
        # Desk frames weighing latency alone.  Each search once let an
        # entry of 1e-10 to 3e-9 enter the basis, and dividing the factor's
        # update by it left a basis inverse off by O(1): a later solve
        # failed its own row check and the search raised.
        frame = make_frame(num_mds=s_n, num_channels=k_n, seed=seed, lambda_e=0.0)
        report = solve_bnb(frame)
        assert report.status is SolveStatus.OPTIMAL
        assert report.best_psi == pytest.approx(solve_exhaustive(frame).best_psi,
                                                rel=1e-9, abs=0.0)

    @given(seed=st.integers(0, 99), task_exp=st.integers(-9, 3), gain_exp=st.integers(-8, 4),
           lambda_e=st.sampled_from([0.0, 0.25]))
    @settings(max_examples=40, deadline=None)
    def test_exact_at_every_common_scale(self, seed, task_exp, gain_exp, lambda_e):
        # Tasks of 2e-3 to 8e9 bits.  The gains move the rates only through
        # the logarithm of the SNR: from ~2e8 to ~6e8 bit/s in the median.
        frame = scaled_frame(make_frame(num_mds=3, num_channels=5, seed=seed,
                                        lambda_e=lambda_e),
                             10.0 ** task_exp, 10.0 ** gain_exp)
        report = solve_bnb(frame)
        assert report.status is SolveStatus.OPTIMAL
        assert report.best_psi == pytest.approx(solve_exhaustive(frame).best_psi,
                                                rel=OBJECTIVE_RTOL, abs=0.0)
        assert assignment_faults(*frame_args(frame), report.best_x, report.best_split,
                                 report.best_psi) == []


#: Frames of the sizes the benchmark solves, with deep enough trees.
SEARCH_FRAMES = [
    *(pytest.param(make_frame(num_mds=3, num_channels=5, seed=seed), id=f"3x5-{seed}")
      for seed in (14, 201, 217)),
    *(pytest.param(make_frame(num_mds=4, num_channels=6, seed=seed), id=f"4x6-{seed}")
      for seed in (1030, 203)),
]


#: The weightings (lambda_t, lambda_e) the extreme-spread sweeps take in turn.
SPREAD_WEIGHTS = ((1, 0), (0, 1), (1, 0.25), (1, 1), (0.25, 1), (1, 1e-3))


def spread_frame(rng, weights):
    """A frame of 1-3 devices and S-5 channels, weighed by ``weights``, drawn
    from ``rng``: gains 10^U(-3, 3), powers U(1, 1.5) W and tasks
    10^U(1, 7) bits, so one frame may pair a task of tens of bits with one
    of millions."""
    s_n = int(rng.integers(1, 4))
    k_n = int(rng.integers(s_n, 6))
    cfg = ScenarioConfig(num_mds=s_n, num_channels=k_n, lambda_t=weights[0],
                         lambda_e=weights[1])
    gains = 10 ** rng.uniform(-3, 3, (s_n, k_n))
    powers = rng.uniform(1, 1.5, s_n)
    tasks = 10 ** rng.uniform(1, 7, s_n)
    rates = rate(powers[:, None], gains, cfg.bandwidth_hz, cfg.noise_power_w)
    return Scenario(cfg, gains, powers, tasks, rates)


def spread_sweep_frame(base, index):
    """Frame ``index`` of the sweep that draws one :func:`spread_frame` after
    another from ``default_rng(base)``, weighted by SPREAD_WEIGHTS in turn."""
    rng = np.random.default_rng(base)
    for i in range(index + 1):
        frame = spread_frame(rng, SPREAD_WEIGHTS[i % len(SPREAD_WEIGHTS)])
    return frame


class TestExtremeSpread:
    # Frames whose tasks span up to six decades.  A node LP's dual pivots
    # there can end on a point that misses its rows, as the product-form
    # inverse drifts from its basis.  A fresh inversion of the final basis,
    # with the dual pivots run again from it, repairs the solve.

    @pytest.mark.parametrize("base, index", [(7, 282), (7, 456), (7, 2441), (7, 2609),
                                             (8, 272), (8, 1919)])
    def test_repaired_frames_match_exhaustive(self, base, index):
        # Each raised "final point does not satisfy the rows" before node
        # LPs were repaired.
        frame = spread_sweep_frame(base, index)
        report = solve_bnb(frame)
        assert report.status is SolveStatus.OPTIMAL
        assert report.lp_refactors >= 1
        exact = solve_exhaustive(frame).best_psi
        assert report.best_psi == pytest.approx(exact, rel=1e-9, abs=0.0)

    @pytest.mark.xfail(strict=True, raises=ArithmeticError,
                       reason="ROADMAP item 13: the repaired basis is not dual feasible")
    @pytest.mark.parametrize("base, index", [(8, 2022), (8, 2072)])
    def test_dual_infeasible_frames_match_exhaustive(self, base, index):
        frame = spread_sweep_frame(base, index)
        report = solve_bnb(frame)
        exact = solve_exhaustive(frame).best_psi
        assert report.best_psi == pytest.approx(exact, rel=1e-9, abs=0.0)

    @given(seed=st.integers(0, 2**32 - 1), weights=st.sampled_from(SPREAD_WEIGHTS))
    @settings(max_examples=60, deadline=None)
    def test_raises_or_answers_the_optimum(self, seed, weights):
        # A search may still fault on such a frame, but never answers wrong.
        frame = spread_frame(np.random.default_rng(seed), weights)
        try:
            report = solve_bnb(frame)
        except ArithmeticError:
            return
        exact = solve_exhaustive(frame).best_psi
        assert report.best_psi == pytest.approx(exact, rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("eps", [2.3e-6, 1e-6, 1e-7, 1e-9, 1e-11])
    def test_leaf_with_an_uncounted_flow_answers_its_maps_cost(self, eps):
        # Within the sweeps' domain, but with gains tied to eps.  At 2.3e-6
        # the root LP sends 1.8e-8 of device 0's task over channel 0, which
        # carries device 1's.  That flow must count, or the root is taken
        # as a leaf and its LP value, 1.8e-8 (relative) below its map's
        # cost, is the answer (7.8e-9 below at eps = 1e-6).  A frame drawn
        # from a seed, as above, almost never ties so closely.
        cfg = ScenarioConfig(num_mds=2, num_channels=4, lambda_t=1.0, lambda_e=0.0)
        gains = np.ones((2, 4))
        gains[1, 3] = 1.0 + eps
        powers = np.ones(2)
        rates = rate(powers[:, None], gains, cfg.bandwidth_hz, cfg.noise_power_w)
        frame = Scenario(cfg, gains, powers, np.full(2, 10.0), rates)
        report = solve_bnb(frame)
        exact = solve_exhaustive(frame).best_psi
        assert report.best_psi == pytest.approx(exact, rel=1e-9, abs=0.0)


def search_with_keys(frame, monkeypatch):
    """Solve ``frame`` recording the heap: the key each node was pushed
    with, by node id, and every key popped, in order."""
    keys, popped = {}, []

    def heappush(queue, item):
        keys[item[1]] = item[0]
        heapq.heappush(queue, item)

    def heappop(queue):
        item = heapq.heappop(queue)
        popped.append(item[0])
        return item

    monkeypatch.setattr(bnb_module, "heapq",
                        SimpleNamespace(heappush=heappush, heappop=heappop))
    return solve_bnb(frame), keys, popped


class TestTraceInvariants:
    @pytest.fixture(scope="class")
    def report(self):
        return solve_bnb(make_frame(num_mds=3, num_channels=4, seed=15))

    def test_nodes_searched_equals_trace_length(self, report):
        assert report.nodes_searched == len(report.trace)

    def test_incumbent_bound_strictly_decreases(self, report):
        values = [rec.psi for rec in report.trace
                  if rec.action is NodeAction.NEW_INCUMBENT]
        assert values, "no incumbent found"
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_incumbent_chain_respects_bounds(self, report):
        # No ancestor of the final incumbent was bound-dominated at pop time.
        incumbent = [rec for rec in report.trace
                     if rec.action is NodeAction.NEW_INCUMBENT][-1]
        parents = {rec.node_id: rec for rec in report.trace}
        cursor = incumbent
        while True:
            assert cursor.psi <= cursor.zub_at_pop + 1e-9
            if cursor.parent_id is None:
                break
            cursor = parents[cursor.parent_id]

    def test_parents_appear_earlier_with_branched_action(self, report):
        seen = {}
        for rec in report.trace:
            if rec.parent_id is not None:
                assert rec.parent_id in seen
                assert seen[rec.parent_id] is NodeAction.BRANCHED
            seen[rec.node_id] = rec.action

    def test_tied_fractional_node_is_not_branched(self):
        # With latency alone priced the cost is the frame time.  On these
        # frames the three devices are identical (same power, task and gain
        # on each channel), so device permutations of one channel map cost
        # the same and node optima tie structurally with the optimum.  A
        # child's key is at least its parent's bound, so a child of a
        # branched node tied with the final incumbent that pops after that
        # incumbent arrived has a key tied with it, and is dropped unsolved
        # and untraced, since no descendant of it could strictly improve
        # it: every such child that was solved was popped before, under a
        # larger bound.  Which ties hold to the last bit follows the
        # simplex's pivot path, so the check runs over a family of frames
        # and asks only that some of them drop a tie.
        dropped = 0
        for seed in range(300):
            gains = np.random.default_rng(seed).uniform(0.5, 2.0, 4)
            frame = make_uniform_frame(3, 4, gain=gains, lambda_e=0.0)
            report = solve_bnb(frame)
            assert report.status is SolveStatus.OPTIMAL
            children = {}
            for rec in report.trace:
                children.setdefault(rec.parent_id, []).append(rec)
            for rec in report.trace:
                if rec.action is not NodeAction.BRANCHED:
                    continue
                assert rec.psi < rec.zub_at_pop
                if rec.psi == report.best_psi:
                    traced = children.get(rec.node_id, [])
                    assert all(child.zub_at_pop > report.best_psi for child in traced)
                    dropped += len(traced) < 2
        assert dropped > 0

    # LP round-off lets a node's relaxation value sit up to ~1.4e-14
    # (relative) below its key, and so below its children's keys, so a
    # child can pop with a key a few ulps below the key popped before it.
    BOUND_ORDER_RTOL = 1e-12

    @pytest.mark.parametrize("frame", SEARCH_FRAMES)
    def test_best_first_order(self, frame, monkeypatch):
        report, keys, popped = search_with_keys(frame, monkeypatch)
        assert report.status is SolveStatus.OPTIMAL
        for rec in report.trace[1:]:
            # Every solved node had a key below the incumbent.
            assert keys[rec.node_id] < rec.zub_at_pop
        # Keys pop in nondecreasing order, the one that ends the search too.
        for a, b in zip(popped, popped[1:]):
            assert b >= a - self.BOUND_ORDER_RTOL * abs(a)

    @pytest.mark.parametrize("frame", SEARCH_FRAMES)
    def test_child_key_bounds_its_relaxation(self, frame, monkeypatch):
        # A child's key is read off its parent's optimal LP: no lower than
        # the parent's value, and no higher than the child's own.
        report, keys, _ = search_with_keys(frame, monkeypatch)
        psi = {rec.node_id: rec.psi for rec in report.trace}
        assert len(report.trace) > 1
        for rec in report.trace[1:]:
            key = keys[rec.node_id]
            assert key >= psi[rec.parent_id]
            assert rec.psi >= key - self.BOUND_ORDER_RTOL * abs(key)
        # The keys do prune: some children are dropped with a key above
        # their parent's value.  The i-th branched node's children are
        # 2i+1 and 2i+2.
        branched = [rec for rec in report.trace if rec.action is NodeAction.BRANCHED]
        assert any(keys[2 * i + child] > rec.psi
                   for i, rec in enumerate(branched) for child in (1, 2)
                   if 2 * i + child not in psi)

    @pytest.mark.parametrize("frame", SEARCH_FRAMES)
    def test_single_cut_row_key_is_the_first_pivot_objective(self, frame, monkeypatch):
        # When a child's fixing cuts off one basic flow, its key is the
        # objective of its own dual simplex after the first pivot, under its
        # parent's pins and the fixing's.
        checked = []
        solved = {}   # id of each result: the result and the pins it was solved under

        def recording_solve_lp(lp, pinned=None, start=None):
            result = solve_lp(lp, pinned, start)
            solved[id(result)] = result, pinned
            return result

        def checking_bounds(lp, result, pin_sets):
            keys = pinned_bounds(lp, result, pin_sets)
            parent_pins = solved[id(result)][1]
            for key, pinned in zip(keys, pin_sets):
                if np.count_nonzero(result.x[pinned] > FEASIBILITY_TOL) != 1:
                    continue
                child_pins = parent_pins.copy()
                child_pins[pinned] = True
                objective = first_pivot_objective(lp, child_pins, result.basis, monkeypatch)
                assert key == pytest.approx(objective, rel=1e-12, abs=0.0)
                checked.append(key > result.value)
            return keys

        monkeypatch.setattr(bnb_module, "solve_lp", recording_solve_lp)
        monkeypatch.setattr(bnb_module, "pinned_bounds", checking_bounds)
        assert solve_bnb(frame).status is SolveStatus.OPTIMAL
        assert len(checked) >= 10 and any(checked)

    def test_unsolved_nodes_are_counted(self):
        for frame in (make_frame(num_mds=3, num_channels=5, seed=14),
                      make_frame(num_mds=4, num_channels=6, seed=203)):
            report = solve_bnb(frame)
            branched = sum(rec.action is NodeAction.BRANCHED for rec in report.trace)
            assert report.nodes_unsolved > 0
            assert report.nodes_searched + report.nodes_unsolved == 1 + 2 * branched

    @pytest.mark.parametrize("frame", SEARCH_FRAMES)
    def test_incumbents_are_leaves_and_branching_splits_a_shared_channel(
            self, frame, monkeypatch):
        branched_on = {}

        def recording_branch(parent, index, num_channels):
            branched_on[parent.node_id] = index
            return branch(parent, index, num_channels)

        monkeypatch.setattr(bnb_module, "branch", recording_branch)
        report = solve_bnb(frame)
        shape = (frame.num_mds, frame.num_channels)
        args = frame_args(frame)
        rates, powers, _, lambda_t, lambda_e = args
        incumbents = [rec for rec in report.trace
                      if rec.action is NodeAction.NEW_INCUMBENT]
        assert incumbents
        for rec in incumbents:
            x, shares = (a.reshape(shape) for a in rec.arrays())
            split = shares * frame.task_bits[:, None]
            assert np.all((x == 0) | (x == 1))
            assert np.all(x[split != 0] == 1)
            assert np.allclose(split.sum(axis=1), frame.task_bits, rtol=1e-12, atol=0.0)
            assert assignment_faults(*args, x, split, rec.psi) == []
            assert recompute_objective(rates, powers, lambda_t, lambda_e, split) == \
                pytest.approx(rec.psi, rel=1e-12)
        branched = [rec for rec in report.trace if rec.action is NodeAction.BRANCHED]
        assert len(branched) == len(branched_on)
        for rec in branched:
            s, k = divmod(branched_on[rec.node_id], frame.num_channels)
            carriers = rec.arrays()[1].reshape(shape)[:, k] > 0
            assert carriers[s] and carriers.sum() >= 2

    @pytest.mark.parametrize("frame", SEARCH_FRAMES)
    def test_fixings_extend_the_parents_by_one(self, frame):
        # The root fixes nothing; every other record fixes exactly one
        # indicator more than its parent's record, and an indicator fixed
        # to 1 reads 1 wherever the relaxation was solved.
        report = solve_bnb(frame)
        n = frame.num_mds * frame.num_channels
        by_id = {rec.node_id: rec for rec in report.trace}
        root = report.trace[0]
        assert root.parent_id is None
        assert root.fixed.dtype == np.int8
        assert root.fixed.tolist() == [-1] * n
        for rec in report.trace[1:]:
            parent = by_id[rec.parent_id].fixed
            changed = np.flatnonzero(rec.fixed != parent)
            assert changed.size == 1
            assert parent[changed[0]] == -1 and rec.fixed[changed[0]] in (0, 1)
            assert np.count_nonzero(rec.fixed >= 0) == rec.depth
            assert np.all(rec.arrays()[0][rec.fixed == 1] == 1.0)

    def test_deterministic_trace(self):
        frame = make_frame(num_mds=2, num_channels=4, seed=16)
        a, b = solve_bnb(frame), solve_bnb(frame)
        assert len(a.trace) == len(b.trace)
        for ra, rb in zip(a.trace, b.trace):
            assert (ra.node_id, ra.depth, ra.parent_id, ra.action) == \
                   (rb.node_id, rb.depth, rb.parent_id, rb.action)
            assert ra.psi == rb.psi
            assert np.array_equal(ra.arrays()[0], rb.arrays()[0])

    def test_records_own_their_arrays(self):
        # A record holds its fixing vector and a copy of its flows, and
        # builds new arrays from them on each read, so no two records, no
        # record and what it builds, and no record and the returned
        # incumbent may share a buffer.
        report = solve_bnb(make_frame(num_mds=4, num_channels=6, seed=203))
        assert report.status is SolveStatus.OPTIMAL and len(report.trace) > 100
        arrays = [a for rec in report.trace
                  for a in (rec.fixed, rec.flows, *rec.arrays(), *rec.arrays())]
        for i, a in enumerate(arrays):
            assert not np.shares_memory(a, report.best_x)
            assert not np.shares_memory(a, report.best_split)
            for b in arrays[i + 1:]:
                assert not np.shares_memory(a, b)


class TestNodeArrays:
    # A record's x and shares are built from its node's flows on each read,
    # never by the search itself, and kept nowhere; a reader that needs
    # splits in bits scales the shares by the frame's task sizes.
    FRAME = make_frame(num_mds=4, num_channels=6, seed=203)

    def test_arrays_equal_an_eager_rebuild(self):
        frame = self.FRAME
        report = solve_bnb(frame)
        assert len(report.trace) > 100
        task_bits = frame.task_bits.repeat(frame.num_channels)
        for rec in report.trace:
            x, shares, split_bits = eager_node_arrays(rec, frame)
            built = rec.arrays()
            assert same_bits(built[0], x) and same_bits(built[1], shares)
            assert same_bits(built[1] * task_bits, split_bits)
            again = rec.arrays()
            assert again[0] is not built[0] and again[1] is not built[1]

    def test_a_read_keeps_nothing(self, tmp_path):
        # Every reader builds a node's arrays and drops them: after arrays(),
        # label_trace and write_trace_csv every record holds the very
        # objects it held, each with the same bytes.
        frame = self.FRAME
        report = solve_bnb(frame)
        assert set(Node.__slots__) == {f.name for f in fields(Node)}
        held = [{name: getattr(rec, name) for name in Node.__slots__} for rec in report.trace]
        data = [(rec.fixed.tobytes(), rec.flows.tobytes()) for rec in report.trace]
        for rec in report.trace:
            rec.arrays()
        label_trace(report)
        write_trace_csv(tmp_path / "trace.csv", report, frame)
        for rec, before, arrays in zip(report.trace, held, data):
            assert all(getattr(rec, name) is value for name, value in before.items())
            assert (rec.fixed.tobytes(), rec.flows.tobytes()) == arrays

    def test_records_own_their_flows(self):
        # A record keeps a copy of its node's flows, not a view that would
        # keep the simplex's whole point alive.
        frame = self.FRAME
        report = solve_bnb(frame)
        assert len(report.trace) > 100
        for rec in report.trace:
            assert rec.flows.base is None
            assert rec.flows.shape == (frame.num_mds * frame.num_channels,)

    def test_exact_search_builds_the_incumbents_arrays_only(self, monkeypatch):
        built = []

        def counting_node_arrays(flows, fixed, leaf):
            arrays = node_arrays(flows, fixed, leaf)
            built.append((flows, arrays))
            return arrays

        monkeypatch.setattr(bnb_module, "node_arrays", counting_node_arrays)
        report = solve_bnb(self.FRAME)
        incumbents = [rec for rec in report.trace
                      if rec.action is NodeAction.NEW_INCUMBENT]
        assert len(report.trace) > 100 and len(incumbents) == 2
        assert len(built) == 1 and built[0][0] is incumbents[-1].flows
        assert np.array_equal(report.best_x.ravel(), built[0][1][0])


class TestOracleGate:
    # The oracle policy of He, Daume & Eisner (NeurIPS 2014): branch only
    # the nodes whose fixings agree with the optimal channel map, read off
    # each record's fixing vector.  It is the ceiling of any pruning gate.
    @pytest.mark.parametrize("s_n, k_n, frames", [(3, 5, 16), (4, 6, 6)])
    def test_oracle_gate_is_exact_and_prunes(self, s_n, k_n, frames):
        fewer = []
        for seed in range(201, 201 + 2 * frames, 2):
            frame = make_frame(num_mds=s_n, num_channels=k_n, seed=seed)
            exact = solve_bnb(frame)
            target = exact.best_x.ravel()
            gate = lambda rec, _: np.all((rec.fixed < 0) | (rec.fixed == target))
            oracle = solve_bnb(frame, gate=gate)
            assert oracle.status is SolveStatus.OPTIMAL
            assert oracle.best_psi == pytest.approx(exact.best_psi, rel=1e-12)
            assert oracle.nodes_searched <= exact.nodes_searched
            assert not oracle.fell_back_to_exact
            fewer.append(oracle.nodes_searched < exact.nodes_searched)
        assert any(fewer)


#: Latency/energy weightings the oracle is checked at: the default, energy
#: only and latency only.
ORACLE_WEIGHTS = [(1.0, 0.25), (0.0, 1.0), (1.0, 0.0)]
#: Frames on which the oracle is checked against references that share no
#: enumeration with it: ten random frames at each of three sizes, taking the
#: weightings in turn, and the tie frames of identical devices at every
#: weighting.
ORACLE_FRAMES = [
    *(pytest.param(make_frame(num_mds=s_n, num_channels=k_n, seed=4000 + case,
                              lambda_t=lt, lambda_e=le),
                   id=f"{s_n}x{k_n}-{case}-{lt:g},{le:g}")
      for s_n, k_n in [(2, 3), (3, 4), (3, 5)] for case in range(10)
      for lt, le in [ORACLE_WEIGHTS[case % 3]]),
    *(pytest.param(make_uniform_frame(s_n, k_n, gain=gain, lambda_t=lt, lambda_e=le),
                   id=f"uniform-{s_n}x{k_n}-{lt:g},{le:g}")
      for s_n, k_n, gain in TIE_FRAMES for lt, le in ORACLE_WEIGHTS),
]


class TestSolveExhaustive:
    def test_single_pair(self):
        frame = make_frame(num_mds=1, num_channels=1, seed=3)
        report = solve_exhaustive(frame)
        assert report.nodes_searched == 1
        assert report.best_psi == pytest.approx(solve_bnb(frame).best_psi, rel=1e-9)

    def test_two_by_two_perfect_matchings(self):
        frame = make_frame(num_mds=2, num_channels=2, seed=21)
        report = solve_exhaustive(frame)
        # 4 full maps; only the two perfect matchings cover both MDs.
        assert report.nodes_searched == 2
        values = []
        for x in (np.eye(2, dtype=int), np.eye(2, dtype=int)[::-1]):
            values.append(solve_split(frame, x).psi)
        assert report.best_psi == pytest.approx(min(values), rel=1e-9)

    @pytest.mark.parametrize("s_n, k_n, maps", [(1, 1, 1), (2, 2, 2), (3, 5, 150),
                                                (4, 6, 1560)])
    def test_prices_every_full_map_that_covers(self, s_n, k_n, maps):
        # The maps onto all S devices among the S**K full maps.
        report = solve_exhaustive(make_frame(num_mds=s_n, num_channels=k_n, seed=8))
        assert report.nodes_searched == maps

    # 8 devices on 7 channels: 8**7 full maps, more than ENUM_BUDGET, and
    # none of them covers every device.
    @pytest.mark.parametrize("s_n, k_n", [(3, 2), (8, 7)])
    def test_infeasible_when_channels_short(self, s_n, k_n):
        report = solve_exhaustive(make_frame(num_mds=s_n, num_channels=k_n, seed=5))
        assert report.status is SolveStatus.INFEASIBLE
        assert report.nodes_searched == 0

    def test_budget_error(self):
        # 4**10 = 1 048 576 full channel maps, above ENUM_BUDGET.
        assert 4 ** 10 > bnb_module.ENUM_BUDGET
        frame = make_frame(num_mds=4, num_channels=10, seed=7)
        with pytest.raises(BudgetExceededError):
            solve_exhaustive(frame)

    @pytest.mark.parametrize("frame", ORACLE_FRAMES)
    def test_equals_the_best_covering_map_and_the_milp(self, frame):
        # Full maps only, against every covering map (idle channels
        # allowed) and against HiGHS; the answer is feasible and priced
        # as the oracle prices it.
        report = solve_exhaustive(frame)
        assert report.status is SolveStatus.OPTIMAL
        covering = min(solve_split(frame, x).psi
                       for x in covering_maps(frame.num_mds, frame.num_channels))
        assert report.best_psi == pytest.approx(covering, rel=1e-12)
        args = frame_args(frame)
        assert report.best_psi == pytest.approx(milp_optimum(*args), rel=OBJECTIVE_RTOL)
        assert assignment_faults(*args, report.best_x, report.best_split,
                                 report.best_psi) == []

    @pytest.mark.parametrize("frame", ORACLE_FRAMES)
    def test_prices_every_map_as_solve_split_does(self, frame):
        # One pricing path: the unchecked core, fed each full map's owner
        # mask as the oracle builds it, gives solve_split's cost to the
        # last bit, and so does the oracle's answer.
        s_n, k_n = frame.num_mds, frame.num_channels
        devices = np.arange(s_n)[:, None]
        priced = 0
        for owners in itertools.product(range(s_n), repeat=k_n):
            if len(set(owners)) < s_n:
                continue
            owned = devices == owners
            x = owned.astype(int)
            psi = relax_module.price_map(frame, owned, owned.sum(axis=1))[0]
            assert psi == solve_split(frame, x).psi
            priced += 1
        report = solve_exhaustive(frame)
        assert report.nodes_searched == priced
        assert report.best_psi == solve_split(frame, report.best_x).psi

    def test_builds_only_the_winners_split(self, monkeypatch):
        # The 150 maps of a 3x5 frame are priced by the core alone; the one
        # split built is the winner's, through the checked public path.
        calls = []

        def counting_solve_split(scenario, x_binary):
            calls.append(np.array(x_binary))
            return solve_split(scenario, x_binary)

        monkeypatch.setattr(bnb_module, "solve_split", counting_solve_split)
        frame = make_frame(num_mds=3, num_channels=5, seed=8)
        report = solve_exhaustive(frame)
        assert report.status is SolveStatus.OPTIMAL and report.nodes_searched == 150
        assert len(calls) == 1 and np.array_equal(calls[0], report.best_x)

    @pytest.mark.parametrize("frame", ORACLE_FRAMES)
    def test_giving_an_idle_channel_away_never_raises_the_cost(self, frame):
        s_n = frame.num_mds
        for x in covering_maps(s_n, frame.num_channels):
            idle = np.flatnonzero(x.sum(axis=0) == 0)
            if idle.size == 0:
                continue
            psi = solve_split(frame, x).psi
            for k in idle:
                for s in range(s_n):
                    given = x.copy()
                    given[s, k] = 1
                    assert solve_split(frame, given).psi <= psi * (1 + 1e-12)


class TestTraceCsv:
    def test_format(self, tmp_path):
        frame = make_frame(num_mds=2, num_channels=3, seed=19)
        report = solve_bnb(frame)
        path = tmp_path / "trace.csv"
        write_trace_csv(path, report, frame)
        lines = path.read_text().splitlines()
        assert lines[0] == "# trace-v2"
        header = lines[1].split(",")
        assert header[:6] == ["j", "g", "parent", "action", "psi", "zub_at_pop"]
        assert header[6:] == [f"x{i}" for i in range(6)] + [f"l{i}" for i in range(6)]
        data = lines[2:]
        assert not any(l.startswith("#") for l in data)   # an exact pass has no head
        assert len(data) == len(report.trace)
        first = data[0].split(",")
        assert first[0] == "0" and first[2] == "-1"
        assert float(first[4]) == report.trace[0].psi



class TestReopen:
    # A gated search that drains with no incumbent branches the nodes its
    # gate rejected and searches on without the gate.
    @pytest.mark.parametrize("frame", [
        *(pytest.param(random_small_frame(case), id=str(case)) for case in range(10)),
        *(pytest.param(make_uniform_frame(s_n, k_n, gain=gain), id=f"uniform-{s_n}x{k_n}")
          for s_n, k_n, gain in TIE_FRAMES),
        pytest.param(make_frame(num_mds=4, num_channels=6, seed=1030), id="4x6-30"),
    ])
    def test_prune_all_gate_replays_the_exact_search(self, frame):
        exact = solve_bnb(frame)
        calls = []
        report = solve_bnb(frame, gate=lambda rec, _: calls.append(rec.node_id) or False)
        gated = exact.trace[0].action is NodeAction.BRANCHED
        # Only the root is asked: after the reopen no gate runs.
        assert calls == ([0] if gated else [])
        assert report.fell_back_to_exact is gated
        assert report.status is exact.status
        assert len(report.trace) == len(exact.trace)
        for mine, ref in zip(report.trace, exact.trace):
            assert (mine.node_id, mine.depth, mine.parent_id, mine.action) == \
                   (ref.node_id, ref.depth, ref.parent_id, ref.action)
            assert same_bits(np.array([mine.psi, mine.zub_at_pop]),
                             np.array([ref.psi, ref.zub_at_pop]))
        assert (report.nodes_searched, report.nodes_unsolved, report.lp_pivots,
                report.lp_refactors) == (exact.nodes_searched, exact.nodes_unsolved,
                                         exact.lp_pivots, exact.lp_refactors)
        assert report.best_psi == exact.best_psi
        assert np.array_equal(report.best_x, exact.best_x)

    def test_reopened_nodes_branch_in_the_order_they_were_pruned(self):
        # The gate admits the root only.  Its children are solved, the up
        # child first, and both are pruned; the reopen branches them in that
        # order, so ids 3 and 4 go to node 2 and ids 5 and 6 to node 1.
        frame = make_frame(num_mds=3, num_channels=5, seed=201)
        exact = solve_bnb(frame)
        report = solve_bnb(frame, gate=lambda rec, _: rec.node_id == 0)
        assert report.fell_back_to_exact
        assert [rec.node_id for rec in report.trace[:3]] == [0, 2, 1]
        parents = {rec.node_id: rec.parent_id for rec in report.trace}
        assert {parents[i] for i in (3, 4) if i in parents} == {2}
        assert {parents[i] for i in (5, 6) if i in parents} == {1}
        # Each node keeps the one record it was given, now branched.
        assert len(parents) == len(report.trace) == report.nodes_searched
        assert not any(rec.action is NodeAction.PRUNED_BY_MODEL for rec in report.trace)
        assert report.best_psi == exact.best_psi

    @pytest.mark.parametrize("seed", range(201, 233, 2))
    def test_a_search_with_an_incumbent_keeps_its_model_pruned_nodes(self, seed, tmp_path):
        # The oracle gate rejects every node off the optimum's chain; the
        # chain yields the incumbent, so nothing is reopened, whether the
        # heap drains or its least key reaches the incumbent.  The rejects
        # keep their action in trace.csv, where the dataset labels read it.
        frame = make_frame(num_mds=3, num_channels=5, seed=seed)
        target = solve_bnb(frame).best_x.ravel()
        rejected = []

        def gate(rec, _):
            keep = np.all((rec.fixed < 0) | (rec.fixed == target))
            return keep or rejected.append(rec)

        report = solve_bnb(frame, gate=gate)
        assert report.status is SolveStatus.OPTIMAL
        assert not report.fell_back_to_exact
        assert rejected
        assert all(rec.action is NodeAction.PRUNED_BY_MODEL for rec in rejected)
        path = tmp_path / "trace.csv"
        write_trace_csv(path, report, frame)
        actions = [line.split(",")[3] for line in path.read_text().splitlines()[2:]]
        assert actions.count("PrunedByModel") == len(rejected) == sum(
            rec.action is NodeAction.PRUNED_BY_MODEL for rec in report.trace)


class TestHeapState:
    # An open child is its heap entry: its parent, index and value, with the
    # parent's LP pins and warm start.  The pop builds its node and pins,
    # and a solved node is only its trace row.  The k-th LP solve of a search
    # solves the k-th trace node, so it must run under the pins of that
    # node's fixings, started from the very basis its parent's solve
    # returned (the root from none), through branching, gating and a reopen.
    @pytest.mark.parametrize("search", ["exact", "oracle-gated", "reject-all",
                                        "reject-below-root"])
    def test_each_solve_runs_under_its_nodes_pins_from_its_parents_basis(
            self, search, monkeypatch):
        frame = make_frame(num_mds=4, num_channels=6, seed=203)
        s_n, k_n = frame.num_mds, frame.num_channels
        target = solve_bnb(frame).best_x.ravel()
        gate = {
            "exact": None,
            "oracle-gated": lambda node, _: np.all((node.fixed < 0) | (node.fixed == target)),
            "reject-all": lambda node, _: False,
            # The root's children are both rejected, so the reopen branches
            # two nodes with pins of their own.
            "reject-below-root": lambda node, _: node.node_id == 0,
        }[search]
        calls = []

        def recording_solve_lp(lp, pinned=None, start=None):
            result = solve_lp(lp, pinned, start)
            calls.append((pinned, pinned.copy(), start, result.basis))
            return result

        monkeypatch.setattr(bnb_module, "solve_lp", recording_solve_lp)
        report = solve_bnb(frame, gate=gate)
        assert report.status is SolveStatus.OPTIMAL and len(report.trace) > 20
        assert report.fell_back_to_exact == search.startswith("reject")
        model_pruned = sum(node.action is NodeAction.PRUNED_BY_MODEL for node in report.trace)
        assert (model_pruned > 0) == (search == "oracle-gated")
        assert len(calls) == len(report.trace)
        basis_of = {}
        for node, (pinned, at_solve, start, basis) in zip(report.trace, calls):
            assert not hasattr(node, "__dict__")
            # Nothing wrote into the mask once it was given to the solve.
            assert same_bits(pinned, at_solve)
            assert same_bits(pinned[:-1], node_pinned(node.fixed, s_n, k_n).ravel())
            assert not pinned[-1]   # tau
            if node.parent_id is None:
                assert start is None
            else:
                assert start is not None and start is basis_of[node.parent_id]
            basis_of[node.node_id] = basis
        if search == "reject-below-root":
            assert [node.parent_id for node in report.trace[1:3]] == [0, 0]
            assert {node.parent_id for node in report.trace[3:]} >= {1, 2}


    @pytest.mark.parametrize("frame, gate", [
        *(pytest.param(*param.values, None, id=param.id) for param in SEARCH_FRAMES),
        # The gate rejects the root, so the search drains and reopens it.
        pytest.param(make_frame(num_mds=3, num_channels=5, seed=201),
                     lambda node, _: False, id="3x5-201-reopen"),
    ])
    def test_a_child_is_built_when_it_is_popped(self, frame, gate, monkeypatch):
        # The search builds one Node per solved node, the very trace rows,
        # and none for a child dropped at pop time or left open; building
        # both children at branch time would make 1 + 2 * branched.
        built = []

        def counting_node(*args, **kwargs):
            node = Node(*args, **kwargs)
            built.append(node)
            return node

        monkeypatch.setattr(bnb_module, "Node", counting_node)
        report = solve_bnb(frame, gate=gate)
        assert report.status is SolveStatus.OPTIMAL
        assert report.fell_back_to_exact == (gate is not None)
        branched = sum(node.action is NodeAction.BRANCHED for node in report.trace)
        assert report.nodes_unsolved > 0
        assert report.nodes_searched + report.nodes_unsolved == 1 + 2 * branched
        assert len(built) == report.nodes_searched == len(report.trace)
        assert all(node is row for node, row in zip(built, report.trace))


class TestGapBound:
    # A gated answer is at most gap_bound above the optimum, relative to
    # the answer: the rejected nodes bound what the gate cut off.
    RTOL = 1e-12

    def test_exact_answers_have_a_zero_bound(self):
        frame = make_frame(num_mds=3, num_channels=5, seed=14)
        assert solve_bnb(frame).gap_bound == 0.0
        assert solve_exhaustive(frame).gap_bound == 0.0
        reopened = solve_bnb(frame, gate=lambda node, _: False)
        assert reopened.fell_back_to_exact and reopened.gap_bound == 0.0

    def test_no_bound_without_an_optimal_answer(self, monkeypatch):
        crowded = make_frame(num_mds=3, num_channels=2, seed=5)
        assert solve_bnb(crowded).gap_bound is None
        assert solve_exhaustive(crowded).gap_bound is None
        monkeypatch.setattr(bnb_module, "MAX_NODES", 3)
        spent = solve_bnb(make_frame(num_mds=3, num_channels=5, seed=14))
        assert spent.status is SolveStatus.BUDGET_EXHAUSTED
        assert spent.gap_bound is None

    def test_bound_covers_the_true_gap_under_rejecting_gates(self):
        # Two gates on 24 fresh 3x5 frames: one rejects each node but the
        # root on a coin flip; the other rejects every node but the root
        # whose fixings agree with the optimal map, so the answer misses
        # the optimum.
        missed = 0
        for seed in range(5000, 5024):
            frame = make_frame(num_mds=3, num_channels=5, seed=seed)
            optimum = solve_exhaustive(frame).best_psi
            target = solve_bnb(frame).best_x.ravel()
            coin = np.random.default_rng(seed)
            gates = (
                lambda node, _: node.node_id == 0 or coin.random() < 0.5,
                lambda node, _: node.node_id == 0 or not np.all(
                    (node.fixed < 0) | (node.fixed == target)),
            )
            for gate in gates:
                report = solve_bnb(frame, gate=gate)
                assert report.status is SolveStatus.OPTIMAL
                gap = (report.best_psi - optimum) / report.best_psi
                assert report.gap_bound >= gap - self.RTOL
                rejected = [node.psi for node in report.trace
                            if node.action is NodeAction.PRUNED_BY_MODEL]
                assert (report.gap_bound > 0.0) == (min(rejected, default=np.inf)
                                                    < report.best_psi)
                missed += gap > self.RTOL
        assert missed >= 24


class TestReportShape:
    def test_bnb_reports_its_trace_and_no_fallback(self):
        report = solve_bnb(make_frame(num_mds=2, num_channels=3, seed=19))
        assert len(report.trace) == report.nodes_searched > 1
        assert not report.fell_back_to_exact

    def test_exhaustive_reports_no_trace(self, tmp_path):
        frame = make_frame(num_mds=2, num_channels=3, seed=19)
        report = solve_exhaustive(frame)
        assert report.trace == []
        assert not report.fell_back_to_exact
        path = tmp_path / "trace.csv"
        write_trace_csv(path, report, frame)
        lines = path.read_text().splitlines()
        assert lines[0] == "# trace-v2" and len(lines) == 2   # the column header only
