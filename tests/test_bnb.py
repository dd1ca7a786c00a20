import heapq
from types import SimpleNamespace

import numpy as np
import pytest

from mecoffload import bnb as bnb_module
from mecoffload.bnb import (
    BudgetExceededError,
    Node,
    NodeAction,
    SolveOptions,
    SolveStatus,
    branch,
    solve_bnb,
    solve_exhaustive,
    write_trace_csv,
)
from mecoffload.lp import _REFACTOR_EVERY, FEASIBILITY_TOL, pinned_bounds, solve_lp
from mecoffload.relax import solve_split
from mecoffload.scenario import Assignment, check_feasible, objective

from conftest import first_pivot_objective, make_frame, make_uniform_frame, node_upper


class TestBranch:
    def _root(self, s_n=3, k_n=4):
        return Node(0, 0, None, np.full(s_n * k_n, -1, dtype=np.int8),
                    np.full((s_n, k_n), np.inf))

    def test_fractional_value_splits_to_unit_bounds(self):
        down, up = branch(self._root(), 3, first_child_id=1)
        assert down.fixed.dtype == up.fixed.dtype == np.int8
        assert down.fixed.tolist() == [-1, -1, -1, 0] + [-1] * 8
        assert up.fixed.tolist() == [-1, -1, -1, 1] + [-1] * 8
        assert down.depth == up.depth == 1
        assert (down.node_id, up.node_id) == (1, 2)
        assert down.parent_id == up.parent_id == 0

    def test_fixed_index_rejected(self):
        for parent in branch(self._root(), 2, first_child_id=1):
            with pytest.raises(ValueError, match="already fixed"):
                branch(parent, 2, first_child_id=9)

    def test_owned_channel_rejected(self):
        # Device 0 holds channel 1, so device 2 may not branch on it.
        _, up = branch(self._root(), 1, first_child_id=1)
        with pytest.raises(ValueError, match="already owned"):
            branch(up, 2 * 4 + 1, first_child_id=3)

    def test_out_of_range_index_rejected(self):
        for index in (-1, 12):
            with pytest.raises(ValueError, match="out of range"):
                branch(self._root(), index, first_child_id=1)

    def test_children_extend_parent_by_one_override(self):
        parent, _ = branch(self._root(), 0, first_child_id=1)
        down, up = branch(parent, 4, first_child_id=5)
        assert parent.fixed.tolist() == [0] + [-1] * 11
        for child, value in ((down, 0), (up, 1)):
            assert np.flatnonzero(child.fixed != parent.fixed).tolist() == [4]
            assert child.fixed[4] == value
            assert not np.shares_memory(child.fixed, parent.fixed)

    @pytest.mark.parametrize("s_n, k_n, seed", [(2, 3, 3), (3, 5, 14), (4, 6, 203)])
    def test_child_bounds_match_node_upper(self, s_n, k_n, seed):
        # Bounds carried down a random path equal those the model's
        # definition gives the path's fixings, and the parent's are
        # untouched.
        rng = np.random.default_rng(seed)
        node, next_id = self._root(s_n, k_n), 1
        while True:
            free = [i for i in range(s_n * k_n)
                    if node.fixed[i] < 0 and node.upper.flat[i] != 0.0]
            if not free:
                break
            upper, fixed = node.upper.copy(), node.fixed.copy()
            children = branch(node, int(rng.choice(free)), next_id)
            assert np.array_equal(node.upper, upper)
            assert np.array_equal(node.fixed, fixed)
            next_id += 2
            for child in children:
                assert np.array_equal(child.upper, node_upper(child.fixed, s_n, k_n))
            node = children[int(rng.integers(2))]
        assert next_id > 3


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

    def test_more_devices_than_channels_infeasible(self):
        report = solve_bnb(make_frame(num_mds=2, num_channels=1, seed=4))
        assert report.status is SolveStatus.INFEASIBLE
        assert report.best_x is None

    @pytest.mark.parametrize("frame", [
        *(pytest.param(random_small_frame(case), id=str(case)) for case in range(30)),
        # Identical rates everywhere: ties in every bound and branching choice.
        *(pytest.param(make_uniform_frame(s_n, k_n, gain=gain), id=f"uniform-{s_n}x{k_n}")
          for s_n, k_n, gain in [(2, 3, 1.0), (3, 3, 1.0), (2, 5, 1.0), (3, 4, 0.5),
                                 (3, 5, 1.0)]),
        # The size of the benchmark's bnb frames: 3360 covering maps.
        *(pytest.param(make_frame(num_mds=4, num_channels=6, seed=1000 + case),
                       id=f"4x6-{case}") for case in (30, 31)),
    ])
    def test_matches_exhaustive_oracle(self, frame):
        bnb = solve_bnb(frame)
        oracle = solve_exhaustive(frame)
        assert bnb.status is SolveStatus.OPTIMAL
        assert bnb.best_psi == pytest.approx(oracle.best_psi, rel=1e-6)

    # Frames no other test solves, at the sizes of the learned search's
    # training and benchmark frames.
    @pytest.mark.parametrize("num_channels,seed", [
        (k_n, seed) for k_n in (4, 5) for seed in range(3000, 3030)])
    def test_matches_exhaustive_on_fresh_frames(self, num_channels, seed):
        frame = make_frame(num_mds=3, num_channels=num_channels, seed=seed)
        bnb = solve_bnb(frame)
        oracle = solve_exhaustive(frame)
        assert bnb.status is oracle.status is SolveStatus.OPTIMAL
        assert bnb.best_psi == pytest.approx(oracle.best_psi, rel=1e-12)

    def test_solution_feasible_and_priced_consistently(self):
        frame = make_frame(num_mds=3, num_channels=4, seed=77)
        report = solve_bnb(frame)
        a = Assignment(report.best_x.astype(float), report.best_split)
        assert check_feasible(frame, a) == []
        assert report.best_psi == pytest.approx(objective(frame, a), rel=1e-8)

    def test_warm_children_need_few_pivots(self, monkeypatch):
        # A node solve from the slack basis takes about 35 pivots at 4x6; a
        # child started from its parent's basis should take a handful.  The
        # children resume from the parent's factor, so the basis is inverted
        # only when the updates carried down a path reach the refactoring
        # period: on this deep tree (861 nodes) some dozens of times, far
        # fewer than there are solves.
        calls = []

        def recording_solve_lp(lp, start=None):
            result = solve_lp(lp, start)
            carried = 0 if start is None else start.updates
            assert result.refactors == (carried + result.pivots) // _REFACTOR_EVERY
            calls.append((start is not None, result.pivots, result.refactors))
            return result

        monkeypatch.setattr(bnb_module, "solve_lp", recording_solve_lp)
        report = solve_bnb(make_frame(num_mds=4, num_channels=6, seed=1030))
        warm = [pivots for started, pivots, _ in calls if started]
        assert len(calls) == report.nodes_searched
        assert len(warm) == report.nodes_searched - 1
        assert np.mean(warm) < 10
        assert report.lp_pivots == sum(pivots for _, pivots, _ in calls)
        assert report.lp_refactors == sum(refactors for *_, refactors in calls)
        assert 1 <= report.lp_refactors <= len(calls) // 5

    def test_node_budget_is_explicit(self):
        frame = make_frame(num_mds=3, num_channels=4, seed=6)
        report = solve_bnb(frame, SolveOptions(max_nodes=3))
        assert report.status is SolveStatus.BUDGET_EXHAUSTED
        assert report.nodes_searched == 3

    def test_budget_of_exactly_the_solved_nodes_suffices(self):
        # Open nodes left at the end are dropped unsolved, so they need no
        # budget: the search is complete once its last LP is solved.
        frame = make_frame(num_mds=3, num_channels=5, seed=14)
        full = solve_bnb(frame)
        report = solve_bnb(frame, SolveOptions(max_nodes=full.nodes_searched))
        assert report.status is SolveStatus.OPTIMAL
        assert report.best_psi == full.best_psi
        assert report.nodes_searched == full.nodes_searched


#: Frames of the sizes the benchmark solves, with deep enough trees.
SEARCH_FRAMES = [
    *(pytest.param(make_frame(num_mds=3, num_channels=5, seed=seed), id=f"3x5-{seed}")
      for seed in (14, 201, 217)),
    *(pytest.param(make_frame(num_mds=4, num_channels=6, seed=seed), id=f"4x6-{seed}")
      for seed in (1030, 203)),
]


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
        # branched node's bound equals the final incumbent, so its children
        # that were still open when that incumbent arrived have keys tied
        # with it, since a child's key is at least its parent's bound: they
        # are dropped at pop time, unsolved and untraced, since no
        # descendant of theirs could strictly improve it.  Children are
        # numbered in branching order: the i-th branched node's children
        # are 2i+1 and 2i+2.  Which tied optima agree to the last bit still
        # follows the simplex's pivot path, and so do the node numbers.
        for gains, dropped_ties in [
            ([1.84, 1.79, 0.5, 1.31], {30, 31, 34}),
            ([1.79, 1.23, 0.78, 1.5], {31, 32}),
        ]:
            frame = make_uniform_frame(3, 4, gain=np.array(gains), lambda_e=0.0)
            report = solve_bnb(frame)
            assert report.status is SolveStatus.OPTIMAL
            traced = {rec.node_id for rec in report.trace}
            branched = [rec for rec in report.trace
                        if rec.action is NodeAction.BRANCHED]
            tied = {2 * i + child
                    for i, rec in enumerate(branched) if rec.psi == report.best_psi
                    for child in (1, 2)} - traced
            assert tied == dropped_ties
            for rec in branched:
                assert rec.psi < rec.zub_at_pop

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
        solved = [rec for rec in report.trace[1:]
                  if rec.action is not NodeAction.PRUNED_INFEASIBLE]
        assert solved
        for rec in solved:
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
        # objective of its own dual simplex after the first pivot.  The
        # search's own bounds are replaced for the check and put back.
        checked = []

        def checking_bounds(lp, result, pin_sets):
            keys = pinned_bounds(lp, result, pin_sets)
            upper = lp.col_upper.copy()
            for key, pinned in zip(keys, pin_sets):
                if np.count_nonzero(result.x[pinned] > FEASIBILITY_TOL) != 1:
                    continue
                lp.col_upper[pinned] = 0.0
                objective = first_pivot_objective(lp, result.basis, monkeypatch)
                lp.col_upper[:] = upper
                assert key == pytest.approx(objective, rel=1e-12, abs=0.0)
                checked.append(key > result.value)
            return keys

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

        def recording_branch(parent, index, first_child_id):
            branched_on[parent.node_id] = index
            return branch(parent, index, first_child_id)

        monkeypatch.setattr(bnb_module, "branch", recording_branch)
        report = solve_bnb(frame)
        shape = (frame.num_mds, frame.num_channels)
        incumbents = [rec for rec in report.trace
                      if rec.action is NodeAction.NEW_INCUMBENT]
        assert incumbents
        for rec in incumbents:
            x, split = rec.x.reshape(shape), rec.split_bits.reshape(shape)
            assert np.all((x == 0) | (x == 1))
            assert np.all(x[split != 0] == 1)
            assert np.allclose(split.sum(axis=1), frame.task_bits, rtol=1e-12, atol=0.0)
            a = Assignment(x, split)
            assert check_feasible(frame, a) == []
            assert objective(frame, a) == pytest.approx(rec.psi, rel=1e-12)
        branched = [rec for rec in report.trace if rec.action is NodeAction.BRANCHED]
        assert len(branched) == len(branched_on)
        for rec in branched:
            s, k = divmod(branched_on[rec.node_id], frame.num_channels)
            carriers = rec.split_bits.reshape(shape)[:, k] > 0
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
            if rec.action is not NodeAction.PRUNED_INFEASIBLE:
                assert np.all(rec.x[rec.fixed == 1] == 1.0)

    def test_deterministic_trace(self):
        frame = make_frame(num_mds=2, num_channels=4, seed=16)
        a, b = solve_bnb(frame), solve_bnb(frame)
        assert len(a.trace) == len(b.trace)
        for ra, rb in zip(a.trace, b.trace):
            assert (ra.node_id, ra.depth, ra.parent_id, ra.action) == \
                   (rb.node_id, rb.depth, rb.parent_id, rb.action)
            assert ra.psi == rb.psi or (np.isnan(ra.psi) and np.isnan(rb.psi))
            assert np.array_equal(ra.x, rb.x)

    def test_records_own_their_arrays(self):
        # A record keeps the arrays extraction made for its node and the
        # node's fixing vector, with no second copy, so no two records, and
        # no record and the returned incumbent, may share a buffer.
        report = solve_bnb(make_frame(num_mds=4, num_channels=6, seed=203))
        assert report.status is SolveStatus.OPTIMAL and len(report.trace) > 100
        arrays = [a for rec in report.trace for a in (rec.x, rec.split_bits, rec.fixed)]
        for i, a in enumerate(arrays):
            assert not np.shares_memory(a, report.best_x)
            assert not np.shares_memory(a, report.best_split)
            for b in arrays[i + 1:]:
                assert not np.shares_memory(a, b)


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
            fewer.append(oracle.nodes_searched < exact.nodes_searched)
        assert any(fewer)


class TestSolveExhaustive:
    def test_single_pair(self):
        frame = make_frame(num_mds=1, num_channels=1, seed=3)
        report = solve_exhaustive(frame)
        # Two maps exist (idle channel or assigned); only one covers the MD.
        assert report.nodes_searched == 1
        assert report.best_psi == pytest.approx(solve_bnb(frame).best_psi, rel=1e-9)

    def test_two_by_two_perfect_matchings(self):
        frame = make_frame(num_mds=2, num_channels=2, seed=21)
        report = solve_exhaustive(frame)
        # 9 maps in total; only the two perfect matchings cover both MDs.
        assert report.nodes_searched == 2
        values = []
        for x in (np.eye(2, dtype=int), np.eye(2, dtype=int)[::-1]):
            values.append(solve_split(frame, x).psi)
        assert report.best_psi == pytest.approx(min(values), rel=1e-9)

    def test_infeasible_when_channels_short(self):
        report = solve_exhaustive(make_frame(num_mds=3, num_channels=2, seed=5))
        assert report.status is SolveStatus.INFEASIBLE

    def test_budget_error(self):
        frame = make_frame(num_mds=3, num_channels=5, seed=7)
        with pytest.raises(BudgetExceededError):
            solve_exhaustive(frame, SolveOptions(enum_budget=10))


class TestTraceCsv:
    def test_format(self, tmp_path):
        frame = make_frame(num_mds=2, num_channels=3, seed=19)
        report = solve_bnb(frame)
        path = tmp_path / "trace.csv"
        write_trace_csv(path, [(None, 0, report.trace)], 6)
        lines = path.read_text().splitlines()
        assert lines[0] == "# trace-v1"
        header = lines[1].split(",")
        assert header[:7] == ["j", "g", "parent", "f", "action", "psi", "zub_at_pop"]
        assert len(header) == 7 + 2 * 6
        data = [l for l in lines[2:] if not l.startswith("#")]
        assert len(data) == len(report.trace)
        first = data[0].split(",")
        assert first[0] == "0" and first[2] == "-1"
        float(first[5])  # psi parses

    def test_pass_annotations(self, tmp_path):
        frame = make_frame(num_mds=2, num_channels=3, seed=19)
        report = solve_bnb(frame)
        path = tmp_path / "trace.csv"
        write_trace_csv(path, [(1e-7, 0, report.trace), (1e-12, 1, report.trace)], 6)
        text = path.read_text()
        assert "# theta=9.9999999999999995e-08 restart=0" in text
        assert "restart=1" in text
