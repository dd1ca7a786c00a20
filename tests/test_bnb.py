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
from mecoffload.lp import _REFACTOR_EVERY, solve_lp
from mecoffload.relax import solve_split
from mecoffload.scenario import Assignment, check_feasible, objective

from conftest import make_frame, make_uniform_frame


class TestBranch:
    def _root(self):
        return Node(0, 0, None, {})

    def test_fractional_value_splits_to_unit_bounds(self):
        down, up = branch(self._root(), 3, 0.4, first_child_id=1)
        assert down.constraints == {3: (0, 0)}
        assert up.constraints == {3: (1, 1)}
        assert down.depth == up.depth == 1
        assert (down.node_id, up.node_id) == (1, 2)
        assert down.parent_id == up.parent_id == 0

    def test_integral_value_rejected(self):
        # 0.9999995 sits within the 1e-6 integrality tolerance of 1.
        with pytest.raises(ValueError, match="integral"):
            branch(self._root(), 0, 1.0 - 5e-7, first_child_id=1)

    def test_fixed_index_rejected(self):
        parent = Node(4, 2, 1, {2: (1, 1)})
        with pytest.raises(ValueError, match="already fixed"):
            branch(parent, 2, 0.5, first_child_id=9)

    def test_children_extend_parent_by_one_override(self):
        parent = Node(1, 1, 0, {0: (0, 0)})
        down, up = branch(parent, 4, 0.3, first_child_id=5)
        assert len(down.constraints) == len(parent.constraints) + 1
        assert parent.constraints.items() <= down.constraints.items()


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
        # that were still open when that incumbent arrived are tied with it:
        # they are dropped at pop time, unsolved and untraced, since no
        # descendant of theirs could strictly improve it.  Children are
        # numbered in branching order: the i-th branched node's children
        # are 2i+1 and 2i+2.  Which tied optima agree to the last bit still
        # follows the simplex's pivot path, and so do the node numbers.
        for gains, dropped_ties in [
            ([0.59, 1.99, 1.83, 1.87], {19, 20}),
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

    # LP round-off lets a child's relaxation value sit up to ~2.5e-15
    # (relative) below its parent's, so a child can pop with a key a few
    # ulps below the key popped before it.
    BOUND_ORDER_RTOL = 1e-12

    @pytest.mark.parametrize("frame", SEARCH_FRAMES)
    def test_best_first_order(self, frame):
        report = solve_bnb(frame)
        assert report.status is SolveStatus.OPTIMAL
        psi = {rec.node_id: rec.psi for rec in report.trace}
        keys = [psi[rec.parent_id] for rec in report.trace[1:]]
        for rec, key in zip(report.trace[1:], keys):
            # Every solved node had a parent bound below the incumbent.
            assert key < rec.zub_at_pop
        for a, b in zip(keys, keys[1:]):
            assert b >= a - self.BOUND_ORDER_RTOL * abs(a)

    @pytest.mark.parametrize("frame", SEARCH_FRAMES)
    def test_incumbents_are_leaves_and_branching_splits_a_shared_channel(
            self, frame, monkeypatch):
        branched_on = {}

        def recording_branch(parent, index, value, first_child_id):
            branched_on[parent.node_id] = index
            return branch(parent, index, value, first_child_id)

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

    def test_deterministic_trace(self):
        frame = make_frame(num_mds=2, num_channels=4, seed=16)
        a, b = solve_bnb(frame), solve_bnb(frame)
        assert len(a.trace) == len(b.trace)
        for ra, rb in zip(a.trace, b.trace):
            assert (ra.node_id, ra.depth, ra.parent_id, ra.action) == \
                   (rb.node_id, rb.depth, rb.parent_id, rb.action)
            assert ra.psi == rb.psi or (np.isnan(ra.psi) and np.isnan(rb.psi))
            assert np.array_equal(ra.x, rb.x)


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
