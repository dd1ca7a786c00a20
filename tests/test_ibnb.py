import math

import numpy as np
import pytest

from mecoffload import bnb
from mecoffload.bnb import NodeAction, SolveStatus, solve_bnb, trace_csv
from mecoffload.dataset import feature_length, featurize
from mecoffload.ibnb import ThresholdPolicy, solve_ibnb
from mecoffload.mlp import MlpModel, default_dims, forward, load_model, save_model
from oracle import assignment_faults, milp_optimum

from conftest import eager_node_arrays, frame_args, make_frame, make_uniform_frame, same_bits


def constant_model(num_features: int, p: float) -> MlpModel:
    """Zero network with the output bias set so every score equals p."""
    dims = default_dims(num_features)
    weights = [np.zeros((dims[i + 1], dims[i])) for i in range(len(dims) - 1)]
    biases = [np.zeros(dims[i + 1]) for i in range(len(dims) - 1)]
    biases[-1][0] = math.log(p / (1.0 - p))
    return MlpModel(dims, weights, biases)


def model_for(frame, p):
    return constant_model(feature_length(frame.num_mds, frame.num_channels), p)


def constant_score(model: MlpModel) -> float:
    """The one score of a :func:`constant_model`, whatever the node."""
    return forward(model, np.zeros(model.num_features))


class TestGate:
    # The gate branches a node only on a score strictly above the threshold.
    FRAME = make_frame(num_mds=3, num_channels=5, seed=217)

    def test_score_at_the_threshold_reopens_into_the_exact_search(self):
        # A score equal to the threshold prunes: the gate rejects the root,
        # the heap drains with no incumbent, and the reopen branches it.
        frame = self.FRAME
        exact = solve_bnb(frame)
        model = model_for(frame, 0.5)
        report = solve_ibnb(frame, model, ThresholdPolicy(theta0=constant_score(model)))
        assert report.fell_back_to_exact
        assert report.trace[0].action is NodeAction.BRANCHED
        assert report.nodes_searched == exact.nodes_searched
        assert report.best_psi == exact.best_psi

    def test_score_just_above_the_threshold_replays_the_exact_search(self):
        frame = self.FRAME
        exact = solve_bnb(frame)
        model = model_for(frame, 0.5)
        score = constant_score(model)
        theta = float(np.nextafter(score, 0.0))
        assert score == np.nextafter(theta, 1.0)
        report = solve_ibnb(frame, model, ThresholdPolicy(theta0=theta))
        assert not report.fell_back_to_exact
        assert [rec.action for rec in report.trace] == [rec.action for rec in exact.trace]
        assert sum(rec.action is NodeAction.BRANCHED for rec in report.trace) > 1
        assert report.best_psi == exact.best_psi


class TestNodeArrays:
    def test_reopened_trace_arrays_equal_an_eager_rebuild(self):
        # The gate reads the root's arrays and prunes it; after the reopen
        # no gate reads any, and each is built here from the node's flows.
        frame = make_frame(num_mds=4, num_channels=6, seed=203)
        model = model_for(frame, 0.5)
        report = solve_ibnb(frame, model, ThresholdPolicy(theta0=constant_score(model)))
        assert report.fell_back_to_exact and len(report.trace) > 100
        task_bits = frame.task_bits.repeat(frame.num_channels)
        for rec in report.trace:
            x, shares, split_bits = eager_node_arrays(rec, frame)
            built = rec.arrays()
            assert same_bits(built[0], x) and same_bits(built[1], shares)
            assert same_bits(built[1] * task_bits, split_bits)


class TestPolicy:
    @pytest.mark.parametrize("theta0", [1.5, 1.0, 0.0, -1e-7])
    def test_invalid_policies_rejected(self, theta0):
        with pytest.raises(ValueError, match="0 < theta0 < 1"):
            ThresholdPolicy(theta0=theta0)

    def test_any_threshold_inside_the_unit_interval_is_accepted(self):
        assert ThresholdPolicy(theta0=1e-31).theta0 == 1e-31


class TestDegenerateModels:
    @pytest.mark.parametrize("frame", [
        *(pytest.param(make_frame(num_mds=2, num_channels=3, seed=seed), id=str(seed))
          for seed in (31, 32, 33)),
        pytest.param(make_frame(num_mds=3, num_channels=5, seed=217), id="3x5-217"),
        pytest.param(make_frame(num_mds=3, num_channels=5, seed=14), id="3x5-14"),
        pytest.param(make_uniform_frame(2, 4), id="uniform-2x4"),
        # Latency-only frames, whose node optima tie bit for bit; on the
        # last two, open nodes tied with the final incumbent are dropped
        # unsolved: both searches must treat the tie alike.
        pytest.param(make_frame(num_mds=3, num_channels=5, seed=15, lambda_e=0.0),
                     id="3x5-15-latency"),
        pytest.param(make_frame(num_mds=3, num_channels=4, seed=5, lambda_e=0.0),
                     id="3x4-5-latency"),
        pytest.param(make_frame(num_mds=3, num_channels=5, seed=94, lambda_e=0.0),
                     id="3x5-94-latency"),
        pytest.param(make_frame(num_mds=3, num_channels=4, seed=52, lambda_e=0.0),
                     id="3x4-52-latency"),
    ])
    def test_confident_model_replays_exact_search(self, frame):
        exact = solve_bnb(frame)
        report = solve_ibnb(frame, model_for(frame, 0.99),
                            ThresholdPolicy(theta0=1e-7))
        assert report.status is SolveStatus.OPTIMAL
        assert not report.fell_back_to_exact
        assert report.best_psi == exact.best_psi
        assert report.nodes_unsolved == exact.nodes_unsolved
        assert report.lp_pivots == exact.lp_pivots
        assert report.lp_refactors == exact.lp_refactors
        assert len(report.trace) == len(exact.trace)
        for mine, ref in zip(report.trace, exact.trace):
            assert (mine.node_id, mine.depth, mine.parent_id, mine.action) == \
                   (ref.node_id, ref.depth, ref.parent_id, ref.action)
            assert mine.psi == ref.psi or (np.isnan(mine.psi) and np.isnan(ref.psi))

    def test_overpruning_model_recovers_by_reopening(self):
        frame = make_frame(num_mds=2, num_channels=3, seed=41)
        report = solve_ibnb(frame, model_for(frame, 0.5),
                            ThresholdPolicy(theta0=0.9))
        assert report.status is SolveStatus.OPTIMAL
        assert report.fell_back_to_exact
        # The gate pruned the fractional root, which the reopen branched.
        assert report.trace[0].action is NodeAction.BRANCHED
        assert not any(rec.action is NodeAction.PRUNED_BY_MODEL for rec in report.trace)
        assert report.best_psi == solve_bnb(frame).best_psi
        assert assignment_faults(*frame_args(frame), report.best_x, report.best_split,
                                 report.best_psi) == []

    def test_node_count_includes_model_pruned_pops_once(self):
        # The root is popped, scored 1e-9 <= 1e-7 and pruned; the reopen
        # branches it without solving it again.
        frame = make_frame(num_mds=2, num_channels=3, seed=42)
        report = solve_ibnb(frame, model_for(frame, 1e-9),
                            ThresholdPolicy(theta0=1e-7))
        exact = solve_bnb(frame)
        assert report.fell_back_to_exact
        assert report.nodes_searched == len(report.trace) == exact.nodes_searched
        # The search ran to its end: it made the root and two children per
        # branched node, and solved the rest.
        branched = sum(rec.action is NodeAction.BRANCHED for rec in report.trace)
        assert report.nodes_unsolved == 1 + 2 * branched - len(report.trace)

    def test_infeasible_instance_detected_without_a_reopen(self):
        frame = make_frame(num_mds=3, num_channels=2, seed=44)
        report = solve_ibnb(frame, model_for(frame, 1e-9))
        assert report.status is SolveStatus.INFEASIBLE
        # More devices than channels: answered with no node solved, so the
        # model never fires and there is nothing to reopen.
        assert report.trace == [] and report.nodes_searched == 0
        assert not report.fell_back_to_exact

    def test_feature_width_mismatch_rejected(self):
        frame = make_frame(num_mds=2, num_channels=3, seed=45)
        with pytest.raises(ValueError):
            solve_ibnb(frame, constant_model(99, 0.9))

    def test_dataset_v1_model_fails_the_size_check(self):
        # A net trained on dataset-v1, 4 + 2*S*K = 34 inputs at 3x5, does
        # not gate a 3x5 frame, whose nodes now give 2 + S*K = 17 features.
        frame = make_frame(num_mds=3, num_channels=5, seed=45)
        with pytest.raises(ValueError, match="model expects 34 features, scenario needs 17"):
            solve_ibnb(frame, constant_model(34, 0.9))


class TestSoundness:
    @pytest.mark.parametrize("seed", [51, 52, 53, 54])
    def test_learned_incumbent_never_beats_exact_optimum(self, seed):
        frame = make_frame(num_mds=2, num_channels=3, seed=seed)
        exact = solve_bnb(frame)
        rng = np.random.default_rng(seed)
        dims = default_dims(feature_length(2, 3))
        model = MlpModel(
            dims,
            [rng.normal(0, 0.4, size=(dims[i + 1], dims[i]))
             for i in range(len(dims) - 1)],
            [rng.normal(0, 0.1, size=dims[i + 1]) for i in range(len(dims) - 1)],
        )
        report = solve_ibnb(frame, model, ThresholdPolicy(theta0=0.5))
        assert report.status is SolveStatus.OPTIMAL
        assert report.best_psi >= exact.best_psi
        assert assignment_faults(*frame_args(frame), report.best_x, report.best_split,
                                 report.best_psi) == []

    def test_former_default_width_file_gates(self, tmp_path):
        # A 4 x 256 model file, the default width before 128, still gates a
        # 3x5 frame: neither loading nor the gate assumes a width.
        frame = make_frame(num_mds=3, num_channels=5, seed=62)
        dims = (17, 256, 256, 256, 256, 1)
        assert dims != default_dims(17)
        rng = np.random.default_rng(62)
        path = tmp_path / "model.txt"
        save_model(MlpModel(
            dims,
            [rng.normal(0, dims[i] ** -0.5, size=(dims[i + 1], dims[i]))
             for i in range(len(dims) - 1)],
            [rng.normal(0, 0.1, size=dims[i + 1]) for i in range(len(dims) - 1)],
        ), path)
        # The root scores 0.494, so 0.45 keeps it and prunes below it.
        report = solve_ibnb(frame, load_model(path), ThresholdPolicy(theta0=0.45))
        assert report.status is SolveStatus.OPTIMAL
        assert not report.fell_back_to_exact
        assert any(rec.action is NodeAction.PRUNED_BY_MODEL for rec in report.trace)
        assert report.best_psi >= solve_bnb(frame).best_psi
        assert assignment_faults(*frame_args(frame), report.best_x, report.best_split,
                                 report.best_psi) == []

    def test_reserved_set_monotone_in_threshold(self):
        # The kept set {score > theta} can only grow as theta shrinks.
        frame = make_frame(num_mds=2, num_channels=3, seed=55)
        exact = solve_bnb(frame)
        rng = np.random.default_rng(55)
        dims = default_dims(feature_length(2, 3))
        model = MlpModel(
            dims,
            [rng.normal(0, 0.5, size=(dims[i + 1], dims[i]))
             for i in range(len(dims) - 1)],
            [rng.normal(0, 0.1, size=dims[i + 1]) for i in range(len(dims) - 1)],
        )
        root_psi = exact.trace[0].psi
        scores = [forward(model, featurize(rec, root_psi)) for rec in exact.trace]
        for big, small in [(1e-2, 1e-4), (0.5, 1e-7), (1e-7, 1e-12)]:
            kept_big = {i for i, s in enumerate(scores) if s > big}
            kept_small = {i for i, s in enumerate(scores) if s > small}
            assert kept_big <= kept_small


class TestReportShape:
    def test_reopened_trace_csv_has_one_row_per_record_and_no_heads(self):
        frame = make_frame(num_mds=2, num_channels=3, seed=61)
        report = solve_ibnb(frame, model_for(frame, 0.5),
                            ThresholdPolicy(theta0=0.9))
        assert report.fell_back_to_exact
        lines = trace_csv(report, frame).splitlines()
        assert [l for l in lines if l.startswith("#")] == ["# trace-v2"]
        rows = [l.split(",") for l in lines[2:]]
        assert [int(r[0]) for r in rows] == [rec.node_id for rec in report.trace]
        assert rows[0][3] == "Branched"

    def test_budget_spent_before_the_reopen_is_not_exceeded(self, monkeypatch):
        # The gate prunes the root and the budget is spent on it; the
        # reopened children stay unsolved.
        frame = make_frame(num_mds=2, num_channels=3, seed=42)
        model = model_for(frame, 0.5)
        monkeypatch.setattr(bnb, "MAX_NODES", 1)
        report = solve_ibnb(frame, model, ThresholdPolicy(theta0=constant_score(model)))
        assert report.status is SolveStatus.BUDGET_EXHAUSTED
        assert report.nodes_searched == 1
        assert report.nodes_unsolved == 2
        assert report.fell_back_to_exact
        assert report.best_x is None

    def test_budget_exhaustion_is_explicit(self, monkeypatch):
        frame = make_frame(num_mds=3, num_channels=4, seed=62)
        monkeypatch.setattr(bnb, "MAX_NODES", 3)
        report = solve_ibnb(frame, model_for(frame, 0.99))
        assert report.status is SolveStatus.BUDGET_EXHAUSTED
        assert report.nodes_searched == 3

    def test_spent_budget_keeps_the_last_incumbent(self, monkeypatch):
        # Both solvers stop at the budget with the incumbent found so far,
        # a feasible assignment above the optimum.  The command line never
        # gets here: its budget is MAX_NODES.
        frame = make_frame(num_mds=3, num_channels=5, seed=3)
        args = frame_args(frame)
        optimum = milp_optimum(*args)
        monkeypatch.setattr(bnb, "MAX_NODES", 26)
        exact = solve_bnb(frame)
        learned = solve_ibnb(frame, model_for(frame, 0.99), ThresholdPolicy(theta0=1e-7))
        for report in (exact, learned):
            assert report.status is SolveStatus.BUDGET_EXHAUSTED
            assert report.nodes_searched == 26
            assert assignment_faults(*args, report.best_x, report.best_split,
                                     report.best_psi) == []
            assert report.best_psi >= optimum
        assert learned.best_psi == exact.best_psi
        assert np.array_equal(learned.best_x, exact.best_x)
