import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mecoffload.bnb import NodeAction, SolveOptions, SolveStatus, solve_bnb, write_trace_csv
from mecoffload.dataset import featurize
from mecoffload.ibnb import IbnbReport, ThresholdPolicy, prune_decision, solve_ibnb
from mecoffload.mlp import MlpModel, default_dims, forward
from mecoffload.scenario import Assignment, check_feasible

from conftest import make_frame, make_uniform_frame


def constant_model(num_features: int, p: float) -> MlpModel:
    """Zero network with the output bias set so every score equals p."""
    dims = default_dims(num_features)
    weights = [np.zeros((dims[i + 1], dims[i])) for i in range(len(dims) - 1)]
    biases = [np.zeros(dims[i + 1]) for i in range(len(dims) - 1)]
    biases[-1][0] = math.log(p / (1.0 - p))
    return MlpModel(dims, weights, biases)


def model_for(frame, p):
    return constant_model(4 + 2 * frame.num_mds * frame.num_channels, p)


class TestPruneDecision:
    def test_confident_score_branches(self):
        assert prune_decision(0.9, 1e-7) == 1

    def test_tiny_score_prunes(self):
        assert prune_decision(1e-9, 1e-7) == 0

    def test_boundary_is_strict(self):
        assert prune_decision(1e-7, 1e-7) == 0
        assert prune_decision(0.5, 0.5) == 0

    @given(st.floats(1e-12, 1 - 1e-12), st.floats(1e-12, 0.99))
    @settings(max_examples=60, deadline=None)
    def test_decision_monotone_in_threshold(self, y_hat, theta):
        smaller = theta / 2
        assert prune_decision(y_hat, smaller) >= prune_decision(y_hat, theta)


class TestPolicy:
    def test_invalid_policies_rejected(self):
        with pytest.raises(ValueError):
            ThresholdPolicy(theta0=1.5)
        with pytest.raises(ValueError):
            ThresholdPolicy(theta0=1e-7, theta_min=1e-3)
        with pytest.raises(ValueError):
            ThresholdPolicy(delta_theta=1.0)


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
        assert report.restarts == 0
        assert report.best_psi == exact.best_psi
        assert report.nodes_unsolved == exact.nodes_unsolved
        assert report.lp_pivots == exact.lp_pivots
        assert report.lp_refactors == exact.lp_refactors
        assert len(report.trace) == len(exact.trace)
        for mine, ref in zip(report.trace, exact.trace):
            assert (mine.node_id, mine.depth, mine.parent_id, mine.action) == \
                   (ref.node_id, ref.depth, ref.parent_id, ref.action)
            assert mine.psi == ref.psi or (np.isnan(mine.psi) and np.isnan(ref.psi))

    def test_overpruning_model_recovers_by_restarting(self):
        frame = make_frame(num_mds=2, num_channels=3, seed=41)
        report = solve_ibnb(frame, model_for(frame, 0.5),
                            ThresholdPolicy(theta0=0.9, delta_theta=1e-5))
        assert report.status is SolveStatus.OPTIMAL
        assert report.restarts >= 1
        assert report.thresholds_tried[0] == 0.9
        assert all(b < a for a, b in zip(report.thresholds_tried,
                                         report.thresholds_tried[1:]))
        # First pass prunes the fractional root and nothing else.
        first = report.passes[0].records
        assert len(first) == 1
        assert first[0].action is NodeAction.PRUNED_BY_MODEL
        a = Assignment(report.best_x.astype(float), report.best_split)
        assert check_feasible(frame, a) == []

    def test_node_count_includes_model_pruned_pops(self):
        frame = make_frame(num_mds=2, num_channels=3, seed=42)
        report = solve_ibnb(frame, model_for(frame, 1e-9),
                            ThresholdPolicy(theta0=1e-7, delta_theta=1e-5))
        # Pass 1: the root is popped, scored 1e-9 <= 1e-7, pruned.  Pass 2
        # runs at 1e-12 where 1e-9 clears the bar.
        assert report.thresholds_tried == [1e-7, 1e-7 * 1e-5]
        assert report.restarts == 1
        assert report.nodes_searched == 1 + len(report.passes[1].records)
        assert report.nodes_searched == len(report.trace)
        # Each pass ran to its end: it made the root and two children per
        # branched node, and solved the rest.
        assert report.nodes_unsolved == sum(
            1 + 2 * sum(rec.action is NodeAction.BRANCHED for rec in p.records)
            - len(p.records) for p in report.passes)

    def test_fallback_to_exact_search(self):
        frame = make_frame(num_mds=2, num_channels=3, seed=43)
        policy = ThresholdPolicy(theta0=0.9, delta_theta=1e-5, theta_min=0.5)
        report = solve_ibnb(frame, model_for(frame, 0.5), policy)
        assert report.fell_back_to_exact
        assert report.status is SolveStatus.OPTIMAL
        assert report.passes[-1].theta is None
        exact = solve_bnb(frame)
        assert report.best_psi == exact.best_psi

    def test_infeasible_instance_detected_without_restarts(self):
        frame = make_frame(num_mds=3, num_channels=2, seed=44)
        report = solve_ibnb(frame, model_for(frame, 0.99))
        assert report.status is SolveStatus.INFEASIBLE
        # The only pass pops the infeasible root; the model never fires, so
        # no threshold decay can change the outcome.
        assert report.restarts == 0
        assert not report.fell_back_to_exact

    def test_feature_width_mismatch_rejected(self):
        frame = make_frame(num_mds=2, num_channels=3, seed=45)
        with pytest.raises(ValueError):
            solve_ibnb(frame, constant_model(99, 0.9))


class TestSoundness:
    @pytest.mark.parametrize("seed", [51, 52, 53, 54])
    def test_learned_incumbent_never_beats_exact_optimum(self, seed):
        frame = make_frame(num_mds=2, num_channels=3, seed=seed)
        exact = solve_bnb(frame)
        rng = np.random.default_rng(seed)
        dims = default_dims(4 + 2 * 6)
        model = MlpModel(
            dims,
            [rng.normal(0, 0.4, size=(dims[i + 1], dims[i]))
             for i in range(len(dims) - 1)],
            [rng.normal(0, 0.1, size=dims[i + 1]) for i in range(len(dims) - 1)],
        )
        report = solve_ibnb(frame, model, ThresholdPolicy(theta0=0.5))
        assert report.status is SolveStatus.OPTIMAL
        assert report.best_psi >= exact.best_psi
        a = Assignment(report.best_x.astype(float), report.best_split)
        assert check_feasible(frame, a) == []

    def test_reserved_set_monotone_in_threshold(self):
        # The kept set {score > theta} can only grow as theta shrinks.
        frame = make_frame(num_mds=2, num_channels=3, seed=55)
        exact = solve_bnb(frame)
        rng = np.random.default_rng(55)
        dims = default_dims(16)
        model = MlpModel(
            dims,
            [rng.normal(0, 0.5, size=(dims[i + 1], dims[i]))
             for i in range(len(dims) - 1)],
            [rng.normal(0, 0.1, size=dims[i + 1]) for i in range(len(dims) - 1)],
        )
        root_psi = exact.trace[0].psi
        scores = [
            forward(model, featurize(rec, root_psi, frame.task_bits))
            for rec in exact.trace
            if rec.action is not NodeAction.PRUNED_INFEASIBLE
        ]
        for big, small in [(1e-2, 1e-4), (0.5, 1e-7), (1e-7, 1e-12)]:
            kept_big = {i for i, s in enumerate(scores) if prune_decision(s, big)}
            kept_small = {i for i, s in enumerate(scores) if prune_decision(s, small)}
            assert kept_big <= kept_small


class TestReportShape:
    def test_trace_flattens_passes(self):
        frame = make_frame(num_mds=2, num_channels=3, seed=61)
        report = solve_ibnb(frame, model_for(frame, 0.5),
                            ThresholdPolicy(theta0=0.9))
        assert len(report.trace) == sum(len(p.records) for p in report.passes)
        assert report.nodes_searched == len(report.trace)

    def test_trace_csv_annotates_passes(self, tmp_path):
        frame = make_frame(num_mds=2, num_channels=3, seed=61)
        report = solve_ibnb(frame, model_for(frame, 0.5),
                            ThresholdPolicy(theta0=0.9))
        path = tmp_path / "trace.csv"
        write_trace_csv(
            path,
            [(p.theta if p.theta is not None else 0.0, i, p.records)
             for i, p in enumerate(report.passes)],
            6,
        )
        text = path.read_text()
        assert text.count("# theta=") == len(report.passes)
        assert "PrunedByModel" in text

    def test_budget_spent_before_fallback_is_not_exceeded(self):
        # The only pass prunes the root and uses the whole budget; the exact
        # fallback must not pop another node.
        frame = make_frame(num_mds=2, num_channels=3, seed=42)
        report = solve_ibnb(frame, model_for(frame, 1e-9),
                            ThresholdPolicy(theta0=1e-7, delta_theta=1e-5,
                                            theta_min=1e-8),
                            SolveOptions(max_nodes=1))
        assert report.status is SolveStatus.BUDGET_EXHAUSTED
        assert report.nodes_searched == 1
        assert report.best_x is None

    def test_budget_exhaustion_is_explicit(self):
        frame = make_frame(num_mds=3, num_channels=4, seed=62)
        report = solve_ibnb(frame, model_for(frame, 0.99),
                            opts=SolveOptions(max_nodes=3))
        assert report.status is SolveStatus.BUDGET_EXHAUSTED
        assert report.nodes_searched == 3
