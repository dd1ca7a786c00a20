"""The answer checker of ``perfbench/oracle.py``, which every solver test
prices answers with: its self-test, its cost formula against sums written
out by hand, and the infeasible assignments it must reject."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import selftest
from oracle import assignment_faults, recompute_objective

from conftest import frame_args, make_frame, make_uniform_frame


def test_selftest_passes():
    assert selftest.run() == []


def latency(frame, split):
    return recompute_objective(frame.rates_bps, frame.powers_w, 1.0, 0.0, split)


def energy(frame, split):
    return recompute_objective(frame.rates_bps, frame.powers_w, 0.0, 1.0, split)


def cost(frame, split):
    rates, powers, _, lambda_t, lambda_e = frame_args(frame)
    return recompute_objective(rates, powers, lambda_t, lambda_e, split)


class TestRecomputeObjective:
    def test_all_zero_assignment(self, small_frame):
        assert latency(small_frame, np.zeros((2, 3))) == 0.0
        assert energy(small_frame, np.zeros((2, 3))) == 0.0

    def test_symmetric_split_single_device(self):
        frame = make_uniform_frame(1, 2)
        task = frame.task_bits[0]
        r = frame.rates_bps[0, 0]
        assert latency(frame, np.full((1, 2), task / 2)) == pytest.approx(task / 2 / r,
                                                                          rel=1e-12)

    def test_single_term_energy(self):
        frame = make_frame(num_mds=1, num_channels=1, seed=9)
        task = frame.task_bits[0]
        expected = frame.powers_w[0] * task / frame.rates_bps[0, 0]
        assert energy(frame, np.array([[task]])) == pytest.approx(expected, rel=1e-12)

    def test_latency_and_energy_match_plain_loops(self):
        frame = make_frame(num_mds=2, num_channels=3, seed=21)
        rng = np.random.default_rng(0)
        x = np.array([[1, 0, 0], [0, 1, 1]])
        l = x * rng.uniform(0.2, 0.8, size=(2, 3)) * frame.task_bits[:, None]
        t_by_hand = max(
            sum(x[s][k] * l[s][k] / frame.rates_bps[s, k] for s in range(2))
            for k in range(3)
        )
        e_by_hand = sum(
            frame.powers_w[s] * x[s][k] * l[s][k] / frame.rates_bps[s, k]
            for s in range(2) for k in range(3)
        )
        assert latency(frame, l) == pytest.approx(t_by_hand, rel=1e-12)
        assert energy(frame, l) == pytest.approx(e_by_hand, rel=1e-12)

    def test_objective_weight_extremes(self):
        frame_t = make_frame(seed=3, lambda_t=1.0, lambda_e=0.0)
        frame_e = make_frame(seed=3, lambda_t=0.0, lambda_e=1.0)
        split = np.array([[frame_t.task_bits[0], 0, 0], [0, frame_t.task_bits[1], 0]])
        assert cost(frame_t, split) == pytest.approx(latency(frame_t, split))
        assert cost(frame_e, split) == pytest.approx(energy(frame_e, split))

    def test_objective_closed_form_single_pair(self):
        frame = make_frame(num_mds=1, num_channels=1, seed=13,
                           lambda_t=1.0, lambda_e=0.25)
        task, p, r = frame.task_bits[0], frame.powers_w[0], frame.rates_bps[0, 0]
        expected = 1.0 * task / r + 0.25 * p * task / r
        assert cost(frame, np.array([[task]])) == pytest.approx(expected, rel=1e-12)

    @given(factor=st.floats(min_value=1e-3, max_value=1e3), seed=st.integers(0, 50))
    @settings(max_examples=25, deadline=None)
    def test_objective_linear_in_weights(self, factor, seed):
        base = make_frame(seed=seed, lambda_t=1.0, lambda_e=0.25)
        scaled = make_frame(seed=seed, lambda_t=factor, lambda_e=0.25 * factor)
        rng = np.random.default_rng(seed)
        x = (rng.random((2, 3)) < 0.5).astype(float)
        split = x * rng.uniform(0, 1, (2, 3)) * base.task_bits[:, None]
        assert cost(scaled, split) == pytest.approx(factor * cost(base, split), rel=1e-12)

    @given(seed=st.integers(0, 50), ds=st.integers(0, 1), dk=st.integers(0, 2),
           bump=st.floats(min_value=0.0, max_value=1e6))
    @settings(max_examples=25, deadline=None)
    def test_latency_monotone_in_active_splits(self, seed, ds, dk, bump):
        frame = make_frame(seed=seed)
        rng = np.random.default_rng(seed)
        l = rng.uniform(0, 1, (2, 3)) * frame.task_bits[:, None]
        before = latency(frame, l)
        l2 = l.copy()
        l2[ds, dk] += bump
        assert latency(frame, l2) >= before - 1e-15

    @given(seed=st.integers(0, 50))
    @settings(max_examples=20, deadline=None)
    def test_energy_summation_order_invariant(self, seed):
        frame = make_frame(seed=seed)
        rng = np.random.default_rng(seed)
        x = (rng.random((2, 3)) < 0.7).astype(float)
        l = rng.uniform(0, 1, (2, 3)) * frame.task_bits[:, None]
        channel_first = sum(
            sum(frame.powers_w[s] * x[s, k] * l[s, k] / frame.rates_bps[s, k]
                for s in range(2))
            for k in range(3)
        )
        md_first = sum(
            sum(frame.powers_w[s] * x[s, k] * l[s, k] / frame.rates_bps[s, k]
                for k in range(3))
            for s in range(2)
        )
        assert channel_first == pytest.approx(md_first, rel=1e-12)
        assert energy(frame, x * l) == pytest.approx(channel_first, rel=1e-12)


class TestAssignmentFaults:
    @staticmethod
    def _valid_assignment(frame):
        """Device s sends its whole task on channel s, at its true cost."""
        s_n, k_n = frame.num_mds, frame.num_channels
        x = np.zeros((s_n, k_n))
        l = np.zeros((s_n, k_n))
        for s in range(s_n):
            x[s, s] = 1.0
            l[s, s] = frame.task_bits[s]
        return x, l, cost(frame, l)

    def test_valid_assignment_passes(self, small_frame):
        assert assignment_faults(*frame_args(small_frame),
                                 *self._valid_assignment(small_frame)) == []

    def test_shared_channel_flagged(self, small_frame):
        x, l, psi = self._valid_assignment(small_frame)
        x[1, 1] = 0.0
        x[1, 0] = 1.0
        l[1, 1] = 0.0
        l[1, 0] = small_frame.task_bits[1]
        faults = assignment_faults(*frame_args(small_frame), x, l, psi)
        assert "channel 0 is used by 2 devices" in faults

    def test_short_split_flagged(self, small_frame):
        x, l, psi = self._valid_assignment(small_frame)
        l[1, 1] *= 0.9
        faults = assignment_faults(*frame_args(small_frame), x, l, psi)
        assert any(f.startswith("device 1 sends") for f in faults)

    def test_fractional_indicator_flagged(self, small_frame):
        x, l, psi = self._valid_assignment(small_frame)
        x[0, 0] = 0.5
        faults = assignment_faults(*frame_args(small_frame), x, l, psi)
        assert "x is not exactly binary" in faults

    def test_split_without_assignment_flagged(self, small_frame):
        x, l, psi = self._valid_assignment(small_frame)
        l[0, 2] = small_frame.task_bits[0] * 0.5
        l[0, 0] *= 0.5
        faults = assignment_faults(*frame_args(small_frame), x, l, psi)
        assert any(f.startswith("split[0,2]") and f.endswith("on an unassigned channel")
                   for f in faults)
