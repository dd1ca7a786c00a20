import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mecoffload.scenario import (
    Assignment,
    ScenarioConfig,
    check_feasible,
    dbm_to_watts,
    energy,
    generate_frame,
    latency,
    objective,
    rate,
    read_config_file,
)

from conftest import make_frame, make_uniform_frame


class TestConfig:
    def test_defaults_valid(self):
        ScenarioConfig()

    @pytest.mark.parametrize("overrides", [
        {"num_mds": 0},
        {"num_channels": 0},
        {"bandwidth_hz": 0.0},
        {"noise_power_w": -1.0},
        {"power_range_w": (0.0, 1.0)},
        {"power_range_w": (2.0, 1.0)},
        {"task_size_range_bits": (-1.0, 5.0)},
        {"mean_channel_gain": 0.0},
        {"lambda_t": -0.1},
        {"lambda_t": 0.0, "lambda_e": 0.0},
    ])
    def test_invalid_configs_rejected(self, overrides):
        with pytest.raises(ValueError):
            ScenarioConfig(**overrides)

    def test_noise_floor_conversion(self):
        assert dbm_to_watts(-110.0) == pytest.approx(1e-14, rel=1e-12)
        assert dbm_to_watts(0.0) == pytest.approx(1e-3, rel=1e-12)


class TestGenerateFrame:
    def test_same_seed_identical(self):
        cfg = ScenarioConfig(rng_seed=42)
        a, b = generate_frame(cfg), generate_frame(cfg)
        assert np.array_equal(a.gains, b.gains)
        assert np.array_equal(a.powers_w, b.powers_w)
        assert np.array_equal(a.task_bits, b.task_bits)
        assert np.array_equal(a.rates_bps, b.rates_bps)

    def test_different_seed_differs(self):
        a = generate_frame(ScenarioConfig(rng_seed=1))
        b = generate_frame(ScenarioConfig(rng_seed=2))
        assert not np.array_equal(a.gains, b.gains)

    def test_reference_parameters(self):
        # 10 MHz bandwidth, -110 dBm noise floor, watt-level powers.
        cfg = ScenarioConfig(
            bandwidth_hz=1.0e7,
            noise_power_w=dbm_to_watts(-110.0),
            power_range_w=(1.0, 1.5),
            rng_seed=3,
        )
        frame = generate_frame(cfg)
        assert np.all(frame.powers_w >= 1.0) and np.all(frame.powers_w <= 1.5)
        assert np.all(frame.rates_bps > 0)

    def test_gain_sample_mean(self):
        # Law of large numbers: exponential(mean=1) has std 1, so the mean of
        # n draws lies within 3/sqrt(n) of 1 with overwhelming probability.
        n = 100_000
        cfg = ScenarioConfig(num_mds=1, num_channels=1, mean_channel_gain=1.0)
        rng = np.random.default_rng(cfg.rng_seed)
        draws = rng.exponential(1.0, size=n)
        assert abs(draws.mean() - 1.0) < 3.0 / math.sqrt(n)

    def test_more_devices_than_channels_still_generates(self):
        frame = make_frame(num_mds=4, num_channels=2, seed=5)
        assert frame.gains.shape == (4, 2)

    def test_task_scale_is_the_largest_task_and_cached_read_only(self):
        frame = make_frame(num_mds=4, num_channels=6, seed=7)
        assert frame.task_scale == float(frame.task_bits[frame.task_bits.argmax()])
        tasks = frame.scaled_tasks
        assert tasks.tobytes() == (frame.task_bits / frame.task_scale).tobytes()
        assert frame.scaled_tasks is tasks
        with pytest.raises(ValueError):
            tasks[0] = 2.0


class TestRate:
    def test_zero_gain(self):
        assert rate(1.0, 0.0, 1e7, 1e-14) == 0.0

    def test_unit_snr(self):
        # P*h/N0 == 1 makes log2(2) == 1: the rate equals the bandwidth.
        assert rate(1.0, 1e-14, 1e7, 1e-14) == pytest.approx(1e7, rel=1e-15)

    def test_against_high_precision_log(self):
        import mpmath

        mpmath.mp.dps = 50
        expected = float(1e7 * mpmath.log(1001, 2))
        h = 1000 * 1e-14 / 1.2
        assert rate(1.2, h, 1e7, 1e-14) == pytest.approx(expected, rel=1e-13)


class TestEvaluation:
    def test_all_zero_assignment(self, small_frame):
        a = Assignment(np.zeros((2, 3)), np.zeros((2, 3)))
        assert latency(small_frame, a) == 0.0
        assert energy(small_frame, a) == 0.0

    def test_symmetric_split_single_device(self):
        frame = make_uniform_frame(1, 2)
        task = frame.task_bits[0]
        r = frame.rates_bps[0, 0]
        a = Assignment(np.ones((1, 2)), np.full((1, 2), task / 2))
        assert latency(frame, a) == pytest.approx(task / 2 / r, rel=1e-12)

    def test_single_term_energy(self):
        frame = make_frame(num_mds=1, num_channels=1, seed=9)
        task = frame.task_bits[0]
        a = Assignment(np.ones((1, 1)), np.array([[task]]))
        expected = frame.powers_w[0] * task / frame.rates_bps[0, 0]
        assert energy(frame, a) == pytest.approx(expected, rel=1e-12)

    def test_latency_and_energy_match_plain_loops(self):
        frame = make_frame(num_mds=2, num_channels=3, seed=21)
        rng = np.random.default_rng(0)
        x = np.array([[1, 0, 0], [0, 1, 1]])
        l = x * rng.uniform(0.2, 0.8, size=(2, 3)) * frame.task_bits[:, None]
        a = Assignment(x, l)
        t_by_hand = max(
            sum(x[s][k] * l[s][k] / frame.rates_bps[s, k] for s in range(2))
            for k in range(3)
        )
        e_by_hand = sum(
            frame.powers_w[s] * x[s][k] * l[s][k] / frame.rates_bps[s, k]
            for s in range(2) for k in range(3)
        )
        assert latency(frame, a) == pytest.approx(t_by_hand, rel=1e-12)
        assert energy(frame, a) == pytest.approx(e_by_hand, rel=1e-12)

    def test_objective_weight_extremes(self):
        frame_t = make_frame(seed=3, lambda_t=1.0, lambda_e=0.0)
        frame_e = make_frame(seed=3, lambda_t=0.0, lambda_e=1.0)
        a = Assignment(
            np.array([[1, 0, 0], [0, 1, 0]]),
            np.array([[frame_t.task_bits[0], 0, 0], [0, frame_t.task_bits[1], 0]]),
        )
        assert objective(frame_t, a) == pytest.approx(latency(frame_t, a))
        assert objective(frame_e, a) == pytest.approx(energy(frame_e, a))

    def test_objective_closed_form_single_pair(self):
        frame = make_frame(num_mds=1, num_channels=1, seed=13,
                           lambda_t=1.0, lambda_e=0.25)
        task, p, r = frame.task_bits[0], frame.powers_w[0], frame.rates_bps[0, 0]
        a = Assignment(np.ones((1, 1)), np.array([[task]]))
        expected = 1.0 * task / r + 0.25 * p * task / r
        assert objective(frame, a) == pytest.approx(expected, rel=1e-12)

    @given(factor=st.floats(min_value=1e-3, max_value=1e3), seed=st.integers(0, 50))
    @settings(max_examples=25, deadline=None)
    def test_objective_linear_in_weights(self, factor, seed):
        base = make_frame(seed=seed, lambda_t=1.0, lambda_e=0.25)
        scaled = make_frame(seed=seed, lambda_t=factor, lambda_e=0.25 * factor)
        rng = np.random.default_rng(seed)
        x = (rng.random((2, 3)) < 0.5).astype(float)
        l = rng.uniform(0, 1, (2, 3)) * base.task_bits[:, None]
        a = Assignment(x, l)
        assert objective(scaled, a) == pytest.approx(factor * objective(base, a),
                                                     rel=1e-12)

    @given(seed=st.integers(0, 50), ds=st.integers(0, 1), dk=st.integers(0, 2),
           bump=st.floats(min_value=0.0, max_value=1e6))
    @settings(max_examples=25, deadline=None)
    def test_latency_monotone_in_active_splits(self, seed, ds, dk, bump):
        frame = make_frame(seed=seed)
        rng = np.random.default_rng(seed)
        x = np.ones((2, 3))
        l = rng.uniform(0, 1, (2, 3)) * frame.task_bits[:, None]
        before = latency(frame, Assignment(x, l))
        l2 = l.copy()
        l2[ds, dk] += bump
        assert latency(frame, Assignment(x, l2)) >= before - 1e-15

    @given(seed=st.integers(0, 50))
    @settings(max_examples=20, deadline=None)
    def test_energy_summation_order_invariant(self, seed):
        frame = make_frame(seed=seed)
        rng = np.random.default_rng(seed)
        x = (rng.random((2, 3)) < 0.7).astype(float)
        l = rng.uniform(0, 1, (2, 3)) * frame.task_bits[:, None]
        a = Assignment(x, l)
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
        e = energy(frame, a)
        assert channel_first == pytest.approx(md_first, rel=1e-12)
        assert e == pytest.approx(channel_first, rel=1e-12)


class TestCheckFeasible:
    def _valid_assignment(self, frame):
        s_n, k_n = frame.num_mds, frame.num_channels
        x = np.zeros((s_n, k_n))
        l = np.zeros((s_n, k_n))
        for s in range(s_n):
            x[s, s] = 1.0
            l[s, s] = frame.task_bits[s]
        return Assignment(x, l)

    def test_valid_assignment_passes(self, small_frame):
        assert check_feasible(small_frame, self._valid_assignment(small_frame)) == []

    def test_shared_channel_flagged(self, small_frame):
        a = self._valid_assignment(small_frame)
        a.x[1, 1] = 0.0
        a.x[1, 0] = 1.0
        a.split_bits[1, 1] = 0.0
        a.split_bits[1, 0] = small_frame.task_bits[1]
        messages = check_feasible(small_frame, a)
        assert any("channel_exclusivity" in m and "channel 0" in m for m in messages)

    def test_short_split_flagged(self, small_frame):
        a = self._valid_assignment(small_frame)
        a.split_bits[1, 1] *= 0.9
        messages = check_feasible(small_frame, a)
        assert any("task_split" in m and "device 1" in m for m in messages)

    def test_fractional_indicator_flagged(self, small_frame):
        a = self._valid_assignment(small_frame)
        a.x[0, 0] = 0.5
        messages = check_feasible(small_frame, a)
        assert any("binary_indicator" in m for m in messages)

    def test_split_without_assignment_flagged(self, small_frame):
        a = self._valid_assignment(small_frame)
        a.split_bits[0, 2] = small_frame.task_bits[0] * 0.5
        a.split_bits[0, 0] *= 0.5
        messages = check_feasible(small_frame, a)
        assert any("split_requires_assignment" in m for m in messages)


class TestConfigFile:
    CONFIG_TEXT = """\
# desk-scale frame parameters
num_mds = 2
num_channels = 3
bandwidth_hz = 1.0e7
noise_dbm = -110.0
power_min_w = 1.0
power_max_w = 1.5
task_min_bits = 2.0e6
task_max_bits = 8.0e6
mean_gain = 1.0
lambda_t = 1.0
lambda_e = 0.25
seed = 7
"""

    def test_round_trip(self, tmp_path):
        path = tmp_path / "frame.cfg"
        path.write_text(self.CONFIG_TEXT)
        cfg = read_config_file(path)
        assert cfg.num_mds == 2
        assert cfg.num_channels == 3
        assert cfg.noise_power_w == pytest.approx(1e-14, rel=1e-12)
        assert cfg.power_range_w == (1.0, 1.5)
        assert cfg.rng_seed == 7

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "frame.cfg"
        path.write_text(self.CONFIG_TEXT + "bogus = 1\n")
        with pytest.raises(ValueError, match="bogus"):
            read_config_file(path)

    def test_missing_key_rejected(self, tmp_path):
        path = tmp_path / "frame.cfg"
        path.write_text("num_mds = 2\n")
        with pytest.raises(ValueError, match="missing keys"):
            read_config_file(path)

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "frame.cfg"
        path.write_text(self.CONFIG_TEXT + "seed = 9\n")
        with pytest.raises(ValueError, match="duplicate"):
            read_config_file(path)

