import math
from dataclasses import replace

import numpy as np
import pytest

from mecoffload.scenario import (
    ScenarioConfig,
    dbm_to_watts,
    generate_frame,
    rate,
    read_config_file,
)

from conftest import make_frame


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

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("name, setting", [
        ("bandwidth_hz", lambda v: {"bandwidth_hz": v}),
        ("noise_power_w", lambda v: {"noise_power_w": v}),
        ("power_range_w", lambda v: {"power_range_w": (1.0, v)}),
        ("power_range_w", lambda v: {"power_range_w": (v, 1.5)}),
        ("task_size_range_bits", lambda v: {"task_size_range_bits": (2.0e6, v)}),
        ("mean_channel_gain", lambda v: {"mean_channel_gain": v}),
        ("lambda_t", lambda v: {"lambda_t": v}),
        ("lambda_e", lambda v: {"lambda_e": v}),
    ], ids=["bandwidth", "noise", "power-max", "power-min", "task-max", "gain", "lambda_t",
            "lambda_e"])
    def test_nonfinite_setting_rejected_by_name(self, name, setting, value):
        # NaN compares false with everything, so a test like ``x < 0`` lets
        # it through; every float setting is checked to be finite.
        with pytest.raises(ValueError, match=name):
            ScenarioConfig(**setting(value))

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

    @pytest.mark.parametrize("name, edit, match", [
        ("gains", lambda a: a[:, :-1], "gain/rate arrays must have shape"),
        ("rates_bps", lambda a: a.T, "gain/rate arrays must have shape"),
        ("powers_w", lambda a: a[:-1], "powers_w and task_bits must have shape"),
        ("task_bits", lambda a: a[:, None], "powers_w and task_bits must have shape"),
        ("gains", lambda a: np.where(a == a.max(), 0.0, a), "gains must be finite and positive"),
        ("task_bits", lambda a: -a, "task_bits must be finite and positive"),
        ("rates_bps", lambda a: a * (1 + 1e-9), "disagree with the rate equation"),
        # One infinite entry: the exhaustive oracle answered such frames,
        # optimal or infeasible, and the search failed inside its LP.
        ("gains", lambda a: np.where(a == a.max(), np.inf, a), "gains must be finite"),
        ("powers_w", lambda a: np.where(a == a.max(), np.inf, a), "powers_w must be finite"),
        ("task_bits", lambda a: np.where(a == a.max(), np.inf, a), "task_bits must be finite"),
    ], ids=["gain-shape", "rate-shape", "power-shape", "task-shape", "zero-gain",
            "negative-task", "rates-off-equation", "infinite-gain", "infinite-power",
            "infinite-task"])
    def test_inconsistent_arrays_rejected(self, name, edit, match):
        # A frame built from arrays, as the benchmark builds its perturbed
        # frames, is checked against its config and the rate equation.
        frame = make_frame(num_mds=2, num_channels=3, seed=1)
        with pytest.raises(ValueError, match=match):
            replace(frame, **{name: edit(getattr(frame, name))})

    def test_more_devices_than_channels_still_generates(self):
        frame = make_frame(num_mds=4, num_channels=2, seed=5)
        assert frame.gains.shape == (4, 2)


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

    @pytest.mark.parametrize("key, text, named", [
        ("lambda_t", "nan", "lambda_t"),
        ("lambda_e", "inf", "lambda_e"),
        ("bandwidth_hz", "inf", "bandwidth_hz"),
        ("noise_dbm", "inf", "noise_power_w"),
        ("power_max_w", "inf", "power_range_w"),
        ("task_max_bits", "nan", "task_size_range_bits"),
        ("mean_gain", "inf", "mean_channel_gain"),
    ])
    def test_nonfinite_value_rejected_by_name(self, tmp_path, key, text, named):
        path = tmp_path / "frame.cfg"
        lines = [f"{key} = {text}" if line.startswith(f"{key} =") else line
                 for line in self.CONFIG_TEXT.splitlines()]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=named):
            read_config_file(path)

    @pytest.mark.parametrize("key, text, kind", [
        ("num_mds", "2.5", "an integer"),
        ("seed", "x", "an integer"),
        ("lambda_t", "abc", "a number"),
        ("noise_dbm", "-110 dBm", "a number"),
    ], ids=["num_mds", "seed", "lambda_t", "noise_dbm"])
    def test_unparsable_value_names_file_and_key(self, tmp_path, key, text, kind):
        path = tmp_path / "frame.cfg"
        lines = [f"{key} = {text}" if line.startswith(f"{key} =") else line
                 for line in self.CONFIG_TEXT.splitlines()]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as info:
            read_config_file(path)
        assert str(info.value) == f"{path}: {key} = {text!r} is not {kind}"

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

    def test_line_without_equals_rejected(self, tmp_path):
        path = tmp_path / "frame.cfg"
        path.write_text(self.CONFIG_TEXT + "seed 9\n")
        with pytest.raises(ValueError, match=":14: expected 'key = value'"):
            read_config_file(path)

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "frame.cfg"
        path.write_text(self.CONFIG_TEXT + "seed = 9\n")
        with pytest.raises(ValueError, match="duplicate"):
            read_config_file(path)

