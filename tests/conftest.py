import numpy as np
import pytest

from mecoffload.scenario import Scenario, ScenarioConfig, generate_frame, rate


def make_frame(num_mds=2, num_channels=3, seed=1, **overrides) -> Scenario:
    cfg = ScenarioConfig(
        num_mds=num_mds, num_channels=num_channels, rng_seed=seed, **overrides
    )
    return generate_frame(cfg)


def make_uniform_frame(num_mds, num_channels, gain=1.0, power=1.2, task=4.0e6,
                       **overrides) -> Scenario:
    """Frame with identical devices: one power and one task size for all.

    A scalar ``gain`` makes every channel identical too; a per-channel
    vector gives each channel its own gain, the same for every device."""
    cfg = ScenarioConfig(num_mds=num_mds, num_channels=num_channels, **overrides)
    gains = np.full((num_mds, num_channels), gain)
    powers = np.full(num_mds, power)
    tasks = np.full(num_mds, task)
    rates = rate(powers[:, None], gains, cfg.bandwidth_hz, cfg.noise_power_w)
    return Scenario(cfg, gains, powers, tasks, rates)


@pytest.fixture
def small_frame() -> Scenario:
    return make_frame(num_mds=2, num_channels=3, seed=11)
