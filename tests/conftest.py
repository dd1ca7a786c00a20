import numpy as np
import pytest

import mecoffload.lp as lp_module
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


def node_upper(fixed, s_n, k_n) -> np.ndarray:
    """The flow upper bounds of the node with fixing vector ``fixed`` (-1
    free, 0 or 1 fixed), written from the model's definition: x_sk = 0 pins
    y_sk, and x_sk = 1 pins y_s'k for every other device s'.  An (S, K)
    array, 0 where a flow is pinned and inf elsewhere."""
    x = np.asarray(fixed).reshape(s_n, k_n)
    upper = np.full((s_n, k_n), np.inf)
    for s, k in zip(*np.nonzero(x == 0)):
        upper[s, k] = 0.0
    for s, k in zip(*np.nonzero(x == 1)):
        for other in range(s_n):
            if other != s:
                upper[other, k] = 0.0
    return upper


def first_pivot_objective(lp: lp_module.LinearProgram, start: lp_module.Basis,
                          monkeypatch) -> float:
    """The objective of ``lp``'s dual simplex from ``start`` after one
    pivot.  The basic values are solved afresh from the basis the pivot
    reached: those the pivots maintain drift, by up to ~1.6e-12 (relative)
    in the objective on the 4x6 search frames of the tests."""
    sim = lp_module._BoundedSimplex(lp, start)
    with monkeypatch.context() as m:
        m.setattr(lp_module, "_pivot_cap", lambda rows, cols: 0)
        with pytest.raises(ArithmeticError, match="iteration limit"):
            sim.dual()
    assert sim.pivots == 1
    x = sim.x.copy()
    x[sim.basis] = np.linalg.solve(sim.a[:, sim.basis], sim.b - sim.a.dot(x))
    return float(sim.c.dot(x))


@pytest.fixture
def small_frame() -> Scenario:
    return make_frame(num_mds=2, num_channels=3, seed=11)
