import itertools
import sys
from pathlib import Path

import numpy as np
import pytest

import mecoffload.lp as lp_module
from mecoffload.scenario import Scenario, ScenarioConfig, generate_frame, rate

# Answers are checked by the benchmark's oracle, which shares no code with
# the package: tests import it, and its self-test, from perfbench/.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))


def frame_args(frame: Scenario) -> tuple:
    """The frame as the oracle's leading arguments: rates, powers, task
    sizes and the two weights."""
    cfg = frame.config
    return frame.rates_bps, frame.powers_w, frame.task_bits, cfg.lambda_t, cfg.lambda_e


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


def node_pinned(fixed, s_n, k_n) -> np.ndarray:
    """The flow pins of the node with fixing vector ``fixed`` (-1 free, 0 or
    1 fixed), written from the model's definition: x_sk = 0 pins z_sk, and
    x_sk = 1 pins z_s'k for every other device s'.  An (S, K) bool array,
    True where a flow is pinned at zero."""
    x = np.asarray(fixed).reshape(s_n, k_n)
    pinned = np.zeros((s_n, k_n), dtype=bool)
    for s, k in zip(*np.nonzero(x == 0)):
        pinned[s, k] = True
    for s, k in zip(*np.nonzero(x == 1)):
        for other in range(s_n):
            if other != s:
                pinned[other, k] = True
    return pinned


def highs_bounds(pinned: np.ndarray) -> list[tuple[float, float | None]]:
    """The variable bounds under the pin mask ``pinned`` as scipy's
    ``linprog`` takes them: (0, 0) on a pinned variable and (0, None) on a
    free one."""
    return [(0.0, 0.0) if pin else (0.0, None) for pin in pinned]


def eager_node_arrays(record, frame: Scenario) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A trace record's indicators, counted shares and splits, rebuilt here
    from its LP flows (each its share of its device's task), its fixing
    vector and the frame's task sizes alone: x is the counted support at a
    leaf and the shares clipped to [0, 1] elsewhere, 1 wherever a fixing
    holds a 1, the counted shares are the shares above the LP's
    feasibility tolerance, 0 elsewhere, and the splits are those shares of
    each task in bits."""
    s_n, k_n = frame.num_mds, frame.num_channels
    share = record.flows.reshape(s_n, k_n)
    support = share > lp_module.FEASIBILITY_TOL
    leaf = support.sum(axis=0).max() <= 1
    assert leaf == (record.first_fractional is None)
    x = (support.astype(float) if leaf else share.clip(0.0, 1.0)).ravel()
    x[record.fixed == 1] = 1.0
    counted = np.where(support, share, 0.0)
    return x, counted.ravel(), (counted * frame.task_bits[:, None]).ravel()


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal arrays, bit for bit: same dtype, shape and bytes."""
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def covering_maps(num_mds, num_channels):
    """Every channel-to-device map, idle channels allowed, that leaves no
    device without a channel: each an (S, K) 0/1 matrix.  Owner 0 of a
    channel is idle and owner s + 1 is device s."""
    for owners in itertools.product(range(num_mds + 1), repeat=num_channels):
        if len(set(owners) - {0}) < num_mds:
            continue  # some device got no channel
        x = np.zeros((num_mds, num_channels), dtype=int)
        for k, owner in enumerate(owners):
            if owner > 0:
                x[owner - 1, k] = 1
        yield x


def first_pivot_objective(lp: lp_module.LinearProgram, pinned: np.ndarray,
                          start: lp_module.Basis, monkeypatch) -> float:
    """The objective of ``lp``'s dual simplex under the pin mask ``pinned``
    from ``start`` after one pivot.  The basic values are solved afresh from the basis the pivot
    reached, every nonbasic variable at zero: those the pivots maintain
    drift, by up to ~1.6e-12 (relative) in the objective on the 4x6 search
    frames of the tests.  The simplex prices in ``lp.cost_scale`` units,
    so the objective is read back from them."""
    sim = lp_module._DualSimplex(lp, np.concatenate((pinned, lp.slack_pinned)), start)
    with monkeypatch.context() as m:
        m.setattr(lp_module, "_pivot_cap", lambda rows, cols: 0)
        with pytest.raises(ArithmeticError, match="iteration limit"):
            sim.dual()
    assert sim.pivots == 1
    x = np.zeros(sim.num_cols)
    x[sim.basis] = np.linalg.solve(sim.a[:, sim.basis], sim.b)
    return float(sim.c.dot(x)) / lp.cost_scale


@pytest.fixture
def small_frame() -> Scenario:
    return make_frame(num_mds=2, num_channels=3, seed=11)
