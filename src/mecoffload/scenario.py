"""Random MEC offloading frames and their uplink rates.

A frame holds everything the solvers need about one scheduling interval:
channel power gains between each mobile device (MD) and the access point,
per-device transmit powers and task sizes, and the precomputed uplink rate
of every (device, subchannel) pair.  The weighted latency + energy cost of
an assignment is not computed here.  The solvers minimise it in the node
relaxations and the split oracle of :mod:`relax`; answers are checked
against ``perfbench/oracle.py``, which prices them from the frame's raw
arrays and shares no code with this package.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ScenarioConfig",
    "Scenario",
    "dbm_to_watts",
    "generate_frame",
    "rate",
    "read_config_file",
]

#: Relative tolerance for the precomputed-rate consistency check.
RATE_CONSISTENCY_RTOL = 1e-12


def dbm_to_watts(dbm: float) -> float:
    """Convert a dBm power level to watts."""
    return 10.0 ** (dbm / 10.0) / 1000.0


@dataclass(frozen=True)
class ScenarioConfig:
    """Parameters of one random frame draw.

    Powers and task sizes are drawn uniformly per device; channel power
    gains are exponential with mean ``mean_channel_gain`` (Rayleigh
    amplitude fading).  ``lambda_t`` weighs latency in 1/seconds and
    ``lambda_e`` weighs energy in 1/joules.
    """

    num_mds: int = 3
    num_channels: int = 5
    bandwidth_hz: float = 1.0e7
    noise_power_w: float = dbm_to_watts(-110.0)
    power_range_w: tuple[float, float] = (1.0, 1.5)
    task_size_range_bits: tuple[float, float] = (2.0e6, 8.0e6)
    mean_channel_gain: float = 1.0
    lambda_t: float = 1.0
    lambda_e: float = 0.25
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if self.num_mds < 1:
            raise ValueError(f"num_mds must be >= 1, got {self.num_mds}")
        if self.num_channels < 1:
            raise ValueError(f"num_channels must be >= 1, got {self.num_channels}")
        # Every float setting is finite; each test is written so that NaN
        # fails it too.
        for name in ("bandwidth_hz", "noise_power_w", "mean_channel_gain"):
            value = getattr(self, name)
            if not 0 < value < np.inf:
                raise ValueError(f"{name} must be finite and positive, got {value}")
        for name in ("power_range_w", "task_size_range_bits"):
            lo, hi = getattr(self, name)
            if not 0 < lo <= hi < np.inf:
                raise ValueError(f"{name} must satisfy 0 < min <= max < inf, got {(lo, hi)}")
        for name in ("lambda_t", "lambda_e"):
            value = getattr(self, name)
            if not 0 <= value < np.inf:
                raise ValueError(f"{name} must be finite and nonnegative, got {value}")
        if self.lambda_t + self.lambda_e <= 0:
            raise ValueError(
                "weights need lambda_t + lambda_e > 0, "
                f"got ({self.lambda_t}, {self.lambda_e})"
            )


@dataclass(frozen=True)
class Scenario:
    """One generated frame.  Immutable; safe to share across solver runs."""

    config: ScenarioConfig
    gains: np.ndarray        # (S, K) channel power gains, dimensionless
    powers_w: np.ndarray     # (S,) transmit powers
    task_bits: np.ndarray    # (S,) task sizes
    rates_bps: np.ndarray    # (S, K) uplink rates

    def __post_init__(self) -> None:
        s, k = self.config.num_mds, self.config.num_channels
        if self.gains.shape != (s, k) or self.rates_bps.shape != (s, k):
            raise ValueError("gain/rate arrays must have shape (num_mds, num_channels)")
        if self.powers_w.shape != (s,) or self.task_bits.shape != (s,):
            raise ValueError("powers_w and task_bits must have shape (num_mds,)")
        # Written so that NaN fails it too.
        for name in ("gains", "powers_w", "task_bits", "rates_bps"):
            values = getattr(self, name)
            if not np.all((values > 0) & (values < np.inf)):
                raise ValueError(f"every entry of {name} must be finite and positive")
        expected = rate(
            self.powers_w[:, None], self.gains,
            self.config.bandwidth_hz, self.config.noise_power_w,
        )
        if not np.allclose(self.rates_bps, expected, rtol=RATE_CONSISTENCY_RTOL, atol=0.0):
            raise ValueError("precomputed rates disagree with the rate equation")

    @property
    def num_mds(self) -> int:
        return self.config.num_mds

    @property
    def num_channels(self) -> int:
        return self.config.num_channels


def generate_frame(config: ScenarioConfig) -> Scenario:
    """Draw one frame. Deterministic function of ``config.rng_seed``.

    Draw order is fixed (gains, then powers, then task sizes) so that a
    seed identifies a frame independently of library internals.
    """
    rng = np.random.default_rng(config.rng_seed)
    s, k = config.num_mds, config.num_channels
    gains = rng.exponential(config.mean_channel_gain, size=(s, k))
    powers = rng.uniform(*config.power_range_w, size=s)
    tasks = rng.uniform(*config.task_size_range_bits, size=s)
    rates = rate(powers[:, None], gains, config.bandwidth_hz, config.noise_power_w)
    return Scenario(config, gains, powers, tasks, rates)


def rate(power_w, gain, bandwidth_hz, noise_power_w):
    """Uplink rate in bits/sec: B * log2(1 + P*h/N0).  Accepts arrays."""
    return bandwidth_hz * np.log2(1.0 + power_w * gain / noise_power_w)


# ---------------------------------------------------------------------------
# Config file and frame dump formats
# ---------------------------------------------------------------------------

#: Key vocabulary of the flat ``key = value`` config format, in file order.
CONFIG_KEYS = (
    "num_mds",
    "num_channels",
    "bandwidth_hz",
    "noise_dbm",
    "power_min_w",
    "power_max_w",
    "task_min_bits",
    "task_max_bits",
    "mean_gain",
    "lambda_t",
    "lambda_e",
    "seed",
)


def read_config_file(path) -> ScenarioConfig:
    """Parse a flat ``key = value`` config file (``#`` starts a comment).

    All keys in :data:`CONFIG_KEYS` are required exactly once, each with a
    value of its type (a ValueError names the key if not); the noise floor
    is given in dBm and converted to watts here so everything downstream is
    in SI units.
    """
    values: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in CONFIG_KEYS:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            if key in values:
                raise ValueError(f"{path}:{lineno}: duplicate key {key!r}")
            values[key] = value
    missing = [k for k in CONFIG_KEYS if k not in values]
    if missing:
        raise ValueError(f"{path}: missing keys: {', '.join(missing)}")

    def parsed(key: str, kind: type = float):
        try:
            return kind(values[key])
        except ValueError:
            expected = "an integer" if kind is int else "a number"
            raise ValueError(f"{path}: {key} = {values[key]!r} is not {expected}") from None

    return ScenarioConfig(
        num_mds=parsed("num_mds", int),
        num_channels=parsed("num_channels", int),
        bandwidth_hz=parsed("bandwidth_hz"),
        noise_power_w=dbm_to_watts(parsed("noise_dbm")),
        power_range_w=(parsed("power_min_w"), parsed("power_max_w")),
        task_size_range_bits=(parsed("task_min_bits"), parsed("task_max_bits")),
        mean_channel_gain=parsed("mean_gain"),
        lambda_t=parsed("lambda_t"),
        lambda_e=parsed("lambda_e"),
        rng_seed=parsed("seed", int),
    )
