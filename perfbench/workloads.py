"""Workload definitions: frame sets, set-up and the solver call of each.

Every workload solves a fixed list of base frames drawn from
``scripts/desk_config.txt`` at its own size.  Base frame ``i`` is the
held-out frame ``cli.py`` would use, seed ``2*(BASE_SEED+i)+1``; training
frames for the learned search are the even seeds ``2*(BASE_SEED+i)``, made
by ``mecoffload gen-data`` itself.  The benchmark seed then perturbs every
channel gain of every base frame by an independent log-normal factor
``exp(JITTER * z)``, ``z ~ N(0, 1)``, and recomputes the rates.  Each seed
is thus a new set of problems with its own optimum to check, while tree
sizes stay close to those of the base frames, so the figures of two seeds
can be compared at all (fresh frames per seed spread node counts 4-fold at
4x6 and make any bound meaningless).

Run as a script, this module is the set-up a caller pays before the first
frame is solved, in a fresh interpreter; it prints the reference-kernel pass
times sampled meanwhile as a JSON list::

    python3 perfbench/workloads.py <workload> <seed> <work-dir>
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
CONFIG = os.path.join(ROOT, "scripts", "desk_config.txt")

#: Base seed of the frame sets; the seed ``desk_config.txt`` names.
BASE_SEED = 100
#: Standard deviation of the log-normal perturbation of each channel gain.
#: At 0.02 the mean node count of ``bnb-4x6`` spread 5.7% (IQR over median)
#: across ten seeds; at 0.01 it spreads 3.3%.
JITTER = 0.01


@dataclass(frozen=True)
class Workload:
    name: str
    solver: str          # "bnb", "ibnb" or "exhaustive"
    num_mds: int
    num_channels: int
    frames: int          # base frames solved in one round
    train_frames: int = 0
    epochs: int = 0
    setups: int = 9      # fresh-interpreter set-ups timed per run


WORKLOADS = {
    w.name: w for w in (
        # Deep, heavy-tailed exact trees; the lp layer does ~95% of the work.
        Workload("bnb-4x6", "bnb", 4, 6, frames=6),
        # The learned pipeline: gen-data and training in set-up, then
        # model-gated search with one forward pass per surviving node.
        Workload("ibnb-3x5", "ibnb", 3, 5, frames=16, train_frames=6, epochs=40, setups=3),
        # The leaf oracle: 390 small split LPs per frame, no tree, no model.
        Workload("exhaustive-3x5", "exhaustive", 3, 5, frames=16),
    )
}

#: Training hyper-parameters passed to ``mecoffload train``; those of
#: ``scripts/run_pipeline.py`` except the epoch count.
TRAIN_ARGS = ("--batch-size", "512", "--learning-rate", "2e-3", "--pos-weight", "5.0")
#: Initial pruning threshold of the learned search.  The model trained in
#: set-up is small (6 frames, 40 epochs), so at the command line's default
#: of 1e-7 it prunes nothing and the workload would time exact search plus
#: model overhead; at 1e-3 it prunes about a third of the nodes.
THETA0 = 1e-3


def import_package():
    """Import ``mecoffload`` from this checkout's ``src`` and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "mecoffload", "__init__.py")):
        raise ImportError(f"no mecoffload package under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import mecoffload
    if os.path.dirname(os.path.dirname(os.path.abspath(mecoffload.__file__))) != SRC:
        raise ImportError(f"mecoffload imported from {mecoffload.__file__}, not {SRC}")
    return mecoffload


def make_frames(wl: Workload, seed: int):
    """The workload's frames for ``seed``: perturbed base frames."""
    from mecoffload.cli import eval_seed
    from mecoffload.scenario import Scenario, generate_frame, rate, read_config_file

    cfg = replace(read_config_file(CONFIG), num_mds=wl.num_mds, num_channels=wl.num_channels)
    rng = np.random.default_rng([seed, wl.num_mds, wl.num_channels])
    frames = []
    for i in range(wl.frames):
        base = generate_frame(replace(cfg, rng_seed=eval_seed(BASE_SEED, i)))
        gains = base.gains * np.exp(JITTER * rng.standard_normal(base.gains.shape))
        rates = rate(base.powers_w[:, None], gains, cfg.bandwidth_hz, cfg.noise_power_w)
        frames.append(Scenario(base.config, gains, base.powers_w, base.task_bits, rates))
    return frames


def train_model(wl: Workload, work_dir: str):
    """``gen-data`` then ``train`` through ``cli.main``, as a user would run
    them; returns the loaded model."""
    from mecoffload import cli
    from mecoffload.mlp import load_model

    data_dir = os.path.join(work_dir, "data")
    model_dir = os.path.join(work_dir, "model")
    steps = (
        ["gen-data", "--config", CONFIG, "--frames", str(wl.train_frames),
         "--out", data_dir, "--seed", str(BASE_SEED)],
        ["train", "--dataset", os.path.join(data_dir, "dataset.csv"), "--out", model_dir,
         "--epochs", str(wl.epochs), *TRAIN_ARGS, "--seed", str(BASE_SEED)],
    )
    for argv in steps:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"mecoffload {argv[0]} exited with {code}")
    return load_model(os.path.join(model_dir, "model.txt"))


def set_up(wl: Workload, seed: int, work_dir: str):
    """Everything before the first solve: frames, and for the learned
    search the trained model.  Returns ``(frames, model_or_None)``."""
    frames = make_frames(wl, seed)
    model = train_model(wl, work_dir) if wl.solver == "ibnb" else None
    return frames, model


def solve(wl: Workload, frame, model):
    """One frame through the public solver call ``cli.py`` uses."""
    from mecoffload.bnb import solve_bnb, solve_exhaustive
    from mecoffload.ibnb import ThresholdPolicy, solve_ibnb

    if wl.solver == "bnb":
        return solve_bnb(frame)
    if wl.solver == "exhaustive":
        return solve_exhaustive(frame)
    return solve_ibnb(frame, model, ThresholdPolicy(theta0=THETA0))


if __name__ == "__main__":
    import json

    import refkernel

    name, seed_text, work = sys.argv[1:4]
    with refkernel.Sampler() as sampler:
        import_package()
        set_up(WORKLOADS[name], int(seed_text), work)
    print(json.dumps(sampler.times))
