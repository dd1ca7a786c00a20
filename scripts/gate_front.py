#!/usr/bin/env python3
"""The learned gate against the exact search, on held-out desk frames.

Trains ``scripts/run_pipeline.py``'s recipe once per training seed in
TRAIN_SEEDS: ``gen-data`` on its config and frame count from its seed base,
then ``train`` for its epochs with that training seed (its own training
seed is the first).  Each model then gates ``solve_ibnb`` at every
threshold in THETAS on the recipe's held-out frames, and each answer is
scored against ``solve_bnb``'s, psi*.  One point per training seed and
threshold gives:

- the node ratio: ibnb's nodes over bnb's, summed over the frames;
- the frames whose answer lies more than ABOVE_RTOL (relative) above psi*;
- the mean and the max gap, psi / psi* - 1, over the frames.

    python scripts/gate_front.py --json out.json

Nothing printed or written depends on timing.
"""

import argparse
import contextlib
import dataclasses
import io
import json
import os
import sys
import tempfile

from mecoffload.bnb import solve_bnb
from mecoffload.cli import _require_optimal, eval_seed, main as cli
from mecoffload.ibnb import ThresholdPolicy, solve_ibnb
from mecoffload.mlp import load_model
from mecoffload.scenario import generate_frame, read_config_file

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run_pipeline as recipe  # noqa: E402

THETAS = (1e-7, 1e-3, 0.05)
TRAIN_SEEDS = tuple(recipe.SEED + i for i in range(3))
#: A gap at or below this is round-off, not a frame above psi*.
ABOVE_RTOL = 1e-9


def quiet_cli(argv) -> None:
    """Run one ``mecoffload`` command with its echo swallowed."""
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli(argv)
    if rc != 0:
        raise SystemExit(f"mecoffload {' '.join(argv)} exited {rc}")


def front(config, frames, epochs, train_seeds, heldout) -> list[dict]:
    cfg = read_config_file(config)
    held = [generate_frame(dataclasses.replace(cfg, rng_seed=eval_seed(recipe.SEED, i)))
            for i in range(heldout)]
    exact = [_require_optimal(solve_bnb(frame), frame) for frame in held]
    bnb_nodes = sum(r.nodes_searched for r in exact)
    points = []
    with tempfile.TemporaryDirectory() as work:
        quiet_cli(["gen-data", "--config", config, "--frames", str(frames),
                   "--out", work, "--seed", str(recipe.SEED)])
        for train_seed in train_seeds:
            model_dir = os.path.join(work, f"model-{train_seed}")
            quiet_cli(["train", "--dataset", os.path.join(work, "dataset.csv"),
                       "--out", model_dir, "--epochs", str(epochs),
                       "--seed", str(train_seed)])
            model = load_model(os.path.join(model_dir, "model.txt"))
            for theta in THETAS:
                gated = [_require_optimal(solve_ibnb(frame, model, ThresholdPolicy(theta)), frame)
                         for frame in held]
                gaps = [g.best_psi / e.best_psi - 1.0 for g, e in zip(gated, exact)]
                points.append({
                    "train_seed": train_seed,
                    "theta0": theta,
                    "node_ratio": sum(r.nodes_searched for r in gated) / bnb_nodes,
                    "above_psi_star": sum(gap > ABOVE_RTOL for gap in gaps),
                    "mean_gap": sum(gaps) / len(gaps),
                    "max_gap": max(gaps),
                })
    return points


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--json", default=None, help="also write the points here")
    args = parser.parse_args(argv)

    points = front(recipe.CONFIG, recipe.FRAMES, recipe.EPOCHS, TRAIN_SEEDS, recipe.FRAMES)
    print("train_seed,theta0,node_ratio,above_psi_star,mean_gap,max_gap")
    for p in points:
        print(f"{p['train_seed']},{p['theta0']!r},{p['node_ratio']:.3f},"
              f"{p['above_psi_star']},{p['mean_gap']:.4%},{p['max_gap']:.2%}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(points, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
