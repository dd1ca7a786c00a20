#!/usr/bin/env python3
"""The learned gate against the exact search, on held-out desk frames.

Trains ``scripts/run_pipeline.py``'s recipe once per training seed in
TRAIN_SEEDS: ``gen-data`` on its config and frame count from its seed base,
then ``train`` for its epochs with that training seed (its own training
seed is the first).  ``bench`` then gates each model at every threshold in
THETAS on the recipe's held-out frames and scores each answer against the
exact one, psi*, and its ``front.csv`` gives one point per training seed
and threshold:

- the node ratio: ibnb's nodes over bnb's, summed over the frames;
- the frames whose answer lies more than ``cli.ABOVE_RTOL`` (relative)
  above psi*;
- the mean and the max gap, psi / psi* - 1, over the frames.

    python scripts/gate_front.py --json out.json

Nothing printed or written depends on timing.
"""

import argparse
import contextlib
import io
import json
import os
import sys
import tempfile

from mecoffload.cli import main as cli

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run_pipeline as recipe  # noqa: E402

THETAS = (1e-7, 1e-3, 0.05)
TRAIN_SEEDS = tuple(recipe.SEED + i for i in range(3))


def quiet_cli(argv) -> None:
    """Run one ``mecoffload`` command with its echo swallowed."""
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli(argv)
    if rc != 0:
        raise SystemExit(f"mecoffload {' '.join(argv)} exited {rc}")


def front(config, frames, epochs, train_seeds, heldout) -> list[dict]:
    thetas = [arg for theta in THETAS for arg in ("--theta", repr(theta))]
    points = []
    with tempfile.TemporaryDirectory() as work:
        quiet_cli(["gen-data", "--config", config, "--frames", str(frames),
                   "--out", work, "--seed", str(recipe.SEED)])
        for train_seed in train_seeds:
            model_dir = os.path.join(work, f"model-{train_seed}")
            bench_dir = os.path.join(work, f"bench-{train_seed}")
            quiet_cli(["train", "--dataset", os.path.join(work, "dataset.csv"),
                       "--out", model_dir, "--epochs", str(epochs),
                       "--seed", str(train_seed)])
            quiet_cli(["bench", "--config", config, "--model",
                       os.path.join(model_dir, "model.txt"), "--frames", str(heldout),
                       "--out", bench_dir, "--seed", str(recipe.SEED), *thetas])
            with open(os.path.join(bench_dir, "front.csv"), encoding="utf-8") as fh:
                rows = [line.split(",") for line in fh if not line.startswith("#")][1:]
            for theta, ratio, above, mean_gap, max_gap in rows:
                points.append({
                    "train_seed": train_seed,
                    "theta0": float(theta),
                    "node_ratio": float(ratio),
                    "above_psi_star": int(above),
                    "mean_gap": float(mean_gap),
                    "max_gap": float(max_gap),
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
