#!/usr/bin/env python3
"""End-to-end experiment: generate search data, train the pruning net,
benchmark the learned search against the exact one.

Writes everything under results/ (dataset, model, training history, and the
four benchmark CSVs, the learned gate's front.csv among them).  Frame counts
and epochs are sized so the whole run finishes in minutes on a laptop; pass
--frames/--epochs to scale up.  Each step's wall time, and the whole
pipeline's, go to stdout only, so the written files stay byte-identical
between identically seeded runs.
"""

import argparse
import os
import sys
import time

from mecoffload.cli import main as cli

#: The shipped recipe: the desk set-up, the training frame count (evaluation
#: uses the same count), the training epochs, and the seed of both the frames
#: and the training.  ``scripts/gate_front.py`` judges this recipe.
CONFIG = os.path.join(os.path.dirname(__file__), "desk_config.txt")
FRAMES = 100
EPOCHS = 600
SEED = 100


def run(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--config", default=CONFIG)
    parser.add_argument("--out", default="results")
    parser.add_argument("--frames", type=int, default=FRAMES,
                        help="training frames; evaluation uses the same count")
    parser.add_argument("--epochs", type=int, default=EPOCHS)
    parser.add_argument("--seed", type=int, default=SEED)
    args = parser.parse_args(argv)

    data_dir = os.path.join(args.out, "data")
    model_dir = os.path.join(args.out, "model")
    bench_dir = os.path.join(args.out, "bench")

    steps = [
        ["gen-data", "--config", args.config, "--frames", str(args.frames),
         "--out", data_dir, "--seed", str(args.seed)],
        ["train", "--dataset", os.path.join(data_dir, "dataset.csv"),
         "--out", model_dir, "--epochs", str(args.epochs), "--seed", str(args.seed)],
        ["bench", "--config", args.config, "--model",
         os.path.join(model_dir, "model.txt"), "--frames", str(args.frames),
         "--out", bench_dir, "--seed", str(args.seed)],
    ]
    total = 0.0
    for step in steps:
        print(f"\n=== mecoffload {' '.join(step)}")
        start = time.perf_counter()
        rc = cli(step)
        wall = time.perf_counter() - start
        total += wall
        print(f"=== {step[0]}: {wall:.3f} s wall")
        if rc != 0:
            return rc
    print(f"\npipeline: {total:.3f} s wall")
    print(f"all outputs under {args.out}/")
    return 0


if __name__ == "__main__":
    sys.exit(run(sys.argv[1:]))
