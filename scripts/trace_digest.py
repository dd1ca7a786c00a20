#!/usr/bin/env python3
"""One SHA-256 over the answers and traces of seeded desk frames.

Solves frames of the desk config at 3x5 and 4x6 (seeds 1..--frames) with
``bnb`` and ``exhaustive``, and, given ``--model``, with ``ibnb`` at each
threshold in THETAS on the sizes whose feature length the model takes.
Every solve feeds the hash the text ``mecoffload solve`` writes for it:
its ``report.csv`` row (status, psi, gap bound, nodes searched and
unsolved, LP pivots and refactors, fell_back_to_exact, model id, map and
split) and its ``trace.csv`` (every node's id, depth, parent, action, psi,
zub_at_pop, x and splits).  Each float in them reads back bit for bit, so
two trees that differ in any bit of any of these read different digests,
and a change meant to leave the search untouched is checked by running
this before and after it:

    python scripts/trace_digest.py --model results/model/model.txt

The last line printed is the digest; the line before it counts what was
hashed.  Nothing printed depends on timing.
"""

import argparse
import dataclasses
import hashlib
import os
import sys

from mecoffload.bnb import solve_bnb, solve_exhaustive, trace_csv
from mecoffload.cli import report_row
from mecoffload.dataset import feature_length
from mecoffload.ibnb import ThresholdPolicy, solve_ibnb
from mecoffload.mlp import load_model
from mecoffload.scenario import generate_frame, read_config_file

SIZES = ((3, 5), (4, 6))
THETAS = (1e-3, 0.05, 0.5)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--config", default=os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "desk_config.txt"))
    parser.add_argument("--frames", type=int, default=15, help="seeds 1..frames per size")
    parser.add_argument("--model", default=None, help="trained model file; adds ibnb")
    args = parser.parse_args(argv)

    base = read_config_file(args.config)
    model = None if args.model is None else load_model(args.model)
    digest = hashlib.sha256()
    solves = nodes = 0
    for s_n, k_n in SIZES:
        gated = model is not None and model.num_features == feature_length(s_n, k_n)
        for seed in range(1, args.frames + 1):
            frame = generate_frame(dataclasses.replace(
                base, num_mds=s_n, num_channels=k_n, rng_seed=seed))
            runs = [("bnb", None, lambda: solve_bnb(frame)),
                    ("exhaustive", None, lambda: solve_exhaustive(frame))]
            if gated:
                runs += [(f"ibnb@{theta!r}", model,
                          lambda theta=theta: solve_ibnb(frame, model, ThresholdPolicy(theta)))
                         for theta in THETAS]
            for name, gate_model, solve in runs:
                report = solve()
                digest.update(f"{s_n}x{k_n}/{seed}\n{report_row(name, report, gate_model)}\n"
                              f"{trace_csv(report, frame)}".encode())
                nodes += len(report.trace)
                solves += 1
    print(f"solves={solves} trace_nodes={nodes}")
    print(digest.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
