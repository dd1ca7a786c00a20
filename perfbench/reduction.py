#!/usr/bin/env python3
"""Exact against learned search on the ``ibnb-3x5`` held-out frames.

    python3 perfbench/reduction.py --seed 1

Runs the workload's set-up (gen-data and training), then solves every
held-out frame with ``solve_bnb`` and with ``solve_ibnb`` and prints, per
frame, both node counts and ``ibnb``'s gap to the MILP optimum, then the
mean node counts and their ratio: the paper's node-reduction figure at the
benchmark's scale.  Not timed; it takes about a minute.
"""

from __future__ import annotations

import argparse
import os
import shutil
import statistics
import tempfile

import oracle
from workloads import BASE_SEED, WORKLOADS, import_package, set_up, solve

OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    import_package()
    from mecoffload.bnb import solve_bnb
    from mecoffload.cli import eval_seed

    wl = WORKLOADS["ibnb-3x5"]
    os.makedirs(OUT, exist_ok=True)
    work = tempfile.mkdtemp(prefix="reduction-", dir=OUT)
    try:
        frames, model = set_up(wl, args.seed, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print("frame,base_seed,bnb_nodes,ibnb_nodes,ibnb_gap")
    bnb_nodes, ibnb_nodes = [], []
    for i, frame in enumerate(frames):
        cfg = frame.config
        opt = oracle.milp_optimum(frame.rates_bps, frame.powers_w, frame.task_bits,
                                  cfg.lambda_t, cfg.lambda_e)
        exact, learned = solve_bnb(frame), solve(wl, frame, model)
        bnb_nodes.append(exact.nodes_searched)
        ibnb_nodes.append(learned.nodes_searched)
        print(f"{i},{eval_seed(BASE_SEED, i)},{exact.nodes_searched},"
              f"{learned.nodes_searched},{(learned.best_psi - opt) / opt:.3e}")
    mean_bnb, mean_ibnb = statistics.fmean(bnb_nodes), statistics.fmean(ibnb_nodes)
    print(f"# seed={args.seed} mean nodes: bnb={mean_bnb:.2f} ibnb={mean_ibnb:.2f} "
          f"ibnb/bnb={mean_ibnb / mean_bnb:.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
