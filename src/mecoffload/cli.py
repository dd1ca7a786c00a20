"""Command-line front end: data generation, training, solving, benchmarks.

Subcommands: ``gen-data``, ``train``, ``solve``, ``bench``.  Every command
echoes its effective parameters (including seeds) as ``# key=value`` lines
before doing any work, and all file outputs are UTF-8 CSV with
``#``-prefixed metadata, so a run can be reproduced from its own output.
Timing is printed to stdout only; files contain nothing that varies
between identically-seeded runs.

Training and evaluation frames never share seeds: generation uses the even
seeds ``2*(base+i)`` and benchmark evaluation the odd ``2*(base+i)+1``.

Exit codes: 0 success, 1 usage error, 2 infeasible instance, 3 budget
exhausted.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import time
from collections.abc import Callable
from dataclasses import replace
from pathlib import Path

import numpy as np

from .bnb import (
    BudgetExceededError,
    SolveReport,
    SolveStatus,
    csv_float,
    solve_bnb,
    solve_exhaustive,
    trace_csv,
)
from .dataset import Dataset, label_trace, read_dataset, write_dataset
from .ibnb import ThresholdPolicy, solve_ibnb
from .mlp import (
    VALIDATION_FRACTION,
    MlpModel,
    TrainConfig,
    init_model,
    load_model,
    model_fingerprint,
    save_model,
    train,
)
from .scenario import Scenario, ScenarioConfig, generate_frame, read_config_file

__all__ = [
    "UsageError",
    "InfeasibleInstanceError",
    "main",
    "cmd_gen_data",
    "cmd_train",
    "cmd_solve",
    "cmd_bench",
    "report_row",
]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_BUDGET = 3

DEFAULT_BENCH_THETAS = (ThresholdPolicy.theta0, 1e-12)
#: Latency/energy weight pairs swept by the benchmark.
WEIGHT_SWEEP = ((1.0, 0.0), (1.0, 0.25), (1.0, 0.5), (1.0, 0.75), (1.0, 1.0))
#: A gap psi_ibnb / psi_bnb - 1 at or below this is round-off, not an answer
#: above the exact optimum psi*.
ABOVE_RTOL = 1e-9


class UsageError(Exception):
    pass


class InfeasibleInstanceError(Exception):
    pass


def train_seed(base: int, index: int) -> int:
    return 2 * (base + index)


def eval_seed(base: int, index: int) -> int:
    return 2 * (base + index) + 1


def _echo(pairs: list[tuple[str, object]]) -> list[str]:
    lines = [f"# {key}={value}" for key, value in pairs]
    for line in lines:
        print(line)
    return lines


def _config_pairs(cfg: ScenarioConfig) -> list[tuple[str, object]]:
    return [
        ("num_mds", cfg.num_mds),
        ("num_channels", cfg.num_channels),
        ("bandwidth_hz", csv_float(cfg.bandwidth_hz)),
        ("noise_power_w", csv_float(cfg.noise_power_w)),
        ("power_min_w", csv_float(cfg.power_range_w[0])),
        ("power_max_w", csv_float(cfg.power_range_w[1])),
        ("task_min_bits", csv_float(cfg.task_size_range_bits[0])),
        ("task_max_bits", csv_float(cfg.task_size_range_bits[1])),
        ("mean_gain", csv_float(cfg.mean_channel_gain)),
        ("lambda_t", csv_float(cfg.lambda_t)),
        ("lambda_e", csv_float(cfg.lambda_e)),
    ]


def _atomic_write(path: str, write: Callable[[str], None]) -> None:
    """Write ``path`` through ``write(tmp_path)``, then move the file into
    place, so no reader sees it half written."""
    tmp = f"{path}.tmp"
    write(tmp)
    os.replace(tmp, path)


def _write_csv(path: str, meta: list[str], header: str, rows: list[str]) -> None:
    text = "\n".join([*meta, header, *rows]) + "\n"
    _atomic_write(path, lambda tmp: Path(tmp).write_text(text, encoding="utf-8"))


def _require_optimal(report: SolveReport, frame: Scenario) -> SolveReport:
    """Return ``report`` on ``frame`` if it is optimal; otherwise raise the
    error whose exit code matches its status."""
    seed = frame.config.rng_seed
    if report.status is SolveStatus.INFEASIBLE:
        raise InfeasibleInstanceError(
            f"frame with seed {seed} is infeasible "
            f"({frame.num_mds} devices, {frame.num_channels} channels)"
        )
    if report.status is SolveStatus.BUDGET_EXHAUSTED:
        raise BudgetExceededError(f"frame with seed {seed} exhausted the node budget")
    return report


# ---------------------------------------------------------------------------
# gen-data
# ---------------------------------------------------------------------------


def cmd_gen_data(args) -> int:
    cfg = read_config_file(args.config)
    seed_base = args.seed if args.seed is not None else cfg.rng_seed
    pairs = [("command", "gen-data"), *_config_pairs(cfg),
             ("frames", args.frames), ("seed_base", seed_base)]
    meta = _echo(pairs)
    config_hash = hashlib.sha256("\n".join(meta).encode()).hexdigest()[:16]

    blocks = []
    for i in range(args.frames):
        seed = train_seed(seed_base, i)
        frame = generate_frame(replace(cfg, rng_seed=seed))
        report = _require_optimal(solve_bnb(frame), frame)
        features, labels = label_trace(report)
        blocks.append((features, labels, np.full(labels.size, i),
                       [rec.node_id for rec in report.trace]))

    ds = Dataset(*(np.concatenate(column) for column in zip(*blocks)),
                 cfg.num_mds, cfg.num_channels, config_hash=config_hash)
    os.makedirs(args.out, exist_ok=True)
    out_path = os.path.join(args.out, "dataset.csv")
    _atomic_write(out_path, lambda tmp: write_dataset(ds, tmp))
    ratio = ds.positives / ds.labels.size
    print(f"samples={ds.labels.size} positives={ds.positives} "
          f"negatives={ds.negatives} positive_ratio={ratio:.4f}")
    print(f"wrote {out_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def cmd_train(args) -> int:
    ds = read_dataset(args.dataset)
    tc = TrainConfig(
        learning_rate=args.learning_rate,
        epochs=args.epochs,
        batch_size=args.batch_size,
        positive_class_weight=args.pos_weight,
        rng_seed=args.seed if args.seed is not None else 0,
    )
    model = init_model(ds.feature_len, tc.rng_seed)
    meta = _echo([
        ("command", "train"),
        ("dataset", args.dataset),
        ("samples", ds.labels.size),
        ("positives", ds.positives),
        ("m", ds.feature_len),
        ("dims", ",".join(map(str, model.layer_dims))),
        ("learning_rate", csv_float(tc.learning_rate)),
        ("epochs", tc.epochs),
        ("batch_size", tc.batch_size),
        ("positive_class_weight", csv_float(tc.positive_class_weight)),
        ("validation_fraction", csv_float(VALIDATION_FRACTION)),
        ("seed", tc.rng_seed),
    ])

    trained, history = train(model, ds.features, ds.labels, tc)

    os.makedirs(args.out, exist_ok=True)
    model_path = os.path.join(args.out, "model.txt")
    _atomic_write(model_path, lambda tmp: save_model(trained, tmp))
    rows = [
        f"{epoch},{csv_float(tr)},{csv_float(va)}"
        for epoch, (tr, va) in enumerate(zip(history.train_loss, history.val_loss))
    ]
    _write_csv(os.path.join(args.out, "history.csv"), meta,
               "epoch,train_loss,val_loss", rows)
    if history.train_loss:
        print(f"final train_loss={history.train_loss[-1]:.6f} "
              f"val_loss={history.val_loss[-1]:.6f}")
    print(f"wrote {model_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

REPORT_HEADER = ("solver,status,psi,gap_bound,nodes_searched,nodes_unsolved,lp_pivots,"
                 "lp_refactors,fell_back_to_exact,model_id,x,l")


def report_row(solver: str, report: SolveReport, model: MlpModel | None) -> str:
    """The ``report.csv`` row, under :data:`REPORT_HEADER`, of ``report``
    from ``solver``, gated by ``model`` (None for an ungated solver, whose
    ``fell_back_to_exact`` and ``model_id`` are left empty)."""
    psi, gap = ("" if value is None else csv_float(value)
                for value in (report.best_psi, report.gap_bound))
    gated = ("," if model is None
             else f"{int(report.fell_back_to_exact)},{model_fingerprint(model)}")
    x = l = ""
    if report.best_x is not None:
        x = ";".join(str(int(v)) for v in report.best_x.ravel())
        l = ";".join(csv_float(v) for v in report.best_split.ravel())
    return (f"{solver},{report.status.value},{psi},{gap},{report.nodes_searched},"
            f"{report.nodes_unsolved},{report.lp_pivots},{report.lp_refactors},"
            f"{gated},{x},{l}")


def cmd_solve(args) -> int:
    unread = [flag for flag, value, solvers in (
        ("--theta", args.theta, ("ibnb",)),
        ("--model", args.model, ("ibnb",)),
    ) if value is not None and args.solver not in solvers]
    if unread:
        raise UsageError(f"solver {args.solver!r} does not read {', '.join(unread)}")
    if args.solver == "ibnb" and not args.model:
        raise UsageError("solver 'ibnb' requires --model")
    theta0, *more = args.theta or [ThresholdPolicy.theta0]
    if more:
        raise UsageError(f"solve takes one --theta, got {len(args.theta)}")
    cfg = read_config_file(args.config)
    seed = args.seed if args.seed is not None else cfg.rng_seed
    policy = ThresholdPolicy(theta0=theta0)
    meta = _echo([
        ("command", "solve"), *_config_pairs(cfg),
        ("solver", args.solver), ("frame_seed", seed),
        ("theta0", csv_float(policy.theta0)),
        ("model", args.model or ""),
    ])
    frame = generate_frame(replace(cfg, rng_seed=seed))

    model = load_model(args.model) if args.solver == "ibnb" else None
    start = time.perf_counter()
    if args.solver == "bnb":
        report = solve_bnb(frame)
    elif args.solver == "exhaustive":
        report = solve_exhaustive(frame)
    else:
        report = solve_ibnb(frame, model, policy)
    wall_time = time.perf_counter() - start

    os.makedirs(args.out, exist_ok=True)
    text = trace_csv(report, frame)
    _atomic_write(os.path.join(args.out, "trace.csv"),
                  lambda tmp: Path(tmp).write_text(text, encoding="utf-8"))
    _write_csv(os.path.join(args.out, "report.csv"), meta, REPORT_HEADER,
               [report_row(args.solver, report, model)])
    print(f"status={report.status.value} psi={report.best_psi} "
          f"gap_bound={report.gap_bound} "
          f"nodes={report.nodes_searched} nodes_unsolved={report.nodes_unsolved} "
          f"lp_pivots={report.lp_pivots} "
          f"lp_refactors={report.lp_refactors} "
          f"wall_time_s={wall_time:.3f}")
    print(f"wrote {os.path.join(args.out, 'report.csv')}")
    _require_optimal(report, frame)
    return EXIT_OK


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------


def cmd_bench(args) -> int:
    cfg = read_config_file(args.config)
    seed_base = args.seed if args.seed is not None else cfg.rng_seed
    thetas = tuple(args.theta) if args.theta else DEFAULT_BENCH_THETAS
    # Built before any output, so a bad threshold is a usage error up front.
    policies = [ThresholdPolicy(theta0=t) for t in thetas]
    meta = _echo([
        ("command", "bench"), *_config_pairs(cfg),
        ("frames", args.frames), ("seed_base", seed_base),
        ("thetas", ";".join(csv_float(t) for t in thetas)),
        ("model", args.model),
    ])
    model = load_model(args.model)

    def solve_frames(weights, frame_policies):
        """Node counts and objectives of the held-out frames at the
        latency/energy ``weights``, one row per frame: the ``bnb`` solve
        first, then one ``ibnb`` solve per policy.  Each frame's reports,
        traces and all, are dropped once read."""
        lambda_t, lambda_e = weights
        weighted = replace(cfg, lambda_t=lambda_t, lambda_e=lambda_e)
        nodes, psi = [], []
        for i in range(args.frames):
            frame = generate_frame(replace(weighted, rng_seed=eval_seed(seed_base, i)))
            reports = [_require_optimal(solve_bnb(frame), frame)]
            for policy in frame_policies:
                reports.append(_require_optimal(solve_ibnb(frame, model, policy), frame))
            nodes.append([r.nodes_searched for r in reports])
            psi.append([r.best_psi for r in reports])
        return nodes, psi

    own_weights = (cfg.lambda_t, cfg.lambda_e)
    # Column 0 of a row is bnb, column c >= 1 the ibnb solve at thetas[c - 1].
    nodes, psi = solve_frames(own_weights, policies)

    os.makedirs(args.out, exist_ok=True)
    rows = [f"{i},{counts[0]},{counts[1]}" for i, counts in enumerate(nodes)]
    _write_csv(os.path.join(args.out, "nodes_per_frame.csv"), meta,
               "frame,bnb_nodes,ibnb_nodes", rows)

    cdf_rows: list[str] = []
    series = [("bnb", ""), *(("ibnb", csv_float(t)) for t in thetas)]
    for column, (solver, theta_text) in enumerate(series):
        counts = sorted(frame_nodes[column] for frame_nodes in nodes)
        for rank, value in enumerate(counts, start=1):
            cdf = csv_float(rank / len(counts))
            cdf_rows.append(f"{value},{cdf},{solver},{theta_text}")
    _write_csv(os.path.join(args.out, "node_cdf.csv"), meta,
               "nodes,cdf,solver,theta", cdf_rows)

    # Objective comparison across latency/energy weightings, first theta.
    # The held-out frames are the sweep's frames at the config's own
    # weights, so that pair is not solved again.
    sweep_rows: list[str] = []
    for weights in WEIGHT_SWEEP:
        frame_psi = psi if weights == own_weights else solve_frames(weights, policies[:1])[1]
        psi_bnb, psi_ibnb = 0.0, 0.0
        for row in frame_psi:
            psi_bnb += row[0]
            psi_ibnb += row[1]
        psi_bnb /= args.frames
        psi_ibnb /= args.frames
        sweep_rows.append(",".join(csv_float(v) for v in (
            *weights, psi_bnb, psi_ibnb, psi_ibnb / psi_bnb)))
    _write_csv(os.path.join(args.out, "weights_sweep.csv"), meta,
               "lambda_t,lambda_e,psi_bnb,psi_ibnb,ratio", sweep_rows)

    # The learned gate's front: per threshold, ibnb's nodes over bnb's,
    # summed over the frames, and its gaps psi_ibnb / psi_bnb - 1.
    bnb_nodes = sum(counts[0] for counts in nodes)
    front_rows: list[str] = []
    for column, theta in enumerate(thetas, start=1):
        ratio = sum(counts[column] for counts in nodes) / bnb_nodes
        gaps = [row[column] / row[0] - 1.0 for row in psi]
        above = sum(gap > ABOVE_RTOL for gap in gaps)
        mean_gap, max_gap = sum(gaps) / len(gaps), max(gaps)
        front_rows.append(",".join([*map(csv_float, (theta, ratio)), str(above),
                                    *map(csv_float, (mean_gap, max_gap))]))
        print(f"theta={theta:g}: node_ratio={ratio:.3f} "
              f"above_psi_star={above}/{len(gaps)} "
              f"mean_gap={mean_gap:.4%} max_gap={max_gap:.2%}")
    _write_csv(os.path.join(args.out, "front.csv"), meta,
               "theta,node_ratio,above_psi_star,mean_gap,max_gap", front_rows)
    print(f"wrote 4 CSVs under {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # map argparse's exit(2) onto exit 1
        raise UsageError(message)


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mecoffload",
                     description="MEC offloading solvers and benchmark harness")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, frames=False):
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="seed (base) overriding the config file")
        if frames:
            p.add_argument("--frames", type=positive_int, default=100)

    p = sub.add_parser("gen-data", help="solve frames exactly and label the traces")
    p.add_argument("--config", required=True)
    common(p, frames=True)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train the pruning classifier")
    common(p)
    p.add_argument("--dataset", required=True, help="dataset CSV path")
    p.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    p.add_argument("--learning-rate", type=float, default=TrainConfig.learning_rate)
    p.add_argument("--batch-size", type=int, default=TrainConfig.batch_size)
    p.add_argument("--pos-weight", type=float, default=TrainConfig.positive_class_weight)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("solve", help="solve one frame and dump report + trace")
    p.add_argument("--config", required=True)
    p.add_argument("--model", default=None, help="trained model file")
    p.add_argument("--theta", type=float, action="append",
                   help="pruning threshold (once)")
    common(p)
    p.add_argument("--solver", default="bnb", choices=("bnb", "ibnb", "exhaustive"))
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("bench", help="compare exact and learned-pruning searches")
    p.add_argument("--config", required=True)
    p.add_argument("--model", required=True, help="trained model file")
    p.add_argument("--theta", type=float, action="append",
                   help="pruning threshold (repeatable)")
    common(p, frames=True)
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (UsageError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InfeasibleInstanceError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except BudgetExceededError as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
