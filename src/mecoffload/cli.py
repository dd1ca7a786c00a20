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
from collections.abc import Callable
from dataclasses import replace
from pathlib import Path

import numpy as np

from .bnb import (
    BudgetExceededError,
    SolveOptions,
    SolveReport,
    SolveStatus,
    solve_bnb,
    solve_exhaustive,
    write_trace_csv,
)
from .dataset import Dataset, label_trace, read_dataset, write_dataset
from .ibnb import IbnbReport, ThresholdPolicy, solve_ibnb
from .mlp import (
    TrainConfig,
    init_model,
    load_model,
    model_fingerprint,
    save_model,
    train,
)
from .scenario import ScenarioConfig, generate_frame, read_config_file

__all__ = [
    "UsageError",
    "InfeasibleInstanceError",
    "main",
    "cmd_gen_data",
    "cmd_train",
    "cmd_solve",
    "cmd_bench",
]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_BUDGET = 3

DEFAULT_BENCH_THETAS = (1e-7, 1e-12)
#: Latency/energy weight pairs swept by the benchmark.
WEIGHT_SWEEP = ((1.0, 0.0), (1.0, 0.25), (1.0, 0.5), (1.0, 0.75), (1.0, 1.0))


class UsageError(Exception):
    pass


class InfeasibleInstanceError(Exception):
    pass


def train_seed(base: int, index: int) -> int:
    return 2 * (base + index)


def eval_seed(base: int, index: int) -> int:
    return 2 * (base + index) + 1


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _echo(pairs: list[tuple[str, object]]) -> list[str]:
    lines = [f"# {key}={value}" for key, value in pairs]
    for line in lines:
        print(line)
    return lines


def _config_pairs(cfg: ScenarioConfig) -> list[tuple[str, object]]:
    return [
        ("num_mds", cfg.num_mds),
        ("num_channels", cfg.num_channels),
        ("bandwidth_hz", _fmt(cfg.bandwidth_hz)),
        ("noise_power_w", _fmt(cfg.noise_power_w)),
        ("power_min_w", _fmt(cfg.power_range_w[0])),
        ("power_max_w", _fmt(cfg.power_range_w[1])),
        ("task_min_bits", _fmt(cfg.task_size_range_bits[0])),
        ("task_max_bits", _fmt(cfg.task_size_range_bits[1])),
        ("mean_gain", _fmt(cfg.mean_channel_gain)),
        ("lambda_t", _fmt(cfg.lambda_t)),
        ("lambda_e", _fmt(cfg.lambda_e)),
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


def _require_optimal(report, seed: int):
    """Return ``report`` if it is optimal; otherwise raise the error whose
    exit code matches its status."""
    if report.status is SolveStatus.INFEASIBLE:
        raise InfeasibleInstanceError(f"frame with seed {seed} is infeasible")
    if report.status is SolveStatus.BUDGET_EXHAUSTED:
        raise BudgetExceededError(f"frame with seed {seed} exhausted the node budget")
    return report


# ---------------------------------------------------------------------------
# gen-data
# ---------------------------------------------------------------------------


def cmd_gen_data(args) -> int:
    cfg = read_config_file(args.config)
    seed_base = args.seed if args.seed is not None else cfg.rng_seed
    if cfg.num_channels < cfg.num_mds:
        raise InfeasibleInstanceError(
            f"config has {cfg.num_mds} devices but only {cfg.num_channels} channels"
        )
    pairs = [("command", "gen-data"), *_config_pairs(cfg),
             ("frames", args.frames), ("seed_base", seed_base)]
    meta = _echo(pairs)
    config_hash = hashlib.sha256("\n".join(meta).encode()).hexdigest()[:16]

    opts = SolveOptions(max_nodes=args.max_nodes)
    samples = []
    for i in range(args.frames):
        seed = train_seed(seed_base, i)
        frame = generate_frame(replace(cfg, rng_seed=seed))
        report = _require_optimal(solve_bnb(frame, opts), seed)
        samples.extend(label_trace(report, frame, frame_id=i))

    ds = Dataset(samples, cfg.num_mds, cfg.num_channels, config_hash=config_hash)
    os.makedirs(args.out, exist_ok=True)
    out_path = os.path.join(args.out, "dataset.csv")
    _atomic_write(out_path, lambda tmp: write_dataset(ds, tmp))
    ratio = ds.positives / len(ds.samples)
    print(f"samples={len(ds.samples)} positives={ds.positives} "
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
        validation_fraction=args.val_fraction,
        rng_seed=args.seed if args.seed is not None else 0,
    )
    meta = _echo([
        ("command", "train"),
        ("dataset", args.dataset),
        ("samples", len(ds.samples)),
        ("positives", ds.positives),
        ("m", ds.feature_len),
        ("learning_rate", _fmt(tc.learning_rate)),
        ("epochs", tc.epochs),
        ("batch_size", tc.batch_size),
        ("positive_class_weight",
         "auto" if tc.positive_class_weight is None else _fmt(tc.positive_class_weight)),
        ("validation_fraction", _fmt(tc.validation_fraction)),
        ("seed", tc.rng_seed),
    ])

    model = init_model(ds.feature_len, tc.rng_seed)
    trained, history = train(model, ds.feature_matrix(), ds.labels(), tc)

    os.makedirs(args.out, exist_ok=True)
    model_path = os.path.join(args.out, "model.txt")
    _atomic_write(model_path, lambda tmp: save_model(trained, tmp))
    rows = [
        f"{epoch},{_fmt(tr)},{_fmt(va)}"
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

_REPORT_HEADER = (
    "solver,status,psi,nodes_searched,restarts,fell_back_to_exact,"
    "thresholds_tried,model_id"
)


def _report_row(solver: str, report: SolveReport | IbnbReport, extra: str) -> str:
    psi = "" if report.best_psi is None else _fmt(report.best_psi)
    return f"{solver},{report.status.value},{psi},{report.nodes_searched},{extra}"


def _solution_columns(report) -> str:
    if report.best_x is None:
        return ","
    x = ";".join(str(int(v)) for v in report.best_x.ravel())
    l = ";".join(_fmt(v) for v in report.best_split.ravel())
    return f"{x},{l}"


def cmd_solve(args) -> int:
    if args.solver == "ibnb" and not args.model:
        raise UsageError("solver 'ibnb' requires --model")
    cfg = read_config_file(args.config)
    seed = args.seed if args.seed is not None else cfg.rng_seed
    policy = ThresholdPolicy(theta0=args.theta[0] if args.theta else 1e-7,
                             delta_theta=args.delta_theta)
    meta = _echo([
        ("command", "solve"), *_config_pairs(cfg),
        ("solver", args.solver), ("frame_seed", seed),
        ("theta0", _fmt(policy.theta0)), ("delta_theta", _fmt(policy.delta_theta)),
        ("model", args.model or ""),
    ])
    frame = generate_frame(replace(cfg, rng_seed=seed))
    opts = SolveOptions(max_nodes=args.max_nodes)

    n = cfg.num_mds * cfg.num_channels
    os.makedirs(args.out, exist_ok=True)
    trace_path = os.path.join(args.out, "trace.csv")
    extra = ",,,"
    if args.solver == "bnb":
        report = solve_bnb(frame, opts)
        write_trace_csv(trace_path, [(None, 0, report.trace)], n)
    elif args.solver == "exhaustive":
        report = solve_exhaustive(frame, opts)
        write_trace_csv(trace_path, [], n)
    else:
        model = load_model(args.model)
        report = solve_ibnb(frame, model, policy, opts)
        write_trace_csv(
            trace_path,
            [(p.theta if p.theta is not None else 0.0, i, p.records)
             for i, p in enumerate(report.passes)],
            n,
        )
        thetas = ";".join(_fmt(t) for t in report.thresholds_tried)
        extra = (f"{report.restarts},{int(report.fell_back_to_exact)},"
                 f"{thetas},{model_fingerprint(model)}")

    header = _REPORT_HEADER + ",x,l"
    row = _report_row(args.solver, report, extra) + "," + _solution_columns(report)
    _write_csv(os.path.join(args.out, "report.csv"), meta, header, [row])
    print(f"status={report.status.value} psi={report.best_psi} "
          f"nodes={report.nodes_searched} nodes_unsolved={report.nodes_unsolved} "
          f"lp_pivots={report.lp_pivots} "
          f"lp_refactors={report.lp_refactors} "
          f"wall_time_s={report.wall_time:.3f}")
    print(f"wrote {os.path.join(args.out, 'report.csv')}")

    if report.status is SolveStatus.INFEASIBLE:
        raise InfeasibleInstanceError(
            f"frame with seed {seed} is infeasible "
            f"({cfg.num_mds} devices, {cfg.num_channels} channels)"
        )
    if report.status is SolveStatus.BUDGET_EXHAUSTED:
        raise BudgetExceededError("node budget exhausted before optimality")
    return EXIT_OK


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------


def cmd_bench(args) -> int:
    cfg = read_config_file(args.config)
    seed_base = args.seed if args.seed is not None else cfg.rng_seed
    thetas = tuple(args.theta) if args.theta else DEFAULT_BENCH_THETAS
    # Built before any output, so a bad threshold is a usage error up front.
    policies = [ThresholdPolicy(theta0=t, delta_theta=args.delta_theta) for t in thetas]
    meta = _echo([
        ("command", "bench"), *_config_pairs(cfg),
        ("frames", args.frames), ("seed_base", seed_base),
        ("thetas", ";".join(_fmt(t) for t in thetas)),
        ("delta_theta", _fmt(args.delta_theta)),
        ("model", args.model),
    ])
    model = load_model(args.model)
    opts = SolveOptions(max_nodes=args.max_nodes)

    def run_frame(frame, frame_policies):
        seed = frame.config.rng_seed
        bnb_report = _require_optimal(solve_bnb(frame, opts), seed)
        ibnb_reports = [_require_optimal(solve_ibnb(frame, model, policy, opts), seed)
                        for policy in frame_policies]
        return bnb_report, ibnb_reports

    # Held-out frames: per-frame node counts and the node-count CDFs.
    bnb_nodes: list[int] = []
    ibnb_nodes: dict[float, list[int]] = {t: [] for t in thetas}
    # (bnb psi, first-theta ibnb psi) per frame, reused by the weight sweep.
    held_out_psi: list[tuple[float, float]] = []
    for i in range(args.frames):
        frame = generate_frame(replace(cfg, rng_seed=eval_seed(seed_base, i)))
        bnb_report, ibnb_reports = run_frame(frame, policies)
        bnb_nodes.append(bnb_report.nodes_searched)
        for theta, rep in zip(thetas, ibnb_reports):
            ibnb_nodes[theta].append(rep.nodes_searched)
        held_out_psi.append((bnb_report.best_psi, ibnb_reports[0].best_psi))

    os.makedirs(args.out, exist_ok=True)
    rows = [
        f"{i},{bnb_nodes[i]},{ibnb_nodes[thetas[0]][i]}"
        for i in range(args.frames)
    ]
    _write_csv(os.path.join(args.out, "nodes_per_frame.csv"), meta,
               "frame,bnb_nodes,ibnb_nodes", rows)

    cdf_rows: list[str] = []

    def cdf_series(counts: list[int], solver: str, theta_text: str) -> None:
        for rank, value in enumerate(sorted(counts), start=1):
            cdf_rows.append(f"{value},{_fmt(rank / len(counts))},{solver},{theta_text}")

    cdf_series(bnb_nodes, "bnb", "")
    for theta in thetas:
        cdf_series(ibnb_nodes[theta], "ibnb", _fmt(theta))
    _write_csv(os.path.join(args.out, "node_cdf.csv"), meta,
               "nodes,cdf,solver,theta", cdf_rows)

    # Objective comparison across latency/energy weightings, first theta.
    # The held-out frames above are the sweep's frames at the config's own
    # weights, so that pair is not solved again.
    sweep_rows: list[str] = []
    for lambda_t, lambda_e in WEIGHT_SWEEP:
        if (lambda_t, lambda_e) == (cfg.lambda_t, cfg.lambda_e):
            frame_psi = held_out_psi
        else:
            weighted = replace(cfg, lambda_t=lambda_t, lambda_e=lambda_e)
            frame_psi = []
            for i in range(args.frames):
                frame = generate_frame(replace(weighted, rng_seed=eval_seed(seed_base, i)))
                bnb_report, (ibnb_report,) = run_frame(frame, policies[:1])
                frame_psi.append((bnb_report.best_psi, ibnb_report.best_psi))
        psi_bnb, psi_ibnb = 0.0, 0.0
        for frame_bnb, frame_ibnb in frame_psi:
            psi_bnb += frame_bnb
            psi_ibnb += frame_ibnb
        psi_bnb /= args.frames
        psi_ibnb /= args.frames
        sweep_rows.append(
            f"{_fmt(lambda_t)},{_fmt(lambda_e)},{_fmt(psi_bnb)},{_fmt(psi_ibnb)},"
            f"{_fmt(psi_ibnb / psi_bnb)}"
        )
    _write_csv(os.path.join(args.out, "weights_sweep.csv"), meta,
               "lambda_t,lambda_e,psi_bnb,psi_ibnb,ratio", sweep_rows)

    mean_bnb = float(np.mean(bnb_nodes))
    for theta in thetas:
        mean_ibnb = float(np.mean(ibnb_nodes[theta]))
        print(f"theta={theta:g}: mean_nodes ibnb={mean_ibnb:.1f} "
              f"bnb={mean_bnb:.1f} ratio={mean_ibnb / mean_bnb:.3f}")
    print(f"wrote 3 CSVs under {args.out}")
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

    def common(p, *, frames=False, solver=False, theta=False,
               dataset=False, training=False):
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="seed (base) overriding the config file")
        p.add_argument("--max-nodes", type=int, default=500_000)
        if frames:
            p.add_argument("--frames", type=positive_int, default=100)
        if solver:
            p.add_argument("--solver", default="bnb",
                           choices=("bnb", "ibnb", "exhaustive"))
        if theta:
            p.add_argument("--theta", type=float, action="append", default=None,
                           help="initial pruning threshold (repeatable)")
            p.add_argument("--delta-theta", type=float, default=1e-5)
        if dataset:
            p.add_argument("--dataset", required=True, help="dataset CSV path")
        if training:
            p.add_argument("--epochs", type=int, default=100)
            p.add_argument("--learning-rate", type=float, default=1e-3)
            p.add_argument("--batch-size", type=int, default=128)
            p.add_argument("--pos-weight", type=float, default=None)
            p.add_argument("--val-fraction", type=float, default=0.1)

    p = sub.add_parser("gen-data", help="solve frames exactly and label the traces")
    p.add_argument("--config", required=True)
    common(p, frames=True)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train the pruning classifier")
    common(p, dataset=True, training=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("solve", help="solve one frame and dump report + trace")
    p.add_argument("--config", required=True)
    p.add_argument("--model", default=None, help="trained model file")
    common(p, solver=True, theta=True)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("bench", help="compare exact and learned-pruning searches")
    p.add_argument("--config", required=True)
    p.add_argument("--model", required=True, help="trained model file")
    common(p, frames=True, theta=True)
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
