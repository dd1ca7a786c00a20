#!/usr/bin/env python3
"""End-to-end benchmark of the mecoffload solvers, with an optional traced run.

    python3 perfbench/run.py --workload bnb-4x6 --seed 1 --seconds 20 --trace 0

One caller solves the workload's frames one after another (a closed loop)
through the public solver calls, in whole rounds over the frame set, until
the next round would end after ``--seconds``; at least one round is run.
Every answer is then checked against an optimum computed without
``mecoffload`` (see ``oracle.py``).  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` wraps the
public functions of every layer module (see ``tracer.py``), runs set-up
in-process, then one untraced and one traced stretch of ``--seconds / 2``
each, and reports the per-layer metrics, including the tracing overhead.

Times are normalised to the reference kernel (``refkernel.py``): each raw
frame time, less the kernel's own passes, is multiplied by
``NOMINAL_S / r``, where ``r`` is the mean time of kernel passes run during
the frame and right before and after it.  Set-up times are normalised as
``timed_setups`` says.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

import refkernel
from workloads import WORKLOADS, import_package, make_frames, set_up, solve

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")
#: A fresh-interpreter set-up that takes longer than this is a failure.
SETUP_TIMEOUT_S = 120
#: Kernel passes (one per 50 ms of CPU) a set-up must have sampled to be
#: normalised by them rather than by the yardstick process.
MIN_SETUP_PASSES = 20


@dataclass
class Sample:
    """One solve: its number in the run (the tracer's frame id), the frame's
    index in the frame set, raw seconds, the factor that normalises them,
    and what the solver returned; ``psi`` is None for a failed solve."""

    index: int
    frame: int
    raw_s: float
    factor: float
    psi: float | None = None
    nodes: int = 0
    x: np.ndarray | None = None
    split: np.ndarray | None = None
    actions: dict = field(default_factory=dict)
    restarts: int = 0
    fell_back: bool = False

    @property
    def norm_s(self) -> float:
        return self.raw_s * self.factor


def summarize(index, frame, raw_s, factor, report) -> Sample:
    from mecoffload.bnb import SolveStatus

    if report is None:
        return Sample(index, frame, raw_s, factor)
    actions: dict[str, int] = {}
    for rec in report.trace:
        actions[rec.action.value] = actions.get(rec.action.value, 0) + 1
    ok = report.status is SolveStatus.OPTIMAL
    if not ok:
        print(f"frame {frame}: solver returned {report.status.value}", file=sys.stderr)
    return Sample(
        index, frame, raw_s, factor,
        psi=report.best_psi if ok else None,
        nodes=report.nodes_searched,
        x=report.best_x if ok else None,
        split=report.best_split if ok else None,
        actions=actions,
        restarts=getattr(report, "restarts", 0),
        fell_back=getattr(report, "fell_back_to_exact", False),
    )


def measure(wl, frames, model, seconds, passes, tracer=None, first_index=0) -> list[Sample]:
    """Whole rounds over ``frames`` until the next would end after
    ``seconds``.  Each solve is normalised by kernel passes timed during it
    and just before and after it; every pass time is also appended to
    ``passes``."""
    samples: list[Sample] = []
    start = time.perf_counter()
    before = refkernel.pass_seconds(2)
    passes.append(before)
    while True:
        round_start = time.perf_counter()
        for i, frame in enumerate(frames):
            index = first_index + len(samples)
            if tracer is not None:
                tracer.frame = index
            report = None
            sampler = refkernel.Sampler(tracer.exclude if tracer is not None else None)
            with sampler:
                t0 = time.perf_counter()
                try:
                    report = solve(wl, frame, model)
                except Exception:   # a crashing solve is a failed frame, not a crashed run
                    traceback.print_exc()
                raw = time.perf_counter() - t0 - sum(sampler.times)
            if tracer is not None:
                tracer.frame = -2   # reference passes belong to no frame
            after = refkernel.pass_seconds(2)
            passes += [*sampler.times, after]
            factor = refkernel.factor([before, after, *sampler.times])
            samples.append(summarize(index, i, raw, factor, report))
            before = after
        now = time.perf_counter()
        if now + (now - round_start) - start > seconds:
            return samples


def timed_setups(wl, seed, work) -> tuple[list[float], list[float], str]:
    """Run the set-up ``wl.setups`` times, each in a fresh interpreter right
    after the yardstick process; returns each set-up's normalised and raw
    seconds and the last work directory.

    A set-up that ran long enough to sample ``MIN_SETUP_PASSES`` kernel
    passes is compute-bound and is normalised by those passes, as a frame
    is.  A shorter one is dominated by interpreter start and imports, and is
    quoted against the yardstick process instead.
    """
    def run(argv) -> tuple[float, str]:
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"{argv[0]} exited with {proc.returncode}:\n{proc.stderr}")
        return time.perf_counter() - t0, proc.stdout

    times, walls = [], []
    for r in range(wl.setups):
        work_dir = os.path.join(work, f"setup{r}")
        yardstick, _ = run([os.path.join(HERE, "refkernel.py")])
        wall, out = run([os.path.join(HERE, "workloads.py"), wl.name, str(seed), work_dir])
        passes = json.loads(out.splitlines()[-1])
        busy = wall - sum(passes)
        walls.append(busy)
        if len(passes) >= MIN_SETUP_PASSES:
            times.append(busy * refkernel.factor(passes))
        else:
            times.append(busy / yardstick * refkernel.START_NOMINAL_S)
    return times, walls, work_dir


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def check(wl, frames, samples) -> tuple[list[str], dict[int, float]]:
    """Every fault of the solver outputs, and the reference optimum per frame."""
    import oracle
    import selftest

    faults = [f"self-test: {msg}" for msg in selftest.run()]
    args = [(f.rates_bps, f.powers_w, f.task_bits, f.config.lambda_t, f.config.lambda_e)
            for f in frames]
    optimum = {}
    for i in range(len(frames)):
        optimum[i] = oracle.milp_optimum(*args[i])
        if optimum[i] is None:
            faults.append(f"frame {i} has no feasible assignment; the workload needs one")
    first: dict[int, Sample] = {}
    for s in samples:
        if s.psi is None or optimum[s.frame] is None:
            continue
        for msg in oracle.assignment_faults(*args[s.frame], s.x, s.split, s.psi):
            faults.append(f"frame {s.frame}: {msg}")
        seen = first.setdefault(s.frame, s)
        if (seen.psi, seen.nodes) != (s.psi, s.nodes):
            faults.append(f"frame {s.frame}: rounds disagree ({seen.psi!r}, {seen.nodes}) "
                          f"vs ({s.psi!r}, {s.nodes})")
    # HiGHS may settle within its tolerance on an assignment a hair worse
    # than the one returned; then the returned one, costed exactly, is the
    # reference.  Beating HiGHS by more than its tolerance is an oracle fault.
    for i, s in first.items():
        own = oracle.optimal_split_cost(*args[i], s.x)
        if own < optimum[i] * (1 - oracle.MILP_RTOL):
            faults.append(f"frame {i}: returned assignment costs {own!r}, "
                          f"below the MILP optimum {optimum[i]!r}")
        optimum[i] = min(optimum[i], own)
    for s in samples:
        if s.psi is None or s.frame not in first:
            continue
        opt = optimum[s.frame]
        gap = (s.psi - opt) / opt
        if wl.solver == "ibnb":
            if gap < -oracle.OBJECTIVE_RTOL:
                faults.append(f"frame {s.frame}: psi {s.psi!r} is below the optimum {opt!r}")
        elif abs(gap) > oracle.OBJECTIVE_RTOL:
            faults.append(f"frame {s.frame}: psi {s.psi!r} differs from the optimum {opt!r}")
    return faults, optimum


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def end_to_end(samples, optimum, setup_s, rss_mb) -> dict:
    """The metrics a caller sees, over the solves that did not fail."""
    ok = [s for s in samples if s.psi is not None]
    norm = [s.norm_s for s in ok]
    return {
        "setup_s": (setup_s, "s"),
        "frames_per_s": (len(ok) / sum(norm), "1/s"),
        "frame_ms.p50": (1e3 * statistics.median(norm), "ms"),
        "nodes_per_frame": (statistics.fmean(s.nodes for s in ok), "count"),
        "psi_ratio.mean": (statistics.fmean(s.psi / optimum[s.frame] for s in ok), "ratio"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def per_layer(tracer, setup_factor, untraced, traced) -> dict:
    """Per-frame means over the traced solves, set-up totals, and the
    traced-over-untraced ratio of mean frame time."""
    n = len(traced)
    spans, tags = tracer.totals({s.index: s.factor for s in traced})
    setup, _ = tracer.totals({-1: setup_factor})

    def calls(label):
        return spans[label][0] / n

    def ms(label):
        return 1e3 * spans[label][1] / n

    def self_ms(layer):
        return 1e3 * sum(v[2] for k, v in spans.items() if k.startswith(layer + ".")) / n

    def actions(name):
        return sum(s.actions.get(name, 0) for s in traced) / n

    lp_calls = spans["lp.solve_lp"][0]
    forward_calls = spans["mlp.forward"][0]
    model_pruned = sum(s.actions.get("PrunedByModel", 0) for s in traced)
    traced_s = sum(s.norm_s for s in traced)
    return {
        "lp.solve_lp.calls": (calls("lp.solve_lp"), "count"),
        "lp.solve_lp.ms": (ms("lp.solve_lp"), "ms"),
        "lp.solve_lp.us_per_call": (
            1e6 * spans["lp.solve_lp"][1] / lp_calls if lp_calls else 0.0, "us"),
        "lp.solve_lp.infeasible": (tags["lp.solve_lp", "infeasible"] / n, "count"),
        "relax.build_relaxation.ms": (ms("relax.build_relaxation"), "ms"),
        "relax.extract_solution.ms": (ms("relax.extract_solution"), "ms"),
        "relax.solve_split.calls": (calls("relax.solve_split"), "count"),
        "relax.solve_split.ms": (ms("relax.solve_split"), "ms"),
        "bnb.self_ms": (self_ms("bnb"), "ms"),
        "bnb.branched": (actions("Branched"), "count"),
        "bnb.pruned_by_bound": (actions("PrunedByBound"), "count"),
        "bnb.pruned_infeasible": (actions("PrunedInfeasible"), "count"),
        "bnb.new_incumbent": (actions("NewIncumbent"), "count"),
        "mlp.model_fingerprint.ms": (ms("mlp.model_fingerprint"), "ms"),
        "mlp.forward.calls": (calls("mlp.forward"), "count"),
        "mlp.forward.ms": (ms("mlp.forward"), "ms"),
        "dataset.featurize.ms": (ms("dataset.featurize"), "ms"),
        "ibnb.self_ms": (self_ms("ibnb"), "ms"),
        "ibnb.model_pruned": (model_pruned / n, "count"),
        "ibnb.prune_ratio": (model_pruned / forward_calls if forward_calls else 0.0, "ratio"),
        "ibnb.restarts": (sum(s.restarts for s in traced) / n, "count"),
        "ibnb.fallbacks": (sum(s.fell_back for s in traced) / n, "count"),
        "cli.gen_data.s": (setup["cli.cmd_gen_data"][1], "s"),
        "dataset.label_trace.s": (setup["dataset.label_trace"][1], "s"),
        "mlp.train.s": (setup["mlp.train"][1], "s"),
        "mlp.backward.calls": (setup["mlp.backward"][0], "count"),
        "scenario.generate_frame.ms": (1e3 * setup["scenario.generate_frame"][1], "ms"),
        "trace.overhead_ratio": (
            (traced_s / n) / (sum(s.norm_s for s in untraced) / len(untraced)), "ratio"),
        "trace.accounted_share": (sum(v[2] for v in spans.values()) / traced_s, "ratio"),
    }


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------


def untraced_run(wl, seed, seconds, work):
    setup_times, setup_walls, work_dir = timed_setups(wl, seed, work)
    from mecoffload.mlp import load_model

    frames = make_frames(wl, seed)
    model = load_model(os.path.join(work_dir, "model", "model.txt")) if wl.solver == "ibnb" else None
    passes: list[float] = []
    samples = measure(wl, frames, model, seconds, passes)
    # Read before the checks import scipy, so only the solving process counts.
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    faults, optimum = check(wl, frames, samples)
    setup_s = statistics.median(setup_times)
    raw = {"setup_s": setup_walls, "pass_s_median": statistics.median(passes)}
    return samples, faults, end_to_end(samples, optimum, setup_s, rss_mb), raw


def traced_run(wl, seed, seconds, work):
    import mecoffload.cli  # noqa: F401  (every layer module must be loaded to be wrapped)
    from tracer import Tracer

    tracer = Tracer()
    passes = [refkernel.pass_seconds(2)]
    tracer.install()
    frames, model = set_up(wl, seed, os.path.join(work, "setup"))
    tracer.uninstall()

    untraced = measure(wl, frames, model, seconds / 2, passes)
    tracer.install()
    traced = measure(wl, frames, model, seconds / 2, passes, tracer=tracer,
                     first_index=len(untraced))
    tracer.uninstall()
    tracer.write(os.path.join(OUT, f"{wl.name}.spans.csv"))
    faults, _ = check(wl, frames, untraced + traced)
    pass_s = statistics.median(passes)
    metrics = per_layer(tracer, refkernel.factor([pass_s]), untraced, traced)
    return untraced + traced, faults, metrics, {"pass_s_median": pass_s}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    wl = WORKLOADS[args.workload]
    try:
        import_package()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    os.makedirs(OUT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{wl.name}-", dir=OUT)
    try:
        run = traced_run if args.trace else untraced_run
        samples, faults, metrics, raw = run(wl, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(s.psi is None for s in samples)
    for msg in faults:
        print(f"FAULT {msg}", file=sys.stderr)
    print(f"# workload={wl.name} seed={args.seed} frames={wl.frames} "
          f"solves={len(samples)} failed={failed} faults={len(faults)}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    result = {
        "correct": not faults,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    with open(os.path.join(OUT, f"{wl.name}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        raw["frames"] = [(s.frame, s.raw_s, s.factor, s.nodes, s.psi) for s in samples]
        json.dump({**result, "raw": raw}, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
