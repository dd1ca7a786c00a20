"""Acceptance gate: the learned pipeline end to end, through ``cli.main``.

A short ``gen-data`` and ``train`` on the desk configuration (3 devices, 5
channels), then ``solve`` with the exact, learned and exhaustive solvers
on held-out frames (the odd seeds ``cli.eval_seed`` gives, which training
never sees), all as a user would run them.  The whole pipeline runs twice,
in two working directories with the same relative paths, since the CSV
headers echo their input paths.

Every answer is re-priced by ``perfbench/oracle.py``.  The learned search
may end above the optimum; its gap is printed, never asserted, while its
answers must be feasible and never beat the optimum.
"""

import shutil
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from mecoffload.bnb import ENUM_BUDGET
from mecoffload.cli import eval_seed, main
from mecoffload.dataset import feature_length
from mecoffload.mlp import MlpModel, default_dims, save_model
from mecoffload.scenario import generate_frame, read_config_file
from oracle import assignment_faults

from conftest import frame_args

DESK_CONFIG = Path(__file__).resolve().parents[1] / "scripts" / "desk_config.txt"
SEED_BASE = 100
TRAIN_FRAMES = 3
EPOCHS = 5
HELD_OUT = 4
#: High enough that the short-trained model prunes.  Yet at 0.2 all four
#: held-out frames end at the optimum psi*, so the gap-bound check below
#: sees only zero gaps; tests/test_bnb.py::TestGapBound checks the bound
#: against positive gaps, under hand-made gates.
THETA0 = "0.2"
SOLVERS = ("bnb", "exhaustive", "ibnb")


def held_out_seeds():
    return [eval_seed(SEED_BASE, i) for i in range(HELD_OUT)]


def read_report(path: Path) -> dict[str, str]:
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    return dict(zip(lines[0].split(","), lines[1].split(",")))


def run_pipeline(workdir: Path) -> None:
    """gen-data, train, then every solver on every held-out frame, with
    paths relative to ``workdir``."""
    workdir.mkdir()
    shutil.copy(DESK_CONFIG, workdir / "desk.cfg")
    steps = [
        ["gen-data", "--config", "desk.cfg", "--frames", str(TRAIN_FRAMES),
         "--out", "data", "--seed", str(SEED_BASE)],
        ["train", "--dataset", "data/dataset.csv", "--out", "model",
         "--epochs", str(EPOCHS), "--seed", str(SEED_BASE)],
    ]
    for seed in held_out_seeds():
        for solver in SOLVERS:
            argv = ["solve", "--config", "desk.cfg", "--solver", solver,
                    "--seed", str(seed), "--out", f"solve/{solver}-{seed}"]
            if solver == "ibnb":
                argv += ["--model", "model/model.txt", "--theta", THETA0]
            steps.append(argv)
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(workdir)
        for argv in steps:
            assert main(argv) == 0, argv


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance")
    for name in ("run1", "run2"):
        run_pipeline(root / name)
    return root / "run1", root / "run2"


def answer_faults(report: dict[str, str], seed: int) -> list[str]:
    """Every way the answer in ``report`` fails the oracle's check on the
    held-out frame of ``seed``."""
    scenario = generate_frame(replace(read_config_file(DESK_CONFIG), rng_seed=seed))
    x, split = (np.array([float(v) for v in report[column].split(";")])
                .reshape(scenario.num_mds, scenario.num_channels) for column in ("x", "l"))
    return assignment_faults(*frame_args(scenario), x, split, float(report["psi"]))


def test_bnb_equals_the_exhaustive_optimum(runs):
    run, _ = runs
    for seed in held_out_seeds():
        bnb = read_report(run / f"solve/bnb-{seed}/report.csv")
        exact = read_report(run / f"solve/exhaustive-{seed}/report.csv")
        assert bnb["status"] == exact["status"] == "Optimal"
        assert float(bnb["psi"]) == pytest.approx(float(exact["psi"]), rel=1e-12)
        assert answer_faults(bnb, seed) == answer_faults(exact, seed) == []


def test_ibnb_answers_are_feasible_and_never_beat_the_optimum(runs):
    run, _ = runs
    for seed in held_out_seeds():
        report = read_report(run / f"solve/ibnb-{seed}/report.csv")
        assert report["status"] == "Optimal"
        assert answer_faults(report, seed) == []
        psi = float(report["psi"])
        optimum = float(read_report(run / f"solve/exhaustive-{seed}/report.csv")["psi"])
        assert psi >= optimum * (1 - 1e-12)
        bnb_nodes = read_report(run / f"solve/bnb-{seed}/report.csv")["nodes_searched"]
        print(f"frame seed {seed}: ibnb gap {(psi - optimum) / optimum:.3e}, "
              f"nodes ibnb {report['nodes_searched']} against bnb {bnb_nodes}")


def test_gap_bound_covers_the_gap_to_the_optimum(runs):
    # Exact answers certify a zero gap; a learned one's bound is at least
    # its relative distance to the optimum.
    run, _ = runs
    for seed in held_out_seeds():
        optimum = float(read_report(run / f"solve/exhaustive-{seed}/report.csv")["psi"])
        for solver in SOLVERS:
            report = read_report(run / f"solve/{solver}-{seed}/report.csv")
            psi, bound = float(report["psi"]), float(report["gap_bound"])
            assert bound >= (psi - optimum) / psi - 1e-12
            if solver != "ibnb":
                assert bound == 0.0


def test_identically_seeded_runs_write_identical_bytes(runs):
    first, second = runs
    files = sorted(p.relative_to(first) for p in first.rglob("*") if p.is_file())
    assert sorted(p.relative_to(second) for p in second.rglob("*") if p.is_file()) == files
    # The config copy, the dataset, model and history, and a report and a
    # trace per solve.
    assert len(files) == 1 + 3 + 2 * len(SOLVERS) * HELD_OUT
    for rel in files:
        assert (first / rel).read_bytes() == (second / rel).read_bytes(), rel


def test_model_that_prunes_every_node_falls_back_to_the_exact_answer(runs, tmp_path):
    run, _ = runs
    cfg = read_config_file(DESK_CONFIG)
    dims = default_dims(feature_length(cfg.num_mds, cfg.num_channels))
    weights = [np.zeros((dims[i + 1], dims[i])) for i in range(len(dims) - 1)]
    biases = [np.zeros(dims[i + 1]) for i in range(len(dims) - 1)]
    biases[-1][0] = -1e3    # every score sits at the sigmoid's floor
    stub = tmp_path / "prune-all.txt"
    save_model(MlpModel(dims, weights, biases), stub)
    for seed in held_out_seeds():
        out = tmp_path / f"ibnb-{seed}"
        assert main(["solve", "--config", str(DESK_CONFIG), "--solver", "ibnb",
                     "--seed", str(seed), "--model", str(stub), "--out", str(out)]) == 0
        report = read_report(out / "report.csv")
        exact = read_report(run / f"solve/bnb-{seed}/report.csv")
        assert int(exact["nodes_searched"]) > 1    # the root is fractional
        assert report["fell_back_to_exact"] == "1"
        assert report["psi"] == exact["psi"]
        # The gate pruned the root; the reopen branched it, and the rest of
        # the search is the exact one, node for node and row for row.
        assert report["nodes_searched"] == exact["nodes_searched"]
        assert (out / "trace.csv").read_bytes() == \
               (run / f"solve/bnb-{seed}/trace.csv").read_bytes()


def test_infeasible_config_exits_2_and_spent_budget_exits_3(tmp_path):
    cfg = tmp_path / "crowded.cfg"
    cfg.write_text(DESK_CONFIG.read_text().replace("num_mds = 3", "num_mds = 6"))
    assert main(["gen-data", "--config", str(cfg), "--frames", "1",
                 "--out", str(tmp_path / "data")]) == 2
    assert not (tmp_path / "data" / "dataset.csv").exists()
    wide = tmp_path / "wide.cfg"
    wide.write_text(DESK_CONFIG.read_text().replace("num_mds = 3", "num_mds = 4")
                    .replace("num_channels = 5", "num_channels = 10"))
    assert 4 ** 10 > ENUM_BUDGET
    assert main(["solve", "--config", str(wide), "--solver", "exhaustive",
                 "--out", str(tmp_path / "budget")]) == 3
    assert not (tmp_path / "budget").exists()
