import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from mecoffload import bnb
from mecoffload.bnb import ENUM_BUDGET
from mecoffload.cli import WEIGHT_SWEEP, eval_seed, main
from mecoffload.dataset import feature_length, read_dataset
from mecoffload.ibnb import ThresholdPolicy, solve_ibnb
from mecoffload.mlp import MlpModel, default_dims, init_model, load_model, save_model
from mecoffload.scenario import generate_frame, read_config_file

from oracle import OBJECTIVE_RTOL

CONFIG = """\
num_mds = 2
num_channels = 3
bandwidth_hz = 1.0e7
noise_dbm = -110.0
power_min_w = 1.0
power_max_w = 1.5
task_min_bits = 2.0e6
task_max_bits = 8.0e6
mean_gain = 1.0
lambda_t = 1.0
lambda_e = 0.25
seed = 3
"""

INFEASIBLE_CONFIG = CONFIG.replace("num_mds = 2", "num_mds = 4")
#: Feature length of a CONFIG frame: depth, relative bound and 2x3 indicators.
M = feature_length(2, 3)


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "frame.cfg"
    path.write_text(CONFIG)
    return str(path)


def write_constant_model(path, num_features=M, p=0.99):
    dims = default_dims(num_features)
    weights = [np.zeros((dims[i + 1], dims[i])) for i in range(len(dims) - 1)]
    biases = [np.zeros(dims[i + 1]) for i in range(len(dims) - 1)]
    biases[-1][0] = math.log(p / (1.0 - p))
    save_model(MlpModel(dims, weights, biases), path)


def write_depth_model(path, num_features=M):
    """A stub whose score falls with the node's depth feature: about 0.88 at
    the root and 0.49 one level down, so a threshold of 0.75 prunes every
    node below the root and one of 1e-3 prunes none."""
    dims = default_dims(num_features)
    weights = [np.zeros((dims[i + 1], dims[i])) for i in range(len(dims) - 1)]
    biases = [np.zeros(dims[i + 1]) for i in range(len(dims) - 1)]
    weights[0][0, 0] = 6.0          # feature 0 is depth / (S*K)
    for w in weights[1:-1]:
        w[0, 0] = 1.0
    weights[-1][0, 0] = -4.0
    biases[-1][0] = 2.0
    save_model(MlpModel(dims, weights, biases), path)


def read_report(path):
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    values = lines[1].split(",")
    return dict(zip(header, values))


class TestGenData:
    def test_writes_dataset_and_stats(self, tmp_path, config_path, capsys):
        out = tmp_path / "out"
        rc = main(["gen-data", "--config", config_path, "--frames", "2",
                   "--out", str(out)])
        assert rc == 0
        header = (out / "dataset.csv").read_text().splitlines()[0]
        assert header.startswith(f"# dataset-v2 m={M} S=2 K=3 cfg=")
        ds = read_dataset(out / "dataset.csv")
        assert ds.labels.size > 0
        assert ds.config_hash
        stdout = capsys.readouterr().out
        assert "# command=gen-data" in stdout
        assert "positive_ratio=" in stdout

    def test_infeasible_config_aborts(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(INFEASIBLE_CONFIG)
        rc = main(["gen-data", "--config", str(cfg), "--frames", "1",
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        assert not (tmp_path / "out" / "dataset.csv").exists()

    def test_zero_frames_is_usage_error(self, tmp_path, config_path, capsys):
        rc = main(["gen-data", "--config", config_path, "--frames", "0",
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "--frames" in capsys.readouterr().err
        assert not (tmp_path / "out" / "dataset.csv").exists()

    def test_training_seeds_are_even(self, tmp_path, config_path, capsys):
        rc = main(["gen-data", "--config", config_path, "--frames", "1",
                   "--out", str(tmp_path / "out"), "--seed", "9"])
        assert rc == 0
        assert "seed_base=9" in capsys.readouterr().out

    def test_deterministic_dataset_bytes(self, tmp_path, config_path):
        # Same paths both times, since the echoed parameters name them.
        out = tmp_path / "out"
        first = tmp_path / "first.csv"
        for _ in range(2):
            assert main(["gen-data", "--config", config_path, "--frames", "3",
                         "--out", str(out), "--seed", "4"]) == 0
            if not first.exists():
                (out / "dataset.csv").rename(first)
        assert (out / "dataset.csv").read_bytes() == first.read_bytes()


class TestTrain:
    @pytest.fixture
    def dataset_path(self, tmp_path, config_path):
        out = tmp_path / "data"
        assert main(["gen-data", "--config", config_path, "--frames", "3",
                     "--out", str(out)]) == 0
        return str(out / "dataset.csv")

    def test_train_writes_model_and_history(self, tmp_path, dataset_path):
        out = tmp_path / "model"
        rc = main(["train", "--dataset", dataset_path, "--out", str(out),
                   "--epochs", "2", "--seed", "5"])
        assert rc == 0
        model = load_model(out / "model.txt")
        assert model.layer_dims == default_dims(M)
        lines = (out / "history.csv").read_text().splitlines()
        # The net's shape is echoed with the other parameters.
        assert f"# dims={','.join(map(str, default_dims(M)))}" in lines
        history = [l for l in lines if not l.startswith("#")]
        assert history[0] == "epoch,train_loss,val_loss"
        assert len(history) == 1 + 2

    def test_zero_epochs_keeps_initialization(self, tmp_path, dataset_path):
        out = tmp_path / "model0"
        rc = main(["train", "--dataset", dataset_path, "--out", str(out),
                   "--epochs", "0", "--seed", "5"])
        assert rc == 0
        trained = load_model(out / "model.txt")
        reference = init_model(M, 5)
        for a, b in zip(trained.weights + trained.biases,
                        reference.weights + reference.biases):
            assert np.array_equal(a, b)
        history = [l for l in (out / "history.csv").read_text().splitlines()
                   if not l.startswith("#")]
        assert history == ["epoch,train_loss,val_loss"]

    def test_deterministic_model_bytes(self, tmp_path, dataset_path):
        out1, out2 = tmp_path / "m1", tmp_path / "m2"
        for out in (out1, out2):
            assert main(["train", "--dataset", dataset_path, "--out", str(out),
                         "--epochs", "2", "--seed", "5"]) == 0
        assert (out1 / "model.txt").read_bytes() == (out2 / "model.txt").read_bytes()

    def test_missing_dataset_is_usage_error(self, tmp_path):
        rc = main(["train", "--dataset", str(tmp_path / "nope.csv"),
                   "--out", str(tmp_path / "m")])
        assert rc == 1

    def test_bad_label_is_a_format_error_naming_its_line(self, tmp_path, dataset_path,
                                                          capsys):
        lines = Path(dataset_path).read_text().splitlines()
        frame_id, node_id, _, rest = lines[3].split(",", 3)
        lines[3] = ",".join([frame_id, node_id, "2", rest])
        Path(dataset_path).write_text("\n".join(lines) + "\n")
        rc = main(["train", "--dataset", dataset_path, "--out", str(tmp_path / "m")])
        assert rc == 1
        assert f"{dataset_path}:4: label must be 0/1, got 2" in capsys.readouterr().err
        assert not (tmp_path / "m").exists()


class TestSolve:
    def test_bnb_matches_exhaustive(self, tmp_path, config_path):
        out_b, out_e = tmp_path / "b", tmp_path / "e"
        assert main(["solve", "--config", config_path, "--solver", "bnb",
                     "--out", str(out_b), "--seed", "21"]) == 0
        assert main(["solve", "--config", config_path, "--solver", "exhaustive",
                     "--out", str(out_e), "--seed", "21"]) == 0
        psi_b = float(read_report(out_b / "report.csv")["psi"])
        psi_e = float(read_report(out_e / "report.csv")["psi"])
        assert psi_b == pytest.approx(psi_e, rel=OBJECTIVE_RTOL, abs=0.0)
        trace = (out_b / "trace.csv").read_text().splitlines()
        assert trace[0] == "# trace-v2"

    def test_confident_stub_model_matches_bnb_node_count(self, tmp_path, config_path,
                                                         capsys):
        model_path = tmp_path / "stub.txt"
        write_constant_model(model_path)
        out_b, out_i = tmp_path / "b", tmp_path / "i"
        summaries = []
        for argv in (["--solver", "bnb", "--out", str(out_b)],
                     ["--solver", "ibnb", "--model", str(model_path),
                      "--out", str(out_i)]):
            assert main(["solve", "--config", config_path, "--seed", "21", *argv]) == 0
            summaries += [line for line in capsys.readouterr().out.splitlines()
                          if line.startswith("status=")]
        rb = read_report(out_b / "report.csv")
        ri = read_report(out_i / "report.csv")
        assert rb["nodes_searched"] == ri["nodes_searched"]
        assert ri["model_id"]
        fields = [dict(f.split("=") for f in line.split()) for line in summaries]
        for counter in ("nodes_unsolved", "lp_pivots", "lp_refactors"):
            assert fields[0][counter] == fields[1][counter]
        assert int(fields[0]["lp_pivots"]) > 0

    # 8 devices on 7 channels have 8**7 full maps, more than ENUM_BUDGET:
    # the exhaustive solver finds the frame infeasible before it counts them.
    @pytest.mark.parametrize("solver, s_n, k_n", [("bnb", 4, 3), ("exhaustive", 8, 7)])
    def test_infeasible_exit_code_and_message(self, tmp_path, capsys, solver, s_n, k_n):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(CONFIG.replace("num_mds = 2", f"num_mds = {s_n}")
                       .replace("num_channels = 3", f"num_channels = {k_n}"))
        rc = main(["solve", "--config", str(cfg), "--solver", solver,
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "infeasible" in err.lower()
        assert f"({s_n} devices, {k_n} channels)" in err
        report = read_report(tmp_path / "o" / "report.csv")
        # Neither solver solves or prices anything on such a frame.
        assert report["status"] == "Infeasible"
        assert report["nodes_searched"] == "0"

    def test_budget_exit_code(self, tmp_path, capsys):
        # 4 devices on 10 channels: 4**10 full maps, more than ENUM_BUDGET.
        cfg = tmp_path / "wide.cfg"
        cfg.write_text(CONFIG.replace("num_mds = 2", "num_mds = 4")
                       .replace("num_channels = 3", "num_channels = 10"))
        assert 4 ** 10 > ENUM_BUDGET
        rc = main(["solve", "--config", str(cfg), "--solver", "exhaustive",
                   "--out", str(tmp_path / "o")])
        assert rc == 3
        assert "budget exhausted" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("line, bad", [("num_mds = 2", "num_mds = 2.5"),
                                           ("lambda_t = 1.0", "lambda_t = abc")],
                             ids=["int", "float"])
    def test_unparsable_config_value_names_its_key(self, tmp_path, capsys, line, bad):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(CONFIG.replace(line, bad))
        rc = main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"{cfg}: {bad.split()[0]} = " in err
        assert not (tmp_path / "o").exists()

    def test_ibnb_without_model_is_usage_error(self, tmp_path, config_path):
        rc = main(["solve", "--config", config_path, "--solver", "ibnb",
                   "--out", str(tmp_path / "o")])
        assert rc == 1

    def test_unknown_solver_is_usage_error(self, tmp_path, config_path):
        rc = main(["solve", "--config", config_path, "--solver", "magic",
                   "--out", str(tmp_path / "o")])
        assert rc == 1

    def test_module_entry_point_writes_what_main_writes(self, tmp_path):
        # ``python -m mecoffload`` runs __main__.py, which nothing else here
        # imports: it must exit 0 and write the bytes main() writes in-process.
        root = Path(__file__).resolve().parents[1]
        args = ["solve", "--config", str(root / "scripts" / "desk_config.txt"),
                "--seed", "21"]
        assert main([*args, "--out", str(tmp_path / "in")]) == 0
        run = subprocess.run(
            [sys.executable, "-m", "mecoffload", *args, "--out", str(tmp_path / "sub")],
            env={**os.environ, "PYTHONPATH": str(root / "src")},
            capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        for name in ("report.csv", "trace.csv"):
            assert (tmp_path / "sub" / name).read_bytes() == (tmp_path / "in" / name).read_bytes()

    def test_report_has_metadata_lines(self, tmp_path, config_path):
        out = tmp_path / "o"
        assert main(["solve", "--config", config_path, "--solver", "bnb",
                     "--out", str(out), "--seed", "21"]) == 0
        text = (out / "report.csv").read_text()
        assert text.startswith("# command=solve")
        assert "# frame_seed=21" in text


class TestBench:
    @pytest.fixture
    def model_path(self, tmp_path):
        path = tmp_path / "stub.txt"
        write_constant_model(path, p=0.6)
        return str(path)

    def test_bench_outputs(self, tmp_path, config_path, model_path):
        out = tmp_path / "bench"
        rc = main(["bench", "--config", config_path, "--model", model_path,
                   "--frames", "2", "--out", str(out), "--seed", "2"])
        assert rc == 0

        per_frame = [l for l in (out / "nodes_per_frame.csv").read_text().splitlines()
                     if not l.startswith("#")]
        assert per_frame[0] == "frame,bnb_nodes,ibnb_nodes"
        assert len(per_frame) == 1 + 2

        cdf_lines = [l for l in (out / "node_cdf.csv").read_text().splitlines()
                     if not l.startswith("#")]
        assert cdf_lines[0] == "nodes,cdf,solver,theta"
        series = {}
        for line in cdf_lines[1:]:
            nodes, cdf, solver, theta = line.split(",")
            series.setdefault((solver, theta), []).append(float(cdf))
        # Default thresholds: one exact series plus two learned series.
        assert len(series) == 3
        for values in series.values():
            assert all(b >= a for a, b in zip(values, values[1:]))
            assert values[-1] == 1.0

        sweep = [l for l in (out / "weights_sweep.csv").read_text().splitlines()
                 if not l.startswith("#")]
        assert sweep[0] == "lambda_t,lambda_e,psi_bnb,psi_ibnb,ratio"
        assert len(sweep) == 1 + 5
        for line in sweep[1:]:
            ratio = float(line.split(",")[-1])
            assert ratio >= 1.0 - 1e-9

    def test_weights_outside_the_sweep_solve_every_sweep_pair(self, tmp_path, config_path,
                                                              model_path):
        # At lambda_e = 0.3 no sweep pair is the config's own, so each of the
        # five is solved again; at the config's 0.25 the held-out frames
        # give that pair's row, and the two routes must agree on it.
        off_sweep = tmp_path / "off.cfg"
        off_sweep.write_text(CONFIG.replace("lambda_e = 0.25", "lambda_e = 0.3"))
        rows = {}
        for name, config in (("off", str(off_sweep)), ("own", config_path)):
            out = tmp_path / name
            assert main(["bench", "--config", config, "--model", model_path,
                         "--frames", "2", "--out", str(out), "--seed", "2",
                         "--theta", "0.75", "--theta", "1e-3"]) == 0
            sweep = [l for l in (out / "weights_sweep.csv").read_text().splitlines()
                     if not l.startswith("#")]
            rows[name] = sweep[1:]
            cdf_lines = [l for l in (out / "node_cdf.csv").read_text().splitlines()
                         if not l.startswith("#")][1:]
            series = {tuple(l.split(",")[2:]) for l in cdf_lines}
            assert series == {("bnb", ""), ("ibnb", "0.75"), ("ibnb", "0.001")}
        assert [tuple(map(float, r.split(",")[:2])) for r in rows["off"]] == list(WEIGHT_SWEEP)
        assert rows["off"] == rows["own"]

    def test_sweep_at_own_weights_reads_the_first_threshold(self, tmp_path, config_path):
        # With a score that depends on the node, the two thresholds end at
        # different mean psi, so a sweep reading the wrong one shows.
        model_path = tmp_path / "depth.txt"
        write_depth_model(model_path)
        model = load_model(model_path)
        cfg = read_config_file(config_path)
        frames = [generate_frame(replace(cfg, rng_seed=eval_seed(2, i))) for i in range(2)]
        mean_psi = {}
        for theta in (0.75, 1e-3):
            psi = [solve_ibnb(frame, model, ThresholdPolicy(theta0=theta)).best_psi
                   for frame in frames]
            mean_psi[theta] = sum(psi) / len(psi)
        assert mean_psi[0.75] != pytest.approx(mean_psi[1e-3], rel=1e-6)
        for thetas in ((0.75, 1e-3), (1e-3, 0.75)):
            out = tmp_path / f"bench-{thetas[0]:g}"
            assert main(["bench", "--config", config_path, "--model", str(model_path),
                         "--frames", "2", "--out", str(out), "--seed", "2",
                         "--theta", str(thetas[0]), "--theta", str(thetas[1])]) == 0
            rows = [l.split(",") for l in (out / "weights_sweep.csv").read_text().splitlines()
                    if not l.startswith("#")][1:]
            [own] = [r for r in rows if (float(r[0]), float(r[1])) == (cfg.lambda_t, cfg.lambda_e)]
            assert float(own[3]) == pytest.approx(mean_psi[thetas[0]], rel=1e-12)

    def test_zero_frames_is_usage_error(self, tmp_path, config_path, model_path):
        out = tmp_path / "bench"
        rc = main(["bench", "--config", config_path, "--model", model_path,
                   "--frames", "0", "--out", str(out)])
        assert rc == 1
        assert not out.exists()

    def test_budget_exhausted_exit_code(self, tmp_path, config_path, model_path, capsys,
                                        monkeypatch):
        monkeypatch.setattr(bnb, "MAX_NODES", 1)
        out = tmp_path / "bench"
        rc = main(["bench", "--config", config_path, "--model", model_path,
                   "--frames", "1", "--out", str(out)])
        assert rc == 3
        assert "budget exhausted" in capsys.readouterr().err
        assert not out.exists()

    def test_bench_deterministic_bytes(self, tmp_path, config_path, model_path):
        outs = [tmp_path / "b1", tmp_path / "b2"]
        for out in outs:
            assert main(["bench", "--config", config_path, "--model", model_path,
                         "--frames", "2", "--out", str(out), "--seed", "2"]) == 0
        for name in ("nodes_per_frame.csv", "node_cdf.csv", "weights_sweep.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A config, a dataset and a model file that every command accepts, and
    two configs with a weight that is not finite."""
    root = tmp_path_factory.mktemp("inputs")
    config = root / "frame.cfg"
    config.write_text(CONFIG)
    (root / "nan.cfg").write_text(CONFIG.replace("lambda_t = 1.0", "lambda_t = nan"))
    (root / "inf.cfg").write_text(CONFIG.replace("lambda_e = 0.25", "lambda_e = inf"))
    assert main(["gen-data", "--config", str(config), "--frames", "2",
                 "--out", str(root / "data")]) == 0
    write_constant_model(root / "model.txt")
    write_constant_model(root / "narrow.txt", num_features=5)
    return {"config": str(config), "dataset": str(root / "data" / "dataset.csv"),
            "model": str(root / "model.txt"), "narrow_model": str(root / "narrow.txt"),
            "nan_config": str(root / "nan.cfg"), "inf_config": str(root / "inf.cfg")}


SOLVE = ["solve", "--config", "{config}"]
TRAIN = ["train", "--dataset", "{dataset}"]


@pytest.mark.parametrize("argv, named", [
    pytest.param(["gen-data", "--config", "{config}", "--max-nodes", "0"], "--max-nodes",
                 id="gen-data-takes-no-max-nodes"),
    pytest.param([*SOLVE, "--max-nodes", "0"], "--max-nodes", id="solve-takes-no-max-nodes"),
    pytest.param(["bench", "--config", "{config}", "--model", "{model}", "--max-nodes", "0"],
                 "--max-nodes", id="bench-takes-no-max-nodes"),
    pytest.param([*TRAIN, "--batch-size", "0"], "batch_size", id="train-batch-size-0"),
    pytest.param([*TRAIN, "--val-fraction", "1"], "--val-fraction",
                 id="train-val-fraction-1"),
    pytest.param([*TRAIN, "--pos-weight", "0"], "positive_class_weight", id="train-pos-weight-0"),
    pytest.param([*TRAIN, "--epochs", "-1"], "epochs", id="train-epochs-negative"),
    pytest.param([*TRAIN, "--learning-rate", "-1"], "learning_rate",
                 id="train-learning-rate-negative"),
    pytest.param([*TRAIN, "--learning-rate", "nan"], "learning_rate",
                 id="train-learning-rate-nan"),
    pytest.param([*TRAIN, "--pos-weight", "inf"], "positive_class_weight",
                 id="train-pos-weight-inf"),
    pytest.param(["solve", "--config", "{nan_config}", "--solver", "exhaustive"], "lambda_t",
                 id="solve-lambda-t-nan"),
    pytest.param(["solve", "--config", "{inf_config}", "--solver", "bnb"], "lambda_e",
                 id="solve-lambda-e-inf"),
    pytest.param([*TRAIN, "--max-nodes", "5"], "--max-nodes", id="train-takes-no-max-nodes"),
    pytest.param([*SOLVE, "--solver", "ibnb", "--model", "{model}",
                  "--theta", "1e-3", "--theta", "1e-5"], "--theta", id="solve-takes-one-theta"),
    pytest.param([*SOLVE, "--solver", "exhaustive", "--max-nodes", "1"], "--max-nodes",
                 id="exhaustive-takes-no-max-nodes"),
    pytest.param([*SOLVE, "--solver", "exhaustive", "--theta", "0.5"], "--theta",
                 id="exhaustive-reads-no-theta"),
    pytest.param([*SOLVE, "--solver", "bnb", "--theta", "0.3"], "--theta",
                 id="bnb-reads-no-theta"),
    pytest.param([*SOLVE, "--solver", "bnb", "--model", "/nonexistent"], "--model",
                 id="bnb-reads-no-model"),
    pytest.param([*SOLVE, "--solver", "exhaustive", "--model", "{model}"], "--model",
                 id="exhaustive-reads-no-model"),
    pytest.param([*SOLVE, "--delta-theta", "0.01"], "--delta-theta",
                 id="solve-takes-no-delta-theta"),
    pytest.param(["bench", "--config", "{config}", "--model", "{model}",
                  "--delta-theta", "0.01"], "--delta-theta", id="bench-takes-no-delta-theta"),
    # Failures found only once the solve starts leave no directory either.
    pytest.param([*SOLVE, "--solver", "ibnb", "--model", "/nonexistent"], "/nonexistent",
                 id="ibnb-model-missing"),
    pytest.param([*SOLVE, "--solver", "ibnb", "--model", "{narrow_model}"],
                 "model expects 5 features", id="ibnb-model-of-wrong-width"),
])
def test_bad_setting_exits_1_and_writes_nothing(tmp_path, inputs, argv, named, capsys):
    # The message names the setting, so a check that some later step
    # happens to trip instead does not pass for this one.
    out = tmp_path / "out"
    rc = main([arg.format(**inputs) for arg in argv] + ["--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err
    assert not out.exists()
