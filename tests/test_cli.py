import math

import numpy as np
import pytest

from mecoffload.cli import main
from mecoffload.dataset import read_dataset
from mecoffload.mlp import MlpModel, default_dims, init_model, load_model, save_model

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


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "frame.cfg"
    path.write_text(CONFIG)
    return str(path)


def write_constant_model(path, num_features=16, p=0.99):
    dims = default_dims(num_features)
    weights = [np.zeros((dims[i + 1], dims[i])) for i in range(len(dims) - 1)]
    biases = [np.zeros(dims[i + 1]) for i in range(len(dims) - 1)]
    biases[-1][0] = math.log(p / (1.0 - p))
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
        ds = read_dataset(out / "dataset.csv")
        assert len(ds.samples) > 0
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
        assert model.layer_dims == default_dims(16)
        history = [l for l in (out / "history.csv").read_text().splitlines()
                   if not l.startswith("#")]
        assert history[0] == "epoch,train_loss,val_loss"
        assert len(history) == 1 + 2

    def test_zero_epochs_keeps_initialization(self, tmp_path, dataset_path):
        out = tmp_path / "model0"
        rc = main(["train", "--dataset", dataset_path, "--out", str(out),
                   "--epochs", "0", "--seed", "5"])
        assert rc == 0
        trained = load_model(out / "model.txt")
        reference = init_model(16, 5)
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


class TestSolve:
    def test_bnb_matches_exhaustive(self, tmp_path, config_path):
        out_b, out_e = tmp_path / "b", tmp_path / "e"
        assert main(["solve", "--config", config_path, "--solver", "bnb",
                     "--out", str(out_b), "--seed", "21"]) == 0
        assert main(["solve", "--config", config_path, "--solver", "exhaustive",
                     "--out", str(out_e), "--seed", "21"]) == 0
        psi_b = float(read_report(out_b / "report.csv")["psi"])
        psi_e = float(read_report(out_e / "report.csv")["psi"])
        assert psi_b == pytest.approx(psi_e, rel=1e-6)
        trace = (out_b / "trace.csv").read_text().splitlines()
        assert trace[0] == "# trace-v1"

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

    def test_infeasible_exit_code_and_message(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(INFEASIBLE_CONFIG)
        rc = main(["solve", "--config", str(cfg), "--solver", "bnb",
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "infeasible" in capsys.readouterr().err.lower()

    def test_budget_exit_code(self, tmp_path, config_path):
        rc = main(["solve", "--config", config_path, "--solver", "bnb",
                   "--out", str(tmp_path / "o"), "--max-nodes", "1"])
        assert rc == 3

    def test_ibnb_without_model_is_usage_error(self, tmp_path, config_path):
        rc = main(["solve", "--config", config_path, "--solver", "ibnb",
                   "--out", str(tmp_path / "o")])
        assert rc == 1

    def test_unknown_solver_is_usage_error(self, tmp_path, config_path):
        rc = main(["solve", "--config", config_path, "--solver", "magic",
                   "--out", str(tmp_path / "o")])
        assert rc == 1

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

    def test_zero_frames_is_usage_error(self, tmp_path, config_path, model_path):
        out = tmp_path / "bench"
        rc = main(["bench", "--config", config_path, "--model", model_path,
                   "--frames", "0", "--out", str(out)])
        assert rc == 1
        assert not out.exists()

    def test_budget_exhausted_exit_code(self, tmp_path, config_path, model_path, capsys):
        out = tmp_path / "bench"
        rc = main(["bench", "--config", config_path, "--model", model_path,
                   "--frames", "1", "--out", str(out), "--max-nodes", "1"])
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
