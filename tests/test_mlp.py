import base64
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mecoffload
from mecoffload.mlp import (
    VALIDATION_FRACTION,
    MlpModel,
    ModelFormatError,
    TrainConfig,
    backward,
    default_dims,
    forward,
    forward_batch,
    init_model,
    load_model,
    model_fingerprint,
    save_model,
    train,
)


def zero_model(m: int) -> MlpModel:
    dims = default_dims(m)
    return MlpModel(
        dims,
        [np.zeros((dims[i + 1], dims[i])) for i in range(len(dims) - 1)],
        [np.zeros(dims[i + 1]) for i in range(len(dims) - 1)],
    )


def batch_objective(model, x, y, weight):
    """Mean weighted cross-entropy via the public forward pass only, each
    sample's written out here: -(w*y*log p + (1-y)*log(1-p))."""
    preds = forward_batch(model, x)
    return float(np.mean([-(weight * yi * math.log(p) + (1 - yi) * math.log1p(-p))
                          for p, yi in zip(preds, y)]))


def fd_gradient(model, x, y, weight, coords, h=1e-5):
    """Central finite differences on selected (kind, layer, index) coords."""
    out = []
    for kind, layer, idx in coords:
        params = model.weights[layer] if kind == "w" else model.biases[layer]
        flat = params.reshape(-1)
        original = flat[idx]
        flat[idx] = original + h
        up = batch_objective(model, x, y, weight)
        flat[idx] = original - h
        down = batch_objective(model, x, y, weight)
        flat[idx] = original
        out.append((up - down) / (2 * h))
    return np.array(out)


def all_coords(model):
    coords = []
    for layer, (w, b) in enumerate(zip(model.weights, model.biases)):
        coords += [("w", layer, i) for i in range(w.size)]
        coords += [("b", layer, i) for i in range(b.size)]
    return coords


def relative_errors(analytic, numeric):
    scale = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-6)
    return np.abs(analytic - numeric) / scale


class TestParameters:
    @pytest.mark.parametrize("edit, match", [
        (lambda d, w, b: (d[:-1], w, b), "must end in 1"),
        (lambda d, w, b: (d, w[:-1], b), "one weight matrix and bias vector per layer"),
        (lambda d, w, b: (d, [w[0].T, *w[1:]], b), r"weights\[0\] has shape \(3, 128\)"),
        (lambda d, w, b: (d, w, [*b[:-1], np.zeros(2)]), r"biases\[4\] has shape \(2,\)"),
    ], ids=["dims-end", "layer-count", "weight-shape", "bias-shape"])
    def test_inconsistent_parameters_rejected(self, edit, match):
        model = init_model(3, rng_seed=0)
        with pytest.raises(ValueError, match=match):
            MlpModel(*edit(model.layer_dims, model.weights, model.biases))


class TestForward:
    def test_zero_model_outputs_half(self):
        model = zero_model(3)
        for vec in (np.zeros(3), np.array([5.0, -2.0, 0.25])):
            assert forward(model, vec) == 0.5

    def test_output_strictly_inside_unit_interval(self):
        model = init_model(4, rng_seed=1)
        rng = np.random.default_rng(0)
        for scale in (1.0, 1e3, 1e6):
            for _ in range(20):
                y = forward(model, rng.normal(size=4) * scale)
                assert 0.0 < y < 1.0

    def test_against_independent_reimplementation(self):
        # Same arithmetic, written with plain Python loops and math.tanh.
        model = init_model(2, rng_seed=9)
        x = [0.3, -1.2]
        h = list(x)
        for w, b in zip(model.weights[:-1], model.biases[:-1]):
            h = [math.tanh(sum(w[i][j] * h[j] for j in range(len(h))) + b[i])
                 for i in range(w.shape[0])]
        logit = sum(model.weights[-1][0][j] * h[j] for j in range(len(h)))
        logit += model.biases[-1][0]
        expected = 1.0 / (1.0 + math.exp(-logit))
        assert forward(model, np.array(x)) == pytest.approx(expected, rel=1e-12)

    def test_dimension_mismatch_rejected(self):
        # A vector of the wrong length, or any 2-D input.
        model = init_model(4, rng_seed=1)
        for bad in (np.zeros(3), np.zeros(5), np.zeros((1, 4)), np.zeros((2, 4))):
            with pytest.raises(ValueError, match="model input"):
                forward(model, bad)
        with pytest.raises(ValueError, match="feature length 3 != model input 4"):
            forward_batch(model, np.zeros((2, 3)))

    @pytest.mark.parametrize("num_features, seed, last_gain, source", [
        # The benchmark's shape, 17 -> HIDDEN_WIDTH x 4 -> 1.
        pytest.param(17, 0, 1.0, None, id="17-0-1.0"),
        pytest.param(17, 5, 1.0, None, id="17-5-1.0"),
        # Logits far past the sigmoid's clamps.
        pytest.param(17, 2, 1e3, None, id="17-2-1000.0"),
        # The former default width, 17 -> 256 x 4 -> 1, built explicitly.
        pytest.param(17, 4, 1.0, 256, id="17x256-4-1.0"),
        pytest.param(17, 6, 1e3, 256, id="17x256-6-1000.0"),
        pytest.param(3, 7, 1.0, None, id="3-7-1.0"),
        pytest.param(3, 8, 1e3, None, id="3-8-1000.0"),
        # A model whose weights Adam updated in place, and one read back
        # from its file: a view of the layers kept per model would go stale.
        pytest.param(17, 9, 1.0, "trained", id="17-9-1.0-trained"),
        pytest.param(17, 10, 1.0, "loaded", id="17-10-1.0-loaded"),
    ])
    def test_single_sample_equals_batch_of_one_bit_for_bit(self, num_features, seed,
                                                          last_gain, source, tmp_path):
        # source: None for init_model, a width for narrow_model, or a
        # model that train returned, as it is or saved and loaded.
        if source is None:
            model = init_model(num_features, rng_seed=seed)
        elif isinstance(source, int):
            model = narrow_model(m=num_features, width=source, seed=seed)
        else:
            rng = np.random.default_rng(seed)
            x = rng.normal(size=(64, num_features))
            model, _ = train(init_model(num_features, rng_seed=seed), x,
                             (x[:, 0] > 0).astype(float),
                             TrainConfig(epochs=3, batch_size=16, rng_seed=seed))
            if source == "loaded":
                save_model(model, tmp_path / "model.txt")
                model = load_model(tmp_path / "model.txt")
        model.weights[-1] *= last_gain
        model.biases[-1] += 0.1 * seed - 0.3
        rng = np.random.default_rng(seed)
        scores = []
        for scale in (1e-2, 1e-1, 1.0, 1e1, 1e2):
            for _ in range(40):
                x = rng.normal(size=num_features) * scale
                score = forward(model, x)
                assert score.hex() == float(forward_batch(model, x[None, :])[0]).hex()
                scores.append(score)
        assert min(scores) < 0.5 < max(scores)


def constant_score_loss(logit, label, weight):
    """The mean loss ``backward`` returns on a one-sample batch of ``label``
    for a model that scores every input sigmoid(``logit``)."""
    model = zero_model(2)
    model.biases[-1][0] = logit
    return backward(model, np.zeros((1, 2)), np.array([float(label)]), weight)[0]


class TestLoss:
    def test_uninformative_prediction(self):
        assert constant_score_loss(0.0, 1, 1.0) == pytest.approx(math.log(2), rel=1e-12)
        assert constant_score_loss(0.0, 0, 17.0) == pytest.approx(math.log(2), rel=1e-12)

    def test_confident_correct_prediction_vanishes(self):
        values = [constant_score_loss(logit, 1, 1.0) for logit in (2.2, 4.6, 13.8, 50.0)]
        assert all(b < a for a, b in zip(values, values[1:]))
        assert values[-1] < 1e-11

    def test_positive_weight_scales_positive_term(self):
        logit = -0.85
        assert constant_score_loss(logit, 1, 4.0) == \
            pytest.approx(4 * constant_score_loss(logit, 1, 1.0), rel=1e-12)
        assert constant_score_loss(logit, 0, 4.0) == \
            pytest.approx(constant_score_loss(logit, 0, 1.0), rel=1e-12)

    @given(st.floats(-20.0, 20.0), st.integers(0, 1), st.floats(0.1, 50))
    @settings(max_examples=50, deadline=None)
    def test_loss_nonnegative_finite(self, logit, label, weight):
        value = constant_score_loss(logit, label, weight)
        assert np.isfinite(value) and value >= 0


def narrow_model(m=2, width=7, seed=3) -> MlpModel:
    """Production depth with narrow layers; exhaustive FD stays affordable."""
    rng = np.random.default_rng(seed)
    dims = (m, width, width, width, width, 1)
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
        biases.append(rng.uniform(-0.1, 0.1, size=fan_out))
    return MlpModel(dims, weights, biases)


class TestBackward:
    def test_every_coordinate_single_sample(self):
        # Exhaustive central-difference check of the backward pass on a
        # narrow stack (same depth and code path as production width).
        model = narrow_model()
        x = np.array([[0.4, -0.7]])
        y = np.array([1.0])
        _, grad_w, grad_b = backward(model, x, y, positive_class_weight=2.0)
        analytic = np.concatenate(
            [g.ravel() for pair in zip(grad_w, grad_b) for g in pair]
        )
        coords = all_coords(model)
        numeric = fd_gradient(model, x, y, 2.0, coords)
        errs = relative_errors(analytic, numeric)
        assert errs.max() <= 1e-4

    def test_sampled_coordinates_production_width(self):
        # Production-width model, randomly sampled coordinates per layer.
        model = init_model(2, rng_seed=3)
        rng = np.random.default_rng(11)
        x = np.array([[0.4, -0.7], [1.1, 0.2]])
        y = np.array([1.0, 0.0])
        _, grad_w, grad_b = backward(model, x, y, positive_class_weight=2.0)
        coords, analytic = [], []
        for layer, (gw, gb) in enumerate(zip(grad_w, grad_b)):
            for idx in rng.choice(gw.size, size=min(40, gw.size), replace=False):
                coords.append(("w", layer, int(idx)))
                analytic.append(gw.reshape(-1)[idx])
            for idx in rng.choice(gb.size, size=min(10, gb.size), replace=False):
                coords.append(("b", layer, int(idx)))
                analytic.append(gb.reshape(-1)[idx])
        numeric = fd_gradient(model, x, y, 2.0, coords)
        errs = relative_errors(np.array(analytic), numeric)
        assert errs.max() <= 1e-4

    def test_duplicated_sample_mean_invariance(self):
        model = init_model(3, rng_seed=5)
        x = np.array([[0.1, 0.2, -0.3]])
        y = np.array([0.0])
        _, gw1, gb1 = backward(model, x, y)
        _, gw2, gb2 = backward(model, np.vstack([x, x]), np.array([0.0, 0.0]))
        for a, b in zip(gw1 + gb1, gw2 + gb2):
            assert np.allclose(a, b, rtol=0, atol=1e-15)

    def test_zero_model_output_bias_gradient(self):
        model = zero_model(2)
        _, _, grad_b = backward(model, np.array([[0.3, 0.4]]), np.array([1.0]),
                                positive_class_weight=1.0)
        assert grad_b[-1][0] == pytest.approx(-0.5, abs=1e-15)

    def test_batch_permutation_invariance(self):
        model = init_model(4, rng_seed=6)
        rng = np.random.default_rng(2)
        x = rng.normal(size=(16, 4))
        y = (rng.random(16) < 0.5).astype(float)
        perm = rng.permutation(16)
        l1, gw1, gb1 = backward(model, x, y, 3.0)
        l2, gw2, gb2 = backward(model, x[perm], y[perm], 3.0)
        assert l1 == pytest.approx(l2, rel=1e-12)
        for a, b in zip(gw1 + gb1, gw2 + gb2):
            assert np.allclose(a, b, rtol=1e-12, atol=1e-18)

    @pytest.mark.parametrize("features, labels, match", [
        (np.zeros((0, 2)), np.zeros(0), "must be non-empty"),
        (np.zeros((3, 2)), np.array([0.0, 1.0]), "disagree on batch size"),
    ], ids=["empty", "label-count"])
    def test_malformed_batch_rejected(self, features, labels, match):
        model = init_model(2, rng_seed=1)
        with pytest.raises(ValueError, match=match):
            backward(model, features, labels)


def separable_toy_set(n=200, seed=0):
    rng = np.random.default_rng(seed)
    y = (rng.random(n) < 0.5).astype(float)
    x = rng.normal(size=(n, 2)) * 0.3
    x[:, 0] += np.where(y == 1, 2.0, -2.0)
    return x, y


class TestTrain:
    @pytest.mark.parametrize("name, value", [
        ("learning_rate", -1.0), ("learning_rate", math.nan), ("learning_rate", math.inf),
        ("learning_rate", -math.inf), ("positive_class_weight", 0.0),
        ("positive_class_weight", math.nan), ("positive_class_weight", math.inf),
        ("positive_class_weight", -math.inf), ("epochs", -1), ("batch_size", 0),
    ])
    def test_invalid_settings_rejected_by_name(self, name, value):
        # NaN compares false with everything, so ``x < 0`` alone lets it
        # through, and a NaN step would train a model no file may hold.
        with pytest.raises(ValueError, match=name):
            TrainConfig(**{name: value})

    def test_separable_set_learned(self):
        x, y = separable_toy_set()
        # Full-batch steps keep the descent strictly monotone.
        cfg = TrainConfig(epochs=12, batch_size=len(y), rng_seed=4)
        model, history = train(init_model(2, rng_seed=4), x, y, cfg)
        first = history.train_loss[:10]
        assert all(b < a for a, b in zip(first, first[1:]))
        preds = forward_batch(model, x) > 0.5
        assert np.mean(preds == y.astype(bool)) == 1.0
        assert len(history.train_loss) == cfg.epochs

    def test_zero_learning_rate_is_identity(self):
        x, y = separable_toy_set(60)
        base = init_model(2, rng_seed=4)
        cfg = TrainConfig(epochs=3, learning_rate=0.0, rng_seed=1)
        model, history = train(base, x, y, cfg)
        for a, b in zip(base.weights + base.biases, model.weights + model.biases):
            assert np.array_equal(a, b)
        # Flat history up to summation-order noise from the epoch shuffle.
        assert max(history.train_loss) - min(history.train_loss) < 1e-12

    def test_training_does_not_mutate_input_model(self):
        x, y = separable_toy_set(60)
        base = init_model(2, rng_seed=4)
        snapshot = [p.copy() for p in base.weights + base.biases]
        train(base, x, y, TrainConfig(epochs=2, rng_seed=1))
        for a, b in zip(snapshot, base.weights + base.biases):
            assert np.array_equal(a, b)

    def test_seeded_determinism(self):
        x, y = separable_toy_set(120)
        cfg = TrainConfig(epochs=4, rng_seed=9)
        m1, h1 = train(init_model(2, rng_seed=2), x, y, cfg)
        m2, h2 = train(init_model(2, rng_seed=2), x, y, cfg)
        assert h1.train_loss == h2.train_loss
        for a, b in zip(m1.weights + m1.biases, m2.weights + m2.biases):
            assert np.array_equal(a, b)

    def test_three_steps_are_textbook_adam_bit_for_bit(self):
        # Adam as Kingma & Ba write it, over the split and batches train
        # draws from its seed: reordering the update would change every
        # model file, so it must fail here.
        x, y = separable_toy_set(40)
        lr, b1, b2, eps, weight = 2e-3, 0.9, 0.999, 1e-8, 5.0
        base = init_model(2, rng_seed=7)
        trained, _ = train(base, x, y, TrainConfig(
            learning_rate=lr, epochs=1, batch_size=12, positive_class_weight=weight,
            rng_seed=3))

        rng = np.random.default_rng(3)
        train_idx = rng.permutation(y.size)[round(VALIDATION_FRACTION * y.size):]
        perm = train_idx[rng.permutation(train_idx.size)]
        batches = [perm[start:start + 12] for start in range(0, perm.size, 12)]
        assert len(batches) == 3
        params = [p.copy() for p in base.weights + base.biases]
        m = [np.zeros_like(p) for p in params]
        v = [np.zeros_like(p) for p in params]
        for t, idx in enumerate(batches, start=1):
            model = MlpModel(base.layer_dims, params[:len(base.weights)],
                             params[len(base.weights):])
            _, grad_w, grad_b = backward(model, x[idx], y[idx], weight)
            for i, g in enumerate(grad_w + grad_b):
                m[i] = b1 * m[i] + (1 - b1) * g
                v[i] = b2 * v[i] + (1 - b2) * g * g
                m_hat = m[i] / (1 - b1 ** t)
                v_hat = v[i] / (1 - b2 ** t)
                params[i] = params[i] - lr * m_hat / (np.sqrt(v_hat) + eps)

        def bits(arrays):
            return [float.hex(float(value)) for a in arrays for value in a.ravel()]

        assert bits(trained.weights + trained.biases) == bits(params)
        assert bits(trained.weights + trained.biases) != bits(base.weights + base.biases)

    @pytest.mark.parametrize("features, labels, match", [
        (np.zeros((10, 2)), np.ones(10), "both classes"),
        (np.zeros((0, 2)), np.zeros(0), "both classes"),
        (np.zeros(4), np.array([0.0, 1.0, 0.0, 1.0]), "one label per row"),
        (np.zeros((4, 2)), np.array([0.0, 1.0, 0.0]), "one label per row"),
        (np.zeros((4, 3)), np.array([0.0, 1.0, 0.0, 1.0]), "feature length 3 != model input 2"),
    ], ids=["single-class", "empty", "one-dimensional", "label-count", "feature-width"])
    def test_malformed_training_set_rejected(self, features, labels, match):
        with pytest.raises(ValueError, match=match):
            train(init_model(2, rng_seed=0), features, labels, TrainConfig(epochs=1))

    def test_training_imports_no_masked_arrays(self):
        # numpy.ma costs a fresh train process tens of milliseconds to import.
        script = (
            "import sys\n"
            "import numpy as np\n"
            "from mecoffload.mlp import TrainConfig, init_model, train\n"
            "train(init_model(2, rng_seed=0), np.eye(4, 2), np.array([0.0, 1.0, 0.0, 1.0]),\n"
            "      TrainConfig(epochs=1))\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        src = str(Path(mecoffload.__file__).parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": path}, check=True)
        assert done.stdout.strip() == "False"

    def test_empty_validation_split_reads_nan(self):
        # A tenth of four samples rounds to none held out.
        x, y = np.eye(4, 2), np.array([0.0, 1.0, 0.0, 1.0])
        _, history = train(init_model(2, rng_seed=0), x, y, TrainConfig(epochs=2))
        assert len(history.train_loss) == 2
        assert len(history.val_loss) == 2 and all(math.isnan(v) for v in history.val_loss)


class TestPersistence:
    def test_round_trip_identity(self, tmp_path):
        x, y = separable_toy_set(80)
        model, _ = train(init_model(2, rng_seed=3), x, y,
                         TrainConfig(epochs=2, rng_seed=3))
        path = tmp_path / "model.txt"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.layer_dims == model.layer_dims
        for a, b in zip(model.weights + model.biases,
                        loaded.weights + loaded.biases):
            assert np.array_equal(a, b)
        assert model_fingerprint(loaded) == model_fingerprint(model)

    def test_former_default_width_round_trips(self, tmp_path):
        # The header names the dims, so a 4 x 256 file, the default width
        # before 128, loads as saved: no width is assumed in loading.
        model = narrow_model(m=34, width=256, seed=12)
        assert model.layer_dims != default_dims(34)
        path = tmp_path / "model.txt"
        save_model(model, path)
        assert path.read_text().splitlines()[0] == (
            "# mlp-v2 dims=34,256,256,256,256,1 encoding=base64-f8le")
        loaded = load_model(path)
        assert loaded.layer_dims == (34, 256, 256, 256, 256, 1)
        for a, b in zip(model.weights + model.biases,
                        loaded.weights + loaded.biases):
            assert np.array_equal(a, b)
        assert model_fingerprint(loaded) == model_fingerprint(model)

    def test_round_trip_is_bit_exact(self, tmp_path):
        # Signed zero, the smallest subnormal and the extremes of float64
        # survive alongside random weights, byte for byte.
        model = narrow_model(m=3, width=5, seed=8)
        rng = np.random.default_rng(8)
        model.weights[0].flat[:5] = [-0.0, 5e-324, 1.7976931348623157e308,
                                     -1.7976931348623157e308, -5e-324]
        model.weights[1][:] = rng.normal(size=model.weights[1].shape) * 1e-300
        model.biases[2][:] = rng.normal(size=model.biases[2].shape) * 1e300
        path = tmp_path / "model.txt"
        save_model(model, path)
        assert path.read_text().splitlines()[0] == (
            "# mlp-v2 dims=3,5,5,5,5,1 encoding=base64-f8le")
        loaded = load_model(path)
        for a, b in zip(model.weights + model.biases,
                        loaded.weights + loaded.biases):
            assert a.dtype == b.dtype == np.float64
            assert a.tobytes() == b.tobytes()
        assert np.signbit(loaded.weights[0].flat[0])

    def test_loaded_arrays_are_writable(self, tmp_path):
        path = tmp_path / "model.txt"
        save_model(init_model(2, rng_seed=1), path)
        loaded = load_model(path)
        for p in loaded.weights + loaded.biases:
            assert p.flags.writeable and p.flags.c_contiguous
            p[...] = 0.0
        assert forward(loaded, np.zeros(2)) == 0.5

    def _saved_lines(self, tmp_path):
        path = tmp_path / "model.txt"
        save_model(narrow_model(m=2, width=3, seed=1), path)
        return path, path.read_text().splitlines()

    def _assert_refused(self, path, lines, match):
        # The message names the file first; ``match`` is sought after it,
        # since the test's own name is part of the path.
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ModelFormatError) as err:
            load_model(path)
        message = str(err.value)
        assert message.startswith(str(path))
        assert re.search(match, message[len(str(path)):])

    def test_mlp_v1_file_rejected(self, tmp_path):
        v1 = ["# mlp-v1 dims=1,1", "# layer 1 weights", "0.5", "# layer 1 biases", "0"]
        self._assert_refused(tmp_path / "model.txt", v1, "mlp-v1 .*retrain")

    def test_bad_base64_rejected(self, tmp_path):
        path, lines = self._saved_lines(tmp_path)
        for bad in ("*" + lines[1][1:], lines[1][:-1], lines[1] + " "):
            self._assert_refused(path, [lines[0], bad, *lines[2:]], "base64")

    def test_short_or_long_block_rejected(self, tmp_path):
        path, lines = self._saved_lines(tmp_path)
        block = base64.b64decode(lines[2])                # the first bias, 3 floats
        for raw in (block[:-8], block + block[:8]):
            wrong = base64.b64encode(raw).decode("ascii")
            self._assert_refused(path, [*lines[:2], wrong, *lines[3:]], "bytes")

    def test_missing_or_extra_line_rejected(self, tmp_path):
        path, lines = self._saved_lines(tmp_path)
        self._assert_refused(path, lines[:-1], "data lines")
        self._assert_refused(path, [*lines, lines[-1]], "data lines")
        self._assert_refused(path, [*lines, ""], "data lines")

    def test_non_finite_weight_rejected(self, tmp_path):
        path, lines = self._saved_lines(tmp_path)
        weights = np.frombuffer(base64.b64decode(lines[3]), dtype="<f8").copy()
        for value in (np.nan, np.inf):
            weights[4] = value
            bad = base64.b64encode(weights.tobytes()).decode("ascii")
            self._assert_refused(path, [*lines[:3], bad, *lines[4:]], "finite")

    def test_bad_dims_rejected(self, tmp_path):
        path, lines = self._saved_lines(tmp_path)
        for dims in ("2,3,x,3,3,1", "2,3,0,3,3,1", "2,3,3,3,3,2", "1"):
            header = f"# mlp-v2 dims={dims} encoding=base64-f8le"
            self._assert_refused(path, [header, *lines[1:]], "dims in header|dims \\(")

    def test_truncated_file_rejected(self, tmp_path):
        model = init_model(2, rng_seed=1)
        path = tmp_path / "model.txt"
        save_model(model, path)
        lines = path.read_text().splitlines()
        (tmp_path / "cut.txt").write_text("\n".join(lines[: len(lines) // 2]))
        with pytest.raises(ModelFormatError):
            load_model(tmp_path / "cut.txt")

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "model.txt"
        path.write_text("1 2 3\n")
        with pytest.raises(ModelFormatError):
            load_model(path)
        path.write_bytes(b"\xff\xfe# mlp-v2\n")
        with pytest.raises(ModelFormatError, match="non-ASCII"):
            load_model(path)

    def test_loaded_model_feature_mismatch_surfaces_at_use(self, tmp_path):
        model = init_model(3, rng_seed=1)
        path = tmp_path / "model.txt"
        save_model(model, path)
        loaded = load_model(path)
        with pytest.raises(ValueError):
            forward(loaded, np.zeros(5))
