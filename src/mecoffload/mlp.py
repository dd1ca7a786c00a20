"""The pruning classifier: a small dense network trained from scratch.

Architecture is fixed at four tanh hidden layers of width 128 and a single
sigmoid output, optimized with Adam on class-weighted binary cross-entropy.
The width is sized to the node the net gates: the search scores every
surviving node, and each score reads every weight.  On the 17 features of a
3x5 frame that is 51 456 weights at width 128, about 0.41 MB of float64,
against 1.6 MB at 256.  The depth keeps the scores confident enough to
prune at small thresholds.  A model file names its own dims, so a net of
any other shape loads and gates too.

Everything runs in double precision: at this scale reproducibility and
verifiable gradients matter more than speed, and the whole training loop is
a page of numpy.  Training and evaluation run batches through
:func:`forward_batch`; the search scores one node at a time through
:func:`forward`, a 1-D pass with the same arithmetic, so a node's score is
the same bits either way.

A trained model is stored as ``mlp-v2`` text: a header line naming the
layer dims and the encoding, then one base64 line per weight matrix and
one per bias vector, each holding the little-endian float64 bytes of the
array in row-major order, so every weight round-trips bit for bit.
"""

from __future__ import annotations

import base64
import binascii
import hashlib
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "HIDDEN_WIDTH",
    "VALIDATION_FRACTION",
    "MlpModel",
    "TrainConfig",
    "TrainHistory",
    "ModelFormatError",
    "default_dims",
    "init_model",
    "forward",
    "forward_batch",
    "backward",
    "train",
    "save_model",
    "load_model",
    "model_fingerprint",
]

HIDDEN_WIDTH = 128
_NUM_HIDDEN = 4

#: Share of the shuffled samples held out for the validation loss.
VALIDATION_FRACTION = 0.1

#: Adam's decay rates of the first and second gradient moments, and the
#: constant added to the root of the second (Kingma & Ba's defaults).
_ADAM_B1 = 0.9
_ADAM_B2 = 0.999
_ADAM_EPS = 1e-8

#: Predicted probabilities are clamped here before the logs in the loss.
_LOSS_CLAMP = 1e-12

#: Keep sigmoid outputs strictly inside (0, 1) even when the input saturates.
_SIGMOID_FLOOR = 1e-300
_SIGMOID_CEIL = float(np.nextafter(1.0, 0.0))


def default_dims(num_features: int) -> tuple[int, ...]:
    return (num_features, *(HIDDEN_WIDTH,) * _NUM_HIDDEN, 1)


@dataclass
class MlpModel:
    """Dense network parameters; weights[i] maps layer i to layer i+1."""

    layer_dims: tuple[int, ...]
    weights: list[np.ndarray]   # weights[i] has shape (dims[i+1], dims[i])
    biases: list[np.ndarray]    # biases[i] has shape (dims[i+1],)

    def __post_init__(self) -> None:
        dims = tuple(self.layer_dims)
        self.layer_dims = dims
        if len(dims) < 2 or dims[-1] != 1:
            raise ValueError(f"layer_dims must end in 1, got {dims}")
        if len(self.weights) != len(dims) - 1 or len(self.biases) != len(dims) - 1:
            raise ValueError("need one weight matrix and bias vector per layer")
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.shape != (dims[i + 1], dims[i]):
                raise ValueError(
                    f"weights[{i}] has shape {w.shape}, expected {(dims[i + 1], dims[i])}"
                )
            if b.shape != (dims[i + 1],):
                raise ValueError(
                    f"biases[{i}] has shape {b.shape}, expected {(dims[i + 1],)}"
                )
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise ValueError(f"layer {i} parameters must be finite")

    @property
    def num_features(self) -> int:
        return self.layer_dims[0]


@dataclass
class TrainConfig:
    """Training settings; the defaults are the values every caller trains with."""

    learning_rate: float = 2e-3
    epochs: int = 100
    batch_size: int = 512
    positive_class_weight: float = 5.0
    rng_seed: int = 0

    def __post_init__(self) -> None:
        # Written so that NaN fails too.
        if not 0 <= self.learning_rate < np.inf:
            raise ValueError("learning_rate must be finite and nonnegative, "
                             f"got {self.learning_rate}")
        if self.epochs < 0:
            raise ValueError("epochs must be nonnegative")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not 0 < self.positive_class_weight < np.inf:
            raise ValueError("positive_class_weight must be finite and positive, "
                             f"got {self.positive_class_weight}")


@dataclass
class TrainHistory:
    train_loss: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)


def init_model(num_features: int, rng_seed: int = 0) -> MlpModel:
    """Seeded init: weights uniform in +-sqrt(6/(fan_in+fan_out)), zero biases."""
    rng = np.random.default_rng(rng_seed)
    dims = default_dims(num_features)
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return MlpModel(dims, weights, biases)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return np.clip(out, _SIGMOID_FLOOR, _SIGMOID_CEIL)


def _forward_full(model: MlpModel, x: np.ndarray):
    """All layer activations for a (batch, features) input."""
    hidden = [x]
    h = x
    for w, b in zip(model.weights[:-1], model.biases[:-1]):
        h = np.tanh(h @ w.T + b)
        hidden.append(h)
    logits = h @ model.weights[-1].T + model.biases[-1]
    return hidden, _sigmoid(logits)[:, 0]


def forward_batch(model: MlpModel, features: np.ndarray) -> np.ndarray:
    features = np.atleast_2d(np.asarray(features, dtype=float))
    if features.shape[1] != model.num_features:
        raise ValueError(
            f"feature length {features.shape[1]} != model input {model.num_features}"
        )
    return _forward_full(model, features)[1]


def forward(model: MlpModel, features: np.ndarray) -> float:
    """Single-sample prediction, strictly inside (0, 1).

    The 1-D form of :func:`forward_batch`, which a search calls once per
    gated node.  It builds one new vector per layer, a matrix-vector
    product that the bias and tanh then update in place, and runs
    :func:`_sigmoid`'s arithmetic on the one logit: the exponential on its
    1-element array, as the batch pass does, and the sum, quotient and
    clamp on Python floats, which round as numpy's do.  With no 2-D
    reshape and no mask the score equals
    ``forward_batch(model, features[None, :])[0]`` bit for bit.
    ``features`` must be a vector of the model's input length.
    """
    h = np.asarray(features, dtype=float)
    if h.shape != (model.num_features,):
        raise ValueError(
            f"feature vector of shape {h.shape} != model input ({model.num_features},)"
        )
    weights, biases = model.weights, model.biases
    last = len(weights) - 1
    for i in range(last):
        h = weights[i].dot(h)
        h += biases[i]
        np.tanh(h, out=h)
    z = weights[last].dot(h)
    z += biases[last]
    if z[0] >= 0:
        y = 1.0 / (1.0 + np.exp(-z).item())
    else:
        ez = np.exp(z).item()
        y = ez / (1.0 + ez)
    return min(max(y, _SIGMOID_FLOOR), _SIGMOID_CEIL)


def _batch_loss(y_hat: np.ndarray, labels: np.ndarray, weight: float) -> float:
    """Mean class-weighted binary cross-entropy of a batch of predictions."""
    clamped = np.clip(y_hat, _LOSS_CLAMP, 1.0 - _LOSS_CLAMP)
    terms = -(weight * labels * np.log(clamped)
              + (1.0 - labels) * np.log1p(-clamped))
    return float(terms.mean())


def backward(
    model: MlpModel,
    features: np.ndarray,
    labels: np.ndarray,
    positive_class_weight: float = 1.0,
):
    """Mean loss and its exact gradient over a batch.

    Returns ``(loss, grad_weights, grad_biases)`` with gradients shaped
    like the corresponding parameters.
    """
    x = np.atleast_2d(np.asarray(features, dtype=float))
    y = np.asarray(labels, dtype=float).ravel()
    if x.shape[0] == 0:
        raise ValueError("batch must be non-empty")
    if x.shape[0] != y.size:
        raise ValueError("features and labels disagree on batch size")
    hidden, y_hat = _forward_full(model, x)
    batch = x.shape[0]
    w = positive_class_weight

    # d(mean loss)/d(output logit), folded with the sigmoid derivative.
    delta = ((-w * y * (1.0 - y_hat) + (1.0 - y) * y_hat) / batch)[:, None]

    grad_w = [None] * len(model.weights)
    grad_b = [None] * len(model.biases)
    for layer in range(len(model.weights) - 1, -1, -1):
        grad_w[layer] = delta.T @ hidden[layer]
        grad_b[layer] = delta.sum(axis=0)
        if layer > 0:
            delta = (delta @ model.weights[layer]) * (1.0 - hidden[layer] ** 2)
    return _batch_loss(y_hat, y, w), grad_w, grad_b


def train(
    model: MlpModel,
    features: np.ndarray,
    labels: np.ndarray,
    cfg: TrainConfig,
) -> tuple[MlpModel, TrainHistory]:
    """Adam over shuffled mini-batches; returns a new model and the history.

    The input model is left untouched.  The reported train loss is the mean
    of the epoch's mini-batch losses; validation loss is evaluated on the
    :data:`VALIDATION_FRACTION` of samples held out, after each epoch (nan
    when that split is empty).
    """
    x = np.asarray(features, dtype=float)
    y = np.asarray(labels, dtype=float).ravel()
    if x.ndim != 2 or x.shape[0] != y.size:
        raise ValueError("features must be (n, m) with one label per row")
    if x.shape[1] != model.num_features:
        raise ValueError(
            f"dataset feature length {x.shape[1]} != model input {model.num_features}"
        )
    if y.size == 0 or y.min() == y.max():
        raise ValueError("training requires both classes to be present")

    rng = np.random.default_rng(cfg.rng_seed)
    order = rng.permutation(y.size)
    n_val = int(round(VALIDATION_FRACTION * y.size))
    val_idx, train_idx = order[:n_val], order[n_val:]
    x_train, y_train = x[train_idx], y[train_idx]
    x_val, y_val = x[val_idx], y[val_idx]

    weight = cfg.positive_class_weight
    out = MlpModel(
        model.layer_dims,
        [p.copy() for p in model.weights],
        [p.copy() for p in model.biases],
    )
    params = out.weights + out.biases
    m_acc = [np.zeros_like(p) for p in params]   # Adam's first moments
    v_acc = [np.zeros_like(p) for p in params]   # and second moments
    step = 0
    history = TrainHistory()

    for _ in range(cfg.epochs):
        perm = rng.permutation(y_train.size)
        batch_losses = []
        for start in range(0, y_train.size, cfg.batch_size):
            idx = perm[start:start + cfg.batch_size]
            batch_loss, grad_w, grad_b = backward(out, x_train[idx], y_train[idx], weight)
            batch_losses.append(batch_loss)
            step += 1
            corr1 = 1.0 - _ADAM_B1 ** step
            corr2 = 1.0 - _ADAM_B2 ** step
            # Kingma & Ba's update in its textbook operation order, which
            # fixes every bit of a trained model.
            for p, g, m, v in zip(params, grad_w + grad_b, m_acc, v_acc):
                m *= _ADAM_B1
                m += (1.0 - _ADAM_B1) * g
                v *= _ADAM_B2
                v += (1.0 - _ADAM_B2) * g * g
                p -= cfg.learning_rate * (m / corr1) / (np.sqrt(v / corr2) + _ADAM_EPS)
        history.train_loss.append(float(np.mean(batch_losses)))
        if y_val.size:
            history.val_loss.append(
                _batch_loss(forward_batch(out, x_val), y_val, weight)
            )
        else:
            history.val_loss.append(float("nan"))
    return out, history


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------


class ModelFormatError(ValueError):
    """Malformed, truncated or outdated model file."""


_FORMAT = "mlp-v2"
_ENCODING = "base64-f8le"
#: Little-endian float64, the byte layout of every stored array.
_DTYPE = np.dtype("<f8")


def _encode(array: np.ndarray) -> str:
    return base64.b64encode(np.asarray(array, dtype=_DTYPE).tobytes()).decode("ascii")


def _serialize(model: MlpModel) -> str:
    dims = ",".join(str(d) for d in model.layer_dims)
    lines = [f"# {_FORMAT} dims={dims} encoding={_ENCODING}"]
    for w, b in zip(model.weights, model.biases):
        lines += [_encode(w), _encode(b)]
    return "\n".join(lines) + "\n"


def save_model(model: MlpModel, path) -> None:
    """Write ``model`` as ``mlp-v2`` text.

    The first line is ``# mlp-v2 dims=<d0>,...,<dL> encoding=base64-f8le``.
    Layer by layer, one line holds the weight matrix, shape
    ``(dims[i+1], dims[i])``, and the next one the bias vector: each is the
    standard base64 of the array's little-endian float64 bytes in row-major
    order, so :func:`load_model` returns every parameter bit for bit.
    """
    with open(path, "w", encoding="ascii") as fh:
        fh.write(_serialize(model))


def load_model(path) -> MlpModel:
    """Read a model written by :func:`save_model`, with writable arrays.

    Raises :class:`ModelFormatError`, naming ``path``, on a wrong header
    (an ``mlp-v1`` decimal file among them: retrain it), on dims that are
    not positive integers ending in 1, on a wrong number of lines, on text
    that is not strict base64, on a block of the wrong byte length, and on
    a parameter that is not finite.
    """
    try:
        with open(path, "r", encoding="ascii") as fh:
            lines = fh.read().splitlines()
    except UnicodeDecodeError:
        raise ModelFormatError(f"{path}: not an {_FORMAT} model file (non-ASCII bytes)") from None
    header = lines[0] if lines else ""
    if header.startswith("# mlp-v1 "):
        raise ModelFormatError(
            f"{path}: mlp-v1 model files are no longer read; "
            f"retrain with 'mecoffload train' to write {_FORMAT}"
        )
    prefix = f"# {_FORMAT} dims="
    suffix = f" encoding={_ENCODING}"
    if not (header.startswith(prefix) and header.endswith(suffix)):
        raise ModelFormatError(f"{path}: missing '# {_FORMAT} dims=... encoding={_ENCODING}' header")
    fields = header[len(prefix):-len(suffix)].split(",")
    if not all(f.isdigit() and int(f) > 0 for f in fields):
        raise ModelFormatError(f"{path}: unparsable dims in header")
    dims = tuple(int(f) for f in fields)
    if len(dims) < 2 or dims[-1] != 1:
        raise ModelFormatError(f"{path}: dims {dims} must name two or more layers and end in 1")
    shapes = []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        shapes += [(fan_out, fan_in), (fan_out,)]
    if len(lines) - 1 != len(shapes):
        raise ModelFormatError(
            f"{path}: {len(lines) - 1} data lines, expected {len(shapes)} for dims {dims}"
        )

    arrays = []
    for lineno, (line, shape) in enumerate(zip(lines[1:], shapes), start=2):
        try:
            raw = base64.b64decode(line, validate=True)
        except binascii.Error:
            raise ModelFormatError(f"{path}:{lineno}: invalid base64") from None
        size = _DTYPE.itemsize * int(np.prod(shape))
        if len(raw) != size:
            raise ModelFormatError(
                f"{path}:{lineno}: {len(raw)} bytes, expected {size} for shape {shape}"
            )
        # astype copies out of the read-only bytes into a native, writable array.
        arrays.append(np.frombuffer(raw, dtype=_DTYPE).reshape(shape).astype(np.float64))
    try:
        return MlpModel(dims, arrays[0::2], arrays[1::2])
    except ValueError as exc:
        raise ModelFormatError(f"{path}: {exc}") from None


def model_fingerprint(model: MlpModel) -> str:
    """Stable hash of the canonical serialization, for provenance columns."""
    return hashlib.sha256(_serialize(model).encode("ascii")).hexdigest()[:16]
