"""From-scratch feedforward regressor for makespan prediction.

A 16-128-64-32-1 ReLU network trained with explicit backpropagation, Adam,
mini-batches, and early stopping on validation MSE. This module holds the
surrogate's whole map from features to seconds: the z-score ``train`` fits
and the bundle carries, the network, the inverse z-score and the compute
lower bound, on arrays in ``predict_features`` and on one row in
``predict``. The parameters have one layout: a flat buffer holding every
weight matrix, then every bias vector, each in C order. Gradients, Adam's
moments and the bundle's ``params`` list share it. Weights are float32 from
training through the bundle to inference: ``train`` rounds its initial
weights and z-scored rows to float32, ``save_model`` refuses any other
precision and ``load_model`` returns float32. ``forward``, ``backward`` and
``adam_step`` compute in the precision of the arrays they are given.
Validation MSE, the inverse z-score and the compute bound stay float64.
Training is bit-deterministic given the seed.
"""

from __future__ import annotations

import functools
import itertools
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import codec
from .datagen import FEATURE_NAMES, N_FEATURES, NormalizationStats, extract_features, fit_normalization, labeled_rows
from .errors import FileFormatError, InvalidInputError, NumericError, TrainingDivergedError
from .solver import SltnConfig

MODEL_FORMAT = "dltsched-model"
MODEL_VERSION = 3

DEFAULT_LAYER_DIMS = (N_FEATURES, 128, 64, 32, 1)
_FLOAT32_OVERFLOW = 2.0**128 - 2.0**103  # the least magnitude that rounds to an infinite float32
_OUTSIDE = "the system is outside the surrogate's range"

LEARNING_RATE, BATCH_SIZE = 0.001, 256
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8  # moment decay rates and denominator guard

# Feature columns of the compute lower bound on the makespan.
_N, _LOAD_GB, _MEAN_W, _W0 = (FEATURE_NAMES.index(name) for name in ("n", "load_gb", "mean_w", "w0"))


@functools.lru_cache
def _layout(layer_dims: tuple[int, ...]) -> tuple[tuple[int, int, tuple[int, ...]], ...]:
    """(start, stop, shape) in the flat buffer of each weight matrix, shape
    (dims[k+1], dims[k]), then of each bias vector, shape (dims[k+1],)."""
    shapes = [(d_out, d_in) for d_in, d_out in zip(layer_dims[:-1], layer_dims[1:])]
    shapes += [(d_out,) for d_out in layer_dims[1:]]
    stops = list(itertools.accumulate(math.prod(shape) for shape in shapes))
    return tuple(zip([0, *stops[:-1]], stops, shapes))


EXPECTED_PARAM_COUNT = _layout(DEFAULT_LAYER_DIMS)[-1][1]


@dataclass
class MlpParams:
    """The network's parameters: one buffer ``flat`` and the ``layer_dims``
    that lay it out.

    ``flat`` holds every weight matrix, then every bias vector, each in C
    order, so an optimizer updates all of them with whole-buffer operations.
    ``weights[k]``, shape (dims[k+1], dims[k]), and ``biases[k]`` are views
    of it. A ``flat`` that is not a vector of the length the dims give
    raises :class:`InvalidInputError`.
    """

    flat: np.ndarray = field(repr=False)
    layer_dims: tuple[int, ...]
    weights: list[np.ndarray] = field(init=False, repr=False, compare=False)
    biases: list[np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.layer_dims = tuple(self.layer_dims)
        layout = _layout(self.layer_dims)
        if self.flat.shape != (layout[-1][1],):
            raise InvalidInputError(
                f"layer dimensions {self.layer_dims} take {layout[-1][1]} parameters, got shape {self.flat.shape}"
            )
        views = [self.flat[start:stop].reshape(shape) for start, stop, shape in layout]
        self.weights, self.biases = views[: len(views) // 2], views[len(views) // 2 :]

    def copy(self) -> "MlpParams":
        return MlpParams(self.flat.copy(), self.layer_dims)

    def astype(self, dtype) -> "MlpParams":
        """A copy with every weight and bias rounded to ``dtype``."""
        return MlpParams(self.flat.astype(dtype), self.layer_dims)


@dataclass(frozen=True)
class TrainConfig:
    """The settings of one training run. Every run takes Adam steps of
    :data:`LEARNING_RATE` on batches of :data:`BATCH_SIZE`."""

    patience: int = 10
    max_epochs: int = 200
    seed: int = 0

    def __post_init__(self):
        if self.patience < 1:
            raise InvalidInputError(f"patience must be >= 1, got {self.patience}")
        if self.max_epochs < 1:
            raise InvalidInputError(f"max epochs must be >= 1, got {self.max_epochs}")
        codec.integer(self.seed, "seed")


@dataclass
class TrainReport:
    epochs_run: int
    train_losses: list[float]  # normalized-space MSE per epoch
    val_losses: list[float]
    best_epoch: int  # 1-based
    best_val_loss: float
    wall_seconds: float
    stopped_early: bool


def load_train_report(path) -> TrainReport:
    """Read the report ``train --report`` wrote. Every field must hold a JSON
    value of its type, with one train and one validation loss per epoch run;
    any other file raises :class:`FileFormatError`."""
    where = f"{path}: not a train report"
    try:
        report = TrainReport(**codec.read(codec.read_file(path), where))
        codec.integer(report.epochs_run, "epochs_run")
        codec.integer(report.best_epoch, "best_epoch")
        codec.number(report.best_val_loss, "best_val_loss")
        codec.number(report.wall_seconds, "wall_seconds")
        if type(report.stopped_early) is not bool:
            raise TypeError(f"stopped_early must be a JSON boolean, got {type(report.stopped_early).__name__}")
        for losses in (report.train_losses, report.val_losses):
            codec.numbers(losses, report.epochs_run, "losses")
    except (ValueError, TypeError) as exc:
        raise FileFormatError(f"{where}: {exc}") from exc
    return report


@dataclass(frozen=True, kw_only=True)
class ModelMetadata:
    """Where a bundle came from: its metadata keys, in the order it writes
    them. The seeds of training and of ``split_dataset`` (integers in
    [0, 2**64)) and the dataset's ``sha256`` (a string) are ``None`` when not
    known. ``compute_intensity``, the labels' GFLOP per GB, bounds every
    answer; it is a positive, finite JSON number. Any other value raises
    :class:`InvalidInputError`."""

    train_seed: int | None = None
    split_seed: int | None = None
    dataset_hash: str | None = None
    compute_intensity: float

    def __post_init__(self):
        for name in ("train_seed", "split_seed"):
            if getattr(self, name) is not None:
                codec.integer(getattr(self, name), name)
        if self.dataset_hash is not None and type(self.dataset_hash) is not str:
            raise InvalidInputError(f"dataset_hash must be a string, got {self.dataset_hash!r}")
        if not 0 < codec.number(self.compute_intensity, "compute_intensity") < math.inf:
            raise InvalidInputError(f"compute_intensity must be positive and finite, got {self.compute_intensity!r}")


@dataclass
class MlpModel:
    """Deployable bundle: weights, the z-score they infer with, and provenance."""

    params: MlpParams
    norm: NormalizationStats
    metadata: ModelMetadata


def init_params(seed, layer_dims: tuple[int, ...] = DEFAULT_LAYER_DIMS) -> MlpParams:
    """He-normal weights (variance 2/fan_in), zero biases, deterministic in
    ``seed``, an integer or a ``SeedSequence``."""
    rng = np.random.default_rng(seed)
    weights = [
        rng.normal(0.0, math.sqrt(2.0 / fan_in), size=fan_out * fan_in)
        for fan_in, fan_out in zip(layer_dims[:-1], layer_dims[1:])
    ]
    return MlpParams(np.concatenate([*weights, np.zeros(sum(layer_dims[1:]))]), layer_dims)


def forward(params: MlpParams, x) -> tuple[np.ndarray, list[np.ndarray]]:
    """Run the network on a batch of inputs, shape (count, 16), or on one
    row, shape (16,).

    Returns the outputs, shape (count,) for a batch and 0-d for a row, and
    the activation fed into each layer, which :func:`backward` takes for a
    batch. A row goes through vector-matrix products with no batch axis:
    ``np.dot`` on a row reaches the BLAS matrix-vector kernel ``matmul``
    uses for a batch of one, so the bits are the same, at less fixed cost
    per layer. Inputs are cast to the weights' precision, and so is the
    output.
    """
    h = np.asarray(x, dtype=params.flat.dtype)
    product = np.matmul if h.ndim > 1 else np.dot
    inputs = []
    for w, b in zip(params.weights[:-1], params.biases[:-1]):
        inputs.append(h)
        z = product(h, w.T)
        z += b
        h = np.maximum(z, 0.0, out=z)  # ReLU in place; z is this pass's own buffer
    inputs.append(h)
    out = product(h, params.weights[-1].T)
    out += params.biases[-1]
    return out[..., 0], inputs


def loss_mse(predictions, targets) -> float:
    predictions = np.asarray(predictions, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if predictions.shape != targets.shape or predictions.size == 0:
        raise InvalidInputError(
            f"predictions and targets must have the same nonzero length, got "
            f"{predictions.shape} and {targets.shape}"
        )
    diff = predictions - targets
    return float(diff @ diff) / diff.size


def backward(params: MlpParams, inputs: list[np.ndarray], residuals) -> MlpParams:
    """Exact gradient of batch MSE, laid out like ``params`` on a fresh buffer.

    ``inputs`` are the layer inputs :func:`forward` returned for the batch,
    and ``residuals`` its predictions minus targets. Each ReLU's mask is read
    back as ``inputs[k] > 0``. The gradients have the weights' precision.
    """
    residuals = np.asarray(residuals, dtype=params.flat.dtype)
    dout = (2.0 / residuals.shape[0]) * residuals[:, None]
    grads = MlpParams(np.empty_like(params.flat), params.layer_dims)
    for k in range(len(params.weights) - 1, -1, -1):
        np.matmul(dout.T, inputs[k], out=grads.weights[k])
        dout.sum(axis=0, out=grads.biases[k])
        if k > 0:
            w = params.weights[k]
            # dout @ w; a one-row w makes it an outer product, which the
            # broadcast multiply computes with the same bits and no BLAS call.
            dout = dout * w if w.shape[0] == 1 else dout @ w
            dout *= inputs[k] > 0
    return grads


def adam_step(flat: np.ndarray, grad: np.ndarray, m: np.ndarray, v: np.ndarray, t: int, learning_rate: float) -> None:
    """Adam's ``t``-th update (from 1) with bias-corrected moments, in place
    on the parameters ``flat`` and the moments ``m`` and ``v``, all laid out
    like ``grad``. Every element gets the bits a per-array update would
    give it."""
    m *= ADAM_BETA1
    m += (1.0 - ADAM_BETA1) * grad
    v *= ADAM_BETA2
    v += (1.0 - ADAM_BETA2) * np.square(grad)
    flat -= learning_rate * (m / (1.0 - ADAM_BETA1**t)) / (np.sqrt(v / (1.0 - ADAM_BETA2**t)) + ADAM_EPS)


def _z_features(norm: NormalizationStats, rows) -> np.ndarray:
    """Feature rows, shape (..., 16), z-scored with ``norm``."""
    return (np.asarray(rows, dtype=float) - norm.feature_means) / norm.feature_stds


def _z_target(norm: NormalizationStats, t_star) -> np.ndarray:
    """Makespans z-scored with ``norm``; :func:`_unz_target` inverts it."""
    return (np.asarray(t_star, dtype=float) - norm.target_mean) / norm.target_std


def _unz_target(norm: NormalizationStats, y) -> np.ndarray:
    return np.asarray(y, dtype=float) * norm.target_std + norm.target_mean


def train(
    x_train: np.ndarray,
    y_train: np.ndarray,
    x_val: np.ndarray,
    y_val: np.ndarray,
    config: TrainConfig,
    metadata: ModelMetadata,
    on_epoch=None,
) -> tuple[MlpModel, TrainReport]:
    """Train on raw feature rows and makespans; returns the bundle from the
    best-validation epoch. Either set refused by ``datagen.labeled_rows``
    raises :class:`InvalidInputError` before the first epoch.

    The z-score statistics are fitted on the training rows and makespans
    alone (``datagen.fit_normalization``) and go into the bundle. Rows and
    targets are z-scored with them and rounded to float32, like the initial
    weights, so the returned weights are float32. The reported losses are
    MSE in the z-scored space; validation MSE is taken in float64 against
    the unrounded targets. ``config.seed`` spawns two streams: one draws the
    initial weights, the other shuffles the rows each epoch. Takes Adam
    steps of :data:`LEARNING_RATE` on batches of :data:`BATCH_SIZE` rows, the
    last one partial, evaluates validation MSE after every epoch, and stops
    once validation loss has not improved for ``config.patience`` epochs.
    ``on_epoch`` is an optional progress callback taking (epoch, train_loss,
    val_loss). ``metadata`` goes into the bundle as it is.
    """
    norm = fit_normalization(x_train, y_train)
    x_val, y_val = labeled_rows(x_val, y_val, "validation set")
    x_train, y_train = _z_features(norm, x_train), _z_target(norm, y_train)
    x_val, y_val = _z_features(norm, x_val), _z_target(norm, y_val)
    x_train, y_train, x_val = (a.astype(np.float32) for a in (x_train, y_train, x_val))

    init_ss, shuffle_ss = np.random.SeedSequence(config.seed).spawn(2)
    params = init_params(init_ss).astype(np.float32)
    rng = np.random.default_rng(shuffle_ss)
    m, v = np.zeros_like(params.flat), np.zeros_like(params.flat)
    steps = 0

    n_train = x_train.shape[0]
    best_val = math.inf
    best_epoch = 0
    train_losses: list[float] = []
    val_losses: list[float] = []
    started = time.perf_counter()

    for epoch in range(1, config.max_epochs + 1):
        perm = rng.permutation(n_train)
        x_epoch, y_epoch = x_train[perm], y_train[perm]
        sq_sum = 0.0
        for start in range(0, n_train, BATCH_SIZE):
            stop = start + BATCH_SIZE
            preds, inputs = forward(params, x_epoch[start:stop])
            residuals = preds - y_epoch[start:stop]
            sq_sum += float(residuals @ residuals)
            steps += 1
            adam_step(params.flat, backward(params, inputs, residuals).flat, m, v, steps, LEARNING_RATE)
        train_loss = sq_sum / n_train
        val_preds, _ = forward(params, x_val)
        val_loss = loss_mse(val_preds, y_val)
        if not (math.isfinite(train_loss) and math.isfinite(val_loss)):
            raise TrainingDivergedError(epoch)
        train_losses.append(train_loss)
        val_losses.append(val_loss)
        if on_epoch is not None:
            on_epoch(epoch, train_loss, val_loss)
        # Epoch 1 always improves on inf: a loss that is not finite raised above.
        if val_loss < best_val:
            best_val, best_epoch, best_params = val_loss, epoch, params.copy()
        elif epoch - best_epoch >= config.patience:
            break

    report = TrainReport(
        epochs_run=epoch,
        train_losses=train_losses,
        val_losses=val_losses,
        best_epoch=best_epoch,
        best_val_loss=best_val,
        wall_seconds=time.perf_counter() - started,
        stopped_early=epoch - best_epoch >= config.patience,
    )
    model = MlpModel(params=best_params, norm=norm, metadata=metadata)
    return model, report


def predict_features(model: MlpModel, features) -> np.ndarray:
    """Predict makespans (seconds) from raw, unnormalized feature rows.

    Each answer is at least the compute lower bound I*L / (w0 + n*mean_w):
    processor i needs alpha_i*L*I/speed_i seconds and the shares sum to 1.
    The bound keeps the unclamped linear head from answering <= 0 s. A row
    :func:`predict` refuses raises :class:`NumericError`, naming the first.
    """
    rows = np.atleast_2d(np.asarray(features, dtype=float))
    with np.errstate(over="ignore", invalid="ignore"):  # what overflows is refused below, as in predict
        z = _z_features(model.norm, rows)
        y, _ = forward(model.params, z)
        bound = model.metadata.compute_intensity * rows[:, _LOAD_GB] / (rows[:, _W0] + rows[:, _N] * rows[:, _MEAN_W])
        t_star = np.maximum(_unz_target(model.norm, y), bound)
    outside = np.flatnonzero(~((np.abs(z) < _FLOAT32_OVERFLOW).all(axis=1) & np.isfinite(t_star)))
    if outside.size:
        raise NumericError(f"row {outside[0]}: a z-score beyond float32's range or a makespan not finite; {_OUTSIDE}")
    return t_star


def predict(model: MlpModel, config: SltnConfig) -> float:
    """Predicted equal-finish makespan in seconds for one configuration, always
    finite. A system outside the surrogate's range raises
    :class:`NumericError`: one whose features overflow (speeds near 1e308),
    or one whose z-scored features leave float32's range (a 1e300 GB load).

    The answer of :func:`predict_features` on the one row, bit for bit, with
    the z-score, the inverse z-score and the compute bound taken in Python
    floats by the same operations in the same order; only the network runs
    in numpy, on a 1-D row.
    """
    norm = model.norm
    f = extract_features(config)
    row = [(v - m) / s for v, m, s in zip(f, norm.feature_means, norm.feature_stds)]
    if not all(-_FLOAT32_OVERFLOW < v < _FLOAT32_OVERFLOW for v in row):
        raise NumericError(f"a z-scored feature is beyond float32's range; {_OUTSIDE}")
    with np.errstate(over="ignore", invalid="ignore"):  # a huge finite input may overflow inside the network
        y, _ = forward(model.params, row)
    bound = model.metadata.compute_intensity * f.load_gb / (f.w0 + f.n * f.mean_w)
    t_star = max(float(y) * norm.target_std + norm.target_mean, bound)
    if not math.isfinite(t_star):
        raise NumericError(f"makespan {t_star!r} is not finite; {_OUTSIDE}")
    return t_star


def save_model(path, model: MlpModel) -> None:
    """Serialize the bundle as versioned JSON; round-trips bit-exactly.

    Only finite float32 weights of the production architecture are bundled;
    any other raises :class:`InvalidInputError` before any byte is written.
    """
    if model.params.layer_dims != DEFAULT_LAYER_DIMS:
        raise InvalidInputError(f"can only bundle the production architecture {DEFAULT_LAYER_DIMS}")
    if model.params.flat.dtype != np.float32:
        raise InvalidInputError(f"can only bundle float32 weights, got {model.params.flat.dtype}")
    if not np.isfinite(model.params.flat).all():
        raise InvalidInputError("can only bundle finite weights and biases")
    payload = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "layer_dims": list(DEFAULT_LAYER_DIMS),
        "params": model.params.flat,
        "norm": model.norm,
        "metadata": model.metadata,
    }
    Path(path).write_bytes(codec.dumps(payload) + b"\n")


def load_model(path) -> MlpModel:
    """Read a bundle written by :func:`save_model`; its weights come back
    float32. A bundle the README's file rules refuse raises
    :class:`FileFormatError`."""
    obj = codec.read(codec.read_file(path), path)
    if not isinstance(obj, dict) or obj.get("format") != MODEL_FORMAT:
        raise FileFormatError(f"{path}: not a model bundle")
    if obj.get("version") != MODEL_VERSION:
        raise FileFormatError(f"{path}: unsupported model version {obj.get('version')!r}")
    layer_dims = obj.get("layer_dims")
    if not isinstance(layer_dims, list) or tuple(layer_dims) != DEFAULT_LAYER_DIMS:
        raise FileFormatError(f"{path}: unexpected layer dimensions {layer_dims!r}")
    try:
        flat = np.array(codec.numbers(obj["params"], EXPECTED_PARAM_COUNT, "params"), dtype=float)
        stats = obj["norm"]
        norm = NormalizationStats(
            feature_means=tuple(codec.numbers(stats["feature_means"], what="feature_means")),
            feature_stds=tuple(codec.numbers(stats["feature_stds"], what="feature_stds")),
            target_mean=codec.number(stats["target_mean"], "target_mean"),
            target_std=codec.number(stats["target_std"], "target_std"),
        )
        metadata = ModelMetadata(**obj["metadata"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise FileFormatError(f"{path}: malformed model bundle: {exc}") from exc
    # Checked before the cast, which would overflow to inf. The bound is where
    # rounding reaches inf, not float32's largest value: that value's shortest
    # spelling, 3.4028235e38, parses to a float64 above it.
    if not (np.abs(flat) < _FLOAT32_OVERFLOW).all():
        raise FileFormatError(f"{path}: a weight or bias beyond float32's range")
    return MlpModel(params=MlpParams(flat.astype(np.float32), DEFAULT_LAYER_DIMS), norm=norm, metadata=metadata)
