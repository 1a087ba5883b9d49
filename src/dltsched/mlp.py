"""From-scratch feedforward regressor for makespan prediction.

A 16-128-64-32-1 ReLU network with inverted dropout after the first hidden
layer, trained with explicit backpropagation, Adam, mini-batches, and early
stopping on validation MSE. A deployable surrogate's weights are float32
from training through the bundle to inference: ``train`` rounds its initial
weights and z-scored rows to float32 and returns float32 weights,
``save_model`` refuses any other precision and ``load_model`` returns
float32. ``forward``, ``backward``, ``input_gradients`` and ``adam_step``
compute in the precision of the weights they are given, so hand-built
float64 weights still run in float64. Validation MSE, denormalization and
the compute bound stay float64. Training is bit-deterministic given the
seed. The bundle packs the weights together with the normalization
statistics so inference needs no external state.
"""

from __future__ import annotations

import json
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .datagen import FEATURE_NAMES, NormalizationStats, apply_normalization, denormalize_target, extract_features
from .errors import ConstantFeatureError, FileFormatError, InvalidInputError, TrainingDivergedError
from .solver import SltnConfig

MODEL_FORMAT = "dltsched-model"
MODEL_VERSION = 2

DEFAULT_LAYER_DIMS = (16, 128, 64, 32, 1)
EXPECTED_PARAM_COUNT = 12_545  # 16*128+128 + 128*64+64 + 64*32+32 + 32+1
_FLOAT32_MAX = float(np.finfo(np.float32).max)

# Feature columns of the compute lower bound on the makespan.
_N, _LOAD_GB, _MEAN_W, _W0 = (FEATURE_NAMES.index(name) for name in ("n", "load_gb", "mean_w", "w0"))


@dataclass
class _LayerArrays:
    """Per-layer weights and biases, all views of one buffer ``flat``.

    ``flat`` holds every weight matrix, then every bias vector, each in C
    order, so an optimizer updates all of them with whole-buffer operations.
    Arrays passed to the constructor are copied into a fresh float64 buffer.
    """

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    flat: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.weights = [np.asarray(w, dtype=float) for w in self.weights]
        self.biases = [np.asarray(b, dtype=float) for b in self.biases]
        self._bind(np.concatenate([a.ravel() for a in (*self.weights, *self.biases)]), self)

    def _bind(self, flat: np.ndarray, like: "_LayerArrays") -> None:
        """Make ``flat`` the buffer and the arrays consecutive views of it,
        shaped like ``like``'s arrays."""
        views = []
        start = 0
        for a in (*like.weights, *like.biases):
            stop = start + a.size
            views.append(flat[start:stop].reshape(a.shape))
            start = stop
        n_weights = len(like.weights)
        self.flat, self.weights, self.biases = flat, views[:n_weights], views[n_weights:]

    @classmethod
    def _on_buffer(cls, flat: np.ndarray, like: "_LayerArrays"):
        """An instance whose arrays are views of ``flat``, shaped like ``like``'s."""
        obj = cls.__new__(cls)
        obj._bind(flat, like)
        return obj


@dataclass
class MlpParams(_LayerArrays):
    """Layer weights and biases; weights[k] has shape (dims[k+1], dims[k])."""

    @property
    def layer_dims(self) -> tuple[int, ...]:
        return (self.weights[0].shape[1], *(w.shape[0] for w in self.weights))

    def param_count(self) -> int:
        return self.flat.size

    def copy(self) -> "MlpParams":
        return MlpParams._on_buffer(self.flat.copy(), self)

    def astype(self, dtype) -> "MlpParams":
        """A copy with every weight and bias rounded to ``dtype``."""
        return MlpParams._on_buffer(self.flat.astype(dtype), self)


@dataclass
class MlpGrads(_LayerArrays):
    """Gradients laid out like the parameters they belong to."""


@dataclass
class ForwardCache:
    """Activations from one forward pass, consumed by backward().

    backward() takes each ReLU's mask as ``inputs[k] > 0``. Where dropout
    zeroed an active unit, its keep mask zeroes the gradient anyway.
    """

    inputs: list[np.ndarray]  # activation fed into each layer
    drop_masks: list[np.ndarray | None]  # scaled keep masks, per hidden layer


@dataclass(frozen=True)
class TrainConfig:
    """Training hyperparameters.

    Dropout is off by default: on this smooth regression any p = 0.2
    placement floors the validation loss. When enabled it acts after the
    first hidden layer only, because mask noise next to the single-unit
    linear head biases the fit toward the target mean.
    """

    learning_rate: float = 0.001
    batch_size: int = 256
    dropout_p: float = 0.0
    patience: int = 10
    max_epochs: int = 200
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise InvalidInputError(f"learning rate must be positive, got {self.learning_rate}")
        if self.batch_size < 1:
            raise InvalidInputError(f"batch size must be >= 1, got {self.batch_size}")
        if not 0.0 <= self.dropout_p < 1.0:
            raise InvalidInputError(f"dropout probability must be in [0, 1), got {self.dropout_p}")
        if self.patience < 1:
            raise InvalidInputError(f"patience must be >= 1, got {self.patience}")
        if self.max_epochs < 1:
            raise InvalidInputError(f"max epochs must be >= 1, got {self.max_epochs}")


@dataclass
class TrainReport:
    epochs_run: int
    train_losses: list[float]  # normalized-space MSE per epoch
    val_losses: list[float]
    best_epoch: int  # 1-based
    best_val_loss: float
    wall_seconds: float
    stopped_early: bool


@dataclass
class MlpModel:
    """Deployable bundle: weights plus the statistics needed for inference."""

    params: MlpParams
    norm: NormalizationStats
    metadata: dict = field(default_factory=dict)

    @property
    def compute_intensity(self) -> float:
        """GFLOP per GB of the labels the model was trained on."""
        if "compute_intensity" not in self.metadata:
            raise InvalidInputError("model metadata lacks compute_intensity")
        return float(self.metadata["compute_intensity"])


def init_params(seed, layer_dims: tuple[int, ...] = DEFAULT_LAYER_DIMS) -> MlpParams:
    """He-normal weights (variance 2/fan_in), zero biases, deterministic in seed."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    weights = []
    biases = []
    for fan_in, fan_out in zip(layer_dims[:-1], layer_dims[1:]):
        weights.append(rng.normal(0.0, math.sqrt(2.0 / fan_in), size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    params = MlpParams(weights, biases)
    if tuple(layer_dims) == DEFAULT_LAYER_DIMS:
        assert params.param_count() == EXPECTED_PARAM_COUNT
    return params


def forward(
    params: MlpParams,
    x,
    dropout_p: float = 0.0,
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, ForwardCache]:
    """Run the network on a batch (or single vector) of inputs.

    With ``dropout_p`` > 0 each unit of the first hidden layer is zeroed
    with that probability and survivors are scaled by 1/(1-p), so the
    expected pre-activations match inference mode and no rescaling is
    needed at predict time. Inputs are cast to the weights' precision, and
    so is the output.
    """
    if dropout_p > 0 and rng is None:
        raise InvalidInputError("dropout requires a random generator")
    h = np.atleast_2d(np.asarray(x, dtype=params.flat.dtype))
    inputs: list[np.ndarray] = []
    drop_masks: list[np.ndarray | None] = []
    last = len(params.weights) - 1
    out = None
    for k, (w, b) in enumerate(zip(params.weights, params.biases)):
        inputs.append(h)
        z = h @ w.T
        z += b
        if k == last:
            out = z[:, 0]
            break
        h = np.maximum(z, 0.0, out=z)  # ReLU in place; z is this pass's own buffer
        if dropout_p > 0 and k == 0:
            keep = (rng.random(h.shape) >= dropout_p).astype(h.dtype) / (1.0 - dropout_p)
            h = h * keep
            drop_masks.append(keep)
        else:
            drop_masks.append(None)
    return out, ForwardCache(inputs=inputs, drop_masks=drop_masks)


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


def backward(params: MlpParams, cache: ForwardCache, residuals) -> MlpGrads:
    """Exact gradient of batch MSE, honoring the forward pass's masks.

    ``residuals`` are predictions minus targets for the cached batch. The
    gradients have the weights' precision.
    """
    residuals = np.asarray(residuals, dtype=params.flat.dtype)
    batch = residuals.shape[0]
    dout = (2.0 / batch) * residuals[:, None]
    grads = MlpGrads._on_buffer(np.empty_like(params.flat), params)
    for k in range(len(params.weights) - 1, -1, -1):
        np.matmul(dout.T, cache.inputs[k], out=grads.weights[k])
        dout.sum(axis=0, out=grads.biases[k])
        if k > 0:
            dout = _times_weights(dout, params.weights[k])
            if cache.drop_masks[k - 1] is not None:
                dout *= cache.drop_masks[k - 1]
            dout *= cache.inputs[k] > 0
    return grads


def _times_weights(dout: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``dout @ w``; a one-row ``w`` makes it an outer product, which the
    broadcast multiply computes with the same bits and no BLAS call."""
    return dout * w if w.shape[0] == 1 else dout @ w


def input_gradients(params: MlpParams, x) -> np.ndarray:
    """Per-sample gradient of the output with respect to each input, no
    dropout, in the weights' precision."""
    x = np.atleast_2d(np.asarray(x, dtype=params.flat.dtype))
    _, cache = forward(params, x)
    dout = np.ones((x.shape[0], 1), dtype=x.dtype)
    for k in range(len(params.weights) - 1, -1, -1):
        dout = _times_weights(dout, params.weights[k])
        if k > 0:
            dout *= cache.inputs[k] > 0
    return dout


@dataclass
class AdamState:
    """First and second moments, laid out like ``MlpParams.flat`` and in its
    precision."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def zeros(cls, params: MlpParams) -> "AdamState":
        return cls(m=np.zeros_like(params.flat), v=np.zeros_like(params.flat))


def adam_step(
    params: MlpParams,
    grads: MlpGrads,
    state: AdamState,
    learning_rate: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> tuple[MlpParams, AdamState]:
    """One Adam update with bias-corrected moments. Mutates params and state.

    Works on the flat buffers, in the operation order of
    ``p -= lr * (m / c1) / (sqrt(v / c2) + eps)``, so every element gets
    the bits a per-array update would give it.
    """
    state.t += 1
    correct1 = 1.0 - beta1**state.t
    correct2 = 1.0 - beta2**state.t
    g, m, v = grads.flat, state.m, state.v
    step = np.empty_like(g)
    denom = np.empty_like(g)
    m *= beta1
    np.multiply(g, 1.0 - beta1, out=step)
    m += step
    v *= beta2
    np.square(g, out=step)
    step *= 1.0 - beta2
    v += step
    np.divide(m, correct1, out=step)
    step *= learning_rate
    np.divide(v, correct2, out=denom)
    np.sqrt(denom, out=denom)
    denom += eps
    step /= denom
    params.flat -= step
    return params, state


def train(
    x_train: np.ndarray,
    y_train: np.ndarray,
    x_val: np.ndarray,
    y_val: np.ndarray,
    config: TrainConfig,
    norm: NormalizationStats,
    metadata: dict,
    on_epoch=None,
) -> tuple[MlpModel, TrainReport]:
    """Train on raw feature rows and makespans; returns the bundle from the
    best-validation epoch.

    Rows and targets are z-scored with ``norm`` and rounded to float32, like
    the initial weights, so the returned weights are float32. The reported
    losses are MSE in the z-scored space; validation MSE is taken in float64
    against the unrounded targets. Shuffles each epoch, uses the final
    partial batch, evaluates validation MSE with dropout off after every
    epoch, and stops once validation loss has not improved for
    ``config.patience`` epochs. ``on_epoch`` is an optional progress
    callback taking (epoch, train_loss, val_loss). ``metadata`` must hold the labels' ``compute_intensity``,
    which bounds every answer of :func:`predict_features`.
    """
    if "compute_intensity" not in metadata:
        raise InvalidInputError("metadata must record the labels' compute_intensity")
    x_train, y_train = apply_normalization(norm, x_train, y_train)
    x_val, y_val = apply_normalization(norm, x_val, y_val)
    x_train, y_train, x_val = (a.astype(np.float32) for a in (x_train, y_train, x_val))
    if x_train.shape[0] == 0 or x_val.shape[0] == 0:
        raise InvalidInputError("training and validation sets must be nonempty")

    init_ss, flow_ss = np.random.SeedSequence(config.seed).spawn(2)
    params = init_params(np.random.default_rng(init_ss), (x_train.shape[1], 128, 64, 32, 1)).astype(np.float32)
    rng = np.random.default_rng(flow_ss)
    state = AdamState.zeros(params)

    n_train = x_train.shape[0]
    best_params = params.copy()
    best_val = math.inf
    best_epoch = 0
    stall = 0
    stopped_early = False
    train_losses: list[float] = []
    val_losses: list[float] = []
    started = time.perf_counter()

    for epoch in range(1, config.max_epochs + 1):
        perm = rng.permutation(n_train)
        x_epoch, y_epoch = x_train[perm], y_train[perm]
        sq_sum = 0.0
        for start in range(0, n_train, config.batch_size):
            stop = start + config.batch_size
            preds, cache = forward(params, x_epoch[start:stop], dropout_p=config.dropout_p, rng=rng)
            residuals = preds - y_epoch[start:stop]
            sq_sum += float(residuals @ residuals)
            grads = backward(params, cache, residuals)
            adam_step(params, grads, state, config.learning_rate)
        train_loss = sq_sum / n_train
        val_preds, _ = forward(params, x_val)
        val_loss = loss_mse(val_preds, y_val)
        if not (math.isfinite(train_loss) and math.isfinite(val_loss)):
            raise TrainingDivergedError(epoch)
        train_losses.append(train_loss)
        val_losses.append(val_loss)
        if on_epoch is not None:
            on_epoch(epoch, train_loss, val_loss)
        if val_loss < best_val:
            best_val = val_loss
            best_params = params.copy()
            best_epoch = epoch
            stall = 0
        else:
            stall += 1
            if stall >= config.patience:
                stopped_early = True
                break

    report = TrainReport(
        epochs_run=len(val_losses),
        train_losses=train_losses,
        val_losses=val_losses,
        best_epoch=best_epoch,
        best_val_loss=best_val,
        wall_seconds=time.perf_counter() - started,
        stopped_early=stopped_early,
    )
    model = MlpModel(params=best_params, norm=norm, metadata=dict(metadata))
    return model, report


def predict_features(model: MlpModel, features) -> np.ndarray:
    """Predict makespans (seconds) from raw, unnormalized feature rows.

    Each answer is at least the compute lower bound I*L / (w0 + n*mean_w):
    processor i needs alpha_i*L*I/speed_i seconds and the shares sum to 1.
    The bound keeps the unclamped linear head from answering <= 0 s.
    """
    rows = np.atleast_2d(np.asarray(features, dtype=float))
    y, _ = forward(model.params, apply_normalization(model.norm, rows))
    bound = model.compute_intensity * rows[:, _LOAD_GB] / (rows[:, _W0] + rows[:, _N] * rows[:, _MEAN_W])
    return np.maximum(denormalize_target(model.norm, y), bound)


def predict(model: MlpModel, config: SltnConfig) -> float:
    """Predicted optimal makespan in seconds for one configuration."""
    return float(predict_features(model, extract_features(config).as_array())[0])


def save_model(path, model: MlpModel) -> None:
    """Serialize the bundle as versioned JSON; round-trips bit-exactly.

    Only float32 weights are bundled: every float32 value is written as the
    float64 number it equals, so loading rounds nothing.
    """
    if model.params.layer_dims != DEFAULT_LAYER_DIMS:
        raise InvalidInputError(f"can only bundle the production architecture {DEFAULT_LAYER_DIMS}")
    if model.params.flat.dtype != np.float32:
        raise InvalidInputError(f"can only bundle float32 weights, got {model.params.flat.dtype}")
    payload = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "layer_dims": list(DEFAULT_LAYER_DIMS),
        "weights": [w.tolist() for w in model.params.weights],
        "biases": [b.tolist() for b in model.params.biases],
        "norm": {
            "feature_means": list(model.norm.feature_means),
            "feature_stds": list(model.norm.feature_stds),
            "target_mean": model.norm.target_mean,
            "target_std": model.norm.target_std,
        },
        "metadata": model.metadata,
    }
    Path(path).write_text(json.dumps(payload, separators=(",", ":")) + "\n")


def load_model(path) -> MlpModel:
    """Read a bundle written by :func:`save_model`; its weights come back float32.

    Any malformed, non-finite or out-of-range value raises
    :class:`FileFormatError`.
    """
    try:
        obj = json.loads(Path(path).read_text())
    except (json.JSONDecodeError, OSError) as exc:
        raise FileFormatError(f"{path}: {exc}") from exc
    if not isinstance(obj, dict) or obj.get("format") != MODEL_FORMAT:
        raise FileFormatError(f"{path}: not a model bundle")
    if obj.get("version") != MODEL_VERSION:
        raise FileFormatError(f"{path}: unsupported model version {obj.get('version')!r}")
    layer_dims = obj.get("layer_dims")
    if not isinstance(layer_dims, list) or tuple(layer_dims) != DEFAULT_LAYER_DIMS:
        raise FileFormatError(f"{path}: unexpected layer dimensions {layer_dims!r}")
    try:
        weights = [np.array(w, dtype=float) for w in obj["weights"]]
        biases = [np.array(b, dtype=float) for b in obj["biases"]]
        norm = NormalizationStats(
            feature_means=tuple(float(v) for v in obj["norm"]["feature_means"]),
            feature_stds=tuple(float(v) for v in obj["norm"]["feature_stds"]),
            target_mean=float(obj["norm"]["target_mean"]),
            target_std=float(obj["norm"]["target_std"]),
        )
        metadata = dict(obj["metadata"])
    except (KeyError, TypeError, ValueError, OverflowError, ConstantFeatureError) as exc:
        raise FileFormatError(f"{path}: malformed model bundle: {exc}") from exc
    if "compute_intensity" not in metadata:
        raise FileFormatError(f"{path}: model metadata lacks compute_intensity")
    intensity = metadata["compute_intensity"]
    is_number = isinstance(intensity, (int, float)) and not isinstance(intensity, bool)
    if not (is_number and 0 < intensity <= sys.float_info.max):
        raise FileFormatError(f"{path}: compute_intensity must be a positive finite number, got {intensity!r}")
    expected_weights = [(out_d, in_d) for in_d, out_d in zip(DEFAULT_LAYER_DIMS[:-1], DEFAULT_LAYER_DIMS[1:])]
    expected_biases = [(out_d,) for out_d in DEFAULT_LAYER_DIMS[1:]]
    weight_shapes, bias_shapes = [w.shape for w in weights], [b.shape for b in biases]
    if weight_shapes != expected_weights or bias_shapes != expected_biases:
        raise FileFormatError(
            f"{path}: weight shapes {weight_shapes} and bias shapes {bias_shapes} do not match "
            f"{expected_weights} and {expected_biases}"
        )
    params = MlpParams(weights, biases)
    # Checked before the cast, which would overflow to inf; NaN fails too.
    if not (np.abs(params.flat) <= _FLOAT32_MAX).all():
        raise FileFormatError(f"{path}: non-finite weight or bias, or one beyond float32's range")
    return MlpModel(params=params.astype(np.float32), norm=norm, metadata=metadata)
