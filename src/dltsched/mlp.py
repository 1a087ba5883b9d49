"""From-scratch feedforward regressor for makespan prediction.

A 16-128-64-32-1 ReLU network with inverted dropout after the first hidden
layer, trained with explicit backpropagation, Adam, mini-batches, and early
stopping on validation MSE. Everything runs on float64 numpy and is
bit-deterministic given the seed. The deployable bundle packs the weights
together with the normalization statistics so inference needs no external
state.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .datagen import FEATURE_NAMES, NormalizationStats, apply_normalization, denormalize_target, extract_features
from .errors import FileFormatError, InvalidInputError, TrainingDivergedError
from .solver import SltnConfig

MODEL_FORMAT = "dltsched-model"
MODEL_VERSION = 1

DEFAULT_LAYER_DIMS = (16, 128, 64, 32, 1)
EXPECTED_PARAM_COUNT = 12_545  # 16*128+128 + 128*64+64 + 64*32+32 + 32+1

# Feature columns of the compute lower bound on the makespan.
_N, _LOAD_GB, _MEAN_W, _W0 = (FEATURE_NAMES.index(name) for name in ("n", "load_gb", "mean_w", "w0"))


@dataclass
class MlpParams:
    """Layer weights and biases; weights[k] has shape (dims[k+1], dims[k])."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]

    @property
    def layer_dims(self) -> tuple[int, ...]:
        return (self.weights[0].shape[1], *(w.shape[0] for w in self.weights))

    def param_count(self) -> int:
        return sum(w.size for w in self.weights) + sum(b.size for b in self.biases)

    def copy(self) -> "MlpParams":
        return MlpParams([w.copy() for w in self.weights], [b.copy() for b in self.biases])


@dataclass
class MlpGrads:
    weights: list[np.ndarray]
    biases: list[np.ndarray]


@dataclass
class ForwardCache:
    """Activations and masks from one forward pass, consumed by backward()."""

    inputs: list[np.ndarray]  # activation fed into each layer
    relu_masks: list[np.ndarray]  # pre-activation > 0, per hidden layer
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
    needed at predict time.
    """
    if dropout_p > 0 and rng is None:
        raise InvalidInputError("dropout requires a random generator")
    h = np.atleast_2d(np.asarray(x, dtype=float))
    inputs: list[np.ndarray] = []
    relu_masks: list[np.ndarray] = []
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
        mask = z > 0
        h = np.maximum(z, 0.0, out=z)  # ReLU in place; z is this pass's own buffer
        relu_masks.append(mask)
        if dropout_p > 0 and k == 0:
            keep = (rng.random(h.shape) >= dropout_p) / (1.0 - dropout_p)
            h = h * keep
            drop_masks.append(keep)
        else:
            drop_masks.append(None)
    return out, ForwardCache(inputs=inputs, relu_masks=relu_masks, drop_masks=drop_masks)


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

    ``residuals`` are predictions minus targets for the cached batch.
    """
    residuals = np.asarray(residuals, dtype=float)
    batch = residuals.shape[0]
    dout = (2.0 / batch) * residuals[:, None]
    n_layers = len(params.weights)
    d_weights: list[np.ndarray] = [np.empty(0)] * n_layers
    d_biases: list[np.ndarray] = [np.empty(0)] * n_layers
    for k in range(n_layers - 1, -1, -1):
        d_weights[k] = dout.T @ cache.inputs[k]
        d_biases[k] = dout.sum(axis=0)
        if k > 0:
            dout = dout @ params.weights[k]
            if cache.drop_masks[k - 1] is not None:
                dout *= cache.drop_masks[k - 1]
            dout *= cache.relu_masks[k - 1]
    return MlpGrads(d_weights, d_biases)


def input_gradients(params: MlpParams, x) -> np.ndarray:
    """Per-sample gradient of the output with respect to each input, no dropout."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    _, cache = forward(params, x)
    dout = np.ones((x.shape[0], 1))
    for k in range(len(params.weights) - 1, -1, -1):
        dout = dout @ params.weights[k]
        if k > 0:
            dout = dout * cache.relu_masks[k - 1]
    return dout


@dataclass
class AdamState:
    m_weights: list[np.ndarray]
    m_biases: list[np.ndarray]
    v_weights: list[np.ndarray]
    v_biases: list[np.ndarray]
    t: int = 0

    @classmethod
    def zeros(cls, params: MlpParams) -> "AdamState":
        return cls(
            m_weights=[np.zeros_like(w) for w in params.weights],
            m_biases=[np.zeros_like(b) for b in params.biases],
            v_weights=[np.zeros_like(w) for w in params.weights],
            v_biases=[np.zeros_like(b) for b in params.biases],
        )


def adam_step(
    params: MlpParams,
    grads: MlpGrads,
    state: AdamState,
    learning_rate: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> tuple[MlpParams, AdamState]:
    """One Adam update with bias-corrected moments. Mutates params and state."""
    state.t += 1
    correct1 = 1.0 - beta1**state.t
    correct2 = 1.0 - beta2**state.t
    for p, g, m, v in (
        *zip(params.weights, grads.weights, state.m_weights, state.v_weights),
        *zip(params.biases, grads.biases, state.m_biases, state.v_biases),
    ):
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * np.square(g)
        p -= learning_rate * (m / correct1) / (np.sqrt(v / correct2) + eps)
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

    Rows and targets are z-scored with ``norm``, and the reported losses are
    MSE in that space. Shuffles each epoch, uses the final partial batch,
    evaluates validation MSE with dropout off after every epoch, and stops
    once validation loss has not improved for ``config.patience`` epochs.
    ``on_epoch`` is an optional progress callback taking (epoch, train_loss,
    val_loss). ``metadata`` must hold the labels' ``compute_intensity``,
    which bounds every answer of :func:`predict_features`.
    """
    if "compute_intensity" not in metadata:
        raise InvalidInputError("metadata must record the labels' compute_intensity")
    x_train, y_train = apply_normalization(norm, x_train, y_train)
    x_val, y_val = apply_normalization(norm, x_val, y_val)
    if x_train.shape[0] == 0 or x_val.shape[0] == 0:
        raise InvalidInputError("training and validation sets must be nonempty")

    init_ss, flow_ss = np.random.SeedSequence(config.seed).spawn(2)
    params = init_params(np.random.default_rng(init_ss), (x_train.shape[1], 128, 64, 32, 1))
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
        sq_sum = 0.0
        for start in range(0, n_train, config.batch_size):
            idx = perm[start : start + config.batch_size]
            preds, cache = forward(params, x_train[idx], dropout_p=config.dropout_p, rng=rng)
            residuals = preds - y_train[idx]
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
    """Serialize the bundle as versioned JSON; round-trips bit-exactly."""
    if model.params.layer_dims != DEFAULT_LAYER_DIMS:
        raise InvalidInputError(f"can only bundle the production architecture {DEFAULT_LAYER_DIMS}")
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
    except (KeyError, TypeError, ValueError) as exc:
        raise FileFormatError(f"{path}: malformed model bundle: {exc}") from exc
    if "compute_intensity" not in metadata:
        raise FileFormatError(f"{path}: model metadata lacks compute_intensity")
    params = MlpParams(weights, biases)
    expected_shapes = [
        (out_d, in_d) for in_d, out_d in zip(DEFAULT_LAYER_DIMS[:-1], DEFAULT_LAYER_DIMS[1:])
    ]
    actual_shapes = [w.shape for w in params.weights]
    if actual_shapes != expected_shapes or [b.shape[0] for b in params.biases] != [
        s[0] for s in expected_shapes
    ]:
        raise FileFormatError(f"{path}: weight shapes {actual_shapes} do not match {expected_shapes}")
    if params.param_count() != EXPECTED_PARAM_COUNT:
        raise FileFormatError(
            f"{path}: parameter count {params.param_count()} != {EXPECTED_PARAM_COUNT}"
        )
    return MlpModel(params=params, norm=norm, metadata=metadata)
