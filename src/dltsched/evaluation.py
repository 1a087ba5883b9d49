"""Accuracy metrics, stratified error analysis, and plot-ready data tables.

Metrics are computed in original units (seconds). Stratification slices a
prediction set by system size, load magnitude, or compute-speed
heterogeneity to expose where the surrogate is trustworthy; the emitted
delimited tables feed external plotting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .datagen import FEATURE_NAMES, Dataset, apply_normalization
from .errors import InvalidInputError
from .mlp import MlpModel, input_gradients

# Bin edges follow the regimes worth distinguishing operationally: tiny
# loads where relative error blows up, and the heterogeneity level above
# which outlier risk rises. Last bin is closed on the right.
LOAD_BIN_EDGES = (1.0, 5.0, 10.0, 20.0, 40.0, 100.0)
HETEROG_BIN_EDGES = (1.0, 2.0, 5.0, 10.0, 15.0)

STRATIFY_SCHEMES = ("by-n", "by-load", "by-heterogeneity")

_HIST_BINS = 40


@dataclass(frozen=True)
class MetricReport:
    r2: float
    mae: float
    rmse: float
    mape: float  # percent
    count: int


@dataclass(frozen=True)
class StratumReport:
    label: str
    count: int
    metrics: MetricReport | None  # omitted for empty buckets
    median_pct_error: float | None
    p90_pct_error: float | None
    max_pct_error: float | None


@dataclass(frozen=True)
class StratifiedReport:
    scheme: str
    buckets: tuple[StratumReport, ...]
    total_count: int


@dataclass(frozen=True)
class DecileDispersion:
    prediction_lo: float
    prediction_hi: float
    residual_std: float
    count: int


@dataclass(frozen=True)
class ResidualReport:
    """Signed-error summary; error = prediction - truth, so over-prediction
    is positive."""

    mean_error: float
    share_within_50s: float
    share_within_100s: float
    share_pct_within_10: float
    predictions: np.ndarray
    residuals: np.ndarray
    decile_dispersion: tuple[DecileDispersion, ...]


def _check_pairs(predictions, targets) -> tuple[np.ndarray, np.ndarray]:
    predictions = np.asarray(predictions, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if predictions.shape != targets.shape or predictions.ndim != 1 or predictions.size == 0:
        raise InvalidInputError(
            f"predictions and targets must be equal-length nonempty vectors, got "
            f"{predictions.shape} and {targets.shape}"
        )
    if np.any(targets <= 0):
        raise InvalidInputError("targets must be positive (makespans in seconds)")
    return predictions, targets


def _metrics(predictions: np.ndarray, targets: np.ndarray, strict_r2: bool) -> MetricReport:
    errors = predictions - targets
    mae = float(np.mean(np.abs(errors)))
    rmse = float(math.sqrt(np.mean(errors**2)))
    mape = float(np.mean(np.abs(errors) / targets)) * 100.0
    ss_tot = float(np.sum((targets - targets.mean()) ** 2))
    if ss_tot == 0.0:
        if strict_r2:
            raise InvalidInputError("targets have zero variance; r2 is undefined")
        r2 = math.nan
    else:
        r2 = 1.0 - float(np.sum(errors**2)) / ss_tot
    return MetricReport(r2=r2, mae=mae, rmse=rmse, mape=mape, count=int(targets.size))


def compute_metrics(predictions, targets) -> MetricReport:
    """R2, MAE, RMSE, and MAPE in original units (seconds)."""
    predictions, targets = _check_pairs(predictions, targets)
    return _metrics(predictions, targets, strict_r2=True)


def _pct_errors(predictions: np.ndarray, targets: np.ndarray) -> np.ndarray:
    return np.abs(predictions - targets) / targets * 100.0


def _bin_index(values: np.ndarray, edges: tuple[float, ...]) -> np.ndarray:
    # Interior edges partition the whole real line, so every record lands in
    # exactly one bucket even slightly outside the nominal range.
    return np.searchsorted(np.asarray(edges[1:-1]), values, side="right")


def _bin_labels(edges: tuple[float, ...]) -> list[str]:
    labels = [f"[{edges[i]:g},{edges[i + 1]:g})" for i in range(len(edges) - 2)]
    labels.append(f"[{edges[-2]:g},{edges[-1]:g}]")
    return labels


def _bucket_report(label: str, predictions: np.ndarray, targets: np.ndarray) -> StratumReport:
    if targets.size == 0:
        return StratumReport(label, 0, None, None, None, None)
    pct = _pct_errors(predictions, targets)
    return StratumReport(
        label=label,
        count=int(targets.size),
        metrics=_metrics(predictions, targets, strict_r2=False),
        median_pct_error=float(np.median(pct)),
        p90_pct_error=float(np.percentile(pct, 90)),
        max_pct_error=float(pct.max()),
    )


def stratify(dataset: Dataset, predictions, scheme: str) -> StratifiedReport:
    """Slice predictions into buckets by n, load bin, or heterogeneity bin,
    read from the dataset's feature columns."""
    if scheme not in STRATIFY_SCHEMES:
        raise InvalidInputError(f"unknown scheme {scheme!r}; expected one of {STRATIFY_SCHEMES}")
    predictions = np.asarray(predictions, dtype=float)
    if predictions.shape != (len(dataset),) or not len(dataset):
        raise InvalidInputError("need at least one record and exactly one prediction per record")
    targets = dataset.t_star

    if scheme == "by-n":
        ns = dataset.column("n")
        groups = [(f"n={n}", np.flatnonzero(ns == n)) for n in range(int(ns.min()), int(ns.max()) + 1)]
    elif scheme == "by-load":
        idx = _bin_index(dataset.column("load_gb"), LOAD_BIN_EDGES)
        groups = [
            (label, np.flatnonzero(idx == i)) for i, label in enumerate(_bin_labels(LOAD_BIN_EDGES))
        ]
    else:
        idx = _bin_index(dataset.column("heterog_w"), HETEROG_BIN_EDGES)
        groups = [
            (label, np.flatnonzero(idx == i)) for i, label in enumerate(_bin_labels(HETEROG_BIN_EDGES))
        ]

    buckets = tuple(_bucket_report(label, predictions[sel], targets[sel]) for label, sel in groups)
    return StratifiedReport(scheme=scheme, buckets=buckets, total_count=len(dataset))


def residual_analysis(predictions, targets) -> ResidualReport:
    """Signed residuals, tolerance-window shares, and dispersion by
    prediction decile (the heteroscedasticity summary)."""
    predictions, targets = _check_pairs(predictions, targets)
    residuals = predictions - targets
    pct = _pct_errors(predictions, targets)

    order = np.argsort(predictions, kind="stable")
    sorted_preds = predictions[order]
    sorted_resid = residuals[order]
    deciles = []
    splits = np.array_split(np.arange(predictions.size), min(10, predictions.size))
    for chunk in splits:
        if chunk.size == 0:
            continue
        deciles.append(
            DecileDispersion(
                prediction_lo=float(sorted_preds[chunk[0]]),
                prediction_hi=float(sorted_preds[chunk[-1]]),
                residual_std=float(np.std(sorted_resid[chunk])),
                count=int(chunk.size),
            )
        )
    return ResidualReport(
        mean_error=float(residuals.mean()),
        share_within_50s=float(np.mean(np.abs(residuals) <= 50.0)),
        share_within_100s=float(np.mean(np.abs(residuals) <= 100.0)),
        share_pct_within_10=float(np.mean(pct <= 10.0)),
        predictions=predictions,
        residuals=residuals,
        decile_dispersion=tuple(deciles),
    )


def feature_importance(model: MlpModel, features) -> list[tuple[str, float]]:
    """Mean absolute output gradient per input feature, largest first.

    Gradients are taken in normalized input space; ``features`` are raw
    feature rows.
    """
    x = np.atleast_2d(apply_normalization(model.norm, features))
    if x.shape[0] == 0:
        raise InvalidInputError("need at least one sample for importance analysis")
    grads = input_gradients(model.params, x)
    importance = np.mean(np.abs(grads), axis=0)
    ranked = sorted(zip(FEATURE_NAMES, importance), key=lambda kv: -kv[1])
    return [(name, float(v)) for name, v in ranked]


def _write_table(path: Path, columns: list[str], rows: list[tuple]) -> Path:
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join("" if v is None else repr(float(v)) if isinstance(v, float) else str(v) for v in row))
    path.write_text("\n".join(lines) + "\n")
    return path


def _stratum_rows(report: StratifiedReport) -> list[tuple]:
    rows = []
    for b in report.buckets:
        if b.metrics is None:
            rows.append((b.label, b.count, None, None, None, None, None, None, None))
        else:
            rows.append(
                (
                    b.label,
                    b.count,
                    b.metrics.r2,
                    b.metrics.mae,
                    b.metrics.rmse,
                    b.metrics.mape,
                    b.median_pct_error,
                    b.p90_pct_error,
                    b.max_pct_error,
                )
            )
    return rows


_STRATUM_COLUMNS = ["bucket", "count", "r2", "mae_s", "rmse_s", "mape_pct", "median_pct", "p90_pct", "max_pct"]


def emit_plot_data(out_dir, dataset: Dataset, predictions, train_report=None) -> list[Path]:
    """Write the plot tables for one prediction per record into ``out_dir``.

    Covers loss curves (when ``train_report`` is given), predicted-vs-actual
    pairs against the dataset's labels, error and percentage error
    histograms, residual-vs-prediction pairs, and the bucket summaries of
    the three stratification schemes. Re-running on the same inputs
    rewrites identical bytes.
    """
    predictions, targets = _check_pairs(predictions, dataset.t_star)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    if train_report is not None:
        rows = [
            (epoch, tr, vl)
            for epoch, (tr, vl) in enumerate(zip(train_report.train_losses, train_report.val_losses), 1)
        ]
        written.append(_write_table(out_dir / "loss_curves.csv", ["epoch", "train_loss", "val_loss"], rows))

    written.append(
        _write_table(
            out_dir / "pred_vs_actual.csv",
            ["actual_s", "predicted_s"],
            list(zip(targets.tolist(), predictions.tolist())),
        )
    )
    residual = residual_analysis(predictions, targets)
    for name, unit, errors in (
        ("error_hist.csv", "s", residual.residuals),
        ("pct_error_hist.csv", "pct", residual.residuals / targets * 100.0),
    ):
        counts, edges = np.histogram(errors, bins=_HIST_BINS)
        written.append(
            _write_table(
                out_dir / name,
                [f"bin_lo_{unit}", f"bin_hi_{unit}", "count"],
                [(float(edges[i]), float(edges[i + 1]), int(c)) for i, c in enumerate(counts)],
            )
        )
    written.append(
        _write_table(
            out_dir / "residual_vs_predicted.csv",
            ["predicted_s", "residual_s"],
            list(zip(residual.predictions.tolist(), residual.residuals.tolist())),
        )
    )
    for scheme, name in (
        ("by-n", "per_n_errors.csv"),
        ("by-load", "load_bin_errors.csv"),
        ("by-heterogeneity", "heterog_bin_errors.csv"),
    ):
        report = stratify(dataset, predictions, scheme)
        written.append(_write_table(out_dir / name, _STRATUM_COLUMNS, _stratum_rows(report)))

    return written
