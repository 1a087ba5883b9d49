"""Accuracy statistics, stratified error analysis, and plot-ready data tables.

Every statistic is computed in original units (seconds) into one record,
``Stratum``: ``compute_metrics`` returns the ``all`` row of a whole
prediction set, and ``stratify`` slices the set by system size, load
magnitude, or compute-speed heterogeneity into one row per bucket, to
expose where the surrogate is trustworthy. ``residual_analysis`` returns
the rows of the signed-error and signed percentage-error histograms and the
residual-vs-prediction pairs. ``emit_plot_data`` writes those rows as the
delimited tables that feed external plotting.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .datagen import Dataset
from .errors import InvalidInputError

# Bin edges follow the regimes worth distinguishing operationally: tiny
# loads where relative error blows up, and the heterogeneity level above
# which outlier risk rises. Last bin is closed on the right.
LOAD_BIN_EDGES = (1.0, 5.0, 10.0, 20.0, 40.0, 100.0)
HETEROG_BIN_EDGES = (1.0, 2.0, 5.0, 10.0, 15.0)

STRATIFY_SCHEMES = ("by-n", "by-load", "by-heterogeneity")

_HIST_BINS = 40


class Stratum(NamedTuple):
    """The error record: one row of a stratum table, or the ``all`` row of a
    whole set; the field names are its columns.

    Errors are in seconds and percentages of the exact makespan. An empty
    bucket has count 0 and ``None`` for every statistic.
    """

    bucket: str
    count: int
    r2: float | None = None
    mae_s: float | None = None
    rmse_s: float | None = None
    mape_pct: float | None = None
    median_pct: float | None = None
    p90_pct: float | None = None
    max_pct: float | None = None


def _check_pairs(predictions, targets) -> tuple[np.ndarray, np.ndarray]:
    predictions = np.asarray(predictions, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if predictions.shape != targets.shape or predictions.ndim != 1 or predictions.size == 0:
        raise InvalidInputError(
            f"predictions and targets must be equal-length nonempty vectors, got "
            f"{predictions.shape} and {targets.shape}"
        )
    if not (np.isfinite(predictions).all() and ((targets > 0) & (targets < math.inf)).all()):
        raise InvalidInputError("predictions must be finite and targets positive and finite (makespans in seconds)")
    return predictions, targets


def _sum_of_squares(values: np.ndarray) -> tuple[float, float]:
    """``(total, scale)`` with ``total * scale**2`` the sum of squares of
    ``values``. ``scale`` is 1 unless that sum overflows, or underflows to 0
    while some value is not 0; then it is the largest magnitude."""
    with np.errstate(over="ignore"):
        total = float(np.sum(values**2))
    if 0.0 < total < math.inf or not values.any():
        return total, 1.0
    scale = float(np.abs(values).max())
    return float(np.sum((values / scale) ** 2)), scale


def _stratum(label: str, predictions: np.ndarray, targets: np.ndarray) -> Stratum:
    """Every statistic of one set of pairs; no pairs give ``Stratum(label, 0)``.

    R2 is NaN when the targets hold one value (their minimum equals their
    maximum, as ``datagen`` tests a constant column). The errors' and the
    centred targets' sums of squares are each scaled on their own when they
    leave the double range, and R2 and RMSE are scaled back: R2 is -inf when
    the ratio of the two sums overflows.
    """
    if targets.size == 0:
        return Stratum(label, 0)
    errors = predictions - targets
    fractions = np.abs(errors) / targets
    ss_res, res_scale = _sum_of_squares(errors)
    ss_tot, tot_scale = _sum_of_squares(targets - targets.mean())
    r2 = math.nan
    if targets.min() < targets.max():
        ratio = res_scale / tot_scale
        r2 = 1.0 - ss_res / ss_tot * ratio * ratio if ss_res else 1.0
    pct = fractions * 100.0
    return Stratum(
        label,
        int(targets.size),
        r2,
        float(np.mean(np.abs(errors))),
        math.sqrt(ss_res / targets.size) * res_scale,
        float(np.mean(fractions)) * 100.0,
        float(np.median(pct)),
        float(np.percentile(pct, 90)),
        float(pct.max()),
    )


def compute_metrics(predictions, targets) -> Stratum:
    """The ``all`` row of the whole set: the statistics of each
    :func:`stratify` row, in seconds and percent. Targets that hold one
    value have no R2 and raise :class:`InvalidInputError`."""
    row = _stratum("all", *_check_pairs(predictions, targets))
    if math.isnan(row.r2):
        raise InvalidInputError("targets hold one value; r2 is undefined")
    return row


def _bin_index(values: np.ndarray, edges: tuple[float, ...]) -> np.ndarray:
    # Interior edges partition the whole real line, so every record lands in
    # exactly one bucket even slightly outside the nominal range.
    return np.searchsorted(np.asarray(edges[1:-1]), values, side="right")


def _bin_labels(edges: tuple[float, ...]) -> list[str]:
    labels = [f"[{edges[i]:g},{edges[i + 1]:g})" for i in range(len(edges) - 2)]
    labels.append(f"[{edges[-2]:g},{edges[-1]:g}]")
    return labels


def stratify(dataset: Dataset, predictions, scheme: str) -> list[Stratum]:
    """One row per bucket of n, load bin, or heterogeneity bin, read from
    the dataset's feature columns, in bucket order; every n between the
    smallest and largest present gets a row."""
    if scheme not in STRATIFY_SCHEMES:
        raise InvalidInputError(f"unknown scheme {scheme!r}; expected one of {STRATIFY_SCHEMES}")
    predictions, targets = _check_pairs(predictions, dataset.t_star)

    if scheme == "by-n":
        ns = dataset.column("n")
        groups = [(f"n={n}", np.flatnonzero(ns == n)) for n in range(int(ns.min()), int(ns.max()) + 1)]
    else:
        column, edges = ("load_gb", LOAD_BIN_EDGES) if scheme == "by-load" else ("heterog_w", HETEROG_BIN_EDGES)
        idx = _bin_index(dataset.column(column), edges)
        groups = [(label, np.flatnonzero(idx == i)) for i, label in enumerate(_bin_labels(edges))]

    return [_stratum(label, predictions[sel], targets[sel]) for label, sel in groups]


def _histogram_rows(values: np.ndarray) -> list[tuple]:
    counts, edges = np.histogram(values, bins=_HIST_BINS)
    return [(float(edges[i]), float(edges[i + 1]), int(c)) for i, c in enumerate(counts)]


def residual_analysis(predictions, targets) -> tuple[list[tuple], list[tuple], list[tuple]]:
    """Rows of the signed-error histogram (s), the signed percentage-error
    histogram, and the residual-vs-prediction pairs.

    A residual is prediction - truth, so over-prediction is positive. Each
    histogram row is ``(bin_lo, bin_hi, count)`` over 40 equal bins.
    """
    predictions, targets = _check_pairs(predictions, targets)
    residuals = predictions - targets
    return (
        _histogram_rows(residuals),
        _histogram_rows(residuals / targets * 100.0),
        list(zip(predictions.tolist(), residuals.tolist())),
    )


def _write_table(path: Path, columns: tuple[str, ...], rows: list[tuple]) -> Path:
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join("" if v is None else repr(float(v)) if isinstance(v, float) else str(v) for v in row))
    path.write_text("\n".join(lines) + "\n")
    return path


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
    tables = []
    if train_report is not None:
        rows = [
            (epoch, tr, vl)
            for epoch, (tr, vl) in enumerate(zip(train_report.train_losses, train_report.val_losses), 1)
        ]
        tables.append(("loss_curves.csv", ("epoch", "train_loss", "val_loss"), rows))
    error_hist, pct_error_hist, residual_pairs = residual_analysis(predictions, targets)
    tables += [
        ("pred_vs_actual.csv", ("actual_s", "predicted_s"), list(zip(targets.tolist(), predictions.tolist()))),
        ("error_hist.csv", ("bin_lo_s", "bin_hi_s", "count"), error_hist),
        ("pct_error_hist.csv", ("bin_lo_pct", "bin_hi_pct", "count"), pct_error_hist),
        ("residual_vs_predicted.csv", ("predicted_s", "residual_s"), residual_pairs),
        ("per_n_errors.csv", Stratum._fields, stratify(dataset, predictions, "by-n")),
        ("load_bin_errors.csv", Stratum._fields, stratify(dataset, predictions, "by-load")),
        ("heterog_bin_errors.csv", Stratum._fields, stratify(dataset, predictions, "by-heterogeneity")),
    ]
    return [_write_table(out_dir / name, columns, rows) for name, columns, rows in tables]
