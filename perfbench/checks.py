"""Reference computations and correctness checks, written apart from dltsched.

Nothing here imports the program. Systems arrive as padded arrays: row i
holds one system, columns beyond its child count are masked out. Every check
returns one boolean per system (or per report), so a mismatch can be counted
as a failed operation.
"""

from __future__ import annotations

import numpy as np

MB_PER_GB = 1000.0
RTOL = 1e-9


def close(a, b, rtol: float = RTOL) -> np.ndarray:
    """Elementwise |a - b| <= rtol * |b|; False wherever either side is not finite."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    with np.errstate(invalid="ignore"):
        return np.isfinite(a) & np.isfinite(b) & (np.abs(a - b) <= rtol * np.abs(b))


def time_rates(root_speed, speeds, bandwidths, mask, intensity: float):
    """Per-GB compute (w0, w) and link (z) times; padded slots get w = 1, z = 0."""
    w0 = intensity / np.asarray(root_speed, dtype=float)
    w = np.where(mask, intensity / np.where(mask, speeds, 1.0), 1.0)
    z = np.where(mask, MB_PER_GB / np.where(mask, bandwidths, 1.0), 0.0)
    return w0, w, z


def reference_solve(w0, w, z, mask, load):
    """Optimal fractions and makespan from the simultaneous-finish equations.

    The n equations alpha[i-1] * w[i-1] = alpha[i] * (z[i] + w[i]) are solved
    by forward substitution from alpha[0] = 1, then load conservation scales
    the fractions to sum to 1. Returns alpha of shape (N, m + 1), zero beyond
    each system's children, and T* in seconds.
    """
    w_prev = np.concatenate([w0[:, None], w[:, :-1]], axis=1)
    ratio = np.where(mask, w_prev / (z + w), 0.0)
    chain = np.concatenate([np.ones((len(w0), 1)), np.cumprod(ratio, axis=1)], axis=1)
    alpha = chain / chain.sum(axis=1, keepdims=True)
    return alpha, alpha[:, 0] * w0 * np.asarray(load, dtype=float)


def finish_times(alpha, w0, w, z, load):
    """Finish instant of the root (column 0) and of each child under ``alpha``.

    Children receive their shares one after another, so child i finishes
    once transfers 1..i are done and its own share is computed.
    """
    load = np.asarray(load, dtype=float)[:, None]
    comm = np.cumsum(alpha[:, 1:] * z, axis=1)
    child = load * (comm + alpha[:, 1:] * w)
    root = load[:, 0] * alpha[:, 0] * w0
    return np.concatenate([root[:, None], child], axis=1)


def check_exact(alpha, t_star, ref_alpha, ref_t_star, w0, w, z, mask, load) -> np.ndarray:
    """The program's fractions and makespan against the reference, per system.

    Checks T* and every fraction at RTOL, that the fractions sum to 1, and
    that every processor finishes at T* under the program's own fractions.
    ``alpha`` must be zero-padded like ``ref_alpha``.
    """
    full_mask = np.concatenate([np.ones((len(mask), 1), dtype=bool), mask], axis=1)
    alpha_ok = np.all(close(alpha, ref_alpha) | ~full_mask, axis=1)
    sum_ok = np.abs(alpha.sum(axis=1) - 1.0) <= RTOL
    finish = finish_times(alpha, w0, w, z, load)
    finish_ok = np.all(close(finish, np.asarray(t_star)[:, None]) | ~full_mask, axis=1)
    padding_ok = np.all((alpha == 0.0) | full_mask, axis=1)
    return close(t_star, ref_t_star) & alpha_ok & sum_ok & finish_ok & padding_ok


def check_hybrid(t_hybrid, verified, ml_estimate, surrogate, ref_t_star, threshold: float) -> np.ndarray:
    """Hybrid answers, per query.

    On the exact branch the answer is the reference T* and the estimate was
    above the threshold; on the surrogate branch the answer is the surrogate
    estimate and that estimate was at or below the threshold. The hybrid's
    own estimate must equal the separately asked surrogate answer.
    """
    t_hybrid = np.asarray(t_hybrid, dtype=float)
    ml_estimate = np.asarray(ml_estimate, dtype=float)
    surrogate = np.asarray(surrogate, dtype=float)
    verified = np.asarray(verified, dtype=bool)
    exact_branch = verified & close(t_hybrid, ref_t_star) & (ml_estimate > threshold)
    ml_branch = ~verified & (t_hybrid == surrogate) & (surrogate <= threshold)
    return (exact_branch | ml_branch) & (ml_estimate == surrogate)


def check_surrogate(predictions) -> np.ndarray:
    """Surrogate outputs must be finite, positive makespans."""
    p = np.asarray(predictions, dtype=float)
    with np.errstate(invalid="ignore"):
        return np.isfinite(p) & (p > 0)


def r2(predictions, targets) -> float:
    p = np.asarray(predictions, dtype=float)
    y = np.asarray(targets, dtype=float)
    return float(1.0 - np.sum((p - y) ** 2) / np.sum((y - y.mean()) ** 2))


def mape_pct(predictions, targets) -> float:
    p = np.asarray(predictions, dtype=float)
    y = np.asarray(targets, dtype=float)
    return float(np.mean(np.abs(p - y) / y) * 100.0)


def check_report(reported: dict, predictions, targets) -> bool:
    """A machine-format metric report against R2 and MAPE recomputed here."""
    return bool(
        reported.get("count") == len(targets)
        and close(reported.get("r2", np.nan), r2(predictions, targets))
        and close(reported.get("mape_pct", np.nan), mape_pct(predictions, targets))
    )


DESK_R2_FLOOR = 0.95
DESK_MAPE_CEILING_PCT = 10.0


def check_desk_floor(test_r2: float, test_mape: float) -> bool:
    """The acceptance floor the desk model must reach on its test split."""
    return test_r2 >= DESK_R2_FLOOR and test_mape <= DESK_MAPE_CEILING_PCT


def reference_features(root_speed, speeds, bandwidths, mask, load) -> np.ndarray:
    """The 16 summary features in the dataset's canonical order, per system.

    Speed statistics are over child speeds (GFLOP/s), link statistics over
    bandwidths (MB/s); standard deviations use divisor n.
    """
    n = mask.sum(axis=1)

    def stats(values):
        v = np.where(mask, values, 0.0)
        mean = v.sum(axis=1) / n
        std = np.sqrt(np.where(mask, (values - mean[:, None]) ** 2, 0.0).sum(axis=1) / n)
        lo = np.where(mask, values, np.inf).min(axis=1)
        hi = np.where(mask, values, -np.inf).max(axis=1)
        return mean, std, lo, hi

    mw, sw, lw, hw = stats(speeds)
    mz, sz, lz, hz = stats(bandwidths)
    return np.stack(
        [n, load, mw, sw, lw, hw, mz, sz, lz, hz, root_speed, mw / mz, sw / mw, sz / mz, hw / lw, hz / lz],
        axis=1,
    )


def check_features(features, ref_features) -> np.ndarray:
    """Stored feature rows against the reference, per record."""
    return np.all(close(features, ref_features), axis=1)
