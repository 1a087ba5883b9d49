"""Exact divisible-load scheduling for single-level tree (star) networks.

A root processor distributes an arbitrarily divisible workload to n children
over sequential single-port links while computing its own share. All nodes
have communication front-ends, so computation overlaps transmission. The
minimal makespan is reached when every processor finishes at the same
instant, which reduces the problem to a chain of pairwise recursions with a
closed-form solution.

All rates here are in time form: seconds per GB of load, for both compute
(w) and transmission (z). Index 0 always refers to the root.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, NumericError

# Conversion factor between stated link bandwidth (MB/s) and per-GB
# transmission time: 1 GB = 1000 MB.
MB_PER_GB = 1000.0

DEFAULT_COMPUTE_INTENSITY = 100.0  # GFLOP of work per GB of load


@dataclass(frozen=True)
class SltnConfig:
    """Raw description of a star network: speeds, bandwidths, and the load.

    Speeds are GFLOPS/s, bandwidths MB/s, load GB. ``n`` counts child
    processors; the root is extra.
    """

    n: int
    root_speed: float
    child_speeds: tuple[float, ...]
    link_bandwidths: tuple[float, ...]
    load_gb: float

    def __post_init__(self):
        if self.n < 1:
            raise InvalidInputError(f"need at least one child processor, got n={self.n}")
        if len(self.child_speeds) != self.n or len(self.link_bandwidths) != self.n:
            raise InvalidInputError(
                f"expected {self.n} child speeds and bandwidths, got "
                f"{len(self.child_speeds)} and {len(self.link_bandwidths)}"
            )
        if self.load_gb <= 0:
            raise InvalidInputError(f"load must be positive, got {self.load_gb}")
        for name, values in (
            ("speed", (self.root_speed, *self.child_speeds)),
            ("bandwidth", self.link_bandwidths),
        ):
            for v in values:
                if not (v > 0 and math.isfinite(v)):
                    raise InvalidInputError(f"every {name} must be positive and finite, got {v}")


@dataclass(frozen=True)
class TimeRates:
    """Per-GB time costs: w0/w for compute, z for link transmission.

    Compute rates are strictly positive; link rates may be zero (an
    idealized free link) but not negative.
    """

    w0: float
    w: tuple[float, ...]
    z: tuple[float, ...]

    def __post_init__(self):
        if len(self.w) != len(self.z):
            raise InvalidInputError(
                f"need one link rate per child, got {len(self.w)} compute and {len(self.z)} link rates"
            )
        if not self.w:
            raise InvalidInputError("need at least one child processor")
        for v in (self.w0, *self.w):
            if not (v > 0 and math.isfinite(v)):
                raise InvalidInputError(f"compute rates must be positive and finite, got {v}")
        for v in self.z:
            if not (v >= 0 and math.isfinite(v)):
                raise InvalidInputError(f"link rates must be non-negative and finite, got {v}")

    @property
    def n(self) -> int:
        return len(self.w)


@dataclass(frozen=True)
class LoadAllocation:
    """Optimal load split: fractions per processor and the resulting makespan.

    ``alpha[0]`` is the root's share. ``t_star_norm`` is the makespan of a
    unit (1 GB) load in s/GB; ``t_star`` is the makespan of the full load in
    seconds.
    """

    alpha: tuple[float, ...]
    t_star_norm: float
    t_star: float

    def __post_init__(self):
        total = math.fsum(self.alpha)
        if abs(total - 1.0) > 1e-12:
            raise NumericError(f"load fractions sum to {total!r}, expected 1")
        for a in self.alpha:
            if not (0.0 < a < 1.0) or not math.isfinite(a):
                raise NumericError(
                    f"load fraction {a!r} outside (0, 1); rate spread too extreme for double precision"
                )
        if not (math.isfinite(self.t_star_norm) and self.t_star_norm > 0):
            raise NumericError(f"non-finite or non-positive makespan {self.t_star_norm!r}")

    @property
    def n(self) -> int:
        return len(self.alpha) - 1


@dataclass(frozen=True)
class TimingProfile:
    """Communication and compute completion instants for one allocation.

    ``comm_finish[i]`` is when child i+1 has fully received its share;
    ``compute_finish[0]`` is the root's finish time, ``compute_finish[i]``
    the finish time of child i.
    """

    comm_finish: tuple[float, ...]
    compute_finish: tuple[float, ...]

    @property
    def makespan(self) -> float:
        return max(self.compute_finish)


def to_time_rates(config: SltnConfig, compute_intensity: float = DEFAULT_COMPUTE_INTENSITY) -> TimeRates:
    """Convert speeds and bandwidths into per-GB time costs.

    ``compute_intensity`` is the work content of the load in GFLOP per GB,
    so w = intensity / speed and z = 1000 / bandwidth, both in s/GB.
    """
    if not (compute_intensity > 0 and math.isfinite(compute_intensity)):
        raise InvalidInputError(f"compute intensity must be positive and finite, got {compute_intensity}")
    return TimeRates(
        w0=compute_intensity / config.root_speed,
        w=tuple(compute_intensity / s for s in config.child_speeds),
        z=tuple(MB_PER_GB / b for b in config.link_bandwidths),
    )


def beta_coefficients(rates: TimeRates) -> list[float]:
    """Per-child ratios (z_i + w_i) / w_{i-1} linking consecutive optimal shares."""
    w_prev = rates.w0
    betas = []
    for w_i, z_i in zip(rates.w, rates.z):
        betas.append((z_i + w_i) / w_prev)
        w_prev = w_i
    return betas


def solve_optimal(rates: TimeRates, load_gb: float) -> LoadAllocation:
    """Closed-form optimal load split and makespan for a star network.

    The share chain alpha_{i-1} w_{i-1} = alpha_i (z_i + w_i) plus load
    conservation gives alpha_i proportional to the beta suffix product
    S_i = beta_{i+1} ... beta_n (S_n = 1). There is one route for every
    system: log S_i is summed from the last child back to the root, shifted
    by its maximum and exponentiated, so no product overflows whatever n,
    and the shares are normalised with an exact sum.

    Range: any system whose shares the double format holds as positive
    numbers, i.e. down to about 5e-324 of the largest share (with fewer
    significant digits below about 2e-308). A system whose smallest share
    underflows to zero, or whose beta coefficient leaves the double range,
    raises NumericError.
    """
    if not (load_gb > 0 and math.isfinite(load_gb)):
        raise InvalidInputError(f"load must be positive and finite, got {load_gb}")
    log_s = [0.0]
    for beta in reversed(beta_coefficients(rates)):
        if not 0.0 < beta < math.inf:
            raise NumericError(f"beta coefficient {beta!r} outside the double range; rate spread too extreme")
        log_s.append(log_s[-1] + math.log(beta))
    log_s.reverse()
    shift = max(log_s)
    scaled = [math.exp(v - shift) for v in log_s]
    denom = math.fsum(scaled)
    alpha = tuple(s / denom for s in scaled)
    t_star_norm = rates.w0 * alpha[0]
    return LoadAllocation(alpha=alpha, t_star_norm=t_star_norm, t_star=t_star_norm * load_gb)


def simulate_timeline(rates: TimeRates, alpha, load_gb: float) -> TimingProfile:
    """Replay any feasible allocation and report per-processor finish times.

    ``alpha`` is the n+1 load fractions (root first); it must sum to 1 but
    need not be optimal. Children receive their shares sequentially, so
    child i starts computing once transfers 1..i are done.
    """
    alpha = np.asarray(alpha, dtype=float)
    if alpha.shape != (rates.n + 1,):
        raise InvalidInputError(f"expected {rates.n + 1} load fractions, got shape {alpha.shape}")
    if abs(float(alpha.sum()) - 1.0) > 1e-9:
        raise InvalidInputError(f"load fractions sum to {float(alpha.sum())!r}, expected 1")
    z = np.asarray(rates.z)
    w = np.asarray(rates.w)
    comm_finish = load_gb * np.cumsum(alpha[1:] * z)
    child_finish = comm_finish + load_gb * alpha[1:] * w
    root_finish = load_gb * float(alpha[0]) * rates.w0
    return TimingProfile(
        comm_finish=tuple(float(c) for c in comm_finish),
        compute_finish=(root_finish, *(float(t) for t in child_finish)),
    )


def oracle_solve(rates: TimeRates, load_gb: float) -> LoadAllocation:
    """Optimal allocation via direct linear-system solution.

    Independent check on the closed form: builds the n simultaneous-finish
    equalities plus load conservation as an (n+1)x(n+1) system and solves it
    by Gaussian elimination, never touching the beta/suffix-product route.

    Its shares are accurate in absolute terms only. When betas fall below 1
    along the chain, small shares miss in relative terms: w0 = 1, w = (0.5,
    0.0078125, 1.22e-4, 1.43e-6, 4.47e-8, 4.47e-8), z = 0 is 1.25e-9 off the
    exact fractions, and 14 children with w falling from 0.0117 to 1.3e-17
    give a share of -6.4e-19 and ``NumericError``.
    """
    if not (load_gb > 0 and math.isfinite(load_gb)):
        raise InvalidInputError(f"load must be positive and finite, got {load_gb}")
    n = rates.n
    a = np.zeros((n + 1, n + 1))
    b = np.zeros(n + 1)
    w_prev = rates.w0
    for i in range(1, n + 1):
        a[i - 1, i - 1] = w_prev
        a[i - 1, i] = -(rates.z[i - 1] + rates.w[i - 1])
        w_prev = rates.w[i - 1]
    a[n, :] = 1.0
    b[n] = 1.0
    try:
        alpha = np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:  # unreachable for positive rates
        raise NumericError(f"singular finish-time system: {exc}") from exc
    alpha = alpha / math.fsum(alpha)  # absorb LU rounding in the conservation row
    t_star_norm = rates.w0 * float(alpha[0])
    return LoadAllocation(
        alpha=tuple(float(x) for x in alpha),
        t_star_norm=t_star_norm,
        t_star=t_star_norm * load_gb,
    )
