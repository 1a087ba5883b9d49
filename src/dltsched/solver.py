"""Exact divisible-load scheduling for single-level tree (star) networks.

A root processor distributes an arbitrarily divisible workload to n children
while computing its own share. The model assumes:

- linear costs: computing or sending a fraction of the load takes that
  fraction of the whole load's time;
- no start-up latency on any link or processor;
- front-ends: the root computes its own share while it transmits, and a
  child computes once its whole share has arrived;
- single-port sequential distribution: the root sends one share at a time,
  to the children in the order given;
- no result return: a processor is done when it finishes computing.

The solver computes the split at which every processor, with the children
served in the given order, finishes at the same instant: a chain of pairwise
recursions with a closed-form solution. That split is not optimal in
general, even for the given order (see :func:`solve_optimal`).

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

_NUMBERS_PER_LINE = {"root_speed": 1, "load_gb": 1, "child": 2}  # in a system description


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
        if not 0 < self.load_gb < math.inf:
            raise InvalidInputError(f"load must be positive and finite, got {self.load_gb}")
        for name, values in (
            ("speed", (self.root_speed, *self.child_speeds)),
            ("bandwidth", self.link_bandwidths),
        ):
            for v in values:
                if not 0.0 < v < math.inf:
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
            if not 0.0 < v < math.inf:
                raise InvalidInputError(f"compute rates must be positive and finite, got {v}")
        for v in self.z:
            if not 0.0 <= v < math.inf:
                raise InvalidInputError(f"link rates must be non-negative and finite, got {v}")

    @property
    def n(self) -> int:
        return len(self.w)


@dataclass(frozen=True)
class LoadAllocation:
    """Equal-finish load split: fractions per processor and the resulting makespan.

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
            if not 0.0 < a < 1.0:
                raise NumericError(
                    f"load fraction {a!r} outside (0, 1); rate spread too extreme for double precision"
                )
        if not 0.0 < self.t_star_norm < math.inf:
            raise NumericError(f"non-finite or non-positive makespan {self.t_star_norm!r}")
        if not 0 < self.t_star < math.inf:
            raise NumericError(f"makespan {self.t_star!r} s outside the double range; load too large or too small")


@dataclass(frozen=True)
class TimingProfile:
    """Communication and compute completion instants for one allocation.

    ``comm_finish[i]`` is when child i+1 has fully received its share;
    ``compute_finish[0]`` is the root's finish time, ``compute_finish[i]``
    the finish time of child i.
    """

    comm_finish: tuple[float, ...]
    compute_finish: tuple[float, ...]


def parse_system(text: str, origin: str = "<config>") -> SltnConfig:
    """The system a description gives, one entry per line.

    Lines: ``root_speed S``, ``load_gb L``, and one ``child SPEED BANDWIDTH``
    per child processor, in the order the root serves them; a child's two
    numbers may also be written ``SPEED:BANDWIDTH``. A key and its numbers
    may be separated by ``=``, and ``#`` starts a comment. Errors name
    ``origin`` and the line.
    """
    scalars: dict[str, float] = {}
    children: list[list[float]] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, *values = line.replace("=", " ").split()
        if key == "child" and len(values) == 1:
            values = values[0].split(":")
        if len(values) != _NUMBERS_PER_LINE.get(key):
            raise InvalidInputError(f"{origin}:{lineno}: unrecognized line {raw.strip()!r}")
        try:
            numbers = [float(v) for v in values]
        except ValueError as exc:
            raise InvalidInputError(f"{origin}:{lineno}: {exc} in {raw.strip()!r}") from exc
        if key == "child":
            children.append(numbers)
        else:
            scalars[key] = numbers[0]
    if len(scalars) < 2 or not children:
        raise InvalidInputError(f"{origin}: need root_speed, load_gb, and at least one child line")
    return SltnConfig(
        n=len(children),
        root_speed=scalars["root_speed"],
        child_speeds=tuple(speed for speed, _ in children),
        link_bandwidths=tuple(bandwidth for _, bandwidth in children),
        load_gb=scalars["load_gb"],
    )


def to_time_rates(config: SltnConfig, compute_intensity: float = DEFAULT_COMPUTE_INTENSITY) -> TimeRates:
    """Convert speeds and bandwidths into per-GB time costs.

    ``compute_intensity`` is the work content of the load in GFLOP per GB,
    so w = intensity / speed and z = 1000 / bandwidth, both in s/GB.
    """
    if not 0.0 < compute_intensity < math.inf:
        raise InvalidInputError(f"compute intensity must be positive and finite, got {compute_intensity}")
    return TimeRates(
        w0=compute_intensity / config.root_speed,
        w=tuple(compute_intensity / s for s in config.child_speeds),
        z=tuple(MB_PER_GB / b for b in config.link_bandwidths),
    )


def beta_coefficients(rates: TimeRates) -> list[float]:
    """Per-child ratios (z_i + w_i) / w_{i-1} linking consecutive equal-finish shares."""
    w_prev = rates.w0
    betas = []
    for w_i, z_i in zip(rates.w, rates.z):
        betas.append((z_i + w_i) / w_prev)
        w_prev = w_i
    return betas


# Bounds of the running share in solve_optimal: a step by any beta in the
# double range from inside them is recovered by _rescale.
_SHARE_LOW = 2.0**-960
_SHARE_HIGH = 2.0**960


def solve_optimal(rates: TimeRates, load_gb: float) -> LoadAllocation:
    """Closed-form equal-finish load split and makespan for a star network.

    The split at which the root and every child, served in the order given,
    finish at the same instant. It is not optimal in general, even for that
    order: another order, leaving out a child with a slow link, or giving
    that child an almost empty share can finish sooner. At intensity 100,
    the README's system (root 10, children 5:100, 8:40, 12:75, 25 GB) takes
    154.93 s as given, 146.25 s with its children in ascending link time
    (5:100, 12:75, 8:40) and 152.34 s with 8:40 left out. In the given
    order, a share of 1e-6 for 8:40 and the two-child split of the rest
    finish at 152.344 s.

    The share chain alpha_{i-1} w_{i-1} = alpha_i (z_i + w_i) is a product
    chain: with the root's share set to 1, each child's share is the one
    before it divided by beta_i = (z_i + w_i) / w_{i-1}, one forward pass
    over the children. There is one route for every system: whenever the
    running share leaves [2**-960, 2**960], every share so far is multiplied
    by the same power of two, chosen so that the largest stays below 2**960,
    so no product overflows whatever n; the multiplication is exact for
    every share that stays in the normal range. The shares are then
    normalised with an exact sum.

    Range: any system whose shares the double format holds as positive
    numbers, i.e. down to about 5e-324 of the largest share (with fewer
    significant digits below about 2e-308). A system whose smallest share
    underflows to zero, or whose beta coefficient leaves the double range,
    raises NumericError.
    """
    if not 0.0 < load_gb < math.inf:
        raise InvalidInputError(f"load must be positive and finite, got {load_gb}")
    shares = [1.0]
    share = 1.0
    w_prev = rates.w0
    for w_i, z_i in zip(rates.w, rates.z):
        beta = (z_i + w_i) / w_prev
        if not 0.0 < beta < math.inf:
            raise NumericError(f"beta coefficient {beta!r} outside the double range; rate spread too extreme")
        share /= beta
        if not _SHARE_LOW <= share <= _SHARE_HIGH:
            share = _rescale(shares, beta)
        shares.append(share)
        w_prev = w_i
    denom = math.fsum(shares)
    alpha = tuple([s / denom for s in shares])
    t_star_norm = rates.w0 * alpha[0]
    return LoadAllocation(alpha=alpha, t_star_norm=t_star_norm, t_star=t_star_norm * load_gb)


def _rescale(shares: list[float], beta: float) -> float:
    """The next share, ``shares[-1] / beta``, with it and every share in
    ``shares`` multiplied in place by one power of two: the one that brings
    the new share into [0.5, 1), or as near as keeps the largest share below
    2**960.

    Raises NumericError if the new share still falls below 2**-960, since it
    is then under 2**-1919 of the largest and its fraction underflows.
    """
    m, e = math.frexp(shares[-1])
    m_beta, e_beta = math.frexp(beta)
    mantissa, e_next = math.frexp(m / m_beta)  # one rounding, as share / beta has in range
    e_next += e - e_beta
    _, e_top = math.frexp(max(shares))
    power = min(-e_next, 960 - e_top)
    shares[:] = [math.ldexp(s, power) for s in shares]
    share = math.ldexp(mantissa, e_next + power)
    if share < _SHARE_LOW:
        raise NumericError("load fraction below 2**-1919 of the largest; rate spread too extreme for double precision")
    return share


def simulate_timeline(rates: TimeRates, alpha, load_gb: float) -> TimingProfile:
    """Replay any feasible allocation and report per-processor finish times.

    ``alpha`` is the n+1 load fractions (root first); each must be
    non-negative and finite and they must sum to 1, but they need not be
    optimal. Children receive their shares sequentially, so child i starts
    computing once transfers 1..i are done.
    """
    if not 0.0 < load_gb < math.inf:
        raise InvalidInputError(f"load must be positive and finite, got {load_gb}")
    alpha = np.asarray(alpha, dtype=float)
    if alpha.shape != (rates.n + 1,):
        raise InvalidInputError(f"expected {rates.n + 1} load fractions, got shape {alpha.shape}")
    if not ((0.0 <= alpha) & (alpha < math.inf)).all():
        raise InvalidInputError(f"every load fraction must be non-negative and finite, got {alpha.tolist()}")
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
    """The equal-finish allocation of :func:`solve_optimal`, by direct
    linear-system solution; like it, not optimal in general.

    Independent check on the closed form: builds the n simultaneous-finish
    equalities plus load conservation as an (n+1)x(n+1) system and solves it
    by Gaussian elimination, never touching the beta/suffix-product route.

    Its shares are accurate in absolute terms only. When betas fall below 1
    along the chain, small shares miss in relative terms: w0 = 1, w = (0.5,
    0.0078125, 1.22e-4, 1.43e-6, 4.47e-8, 4.47e-8), z = 0 is 1.25e-9 off the
    exact fractions, and 14 children with w falling from 0.0117 to 1.3e-17
    give a share of -6.4e-19 and ``NumericError``.
    """
    if not 0.0 < load_gb < math.inf:
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
