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
general, even for the given order (see :func:`solve_optimal`, which also
states its scope: every n up to ``datagen.MAX_N`` of the default box).

All rates here are in time form: seconds per GB of load, for both compute
(w) and transmission (z). Index 0 always refers to the root.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, NumericError

# Conversion factor between stated link bandwidth (MB/s) and per-GB
# transmission time: 1 GB = 1000 MB.
MB_PER_GB = 1000.0

DEFAULT_COMPUTE_INTENSITY = 100.0  # GFLOP of work per GB of load

_NUMBERS_PER_LINE = {"root_speed": 1, "load_gb": 1, "child": 2}  # in a system description
_TINY = sys.float_info.min  # 2**-1022, the smallest normal double


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
    seconds. Every share is in [0, 1]: 0.0 for a processor whose share is
    below the double range, 1.0 for one whose partners' shares are all below
    half an ulp of it.
    """

    alpha: tuple[float, ...]
    t_star_norm: float
    t_star: float

    def __post_init__(self):
        total = math.fsum(self.alpha)
        if abs(total - 1.0) > 1e-12:
            raise NumericError(f"load fractions sum to {total!r}, expected 1")
        for a in self.alpha:
            if not 0.0 <= a <= 1.0:
                raise NumericError(f"load fraction {a!r} outside [0, 1]")
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

    Lines: ``root_speed S`` and ``load_gb L`` once each, and one ``child
    SPEED BANDWIDTH`` per child processor, in the order the root serves
    them; a child's two numbers may also be written ``SPEED:BANDWIDTH``. A
    key and its numbers may be separated by ``=``, and ``#`` starts a
    comment. Errors name ``origin`` and the line.
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
        elif key in scalars:
            raise InvalidInputError(f"{origin}:{lineno}: repeated {key} line {raw.strip()!r}")
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

    The finish-time equalities alpha_{k-1} w_{k-1} = alpha_k (z_k + w_k)
    give child k a compute time of alpha_0 w0 c_k, where the discount
    c_k = prod_{i<=k} w_i / (z_i + w_i) never grows: each child acts as a
    processor slowed by the links ahead of it (Robertazzi's processor
    equivalence). So child k's share is proportional to the part
    c_{k-1} / (z_k + w_k), the root's to 1 / w0, and T* for 1 GB is one
    over the parts' sum. One forward pass computes the parts, each discount
    step dividing by (z_k + w_k) / w_k >= 1, and ``math.fsum`` adds them
    exactly. The parts are scaled by the smaller of w0 and z_1 + w_1, so
    that the first two are at most 1 and one of them is 1: their sum is at
    least 1, and a part below the normal range is a share below it too.

    Range: every n up to ``datagen.MAX_N`` of the default sampling box has
    an answer. A share below the double range is 0.0, and one whose
    partners are all below half an ulp of it is 1.0. A system raises
    NumericError when double precision cannot give T* and every normal
    share to within rounding: a makespan below 2**-1022 s/GB, parts past
    the double range (a compute rate near 1e-308), a discount step past the
    double range, or a discount that falls below 2**-1022 ahead of a child
    whose z + w is so small that its share could still be a normal number.
    """
    if not 0.0 < load_gb < math.inf:
        raise InvalidInputError(f"load must be positive and finite, got {load_gb}")
    scale = min(rates.w0, rates.z[0] + rates.w[0])
    parts = [scale / rates.w0]
    c = scale
    for w, z in zip(rates.w, rates.z):
        d = z + w
        parts.append(c / d)
        c /= d / w
    try:
        total = math.fsum(parts)
    except OverflowError:  # parts past the double range, which the check below refuses
        total = math.inf
    t_star_norm = scale / total
    if not t_star_norm >= _TINY or c < _TINY and not _tail_is_subnormal(rates, total):
        raise NumericError(
            "compute and link rates span too wide a range for double precision: "
            "a makespan or a load fraction would lose its digits"
        )
    alpha = tuple([p / total for p in parts])
    return LoadAllocation(alpha=alpha, t_star_norm=t_star_norm, t_star=t_star_norm * load_gb)


def _tail_is_subnormal(rates: TimeRates, total: float) -> bool:
    """Whether every share after the discount fell below 2**-1022 is below
    it too, and so within 2**-1022 of its exact value: each such part is at
    most 2**-1022 / (z + w), over a ``total`` of at least 1. A discount
    step (z + w) / w past the double range cuts the discount to zero from
    any size, so it answers no."""
    links = [z + w for w, z in zip(rates.w, rates.z)]
    return total * min(links) >= 2.0 and max([d / w for d, w in zip(links, rates.w)]) < math.inf


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

    It builds the n simultaneous-finish equalities plus load conservation
    as an (n+1)x(n+1) system and solves it by Gaussian elimination, never
    touching the product chain. It is kept for the benchmark alone, which
    checks the closed form against it and times it as a reference cost; the
    tests check the closed form against exact rational arithmetic.

    Its shares are accurate in absolute terms only. When betas fall below 1
    along the chain, small shares miss in relative terms: w0 = 1, w = (0.5,
    0.0078125, 1.22e-4, 1.43e-6, 4.47e-8, 4.47e-8), z = 0 is 1.23e-9 off the
    exact fractions.
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
