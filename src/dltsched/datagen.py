"""Synthetic dataset generation for the makespan surrogate.

Samples random star-network configurations over a parameter box, in
order from one random stream per dataset, labels each with the exact
equal-finish makespan, summarizes it into a fixed 16-value feature vector,
splits it stratified by system size, and fits the z-score statistics that
``mlp`` trains and predicts with, scaling a column of one value by 1. The
line-delimited file format keeps the raw configuration next to each record
so labels can always be replayed against the exact solver.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import codec
from .errors import FileFormatError, InvalidInputError, NumericError, StratificationError
from .solver import DEFAULT_COMPUTE_INTENSITY, SltnConfig, solve_optimal, to_time_rates

DATASET_FORMAT = "dltsched-dataset"
FORMAT_VERSION = 2
STD_CONVENTION = "population"  # divisor n in every std feature

TRAIN_FRACTION = 0.8
VAL_FRACTION = 0.1
_MIN_STRATUM = 10
# Children per system: 16 MB of speeds and bandwidths per record as arrays;
# generating two such records, held whole until written, peaked at 444 MB.
MAX_N = 1_000_000


@dataclass(frozen=True)
class SamplerRanges:
    """Uniform sampling box for configurations. The bounds of ``n_range``
    are integers, the largest at most ``MAX_N``; every bound is positive
    and finite, and each pair in order. Any other box raises
    :class:`InvalidInputError`."""

    n_range: tuple[int, int] = (3, 20)
    load_range: tuple[float, float] = (1.0, 100.0)
    speed_range: tuple[float, float] = (1.0, 15.0)
    bandwidth_range: tuple[float, float] = (10.0, 150.0)

    def __post_init__(self):
        if not all(type(v) is int for v in self.n_range) or max(self.n_range) > MAX_N:
            raise InvalidInputError(f"n_range must be two integers, neither above {MAX_N:,}, got {self.n_range}")
        for name, (lo, hi) in (
            ("n_range", self.n_range),
            ("load_range", self.load_range),
            ("speed_range", self.speed_range),
            ("bandwidth_range", self.bandwidth_range),
        ):
            if not 0 < lo <= hi < math.inf:
                raise InvalidInputError(f"{name} must satisfy 0 < min <= max < inf, got ({lo}, {hi})")


class FeatureVector(NamedTuple):
    """The 16 summary features describing one configuration, in canonical
    order; model files are meaningless without that order.

    Speed statistics (mean_w .. max_w, w0) are GFLOPS/s over the child
    speeds, bandwidth statistics (mean_z .. max_z) MB/s over the links; the
    root speed is its own feature and excluded from the child statistics.
    Standard deviations are population (divisor n). Every field is a float.
    """

    n: float
    load_gb: float
    mean_w: float
    std_w: float
    min_w: float
    max_w: float
    mean_z: float
    std_z: float
    min_z: float
    max_z: float
    w0: float
    comp_comm_ratio: float
    cv_w: float
    cv_z: float
    heterog_w: float
    heterog_z: float

    def as_array(self) -> np.ndarray:
        return np.fromiter(self, float, N_FEATURES)


FEATURE_NAMES = FeatureVector._fields
N_FEATURES = len(FEATURE_NAMES)


@dataclass(frozen=True, eq=False)
class Dataset:
    """Labeled configurations: row ``i`` of ``features`` (shape (count, 16),
    ``FEATURE_NAMES`` order) and ``t_star[i]`` describe ``configs[i]``. The
    constructor copies both into read-only float64 arrays."""

    configs: tuple[SltnConfig, ...]
    features: np.ndarray
    t_star: np.ndarray

    def __post_init__(self):
        features, t_star = _read_only(self.features), _read_only(self.t_star)
        count = len(self.configs)
        if features.shape != (count, N_FEATURES) or t_star.shape != (count,):
            raise InvalidInputError(
                f"{count} configs need shapes ({count}, {N_FEATURES}) and ({count},), "
                f"got {features.shape} and {t_star.shape}"
            )
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "t_star", t_star)

    def __len__(self) -> int:
        return len(self.configs)

    def take(self, rows) -> "Dataset":
        """The records at the integer indices ``rows``, in that order."""
        rows = np.asarray(rows, dtype=np.intp)
        return Dataset(tuple(self.configs[i] for i in rows.tolist()), self.features[rows], self.t_star[rows])

    def column(self, name: str) -> np.ndarray:
        """The feature column called ``name``, one value per record."""
        return self.features[:, FEATURE_NAMES.index(name)]


@dataclass(frozen=True)
class DatasetHeader:
    """What generation was asked for; ``save_dataset`` adds the rest.
    ``sha256`` is the hex SHA-256 of the bytes :func:`load_dataset` parsed,
    ``None`` for a header not read from a file; equality ignores it. A seed
    outside [0, 2**64) or an intensity not positive and finite raises
    :class:`InvalidInputError`."""

    seed: int
    ranges: SamplerRanges
    compute_intensity: float
    sha256: str | None = field(default=None, compare=False)

    def __post_init__(self):
        codec.integer(self.seed, "seed")
        if not 0 < self.compute_intensity < math.inf:
            raise InvalidInputError(f"compute_intensity must be positive and finite, got {self.compute_intensity!r}")


@dataclass(frozen=True)
class NormalizationStats:
    """Per-feature and target z-score statistics, fitted on training data only."""

    feature_means: tuple[float, ...]
    feature_stds: tuple[float, ...]
    target_mean: float
    target_std: float

    def __post_init__(self):
        if len(self.feature_means) != N_FEATURES or len(self.feature_stds) != N_FEATURES:
            raise InvalidInputError(f"expected {N_FEATURES} feature statistics")
        if not all(map(math.isfinite, (*self.feature_means, self.target_mean))):
            raise InvalidInputError("every mean must be finite")
        if any(not 0 < s < math.inf for s in (*self.feature_stds, self.target_std)):
            raise InvalidInputError("every standard deviation must be positive and finite")


def _read_only(values) -> np.ndarray:
    arr = np.array(values, dtype=float)
    arr.flags.writeable = False
    return arr


def sample_config(rng: np.random.Generator, ranges: SamplerRanges = SamplerRanges()) -> SltnConfig:
    """Draw one uniform random configuration. Draw order is fixed: n, load,
    root speed, child speeds, bandwidths."""
    n = int(rng.integers(ranges.n_range[0], ranges.n_range[1] + 1))
    load = float(rng.uniform(*ranges.load_range))
    root_speed = float(rng.uniform(*ranges.speed_range))
    child_speeds = rng.uniform(*ranges.speed_range, size=n)
    bandwidths = rng.uniform(*ranges.bandwidth_range, size=n)
    return SltnConfig(
        n=n,
        root_speed=root_speed,
        child_speeds=tuple(child_speeds.tolist()),
        link_bandwidths=tuple(bandwidths.tolist()),
        load_gb=load,
    )


def extract_features(config: SltnConfig) -> FeatureVector:
    """Summarize a variable-size configuration into the fixed feature vector.

    Plain Python over the config's tuples: at most a few dozen floats, where
    numpy's per-call overhead would cost more than the arithmetic. Sums use
    ``math.fsum``, so means and standard deviations are correctly rounded
    sums divided by ``n``. A sum or square beyond the double range (two
    1e308-GFLOPS children) raises :class:`NumericError`.
    """
    speeds = config.child_speeds
    bws = config.link_bandwidths
    n = len(speeds)
    try:
        mean_w = math.fsum(speeds) / n
        std_w = math.sqrt(math.fsum([(v - mean_w) ** 2 for v in speeds]) / n)
        mean_z = math.fsum(bws) / n
        std_z = math.sqrt(math.fsum([(v - mean_z) ** 2 for v in bws]) / n)
    except OverflowError as exc:
        raise NumericError(f"system is outside the surrogate's range: its features overflow ({exc})") from exc
    min_w, max_w = float(min(speeds)), float(max(speeds))
    min_z, max_z = float(min(bws)), float(max(bws))
    return FeatureVector(
        float(config.n),
        float(config.load_gb),
        mean_w,
        std_w,
        min_w,
        max_w,
        mean_z,
        std_z,
        min_z,
        max_z,
        float(config.root_speed),
        mean_w / mean_z,
        std_w / mean_w,
        std_z / mean_z,
        max_w / min_w,
        max_z / min_z,
    )


def make_record(config: SltnConfig, compute_intensity: float) -> tuple[FeatureVector, float]:
    """Features and exact equal-finish makespan of one configuration."""
    alloc = solve_optimal(to_time_rates(config, compute_intensity), config.load_gb)
    return extract_features(config), alloc.t_star


def generate_dataset(
    count: int,
    seed: int,
    ranges: SamplerRanges = SamplerRanges(),
    compute_intensity: float = DEFAULT_COMPUTE_INTENSITY,
    progress=None,
) -> Dataset:
    """Generate ``count`` labeled records, drawn in order from one generator
    seeded with ``seed``, so a smaller count gives a prefix of a larger one.
    Every record is held in memory until the caller writes the dataset.
    Labels come from the exact solver; solver errors propagate (no silent
    resampling). ``progress`` is an optional callback taking records done."""
    if count < 1:
        raise InvalidInputError(f"count must be >= 1, got {count}")
    rng = np.random.default_rng(codec.integer(seed, "seed"))
    configs = []
    features = np.empty((count, N_FEATURES))
    t_star = np.empty(count)
    for i in range(count):
        config = sample_config(rng, ranges)
        configs.append(config)
        features[i], t_star[i] = make_record(config, compute_intensity)
        if progress is not None and (i + 1) % max(1, count // 20) == 0:
            progress(i + 1)
    return Dataset(tuple(configs), features, t_star)


def split_dataset(dataset: Dataset, seed: int) -> tuple[Dataset, Dataset, Dataset]:
    """80/10/10 split, stratified by n so every system size is represented in
    each split in proportion to its frequency. Strata go in ascending n, each
    shuffled from dataset order by one permutation drawn from ``seed``."""
    if not len(dataset):
        raise InvalidInputError("cannot split an empty dataset")
    codec.integer(seed, "split seed")
    ns = dataset.column("n")
    rng = np.random.default_rng(seed)
    parts: tuple[list, list, list] = ([], [], [])
    for n in np.unique(ns):
        members = np.flatnonzero(ns == n)
        if members.size < _MIN_STRATUM:
            raise StratificationError(
                f"stratum n={int(n)} has only {members.size} records; need at least "
                f"{_MIN_STRATUM} per system size (generate a larger dataset)"
            )
        shuffled = rng.permutation(members)
        n_val = round(VAL_FRACTION * members.size)
        n_test = round((1.0 - TRAIN_FRACTION - VAL_FRACTION) * members.size)
        n_train = members.size - n_val - n_test
        for part, rows in zip(parts, np.split(shuffled, [n_train, n_train + n_val])):
            part.append(rows)
    return tuple(dataset.take(np.concatenate(part)) for part in parts)


def labeled_rows(features, t_star, what: str) -> tuple[np.ndarray, np.ndarray]:
    """``features`` and ``t_star`` as float64 arrays if they are a training or
    validation set, a nonempty set of finite feature rows with one finite
    makespan each; otherwise :class:`InvalidInputError` naming ``what``."""
    x, y = np.asarray(features, dtype=float), np.asarray(t_star, dtype=float)
    if y.ndim != 1 or not len(y) or x.shape != (len(y), N_FEATURES):
        raise InvalidInputError(f"{what}: need a nonempty set of {N_FEATURES}-feature rows, one per makespan; got {x.shape}, {y.shape}")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise InvalidInputError(f"{what}: every feature and makespan must be finite")
    return x, y


def _scale(values: np.ndarray) -> np.ndarray:
    """Population std along axis 0, or 1 where the values are all equal (2.2
    repeated has a std of 1e-13, its mean's rounding) or the std is 0. Where
    the squares of finite values overflow (labels near 1e204), the std is
    taken on the values divided by their largest magnitude and scaled back."""
    with np.errstate(over="ignore"):
        std = values.std(axis=0)
    if not np.isfinite(std).all():
        unit = np.where(np.isfinite(std), 1.0, np.abs(values).max(axis=0))
        std = (values / unit).std(axis=0) * unit
    return np.where((values.min(axis=0) < values.max(axis=0)) & (std > 0), std, 1.0)


def fit_normalization(features, t_star) -> NormalizationStats:
    """Fit z-score statistics on training feature rows and their makespans.
    A column or target of one value is scaled by 1, so it z-scores to 0; a
    model fitted on it has never seen another value of that column."""
    x, y = labeled_rows(features, t_star, "training set")
    return NormalizationStats(
        feature_means=tuple(float(m) for m in x.mean(axis=0)),
        feature_stds=tuple(float(s) for s in _scale(x)),
        target_mean=float(y.mean()),
        target_std=float(_scale(y)),
    )


def _record_from_json(obj: dict) -> tuple[SltnConfig, list, float]:
    """The configuration, feature row and label of one parsed record."""
    config = obj["config"]
    return (
        SltnConfig(
            n=codec.integer(config["n"], "n"),
            root_speed=codec.number(config["root_speed"], "root_speed"),
            child_speeds=tuple(codec.numbers(config["child_speeds"], what="child_speeds")),
            link_bandwidths=tuple(codec.numbers(config["link_bandwidths"], what="link_bandwidths")),
            load_gb=codec.number(config["load_gb"], "load_gb"),
        ),
        codec.numbers(obj["features"], N_FEATURES, "features"),
        codec.number(obj["t_star"], "t_star"),
    )


def save_dataset(path, dataset: Dataset, header: DatasetHeader) -> None:
    """Write header plus one compact JSON record per line. Identical inputs
    produce byte-identical files.

    A non-finite feature or label, or a value JSON cannot encode, raises
    :class:`InvalidInputError` before any byte is written.
    """
    if not (np.isfinite(dataset.features).all() and np.isfinite(dataset.t_star).all()):
        raise InvalidInputError("every feature and t_star must be finite")
    lines = [
        codec.dumps(
            {
                "format": DATASET_FORMAT,
                "version": FORMAT_VERSION,
                "seed": header.seed,
                "count": len(dataset),
                "ranges": {
                    "n": list(header.ranges.n_range),
                    "load_gb": list(header.ranges.load_range),
                    "speed": list(header.ranges.speed_range),
                    "bandwidth": list(header.ranges.bandwidth_range),
                },
                "compute_intensity": header.compute_intensity,
                "std_convention": STD_CONVENTION,
            }
        )
    ]
    for config, row, t_star in zip(dataset.configs, dataset.features.tolist(), dataset.t_star.tolist()):
        lines.append(codec.dumps({"config": config, "features": row, "t_star": t_star}))
    Path(path).write_bytes(b"\n".join(lines) + b"\n")


def load_dataset(path) -> tuple[DatasetHeader, Dataset]:
    """Read a file written by :func:`save_dataset`.

    A file that breaks the README's file rules raises
    :class:`FileFormatError` naming the line; so do a header that
    :class:`DatasetHeader` refuses, a ``t_star`` that is not positive and a
    record count other than the header's.
    """
    data = codec.read_file(path)
    digest = hashlib.sha256(data).hexdigest()
    lines = data.splitlines()
    del data  # parse from the lines alone, without the file's bytes held beside them
    if not lines:
        raise FileFormatError(f"{path}: empty dataset file")
    head = codec.read(lines[0], f"{path}: malformed header")
    if not isinstance(head, dict):
        raise FileFormatError(f"{path}: malformed header: not a JSON object")
    if head.get("format") != DATASET_FORMAT:
        raise FileFormatError(f"{path}: not a dataset file (format={head.get('format')!r})")
    if head.get("version") != FORMAT_VERSION:
        raise FileFormatError(f"{path}: unsupported dataset version {head.get('version')!r}")
    try:
        bounds = head["ranges"]
        ranges = SamplerRanges(
            n_range=tuple(codec.numbers(bounds["n"], 2, "n range")),
            load_range=tuple(codec.numbers(bounds["load_gb"], 2, "load_gb range")),
            speed_range=tuple(codec.numbers(bounds["speed"], 2, "speed range")),
            bandwidth_range=tuple(codec.numbers(bounds["bandwidth"], 2, "bandwidth range")),
        )
        intensity = codec.number(head["compute_intensity"], "compute_intensity")
        header = DatasetHeader(seed=head["seed"], ranges=ranges, compute_intensity=intensity, sha256=digest)
        count = codec.integer(head["count"], "count")
        std_convention = head["std_convention"]
    except (KeyError, TypeError, ValueError) as exc:
        raise FileFormatError(f"{path}: malformed header: {exc}") from exc
    if std_convention != STD_CONVENTION:
        raise FileFormatError(f"{path}: std_convention must be {STD_CONVENTION!r}, got {std_convention!r}")
    configs, rows, labels = [], [], []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        where = f"{path}:{lineno}: malformed record"
        try:
            config, row, t_star = _record_from_json(codec.read(line, where))
        except (KeyError, TypeError, ValueError) as exc:
            raise FileFormatError(f"{where}: {exc}") from exc
        if t_star <= 0:
            raise FileFormatError(f"{path}:{lineno}: t_star must be positive, got {t_star!r}")
        configs.append(config)
        rows.append(row)
        labels.append(t_star)
    if len(configs) != count:
        raise FileFormatError(f"{path}: header says {count} records, found {len(configs)}")
    if not configs:
        raise FileFormatError(f"{path}: no records")
    return header, Dataset(tuple(configs), np.reshape(rows, (count, N_FEATURES)), labels)
