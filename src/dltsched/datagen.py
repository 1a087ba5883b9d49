"""Synthetic dataset generation for the makespan surrogate.

Samples random star-network configurations over a parameter box, labels each
with the exact optimal makespan, summarizes it into a fixed 16-value feature
vector, and handles stratified splitting plus z-score normalization. The
line-delimited file format keeps the raw configuration next to each record
so labels can always be replayed against the exact solver.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import ConstantFeatureError, FileFormatError, InvalidInputError, StratificationError
from .solver import DEFAULT_COMPUTE_INTENSITY, SltnConfig, solve_optimal, to_time_rates

DATASET_FORMAT = "dltsched-dataset"
FORMAT_VERSION = 1
STD_CONVENTION = "population"  # divisor n in every std feature

TRAIN_FRACTION = 0.8
VAL_FRACTION = 0.1
_MIN_STRATUM = 10


@dataclass(frozen=True)
class SamplerRanges:
    """Uniform sampling box for configurations."""

    n_range: tuple[int, int] = (3, 20)
    load_range: tuple[float, float] = (1.0, 100.0)
    speed_range: tuple[float, float] = (1.0, 15.0)
    bandwidth_range: tuple[float, float] = (10.0, 150.0)

    def __post_init__(self):
        for name, (lo, hi) in (
            ("n_range", self.n_range),
            ("load_range", self.load_range),
            ("speed_range", self.speed_range),
            ("bandwidth_range", self.bandwidth_range),
        ):
            if not (0 < lo <= hi):
                raise InvalidInputError(f"{name} must satisfy 0 < min <= max, got ({lo}, {hi})")


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
        return np.array(self, dtype=float)


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
    """What generation was asked for; ``save_dataset`` adds the rest."""

    seed: int
    ranges: SamplerRanges
    compute_intensity: float


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
            raise ConstantFeatureError("every standard deviation must be positive and finite")

    @cached_property
    def mean_array(self) -> np.ndarray:
        """``feature_means`` as a read-only array, built once per instance."""
        return _read_only(self.feature_means)

    @cached_property
    def std_array(self) -> np.ndarray:
        """``feature_stds`` as a read-only array, built once per instance."""
        return _read_only(self.feature_stds)


def _read_only(values) -> np.ndarray:
    arr = np.array(values, dtype=float)
    arr.flags.writeable = False
    return arr


def record_rng(seed: int, index: int) -> np.random.Generator:
    """Independent per-record generator; counter-based so parallel and serial
    generation produce identical datasets."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))


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
    sums divided by ``n``.
    """
    speeds = config.child_speeds
    bws = config.link_bandwidths
    n = len(speeds)
    mean_w = math.fsum(speeds) / n
    std_w = math.sqrt(math.fsum([(v - mean_w) ** 2 for v in speeds]) / n)
    mean_z = math.fsum(bws) / n
    std_z = math.sqrt(math.fsum([(v - mean_z) ** 2 for v in bws]) / n)
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
    """Features and exact optimal makespan of one configuration."""
    alloc = solve_optimal(to_time_rates(config, compute_intensity), config.load_gb)
    return extract_features(config), alloc.t_star


def generate_dataset(
    count: int,
    seed: int,
    ranges: SamplerRanges = SamplerRanges(),
    compute_intensity: float = DEFAULT_COMPUTE_INTENSITY,
    progress=None,
) -> Dataset:
    """Generate ``count`` labeled records, deterministic in ``seed``.

    Labels come from the exact solver; solver errors propagate (no silent
    resampling). ``progress`` is an optional callback taking records done.
    """
    if count < 1:
        raise InvalidInputError(f"count must be >= 1, got {count}")
    configs = []
    features = np.empty((count, N_FEATURES))
    t_star = np.empty(count)
    for i in range(count):
        config = sample_config(record_rng(seed, i), ranges)
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


def fit_normalization(train: Dataset) -> NormalizationStats:
    """Fit z-score statistics on the training records only."""
    if not len(train):
        raise InvalidInputError("cannot fit normalization on an empty set")
    x, y = train.features, train.t_star
    stds = x.std(axis=0)
    for name, s in zip(FEATURE_NAMES, stds):
        if s <= 0:
            raise ConstantFeatureError(f"feature {name!r} is constant on the training set")
    if y.std() <= 0:
        raise ConstantFeatureError("target is constant on the training set")
    return NormalizationStats(
        feature_means=tuple(float(m) for m in x.mean(axis=0)),
        feature_stds=tuple(float(s) for s in stds),
        target_mean=float(y.mean()),
        target_std=float(y.std()),
    )


def apply_normalization(stats: NormalizationStats, features, target=None):
    """Z-score features (array of shape (..., 16)); also the target when
    given. Inverse of :func:`denormalize_target` on the target."""
    x = (np.asarray(features, dtype=float) - stats.mean_array) / stats.std_array
    if target is None:
        return x
    y = (np.asarray(target, dtype=float) - stats.target_mean) / stats.target_std
    return x, y


def denormalize_target(stats: NormalizationStats, y_norm):
    return np.asarray(y_norm, dtype=float) * stats.target_std + stats.target_mean


def _config_to_json(config: SltnConfig) -> dict:
    return {
        "n": config.n,
        "root_speed": config.root_speed,
        "child_speeds": list(config.child_speeds),
        "link_bandwidths": list(config.link_bandwidths),
        "load_gb": config.load_gb,
    }


def _config_from_json(obj: dict) -> SltnConfig:
    return SltnConfig(
        n=int(obj["n"]),
        root_speed=float(obj["root_speed"]),
        child_speeds=tuple(map(float, obj["child_speeds"])),
        link_bandwidths=tuple(map(float, obj["link_bandwidths"])),
        load_gb=float(obj["load_gb"]),
    )


def save_dataset(path, dataset: Dataset, header: DatasetHeader) -> None:
    """Write header plus one JSON record per line. Identical inputs produce
    byte-identical files."""
    encode = json.JSONEncoder(separators=(",", ":")).encode
    lines = [
        encode(
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
        lines.append(encode({"config": _config_to_json(config), "features": row, "t_star": t_star}))
    Path(path).write_text("\n".join(lines) + "\n")


def load_dataset(path) -> tuple[DatasetHeader, Dataset]:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc
    lines = text.splitlines()
    if not lines:
        raise FileFormatError(f"{path}: empty dataset file")
    try:
        head = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"{path}: malformed header: {exc}") from exc
    if not isinstance(head, dict):
        raise FileFormatError(f"{path}: malformed header: not a JSON object")
    if head.get("format") != DATASET_FORMAT:
        raise FileFormatError(f"{path}: not a dataset file (format={head.get('format')!r})")
    if head.get("version") != FORMAT_VERSION:
        raise FileFormatError(f"{path}: unsupported dataset version {head.get('version')!r}")
    try:
        ranges = SamplerRanges(
            n_range=tuple(int(v) for v in head["ranges"]["n"]),
            load_range=tuple(float(v) for v in head["ranges"]["load_gb"]),
            speed_range=tuple(float(v) for v in head["ranges"]["speed"]),
            bandwidth_range=tuple(float(v) for v in head["ranges"]["bandwidth"]),
        )
        header = DatasetHeader(
            seed=int(head["seed"]),
            ranges=ranges,
            compute_intensity=float(head["compute_intensity"]),
        )
        count = int(head["count"])
        std_convention = head["std_convention"]
    except (KeyError, TypeError, ValueError) as exc:
        raise FileFormatError(f"{path}: malformed header: {exc}") from exc
    if not 0 < header.compute_intensity < math.inf:
        raise FileFormatError(
            f"{path}: compute_intensity must be positive and finite, got {header.compute_intensity!r}"
        )
    if std_convention != STD_CONVENTION:
        raise FileFormatError(f"{path}: std_convention must be {STD_CONVENTION!r}, got {std_convention!r}")
    configs, rows, labels = [], [], []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
            config = _config_from_json(obj["config"])
            row = tuple(map(float, obj["features"]))
            t_star = float(obj["t_star"])
            if len(row) != N_FEATURES:
                raise ValueError(f"expected {N_FEATURES} features, got {len(row)}")
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise FileFormatError(f"{path}:{lineno}: malformed record: {exc}") from exc
        if not 0 < t_star < math.inf:
            raise FileFormatError(f"{path}:{lineno}: t_star must be positive and finite, got {t_star!r}")
        if not all(map(math.isfinite, row)):
            raise FileFormatError(f"{path}:{lineno}: non-finite feature in {list(row)}")
        configs.append(config)
        rows.append(row)
        labels.append(t_star)
    if len(configs) != count:
        raise FileFormatError(f"{path}: header says {count} records, found {len(configs)}")
    if not configs:
        raise FileFormatError(f"{path}: no records")
    return header, Dataset(tuple(configs), np.reshape(rows, (count, N_FEATURES)), labels)


def dataset_file_hash(path) -> str:
    """SHA-256 of the dataset file, recorded in model metadata."""
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()
