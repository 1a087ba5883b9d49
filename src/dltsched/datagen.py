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

import numpy as np

from .errors import ConstantFeatureError, FileFormatError, InvalidInputError, StratificationError
from .solver import DEFAULT_COMPUTE_INTENSITY, SltnConfig, solve_optimal, to_time_rates

DATASET_FORMAT = "dltsched-dataset"
FORMAT_VERSION = 1

# Canonical feature order; model files are meaningless without it.
FEATURE_NAMES = (
    "n",
    "load_gb",
    "mean_w",
    "std_w",
    "min_w",
    "max_w",
    "mean_z",
    "std_z",
    "min_z",
    "max_z",
    "w0",
    "comp_comm_ratio",
    "cv_w",
    "cv_z",
    "heterog_w",
    "heterog_z",
)
N_FEATURES = len(FEATURE_NAMES)

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


@dataclass(frozen=True)
class FeatureVector:
    """The 16 summary features describing one configuration.

    Speed statistics (mean_w .. max_w, w0) are GFLOPS/s over the child
    speeds, bandwidth statistics (mean_z .. max_z) MB/s over the links; the
    root speed is its own feature and excluded from the child statistics.
    Standard deviations are population (divisor n).
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
        return np.array([getattr(self, name) for name in FEATURE_NAMES], dtype=float)


@dataclass(frozen=True)
class DatasetRecord:
    config: SltnConfig
    features: FeatureVector
    t_star: float


@dataclass(frozen=True)
class DatasetHeader:
    version: int
    seed: int
    count: int
    ranges: SamplerRanges
    compute_intensity: float
    std_convention: str = "population"


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
        if any(s <= 0 for s in self.feature_stds) or self.target_std <= 0:
            raise ConstantFeatureError("every standard deviation must be positive")

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
        child_speeds=tuple(float(s) for s in child_speeds),
        link_bandwidths=tuple(float(b) for b in bandwidths),
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
        n=float(config.n),
        load_gb=config.load_gb,
        mean_w=mean_w,
        std_w=std_w,
        min_w=min_w,
        max_w=max_w,
        mean_z=mean_z,
        std_z=std_z,
        min_z=min_z,
        max_z=max_z,
        w0=config.root_speed,
        comp_comm_ratio=mean_w / mean_z,
        cv_w=std_w / mean_w,
        cv_z=std_z / mean_z,
        heterog_w=max_w / min_w,
        heterog_z=max_z / min_z,
    )


def make_record(config: SltnConfig, compute_intensity: float) -> DatasetRecord:
    alloc = solve_optimal(to_time_rates(config, compute_intensity), config.load_gb)
    return DatasetRecord(config=config, features=extract_features(config), t_star=alloc.t_star)


def generate_dataset(
    count: int,
    seed: int,
    ranges: SamplerRanges = SamplerRanges(),
    compute_intensity: float = DEFAULT_COMPUTE_INTENSITY,
    progress=None,
) -> list[DatasetRecord]:
    """Generate ``count`` labeled records, deterministic in ``seed``.

    Labels come from the exact solver; solver errors propagate (no silent
    resampling). ``progress`` is an optional callback taking records done.
    """
    if count < 1:
        raise InvalidInputError(f"count must be >= 1, got {count}")
    records = []
    for i in range(count):
        config = sample_config(record_rng(seed, i), ranges)
        records.append(make_record(config, compute_intensity))
        if progress is not None and (i + 1) % max(1, count // 20) == 0:
            progress(i + 1)
    return records


def split_dataset(
    records: list[DatasetRecord], seed: int
) -> tuple[list[DatasetRecord], list[DatasetRecord], list[DatasetRecord]]:
    """80/10/10 split, stratified by n so every system size is represented in
    each split in proportion to its frequency."""
    if not records:
        raise InvalidInputError("cannot split an empty dataset")
    strata: dict[int, list[int]] = {}
    for i, rec in enumerate(records):
        strata.setdefault(rec.config.n, []).append(i)
    rng = np.random.default_rng(seed)
    train_idx: list[int] = []
    val_idx: list[int] = []
    test_idx: list[int] = []
    for n in sorted(strata):
        members = strata[n]
        if len(members) < _MIN_STRATUM:
            raise StratificationError(
                f"stratum n={n} has only {len(members)} records; need at least "
                f"{_MIN_STRATUM} per system size (generate a larger dataset)"
            )
        order = rng.permutation(len(members))
        shuffled = [members[j] for j in order]
        n_val = round(VAL_FRACTION * len(members))
        n_test = round((1.0 - TRAIN_FRACTION - VAL_FRACTION) * len(members))
        n_train = len(members) - n_val - n_test
        train_idx.extend(shuffled[:n_train])
        val_idx.extend(shuffled[n_train : n_train + n_val])
        test_idx.extend(shuffled[n_train + n_val :])
    return (
        [records[i] for i in train_idx],
        [records[i] for i in val_idx],
        [records[i] for i in test_idx],
    )


def feature_matrix(records: list[DatasetRecord]) -> np.ndarray:
    return np.array([rec.features.as_array() for rec in records], dtype=float)


def target_array(records: list[DatasetRecord]) -> np.ndarray:
    return np.array([rec.t_star for rec in records], dtype=float)


def fit_normalization(train: list[DatasetRecord]) -> NormalizationStats:
    """Fit z-score statistics on the training records only."""
    if not train:
        raise InvalidInputError("cannot fit normalization on an empty set")
    x = feature_matrix(train)
    y = target_array(train)
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
        child_speeds=tuple(float(s) for s in obj["child_speeds"]),
        link_bandwidths=tuple(float(b) for b in obj["link_bandwidths"]),
        load_gb=float(obj["load_gb"]),
    )


def save_dataset(path, records: list[DatasetRecord], header: DatasetHeader) -> None:
    """Write header plus one JSON record per line. Identical inputs produce
    byte-identical files."""
    lines = [
        json.dumps(
            {
                "format": DATASET_FORMAT,
                "version": header.version,
                "seed": header.seed,
                "count": header.count,
                "ranges": {
                    "n": list(header.ranges.n_range),
                    "load_gb": list(header.ranges.load_range),
                    "speed": list(header.ranges.speed_range),
                    "bandwidth": list(header.ranges.bandwidth_range),
                },
                "compute_intensity": header.compute_intensity,
                "std_convention": header.std_convention,
            },
            separators=(",", ":"),
        )
    ]
    for rec in records:
        lines.append(
            json.dumps(
                {
                    "config": _config_to_json(rec.config),
                    "features": [float(v) for v in rec.features.as_array()],
                    "t_star": rec.t_star,
                },
                separators=(",", ":"),
            )
        )
    Path(path).write_text("\n".join(lines) + "\n")


def load_dataset(path) -> tuple[DatasetHeader, list[DatasetRecord]]:
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
            version=int(head["version"]),
            seed=int(head["seed"]),
            count=int(head["count"]),
            ranges=ranges,
            compute_intensity=float(head["compute_intensity"]),
            std_convention=str(head["std_convention"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise FileFormatError(f"{path}: malformed header: {exc}") from exc
    records = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
            config = _config_from_json(obj["config"])
            values = (float(v) for v in obj["features"])
            features = FeatureVector(**dict(zip(FEATURE_NAMES, values, strict=True)))
            records.append(DatasetRecord(config=config, features=features, t_star=float(obj["t_star"])))
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise FileFormatError(f"{path}:{lineno}: malformed record: {exc}") from exc
    if len(records) != header.count:
        raise FileFormatError(f"{path}: header says {header.count} records, found {len(records)}")
    return header, records


def dataset_file_hash(path) -> str:
    """SHA-256 of the dataset file, recorded in model metadata."""
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()
