import time
from fractions import Fraction

import pytest

from dltsched import datagen, mlp

# Frozen desk-scale experiment: 20k samples in the compute-dominated regime
# where the summary features determine the makespan tightly enough for
# surrogate training (at the mixed-regime default intensity the label keeps
# an irreducible ordering noise floor around R2 ~ 0.86).
DESK_SEED = 7
DESK_COUNT = 20_000
DESK_INTENSITY = 10_000.0


def exact_solve(rates, load_gb) -> tuple[tuple[float, ...], float]:
    """The equal-finish shares (root first) and makespan T*, solved in
    rational arithmetic from the finish-time equalities
    alpha_i (z_i + w_i) = alpha_{i-1} w_{i-1} and conservation, then each
    rounded once to the nearest double: the reference for every exact answer."""
    shares = [Fraction(1)]
    w_prev = Fraction(rates.w0)
    for w, z in zip(rates.w, rates.z):
        shares.append(shares[-1] * w_prev / (Fraction(z) + Fraction(w)))
        w_prev = Fraction(w)
    total = sum(shares)
    return tuple(float(s / total) for s in shares), float(shares[0] / total * Fraction(rates.w0) * Fraction(load_gb))


def desk_train_config(seed: int = DESK_SEED) -> mlp.TrainConfig:
    return mlp.TrainConfig(seed=seed)


def constant_model(output: float, compute_intensity: float) -> mlp.MlpModel:
    """A bundle whose network answers ``output`` seconds for every input."""
    params = mlp.init_params(0)
    for w in params.weights:
        w[:] = 0.0
    params.biases[-1][:] = output
    norm = datagen.NormalizationStats(
        feature_means=(0.0,) * datagen.N_FEATURES,
        feature_stds=(1.0,) * datagen.N_FEATURES,
        target_mean=0.0,
        target_std=1.0,
    )
    return mlp.MlpModel(params=params, norm=norm, metadata=mlp.ModelMetadata(compute_intensity=compute_intensity))


def dataset_of(configs, t_star) -> datagen.Dataset:
    """A dataset of ``configs`` with their extracted features and the given labels."""
    return datagen.Dataset(tuple(configs), [datagen.extract_features(c) for c in configs], t_star)


@pytest.fixture(scope="session")
def desk_run():
    """Generate, split, and train the desk-scale surrogate once per session."""
    started = time.perf_counter()
    dataset = datagen.generate_dataset(DESK_COUNT, DESK_SEED, compute_intensity=DESK_INTENSITY)
    train, val, test = datagen.split_dataset(dataset, DESK_SEED)
    model, report = mlp.train(
        train.features,
        train.t_star,
        val.features,
        val.t_star,
        desk_train_config(),
        metadata=mlp.ModelMetadata(train_seed=DESK_SEED, split_seed=DESK_SEED, compute_intensity=DESK_INTENSITY),
    )
    elapsed = time.perf_counter() - started
    return {
        "dataset": dataset,
        "train": train,
        "val": val,
        "test": test,
        "model": model,
        "report": report,
        "pipeline_seconds": elapsed,
    }
