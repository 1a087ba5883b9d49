import time

import pytest

from dltsched import datagen, mlp

# Frozen desk-scale experiment: 20k samples in the compute-dominated regime
# where the summary features determine the makespan tightly enough for
# surrogate training (at the mixed-regime default intensity the label keeps
# an irreducible ordering noise floor around R2 ~ 0.86). Dropout stays at its
# default of off: with any p=0.2 placement the validation loss floors an
# order of magnitude above the achievable 0.004-0.006 at every scale tried.
DESK_SEED = 7
DESK_COUNT = 20_000
DESK_INTENSITY = 10_000.0


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
    return mlp.MlpModel(params=params, norm=norm, metadata={"compute_intensity": compute_intensity})


def dataset_of(configs, t_star) -> datagen.Dataset:
    """A dataset of ``configs`` with their extracted features and the given labels."""
    return datagen.Dataset(tuple(configs), [datagen.extract_features(c) for c in configs], t_star)


@pytest.fixture(scope="session")
def desk_run():
    """Generate, split, and train the desk-scale surrogate once per session."""
    started = time.perf_counter()
    dataset = datagen.generate_dataset(DESK_COUNT, DESK_SEED, compute_intensity=DESK_INTENSITY)
    train, val, test = datagen.split_dataset(dataset, DESK_SEED)
    norm = datagen.fit_normalization(train)
    model, report = mlp.train(
        train.features,
        train.t_star,
        val.features,
        val.t_star,
        desk_train_config(),
        norm,
        metadata={"train_seed": DESK_SEED, "split_seed": DESK_SEED, "compute_intensity": DESK_INTENSITY},
    )
    elapsed = time.perf_counter() - started
    return {
        "dataset": dataset,
        "train": train,
        "val": val,
        "test": test,
        "norm": norm,
        "model": model,
        "report": report,
        "pipeline_seconds": elapsed,
    }
