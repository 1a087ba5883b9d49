"""Divisible-load scheduling on star networks, exactly and by neural surrogate.

The solver computes, in closed form, the load split at which every
processor finishes at the same instant with the children served in the
given order, and its makespan; that split is not optimal in general (see
``solver.solve_optimal``). The surrogate predicts that makespan from 16
summary features in well under a millisecond, with a hybrid mode that
verifies large predictions exactly.
"""

from .cli import HybridDecision, hybrid_predict
from .datagen import (
    Dataset,
    DatasetHeader,
    FeatureVector,
    NormalizationStats,
    SamplerRanges,
    extract_features,
    fit_normalization,
    generate_dataset,
    load_dataset,
    sample_config,
    save_dataset,
    split_dataset,
)
from .evaluation import (
    Stratum,
    compute_metrics,
    residual_analysis,
    stratify,
)
from .mlp import (
    MlpModel,
    MlpParams,
    ModelMetadata,
    TrainConfig,
    TrainReport,
    init_params,
    load_model,
    load_train_report,
    predict,
    save_model,
    train,
)
from .solver import (
    LoadAllocation,
    SltnConfig,
    TimeRates,
    TimingProfile,
    beta_coefficients,
    oracle_solve,
    parse_system,
    simulate_timeline,
    solve_optimal,
    to_time_rates,
)

__version__ = "0.1.0"
