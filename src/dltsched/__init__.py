"""Divisible-load scheduling on star networks, exactly and by neural surrogate.

The solver computes optimal load splits and makespans in closed form; the
surrogate predicts the makespan from 16 summary features in well under a
millisecond, with a hybrid mode that verifies large predictions exactly.
"""

from .cli import HybridDecision, hybrid_predict
from .datagen import (
    Dataset,
    DatasetHeader,
    FeatureVector,
    NormalizationStats,
    SamplerRanges,
    apply_normalization,
    denormalize_target,
    extract_features,
    fit_normalization,
    generate_dataset,
    load_dataset,
    sample_config,
    save_dataset,
    split_dataset,
)
from .evaluation import (
    MetricReport,
    ResidualReport,
    StratifiedReport,
    compute_metrics,
    feature_importance,
    residual_analysis,
    stratify,
)
from .mlp import (
    MlpModel,
    MlpParams,
    TrainConfig,
    TrainReport,
    init_params,
    load_model,
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
    simulate_timeline,
    solve_optimal,
    to_time_rates,
)

__version__ = "0.1.0"
