"""Command-line pipeline: exact solve, dataset generation, training,
evaluation, single predictions, and the hybrid predictor that falls back to
the exact solver above a confidence threshold.

Results go to stdout, progress to stderr. Exit codes: 2 usage errors, 3
data/file errors, 4 numeric or training failures.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass
from pathlib import Path

from . import codec, datagen, evaluation, mlp, solver
from .errors import DltschedError, FileFormatError, InvalidInputError, NumericError, TrainingDivergedError

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

_SPLITS = ("train", "val", "test")  # in the order split_dataset returns them
_REPORTED = ("count", "r2", "mae_s", "rmse_s", "mape_pct")  # the fields of a split's row evaluate prints


@dataclass(frozen=True)
class HybridDecision:
    """Outcome of the hybrid predictor: the answer ``t_star``, the path that
    produced it, and the surrogate's estimate (NaN outside its range)."""

    t_star: float
    source: str  # "ml" | "dlt-verified"
    ml_estimate: float


def hybrid_predict(model: mlp.MlpModel, config: solver.SltnConfig, threshold: float) -> HybridDecision:
    """ML estimate, exact-verified when it exceeds ``threshold`` seconds.

    Above the threshold the surrogate's uncertainty is large enough that
    recomputing exactly is worth the cost, so the exact makespan is
    returned instead. A system outside the surrogate's range gets a NaN
    estimate and is verified too. The threshold has no default: pick it on
    the scale of the model's makespans, which the compute intensity sets. A
    threshold that is not a finite number raises :class:`InvalidInputError`.
    """
    if not math.isfinite(threshold):
        raise InvalidInputError(f"threshold must be a finite number of seconds, got {threshold}")
    try:
        ml_estimate = mlp.predict(model, config)
    except NumericError:
        ml_estimate = math.nan
    if not ml_estimate <= threshold:
        alloc = solver.solve_optimal(solver.to_time_rates(config, model.metadata.compute_intensity), config.load_gb)
        return HybridDecision(t_star=alloc.t_star, source="dlt-verified", ml_estimate=ml_estimate)
    return HybridDecision(t_star=ml_estimate, source="ml", ml_estimate=ml_estimate)


def _config_from_args(args) -> solver.SltnConfig:
    """The system of ``--config``, or of the inline flags as the lines of a
    description."""
    if args.config is not None:
        if args.root_speed is not None or args.load_gb is not None or args.child:
            raise InvalidInputError("give either --config or inline system flags, not both")
        try:
            text = Path(args.config).read_text()
        except OSError as exc:
            raise InvalidInputError(f"cannot read config file: {exc}") from exc
        return solver.parse_system(text, origin=str(args.config))
    if args.root_speed is None or args.load_gb is None or not args.child:
        raise InvalidInputError(
            "system description required: --config FILE, or --root-speed, --load-gb "
            "and at least one --child SPEED:BANDWIDTH"
        )
    lines = [f"root_speed {args.root_speed!r}", f"load_gb {args.load_gb!r}", *(f"child {c}" for c in args.child)]
    return solver.parse_system("\n".join(lines), origin="<flags>")


def _add_system_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="system description file")
    p.add_argument("--root-speed", type=float, help="root compute speed, GFLOPS/s")
    p.add_argument("--load-gb", type=float, help="total workload, GB")
    p.add_argument(
        "--child",
        action="append",
        default=[],
        metavar="SPEED:BANDWIDTH",
        help="one child processor (GFLOPS/s : MB/s); repeatable",
    )


def _progress(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def _print_json(**fields) -> None:
    print(codec.dumps(fields).decode())


def _error_size(seconds: float) -> str:
    """Three decimals, or six significant digits from 1e16 s on, where the
    decimals would run to dozens of digits."""
    return f"{seconds:.3f}" if seconds < 1e16 else f"{seconds:.6g}"


def cmd_solve(args) -> int:
    config = _config_from_args(args)
    rates = solver.to_time_rates(config, args.compute_intensity)
    alloc = solver.solve_optimal(rates, config.load_gb)
    profile = solver.simulate_timeline(rates, alloc.alpha, config.load_gb)
    unloaded = alloc.alpha[1:].count(0.0)
    if args.format == "machine":
        _print_json(
            n=config.n,
            unloaded_children=unloaded,
            alpha=list(alloc.alpha),
            t_star_s=alloc.t_star,
            t_star_norm_s_per_gb=alloc.t_star_norm,
            comm_finish_s=list(profile.comm_finish),
            compute_finish_s=list(profile.compute_finish),
        )
        return EXIT_OK
    print(f"n = {config.n} children, load = {config.load_gb:g} GB, intensity = {args.compute_intensity:g} GFLOP/GB")
    print(f"alpha[0] (root) = {alloc.alpha[0]:.9f}")
    for i, a in enumerate(alloc.alpha[1:], 1):
        print(f"alpha[{i}] = {a:.9f}")
    if unloaded:
        print(f"{unloaded} of {config.n} children get no load: their shares are below the double range")
    print(f"T* = {alloc.t_star:.9f} s ({alloc.t_star_norm:.9f} s/GB)")
    print(f"finish: root computes until {profile.compute_finish[0]:.9f} s")
    for i in range(config.n):
        print(
            f"finish: child {i + 1} receives until {profile.comm_finish[i]:.9f} s, "
            f"computes until {profile.compute_finish[i + 1]:.9f} s"
        )
    return EXIT_OK


def cmd_generate(args) -> int:
    ranges = datagen.SamplerRanges(
        tuple(args.n_range), tuple(args.load_range), tuple(args.speed_range), tuple(args.bandwidth_range)
    )
    _progress(f"generating {args.count} samples with seed {args.seed}")
    dataset = datagen.generate_dataset(
        args.count,
        args.seed,
        ranges,
        args.compute_intensity,
        progress=lambda done: _progress(f"  {done}/{args.count}"),
    )
    header = datagen.DatasetHeader(seed=args.seed, ranges=ranges, compute_intensity=args.compute_intensity)
    datagen.save_dataset(args.out, dataset, header)
    print(f"wrote {args.count} records to {args.out}")
    return EXIT_OK


def cmd_train(args) -> int:
    config = mlp.TrainConfig(patience=args.patience, max_epochs=args.max_epochs, seed=args.seed)
    header, dataset = datagen.load_dataset(args.data)
    train_set, val_set, _ = datagen.split_dataset(dataset, args.seed)
    _progress(f"loaded {len(dataset)} records; {len(train_set)} train / {len(val_set)} val")
    model, report = mlp.train(
        train_set.features,
        train_set.t_star,
        val_set.features,
        val_set.t_star,
        config,
        mlp.ModelMetadata(
            train_seed=args.seed, split_seed=args.seed, dataset_hash=header.sha256, compute_intensity=header.compute_intensity
        ),
        on_epoch=lambda e, tr, vl: _progress(f"epoch {e}: train {tr:.6f} val {vl:.6f}"),
    )
    mlp.save_model(args.out, model)
    if args.report:
        Path(args.report).write_bytes(codec.dumps(report) + b"\n")
    stop = "early stopping" if report.stopped_early else "epoch cap"
    print(
        f"trained {report.epochs_run} epochs ({stop}); best epoch {report.best_epoch} "
        f"with validation loss {report.best_val_loss:.6f}; model written to {args.out}"
    )
    return EXIT_OK


def cmd_evaluate(args) -> int:
    if args.train_report and not args.out:
        raise InvalidInputError("--train-report feeds the loss-curve table and needs --out")
    train_report = mlp.load_train_report(args.train_report) if args.train_report else None
    model = mlp.load_model(args.model)
    header, dataset = datagen.load_dataset(args.data)
    if model.metadata.compute_intensity != header.compute_intensity:
        raise FileFormatError(
            f"model was trained at compute intensity {model.metadata.compute_intensity}, dataset has "
            f"{header.compute_intensity}; labels are incompatible"
        )
    if args.split != "all" and model.metadata.dataset_hash not in (None, header.sha256):
        raise FileFormatError(
            f"model was trained on another dataset than {args.data}; pass --split all to score another dataset"
        )
    split_seed = model.metadata.split_seed
    if args.split != "all" and split_seed is None:
        raise InvalidInputError("model metadata lacks split_seed, so its splits are unknown; pass --split all")
    subset = dataset if args.split == "all" else datagen.split_dataset(dataset, split_seed)[_SPLITS.index(args.split)]
    _progress(f"evaluating {len(subset)} records ({args.split} split)")
    predictions = mlp.predict_features(model, subset.features)
    metrics = evaluation.compute_metrics(predictions, subset.t_star)
    if args.format == "machine":
        _print_json(split=args.split, **{name: getattr(metrics, name) for name in _REPORTED})
    else:
        print(f"count = {metrics.count} ({args.split} split)")
        print(f"R2    = {metrics.r2:.6f}")
        print(f"MAE   = {_error_size(metrics.mae_s)} s")
        print(f"RMSE  = {_error_size(metrics.rmse_s)} s")
        print(f"MAPE  = {metrics.mape_pct:.3f} %")
    if args.out:
        files = evaluation.emit_plot_data(args.out, subset, predictions, train_report)
        _progress(f"wrote {len(files)} plot tables to {args.out}")
    return EXIT_OK


def cmd_predict(args) -> int:
    model = mlp.load_model(args.model)
    config = _config_from_args(args)
    t_star = mlp.predict(model, config)
    if args.format == "machine":
        _print_json(t_star_s=t_star)
    else:
        print(f"predicted T* = {t_star:.3f} s")
    return EXIT_OK


def cmd_hybrid(args) -> int:
    model = mlp.load_model(args.model)
    config = _config_from_args(args)
    decision = hybrid_predict(model, config, args.threshold)
    if args.format == "machine":
        _print_json(
            t_star_s=decision.t_star,
            source=decision.source,
            ml_estimate_s=decision.ml_estimate,  # a NaN estimate, verified above, is written as null
            threshold_s=args.threshold,
        )
    else:
        print(f"T* = {decision.t_star:.3f} s (source: {decision.source})")
        print(f"ML estimate = {decision.ml_estimate:.3f} s, threshold = {args.threshold:g} s")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dltsched",
        description="Exact divisible-load star-network scheduling and its neural surrogate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="exact equal-finish allocation for one system")
    _add_system_flags(p)
    p.add_argument("--compute-intensity", type=float, default=solver.DEFAULT_COMPUTE_INTENSITY)
    p.add_argument("--format", choices=("human", "machine"), default="human")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("generate", help="generate a labeled synthetic dataset")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--compute-intensity", type=float, default=solver.DEFAULT_COMPUTE_INTENSITY)
    defaults = datagen.SamplerRanges()
    p.add_argument(
        "--n-range", type=int, nargs=2, metavar=("MIN", "MAX"), default=defaults.n_range,
        help=f"children per system, at most {datagen.MAX_N:,}",
    )
    p.add_argument("--load-range", type=float, nargs=2, metavar=("MIN", "MAX"), default=defaults.load_range)
    p.add_argument("--speed-range", type=float, nargs=2, metavar=("MIN", "MAX"), default=defaults.speed_range)
    p.add_argument(
        "--bandwidth-range", type=float, nargs=2, metavar=("MIN", "MAX"), default=defaults.bandwidth_range
    )
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train", help="train the surrogate on a dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0, help="seeds the initial weights, the batch order and the split")
    p.add_argument("--dropout", type=float, choices=(0.0,), default=0.0, help="only 0: the network has no dropout")
    p.add_argument("--patience", type=int, default=10)
    p.add_argument("--max-epochs", type=int, default=200)
    p.add_argument("--report", help="write the train report JSON here")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="metrics and stratified analysis on a split")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", choices=(*_SPLITS, "all"), default="test", help="split by the bundle's split_seed, or all")
    p.add_argument("--out", help="directory for plot tables")
    p.add_argument("--train-report", help="train report JSON for the loss-curve table")
    p.add_argument("--format", choices=("human", "machine"), default="human")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("predict", help="single surrogate prediction")
    p.add_argument("--model", required=True)
    _add_system_flags(p)
    p.add_argument("--format", choices=("human", "machine"), default="human")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("hybrid", help="surrogate prediction with exact verification fallback")
    p.add_argument("--model", required=True)
    _add_system_flags(p)
    p.add_argument(
        "--threshold",
        type=float,
        required=True,
        help="absolute seconds above which the estimate is verified exactly; pick it on the scale of the model's "
        "makespans, which the compute intensity sets",
    )
    p.add_argument("--format", choices=("human", "machine"), default="human")
    p.set_defaults(func=cmd_hybrid)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DltschedError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, InvalidInputError):
            return EXIT_USAGE
        return EXIT_NUMERIC if isinstance(exc, (TrainingDivergedError, NumericError)) else EXIT_DATA
