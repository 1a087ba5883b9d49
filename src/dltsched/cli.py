"""Command-line pipeline: exact solve, dataset generation, training,
evaluation, single predictions, and the hybrid predictor that falls back to
the exact solver above a confidence threshold.

Results go to stdout, progress to stderr. Exit codes: 2 usage errors, 3
data/file errors, 4 numeric or training failures.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

from . import datagen, evaluation, mlp, solver
from .errors import (
    DltschedError,
    FileFormatError,
    InvalidInputError,
    NumericError,
    StratificationError,
    TrainingDivergedError,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

DEFAULT_HYBRID_THRESHOLD = 5000.0  # seconds


@dataclass(frozen=True)
class HybridDecision:
    """Outcome of the hybrid predictor: which path produced t_star."""

    t_star: float
    source: str  # "ml" | "dlt-verified"
    ml_estimate: float
    threshold: float


def hybrid_predict(
    model: mlp.MlpModel, config: solver.SltnConfig, threshold: float = DEFAULT_HYBRID_THRESHOLD
) -> HybridDecision:
    """ML estimate, exact-verified when it exceeds the confidence threshold.

    Above the threshold the surrogate's uncertainty is large enough that
    recomputing exactly is worth the cost, so the exact makespan is
    returned instead.
    """
    ml_estimate = mlp.predict(model, config)
    if ml_estimate > threshold:
        alloc = solver.solve_optimal(solver.to_time_rates(config, model.compute_intensity), config.load_gb)
        return HybridDecision(
            t_star=alloc.t_star, source="dlt-verified", ml_estimate=ml_estimate, threshold=threshold
        )
    return HybridDecision(t_star=ml_estimate, source="ml", ml_estimate=ml_estimate, threshold=threshold)


def parse_config_text(text: str, origin: str = "<config>") -> solver.SltnConfig:
    """Parse the key-value system description.

    Lines: ``root_speed S``, ``load_gb L``, and one ``child SPEED BANDWIDTH``
    per child processor; ``#`` starts a comment.
    """
    root_speed = None
    load_gb = None
    children: list[tuple[float, float]] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.replace("=", " ").split()
        key, values = tokens[0], tokens[1:]
        try:
            if key == "root_speed" and len(values) == 1:
                root_speed = float(values[0])
            elif key == "load_gb" and len(values) == 1:
                load_gb = float(values[0])
            elif key == "child" and len(values) == 2:
                children.append((float(values[0]), float(values[1])))
            else:
                raise ValueError(f"unrecognized line {raw.strip()!r}")
        except ValueError as exc:
            raise InvalidInputError(f"{origin}:{lineno}: {exc}") from exc
    if root_speed is None or load_gb is None or not children:
        raise InvalidInputError(f"{origin}: need root_speed, load_gb, and at least one child line")
    return _system(root_speed, load_gb, children)


def _system(root_speed: float, load_gb: float, children: list[tuple[float, float]]) -> solver.SltnConfig:
    """The configuration of a root and its (speed, bandwidth) children."""
    return solver.SltnConfig(
        n=len(children),
        root_speed=root_speed,
        child_speeds=tuple(s for s, _ in children),
        link_bandwidths=tuple(b for _, b in children),
        load_gb=load_gb,
    )


def _config_from_args(args) -> solver.SltnConfig:
    if args.config is not None:
        if args.root_speed is not None or args.load_gb is not None or args.child:
            raise InvalidInputError("give either --config or inline system flags, not both")
        try:
            text = Path(args.config).read_text()
        except OSError as exc:
            raise InvalidInputError(f"cannot read config file: {exc}") from exc
        return parse_config_text(text, origin=str(args.config))
    if args.root_speed is None or args.load_gb is None or not args.child:
        raise InvalidInputError(
            "system description required: --config FILE, or --root-speed, --load-gb "
            "and at least one --child SPEED:BANDWIDTH"
        )
    children = []
    for spec_str in args.child:
        parts = spec_str.split(":")
        if len(parts) != 2:
            raise InvalidInputError(f"--child expects SPEED:BANDWIDTH, got {spec_str!r}")
        try:
            children.append((float(parts[0]), float(parts[1])))
        except ValueError as exc:
            raise InvalidInputError(f"--child expects numbers, got {spec_str!r}") from exc
    return _system(args.root_speed, args.load_gb, children)


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


def cmd_solve(args) -> int:
    config = _config_from_args(args)
    rates = solver.to_time_rates(config, args.compute_intensity)
    alloc = solver.solve_optimal(rates, config.load_gb)
    profile = solver.simulate_timeline(rates, alloc.alpha, config.load_gb)
    if args.format == "machine":
        print(
            json.dumps(
                {
                    "n": config.n,
                    "alpha": list(alloc.alpha),
                    "t_star_s": alloc.t_star,
                    "t_star_norm_s_per_gb": alloc.t_star_norm,
                    "comm_finish_s": list(profile.comm_finish),
                    "compute_finish_s": list(profile.compute_finish),
                },
                separators=(",", ":"),
            )
        )
        return EXIT_OK
    print(f"n = {config.n} children, load = {config.load_gb:g} GB, intensity = {args.compute_intensity:g} GFLOP/GB")
    print(f"alpha[0] (root) = {alloc.alpha[0]:.9f}")
    for i, a in enumerate(alloc.alpha[1:], 1):
        print(f"alpha[{i}] = {a:.9f}")
    print(f"T* = {alloc.t_star:.9f} s ({alloc.t_star_norm:.9f} s/GB)")
    print(f"finish: root computes until {profile.compute_finish[0]:.9f} s")
    for i in range(config.n):
        print(
            f"finish: child {i + 1} receives until {profile.comm_finish[i]:.9f} s, "
            f"computes until {profile.compute_finish[i + 1]:.9f} s"
        )
    return EXIT_OK


def _ranges_from_args(args) -> datagen.SamplerRanges:
    kwargs = {}
    if args.n_range:
        kwargs["n_range"] = (int(args.n_range[0]), int(args.n_range[1]))
    if args.load_range:
        kwargs["load_range"] = tuple(args.load_range)
    if args.speed_range:
        kwargs["speed_range"] = tuple(args.speed_range)
    if args.bandwidth_range:
        kwargs["bandwidth_range"] = tuple(args.bandwidth_range)
    return datagen.SamplerRanges(**kwargs)


def cmd_generate(args) -> int:
    ranges = _ranges_from_args(args)
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
    header, dataset = datagen.load_dataset(args.data)
    split_seed = args.split_seed if args.split_seed is not None else args.seed
    train_set, val_set, _ = datagen.split_dataset(dataset, split_seed)
    _progress(f"loaded {len(dataset)} records; {len(train_set)} train / {len(val_set)} val")
    config = mlp.TrainConfig(
        learning_rate=args.learning_rate,
        batch_size=args.batch_size,
        dropout_p=args.dropout,
        patience=args.patience,
        max_epochs=args.max_epochs,
        seed=args.seed,
    )
    metadata = {
        "train_seed": args.seed,
        "split_seed": split_seed,
        "dataset_hash": datagen.dataset_file_hash(args.data),
        "compute_intensity": header.compute_intensity,
    }
    model, report = mlp.train(
        train_set.features,
        train_set.t_star,
        val_set.features,
        val_set.t_star,
        config,
        datagen.fit_normalization(train_set),
        metadata=metadata,
        on_epoch=lambda e, tr, vl: _progress(f"epoch {e}: train {tr:.6f} val {vl:.6f}"),
    )
    mlp.save_model(args.out, model)
    if args.report:
        Path(args.report).write_text(json.dumps(asdict(report), separators=(",", ":")) + "\n")
    stop = "early stopping" if report.stopped_early else "epoch cap"
    print(
        f"trained {report.epochs_run} epochs ({stop}); best epoch {report.best_epoch} "
        f"with validation loss {report.best_val_loss:.6f}; model written to {args.out}"
    )
    return EXIT_OK


def _select_split(dataset: datagen.Dataset, split: str, split_seed: int) -> datagen.Dataset:
    if split == "all":
        return dataset
    train_set, val_set, test_set = datagen.split_dataset(dataset, split_seed)
    return {"train": train_set, "val": val_set, "test": test_set}[split]


def cmd_evaluate(args) -> int:
    model = mlp.load_model(args.model)
    header, dataset = datagen.load_dataset(args.data)
    if model.compute_intensity != header.compute_intensity:
        raise FileFormatError(
            f"model was trained at compute intensity {model.compute_intensity}, dataset has "
            f"{header.compute_intensity}; labels are incompatible"
        )
    split_seed = args.split_seed
    if split_seed is None:
        split_seed = model.metadata.get("split_seed")
    if args.split != "all" and split_seed is None:
        raise InvalidInputError("model metadata lacks split_seed; pass --split-seed or --split all")
    subset = _select_split(dataset, args.split, int(split_seed) if split_seed is not None else 0)
    _progress(f"evaluating {len(subset)} records ({args.split} split)")
    predictions = mlp.predict_features(model, subset.features)
    metrics = evaluation.compute_metrics(predictions, subset.t_star)
    if args.format == "machine":
        print(
            json.dumps(
                {
                    "split": args.split,
                    "count": metrics.count,
                    "r2": metrics.r2,
                    "mae_s": metrics.mae,
                    "rmse_s": metrics.rmse,
                    "mape_pct": metrics.mape,
                },
                separators=(",", ":"),
            )
        )
    else:
        print(f"count = {metrics.count} ({args.split} split)")
        print(f"R2    = {metrics.r2:.6f}")
        print(f"MAE   = {metrics.mae:.3f} s")
        print(f"RMSE  = {metrics.rmse:.3f} s")
        print(f"MAPE  = {metrics.mape:.3f} %")
    if args.out:
        train_report = None
        if args.train_report:
            try:
                train_report = mlp.TrainReport(**json.loads(Path(args.train_report).read_text()))
            except (ValueError, TypeError) as exc:
                raise FileFormatError(f"{args.train_report}: not a train report: {exc}") from exc
        files = evaluation.emit_plot_data(args.out, subset, predictions, train_report)
        _progress(f"wrote {len(files)} plot tables to {args.out}")
    return EXIT_OK


def cmd_predict(args) -> int:
    model = mlp.load_model(args.model)
    config = _config_from_args(args)
    t_star = mlp.predict(model, config)
    if args.format == "machine":
        print(json.dumps({"t_star_s": t_star}, separators=(",", ":")))
    else:
        print(f"predicted T* = {t_star:.3f} s")
    return EXIT_OK


def cmd_hybrid(args) -> int:
    model = mlp.load_model(args.model)
    config = _config_from_args(args)
    decision = hybrid_predict(model, config, args.threshold)
    if args.format == "machine":
        print(
            json.dumps(
                {
                    "t_star_s": decision.t_star,
                    "source": decision.source,
                    "ml_estimate_s": decision.ml_estimate,
                    "threshold_s": decision.threshold,
                },
                separators=(",", ":"),
            )
        )
    else:
        print(f"T* = {decision.t_star:.3f} s (source: {decision.source})")
        print(f"ML estimate = {decision.ml_estimate:.3f} s, threshold = {decision.threshold:g} s")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dltsched",
        description="Exact divisible-load star-network scheduling and its neural surrogate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="exact optimal allocation for one system")
    _add_system_flags(p)
    p.add_argument("--compute-intensity", type=float, default=solver.DEFAULT_COMPUTE_INTENSITY)
    p.add_argument("--format", choices=("human", "machine"), default="human")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("generate", help="generate a labeled synthetic dataset")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--compute-intensity", type=float, default=solver.DEFAULT_COMPUTE_INTENSITY)
    p.add_argument("--n-range", type=int, nargs=2, metavar=("MIN", "MAX"))
    p.add_argument("--load-range", type=float, nargs=2, metavar=("MIN", "MAX"))
    p.add_argument("--speed-range", type=float, nargs=2, metavar=("MIN", "MAX"))
    p.add_argument("--bandwidth-range", type=float, nargs=2, metavar=("MIN", "MAX"))
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train", help="train the surrogate on a dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--split-seed", type=int, help="defaults to --seed")
    p.add_argument("--learning-rate", type=float, default=0.001)
    p.add_argument("--batch-size", type=int, default=256)
    p.add_argument("--dropout", type=float, default=0.0)
    p.add_argument("--patience", type=int, default=10)
    p.add_argument("--max-epochs", type=int, default=200)
    p.add_argument("--report", help="write the train report JSON here")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="metrics and stratified analysis on a split")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", choices=("train", "val", "test", "all"), default="test")
    p.add_argument("--split-seed", type=int, help="defaults to the model's recorded split seed")
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
    p.add_argument("--threshold", type=float, default=DEFAULT_HYBRID_THRESHOLD, help="absolute seconds")
    p.add_argument("--format", choices=("human", "machine"), default="human")
    p.set_defaults(func=cmd_hybrid)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (FileFormatError, StratificationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (TrainingDivergedError, NumericError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (DltschedError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
