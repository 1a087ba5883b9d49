"""The benchmark's three workloads.

Each workload runs in one process with one caller. ``setup(seed)`` builds
everything the timed phase needs (inputs, references, a trained model) and
warms the code paths up; ``run(state, seconds, tracer)`` attempts whole
rounds of the same operations until ``seconds`` of round time have passed,
checks every answer against ``checks`` after each round, outside the timed
part, and returns an ``Outcome``.

Every workload reaches every traced function: the desk round walks the
README recipe (solve, generate, train, evaluate, predict, hybrid) through
the CLI, and the query and screen set-ups build their model with the same
generate, train and evaluate commands on a small dataset.

With a tracer, rounds alternate untraced and traced. Per-layer figures come
from the traced rounds (and the traced set-ups of query-stream and
batch-screen), the comparison of the two kinds gives the tracing overhead,
and latencies quoted beside them come from the untraced rounds.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
from dltsched import cli, datagen, mlp, solver

clock = time.perf_counter_ns
# The desk check asks the model a round wrote for answers through the
# functions as imported, so that no timing shim installed later sees it.
load_model_untraced, predict_features_untraced = mlp.load_model, mlp.predict_features

# The paper's parameter box.
N_RANGE = (3, 20)
LOAD_RANGE = (1.0, 100.0)
SPEED_RANGE = (1.0, 15.0)
BANDWIDTH_RANGE = (10.0, 150.0)
MAX_CHILDREN = N_RANGE[1]

DESK_COUNT = 20_000
DESK_INTENSITY = 10_000.0
# Early stopping makes the amount of training depend on the data seed (85
# to 155 epochs over three seeds), which no bound on the round time
# survives. A fixed 150 epochs keeps a round at 22-35 s, longer than a run's
# measuring time, so every run times one round, and keeps test MAPE clear of
# the 10% floor (up to 9.1% at 120 epochs over seeds 1-20).
DESK_EPOCHS = 150
# The desk set-up walks the same recipe on a smaller dataset, which warms
# its code paths and keeps the timed set-up above a second.
DESK_WARMUP_COUNT = 3_000
DESK_WARMUP_EPOCHS = 5
# The README's example system, asked by the recipe's solve, predict and
# hybrid steps.
DESK_SYSTEM = solver.SltnConfig(
    n=3, root_speed=10.0, child_speeds=(5.0, 8.0, 12.0), link_bandwidths=(100.0, 40.0, 75.0), load_gb=25.0
)
# Systems at the low-load edge of the box, the same for every workload seed,
# that the desk check also asks each written model about. A desk model puts
# 10-114 of its 20,000 records at or below 0 s over seeds 5-12, too few to
# rule out a seed with none; it puts 1,341-2,406 of 20,000 such systems
# there over seeds 1, 2 and 5.
LOW_LOAD_SEED, LOW_LOAD_COUNT, LOW_LOAD_RANGE = 0, 2_000, (1.0, 2.0)

# The model behind query-stream and batch-screen is built in set-up from a
# fixed seed with the desk recipe's commands (early stopping, dropout 0), so
# only the queries vary with the workload seed.
MODEL_SEED = 7
MODEL_RECORDS = 3_000
QUERY_INTENSITY = 10_000.0
SCREEN_INTENSITY = 100.0  # the CLI default
HYBRID_THRESHOLD = 5_000.0  # the CLI default, passed explicitly
QUERY_POOL = 60_000
QUERY_ROUND = 4_000  # 1.05-1.8 s of queries
SCREEN_POOL = 30_000
SCREEN_BATCH = 15_000  # 1.7-2.1 s of screening
SHORTLIST = 20  # candidates per screen round asked again through the hybrid
WARMUP_SYSTEMS = 1_000
ORACLE_PER_ROUND = 100
POOL_STREAM, WARMUP_STREAM = 1, 2


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    # Failed round checks whose only fault is a surrogate answer at or below
    # 0 s, a known fault of the program (see CHANGES.md). Any other failure
    # makes the run incorrect.
    nonpositive_rounds: int = 0
    metrics: dict[str, float] = field(default_factory=dict)
    lines: list[str] = field(default_factory=list)

    def count(self, ok) -> None:
        ok = np.asarray(ok, dtype=bool)
        self.attempted += int(ok.size)
        self.failed += int(ok.size - ok.sum())

    def count_surrogate_round(self, answers) -> None:
        """One operation per round: every surrogate answer of the round is finite and positive.

        Per answer, the share at or below 0 s follows the drawn systems, and
        the failed share of a run must not. At the measured 2-3% a round of
        1,000 or more random systems holds such an answer in all but about
        one round in 10^9, so the fault fails this operation in every round.
        """
        answers = np.asarray(answers, dtype=float)
        ok = checks.check_surrogate(answers)
        self.count(ok.all())
        if np.isfinite(answers).all() and not ok.all():
            self.nonpositive_rounds += 1

    @property
    def correct(self) -> bool:
        return self.failed == self.nonpositive_rounds


def report_error(what: str) -> None:
    print(f"perfbench: {what} raised:", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


@dataclass
class Systems:
    """Systems as padded arrays, with the SltnConfig the program receives."""

    load: np.ndarray
    root_speed: np.ndarray
    speeds: np.ndarray
    bandwidths: np.ndarray
    mask: np.ndarray
    configs: list[solver.SltnConfig]

    def references(self, intensity: float) -> dict:
        w0, w, z = checks.time_rates(self.root_speed, self.speeds, self.bandwidths, self.mask, intensity)
        alpha, t_star = checks.reference_solve(w0, w, z, self.mask, self.load)
        return {"w0": w0, "w": w, "z": z, "alpha": alpha, "t_star": t_star, "mask": self.mask, "load": self.load}


def subset(refs: dict, rows) -> dict:
    return {key: value[rows] for key, value in refs.items()}


def check_allocations(allocations, refs: dict) -> np.ndarray:
    """The program's allocations (None where the call raised) against ``refs``, per system."""
    alpha = padded_alpha([a.alpha if a else None for a in allocations])
    t_star = np.array([a.t_star if a else np.nan for a in allocations])
    return checks.check_exact(
        alpha, t_star, refs["alpha"], refs["t_star"], refs["w0"], refs["w"], refs["z"], refs["mask"], refs["load"]
    )


def draw_systems(seed: int, stream: int, count: int, load_range=LOAD_RANGE) -> Systems:
    """Uniform draws over the box (or a narrower load range) from the benchmark's own generator."""
    rng = np.random.default_rng([seed, stream])
    n = rng.integers(N_RANGE[0], N_RANGE[1] + 1, size=count)
    load = rng.uniform(*load_range, size=count)
    root_speed = rng.uniform(*SPEED_RANGE, size=count)
    speeds = rng.uniform(*SPEED_RANGE, size=(count, MAX_CHILDREN))
    bandwidths = rng.uniform(*BANDWIDTH_RANGE, size=(count, MAX_CHILDREN))
    mask = np.arange(MAX_CHILDREN) < n[:, None]
    configs = [
        solver.SltnConfig(
            n=int(k),
            root_speed=float(r),
            child_speeds=tuple(s[:k].tolist()),
            link_bandwidths=tuple(b[:k].tolist()),
            load_gb=float(ld),
        )
        for k, r, s, b, ld in zip(n, root_speed, speeds, bandwidths, load)
    ]
    return Systems(load, root_speed, speeds, bandwidths, mask, configs)


def systems_of(configs) -> Systems:
    """Padded arrays for configs that came from elsewhere (a dataset file, the README)."""
    n = np.array([c.n for c in configs])
    speeds = np.ones((len(configs), MAX_CHILDREN))
    bandwidths = np.ones((len(configs), MAX_CHILDREN))
    for row, c in enumerate(configs):
        speeds[row, : c.n] = c.child_speeds
        bandwidths[row, : c.n] = c.link_bandwidths
    return Systems(
        np.array([c.load_gb for c in configs]),
        np.array([c.root_speed for c in configs]),
        speeds,
        bandwidths,
        np.arange(MAX_CHILDREN) < n[:, None],
        list(configs),
    )


def config_of(obj: dict) -> solver.SltnConfig:
    """A config as a dataset file stores it, read without the program's loader."""
    return solver.SltnConfig(
        n=obj["n"],
        root_speed=obj["root_speed"],
        child_speeds=tuple(obj["child_speeds"]),
        link_bandwidths=tuple(obj["link_bandwidths"]),
        load_gb=obj["load_gb"],
    )


def padded_alpha(alphas) -> np.ndarray:
    """Fractions (None where there is no answer) as zero-padded rows."""
    out = np.zeros((len(alphas), MAX_CHILDREN + 1))
    for row, alpha in zip(out, alphas):
        if alpha is not None:
            row[: len(alpha)] = alpha
        else:
            row[:] = np.nan
    return out


def timed_rounds(seconds: float, tracer, run_round) -> tuple[list[int], list[int]]:
    """Call ``run_round(k)`` until its summed wall time reaches ``seconds``.

    Returns the untraced and traced round times (ns). With a tracer, odd
    rounds are traced and at least one round of each kind runs.
    """
    plain: list[int] = []
    traced: list[int] = []
    k = 0
    while True:
        on = tracer is not None and k % 2 == 1
        if on:
            tracer.install()
        try:
            elapsed = run_round(k)
        finally:
            if on:
                tracer.uninstall()
        (traced if on else plain).append(elapsed)
        k += 1
        if (sum(plain) + sum(traced)) / 1e9 >= seconds and (tracer is None or traced):
            return plain, traced


def overhead_pct(plain: list[int], traced: list[int]) -> float:
    return (statistics.mean(traced) / statistics.mean(plain) - 1.0) * 100.0


def round_metrics(out: Outcome, plain: list[int], traced: list[int], tracer) -> None:
    """The round-time metric of an untraced run, or the tracing overhead of a traced one."""
    if tracer is not None:
        out.metrics["trace.overhead_pct"] = overhead_pct(plain, traced)
    else:
        out.metrics["round_s"] = statistics.median(plain) / 1e9


def call_cli(argv: list[str]) -> tuple[int, str]:
    """Run one ``dltsched`` command in-process; returns its exit code and stdout."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main(argv)
        except Exception:
            traceback.print_exc()
            code = -1
    if code != 0:
        print(f"perfbench: dltsched {argv[0]} exited {code}:\n{stderr.getvalue()}", file=sys.stderr)
    return code, stdout.getvalue()


def config_text(cfg: solver.SltnConfig) -> str:
    """A system in the CLI's key-value file format."""
    lines = [f"root_speed {cfg.root_speed!r}", f"load_gb {cfg.load_gb!r}"]
    lines += [f"child {s!r} {b!r}" for s, b in zip(cfg.child_speeds, cfg.link_bandwidths)]
    return "\n".join(lines) + "\n"


def recipe(work: Path, seed: int, count: int, intensity: float, epochs: int | None = None, walk: bool = False):
    """The README's commands: generate, train (dropout 0), evaluate the test split with plot tables.

    ``epochs`` pins training to that many epochs; None keeps early stopping.
    ``walk`` adds the README's solve step before and its predict and hybrid
    steps after, on ``DESK_SYSTEM``.
    """
    work.mkdir(parents=True, exist_ok=True)
    data, model, report = str(work / "data.jsonl"), str(work / "model.json"), str(work / "report.json")
    pinned = ["--max-epochs", str(epochs), "--patience", str(epochs)] if epochs else []
    commands = [
        ["generate", "--count", str(count), "--seed", str(seed), "--out", data, "--compute-intensity", repr(intensity)],
        ["train", "--data", data, "--out", model, "--seed", str(seed), "--dropout", "0", "--report", report, *pinned],
        ["evaluate", "--model", model, "--data", data, "--split", "test", "--out", str(work / "plots"),
         "--train-report", report, "--format", "machine"],
    ]
    if not walk:
        return commands
    system = work / "system.txt"
    system.write_text(config_text(DESK_SYSTEM))
    return [
        ["solve", "--config", str(system), "--compute-intensity", repr(intensity), "--format", "machine"],
        *commands,
        ["predict", "--model", model, "--config", str(system), "--format", "machine"],
        ["hybrid", "--model", model, "--config", str(system), "--threshold", repr(HYBRID_THRESHOLD),
         "--format", "machine"],
    ]


def build_model(work: Path, intensity: float) -> mlp.MlpModel:
    """The set-up model: the recipe's generate, train and evaluate on a small fixed-seed dataset."""
    try:
        for argv in recipe(work, MODEL_SEED, MODEL_RECORDS, intensity):
            code, _ = call_cli(argv)
            if code != 0:
                raise RuntimeError(f"dltsched {argv[0]} exited {code} in set-up")
        return mlp.load_model(work / "model.json")
    finally:
        shutil.rmtree(work, ignore_errors=True)


def check_oracle(configs, intensity: float, refs: dict) -> np.ndarray:
    """The program's linear-system oracle on some of a round's systems, checked like any exact answer.

    It runs after the round's timed part, in every round so that each round
    attempts the same operations. The oracle is not on any user's path; its
    per-call time in traced rounds is a reference cost.
    """
    allocs = []
    for cfg in configs:
        try:
            allocs.append(solver.oracle_solve(solver.to_time_rates(cfg, intensity), cfg.load_gb))
        except Exception:
            report_error("oracle_solve")
            allocs.append(None)
    return check_allocations(allocs, refs)


def pct(values, q: float) -> float:
    """Percentile of the operations that completed (failed ones are NaN)."""
    return float(np.nanpercentile(np.asarray(values, dtype=float), q))


class QueryStream:
    """A real-time scheduler in a closed loop: one caller, three answers per system."""

    name = "query-stream"
    trace_setup = True

    def __init__(self, work_root: Path):
        self.work_root = work_root

    def setup(self, seed: int) -> dict:
        model = build_model(self.work_root / "setup", QUERY_INTENSITY)
        pool = draw_systems(seed, POOL_STREAM, QUERY_POOL)
        state = {"model": model, "pool": pool, "refs": pool.references(QUERY_INTENSITY)}
        for cfg in draw_systems(seed, WARMUP_STREAM, WARMUP_SYSTEMS).configs:
            solver.solve_optimal(solver.to_time_rates(cfg, QUERY_INTENSITY), cfg.load_gb)
            mlp.predict(model, cfg)
            cli.hybrid_predict(model, cfg, HYBRID_THRESHOLD)
        return state

    def run(self, state: dict, seconds: float, tracer) -> Outcome:
        model, pool, refs = state["model"], state["pool"], state["refs"]
        out = Outcome()
        lat = []
        answers = {"idx": [], "exact": [], "surrogate": [], "hybrid": [], "verified": []}

        def run_round(k: int) -> int:
            idx = np.arange(k * QUERY_ROUND, (k + 1) * QUERY_ROUND) % QUERY_POOL
            allocs, estimates, decisions, times = [], [], [], []
            started = clock()
            for i in idx:
                cfg = pool.configs[i]
                try:
                    t0 = clock()
                    alloc = solver.solve_optimal(solver.to_time_rates(cfg, QUERY_INTENSITY), cfg.load_gb)
                    t1 = clock()
                    estimate = mlp.predict(model, cfg)
                    t2 = clock()
                    decision = cli.hybrid_predict(model, cfg, HYBRID_THRESHOLD)
                    t3 = clock()
                    times.append((t1 - t0, t2 - t1, t3 - t2))
                except Exception:
                    report_error(f"query {i}")
                    alloc, estimate, decision = None, np.nan, None
                    times.append((np.nan, np.nan, np.nan))
                allocs.append(alloc)
                estimates.append(estimate)
                decisions.append(decision)
            elapsed = clock() - started

            t_exact = np.array([a.t_star if a else np.nan for a in allocs])
            estimates = np.array(estimates, dtype=float)
            t_hybrid = np.array([d.t_star if d else np.nan for d in decisions])
            verified = np.array([d is not None and d.source == "dlt-verified" for d in decisions])
            ml_estimate = np.array([d.ml_estimate if d else np.nan for d in decisions])
            ok = check_allocations(allocs, subset(refs, idx))
            ok &= checks.check_hybrid(t_hybrid, verified, ml_estimate, estimates, refs["t_star"][idx], HYBRID_THRESHOLD)
            out.count(ok)
            out.count_surrogate_round(np.concatenate([estimates, t_hybrid[~verified]]))
            oracle = idx[:ORACLE_PER_ROUND]
            out.count(check_oracle([pool.configs[i] for i in oracle], QUERY_INTENSITY, subset(refs, oracle)))
            if tracer is None or k % 2 == 0:
                lat.append(np.array(times, dtype=float) / 1e3)
                for key, values in (
                    ("idx", idx), ("exact", t_exact), ("surrogate", estimates), ("hybrid", t_hybrid), ("verified", verified)
                ):
                    answers[key].append(values)
            return elapsed

        plain, traced = timed_rounds(seconds, tracer, run_round)
        lat = dict(zip(("exact", "surrogate", "hybrid"), np.concatenate(lat).T))
        answers = {key: np.concatenate(v) for key, v in answers.items()}
        # Accuracy is taken once per system, so it does not depend on how
        # often a fast run cycles through the pool.
        _, first = np.unique(answers["idx"], return_index=True)
        ref = refs["t_star"][answers["idx"][first]]
        p50 = {key: pct(lat[key], 50) for key in lat}
        p99 = {key: pct(lat[key], 99) for key in lat}
        queries = len(answers["idx"])
        nonpositive = answers["surrogate"][first] <= 0
        passed_on = nonpositive & ~answers["verified"][first]
        out.lines += [
            f"queries timed untraced: {queries} over {len(first)} systems "
            f"(pool {QUERY_POOL}, {len(plain)} rounds of {QUERY_ROUND})",
            f"compare: surrogate over exact = {p50['surrogate'] / p50['exact']:.2f} "
            f"(mlp.predict p50 {p50['surrogate']:.1f} us over to_time_rates + solve_optimal p50 {p50['exact']:.1f} us, "
            f"{queries} queries each); hybrid_predict p50 {p50['hybrid']:.1f} us",
            "tails: " + ", ".join(f"{key} p99 {p99[key]:.1f} us" for key in lat),
            f"hybrid: {int(answers['verified'].sum())} of {queries} queries took the exact branch; "
            f"MAPE against exact {checks.mape_pct(answers['hybrid'][first], ref):.3f} %",
            f"surrogate answers <= 0 s: {int(nonpositive.sum())} of {len(first)} systems, "
            f"{int(passed_on.sum())} of them handed on by hybrid_predict; "
            f"{out.nonpositive_rounds} failed round checks",
        ]
        round_metrics(out, plain, traced, tracer)
        out.metrics["test_r2"] = checks.r2(answers["surrogate"][first], ref)
        out.metrics["test_mape_pct"] = checks.mape_pct(answers["surrogate"][first], ref)
        return out


class BatchScreen:
    """Design-space exploration: score candidates by surrogate and exactly, a batch per round."""

    name = "batch-screen"
    trace_setup = True

    def __init__(self, work_root: Path):
        self.work_root = work_root

    def setup(self, seed: int) -> dict:
        model = build_model(self.work_root / "setup", SCREEN_INTENSITY)
        pool = draw_systems(seed, POOL_STREAM, SCREEN_POOL)
        rates = [solver.to_time_rates(cfg, SCREEN_INTENSITY) for cfg in pool.configs]
        state = {"model": model, "pool": pool, "rates": rates, "refs": pool.references(SCREEN_INTENSITY)}
        warm = draw_systems(seed, WARMUP_STREAM, WARMUP_SYSTEMS).configs
        screen_pass(model, warm)
        for cfg in warm[:SHORTLIST]:
            cli.hybrid_predict(model, cfg, HYBRID_THRESHOLD)
        for cfg in warm:
            solver.solve_optimal(solver.to_time_rates(cfg, SCREEN_INTENSITY), cfg.load_gb)
        return state

    def run(self, state: dict, seconds: float, tracer) -> Outcome:
        model, pool, rates, refs = state["model"], state["pool"], state["rates"], state["refs"]
        out = Outcome()
        passes = []  # ns per untraced round: surrogate pass with shortlist, exact pass
        predictions = np.full(SCREEN_POOL, np.nan)
        nonpositive = np.zeros(SCREEN_POOL, dtype=bool)

        def run_round(k: int) -> int:
            first = k * SCREEN_BATCH % SCREEN_POOL
            take = slice(first, first + SCREEN_BATCH)
            configs = pool.configs[take]
            t0 = clock()
            try:
                scored = screen_pass(model, configs)
                short = np.argsort(scored)[:SHORTLIST]
                decisions = [cli.hybrid_predict(model, configs[i], HYBRID_THRESHOLD) for i in short]
            except Exception:
                report_error("surrogate screen")
                scored, short, decisions = None, np.arange(SHORTLIST), [None] * SHORTLIST
            t1 = clock()
            allocs = []
            for r, cfg in zip(rates[take], configs):
                try:
                    allocs.append(solver.solve_optimal(r, cfg.load_gb))
                except Exception:
                    report_error("exact screen")
                    allocs.append(None)
            t2 = clock()

            scored = np.asarray(scored, dtype=float)
            if scored.shape != (SCREEN_BATCH,):
                scored = np.full(SCREEN_BATCH, np.nan)
            out.count(np.isfinite(scored))
            out.count(check_allocations(allocs, subset(refs, take)))
            # The shortlist's hybrid answers against the single-row surrogate,
            # asked after the timed part, and the reference.
            rows = first + short
            t_hybrid = np.array([d.t_star if d else np.nan for d in decisions])
            verified = np.array([d is not None and d.source == "dlt-verified" for d in decisions])
            ml_estimate = np.array([d.ml_estimate if d else np.nan for d in decisions])
            estimates = np.array([mlp.predict(model, configs[i]) for i in short])
            out.count(
                checks.check_hybrid(t_hybrid, verified, ml_estimate, estimates, refs["t_star"][rows], HYBRID_THRESHOLD)
            )
            out.count_surrogate_round(np.concatenate([scored, t_hybrid[~verified]]))
            oracle = slice(first, first + ORACLE_PER_ROUND)
            out.count(check_oracle(pool.configs[oracle], SCREEN_INTENSITY, subset(refs, oracle)))
            predictions[take] = scored
            nonpositive[take] = scored <= 0
            if tracer is None or k % 2 == 0:
                passes.append((t1 - t0, t2 - t1))
            return t2 - t0

        plain, traced = timed_rounds(seconds, tracer, run_round)
        seen = ~np.isnan(predictions)
        ref = refs["t_star"][seen]
        surrogate_s, exact_s = np.sum(passes, axis=0) / 1e9
        out.lines += [
            f"candidates: pool {SCREEN_POOL}, {len(plain)} untraced rounds of {SCREEN_BATCH} each way; "
            f"surrogate {len(passes) * SCREEN_BATCH / surrogate_s:.0f} per s (with a shortlist of {SHORTLIST} "
            f"through hybrid_predict), exact {len(passes) * SCREEN_BATCH / exact_s:.0f} per s",
            f"surrogate answers <= 0 s: {int(nonpositive.sum())} of {int(seen.sum())} candidates; "
            f"{out.nonpositive_rounds} failed round checks",
        ]
        round_metrics(out, plain, traced, tracer)
        out.metrics["test_r2"] = checks.r2(predictions[seen], ref)
        out.metrics["test_mape_pct"] = checks.mape_pct(predictions[seen], ref)
        return out


def screen_pass(model: mlp.MlpModel, configs) -> np.ndarray:
    """Per-candidate features, then one batched forward pass over the stacked rows."""
    rows = np.stack([datagen.extract_features(cfg).as_array() for cfg in configs])
    return mlp.predict_features(model, rows)


class DeskPipeline:
    """The README recipe through dltsched.cli.main: solve, generate, train, evaluate, predict, hybrid."""

    name = "desk-pipeline"
    trace_setup = False

    def __init__(self, work_root: Path):
        self.work_root = work_root

    def setup(self, seed: int) -> dict:
        work = self.work_root / "warmup"
        for argv in recipe(work, seed, DESK_WARMUP_COUNT, DESK_INTENSITY, DESK_WARMUP_EPOCHS, walk=True):
            call_cli(argv)
        shutil.rmtree(work, ignore_errors=True)
        low = draw_systems(LOW_LOAD_SEED, POOL_STREAM, LOW_LOAD_COUNT, LOW_LOAD_RANGE)
        return {
            "seed": seed,
            "system": systems_of([DESK_SYSTEM]).references(DESK_INTENSITY),
            "low_load": checks.reference_features(low.root_speed, low.speeds, low.bandwidths, low.mask, low.load),
        }

    def run(self, state: dict, seconds: float, tracer) -> Outcome:
        seed = state["seed"]
        out = Outcome()
        quality, nonpositive = [], []

        def run_round(k: int) -> int:
            work = self.work_root / f"round-{k}"
            commands = recipe(work, seed, DESK_COUNT, DESK_INTENSITY, DESK_EPOCHS, walk=True)
            started = clock()
            codes, outputs = zip(*(call_cli(argv) for argv in commands))
            elapsed = clock() - started
            try:
                desk = check_desk(work, codes, outputs, state["system"])
                answers = dataset_answers(work / "model.json", np.concatenate([desk["features"], state["low_load"]]))
            except Exception:
                report_error("desk checks")
                desk = {"stages": [False] * len(commands), "records": [False] * DESK_COUNT,
                        "oracle": [False] * ORACLE_PER_ROUND, "surrogate": np.full(1, np.nan),
                        "r2": np.nan, "mape": np.nan}
                answers = np.full(1, np.nan)
            out.count(desk["stages"])
            out.count(desk["records"])
            out.count(desk["oracle"])
            # Evaluate's 2,000 test answers hold 1-10 at or below 0 s over
            # seeds 1-12, too few to rule out a seed with none; see LOW_LOAD_SEED.
            out.count_surrogate_round(np.concatenate([desk["surrogate"], answers]))
            nonpositive.append(
                (int(np.sum(desk["surrogate"] <= 0)), int(np.sum(answers[:DESK_COUNT] <= 0)), int(np.sum(answers[DESK_COUNT:] <= 0)))
            )
            if tracer is None or k % 2 == 0:
                quality.append((desk["r2"], desk["mape"]))
            shutil.rmtree(work, ignore_errors=True)
            return elapsed

        plain, traced = timed_rounds(seconds, tracer, run_round)
        out.lines += [
            f"recipe rounds: {len(plain)} untraced, {len(traced)} traced",
            "surrogate answers <= 0 s, per round: "
            + ", ".join(f"{test} of the test split and the example system, {whole} of all {DESK_COUNT} records, "
                        f"{low} of {LOW_LOAD_COUNT} low-load systems" for test, whole, low in nonpositive)
            + f"; {out.nonpositive_rounds} failed round checks",
        ]
        round_metrics(out, plain, traced, tracer)
        out.metrics["test_r2"] = statistics.median(q[0] for q in quality)
        out.metrics["test_mape_pct"] = statistics.median(q[1] for q in quality)
        return out


def dataset_answers(model_path: Path, features) -> np.ndarray:
    """The written model's answers for ``features`` (every record, then the low-load systems), in batches."""
    model = load_model_untraced(model_path)
    return np.concatenate(
        [predict_features_untraced(model, features[i : i + DESK_COUNT // 10]) for i in range(0, len(features), DESK_COUNT // 10)]
    )


def check_desk(work: Path, codes, outputs, system_refs: dict) -> dict:
    """Check one desk round from its files and printed answers.

    Returns per-stage verdicts (solve, generate, train, evaluate, predict,
    hybrid), per-record verdicts for the replayed dataset, verdicts for the
    oracle on the first records, the dataset's feature rows, the surrogate
    answers the round printed (evaluate's test predictions, predict's and
    the hybrid's surrogate-branch answer), and the test R2 and MAPE
    recomputed here from evaluate's predictions.
    """
    solved, evaluated, predicted, hybrid = (json.loads(outputs[stage]) for stage in (0, 3, 4, 5))
    solve_ok = codes[0] == 0 and bool(
        checks.check_exact(
            padded_alpha([solved["alpha"]]), np.array([solved["t_star_s"]]), system_refs["alpha"], system_refs["t_star"],
            system_refs["w0"], system_refs["w"], system_refs["z"], system_refs["mask"], system_refs["load"],
        )[0]
    )

    lines = (work / "data.jsonl").read_text().splitlines()
    header = json.loads(lines[0])
    records = [json.loads(line) for line in lines[1:]]
    intensity = float(header["compute_intensity"])
    data = systems_of([config_of(r["config"]) for r in records])
    refs = data.references(intensity)
    labels = np.array([r["t_star"] for r in records])
    features = np.array([r["features"] for r in records], dtype=float)
    replay_ok = checks.close(labels, refs["t_star"]) & checks.check_features(
        features, checks.reference_features(data.root_speed, data.speeds, data.bandwidths, data.mask, data.load)
    )
    oracle_ok = check_oracle(data.configs[:ORACLE_PER_ROUND], intensity, subset(refs, slice(0, ORACLE_PER_ROUND)))
    generate_ok = codes[1] == 0 and header["count"] == DESK_COUNT == len(records) and intensity == DESK_INTENSITY

    report = json.loads((work / "report.json").read_text())
    train_ok = codes[2] == 0 and report["epochs_run"] == DESK_EPOCHS and (work / "model.json").is_file()

    pairs = np.loadtxt(work / "plots" / "pred_vs_actual.csv", delimiter=",", skiprows=1, ndmin=2)
    actual, test_predicted = pairs[:, 0], pairs[:, 1]
    r2, mape = checks.r2(test_predicted, actual), checks.mape_pct(test_predicted, actual)
    evaluate_ok = (
        codes[3] == 0
        and checks.check_report(evaluated, test_predicted, actual)
        and bool(np.all(np.isin(actual, labels)))
        and bool(np.all(np.isfinite(test_predicted)))
        and checks.check_desk_floor(r2, mape)
    )

    estimate = float(predicted["t_star_s"])
    predict_ok = codes[4] == 0 and bool(np.isfinite(estimate))
    verified = hybrid["source"] == "dlt-verified"
    t_hybrid = float(hybrid["t_star_s"])
    hybrid_ok = codes[5] == 0 and bool(
        checks.check_hybrid(
            [t_hybrid], [verified], [hybrid["ml_estimate_s"]], [estimate], system_refs["t_star"],
            HYBRID_THRESHOLD,
        )[0]
    )
    surrogate = np.concatenate([test_predicted, [estimate], [] if verified else [t_hybrid]])
    return {
        "stages": [solve_ok, generate_ok, train_ok, evaluate_ok, predict_ok, hybrid_ok],
        "records": replay_ok,
        "oracle": oracle_ok,
        "features": features,
        "surrogate": surrogate,
        "r2": r2,
        "mape": mape,
    }
