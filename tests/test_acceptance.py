"""Acceptance gate: one test per release criterion, each printing a
PASS/FAIL line (run with -s to see them on the terminal).

The desk-scale surrogate (20k samples, fixed seed) is trained once per
session by the conftest fixture and shared by the learning-quality
criteria.
"""

import math
import time

import numpy as np
import pytest

from dltsched import cli, datagen, evaluation, mlp
from dltsched.solver import (
    TimeRates,
    simulate_timeline,
    solve_optimal,
    to_time_rates,
)

from conftest import DESK_INTENSITY, desk_train_config, exact_solve


def report_line(number: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {number:2d}: {detail}")


@pytest.fixture(scope="module")
def solver_sweep():
    """1,000 seeded random configurations solved in closed form and exactly."""
    rng = np.random.default_rng(20_240_001)
    cases = []
    started = time.perf_counter()
    for _ in range(1000):
        config = datagen.sample_config(rng)
        rates = to_time_rates(config)
        closed = solve_optimal(rates, config.load_gb)
        cases.append((rates, config.load_gb, closed, exact_solve(rates, config.load_gb)))
    elapsed = time.perf_counter() - started
    return cases, elapsed


class TestSolverCriteria:
    def test_1_exact_equivalence(self, solver_sweep):
        cases, elapsed = solver_sweep
        worst = 0.0
        for _, _, closed, (shares, t_star) in cases:
            worst = max(worst, abs(closed.t_star - t_star) / t_star)
            for a, b in zip(closed.alpha, shares):
                worst = max(worst, abs(a - b) / b)
        ok = worst <= 1e-9 and elapsed < 5.0
        report_line(1, ok, f"exact equivalence: worst rel diff {worst:.2e} over 1000 configs in {elapsed:.2f}s")
        assert worst <= 1e-9
        assert elapsed < 5.0

    def test_2_simultaneous_finish(self, solver_sweep):
        cases, _ = solver_sweep
        worst = 0.0
        for rates, load, closed, _ in cases:
            profile = simulate_timeline(rates, closed.alpha, load)
            for t in profile.compute_finish:
                worst = max(worst, abs(t - closed.t_star) / closed.t_star)
        ok = worst <= 1e-9
        report_line(2, ok, f"simultaneous finish: worst rel spread {worst:.2e}")
        assert ok

    def test_3_conservation_and_positivity(self, solver_sweep):
        cases, _ = solver_sweep
        worst_sum = 0.0
        min_alpha = 1.0
        for _, _, closed, _ in cases:
            worst_sum = max(worst_sum, abs(math.fsum(closed.alpha) - 1.0))
            min_alpha = min(min_alpha, min(closed.alpha))
        ok = worst_sum <= 1e-12 and min_alpha > 0.0
        report_line(3, ok, f"conservation/positivity: |sum-1| <= {worst_sum:.2e}, min alpha {min_alpha:.2e}")
        assert worst_sum <= 1e-12
        assert min_alpha > 0.0

    def test_4_homogeneous_closed_form(self):
        worst = 0.0
        for n in range(1, 11):
            rates = TimeRates(w0=1.0, w=(1.0,) * n, z=(1.0,) * n)
            got = solve_optimal(rates, 1.0).t_star_norm
            rho = 2.0
            expected = rho**n * (rho - 1.0) / (rho ** (n + 1) - 1.0)
            worst = max(worst, abs(got - expected) / expected)
        ok = worst <= 1e-12
        report_line(4, ok, f"homogeneous closed form n=1..10: worst rel err {worst:.2e}")
        assert ok


class TestNetworkCriteria:
    def test_5_parameter_count(self):
        count = mlp.init_params(0).param_count()
        ok = count == 12_545
        report_line(5, ok, f"parameter count: {count}")
        assert ok

    def test_6_gradient_check(self):
        started = time.perf_counter()
        rng = np.random.default_rng(31)
        params = mlp.init_params(31, (16, 4, 3, 2, 1))
        for b in params.biases:
            b[:] = rng.normal(size=b.shape)  # keep pre-activations off the ReLU kink
        x = rng.normal(size=(8, 16))
        y = rng.normal(size=8)
        preds, cache = mlp.forward(params, x)
        grads = mlp.backward(params, cache, preds - y)
        eps = 1e-5
        worst = 0.0
        for arr, grad in zip(
            [*params.weights, *params.biases], [*grads.weights, *grads.biases]
        ):
            flat, gflat = arr.ravel(), grad.ravel()
            for i in range(flat.size):
                saved = flat[i]
                flat[i] = saved + eps
                up = mlp.loss_mse(mlp.forward(params, x)[0], y)
                flat[i] = saved - eps
                down = mlp.loss_mse(mlp.forward(params, x)[0], y)
                flat[i] = saved
                numeric = (up - down) / (2 * eps)
                denom = max(abs(numeric), abs(gflat[i]), 1e-8)
                worst = max(worst, abs(numeric - gflat[i]) / denom)
        elapsed = time.perf_counter() - started
        ok = worst <= 1e-4 and elapsed < 10.0
        report_line(6, ok, f"gradient check: worst rel diff {worst:.2e} in {elapsed:.2f}s")
        assert worst <= 1e-4
        assert elapsed < 10.0


class TestLearningCriteria:
    def test_7_desk_scale_learning(self, desk_run):
        preds = mlp.predict_features(desk_run["model"], desk_run["test"].features)
        metrics = evaluation.compute_metrics(preds, desk_run["test"].t_star)
        stopped = [desk_run["report"].stopped_early]
        for backup_seed in (1, 2):
            if any(stopped):
                break
            _, rep = mlp.train(
                desk_run["train"].features,
                desk_run["train"].t_star,
                desk_run["val"].features,
                desk_run["val"].t_star,
                desk_train_config(backup_seed),
                metadata=mlp.ModelMetadata(compute_intensity=DESK_INTENSITY),
            )
            stopped.append(rep.stopped_early)
        elapsed = desk_run["pipeline_seconds"]
        ok = metrics.r2 >= 0.95 and metrics.mape_pct <= 10.0 and any(stopped) and elapsed <= 600.0
        report_line(
            7,
            ok,
            f"desk-scale learning: R2={metrics.r2:.4f} (>=0.95), MAPE={metrics.mape_pct:.2f}% (<=10%), "
            f"early stop {stopped}, pipeline {elapsed:.0f}s (<=600s)",
        )
        assert metrics.r2 >= 0.95
        assert metrics.mape_pct <= 10.0
        assert any(stopped)
        assert elapsed <= 600.0

    def test_generalization_gap(self, desk_run):
        # Not a numbered criterion: train-split MSE should not exceed test-split MSE.
        model = desk_run["model"]
        train_preds = mlp.predict_features(model, desk_run["train"].features)
        test_preds = mlp.predict_features(model, desk_run["test"].features)
        train_mse = np.mean((train_preds - desk_run["train"].t_star) ** 2)
        test_mse = np.mean((test_preds - desk_run["test"].t_star) ** 2)
        assert train_mse <= test_mse

    def test_range_coverage(self, desk_run):
        # Dataset-level sanity on the shared desk-scale sample.
        ns = {config.n for config in desk_run["dataset"].configs}
        assert ns == set(range(3, 21))
        ratios = desk_run["dataset"].column("comp_comm_ratio")
        assert ratios.min() >= 0.01 and ratios.max() <= 1.5

    def test_8_inference_latency(self, desk_run):
        model = desk_run["model"]
        configs = desk_run["test"].configs
        calls = 10_000
        timings = np.empty(calls)
        for i in range(calls):
            config = configs[i % len(configs)]
            t0 = time.perf_counter()
            mlp.predict(model, config)
            timings[i] = time.perf_counter() - t0
        median_ms = float(np.median(timings)) * 1e3
        ok = median_ms < 1.0
        report_line(8, ok, f"inference latency: median {median_ms:.3f} ms over {calls} calls")
        assert ok

    def test_9_stratified_stability(self, desk_run):
        preds = mlp.predict_features(desk_run["model"], desk_run["test"].features)
        by_n = evaluation.stratify(desk_run["test"], preds, "by-n")
        medians = [row.median_pct for row in by_n if row.count]
        spread = max(medians) - min(medians)
        ok = len(medians) == 18 and spread <= 10.0
        report_line(9, ok, f"stratified stability: per-n median pct in [{min(medians):.2f}, {max(medians):.2f}], spread {spread:.2f}")
        assert len(medians) == 18
        assert spread <= 10.0

    def test_10_load_error_direction(self, desk_run):
        preds = mlp.predict_features(desk_run["model"], desk_run["test"].features)
        by_load = evaluation.stratify(desk_run["test"], preds, "by-load")
        buckets = {row.bucket: row for row in by_load}
        small = buckets["[1,5)"].median_pct
        large = buckets["[40,100]"].median_pct
        ok = large < small
        report_line(10, ok, f"load-error direction: median pct {large:.2f}% (>=40GB) < {small:.2f}% (<5GB)")
        assert ok

    def test_11_hybrid_safety(self, desk_run):
        model = desk_run["model"]
        threshold = 5000.0
        verified = 0
        for config, exact in zip(desk_run["test"].configs, desk_run["test"].t_star.tolist()):
            decision = cli.hybrid_predict(model, config, threshold)
            ml_error = abs(decision.ml_estimate - exact)
            hybrid_error = abs(decision.t_star - exact)
            assert hybrid_error <= ml_error + 1e-9
            if decision.source == "ml":
                assert decision.t_star == decision.ml_estimate
            else:
                verified += 1
                assert decision.ml_estimate > threshold
                assert hybrid_error <= 1e-6 * exact
        report_line(11, True, f"hybrid safety: {verified} of {len(desk_run['test'])} verified exactly, rest untouched")


class TestDeterminismCriterion:
    def test_12_pipeline_determinism(self, tmp_path):
        # Full pipeline twice at reduced scale; the property is seed-driven
        # and scale-free while keeping the suite fast.
        outputs = []
        for run in ("one", "two"):
            d = tmp_path / run
            d.mkdir()
            dataset = datagen.generate_dataset(1500, seed=3, compute_intensity=DESK_INTENSITY)
            header = datagen.DatasetHeader(seed=3, ranges=datagen.SamplerRanges(), compute_intensity=DESK_INTENSITY)
            datagen.save_dataset(d / "data.jsonl", dataset, header)
            train, val, test = datagen.split_dataset(dataset, 3)
            model, report = mlp.train(
                train.features,
                train.t_star,
                val.features,
                val.t_star,
                mlp.TrainConfig(seed=3, max_epochs=4),
                metadata=mlp.ModelMetadata(train_seed=3, split_seed=3, compute_intensity=DESK_INTENSITY),
            )
            mlp.save_model(d / "model.json", model)
            preds = mlp.predict_features(model, test.features)
            evaluation.emit_plot_data(d / "plots", test, preds, train_report=report)
            outputs.append(d)

        one, two = outputs
        same_data = (one / "data.jsonl").read_bytes() == (two / "data.jsonl").read_bytes()
        same_model = (one / "model.json").read_bytes() == (two / "model.json").read_bytes()
        plot_names = sorted(f.name for f in (one / "plots").iterdir())
        same_plots = len(plot_names) == 8 and all(
            (one / "plots" / name).read_bytes() == (two / "plots" / name).read_bytes() for name in plot_names
        )
        m1 = mlp.load_model(one / "model.json")
        m2 = mlp.load_model(two / "model.json")
        same_bits = all(
            np.array_equal(w1, w2) for w1, w2 in zip(m1.params.weights, m2.params.weights)
        ) and all(np.array_equal(b1, b2) for b1, b2 in zip(m1.params.biases, m2.params.biases))
        ok = same_data and same_model and same_plots and same_bits
        report_line(
            12,
            ok,
            f"determinism: dataset bytes {same_data}, model bytes {same_model}, "
            f"weights bit-identical {same_bits}, plot tables {same_plots}",
        )
        assert ok
