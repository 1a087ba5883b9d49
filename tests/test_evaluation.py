import math

import numpy as np
import pytest

from dltsched import datagen
from dltsched.datagen import extract_features
from dltsched.errors import InvalidInputError
from dltsched.evaluation import (
    HETEROG_BIN_EDGES,
    LOAD_BIN_EDGES,
    compute_metrics,
    emit_plot_data,
    feature_importance,
    residual_analysis,
    stratify,
)
from dltsched.mlp import MlpModel, TrainReport, init_params
from dltsched.solver import SltnConfig

from conftest import dataset_of

IDENTITY_NORM = datagen.NormalizationStats(
    feature_means=(0.0,) * 16, feature_stds=(1.0,) * 16, target_mean=0.0, target_std=1.0
)


def config_for(n=3, load=10.0, speeds=None, bws=None):
    speeds = speeds or (4.0,) * n
    bws = bws or (40.0,) * n
    return SltnConfig(n=n, root_speed=5.0, child_speeds=tuple(speeds), link_bandwidths=tuple(bws), load_gb=load)


class TestComputeMetrics:
    def test_perfect_predictions(self):
        m = compute_metrics([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert (m.r2, m.mae, m.rmse, m.mape) == (1.0, 0.0, 0.0, 0.0)
        assert m.count == 3

    def test_mean_predictor_scores_zero_r2(self):
        targets = [50.0, 100.0, 150.0]
        m = compute_metrics([100.0, 100.0, 100.0], targets)
        assert m.r2 == pytest.approx(0.0, abs=1e-12)

    def test_hand_computed(self):
        m = compute_metrics([110.0, 180.0], [100.0, 200.0])
        assert m.mae == 15.0
        assert m.rmse == pytest.approx(math.sqrt(250.0))
        assert m.mape == pytest.approx(10.0)

    def test_zero_variance_targets_rejected(self):
        with pytest.raises(InvalidInputError):
            compute_metrics([1.0, 2.0], [5.0, 5.0])

    def test_identities_on_random_data(self):
        rng = np.random.default_rng(0)
        targets = rng.uniform(10.0, 1000.0, size=200)
        preds = targets + rng.normal(0.0, 25.0, size=200)
        m = compute_metrics(preds, targets)
        assert m.mae <= m.rmse
        assert m.rmse**2 == pytest.approx(np.mean((preds - targets) ** 2))
        assert m.r2 <= 1.0


class TestStratify:
    def test_by_n_buckets_cover_range(self):
        ns = [n for n in range(3, 21) for _ in range(4)]
        dataset = dataset_of([config_for(n=n) for n in ns], [50.0 + n for n in ns])
        report = stratify(dataset, dataset.t_star * 1.1, "by-n")
        assert len(report.buckets) == 18
        assert [b.label for b in report.buckets] == [f"n={n}" for n in range(3, 21)]
        assert all(b.count == 4 for b in report.buckets)
        assert sum(b.count for b in report.buckets) == report.total_count

    def test_gap_n_reported_empty(self):
        dataset = dataset_of([config_for(n=3), config_for(n=3), config_for(n=5)], [100.0] * 3)
        report = stratify(dataset, [100.0, 90.0, 110.0], "by-n")
        labels = {b.label: b for b in report.buckets}
        assert labels["n=4"].count == 0
        assert labels["n=4"].metrics is None

    def test_load_bins(self):
        loads = [2.0, 7.0, 15.0, 30.0, 70.0, 100.0]
        dataset = dataset_of([config_for(load=l) for l in loads], [l * 10 for l in loads])
        report = stratify(dataset, [l * 10 for l in loads], "by-load")
        assert [b.label for b in report.buckets] == ["[1,5)", "[5,10)", "[10,20)", "[20,40)", "[40,100]"]
        assert [b.count for b in report.buckets] == [1, 1, 1, 1, 2]

    def test_heterogeneity_bins(self):
        spreads = [(4.0, 4.0), (4.0, 10.0), (2.0, 14.0), (1.0, 14.0)]
        dataset = dataset_of([config_for(n=2, speeds=s) for s in spreads], [100.0] * 4)
        report = stratify(dataset, [100.0] * 4, "by-heterogeneity")
        assert [b.label for b in report.buckets] == ["[1,2)", "[2,5)", "[5,10)", "[10,15]"]
        assert [b.count for b in report.buckets] == [1, 1, 1, 1]

    def test_single_bucket_matches_global_metrics(self):
        rng = np.random.default_rng(1)
        dataset = dataset_of([config_for(n=7)] * 40, rng.uniform(50, 500, 40))
        preds = dataset.t_star * rng.uniform(0.9, 1.1, 40)
        report = stratify(dataset, preds, "by-n")
        whole = compute_metrics(preds, dataset.t_star)
        assert len(report.buckets) == 1
        assert report.buckets[0].metrics == whole

    def test_bucket_maes_recombine_to_global(self):
        rng = np.random.default_rng(2)
        ns, targets = rng.integers(3, 21, 60), rng.uniform(50, 500, 60)
        dataset = dataset_of([config_for(n=int(n)) for n in ns], targets)
        preds = targets + rng.normal(0, 20, 60)
        report = stratify(dataset, preds, "by-n")
        weighted = sum(b.count * b.metrics.mae for b in report.buckets if b.count) / report.total_count
        assert weighted == pytest.approx(compute_metrics(preds, targets).mae)

    def test_empty_or_misaligned_predictions_rejected(self):
        dataset = dataset_of([config_for(), config_for()], [1.0, 2.0])
        for data, preds in ((dataset, [1.0]), (dataset.take([]), [])):
            with pytest.raises(InvalidInputError, match="at least one record"):
                stratify(data, preds, "by-n")

    def test_unknown_scheme_rejected(self):
        with pytest.raises(InvalidInputError):
            stratify(dataset_of([config_for()], [1.0]), [1.0], "by-moon-phase")
        with pytest.raises(InvalidInputError):
            stratify(dataset_of([config_for()], [1.0]), [1.0], "all")


class TestStratifyColumns:
    @pytest.mark.parametrize(
        "scheme, key, edges",
        [
            ("by-n", lambda config: config.n, None),
            ("by-load", lambda config: config.load_gb, LOAD_BIN_EDGES),
            ("by-heterogeneity", lambda config: extract_features(config).heterog_w, HETEROG_BIN_EDGES),
        ],
    )
    def test_matches_groups_built_from_configs(self, scheme, key, edges):
        dataset = datagen.generate_dataset(400, seed=13)
        preds = dataset.t_star * np.random.default_rng(13).uniform(0.8, 1.2, len(dataset))
        groups: dict[int, list[int]] = {}
        for i, config in enumerate(dataset.configs):
            value = key(config)
            groups.setdefault(value if edges is None else sum(value >= e for e in edges[1:-1]), []).append(i)
        positions = range(min(groups), max(groups) + 1) if edges is None else range(len(edges) - 1)
        report = stratify(dataset, preds, scheme)
        assert [b.count for b in report.buckets] == [len(groups.get(k, [])) for k in positions]
        for bucket, k in zip(report.buckets, positions):
            if k in groups:
                assert bucket.metrics == compute_metrics(preds[groups[k]], dataset.t_star[groups[k]])


class TestResidualAnalysis:
    def test_perfect_predictions(self):
        targets = [100.0, 200.0, 300.0]
        r = residual_analysis(targets, targets)
        assert r.mean_error == 0.0
        assert r.share_within_50s == 1.0
        assert r.share_within_100s == 1.0
        assert r.share_pct_within_10 == 1.0

    def test_window_shares(self):
        targets = np.array([1000.0, 1000.0])
        preds = targets + np.array([-60.0, 60.0])
        r = residual_analysis(preds, targets)
        assert r.share_within_50s == 0.0
        assert r.share_within_100s == 1.0

    def test_share_monotonicity(self):
        rng = np.random.default_rng(3)
        targets = rng.uniform(100, 2000, 500)
        preds = targets + rng.normal(0, 80, 500)
        r = residual_analysis(preds, targets)
        assert r.share_within_50s <= r.share_within_100s

    def test_decile_dispersion_counts(self):
        rng = np.random.default_rng(4)
        targets = rng.uniform(100, 2000, 95)
        preds = targets + rng.normal(0, 10, 95)
        r = residual_analysis(preds, targets)
        assert sum(d.count for d in r.decile_dispersion) == 95
        los = [d.prediction_lo for d in r.decile_dispersion]
        assert los == sorted(los)


class TestFeatureImportance:
    def test_zero_model_has_zero_importance(self):
        params = init_params(0)
        for w in params.weights:
            w[:] = 0.0
        model = MlpModel(params=params, norm=IDENTITY_NORM)
        ranked = feature_importance(model, np.random.default_rng(5).normal(size=(20, 16)))
        assert all(v == 0.0 for _, v in ranked)

    def test_duplicated_input_columns_rank_equally(self):
        params = init_params(6)
        params.weights[0][:, 1] = params.weights[0][:, 0]
        model = MlpModel(params=params, norm=IDENTITY_NORM)
        ranked = dict(feature_importance(model, np.random.default_rng(6).normal(size=(50, 16))))
        assert ranked["n"] == pytest.approx(ranked["load_gb"], rel=1e-12)

    def test_matches_finite_difference_sensitivities(self):
        from dltsched.mlp import forward

        params = init_params(9)
        model = MlpModel(params=params, norm=IDENTITY_NORM)
        x = np.random.default_rng(7).normal(size=(10, 16))
        ranked = dict(feature_importance(model, x))
        eps = 1e-6
        for j, name in enumerate(datagen.FEATURE_NAMES):
            sens = []
            for row in x:
                up, down = row.copy(), row.copy()
                up[j] += eps
                down[j] -= eps
                sens.append((forward(params, up)[0][0] - forward(params, down)[0][0]) / (2 * eps))
            assert abs(np.mean(np.abs(sens)) - ranked[name]) <= 1e-3

    def test_ranked_descending(self):
        model = MlpModel(params=init_params(10), norm=IDENTITY_NORM)
        ranked = feature_importance(model, np.random.default_rng(8).normal(size=(30, 16)))
        values = [v for _, v in ranked]
        assert values == sorted(values, reverse=True)


class TestEmitPlotData:
    @staticmethod
    def sample_inputs():
        rng = np.random.default_rng(9)
        ns, loads, targets = rng.integers(3, 21, 80), rng.uniform(1, 100, 80), rng.uniform(50, 2000, 80)
        dataset = dataset_of([config_for(n=int(n), load=float(l)) for n, l in zip(ns, loads)], targets)
        preds = targets + rng.normal(0, 30, 80)
        report = TrainReport(
            epochs_run=5,
            train_losses=[0.5, 0.3, 0.2, 0.15, 0.12],
            val_losses=[0.6, 0.35, 0.25, 0.2, 0.21],
            best_epoch=4,
            best_val_loss=0.2,
            wall_seconds=1.0,
            stopped_early=True,
        )
        return dataset, preds, report

    def test_writes_all_tables(self, tmp_path):
        dataset, preds, report = self.sample_inputs()
        files = emit_plot_data(tmp_path, dataset, preds, train_report=report)
        names = {f.name for f in files}
        assert names == {
            "loss_curves.csv",
            "pred_vs_actual.csv",
            "error_hist.csv",
            "pct_error_hist.csv",
            "residual_vs_predicted.csv",
            "per_n_errors.csv",
            "load_bin_errors.csv",
            "heterog_bin_errors.csv",
        }

    def test_loss_curve_rows_match_epochs(self, tmp_path):
        dataset, preds, report = self.sample_inputs()
        files = emit_plot_data(tmp_path, dataset, preds, train_report=report)
        assert files[0].name == "loss_curves.csv"
        lines = files[0].read_text().splitlines()
        assert len(lines) == 1 + report.epochs_run
        assert "loss_curves.csv" not in {f.name for f in emit_plot_data(tmp_path / "none", dataset, preds)}

    def test_histogram_counts_sum_to_samples(self, tmp_path):
        dataset, preds, _ = self.sample_inputs()
        emit_plot_data(tmp_path, dataset, preds)
        for name in ("error_hist.csv", "pct_error_hist.csv"):
            rows = (tmp_path / name).read_text().splitlines()[1:]
            assert sum(int(r.split(",")[2]) for r in rows) == len(dataset)

    def test_rerun_is_byte_identical(self, tmp_path):
        dataset, preds, report = self.sample_inputs()
        d1, d2 = tmp_path / "one", tmp_path / "two"
        emit_plot_data(d1, dataset, preds, train_report=report)
        emit_plot_data(d2, dataset, preds, train_report=report)
        assert len(list(d1.iterdir())) == 8
        for f in sorted(d1.iterdir()):
            assert f.read_bytes() == (d2 / f.name).read_bytes()
