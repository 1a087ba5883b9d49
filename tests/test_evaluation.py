import math

import numpy as np
import pytest

from dltsched import datagen
from dltsched.datagen import extract_features
from dltsched.errors import InvalidInputError
from dltsched.evaluation import (
    HETEROG_BIN_EDGES,
    LOAD_BIN_EDGES,
    Stratum,
    compute_metrics,
    emit_plot_data,
    residual_analysis,
    stratify,
)
from dltsched.mlp import TrainReport
from dltsched.solver import SltnConfig

from conftest import dataset_of

def config_for(n=3, load=10.0, speeds=None, bws=None):
    speeds = speeds or (4.0,) * n
    bws = bws or (40.0,) * n
    return SltnConfig(n=n, root_speed=5.0, child_speeds=tuple(speeds), link_bandwidths=tuple(bws), load_gb=load)


class TestComputeMetrics:
    def test_perfect_predictions(self):
        m = compute_metrics([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert m == Stratum("all", 3, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)

    def test_mean_predictor_scores_zero_r2(self):
        targets = [50.0, 100.0, 150.0]
        m = compute_metrics([100.0, 100.0, 100.0], targets)
        assert m.r2 == pytest.approx(0.0, abs=1e-12)

    def test_hand_computed(self):
        m = compute_metrics([110.0, 180.0], [100.0, 200.0])
        assert m.mae_s == 15.0
        assert m.rmse_s == pytest.approx(math.sqrt(250.0))
        assert m.mape_pct == pytest.approx(10.0)

    @pytest.mark.parametrize(
        "preds, targets",
        [([1.0, 2.0], [5.0, 5.0]), (np.full(7, 2.2) * 1.01, np.full(7, 2.2))],
        ids=["exact-mean", "inexact-mean"],
    )
    def test_targets_holding_one_value_rejected(self, preds, targets):
        # Seven 2.2s have a mean that is not 2.2, so their squared deviations
        # sum to about 1e-30, not 0; the test is on the values themselves.
        with pytest.raises(InvalidInputError, match="one value"):
            compute_metrics(preds, targets)

    @pytest.mark.parametrize(
        "preds, targets",
        [([math.nan, 2.0], [1.0, 2.0]), ([math.inf, 2.0], [1.0, 2.0]), ([1.0, 2.0], [math.inf, 2.0])],
        ids=["nan-prediction", "infinite-prediction", "infinite-target"],
    )
    def test_non_finite_values_rejected(self, preds, targets):
        with pytest.raises(InvalidInputError, match="finite"):
            compute_metrics(preds, targets)

    def test_identities_on_random_data(self):
        rng = np.random.default_rng(0)
        targets = rng.uniform(10.0, 1000.0, size=200)
        preds = targets + rng.normal(0.0, 25.0, size=200)
        m = compute_metrics(preds, targets)
        assert m.mae_s <= m.rmse_s
        assert m.rmse_s**2 == pytest.approx(np.mean((preds - targets) ** 2))
        assert m.r2 <= 1.0

    @pytest.mark.parametrize("k", [1e200, 1e-200], ids=["squares-overflow", "squares-underflow"])
    def test_statistics_scale_with_the_makespans(self, k):
        rng = np.random.default_rng(5)
        targets = rng.uniform(10.0, 1000.0, size=200)
        preds = targets + rng.normal(0.0, 25.0, size=200)
        m, scaled = compute_metrics(preds, targets), compute_metrics(k * preds, k * targets)
        assert scaled.r2 == pytest.approx(m.r2, rel=1e-12)
        assert scaled.mape_pct == pytest.approx(m.mape_pct, rel=1e-12)
        assert scaled.mae_s == pytest.approx(k * m.mae_s, rel=1e-12)
        assert scaled.rmse_s == pytest.approx(k * m.rmse_s, rel=1e-12)

    def test_errors_beyond_the_targets_spread_give_minus_infinite_r2(self):
        # The centred targets' squares underflow to 0 and the errors' do not:
        # the two sums are scaled apart and their ratio overflows.
        m = compute_metrics([1.0, 3.0], [1e-170, 2e-170])
        assert m.r2 == -math.inf
        assert m.rmse_s == pytest.approx(math.sqrt(5.0), rel=1e-12)

    def test_perfect_predictions_of_subnormal_spread_score_one(self):
        # The scale ratio overflows, but there is no error to multiply.
        assert compute_metrics([1e-310, 2e-310], [1e-310, 2e-310]).r2 == 1.0


class TestStratify:
    def test_by_n_buckets_cover_range(self):
        ns = [n for n in range(3, 21) for _ in range(4)]
        dataset = dataset_of([config_for(n=n) for n in ns], [50.0 + n for n in ns])
        rows = stratify(dataset, dataset.t_star * 1.1, "by-n")
        assert len(rows) == 18
        assert [r.bucket for r in rows] == [f"n={n}" for n in range(3, 21)]
        assert all(r.count == 4 for r in rows)
        assert sum(r.count for r in rows) == len(dataset)

    def test_gap_n_reported_empty(self):
        dataset = dataset_of([config_for(n=3), config_for(n=3), config_for(n=5)], [100.0] * 3)
        rows = {r.bucket: r for r in stratify(dataset, [100.0, 90.0, 110.0], "by-n")}
        assert rows["n=4"].count == 0
        assert rows["n=4"][2:] == (None,) * 7

    def test_load_bins(self):
        loads = [2.0, 7.0, 15.0, 30.0, 70.0, 100.0]
        dataset = dataset_of([config_for(load=l) for l in loads], [l * 10 for l in loads])
        rows = stratify(dataset, [l * 10 for l in loads], "by-load")
        assert [r.bucket for r in rows] == ["[1,5)", "[5,10)", "[10,20)", "[20,40)", "[40,100]"]
        assert [r.count for r in rows] == [1, 1, 1, 1, 2]

    def test_heterogeneity_bins(self):
        spreads = [(4.0, 4.0), (4.0, 10.0), (2.0, 14.0), (1.0, 14.0)]
        dataset = dataset_of([config_for(n=2, speeds=s) for s in spreads], [100.0] * 4)
        rows = stratify(dataset, [100.0] * 4, "by-heterogeneity")
        assert [r.bucket for r in rows] == ["[1,2)", "[2,5)", "[5,10)", "[10,15]"]
        assert [r.count for r in rows] == [1, 1, 1, 1]

    def test_single_bucket_matches_global_metrics(self):
        rng = np.random.default_rng(1)
        dataset = dataset_of([config_for(n=7)] * 40, rng.uniform(50, 500, 40))
        preds = dataset.t_star * rng.uniform(0.9, 1.1, 40)
        rows = stratify(dataset, preds, "by-n")
        whole = compute_metrics(preds, dataset.t_star)
        assert len(rows) == 1
        assert rows[0]._replace(bucket="all") == whole

    def test_bucket_maes_recombine_to_global(self):
        rng = np.random.default_rng(2)
        ns, targets = rng.integers(3, 21, 60), rng.uniform(50, 500, 60)
        dataset = dataset_of([config_for(n=int(n)) for n in ns], targets)
        preds = targets + rng.normal(0, 20, 60)
        rows = stratify(dataset, preds, "by-n")
        weighted = sum(r.count * r.mae_s for r in rows if r.count) / len(dataset)
        assert weighted == pytest.approx(compute_metrics(preds, targets).mae_s)

    def test_empty_or_misaligned_predictions_rejected(self):
        dataset = dataset_of([config_for(), config_for()], [1.0, 2.0])
        for data, preds in ((dataset, [1.0]), (dataset.take([]), [])):
            with pytest.raises(InvalidInputError, match="equal-length nonempty"):
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
        rows = stratify(dataset, preds, scheme)
        assert [r.count for r in rows] == [len(groups.get(k, [])) for k in positions]
        for row, k in zip(rows, positions):
            if k in groups:
                assert row == compute_metrics(preds[groups[k]], dataset.t_star[groups[k]])._replace(bucket=row.bucket)


class TestResidualAnalysis:
    def test_residuals_are_prediction_minus_truth(self):
        error_hist, pct_error_hist, pairs = residual_analysis([110.0, 90.0], [100.0, 100.0])
        assert pairs == [(110.0, 10.0), (90.0, -10.0)]
        assert (error_hist[0][0], error_hist[-1][1]) == (-10.0, 10.0)
        assert (pct_error_hist[0][0], pct_error_hist[-1][1]) == (-10.0, 10.0)
        rng = np.random.default_rng(4)
        targets = rng.uniform(100, 2000, 95)
        preds = targets + rng.normal(0, 10, 95)
        for hist in residual_analysis(preds, targets)[:2]:
            assert sum(count for _, _, count in hist) == 95


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

    def test_stratum_table_bytes(self, tmp_path):
        configs = [config_for(n=3), config_for(n=3), config_for(n=5)]
        emit_plot_data(tmp_path, dataset_of(configs, [100.0, 200.0, 300.0]), [110.0, 190.0, 330.0])
        assert (tmp_path / "per_n_errors.csv").read_text() == (
            "bucket,count,r2,mae_s,rmse_s,mape_pct,median_pct,p90_pct,max_pct\n"
            "n=3,2,0.96,10.0,10.0,7.500000000000001,7.5,9.5,10.0\n"
            "n=4,0,,,,,,,\n"
            "n=5,1,nan,30.0,30.0,10.0,10.0,10.0,10.0\n"
        )

    def test_rerun_is_byte_identical(self, tmp_path):
        dataset, preds, report = self.sample_inputs()
        d1, d2 = tmp_path / "one", tmp_path / "two"
        emit_plot_data(d1, dataset, preds, train_report=report)
        emit_plot_data(d2, dataset, preds, train_report=report)
        assert len(list(d1.iterdir())) == 8
        for f in sorted(d1.iterdir()):
            assert f.read_bytes() == (d2 / f.name).read_bytes()
