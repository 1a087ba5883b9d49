import json

import pytest

from dltsched import mlp, solver
from dltsched.cli import hybrid_predict, main, parse_config_text
from dltsched.errors import InvalidInputError

from conftest import constant_model


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def tiny_pipeline(tmp_path_factory):
    """Small end-to-end artifacts shared by the CLI tests; accuracy is
    irrelevant here, only the plumbing."""
    root = tmp_path_factory.mktemp("pipeline")
    data = root / "data.jsonl"
    model = root / "model.json"
    report = root / "report.json"
    assert main(["generate", "--count", "80", "--seed", "5", "--out", str(data), "--n-range", "3", "4"]) == 0
    assert (
        main(
            [
                "train",
                "--data",
                str(data),
                "--out",
                str(model),
                "--seed",
                "1",
                "--max-epochs",
                "3",
                "--batch-size",
                "16",
                "--report",
                str(report),
            ]
        )
        == 0
    )
    return {"data": data, "model": model, "report": report}


class TestSolveCommand:
    HOMOGENEOUS = [
        "solve",
        "--root-speed", "100", "--load-gb", "1",
        "--child", "100:1000", "--child", "100:1000",
    ]

    def test_homogeneous_example_to_nine_decimals(self, capsys):
        code, out, _ = run(capsys, *self.HOMOGENEOUS)
        assert code == 0
        assert "alpha[0] (root) = 0.571428571" in out
        assert "alpha[1] = 0.285714286" in out
        assert "alpha[2] = 0.142857143" in out
        assert "T* = 0.571428571 s" in out

    def test_machine_format_is_single_line_json(self, capsys):
        code, out, _ = run(capsys, *self.HOMOGENEOUS, "--format", "machine")
        assert code == 0
        assert len(out.strip().splitlines()) == 1
        payload = json.loads(out)
        assert payload["alpha"] == pytest.approx([4 / 7, 2 / 7, 1 / 7])
        assert payload["t_star_s"] == pytest.approx(4 / 7)

    def test_config_file_input(self, capsys, tmp_path):
        config = tmp_path / "system.txt"
        config.write_text(
            "# two equal children\n"
            "root_speed 100\n"
            "load_gb 1\n"
            "child 100 1000\n"
            "child 100 1000\n"
        )
        code, out, _ = run(capsys, "solve", "--config", str(config))
        assert code == 0
        assert "T* = 0.571428571 s" in out

    def test_missing_system_flags_is_usage_error(self, capsys):
        code, _, err = run(capsys, "solve", "--root-speed", "5")
        assert code == 2
        assert "error" in err

    def test_malformed_config_file(self, capsys, tmp_path):
        config = tmp_path / "bad.txt"
        config.write_text("root_speed fast\n")
        code, _, err = run(capsys, "solve", "--config", str(config))
        assert code == 2
        assert "bad.txt:1" in err

    def test_missing_required_flag_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["generate", "--seed", "1", "--out", "x"])
        assert exc.value.code == 2


class TestParseConfigText:
    def test_round_trip_fields(self):
        cfg = parse_config_text("root_speed 7.5\nload_gb 12\nchild 3 30\nchild 4 40\n")
        assert cfg.n == 2
        assert cfg.root_speed == 7.5
        assert cfg.child_speeds == (3.0, 4.0)
        assert cfg.link_bandwidths == (30.0, 40.0)

    def test_equals_sign_tolerated(self):
        cfg = parse_config_text("root_speed = 5\nload_gb = 2\nchild 1 10\n")
        assert cfg.root_speed == 5.0

    def test_missing_children_rejected(self):
        with pytest.raises(InvalidInputError):
            parse_config_text("root_speed 5\nload_gb 2\n")


class TestGenerateCommand:
    def test_identical_seeds_identical_files(self, capsys, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert run(capsys, "generate", "--count", "50", "--seed", "7", "--out", str(a))[0] == 0
        assert run(capsys, "generate", "--count", "50", "--seed", "7", "--out", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_different_seeds_differ(self, capsys, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        run(capsys, "generate", "--count", "50", "--seed", "7", "--out", str(a))
        run(capsys, "generate", "--count", "50", "--seed", "8", "--out", str(b))
        assert a.read_bytes() != b.read_bytes()


class TestTrainCommand:
    def test_single_epoch_report(self, capsys, tmp_path, tiny_pipeline):
        model = tmp_path / "m.json"
        report = tmp_path / "r.json"
        code, out, _ = run(
            capsys,
            "train",
            "--data", str(tiny_pipeline["data"]),
            "--out", str(model),
            "--max-epochs", "1",
            "--report", str(report),
        )
        assert code == 0
        payload = json.loads(report.read_text())
        assert payload["epochs_run"] == 1
        assert len(payload["train_losses"]) == 1
        assert "trained 1 epochs" in out

    def test_model_is_loadable(self, tiny_pipeline):
        model = mlp.load_model(tiny_pipeline["model"])
        assert model.params.param_count() == 12_545
        assert model.metadata["split_seed"] == 1
        assert model.metadata["compute_intensity"] == 100.0

    def test_missing_dataset_is_data_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "train", "--data", str(tmp_path / "nope.jsonl"), "--out", str(tmp_path / "m.json"))
        assert code == 3
        assert "error" in err

    @pytest.mark.parametrize(
        "edit",
        [lambda head: {k: v for k, v in head.items() if k != "ranges"}, lambda head: [1, 2]],
        ids=["header-without-ranges", "header-is-list"],
    )
    def test_malformed_dataset_header_is_data_error(self, capsys, tmp_path, tiny_pipeline, edit):
        lines = tiny_pipeline["data"].read_text().splitlines()
        lines[0] = json.dumps(edit(json.loads(lines[0])))
        bad = tmp_path / "data.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        code, _, err = run(capsys, "train", "--data", str(bad), "--out", str(tmp_path / "m.json"))
        assert code == 3
        assert err.splitlines()[-1].startswith("error: ") and "malformed header" in err


class TestEvaluateCommand:
    def test_machine_metrics(self, capsys, tiny_pipeline):
        code, out, _ = run(
            capsys,
            "evaluate",
            "--model", str(tiny_pipeline["model"]),
            "--data", str(tiny_pipeline["data"]),
            "--format", "machine",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["split"] == "test"
        assert payload["count"] == 8  # 10% of 80
        assert set(payload) == {"split", "count", "r2", "mae_s", "rmse_s", "mape_pct"}

    def test_plot_tables_written(self, capsys, tmp_path, tiny_pipeline):
        out_dir = tmp_path / "plots"
        code, _, err = run(
            capsys,
            "evaluate",
            "--model", str(tiny_pipeline["model"]),
            "--data", str(tiny_pipeline["data"]),
            "--split", "all",
            "--out", str(out_dir),
            "--train-report", str(tiny_pipeline["report"]),
        )
        assert code == 0
        names = {f.name for f in out_dir.iterdir()}
        assert "loss_curves.csv" in names
        assert "per_n_errors.csv" in names

    @pytest.mark.parametrize(
        "content",
        ["not json\n", '{"epochs_run": 2}\n', None],
        ids=["not-json", "missing-key", "extra-key"],
    )
    def test_malformed_train_report_is_data_error(self, capsys, tmp_path, tiny_pipeline, content):
        if content is None:
            payload = json.loads(tiny_pipeline["report"].read_text())
            content = json.dumps({**payload, "learning_rate": 0.001})
        bad = tmp_path / "report.json"
        bad.write_text(content)
        code, _, err = run(
            capsys,
            "evaluate",
            "--model", str(tiny_pipeline["model"]),
            "--data", str(tiny_pipeline["data"]),
            "--out", str(tmp_path / "plots"),
            "--train-report", str(bad),
        )
        assert code == 3
        assert err.splitlines()[-1].startswith("error: ") and "not a train report" in err

    def test_intensity_mismatch_is_data_error(self, capsys, tmp_path, tiny_pipeline):
        other = tmp_path / "other.jsonl"
        run(capsys, "generate", "--count", "40", "--seed", "2", "--out", str(other), "--compute-intensity", "50")
        code, _, err = run(capsys, "evaluate", "--model", str(tiny_pipeline["model"]), "--data", str(other))
        assert code == 3
        assert "incompatible" in err


class TestPredictCommand:
    def test_prediction_is_deterministic(self, capsys, tiny_pipeline):
        argv = [
            "predict",
            "--model", str(tiny_pipeline["model"]),
            "--root-speed", "10", "--load-gb", "50",
            "--child", "5:100", "--child", "8:25", "--child", "11:75",
            "--format", "machine",
        ]
        code, out1, _ = run(capsys, *argv)
        assert code == 0
        _, out2, _ = run(capsys, *argv)
        assert out1 == out2
        assert isinstance(json.loads(out1)["t_star_s"], float)

    def test_malformed_layer_dims_is_data_error(self, capsys, tmp_path, tiny_pipeline):
        bundle = json.loads(tiny_pipeline["model"].read_text())
        bundle["layer_dims"] = 5
        bad = tmp_path / "model.json"
        bad.write_text(json.dumps(bundle))
        code, _, err = run(
            capsys,
            "predict",
            "--model", str(bad),
            "--root-speed", "10", "--load-gb", "50",
            "--child", "5:100",
        )
        assert code == 3
        assert err.splitlines()[-1].startswith("error: ") and "layer dimensions" in err


class TestHybrid:
    @staticmethod
    def config():
        return solver.SltnConfig(
            n=3, root_speed=4.0, child_speeds=(3.0, 6.0, 9.0), link_bandwidths=(30.0, 60.0, 90.0), load_gb=20.0
        )

    def test_below_threshold_keeps_ml_estimate(self, tiny_pipeline):
        model = mlp.load_model(tiny_pipeline["model"])
        decision = hybrid_predict(model, self.config(), threshold=1e12)
        assert decision.source == "ml"
        assert decision.t_star == decision.ml_estimate

    def test_above_threshold_returns_exact_value(self, tiny_pipeline):
        model = mlp.load_model(tiny_pipeline["model"])
        config = self.config()
        decision = hybrid_predict(model, config, threshold=0.0)
        assert decision.source == "dlt-verified"
        exact = solver.solve_optimal(solver.to_time_rates(config, 100.0), config.load_gb)
        assert decision.t_star == exact.t_star

    def test_surrogate_branch_is_bounded(self):
        config = self.config()
        decision = hybrid_predict(constant_model(-5.0, compute_intensity=100.0), config, threshold=1e12)
        assert decision.source == "ml"
        assert decision.t_star == decision.ml_estimate == 100.0 * 20.0 / (4.0 + 3 * 6.0)

    def test_heterogeneity_trigger(self, tiny_pipeline):
        model = mlp.load_model(tiny_pipeline["model"])
        config = solver.SltnConfig(
            n=2, root_speed=4.0, child_speeds=(1.0, 14.0), link_bandwidths=(50.0, 50.0), load_gb=10.0
        )
        decision = hybrid_predict(model, config, threshold=1e12, heterog_threshold=10.0)
        assert decision.source == "dlt-verified"

    def test_cli_output(self, capsys, tiny_pipeline):
        code, out, _ = run(
            capsys,
            "hybrid",
            "--model", str(tiny_pipeline["model"]),
            "--root-speed", "4", "--load-gb", "20",
            "--child", "3:30", "--child", "6:60", "--child", "9:90",
            "--threshold", "0",
            "--format", "machine",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["source"] == "dlt-verified"
        exact = solver.solve_optimal(solver.to_time_rates(self.config(), 100.0), 20.0)
        assert payload["t_star_s"] == pytest.approx(exact.t_star, rel=1e-12)
