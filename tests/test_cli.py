import hashlib
import io
import json
import math
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dltsched
from dltsched import codec, datagen, mlp, solver
from dltsched.cli import hybrid_predict, main
from dltsched.errors import InvalidInputError
from dltsched.solver import parse_system

from conftest import constant_model

# Each weight's and bias's index in a bundle's flat "params" list.
_AT = mlp.MlpParams(np.arange(mlp.EXPECTED_PARAM_COUNT), mlp.DEFAULT_LAYER_DIMS)


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

    @pytest.mark.parametrize("key", ["root_speed", "load_gb"])
    def test_repeated_scalar_line_is_usage_error(self, capsys, tmp_path, key):
        # Neither value is taken: the file names one system or none.
        config = tmp_path / "system.txt"
        config.write_text(f"root_speed 10\nload_gb 25\n{key} 20\nchild 5 100\n")
        code, out, err = run(capsys, "solve", "--config", str(config))
        assert (code, out) == (2, "")
        assert f"system.txt:3: repeated {key} line '{key} 20'" in err

    @pytest.mark.parametrize("spec", ["5", "a:b", "5:100:3", "5:", ":100"])
    def test_malformed_child_spec_is_usage_error(self, capsys, spec):
        code, out, err = run(capsys, "solve", "--root-speed", "10", "--load-gb", "25", "--child", spec)
        assert (code, out) == (2, "")
        assert err.splitlines()[-1].startswith("error: ")

    def test_missing_required_flag_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["generate", "--seed", "1", "--out", "x"])
        assert exc.value.code == 2

    def test_no_unloaded_children_line_when_every_child_has_load(self, capsys):
        code, out, _ = run(capsys, *self.HOMOGENEOUS)
        assert code == 0 and "no load" not in out
        payload = json.loads(run(capsys, *self.HOMOGENEOUS, "--format", "machine")[1])
        assert payload["unloaded_children"] == 0

    def test_children_whose_shares_are_below_the_double_range_are_counted(self, capsys):
        # Links of 1e-15 MB/s: child k's share is about 1e-18k of the root's,
        # so the last three of twenty are 0.0.
        system = ["solve", "--root-speed", "1", "--load-gb", "1", *["--child", "1:1e-15"] * 20, "--compute-intensity", "1"]
        payload = json.loads(run(capsys, *system, "--format", "machine")[1])
        assert payload["unloaded_children"] == 3 and payload["alpha"][-3:] == [0.0, 0.0, 0.0]
        code, out, _ = run(capsys, *system)
        assert code == 0
        assert "3 of 20 children get no load: their shares are below the double range\n" in out


class TestParseConfigText:
    def test_round_trip_fields(self):
        cfg = parse_system("root_speed 7.5\nload_gb 12\nchild 3 30\nchild 4 40\n")
        assert cfg.n == 2
        assert cfg.root_speed == 7.5
        assert cfg.child_speeds == (3.0, 4.0)
        assert cfg.link_bandwidths == (30.0, 40.0)

    def test_equals_sign_tolerated(self):
        cfg = parse_system("root_speed = 5\nload_gb = 2\nchild 1 10\n")
        assert cfg.root_speed == 5.0

    def test_missing_children_rejected(self):
        with pytest.raises(InvalidInputError):
            parse_system("root_speed 5\nload_gb 2\n")

    def test_child_numbers_may_be_joined_by_a_colon(self):
        spaced = parse_system("root_speed 5\nload_gb 2\nchild 1 10\nchild 3 30\n")
        assert parse_system("root_speed 5\nload_gb 2\nchild 1:10\nchild 3 30\n") == spaced


class TestGenerateCommand:
    def test_identical_seeds_identical_files(self, capsys, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert run(capsys, "generate", "--count", "50", "--seed", "7", "--out", str(a))[0] == 0
        assert run(capsys, "generate", "--count", "50", "--seed", "7", "--out", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_a_thousand_children_at_the_default_intensity(self, capsys, tmp_path):
        # The last few dozen children of each system get a share of 0.0.
        out = tmp_path / "data.jsonl"
        code, _, _ = run(capsys, "generate", "--n-range", "1000", "1000", "--count", "2", "--seed", "1", "--out", str(out))
        assert code == 0
        _, dataset = datagen.load_dataset(out)
        assert [c.n for c in dataset.configs] == [1000, 1000]

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

    def test_dropout_zero_is_accepted(self, capsys, tmp_path, tiny_pipeline):
        argv = ["train", "--data", str(tiny_pipeline["data"]), "--out", str(tmp_path / "m.json"), "--max-epochs", "1"]
        assert run(capsys, *argv, "--dropout", "0")[0] == 0

    def test_nonzero_dropout_exits_two(self, tmp_path, tiny_pipeline):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--data", str(tiny_pipeline["data"]), "--out", str(tmp_path / "m.json"), "--dropout", "0.2"])
        assert exc.value.code == 2

    def test_dataset_is_read_once_and_hashed(self, capsys, tmp_path, tiny_pipeline, monkeypatch):
        # The recorded hash is of the bytes the model was trained on: the
        # one read that load_dataset parses, not a second read of the file.
        reads, read_file = [], codec.read_file

        def counting_read_file(path):
            reads.append(Path(path))
            return read_file(path)

        monkeypatch.setattr(codec, "read_file", counting_read_file)
        data, model = tiny_pipeline["data"], tmp_path / "m.json"
        assert run(capsys, "train", "--data", str(data), "--out", str(model), "--max-epochs", "1")[0] == 0
        assert reads == [data]
        assert mlp.load_model(model).metadata.dataset_hash == hashlib.sha256(data.read_bytes()).hexdigest()

    @pytest.mark.parametrize(
        "count, ranges, per_n_rows",
        [("200", ["--n-range", "5", "5"], [["n=5", "20"]]), ("600", ["--speed-range", "4", "4"], None)],
        ids=["one-n", "one-speed"],
    )
    def test_dataset_with_a_constant_column_trains_and_evaluates(self, capsys, tmp_path, count, ranges, per_n_rows):
        data, model, plots = tmp_path / "data.jsonl", tmp_path / "model.json", tmp_path / "plots"
        assert run(capsys, "generate", "--count", count, "--seed", "3", "--out", str(data), *ranges)[0] == 0
        assert run(capsys, "train", "--data", str(data), "--out", str(model), "--max-epochs", "2")[0] == 0
        assert run(capsys, "evaluate", "--model", str(model), "--data", str(data), "--out", str(plots))[0] == 0
        if per_n_rows is not None:
            rows = (plots / "per_n_errors.csv").read_text().splitlines()[1:]
            assert [row.split(",")[:2] for row in rows] == per_n_rows  # bucket and count

    def test_labels_whose_squares_overflow_train_and_evaluate(self, capsys, tmp_path):
        # Speeds near 1e-200 give makespans near 1e204, beyond the square
        # root of the double range; their std is still finite, and so are
        # the RMSE and R2 of the model's answers. From 1e16 s on, the human
        # format prints MAE and RMSE to six significant digits, where three
        # decimals would run to over 200 digits.
        data, model = tmp_path / "data.jsonl", tmp_path / "model.json"
        ranges = ["--n-range", "3", "4", "--speed-range", "1e-200", "2e-200"]
        assert run(capsys, "generate", "--count", "60", "--seed", "1", "--out", str(data), *ranges)[0] == 0
        code, _, err = run(capsys, "train", "--data", str(data), "--out", str(model), "--max-epochs", "2")
        assert code == 0 and "Warning" not in err
        argv = ["evaluate", "--model", str(model), "--data", str(data), "--split", "all"]
        code, out, err = run(capsys, *argv, "--format", "machine")
        assert code == 0 and err == "evaluating 60 records (all split)\n"
        payload = json.loads(out)
        assert math.isfinite(payload["rmse_s"]) and math.isfinite(payload["r2"])
        code, out, err = run(capsys, *argv)
        assert code == 0 and err == "evaluating 60 records (all split)\n" and "inf" not in out and "nan" not in out
        assert payload["mae_s"] >= 1e16
        assert out.splitlines()[2:4] == [f"MAE   = {payload['mae_s']:.6g} s", f"RMSE  = {payload['rmse_s']:.6g} s"]

    @pytest.mark.parametrize(
        "flag, message",
        [("--patience", "patience must be >= 1"), ("--max-epochs", "max epochs must be >= 1")],
    )
    def test_zero_train_setting_is_usage_error(self, capsys, tmp_path, tiny_pipeline, flag, message):
        model = tmp_path / "m.json"
        code, out, err = run(capsys, "train", "--data", str(tiny_pipeline["data"]), "--out", str(model), flag, "0")
        assert (code, out) == (2, "")
        assert err.splitlines()[-1] == f"error: {message}, got 0"
        assert not model.exists()

    def test_model_is_loadable(self, tiny_pipeline):
        model = mlp.load_model(tiny_pipeline["model"])
        assert model.params.flat.size == 12_545
        assert model.metadata == mlp.ModelMetadata(
            train_seed=1, split_seed=1, dataset_hash=model.metadata.dataset_hash, compute_intensity=100.0
        )

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

    @pytest.mark.parametrize(
        "line, key, value, message",
        [
            (0, "compute_intensity", -1.0, "compute_intensity"),
            (0, "compute_intensity", 0, "compute_intensity must be positive"),
            (0, "seed", -1, "seed must be an integer"),
            (0, "version", 1, "unsupported dataset version 1"),
            (3, "t_star", -3.0, "t_star"),
            (3, "t_star", float("nan"), ":4: malformed record"),
            (3, "features", [float("nan")] + [1.0] * 15, ":4: malformed record"),
            (0, "std_convention", "sample", "std_convention"),
            (0, "ranges", {"n": [3, datagen.MAX_N + 1], "load_gb": [1, 2], "speed": [1, 2], "bandwidth": [1, 2]}, "n_range"),
        ],
        ids=[
            "negative-intensity",
            "zero-intensity",
            "negative-seed",
            "version-1",
            "negative-t-star",
            "nan-t-star",
            "nan-feature",
            "sample-std",
            "n-above-the-maximum",
        ],
    )
    def test_bad_dataset_value_is_data_error(self, capsys, tmp_path, tiny_pipeline, line, key, value, message):
        lines = tiny_pipeline["data"].read_text().splitlines()
        obj = json.loads(lines[line])
        obj[key] = value
        lines[line] = json.dumps(obj)
        bad = tmp_path / "data.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        code, _, err = run(capsys, "train", "--data", str(bad), "--out", str(tmp_path / "m.json"))
        assert code == 3
        assert err.splitlines()[-1].startswith("error: ") and message in err

    def test_dataset_without_records_is_data_error(self, capsys, tmp_path, tiny_pipeline):
        header = json.loads(tiny_pipeline["data"].read_text().splitlines()[0])
        header["count"] = 0
        empty = tmp_path / "data.jsonl"
        empty.write_text(json.dumps(header) + "\n")
        code, _, err = run(capsys, "train", "--data", str(empty), "--out", str(tmp_path / "m.json"))
        assert code == 3
        assert err.splitlines()[-1].startswith("error: ") and "no records" in err


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

    def test_human_output_matches_machine(self, capsys, tiny_pipeline):
        argv = ["evaluate", "--model", str(tiny_pipeline["model"]), "--data", str(tiny_pipeline["data"])]
        code, out, _ = run(capsys, *argv)
        payload = json.loads(run(capsys, *argv, "--format", "machine")[1])
        assert code == 0
        assert out.splitlines() == [
            f"count = {payload['count']} (test split)",
            f"R2    = {payload['r2']:.6f}",
            f"MAE   = {payload['mae_s']:.3f} s",
            f"RMSE  = {payload['rmse_s']:.3f} s",
            f"MAPE  = {payload['mape_pct']:.3f} %",
        ]

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
        "edit",
        [
            lambda payload: "not json\n",
            lambda payload: '{"epochs_run": 2}\n',
            lambda payload: {**payload, "learning_rate": 0.001},
            lambda payload: {**payload, "train_losses": 5},
            lambda payload: {**payload, "train_losses": "abc"},
            lambda payload: {**payload, "epochs_run": 1, "train_losses": [None], "val_losses": [None]},
            lambda payload: {**payload, "epochs_run": 1, "train_losses": [{}], "val_losses": [{}]},
            lambda payload: {**payload, "train_losses": [True] * payload["epochs_run"]},
            lambda payload: {**payload, "train_losses": [math.nan] * payload["epochs_run"]},
            lambda payload: {**payload, "train_losses": [10**400] * payload["epochs_run"]},
            lambda payload: {**payload, "val_losses": payload["val_losses"][:-1]},
            lambda payload: {**payload, "epochs_run": payload["epochs_run"] + 1},
            lambda payload: {**payload, "epochs_run": float(payload["epochs_run"])},
            lambda payload: {**payload, "best_epoch": True},
            lambda payload: {**payload, "best_epoch": 1.5},
            lambda payload: {**payload, "best_val_loss": str(payload["best_val_loss"])},
            lambda payload: {**payload, "wall_seconds": "3.9"},
            lambda payload: {**payload, "wall_seconds": None},
            lambda payload: {**payload, "stopped_early": 1},
            lambda payload: {**payload, "stopped_early": "false"},
        ],
        ids=[
            "not-json",
            "missing-key",
            "extra-key",
            "losses-number",
            "losses-string",
            "loss-null",
            "loss-object",
            "loss-bool",
            "loss-nan",
            "loss-huge-int",
            "unequal-lengths",
            "epochs-mismatch",
            "epochs-float",
            "best-epoch-bool",
            "best-epoch-fraction",
            "best-loss-string",
            "wall-seconds-string",
            "wall-seconds-null",
            "stopped-early-int",
            "stopped-early-string",
        ],
    )
    def test_malformed_train_report_is_data_error(self, capsys, tmp_path, tiny_pipeline, edit):
        content = edit(json.loads(tiny_pipeline["report"].read_text()))
        bad = tmp_path / "report.json"
        bad.write_text(content if isinstance(content, str) else json.dumps(content))
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
        assert not (tmp_path / "plots").exists()

    def test_train_report_without_out_is_usage_error(self, capsys, tmp_path, tiny_pipeline):
        for report in (tiny_pipeline["report"], tmp_path / "missing.json"):
            code, _, err = run(
                capsys,
                "evaluate",
                "--model", str(tiny_pipeline["model"]),
                "--data", str(tiny_pipeline["data"]),
                "--train-report", str(report),
            )
            assert code == 2
            assert err.splitlines()[-1].startswith("error: ") and "needs --out" in err

    def test_split_is_the_one_the_bundle_records(self, capsys, tmp_path, tiny_pipeline):
        data, model, plots = tiny_pipeline["data"], tmp_path / "model.json", tmp_path / "plots"
        assert run(capsys, "train", "--data", str(data), "--out", str(model), "--seed", "7", "--max-epochs", "1")[0] == 0
        argv = ["evaluate", "--model", str(model), "--data", str(data), "--split", "test", "--out", str(plots)]
        assert run(capsys, *argv)[0] == 0
        rows = (plots / "pred_vs_actual.csv").read_text().splitlines()[1:]
        test = datagen.split_dataset(datagen.load_dataset(data)[1], 7)[2]
        assert [float(row.split(",")[0]) for row in rows] == test.t_star.tolist()

    @pytest.mark.parametrize("drop", [False, True], ids=["null", "absent"])
    def test_bundle_without_split_seed_scores_only_all(self, capsys, tmp_path, tiny_pipeline, drop):
        bundle = json.loads(tiny_pipeline["model"].read_text())
        if drop:
            del bundle["metadata"]["split_seed"]
        else:
            bundle["metadata"]["split_seed"] = None
        model = tmp_path / "model.json"
        model.write_text(json.dumps(bundle))
        argv = ["evaluate", "--model", str(model), "--data", str(tiny_pipeline["data"]), "--format", "machine"]
        code, out, err = run(capsys, *argv, "--split", "test")
        assert (code, out) == (2, "")
        assert err.splitlines()[-1].startswith("error: model metadata lacks split_seed") and "--split all" in err
        assert run(capsys, *argv, "--split", "all")[0] == 0

    def test_intensity_mismatch_is_data_error(self, capsys, tmp_path, tiny_pipeline):
        other = tmp_path / "other.jsonl"
        run(capsys, "generate", "--count", "40", "--seed", "2", "--out", str(other), "--compute-intensity", "50")
        code, _, err = run(capsys, "evaluate", "--model", str(tiny_pipeline["model"]), "--data", str(other))
        assert code == 3
        assert "incompatible" in err


    def test_rows_outside_the_surrogate_range_exit_four(self, capsys, tmp_path, tiny_pipeline):
        # A 1e300 GB load has a z-score beyond float32's range; evaluate
        # refuses its rows as predict refuses the system. The suite turns
        # warnings into errors, so no numpy warning reaches stderr either.
        data, model = tmp_path / "huge.jsonl", str(tiny_pipeline["model"])
        run(capsys, "generate", "--count", "40", "--seed", "1", "--out", str(data), "--load-range", "1e299", "1e300")
        argv = ["evaluate", "--model", model, "--data", str(data), "--split", "all", "--format", "machine"]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (4, "")
        assert err.splitlines()[-1].startswith("error: row 0: ") and "outside the surrogate's range" in err
        system = ["--root-speed", "10", "--load-gb", "1e300", "--child", "5:100"]
        code, out, err = run(capsys, "predict", "--model", model, *system)
        assert (code, out) == (4, "")
        assert "outside the surrogate's range" in err

    def test_another_datasets_split_is_data_error(self, capsys, tmp_path, tiny_pipeline):
        other = tmp_path / "other.jsonl"
        run(capsys, "generate", "--count", "80", "--seed", "2", "--out", str(other), "--n-range", "3", "4")
        argv = ["evaluate", "--model", str(tiny_pipeline["model"]), "--data", str(other), "--format", "machine"]
        code, out, err = run(capsys, *argv, "--split", "test")
        assert (code, out) == (3, "")
        assert err.splitlines()[-1].startswith("error: ") and "pass --split all" in err
        assert run(capsys, *argv, "--split", "all")[0] == 0

    def test_bundle_without_dataset_hash_is_not_checked(self, capsys, tmp_path, tiny_pipeline):
        other, model = tmp_path / "other.jsonl", tmp_path / "model.json"
        run(capsys, "generate", "--count", "80", "--seed", "2", "--out", str(other), "--n-range", "3", "4")
        bundle = json.loads(tiny_pipeline["model"].read_text())
        bundle["metadata"]["dataset_hash"] = None
        model.write_text(json.dumps(bundle))
        code, out, _ = run(capsys, "evaluate", "--model", str(model), "--data", str(other), "--format", "machine")
        assert code == 0 and json.loads(out)["count"] == 8


# The README's example system.
_README_SYSTEM = ["--root-speed", "10", "--load-gb", "25", "--child", "5:100", "--child", "8:40", "--child", "12:75"]


class TestPredictCommand:
    def test_human_output_matches_machine(self, capsys, tiny_pipeline):
        argv = ["predict", "--model", str(tiny_pipeline["model"]), *_README_SYSTEM]
        code, out, _ = run(capsys, *argv, "--format", "machine")
        assert code == 0
        assert run(capsys, *argv) == (0, f"predicted T* = {json.loads(out)['t_star_s']:.3f} s\n", "")

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

    @pytest.mark.parametrize(
        "where, value, message",
        [
            (("params", _AT.weights[1][0, 3]), float("nan"), "unexpected character"),
            (("params", _AT.biases[3][0]), float("inf"), "unexpected character"),
            (("norm", "feature_stds", 2), float("nan"), "unexpected character"),
            (("norm", "target_std"), float("nan"), "unexpected character"),
            (("norm", "feature_means", 0), float("nan"), "unexpected character"),
            (("metadata", "compute_intensity"), "abc", "compute_intensity"),
            (("metadata", "compute_intensity"), -5, "compute_intensity"),
            (("metadata", "compute_intensity"), -1, "compute_intensity"),
            (("metadata", "compute_intensity"), 0, "compute_intensity"),
            (("metadata", "compute_intensity"), "100", "compute_intensity"),
            (("metadata", "compute_intensity"), float("inf"), "unexpected character"),
            (("metadata", "compute_intensity"), True, "compute_intensity"),
            (("params", _AT.biases[0][0]), [0.0], "12545 JSON numbers"),
            (("params",), [0.0] * 12_544, "12545 JSON numbers"),
            (("params",), [0.0] * 12_546, "12545 JSON numbers"),
            (("params", _AT.weights[0][5, 2]), 1e39, "float32"),
            (("version",), 1, "unsupported model version 1"),
            (("version",), 2, "unsupported model version 2"),
            (("metadata", "split_seed"), "x", "split_seed"),
            (("metadata", "split_seed"), [1], "split_seed"),
            (("metadata", "split_seed"), -1, "split_seed"),
            (("params", _AT.weights[2][7, 4]), "0.5", "JSON numbers"),
            (("params", _AT.biases[1][9]), True, "JSON numbers"),
            (("norm", "target_std"), "324.0", "target_std"),
            (("norm", "feature_stds", 0), 0.0, "standard deviation"),
            (("norm", "target_std"), 0.0, "standard deviation"),
            (("metadata",), [["compute_intensity", 100.0], ["split_seed", 7]], "must be a mapping"),
            (("metadata", "history"), [1.0], "unexpected keyword argument 'history'"),
            (("metadata", "dataset_hash"), 5, "dataset_hash must be a string"),
        ],
        ids=[
            "nan-weight",
            "inf-bias",
            "nan-feature-std",
            "nan-target-std",
            "nan-feature-mean",
            "text-intensity",
            "negative-intensity",
            "minus-one-intensity",
            "zero-intensity",
            "quoted-intensity",
            "infinite-intensity",
            "boolean-intensity",
            "list-bias",
            "params-one-short",
            "params-one-long",
            "weight-beyond-float32",
            "version-1",
            "version-2",
            "text-split-seed",
            "list-split-seed",
            "negative-split-seed",
            "text-weight",
            "boolean-bias",
            "text-target-std",
            "zero-feature-std",
            "zero-target-std",
            "pair-list-metadata",
            "extra-metadata-key",
            "number-dataset-hash",
        ],
    )
    def test_bad_bundle_value_is_data_error(self, capsys, tmp_path, tiny_pipeline, where, value, message):
        bundle = json.loads(tiny_pipeline["model"].read_text())
        parent = bundle
        for key in where[:-1]:
            parent = parent[key]
        parent[where[-1]] = value
        bad = tmp_path / "model.json"
        bad.write_text(json.dumps(bundle))
        code, out, err = run(
            capsys,
            "predict",
            "--model", str(bad),
            "--root-speed", "10", "--load-gb", "50",
            "--child", "5:100",
        )
        assert (code, out) == (3, "")
        assert err.splitlines()[-1].startswith("error: ") and message in err


# Values no bundle field accepts; 1e39 is finite in float64 but not in
# float32, so it is bad only where the weights are.
_UNREADABLE = [float("nan"), float("inf"), float("-inf"), "abc", "0.5", True, None, 10**400]
_WEIGHT_VALUES = [*_UNREADABLE, 1e39, -1e39]
_REQUIRED_KEYS = [
    *[(key,) for key in ("format", "version", "layer_dims", "params", "norm", "metadata")],
    *[("norm", key) for key in ("feature_means", "feature_stds", "target_mean", "target_std")],
    ("metadata", "compute_intensity"),
]
_LISTS = [("layer_dims",), ("params",), ("norm", "feature_means"), ("norm", "feature_stds")]


@st.composite
def bundle_mutations(draw):
    """One malformed field of a valid bundle: ``(kind, path, value)``.

    The compute intensity is a kind of its own, so that it is drawn as often
    as the thousands of weights together.
    """
    kind = draw(st.sampled_from(["weight", "norm", "intensity", "drop", "resize"]))
    if kind == "weight":
        array = draw(st.sampled_from([*_AT.weights, *_AT.biases])).ravel()
        return "set", ("params", int(array[draw(st.integers(0, array.size - 1))])), draw(st.sampled_from(_WEIGHT_VALUES))
    if kind == "norm":
        path = draw(
            st.sampled_from(
                [
                    *[("norm", key, i) for key in ("feature_means", "feature_stds") for i in range(16)],
                    ("norm", "target_mean"),
                    ("norm", "target_std"),
                ]
            )
        )
        return "set", path, draw(st.sampled_from(_UNREADABLE))
    if kind == "intensity":
        return "set", ("metadata", "compute_intensity"), draw(st.sampled_from(_UNREADABLE))
    if kind == "drop":
        return "drop", draw(st.sampled_from(_REQUIRED_KEYS)), None
    return "resize", draw(st.sampled_from(_LISTS)), draw(st.sampled_from([-1, 1]))


class TestBundleFuzz:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(mutation=bundle_mutations())
    def test_malformed_bundle_exits_three(self, tmp_path_factory, tiny_pipeline, mutation):
        kind, path, value = mutation
        bundle = json.loads(tiny_pipeline["model"].read_text())
        parent = bundle
        for key in path[:-1]:
            parent = parent[key]
        if kind == "set":
            parent[path[-1]] = value
        elif kind == "drop":
            del parent[path[-1]]
        elif value < 0:
            parent[path[-1]].pop()
        else:
            parent[path[-1]].append(parent[path[-1]][-1])
        bad = tmp_path_factory.getbasetemp() / "fuzzed-model.json"
        bad.write_text(json.dumps(bundle))
        assert main(["predict", "--model", str(bad), "--root-speed", "10", "--load-gb", "50", "--child", "5:100"]) == 3


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

    def test_ml_estimate_is_predict_on_both_branches(self, tiny_pipeline):
        # The benchmark's hybrid check compares ml_estimate with predict()
        # for equality; the threshold at the median estimate sends about
        # half the systems down each branch.
        model = mlp.load_model(tiny_pipeline["model"])
        rng = np.random.default_rng(31)
        configs = [datagen.sample_config(rng) for _ in range(200)]
        estimates = [mlp.predict(model, c) for c in configs]
        threshold = sorted(estimates)[len(estimates) // 2]
        sources = set()
        for config, estimate in zip(configs, estimates):
            decision = hybrid_predict(model, config, threshold)
            assert decision.ml_estimate == estimate
            if decision.source == "ml":
                assert decision.t_star == estimate <= threshold
            else:
                exact = solver.solve_optimal(solver.to_time_rates(config, 100.0), config.load_gb)
                assert decision.t_star == exact.t_star and estimate > threshold
            sources.add(decision.source)
        assert sources == {"ml", "dlt-verified"}

    @pytest.mark.parametrize("threshold", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    def test_threshold_that_is_not_finite_is_refused(self, threshold):
        with pytest.raises(InvalidInputError, match=f"^threshold must be a finite number of seconds, got {threshold}$"):
            hybrid_predict(constant_model(1.0, compute_intensity=100.0), self.config(), threshold)

    def test_threshold_is_required(self, capsys, tiny_pipeline):
        # Its scale is the model's makespans, so no one value suits every model.
        with pytest.raises(SystemExit) as exc:
            main(["hybrid", "--model", str(tiny_pipeline["model"]), *_SYSTEM])
        assert exc.value.code == 2
        assert "the following arguments are required: --threshold" in capsys.readouterr().err

    def test_surrogate_branch_is_bounded(self):
        config = self.config()
        decision = hybrid_predict(constant_model(-5.0, compute_intensity=100.0), config, threshold=1e12)
        assert decision.source == "ml"
        assert decision.t_star == decision.ml_estimate == 100.0 * 20.0 / (4.0 + 3 * 6.0)

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

    @pytest.mark.parametrize("threshold", ["0", "1e12"], ids=["dlt-verified", "ml"])
    def test_human_output_matches_machine(self, capsys, tiny_pipeline, threshold):
        argv = ["hybrid", "--model", str(tiny_pipeline["model"]), *_README_SYSTEM, "--threshold", threshold]
        code, out, _ = run(capsys, *argv, "--format", "machine")
        assert code == 0
        p = json.loads(out)
        assert run(capsys, *argv) == (
            0,
            f"T* = {p['t_star_s']:.3f} s (source: {p['source']})\n"
            f"ML estimate = {p['ml_estimate_s']:.3f} s, threshold = {p['threshold_s']:g} s\n",
            "",
        )

    def test_nan_estimate_is_verified(self, capsys, tiny_pipeline):
        # A 1e300 GB load has a z-score beyond float32's range, so predict
        # refuses it and the estimate is NaN, while the exact makespan is
        # still finite.
        system = ["--root-speed", "10", "--load-gb", "1e300", "--child", "5:100", "--child", "8:25"]
        code, out, _ = run(
            capsys, "hybrid", "--model", str(tiny_pipeline["model"]), *system, "--threshold", "1e12", "--format", "machine"
        )
        assert code == 0
        payload = json.loads(out)
        assert (payload["source"], payload["ml_estimate_s"]) == ("dlt-verified", None)
        config = solver.SltnConfig(
            n=2, root_speed=10.0, child_speeds=(5.0, 8.0), link_bandwidths=(100.0, 25.0), load_gb=1e300
        )
        assert payload["t_star_s"] == solver.solve_optimal(solver.to_time_rates(config, 100.0), 1e300).t_star

    @pytest.mark.parametrize(
        "child_speeds, load_gb",
        [((5.0, 8.0), 1e300), ((1e308, 1e308), 25.0)],
        ids=["float32-overflowing-load", "overflowing-features"],
    )
    def test_estimate_outside_the_surrogate_range_is_verified(self, tiny_pipeline, child_speeds, load_gb):
        config = solver.SltnConfig(
            n=2, root_speed=10.0, child_speeds=child_speeds, link_bandwidths=(100.0, 25.0), load_gb=load_gb
        )
        decision = hybrid_predict(mlp.load_model(tiny_pipeline["model"]), config, threshold=1e12)
        assert decision.source == "dlt-verified" and math.isnan(decision.ml_estimate)
        assert decision.t_star == solver.solve_optimal(solver.to_time_rates(config, 100.0), load_gb).t_star


_SYSTEM = ["--root-speed", "10", "--load-gb", "50", "--child", "5:100"]


@pytest.mark.parametrize(
    "argv",
    [
        ["generate", "--count", "5", "--seed", "-1", "--out", "{out}"],
        ["generate", "--count", "5", "--seed", str(2**70), "--out", "{out}"],
        ["generate", "--count", "5", "--seed", "1", "--out", "{out}", "--load-range", "1", "inf"],
        ["generate", "--count", "5", "--seed", "1", "--out", "{out}", "--n-range", "3", str(2**63 - 1)],
        ["generate", "--count", "5", "--seed", "1", "--out", "{out}", "--n-range", "100000000000", "100000000000"],
        ["train", "--data", "{data}", "--out", "{out}", "--seed", "-1"],
        ["train", "--data", "{data}", "--out", "{out}", "--seed", str(2**64)],
        ["predict", "--model", "{model}", "--root-speed", "10", "--load-gb", "nan", "--child", "5:100"],
        ["predict", "--model", "{model}", "--root-speed", "10", "--load-gb", "inf", "--child", "5:100"],
        ["predict", "--model", "{model}", "--config", "{config}"],
        ["solve", "--config", "{system}", "--root-speed", "10"],
        ["hybrid", "--model", "{model}", "--root-speed", "10", "--load-gb", "nan", "--child", "5:100", "--threshold", "1"],
        ["hybrid", "--model", "{model}", *_SYSTEM, "--threshold", "nan"],
        ["hybrid", "--model", "{model}", *_SYSTEM, "--threshold", "inf"],
        ["hybrid", "--model", "{model}", *_SYSTEM, "--threshold=-inf"],
    ],
    ids=[
        "generate-negative-seed",
        "generate-seed-beyond-64-bits",
        "generate-infinite-load-range",
        "generate-n-beyond-any-array",
        "generate-n-beyond-memory",
        "train-negative-seed",
        "train-seed-beyond-64-bits",
        "predict-nan-load",
        "predict-infinite-load",
        "predict-nan-load-in-config",
        "solve-config-and-inline-flags",
        "hybrid-nan-load",
        "hybrid-nan-threshold",
        "hybrid-infinite-threshold",
        "hybrid-negative-infinite-threshold",
    ],
)
def test_bad_value_is_usage_error(capsys, tmp_path, tiny_pipeline, argv):
    config = tmp_path / "system.txt"
    config.write_text("root_speed 10\nload_gb nan\nchild 5 100\n")
    system = tmp_path / "valid-system.txt"  # answerable alone, so only the inline flags beside it are wrong
    system.write_text("root_speed 10\nload_gb 50\nchild 5 100\n")
    paths = {
        "out": tmp_path / "out",
        "data": tiny_pipeline["data"],
        "model": tiny_pipeline["model"],
        "config": config,
        "system": system,
    }
    code, out, err = run(capsys, *(arg.format(**paths) for arg in argv))
    assert (code, out) == (2, "")
    assert err.splitlines()[-1].startswith("error: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["train", "--data", "{data}", "--out", "{out}", "--split-seed", "1"],
        ["train", "--data", "{data}", "--out", "{out}", "--learning-rate", "0.01"],
        ["train", "--data", "{data}", "--out", "{out}", "--batch-size", "64"],
        ["evaluate", "--model", "{model}", "--data", "{data}", "--split-seed", "7"],
    ],
    ids=["train-split-seed", "train-learning-rate", "train-batch-size", "evaluate-split-seed"],
)
def test_removed_flag_is_unrecognized(capsys, tmp_path, tiny_pipeline, argv):
    # train splits with --seed and trains at mlp.LEARNING_RATE on batches of
    # mlp.BATCH_SIZE; evaluate splits with the bundle's split_seed.
    paths = {"out": tmp_path / "out", "data": tiny_pipeline["data"], "model": tiny_pipeline["model"]}
    with pytest.raises(SystemExit) as exc:
        main([arg.format(**paths) for arg in argv])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {argv[-2]} {argv[-1]}" in capsys.readouterr().err
    assert not paths["out"].exists()
    with pytest.raises(SystemExit):
        main([argv[0], "--help"])
    assert argv[-2] not in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--root-speed", "10", "--load-gb", "1e308", "--child", "5:100", "--format", "machine"],
        ["predict", "--model", "{model}", "--root-speed", "10", "--load-gb", "1e308", "--child", "5:100", "--format", "machine"],
        ["hybrid", "--model", "{model}", "--root-speed", "10", "--load-gb", "1e308", "--child", "5:100", "--threshold", "1",
         "--format", "machine"],
        ["predict", "--model", "{model}", "--root-speed", "10", "--load-gb", "5", "--child", "1e308:100", "--child", "1e308:100",
         "--format", "machine"],
        ["generate", "--count", "5", "--seed", "1", "--out", "{out}", "--bandwidth-range", "1e308", "1.7e308"],
    ],
    ids=["solve-huge-load", "predict-huge-load", "hybrid-huge-load", "predict-huge-speeds", "generate-overflowing-features"],
)
def test_answer_outside_double_range_is_numeric_error(capsys, tmp_path, tiny_pipeline, argv):
    code, out, err = run(capsys, *(arg.format(model=tiny_pipeline["model"], out=tmp_path / "out") for arg in argv))
    assert (code, out) == (4, "")
    assert err.splitlines()[-1].startswith("error: ")


_ORDINARY_NUMBERS = ["1", "7.5", "120"]
_EDGE_NUMBERS = ["nan", "inf", "-inf", "-0", "1e308", "1e-308"]


@st.composite
def config_texts(draw):
    """A system description: the three keys, some repeated, in any order,
    each followed by a space or ``=``. One value in five is an edge case and
    one line in five has one value too many or too few, so that many texts
    still describe a whole system and reach the surrogate."""
    extra = draw(st.lists(st.sampled_from(["root_speed", "load_gb", "child"]), max_size=3))
    lines = []
    for key in draw(st.permutations(["root_speed", "load_gb", "child", *extra])):
        arity = 2 if key == "child" else 1
        count = draw(st.sampled_from([arity - 1, arity + 1])) if draw(st.integers(0, 4)) == 0 else arity
        values = [
            draw(st.sampled_from(_EDGE_NUMBERS if draw(st.integers(0, 4)) == 0 else _ORDINARY_NUMBERS))
            for _ in range(count)
        ]
        lines.append(key + draw(st.sampled_from([" ", " = ", "="])) + " ".join(values))
    return "\n".join(lines) + "\n"


class TestConfigFuzz:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(text=config_texts())
    def test_config_is_rejected_or_answered(self, tmp_path_factory, tiny_pipeline, text):
        try:
            config = parse_system(text)
        except InvalidInputError:
            pass
        else:
            numbers = (config.root_speed, config.load_gb, *config.child_speeds, *config.link_bandwidths)
            assert all(0 < v < math.inf for v in numbers)
        path = tmp_path_factory.getbasetemp() / "fuzzed-system.txt"
        path.write_text(text)
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = main(["predict", "--model", str(tiny_pipeline["model"]), "--config", str(path), "--format", "machine"])
        assert code in (0, 2, 4)
        assert "NaN" not in out.getvalue() and "Infinity" not in out.getvalue()
        if code == 0:
            assert math.isfinite(json.loads(out.getvalue())["t_star_s"])


def test_package_runs_as_module_without_warnings():
    src = str(Path(dltsched.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run(
        [sys.executable, "-W", "error", "-m", "dltsched", "--help"], capture_output=True, text=True, env=env, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("usage: dltsched")
