import numpy as np
import pytest

from dltsched import datagen
from dltsched.errors import FileFormatError, InvalidInputError, TrainingDivergedError
from dltsched.mlp import (
    DEFAULT_LAYER_DIMS,
    EXPECTED_PARAM_COUNT,
    AdamState,
    MlpModel,
    MlpParams,
    TrainConfig,
    adam_step,
    backward,
    forward,
    init_params,
    input_gradients,
    load_model,
    loss_mse,
    predict,
    predict_features,
    save_model,
    train,
)
from dltsched.solver import SltnConfig, solve_optimal, to_time_rates

from conftest import constant_model

IDENTITY_NORM = datagen.NormalizationStats(
    feature_means=(0.0,) * 16, feature_stds=(1.0,) * 16, target_mean=0.0, target_std=1.0
)
TOY_META = {"compute_intensity": 100.0}


def zero_params(layer_dims):
    p = init_params(0, layer_dims)
    for w in p.weights:
        w[:] = 0.0
    return p


def random_batch(rng, count, dim=16):
    return rng.normal(size=(count, dim)), rng.normal(size=count)


class TestInitParams:
    def test_parameter_count(self):
        assert init_params(0).param_count() == EXPECTED_PARAM_COUNT == 12_545

    def test_deterministic(self):
        a, b = init_params(7), init_params(7)
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa, wb)

    def test_he_variance(self):
        # First-layer weights should have variance close to 2 / fan_in = 1/8.
        w1 = init_params(3).weights[0]
        assert w1.var() == pytest.approx(2.0 / 16.0, rel=0.2)

    def test_biases_start_at_zero(self):
        for b in init_params(5).biases:
            assert not b.any()

    def test_layer_dims(self):
        assert init_params(0).layer_dims == DEFAULT_LAYER_DIMS
        assert init_params(0, (16, 4, 3, 2, 1)).param_count() == 16 * 4 + 4 + 4 * 3 + 3 + 3 * 2 + 2 + 2 + 1


class TestForward:
    def test_zero_network_predicts_zero(self):
        params = zero_params(DEFAULT_LAYER_DIMS)
        preds, _ = forward(params, np.ones((5, 16)))
        np.testing.assert_array_equal(preds, np.zeros(5))

    def test_inference_is_deterministic(self):
        params = init_params(2)
        x = np.random.default_rng(0).normal(size=(3, 16))
        a, _ = forward(params, x)
        b, _ = forward(params, x)
        np.testing.assert_array_equal(a, b)

    def test_dead_first_layer_outputs_final_bias(self):
        params = init_params(4, (16, 4, 3, 2, 1))
        params.weights[0][:] = -1.0
        params.biases[0][:] = 0.0
        params.biases[-1][:] = 0.75
        preds, _ = forward(params, np.full((2, 16), 3.0))
        np.testing.assert_allclose(preds, 0.75)

    def test_relu_matches_where_reference(self):
        # The in-place ReLU must give the bits of np.where(z > 0, z, 0.0),
        # zero pre-activations included: zero rows under zero biases and a
        # hidden unit whose weights are all zero.
        params = init_params(3)
        params.weights[1][5] = 0.0
        x = np.random.default_rng(4).normal(size=(64, 16))
        x[::7] = 0.0
        out, cache = forward(params, x)
        h = x
        ref_inputs, ref_masks = [], []
        for k, (w, b) in enumerate(zip(params.weights, params.biases)):
            ref_inputs.append(h)
            z = h @ w.T + b
            if k == len(params.weights) - 1:
                ref_out = z[:, 0]
                break
            ref_masks.append(z > 0)
            h = np.where(z > 0, z, 0.0)
        assert not ref_masks[0][::7].any() and not ref_masks[1][:, 5].any()
        assert out.tobytes() == ref_out.tobytes()
        assert len(cache.relu_masks) == len(ref_masks)
        for got, ref in zip(cache.relu_masks, ref_masks):
            np.testing.assert_array_equal(got, ref)
        for got, ref in zip(cache.inputs, ref_inputs):
            assert got.tobytes() == ref.tobytes()

    def test_caller_input_unchanged(self):
        params = init_params(2)
        x = np.random.default_rng(5).normal(size=(8, 16))
        before = x.copy()
        forward(params, x)
        forward(params, x[0])
        forward(params, x, dropout_p=0.3, rng=np.random.default_rng(0))
        np.testing.assert_array_equal(x, before)

    def test_dropout_requires_rng(self):
        with pytest.raises(InvalidInputError):
            forward(init_params(0), np.zeros((1, 16)), dropout_p=0.2)

    def test_dropout_expectation_matches_inference(self):
        # Inverted dropout: averaged over many masks, the dropped hidden
        # activations converge to the no-dropout activations.
        params = init_params(6)
        x = np.random.default_rng(1).normal(size=16)
        _, infer_cache = forward(params, x)
        h1 = infer_cache.inputs[1][0]
        tiled = np.tile(x, (20_000, 1))
        _, train_cache = forward(
            params, tiled, dropout_p=0.2, rng=np.random.default_rng(2)
        )
        averaged = train_cache.inputs[1].mean(axis=0)
        active = np.abs(h1) > 0.1 * np.abs(h1).max()
        np.testing.assert_allclose(averaged[active], h1[active], rtol=0.02)


class TestLoss:
    def test_zero_when_equal(self):
        assert loss_mse([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_symmetric_errors(self):
        assert loss_mse([0.0, 0.0], [1.0, -1.0]) == 1.0

    def test_hand_computed(self):
        assert loss_mse([1.0, 2.0, 3.0], [1.0, 1.0, 1.0]) == pytest.approx(5.0 / 3.0)

    def test_length_mismatch(self):
        with pytest.raises(InvalidInputError):
            loss_mse([1.0], [1.0, 2.0])


class TestBackward:
    def test_zero_residuals_zero_gradients(self):
        params = init_params(1, (16, 4, 3, 2, 1))
        x = np.random.default_rng(3).normal(size=(6, 16))
        _, cache = forward(params, x)
        grads = backward(params, cache, np.zeros(6))
        for g in (*grads.weights, *grads.biases):
            assert not g.any()

    def test_dead_relu_blocks_gradient(self):
        params = zero_params((2, 2, 1))
        params.weights[0][:] = [[-1.0, 0.0], [0.0, -1.0]]
        params.weights[1][:] = 1.0
        x = np.array([[1.0, 2.0]])
        preds, cache = forward(params, x)
        grads = backward(params, cache, preds - np.array([5.0]))
        assert not grads.weights[0].any()
        assert not grads.biases[0].any()

    def test_matches_central_finite_differences(self):
        rng = np.random.default_rng(11)
        params = init_params(11, (16, 4, 3, 2, 1))
        for b in params.biases:
            b[:] = rng.normal(size=b.shape)  # keep pre-activations off the ReLU kink
        x, y = random_batch(rng, 8)
        preds, cache = forward(params, x)
        grads = backward(params, cache, preds - y)

        eps = 1e-5
        arrays = [*params.weights, *params.biases]
        grad_arrays = [*grads.weights, *grads.biases]
        for arr, grad in zip(arrays, grad_arrays):
            flat, gflat = arr.ravel(), grad.ravel()
            for i in range(flat.size):
                saved = flat[i]
                flat[i] = saved + eps
                up = loss_mse(forward(params, x)[0], y)
                flat[i] = saved - eps
                down = loss_mse(forward(params, x)[0], y)
                flat[i] = saved
                numeric = (up - down) / (2 * eps)
                denom = max(abs(numeric), abs(gflat[i]), 1e-8)
                assert abs(numeric - gflat[i]) / denom <= 1e-4

    def test_gradient_check_with_dropout_masks(self):
        # A fixed mask is part of the computation graph; reuse it in the
        # finite-difference loss to check backward honors it. Only the first
        # hidden layer carries one.
        rng = np.random.default_rng(17)
        params = init_params(13, (6, 4, 3, 1))
        for b in params.biases:
            b[:] = rng.normal(size=b.shape)  # keep pre-activations off the ReLU kink
        x, y = random_batch(rng, 5, dim=6)
        _, cache = forward(params, x, dropout_p=0.4, rng=np.random.default_rng(99))
        first_mask = cache.drop_masks[0]
        assert (first_mask == 0).any() and cache.drop_masks[1:] == [None]

        def masked_preds():
            z = x @ params.weights[0].T + params.biases[0]
            h = np.where(z > 0, z, 0.0) * first_mask
            z = h @ params.weights[1].T + params.biases[1]
            h = np.where(z > 0, z, 0.0)
            return (h @ params.weights[-1].T + params.biases[-1])[:, 0]

        def loss_with_masks():
            return loss_mse(masked_preds(), y)

        grads = backward(params, cache, masked_preds() - y)

        eps = 1e-5
        for arr, grad in zip([*params.weights, *params.biases], [*grads.weights, *grads.biases]):
            flat, gflat = arr.ravel(), grad.ravel()
            for i in range(flat.size):
                saved = flat[i]
                flat[i] = saved + eps
                up = loss_with_masks()
                flat[i] = saved - eps
                down = loss_with_masks()
                flat[i] = saved
                numeric = (up - down) / (2 * eps)
                denom = max(abs(numeric), abs(gflat[i]), 1e-8)
                assert abs(numeric - gflat[i]) / denom <= 1e-4


class TestInputGradients:
    def test_matches_finite_differences(self):
        params = init_params(19, (16, 4, 3, 2, 1))
        x = np.random.default_rng(23).normal(size=(4, 16))
        grads = input_gradients(params, x)
        eps = 1e-6
        for r in range(x.shape[0]):
            for c in range(x.shape[1]):
                bumped = x.copy()
                bumped[r, c] += eps
                up = forward(params, bumped)[0][r]
                bumped[r, c] -= 2 * eps
                down = forward(params, bumped)[0][r]
                numeric = (up - down) / (2 * eps)
                assert abs(numeric - grads[r, c]) <= 1e-3


class TestAdam:
    def test_zero_gradient_is_noop(self):
        params = init_params(0, (4, 3, 1))
        before = params.copy()
        grads = backward(params, forward(params, np.zeros((1, 4)))[1], np.zeros(1))
        adam_step(params, grads, AdamState.zeros(params), 0.001)
        for w0, w1 in zip(before.weights, params.weights):
            np.testing.assert_array_equal(w0, w1)

    def test_constant_gradient_unit_step(self):
        # With a steady gradient the bias-corrected update settles at the
        # learning rate regardless of the gradient's magnitude.
        params = MlpParams(weights=[np.array([[1.0]])], biases=[np.array([0.0])])
        state = AdamState.zeros(params)
        from dltsched.mlp import MlpGrads

        grads = MlpGrads(weights=[np.array([[3.0]])], biases=[np.array([0.0])])
        lr = 0.01
        prev = params.weights[0][0, 0]
        step = None
        for _ in range(500):
            adam_step(params, grads, state, lr)
            step = prev - params.weights[0][0, 0]
            prev = params.weights[0][0, 0]
        assert step == pytest.approx(lr, rel=1e-3)


class TestTrain:
    @staticmethod
    def toy_sets(seed=0, count=256):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(count, 16))
        y = x @ rng.normal(size=16) * 0.1
        return (x[: count // 2], y[: count // 2], x[count // 2 :], y[count // 2 :])

    def test_deterministic_given_seed(self):
        x_tr, y_tr, x_val, y_val = self.toy_sets()
        cfg = TrainConfig(max_epochs=4, patience=10, seed=5, batch_size=32, dropout_p=0.2)
        m1, r1 = train(x_tr, y_tr, x_val, y_val, cfg, IDENTITY_NORM, metadata=TOY_META)
        m2, r2 = train(x_tr, y_tr, x_val, y_val, cfg, IDENTITY_NORM, metadata=TOY_META)
        assert r1.train_losses == r2.train_losses
        assert r1.val_losses == r2.val_losses
        assert (r1.best_epoch, r1.epochs_run) == (r2.best_epoch, r2.epochs_run)
        for w1, w2 in zip(m1.params.weights, m2.params.weights):
            np.testing.assert_array_equal(w1, w2)

    def test_returns_best_epoch_params(self):
        x_tr, y_tr, x_val, y_val = self.toy_sets(seed=3)
        cfg = TrainConfig(max_epochs=12, patience=3, seed=1, batch_size=32, dropout_p=0.5)
        model, report = train(x_tr, y_tr, x_val, y_val, cfg, IDENTITY_NORM, metadata=TOY_META)
        assert report.best_val_loss == min(report.val_losses)
        assert report.val_losses[report.best_epoch - 1] == report.best_val_loss
        preds, _ = forward(model.params, x_val)
        assert loss_mse(preds, y_val) == pytest.approx(report.best_val_loss, rel=1e-12)

    def test_patience_one_stops_at_first_rise(self):
        x_tr, y_tr, x_val, y_val = self.toy_sets(seed=9, count=128)
        cfg = TrainConfig(max_epochs=50, patience=1, seed=2, batch_size=16, dropout_p=0.6)
        _, report = train(x_tr, y_tr, x_val, y_val, cfg, IDENTITY_NORM, metadata=TOY_META)
        assert report.stopped_early
        # Every epoch before the stop improved; the stopping epoch did not.
        assert report.best_epoch == report.epochs_run - 1
        for prev, cur in zip(report.val_losses, report.val_losses[1:-1]):
            assert cur < prev
        assert report.val_losses[-1] >= report.val_losses[-2]

    def test_epoch_cap(self):
        x_tr, y_tr, x_val, y_val = self.toy_sets(seed=4, count=64)
        cfg = TrainConfig(max_epochs=3, patience=50, seed=0, batch_size=16)
        _, report = train(x_tr, y_tr, x_val, y_val, cfg, IDENTITY_NORM, metadata=TOY_META)
        assert report.epochs_run == 3
        assert not report.stopped_early

    def test_divergence_raises(self):
        # Adam steps are bounded by the learning rate, so force overflow
        # through an absurd rate; the trainer must report the epoch.
        x_tr, y_tr, x_val, y_val = self.toy_sets(seed=6, count=64)
        cfg = TrainConfig(learning_rate=1e80, max_epochs=40, patience=40, seed=0, batch_size=16)
        with np.errstate(all="ignore"):
            with pytest.raises(TrainingDivergedError) as exc:
                train(x_tr, y_tr, x_val, y_val, cfg, IDENTITY_NORM, metadata=TOY_META)
        assert exc.value.epoch >= 1

    def test_raw_rows_match_hand_normalized_rows(self):
        # train z-scores its raw inputs with norm; doing that by hand and
        # training under the identity norm must give the same bits.
        x_tr, y_tr, x_val, y_val = self.toy_sets(seed=7)
        x_tr, x_val = x_tr * 40.0 + 3.0, x_val * 40.0 + 3.0
        y_tr, y_val = y_tr * 900.0 + 2500.0, y_val * 900.0 + 2500.0
        norm = datagen.NormalizationStats(
            feature_means=tuple(x_tr.mean(axis=0)),
            feature_stds=tuple(x_tr.std(axis=0)),
            target_mean=float(y_tr.mean()),
            target_std=float(y_tr.std()),
        )
        means, stds = np.array(norm.feature_means), np.array(norm.feature_stds)
        cfg = TrainConfig(max_epochs=3, seed=4, batch_size=32)
        raw_model, raw_report = train(x_tr, y_tr, x_val, y_val, cfg, norm, metadata=TOY_META)
        hand_model, hand_report = train(
            (x_tr - means) / stds,
            (y_tr - norm.target_mean) / norm.target_std,
            (x_val - means) / stds,
            (y_val - norm.target_mean) / norm.target_std,
            cfg,
            IDENTITY_NORM,
            metadata=TOY_META,
        )
        assert raw_model.norm == norm
        assert raw_report.train_losses == hand_report.train_losses
        assert raw_report.val_losses == hand_report.val_losses
        for a, b in zip(
            [*raw_model.params.weights, *raw_model.params.biases],
            [*hand_model.params.weights, *hand_model.params.biases],
        ):
            np.testing.assert_array_equal(a, b)

    def test_caller_arrays_unchanged(self):
        sets = self.toy_sets(seed=8, count=64)
        before = [a.copy() for a in sets]
        norm = datagen.NormalizationStats(
            feature_means=(0.5,) * 16, feature_stds=(2.0,) * 16, target_mean=0.1, target_std=3.0
        )
        train(*sets, TrainConfig(max_epochs=2, batch_size=16), norm, metadata=TOY_META)
        train(*sets, TrainConfig(max_epochs=2, batch_size=16), IDENTITY_NORM, metadata=TOY_META)
        for a, b in zip(sets, before):
            np.testing.assert_array_equal(a, b)

    def test_rejects_empty_sets(self):
        with pytest.raises(InvalidInputError):
            train(
                np.zeros((0, 16)), np.zeros(0), np.zeros((1, 16)), np.zeros(1), TrainConfig(), IDENTITY_NORM, TOY_META
            )

    def test_rejects_metadata_without_compute_intensity(self):
        # The intensity bounds every answer; a guessed one would move them.
        x_tr, y_tr, x_val, y_val = self.toy_sets(count=16)
        with pytest.raises(InvalidInputError, match="compute_intensity"):
            train(x_tr, y_tr, x_val, y_val, TrainConfig(max_epochs=1), IDENTITY_NORM, metadata={"train_seed": 0})


class TestModelBundle:
    @staticmethod
    def small_model():
        records = datagen.generate_dataset(120, seed=21)
        norm = datagen.fit_normalization(records)
        return MlpModel(params=init_params(8), norm=norm, metadata={"train_seed": 8, "compute_intensity": 100.0})

    def test_round_trip_preserves_weights(self, tmp_path):
        model = self.small_model()
        path = tmp_path / "model.json"
        save_model(path, model)
        loaded = load_model(path)
        for w0, w1 in zip(model.params.weights, loaded.params.weights):
            np.testing.assert_array_equal(w0, w1)
        assert loaded.norm == model.norm
        assert loaded.metadata == model.metadata

    def test_resave_is_byte_identical(self, tmp_path):
        model = self.small_model()
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_model(p1, model)
        save_model(p2, load_model(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_predictions_survive_round_trip(self, tmp_path):
        model = self.small_model()
        config = SltnConfig(
            n=3, root_speed=9.0, child_speeds=(3.0, 6.0, 12.0), link_bandwidths=(40.0, 80.0, 120.0), load_gb=25.0
        )
        before = predict(model, config)
        path = tmp_path / "model.json"
        save_model(path, model)
        assert predict(load_model(path), config) == before

    def test_rejects_tampered_shapes(self, tmp_path):
        import json

        model = self.small_model()
        path = tmp_path / "model.json"
        save_model(path, model)
        obj = json.loads(path.read_text())
        obj["weights"][3] = [obj["weights"][3][0][:16]]  # wrong output layer shape
        path.write_text(json.dumps(obj))
        with pytest.raises(FileFormatError):
            load_model(path)

    def test_rejects_wrong_format_and_version(self, tmp_path):
        import json

        model = self.small_model()
        path = tmp_path / "model.json"
        save_model(path, model)
        obj = json.loads(path.read_text())
        obj["version"] = 99
        path.write_text(json.dumps(obj))
        with pytest.raises(FileFormatError):
            load_model(path)
        path.write_text("{}")
        with pytest.raises(FileFormatError):
            load_model(path)

    def test_rejects_bundle_without_compute_intensity(self, tmp_path):
        import json

        path = tmp_path / "model.json"
        save_model(path, self.small_model())
        obj = json.loads(path.read_text())
        del obj["metadata"]["compute_intensity"]
        path.write_text(json.dumps(obj))
        with pytest.raises(FileFormatError, match="compute_intensity"):
            load_model(path)
        with pytest.raises(InvalidInputError, match="compute_intensity"):
            MlpModel(params=init_params(0), norm=IDENTITY_NORM).compute_intensity

    @pytest.mark.parametrize("layer_dims", [5, None, "16,128,64,32,1"], ids=["number", "null", "string"])
    def test_rejects_malformed_layer_dims(self, tmp_path, layer_dims):
        import json

        path = tmp_path / "model.json"
        save_model(path, self.small_model())
        obj = json.loads(path.read_text())
        obj["layer_dims"] = layer_dims
        path.write_text(json.dumps(obj))
        with pytest.raises(FileFormatError, match="layer dimensions"):
            load_model(path)

    def test_nondefault_architecture_not_bundlable(self, tmp_path):
        model = MlpModel(params=init_params(0, (16, 4, 1)), norm=IDENTITY_NORM)
        with pytest.raises(InvalidInputError):
            save_model(tmp_path / "m.json", model)


class TestPredict:
    def test_same_config_same_prediction(self):
        model = TestModelBundle.small_model()
        config = SltnConfig(
            n=4, root_speed=5.0, child_speeds=(2.0, 4.0, 8.0, 14.0), link_bandwidths=(20.0, 40.0, 90.0, 140.0), load_gb=60.0
        )
        assert predict(model, config) == predict(model, config)

    def test_negative_output_is_raised_to_compute_bound(self):
        model = constant_model(-5.0, compute_intensity=10_000.0)
        config = SltnConfig(
            n=3, root_speed=9.0, child_speeds=(3.0, 6.0, 12.0), link_bandwidths=(40.0, 80.0, 120.0), load_gb=2.0
        )
        f = datagen.extract_features(config)
        bound = 10_000.0 * f.load_gb / (f.w0 + f.n * f.mean_w)
        assert predict(model, config) == bound
        assert bound == pytest.approx(10_000.0 * 2.0 / 30.0, rel=1e-12)
        assert bound <= solve_optimal(to_time_rates(config, 10_000.0), config.load_gb).t_star
        assert predict(constant_model(1e9, compute_intensity=10_000.0), config) == 1e9

    def test_predict_agrees_with_predict_features(self):
        configs = [datagen.sample_config(datagen.record_rng(13, i)) for i in range(40)]
        rows = np.array([datagen.extract_features(c).as_array() for c in configs])
        for model in (TestModelBundle.small_model(), constant_model(-5.0, compute_intensity=100.0)):
            batched = predict_features(model, rows)
            assert np.all(batched > 0)
            singles = [predict(model, c) for c in configs]
            np.testing.assert_allclose(singles, batched, rtol=1e-12)

    def test_caller_rows_unchanged(self):
        configs = [datagen.sample_config(datagen.record_rng(17, i)) for i in range(20)]
        rows = np.array([datagen.extract_features(c).as_array() for c in configs])
        before = rows.copy()
        model = TestModelBundle.small_model()
        predict_features(model, rows)
        predict_features(model, rows[0])
        predict_features(constant_model(-5.0, compute_intensity=100.0), rows)
        np.testing.assert_array_equal(rows, before)
