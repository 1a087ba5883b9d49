import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dltsched import datagen, mlp
from dltsched.errors import FileFormatError, InvalidInputError, NumericError, TrainingDivergedError
from dltsched.mlp import (
    DEFAULT_LAYER_DIMS,
    EXPECTED_PARAM_COUNT,
    MlpModel,
    MlpParams,
    ModelMetadata,
    TrainConfig,
    adam_step,
    backward,
    forward,
    init_params,
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
TOY_META = ModelMetadata(compute_intensity=100.0)


def zero_params(layer_dims):
    p = init_params(0, layer_dims)
    for w in p.weights:
        w[:] = 0.0
    return p


def z_score(norm, rows, t_star):
    """Feature rows and makespans z-scored with ``norm``, spelled out."""
    rows = (rows - np.array(norm.feature_means)) / np.array(norm.feature_stds)
    return rows, (t_star - norm.target_mean) / norm.target_std


def sampled_rows(seed, count):
    """Feature rows of ``count`` systems drawn from the default sampling box."""
    configs = (datagen.sample_config(datagen.record_rng(seed, i)) for i in range(count))
    return np.array([datagen.extract_features(c).as_array() for c in configs])


def random_batch(rng, count, dim=16):
    return rng.normal(size=(count, dim)), rng.normal(size=count)


def reference_forward(weights, biases, x):
    """Per-layer forward with an ``np.where`` ReLU; returns the output, the
    layer inputs and the ReLU masks."""
    h = x
    inputs, relu_masks = [], []
    for k, (w, b) in enumerate(zip(weights, biases)):
        inputs.append(h)
        z = h @ w.T + b
        if k == len(weights) - 1:
            return z[:, 0], inputs, relu_masks
        relu_masks.append(z > 0)
        h = np.where(z > 0, z, 0.0)


def reference_backward(weights, inputs, relu_masks, residuals):
    """Per-array backpropagation of batch MSE, one fresh array per gradient."""
    dout = (2.0 / residuals.shape[0]) * residuals[:, None]
    d_weights, d_biases = [None] * len(weights), [None] * len(weights)
    for k in range(len(weights) - 1, -1, -1):
        d_weights[k] = dout.T @ inputs[k]
        d_biases[k] = dout.sum(axis=0)
        if k > 0:
            dout = dout @ weights[k]
            dout *= relu_masks[k - 1]
    return [*d_weights, *d_biases]


def reference_adam_step(arrays, grads, ms, vs, t, learning_rate, beta1=0.9, beta2=0.999, eps=1e-8):
    """Per-array Adam update with bias-corrected moments, in place."""
    correct1 = 1.0 - beta1**t
    correct2 = 1.0 - beta2**t
    for p, g, m, v in zip(arrays, grads, ms, vs):
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * np.square(g)
        p -= learning_rate * (m / correct1) / (np.sqrt(v / correct2) + eps)


def concat_bytes(arrays):
    return b"".join(a.tobytes() for a in arrays)


class TestInitParams:
    def test_parameter_count(self):
        assert init_params(0).flat.size == EXPECTED_PARAM_COUNT == 12_545

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
        assert init_params(0, (16, 4, 3, 2, 1)).flat.size == 16 * 4 + 4 + 4 * 3 + 3 + 3 * 2 + 2 + 2 + 1


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
        # hidden unit whose weights are all zero. backward() reads the ReLU
        # masks back from the layer inputs, so its gradients must match
        # backpropagation through the np.where masks bit for bit.
        params = init_params(3)
        params.weights[1][5] = 0.0
        x = np.random.default_rng(4).normal(size=(64, 16))
        x[::7] = 0.0
        out, inputs = forward(params, x)
        ref_out, ref_inputs, ref_masks = reference_forward(params.weights, params.biases, x)
        assert not ref_masks[0][::7].any() and not ref_masks[1][:, 5].any()
        assert out.tobytes() == ref_out.tobytes()
        for got, ref in zip(inputs, ref_inputs, strict=True):
            assert got.tobytes() == ref.tobytes()
        residuals = out - np.random.default_rng(5).normal(size=64)
        grads = backward(params, inputs, residuals)
        ref_grads = reference_backward(params.weights, ref_inputs, ref_masks, residuals)
        assert grads.flat.tobytes() == concat_bytes(ref_grads)

    def test_float32_matches_float64(self):
        # The same float32-representable weights and inputs in both
        # precisions. Tolerance fixed from float32's eps (2**-23, about
        # 1.2e-7) before measuring: about 80 eps of slack over four layers
        # of up to 128-term sums.
        params32 = init_params(3).astype(np.float32)
        params64 = params32.astype(np.float64)
        x = np.random.default_rng(6).normal(size=(256, 16)).astype(np.float32)
        out32, inputs32 = forward(params32, x)
        out64, _ = forward(params64, x)
        assert out32.dtype == np.float32 and out64.dtype == np.float64
        assert all(h.dtype == np.float32 for h in inputs32)
        np.testing.assert_allclose(out32, out64, rtol=1e-5, atol=1e-5)

    def test_row_matches_batch_of_one(self):
        # A 1-D row takes vector-matrix products and has no batch axis. It
        # agrees with the same row as a batch of one to 1e-12 on float64
        # weights, and on float32 weights to the 1e-5 (about 80 eps) of
        # test_float32_predict_agrees_with_predict_features.
        x = np.random.default_rng(7).normal(size=(50, 16))
        params64 = init_params(3)
        for params, tol in ((params64, 1e-12), (params64.astype(np.float32), 1e-5)):
            for row in x:
                out, inputs = forward(params, row)
                assert out.shape == () and out.dtype == params.flat.dtype
                assert [h.shape for h in inputs] == [(16,), (128,), (64,), (32,)]
                batch_of_one, _ = forward(params, row[None, :])
                np.testing.assert_allclose(out, batch_of_one[0], rtol=tol, atol=tol)

    def test_caller_input_unchanged(self):
        params = init_params(2)
        x = np.random.default_rng(5).normal(size=(8, 16))
        before = x.copy()
        forward(params, x)
        forward(params, x[0])
        np.testing.assert_array_equal(x, before)


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
        _, inputs = forward(params, x)
        grads = backward(params, inputs, np.zeros(6))
        for g in (*grads.weights, *grads.biases):
            assert not g.any()

    def test_dead_relu_blocks_gradient(self):
        params = zero_params((2, 2, 1))
        params.weights[0][:] = [[-1.0, 0.0], [0.0, -1.0]]
        params.weights[1][:] = 1.0
        x = np.array([[1.0, 2.0]])
        preds, inputs = forward(params, x)
        grads = backward(params, inputs, preds - np.array([5.0]))
        assert not grads.weights[0].any()
        assert not grads.biases[0].any()

    def test_float32_matches_float64(self):
        # Same weights, inputs and residuals in both precisions; every
        # gradient within 1e-5 of the largest gradient magnitude, a bound
        # fixed from float32's eps (2**-23) before measuring.
        params32 = init_params(12).astype(np.float32)
        params64 = params32.astype(np.float64)
        rng = np.random.default_rng(12)
        x = rng.normal(size=(256, 16)).astype(np.float32)
        out64, inputs64 = forward(params64, x)
        residuals = (out64 - rng.normal(size=256)).astype(np.float32)
        grads32 = backward(params32, forward(params32, x)[1], residuals)
        grads64 = backward(params64, inputs64, residuals)
        assert grads32.flat.dtype == np.float32 and grads64.flat.dtype == np.float64
        scale = np.abs(grads64.flat).max()
        assert np.abs(grads32.flat - grads64.flat).max() <= 1e-5 * scale

    def test_matches_central_finite_differences(self):
        rng = np.random.default_rng(11)
        params = init_params(11, (16, 4, 3, 2, 1))
        for b in params.biases:
            b[:] = rng.normal(size=b.shape)  # keep pre-activations off the ReLU kink
        x, y = random_batch(rng, 8)
        preds, inputs = forward(params, x)
        grads = backward(params, inputs, preds - y)

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


class TestFlatParams:
    def test_arrays_are_views_of_flat(self):
        params = init_params(0, (4, 3, 1))
        assert params.flat.size == 4 * 3 + 3 + 3 + 1
        params.flat[:] = np.arange(params.flat.size)
        assert params.weights[0].tolist() == [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9, 10, 11]]
        assert params.weights[1].tolist() == [[12, 13, 14]]
        assert params.biases[0].tolist() == [15, 16, 17] and params.biases[1].tolist() == [18]
        params.biases[1][0] = -1.0
        assert params.flat[-1] == -1.0

    def test_copy_is_independent(self):
        params = init_params(1, (4, 3, 1))
        twin = params.copy()
        assert twin.flat.tobytes() == params.flat.tobytes()
        assert not np.shares_memory(twin.flat, params.flat)
        twin.weights[0][0, 0] += 1.0
        twin.biases[0][:] = 7.0
        assert twin.flat[0] != params.flat[0] and not params.biases[0].any()
        assert np.shares_memory(twin.weights[0], twin.flat)

    def test_arrays_are_views_of_the_given_buffer(self):
        flat = np.array([1.0, 2.0, 3.0])
        params = MlpParams(flat, (2, 1))
        assert params.flat is flat
        assert params.weights[0].tolist() == [[1.0, 2.0]] and params.biases[0].tolist() == [3.0]
        params.weights[0][0, 0] = 5.0
        assert flat[0] == 5.0

    @pytest.mark.parametrize("size", [18, 20, 0])
    def test_buffer_of_wrong_length_is_refused(self, size):
        with pytest.raises(InvalidInputError, match=r"layer dimensions \(4, 3, 1\) take 19 parameters"):
            MlpParams(np.zeros(size), (4, 3, 1))

    def test_bundle_params_are_the_flat_layout(self, tmp_path):
        # Per-layer float32 arrays, hand-built: the bundle's params list is
        # every weight matrix in C order, then every bias vector, and it
        # loads back with the same bits. Only the production architecture
        # is bundlable, so the arrays have its shapes.
        rng = np.random.default_rng(41)
        dims = DEFAULT_LAYER_DIMS
        weights = [rng.normal(size=(d_out, d_in)).astype(np.float32) for d_in, d_out in zip(dims[:-1], dims[1:])]
        biases = [rng.normal(size=d_out).astype(np.float32) for d_out in dims[1:]]
        expected = np.concatenate([w.ravel() for w in weights] + biases)
        params = MlpParams(expected.copy(), dims)
        for got, want in zip([*params.weights, *params.biases], [*weights, *biases], strict=True):
            assert got.tobytes() == want.tobytes()
        path = tmp_path / "model.json"
        save_model(path, MlpModel(params=params, norm=IDENTITY_NORM, metadata=TOY_META))
        bundle = json.loads(path.read_text())
        assert bundle["version"] == 3 and len(bundle["params"]) == EXPECTED_PARAM_COUNT
        assert np.array(bundle["params"], dtype=np.float32).tobytes() == expected.tobytes()
        assert load_model(path).params.flat.tobytes() == expected.tobytes()


class TestAdam:
    def test_flat_update_matches_per_array_reference(self):
        # 50 forward/backward/Adam steps on the flat buffers against the
        # per-array reference: parameters, moments and every step's
        # gradients bit-equal.
        rng = np.random.default_rng(29)
        params = init_params(29, (16, 8, 4, 1))
        m, v = np.zeros_like(params.flat), np.zeros_like(params.flat)
        ref = [a.copy() for a in (*params.weights, *params.biases)]
        ref_m = [np.zeros_like(a) for a in ref]
        ref_v = [np.zeros_like(a) for a in ref]
        for step in range(1, 51):
            x, y = random_batch(rng, 24)
            preds, inputs = forward(params, x)
            ref_preds, ref_inputs, ref_masks = reference_forward(ref[:3], ref[3:], x)
            assert preds.tobytes() == ref_preds.tobytes()
            grads = backward(params, inputs, preds - y)
            ref_grads = reference_backward(ref[:3], ref_inputs, ref_masks, ref_preds - y)
            assert grads.flat.tobytes() == concat_bytes(ref_grads)
            adam_step(params.flat, grads.flat, m, v, step, 0.01)
            reference_adam_step(ref, ref_grads, ref_m, ref_v, step, 0.01)
        assert params.flat.tobytes() == concat_bytes(ref)
        assert m.tobytes() == concat_bytes(ref_m)
        assert v.tobytes() == concat_bytes(ref_v)

    def test_zero_gradient_is_noop(self):
        params = init_params(0, (4, 3, 1))
        before = params.copy()
        grads = backward(params, forward(params, np.zeros((1, 4)))[1], np.zeros(1))
        adam_step(params.flat, grads.flat, np.zeros_like(params.flat), np.zeros_like(params.flat), 1, 0.001)
        np.testing.assert_array_equal(before.flat, params.flat)

    def test_constant_gradient_unit_step(self):
        # With a steady gradient the bias-corrected update settles at the
        # learning rate regardless of the gradient's magnitude.
        flat, grad = np.array([1.0, 0.0]), np.array([3.0, 0.0])
        m, v = np.zeros(2), np.zeros(2)
        lr = 0.01
        prev = flat[0]
        step = None
        for t in range(1, 501):
            adam_step(flat, grad, m, v, t, lr)
            step = prev - flat[0]
            prev = flat[0]
        assert step == pytest.approx(lr, rel=1e-3)


class TestTrain:
    @staticmethod
    def toy_sets(seed=0, count=256):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(count, 16))
        y = x @ rng.normal(size=16) * 0.1
        return (x[: count // 2], y[: count // 2], x[count // 2 :], y[count // 2 :])

    @staticmethod
    def noise_sets(seed, count=1024):
        """Targets drawn apart from the rows, so validation loss soon rises."""
        rng = np.random.default_rng(seed)
        x, y = rng.normal(size=(count, 16)), rng.normal(size=count)
        return (x[: count // 2], y[: count // 2], x[count // 2 :], y[count // 2 :])

    def test_deterministic_given_seed(self):
        x_tr, y_tr, x_val, y_val = self.toy_sets()
        cfg = TrainConfig(max_epochs=4, patience=10, seed=5)
        m1, r1 = train(x_tr, y_tr, x_val, y_val, cfg, metadata=TOY_META)
        m2, r2 = train(x_tr, y_tr, x_val, y_val, cfg, metadata=TOY_META)
        assert r1.train_losses == r2.train_losses
        assert r1.val_losses == r2.val_losses
        assert (r1.best_epoch, r1.epochs_run) == (r2.best_epoch, r2.epochs_run)
        for w1, w2 in zip(m1.params.weights, m2.params.weights):
            np.testing.assert_array_equal(w1, w2)

    def test_returns_float32_weights_byte_identical_across_runs(self):
        x_tr, y_tr, x_val, y_val = self.toy_sets(seed=2)
        cfg = TrainConfig(max_epochs=5, seed=3)
        m1, _ = train(x_tr, y_tr, x_val, y_val, cfg, metadata=TOY_META)
        m2, _ = train(x_tr, y_tr, x_val, y_val, cfg, metadata=TOY_META)
        assert m1.params.flat.dtype == np.float32
        assert m1.params.flat.tobytes() == m2.params.flat.tobytes()

    def test_returns_best_epoch_params(self):
        x_tr, y_tr, x_val, y_val = self.noise_sets(seed=3)
        cfg = TrainConfig(max_epochs=12, patience=3, seed=1)
        model, report = train(x_tr, y_tr, x_val, y_val, cfg, metadata=TOY_META)
        # The best epoch is not the last, so the weights must come from earlier.
        assert report.best_epoch < report.epochs_run
        assert report.best_val_loss == min(report.val_losses)
        assert report.val_losses[report.best_epoch - 1] == report.best_val_loss
        x_z, y_z = z_score(model.norm, x_val, y_val)
        preds, _ = forward(model.params, x_z)
        assert loss_mse(preds, y_z) == pytest.approx(report.best_val_loss, rel=1e-12)

    def test_patience_one_stops_at_first_rise(self):
        x_tr, y_tr, x_val, y_val = self.noise_sets(seed=2)
        cfg = TrainConfig(max_epochs=50, patience=1, seed=2)
        _, report = train(x_tr, y_tr, x_val, y_val, cfg, metadata=TOY_META)
        assert report.stopped_early and report.epochs_run > 2
        # Every epoch before the stop improved; the stopping epoch did not.
        assert report.best_epoch == report.epochs_run - 1
        for prev, cur in zip(report.val_losses, report.val_losses[1:-1]):
            assert cur < prev
        assert report.val_losses[-1] >= report.val_losses[-2]
        # Patience that runs out on the last allowed epoch is still an early stop.
        cfg = TrainConfig(max_epochs=report.epochs_run, patience=1, seed=2)
        _, capped = train(x_tr, y_tr, x_val, y_val, cfg, metadata=TOY_META)
        assert capped.stopped_early and capped.val_losses == report.val_losses

    def test_epoch_cap(self):
        x_tr, y_tr, x_val, y_val = self.toy_sets(seed=4, count=64)
        cfg = TrainConfig(max_epochs=3, patience=50, seed=0)
        _, report = train(x_tr, y_tr, x_val, y_val, cfg, metadata=TOY_META)
        assert report.epochs_run == 3
        assert not report.stopped_early

    def test_divergence_raises(self, monkeypatch):
        # Adam steps are bounded by the learning rate, so force overflow
        # through an absurd rate; the trainer must report the epoch.
        monkeypatch.setattr(mlp, "LEARNING_RATE", 1e80)
        x_tr, y_tr, x_val, y_val = self.toy_sets(seed=6, count=64)
        cfg = TrainConfig(max_epochs=40, patience=40, seed=0)
        with np.errstate(all="ignore"):
            with pytest.raises(TrainingDivergedError) as exc:
                train(x_tr, y_tr, x_val, y_val, cfg, metadata=TOY_META)
        assert exc.value.epoch >= 1

    def test_reported_losses_use_the_returned_norm(self):
        # train fits its z-score on the training rows alone; the validation
        # loss it reports is the MSE of the returned weights on the
        # validation rows z-scored with the returned statistics, to the bit.
        x_tr, y_tr, x_val, y_val = self.toy_sets(seed=7)
        x_tr, x_val = x_tr * 40.0 + 3.0, x_val * 40.0 + 3.0
        y_tr, y_val = y_tr * 900.0 + 2500.0, y_val * 900.0 + 2500.0
        cfg = TrainConfig(max_epochs=3, seed=4)
        model, report = train(x_tr, y_tr, x_val, y_val, cfg, metadata=TOY_META)
        assert model.norm == datagen.fit_normalization(x_tr, y_tr)
        x_z, y_z = z_score(model.norm, x_val, y_val)
        preds, _ = forward(model.params, x_z)
        assert loss_mse(preds, y_z) == report.best_val_loss

    def test_caller_arrays_unchanged(self):
        sets = self.toy_sets(seed=8, count=64)
        before = [a.copy() for a in sets]
        train(*sets, TrainConfig(max_epochs=2), metadata=TOY_META)
        for a, b in zip(sets, before):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("seed", [-1, 2**64], ids=["negative", "2**64"])
    def test_rejects_seed_outside_64_bits(self, seed):
        with pytest.raises(InvalidInputError, match="seed"):
            TrainConfig(seed=seed)

    @pytest.mark.parametrize("name", ["learning_rate", "batch_size"])
    def test_learning_rate_and_batch_size_are_not_settings(self, name):
        # Every run trains at mlp.LEARNING_RATE on batches of mlp.BATCH_SIZE.
        with pytest.raises(TypeError, match=name):
            TrainConfig(**{name: 1})

    @pytest.mark.parametrize(
        "edit, which",
        [
            (lambda x_tr, y_tr, x_val, y_val: (x_tr[:0], y_tr[:0], x_val, y_val), "training"),
            (lambda x_tr, y_tr, x_val, y_val: (x_tr, y_tr, x_val[:0], y_val[:0]), "validation"),
            (lambda x_tr, y_tr, x_val, y_val: (x_tr, y_tr, x_val[:, :15], y_val), "validation"),
            (lambda x_tr, y_tr, x_val, y_val: (x_tr, y_tr, x_val, y_val[:-1]), "validation"),
        ],
        ids=["empty-train", "empty-val", "narrow-val-rows", "short-val-makespans"],
    )
    def test_rejects_sets_that_are_not_one_row_per_makespan(self, edit, which):
        sets = edit(*self.toy_sets(count=16))
        epochs = []
        with pytest.raises(InvalidInputError, match=f"{which} set: .* one per makespan"):
            train(*sets, TrainConfig(), TOY_META, on_epoch=lambda *args: epochs.append(args))
        assert epochs == []

    @pytest.mark.parametrize(
        "which, index, value, name",
        [(2, (3, 5), np.nan, "validation"), (1, 7, np.inf, "training")],
        ids=["nan-val-feature", "infinite-train-makespan"],
    )
    def test_rejects_non_finite_sets_before_the_first_epoch(self, which, index, value, name):
        # Not a whole epoch and then TrainingDivergedError: nothing diverged.
        sets = [a.copy() for a in self.toy_sets(count=16)]
        sets[which][index] = value
        epochs = []
        with pytest.raises(InvalidInputError, match=f"{name} set: every feature and makespan must be finite"):
            train(*sets, TrainConfig(), TOY_META, on_epoch=lambda *args: epochs.append(args))
        assert epochs == []


class TestModelMetadata:
    @pytest.mark.parametrize(
        "fields, name",
        [
            ({"compute_intensity": 0.0}, "compute_intensity"),
            ({"compute_intensity": -1.0}, "compute_intensity"),
            ({"compute_intensity": float("nan")}, "compute_intensity"),
            ({"compute_intensity": float("inf")}, "compute_intensity"),
            ({"compute_intensity": "100"}, "compute_intensity"),
            ({"compute_intensity": True}, "compute_intensity"),
            ({"compute_intensity": 100.0, "train_seed": 2**64}, "train_seed"),
            ({"compute_intensity": 100.0, "train_seed": 1.0}, "train_seed"),
            ({"compute_intensity": 100.0, "split_seed": -1}, "split_seed"),
            ({"compute_intensity": 100.0, "split_seed": True}, "split_seed"),
            ({"compute_intensity": 100.0, "dataset_hash": 5}, "dataset_hash"),
        ],
        ids=[
            "zero-intensity",
            "negative-intensity",
            "nan-intensity",
            "infinite-intensity",
            "text-intensity",
            "boolean-intensity",
            "train-seed-2**64",
            "float-train-seed",
            "negative-split-seed",
            "boolean-split-seed",
            "number-hash",
        ],
    )
    def test_refuses_values_outside_its_rule(self, fields, name):
        with pytest.raises(InvalidInputError, match=name):
            ModelMetadata(**fields)

    def test_intensity_is_required(self):
        # It bounds every answer; a guessed one would move them.
        with pytest.raises(TypeError, match="compute_intensity"):
            ModelMetadata(train_seed=0)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        train_seed=st.none() | st.integers(0, 2**64 - 1),
        split_seed=st.none() | st.integers(0, 2**64 - 1),
        dataset_hash=st.none() | st.text(st.characters(blacklist_categories=("Cs",))),
        compute_intensity=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False) | st.integers(1, 2**64 - 1),
    )
    def test_round_trips_through_a_bundle(self, tmp_path_factory, train_seed, split_seed, dataset_hash, compute_intensity):
        metadata = ModelMetadata(
            train_seed=train_seed, split_seed=split_seed, dataset_hash=dataset_hash, compute_intensity=compute_intensity
        )
        path = tmp_path_factory.getbasetemp() / "metadata-model.json"
        save_model(path, MlpModel(params=init_params(0).astype(np.float32), norm=IDENTITY_NORM, metadata=metadata))
        loaded = load_model(path).metadata
        assert loaded == metadata
        assert type(loaded.compute_intensity) is type(compute_intensity)
        assert list(json.loads(path.read_text())["metadata"]) == ["train_seed", "split_seed", "dataset_hash", "compute_intensity"]


class TestModelBundle:
    @staticmethod
    def small_model():
        """A bundlable model: float32 weights, as ``train`` returns them."""
        records = datagen.generate_dataset(120, seed=21)
        norm = datagen.fit_normalization(records.features, records.t_star)
        params = init_params(8).astype(np.float32)
        return MlpModel(params=params, norm=norm, metadata=ModelMetadata(train_seed=8, compute_intensity=100.0))

    def test_round_trip_preserves_weights(self, tmp_path):
        model = self.small_model()
        path = tmp_path / "model.json"
        save_model(path, model)
        loaded = load_model(path)
        assert loaded.params.flat.dtype == np.float32
        assert loaded.params.flat.tobytes() == model.params.flat.tobytes()
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

    @settings(max_examples=100, deadline=None, derandomize=True)
    @example(values=[float(np.finfo(np.float32).max), -float(np.finfo(np.float32).smallest_subnormal), -0.0])
    @given(values=st.lists(st.floats(width=32, allow_nan=False, allow_infinity=False), min_size=1, max_size=64))
    def test_every_finite_float32_round_trips_bit_exactly(self, tmp_path_factory, values):
        model = MlpModel(params=init_params(0).astype(np.float32), norm=IDENTITY_NORM, metadata=TOY_META)
        model.params.flat[: len(values)] = values
        path = tmp_path_factory.getbasetemp() / "float32-model.json"
        save_model(path, model)
        assert load_model(path).params.flat.tobytes() == model.params.flat.tobytes()

    def test_float32_spelling_and_float64_spelling_load_alike(self, tmp_path):
        # A bundle spells each float32 weight in float32's shortest form; one
        # spelling each weight as the float64 number it equals loads alike.
        model = self.small_model()
        model.params.weights[0][0, 0] = 0.1
        path = tmp_path / "model.json"
        save_model(path, model)
        assert b'"params":[0.1,' in path.read_bytes() and b"0.10000000149011612" not in path.read_bytes()
        bundle = json.loads(path.read_text())
        bundle["params"] = model.params.flat.tolist()
        old = tmp_path / "float64-spelling.json"
        old.write_text(json.dumps(bundle))
        assert b"0.10000000149011612" in old.read_bytes()
        for loaded in (load_model(path), load_model(old)):
            assert loaded.params.flat.tobytes() == model.params.flat.tobytes()
            assert loaded.norm == model.norm and loaded.metadata == model.metadata

    def test_rejects_tampered_shapes(self, tmp_path):
        import json

        model = self.small_model()
        path = tmp_path / "model.json"
        save_model(path, model)
        obj = json.loads(path.read_text())
        obj["params"] = obj["params"][:-1]  # one parameter short
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

    @pytest.mark.parametrize(
        "edit",
        [
            lambda model: model.params.weights[2].__setitem__((0, 0), np.inf),
            lambda model: model.params.biases[0].__setitem__(3, np.nan),
        ],
        ids=["infinite-weight", "nan-bias"],
    )
    def test_non_finite_values_not_bundlable(self, tmp_path, edit):
        model = self.small_model()
        edit(model)
        path = tmp_path / "m.json"
        with pytest.raises(InvalidInputError, match="finite weights"):
            save_model(path, model)
        assert not path.exists()

    def test_float64_weights_not_bundlable(self, tmp_path):
        model = self.small_model()
        model.params = model.params.astype(np.float64)
        with pytest.raises(InvalidInputError, match="float32"):
            save_model(tmp_path / "m.json", model)

    def test_nondefault_architecture_not_bundlable(self, tmp_path):
        model = MlpModel(params=init_params(0, (16, 4, 1)), norm=IDENTITY_NORM, metadata=TOY_META)
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

    @pytest.mark.parametrize(
        "child_speeds, load_gb",
        [((5.0, 8.0), 1e300), ((1e308, 1e308), 25.0)],
        ids=["float32-overflowing-load", "overflowing-features"],
    )
    def test_system_outside_the_range_raises_numeric_error(self, child_speeds, load_gb):
        # The suite turns warnings into errors, so this also shows that no
        # numpy overflow or invalid-value warning escapes.
        config = SltnConfig(
            n=2, root_speed=10.0, child_speeds=child_speeds, link_bandwidths=(100.0, 25.0), load_gb=load_gb
        )
        with pytest.raises(NumericError, match="outside the surrogate's range"):
            predict(TestModelBundle.small_model(), config)

    def test_huge_finite_z_score_raises_numeric_error(self):
        # A load whose z-score lies just below float32's largest value
        # (about 3.4028e38) passes the range check and overflows inside the
        # network; with every weight positive the output is +inf. The suite
        # turns warnings into errors, so this also shows that the overflow
        # raises no numpy warning.
        model = TestModelBundle.small_model()
        np.abs(model.params.flat, out=model.params.flat)
        load = datagen.FEATURE_NAMES.index("load_gb")
        load_gb = model.norm.feature_means[load] + model.norm.feature_stds[load] * 3.4e38
        config = SltnConfig(
            n=2, root_speed=10.0, child_speeds=(5.0, 8.0), link_bandwidths=(100.0, 25.0), load_gb=load_gb
        )
        with pytest.raises(NumericError, match="makespan inf is not finite"):
            predict(model, config)
        rows = [sampled_rows(13, 1)[0], datagen.extract_features(config).as_array()]
        with pytest.raises(NumericError, match="row 1: .* makespan not finite; the system is outside"):
            predict_features(model, rows)

    @pytest.mark.parametrize("load_gb", [1e300, np.inf, np.nan], ids=["float32-overflowing-load", "infinite", "nan"])
    def test_rows_outside_the_range_raise_numeric_error(self, load_gb):
        # predict_features refuses the rows predict refuses, naming the first;
        # no numpy warning escapes, as the suite turns warnings into errors.
        rows = sampled_rows(13, 4)
        rows[[2, 3], datagen.FEATURE_NAMES.index("load_gb")] = load_gb
        with pytest.raises(NumericError, match="row 2: a z-score beyond float32's range"):
            predict_features(TestModelBundle.small_model(), rows)

    def test_in_range_answers_are_the_unchecked_pass(self):
        # The range checks leave the answers on in-range rows bit for bit
        # what the network, the inverse z-score and the bound give.
        rows = sampled_rows(19, 300)
        model = TestModelBundle.small_model()
        norm, f = model.norm, datagen.FEATURE_NAMES.index
        y, _ = forward(model.params, (rows - np.array(norm.feature_means)) / np.array(norm.feature_stds))
        bound = 100.0 * rows[:, f("load_gb")] / (rows[:, f("w0")] + rows[:, f("n")] * rows[:, f("mean_w")])
        expected = np.maximum(np.asarray(y, dtype=float) * norm.target_std + norm.target_mean, bound)
        assert predict_features(model, rows).tobytes() == expected.tobytes()

    def test_z_score_and_its_inverse_frame_the_network(self):
        # A network that passes the load's z-score through to its output:
        # the training mean of every feature answers the target mean, and
        # each training std above it one target std more.
        params = zero_params(DEFAULT_LAYER_DIMS)
        params.weights[0][0, datagen.FEATURE_NAMES.index("load_gb")] = 1.0
        for w in params.weights[1:]:
            w[0, 0] = 1.0
        norm = TestModelBundle.small_model().norm
        model = MlpModel(params=params, norm=norm, metadata=ModelMetadata(compute_intensity=1e-9))
        rows = np.array(norm.feature_means) + np.multiply.outer([0.0, 1.0, 2.0], norm.feature_stds)
        answers = predict_features(model, rows)
        assert answers[0] == norm.target_mean
        np.testing.assert_allclose(answers[1:], norm.target_mean + np.array([1.0, 2.0]) * norm.target_std, rtol=1e-12)

    def test_predict_agrees_with_predict_features(self):
        # On float64 weights a one-row pass and a batched one agree to 1e-12.
        configs = [datagen.sample_config(datagen.record_rng(13, i)) for i in range(40)]
        rows = np.array([datagen.extract_features(c).as_array() for c in configs])
        model64 = TestModelBundle.small_model()
        model64.params = model64.params.astype(np.float64)
        for model in (model64, constant_model(-5.0, compute_intensity=100.0)):
            batched = predict_features(model, rows)
            assert np.all(batched > 0)
            singles = [predict(model, c) for c in configs]
            np.testing.assert_allclose(singles, batched, rtol=1e-12)

    def test_float32_predict_agrees_with_predict_features(self):
        # In float32 a one-row product and a batched one may round
        # differently, by a few eps (2**-23) of the output's scale; allow
        # 1e-5 in the z-scored space, about 80 eps.
        configs = [datagen.sample_config(datagen.record_rng(13, i)) for i in range(40)]
        rows = np.array([datagen.extract_features(c).as_array() for c in configs])
        model = TestModelBundle.small_model()
        batched = predict_features(model, rows)
        singles = np.array([predict(model, c) for c in configs])
        assert batched.dtype == np.float64
        np.testing.assert_allclose(singles, batched, rtol=0, atol=1e-5 * model.norm.target_std)

    def test_caller_rows_unchanged(self):
        configs = [datagen.sample_config(datagen.record_rng(17, i)) for i in range(20)]
        rows = np.array([datagen.extract_features(c).as_array() for c in configs])
        before = rows.copy()
        model = TestModelBundle.small_model()
        predict_features(model, rows)
        predict_features(model, rows[0])
        predict_features(constant_model(-5.0, compute_intensity=100.0), rows)
        np.testing.assert_array_equal(rows, before)
