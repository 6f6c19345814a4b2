import numpy as np
import pytest

from nulut.lattice import identity_lut, uniform_coordinates
from nulut.training import (
    AdamState,
    ImagePair,
    LossWeights,
    TrainConfig,
    TrainingDivergedError,
    adam_step,
    fit_direct,
    monotonicity_loss,
    monotonicity_loss_grad,
    reconstruction_loss,
    reconstruction_loss_grad,
    smoothness_loss,
    smoothness_loss_grad,
    total_loss,
    write_history_csv,
    HISTORY_COLUMNS,
)


class TestReconstructionLoss:
    def test_identical_images_give_zero(self, rng):
        img = rng.random((3, 5, 5))
        assert reconstruction_loss(img, img) == 0.0

    def test_constant_offset(self, rng):
        img = rng.random((3, 4, 6)) * 0.5
        assert abs(reconstruction_loss(img + 0.1, img) - 0.01) < 1e-12

    def test_gradient_matches_finite_differences(self, rng):
        pred = rng.random((3, 3, 3))
        target = rng.random((3, 3, 3))
        _, grad = reconstruction_loss_grad(pred, target)
        h = 1e-6
        for idx in [(0, 0, 0), (1, 2, 1), (2, 1, 2)]:
            plus, minus = pred.copy(), pred.copy()
            plus[idx] += h
            minus[idx] -= h
            fd = (reconstruction_loss(plus, target) - reconstruction_loss(minus, target)) / (2 * h)
            assert abs(grad[idx] - fd) / max(abs(fd), 1e-9) < 1e-6

    def test_rejects_shape_mismatch(self, rng):
        with pytest.raises(ValueError):
            reconstruction_loss(rng.random((3, 2, 2)), rng.random((3, 2, 3)))


def brute_force_smoothness(table):
    n = table.shape[1]
    total, count = 0.0, 0
    for c in range(3):
        for i in range(n):
            for j in range(n):
                for k in range(n - 2):
                    total += (table[c, i, j, k + 2] - 2 * table[c, i, j, k + 1] + table[c, i, j, k]) ** 2
                    total += (table[c, i, k + 2, j] - 2 * table[c, i, k + 1, j] + table[c, i, k, j]) ** 2
                    total += (table[c, k + 2, i, j] - 2 * table[c, k + 1, i, j] + table[c, k, i, j]) ** 2
                    count += 3
    return total / count


class TestSmoothnessLoss:
    def test_identity_table_on_uniform_grid_is_smooth(self):
        table = identity_lut(uniform_coordinates(5))
        assert smoothness_loss(table) == 0.0

    def test_affine_in_index_tables_are_smooth(self, rng):
        n = 4
        i, j, k = np.meshgrid(np.arange(n), np.arange(n), np.arange(n), indexing="ij")
        coeff = rng.normal(size=(3, 3))
        table = np.stack([c[0] * i + c[1] * j + c[2] * k for c in coeff]) / n
        assert smoothness_loss(table) < 1e-28

    def test_single_bump_matches_brute_force(self, rng):
        table = np.zeros((3, 3, 3, 3))
        height = 0.37
        table[0, 1, 1, 1] = height
        expected = brute_force_smoothness(table)
        assert abs(smoothness_loss(table) - expected) < 1e-15
        # closed form: three axes see one bent line each, 81 sites total
        assert abs(expected - 12 * height**2 / 81) < 1e-15

    def test_matches_brute_force_on_random_tables(self, rng):
        table = rng.random((3, 4, 4, 4))
        assert abs(smoothness_loss(table) - brute_force_smoothness(table)) < 1e-12

    def test_tiny_tables_return_zero(self, rng):
        assert smoothness_loss(rng.random((3, 2, 2, 2))) == 0.0

    def test_gradient_matches_finite_differences(self, rng):
        table = rng.random((3, 4, 4, 4))
        _, grad = smoothness_loss_grad(table)
        h = 1e-6
        for idx in [(0, 0, 0, 0), (1, 2, 1, 3), (2, 1, 2, 2)]:
            plus, minus = table.copy(), table.copy()
            plus[idx] += h
            minus[idx] -= h
            fd = (smoothness_loss(plus) - smoothness_loss(minus)) / (2 * h)
            assert abs(grad[idx] - fd) / max(abs(fd), 1e-9) < 1e-5


class TestMonotonicityLoss:
    def test_identity_table_is_monotone(self):
        assert monotonicity_loss(identity_lut(uniform_coordinates(4))) == 0.0

    def test_single_inversion_contribution(self):
        n = 4
        table = identity_lut(uniform_coordinates(n))
        drop = 0.5
        table[0, 2, 1, 1] = table[0, 1, 1, 1] - drop
        expected = ((drop) ** 2 + (table[0, 3, 1, 1] - table[0, 2, 1, 1] < 0) * 0.0)
        count = 3 * (n - 1) * n * n
        # the drop creates one negative difference of size drop at (1->2);
        # the following difference grows and stays positive
        assert table[0, 3, 1, 1] > table[0, 2, 1, 1]
        assert abs(monotonicity_loss(table) - drop**2 / count) < 1e-15

    def test_monotone_tables_give_zero(self, rng):
        base = np.sort(rng.random((3, 5)), axis=1)
        table = np.empty((3, 5, 5, 5))
        table[0] = base[0][:, None, None]
        table[1] = base[1][None, :, None]
        table[2] = base[2][None, None, :]
        table += rng.random((3, 1, 1, 1)) * 0  # keep own-axis structure exact
        assert monotonicity_loss(table) == 0.0

    def test_gradient_matches_finite_differences(self, rng):
        table = rng.random((3, 4, 4, 4))
        _, grad = monotonicity_loss_grad(table)
        h = 1e-6
        for idx in [(0, 1, 0, 2), (1, 3, 1, 3), (2, 0, 2, 1)]:
            plus, minus = table.copy(), table.copy()
            plus[idx] += h
            minus[idx] -= h
            fd = (monotonicity_loss(plus) - monotonicity_loss(minus)) / (2 * h)
            assert abs(grad[idx] - fd) / max(abs(fd), 1e-6) < 1e-5


class TestTotalLoss:
    def test_perfect_identity_setup_is_zero(self, rng):
        img = rng.random((3, 5, 5))
        # n_s = 5 keeps the uniform knots dyadic, so the identity table is
        # exactly affine and both regularizers vanish exactly
        table = identity_lut(uniform_coordinates(5))
        assert total_loss(img, img, table, LossWeights()) == 0.0

    def test_zero_weights_reduce_to_reconstruction(self, rng):
        pred, target = rng.random((3, 4, 4)), rng.random((3, 4, 4))
        table = rng.random((3, 4, 4, 4))
        weights = LossWeights(lambda_s=0.0, lambda_m=0.0)
        assert total_loss(pred, target, table, weights) == reconstruction_loss(pred, target)

    def test_weights_scale_linearly(self, rng):
        pred, target = rng.random((3, 4, 4)), rng.random((3, 4, 4))
        table = rng.random((3, 4, 4, 4))
        base = total_loss(pred, target, table, LossWeights(lambda_s=0.0, lambda_m=1.0))
        doubled = total_loss(pred, target, table, LossWeights(lambda_s=0.0, lambda_m=2.0))
        l_r = reconstruction_loss(pred, target)
        assert abs((doubled - l_r) - 2 * (base - l_r)) < 1e-15

    def test_rejects_negative_weights(self):
        with pytest.raises(ValueError):
            LossWeights(lambda_s=-1.0)

    @pytest.mark.parametrize("field", ["lambda_s", "lambda_m"])
    @pytest.mark.parametrize("value", [-1.0, float("nan"), float("inf")])
    def test_rejects_bad_weights_by_name(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite and non-negative"):
            LossWeights(**{field: value})


class TestAdam:
    def test_zero_gradient_keeps_parameters(self):
        params = {"w": np.array([1.0, -2.0])}
        state = AdamState()
        out = adam_step(params, {"w": np.zeros(2)}, state, TrainConfig())
        np.testing.assert_array_equal(out["w"], params["w"])

    def test_first_step_magnitude_is_learning_rate(self):
        config = TrainConfig(learning_rate=1e-3)
        params = {"w": np.zeros(3)}
        grads = {"w": np.array([0.5, -2.0, 10.0])}
        out = adam_step(params, grads, AdamState(), config)
        # bias-corrected first step is lr * sign(g) up to the eps fudge
        np.testing.assert_allclose(out["w"], -1e-3 * np.sign(grads["w"]), rtol=1e-4)

    def test_deterministic_trajectories(self, rng):
        config = TrainConfig(learning_rate=1e-2)
        runs = []
        for _ in range(2):
            params = {"w": np.ones(4)}
            state = AdamState()
            gen = np.random.default_rng(99)
            for _ in range(50):
                grads = {"w": gen.normal(size=4)}
                params = adam_step(params, grads, state, config)
            runs.append(params["w"])
        assert np.array_equal(runs[0], runs[1])

    def test_non_finite_gradient_raises(self):
        with pytest.raises(TrainingDivergedError):
            adam_step({"w": np.zeros(2)}, {"w": np.array([1.0, np.nan])}, AdamState(), TrainConfig())

    def test_lr_scale_applies_to_named_parameter(self):
        config = TrainConfig(learning_rate=1e-3)
        params = {"a": np.zeros(1), "b": np.zeros(1)}
        grads = {"a": np.ones(1), "b": np.ones(1)}
        out = adam_step(params, grads, AdamState(), config, lr_scales={"b": 0.1})
        assert abs(out["a"][0]) > abs(out["b"][0]) * 5


class TestFitDirect:
    def test_identity_task_stays_near_zero_loss(self, rng):
        img = rng.random((3, 8, 8))
        pair = ImagePair(img, img.copy())
        config = TrainConfig(learning_rate=1e-3, epochs=50, freeze_interval_epochs=5)
        lattice, history = fit_direct([pair], 3, config)
        assert history[-1][1] < 1e-6
        np.testing.assert_allclose(
            lattice.values, identity_lut(lattice.coords), atol=0.02
        )

    def test_loss_history_trends_down(self, rng):
        img = rng.random((3, 16, 16))
        pair = ImagePair(img, img**0.5)
        config = TrainConfig(learning_rate=1e-2, epochs=400, freeze_interval_epochs=40)
        _, history = fit_direct([pair], 4, config)
        losses = history[:, 1]
        assert losses[-100:].mean() <= losses[:100].mean()

    def test_uniform_mode_keeps_uniform_coords(self, rng):
        img = rng.random((3, 8, 8))
        pair = ImagePair(img, img**2)
        config = TrainConfig(learning_rate=1e-2, epochs=30, freeze_interval_epochs=0)
        lattice, _ = fit_direct([pair], 4, config, adaptive=False)
        np.testing.assert_allclose(lattice.coords, uniform_coordinates(4), atol=1e-12)

    def test_shared_mode_keeps_channels_identical(self, rng):
        img = rng.random((3, 8, 8))
        pair = ImagePair(img, img**2)
        config = TrainConfig(learning_rate=1e-2, epochs=40, freeze_interval_epochs=5)
        lattice, _ = fit_direct([pair], 4, config, adaptive=True, shared=True)
        assert np.array_equal(lattice.coords[0], lattice.coords[1])
        assert np.array_equal(lattice.coords[0], lattice.coords[2])
        assert np.abs(lattice.coords[0] - uniform_coordinates(4)[0]).max() > 1e-6

    def test_same_seed_same_history(self, rng):
        img = rng.random((3, 8, 8))
        pair = ImagePair(img, img**0.5)
        config = TrainConfig(learning_rate=1e-2, epochs=25, freeze_interval_epochs=5)
        _, h1 = fit_direct([pair], 3, config)
        _, h2 = fit_direct([pair], 3, config)
        assert np.array_equal(h1, h2)

    def test_divergence_raises(self, rng):
        img = rng.random((3, 4, 4))
        pair = ImagePair(img, img**0.5)
        config = TrainConfig(learning_rate=1e6, epochs=200, freeze_interval_epochs=0)
        with pytest.raises(TrainingDivergedError):
            fit_direct([pair], 3, config)

    def test_empty_pairs_rejected(self):
        with pytest.raises(ValueError):
            fit_direct([], 3, TrainConfig(epochs=1, freeze_interval_epochs=0))

    def test_freeze_must_fit_in_epochs(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=3, freeze_interval_epochs=5)


class TestTrainConfigValidation:
    def test_defaults_accepted(self):
        TrainConfig()

    def test_negative_freeze_rejected(self):
        with pytest.raises(ValueError, match="freeze_interval_epochs must lie in"):
            TrainConfig(epochs=3, freeze_interval_epochs=-1)

    @pytest.mark.parametrize("field", ["adam_beta1", "adam_beta2"])
    @pytest.mark.parametrize("beta", [1.0, 1.5, -0.1, float("nan")])
    def test_beta_outside_unit_interval_rejected(self, field, beta):
        with pytest.raises(ValueError, match=r"betas must lie in \[0, 1\)"):
            TrainConfig(**{field: beta})

    @pytest.mark.parametrize("field", ["adam_beta1", "adam_beta2"])
    def test_beta_zero_accepted(self, field):
        TrainConfig(**{field: 0.0})

    @pytest.mark.parametrize("eps", [0.0, -1e-8, float("nan")])
    def test_non_positive_eps_rejected(self, eps):
        with pytest.raises(ValueError, match="adam_eps must be positive"):
            TrainConfig(adam_eps=eps)

    @pytest.mark.parametrize("lr", [0.0, -1e-3, float("nan"), float("inf")])
    def test_bad_learning_rate_rejected(self, lr):
        with pytest.raises(ValueError, match="learning_rate must be finite and positive"):
            TrainConfig(learning_rate=lr)

    @pytest.mark.parametrize("decay", [-1.0, float("nan"), float("inf")])
    def test_bad_interval_lr_decay_rejected(self, decay):
        with pytest.raises(ValueError, match="interval_lr_decay must be finite and non-negative"):
            TrainConfig(interval_lr_decay=decay)

    def test_zero_interval_lr_decay_accepted(self):
        TrainConfig(interval_lr_decay=0.0)


class TestImagePair:
    def test_shape_mismatch_is_reported_first(self):
        with pytest.raises(ValueError, match="shapes differ"):
            ImagePair(np.full((3, 2, 2), np.nan), np.zeros((3, 2, 3)))

    def test_input_shape_checked(self):
        with pytest.raises(ValueError, match=r"image must have shape \(3, h, w\)"):
            ImagePair(np.zeros((2, 2, 2)), np.zeros((2, 2, 2)))

    @pytest.mark.parametrize("value,message", [
        (np.nan, "image values must be finite"),
        (1.5, r"image values must lie in \[0, 1\]"),
    ])
    def test_input_checked_before_target(self, value, message):
        img = np.zeros((3, 2, 2))
        img[1, 0, 1] = value
        with pytest.raises(ValueError, match=message):
            ImagePair(img, np.full((3, 2, 2), np.nan))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_target_rejected(self, value):
        target = np.zeros((3, 2, 2))
        target[2, 1, 1] = value
        with pytest.raises(ValueError, match="target values must be finite"):
            ImagePair(np.zeros((3, 2, 2)), target)

    def test_stores_float64_arrays(self):
        # a finite target outside [0, 1] is accepted
        pair = ImagePair(np.ones((3, 1, 2), dtype=np.float32), [[[0, 2]]] * 3)
        assert pair.input.dtype == np.float64 and pair.target.dtype == np.float64
        assert pair.target.shape == (3, 1, 2)


class TestDirectParameterGradients:
    def test_full_pipeline_matches_finite_differences(self, rng):
        """Total-loss gradients w.r.t. logits and values on a 4x4 image."""
        from nulut.lattice import (
            Lattice,
            coordinate_logit_vjp,
            intervals_to_coordinates,
            softmax_normalize,
        )
        from nulut.transform import transform_image, transform_with_grads

        img = rng.random((3, 4, 4))
        target = img**0.6
        weights = LossWeights()
        logits = rng.uniform(-0.5, 0.5, size=(3, 3))
        values = identity_lut(uniform_coordinates(4)) + rng.normal(0, 0.02, (3, 4, 4, 4))

        def loss_at(logits_, values_):
            lattice = Lattice(
                intervals_to_coordinates(softmax_normalize(logits_)), values_
            )
            return total_loss(transform_image(img, lattice), target, values_, weights)

        q = softmax_normalize(logits)
        lattice = Lattice(intervals_to_coordinates(q), values)
        pred = transform_image(img, lattice)
        _, g_pred = reconstruction_loss_grad(pred, target)
        _, g_s = smoothness_loss_grad(values)
        _, g_m = monotonicity_loss_grad(values)
        _, lat_grads = transform_with_grads(img, g_pred, lattice)
        grad_values = lat_grads.grad_values + weights.lambda_s * g_s + weights.lambda_m * g_m
        grad_logits = coordinate_logit_vjp(q, lat_grads.grad_coords)

        h = 1e-6
        for c in range(3):
            for j in range(3):
                plus, minus = logits.copy(), logits.copy()
                plus[c, j] += h
                minus[c, j] -= h
                fd = (loss_at(plus, values) - loss_at(minus, values)) / (2 * h)
                scale = max(abs(grad_logits[c, j]), abs(fd), 1e-7)
                assert abs(grad_logits[c, j] - fd) / scale < 1e-4
        flat = values.ravel()
        for pos in rng.choice(flat.size, size=10, replace=False):
            plus, minus = values.copy(), values.copy()
            plus.ravel()[pos] += h
            minus.ravel()[pos] -= h
            fd = (loss_at(logits, plus) - loss_at(logits, minus)) / (2 * h)
            analytic = grad_values.ravel()[pos]
            scale = max(abs(analytic), abs(fd), 1e-7)
            assert abs(analytic - fd) / scale < 1e-4


class TestTrainPredictorBasics:
    def test_single_pair_trains_like_direct_fitting(self, rng):
        from nulut.training import train_predictor

        img = rng.random((3, 12, 12))
        pair = ImagePair(img, img**0.5)
        config = TrainConfig(learning_rate=1e-2, epochs=300, freeze_interval_epochs=30)
        _, history = train_predictor([pair], 4, 1, config)
        assert history[-1][1] < history[0][1] / 10

    def test_shared_mode_keeps_channels_identical_each_step(self, rng):
        from nulut.lattice import coordinates_from_logits
        from nulut.predictor import extract_features, predict_logits
        from nulut.training import train_predictor

        img = rng.random((3, 8, 8))
        pair = ImagePair(img, img**2.0)
        config = TrainConfig(learning_rate=1e-2, epochs=30, freeze_interval_epochs=2)
        params, _ = train_predictor([pair], 4, 1, config, shared=True)
        coords = coordinates_from_logits(
            predict_logits(extract_features(img), params)
        )
        assert np.array_equal(coords[0], coords[1])
        assert np.array_equal(coords[0], coords[2])

    @pytest.mark.parametrize("shared", [False, True])
    def test_batch_of_copies_matches_single_pair(self, rng, shared):
        """Averaging a batch of two identical pairs is exact: (g + g) / 2 == g."""
        from nulut.training import train_predictor

        img = rng.random((3, 8, 8))
        pair = ImagePair(img, img**0.6)
        config = TrainConfig(learning_rate=1e-2, epochs=6, freeze_interval_epochs=2)
        single, h1 = train_predictor([pair], 3, 2, config, shared=shared)
        batched, h2 = train_predictor([pair, pair], 3, 2, config, shared=shared, batch_size=2)
        assert h1.shape == (6, 5)
        assert np.array_equal(h1, h2)
        for name in ("g_weights", "g_bias", "h0_weights", "h0_bias", "basis_luts", "h1_bias"):
            assert np.array_equal(getattr(single, name), getattr(batched, name))

    def test_divergence_raises(self, rng):
        from nulut.training import train_predictor

        img = rng.random((3, 4, 4))
        pair = ImagePair(img, img**0.5)
        config = TrainConfig(learning_rate=1e6, epochs=50, freeze_interval_epochs=0)
        with pytest.raises(TrainingDivergedError, match="exceeded 1000x its initial value"):
            train_predictor([pair, pair], 3, 2, config)

    def test_empty_pairs_rejected(self):
        from nulut.training import train_predictor

        with pytest.raises(ValueError, match="at least one image pair"):
            train_predictor([], 3, 1, TrainConfig(epochs=1, freeze_interval_epochs=0))

    def test_determinism(self, rng):
        from nulut.training import train_predictor

        img = rng.random((3, 8, 8))
        pair = ImagePair(img, img**0.5)
        config = TrainConfig(learning_rate=1e-2, epochs=20, freeze_interval_epochs=2)
        _, h1 = train_predictor([pair], 3, 2, config)
        _, h2 = train_predictor([pair], 3, 2, config)
        assert np.array_equal(h1, h2)


class TestHistoryCsv:
    def test_round_trip(self, rng, tmp_path):
        history = np.column_stack(
            [np.arange(5), rng.random(5), rng.random(5), rng.random(5), rng.random(5)]
        )
        path = tmp_path / "history.csv"
        write_history_csv(history, path)
        text = path.read_text().splitlines()
        assert text[0] == ",".join(HISTORY_COLUMNS)
        parsed = np.array([[float(v) for v in line.split(",")] for line in text[1:]])
        np.testing.assert_array_equal(parsed, history)
