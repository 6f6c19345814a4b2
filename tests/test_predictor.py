import warnings
from dataclasses import replace

import numpy as np
import pytest

from nulut.lattice import Lattice, coordinates_from_logits, uniform_coordinates
from nulut.predictor import (
    FEATURE_DIM,
    HIST_BINS,
    PARAM_ARRAYS,
    PredictorParams,
    extract_features,
    init_params,
    predict_logits,
    predict_values,
    predict_weights,
)
from nulut.training import (
    ImagePair,
    LossWeights,
    predictor_loss_and_grads,
)
from nulut.transform import transform_image
from nulut.analysis import psnr


class TestExtractFeatures:
    def test_all_black_image(self):
        features = extract_features(np.zeros((3, 4, 4)))
        assert features.shape == (FEATURE_DIM,)
        for c in range(3):
            hist = features[c * HIST_BINS : (c + 1) * HIST_BINS]
            assert hist[0] == 1.0
            assert hist[1:].sum() == 0.0
        assert np.all(features[3 * HIST_BINS :] == 0.0)  # means and stds

    def test_histograms_sum_to_one(self, rng):
        features = extract_features(rng.random((3, 9, 7)))
        for c in range(3):
            hist = features[c * HIST_BINS : (c + 1) * HIST_BINS]
            assert abs(hist.sum() - 1.0) < 1e-12

    def test_deterministic(self, rng):
        img = rng.random((3, 6, 6))
        assert np.array_equal(extract_features(img), extract_features(img.copy()))

    def test_top_value_lands_in_last_bin(self):
        img = np.ones((3, 2, 2))
        features = extract_features(img)
        assert features[HIST_BINS - 1] == 1.0

    @pytest.mark.parametrize("bad, reason", [
        (-0.5, r"lie in \[0, 1\]"), (1.5, r"lie in \[0, 1\]"),
        (np.nan, "finite"), (np.inf, "finite"),
    ])
    def test_rejects_values_outside_unit_range(self, rng, bad, reason):
        img = rng.random((3, 4, 4))
        img[1, 2, 3] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no cast warning on the way to the error
            with pytest.raises(ValueError, match=reason) as info:
                extract_features(img)
        assert "\n" not in str(info.value)

    def test_means_and_stds(self, rng):
        img = rng.random((3, 5, 5))
        features = extract_features(img)
        np.testing.assert_allclose(
            features[3 * HIST_BINS : 3 * HIST_BINS + 3], img.reshape(3, -1).mean(axis=1)
        )
        np.testing.assert_allclose(
            features[3 * HIST_BINS + 3 :], img.reshape(3, -1).std(axis=1)
        )


class TestPredictLogits:
    def test_initial_state_emits_uniform_intervals(self, rng):
        params = init_params(n_s=6, m=2)
        for _ in range(3):
            features = extract_features(rng.random((3, 5, 5)))
            logits = predict_logits(features, params)
            np.testing.assert_array_equal(logits, np.ones((3, 5)))
            coords = coordinates_from_logits(logits)
            np.testing.assert_allclose(coords, uniform_coordinates(6), atol=1e-12)

    def test_zero_features_return_bias(self, rng):
        params = init_params(n_s=4, m=2)
        params.g_bias[:] = rng.normal(size=params.g_bias.shape)
        logits = predict_logits(np.zeros(FEATURE_DIM), params)
        np.testing.assert_array_equal(logits.ravel(), params.g_bias)

    def test_shared_mode_rows_identical(self, rng):
        params = init_params(n_s=5, m=2, shared=True)
        params.g_weights[:] = rng.normal(size=params.g_weights.shape)
        logits = predict_logits(extract_features(rng.random((3, 4, 4))), params)
        assert logits.shape == (3, 4)
        assert np.array_equal(logits[0], logits[1])
        assert np.array_equal(logits[0], logits[2])

    def test_shared_mode_cuts_interval_head_parameters_threefold(self):
        full = init_params(n_s=9, m=2, shared=False)
        shared = init_params(n_s=9, m=2, shared=True)
        assert full.g_weights.size == 3 * shared.g_weights.size
        assert full.g_bias.size == 3 * shared.g_bias.size

    def test_rejects_wrong_feature_length(self):
        params = init_params(n_s=4, m=2)
        with pytest.raises(ValueError):
            predict_logits(np.zeros(FEATURE_DIM + 1), params)


class TestPredictValues:
    def test_one_hot_blend_returns_identity_table(self, rng):
        from nulut.lattice import identity_lut

        params = init_params(n_s=4, m=3, seed=1)
        features = extract_features(rng.random((3, 4, 4)))
        table = predict_values(features, params)
        np.testing.assert_array_equal(table, identity_lut(uniform_coordinates(4)))

    def test_blend_is_affine_in_weights(self, rng):
        params = init_params(n_s=3, m=2, seed=2)
        params.h0_weights[:] = rng.normal(size=params.h0_weights.shape) * 1e-3
        features = extract_features(rng.random((3, 4, 4)))
        weights = predict_weights(features, params)
        expected = (weights @ params.basis_luts + params.h1_bias).reshape(3, 3, 3, 3)
        np.testing.assert_array_equal(predict_values(features, params), expected)

    def test_single_basis_output_is_scalar_multiple(self, rng):
        params = init_params(n_s=3, m=1, seed=3)
        f1 = extract_features(rng.random((3, 4, 4)))
        f2 = extract_features(rng.random((3, 4, 4)))
        t1, t2 = predict_values(f1, params), predict_values(f2, params)
        w1, w2 = predict_weights(f1, params)[0], predict_weights(f2, params)[0]
        np.testing.assert_allclose(t1 * w2, t2 * w1, atol=1e-12)


class TestInitParams:
    def test_fresh_pipeline_is_identity_transform(self, rng):
        params = init_params(n_s=5, m=3, seed=4)
        img = rng.random((3, 12, 12))
        features = extract_features(img)
        lattice = Lattice(
            coordinates_from_logits(predict_logits(features, params)),
            predict_values(features, params),
        )
        assert psnr(transform_image(img, lattice), img) >= 60.0

    def test_same_seed_same_params(self):
        a = init_params(n_s=4, m=3, seed=7)
        b = init_params(n_s=4, m=3, seed=7)
        for name in ("g_weights", "g_bias", "h0_weights", "h0_bias", "basis_luts", "h1_bias"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_different_seed_changes_extra_bases(self):
        a = init_params(n_s=4, m=2, seed=1)
        b = init_params(n_s=4, m=2, seed=2)
        assert np.array_equal(a.basis_luts[0], b.basis_luts[0])
        assert not np.array_equal(a.basis_luts[1], b.basis_luts[1])

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            init_params(n_s=1, m=1)

    @pytest.mark.parametrize("field,value,minimum", [
        ("n_s", 1, 2), ("n_s", -3, 2), ("m", 0, 1), ("m", np.int64(-1), 1),
    ])
    def test_rejects_dims_below_their_minimum_by_name(self, field, value, minimum):
        dims = {"n_s": 3, "m": 2, field: value}
        with pytest.raises(ValueError, match=f"^{field} must be >= {minimum}, got {value}$"):
            init_params(**dims)

    @pytest.mark.parametrize("field", ["n_s", "m"])
    @pytest.mark.parametrize("value", [3.0, 2.5, True])
    def test_rejects_non_integer_dims_by_name(self, field, value):
        dims = {"n_s": 3, "m": 2, field: value}
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got"):
            init_params(**dims)


class TestPredictorParams:
    @pytest.mark.parametrize("dims,message", [
        ({"m": 0}, "^m must be >= 1, got 0$"),
        ({"n_s": 1}, "^n_s must be >= 2, got 1$"),
        ({"n_s": 0}, "^n_s must be >= 2, got 0$"),
        ({"n_s": 3.0}, "^n_s must be an integer, got 3.0$"),
    ])
    def test_hand_built_dims_checked_by_name(self, dims, message):
        arrays = {name: getattr(init_params(n_s=3, m=2), name) for name in PARAM_ARRAYS}
        with pytest.raises(ValueError, match=message):
            PredictorParams(**arrays, **{"n_s": 3, "m": 2, **dims})


class TestEndToEndGradients:
    def test_every_head_matches_finite_differences(self, rng):
        params = init_params(n_s=4, m=2, seed=5)
        # move off the exact-zero init so all paths carry signal
        params.g_weights[:] = rng.normal(0, 0.05, params.g_weights.shape)
        params.h0_weights[:] = rng.normal(0, 0.05, params.h0_weights.shape)
        img = rng.random((3, 4, 4))
        pair = ImagePair(img, img**0.7)
        features = extract_features(pair.image())
        weights = LossWeights()
        (loss, *_), grads = predictor_loss_and_grads(params, pair, features, weights)

        def loss_at(pdict):
            trial = replace(params, **{k: v.copy() for k, v in pdict.items()})
            (value, *_), _ = predictor_loss_and_grads(trial, pair, features, weights)
            return value

        pdict = {name: getattr(params, name) for name in PARAM_ARRAYS}
        h = 1e-6
        for name in grads:
            flat = pdict[name].ravel()
            picks = rng.choice(flat.size, size=min(4, flat.size), replace=False)
            for pos in picks:
                original = flat[pos]
                flat[pos] = original + h
                up = loss_at(pdict)
                flat[pos] = original - h
                down = loss_at(pdict)
                flat[pos] = original
                fd = (up - down) / (2 * h)
                analytic = grads[name].ravel()[pos]
                scale = max(abs(analytic), abs(fd))
                if scale > 1e-7:
                    assert abs(analytic - fd) / scale < 1e-4, (name, pos)
                else:
                    assert abs(analytic - fd) < 1e-9
