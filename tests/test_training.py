import os
import re
import subprocess
import sys
import threading
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from conftest import random_lattice

from nulut import cli, training, transform
from nulut.predictor import PARAM_ARRAYS, PredictorParams, init_params
from nulut.ppm import read_image, read_ppm, write_image
from nulut.lattice import identity_lut, softmax_normalize, uniform_coordinates
from nulut.lutio import save_lattice
from nulut.transform import CHUNK_PIXELS, POOL_THREAD_NAME, mse_vjp, row_blocks, transform_vjp
from nulut.training import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    AdamState,
    ImagePair,
    LossWeights,
    TrainConfig,
    TrainingDivergedError,
    adam_step,
    fit_direct,
    lattice_from_logits,
    monotonicity_loss,
    monotonicity_loss_grad,
    reconstruction_loss,
    reconstruction_loss_grad,
    smoothness_loss,
    smoothness_loss_grad,
    total_loss,
    train_predictor,
    write_history_csv,
    HISTORY_COLUMNS,
)

SRC = Path(__file__).resolve().parents[1] / "src"


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

    def test_rejects_empty_images(self):
        with pytest.raises(ValueError, match=r"image must have shape \(3, h, w\), got \(3, 0, 4\)"):
            reconstruction_loss_grad(np.zeros((3, 0, 4)), np.zeros((3, 0, 4)))


def channel_last(a):
    """A copy of a (3, h, w) array in the (h, w, 3) memory layout."""
    return np.ascontiguousarray(a.transpose(1, 2, 0)).transpose(2, 0, 1)


def cli_pair(rng, tmp_path, shape):
    """Integer samples, their floats and a target, written to P6 files and read
    back as the CLI reads them: channel-last (h, w, 3) memory."""
    paths = tmp_path / "input.ppm", tmp_path / "target.ppm"
    write_image(rng.random((3, *shape)), paths[0])
    write_image(rng.random((3, *shape)), paths[1])
    samples, maxval = read_ppm(paths[0], raw=True)
    assert maxval == 255
    return samples, read_image(paths[0]), read_image(paths[1])


class TestMseVjp:
    """mse_vjp gives the bits of transform_vjp, reconstruction_loss_grad and the backward."""

    @staticmethod
    def composed(img, target, lattice, maxval):
        """The reference: transform_vjp, reconstruction_loss_grad and the backward,
        as (loss, grad_values, grad_coords)."""
        pred, backward = transform_vjp(img, lattice, maxval=maxval)
        loss, g_pred = reconstruction_loss_grad(pred, target)
        del pred
        grads = backward(g_pred)
        return loss, grads.grad_values, grads.grad_coords

    @pytest.mark.parametrize("layouts", ["C/C", "CL/CL", "C/CL", "CL/C", "F/F", "F/CL"])
    @pytest.mark.parametrize("shape,blocks", [((64, 64), 1), ((200, 300), 4)])
    @pytest.mark.parametrize("maxval", [None, 255])
    def test_bits_equal_the_composition(self, rng, tmp_path, layouts, shape, blocks, maxval):
        assert len(row_blocks(*shape)) == blocks
        samples, floats, target = cli_pair(rng, tmp_path, shape)
        img = floats if maxval is None else samples
        assert img.strides[0] < img.strides[2] < img.strides[1]  # channel-last
        # CL is channel-last as read, C and F copies of it in C and Fortran order,
        # in which a block's rows are not one run of memory
        relayout = {"CL": lambda a: a, "C": np.ascontiguousarray, "F": np.asfortranarray}
        img_layout, target_layout = layouts.split("/")
        img, target = relayout[img_layout](img), relayout[target_layout](target)
        lattice = random_lattice(rng, 5)
        loss, grad_values, grad_coords = self.composed(img, target, lattice, maxval)
        for workers in (1, 2, 3):
            got = mse_vjp(img, target, lattice, workers, maxval=maxval)
            assert got[0] == loss, workers
            assert got[1].tobytes() == grad_values.tobytes(), workers
            assert got[2].tobytes() == grad_coords.tobytes(), workers

    @pytest.mark.parametrize("layouts", ["CL/CL", "CL/C"])
    def test_the_loss_sums_in_the_difference_layout(self, tmp_path, layouts):
        """On this pair the two layouts sum the same squares to different bits,
        so the squares' frame must take the layout of the difference: neither
        the input's nor C order serves both cases."""
        rng = np.random.default_rng(1)
        samples, _, target = cli_pair(rng, tmp_path, (200, 300))
        if layouts == "CL/C":
            target = np.ascontiguousarray(target)
        lattice = random_lattice(rng, 5)
        # named, so NumPy cannot subtract in place into a temporary prediction
        pred = transform.transform_image(samples, lattice, maxval=255)
        d = pred - target
        # channel-last when both are, C-ordered when they differ
        assert d.flags.c_contiguous == (layouts == "CL/C")
        other = np.ascontiguousarray(d) if layouts == "CL/CL" else channel_last(d)
        loss = mse_vjp(samples, target, lattice, maxval=255)[0]
        assert loss == float(np.mean(d * d))
        assert loss != float(np.mean(other * other))

    def test_more_workers_than_blocks_under_fast_switching_give_the_same_bits(self, rng):
        img, target = rng.random((3, 640, 64)), rng.random((3, 640, 64))
        assert len(row_blocks(640, 64)) == 10
        lattice = random_lattice(rng, 5)
        expected = mse_vjp(img, target, lattice)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = [mse_vjp(img, target, lattice, 12) for _ in range(5)]
        finally:
            sys.setswitchinterval(interval)
        for loss, grad_values, grad_coords in got:
            assert loss == expected[0]
            assert grad_values.tobytes() == expected[1].tobytes()
            assert grad_coords.tobytes() == expected[2].tobytes()

    def test_rejects_a_target_of_another_shape(self, rng):
        img = rng.random((3, 4, 5))
        with pytest.raises(ValueError, match=r"target shape \(3, 4, 6\) does not match"):
            mse_vjp(img, rng.random((3, 4, 6)), random_lattice(rng, 3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("maxval", [None, 255])
    def test_rejects_a_non_finite_target(self, rng, bad, maxval):
        img = rng.integers(0, 256, size=(3, 4, 5), dtype=np.uint8)
        if maxval is None:
            img = img / 255
        target = rng.random((3, 4, 5))
        target[1, 2, 3] = bad
        with pytest.raises(ValueError, match="target values must be finite"):
            mse_vjp(img, target, random_lattice(rng, 3), maxval=maxval)

    def test_holds_one_frame_where_the_composition_held_three(self, rng, tmp_path):
        """Warm, one call traces one float64 frame, the squares, plus one block's
        blend and the block gradients; the composition held the prediction,
        the difference and its squares at once."""
        size, n = 256, 17
        samples, _, target = cli_pair(rng, tmp_path, (size, size))
        lattice = random_lattice(rng, n)
        frame = 3 * size * size * 8
        blocks = row_blocks(size, size)
        block_pixels = max(r1 - r0 for r0, r1 in blocks) * size
        gradients = (3 * n**3 + 3 * n) * 8

        def peak(call):
            call()  # grows the workspace
            tracemalloc.start()
            try:
                call()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        fused = peak(lambda: mse_vjp(samples, target, lattice, maxval=255))
        composed = peak(lambda: self.composed(samples, target, lattice, 255))
        assert fused <= (
            frame  # the squares
            + 3 * block_pixels * 8  # one block's blend, which becomes its gradients
            + (len(blocks) + 1) * gradients  # per-block gradients, and their sum
            + n**3 * 8  # one bincount output
        )
        assert composed >= 3 * frame


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


class TestRegularizerTableShape:
    """Both regularizers refuse a table that is not (3, n, n, n), n >= 2, by name."""

    BAD_SHAPES = [
        ((3, 2, 3, 4), r"table must be cubic, got \(3, 2, 3, 4\)"),
        ((3, 4, 4, 3), r"table must be cubic, got \(3, 4, 4, 3\)"),
        ((2, 3, 3, 3), r"table must have shape \(3, n, n, n\) with n>=2, got \(2, 3, 3, 3\)"),
        ((3, 1, 1, 1), r"table must have shape \(3, n, n, n\) with n>=2, got \(3, 1, 1, 1\)"),
        ((3, 3, 3), r"table must have shape \(3, n, n, n\) with n>=2, got \(3, 3, 3\)"),
    ]

    @pytest.mark.parametrize("loss_grad", [smoothness_loss_grad, monotonicity_loss_grad])
    @pytest.mark.parametrize("shape,match", BAD_SHAPES, ids=[str(s) for s, _ in BAD_SHAPES])
    def test_rejects_bad_shape_by_name(self, loss_grad, shape, match):
        with pytest.raises(ValueError, match=match):
            loss_grad(np.zeros(shape))

    @pytest.mark.parametrize("shape,match", BAD_SHAPES[:1])
    def test_total_loss_rejects_bad_table(self, rng, shape, match):
        img = rng.random((3, 4, 4))
        with pytest.raises(ValueError, match=match):
            total_loss(img, img, np.zeros(shape), LossWeights())

    def test_non_finite_table_gives_nan_loss_unscanned(self):
        # the values are not scanned; a NaN shows as a NaN loss, which the
        # training step's loss check reports
        table = identity_lut(uniform_coordinates(4))
        table[1, 2, 2, 2] = np.nan
        assert np.isnan(smoothness_loss(table)) and np.isnan(monotonicity_loss(table))


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

    @pytest.mark.parametrize("field", ["lambda_s", "lambda_m"])
    @pytest.mark.parametrize("value", [None, "1", True, False, np.bool_(True), [1.0], 1j])
    def test_rejects_non_number_weights_by_name(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be a real number, got"):
            LossWeights(**{field: value})

    def test_integer_and_numpy_weights_accepted(self):
        LossWeights(lambda_s=0, lambda_m=np.int64(2))
        LossWeights(lambda_s=np.float32(0.5), lambda_m=3)


class TestAdam:
    def test_zero_gradient_keeps_parameters(self):
        params = {"w": np.array([1.0, -2.0])}
        state = AdamState()
        out = adam_step(params, {"w": np.zeros(2)}, state, TrainConfig())
        np.testing.assert_array_equal(out["w"], [1.0, -2.0])

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


def whole_array_adam_step(params, grads, state, config, lr_scales=None):
    """adam_step as one expression per array: the reference the chunked update keeps."""
    updated = dict(params)
    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise TrainingDivergedError(f"non-finite gradient for '{name}'")
        if name not in state.m:
            state.m[name] = np.zeros_like(params[name])
            state.v[name] = np.zeros_like(params[name])
            state.t[name] = 0
        state.t[name] += 1
        t = state.t[name]
        m = state.m[name]
        v = state.v[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * (g * g)
        m_hat = m / (1.0 - ADAM_BETA1**t)
        v_hat = v / (1.0 - ADAM_BETA2**t)
        lr = config.learning_rate
        if lr_scales and name in lr_scales:
            lr *= lr_scales[name]
        updated[name] = params[name] - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return updated


class TestChunkedAdam:
    """adam_step works in CHUNK_PIXELS-element chunks and keeps the whole-array bits."""

    SHAPES = {
        "empty": (0,),
        "one": (1,),
        "below": (CHUNK_PIXELS - 1,),
        "chunk": (CHUNK_PIXELS,),
        "two_and_a_half": (5 * CHUNK_PIXELS // 2,),
        "matrix": (7, CHUNK_PIXELS // 3),
        "table": (3, 17, 17, 17),
    }

    def test_matches_whole_array_reference(self, rng):
        config = TrainConfig(learning_rate=3e-3)
        lr_scales = {"matrix": 0.1}
        params = {name: rng.normal(size=shape) for name, shape in self.SHAPES.items()}
        ref_params, ref_state = {name: p.copy() for name, p in params.items()}, AdamState()
        state = AdamState()
        for step in range(6):
            # "one" is frozen for the first two steps, then joins in
            grads = {name: rng.normal(scale=10.0 ** rng.integers(-6, 3), size=shape)
                     for name, shape in self.SHAPES.items() if name != "one" or step >= 2}
            params = adam_step(params, grads, state, config, lr_scales)
            ref_params = whole_array_adam_step(ref_params, grads, ref_state, config, lr_scales)
            for name in self.SHAPES:
                assert params[name].tobytes() == ref_params[name].tobytes(), (step, name)
                assert params[name].shape == ref_params[name].shape
            for name in ref_state.m:
                assert state.m[name].tobytes() == ref_state.m[name].tobytes(), (step, name)
                assert state.v[name].tobytes() == ref_state.v[name].tobytes(), (step, name)
            assert state.t == ref_state.t
        assert state.t == {**{name: 6 for name in self.SHAPES}, "one": 4}

    def test_empty_parameter_alone(self):
        state = AdamState()
        out = adam_step({"w": np.zeros((0, 3))}, {"w": np.zeros((0, 3))}, state, TrainConfig())
        assert out["w"].shape == state.m["w"].shape == (0, 3)
        assert state.t == {"w": 1}

    def test_updates_params_in_place_and_leaves_grads_unchanged(self, rng):
        params = {"w": rng.normal(size=(2, CHUNK_PIXELS + 5))}
        grads = {"w": rng.normal(size=(2, CHUNK_PIXELS + 5))}
        w, kept = params["w"], grads["w"].tobytes()
        ref = whole_array_adam_step({"w": w.copy()}, grads, AdamState(), TrainConfig())
        out = adam_step(params, grads, AdamState(), TrainConfig())
        assert grads["w"].tobytes() == kept
        assert out is params
        assert params["w"] is w
        assert w.tobytes() == ref["w"].tobytes()

    @pytest.mark.parametrize("kind", ["list", "int", "fortran", "read_only"])
    def test_replaces_a_parameter_it_cannot_write_through(self, rng, kind):
        ints = rng.integers(-9, 10, size=(3, 5))
        floats = rng.normal(size=(3, 5))
        read_only = floats.copy()
        read_only.flags.writeable = False
        given = {"list": floats.tolist(), "int": ints, "fortran": np.asfortranarray(floats),
                 "read_only": read_only}[kind]
        start = np.array(given, dtype=np.float64)
        grads = [{"w": rng.normal(size=(3, 5))} for _ in range(2)]
        ref, ref_state = {"w": start.copy()}, AdamState()
        params, state = {"w": given}, AdamState()
        for step, g in enumerate(grads):
            ref = whole_array_adam_step(ref, g, ref_state, TrainConfig())
            assert adam_step(params, g, state, TrainConfig()) is params
            w = params["w"]
            assert type(w) is np.ndarray and w.dtype == np.float64
            assert w.flags.c_contiguous and w.flags.writeable
            assert w.tobytes() == ref["w"].tobytes()
            if step == 0:
                replaced = w
        # replaced once, then written in place; the caller's array is untouched
        assert w is replaced and w is not given
        assert np.array(given, dtype=np.float64).tobytes() == start.tobytes()

    def test_non_finite_gradient_raises_before_its_moments_move(self, rng):
        size = 2 * CHUNK_PIXELS + 3
        params = {"a": rng.normal(size=size), "b": rng.normal(size=size)}
        state = AdamState()
        bad = rng.normal(size=size)
        bad[-1] = np.inf  # in the last chunk, after earlier chunks would have moved

        def snapshot():
            return ({name: p.tobytes() for name, p in params.items()},
                    {name: (state.m[name].tobytes(), state.v[name].tobytes(), state.t[name])
                     for name in state.t})

        # on fresh moments, then on moved ones; "a" comes before "b" either way
        for _ in range(2):
            kept = snapshot()
            with pytest.raises(TrainingDivergedError, match="non-finite gradient for 'b'"):
                adam_step(params, {"a": rng.normal(size=size), "b": bad}, state, TrainConfig())
            assert snapshot() == kept
            adam_step(params, {"a": rng.normal(size=size), "b": rng.normal(size=size)},
                      state, TrainConfig())
        assert state.t == {"a": 2, "b": 2}

    @pytest.mark.parametrize("grads,lr_scales,match", [
        ({"a": np.ones(3), "b": np.ones(2)}, None, "gradient for 'b' names no parameter"),
        ({"a": np.ones(3), "c": np.ones(4)}, None,
         r"gradient for 'c' of shape \(4,\) does not broadcast to its parameter's shape \(2, 3\)"),
        ({"a": np.ones(3), "c": np.ones((3, 3))}, None, r"shape \(3, 3\) does not broadcast"),
        ({"a": np.ones(3), "c": np.ones((2, 3))}, {"c": np.nan},
         r"lr_scales\['c'\] must be finite and non-negative, got nan"),
        ({"a": np.ones(3), "c": np.ones((2, 3))}, {"c": -1.0},
         r"lr_scales\['c'\] must be finite and non-negative, got -1.0"),
        ({"a": np.ones(3), "c": np.ones((2, 3))}, {"c": True},
         r"lr_scales\['c'\] must be a real number, got True"),
    ], ids=["unknown-name", "no-broadcast", "wider", "nan-scale", "negative-scale", "bool-scale"])
    def test_refusal_moves_no_parameter_or_moment(self, grads, lr_scales, match):
        params = {"a": np.ones(3), "c": np.ones((2, 3))}
        state = AdamState()

        def snapshot():
            return ({name: p.tobytes() for name, p in params.items()},
                    {name: (state.m[name].tobytes(), state.v[name].tobytes(), state.t[name])
                     for name in state.t})

        # on fresh moments, then on moved ones; "a" comes first either way
        for _ in range(2):
            kept = snapshot()
            with pytest.raises(ValueError, match=match):
                adam_step(params, grads, state, TrainConfig(), lr_scales)
            assert snapshot() == kept
            adam_step(params, {"a": np.ones(3), "c": np.ones(3)}, state, TrainConfig(),
                      {"c": 0.0})
        assert state.t == {"a": 2, "c": 2}
        # a zero scale is allowed, as interval_lr_decay allows it: c's moments
        # advance while c stays put
        assert np.array_equal(params["c"], np.ones((2, 3)))

    def test_broadcast_gradient_chunks_by_its_parameter(self, rng, monkeypatch):
        size = 2 * CHUNK_PIXELS + 7
        start = rng.normal(size=size)
        g = rng.normal(size=(1,))
        ref, ref_state = {"a": start.copy()}, AdamState()
        params, state = {"a": start.copy()}, AdamState()
        empty, buffers = np.empty, []

        def recording_empty(shape, *args, **kwargs):
            buffers.append(shape)
            return empty(shape, *args, **kwargs)

        for step in range(1, 4):
            adam_step(ref, {"a": np.broadcast_to(g, (size,)).copy()}, ref_state, TrainConfig())
            with monkeypatch.context() as patch:
                patch.setattr(np, "empty", recording_empty)
                adam_step(params, {"a": g}, state, TrainConfig())
            assert params["a"].tobytes() == ref["a"].tobytes()
            assert state.m["a"].tobytes() == ref_state.m["a"].tobytes()
            assert state.v["a"].tobytes() == ref_state.v["a"].tobytes()
            assert state.t == ref_state.t == {"a": step}
        # the chunk buffers are sized by the parameter, not by the (1,) gradient
        assert sorted(buffers) == sorted([(2, CHUNK_PIXELS), (2, CHUNK_PIXELS), (2, 7)] * 3)

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_bytes_do_not_depend_on_cpus(self, rng, monkeypatch, cpus):
        size = 2 * CHUNK_PIXELS + 7
        start = {"multi": rng.normal(size=size), "bcast": rng.normal(size=(5, 9)),
                 "scaled": rng.normal(size=(3, 4)), "frozen": rng.normal(size=6)}
        steps = [{"multi": rng.normal(size=size), "bcast": rng.normal(size=(1,)),
                  "scaled": rng.normal(size=(3, 4))} for _ in range(3)]
        lr_scales = {"scaled": 0.1, "frozen": 0.5}

        def run():
            params, state = {name: p.copy() for name, p in start.items()}, AdamState()
            for grads in steps:
                adam_step(params, grads, state, TrainConfig(learning_rate=3e-3), lr_scales)
            return ({name: p.tobytes() for name, p in params.items()},
                    {name: (state.m[name].tobytes(), state.v[name].tobytes(), state.t[name])
                     for name in state.t})

        monkeypatch.setattr(transform, "usable_cpus", lambda: 1)
        serial = run()
        monkeypatch.setattr(transform, "usable_cpus", lambda: cpus)
        assert run() == serial
        # the parameter absent from every step's grads is untouched, with no moments
        assert serial[0]["frozen"] == start["frozen"].tobytes()
        assert set(serial[1]) == {"multi", "bcast", "scaled"}

    def test_refusal_at_two_cpus_moves_nothing(self, rng, monkeypatch):
        monkeypatch.setattr(transform, "usable_cpus", lambda: 2)
        size = 2 * CHUNK_PIXELS + 7
        params = {"a": rng.normal(size=size), "b": rng.normal(size=size)}
        state = AdamState()
        adam_step(params, {"a": rng.normal(size=size), "b": rng.normal(size=size)},
                  state, TrainConfig())
        kept = ({name: p.tobytes() for name, p in params.items()},
                {name: (state.m[name].tobytes(), state.v[name].tobytes(), state.t[name])
                 for name in state.t})
        bad = rng.normal(size=size)
        bad[-1] = np.nan  # in the last chunk, after the other chunk jobs would have moved
        with pytest.raises(TrainingDivergedError, match="non-finite gradient for 'b'"):
            adam_step(params, {"a": rng.normal(size=size), "b": bad}, state, TrainConfig())
        assert ({name: p.tobytes() for name, p in params.items()},
                {name: (state.m[name].tobytes(), state.v[name].tobytes(), state.t[name])
                 for name in state.t}) == kept


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
        rows = [row.tobytes() for row in lattice.coords]
        assert rows[0] == rows[1] == rows[2]
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


class TestLatticeFromLogits:
    """The one builder of a lattice from interval logits on the training path."""

    @pytest.mark.parametrize("scale", [1.0, 40.0])  # 40 floors intervals at MIN_INTERVAL
    def test_shared_row_builds_the_bytes_of_its_three_row_tiling(self, rng, scale):
        row = rng.normal(0.0, scale, size=(1, 6))
        values = identity_lut(uniform_coordinates(7)) + rng.normal(0.0, 0.01, (3, 7, 7, 7))
        shared, q_shared = lattice_from_logits(row, values)
        full, q_full = lattice_from_logits(np.tile(row, (3, 1)), values)
        assert shared.coords.tobytes() == full.coords.tobytes()
        assert shared.values.tobytes() == full.values.tobytes() == values.tobytes()
        assert q_shared.tobytes() == q_full.tobytes()
        assert q_full.tobytes() == softmax_normalize(np.tile(row, (3, 1))).tobytes()

    @pytest.mark.parametrize("shape", [(2, 4), (4,), (1,), (3, 1, 4)])
    def test_other_shapes_raise_naming_the_shape(self, shape):
        with pytest.raises(ValueError, match=re.escape(str(shape))):
            lattice_from_logits(np.zeros(shape), identity_lut(uniform_coordinates(5)))


class TestTracedStepFunctions:
    """Each step calls the lattice builders and the knot-logit VJP through
    nulut.training's module attributes, where perfbench's tracer rebinds
    them, so its lattice.* and predictor.heads layers keep reading."""

    BUILD = ["softmax_normalize", "intervals_to_coordinates"]

    @staticmethod
    def spy(monkeypatch, names):
        calls = []

        def spied(name, function):
            def call(*args, **kwargs):
                calls.append(name)
                return function(*args, **kwargs)
            return call

        for name in names:
            monkeypatch.setattr(training, name, spied(name, getattr(training, name)))
        return calls

    @pytest.mark.parametrize("shared", [False, True])
    def test_fit_direct_builds_and_differentiates_every_step(self, rng, monkeypatch, shared):
        calls = self.spy(monkeypatch, [*self.BUILD, "coordinate_logit_vjp"])
        img = rng.random((3, 8, 8))
        config = TrainConfig(learning_rate=1e-2, epochs=4, freeze_interval_epochs=1)
        fit_direct([ImagePair(img, img**0.6)], 4, config, shared=shared)
        # four steps, then the result's lattice
        assert calls == [*self.BUILD, "coordinate_logit_vjp"] * 4 + self.BUILD

    @pytest.mark.parametrize("shared,batch_size", [(False, 1), (True, 1), (False, 2)])
    def test_train_predictor_forwards_builds_and_differentiates_every_step(
            self, rng, monkeypatch, shared, batch_size):
        calls = self.spy(monkeypatch,
                         ["predictor_forward", *self.BUILD, "coordinate_logit_vjp"])
        pairs = [ImagePair(img, img**0.6) for img in rng.random((2, 3, 8, 8))]
        config = TrainConfig(learning_rate=1e-2, epochs=2, freeze_interval_epochs=1)
        train_predictor(pairs, 4, 2, config, shared=shared, batch_size=batch_size)
        # two epochs of two pairs, each one forward, build and VJP
        assert calls == ["predictor_forward", *self.BUILD, "coordinate_logit_vjp"] * 4

    def test_cli_apply_predicts_through_predictor_forward(self, rng, monkeypatch, tmp_path):
        calls = self.spy(monkeypatch, ["predictor_forward", *self.BUILD])
        lut, src, out = tmp_path / "look.nulut", tmp_path / "in.ppm", tmp_path / "out.ppm"
        params = init_params(4, 2, seed=1)
        params.g_weights[:] = rng.normal(size=params.g_weights.shape)
        save_lattice(random_lattice(rng, 4), lut, predictor=params)
        write_image(rng.random((3, 6, 5)), src)
        assert cli.cli_main(["apply", "--lut", str(lut), "--input", str(src),
                             "--output", str(out)]) == 0
        assert calls == ["predictor_forward", *self.BUILD]


class TestTrainConfigValidation:
    def test_defaults_accepted(self):
        TrainConfig()

    def test_negative_freeze_rejected(self):
        with pytest.raises(ValueError, match="freeze_interval_epochs must lie in"):
            TrainConfig(epochs=3, freeze_interval_epochs=-1)

    @pytest.mark.parametrize("lr", [0.0, -1e-3, float("nan"), float("inf")])
    def test_bad_learning_rate_rejected(self, lr):
        with pytest.raises(ValueError, match="learning_rate must be finite and positive"):
            TrainConfig(learning_rate=lr)

    @pytest.mark.parametrize("decay", [-1.0, float("nan"), float("inf")])
    def test_bad_interval_lr_decay_rejected(self, decay):
        with pytest.raises(ValueError, match="interval_lr_decay must be finite and non-negative"):
            TrainConfig(interval_lr_decay=decay)

    @pytest.mark.parametrize("field", ["learning_rate", "interval_lr_decay"])
    @pytest.mark.parametrize("value", [None, "0.1", True, False, np.bool_(True), [0.1], 1j])
    def test_non_number_rate_rejected_by_name(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be a real number, got"):
            TrainConfig(**{field: value})

    def test_integer_and_numpy_rates_accepted(self):
        TrainConfig(learning_rate=1, interval_lr_decay=0)
        TrainConfig(learning_rate=np.float32(0.5), interval_lr_decay=np.int64(1))

    def test_zero_interval_lr_decay_accepted(self):
        TrainConfig(interval_lr_decay=0.0)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            TrainConfig(seed=-1)

    @pytest.mark.parametrize("field", ["epochs", "freeze_interval_epochs", "seed"])
    @pytest.mark.parametrize("value", [3.0, 1.5, True, "3", None])
    def test_non_integer_count_rejected_by_name(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got"):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("value", [2.0, 1.5, True, "2", None])
    def test_non_integer_batch_size_rejected(self, rng, value):
        img = rng.random((3, 4, 4))
        config = TrainConfig(epochs=1, freeze_interval_epochs=0)
        with pytest.raises(ValueError, match="^batch_size must be an integer, got"):
            train_predictor([ImagePair(img, img)], 3, 1, config, batch_size=value)

    @pytest.mark.parametrize("value", [0, -1])
    def test_batch_size_below_one_rejected_by_value(self, rng, value):
        img = rng.random((3, 4, 4))
        config = TrainConfig(epochs=1, freeze_interval_epochs=0)
        with pytest.raises(ValueError, match=f"^batch_size must be >= 1, got {value}$"):
            train_predictor([ImagePair(img, img)], 3, 1, config, batch_size=value)

    @pytest.mark.parametrize("fit,sizes", [(fit_direct, (3.0,)), (train_predictor, (3.0, 1))],
                             ids=["fit_direct", "train_predictor"])
    def test_non_integer_lattice_size_rejected_by_name(self, rng, fit, sizes):
        img = rng.random((3, 4, 4))
        config = TrainConfig(epochs=1, freeze_interval_epochs=0)
        with pytest.raises(ValueError, match="^n_s must be an integer, got 3.0"):
            fit([ImagePair(img, img)], *sizes, config)

    def test_numpy_integers_accepted(self, rng):
        img = rng.random((3, 4, 4))
        pairs = [ImagePair(img, img**0.5)] * 2
        config = TrainConfig(learning_rate=1e-2, epochs=np.int64(2),
                             freeze_interval_epochs=np.int32(1), seed=np.uint8(3))
        expected = TrainConfig(learning_rate=1e-2, epochs=2, freeze_interval_epochs=1, seed=3)
        params, history = train_predictor(pairs, 3, 2, config, batch_size=np.int64(2))
        ref_params, ref_history = train_predictor(pairs, 3, 2, expected, batch_size=2)
        assert history.tobytes() == ref_history.tobytes()
        for name in PARAM_ARRAYS:
            assert getattr(params, name).tobytes() == getattr(ref_params, name).tobytes()


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
        assert pair.maxval is None
        assert [f.name for f in fields(ImagePair)] == ["input", "target", "maxval"]

    def test_float_image_is_the_input(self):
        pair = ImagePair(np.full((3, 2, 2), 0.5), np.zeros((3, 2, 2)))
        assert pair.image() is pair.input

    @pytest.mark.parametrize("maxval,dtype", [(255, np.uint8), (1023, np.uint16),
                                              (65535, np.uint16)])
    def test_quantized_input_keeps_samples_and_read_image_floats(self, tmp_path, maxval, dtype):
        rng = np.random.default_rng(5)
        path = tmp_path / "in.ppm"
        write_image(rng.random((3, 4, 5)), path, maxval=maxval)
        samples, _ = read_ppm(path, raw=True)
        pair = ImagePair(samples, np.zeros((3, 4, 5)), maxval=maxval)
        assert pair.input is samples and pair.input.dtype == dtype
        assert pair.maxval == maxval
        image, floats = pair.image(), read_image(path)
        assert image.dtype == np.float64
        # features sum in memory order, so the layout matters as much as the values
        assert image.tobytes() == floats.tobytes() and image.strides == floats.strides

    def test_replace_keeps_quantized_input(self):
        samples = np.arange(12, dtype=np.uint8).reshape(3, 2, 2)
        pair = replace(ImagePair(samples, np.zeros((3, 2, 2)), maxval=255),
                       target=np.ones((3, 2, 2)))
        assert pair.input is samples and pair.maxval == 255
        assert np.array_equal(pair.target, np.ones((3, 2, 2)))

    @pytest.mark.parametrize("samples,maxval,message", [
        (np.full((3, 2, 2), 256, dtype=np.uint16), 255, r"\[0, 255\]"),
        (np.full((3, 2, 2), -1, dtype=np.int32), 255, r"\[0, 255\]"),
        (np.zeros((3, 2, 2)), 255, "integers"),
        (np.zeros((3, 2, 2), dtype=np.uint8), 0, "unsupported maxval 0"),
    ])
    def test_quantized_input_checked(self, samples, maxval, message):
        with pytest.raises(ValueError, match=message):
            ImagePair(samples, np.zeros((3, 2, 2)), maxval=maxval)


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

    def test_a_run_checks_its_parameters_once(self, rng, monkeypatch):
        checks = []
        check = PredictorParams.__post_init__

        def counted(params):
            checks.append(params)
            check(params)

        monkeypatch.setattr(PredictorParams, "__post_init__", counted)
        pairs = [ImagePair(img, img**0.5) for img in rng.random((2, 3, 8, 8))]
        config = TrainConfig(learning_rate=1e-2, epochs=3, freeze_interval_epochs=1)
        params, history = train_predictor(pairs, 3, 2, config)
        assert len(history) == 6
        assert len(checks) == 1 and checks[0] is params

    def test_determinism(self, rng):
        from nulut.training import train_predictor

        img = rng.random((3, 8, 8))
        pair = ImagePair(img, img**0.5)
        config = TrainConfig(learning_rate=1e-2, epochs=20, freeze_interval_epochs=2)
        _, h1 = train_predictor([pair], 3, 2, config)
        _, h2 = train_predictor([pair], 3, 2, config)
        assert np.array_equal(h1, h2)


class TestStepJobs:
    """A step is one job list on map_blocks; no result depends on the CPU count."""

    @staticmethod
    def float_pairs(rng, count):
        # 64 x 64 pixels are one row block, so the transform runs on the caller alone
        assert len(transform.row_blocks(64, 64)) == 1
        images = [rng.random((3, 64, 64)) for _ in range(count)]
        return [ImagePair(img, img**0.6) for img in images]

    @pytest.mark.parametrize("batch_size", [1, 2])
    def test_train_predictor_bytes_do_not_depend_on_cpus(self, rng, monkeypatch, batch_size):
        pairs = self.float_pairs(rng, 3)
        config = TrainConfig(learning_rate=1e-2, epochs=3, freeze_interval_epochs=1)
        runs = []
        for cpus in (1, 2, 3):
            monkeypatch.setattr(transform, "usable_cpus", lambda: cpus)
            params, history = train_predictor(pairs, 9, 2, config, batch_size=batch_size)
            runs.append([history.tobytes()]
                        + [getattr(params, name).tobytes() for name in PARAM_ARRAYS])
        assert runs[0] == runs[1] == runs[2]

    @pytest.mark.parametrize("height", [40, 100])
    def test_fit_direct_bytes_do_not_depend_on_cpus(self, rng, monkeypatch, height):
        # 300 columns make 64-row blocks: one block at 40 rows, two at 100
        samples = rng.integers(0, 256, size=(3, height, 300), dtype=np.uint8)
        pair = ImagePair(samples, (samples / 255.0) ** 0.6, maxval=255)
        config = TrainConfig(learning_rate=1e-2, epochs=6, freeze_interval_epochs=2)
        runs = []
        for cpus in (1, 2, 3):
            monkeypatch.setattr(transform, "usable_cpus", lambda: cpus)
            lattice, history = fit_direct([pair], 9, config)
            runs.append((lattice.coords.tobytes(), lattice.values.tobytes(), history.tobytes()))
        assert runs[0] == runs[1] == runs[2]

    @pytest.mark.parametrize("shape,blocks", [((64, 64), 1), ((100, 300), 2)])
    def test_step_hands_map_blocks_three_jobs_pixel_side_first(self, rng, monkeypatch, shape,
                                                               blocks):
        calls, seen = [], []  # (item count, workers) per call; (function, call, item, thread)
        current = threading.local()
        map_blocks = transform.map_blocks

        def spied_map_blocks(run, items, workers):
            call = len(calls)
            calls.append((len(items), workers))

            def tagged(i):
                outer = getattr(current, "job", None)
                current.job = (call, i)
                try:
                    return run(items[i])
                finally:
                    current.job = outer
            return map_blocks(tagged, list(range(len(items))), workers)

        def spy(function):
            def spied(*args, **kwargs):
                seen.append((function.__name__, *getattr(current, "job", (None, None)),
                             threading.get_ident()))
                return function(*args, **kwargs)
            monkeypatch.setattr(training, function.__name__, spied)

        img = rng.random((3, *shape))
        assert len(transform.row_blocks(*shape)) == blocks
        monkeypatch.setattr(transform, "usable_cpus", lambda: 2)
        monkeypatch.setattr(transform, "map_blocks", spied_map_blocks)
        for function in (mse_vjp, smoothness_loss_grad, monotonicity_loss_grad):
            spy(function)
        config = TrainConfig(learning_rate=1e-2, epochs=2, freeze_interval_epochs=0)
        fit_direct([ImagePair(img, img**0.6)], 5, config)
        jobs = {"mse_vjp": 0, "smoothness_loss_grad": 1, "monotonicity_loss_grad": 2}
        assert sorted(name for name, *_ in seen) == sorted(list(jobs) * 2)
        for name, call, item, thread in seen:
            # each step function runs in its own job of a three-job list on 2 workers
            assert calls[call] == (3, 2) and item == jobs[name], name
            if name == "mse_vjp":
                assert thread == threading.get_ident()
        assert calls.count((3, 2)) == 2

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_regularizer_error_reaches_the_caller(self, rng, monkeypatch, cpus):
        def broken(table):
            raise ArithmeticError("regularizer failed")

        monkeypatch.setattr(transform, "usable_cpus", lambda: cpus)
        monkeypatch.setattr(training, "smoothness_loss_grad", broken)
        before = set(threading.enumerate())
        config = TrainConfig(learning_rate=1e-2, epochs=2, freeze_interval_epochs=0)
        with pytest.raises(ArithmeticError, match="^regularizer failed$"):
            train_predictor(self.float_pairs(rng, 1), 5, 2, config)
        after_first = set(threading.enumerate())
        # the block pool persists across calls, but a failing call leaks no thread
        assert all(t.name.startswith(POOL_THREAD_NAME) for t in after_first - before)
        with pytest.raises(ArithmeticError, match="^regularizer failed$"):
            train_predictor(self.float_pairs(rng, 1), 5, 2, config)
        assert set(threading.enumerate()) <= after_first

    def test_process_exits_with_the_block_pool_idle(self):
        code = (
            "import numpy as np\n"
            "from nulut import transform\n"
            "from nulut.training import ImagePair, TrainConfig, fit_direct\n"
            "transform.usable_cpus = lambda: 2\n"
            "samples = np.random.default_rng(0).integers(0, 256, (3, 100, 300), dtype=np.uint8)\n"
            "assert len(transform.row_blocks(100, 300)) == 2\n"
            "pair = ImagePair(samples, (samples / 255.0) ** 0.6, maxval=255)\n"
            "fit_direct([pair], 5, TrainConfig(learning_rate=1e-2, epochs=2, freeze_interval_epochs=1))\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", code], env=env, timeout=60,
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr


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
