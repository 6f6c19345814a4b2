"""Analytic backward pass checked against central finite differences."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import queries_off_knots, random_lattice

from nulut.lattice import (
    Lattice,
    coordinate_logit_vjp,
    identity_lut,
    intervals_to_coordinates,
    softmax_normalize,
)
from nulut.training import (
    ImagePair,
    LossWeights,
    _lattice_loss_and_grads,
    monotonicity_loss_grad,
    reconstruction_loss_grad,
    smoothness_loss_grad,
)
from nulut.transform import (
    _transform_block,
    backward_pixel,
    transform_image,
    transform_vjp,
    transform_with_grads,
)

FD_STEP = 1e-6


def directional(grad_out, coords, values, x):
    """Scalar objective grad_out . transform(x) on raw lattice arrays."""
    out = _transform_block(np.asarray(x, dtype=float).reshape(3, 1), coords, values)
    return float(grad_out @ out[:, 0])


def relative_error(analytic, fd):
    scale = max(abs(analytic), abs(fd))
    if scale <= 1e-6:
        assert abs(analytic - fd) <= 1e-9
        return 0.0
    return abs(analytic - fd) / scale


class TestBackwardPixel:
    def test_identity_lattice_input_gradient_is_one(self, rng):
        lattice = random_lattice(rng, 5)
        lattice = Lattice(lattice.coords, identity_lut(lattice.coords))
        x = queries_off_knots(rng, lattice.coords, 1)[0]
        for c in range(3):
            grad_out = np.zeros(3)
            grad_out[c] = 1.0
            grads = backward_pixel(x, lattice, grad_out)
            assert abs(grads.grad_input[c] - 1.0) <= 1e-12
            cross = np.delete(grads.grad_input, c)
            assert np.abs(cross).max() <= 1e-12

    def test_query_at_vertex_concentrates_value_gradient(self, rng):
        lattice = random_lattice(rng, 4)
        e = (1, 2, 1)
        x = np.array([lattice.coords[c][e[c]] for c in range(3)])
        grad_out = np.array([0.7, -0.3, 1.1])
        grads = backward_pixel(x, lattice, grad_out)
        for c in range(3):
            assert grads.grad_values[c][e] == grad_out[c]
            others = grads.grad_values[c].copy()
            others[e] = 0.0
            assert np.all(others == 0.0)

    @pytest.mark.parametrize("n_s", [2, 4, 8])
    def test_matches_finite_differences(self, rng, n_s):
        for _ in range(25):
            lattice = random_lattice(rng, n_s)
            coords, values = lattice.coords, lattice.values
            x = queries_off_knots(rng, coords, 1)[0]
            grad_out = rng.normal(0.0, 1.0, size=3)
            grads = backward_pixel(x, lattice, grad_out)
            worst = 0.0
            for c in range(3):
                plus, minus = x.copy(), x.copy()
                plus[c] += FD_STEP
                minus[c] -= FD_STEP
                fd = (
                    directional(grad_out, coords, values, plus)
                    - directional(grad_out, coords, values, minus)
                ) / (2 * FD_STEP)
                worst = max(worst, relative_error(grads.grad_input[c], fd))
            for c in range(3):
                for s in range(n_s):
                    plus, minus = coords.copy(), coords.copy()
                    plus[c, s] += FD_STEP
                    minus[c, s] -= FD_STEP
                    fd = (
                        directional(grad_out, plus, values, x)
                        - directional(grad_out, minus, values, x)
                    ) / (2 * FD_STEP)
                    worst = max(worst, relative_error(grads.grad_coords[c, s], fd))
            active = np.argwhere(grads.grad_values != 0.0)
            pick = active[rng.choice(len(active), size=min(4, len(active)), replace=False)]
            for c, i, j, k in pick:
                plus, minus = values.copy(), values.copy()
                plus[c, i, j, k] += FD_STEP
                minus[c, i, j, k] -= FD_STEP
                fd = (
                    directional(grad_out, coords, plus, x)
                    - directional(grad_out, coords, minus, x)
                ) / (2 * FD_STEP)
                worst = max(worst, relative_error(grads.grad_values[c, i, j, k], fd))
            assert worst <= 1e-4


class TestTransformWithGrads:
    def test_single_pixel_equals_backward_pixel(self, rng):
        lattice = random_lattice(rng, 5)
        x = rng.random(3)
        grad_out = rng.normal(size=3)
        single = backward_pixel(x, lattice, grad_out)
        out, batched = transform_with_grads(
            x.reshape(3, 1, 1), grad_out.reshape(3, 1, 1), lattice
        )
        assert np.array_equal(out[:, 0, 0], _transform_block(
            x.reshape(3, 1), lattice.coords, lattice.values)[:, 0])
        assert np.array_equal(single.grad_values, batched.grad_values)
        assert np.array_equal(single.grad_coords, batched.grad_coords)
        assert np.array_equal(single.grad_input, batched.grad_input[:, 0, 0])

    def test_duplicated_image_doubles_gradients_exactly(self, rng):
        # one block tall, so the duplicate occupies exactly two blocks
        lattice = random_lattice(rng, 4)
        img = rng.random((3, 64, 5))
        grad_out = rng.normal(size=img.shape)
        _, grads = transform_with_grads(img, grad_out, lattice)
        doubled_img = np.concatenate([img, img], axis=1)
        doubled_grad = np.concatenate([grad_out, grad_out], axis=1)
        _, grads2 = transform_with_grads(doubled_img, doubled_grad, lattice)
        assert np.array_equal(grads2.grad_values, 2.0 * grads.grad_values)
        assert np.array_equal(grads2.grad_coords, 2.0 * grads.grad_coords)

    def test_scaling_grad_output_scales_gradients_exactly(self, rng):
        lattice = random_lattice(rng, 4)
        img = rng.random((3, 30, 9))
        grad_out = rng.normal(size=img.shape)
        _, grads = transform_with_grads(img, grad_out, lattice)
        _, scaled = transform_with_grads(img, 2.0 * grad_out, lattice)
        assert np.array_equal(scaled.grad_values, 2.0 * grads.grad_values)
        assert np.array_equal(scaled.grad_coords, 2.0 * grads.grad_coords)
        assert np.array_equal(scaled.grad_input, 2.0 * grads.grad_input)

    def test_workers_do_not_change_gradient_bits(self, rng):
        lattice = random_lattice(rng, 6)
        img = rng.random((3, 300, 4))
        grad_out = rng.normal(size=img.shape)
        out1, grads1 = transform_with_grads(img, grad_out, lattice, workers=1)
        out4, grads4 = transform_with_grads(img, grad_out, lattice, workers=4)
        assert np.array_equal(out1, out4)
        assert np.array_equal(grads1.grad_values, grads4.grad_values)
        assert np.array_equal(grads1.grad_coords, grads4.grad_coords)
        assert np.array_equal(grads1.grad_input, grads4.grad_input)

    def test_accumulation_matches_per_pixel_sum(self, rng):
        lattice = random_lattice(rng, 4)
        img = rng.random((3, 6, 7))
        grad_out = rng.normal(size=img.shape)
        _, grads = transform_with_grads(img, grad_out, lattice)
        ref_values = np.zeros_like(lattice.values)
        ref_coords = np.zeros_like(lattice.coords)
        for r in range(img.shape[1]):
            for c in range(img.shape[2]):
                g = backward_pixel(img[:, r, c], lattice, grad_out[:, r, c])
                ref_values += g.grad_values
                ref_coords += g.grad_coords
        np.testing.assert_allclose(grads.grad_values, ref_values, rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(grads.grad_coords, ref_coords, rtol=1e-12, atol=1e-14)

    def test_rejects_shape_mismatch(self, rng):
        lattice = random_lattice(rng, 3)
        with pytest.raises(ValueError):
            transform_with_grads(rng.random((3, 4, 4)), rng.random((3, 4, 5)), lattice)

    def test_forward_output_matches_transform_image(self, rng):
        lattice = random_lattice(rng, 5)
        img = rng.random((3, 20, 6))
        out, _ = transform_with_grads(img, np.zeros_like(img), lattice)
        assert np.array_equal(out, transform_image(img, lattice))

    def test_backward_reruns_and_checks_grad_output(self, rng):
        lattice = random_lattice(rng, 4)
        img = rng.random((3, 70, 3))
        grad_out = rng.normal(size=img.shape)
        out, backward = transform_vjp(img, lattice)
        first, second = backward(grad_out), backward(grad_out)
        assert np.array_equal(out, transform_image(img, lattice))
        assert np.array_equal(first.grad_values, second.grad_values)
        assert np.array_equal(first.grad_coords, second.grad_coords)
        assert np.array_equal(first.grad_input, second.grad_input)
        with pytest.raises(ValueError, match="does not match image"):
            backward(grad_out[:, :-1])
        bad = grad_out.copy()
        bad[0, 5, 1] = np.nan
        with pytest.raises(ValueError, match="grad_output must be finite"):
            backward(bad)


# images from 1 to 130 rows cross the CHUNK_ROWS = 64 block edge
PROPERTY_SETTINGS = settings(max_examples=40, derandomize=True, deadline=None)
CASES = st.tuples(
    st.integers(2, 9),  # n
    st.integers(1, 130),  # h
    st.integers(1, 8),  # w
    st.integers(0, 2**32 - 1),  # seed for the arrays
)
# wider than CHUNK_PIXELS // CHUNK_ROWS, so row_blocks cuts blocks to 54 rows
WIDE_CASE = (5, 70, 600, 11)


def drawn_case(n, h, w, seed):
    """Softmax intervals q, their lattice, and an image with some entries
    at 0, at 1 and exactly on the knots of their own channel."""
    rng = np.random.default_rng(seed)
    q = softmax_normalize(rng.uniform(-2.0, 2.0, size=(3, n - 1)))
    coords = intervals_to_coordinates(q)
    values = identity_lut(coords) + rng.normal(0.0, 0.2, size=(3, n, n, n))
    img = rng.random((3, h, w))
    kind = rng.integers(0, 4, size=img.shape)
    img[kind == 1] = 0.0
    img[kind == 2] = 1.0
    knots = np.take_along_axis(
        coords, rng.integers(0, n, size=(3, h * w)), axis=1
    ).reshape(img.shape)
    img[kind == 3] = knots[kind == 3]
    return q, Lattice(coords, values), img


def separate_passes(lattice, q, pair, weights):
    """The training step as separate forward and forward-plus-backward passes."""
    l_r, g_pred = reconstruction_loss_grad(transform_image(pair.input, lattice), pair.target)
    l_s, g_s = smoothness_loss_grad(lattice.values)
    l_m, g_m = monotonicity_loss_grad(lattice.values)
    loss = l_r + weights.lambda_s * l_s + weights.lambda_m * l_m
    _, lat_grads = transform_with_grads(pair.input, g_pred, lattice)
    g_table = lat_grads.grad_values + weights.lambda_s * g_s + weights.lambda_m * g_m
    g_logits = coordinate_logit_vjp(q, lat_grads.grad_coords)
    return (loss, l_r, l_s, l_m), g_table, g_logits


class TestLocatedOnceProperties:
    @PROPERTY_SETTINGS
    @given(CASES)
    @example(WIDE_CASE)
    def test_training_core_matches_separate_passes(self, case):
        q, lattice, img = drawn_case(*case)
        pair = ImagePair(img, np.sqrt(img))
        weights = LossWeights(lambda_s=0.01, lambda_m=1.0)
        parts, g_table, g_logits = _lattice_loss_and_grads(lattice, q, pair, weights)
        ref_parts, ref_table, ref_logits = separate_passes(lattice, q, pair, weights)
        assert parts == ref_parts
        assert g_table.tobytes() == ref_table.tobytes()
        assert g_logits.tobytes() == ref_logits.tobytes()

    @PROPERTY_SETTINGS
    @given(CASES)
    @example(WIDE_CASE)
    def test_workers_give_the_same_bytes(self, case):
        _, lattice, img = drawn_case(*case)
        grad_out = np.random.default_rng(case[3]).normal(size=img.shape)
        out1, grads1 = transform_with_grads(img, grad_out, lattice, workers=1)
        out2, grads2 = transform_with_grads(img, grad_out, lattice, workers=2)
        assert out1.tobytes() == transform_image(img, lattice).tobytes()
        assert out2.tobytes() == out1.tobytes()
        for name in ("grad_values", "grad_coords", "grad_input"):
            assert getattr(grads2, name).tobytes() == getattr(grads1, name).tobytes()
