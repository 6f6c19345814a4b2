import math

import numpy as np
import pytest

from nulut.lattice import (
    Lattice,
    MIN_INTERVAL,
    check_finite,
    check_integer,
    check_table_shape,
    coordinate_logit_vjp,
    coordinates_from_logits,
    identity_lut,
    intervals_to_coordinates,
    shared_to_full,
    softmax_normalize,
    uniform_coordinates,
    validate_coordinates,
    validate_table,
)


class TestCheckInteger:
    @pytest.mark.parametrize("value", [2, 7, np.int64(2), np.uint8(3)])
    def test_at_or_above_the_minimum_accepted(self, value):
        check_integer("k", value, minimum=2)

    @pytest.mark.parametrize("value", [1, -4, np.int64(0)])
    def test_below_the_minimum_rejected_with_value(self, value):
        with pytest.raises(ValueError, match=f"^k must be >= 2, got {value}$"):
            check_integer("k", value, minimum=2)

    @pytest.mark.parametrize("value", [1.0, True, "1", None])
    def test_non_integer_reported_before_the_minimum(self, value):
        with pytest.raises(ValueError, match=f"^k must be an integer, got {value!r}$"):
            check_integer("k", value, minimum=2)


class TestCheckFinite:
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected_by_name(self, value):
        a = np.zeros((2, 3))
        a[1, 2] = value
        with pytest.raises(ValueError, match="^grad_output must be finite$"):
            check_finite("grad_output", a)

    @pytest.mark.parametrize("a", [np.zeros((3, 2, 2)), [0.5, -1e308], 3.0, np.empty(0)])
    def test_finite_accepted(self, a):
        check_finite("a", a)


class TestCheckTableShape:
    @pytest.mark.parametrize("shape", [(3, 2, 2, 2), (3, 5, 5, 5)])
    def test_cubic_tables_accepted(self, shape):
        check_table_shape(np.zeros(shape))

    @pytest.mark.parametrize("shape,match", [
        ((3, 2, 3, 4), "table must be cubic"),
        ((4, 3, 3, 3), r"table must have shape \(3, n, n, n\)"),
        ((3, 1, 1, 1), r"table must have shape \(3, n, n, n\)"),
    ])
    def test_validate_table_shares_its_messages(self, shape, match):
        for check in (check_table_shape, validate_table):
            with pytest.raises(ValueError, match=match):
                check(np.zeros(shape))


class TestSoftmaxNormalize:
    def test_all_ones_give_equal_intervals(self):
        for k in (1, 3, 32):
            q = softmax_normalize(np.ones((3, k)))
            np.testing.assert_allclose(q, np.full((3, k), 1.0 / k), rtol=0, atol=1e-15)

    def test_two_logit_example(self):
        # exp(0) = 1 and exp(ln 3) = 3, so the intervals split 1:3
        q = softmax_normalize(np.array([[0.0, math.log(3.0)]] * 3))
        np.testing.assert_allclose(q, [[0.25, 0.75]] * 3, rtol=0, atol=1e-15)

    def test_shift_invariance(self, rng):
        logits = rng.normal(0.0, 2.0, size=(3, 7))
        shifted = logits + 13.75
        np.testing.assert_allclose(
            softmax_normalize(logits), softmax_normalize(shifted), rtol=1e-14, atol=0
        )

    def test_shift_invariance_bit_exact_when_addition_is(self, rng):
        # small integers plus a power of two add without rounding
        logits = rng.integers(-4, 5, size=(3, 7)).astype(float)
        shifted = logits + 16.0
        assert np.array_equal(softmax_normalize(logits), softmax_normalize(shifted))

    def test_rows_sum_to_one(self, rng):
        q = softmax_normalize(rng.normal(0.0, 3.0, size=(3, 9)))
        np.testing.assert_allclose(q.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(q > 0.0)

    def test_floor_keeps_intervals_positive(self):
        logits = np.zeros((3, 4))
        logits[:, 0] = -60.0  # would underflow to ~1e-27 without the floor
        q = softmax_normalize(logits)
        assert np.all(q >= MIN_INTERVAL / 2)
        np.testing.assert_allclose(q.sum(axis=1), 1.0, atol=1e-9)

    def test_rejects_non_finite(self):
        bad = np.ones((3, 4))
        bad[1, 2] = np.nan
        with pytest.raises(ValueError):
            softmax_normalize(bad)

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            softmax_normalize(np.ones((2, 4)))


class TestIntervalsToCoordinates:
    def test_quarters(self):
        coords = intervals_to_coordinates(np.full((3, 4), 0.25))
        np.testing.assert_allclose(coords, [[0.0, 0.25, 0.5, 0.75, 1.0]] * 3)

    def test_uneven_row(self):
        coords = intervals_to_coordinates(np.array([[0.2, 0.3, 0.5]] * 3))
        np.testing.assert_allclose(coords, [[0.0, 0.2, 0.5, 1.0]] * 3)

    def test_last_coordinate_pinned_exactly(self, rng):
        q = softmax_normalize(rng.normal(0.0, 1.5, size=(3, 11)))
        coords = intervals_to_coordinates(q)
        assert np.all(coords[:, -1] == 1.0)
        assert np.all(coords[:, 0] == 0.0)

    def test_output_satisfies_invariants(self, rng):
        for _ in range(100):
            q = softmax_normalize(rng.normal(0.0, 2.0, size=(3, 6)))
            validate_coordinates(intervals_to_coordinates(q))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            intervals_to_coordinates(np.array([[0.5, 0.0, 0.5]] * 3))


class TestUniformCoordinates:
    def test_two_knots(self):
        np.testing.assert_array_equal(uniform_coordinates(2), [[0.0, 1.0]] * 3)

    def test_five_knots(self):
        np.testing.assert_allclose(
            uniform_coordinates(5), [[0.0, 0.25, 0.5, 0.75, 1.0]] * 3
        )

    def test_matches_equal_logit_pipeline(self):
        for n in (2, 4, 9, 33):
            uniform = uniform_coordinates(n)
            derived = coordinates_from_logits(np.full((3, n - 1), 2.5))
            np.testing.assert_allclose(derived, uniform, rtol=0, atol=1e-12)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            uniform_coordinates(1)

    @pytest.mark.parametrize("n_s", [2.5, 3.0, True, "3", None])
    def test_rejects_non_integer_n_by_name(self, n_s):
        with pytest.raises(ValueError, match="^n_s must be an integer, got"):
            uniform_coordinates(n_s)

    def test_numpy_integer_accepted(self):
        assert uniform_coordinates(np.int64(5)).tobytes() == uniform_coordinates(5).tobytes()


class TestIdentityLut:
    def test_two_knot_corner_values(self):
        table = identity_lut(uniform_coordinates(2))
        assert table[0, 1, 0, 0] == 1.0
        assert np.all(table[0, 0, :, :] == 0.0)

    def test_non_uniform_middle_plane(self):
        coords = np.array([[0.0, 0.1, 1.0]] * 3)
        table = identity_lut(coords)
        assert np.all(table[1, :, 1, :] == 0.1)

    def test_each_channel_varies_along_own_axis_only(self, rng):
        coords = coordinates_from_logits(rng.normal(0.0, 1.0, size=(3, 4)))
        table = identity_lut(coords)
        np.testing.assert_array_equal(table[0, :, 0, 0], coords[0])
        np.testing.assert_array_equal(table[1, 0, :, 0], coords[1])
        np.testing.assert_array_equal(table[2, 0, 0, :], coords[2])


class TestSharedToFull:
    def test_replicates_row(self, rng):
        row = rng.normal(0.0, 1.0, size=6)
        full = shared_to_full(row)
        assert full.shape == (3, 6)
        for c in range(3):
            np.testing.assert_array_equal(full[c], row)

    def test_coordinates_identical_across_channels(self, rng):
        coords = coordinates_from_logits(shared_to_full(rng.normal(size=5)))
        assert np.array_equal(coords[0], coords[1])
        assert np.array_equal(coords[0], coords[2])


class TestCoordinateInvariantsProperty:
    def test_random_logits_sweep(self, rng):
        # wild logits must still give bounded, strictly increasing knots
        for _ in range(1000):
            scale = rng.uniform(0.1, 20.0)
            k = rng.integers(1, 40)
            coords = coordinates_from_logits(rng.normal(0.0, scale, size=(3, k)))
            assert np.all(coords >= 0.0) and np.all(coords <= 1.0)
            assert np.all(coords[:, 0] == 0.0)
            assert np.all(coords[:, -1] == 1.0)
            assert np.all(np.diff(coords, axis=1) > 0.0)


class TestCoordinateLogitVjp:
    @pytest.mark.parametrize("n_s", [2, 4, 8])
    def test_matches_finite_differences(self, rng, n_s):
        logits = rng.uniform(-1.0, 1.0, size=(3, n_s - 1))
        q = softmax_normalize(logits)
        grad_coords = rng.normal(0.0, 1.0, size=(3, n_s))
        analytic = coordinate_logit_vjp(q, grad_coords)
        h = 1e-7
        fd = np.zeros_like(logits)
        for c in range(3):
            for j in range(n_s - 1):
                plus, minus = logits.copy(), logits.copy()
                plus[c, j] += h
                minus[c, j] -= h
                delta = coordinates_from_logits(plus) - coordinates_from_logits(minus)
                fd[c, j] = float((grad_coords * delta).sum()) / (2 * h)
        scale = max(np.abs(fd).max(), 1e-12)
        assert np.abs(analytic - fd).max() / scale < 1e-5

    def test_single_interval_gets_zero_gradient(self, rng):
        # with one interval the coordinates are always [0, 1]
        q = softmax_normalize(rng.normal(size=(3, 1)))
        grad = coordinate_logit_vjp(q, rng.normal(size=(3, 2)))
        np.testing.assert_array_equal(grad, np.zeros((3, 1)))

    def test_rejects_mismatched_shapes(self, rng):
        q = softmax_normalize(np.ones((3, 4)))
        with pytest.raises(ValueError):
            coordinate_logit_vjp(q, np.zeros((3, 4)))


class TestLattice:
    def test_agreeing_sizes_required(self, rng):
        coords = uniform_coordinates(4)
        with pytest.raises(ValueError):
            Lattice(coords, rng.random((3, 5, 5, 5)))

    def test_rejects_non_monotone_coords(self, rng):
        coords = uniform_coordinates(4)
        coords[1, 2] = coords[1, 1] - 0.01
        with pytest.raises(ValueError, match="non-monotone"):
            Lattice(coords, rng.random((3, 4, 4, 4)))

    @pytest.mark.parametrize("channel, row, message", [
        (0, [0.0, 0.6, 0.4, 1.0], "^coords r: non-monotone at index 2$"),
        (1, [0.1, 0.3, 0.6, 1.0], "^coords g: first entry must be 0, got 0.1$"),
        (2, [0.0, 0.3, 0.6, 0.9], "^coords b: last entry must be 1, got 0.9$"),
        (1, [0.0, np.nan, 0.6, 1.0], "^coords g: entries must be finite$"),
    ])
    def test_coordinate_errors_name_the_channel(self, rng, channel, row, message):
        coords = uniform_coordinates(4)
        coords[channel] = row
        with pytest.raises(ValueError, match=message):
            Lattice(coords, rng.random((3, 4, 4, 4)))

    def test_rejects_non_finite_values(self):
        coords = uniform_coordinates(3)
        values = identity_lut(coords)
        values[2, 1, 1, 1] = np.inf
        with pytest.raises(ValueError):
            Lattice(coords, values)

    def test_n_s_property(self):
        coords = uniform_coordinates(5)
        assert Lattice(coords, identity_lut(coords)).n_s == 5
