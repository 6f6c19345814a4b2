import math
import sys
import threading
import time
import tracemalloc
import weakref

import numpy as np
import pytest

from conftest import random_lattice, transform_block, transform_loop

from nulut.lattice import (
    MIN_INTERVAL,
    Lattice,
    coordinates_from_logits,
    identity_lut,
    uniform_coordinates,
)
from nulut import transform
from nulut.transform import (
    CHUNK_PIXELS,
    CHUNK_ROWS,
    POOL_THREAD_NAME,
    backward_pixel,
    map_blocks,
    lookup,
    lookup_with_count,
    row_blocks,
    transform_image,
    transform_pixel,
    transform_vjp,
    transform_with_grads,
    trilinear_weights,
)


class TestLookup:
    COORDS = np.array([0.0, 0.25, 0.75, 1.0])

    def test_interior_query(self):
        assert lookup(self.COORDS, 0.5) == (1, 2, 0.25, 0.75)

    def test_left_boundary(self):
        assert lookup(self.COORDS, 0.0) == (0, 1, 0.0, 0.25)

    def test_right_boundary_clamps_into_last_cell(self):
        assert lookup(self.COORDS, 1.0) == (2, 3, 0.75, 1.0)

    def test_query_below_the_first_knot_clamps_to_the_first_cell(self):
        # as _locate clamps it
        row = np.array([0.5, 1.0])
        assert lookup(row, 0.1) == (0, 1, 0.5, 1.0)
        e0, _ = transform._locate(np.tile(row, (3, 1)), np.full((3, 1), 0.1))
        assert np.all(e0 == 0)

    def test_exact_knot_goes_right(self):
        # a knot belongs to the cell it opens: left neighbor uses <=
        assert lookup(self.COORDS, 0.25) == (1, 2, 0.25, 0.75)

    def test_rejects_out_of_range(self):
        for bad in (-0.01, 1.01, float("nan")):
            with pytest.raises(ValueError):
                lookup(self.COORDS, bad)

    @pytest.mark.parametrize("n_s", [2, 33, 65])
    def test_comparison_count_is_logarithmic(self, rng, n_s):
        coords = random_lattice(rng, n_s).coords
        bound = math.ceil(math.log2(n_s)) + 1
        queries = np.concatenate(([0.0, 1.0], rng.random(500), coords[0]))
        for x in queries:
            for c in range(3):
                result, count = lookup_with_count(coords[c], float(x))
                assert count <= bound
                assert result.e1 == result.e0 + 1
                assert result.x0 <= x or result.e0 == n_s - 2

    def test_found_cell_contains_query(self, rng):
        coords = random_lattice(rng, 9).coords
        for x in rng.random(200):
            for c in range(3):
                e0, e1, x0, x1 = lookup(coords[c], float(x))
                assert x0 <= x <= x1 or (x1 < x and e0 == 7)
                assert 0 <= e0 < e1 <= 8


class TestTrilinearWeights:
    def test_corner_offsets_select_one_vertex(self):
        w = trilinear_weights(0.0, 0.0, 0.0)
        assert w[0, 0, 0] == 1.0
        assert w.sum() == 1.0
        w = trilinear_weights(1.0, 0.0, 1.0)
        assert w[1, 0, 1] == 1.0

    def test_center_offsets_give_equal_weights(self):
        np.testing.assert_array_equal(
            trilinear_weights(0.5, 0.5, 0.5), np.full((2, 2, 2), 0.125)
        )

    def test_partition_of_unity(self, rng):
        for _ in range(200):
            xd = rng.random(3)
            assert abs(trilinear_weights(*xd).sum() - 1.0) <= 1e-12

    def test_rejects_out_of_range_offsets(self):
        with pytest.raises(ValueError):
            trilinear_weights(1.2, 0.0, 0.0)


class TestTransformPixel:
    def test_identity_lattice_reproduces_input(self, rng):
        lattice = random_lattice(rng, 6, value_noise=0.0)
        lattice = Lattice(lattice.coords, identity_lut(lattice.coords))
        for _ in range(50):
            x = rng.random(3)
            np.testing.assert_allclose(
                transform_pixel(x, lattice), x, rtol=0, atol=1e-12
            )

    def test_center_of_two_knot_lattice_averages_corners(self, rng):
        values = rng.random((3, 2, 2, 2))
        lattice = Lattice(uniform_coordinates(2), values)
        out = transform_pixel([0.5, 0.5, 0.5], lattice)
        np.testing.assert_allclose(
            out, values.reshape(3, 8).mean(axis=1), rtol=0, atol=1e-12
        )

    def test_reproduces_affine_maps_exactly(self, rng):
        # trilinear interpolation is exact on multilinear functions,
        # and affine maps are multilinear
        for n_s in (2, 5):
            lattice = random_lattice(rng, n_s)
            matrix = rng.uniform(-1.0, 1.0, size=(3, 3))
            offset = rng.uniform(-0.5, 0.5, size=3)
            coords = lattice.coords
            grid = np.stack(
                np.meshgrid(coords[0], coords[1], coords[2], indexing="ij")
            )
            values = np.einsum("cd,dijk->cijk", matrix, grid) + offset[:, None, None, None]
            lattice = Lattice(coords, values)
            for x in rng.random((200, 3)):
                expected = matrix @ x + offset
                np.testing.assert_allclose(
                    transform_pixel(x, lattice), expected, rtol=0, atol=1e-10
                )


class TestTransformImage:
    def test_identity_lattice_is_identity(self, rng):
        lattice = random_lattice(rng, 5)
        lattice = Lattice(lattice.coords, identity_lut(lattice.coords))
        img = rng.random((3, 17, 13))
        np.testing.assert_allclose(
            transform_image(img, lattice), img, rtol=0, atol=1e-12
        )

    def test_constant_table_gives_constant_output(self, rng):
        values = np.empty((3, 4, 4, 4))
        values[0], values[1], values[2] = 0.2, 0.5, 0.9
        lattice = Lattice(uniform_coordinates(4), values)
        out = transform_image(rng.random((3, 9, 11)), lattice)
        for c, v in enumerate((0.2, 0.5, 0.9)):
            np.testing.assert_allclose(out[c], v, rtol=0, atol=1e-12)

    def test_matches_scalar_loop_bit_exactly(self, rng):
        for n_s in (2, 7):
            lattice = random_lattice(rng, n_s, logit_scale=2.0)
            img = rng.random((3, 11, 5))
            assert np.array_equal(transform_image(img, lattice), transform_loop(img, lattice))

    def test_chunked_image_matches_loop_bit_exactly(self, rng):
        # taller than one block so several chunks are exercised
        lattice = random_lattice(rng, 4)
        img = rng.random((3, 150, 3))
        assert np.array_equal(transform_image(img, lattice), transform_loop(img, lattice))

    def test_workers_do_not_change_bits(self, rng):
        lattice = random_lattice(rng, 6)
        img = rng.random((3, 200, 7))
        base = transform_image(img, lattice, workers=1)
        for workers in (2, 4):
            assert np.array_equal(base, transform_image(img, lattice, workers=workers))

    def test_wide_image_blocks_do_not_change_bits(self, rng):
        # wide enough that a block is cut to fewer than CHUNK_ROWS rows
        width = 3 * CHUNK_PIXELS // CHUNK_ROWS
        lattice = random_lattice(rng, 5)
        samples = rng.integers(0, 256, size=(3, 5, width), dtype=np.uint8)
        img = samples / 255
        whole = transform_block(img.reshape(3, -1), lattice.coords, lattice.values)
        for workers in (1, 2):
            out = transform_image(img, lattice, workers=workers)
            assert out.tobytes() == whole.reshape(img.shape).tobytes()
            out = transform_image(samples, lattice, workers=workers, maxval=255)
            assert out.tobytes() == whole.reshape(img.shape).tobytes()

    def test_continuity_across_cell_boundaries(self, rng):
        lattice = random_lattice(rng, 6, logit_scale=1.0)
        coords = lattice.coords
        for c in range(3):
            for knot in coords[c][1:-1]:
                lo = np.full(3, 0.4)
                hi = np.full(3, 0.4)
                lo[c] = knot - 1e-9
                hi[c] = knot + 1e-9
                left = transform_pixel(lo, lattice)
                right = transform_pixel(hi, lattice)
                assert np.abs(left - right).max() <= 1e-6

    def test_rejects_out_of_range_image(self, rng):
        lattice = random_lattice(rng, 3)
        img = rng.random((3, 4, 4))
        img[0, 0, 0] = 1.5
        with pytest.raises(ValueError):
            transform_image(img, lattice)

    def test_rejects_bad_shape(self, rng):
        lattice = random_lattice(rng, 3)
        with pytest.raises(ValueError):
            transform_image(rng.random((4, 4, 3)), lattice)


class TestCorners:
    """_corners, the walk the blend and the backward share, against the scalar reference."""

    @pytest.mark.parametrize("n_s", [2, 5])
    def test_indices_and_weights_match_the_scalar_reference(self, rng, n_s):
        lattice = random_lattice(rng, n_s, logit_scale=2.0)
        coords = lattice.coords
        # random colours, every knot on each axis (its own channel's and the
        # others', shuffled), and the ends 0.0 and 1.0
        knots = np.stack([rng.permutation(coords[rng.integers(3)]) for _ in range(3)])
        pix = np.concatenate([rng.random((3, 40)), coords, knots,
                              np.zeros((3, 1)), np.ones((3, 1))], axis=1)
        _, cells = transform._route(pix.reshape(3, 1, -1), lattice, None)
        base, pairs, e0 = cells(0, 1)
        xd = pairs[:, 1]
        reference = [trilinear_weights(*xd[:, q]) for q in range(pix.shape[1])]
        flat = lattice.values.reshape(3, -1)
        walked = []
        for (i, j, k), idx, corner, w in transform._corners(flat, n_s, base, pairs):
            walked.append((i, j, k))
            expected = np.ravel_multi_index((e0[0] + i, e0[1] + j, e0[2] + k), (n_s,) * 3)
            assert np.array_equal(idx, expected)
            assert corner.tobytes() == flat[:, expected].tobytes()
            assert w.tobytes() == np.array([r[i, j, k] for r in reference]).tobytes()
        assert walked == [(i, j, k) for i in (0, 1) for j in (0, 1) for k in (0, 1)]


def _level_lattices(rng):
    """Random non-uniform lattices plus the edge cases of level lookup."""
    lattices = [random_lattice(rng, n_s, logit_scale=2.0) for n_s in (2, 4, 17, 33)]
    # a knot exactly on the 8-bit level 100/255 (and uniform knots j/17 = 15j/255)
    row = np.array([0.0, 0.1, 100 / 255, 0.7, 1.0])
    lattices.append(Lattice(np.tile(row, (3, 1)), rng.random((3, 5, 5, 5))))
    lattices.append(Lattice(uniform_coordinates(18), rng.random((3, 18, 18, 18))))
    # steep logits push intervals onto the MIN_INTERVAL floor
    logits = np.tile([40.0, -40.0, -40.0, -40.0, 0.0, -40.0], (3, 1))
    floored = coordinates_from_logits(logits)
    assert np.diff(floored).min() < 2 * MIN_INTERVAL
    lattices.append(Lattice(floored, rng.random((3, 7, 7, 7))))
    for lattice in lattices:
        # table values outside [0, 1] too: the output is never clamped
        lattice.values[...] = rng.normal(0.5, 0.8, size=lattice.values.shape)
    return lattices


def _level_samples(rng, maxval, dtype, shape=(3, 70, 9)):
    samples = rng.integers(0, maxval + 1, size=shape).astype(dtype)
    samples[:, 0, 0] = 0
    samples[:, 0, 1] = maxval
    samples[0, 1, 0], samples[1, 1, 0], samples[2, 1, 0] = 0, maxval, 100
    return samples


class TestQuantizedLevels:
    @pytest.mark.parametrize("maxval,dtype", [(255, np.uint8), (65535, np.uint16), (255, np.int64)])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_matches_float_path_bit_exactly(self, rng, maxval, dtype, workers):
        for lattice in _level_lattices(rng):
            samples = _level_samples(rng, maxval, dtype)
            expected = transform_image(samples / maxval, lattice)
            got = transform_image(samples, lattice, workers=workers, maxval=maxval)
            assert got.dtype == np.float64 and got.shape == samples.shape
            assert got.tobytes() == expected.tobytes()

    def test_every_8bit_level_matches_float_path(self, rng):
        lattice = _level_lattices(rng)[3]  # n = 33
        samples = np.stack([rng.permutation(256) for _ in range(3)]).reshape(3, 16, 16)
        expected = transform_image(samples / 255, lattice)
        assert transform_image(samples, lattice, maxval=255).tobytes() == expected.tobytes()

    def test_matches_scalar_loop(self, rng):
        lattice = random_lattice(rng, 5, logit_scale=2.0)
        samples = _level_samples(rng, 255, np.uint8, shape=(3, 6, 5))
        got = transform_image(samples, lattice, maxval=255)
        assert np.array_equal(got, transform_loop(samples / 255, lattice))

    def test_rejects_float_samples(self, rng):
        lattice = random_lattice(rng, 3)
        with pytest.raises(ValueError, match="integers"):
            transform_image(rng.random((3, 4, 4)), lattice, maxval=255)

    def test_rejects_bad_shape(self, rng):
        lattice = random_lattice(rng, 3)
        for shape in ((4, 4, 3), (3, 4), (3, 0, 4)):
            with pytest.raises(ValueError, match="shape"):
                transform_image(np.zeros(shape, dtype=np.uint8), lattice, maxval=255)

    @pytest.mark.parametrize("bad", [256, -1])
    def test_rejects_samples_outside_levels(self, rng, bad):
        lattice = random_lattice(rng, 3)
        samples = np.zeros((3, 4, 4), dtype=np.int32)
        samples[1, 2, 3] = bad
        with pytest.raises(ValueError, match=r"\[0, 255\]"):
            transform_image(samples, lattice, maxval=255)

    @pytest.mark.parametrize("maxval", [0, 65536, 2.5, True])
    def test_rejects_bad_maxval(self, rng, maxval):
        lattice = random_lattice(rng, 3)
        with pytest.raises(ValueError, match="maxval"):
            transform_image(np.zeros((3, 2, 2), dtype=np.uint8), lattice, maxval=maxval)


class TestMapBlocks:
    """The calling thread drains block indices next to workers - 1 pool threads."""

    def test_results_in_block_order_with_more_workers_than_blocks(self):
        assert map_blocks(lambda b: b * b, list(range(5)), 8) == [0, 1, 4, 9, 16]

    def test_calling_thread_runs_a_share(self):
        caller = threading.get_ident()
        caller_ran = threading.Event()
        ran_on = []

        def run(block):
            ran_on.append(threading.get_ident())
            if threading.get_ident() == caller:
                caller_ran.set()
            else:
                # a pool thread cannot drain every block before the caller starts
                caller_ran.wait(timeout=10)
            return -block

        assert map_blocks(run, list(range(6)), 2) == [0, -1, -2, -3, -4, -5]
        assert caller in ran_on and len(ran_on) == 6

    def test_error_in_the_callers_share_reaches_the_caller(self):
        caller = threading.get_ident()
        caller_ran = threading.Event()

        def run(block):
            if threading.get_ident() == caller:
                caller_ran.set()
                raise RuntimeError("caller's share")
            caller_ran.wait(timeout=10)
            return block

        with pytest.raises(RuntimeError, match="caller's share"):
            map_blocks(run, list(range(4)), 2)
        assert caller_ran.is_set()

    def test_error_in_a_pool_threads_share_reaches_the_caller(self):
        caller = threading.get_ident()
        pool_ran = threading.Event()

        def run(block):
            if threading.get_ident() != caller:
                pool_ran.set()
                raise RuntimeError("pool thread's share")
            pool_ran.wait(timeout=10)
            return block

        with pytest.raises(RuntimeError, match="pool thread's share"):
            map_blocks(run, list(range(4)), 3)
        assert pool_ran.is_set()

    def test_a_failing_share_stops_handing_out_blocks(self):
        started = []

        def run(block):
            started.append(block)
            if block == 0:
                raise RuntimeError("first block")
            time.sleep(0.001)
            return block

        with pytest.raises(RuntimeError, match="first block"):
            map_blocks(run, list(range(64)), 2)
        count = len(started)
        time.sleep(0.05)
        assert count < 64
        # every share still running was waited for, so nothing starts later
        assert len(started) == count


@pytest.fixture
def fresh_pool(monkeypatch):
    """A new, empty block pool for one test, instead of the module's shared one."""
    monkeypatch.setattr(transform, "_POOL", transform._BlockPool())


class TestBlockPool:
    """map_blocks runs on one persistent pool that grows on demand."""

    def test_repeated_calls_reuse_the_pool_threads(self, fresh_pool):
        before = set(threading.enumerate())
        caller = threading.current_thread()
        ran_on = set()

        def run(block):
            ran_on.add(threading.current_thread())
            time.sleep(0.0005)
            return block

        for _ in range(100):
            assert map_blocks(run, list(range(4)), 3) == [0, 1, 2, 3]
        pool_threads = ran_on - {caller}
        assert pool_threads and len(pool_threads) <= 2
        assert all(t.name.startswith(POOL_THREAD_NAME) for t in pool_threads)
        assert len(set(threading.enumerate()) - before) <= 2

    def test_nested_call_from_a_pool_thread_completes(self, fresh_pool):
        caller = threading.get_ident()
        nested_done = threading.Event()
        results = {}

        def run(block):
            if threading.get_ident() == caller:
                # hold the caller's share until the pool thread's share is done,
                # so the nested call finds the pool's only thread busy with it
                assert nested_done.wait(timeout=10)
                return None
            inner = map_blocks(lambda b: b + 1, list(range(4)), 2)
            nested_done.set()
            return inner

        def outer():
            nonlocal caller
            caller = threading.get_ident()
            results["outer"] = map_blocks(run, [0, 1], 2)

        thread = threading.Thread(target=outer, daemon=True)
        thread.start()
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert results["outer"] == [None, [1, 2, 3, 4]]

    def test_a_share_queued_behind_a_busy_pool_keeps_nothing_alive(self, fresh_pool):
        release = threading.Event()
        transform._POOL.submit(lambda: release.wait(timeout=30), 1)  # the pool's only thread
        try:
            blocks = [np.full(1000, b, dtype=float) for b in range(3)]
            results = map_blocks(lambda block: block * 2, blocks, 2)
            # the caller drained every block; the pool thread never started its share
            assert [r[0] for r in results] == [0, 2, 4]
            kept = [weakref.ref(a) for a in blocks + results]
            del blocks, results
            assert [ref() for ref in kept] == [None] * 6
        finally:
            release.set()

    def test_every_block_runs_once_under_contention(self, fresh_pool):
        runs = [0] * 500
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            def run(block):
                runs[block] += 1
                return -block

            started = time.monotonic()
            for _ in range(5):
                assert map_blocks(run, list(range(500)), 6) == [-b for b in range(500)]
            assert time.monotonic() - started < 60
        finally:
            sys.setswitchinterval(interval)
        # each index is handed out once, so no block runs twice or never
        assert runs == [5] * 500

    @pytest.mark.parametrize("workers", [2.5, 2.0, 0, -1, True, None, "2"])
    @pytest.mark.parametrize("entry", ["transform_image", "transform_vjp",
                                       "transform_with_grads"])
    def test_bad_workers_rejected_before_the_pool_is_touched(self, fresh_pool, rng, entry,
                                                             workers):
        img = rng.random((3, 300, 200))
        assert len(row_blocks(300, 200)) > 2
        lattice = random_lattice(rng, 5)
        g = rng.standard_normal(img.shape)
        call = {
            "transform_image": lambda w: transform_image(img, lattice, w),
            "transform_vjp": lambda w: transform_vjp(img, lattice, w)[0],
            "transform_with_grads": lambda w: transform_with_grads(img, g, lattice, w)[0],
        }[entry]
        with pytest.raises(ValueError, match="^workers must be"):
            call(workers)
        assert transform._POOL._threads == 0
        expected = transform_image(img, lattice)
        for good in (2, np.int64(2)):
            assert call(good).tobytes() == expected.tobytes()
        assert transform._POOL._threads == 1

    def test_more_workers_grow_the_pool(self, fresh_pool):
        assert map_blocks(lambda b: b, list(range(3)), 2) == [0, 1, 2]
        release = threading.Barrier(4, timeout=10)

        def run(block):
            # only four threads running at once get past the barrier
            release.wait()
            return block

        assert map_blocks(run, list(range(4)), 4) == [0, 1, 2, 3]

    def test_threads_capped_per_usable_cpu(self, fresh_pool, monkeypatch):
        monkeypatch.setattr(transform, "usable_cpus", lambda: 1)
        bound = transform.POOL_THREADS_PER_CPU
        before = set(threading.enumerate())
        ran_on = set()

        def run(block):
            ran_on.add(threading.current_thread())
            time.sleep(0.0005)
            return -block

        blocks = list(range(3 * bound))
        for workers in (bound + 3, 2 * bound + 5):
            assert map_blocks(run, blocks, workers) == [-b for b in blocks]
            started = set(threading.enumerate()) - before
            assert len(started) <= bound
            assert all(t.name.startswith(POOL_THREAD_NAME) for t in started)
        assert len(ran_on - {threading.current_thread()}) <= bound
        assert transform._POOL._threads == bound


class TestNoResultAliasesAWorkspace:
    """Every array a public call returns survives the next call on the same thread."""

    def _calls(self, rng):
        lattice = random_lattice(rng, 5)
        img = rng.random((3, 70, 40))
        samples = rng.integers(0, 256, size=(3, 70, 40), dtype=np.uint8)
        out, backward = transform_vjp(samples, lattice, maxval=255)
        grads = backward(rng.standard_normal(out.shape))
        float_out, float_backward = transform_vjp(img, lattice)
        float_grads = float_backward(rng.standard_normal(out.shape))
        pixel = backward_pixel(rng.random(3), lattice, rng.standard_normal(3))
        return {
            "transform_image float": transform_image(img, lattice),
            "transform_image levels": transform_image(samples, lattice, maxval=255),
            "transform_vjp out": out,
            "transform_vjp float out": float_out,
            **{f"backward {k}": getattr(grads, k) for k in ("grad_values", "grad_coords", "grad_input")},
            **{f"float backward {k}": getattr(float_grads, k)
               for k in ("grad_values", "grad_coords", "grad_input")},
            **{f"backward_pixel {k}": getattr(pixel, k)
               for k in ("grad_values", "grad_coords", "grad_input")},
        }

    def test_second_call_leaves_first_results_unchanged(self):
        first = self._calls(np.random.default_rng(1))
        kept = {name: a.tobytes() for name, a in first.items()}
        second = self._calls(np.random.default_rng(2))
        for name, a in first.items():
            assert a.tobytes() == kept[name], name
            assert a.tobytes() != second[name].tobytes(), name


class TestInputLayouts:
    """Outputs and gradients do not depend on the memory layout of the inputs."""

    @staticmethod
    def _layouts(a):
        # a copy of a in Fortran order, and one whose last two axes are swapped
        # in memory; on both, a block's rows are not one run of memory
        return {
            "fortran": np.asfortranarray(a),
            "swapped": np.ascontiguousarray(a.transpose(0, 2, 1)).transpose(0, 2, 1),
        }

    @pytest.mark.parametrize("maxval", [None, 255])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_vjp_matches_the_c_ordered_input(self, rng, maxval, workers):
        lattice = random_lattice(rng, 5)
        shape = (3, 70, 40)  # two row blocks
        assert len(row_blocks(*shape[1:])) == 2
        if maxval is None:
            img = rng.random(shape)
        else:
            img = rng.integers(0, maxval + 1, size=shape, dtype=np.uint8)
        g = rng.standard_normal(shape)

        def run(img, g):
            out, backward = transform_vjp(img, lattice, workers, maxval=maxval)
            grads = backward(g)
            return [out, grads.grad_values, grads.grad_coords, grads.grad_input]

        expected = [a.tobytes() for a in run(img, g)]
        for name, other in self._layouts(img).items():
            for g_name, other_g in {"c": g, **self._layouts(g)}.items():
                got = [a.tobytes() for a in run(other, other_g)]
                assert got == expected, (name, g_name)
        for name, other in self._layouts(img).items():
            got = transform_image(other, lattice, workers, maxval=maxval)
            assert got.tobytes() == expected[0], name


def test_warm_backward_allocates_only_its_results(rng):
    """A warm level-route backward traces only what it returns, plus one block.

    Every other per-block temporary lives in the thread's workspace,
    which the first backward has already grown.
    """
    size, n = 256, 17
    samples = rng.integers(0, 256, size=(3, size, size), dtype=np.uint8)
    out, backward = transform_vjp(samples, random_lattice(rng, n), maxval=255)
    g = rng.standard_normal(out.shape)
    backward(g)
    tracemalloc.start()
    try:
        backward(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    blocks = row_blocks(size, size)
    block_pixels = max(r1 - r0 for r0, r1 in blocks) * size
    gradients = (3 * n**3 + 3 * n) * 8
    allowed = (
        3 * size * size * 8  # grad_input
        + (len(blocks) + 1) * gradients  # per-block table and knot gradients, and their sum
        + n**3 * 8  # one bincount output
        + 3 * block_pixels * 8  # slack: one (3, p) block
    )
    assert peak <= allowed


def test_warm_float_transform_keeps_no_located_cells(rng):
    """A warm float forward traces its output and one block's temporaries.

    Neither transform_image nor transform_vjp's forward keeps a block's
    located cells (e0, gap, xd: 72 bytes a pixel) once it is blended,
    even while the backward transform_vjp returns is held: that backward
    finds each block's cells again.
    """
    size, n = 512, 17
    img = rng.random((3, size, size))
    lattice = random_lattice(rng, n)
    blocks = row_blocks(size, size)
    assert len(blocks) > 1
    block_pixels = max(r1 - r0 for r0, r1 in blocks) * size
    allowed = (
        3 * size * size * 8  # the output
        + 3 * size * size  # validation's isfinite mask
        + 6 * 3 * block_pixels * 8  # one block: _locate's five (3, p) temporaries, the blend
    )
    for name, forward in {
        "transform_image": lambda: transform_image(img, lattice),
        "transform_vjp": lambda: transform_vjp(img, lattice),
    }.items():
        forward()
        tracemalloc.start()
        try:
            held = forward()  # transform_vjp's backward stays alive while measured
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= allowed, name


@pytest.mark.parametrize("call,bytes_per_pixel", [
    ("float apply", 104),
    ("quantized apply", 128),
    ("float backward", 192),
    ("quantized backward", 216),
])
def test_workspace_holds_the_documented_bytes_per_block_pixel(rng, call, bytes_per_pixel):
    """The workspace sizes the module docstring states, on a fresh thread."""
    shape = (3, CHUNK_PIXELS // 512, 512)  # one full block
    assert row_blocks(*shape[1:]) == [(0, shape[1])]
    lattice = random_lattice(rng, 17)
    img = rng.random(shape)
    samples = rng.integers(0, 256, size=shape, dtype=np.uint8)
    g = rng.standard_normal(shape)
    run = {
        "float apply": lambda: transform_image(img, lattice),
        "quantized apply": lambda: transform_image(samples, lattice, maxval=255),
        "float backward": lambda: transform_vjp(img, lattice)[1](g),
        "quantized backward": lambda: transform_vjp(samples, lattice, maxval=255)[1](g),
    }[call]
    kept = []

    def fresh():
        run()
        kept.append(sum(buf.nbytes for buf in transform._WORKSPACE.buffers.values()))

    thread = threading.Thread(target=fresh)
    thread.start()
    thread.join()
    assert kept == [bytes_per_pixel * CHUNK_PIXELS]
