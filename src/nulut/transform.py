"""Applying a non-uniform 3D LUT to images, forward and backward.

The forward path first locates each input color's lattice cell, then
blends the 8 surrounding vertex values with trilinear weights.  A cell
is located in one of two ways:

* float input in [0, 1] uses a binary search per axis (valid because
  the sampling coordinates are sorted);
* quantized input, integer samples k in [0, maxval] standing for
  k / maxval, indexes per-axis tables built once per call for the
  maxval + 1 levels.  The tables hold each level's flat-index offset
  and weight pair, computed by the float path's own expressions, so the
  two ways give bit-identical results.  The maxval range is owned
  here: MAX_MAXVAL and check_maxval, which ppm reads and writes by.

Both feed one blend core.  The backward path returns analytic gradients
of the output with respect to the table values, the sampling
coordinates, and the input colors, so the whole lattice, knot positions
included, can be fitted by gradient descent.  transform_vjp is the
training step's single pass: its forward locates each pixel's cell once
and blends it, and its backward computes every gradient from the same
cells (low knot index, cell width and offset).  On float input the
forward keeps those cells; on quantized input it keeps only the samples,
and the backward gathers the cells again from the level tables.  The
backward dots the output gradient with each corner's three channels
once, then chains that sum along each axis.

Per-pixel work is independent, so images are processed in row blocks.
One grid, row_blocks, serves the forward transform, the training pass
and PPM writing: blocks of at most CHUNK_ROWS rows and about
CHUNK_PIXELS pixels, so temporaries stay cache-sized on wide images.
The grid depends only on the image size.  The calling thread and
workers - 1 pool threads take blocks from one counter; they share the
read-only lattice, write disjoint output slices, and keep private
gradient buffers that are reduced in block order.  Results are
therefore bit-identical for any thread count, and usable_cpus is the
count apply and training use.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .lattice import Lattice

CHUNK_ROWS = 64
CHUNK_PIXELS = 32768
MAX_MAXVAL = 65535

_CORNERS = [(i, j, k) for i in (0, 1) for j in (0, 1) for k in (0, 1)]


class LookupResult(NamedTuple):
    e0: int
    e1: int
    x0: float
    x1: float


def _bisect_cell(coords_row, x):
    """Rightmost knot index with coords_row[e0] <= x, clamped to n_s - 2.

    Returns (e0, comparisons).  The clamp makes x = 1.0 land inside the
    last cell with offset 1 instead of falling off the table.
    """
    n = coords_row.shape[0]
    lo, hi = 0, n
    comparisons = 0
    while lo < hi:
        mid = (lo + hi) // 2
        comparisons += 1
        if coords_row[mid] <= x:
            lo = mid + 1
        else:
            hi = mid
    e0 = lo - 1
    if e0 > n - 2:
        e0 = n - 2
    return e0, comparisons


def lookup(coords_row: np.ndarray, x: float) -> LookupResult:
    """Locate x in a sorted coordinate row: cell indices and bounds."""
    return lookup_with_count(coords_row, x)[0]


def lookup_with_count(coords_row: np.ndarray, x: float) -> tuple[LookupResult, int]:
    """Like lookup, also reporting how many comparisons the search used."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"query must lie in [0, 1], got {x}")
    e0, comparisons = _bisect_cell(coords_row, x)
    result = LookupResult(e0, e0 + 1, float(coords_row[e0]), float(coords_row[e0 + 1]))
    return result, comparisons


def trilinear_weights(xd_r: float, xd_g: float, xd_b: float) -> np.ndarray:
    """The 8 partial-volume weights for normalized offsets in [0, 1].

    weights[i, j, k] multiplies the vertex at (e_r + i, e_g + j, e_b + k);
    the weights always sum to 1.
    """
    for name, v in (("xd_r", xd_r), ("xd_g", xd_g), ("xd_b", xd_b)):
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1], got {v}")
    wr = (1.0 - xd_r, xd_r)
    wg = (1.0 - xd_g, xd_g)
    wb = (1.0 - xd_b, xd_b)
    weights = np.empty((2, 2, 2))
    for i, j, k in _CORNERS:
        weights[i, j, k] = (wr[i] * wg[j]) * wb[k]
    return weights


def check_image_shape(a: np.ndarray) -> None:
    """Raise ValueError unless a has shape (3, h, w) with h, w >= 1."""
    if a.ndim != 3 or a.shape[0] != 3 or a.shape[1] < 1 or a.shape[2] < 1:
        raise ValueError(f"image must have shape (3, h, w), got {a.shape}")


def validate_image(img) -> np.ndarray:
    """img as a float64 (3, h, w) array of finite values in [0, 1], or ValueError."""
    a = np.asarray(img, dtype=np.float64)
    check_image_shape(a)
    if not np.all(np.isfinite(a)):
        raise ValueError("image values must be finite")
    if a.min() < 0.0 or a.max() > 1.0:
        raise ValueError("image values must lie in [0, 1]")
    return a


def _validate_pixel(pixel) -> np.ndarray:
    p = np.asarray(pixel, dtype=np.float64).reshape(-1)
    if p.shape != (3,):
        raise ValueError(f"pixel must be a color triple, got shape {np.shape(pixel)}")
    if not np.all(np.isfinite(p)) or p.min() < 0.0 or p.max() > 1.0:
        raise ValueError(f"pixel components must lie in [0, 1], got {p}")
    return p


def transform_pixel(pixel, lattice: Lattice) -> np.ndarray:
    """Transform one color triple: per-axis lookup, then trilinear blend."""
    p = _validate_pixel(pixel)
    coords, values = lattice.coords, lattice.values
    e = np.empty(3, dtype=np.intp)
    xd = np.empty(3)
    for c in range(3):
        e[c], _, x0, x1 = lookup(coords[c], p[c])
        xd[c] = (p[c] - x0) / (x1 - x0)
    wr = (1.0 - xd[0], xd[0])
    wg = (1.0 - xd[1], xd[1])
    wb = (1.0 - xd[2], xd[2])
    out = np.zeros(3)
    for i, j, k in _CORNERS:
        w = (wr[i] * wg[j]) * wb[k]
        for c in range(3):
            out[c] += w * values[c, e[0] + i, e[1] + j, e[2] + k]
    return out


def _locate(coords, pix):
    """Low knot index e0, cell width gap and offset xd for pixel columns (3, p)."""
    n = coords.shape[1]
    e0 = np.empty(pix.shape, dtype=np.intp)
    for c in range(3):
        e0[c] = coords[c].searchsorted(pix[c], side="right")
    e0 -= 1
    np.minimum(e0, n - 2, out=e0)
    np.maximum(e0, 0, out=e0)
    lo = e0 + np.array([[0], [n], [2 * n]])
    x0 = coords.take(lo)
    lo += 1
    gap = coords.take(lo)
    gap -= x0
    xd = pix - x0
    xd /= gap
    return e0, gap, xd


def _base_index(e0, n):
    """Flat table index of each pixel's low corner (e_r, e_g, e_b)."""
    return np.ravel_multi_index(e0, (n, n, n))


def _weight_pairs(xd):
    """Per-axis trilinear weight pairs (1 - xd, xd), shape (3, 2, ...)."""
    pairs = np.stack((xd, xd), axis=1)
    np.subtract(1.0, xd, out=pairs[:, 0])
    return pairs


def _blend(flat, n, base, wr, wg, wb):
    """Trilinear blend of the 8 corners above the low corners base.

    flat is the (3, n^3) table and wr, wg, wb the per-axis weight pairs.
    Corners are summed from zero in (i, j, k) order with weights
    (wr[i] * wg[j]) * wb[k], operation for operation as transform_pixel
    does, so every path through here agrees bit-exactly.
    """
    out = np.zeros((3, base.shape[0]))
    for i in (0, 1):
        for j in (0, 1):
            wrg = wr[i] * wg[j]
            for k in (0, 1):
                corner = flat.take(base + ((i * n + j) * n + k), axis=1)
                corner *= wrg * wb[k]
                out += corner
    return out


def _transform_block(pix, coords, values):
    """Transform flattened pixel columns (3, p) against raw lattice arrays."""
    n = coords.shape[1]
    e0, _, xd = _locate(coords, pix)
    return _blend(values.reshape(3, n * n * n), n, _base_index(e0, n), *_weight_pairs(xd))


def _level_cells(coords, maxval):
    """_locate's (e0, gap, xd) for the levels k / maxval, each (3, maxval + 1).

    These are the cells the float path locates for the same floats
    k / maxval, so gathering them by sample gives bit-identical cells.
    """
    # int(): maxval + 1 on a uint16 scalar at MAX_MAXVAL would wrap to 0
    levels = np.arange(int(maxval) + 1, dtype=np.float64) / maxval
    return _locate(coords, np.tile(levels, (3, 1)))


def _level_tables(cells, n):
    """Per-axis blend tables from the level cells.

    Returns offsets (3, maxval + 1), level k's low-corner contribution
    e0 * n^(2 - c) to the flat index, and weights (3, 2, maxval + 1), its
    pair (1 - xd, xd).
    """
    e0, _, xd = cells
    return e0 * np.array([[n * n], [n], [1]]), _weight_pairs(xd)


def _level_block(samples, offsets, weights, flat, n):
    """Transform quantized pixel columns (3, p) through the level tables."""
    base = offsets[0].take(samples[0])
    base += offsets[1].take(samples[1])
    base += offsets[2].take(samples[2])
    wr, wg, wb = (weights[c].take(samples[c], axis=1) for c in range(3))
    return _blend(flat, n, base, wr, wg, wb)


def check_maxval(maxval) -> None:
    """Raise ValueError unless maxval is an integer in [1, MAX_MAXVAL]."""
    if (isinstance(maxval, bool) or not isinstance(maxval, (int, np.integer))
            or not 1 <= maxval <= MAX_MAXVAL):
        raise ValueError(f"unsupported maxval {maxval}")


def validate_samples(samples, maxval) -> np.ndarray:
    """samples as an integer (3, h, w) array of values in [0, maxval], or ValueError.

    The range is scanned only where the dtype can hold values outside
    it, so uint8 samples at maxval 255 and uint16 at 65535 cost nothing.
    """
    check_maxval(maxval)
    a = np.asarray(samples)
    if a.dtype.kind not in "ui":
        raise ValueError(f"quantized samples must be integers, got dtype {a.dtype}")
    check_image_shape(a)
    info = np.iinfo(a.dtype)
    if (info.min < 0 and a.min() < 0) or (info.max > maxval and a.max() > maxval):
        raise ValueError(f"quantized samples must lie in [0, {maxval}]")
    return a


def row_blocks(height: int, width: int) -> list[tuple[int, int]]:
    """Row ranges (r0, r1) covering an image: blocks of at least one and at
    most CHUNK_ROWS rows, and about CHUNK_PIXELS pixels."""
    rows = max(1, min(CHUNK_ROWS, CHUNK_PIXELS // width))
    return [(r, min(r + rows, height)) for r in range(0, height, rows)]


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def map_blocks(run, blocks, workers):
    """run(block) for every block, results in block order.

    A block is whatever run takes: a row range here, a job in training.

    With more than one worker, the calling thread and workers - 1 pool
    threads take block indices from one shared counter, so the caller
    does a share of the work instead of waiting on a full pool.  An
    exception raised in any share reaches the caller.
    """
    threads = min(workers, len(blocks))
    if threads <= 1:
        return [run(block) for block in blocks]
    results = [None] * len(blocks)
    indices = iter(range(len(blocks)))
    lock = threading.Lock()

    def drain():
        while True:
            with lock:
                i = next(indices, None)
            if i is None:
                return
            results[i] = run(blocks[i])

    with ThreadPoolExecutor(max_workers=threads - 1) as pool:
        futures = [pool.submit(drain) for _ in range(threads - 1)]
        drain()
        for future in futures:
            future.result()
    return results


def transform_image(
    img, lattice: Lattice, workers: int = 1, *, maxval: int | None = None
) -> np.ndarray:
    """Apply the lattice to every pixel of a (3, h, w) image.

    With maxval=None, img holds floats in [0, 1].  With an integer
    maxval, img holds integer samples in [0, maxval] (as read by
    read_ppm(path, raw=True)) standing for sample / maxval, and cells are
    located through per-level tables; the output is bit-identical to
    transforming img / maxval.

    The output is not clamped; clamping to [0, 1] belongs at the final
    image-writing boundary, never inside a training loop where it would
    zero gradients.
    """
    coords, values = lattice.coords, lattice.values
    if maxval is None:
        a = validate_image(img)

        def block_transform(pix):
            return _transform_block(pix, coords, values)
    else:
        a = validate_samples(img, maxval)
        n = lattice.n_s
        flat = values.reshape(3, n * n * n)
        offsets, weights = _level_tables(_level_cells(coords, maxval), n)

        def block_transform(pix):
            return _level_block(pix, offsets, weights, flat, n)

    h, w = a.shape[1], a.shape[2]
    out = np.empty_like(a, dtype=np.float64)

    def run(block):
        r0, r1 = block
        res = block_transform(a[:, r0:r1, :].reshape(3, -1))
        out[:, r0:r1, :] = res.reshape(3, r1 - r0, w)

    map_blocks(run, row_blocks(h, w), workers)
    return out


@dataclass
class LatticeGradients:
    """Gradients of a scalar loss w.r.t. the lattice and the input.

    grad_values matches the table shape, grad_coords the coordinate shape,
    grad_input the input shape (the image, or the triple for
    backward_pixel).
    """

    grad_values: np.ndarray
    grad_coords: np.ndarray
    grad_input: np.ndarray


def _backward_block(cells, gout, values):
    """Gradient contributions of one pixel block located as cells.

    cells is _locate's (e0, gap, xd) for the block.  Returns
    (grad_values_flat (3, n^3), grad_coords (3, n), grad_input (3, p)).
    Scatter order is fixed: corners in (i, j, k) order, pixels in block
    order within each corner.
    """
    e0, gap, xd = cells
    n = values.shape[1]
    n3 = n * n * n
    flat = values.reshape(3, n3)
    base = _base_index(e0, n)
    wr, wg, wb = pairs = _weight_pairs(xd)

    # s[i, j, k] is the output gradient dotted with the vertex values at
    # (e_r + i, e_g + j, e_b + k): the channel sum every axis below needs
    s = np.empty((2, 2, 2, xd.shape[1]))
    grad_values = np.zeros((3, n3))
    for i in (0, 1):
        for j in (0, 1):
            wrg = wr[i] * wg[j]
            for k in (0, 1):
                idx = base + ((i * n + j) * n + k)
                vertex = flat.take(idx, axis=1)
                vertex *= gout
                np.sum(vertex, axis=0, out=s[i, j, k])
                w = wrg * wb[k]
                for c in range(3):
                    grad_values[c] += np.bincount(idx, weights=w * gout[c], minlength=n3)

    # chain through the normalized offsets: the weight derivative along one
    # axis pairs the other two axes' weights with the on-axis delta of s.
    # That sum over the cell width is the input gradient; the cell's low
    # knot takes -(1 - xd) times it and its high knot -xd times it
    grad_coords = np.empty((3, n))
    grad_input = np.zeros_like(xd)
    for axis in range(3):
        w_u, w_v = (pairs[a] for a in range(3) if a != axis)
        lo, hi = np.moveaxis(s, axis, 0)
        g_axis = grad_input[axis]
        for u in (0, 1):
            for v in (0, 1):
                term = hi[u, v] - lo[u, v]
                term *= w_u[u] * w_v[v]
                g_axis += term
        g_axis /= gap[axis]
        grad_coords[axis] = np.bincount(
            np.concatenate((e0[axis], e0[axis] + 1)),
            weights=(pairs[axis] * g_axis).ravel(),
            minlength=n,
        )
    np.negative(grad_coords, out=grad_coords)
    return grad_values, grad_coords, grad_input


def backward_pixel(pixel, lattice: Lattice, grad_out) -> LatticeGradients:
    """Gradient contributions of a single pixel given its output gradient."""
    p = _validate_pixel(pixel)
    g = np.asarray(grad_out, dtype=np.float64).reshape(-1)
    if g.shape != (3,):
        raise ValueError(f"grad_out must be a triple, got shape {np.shape(grad_out)}")
    cells = _locate(lattice.coords, p.reshape(3, 1))
    gv, gc, gi = _backward_block(cells, g.reshape(3, 1), lattice.values)
    n = lattice.n_s
    return LatticeGradients(gv.reshape(3, n, n, n), gc, gi.reshape(3))


def transform_vjp(img, lattice: Lattice, workers: int = 1, *, maxval: int | None = None):
    """Forward transform of an image, and a function for its backward.

    Returns (out, backward).  img is read as transform_image reads it:
    floats in [0, 1] with maxval=None, or integer samples in [0, maxval]
    standing for sample / maxval; both give the same bits.  The forward
    locates each pixel's cell once, per row_blocks block.  On the float
    route it keeps the located cells (e0, gap, xd); on the level route
    it keeps nothing beyond the samples, and the backward gathers the
    cells again from the per-level tables.  backward(grad_output) turns
    the loss gradient w.r.t. out into LatticeGradients from those cells.
    Table and coordinate gradients are accumulated into per-block
    buffers that are reduced in block order, so the result does not
    depend on the number of workers.
    """
    coords, values = lattice.coords, lattice.values
    n = lattice.n_s
    flat = values.reshape(3, n * n * n)
    if maxval is None:
        a = validate_image(img)
    else:
        a = validate_samples(img, maxval)
        level_cells = _level_cells(coords, maxval)
        offsets, weights = _level_tables(level_cells, n)
        # flat offsets of each channel's row in the (3, maxval + 1) tables
        level_rows = np.array([[0], [1], [2]]) * (int(maxval) + 1)
    h, w = a.shape[1], a.shape[2]
    out = np.empty_like(a, dtype=np.float64)
    blocks = row_blocks(h, w)

    def forward(block):
        r0, r1 = block
        pix = a[:, r0:r1, :].reshape(3, -1)
        if maxval is None:
            cells = _locate(coords, pix)
            e0, _, xd = cells
            res = _blend(flat, n, _base_index(e0, n), *_weight_pairs(xd))
        else:
            # the samples stay in a, so the backward gathers the cells again
            cells = None
            res = _level_block(pix, offsets, weights, flat, n)
        out[:, r0:r1, :] = res.reshape(3, r1 - r0, w)
        return cells

    located = list(zip(blocks, map_blocks(forward, blocks, workers)))

    def backward(grad_output) -> LatticeGradients:
        g = np.asarray(grad_output, dtype=np.float64)
        if g.shape != a.shape:
            raise ValueError(f"grad_output shape {g.shape} does not match image {a.shape}")
        if not np.all(np.isfinite(g)):
            raise ValueError("grad_output must be finite")
        grad_input = np.empty_like(a, dtype=np.float64)

        def run(item):
            (r0, r1), cells = item
            if cells is None:
                idx = a[:, r0:r1, :].reshape(3, -1) + level_rows
                cells = tuple(table.take(idx) for table in level_cells)
                # freed before the backward's own temporaries peak
                del idx
            gout = g[:, r0:r1, :].reshape(3, -1)
            gv, gc, gi = _backward_block(cells, gout, values)
            grad_input[:, r0:r1, :] = gi.reshape(3, r1 - r0, w)
            return gv, gc

        grad_values = np.zeros((3, n * n * n))
        grad_coords = np.zeros((3, n))
        for gv, gc in map_blocks(run, located, workers):
            grad_values += gv
            grad_coords += gc
        return LatticeGradients(grad_values.reshape(3, n, n, n), grad_coords, grad_input)

    return out, backward


def transform_with_grads(
    img, grad_output, lattice: Lattice, workers: int = 1
) -> tuple[np.ndarray, LatticeGradients]:
    """Forward transform plus summed per-pixel gradient contributions.

    grad_output is the loss gradient w.r.t. the transformed image; see
    transform_vjp, which this runs forward and then backward.
    """
    out, backward = transform_vjp(img, lattice, workers)
    return out, backward(grad_output)
