"""Applying a non-uniform 3D LUT to images, forward and backward.

The forward path first locates each input color's lattice cell, then
blends the 8 surrounding vertex values with trilinear weights.  A cell
is located in one of two ways:

* float input in [0, 1] uses a binary search per axis (valid because
  the sampling coordinates are sorted);
* quantized input, integer samples k in [0, maxval] standing for
  k / maxval, indexes per-axis tables built once per call for the
  maxval + 1 levels.  The tables hold each level's low knot index and
  weight pair, computed by the float path's own expressions, so the
  two ways give bit-identical results.  The maxval range is owned
  here: MAX_MAXVAL and check_maxval, which ppm reads and writes by.

Both ways give a cell one representation: its low knot index e0 on
each axis and its per-axis weight pairs (1 - xd, xd).  A cell's width,
the gap between knots e0 and e0 + 1, belongs to the lattice, so the
backward gathers it by e0 from widths computed once per call.  Each
call decides its route once, in _route: it validates the input, builds
the level tables on the level route, and gives every row block one
step, cells, which finds the block's cells from its input rows.  One
blend core and one backward core run on those for transform_vjp,
backward_pixel (transform_vjp on a 1x1 image) and mse_vjp;
transform_image is transform_vjp's forward.  The blend and the
backward's table pass walk one corner sequence, _corners, which forms
each corner's flat indices and trilinear weight and gathers its values,
so the weights the backward scatters with are the forward's own bits.
The backward returns analytic gradients of the output with respect to
the table values, the sampling coordinates, and the input colors, so
the whole lattice, knot positions included, can be fitted by gradient
descent.  It dots the output gradient with each corner's three channels
once, then chains that sum along each axis.

transform_vjp is the general VJP: its forward finds each block's cells
and blends them, and keeps nothing; its backward finds each block's
cells again from the same rows (the float route by binary search, the
level route from the tables).  Finding cells is pure, so both passes
see the same bits.  mse_vjp is the training step's pass, for the mean
squared error against a target: each block's job finds its cells once
and runs the blend, the error and its gradient, and the backward on
them, so it holds no full-frame prediction, error or input gradient,
only the squared errors the mean is taken over.

Per-pixel work is independent, so images are processed in row blocks.
One grid, row_blocks, serves the forward transform, the training pass
and PPM writing: blocks of at most CHUNK_ROWS rows and about
CHUNK_PIXELS pixels, so temporaries stay cache-sized on wide images.
The grid depends only on the image size.  The calling thread and
workers - 1 threads of one module-wide block pool take blocks from one
counter; they share the read-only lattice, write disjoint output
slices, and keep private gradient buffers that are reduced in block
order.  Results are therefore bit-identical for any thread count, and
usable_cpus is the count apply and training use.  The pool is started
on first use, grows when a call asks for more threads, up to
POOL_THREADS_PER_CPU (4) threads per usable CPU whatever the workers
asked for, and outlives the calls, so each of its threads keeps a
workspace: 64-byte-aligned buffers, one per named slot, grown on
demand.  A block writes its
temporaries there with out= (indices, weight pairs, gathered corners,
the backward's channel sums and chain terms) in the same operations
and order as allocating them would, so a warm training step allocates
little beyond the arrays it returns and the bincount scatters.  No
returned array views a workspace.  The price is memory kept between
calls: every thread that has run blocks, the callers included, holds
its workspace for as long as it lives, about 104 bytes per block pixel
after a float apply, 128 after a quantized one, 192 after a float
backward or mse_vjp and 216 after a quantized one; at CHUNK_PIXELS that
is 3.4, 4.2, 6.3 and 7.1 MB per thread.  Those figures hold for images
whose rows are at most CHUNK_PIXELS wide: a block is never smaller than
one row, so a wider row of w pixels is a block of w pixels, and the
workspace holds the same bytes per pixel of it.  Pool threads live
until the pool grows or the interpreter exits, so a long-lived process
keeps that for each calling thread and for each pool thread, of which
there are at most 4 * usable_cpus.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .lattice import Lattice, check_finite, check_integer

CHUNK_ROWS = 64
CHUNK_PIXELS = 32768
MAX_MAXVAL = 65535

_CORNERS = [(i, j, k) for i in (0, 1) for j in (0, 1) for k in (0, 1)]


class LookupResult(NamedTuple):
    e0: int
    e1: int
    x0: float
    x1: float


def lookup(coords_row: np.ndarray, x: float) -> LookupResult:
    """Locate x in a sorted coordinate row: cell indices and bounds."""
    return lookup_with_count(coords_row, x)[0]


def lookup_with_count(coords_row: np.ndarray, x: float) -> tuple[LookupResult, int]:
    """Like lookup, also reporting how many comparisons the search used.

    The cell is the rightmost knot index e0 with coords_row[e0] <= x,
    clamped to [0, n_s - 2] as _locate clamps it, so x = 1.0 lands inside
    the last cell with offset 1 instead of falling off the table, and a
    query below a row's first knot lands in the first cell.
    """
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"query must lie in [0, 1], got {x}")
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
    e0 = max(0, min(lo - 1, n - 2))
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
    check_finite("image values", a)
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
    weights = trilinear_weights(*xd)
    out = np.zeros(3)
    for i, j, k in _CORNERS:
        for c in range(3):
            out[c] += weights[i, j, k] * values[c, e[0] + i, e[1] + j, e[2] + k]
    return out


def _locate(coords, pix):
    """Low knot indices e0 and cell offsets xd of pixel columns (3, p)."""
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
    return e0, xd


class _Workspace(threading.local):
    """One thread's block scratch: a 64-byte-aligned byte buffer per slot."""

    def __init__(self):
        self.buffers = {}


_WORKSPACE = _Workspace()
_ALIGN = 64


def _scratch(slot, shape, dtype=np.float64):
    """This thread's buffer for slot, viewed as a C-contiguous array of shape.

    The contents are whatever the slot's last user left.  A buffer grows
    when a larger block asks for it and is never seen by another thread,
    so a block may overwrite it freely; nothing that outlives the block
    may view it.  Slots are named by role and reused across phases:
    "idx" holds the level route's samples of one channel, then corner
    indices; "e0" the level route's low knot indices (the float route's
    come from _locate); "corner" the gathered corners, then the
    backward's knot indices; "wrg" and "w" the corner weights of
    _corners, which the blend and the backward's table pass share, then
    the backward's chain terms; and "cw" the backward's weighted output
    gradients, then the cell widths.
    """
    dtype = np.dtype(dtype)
    nbytes = dtype.itemsize * math.prod(shape)
    buffers = _WORKSPACE.buffers
    buf = buffers.get(slot)
    if buf is None or buf.nbytes < nbytes:
        # unaligned out= buffers measured twice as slow in np.multiply
        raw = np.empty(nbytes + _ALIGN, dtype=np.uint8)
        start = -raw.ctypes.data % _ALIGN
        buf = buffers[slot] = raw[start:start + nbytes]
    return buf[:nbytes].view(dtype).reshape(shape)


def _rows(a, r0, r1):
    """Rows r0:r1 of a (3, h, w) array as (3, p) pixel columns.

    A view whenever a's row stride is its width times its column stride,
    as in a C-ordered array and in the channel-last (h, w, 3) memory
    read_ppm returns, so writing the columns writes a; the one array
    written this way, transform_vjp's grad_input, is allocated
    C-ordered.  In other layouts the rows come back as copies, which
    are only ever read.
    """
    return a[:, r0:r1, :].reshape(3, -1)


def _weight_pairs(xd, out=None):
    """Per-axis trilinear weight pairs (1 - xd, xd), shape (3, 2, ...)."""
    pairs = np.empty((3, 2) + xd.shape[1:]) if out is None else out
    pairs[:, 1] = xd
    np.subtract(1.0, xd, out=pairs[:, 0])
    return pairs


def _base_index(e0, n):
    """Flat index (e_r * n + e_g) * n + e_b of cells' low corners, in the workspace."""
    base = _scratch("base", (e0.shape[1],), np.intp)
    np.multiply(e0[0], n, out=base)
    base += e0[1]
    base *= n
    base += e0[2]
    return base


def _corners(flat, n, base, pairs):
    """Walk the 8 corners above the low corners base, in (i, j, k) order.

    flat is the (3, n^3) table and pairs the per-axis weight pairs.
    Yields ((i, j, k), idx, corner, w) for each corner: its flat indices
    (p,), its gathered values (3, p) and its weights (wr[i] * wg[j]) *
    wb[k], operation for operation as transform_pixel forms them.  All
    three live in the thread's workspace slots "idx", "corner" and "w"
    (the product wr[i] * wg[j] in "wrg"), so each step overwrites the
    last; a consumer may change them in place.  The blend and the
    backward's table pass both walk this one sequence.
    """
    wr, wg, wb = pairs
    p = base.shape[0]
    idx = _scratch("idx", (p,), np.intp)
    corner = _scratch("corner", (3, p))
    wrg = _scratch("wrg", (p,))
    w = _scratch("w", (p,))
    for i, j, k in _CORNERS:
        if k == 0:
            np.multiply(wr[i], wg[j], out=wrg)
        np.add(base, (i * n + j) * n + k, out=idx)
        # with the default mode="raise", take(out=) copies its whole output
        # to keep out intact on a bad index.  No index here is bad: e0 is
        # clamped to [0, n - 2], so "clip" never clips
        flat.take(idx, axis=1, out=corner, mode="clip")
        np.multiply(wrg, wb[k], out=w)
        yield (i, j, k), idx, corner, w


def _blend(flat, n, base, pairs):
    """Trilinear blend of the 8 corners above the low corners base, (3, p).

    The sum is a new array: copied into the image's rows, it measured
    faster on 1080p frames than blending straight into them.  Corners
    come from _corners and are summed from zero in its order, operation
    for operation as transform_pixel does, so every path through here
    agrees bit-exactly.
    """
    out = np.zeros((3, base.shape[0]))
    for _, _, corner, w in _corners(flat, n, base, pairs):
        corner *= w
        out += corner
    return out


def _level_cells(samples, e0_table, pairs_table):
    """Low knot indices e0 (3, p) and weight pairs of samples, in the workspace.

    samples is a (3, rows, w) block of quantized samples; each channel's
    are copied into the "idx" slot as indices into _route's level
    tables.  Sample values are validated to [0, maxval], the tables'
    range, so mode="clip" never clips.
    """
    p = samples.shape[1] * samples.shape[2]
    sidx = _scratch("idx", (p,), np.intp)
    e0 = _scratch("e0", (3, p), np.intp)
    pairs = _scratch("pairs", (3, 2, p))
    for c in range(3):
        np.copyto(sidx.reshape(samples.shape[1:]), samples[c], casting="unsafe")
        e0_table[c].take(sidx, out=e0[c], mode="clip")
        pairs_table[c].take(sidx, axis=1, out=pairs[c], mode="clip")
    return e0, pairs


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


POOL_THREAD_NAME = "nulut-blocks"
POOL_THREADS_PER_CPU = 4


class _BlockPool:
    """The pool threads every map_blocks call shares, started on first use.

    It grows when a call asks for more threads than it has, up to
    POOL_THREADS_PER_CPU * usable_cpus() threads, and never shrinks.
    Shares beyond that bound queue behind the others; they find the
    block counter drained or are cancelled, so no result changes.  Its
    threads outlive the calls, so their workspaces stay warm; idle, they
    end when the interpreter exits.

    It sizes one executor to the threads asked for rather than keeping
    one large stdlib ThreadPoolExecutor: a cancelled share frees its
    thread only after the next submit has already started a new one, so
    ThreadPoolExecutor(max(32, usable_cpus())) grew to 32 threads over
    3,000 two-block calls, where this pool keeps 1.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._executor = None
        self._threads = 0

    def submit(self, fn, count):
        """count futures of fn(), on a pool of at least min(count, bound) threads."""
        threads = min(count, POOL_THREADS_PER_CPU * usable_cpus())
        with self._lock:
            if threads > self._threads:
                # the old executor finishes what it was given, then its threads end
                if self._executor is not None:
                    self._executor.shutdown(wait=False)
                self._executor = ThreadPoolExecutor(threads, thread_name_prefix=POOL_THREAD_NAME)
                self._threads = threads
            return [self._executor.submit(fn) for _ in range(count)]


_POOL = _BlockPool()


def map_blocks(run, blocks, workers):
    """run(block) for every item of blocks, results in item order.

    The items are independent units of work: an image's row blocks, or
    the jobs of a training step (its pixel side and regularizers, or
    Adam's chunks).  With more than one worker, the calling thread runs
    the first item, and it and workers - 1 threads of the module's one
    block pool take the other item indices from one shared counter, so
    the caller does a share of the work instead of waiting on the pool.
    With one item or one worker, the caller runs every item and the pool
    is not touched.  Once the counter is drained, shares no pool thread
    has started are cancelled and only running ones are waited for, so
    a call made from inside a share, on the caller or on a pool thread,
    never waits on a pool that is busy running it; a cancelled share
    stays queued until a pool thread is free, but holds on to none of
    the call's items or results.  When any share
    raises, no further item starts; the call waits for the shares still
    running and re-raises.  No item runs after the call returns.

    Each thread that runs row blocks keeps the workspace buffers its
    blocks grew after the call returns (up to 7.1 MB for a training
    backward on rows at most CHUNK_PIXELS wide; a wider row is a block
    of its own width, see the module docstring), so the pool's memory
    grows with workers.  The pool runs at most POOL_THREADS_PER_CPU *
    usable_cpus() threads whatever workers is; shares beyond that queue,
    and the results are the same bits.
    workers must be an integer >= 1; every transform entry checks it
    here, before the pool is touched.
    """
    check_integer("workers", workers, minimum=1)
    threads = min(workers, len(blocks))
    if threads <= 1:
        return [run(block) for block in blocks]
    results = [None] * len(blocks)
    lock = threading.Lock()
    taken = 1  # blocks handed out, the first to the caller; all once a share fails

    def claim():
        nonlocal taken
        with lock:
            if taken == len(blocks):
                return None
            taken += 1
            return taken - 1

    def drain(i):
        nonlocal taken
        while i is not None:
            try:
                results[i] = run(blocks[i])
            except BaseException:
                with lock:
                    taken = len(blocks)
                raise
            i = claim()

    futures = _POOL.submit(lambda: drain(claim()), threads - 1)
    try:
        drain(0)
    finally:
        # wait() would also wait for a cancelled future until a pool thread
        # dequeues it, so only the shares that did start are waited for
        started = [future for future in futures if not future.cancel()]
        wait(started)
        # a cancelled share stays queued until a pool thread dequeues it, so
        # its closure must not keep this call's items and results alive
        done, run, blocks, results = results, None, None, None
    for future in started:
        future.result()
    return done


def _route(img, lattice: Lattice, maxval):
    """Validate one call's input once and decide how its blocks find their cells.

    Returns (a, cells).  a is the checked array.  A cell is its low knot
    indices e0 (3, p) and its per-axis weight pairs; cells(r0, r1) finds
    those of rows r0:r1 from those rows of a and returns (base, pairs,
    e0), base being the flat low-corner indices, with every array but
    the float route's e0 in the thread's workspace.  The float route
    (maxval=None) locates cells by binary search; the level route
    gathers them from two tables built here once per call.  Finding
    them is pure, so neither route keeps a block's cells between the
    forward and the backward.
    """
    if maxval is None:
        a = validate_image(img)

        def find(r0, r1):
            e0, xd = _locate(lattice.coords, _rows(a, r0, r1))
            return e0, _weight_pairs(xd, _scratch("pairs", (3, 2, xd.shape[1])))
    else:
        a = validate_samples(img, maxval)
        # the float route's cells for the floats k / maxval, so gathering them
        # by sample k gives bit-identical cells.  int(): maxval + 1 on a uint16
        # scalar at MAX_MAXVAL would wrap to 0
        levels = np.arange(int(maxval) + 1, dtype=np.float64) / maxval
        level_e0, level_xd = _locate(lattice.coords, np.tile(levels, (3, 1)))
        level_pairs = _weight_pairs(level_xd)

        def find(r0, r1):
            return _level_cells(a[:, r0:r1, :], level_e0, level_pairs)

    def cells(r0, r1):
        e0, pairs = find(r0, r1)
        return _base_index(e0, lattice.n_s), pairs, e0

    return a, cells


def transform_image(
    img, lattice: Lattice, workers: int = 1, *, maxval: int | None = None
) -> np.ndarray:
    """Apply the lattice to every pixel of a (3, h, w) image.

    With maxval=None, img holds floats in [0, 1].  With an integer
    maxval, img holds integer samples in [0, maxval] (as read by
    read_ppm(path, raw=True)) standing for sample / maxval, and cells are
    located through per-level tables; the output is bit-identical to
    transforming img / maxval.

    This is transform_vjp's forward, which keeps no block's cells, so
    nothing outlives the call but the output.

    The output is not clamped; clamping to [0, 1] belongs at the final
    image-writing boundary, never inside a training loop where it would
    zero gradients.
    """
    return transform_vjp(img, lattice, workers, maxval=maxval)[0]


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


def _backward_block(base, pairs, e0, gout, flat, widths, grad_input):
    """Gradient contributions of one pixel block.

    base, pairs and e0 are the block's cells as _route's cells returns
    them; widths (3, n - 1) are the lattice's cell widths, gathered by
    e0.  The input gradient is written into grad_input (3, p), which may
    be gout itself: gout is read only before grad_input is first
    written.  Returns
    (grad_values_flat (3, n^3), grad_coords (3, n)), both newly
    allocated.  Every other temporary lives in the thread's workspace.
    The table pass walks the corners _blend walks, through _corners, and
    scatters with their weights.  Scatter order is fixed: corners in
    (i, j, k) order, pixels in block order within each corner.
    """
    n = widths.shape[1] + 1
    n3 = n * n * n
    p = base.shape[0]
    cw = _scratch("cw", (p,))

    # s[i, j, k] is the output gradient dotted with the vertex values at
    # (e_r + i, e_g + j, e_b + k): the channel sum every axis below needs
    s = _scratch("s", (2, 2, 2, p))
    grad_values = np.zeros((3, n3))
    for ijk, idx, vertex, w in _corners(flat, n, base, pairs):
        vertex *= gout
        np.sum(vertex, axis=0, out=s[ijk])
        for c in range(3):
            np.multiply(w, gout[c], out=cw)
            grad_values[c] += np.bincount(idx, weights=cw, minlength=n3)

    # chain through the normalized offsets: the weight derivative along one
    # axis pairs the other two axes' weights with the on-axis delta of s.
    # That sum over the cell width is the input gradient; the cell's low
    # knot takes -(1 - xd) times it and its high knot -xd times it
    grad_coords = np.empty((3, n))
    grad_input.fill(0.0)
    term, w_uv = _scratch("wrg", (p,)), _scratch("w", (p,))
    knots = _scratch("corner", (2, p), np.intp)
    knot_weights = _scratch("knot_weights", (2, p))
    for axis in range(3):
        w_u, w_v = (pairs[a] for a in range(3) if a != axis)
        lo, hi = np.moveaxis(s, axis, 0)
        g_axis = grad_input[axis]
        for u in (0, 1):
            for v in (0, 1):
                np.subtract(hi[u, v], lo[u, v], out=term)
                np.multiply(w_u[u], w_v[v], out=w_uv)
                term *= w_uv
                g_axis += term
        knots[0] = e0[axis]
        g_axis /= widths[axis].take(knots[0], out=cw, mode="clip")
        np.add(knots[0], 1, out=knots[1])
        np.multiply(pairs[axis], g_axis, out=knot_weights)
        grad_coords[axis] = np.bincount(
            knots.reshape(-1), weights=knot_weights.reshape(-1), minlength=n
        )
    np.negative(grad_coords, out=grad_coords)
    return grad_values, grad_coords


def backward_pixel(pixel, lattice: Lattice, grad_out) -> LatticeGradients:
    """Gradient contributions of a single pixel given its output gradient.

    This is transform_vjp's backward on a 1x1 image, so grad_out must be
    finite.
    """
    p = _validate_pixel(pixel)
    g = np.asarray(grad_out, dtype=np.float64).reshape(-1)
    if g.shape != (3,):
        raise ValueError(f"grad_out must be a triple, got shape {np.shape(grad_out)}")
    _, backward = transform_vjp(p.reshape(3, 1, 1), lattice)
    grads = backward(g.reshape(3, 1, 1))
    return LatticeGradients(grads.grad_values, grads.grad_coords, grads.grad_input.reshape(3))


def transform_vjp(img, lattice: Lattice, workers: int = 1, *, maxval: int | None = None):
    """Forward transform of an image, and a function for its backward.

    Returns (out, backward).  img is read as transform_image reads it:
    floats in [0, 1] with maxval=None, or integer samples in [0, maxval]
    standing for sample / maxval; both give the same bits.  The route is
    decided once per call, by _route.  The forward finds each row_blocks
    block's cells, (e0, pairs), and blends them, and keeps nothing but
    out.  backward(grad_output) finds each block's cells again from the
    same input rows, by the same pure steps, and turns the loss gradient
    w.r.t. out into LatticeGradients from them, dividing by the cell
    widths np.diff(lattice.coords, axis=1) taken once per call.  Table
    and coordinate gradients are accumulated into per-block buffers that
    are reduced in block order, so the result does not depend on the
    number of workers.
    """
    a, cells = _route(img, lattice, maxval)
    n = lattice.n_s
    flat = lattice.values.reshape(3, n * n * n)
    # a cell's width is coords[c, e0 + 1] - coords[c, e0], the subtraction
    # _locate makes, so the backward divides by the bits the forward did
    widths = np.diff(lattice.coords, axis=1)
    h, w = a.shape[1], a.shape[2]
    out = np.empty_like(a, dtype=np.float64)
    blocks = row_blocks(h, w)

    def forward(block):
        r0, r1 = block
        out[:, r0:r1, :] = _blend(flat, n, *cells(r0, r1)[:2]).reshape(3, r1 - r0, w)

    map_blocks(forward, blocks, workers)

    def backward(grad_output) -> LatticeGradients:
        g = np.asarray(grad_output, dtype=np.float64)
        if g.shape != a.shape:
            raise ValueError(f"grad_output shape {g.shape} does not match image {a.shape}")
        check_finite("grad_output", g)
        # C-ordered whatever a's layout, so each block's rows are a view of it
        grad_input = np.empty(a.shape)

        def run(block):
            r0, r1 = block
            return _backward_block(*cells(r0, r1), _rows(g, r0, r1), flat, widths,
                                   _rows(grad_input, r0, r1))

        grad_values, grad_coords = _sum_blocks(map_blocks(run, blocks, workers), n)
        return LatticeGradients(grad_values, grad_coords, grad_input)

    return out, backward


def _sum_blocks(parts, n):
    """The per-block (grad_values_flat, grad_coords) of _backward_block, summed
    in block order: (grad_values (3, n, n, n), grad_coords (3, n))."""
    # each block's table gradient is a sum started from zeros, so it holds
    # no -0.0 and starting from the first block's gives the bits that
    # starting from zeros would; the knot gradients are negated, so not theirs
    grad_values = parts[0][0]
    for gv, _ in parts[1:]:
        grad_values += gv
    grad_coords = np.zeros((3, n))
    for _, gc in parts:
        grad_coords += gc
    return grad_values.reshape(3, n, n, n), grad_coords


def _difference_like(a, t):
    """An empty float64 frame laid out as NumPy lays out a float copy of a minus t.

    NumPy orders a result's axes by its operands' strides, C order
    winning where they disagree, so a 2x2 corner of each channel shows
    the order, and the frame is allocated in it.  The mean of a frame
    sums in memory order, so this layout keeps those bits.
    """
    corner = np.empty_like(a[:, :2, :2], dtype=np.float64) - t[:, :2, :2]
    order = np.argsort([-s for s in corner.strides], kind="stable")  # outermost axis first
    return np.empty([a.shape[axis] for axis in order]).transpose(np.argsort(order))


def mse_vjp(img, target, lattice: Lattice, workers: int = 1, *, maxval: int | None = None):
    """Mean squared error of the transformed image against target, and its gradients.

    Returns (loss, grad_values, grad_coords): the error over all 3*h*w
    entries and its gradients w.r.t. the table values (3, n, n, n) and
    the sampling coordinates (3, n).  img is read as transform_image
    reads it; target must have its shape and finite values.  The bits
    are those of transform_vjp's forward, reconstruction_loss_grad and
    the backward, at any worker count.

    It is one map_blocks pass: each row block's job finds its cells
    once, blends them, subtracts the target's rows in place, writes the
    squares into its rows of one frame, scales the difference into the
    output gradient in place, and runs the backward on the same cells,
    writing the input gradient over the difference.  So the call holds
    no full-frame prediction, difference or input gradient; the
    squares' frame is laid out as the prediction minus the target
    would be, so its mean sums in the same order.
    """
    a, cells = _route(img, lattice, maxval)
    t = np.asarray(target, dtype=np.float64)
    if t.shape != a.shape:
        raise ValueError(f"target shape {t.shape} does not match image {a.shape}")
    check_finite("target values", t)
    n = lattice.n_s
    flat = lattice.values.reshape(3, n * n * n)
    widths = np.diff(lattice.coords, axis=1)
    h, w = a.shape[1], a.shape[2]
    sq = _difference_like(a, t)

    def run(block):
        r0, r1 = block
        base, pairs, e0 = cells(r0, r1)
        # reconstruction_loss_grad's operations, on this block's rows
        d = _blend(flat, n, base, pairs)
        d -= _rows(t, r0, r1)
        rows = d.reshape(3, r1 - r0, w)
        np.multiply(rows, rows, out=sq[:, r0:r1, :])
        d *= 2.0
        d /= sq.size
        # the input gradient, which nothing reads, overwrites d once d is read
        return _backward_block(base, pairs, e0, d, flat, widths, d)

    grad_values, grad_coords = _sum_blocks(map_blocks(run, row_blocks(h, w), workers), n)
    return float(np.mean(sq)), grad_values, grad_coords


def transform_with_grads(
    img, grad_output, lattice: Lattice, workers: int = 1
) -> tuple[np.ndarray, LatticeGradients]:
    """Forward transform plus summed per-pixel gradient contributions.

    grad_output is the loss gradient w.r.t. the transformed image; see
    transform_vjp, which this runs forward and then backward.
    """
    out, backward = transform_vjp(img, lattice, workers)
    return out, backward(grad_output)
