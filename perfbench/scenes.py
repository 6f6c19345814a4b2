"""Seeded synthetic inputs for the benchmark workloads.

Every generator takes a NumPy Generator and returns plain arrays, so the
same seed always yields the same inputs.  Scenes are spatially coherent
(smooth gradients, flat objects, fine grain) rather than noise, because
coherent images hit the lattice cells in runs and cost less per pixel
than noise does; noise would misstate the cost of real footage.
"""

from __future__ import annotations

import numpy as np


def _interp_matrix(n_out: int, n_in: int) -> np.ndarray:
    """(n_out, n_in) weights that resample n_in grid points linearly."""
    pos = np.linspace(0.0, n_in - 1.0, n_out)
    lo = np.minimum(pos.astype(np.intp), n_in - 2)
    frac = pos - lo
    m = np.zeros((n_out, n_in))
    rows = np.arange(n_out)
    m[rows, lo] = 1.0 - frac
    m[rows, lo + 1] = frac
    return m


def _smooth_field(rng, h, w, grid_h, grid_w) -> np.ndarray:
    """(3, h, w) bilinear upsampling of a random (3, grid_h, grid_w) grid."""
    grid = rng.random((3, grid_h, grid_w))
    ay = _interp_matrix(h, grid_h)
    ax = _interp_matrix(w, grid_w)
    return np.stack([ay @ grid[c] @ ax.T for c in range(3)])


def scene(rng, h: int, w: int) -> np.ndarray:
    """A (3, h, w) float64 scene in [0, 1] with exact 0 and 1 regions.

    Large colour gradients plus mid-scale detail, a handful of flat
    rectangles and discs, and a little grain; the exposure is pushed so
    that the darkest and brightest areas clip to exactly 0 and 1.  Large
    frames draw the shapes at a quarter of the resolution, which keeps
    generation cheap; the grain is always per pixel.
    """
    f = 4 if min(h, w) >= 512 else 1
    lh, lw = -(-h // f), -(-w // f)
    img = 0.75 * _smooth_field(rng, lh, lw, 4, 6)
    img += 0.25 * _smooth_field(rng, lh, lw, 24, 40)
    for _ in range(6):
        color = rng.random((3, 1, 1))
        y0, x0 = int(rng.integers(0, lh)), int(rng.integers(0, lw))
        ry = int(rng.integers(lh // 16 + 1, lh // 4 + 2))
        rx = int(rng.integers(lw // 16 + 1, lw // 4 + 2))
        ys = slice(max(0, y0 - ry), min(lh, y0 + ry))
        xs = slice(max(0, x0 - rx), min(lw, x0 + rx))
        if rng.random() < 0.5:
            img[:, ys, xs] = color
        else:
            yy, xx = np.ogrid[ys, xs]
            inside = ((yy - y0) / ry) ** 2 + ((xx - x0) / rx) ** 2 <= 1.0
            img[:, ys, xs] = np.where(inside, color, img[:, ys, xs])
    if f > 1:
        img = img.repeat(f, axis=1).repeat(f, axis=2)[:, :h, :w]
    grain = rng.random((3, h, w), dtype=np.float32)
    grain -= 0.5
    img += 0.014 * grain
    img *= 1.3
    img -= 0.15
    np.clip(img, 0.0, 1.0, out=img)
    return img


def quantize(img) -> np.ndarray:
    """(3, h, w) floats in [0, 1] to an (h, w, 3) uint8 raster, half up."""
    levels = np.floor(np.asarray(img) * 255.0 + 0.5)
    return levels.transpose(1, 2, 0).astype(np.uint8)


def write_p6(raster, path) -> None:
    """Write an (h, w, 3) uint8 raster as a binary PPM."""
    h, w, _ = raster.shape
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(np.ascontiguousarray(raster, dtype=np.uint8).tobytes())


def read_p6(path) -> np.ndarray:
    """Read an 8-bit binary PPM written by write_p6 or by nulut itself."""
    with open(path, "rb") as fh:
        data = fh.read()
    fields = data.split(maxsplit=4)
    if len(fields) < 5 or fields[0] != b"P6" or fields[3] != b"255":
        raise ValueError(f"{path}: not an 8-bit P6 file")
    w, h = int(fields[1]), int(fields[2])
    payload = data[len(data) - 3 * w * h:]
    return np.frombuffer(payload, dtype=np.uint8).reshape(h, w, 3)


# --- colour transforms the workloads fit or approximate -------------------

def grade_params(rng) -> dict:
    """Per-channel crushed-shadow tone curve plus a mild saturation mix."""
    sat = 1.0 + rng.uniform(0.05, 0.15)
    mix = (1.0 - sat) / 3.0 * np.ones((3, 3)) + sat * np.eye(3)
    return {
        "lift": rng.uniform(0.06, 0.12, size=3),
        "gamma": rng.uniform(0.8, 1.25, size=3),
        "mix": mix,
    }


def tone_curve(img, params) -> np.ndarray:
    """Per-channel curve: shadows below `lift` crushed to 0, then a gamma."""
    lift = params["lift"].reshape(3, *([1] * (np.ndim(img) - 1)))
    gamma = params["gamma"].reshape(lift.shape)
    x = np.clip((np.asarray(img) - lift) / (1.0 - lift), 0.0, 1.0)
    return x**gamma


def grade(img, params) -> np.ndarray:
    """The full look: tone curve, then the channel mix, clipped to [0, 1]."""
    x = tone_curve(img, params)
    out = np.tensordot(params["mix"], x, axes=1)
    return np.clip(out, 0.0, 1.0)


def knot_coordinates(rng, n_s: int) -> np.ndarray:
    """Random sorted non-uniform knots, (3, n_s), from 0 to exactly 1."""
    logits = rng.uniform(-1.0, 1.0, size=(3, n_s - 1))
    q = np.exp(logits)
    q /= q.sum(axis=1, keepdims=True)
    coords = np.zeros((3, n_s))
    np.cumsum(q, axis=1, out=coords[:, 1:])
    coords[:, -1] = 1.0
    return coords


def graded_table(coords, params) -> np.ndarray:
    """Table (3, n, n, n) sampling `grade` at the lattice vertices."""
    n = coords.shape[1]
    r, g, b = np.meshgrid(coords[0], coords[1], coords[2], indexing="ij")
    return grade(np.stack([r, g, b]), params).reshape(3, n, n, n)


def style_pair(rng, style: int, size: int) -> tuple[np.ndarray, np.ndarray]:
    """One float (input, target) pair of a two-style training set.

    Style 0 is a low-key image brightened and warmed; style 1 a high-key
    image darkened and cooled.  The styles differ in their input
    histograms, which is what the predictor's features see.
    """
    base = scene(rng, size, size)
    if style == 0:
        img = base**2
        gamma = np.array([0.55, 0.6, 0.7])
    else:
        img = 1.0 - (1.0 - base) ** 2
        gamma = np.array([1.7, 1.6, 1.4])
    return img, img ** gamma.reshape(3, 1, 1)
