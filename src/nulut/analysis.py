"""Diagnostics: error histograms over input value, PSNR, CSV/SVG export.

The accumulated error histogram bins the squared input/target error by
the input pixel value, per channel, and normalizes so the bins sum to 1;
its cumulative sum rises steeply over the color ranges where the
underlying transform needs the most correction, which is exactly where a
non-uniform lattice should spend its knots.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import check_finite, check_integer, validate_coordinates
from .transform import check_image_shape, validate_image

DEFAULT_BINS = 1000

_CHANNELS = ("r", "g", "b")


def check_pair(x, y):
    """Two images as float64 arrays of one (3, h, w) shape, h, w >= 1, or ValueError."""
    a = np.asarray(x, dtype=np.float64)
    b = np.asarray(y, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    check_image_shape(a)
    return a, b


def error_map(x, y) -> np.ndarray:
    """Elementwise squared difference between two images of finite values."""
    a, b = check_pair(x, y)
    check_finite("x values", a)
    check_finite("y values", b)
    d = a - b
    return d * d


@dataclass
class ErrorHistogram:
    """Per-channel normalized error histogram and its cumulative form.

    bins and aeh have shape (3, n_bin); theta[c] is the channel's total
    error (the normalizer).  Where theta is zero the histogram is all
    zeros and no_error flags the degenerate channel.
    """

    bins: np.ndarray
    aeh: np.ndarray
    theta: np.ndarray
    no_error: np.ndarray

    @property
    def n_bin(self) -> int:
        return self.bins.shape[1]


def bin_indices(values: np.ndarray, n_bin: int) -> np.ndarray:
    """Half-open uniform bins over [0, 1]; the value 1.0 joins the last bin."""
    return np.minimum((values * n_bin).astype(np.intp), n_bin - 1)


def accumulative_error_histogram(x, y, n_bin: int = DEFAULT_BINS) -> ErrorHistogram:
    """Bin the squared error by input value, per channel, and accumulate.

    x must hold finite values in [0, 1], the range the bins cover, and
    y finite values.
    """
    a = validate_image(x)
    d = error_map(a, y)
    check_integer("n_bin", n_bin, minimum=1)
    bins = np.zeros((3, n_bin))
    theta = np.zeros(3)
    no_error = np.zeros(3, dtype=bool)
    for c in range(3):
        errors = d[c].ravel()
        theta[c] = errors.sum()
        if theta[c] > 0.0:
            idx = bin_indices(a[c].ravel(), n_bin)
            bins[c] = np.bincount(idx, weights=errors, minlength=n_bin) / theta[c]
        else:
            no_error[c] = True
    return ErrorHistogram(bins, np.cumsum(bins, axis=1), theta, no_error)


def psnr(pred, target) -> float:
    """Peak signal-to-noise ratio in dB, capped at 100 for near-zero MSE.

    Both images must hold finite values, as error_map requires.
    """
    mse = float(np.mean(error_map(pred, target)))
    if mse < 1e-10:
        return 100.0
    return -10.0 * np.log10(mse)


def export_diagnostics(coords, hist: ErrorHistogram, path_prefix, svg: bool = False):
    """Write the histogram and knot layout next to each other.

    Emits {prefix}_aeh.csv (channel, bin_center, aeh) always, plus
    {prefix}_coords.csv (channel, index, coordinate) when coords is given
    and {prefix}.svg when svg is requested.  Returns the written paths.
    coords must pass validate_coordinates; it is checked before any file
    is opened.
    """
    if coords is not None:
        coords = validate_coordinates(coords)
    prefix = str(path_prefix)
    written = []
    aeh_path = prefix + "_aeh.csv"
    n_bin = hist.n_bin
    try:
        with open(aeh_path, "w", encoding="ascii") as fh:
            fh.write("channel,bin_center,aeh\n")
            for c, name in enumerate(_CHANNELS):
                for k in range(n_bin):
                    center = (k + 0.5) / n_bin
                    fh.write(f"{name},{center:.17g},{hist.aeh[c, k]:.17g}\n")
        written.append(aeh_path)
        if coords is not None:
            coords_path = prefix + "_coords.csv"
            with open(coords_path, "w", encoding="ascii") as fh:
                fh.write("channel,index,coordinate\n")
                for c, name in enumerate(_CHANNELS):
                    for i, value in enumerate(coords[c]):
                        fh.write(f"{name},{i},{value:.17g}\n")
            written.append(coords_path)
        if svg:
            svg_path = prefix + ".svg"
            with open(svg_path, "w", encoding="ascii") as fh:
                fh.write(_render_svg(coords, hist))
            written.append(svg_path)
    except OSError as exc:
        raise OSError(f"failed writing diagnostics near '{prefix}': {exc}") from exc
    return written


def _render_svg(coords, hist: ErrorHistogram, width=640, height=240, pad=30):
    """Minimal standalone plot: one cumulative curve and tick row per channel."""
    colors = ("#cc3333", "#33aa33", "#3333cc")
    plot_w = width - 2 * pad
    plot_h = height - 2 * pad
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect x="{pad}" y="{pad}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="#888"/>',
    ]
    n_bin = hist.n_bin
    for c in range(3):
        points = []
        for k in range(n_bin):
            px = pad + plot_w * (k + 0.5) / n_bin
            py = pad + plot_h * (1.0 - hist.aeh[c, k])
            points.append(f"{px:.2f},{py:.2f}")
        parts.append(
            f'<polyline points="{" ".join(points)}" fill="none" '
            f'stroke="{colors[c]}" stroke-width="1.2"/>'
        )
        if coords is not None:
            y0 = height - pad + 4 + 5 * c
            for value in coords[c]:
                px = pad + plot_w * value
                parts.append(
                    f'<line x1="{px:.2f}" y1="{y0}" x2="{px:.2f}" y2="{y0 + 4}" '
                    f'stroke="{colors[c]}" stroke-width="1"/>'
                )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
