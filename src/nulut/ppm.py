"""Binary PPM (P6) reading and writing at any maxval from 1 to 65535.

Samples map to [0, 1] as value / maxval on read, or stay integers on
request; writing rounds half up and clips.  As the format requires, a
sample takes one byte when maxval is below 256 and two big-endian bytes
otherwise.  Parse failures report the byte offset where the reader gave
up.  Writing rounds straight into the output raster over the same row
blocks the transform uses (transform.row_blocks), so its temporaries
stay cache-sized on large frames.  It runs on one thread even when
`nulut apply` transforms on every usable CPU; the bytes written depend
on neither count.
"""

from __future__ import annotations

import numpy as np

from .transform import check_image_shape, row_blocks

MAX_MAXVAL = 65535


class PpmParseError(ValueError):
    def __init__(self, message, offset):
        super().__init__(f"{message} (at byte {offset})")
        self.offset = offset


def _skip_space(data, pos):
    while pos < len(data):
        ch = data[pos : pos + 1]
        if ch == b"#":
            while pos < len(data) and data[pos : pos + 1] != b"\n":
                pos += 1
        elif ch.isspace():
            pos += 1
        else:
            break
    return pos


def _read_int(data, pos, what):
    pos = _skip_space(data, pos)
    start = pos
    while pos < len(data) and data[pos : pos + 1].isdigit():
        pos += 1
    if pos == start:
        raise PpmParseError(f"expected {what}", start)
    return int(data[start:pos]), pos


def _sample_dtype(maxval):
    return np.dtype(">u2") if maxval > 255 else np.dtype("u1")


def read_ppm(path, raw: bool = False) -> tuple[np.ndarray, int]:
    """Read a P6 file, returning the (3, h, w) image and its maxval.

    The image holds floats sample / maxval in [0, 1], or with raw=True
    the samples themselves as native-endian uint8 (maxval below 256) or
    uint16, ready for transform_image(..., maxval=maxval).  A sample
    above maxval raises PpmParseError.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:2] != b"P6":
        raise PpmParseError("not a P6 file", 0)
    pos = 2
    width, pos = _read_int(data, pos, "width")
    height, pos = _read_int(data, pos, "height")
    maxval, pos = _read_int(data, pos, "maxval")
    if width < 1 or height < 1:
        raise PpmParseError(f"bad dimensions {width}x{height}", pos)
    if not 1 <= maxval <= MAX_MAXVAL:
        raise PpmParseError(f"unsupported maxval {maxval}", pos)
    if pos >= len(data) or not data[pos : pos + 1].isspace():
        raise PpmParseError("expected single whitespace after maxval", pos)
    pos += 1
    dtype = _sample_dtype(maxval)
    expected = width * height * 3 * dtype.itemsize
    payload = data[pos : pos + expected]
    if len(payload) < expected:
        raise PpmParseError(
            f"truncated payload: need {expected} bytes, have {len(payload)}",
            pos + len(payload),
        )
    raster = np.frombuffer(payload, dtype=dtype).reshape(height, width, 3)
    if maxval < np.iinfo(dtype).max and raster.max() > maxval:
        first = int(np.argmax(raster.reshape(-1) > maxval))
        raise PpmParseError(
            f"sample {raster.reshape(-1)[first]} exceeds maxval {maxval}",
            pos + first * dtype.itemsize,
        )
    if raw:
        return raster.astype(dtype.newbyteorder("=")).transpose(2, 0, 1), maxval
    return raster.astype(np.float64).transpose(2, 0, 1) / maxval, maxval


def read_image(path) -> np.ndarray:
    """Read a P6 file as a normalized (3, h, w) image."""
    return read_ppm(path)[0]


def write_image(img, path, maxval: int = 255) -> None:
    """Write a normalized image as P6, rounding half up and clipping.

    Each sample is clip(floor(x * maxval + 0.5), 0, maxval), computed in
    row blocks straight into the output raster.  A non-finite sample
    raises ValueError before the file is opened.
    """
    if (isinstance(maxval, bool) or not isinstance(maxval, (int, np.integer))
            or not 1 <= maxval <= MAX_MAXVAL):
        raise ValueError(f"unsupported maxval {maxval}")
    a = np.asarray(img, dtype=np.float64)
    check_image_shape(a)
    h, w = a.shape[1], a.shape[2]
    raster = np.empty((h, w, 3), dtype=_sample_dtype(maxval))
    blocks = row_blocks(h, w)
    buf = np.empty((blocks[0][1], w, 3))
    for r0, r1 in blocks:
        # the first pass reads the planes across into raster order, so the
        # rest of the block's passes and its cast run on contiguous memory
        levels = buf[: r1 - r0]
        np.multiply(a[:, r0:r1].transpose(1, 2, 0), maxval, out=levels)
        # a finite sample overflows to inf only beyond 1.7e308 / maxval, so
        # the input block is read again only when its levels are not finite
        if not np.isfinite(levels).all() and not np.isfinite(a[:, r0:r1]).all():
            raise ValueError("image values must be finite")
        levels += 0.5
        np.floor(levels, out=levels)
        np.clip(levels, 0, maxval, out=levels)
        raster[r0:r1] = levels
    header = f"P6\n{w} {h}\n{maxval}\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(raster.tobytes())
