"""Binary PPM (P6) reading and writing at any maxval from 1 to MAX_MAXVAL.

transform owns that range: write_image checks it with check_maxval, and
read_ppm reads the same MAX_MAXVAL but reports a bad header by offset.

Samples map to [0, 1] as value / maxval on read, or stay integers on
request (apply, fit and train read their inputs that way, for the
transform's level tables); writing rounds half up and clips.  As the
format requires, a sample takes one byte when maxval is below 256 and
two big-endian bytes otherwise.

The header is the magic P6, then width, height and maxval as unsigned
decimal integers.  Before each field may come any run of the six ASCII
whitespace bytes (space, \\t, \\n, \\r, \\v, \\f) and # comments, a
comment running to the end of its line or of the file; one compiled
pattern, _FIELD, reads each field that way.  Exactly one whitespace
byte follows maxval, and the raster starts right after it.  Parse
failures raise PpmParseError, which names the byte offset where the
reader gave up.  A field with more digits than int() converts (4,300
by default, sys.get_int_max_str_digits(); leading zeros count) raises
PpmParseError "<field> too long" at the field's first digit.

Writing rounds straight into the output raster over the same row blocks
the transform uses (transform.row_blocks), so its temporaries stay
cache-sized on large frames.  It runs on one thread even when `nulut
apply` transforms on every usable CPU; the bytes written do not depend
on that count.
"""

from __future__ import annotations

import re

import numpy as np

from .lattice import check_finite
from .transform import MAX_MAXVAL, check_image_shape, check_maxval, row_blocks


class PpmParseError(ValueError):
    def __init__(self, message, offset):
        super().__init__(f"{message} (at byte {offset})")
        self.offset = offset


# a header field: any run of ASCII whitespace and # comments (each to the
# end of its line), then the field's digits; the digits may match empty, so
# the pattern matches at every position and never backtracks
_FIELD = re.compile(rb"(?:\s|#[^\n]*)*(\d*)")


def _read_int(data, pos, what):
    m = _FIELD.match(data, pos)
    digits = m.group(1)
    if not digits:
        raise PpmParseError(f"expected {what}", m.start(1))
    try:
        return int(digits), m.end()
    except ValueError:
        # int() refuses more digits than sys.get_int_max_str_digits()
        raise PpmParseError(f"{what} too long: {len(digits)} digits", m.start(1)) from None


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
    samples = width * height * 3
    if samples * dtype.itemsize > len(data) - pos:
        # named by its fields: the product may have more digits than str() writes
        raise PpmParseError(f"truncated payload: {width}x{height} pixels of "
                            f"{3 * dtype.itemsize} bytes, have {len(data) - pos} bytes",
                            len(data))
    raster = np.frombuffer(data, dtype, samples, pos).reshape(height, width, 3)
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
    check_maxval(maxval)
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
        if not np.isfinite(levels).all():
            check_finite("image values", a[:, r0:r1])
        levels += 0.5
        np.floor(levels, out=levels)
        np.clip(levels, 0, maxval, out=levels)
        raster[r0:r1] = levels
    header = f"P6\n{w} {h}\n{maxval}\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(raster.tobytes())
