"""Binary PPM (P6) reading and writing at 8 and 16 bits per sample.

Samples map to [0, 1] as value / maxval on read, or stay integers on
request; writing rounds half up and clips.  16-bit samples are big
endian as the format requires.  Parse failures report the byte offset
where the reader gave up.
"""

from __future__ import annotations

import numpy as np

SUPPORTED_MAXVALS = (255, 65535)


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


def read_ppm(path, raw: bool = False) -> tuple[np.ndarray, int]:
    """Read a P6 file, returning the (3, h, w) image and its maxval.

    The image holds floats sample / maxval in [0, 1], or with raw=True
    the samples themselves as native-endian uint8 (maxval 255) or uint16
    (maxval 65535), ready for transform_image(..., maxval=maxval).
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
    if maxval not in SUPPORTED_MAXVALS:
        raise PpmParseError(f"unsupported maxval {maxval}", pos)
    if pos >= len(data) or not data[pos : pos + 1].isspace():
        raise PpmParseError("expected single whitespace after maxval", pos)
    pos += 1
    dtype = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
    expected = width * height * 3 * dtype.itemsize
    payload = data[pos : pos + expected]
    if len(payload) < expected:
        raise PpmParseError(
            f"truncated payload: need {expected} bytes, have {len(payload)}",
            pos + len(payload),
        )
    raster = np.frombuffer(payload, dtype=dtype).reshape(height, width, 3)
    if raw:
        return raster.astype(dtype.newbyteorder("=")).transpose(2, 0, 1), maxval
    return raster.astype(np.float64).transpose(2, 0, 1) / maxval, maxval


def read_image(path) -> np.ndarray:
    """Read a P6 file as a normalized (3, h, w) image."""
    return read_ppm(path)[0]


def write_image(img, path, maxval: int = 255) -> None:
    """Write a normalized image as P6, rounding half up and clipping."""
    if maxval not in SUPPORTED_MAXVALS:
        raise ValueError(f"unsupported maxval {maxval}")
    a = np.asarray(img, dtype=np.float64)
    if a.ndim != 3 or a.shape[0] != 3:
        raise ValueError(f"image must have shape (3, h, w), got {a.shape}")
    levels = np.floor(a * maxval + 0.5)
    np.clip(levels, 0, maxval, out=levels)
    dtype = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
    raster = levels.transpose(1, 2, 0).astype(dtype)
    header = f"P6\n{a.shape[2]} {a.shape[1]}\n{maxval}\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(raster.tobytes())
