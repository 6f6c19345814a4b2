"""Serialization: the native lattice checkpoint and .cube export.

The native format is a plain-text token stream so diffs stay readable:

    NULUT3D 1
    size <n_s>
    coords r <n_s floats>
    coords g <n_s floats>
    coords b <n_s floats>
    values
    <3 * n_s^3 floats in channel, i, j, k order, k fastest>
    [predictor <f_dim> <m> <shared 0|1>
     g_weights <...> g_bias <...> h0_weights <...> h0_bias <...>
     h1_weights <...> h1_bias <...>]

The predictor arrays follow predictor.PARAM_ARRAYS, each under its field
name except basis_luts, which the file calls h1_weights (_FILE_NAMES).
Floats are written with 17 significant digits, which round-trips IEEE
doubles exactly.  Loading re-validates every lattice invariant.
"""

from __future__ import annotations

import math

import numpy as np

from .lattice import Lattice
from .predictor import PARAM_ARRAYS, PredictorParams, param_shapes
from .transform import transform_image

FORMAT_MAGIC = "NULUT3D"
FORMAT_VERSION = 1

# PredictorParams field -> its section name in the file, where they differ
_FILE_NAMES = {"basis_luts": "h1_weights"}


class LutFormatError(ValueError):
    pass


def _fmt(values):
    return " ".join(f"{v:.17g}" for v in values)


def save_lattice(lattice: Lattice, path, predictor: PredictorParams | None = None):
    """Write a lattice (and optionally predictor parameters) to path."""
    n = lattice.n_s
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{FORMAT_MAGIC} {FORMAT_VERSION}\n")
        fh.write(f"size {n}\n")
        for c, name in enumerate("rgb"):
            fh.write(f"coords {name} {_fmt(lattice.coords[c])}\n")
        fh.write("values\n")
        flat = lattice.values.reshape(3 * n * n, n)
        for row in flat:
            fh.write(_fmt(row) + "\n")
        if predictor is not None:
            shared = 1 if predictor.shared else 0
            fh.write(f"predictor {predictor.f_dim} {predictor.m} {shared}\n")
            for name in PARAM_ARRAYS:
                fh.write(f"{_FILE_NAMES.get(name, name)}\n")
                for row in np.atleast_2d(getattr(predictor, name)):
                    fh.write(_fmt(row) + "\n")


class _Tokens:
    def __init__(self, text):
        self.tokens = text.split()
        self.pos = 0

    def next(self, what):
        if self.pos >= len(self.tokens):
            raise LutFormatError(f"unexpected end of file, expected {what}")
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, literal):
        tok = self.next(f"'{literal}'")
        if tok != literal:
            raise LutFormatError(f"expected '{literal}', found '{tok}'")

    def take_int(self, what):
        tok = self.next(what)
        try:
            return int(tok)
        except ValueError:
            raise LutFormatError(f"expected integer {what}, found '{tok}'") from None

    def take_floats(self, count, what):
        # the slice holds at most the tokens left, so a count larger than
        # the file allocates nothing before it is reported
        chunk = self.tokens[self.pos : self.pos + count]
        if len(chunk) == count:
            try:
                out = np.array(chunk, dtype=np.float64)
            except ValueError:
                pass  # the token loop below names the bad token
            else:
                self.pos += count
                return out
        out = np.empty(len(chunk))
        for i, tok in enumerate(chunk):
            try:
                out[i] = float(tok)
            except ValueError:
                raise LutFormatError(
                    f"expected float in {what}, found '{tok}'"
                ) from None
        if len(chunk) < count:
            raise LutFormatError(f"unexpected end of file, expected {what} value {len(chunk)}")
        self.pos += count
        return out

    def done(self):
        return self.pos >= len(self.tokens)


def load_checkpoint(path) -> tuple[Lattice, PredictorParams | None]:
    """Read a checkpoint, returning the lattice and any predictor section."""
    with open(path, "r", encoding="ascii") as fh:
        toks = _Tokens(fh.read())
    magic = toks.next("format magic")
    if magic != FORMAT_MAGIC:
        raise LutFormatError(f"bad magic '{magic}', expected '{FORMAT_MAGIC}'")
    version = toks.take_int("format version")
    if version != FORMAT_VERSION:
        raise LutFormatError(f"unsupported version {version}")
    toks.expect("size")
    n = toks.take_int("lattice size")
    if n < 2:
        raise LutFormatError(f"lattice size must be >= 2, got {n}")
    rows = []
    for name in "rgb":
        toks.expect("coords")
        toks.expect(name)
        rows.append(toks.take_floats(n, f"coords {name}"))
    coords = np.array(rows)
    toks.expect("values")
    values = toks.take_floats(3 * n**3, "values").reshape(3, n, n, n)
    try:
        lattice = Lattice(coords, values)
    except ValueError as exc:
        raise LutFormatError(str(exc)) from None

    predictor = None
    if not toks.done():
        toks.expect("predictor")
        f_dim = toks.take_int("feature dimension")
        m = toks.take_int("basis count")
        shared = toks.take_int("shared flag")
        if f_dim < 1 or m < 1:
            raise LutFormatError(f"predictor f_dim and m must be >= 1, got f_dim={f_dim}, m={m}")
        if shared not in (0, 1):
            raise LutFormatError(f"shared flag must be 0 or 1, got {shared}")
        arrays = {}
        for name, shape in param_shapes(n, m, f_dim, bool(shared)).items():
            section = _FILE_NAMES.get(name, name)
            toks.expect(section)
            # math.prod stays exact where a header's sizes overflow int64
            arrays[name] = toks.take_floats(math.prod(shape), section).reshape(shape)
        predictor = PredictorParams(**arrays, n_s=n, m=m, f_dim=f_dim, shared=bool(shared))
    if not toks.done():
        raise LutFormatError(f"trailing data from token {toks.pos}")
    return lattice, predictor


def load_lattice(path) -> Lattice:
    """Read just the lattice from a checkpoint."""
    return load_checkpoint(path)[0]


def export_cube(lattice: Lattice, n_out: int, path) -> None:
    """Resample onto a uniform grid and write Adobe/Resolve .cube text.

    The .cube format only supports uniform grids, so each output entry is
    the lattice transform evaluated at the grid point, clipped to [0, 1].
    Lines run with the red index fastest, as the format requires.
    """
    if n_out < 2:
        raise ValueError(f"cube size must be >= 2, got {n_out}")
    grid = np.arange(n_out, dtype=np.float64) / (n_out - 1)
    grid[-1] = 1.0
    line = np.arange(n_out**3)
    red = line % n_out
    green = (line // n_out) % n_out
    blue = line // (n_out * n_out)
    pix = np.stack([grid[red], grid[green], grid[blue]], axis=0)
    out = transform_image(pix.reshape(3, 1, -1), lattice).reshape(3, -1)
    np.clip(out, 0.0, 1.0, out=out)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"LUT_3D_SIZE {n_out}\n")
        for col in range(out.shape[1]):
            fh.write(f"{out[0, col]:.17g} {out[1, col]:.17g} {out[2, col]:.17g}\n")
