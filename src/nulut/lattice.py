"""Non-uniform 3D lattice construction from learned interval parameters.

A lattice is a 3D lookup table whose knot positions along each color axis
are free parameters instead of a fixed uniform grid.  The knots are
parameterized by unnormalized interval logits (shape 3 x (n_s - 1)): a
row-wise softmax turns them into positive intervals summing to one, and a
cumulative sum with a prepended origin turns the intervals into monotone
sampling coordinates in [0, 1].  This construction keeps the coordinates
bounded and strictly increasing for any finite logits, which is what makes
binary-search lookup valid and the whole pipeline differentiable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Intervals are floored here so the transform backward pass never divides
# by a vanishing cell width.
MIN_INTERVAL = 1e-6

_COORD_END_TOL = 1e-9


def check_integer(name, value, minimum=None) -> None:
    """Raise ValueError naming the field unless value is an integer (not a bool) >= minimum.

    The one check every library entry runs on its sizes and counts, so a
    float such as 3.0 is refused by name instead of being truncated or
    failing later without one ("n_s must be an integer, got 3.0").  With
    a minimum, a smaller value is refused with it ("n_s must be >= 2,
    got 1"); without one, any integer passes.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")


def check_finite(name, a) -> None:
    """Raise ValueError(f"{name} must be finite") if a holds a NaN or an infinity.

    The one finiteness check every library entry runs on its arrays, so
    each message reads the same way; name says what was checked
    ("image values", "grad_output").
    """
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} must be finite")


def softmax_normalize(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax of interval logits, floored at MIN_INTERVAL.

    Input is a 3 x (n_s - 1) matrix of finite reals, one row per color
    axis.  Each row of the output is strictly positive and sums to 1.
    """
    q = np.asarray(logits, dtype=np.float64)
    if q.ndim != 2 or q.shape[0] != 3 or q.shape[1] < 1:
        raise ValueError(f"interval logits must have shape (3, k>=1), got {q.shape}")
    check_finite("interval logits", q)
    shifted = q - q.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=1, keepdims=True)
    if np.any(out < MIN_INTERVAL):
        out = np.maximum(out, MIN_INTERVAL)
        out /= out.sum(axis=1, keepdims=True)
    return out


def intervals_to_coordinates(intervals: np.ndarray) -> np.ndarray:
    """Turn normalized intervals into sampling coordinates.

    Row c of the result is [0, cumsum(intervals[c])] with the final entry
    pinned to exactly 1.0, so inputs at the top of the range always fall
    inside the last lattice cell.
    """
    q = np.asarray(intervals, dtype=np.float64)
    if q.ndim != 2 or q.shape[0] != 3 or q.shape[1] < 1:
        raise ValueError(f"intervals must have shape (3, k>=1), got {q.shape}")
    if not np.all(q > 0.0):
        raise ValueError("intervals must be strictly positive")
    coords = np.zeros((3, q.shape[1] + 1))
    np.cumsum(q, axis=1, out=coords[:, 1:])
    coords[:, -1] = 1.0
    return coords


def coordinates_from_logits(logits: np.ndarray) -> np.ndarray:
    """Convenience composition: softmax then cumulative sum.

    For callers that need coordinates only.  Training builds its lattices
    through training.lattice_from_logits, which also returns the
    intervals the knot-logit backward reads; these two are the only
    places in the package that compose the pair.
    """
    return intervals_to_coordinates(softmax_normalize(logits))


def uniform_coordinates(n_s: int) -> np.ndarray:
    """Uniformly spaced coordinates, identical on all three axes.

    Entries are computed as i / (n_s - 1) so that resampling onto a
    uniform grid of the same size hits the knots bit-exactly.
    """
    check_integer("n_s", n_s, minimum=2)
    row = np.arange(n_s, dtype=np.float64) / (n_s - 1)
    row[-1] = 1.0
    return np.tile(row, (3, 1))


def identity_lut(coords: np.ndarray) -> np.ndarray:
    """Table whose vertex values equal the vertex coordinates.

    Applying the transform with this table reproduces the input image,
    because trilinear interpolation is exact on the coordinates themselves.
    """
    validate_coordinates(coords)
    n = coords.shape[1]
    table = np.empty((3, n, n, n))
    table[0] = coords[0][:, None, None]
    table[1] = coords[1][None, :, None]
    table[2] = coords[2][None, None, :]
    return table


def shared_to_full(shared_row: np.ndarray) -> np.ndarray:
    """Replicate one interval-logit row to all three color axes.

    In shared mode a single set of intervals partitions the color cube
    into cubes rather than per-axis cuboids.
    """
    row = np.asarray(shared_row, dtype=np.float64)
    if row.ndim != 1 or row.size < 1:
        raise ValueError(f"shared row must be a 1-D vector, got shape {row.shape}")
    check_finite("shared row", row)
    return np.tile(row, (3, 1))


def validate_coordinates(coords: np.ndarray) -> np.ndarray:
    """Check the sampling-coordinate invariants, returning the array.

    Each row must be finite, start at exactly 0, end at 1 (within 1e-9),
    and be strictly increasing.  Errors name the row's channel.
    """
    c = np.asarray(coords, dtype=np.float64)
    if c.ndim != 2 or c.shape[0] != 3 or c.shape[1] < 2:
        raise ValueError(f"coordinates must have shape (3, n>=2), got {c.shape}")
    for name, row in zip("rgb", c):
        check_finite(f"coords {name}: entries", row)
        if row[0] != 0.0:
            raise ValueError(f"coords {name}: first entry must be 0, got {row[0]}")
        if abs(row[-1] - 1.0) > _COORD_END_TOL:
            raise ValueError(f"coords {name}: last entry must be 1, got {row[-1]}")
        bad = np.flatnonzero(np.diff(row) <= 0.0)
        if bad.size:
            raise ValueError(f"coords {name}: non-monotone at index {bad[0] + 1}")
    return c


def check_table_shape(t: np.ndarray) -> None:
    """Raise ValueError unless t has shape (3, n, n, n) with n >= 2."""
    if t.ndim != 4 or t.shape[0] != 3 or t.shape[1] < 2:
        raise ValueError(f"table must have shape (3, n, n, n) with n>=2, got {t.shape}")
    n = t.shape[1]
    if t.shape[2] != n or t.shape[3] != n:
        raise ValueError(f"table must be cubic, got {t.shape}")


def validate_table(values: np.ndarray) -> np.ndarray:
    """Check a LUT value array: shape (3, n, n, n), all entries finite."""
    t = np.asarray(values, dtype=np.float64)
    check_table_shape(t)
    check_finite("table values", t)
    return t


@dataclass(frozen=True)
class Lattice:
    """A non-uniform 3D LUT: per-axis knot coordinates plus vertex values.

    coords has shape (3, n_s); values has shape (3, n_s, n_s, n_s) indexed
    [channel][i][j][k] with i along red, j along green, k along blue.
    Instances are immutable and safe to share across threads.
    """

    coords: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        coords = validate_coordinates(self.coords)
        values = validate_table(self.values)
        if values.shape[1] != coords.shape[1]:
            raise ValueError(
                f"coords ({coords.shape[1]} knots) and values "
                f"({values.shape[1]} knots) disagree on lattice size"
            )
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "values", values)

    @property
    def n_s(self) -> int:
        return self.coords.shape[1]


def coordinate_logit_vjp(intervals: np.ndarray, grad_coords: np.ndarray) -> np.ndarray:
    """Backpropagate coordinate gradients to the interval logits.

    `intervals` is the softmax output the coordinates were built from and
    `grad_coords` the loss gradient w.r.t. the (3, n_s) coordinates.  The
    two pinned coordinates (the origin and the final 1.0) are constants of
    the construction, so no gradient flows through them.  Where the
    MIN_INTERVAL floor is active it is treated as the identity.
    """
    q = np.asarray(intervals, dtype=np.float64)
    g = np.asarray(grad_coords, dtype=np.float64)
    if g.shape != (q.shape[0], q.shape[1] + 1):
        raise ValueError(
            f"grad_coords shape {g.shape} does not match intervals shape {q.shape}"
        )
    grad_q = np.zeros_like(q)
    inner = g[:, 1:-1]
    if inner.shape[1]:
        # interval j feeds every non-pinned coordinate to its right
        grad_q[:, :-1] = np.cumsum(inner[:, ::-1], axis=1)[:, ::-1]
    dot = (grad_q * q).sum(axis=1, keepdims=True)
    return q * (grad_q - dot)
