"""Image-adaptive prediction of interval logits and table values.

A deterministic feature extractor (per-channel histograms plus channel
means and standard deviations) replaces a learned backbone at this
scale.  Two affine heads map the feature vector to the lattice
parameters: the interval head emits logits for the knot spacing, and the
value head goes through a low-rank bottleneck, features -> m blend
weights -> table, so the table is an image-weighted blend of m basis
tables stored as the second layer's weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import bin_indices
from .lattice import check_finite, check_integer, identity_lut, shared_to_full, uniform_coordinates
from .transform import validate_image

HIST_BINS = 32
FEATURE_DIM = 3 * HIST_BINS + 6
BASIS_NOISE_STD = 1e-3  # spread of the extra bases init_params draws

# the parameter arrays of PredictorParams, in checkpoint order
PARAM_ARRAYS = ("g_weights", "g_bias", "h0_weights", "h0_bias", "basis_luts", "h1_bias")


def param_shapes(n_s: int, m: int, shared: bool) -> dict:
    """Shape of each array in PARAM_ARRAYS, in that order, for one configuration.

    The one owner of the predictor's layout: the heads read FEATURE_DIM
    features, and n_s (an integer >= 2) and m (an integer >= 1) are
    checked here by name, so every caller (init_params, PredictorParams,
    load_checkpoint) refuses the same dimensions the same way.
    """
    check_integer("n_s", n_s, minimum=2)
    check_integer("m", m, minimum=1)
    logit_dim = n_s - 1 if shared else 3 * (n_s - 1)
    table_dim = 3 * n_s**3
    return {
        "g_weights": (FEATURE_DIM, logit_dim),
        "g_bias": (logit_dim,),
        "h0_weights": (FEATURE_DIM, m),
        "h0_bias": (m,),
        "basis_luts": (m, table_dim),
        "h1_bias": (table_dim,),
    }


def extract_features(img) -> np.ndarray:
    """Histogram/statistics feature vector of length FEATURE_DIM.

    Layout: 32 normalized histogram bins for each of r, g, b, then the
    three channel means, then the three channel standard deviations.
    The image must hold finite values in [0, 1].
    """
    pixels = validate_image(img).reshape(3, -1)
    parts = []
    for c in range(3):
        hist = np.bincount(bin_indices(pixels[c], HIST_BINS), minlength=HIST_BINS)
        parts.append(hist / pixels.shape[1])
    parts.append(pixels.mean(axis=1))
    parts.append(pixels.std(axis=1))
    return np.concatenate(parts)


@dataclass
class PredictorParams:
    """Affine-head parameters for one lattice configuration.

    basis_luts holds m flattened tables of length 3 * n_s**3, one row per
    basis.  In shared mode the interval head emits a single row of
    n_s - 1 logits that is replicated to all three axes, cutting its
    parameter count by a factor of 3.  Construction checks n_s and m
    through param_shapes, then each array's shape and finiteness, and
    raises ValueError naming the first bad field.
    """

    g_weights: np.ndarray
    g_bias: np.ndarray
    h0_weights: np.ndarray
    h0_bias: np.ndarray
    basis_luts: np.ndarray
    h1_bias: np.ndarray
    n_s: int
    m: int
    shared: bool = False

    def __post_init__(self):
        for name, shape in param_shapes(self.n_s, self.m, self.shared).items():
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            if arr.shape != shape:
                raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
            check_finite(name, arr)
            setattr(self, name, arr)


def init_params(n_s: int, m: int, shared: bool = False, seed: int = 0) -> PredictorParams:
    """Parameters that make the fresh pipeline an identity transform.

    The interval head starts at zero weights with unit bias, so every
    image gets uniform intervals.  The value head starts as a one-hot
    blend of basis 0, which is the identity table on the uniform grid;
    the remaining bases are random perturbations with standard deviation
    BASIS_NOISE_STD.  param_shapes checks n_s and m.
    """
    shapes = param_shapes(n_s, m, shared)
    rng = np.random.default_rng(seed)
    basis = rng.normal(0.0, BASIS_NOISE_STD, size=shapes["basis_luts"])
    basis[0] = identity_lut(uniform_coordinates(n_s)).ravel()
    h0_bias = np.zeros(m)
    h0_bias[0] = 1.0
    return PredictorParams(
        g_weights=np.zeros(shapes["g_weights"]),
        g_bias=np.ones(shapes["g_bias"]),
        h0_weights=np.zeros(shapes["h0_weights"]),
        h0_bias=h0_bias,
        basis_luts=basis,
        h1_bias=np.zeros(shapes["h1_bias"]),
        n_s=n_s,
        m=m,
        shared=shared,
    )


def _check_features(features) -> np.ndarray:
    e = np.asarray(features, dtype=np.float64)
    if e.shape != (FEATURE_DIM,):
        raise ValueError(f"feature vector must have shape ({FEATURE_DIM},), got {e.shape}")
    return e


def predict_logits(features, params: PredictorParams) -> np.ndarray:
    """Interval logits (3, n_s - 1) for one feature vector."""
    e = _check_features(features)
    raw = e @ params.g_weights + params.g_bias
    if params.shared:
        return shared_to_full(raw)
    return raw.reshape(3, params.n_s - 1)


def predict_weights(features, params: PredictorParams) -> np.ndarray:
    """Basis blend weights (m,) from the value head's first layer."""
    e = _check_features(features)
    return e @ params.h0_weights + params.h0_bias


def predict_values(features, params: PredictorParams) -> np.ndarray:
    """Table values (3, n_s, n_s, n_s): blend of the basis tables."""
    weights = predict_weights(features, params)
    flat = weights @ params.basis_luts + params.h1_bias
    n = params.n_s
    return flat.reshape(3, n, n, n)
