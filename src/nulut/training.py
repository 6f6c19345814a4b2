"""Losses, Adam, and the two fitting regimes.

The objective is mean-squared reconstruction error plus two table
regularizers: a curvature penalty (mean squared second difference along
every lattice axis) and a squared hinge keeping each output channel
non-decreasing along its own axis.  The interval parameters are frozen
for a warmup period and afterwards trained at a decayed learning rate,
which keeps the knot layout stable while the table values settle.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .analysis import check_pair
from .lattice import (
    Lattice,
    coordinate_logit_vjp,
    identity_lut,
    intervals_to_coordinates,
    shared_to_full,
    softmax_normalize,
    uniform_coordinates,
)
from .predictor import (
    PARAM_ARRAYS,
    PredictorParams,
    extract_features,
    init_params,
    predict_logits,
    predict_values,
    predict_weights,
)
# perfbench's tracer rebinds transform_image and transform_with_grads here by name
from .transform import transform_image, transform_vjp, transform_with_grads  # noqa: F401
from .transform import validate_image


class TrainingDivergedError(RuntimeError):
    """Raised when a loss or gradient stops being finite or explodes."""


@dataclass(frozen=True)
class LossWeights:
    lambda_s: float = 0.0001  # curvature penalty weight
    lambda_m: float = 10.0  # monotonicity hinge weight

    def __post_init__(self):
        for name in ("lambda_s", "lambda_m"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and non-negative, got {value}")


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-4
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    epochs: int = 100
    freeze_interval_epochs: int = 5  # interval head frozen for this warmup
    interval_lr_decay: float = 0.1  # applied to the interval head after unfreezing
    seed: int = 0

    def __post_init__(self):
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be finite and positive, got {self.learning_rate}")
        if not (np.isfinite(self.interval_lr_decay) and self.interval_lr_decay >= 0):
            raise ValueError(
                f"interval_lr_decay must be finite and non-negative, got {self.interval_lr_decay}"
            )
        if self.epochs < 1:
            raise ValueError(f"epochs must be at least 1, got {self.epochs}")
        if not 0 <= self.freeze_interval_epochs <= self.epochs:
            raise ValueError(
                f"freeze_interval_epochs must lie in [0, epochs], got {self.freeze_interval_epochs}"
            )
        if not (0.0 <= self.adam_beta1 < 1.0 and 0.0 <= self.adam_beta2 < 1.0):
            raise ValueError(f"betas must lie in [0, 1), got {self.adam_beta1}, {self.adam_beta2}")
        if not self.adam_eps > 0:
            raise ValueError(f"adam_eps must be positive, got {self.adam_eps}")


@dataclass(frozen=True)
class ImagePair:
    """A training pair, checked once here and stored as float64 arrays.

    The input must be a (3, h, w) image of finite values in [0, 1]; the
    target must have the same shape and finite values.
    """

    input: np.ndarray
    target: np.ndarray

    def __post_init__(self):
        if np.shape(self.input) != np.shape(self.target):
            raise ValueError(
                f"input {np.shape(self.input)} and target {np.shape(self.target)} "
                "shapes differ"
            )
        object.__setattr__(self, "input", validate_image(self.input))
        target = np.asarray(self.target, dtype=np.float64)
        if not np.all(np.isfinite(target)):
            raise ValueError("target values must be finite")
        object.__setattr__(self, "target", target)


HISTORY_COLUMNS = ("step", "loss", "l_r", "l_s", "l_m")


def reconstruction_loss_grad(pred, target):
    """Mean squared error over all 3*h*w entries, and its gradient."""
    p, t = check_pair(pred, target)
    d = p - t
    loss = float(np.mean(d * d))
    d *= 2.0
    d /= d.size
    return loss, d


def smoothness_loss_grad(table):
    """Mean squared second difference of every channel along every axis."""
    t = np.asarray(table, dtype=np.float64)
    grad = np.zeros_like(t)
    n = t.shape[1]
    if n < 3:
        return 0.0, grad
    count = 9 * (n - 2) * n * n
    total = 0.0
    for axis in (1, 2, 3):
        d2 = np.diff(t, n=2, axis=axis)
        total += float(np.sum(d2 * d2))
        # views with the differenced axis first, so one slice fits every axis
        g2 = np.moveaxis((2.0 / count) * d2, axis, 0)
        g = np.moveaxis(grad, axis, 0)
        g[:-2] += g2
        g[1:-1] -= 2.0 * g2
        g[2:] += g2
    return total / count, grad


def monotonicity_loss_grad(table):
    """Squared hinge on own-axis first differences, averaged over all sites.

    Channel c is penalized where it decreases along its own lattice axis
    (red along i, green along j, blue along k).
    """
    t = np.asarray(table, dtype=np.float64)
    n = t.shape[1]
    count = 3 * (n - 1) * n * n
    total = 0.0
    grad = np.zeros_like(t)
    for c in range(3):
        d = np.diff(t[c], axis=c)
        neg = np.minimum(d, 0.0)
        total += float(np.sum(neg * neg))
        gd = np.moveaxis((2.0 / count) * neg, c, 0)
        g = np.moveaxis(grad[c], c, 0)
        g[1:] += gd
        g[:-1] -= gd
    return total / count, grad


def reconstruction_loss(pred, target) -> float:
    return reconstruction_loss_grad(pred, target)[0]


def smoothness_loss(table) -> float:
    return smoothness_loss_grad(table)[0]


def monotonicity_loss(table) -> float:
    return monotonicity_loss_grad(table)[0]


def total_loss(pred, target, table, weights: LossWeights) -> float:
    return (
        reconstruction_loss(pred, target)
        + weights.lambda_s * smoothness_loss(table)
        + weights.lambda_m * monotonicity_loss(table)
    )


@dataclass
class AdamState:
    """First/second moment estimates and per-parameter step counts."""

    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    t: dict = field(default_factory=dict)


def adam_step(params: dict, grads: dict, state: AdamState, config: TrainConfig,
              lr_scales: dict | None = None) -> dict:
    """One Adam update for every parameter named in grads.

    Parameters absent from grads are left untouched (their moments do not
    advance, so a frozen group resumes cleanly when unfrozen).  Returns
    the updated parameter dict; state is advanced in place.
    """
    updated = dict(params)
    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise TrainingDivergedError(f"non-finite gradient for '{name}'")
        if name not in state.m:
            state.m[name] = np.zeros_like(params[name])
            state.v[name] = np.zeros_like(params[name])
            state.t[name] = 0
        state.t[name] += 1
        t = state.t[name]
        m = state.m[name]
        v = state.v[name]
        m *= config.adam_beta1
        m += (1.0 - config.adam_beta1) * g
        v *= config.adam_beta2
        v += (1.0 - config.adam_beta2) * (g * g)
        m_hat = m / (1.0 - config.adam_beta1**t)
        v_hat = v / (1.0 - config.adam_beta2**t)
        lr = config.learning_rate
        if lr_scales and name in lr_scales:
            lr *= lr_scales[name]
        updated[name] = params[name] - lr * m_hat / (np.sqrt(v_hat) + config.adam_eps)
    return updated


def _check_loss(loss, initial, step):
    if not np.isfinite(loss):
        raise TrainingDivergedError(f"non-finite loss at step {step}")
    # the floor keeps float residue on already-converged starts from
    # masquerading as divergence
    if loss > 1e3 * max(initial, 1e-8):
        raise TrainingDivergedError(
            f"loss {loss:.3e} exceeded 1000x its initial value at step {step}"
        )


def _lattice_loss_and_grads(lattice: Lattice, q, pair: ImagePair, weights: LossWeights):
    """((loss, l_r, l_s, l_m), grad_values, grad_logits) of one pair.

    q is the softmax output the lattice's coordinates were built from.
    """
    pred, backward = transform_vjp(pair.input, lattice)
    l_r, g_pred = reconstruction_loss_grad(pred, pair.target)
    # the prediction is not kept, so the backward below can reuse its memory
    del pred
    l_s, g_s = smoothness_loss_grad(lattice.values)
    l_m, g_m = monotonicity_loss_grad(lattice.values)
    loss = l_r + weights.lambda_s * l_s + weights.lambda_m * l_m
    lat_grads = backward(g_pred)
    g_table = lat_grads.grad_values + weights.lambda_s * g_s + weights.lambda_m * g_m
    g_logits = coordinate_logit_vjp(q, lat_grads.grad_coords)
    return (loss, l_r, l_s, l_m), g_table, g_logits


def _optimize(params: dict, loss_and_grads, batches, config: TrainConfig,
              interval_names, adaptive: bool = True):
    """Adam over batches for config.epochs epochs: the schedule both regimes share.

    loss_and_grads(params, item) gives one batch item's loss parts and
    gradient dict, averaged over each batch.  interval_names stay frozen
    for the warmup (for the whole run with adaptive=False), then train at
    the decayed rate.  Returns the final parameters and the loss history.
    """
    if not batches:
        raise ValueError("at least one image pair is required")
    state = AdamState()
    # frozen interval parameters get no gradient, so the scales only act unfrozen
    lr_scales = {name: config.interval_lr_decay for name in interval_names}
    history = []
    initial_loss = None
    for epoch in range(config.epochs):
        train_intervals = adaptive and epoch >= config.freeze_interval_epochs
        for batch in batches:
            item_parts, acc = loss_and_grads(params, batch[0])
            parts = np.array(item_parts)
            for item in batch[1:]:
                item_parts, grads = loss_and_grads(params, item)
                parts += item_parts
                for name in acc:
                    acc[name] += grads[name]
            for name in acc:
                acc[name] /= len(batch)
            parts /= len(batch)
            if initial_loss is None:
                initial_loss = parts[0]
            _check_loss(parts[0], initial_loss, len(history))
            if not train_intervals:
                for name in interval_names:
                    del acc[name]
            params = adam_step(params, acc, state, config, lr_scales)
            history.append((len(history), *parts))
    return params, np.asarray(history)


def fit_direct(
    pairs: list[ImagePair],
    n_s: int,
    config: TrainConfig,
    weights: LossWeights = LossWeights(),
    adaptive: bool = True,
    shared: bool = False,
):
    """Fit interval logits and table values directly to image pairs.

    With adaptive=False the logits stay at their uniform initialization
    for the whole run (the fixed-grid baseline); otherwise they unfreeze
    after the warmup and train at the decayed rate.  One Adam step is
    taken per pair, so with a single pair one epoch is one step.

    Returns the fitted Lattice and the per-step loss history as an array
    with columns HISTORY_COLUMNS.
    """
    def build(params):
        logits = params["logits"]
        q = softmax_normalize(shared_to_full(logits[0]) if shared else logits)
        return Lattice(intervals_to_coordinates(q), params["values"]), q

    def loss_and_grads(params, pair):
        parts, g_table, g_logits = _lattice_loss_and_grads(*build(params), pair, weights)
        if shared:
            g_logits = g_logits.sum(axis=0, keepdims=True)
        return parts, {"values": g_table, "logits": g_logits}

    params = {
        "logits": np.ones((1 if shared else 3, n_s - 1)),
        "values": identity_lut(uniform_coordinates(n_s)),
    }
    params, history = _optimize(
        params, loss_and_grads, [[pair] for pair in pairs], config, ("logits",), adaptive
    )
    return build(params)[0], history


def predictor_forward(features, params: PredictorParams):
    """Lattice prediction keeping the intermediates needed for backward."""
    q = softmax_normalize(predict_logits(features, params))
    lattice = Lattice(intervals_to_coordinates(q), predict_values(features, params))
    return lattice, q, predict_weights(features, params)


def predictor_loss_and_grads(
    params: PredictorParams, pair: ImagePair, weights: LossWeights
):
    """Loss terms and gradients w.r.t. every head parameter for one pair."""
    return _predictor_loss_and_grads(params, pair, extract_features(pair.input), weights)


def _predictor_loss_and_grads(params, pair, features, weights):
    """predictor_loss_and_grads given the pair's input features."""
    lattice, q, blend = predictor_forward(features, params)
    parts, g_table, g_logits = _lattice_loss_and_grads(lattice, q, pair, weights)
    g_table = g_table.ravel()
    g_blend = params.basis_luts @ g_table
    g_raw = g_logits.sum(axis=0) if params.shared else g_logits.ravel()
    grads = {
        "g_weights": np.outer(features, g_raw),
        "g_bias": g_raw,
        "h0_weights": np.outer(features, g_blend),
        "h0_bias": g_blend,
        "basis_luts": np.outer(blend, g_table),
        "h1_bias": g_table,
    }
    return parts, grads


def train_predictor(
    pairs: list[ImagePair],
    n_s: int,
    m: int,
    config: TrainConfig,
    weights: LossWeights = LossWeights(),
    shared: bool = False,
    batch_size: int = 1,
):
    """Train the predictor heads end to end through the transform.

    Gradients are averaged over each mini-batch before stepping.  The
    interval head follows the same freeze/decay schedule as fit_direct,
    counted in epochs.  Returns the trained parameters and the per-step
    loss history.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    template = init_params(n_s, m, shared=shared, seed=config.seed)

    def loss_and_grads(arrays, item):
        pair, features = item
        return _predictor_loss_and_grads(replace(template, **arrays), pair, features, weights)

    # the inputs never change, so each pair's features are extracted once
    items = [(pair, extract_features(pair.input)) for pair in pairs]
    batches = [items[start : start + batch_size] for start in range(0, len(items), batch_size)]
    arrays, history = _optimize(
        {name: getattr(template, name) for name in PARAM_ARRAYS},
        loss_and_grads, batches, config, ("g_weights", "g_bias"),
    )
    return replace(template, **arrays), history


def write_history_csv(history, path) -> None:
    """Write a loss history array as CSV with the standard header."""
    rows = np.asarray(history, dtype=np.float64).reshape(-1, len(HISTORY_COLUMNS))
    with open(path, "w", encoding="ascii") as fh:
        fh.write(",".join(HISTORY_COLUMNS) + "\n")
        for row in rows:
            fh.write(f"{int(row[0])},{row[1]:.17g},{row[2]:.17g},{row[3]:.17g},{row[4]:.17g}\n")
