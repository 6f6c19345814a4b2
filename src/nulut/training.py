"""Losses, Adam, and the two fitting regimes.

The objective is mean-squared reconstruction error plus two table
regularizers: a curvature penalty (mean squared second difference along
every lattice axis) and a squared hinge keeping each output channel
non-decreasing along its own axis.  The interval parameters are frozen
for a warmup period and afterwards trained at a decayed learning rate,
which keeps the knot layout stable while the table values settle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .lattice import (
    Lattice,
    coordinate_logit_vjp,
    identity_lut,
    intervals_to_coordinates,
    shared_to_full,
    softmax_normalize,
    uniform_coordinates,
)
from .predictor import PredictorParams, extract_features, init_params
from .transform import transform_image, transform_with_grads


class TrainingDivergedError(RuntimeError):
    """Raised when a loss or gradient stops being finite or explodes."""


@dataclass(frozen=True)
class LossWeights:
    lambda_s: float = 0.0001  # curvature penalty weight
    lambda_m: float = 10.0  # monotonicity hinge weight

    def __post_init__(self):
        if self.lambda_s < 0 or self.lambda_m < 0:
            raise ValueError("loss weights must be non-negative")


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
        if self.learning_rate <= 0:
            raise ValueError("learning rate must be positive")
        if self.epochs < 1:
            raise ValueError(f"epochs must be at least 1, got {self.epochs}")
        if self.freeze_interval_epochs > self.epochs:
            raise ValueError("freeze_interval_epochs must not exceed epochs")


@dataclass(frozen=True)
class ImagePair:
    input: np.ndarray
    target: np.ndarray

    def __post_init__(self):
        if np.shape(self.input) != np.shape(self.target):
            raise ValueError(
                f"input {np.shape(self.input)} and target {np.shape(self.target)} "
                "shapes differ"
            )


HISTORY_COLUMNS = ("step", "loss", "l_r", "l_s", "l_m")


def reconstruction_loss(pred, target) -> float:
    """Mean squared error over all 3*h*w entries."""
    p = np.asarray(pred, dtype=np.float64)
    t = np.asarray(target, dtype=np.float64)
    if p.shape != t.shape:
        raise ValueError(f"shape mismatch: {p.shape} vs {t.shape}")
    d = p - t
    return float(np.mean(d * d))


def reconstruction_loss_grad(pred, target):
    p = np.asarray(pred, dtype=np.float64)
    t = np.asarray(target, dtype=np.float64)
    if p.shape != t.shape:
        raise ValueError(f"shape mismatch: {p.shape} vs {t.shape}")
    d = p - t
    return float(np.mean(d * d)), 2.0 * d / d.size


def smoothness_loss(table) -> float:
    """Mean squared second difference of every channel along every axis."""
    t = np.asarray(table, dtype=np.float64)
    if t.shape[1] < 3:
        return 0.0
    total = 0.0
    count = 0
    for axis in (1, 2, 3):
        d2 = np.diff(t, n=2, axis=axis)
        total += float(np.sum(d2 * d2))
        count += d2.size
    return total / count


def smoothness_loss_grad(table):
    t = np.asarray(table, dtype=np.float64)
    grad = np.zeros_like(t)
    if t.shape[1] < 3:
        return 0.0, grad
    count = sum(np.diff(t, n=2, axis=axis).size for axis in (1, 2, 3))
    total = 0.0
    for axis in (1, 2, 3):
        d2 = np.diff(t, n=2, axis=axis)
        total += float(np.sum(d2 * d2))
        g2 = (2.0 / count) * d2
        lo = [slice(None)] * 4
        mid = [slice(None)] * 4
        hi = [slice(None)] * 4
        lo[axis] = slice(0, -2)
        mid[axis] = slice(1, -1)
        hi[axis] = slice(2, None)
        grad[tuple(lo)] += g2
        grad[tuple(mid)] -= 2.0 * g2
        grad[tuple(hi)] += g2
    return total / count, grad


def monotonicity_loss(table) -> float:
    """Squared hinge on own-axis first differences, averaged over all sites.

    Channel c is penalized where it decreases along its own lattice axis
    (red along i, green along j, blue along k).
    """
    t = np.asarray(table, dtype=np.float64)
    n = t.shape[1]
    count = 3 * (n - 1) * n * n
    total = 0.0
    for c in range(3):
        d = np.diff(t[c], axis=c)
        neg = np.minimum(d, 0.0)
        total += float(np.sum(neg * neg))
    return total / count


def monotonicity_loss_grad(table):
    t = np.asarray(table, dtype=np.float64)
    n = t.shape[1]
    count = 3 * (n - 1) * n * n
    total = 0.0
    grad = np.zeros_like(t)
    for c in range(3):
        d = np.diff(t[c], axis=c)
        neg = np.minimum(d, 0.0)
        total += float(np.sum(neg * neg))
        gd = (2.0 / count) * neg
        lo = [slice(None)] * 3
        hi = [slice(None)] * 3
        lo[c] = slice(0, -1)
        hi[c] = slice(1, None)
        grad[c][tuple(hi)] += gd
        grad[c][tuple(lo)] -= gd
    return total / count, grad


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


def _expand_logits(logits, shared):
    return shared_to_full(logits[0]) if shared else logits


def _collapse_logit_grad(grad, shared):
    return grad.sum(axis=0, keepdims=True) if shared else grad


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
    if not pairs:
        raise ValueError("at least one image pair is required")
    params = {
        "logits": np.ones((1 if shared else 3, n_s - 1)),
        "values": identity_lut(uniform_coordinates(n_s)),
    }
    state = AdamState()
    history = []
    initial_loss = None
    step = 0
    for epoch in range(config.epochs):
        train_intervals = adaptive and epoch >= config.freeze_interval_epochs
        for pair in pairs:
            q = softmax_normalize(_expand_logits(params["logits"], shared))
            lattice = Lattice(intervals_to_coordinates(q), params["values"])
            pred = transform_image(pair.input, lattice)
            l_r, g_pred = reconstruction_loss_grad(pred, pair.target)
            l_s, g_s = smoothness_loss_grad(params["values"])
            l_m, g_m = monotonicity_loss_grad(params["values"])
            loss = l_r + weights.lambda_s * l_s + weights.lambda_m * l_m
            if initial_loss is None:
                initial_loss = loss
            _check_loss(loss, initial_loss, step)
            _, lat_grads = transform_with_grads(pair.input, g_pred, lattice)
            grads = {
                "values": lat_grads.grad_values
                + weights.lambda_s * g_s
                + weights.lambda_m * g_m
            }
            lr_scales = None
            if train_intervals:
                g_logits = coordinate_logit_vjp(q, lat_grads.grad_coords)
                grads["logits"] = _collapse_logit_grad(g_logits, shared)
                lr_scales = {"logits": config.interval_lr_decay}
            params = adam_step(params, grads, state, config, lr_scales)
            history.append((step, loss, l_r, l_s, l_m))
            step += 1
    q = softmax_normalize(_expand_logits(params["logits"], shared))
    lattice = Lattice(intervals_to_coordinates(q), params["values"])
    return lattice, np.asarray(history)


def _params_to_dict(params: PredictorParams) -> dict:
    return {
        "g_weights": params.g_weights,
        "g_bias": params.g_bias,
        "h0_weights": params.h0_weights,
        "h0_bias": params.h0_bias,
        "basis_luts": params.basis_luts,
        "h1_bias": params.h1_bias,
    }


def _dict_to_params(d: dict, template: PredictorParams) -> PredictorParams:
    return PredictorParams(
        n_s=template.n_s,
        m=template.m,
        f_dim=template.f_dim,
        shared=template.shared,
        **d,
    )


def predictor_forward(features, params: PredictorParams):
    """Lattice prediction keeping the intermediates needed for backward."""
    raw = features @ params.g_weights + params.g_bias
    logits = shared_to_full(raw) if params.shared else raw.reshape(3, params.n_s - 1)
    q = softmax_normalize(logits)
    coords = intervals_to_coordinates(q)
    blend = features @ params.h0_weights + params.h0_bias
    flat = blend @ params.basis_luts + params.h1_bias
    n = params.n_s
    return Lattice(coords, flat.reshape(3, n, n, n)), q, blend


def predictor_loss_and_grads(
    params: PredictorParams, pair: ImagePair, weights: LossWeights
):
    """Loss terms and gradients w.r.t. every head parameter for one pair."""
    features = extract_features(pair.input)
    lattice, q, blend = predictor_forward(features, params)
    pred = transform_image(pair.input, lattice)
    l_r, g_pred = reconstruction_loss_grad(pred, pair.target)
    l_s, g_s = smoothness_loss_grad(lattice.values)
    l_m, g_m = monotonicity_loss_grad(lattice.values)
    loss = l_r + weights.lambda_s * l_s + weights.lambda_m * l_m
    _, lat_grads = transform_with_grads(pair.input, g_pred, lattice)

    g_table = (
        lat_grads.grad_values + weights.lambda_s * g_s + weights.lambda_m * g_m
    ).ravel()
    g_blend = params.basis_luts @ g_table
    g_logits = coordinate_logit_vjp(q, lat_grads.grad_coords)
    g_raw = g_logits.sum(axis=0) if params.shared else g_logits.ravel()
    grads = {
        "g_weights": np.outer(features, g_raw),
        "g_bias": g_raw,
        "h0_weights": np.outer(features, g_blend),
        "h0_bias": g_blend,
        "basis_luts": np.outer(blend, g_table),
        "h1_bias": g_table,
    }
    return (loss, l_r, l_s, l_m), grads


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
    if not pairs:
        raise ValueError("at least one image pair is required")
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    params = init_params(n_s, m, shared=shared, seed=config.seed)
    pdict = _params_to_dict(params)
    state = AdamState()
    interval_names = ("g_weights", "g_bias")
    history = []
    initial_loss = None
    step = 0
    for epoch in range(config.epochs):
        train_intervals = epoch >= config.freeze_interval_epochs
        for start in range(0, len(pairs), batch_size):
            batch = pairs[start : start + batch_size]
            acc = None
            batch_losses = np.zeros(4)
            for pair in batch:
                current = _dict_to_params(pdict, params)
                parts, grads = predictor_loss_and_grads(current, pair, weights)
                batch_losses += np.asarray(parts)
                if acc is None:
                    acc = grads
                else:
                    for name in acc:
                        acc[name] += grads[name]
            for name in acc:
                acc[name] /= len(batch)
            batch_losses /= len(batch)
            loss = batch_losses[0]
            if initial_loss is None:
                initial_loss = loss
            _check_loss(loss, initial_loss, step)
            lr_scales = None
            if train_intervals:
                lr_scales = {name: config.interval_lr_decay for name in interval_names}
            else:
                for name in interval_names:
                    acc.pop(name)
            pdict = adam_step(pdict, acc, state, config, lr_scales)
            history.append((step, *batch_losses))
            step += 1
    return _dict_to_params(pdict, params), np.asarray(history)


def write_history_csv(history, path) -> None:
    """Write a loss history array as CSV with the standard header."""
    rows = np.asarray(history, dtype=np.float64).reshape(-1, len(HISTORY_COLUMNS))
    with open(path, "w", encoding="ascii") as fh:
        fh.write(",".join(HISTORY_COLUMNS) + "\n")
        for row in rows:
            fh.write(f"{int(row[0])},{row[1]:.17g},{row[2]:.17g},{row[3]:.17g},{row[4]:.17g}\n")
