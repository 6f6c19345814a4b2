"""Losses, Adam, and the two fitting regimes.

The objective is mean-squared reconstruction error plus two table
regularizers: a curvature penalty (mean squared second difference along
every lattice axis) and a squared hinge keeping each output channel
non-decreasing along its own axis.  The interval parameters are frozen
for a warmup period and afterwards trained at a decayed learning rate,
which keeps the knot layout stable while the table values settle.

A step is one list of independent jobs on transform.map_blocks, run on
every usable CPU: the pixel side and the two regularizers on the table.
The pixel side is transform.mse_vjp, one pass whose row blocks fan out
from the caller: each block's cells are found once, then blended,
compared with the target and run backward, so the step holds no
full-frame prediction, error or input gradient.  Adam then works
through the parameters in cache-sized chunks, in place, one map_blocks
job per chunk.  Each job only reads what the step shares and writes
what it owns, and results are combined on the caller in code order, so
no bit of the results depends on the CPU count.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import transform
from .analysis import check_pair
from .lattice import (
    Lattice,
    check_finite,
    check_integer,
    check_table_shape,
    coordinate_logit_vjp,
    identity_lut,
    intervals_to_coordinates,
    shared_to_full,
    softmax_normalize,
    uniform_coordinates,
)
from .predictor import (
    PredictorParams,
    extract_features,
    init_params,
    predict_logits,
    predict_values,
    predict_weights,
)
# perfbench's tracer rebinds transform_image and transform_with_grads here by name
from .transform import transform_image, transform_with_grads  # noqa: F401
from .transform import mse_vjp, validate_image, validate_samples


class TrainingDivergedError(RuntimeError):
    """Raised when a loss or gradient stops being finite or explodes."""


def _check_real(name, value, zero_ok):
    """Raise ValueError naming the field unless value is a finite real number
    (not a bool) that is positive, or non-negative with zero_ok."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    if not (np.isfinite(value) and (value >= 0 if zero_ok else value > 0)):
        raise ValueError(f"{name} must be finite and "
                         f"{'non-negative' if zero_ok else 'positive'}, got {value}")


@dataclass(frozen=True)
class LossWeights:
    lambda_s: float = 0.0001  # curvature penalty weight
    lambda_m: float = 10.0  # monotonicity hinge weight

    def __post_init__(self):
        for name in ("lambda_s", "lambda_m"):
            _check_real(name, getattr(self, name), zero_ok=True)


@dataclass(frozen=True)
class TrainConfig:
    """The schedule both regimes share; Adam's betas and eps are AdaInt's, the ADAM_* constants."""

    learning_rate: float = 1e-4
    epochs: int = 100
    freeze_interval_epochs: int = 5  # interval head frozen for this warmup
    interval_lr_decay: float = 0.1  # applied to the interval head after unfreezing
    seed: int = 0

    def __post_init__(self):
        check_integer("epochs", self.epochs, minimum=1)
        check_integer("freeze_interval_epochs", self.freeze_interval_epochs)
        check_integer("seed", self.seed, minimum=0)
        _check_real("learning_rate", self.learning_rate, zero_ok=False)
        _check_real("interval_lr_decay", self.interval_lr_decay, zero_ok=True)
        if not 0 <= self.freeze_interval_epochs <= self.epochs:
            raise ValueError(
                f"freeze_interval_epochs must lie in [0, epochs], got {self.freeze_interval_epochs}"
            )


@dataclass(frozen=True)
class ImagePair:
    """A training pair, checked once here and holding what the transform reads.

    The input must be a (3, h, w) image of finite values in [0, 1],
    stored as float64; the target must have the same shape and finite
    values.  With an integer maxval, input holds integer samples in
    [0, maxval] instead, kept as the caller's array, so training locates
    cells through the transform's per-level tables.  image() gives the
    input as floats either way.
    """

    input: np.ndarray
    target: np.ndarray
    maxval: int | None = None

    def __post_init__(self):
        if np.shape(self.input) != np.shape(self.target):
            raise ValueError(
                f"input {np.shape(self.input)} and target {np.shape(self.target)} "
                "shapes differ"
            )
        if self.maxval is None:
            object.__setattr__(self, "input", validate_image(self.input))
        else:
            object.__setattr__(self, "input", validate_samples(self.input, self.maxval))
        target = np.asarray(self.target, dtype=np.float64)
        check_finite("target values", target)
        object.__setattr__(self, "target", target)

    def image(self) -> np.ndarray:
        """The input as floats in [0, 1]; a quantized pair divides on every call."""
        return self.input if self.maxval is None else self.input / self.maxval


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
    """Mean squared second difference of every channel along every axis.

    table must have shape (3, n, n, n) with n >= 2 (check_table_shape);
    its values are not scanned, so a non-finite entry gives a NaN loss.
    """
    t = np.asarray(table, dtype=np.float64)
    check_table_shape(t)
    grad = np.zeros_like(t)
    n = t.shape[1]
    if n < 3:
        return 0.0, grad
    count = 9 * (n - 2) * n * n
    total = 0.0
    for axis in (1, 2, 3):
        d2 = np.diff(t, n=2, axis=axis)
        total += float(np.sum(d2 * d2))
        # scaled in place, the same bits as a scaled copy without the temporary;
        # views with the differenced axis first, so one slice fits every axis
        d2 *= 2.0 / count
        g2 = np.moveaxis(d2, axis, 0)
        g = np.moveaxis(grad, axis, 0)
        g[:-2] += g2
        g[1:-1] -= 2.0 * g2
        g[2:] += g2
    return total / count, grad


def monotonicity_loss_grad(table):
    """Squared hinge on own-axis first differences, averaged over all sites.

    Channel c is penalized where it decreases along its own lattice axis
    (red along i, green along j, blue along k).  table is checked as in
    smoothness_loss_grad.
    """
    t = np.asarray(table, dtype=np.float64)
    check_table_shape(t)
    n = t.shape[1]
    count = 3 * (n - 1) * n * n
    total = 0.0
    grad = np.zeros_like(t)
    for c in range(3):
        d = np.diff(t[c], axis=c)
        neg = np.minimum(d, 0.0, out=d)
        total += float(np.sum(neg * neg))
        neg *= 2.0 / count
        gd = np.moveaxis(neg, c, 0)
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


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    """First/second moment estimates and per-parameter step counts."""

    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    t: dict = field(default_factory=dict)


def adam_step(params: dict, grads: dict, state: AdamState, config: TrainConfig,
              lr_scales: dict | None = None) -> dict:
    """One Adam update, in place, for every parameter named in grads.

    Every gradient and learning-rate scale is checked before any
    parameter or moment moves: a gradient must name a parameter in
    params (ValueError), broadcast to that parameter's shape (ValueError)
    and be finite (TrainingDivergedError), and a scale in lr_scales of a
    name being updated must be a finite real number >= 0 (ValueError).
    Parameters absent from grads are left untouched (their moments do not
    advance, so a frozen group resumes cleanly when unfrozen).  Each
    update is written into params[name], which first becomes a writable
    C-ordered float64 array if it is not one already; params is returned
    and state is advanced in place.  The moments and step counts are set
    up on the caller.  The moments and the parameters are then written in
    chunks of CHUNK_PIXELS elements, or of the largest parameter updated
    if that is smaller: each chunk of every parameter is one
    transform.map_blocks job on every usable CPU, through two buffers of
    its own no larger than a chunk, with the whole-array expressions'
    operations in their order.  The update is elementwise, so the bits
    are those of the whole-array update at any CPU count.  The only
    full-size temporary is a gradient's flat copy where it needs one: a
    gradient that broadcasts is expanded to its parameter's size once, as
    is one that is not C-contiguous.
    """
    for name, g in grads.items():
        if name not in params:
            raise ValueError(f"gradient for '{name}' names no parameter")
        shape, g_shape = np.shape(params[name]), np.shape(g)
        # np.broadcast_to's rule, checked on the shapes without building a view
        if len(g_shape) > len(shape) or any(
                a not in (1, b) for a, b in zip(g_shape[::-1], shape[::-1])):
            raise ValueError(f"gradient for '{name}' of shape {g_shape} does not "
                             f"broadcast to its parameter's shape {shape}")
        if not np.all(np.isfinite(g)):
            raise TrainingDivergedError(f"non-finite gradient for '{name}'")
        if lr_scales and name in lr_scales:
            _check_real(f"lr_scales['{name}']", lr_scales[name], zero_ok=True)
    # no larger than the largest parameter updated, so small fits keep small
    # buffers; sized by the parameters, since a gradient may broadcast
    chunk = min(transform.CHUNK_PIXELS, max([1, *(np.size(params[name]) for name in grads)]))
    jobs = []
    for name, g in grads.items():
        # the flat views below write through to the parameter and its moments
        p = params[name] = np.require(params[name], np.float64, "CW")
        if name not in state.m:
            state.m[name] = np.zeros(p.shape)
            state.v[name] = np.zeros(p.shape)
            state.t[name] = 0
        state.t[name] += 1
        t = state.t[name]
        c1 = 1.0 - ADAM_BETA1**t
        c2 = 1.0 - ADAM_BETA2**t
        lr = config.learning_rate
        if lr_scales and name in lr_scales:
            lr *= lr_scales[name]
        # a gradient broadcasts against its parameter, as in the whole-array form
        flat = (np.ravel(np.broadcast_to(g, p.shape)), p.reshape(-1),
                state.m[name].reshape(-1), state.v[name].reshape(-1))
        jobs += [(flat, start, lr, c1, c2) for start in range(0, p.size, chunk)]

    def update(job):
        flat, start, lr, c1, c2 = job
        gc, pc, mc, vc = (x[start : start + chunk] for x in flat)
        a, b = np.empty((2, gc.size))
        # m = b1*m + (1 - b1)*g
        mc *= ADAM_BETA1
        np.multiply(gc, 1.0 - ADAM_BETA1, out=a)
        mc += a
        # v = b2*v + (1 - b2)*(g*g)
        vc *= ADAM_BETA2
        np.multiply(gc, gc, out=a)
        a *= 1.0 - ADAM_BETA2
        vc += a
        # p = p - lr*(m/c1) / (sqrt(v/c2) + eps)
        np.divide(mc, c1, out=a)
        a *= lr
        np.divide(vc, c2, out=b)
        np.sqrt(b, out=b)
        b += ADAM_EPS
        a /= b
        pc -= a

    transform.map_blocks(update, jobs, transform.usable_cpus())
    return params


def _check_loss(loss, initial, step):
    if not np.isfinite(loss):
        raise TrainingDivergedError(f"non-finite loss at step {step}")
    # the floor keeps float residue on already-converged starts from
    # masquerading as divergence
    if loss > 1e3 * max(initial, 1e-8):
        raise TrainingDivergedError(
            f"loss {loss:.3e} exceeded 1000x its initial value at step {step}"
        )


def lattice_from_logits(logits, values):
    """(Lattice, q) from interval logits and table values: the training path's one builder.

    logits is a (3, k) matrix, one row per axis, or a (1, k) row that all
    three axes share, spread by shared_to_full; softmax_normalize refuses
    any other shape with a ValueError naming it.  q is the floored softmax
    of the spread logits, the intervals coordinate_logit_vjp reads, and
    the lattice's coordinates are their cumulative sums.  Both steps are
    read from this module's globals when called, where perfbench's tracer
    rebinds them.
    """
    q = softmax_normalize(shared_to_full(logits[0]) if np.shape(logits)[:-1] == (1,) else logits)
    return Lattice(intervals_to_coordinates(q), values), q


def _lattice_loss_and_grads(lattice: Lattice, q, pair: ImagePair, weights: LossWeights):
    """((loss, l_r, l_s, l_m), grad_values, grad_logits) of one pair.

    q is the softmax output the lattice's coordinates were built from.
    The step is one list of three jobs on transform.map_blocks, run on
    every usable CPU: the pixel side, mse_vjp, whose one pass over the
    row blocks gives the reconstruction loss and its table and knot
    gradients with the bits of transform_vjp, reconstruction_loss_grad
    and the backward, then smoothness_loss_grad and
    monotonicity_loss_grad on the table.  map_blocks runs the pixel side
    on the caller, so its own row blocks still fan out from there; with
    one usable CPU every job runs in order on the caller.  Each job only
    reads the lattice and its own inputs, and the caller combines their
    results in code order, so no result depends on the CPU count.  A
    quantized pair takes the level-table route.
    """
    workers = transform.usable_cpus()

    # the step functions are read from the module's globals when each job runs
    jobs = [lambda: mse_vjp(pair.input, pair.target, lattice, workers, maxval=pair.maxval),
            lambda: smoothness_loss_grad(lattice.values),
            lambda: monotonicity_loss_grad(lattice.values)]
    (l_r, g_table, g_coords), (l_s, g_s), (l_m, g_m) = transform.map_blocks(
        lambda job: job(), jobs, workers)
    loss = l_r + weights.lambda_s * l_s + weights.lambda_m * l_m
    # (grad_values + lambda_s*g_s) + lambda_m*g_m, written into arrays this step owns
    g_s *= weights.lambda_s
    g_table += g_s
    g_m *= weights.lambda_m
    g_table += g_m
    g_logits = coordinate_logit_vjp(q, g_coords)
    return (loss, l_r, l_s, l_m), g_table, g_logits


def _optimize(params: dict, loss_and_grads, batches, config: TrainConfig, interval_names):
    """Adam over batches for config.epochs epochs: the schedule both regimes share.

    loss_and_grads(item) gives one batch item's loss parts and gradient
    dict, computed from the arrays in params, and the gradients are
    averaged over each batch.  adam_step then updates those arrays in
    place, so whatever a step built from them must not be read after it.
    interval_names stay frozen for config.freeze_interval_epochs, then
    train at the decayed rate.  Returns the loss history.
    """
    if not batches:
        raise ValueError("at least one image pair is required")
    state = AdamState()
    # frozen interval parameters get no gradient, so the scales only act unfrozen
    lr_scales = {name: config.interval_lr_decay for name in interval_names}
    history = []
    initial_loss = None
    for epoch in range(config.epochs):
        train_intervals = epoch >= config.freeze_interval_epochs
        for batch in batches:
            item_parts, acc = loss_and_grads(batch[0])
            parts = np.array(item_parts)
            for item in batch[1:]:
                item_parts, grads = loss_and_grads(item)
                parts += item_parts
                for name in acc:
                    acc[name] += grads[name]
            if len(batch) > 1:
                for name in acc:
                    acc[name] /= len(batch)
                parts /= len(batch)
            if initial_loss is None:
                initial_loss = parts[0]
            _check_loss(parts[0], initial_loss, len(history))
            if not train_intervals:
                for name in interval_names:
                    del acc[name]
            adam_step(params, acc, state, config, lr_scales)
            history.append((len(history), *parts))
    return np.asarray(history)


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

    Each step and the result build their lattice through
    lattice_from_logits, from a (1, n_s - 1) logit row with shared=True
    and a (3, n_s - 1) matrix otherwise.

    Returns the fitted Lattice and the per-step loss history as an array
    with columns HISTORY_COLUMNS.
    """
    def loss_and_grads(pair):
        lattice, q = lattice_from_logits(params["logits"], params["values"])
        parts, g_table, g_logits = _lattice_loss_and_grads(lattice, q, pair, weights)
        if shared:
            g_logits = g_logits.sum(axis=0, keepdims=True)
        return parts, {"values": g_table, "logits": g_logits}

    params = {
        "values": identity_lut(uniform_coordinates(n_s)),
        "logits": np.ones((1 if shared else 3, n_s - 1)),
    }
    if not adaptive:
        config = replace(config, freeze_interval_epochs=config.epochs)
    history = _optimize(params, loss_and_grads, [[pair] for pair in pairs], config, ("logits",))
    return lattice_from_logits(params["logits"], params["values"])[0], history


def predictor_forward(features, params: PredictorParams):
    """(lattice, q, blend): the predicted lattice and what backward needs of it.

    The heads' logits and table go through lattice_from_logits, the one
    builder, which gives the lattice and its intervals q; blend is the
    value head's basis weights.
    """
    logits, values = predict_logits(features, params), predict_values(features, params)
    return (*lattice_from_logits(logits, values), predict_weights(features, params))


def predictor_loss_and_grads(params: PredictorParams, pair: ImagePair, features,
                             weights: LossWeights):
    """Loss terms and gradients w.r.t. every head parameter for one pair,
    given its input features, extract_features(pair.image())."""
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


DEFAULT_BATCH_SIZE = 1


def train_predictor(
    pairs: list[ImagePair],
    n_s: int,
    m: int,
    config: TrainConfig,
    weights: LossWeights = LossWeights(),
    shared: bool = False,
    batch_size: int = DEFAULT_BATCH_SIZE,
):
    """Train the predictor heads end to end through the transform.

    Gradients are averaged over each mini-batch before stepping.  The
    interval head follows the same freeze/decay schedule as fit_direct,
    counted in epochs.  The run's one PredictorParams is built and
    checked once, by init_params, and Adam updates its arrays in place.
    Returns those parameters and the per-step loss history.
    """
    check_integer("batch_size", batch_size, minimum=1)
    params = init_params(n_s, m, shared=shared, seed=config.seed)

    # the inputs never change, so each pair's features are extracted once
    items = [(pair, extract_features(pair.image())) for pair in pairs]
    batches = [items[start : start + batch_size] for start in range(0, len(items), batch_size)]
    # Adam writes through the object's own attribute dict, so an array it
    # has to replace is replaced on params too
    history = _optimize(vars(params), lambda item: predictor_loss_and_grads(params, *item, weights),
                        batches, config, ("g_weights", "g_bias"))
    return params, history


def write_history_csv(history, path) -> None:
    """Write a loss history array as CSV with the standard header."""
    rows = np.asarray(history, dtype=np.float64).reshape(-1, len(HISTORY_COLUMNS))
    with open(path, "w", encoding="ascii") as fh:
        fh.write(",".join(HISTORY_COLUMNS) + "\n")
        for row in rows:
            fh.write(f"{int(row[0])},{row[1]:.17g},{row[2]:.17g},{row[3]:.17g},{row[4]:.17g}\n")
