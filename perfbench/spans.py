"""Span tracing from outside the program, and per-layer self times.

The tracer rebinds a fixed set of public nulut functions at the module
attributes their callers look them up by, so every call records a span:
name, start, end, parent span and operation id.  Spans stay in memory
until the run writes them out.  Nothing inside src/nulut is changed, and
`uninstall` puts every original function back.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from dataclasses import dataclass, field

import numpy as np


def _pixels(args, kwargs, result):
    shape = np.shape(args[0] if args else kwargs["img"])
    return {"px": int(shape[-2]) * int(shape[-1])}


def _read_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0] if args else kwargs["path"])}


def _written_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])}


def _checkpoint_floats(args, kwargs, result):
    lattice, predictor = result
    arrays = [lattice.coords, lattice.values]
    if predictor is not None:
        arrays += [v for v in vars(predictor).values() if isinstance(v, np.ndarray)]
    return {"floats": int(sum(a.size for a in arrays))}


def _adam_params(args, kwargs, result):
    grads = args[1] if len(args) > 1 else kwargs["grads"]
    return {"params": int(sum(g.size for g in grads.values()))}


# module -> {attribute: meter}; a meter turns (args, kwargs, result) into
# span attributes and runs after the span has closed.
REBOUND = {
    "nulut.training": {
        "transform_image": _pixels,
        "transform_with_grads": _pixels,
        "adam_step": _adam_params,
        "smoothness_loss_grad": None,
        "monotonicity_loss_grad": None,
        "reconstruction_loss_grad": None,
        "softmax_normalize": None,
        "intervals_to_coordinates": None,
        "coordinate_logit_vjp": None,
        "extract_features": None,
        "predictor_forward": None,
        "fit_direct": None,
    },
    "nulut.cli": {
        "transform_image": _pixels,
        "extract_features": None,
        "predict_logits": None,
        "predict_values": None,
    },
    "nulut.ppm": {"read_ppm": _read_bytes, "write_image": _written_bytes},
    "nulut.lutio": {"load_checkpoint": _checkpoint_floats, "save_lattice": None},
}

# span name (the function's name) -> layer bucket used by the metrics
LAYER_OF = {
    "transform_image": "transform.forward",
    "transform_with_grads": "transform.grads",
    "adam_step": "training.adam",
    "smoothness_loss_grad": "training.regularizer",
    "monotonicity_loss_grad": "training.regularizer",
    "reconstruction_loss_grad": "training.loss",
    "fit_direct": "training.self",
    "train_predictor": "training.self",
    "softmax_normalize": "lattice.build",
    "intervals_to_coordinates": "lattice.build",
    "coordinate_logit_vjp": "lattice.vjp",
    "extract_features": "predictor.features",
    "predictor_forward": "predictor.heads",
    "predict_logits": "predictor.heads",
    "predict_values": "predictor.heads",
    "read_ppm": "ppm.read",
    "write_image": "ppm.write",
    "load_checkpoint": "lutio.load",
    "save_lattice": "lutio.save",
    "cli_main": "cli.self",
}


@dataclass
class Span:
    span_id: int
    parent_id: int | None
    op_id: int
    name: str
    start_ns: int
    end_ns: int = 0
    attrs: dict = field(default_factory=dict)


class Tracer:
    """Records spans while installed; holds them all in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._saved: list[tuple[object, str, object]] = []
        self.op_id = -1

    def open(self, name: str) -> Span:
        parent = self._stack[-1].span_id if self._stack else None
        span = Span(len(self.spans), parent, self.op_id, name, time.perf_counter_ns())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end_ns = time.perf_counter_ns()
        self._stack.pop()

    def call(self, name, fn, *args, meter=None, **kwargs):
        """Run fn inside a span named name (used for the operation root)."""
        span = self.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            self.close(span)
        if meter is not None:
            span.attrs = meter(args, kwargs, result)
        return result

    def _wrap(self, fn, meter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(fn.__name__, fn, *args, meter=meter, **kwargs)

        return traced

    def install(self, op_id: int) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        self.op_id = op_id
        for module_name, names in REBOUND.items():
            module = importlib.import_module(module_name)
            for attr, meter in names.items():
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, meter))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)
        self._stack.clear()

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.span_id, "parent": s.parent_id, "op": s.op_id,
                    "name": s.name, "start_ns": s.start_ns, "end_ns": s.end_ns,
                    **s.attrs,
                }) + "\n")


def self_times(spans) -> dict[int, int]:
    """Span id -> its duration minus the part covered by its child spans.

    Children are clipped to the parent's interval and their overlaps are
    counted once, so the result never goes negative.
    """
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent_id is not None:
            children.setdefault(s.parent_id, []).append(s)
    out = {}
    for s in spans:
        covered = 0
        cur_start = cur_end = None
        for c in sorted(children.get(s.span_id, ()), key=lambda c: c.start_ns):
            lo, hi = max(c.start_ns, s.start_ns), min(c.end_ns, s.end_ns)
            if hi <= lo:
                continue
            if cur_end is None or lo > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = lo, hi
            else:
                cur_end = max(cur_end, hi)
        if cur_end is not None:
            covered += cur_end - cur_start
        out[s.span_id] = (s.end_ns - s.start_ns) - covered
    return out


def layer_totals(spans) -> dict[str, dict[str, float]]:
    """Per layer bucket: self seconds, call count and summed attributes."""
    own = self_times(spans)
    totals: dict[str, dict[str, float]] = {}
    for s in spans:
        layer = LAYER_OF.get(s.name)
        if layer is None:
            continue
        t = totals.setdefault(layer, {"s": 0.0, "calls": 0})
        t["s"] += own[s.span_id] / 1e9
        t["calls"] += 1
        for key, value in s.attrs.items():
            t[key] = t.get(key, 0) + value
    return totals
