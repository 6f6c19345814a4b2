"""The three workloads: their inputs, the timed operation, and its checks.

Each workload has the same life cycle, split across two processes:

* the controller (run.py) calls `prepare` and `prepare_item` to write
  every input before anything is timed, and later `check` on each
  operation's outputs;
* the worker (worker.py) calls `load` (untimed), `run` (timed) and
  `persist` (untimed) once per operation.

Item -1 is the untimed warm-up operation; items 0, 1, ... are timed.
Every item draws from its own seeded generator, so item i is the same
for a seed however many items a run ends up generating.  The colour look
(the checkpoint `apply-1080p` applies, the curve `fit-256` fits) is the
same for every seed.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields

import numpy as np

import scenes
from nulut.analysis import psnr
from nulut.cli import cli_main
from nulut.lattice import Lattice, coordinates_from_logits
from nulut.lutio import load_lattice, save_lattice
from nulut.predictor import PredictorParams, extract_features, predict_logits, predict_values
from nulut.training import ImagePair, TrainConfig, train_predictor
from nulut.transform import transform_image, transform_pixel

WARMUP = -1


@dataclass(frozen=True)
class Check:
    ok: bool
    reason: str = ""
    psnr_db: float | None = None


def plain_call(name, fn, *args, **kwargs):
    """The untraced counterpart of Tracer.call."""
    return fn(*args, **kwargs)


class Workload:
    name = ""
    unit = ""  # what one unit of work is, for per-unit layer metrics
    key = 0  # keeps the workloads' random streams apart
    max_items = 0  # cap on timed operations, bounding generation time and disk

    def __init__(self, seed: int, directory: str):
        self.seed = seed
        self.dir = directory

    def path(self, name: str) -> str:
        return os.path.join(self.dir, name)

    def rng(self, *stream) -> np.random.Generator:
        return np.random.default_rng([self.seed, self.key, *stream])

    def fixed_rng(self) -> np.random.Generator:
        """The same generator for every seed, for the look a workload fits or applies.

        Only the images vary with the seed; a look that varied too would
        move psnr_db and the cells the lookups hit from seed to seed.
        """
        return np.random.default_rng([self.key, 0])

    def prepare(self) -> None:
        """Write the inputs shared by every operation."""

    def persist(self, i, result) -> dict:
        """Save what `check` needs from result; return a JSON-able record."""
        return {"exit": int(result)}

    def working_set(self) -> dict:
        raise NotImplementedError


class ApplyWorkload(Workload):
    """`nulut apply` over distinct 1080p 8-bit frames with an n=33 lattice."""

    name = "apply-1080p"
    unit = "frame"
    key = 1
    max_items = 40
    width, height, n_s = 1920, 1080, 33
    samples = 512
    _lattice = None

    def _look(self):
        rng = self.fixed_rng()
        params = scenes.grade_params(rng)
        return params, scenes.knot_coordinates(rng, self.n_s)

    def prepare(self):
        params, coords = self._look()
        save_lattice(Lattice(coords, scenes.graded_table(coords, params)), self.path("look.nulut"))

    def prepare_item(self, i):
        frame = scenes.quantize(scenes.scene(self.rng(1, i + 1), self.height, self.width))
        scenes.write_p6(frame, self.path(f"frame{i}.ppm"))

    def load(self, i):
        return ["apply", "--lut", self.path("look.nulut"),
                "--input", self.path(f"frame{i}.ppm"), "--output", self.path(f"out{i}.ppm")]

    def run(self, op, call=plain_call):
        return call("cli_main", cli_main, op)

    def pixels(self):
        return self.width * self.height

    def units(self):
        return 1

    def sample_positions(self, i, raster):
        """Seeded pixel positions to recheck, plus one pixel at 0 and one at 255."""
        rng = self.rng(2, i + 1)
        h, w = raster.shape[:2]
        ys = list(rng.integers(0, h, self.samples))
        xs = list(rng.integers(0, w, self.samples))
        for level in (0, 255):
            hits = np.flatnonzero((raster == level).any(axis=2))
            if hits.size:
                ys.append(int(hits[0] // w))
                xs.append(int(hits[0] % w))
        return ys, xs

    def check(self, i, record) -> Check:
        if record.get("exit") != 0:
            return Check(False, f"exit code {record.get('exit')}")
        frame = scenes.read_p6(self.path(f"frame{i}.ppm"))
        try:
            out = scenes.read_p6(self.path(f"out{i}.ppm"))
        except (OSError, ValueError) as exc:
            return Check(False, f"unreadable output: {exc}")
        if out.shape != frame.shape:
            return Check(False, f"output shape {out.shape}, input {frame.shape}")
        if self._lattice is None:
            self._lattice = load_lattice(self.path("look.nulut"))
        ys, xs = self.sample_positions(i, frame)
        for y, x in zip(ys, xs):
            value = transform_pixel(frame[y, x] / 255.0, self._lattice)
            expected = np.floor(np.clip(value, 0.0, 1.0) * 255.0 + 0.5)
            if not np.array_equal(expected, out[y, x]):
                return Check(False, f"pixel ({y}, {x}): {out[y, x]} != {expected}")
        params, _ = self._look()
        reference = scenes.grade(frame.transpose(2, 0, 1) / 255.0, params)
        return Check(True, psnr_db=psnr(out.transpose(2, 0, 1) / 255.0, reference))

    def working_set(self):
        return {
            "frame_bytes_u8": 3 * self.width * self.height,
            "frame_bytes_f64": 3 * self.width * self.height * 8,
            "table_bytes": 3 * self.n_s**3 * 8,
        }


class FitWorkload(Workload):
    """`nulut fit --adaptive` on distinct 256x256 8-bit pairs, n=17."""

    name = "fit-256"
    unit = "step"
    key = 2
    max_items = 60
    size, n_s, steps = 256, 17, 20
    psnr_floor = 30.0

    def _curve(self):
        return scenes.grade_params(self.fixed_rng())

    def prepare_item(self, i):
        x = scenes.quantize(scenes.scene(self.rng(1, i + 1), self.size, self.size))
        target = scenes.tone_curve(x.transpose(2, 0, 1) / 255.0, self._curve())
        scenes.write_p6(x, self.path(f"in{i}.ppm"))
        scenes.write_p6(scenes.quantize(target), self.path(f"target{i}.ppm"))

    def load(self, i):
        return ["fit", "--input", self.path(f"in{i}.ppm"), "--target", self.path(f"target{i}.ppm"),
                "--nsize", str(self.n_s), "--steps", str(self.steps), "--adaptive",
                "--out", self.path(f"fit{i}.nulut"), "--history", self.path(f"history{i}.csv")]

    def run(self, op, call=plain_call):
        return call("cli_main", cli_main, op)

    def pixels(self):
        return self.size * self.size * self.steps

    def units(self):
        return self.steps

    def check(self, i, record) -> Check:
        if record.get("exit") != 0:
            return Check(False, f"exit code {record.get('exit')}")
        try:
            history = np.loadtxt(self.path(f"history{i}.csv"), delimiter=",", skiprows=1, ndmin=2)
            lattice = load_lattice(self.path(f"fit{i}.nulut"))
        except (OSError, ValueError) as exc:
            return Check(False, f"unreadable output: {exc}")
        if history.shape[0] != self.steps or not np.all(np.isfinite(history)):
            return Check(False, f"history has {history.shape[0]} rows or non-finite entries")
        x = scenes.read_p6(self.path(f"in{i}.ppm")).transpose(2, 0, 1) / 255.0
        target = scenes.read_p6(self.path(f"target{i}.ppm")).transpose(2, 0, 1) / 255.0
        quality = psnr(np.clip(transform_image(x, lattice), 0.0, 1.0), target)
        if quality < self.psnr_floor:
            return Check(False, f"psnr {quality:.2f} dB below {self.psnr_floor}", quality)
        return Check(True, psnr_db=quality)

    def working_set(self):
        return {
            "pair_bytes_f64": 2 * 3 * self.size**2 * 8,
            "table_bytes": 3 * self.n_s**3 * 8,
        }


_PARAM_FIELDS = [f.name for f in fields(PredictorParams)]


class TrainWorkload(Workload):
    """Library `train_predictor` on 8 float 64x64 pairs in two styles, n=33, m=3."""

    name = "train-n33"
    unit = "step"
    key = 3
    max_items = 60
    size, n_s, m, epochs, freeze = 64, 33, 3, 6, 2
    styles = (0, 0, 0, 0, 1, 1, 1, 1)
    psnr_floor = 25.0

    def prepare_item(self, i):
        rng = self.rng(1, i + 1)
        pairs = [scenes.style_pair(rng, s, self.size) for s in self.styles]
        np.savez(self.path(f"pairs{i}.npz"),
                 inputs=np.stack([p[0] for p in pairs]), targets=np.stack([p[1] for p in pairs]))

    def _pairs(self, i):
        with np.load(self.path(f"pairs{i}.npz")) as data:
            return [ImagePair(x, t) for x, t in zip(data["inputs"], data["targets"])]

    def load(self, i):
        config = TrainConfig(learning_rate=1e-2, epochs=self.epochs,
                             freeze_interval_epochs=self.freeze, seed=0)
        return self._pairs(i), config

    def run(self, op, call=plain_call):
        pairs, config = op
        return call("train_predictor", train_predictor, pairs, self.n_s, self.m, config,
                    batch_size=1)

    def persist(self, i, result):
        params, history = result
        np.savez(self.path(f"trained{i}.npz"), history=history,
                 **{name: getattr(params, name) for name in _PARAM_FIELDS})
        return {}

    def pixels(self):
        return self.size * self.size * self.units()

    def units(self):
        return self.epochs * len(self.styles)

    def check(self, i, record) -> Check:
        try:
            with np.load(self.path(f"trained{i}.npz")) as data:
                history = data["history"]
                params = PredictorParams(**{
                    name: data[name].item() if data[name].ndim == 0 else data[name]
                    for name in _PARAM_FIELDS})
        except (OSError, KeyError, ValueError) as exc:
            return Check(False, f"unreadable output: {exc}")
        if history.shape[0] != self.units() or not np.all(np.isfinite(history)):
            return Check(False, f"history has {history.shape[0]} rows or non-finite entries")
        scores = []
        for pair in self._pairs(i):
            features = extract_features(pair.input)
            try:
                lattice = Lattice(coordinates_from_logits(predict_logits(features, params)),
                                  predict_values(features, params))
            except ValueError as exc:
                return Check(False, f"predicted lattice invalid: {exc}")
            scores.append(psnr(transform_image(pair.input, lattice), pair.target))
        quality = float(np.mean(scores))
        if quality < self.psnr_floor:
            return Check(False, f"psnr {quality:.2f} dB below {self.psnr_floor}", quality)
        return Check(True, psnr_db=quality)

    def working_set(self):
        table = 3 * self.n_s**3
        return {
            "pairs_bytes_f64": len(self.styles) * 2 * 3 * self.size**2 * 8,
            "table_bytes": table * 8,
            "basis_bytes": self.m * table * 8,
        }


WORKLOADS = {w.name: w for w in (ApplyWorkload, FitWorkload, TrainWorkload)}
