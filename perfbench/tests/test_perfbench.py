"""Self-tests for the benchmark's own code: span arithmetic, rebinding,
seeded inputs and the apply-1080p output check."""

import importlib
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
SRC = os.path.join(os.path.dirname(BENCH), "src")
sys.path[:0] = [p for p in (BENCH, SRC) if p not in sys.path]

import ops  # noqa: E402
import scenes  # noqa: E402
from spans import REBOUND, Span, Tracer, layer_totals, self_times  # noqa: E402

from nulut.cli import cli_main  # noqa: E402
from nulut.lattice import Lattice, identity_lut, uniform_coordinates  # noqa: E402
from nulut.lutio import save_lattice  # noqa: E402


def _span(span_id, parent, name, start, end):
    return Span(span_id, parent, 0, name, start, end)


class TestSelfTime:
    def test_hand_built_tree(self):
        spans = [
            _span(0, None, "cli_main", 0, 100),
            _span(1, 0, "read_ppm", 10, 30),
            _span(2, 1, "load_checkpoint", 12, 20),
            # overlaps its sibling, and the overlap must be counted once
            _span(3, 0, "transform_image", 25, 50),
            # runs past the end of its parent, which is clipped
            _span(4, 0, "write_image", 90, 120),
        ]
        own = self_times(spans)
        assert own == {0: 100 - 40 - 10, 1: 20 - 8, 2: 8, 3: 25, 4: 30}

    def test_layer_totals_group_by_layer(self):
        spans = [
            _span(0, None, "fit_direct", 0, 1000),
            _span(1, 0, "smoothness_loss_grad", 100, 300),
            _span(2, 0, "monotonicity_loss_grad", 300, 400),
            _span(3, 0, "not_a_layer", 400, 500),
        ]
        totals = layer_totals(spans)
        assert totals["training.regularizer"] == {"s": 300e-9, "calls": 2}
        # time in a span that maps to no layer stays with nobody's self time
        assert totals["training.self"]["s"] == pytest.approx(600e-9)
        assert set(totals) == {"training.regularizer", "training.self"}


def _originals():
    return {(m, a): getattr(importlib.import_module(m), a)
            for m, names in REBOUND.items() for a in names}


def _small_apply_inputs(tmp_path):
    coords = uniform_coordinates(3)
    save_lattice(Lattice(coords, identity_lut(coords)), tmp_path / "id.nulut")
    frame = scenes.quantize(scenes.scene(np.random.default_rng(0), 6, 8))
    scenes.write_p6(frame, tmp_path / "in.ppm")
    return ["apply", "--lut", str(tmp_path / "id.nulut"), "--input", str(tmp_path / "in.ppm"),
            "--output", str(tmp_path / "out.ppm")]


class TestRebinding:
    def test_traced_run_records_spans_and_restores_every_name(self, tmp_path, capsys):
        argv = _small_apply_inputs(tmp_path)
        before = _originals()
        tracer = Tracer()
        tracer.install(7)
        try:
            assert all(getattr(importlib.import_module(m), a) is not fn
                       for (m, a), fn in before.items())
            assert tracer.call("cli_main", cli_main, argv) == 0
        finally:
            tracer.uninstall()
        assert _originals() == before
        names = [s.name for s in tracer.spans]
        assert names[0] == "cli_main"
        assert {"load_checkpoint", "read_ppm", "transform_image", "write_image"} <= set(names)
        assert all(s.parent_id == 0 and s.op_id == 7 for s in tracer.spans[1:])
        by_name = {s.name: s for s in tracer.spans}
        assert by_name["transform_image"].attrs == {"px": 48}
        assert by_name["write_image"].attrs == {"bytes": os.path.getsize(tmp_path / "out.ppm")}

    def test_names_restored_when_the_operation_raises(self):
        before = _originals()
        tracer = Tracer()
        tracer.install(0)
        try:
            with pytest.raises(ZeroDivisionError):
                tracer.call("train_predictor", lambda: 1 / 0)
        finally:
            tracer.uninstall()
        assert _originals() == before
        assert tracer.spans[0].end_ns >= tracer.spans[0].start_ns

    def test_second_install_is_refused(self):
        tracer = Tracer()
        tracer.install(0)
        try:
            with pytest.raises(RuntimeError):
                tracer.install(1)
        finally:
            tracer.uninstall()


def _generated(workload_cls, seed, directory):
    os.makedirs(directory)
    workload = workload_cls(seed, str(directory))
    workload.prepare()
    workload.prepare_item(0)
    return {name: (directory / name).read_bytes() for name in sorted(os.listdir(directory))}


@pytest.mark.parametrize("workload_cls", list(ops.WORKLOADS.values()))
def test_inputs_depend_only_on_seed(workload_cls, tmp_path):
    first = _generated(workload_cls, 7, tmp_path / "a")
    again = _generated(workload_cls, 7, tmp_path / "b")
    other = _generated(workload_cls, 8, tmp_path / "c")
    assert first == again
    assert first.keys() == other.keys()
    # the checkpoint holds the look, which is the same for every seed
    assert all(first[name] != other[name] for name in first if name != "look.nulut")


class TestApplyCheck:
    @pytest.fixture(scope="class")
    def applied(self, tmp_path_factory):
        workload = ops.ApplyWorkload(3, str(tmp_path_factory.mktemp("apply")))
        workload.prepare()
        workload.prepare_item(0)
        record = workload.persist(0, workload.run(workload.load(0)))
        return workload, record

    def test_correct_output_passes(self, applied):
        workload, record = applied
        check = workload.check(0, record)
        assert check.ok, check.reason
        assert check.psnr_db > 40.0

    def test_one_changed_sample_fails(self, applied, tmp_path):
        workload, record = applied
        path = workload.path("out0.ppm")
        original = open(path, "rb").read()
        try:
            raster = scenes.read_p6(path).copy()
            ys, xs = workload.sample_positions(0, scenes.read_p6(workload.path("frame0.ppm")))
            raster[ys[0], xs[0], 1] ^= 1
            scenes.write_p6(raster, path)
            check = workload.check(0, record)
            assert not check.ok and "pixel" in check.reason
            with open(path, "wb") as fh:
                fh.write(original[:-10])
            assert not workload.check(0, record).ok
        finally:
            with open(path, "wb") as fh:
                fh.write(original)

    def test_nonzero_exit_fails(self, applied):
        workload, _ = applied
        assert not workload.check(0, {"exit": 2}).ok


def test_benchmark_json_matches_printed_metrics():
    import json

    import run

    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.LAYER_UNITS
    assert {w["name"] for w in spec["workloads"]} == set(ops.WORKLOADS)
    samples = [{"op_s": 1.0, "pixels": 10}]
    e2e = run.end_to_end_metrics([1.0], samples, [ops.Check(True, psnr_db=40.0)], 50.0)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {k: u for k, (_, u) in e2e.items()}
