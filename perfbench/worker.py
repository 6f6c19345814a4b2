"""One workload process: set up, warm up, then a closed timed loop.

Started by run.py in a fresh interpreter with nulut on PYTHONPATH.  With
--mode setup it stops after the warm-up operation and reports only its
set-up time; with --mode run it then times operations 0, 1, ... until
their summed wall time reaches --seconds or the generated items run out.
A traced run (--trace 1) traces operations 1 and 2 of every 4, so traced
and untraced operations interleave and the tracing overhead can be read
off the same run.  Results go to the JSON file named by --result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback

import ops
from nulut.lutio import load_lattice
from nulut.ppm import read_image
from nulut.transform import transform_image
from spans import Tracer, layer_totals


def parallel_efficiency(workload, i: int, workers: int, repeat: int = 3) -> dict:
    """Time one frame's transform at 1 worker and at `workers`, interleaved."""
    img = read_image(workload.path(f"frame{i}.ppm"))
    lattice = load_lattice(workload.path("look.nulut"))
    times = {1: [], workers: []}
    for _ in range(repeat):
        for w in (1, workers):
            start = time.perf_counter()
            transform_image(img, lattice, workers=w)
            times[w].append(time.perf_counter() - start)
    t1, tn = statistics.median(times[1]), statistics.median(times[workers])
    return {"workers": workers, "t1_s": t1, "tn_s": tn, "efficiency": t1 / (workers * tn)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(ops.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run"), required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--items", type=int, default=0)
    parser.add_argument("--min-ops", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)

    workload = ops.WORKLOADS[args.workload](args.seed, args.dir)
    warm = workload.load(ops.WARMUP)
    start = time.perf_counter()
    workload.run(warm)
    warm_op_s = time.perf_counter() - start
    report = {"warm_op_s": warm_op_s, "setup_s": time.monotonic() - args.spawned_at}
    if args.mode == "setup":
        with open(args.result, "w", encoding="utf-8") as fh:
            json.dump(report, fh)
        return 0

    tracer = Tracer()
    samples, layers = [], []
    timed = 0.0
    for i in range(args.items):
        op = workload.load(i)
        traced = bool(args.trace) and i % 4 in (1, 2)
        first_span = len(tracer.spans)
        error, result = None, None
        if traced:
            tracer.install(i)
        start = time.perf_counter()
        try:
            result = workload.run(op, tracer.call if traced else ops.plain_call)
        except Exception:  # a failed operation is counted, the run goes on
            error = traceback.format_exc(limit=3)
        finally:
            op_s = time.perf_counter() - start
            if traced:
                tracer.uninstall()
        record = {"error": error} if error else workload.persist(i, result)
        samples.append({"i": i, "op_s": op_s, "traced": traced, "units": workload.units(),
                        "pixels": workload.pixels(), **record})
        if traced:
            layers.append({"i": i, "units": workload.units(),
                           "totals": layer_totals(tracer.spans[first_span:])})
        timed += op_s
        if timed >= args.seconds and len(samples) >= args.min_ops:
            break

    report["samples"] = samples
    report["layers"] = layers
    if args.trace and isinstance(workload, ops.ApplyWorkload):
        report["parallel"] = parallel_efficiency(workload, samples[-1]["i"],
                                                len(os.sched_getaffinity(0)))
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.spans and tracer.spans:
        tracer.write_jsonl(args.spans)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
