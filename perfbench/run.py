"""nulut benchmark: one workload, one run, one JSON result line.

Run from the root of a nulut checkout:

    python3 perfbench/run.py --workload apply-1080p --seed 1 --seconds 20 --trace 0

The controller (this process) writes every input from --seed, measures
set-up time in fresh worker interpreters, runs the timed closed loop in
one more worker, checks every operation's outputs, and prints the
metrics.  With --trace 0 the metrics are the end-to-end ones; with
--trace 1 they are the per-layer ones from traced operations.  Raw
records (samples, per-layer totals, spans, host info) are written under
.perfbench_out/ in the checkout.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
SETUP_PROBES = 2  # extra fresh interpreters that only set up
BUDGET_S = 170.0  # the whole run, generation and checks included
ITEM_MARGIN = 1.3  # generated items per operation the warm-up predicts


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def host_info() -> dict:
    info = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_model": "unknown",
        "commit": "unknown",
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    for level in (2, 3):
        size = 0
        try:
            size = os.sysconf(f"SC_LEVEL{level}_CACHE_SIZE")
        except (ValueError, OSError):
            pass
        info[f"l{level}_bytes"] = size or _sys_cache_size(level)
    import numpy

    info["numpy"] = numpy.__version__
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                                 text=True, timeout=10)
            info["commit"] = out.stdout.strip() or "unknown"
        except (OSError, subprocess.TimeoutExpired):
            pass
    return info


def _sys_cache_size(level: int) -> int:
    """Cache size in bytes from sysfs, 0 when it cannot be read."""
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for entry in sorted(os.listdir(base)):
            with open(os.path.join(base, entry, "level"), encoding="ascii") as fh:
                if int(fh.read()) != level:
                    continue
            with open(os.path.join(base, entry, "size"), encoding="ascii") as fh:
                text = fh.read().strip()
            scale = {"K": 1024, "M": 1024**2}.get(text[-1:], 1)
            return int(text.rstrip("KM")) * scale
    except (OSError, ValueError):
        pass
    return 0


def flush_to_disk(directory: str) -> None:
    """fsync every file in directory.

    Freshly written inputs would otherwise be written back by the kernel
    during the timed loop, competing with the operations for the CPUs.
    """
    for name in os.listdir(directory):
        fd = os.open(os.path.join(directory, name), os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)


class Launcher:
    """Starts worker.py interpreters under one deadline for the whole run."""

    def __init__(self, args, run_dir, input_dir, deadline):
        self.args = args
        self.run_dir = run_dir
        self.input_dir = input_dir
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])

    def start(self, tag, mode, **extra) -> dict:
        result = os.path.join(self.run_dir, f"{tag}.json")
        argv = [sys.executable, os.path.join(HERE, "worker.py"),
                "--workload", self.args.workload, "--seed", str(self.args.seed),
                "--dir", self.input_dir, "--mode", mode, "--result", result]
        for key, value in extra.items():
            argv += [f"--{key.replace('_', '-')}", str(value)]
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise TimeoutError(f"no time left to start worker {tag}")  # an OSError: main reports it
        with open(os.path.join(self.run_dir, f"{tag}.log"), "w", encoding="utf-8") as log:
            spawned_at = time.monotonic()
            # subprocess.run kills and reaps the worker when it times out
            proc = subprocess.run(argv + ["--spawned-at", repr(spawned_at)], env=self.env,
                                  stdout=log, stderr=subprocess.STDOUT, timeout=timeout)
        if proc.returncode != 0:
            raise RuntimeError(f"worker {tag} exited with {proc.returncode}; see {log.name}")
        with open(result, encoding="utf-8") as fh:
            return json.load(fh)


LAYER_UNITS = {
    "ppm.read_s": "s", "ppm.write_s": "s", "ppm.read_mb_per_s": "MB/s",
    "ppm.write_mb_per_s": "MB/s", "lutio.load_s": "s", "lutio.floats_per_s": "floats/s",
    "lutio.save_s": "s", "transform.forward_s": "s", "transform.forward_ns_per_px": "ns/px",
    "transform.grads_s": "s", "transform.grads_ns_per_px": "ns/px", "transform.calls": "count",
    "transform.px_per_unit": "count", "transform.parallel_efficiency": "ratio",
    "lattice.build_s": "s", "lattice.vjp_s": "s", "training.regularizer_s": "s",
    "training.adam_s": "s", "training.adam_params": "count", "training.loss_s": "s",
    "training.self_s": "s", "predictor.features_s": "s", "predictor.features_calls": "count",
    "predictor.heads_s": "s", "cli.self_s": "s", "trace.overhead_frac": "ratio",
}


def median_layer_metrics(layers, parallel, samples) -> dict:
    """Per-layer metrics: medians over traced operations, per unit of work."""
    per_op = [layer_metrics(entry["totals"], entry["units"]) for entry in layers]
    metrics = {name: (statistics.median(op[name] for op in per_op), unit)
               for name, unit in LAYER_UNITS.items() if name in per_op[0]}
    metrics["transform.parallel_efficiency"] = (parallel["efficiency"] if parallel else 0.0, "ratio")
    traced = [s["op_s"] for s in samples if s["traced"]]
    plain = [s["op_s"] for s in samples if not s["traced"]]
    metrics["trace.overhead_frac"] = (
        statistics.median(traced) / statistics.median(plain) - 1.0, "ratio")
    return metrics



def layer_metrics(totals: dict, units: int) -> dict:
    """One traced operation's layer totals turned into per-unit metrics."""
    def get(layer, key="s"):
        return totals.get(layer, {}).get(key, 0)

    def ratio(num, den):
        return num / den if den > 0 else 0.0

    fwd, grads = "transform.forward", "transform.grads"
    return {
        "ppm.read_s": get("ppm.read") / units,
        "ppm.write_s": get("ppm.write") / units,
        "ppm.read_mb_per_s": ratio(get("ppm.read", "bytes") / 1e6, get("ppm.read")),
        "ppm.write_mb_per_s": ratio(get("ppm.write", "bytes") / 1e6, get("ppm.write")),
        "lutio.load_s": get("lutio.load") / units,
        "lutio.floats_per_s": ratio(get("lutio.load", "floats"), get("lutio.load")),
        "lutio.save_s": get("lutio.save") / units,
        "transform.forward_s": get(fwd) / units,
        "transform.forward_ns_per_px": ratio(get(fwd) * 1e9, get(fwd, "px")),
        "transform.grads_s": get(grads) / units,
        "transform.grads_ns_per_px": ratio(get(grads) * 1e9, get(grads, "px")),
        "transform.calls": (get(fwd, "calls") + get(grads, "calls")) / units,
        "transform.px_per_unit": (get(fwd, "px") + get(grads, "px")) / units,
        "lattice.build_s": get("lattice.build") / units,
        "lattice.vjp_s": get("lattice.vjp") / units,
        "training.regularizer_s": get("training.regularizer") / units,
        "training.adam_s": get("training.adam") / units,
        "training.adam_params": get("training.adam", "params") / units,
        "training.loss_s": get("training.loss") / units,
        "training.self_s": get("training.self") / units,
        "predictor.features_s": get("predictor.features") / units,
        "predictor.features_calls": get("predictor.features", "calls") / units,
        "predictor.heads_s": get("predictor.heads") / units,
        "cli.self_s": get("cli.self") / units,
    }


def end_to_end_metrics(setups, samples, checks, peak_rss_mb) -> dict:
    times = [s["op_s"] for s in samples]
    scores = [c.psnr_db for c in checks if c.psnr_db is not None]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "op_s_p50": (statistics.median(times), "s"),
        "mpix_per_s": (sum(s["pixels"] for s in samples) / sum(times) / 1e6, "Mpx/s"),
        "psnr_db": (statistics.median(scores) if scores else 0.0, "dB"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    started = time.monotonic()

    if not os.path.isfile(os.path.join(SRC, "nulut", "__init__.py")):
        return fail(f"no nulut sources under {SRC}; run from the root of a nulut checkout")
    sys.path[:0] = [SRC, HERE]
    import nulut

    if not os.path.abspath(nulut.__file__).startswith(SRC + os.sep):
        return fail(f"imported nulut from {nulut.__file__}, not from {SRC}")
    import ops

    if args.workload not in ops.WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; choose from {sorted(ops.WORKLOADS)}")
    if args.seconds <= 0 or args.seed < 0:
        return fail("--seconds must be positive and --seed non-negative")

    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    run_dir = os.path.join(ROOT, ".perfbench_out",
                           f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}")
    input_dir = os.path.join(run_dir, "inputs")
    os.makedirs(input_dir)
    workload = ops.WORKLOADS[args.workload](args.seed, input_dir)
    workers = Launcher(args, run_dir, input_dir, started + BUDGET_S)
    try:
        gen_start = time.perf_counter()
        workload.prepare()
        workload.prepare_item(ops.WARMUP)
        flush_to_disk(input_dir)
        gen_s = time.perf_counter() - gen_start
        probes = [workers.start(f"setup{k}", "setup") for k in range(SETUP_PROBES)]
        warm = statistics.median(p["warm_op_s"] for p in probes)
        min_ops = 4 if args.trace else 1
        items = max(min_ops, min(workload.max_items, math.ceil(ITEM_MARGIN * args.seconds / warm) + 2))
        gen_start = time.perf_counter()
        for i in range(items):
            workload.prepare_item(i)
        flush_to_disk(input_dir)
        gen_s += time.perf_counter() - gen_start
        spans_path = os.path.join(run_dir, "spans.jsonl")
        main_run = workers.start("run", "run", seconds=args.seconds, items=items, min_ops=min_ops,
                                 trace=args.trace, spans=spans_path)
        samples = main_run["samples"]
        checks = []
        for s in samples:
            if s.get("error"):
                check = ops.Check(False, s["error"])
            else:
                try:
                    check = workload.check(s["i"], s)
                except Exception:  # a check that cannot run fails the operation
                    check = ops.Check(False, traceback.format_exc(limit=3))
            checks.append(check)
            s.update(ok=check.ok, reason=check.reason, psnr_db=check.psnr_db)
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as exc:
        return fail(str(exc))
    finally:
        shutil.rmtree(input_dir, ignore_errors=True)

    failed = sum(not c.ok for c in checks)
    setups = [p["setup_s"] for p in probes] + [main_run["setup_s"]]
    if args.trace:
        metrics = median_layer_metrics(main_run["layers"], main_run.get("parallel"), samples)
    else:
        metrics = end_to_end_metrics(setups, samples, checks, main_run["peak_rss_mb"])
    host = host_info()
    working_set = workload.working_set()
    if host["l2_bytes"]:
        working_set["table_over_l2"] = working_set["table_bytes"] / host["l2_bytes"]
    records = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "unit_of_work": workload.unit, "items_generated": items,
        "generation_s": gen_s, "host": host, "working_set": working_set,
        "setup_samples_s": setups, "warm_op_s": [p["warm_op_s"] for p in probes]
        + [main_run["warm_op_s"]], "samples": samples, "layers": main_run["layers"],
        "parallel": main_run.get("parallel"), "peak_rss_mb": main_run["peak_rss_mb"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "attempted": len(samples), "failed": failed, "failed_frac": failed / len(samples),
        "wall_s": time.monotonic() - started,
    }
    with open(os.path.join(run_dir, "records.json"), "w", encoding="utf-8") as fh:
        json.dump(records, fh, indent=1)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"{len(samples)} operations of one {workload.unit}"
          f"{'' if workload.units() == 1 else f' x {workload.units()}'}  records {run_dir}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:14.6g} {unit}")
    print(f"  {'operations timed':32s} {len(samples):14d}")
    print(f"  {'failed_frac':32s} {failed / len(samples):14.6g} ratio")
    for s in samples:
        if not s["ok"]:
            print(f"  operation {s['i']} failed: {s['reason']}")
    print(json.dumps({
        "correct": failed == 0, "attempted": len(samples), "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
