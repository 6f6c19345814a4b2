"""Run perfbench on two checkouts in alternating pairs and compare them.

    python tools/bench_pairs.py PARENT CHANGE --workload W [--workload W2 ...]
        --pairs N [--seconds S] --out FILE

PARENT and CHANGE are the roots of two nulut checkouts.  For each
workload W in the order given, pair i (seed i, from 1 to N) runs

    perfbench/run.py --workload W --seed i --seconds S --trace 0

in each checkout, one after the other, with the same seed on both
sides; the parent runs first in the first pair, the change in the
second, and so on, so drift on the host falls on both sides alike.
Each run's last stdout line is read as perfbench's JSON result, and the
records.json in the directory its "records" line names gives each
timed item's psnr_db.  FILE gets the host (nproc, Python, NumPy), each
side's commit (`git describe --always --dirty` in its root, or null
outside git) and, per workload, every pair's end-to-end metrics per
side, how many items both sides timed and whether each of those items
scored the same psnr_db on both, and per metric the medians, the
parent's quartiles and how many pairs read lower on the change.  A
workload's psnr_db metric is a median over however many items a run
timed, so only the per-item comparison can show equal scores.  Exits
2, writing no FILE, when a run exits non-zero, its last line is not a
JSON result, or its records cannot be read.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from importlib import metadata

SIDES = ("parent", "change")


class RunFailed(RuntimeError):
    pass


def run_side(root, workload, seed, seconds):
    """The JSON result perfbench printed last in checkout root, and its items'
    psnr_db (item_scores), or RunFailed."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=root, capture_output=True, text=True)
    where = f"{root} seed {seed}"
    if done.returncode != 0:
        raise RunFailed(f"{where}: exit {done.returncode}: {done.stderr.strip()[-500:]}")
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
    except (IndexError, ValueError, KeyError, TypeError, AttributeError):
        raise RunFailed(f"{where}: no JSON result line") from None
    return ({"metrics": metrics, "attempted": result.get("attempted"),
             "failed": result.get("failed")}, item_scores(lines, root, where))


def item_scores(lines, root, where):
    """Item index -> psnr_db of the samples in the records perfbench's report names."""
    marker = "  records "
    named = [line.split(marker, 1)[1] for line in lines if marker in line]
    if not named:
        raise RunFailed(f"{where}: no records line")
    try:
        with open(os.path.join(root, named[-1], "records.json"), encoding="utf-8") as fh:
            samples = json.load(fh)["samples"]
        return {sample["i"]: sample["psnr_db"] for sample in samples}
    except (OSError, ValueError, KeyError, TypeError) as err:
        raise RunFailed(f"{where}: unreadable records: {err}") from None


def compare_items(scores):
    """How many items both sides timed, and whether each scored one psnr_db on both."""
    both = scores["parent"].keys() & scores["change"].keys()
    return {"timed_by_both": len(both),
            "equal": all(scores["parent"][i] == scores["change"][i] for i in both)}


def quartiles(values):
    """(first, third) quartile; a single value is both."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def summarize(pairs):
    """Per metric both sides' medians, the parent's quartiles and the change-lower count."""
    summary = {}
    for name in pairs[0]["parent"]["metrics"]:
        parent = [pair["parent"]["metrics"][name] for pair in pairs]
        change = [pair["change"]["metrics"][name] for pair in pairs]
        lower = sum(c < p for p, c in zip(parent, change))
        summary[name] = {
            "parent_median": statistics.median(parent),
            "change_median": statistics.median(change),
            "parent_quartiles": quartiles(parent),
            "change_lower": f"{lower} of {len(pairs)}",
        }
    return summary


def host():
    """nproc (the CPUs this process may run on, as nproc(1) counts them), Python and NumPy."""
    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = None
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {"nproc": nproc, "python": platform.python_version(), "numpy": numpy,
            "machine": platform.machine()}


def commit(root):
    """`git describe --always --dirty` of the checkout at root, or None outside git."""
    done = subprocess.run(["git", "describe", "--always", "--dirty", "--abbrev=40"],
                          cwd=root, capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    roots = {"parent": args.parent, "change": args.change}
    commits = {side: commit(root) for side, root in roots.items()}
    workloads = {}
    for workload in args.workload:
        pairs = []
        for seed in range(1, args.pairs + 1):
            order = SIDES if seed % 2 else SIDES[::-1]
            pair, scores = {"seed": seed, "first": order[0]}, {}
            for side in order:
                try:
                    pair[side], scores[side] = run_side(roots[side], workload, seed, args.seconds)
                except RunFailed as err:
                    print(f"bench_pairs: {side} run failed: {err}", file=sys.stderr)
                    return 2
            pair["psnr_db_items"] = compare_items(scores)
            pairs.append(pair)
            print(f"{workload} pair {seed}/{args.pairs}: " + "  ".join(
                f"{side} op_s_p50 {pair[side]['metrics'].get('op_s_p50')}" for side in SIDES),
                flush=True)
        equal = sum(p["psnr_db_items"]["equal"] and p["psnr_db_items"]["timed_by_both"] > 0
                    for p in pairs)
        workloads[workload] = {"pairs": pairs, "summary": summarize(pairs),
                               "psnr_db_equal_per_item": f"{equal} of {len(pairs)} pairs"}
    report = {"seconds": args.seconds, "host": host(),
              "commits": commits, "workloads": workloads}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    for workload, result in workloads.items():
        print(f"{workload} psnr_db equal per item in {result['psnr_db_equal_per_item']}")
        for name, entry in result["summary"].items():
            print(f"{workload} {name:14} parent {entry['parent_median']:.6g}  change "
                  f"{entry['change_median']:.6g}  change lower in {entry['change_lower']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
