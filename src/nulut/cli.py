"""Command-line interface: fit, apply, train, aeh, bench, export-cube.

Exit codes: 0 on success, 1 on usage errors, 2 on data errors (bad
files, invalid values, diverged training).  All randomness is controlled
by --seed.  apply transforms on every CPU the process may use; its
output bytes do not depend on that count.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import analysis, bench, lutio, ppm, training
# perfbench's tracer looks predict_logits and predict_values up here by name
from .predictor import predict_logits, predict_values, extract_features  # noqa: F401
from .transform import transform_image


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="nulut", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="fit a lattice to one input/target pair")
    fit.add_argument("--input", required=True)
    fit.add_argument("--target", required=True)
    fit.add_argument("--nsize", type=int, required=True)
    fit.add_argument("--steps", type=int, required=True)
    mode = fit.add_mutually_exclusive_group(required=True)
    mode.add_argument("--adaptive", action="store_true")
    mode.add_argument("--uniform", action="store_true")
    fit.add_argument("--shared", action="store_true")
    fit.add_argument("--out", required=True)
    fit.add_argument("--lr", type=float, default=1e-2)
    fit.add_argument("--freeze", type=int, default=None,
                     help="interval warmup steps (default: 10%% of steps)")
    fit.add_argument("--interval-lr-decay", type=float, default=0.1)
    fit.add_argument("--lambda-s", type=float, default=0.0001)
    fit.add_argument("--lambda-m", type=float, default=10.0)
    fit.add_argument("--seed", type=int, default=0)
    fit.add_argument("--history", default=None, help="write per-step loss CSV here")

    apply_ = sub.add_parser("apply", help="apply a saved lattice to an image")
    apply_.add_argument("--lut", required=True)
    apply_.add_argument("--input", required=True)
    apply_.add_argument("--output", required=True)

    train = sub.add_parser("train", help="train the adaptive predictor on pairs")
    train.add_argument("--pairs-manifest", required=True,
                       help="text file, one 'input<TAB>target' line per pair")
    train.add_argument("--nsize", type=int, required=True)
    train.add_argument("--m", type=int, required=True)
    train.add_argument("--epochs", type=int, required=True)
    train.add_argument("--out", required=True)
    train.add_argument("--shared", action="store_true")
    train.add_argument("--lr", type=float, default=1e-2)
    train.add_argument("--freeze", type=int, default=5)
    train.add_argument("--interval-lr-decay", type=float, default=0.1)
    train.add_argument("--batch", type=int, default=1)
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--history", default=None)

    aeh = sub.add_parser("aeh", help="accumulated error histogram diagnostics")
    aeh.add_argument("--input", required=True)
    aeh.add_argument("--target", required=True)
    aeh.add_argument("--bins", type=int, default=analysis.DEFAULT_BINS)
    aeh.add_argument("--out-csv", required=True, help="output path prefix")
    aeh.add_argument("--lut", default=None,
                     help="optional lattice whose knots go in the coords CSV")
    aeh.add_argument("--svg", action="store_true")

    bench_p = sub.add_parser("bench", help="transform throughput on random images")
    bench_p.add_argument("--sizes", required=True,
                         help="comma-separated WxH list, e.g. 1920x1080,3840x2160")
    bench_p.add_argument("--threads", type=int, default=1)
    bench_p.add_argument("--repeat", type=int, default=3)
    bench_p.add_argument("--nsize", type=int, default=33)
    bench_p.add_argument("--seed", type=int, default=0)

    cube = sub.add_parser("export-cube", help="resample a lattice to .cube")
    cube.add_argument("--lut", required=True)
    cube.add_argument("--size", type=int, required=True)
    cube.add_argument("--out", required=True)
    return parser


def _load_pair(input_path, target_path) -> training.ImagePair:
    return training.ImagePair(ppm.read_image(input_path), ppm.read_image(target_path))


def _train_config(args, epochs, freeze) -> training.TrainConfig:
    return training.TrainConfig(
        learning_rate=args.lr,
        epochs=epochs,
        freeze_interval_epochs=min(freeze, epochs),
        interval_lr_decay=args.interval_lr_decay,
        seed=args.seed,
    )


def _predicted_lattice(img, params):
    """The lattice the predictor heads give for one (3, h, w) float image."""
    return training.predictor_forward(extract_features(img), params)[0]


def _cmd_fit(args) -> int:
    if args.steps < 1:
        raise ValueError(f"--steps must be at least 1, got {args.steps}")
    pair = _load_pair(args.input, args.target)
    weights = training.LossWeights(lambda_s=args.lambda_s, lambda_m=args.lambda_m)
    freeze = args.freeze if args.freeze is not None else max(1, args.steps // 10)
    config = _train_config(args, args.steps, freeze)
    lattice, history = training.fit_direct(
        [pair], args.nsize, config, weights,
        adaptive=args.adaptive, shared=args.shared,
    )
    lutio.save_lattice(lattice, args.out)
    if args.history:
        training.write_history_csv(history, args.history)
    final = history[-1]
    print(f"fit: {len(history)} steps, final loss {final[1]:.6g} "
          f"(l_r {final[2]:.6g})")
    return 0


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _cmd_apply(args) -> int:
    lattice, predictor = lutio.load_checkpoint(args.lut)
    samples, maxval = ppm.read_ppm(args.input, raw=True)
    if predictor is not None:
        lattice = _predicted_lattice(samples.astype(np.float64) / maxval, predictor)
    # write_image rounds and clips to [0, maxval], so no clip to [0, 1] here;
    # transform_image's bytes do not depend on the worker count
    out = transform_image(samples, lattice, workers=_usable_cpus(), maxval=maxval)
    ppm.write_image(out, args.output, maxval=maxval)
    print(f"apply: wrote {args.output}")
    return 0


def _read_manifest(path):
    pairs = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise ValueError(
                    f"{path}:{lineno}: expected 'input<TAB>target', got {line!r}"
                )
            pairs.append(_load_pair(parts[0], parts[1]))
    if not pairs:
        raise ValueError(f"manifest {path} lists no pairs")
    return pairs


def _cmd_train(args) -> int:
    pairs = _read_manifest(args.pairs_manifest)
    config = _train_config(args, args.epochs, args.freeze)
    params, history = training.train_predictor(
        pairs, args.nsize, args.m, config,
        shared=args.shared, batch_size=args.batch,
    )
    # reference lattice: the prediction for the first training input
    lattice = _predicted_lattice(pairs[0].input, params)
    lutio.save_lattice(lattice, args.out, predictor=params)
    if args.history:
        training.write_history_csv(history, args.history)
    print(f"train: {len(pairs)} pairs, {len(history)} steps, "
          f"final loss {history[-1][1]:.6g}")
    return 0


def _cmd_aeh(args) -> int:
    pair = _load_pair(args.input, args.target)
    hist = analysis.accumulative_error_histogram(
        pair.input, pair.target, n_bin=args.bins
    )
    coords = lutio.load_lattice(args.lut).coords if args.lut else None
    written = analysis.export_diagnostics(coords, hist, args.out_csv, svg=args.svg)
    print("aeh: wrote " + ", ".join(written))
    return 0


def _parse_sizes(size_list):
    sizes = []
    for part in size_list.split(","):
        try:
            w, h = part.lower().split("x")
            sizes.append((int(w), int(h)))
        except ValueError:
            raise ValueError(f"bad size '{part}', expected WxH") from None
    return sizes


def _cmd_bench(args) -> int:
    report = bench.run_bench(
        _parse_sizes(args.sizes),
        threads=args.threads,
        repeat=args.repeat,
        n_s=args.nsize,
        seed=args.seed,
    )
    for line in report.lines():
        print(line)
    if report.max_comparisons > report.comparison_bound:
        print("lookup comparison bound exceeded", file=sys.stderr)
        return 2
    return 0


def _cmd_export_cube(args) -> int:
    lattice = lutio.load_lattice(args.lut)
    lutio.export_cube(lattice, args.size, args.out)
    print(f"export-cube: wrote {args.out}")
    return 0


_COMMANDS = {
    "fit": _cmd_fit,
    "apply": _cmd_apply,
    "train": _cmd_train,
    "aeh": _cmd_aeh,
    "bench": _cmd_bench,
    "export-cube": _cmd_export_cube,
}


def cli_main(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    except SystemExit as exc:  # --help and friends
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError, training.TrainingDivergedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
