import dataclasses
import inspect
import os

import numpy as np
import pytest

from conftest import random_lattice

from nulut import bench, cli, ppm, training, transform
from nulut.cli import cli_main
from nulut.lattice import Lattice, coordinates_from_logits, identity_lut, uniform_coordinates
from nulut.lutio import load_checkpoint, load_lattice, save_lattice
from nulut.ppm import read_image, write_image
from nulut.predictor import extract_features, init_params, predict_logits, predict_values
from nulut.transform import CHUNK_PIXELS, mse_vjp, row_blocks, transform_image
from nulut.analysis import psnr
from nulut.bench import run_bench
from nulut.training import LossWeights, TrainConfig, train_predictor


@pytest.fixture
def gamma_pair(rng, tmp_path):
    img = rng.random((3, 24, 24))
    input_path = tmp_path / "input.ppm"
    target_path = tmp_path / "target.ppm"
    write_image(img, input_path, maxval=65535)
    write_image(img**0.25, target_path, maxval=65535)
    return input_path, target_path


class TestUsage:
    def test_unknown_flag_exits_1(self, capsys):
        assert cli_main(["fit", "--bogus"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_no_command_exits_1(self, capsys):
        assert cli_main([]) == 1

    def test_missing_required_exits_1(self, capsys):
        assert cli_main(["apply", "--lut", "x"]) == 1

    def test_help_exits_0(self, capsys):
        assert cli_main(["--help"]) == 0
        assert "fit" in capsys.readouterr().out


class TestDataErrors:
    def test_missing_input_file_exits_2(self, tmp_path, capsys):
        code = cli_main(
            ["apply", "--lut", str(tmp_path / "nope.nulut"),
             "--input", str(tmp_path / "nope.ppm"),
             "--output", str(tmp_path / "out.ppm")]
        )
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_corrupt_lut_exits_2(self, tmp_path, gamma_pair, capsys):
        lut = tmp_path / "corrupt.nulut"
        lut.write_text("NULUT3D 1\nsize 2\ncoords r 0 0.5\n")
        code = cli_main(
            ["apply", "--lut", str(lut), "--input", str(gamma_pair[0]),
             "--output", str(tmp_path / "o.ppm")]
        )
        assert code == 2


class TestApply:
    def test_identity_lut_round_trips_within_quantization(self, rng, tmp_path, capsys):
        img = rng.random((3, 9, 9))
        input_path = tmp_path / "in.ppm"
        write_image(img, input_path, maxval=255)
        coords = uniform_coordinates(5)
        lut_path = tmp_path / "identity.nulut"
        save_lattice(Lattice(coords, identity_lut(coords)), lut_path)
        out_path = tmp_path / "out.ppm"
        assert cli_main(
            ["apply", "--lut", str(lut_path), "--input", str(input_path),
             "--output", str(out_path)]
        ) == 0
        original = read_image(input_path)
        applied = read_image(out_path)
        assert np.abs(applied - original).max() <= 1.0 / 255 + 1e-12


class TestFit:
    def test_adaptive_beats_uniform_on_gamma_target(self, gamma_pair, tmp_path, capsys):
        input_path, target_path = gamma_pair
        results = {}
        for mode in ("adaptive", "uniform"):
            out = tmp_path / f"{mode}.nulut"
            code = cli_main(
                ["fit", "--input", str(input_path), "--target", str(target_path),
                 "--nsize", "4", "--steps", "400", f"--{mode}",
                 "--seed", "0", "--out", str(out),
                 "--history", str(tmp_path / f"{mode}.csv")]
            )
            assert code == 0
            applied = tmp_path / f"{mode}_out.ppm"
            assert cli_main(
                ["apply", "--lut", str(out), "--input", str(input_path),
                 "--output", str(applied)]
            ) == 0
            results[mode] = psnr(read_image(applied), read_image(target_path))
        assert results["adaptive"] >= results["uniform"]

    def test_history_csv_written(self, gamma_pair, tmp_path, capsys):
        history = tmp_path / "h.csv"
        assert cli_main(
            ["fit", "--input", str(gamma_pair[0]), "--target", str(gamma_pair[1]),
             "--nsize", "3", "--steps", "10", "--uniform",
             "--out", str(tmp_path / "l.nulut"), "--history", str(history)]
        ) == 0
        lines = history.read_text().splitlines()
        assert lines[0] == "step,loss,l_r,l_s,l_m"
        assert len(lines) == 11

    def test_deterministic_under_seed(self, gamma_pair, tmp_path, capsys):
        outs = []
        for name in ("a.nulut", "b.nulut"):
            path = tmp_path / name
            assert cli_main(
                ["fit", "--input", str(gamma_pair[0]), "--target", str(gamma_pair[1]),
                 "--nsize", "3", "--steps", "30", "--adaptive",
                 "--seed", "11", "--out", str(path)]
            ) == 0
            outs.append(load_lattice(path))
        assert np.array_equal(outs[0].coords, outs[1].coords)
        assert np.array_equal(outs[0].values, outs[1].values)


class TestQuantizedApply:
    """`apply` runs on raw samples; its bytes must match the float route."""

    @staticmethod
    def float_route(lut_path, input_path, output_path):
        lattice, predictor = load_checkpoint(lut_path)
        img, maxval = ppm.read_ppm(input_path)
        if predictor is not None:
            features = extract_features(img)
            lattice = Lattice(
                coordinates_from_logits(predict_logits(features, predictor)),
                predict_values(features, predictor),
            )
        out = transform_image(img, lattice)
        write_image(np.clip(out, 0.0, 1.0), output_path, maxval=maxval)

    @staticmethod
    def save_look(rng, lut_path, with_predictor):
        lattice = random_lattice(rng, 5, logit_scale=2.0)
        predictor = None
        if with_predictor:
            params = init_params(n_s=5, m=2, seed=4)
            params.basis_luts[1:] = rng.normal(0.0, 0.2, size=params.basis_luts[1:].shape)
            predictor = dataclasses.replace(
                params, g_weights=rng.normal(size=params.g_weights.shape)
            )
        save_lattice(lattice, lut_path, predictor=predictor)

    @pytest.mark.parametrize("maxval", [255, 65535, 1023])
    @pytest.mark.parametrize("with_predictor", [False, True])
    def test_bytes_match_float_route(self, rng, tmp_path, capsys, maxval, with_predictor):
        input_path = tmp_path / "in.ppm"
        write_image(rng.random((3, 70, 11)), input_path, maxval=maxval)
        lut_path = tmp_path / "look.nulut"
        self.save_look(rng, lut_path, with_predictor)
        out_path = tmp_path / "out.ppm"
        assert cli_main(["apply", "--lut", str(lut_path), "--input", str(input_path),
                         "--output", str(out_path)]) == 0
        self.float_route(lut_path, input_path, tmp_path / "ref.ppm")
        assert out_path.read_bytes() == (tmp_path / "ref.ppm").read_bytes()

    @pytest.mark.parametrize("maxval", [255, 65535])
    @pytest.mark.parametrize("with_predictor", [False, True])
    def test_bytes_do_not_depend_on_cpu_count(
        self, rng, tmp_path, capsys, monkeypatch, maxval, with_predictor
    ):
        h, w = 200, 1100
        assert h > 3 * (CHUNK_PIXELS // w)  # the transform runs many row blocks
        input_path = tmp_path / "in.ppm"
        write_image(rng.random((3, h, w)), input_path, maxval=maxval)
        lut_path = tmp_path / "look.nulut"
        self.save_look(rng, lut_path, with_predictor)
        workers_seen = []

        def spy(*args, **kwargs):
            workers_seen.append(kwargs["workers"])
            return transform_image(*args, **kwargs)

        monkeypatch.setattr(cli, "transform_image", spy)
        outputs = []
        for cpus in (1, 3):
            monkeypatch.setattr(transform, "usable_cpus", lambda: cpus)
            out_path = tmp_path / f"out{cpus}.ppm"
            assert cli_main(["apply", "--lut", str(lut_path), "--input", str(input_path),
                             "--output", str(out_path)]) == 0
            outputs.append(out_path.read_bytes())
        assert workers_seen == [1, 3]
        assert outputs[0] == outputs[1]

    def test_usable_cpus(self, monkeypatch):
        if hasattr(os, "sched_getaffinity"):
            assert transform.usable_cpus() == len(os.sched_getaffinity(0))
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        assert transform.usable_cpus() == 5
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert transform.usable_cpus() == 1

    def test_out_of_range_table_values_clip_at_write(self, rng, tmp_path, capsys):
        input_path = tmp_path / "in.ppm"
        write_image(rng.random((3, 20, 20)), input_path, maxval=255)
        lattice = random_lattice(rng, 4)
        lattice.values[...] = rng.uniform(-0.5, 1.5, size=lattice.values.shape)
        lut_path = tmp_path / "wild.nulut"
        save_lattice(lattice, lut_path)
        out_path = tmp_path / "out.ppm"
        assert cli_main(["apply", "--lut", str(lut_path), "--input", str(input_path),
                         "--output", str(out_path)]) == 0
        self.float_route(lut_path, input_path, tmp_path / "ref.ppm")
        assert out_path.read_bytes() == (tmp_path / "ref.ppm").read_bytes()
        levels, _ = ppm.read_ppm(out_path, raw=True)
        assert levels.min() == 0 and levels.max() == 255

    def test_sample_above_maxval_exits_2(self, rng, tmp_path, capsys, monkeypatch):
        lut_path = tmp_path / "l.nulut"
        save_lattice(random_lattice(rng, 3), lut_path)
        bad = np.full((3, 2, 2), 300, dtype=np.uint16)
        monkeypatch.setattr(ppm, "read_ppm", lambda path, raw=False: (bad, 255))
        assert cli_main(["apply", "--lut", str(lut_path), "--input", "in.ppm",
                         "--output", str(tmp_path / "o.ppm")]) == 2
        assert capsys.readouterr().err == "error: quantized samples must lie in [0, 255]\n"
        assert not (tmp_path / "o.ppm").exists()

    def test_sample_above_maxval_in_file_exits_2(self, rng, tmp_path, capsys):
        lut_path = tmp_path / "l.nulut"
        save_lattice(random_lattice(rng, 3), lut_path)
        input_path = tmp_path / "in.ppm"
        header = b"P6\n1 1\n1023\n"
        input_path.write_bytes(header + bytes([0x03, 0xFF, 0x04, 0x00, 0, 0]))
        assert cli_main(["apply", "--lut", str(lut_path), "--input", str(input_path),
                         "--output", str(tmp_path / "o.ppm")]) == 2
        assert capsys.readouterr().err == (
            f"error: sample 1024 exceeds maxval 1023 (at byte {len(header) + 2})\n"
        )
        assert not (tmp_path / "o.ppm").exists()


class TestTrainingWorkers:
    """fit and train write the same bytes whatever transform.usable_cpus says."""

    @pytest.fixture
    def pair_paths(self, rng, tmp_path):
        # 200 x 300 pixels make four row blocks, more than the three workers
        h, w = 200, 300
        assert len(row_blocks(h, w)) == 4
        img = rng.random((3, h, w))
        paths = {}
        for maxval in (255, 65535):
            paths[maxval] = (tmp_path / f"in{maxval}.ppm", tmp_path / f"target{maxval}.ppm")
            write_image(img, paths[maxval][0], maxval=maxval)
            write_image(img**0.6, paths[maxval][1], maxval=maxval)
        return paths

    def run_at(self, monkeypatch, tmp_path, argv):
        """The checkpoint and history bytes of argv at 1 and at 3 usable CPUs."""
        workers_seen = []

        def spy(*args, **kwargs):
            workers_seen.append(args[3])
            return mse_vjp(*args, **kwargs)

        monkeypatch.setattr(training, "mse_vjp", spy)
        outputs = []
        for cpus in (1, 3):
            monkeypatch.setattr(transform, "usable_cpus", lambda: cpus)
            out, history = tmp_path / f"run{cpus}.nulut", tmp_path / f"run{cpus}.csv"
            assert cli_main([*argv, "--out", str(out), "--history", str(history)]) == 0
            outputs.append((out.read_bytes(), history.read_bytes()))
        assert set(workers_seen) == {1, 3}
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("maxval", [255, 65535])
    def test_fit(self, pair_paths, monkeypatch, tmp_path, capsys, maxval):
        input_path, target_path = pair_paths[maxval]
        self.run_at(monkeypatch, tmp_path, [
            "fit", "--input", str(input_path), "--target", str(target_path),
            "--nsize", "5", "--steps", "3", "--adaptive", "--freeze", "1"])

    def test_train(self, pair_paths, monkeypatch, tmp_path, capsys):
        manifest = tmp_path / "pairs.tsv"
        manifest.write_text("".join(f"{a}\t{b}\n" for a, b in pair_paths.values()))
        self.run_at(monkeypatch, tmp_path, [
            "train", "--pairs-manifest", str(manifest), "--nsize", "5", "--m", "2",
            "--epochs", "2", "--freeze", "1", "--batch", "2"])


class TestZeroLengthRuns:
    def assert_one_line_error(self, capsys, expected):
        err = capsys.readouterr().err
        assert err == expected

    def test_fit_zero_steps_exits_2(self, gamma_pair, tmp_path, capsys):
        assert cli_main(
            ["fit", "--input", str(gamma_pair[0]), "--target", str(gamma_pair[1]),
             "--nsize", "3", "--steps", "0", "--adaptive", "--out", str(tmp_path / "l.nulut")]
        ) == 2
        self.assert_one_line_error(capsys, "error: --steps must be at least 1, got 0\n")

    def test_train_zero_epochs_exits_2(self, gamma_pair, tmp_path, capsys):
        manifest = tmp_path / "pairs.tsv"
        manifest.write_text(f"{gamma_pair[0]}\t{gamma_pair[1]}\n")
        assert cli_main(
            ["train", "--pairs-manifest", str(manifest), "--nsize", "3", "--m", "1",
             "--epochs", "0", "--out", str(tmp_path / "p.nulut")]
        ) == 2
        self.assert_one_line_error(capsys, "error: epochs must be >= 1, got 0\n")


class TestNegativeFreeze:
    EXPECTED = "error: freeze_interval_epochs must lie in [0, epochs], got -1\n"

    def test_fit_negative_freeze_exits_2(self, gamma_pair, tmp_path, capsys):
        assert cli_main(
            ["fit", "--input", str(gamma_pair[0]), "--target", str(gamma_pair[1]),
             "--nsize", "3", "--steps", "4", "--adaptive", "--freeze", "-1",
             "--out", str(tmp_path / "l.nulut")]
        ) == 2
        assert capsys.readouterr().err == self.EXPECTED
        assert not (tmp_path / "l.nulut").exists()

    def test_train_negative_freeze_exits_2(self, gamma_pair, tmp_path, capsys):
        manifest = tmp_path / "pairs.tsv"
        manifest.write_text(f"{gamma_pair[0]}\t{gamma_pair[1]}\n")
        assert cli_main(
            ["train", "--pairs-manifest", str(manifest), "--nsize", "3", "--m", "1",
             "--epochs", "2", "--freeze", "-1", "--out", str(tmp_path / "p.nulut")]
        ) == 2
        assert capsys.readouterr().err == self.EXPECTED
        assert not (tmp_path / "p.nulut").exists()


class TestBoundaryErrors:
    """Bad hyperparameters and checkpoint headers fail where they enter, in one line."""

    @pytest.mark.parametrize("extra,message", [
        (["--lr", "nan"], "learning_rate must be finite and positive, got nan"),
        (["--lambda-s", "nan"], "lambda_s must be finite and non-negative, got nan"),
        (["--lambda-m", "inf"], "lambda_m must be finite and non-negative, got inf"),
        (["--interval-lr-decay", "-1"],
         "interval_lr_decay must be finite and non-negative, got -1.0"),
        (["--interval-lr-decay", "nan"],
         "interval_lr_decay must be finite and non-negative, got nan"),
        (["--nsize", "0"], "n_s must be >= 2, got 0"),
        (["--seed", "-1"], "seed must be >= 0, got -1"),
    ])
    def test_fit(self, gamma_pair, tmp_path, capsys, extra, message):
        out = tmp_path / "l.nulut"
        assert cli_main(
            ["fit", "--input", str(gamma_pair[0]), "--target", str(gamma_pair[1]),
             "--nsize", "3", "--steps", "4", "--adaptive", "--out", str(out), *extra]
        ) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_train_infinite_lr(self, gamma_pair, tmp_path, capsys):
        manifest = tmp_path / "pairs.tsv"
        manifest.write_text(f"{gamma_pair[0]}\t{gamma_pair[1]}\n")
        out = tmp_path / "p.nulut"
        assert cli_main(
            ["train", "--pairs-manifest", str(manifest), "--nsize", "3", "--m", "1",
             "--epochs", "2", "--lr", "inf", "--out", str(out)]
        ) == 2
        assert capsys.readouterr().err == "error: learning_rate must be finite and positive, got inf\n"
        assert not out.exists()

    def test_train_negative_seed(self, gamma_pair, tmp_path, capsys):
        manifest = tmp_path / "pairs.tsv"
        manifest.write_text(f"{gamma_pair[0]}\t{gamma_pair[1]}\n")
        out = tmp_path / "p.nulut"
        assert cli_main(
            ["train", "--pairs-manifest", str(manifest), "--nsize", "3", "--m", "1",
             "--epochs", "2", "--seed", "-1", "--out", str(out)]
        ) == 2
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
        assert not out.exists()

    @pytest.mark.parametrize("extra,message", [
        (["--nsize", "1"], "n_s must be >= 2, got 1"),
        (["--sizes", "0x4"], "sizes must be at least 1x1, got 0x4"),
        (["--sizes", "4x4,3x-1"], "sizes must be at least 1x1, got 3x-1"),
        (["--seed", "-1"], "seed must be >= 0, got -1"),
    ])
    def test_bench_out_of_range(self, capsys, extra, message):
        assert cli_main(["bench", "--sizes", "4x4", "--repeat", "1", *extra]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize("threads", ["0", "-2"])
    def test_bench_threads_below_one(self, capsys, threads):
        assert cli_main(["bench", "--sizes", "4x4", "--threads", threads]) == 2
        assert capsys.readouterr() == ("", f"error: threads must be >= 1, got {threads}\n")

    def test_apply_oversized_checkpoint_size(self, gamma_pair, tmp_path, capsys):
        lut = tmp_path / "huge.nulut"
        lut.write_text("NULUT3D 1\nsize 100000000000\n")
        out = tmp_path / "o.ppm"
        assert cli_main(["apply", "--lut", str(lut), "--input", str(gamma_pair[0]),
                         "--output", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: unexpected end of file, expected 'coords'\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("command", ["fit", "train", "bench"])
    def test_out_of_memory_exits_2(self, gamma_pair, tmp_path, capsys, monkeypatch, command):
        # raised, never allocated: an overcommitting host could grant the allocation and page
        message = "Unable to allocate 179. GiB for an array with shape (3, 2000, 2000, 2000)"

        def refuse(*args, **kwargs):
            raise MemoryError(message)

        out = tmp_path / "o.nulut"
        manifest = tmp_path / "pairs.tsv"
        manifest.write_text(f"{gamma_pair[0]}\t{gamma_pair[1]}\n")
        module, name, argv = {
            "fit": (training, "fit_direct", ["fit", "--input", str(gamma_pair[0]),
                                             "--target", str(gamma_pair[1]), "--nsize", "2000",
                                             "--steps", "1", "--adaptive", "--out", str(out)]),
            "train": (training, "train_predictor", ["train", "--pairs-manifest", str(manifest),
                                                    "--nsize", "3", "--m", "100000",
                                                    "--epochs", "1", "--out", str(out)]),
            "bench": (bench, "run_bench", ["bench", "--sizes", "100000x100000"]),
        }[command]
        monkeypatch.setattr(module, name, refuse)
        assert cli_main(argv) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not out.exists()


class TestWrappedTrainPredictor:
    """The parser takes --batch's default from a constant, not train_predictor's signature."""

    def test_bare_wrapper_keeps_every_subcommand_working(self, gamma_pair, tmp_path,
                                                         monkeypatch, capsys):
        manifest = tmp_path / "pairs.tsv"
        manifest.write_text(f"{gamma_pair[0]}\t{gamma_pair[1]}\n")

        def train(out):
            return cli_main(["train", "--pairs-manifest", str(manifest), "--nsize", "3",
                             "--m", "2", "--epochs", "3", "--freeze", "1", "--out", str(out)])

        assert train(tmp_path / "plain.nulut") == 0
        original = training.train_predictor
        monkeypatch.setattr(training, "train_predictor",
                            lambda *args, **kwargs: original(*args, **kwargs))
        assert train(tmp_path / "wrapped.nulut") == 0
        assert (tmp_path / "wrapped.nulut").read_bytes() == (tmp_path / "plain.nulut").read_bytes()
        assert cli_main(["fit", "--input", str(gamma_pair[0]), "--target", str(gamma_pair[1]),
                         "--nsize", "3", "--steps", "2", "--adaptive",
                         "--out", str(tmp_path / "fit.nulut")]) == 0


class TestLibraryDefaults:
    """Flags left out take the library's values; --lr 1e-2 is the CLI's own."""

    @staticmethod
    def parse(*argv):
        return vars(cli.build_parser().parse_args(list(argv)))

    def test_fit(self):
        args = self.parse("fit", "--input", "i", "--target", "t", "--nsize", "3",
                          "--steps", "1", "--adaptive", "--out", "o")
        config, weights = TrainConfig(), LossWeights()
        assert (args["interval_lr_decay"], args["seed"]) == (config.interval_lr_decay, config.seed)
        assert (args["lambda_s"], args["lambda_m"]) == (weights.lambda_s, weights.lambda_m)
        assert args["lr"] == 1e-2

    def test_train(self):
        args = self.parse("train", "--pairs-manifest", "p", "--nsize", "3", "--m", "1",
                          "--epochs", "1", "--out", "o")
        config = TrainConfig()
        assert (args["interval_lr_decay"], args["seed"]) == (config.interval_lr_decay, config.seed)
        assert args["freeze"] == config.freeze_interval_epochs
        assert args["batch"] == training.DEFAULT_BATCH_SIZE
        assert inspect.signature(train_predictor).parameters["batch_size"].default == args["batch"]
        assert args["lr"] == 1e-2

    def test_bench_passes_only_given_flags(self):
        assert self.parse("bench", "--sizes", "4x4") == {"command": "bench", "sizes": "4x4"}
        given = self.parse("bench", "--sizes", "4x4", "--threads", "2", "--repeat", "5",
                           "--nsize", "9", "--seed", "7")
        del given["command"], given["sizes"]
        bound = inspect.signature(run_bench).bind([(4, 4)], **given)
        assert bound.arguments == {
            "sizes": [(4, 4)], "threads": 2, "repeat": 5, "n_s": 9, "seed": 7,
        }


class TestTrain:
    def test_train_and_adaptive_apply(self, rng, tmp_path, capsys):
        manifest = tmp_path / "pairs.tsv"
        lines = []
        for n in range(2):
            img = rng.random((3, 12, 12))
            inp = tmp_path / f"in{n}.ppm"
            tgt = tmp_path / f"tgt{n}.ppm"
            write_image(img, inp, maxval=255)
            write_image(img**0.5, tgt, maxval=255)
            lines.append(f"{inp}\t{tgt}")
        manifest.write_text("\n".join(lines) + "\n")
        ckpt = tmp_path / "predictor.nulut"
        assert cli_main(
            ["train", "--pairs-manifest", str(manifest), "--nsize", "4", "--m", "2",
             "--epochs", "40", "--out", str(ckpt), "--seed", "3"]
        ) == 0
        out = tmp_path / "styled.ppm"
        assert cli_main(
            ["apply", "--lut", str(ckpt), "--input", str(tmp_path / "in0.ppm"),
             "--output", str(out)]
        ) == 0
        original = read_image(tmp_path / "in0.ppm")
        styled = read_image(out)
        target = read_image(tmp_path / "tgt0.ppm")
        # after training the adaptive apply should be much closer to the
        # gamma target than to the input
        assert psnr(styled, target) > psnr(styled, original)

    def test_bad_manifest_exits_2(self, tmp_path, capsys):
        manifest = tmp_path / "bad.tsv"
        manifest.write_text("only-one-column\n")
        assert cli_main(
            ["train", "--pairs-manifest", str(manifest), "--nsize", "3", "--m", "1",
             "--epochs", "1", "--out", str(tmp_path / "x.nulut")]
        ) == 2


class TestAehCommand:
    def test_writes_csvs(self, gamma_pair, tmp_path, capsys):
        prefix = tmp_path / "diag"
        assert cli_main(
            ["aeh", "--input", str(gamma_pair[0]), "--target", str(gamma_pair[1]),
             "--bins", "64", "--out-csv", str(prefix), "--svg"]
        ) == 0
        assert (tmp_path / "diag_aeh.csv").exists()
        assert (tmp_path / "diag.svg").exists()


class TestExportCubeCommand:
    def test_export(self, rng, tmp_path, capsys):
        coords = uniform_coordinates(3)
        lut_path = tmp_path / "l.nulut"
        save_lattice(Lattice(coords, identity_lut(coords)), lut_path)
        out = tmp_path / "l.cube"
        assert cli_main(
            ["export-cube", "--lut", str(lut_path), "--size", "4", "--out", str(out)]
        ) == 0
        assert out.read_text().startswith("LUT_3D_SIZE 4")

    @pytest.mark.parametrize("size", [257, 5000, 65537])
    def test_size_above_the_cube_limit_exits_2(self, tmp_path, capsys, size):
        coords = uniform_coordinates(3)
        lut_path = tmp_path / "l.nulut"
        save_lattice(Lattice(coords, identity_lut(coords)), lut_path)
        out = tmp_path / "l.cube"
        assert cli_main(
            ["export-cube", "--lut", str(lut_path), "--size", str(size), "--out", str(out)]
        ) == 2
        assert capsys.readouterr().err == f"error: cube size must lie in [2, 256], got {size}\n"
        assert not out.exists()


class TestBenchCommand:
    def test_small_bench_runs(self, capsys):
        assert cli_main(
            ["bench", "--sizes", "64x48,128x96", "--threads", "2", "--repeat", "2",
             "--nsize", "17"]
        ) == 0
        out = capsys.readouterr().out
        assert "ns/px" in out and "comparisons" in out

    def test_bad_size_spec_exits_2(self, capsys):
        assert cli_main(["bench", "--sizes", "64by48"]) == 2
