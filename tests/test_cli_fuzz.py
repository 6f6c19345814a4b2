"""Property tests of the CLI exit-code contract on malformed files and argv.

Whatever the input, a run exits 0, 1 or 2, prints at most one line to
stderr and never a traceback: an exception escaping cli_main fails the
test, and so does any RuntimeWarning (pyproject turns them into errors).
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from nulut.cli import cli_main
from nulut.lattice import Lattice, coordinates_from_logits
from nulut.lutio import save_lattice
from nulut.ppm import write_image
from nulut.predictor import init_params

SETTINGS = settings(
    max_examples=150, derandomize=True, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

# tokens a damaged file may carry in place of a good one
ODD_TOKENS = ["0", "1", "-1", "2", "9", "100000000000", "nan", "inf", "-0", "1e309",
              "x", "size", "values", "predictor", "coords", "r"]
ODD_INTS = [0, 1, 2, 9, 255, 256, 65535, 65536, 100000000000]


def run(argv, capsys):
    code = cli_main(argv)
    err = capsys.readouterr().err
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err
    assert err.count("\n") <= 1, err
    return code


@st.composite
def checkpoint_texts(draw):
    """A small valid checkpoint, then a few tokens replaced, dropped or cut off."""
    n = draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 9)))
    lines = [f"NULUT3D 1\nsize {n}"]
    coords = coordinates_from_logits(rng.uniform(-1, 1, (3, n - 1)))
    lines += [f"coords {c} " + " ".join(map(repr, row)) for c, row in zip("rgb", coords)]
    lines.append("values " + " ".join(map(repr, rng.random(3 * n**3))))
    if draw(st.booleans()):
        lines.append(f"predictor {draw(st.sampled_from([102, 1, 2]))} 1 0")
    tokens = "\n".join(lines).split()
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(tokens) - 1))
        action = draw(st.sampled_from(["replace", "drop", "cut"]))
        if action == "replace":
            tokens[i] = draw(st.sampled_from(ODD_TOKENS))
        elif action == "drop":
            del tokens[i]
        else:
            tokens = tokens[:i]
        if not tokens:
            break
    return " ".join(tokens).encode("ascii")


@st.composite
def ppm_bytes(draw):
    """A P6 file with small or odd header numbers, then bytes changed or cut off."""
    magic = draw(st.sampled_from([b"P6", b"P6", b"P3", b""]))
    w, h = draw(st.integers(0, 9)), draw(st.integers(0, 9))
    maxval = draw(st.sampled_from([255, 255, 1, 1023, 65535, 0, 65536]))
    if draw(st.booleans()):
        w, h = draw(st.sampled_from(ODD_INTS)), draw(st.sampled_from(ODD_INTS))
    size = min(w * h, 81) * 3 * (2 if maxval > 255 else 1)
    rng = np.random.default_rng(draw(st.integers(0, 9)))
    data = bytearray(magic + f"\n{w} {h}\n{maxval}\n".encode("ascii"))
    data += rng.integers(0, 256, size, dtype=np.uint8).tobytes()
    for _ in range(draw(st.integers(0, 2))):
        if not data:
            break
        i = draw(st.integers(0, len(data) - 1))
        if draw(st.booleans()):
            data[i] = draw(st.integers(0, 255))
        else:
            del data[i:]
    return bytes(data)


class TestMalformedFiles:
    @SETTINGS
    @given(lut=checkpoint_texts(), image=ppm_bytes(),
           command=st.sampled_from(["apply", "aeh", "export-cube"]))
    @example(lut=b"NULUT3D 1 size 100000000000 coords r 0 1", image=b"P6\n1 1\n255\n\0\0\0",
             command="apply")
    def test_exit_code_contract(self, tmp_path, capsys, lut, image, command):
        lut_path, image_path = tmp_path / "f.nulut", tmp_path / "f.ppm"
        lut_path.write_bytes(lut)
        image_path.write_bytes(image)
        argv = {
            "apply": ["apply", "--lut", str(lut_path), "--input", str(image_path),
                      "--output", str(tmp_path / "o.ppm")],
            "aeh": ["aeh", "--input", str(image_path), "--target", str(image_path),
                    "--bins", "4", "--lut", str(lut_path), "--out-csv", str(tmp_path / "d")],
            "export-cube": ["export-cube", "--lut", str(lut_path), "--size", "3",
                            "--out", str(tmp_path / "o.cube")],
        }[command]
        run(argv, capsys)


SMALL = st.integers(-1, 9)
ODD_RATES = st.sampled_from(["0", "-1", "nan", "inf", "1e3"])


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Valid inputs for every subcommand: images, a manifest and two checkpoints."""
    root = tmp_path_factory.mktemp("argv")
    rng = np.random.default_rng(5)
    img = rng.random((3, 5, 4))
    write_image(img, root / "in.ppm")
    write_image(img**0.5, root / "target.ppm")
    (root / "pairs.tsv").write_text(f"{root / 'in.ppm'}\t{root / 'target.ppm'}\n")
    coords = coordinates_from_logits(rng.uniform(-1, 1, (3, 2)))
    lattice = Lattice(coords, rng.random((3, 3, 3, 3)))
    save_lattice(lattice, root / "plain.nulut")
    save_lattice(lattice, root / "pred.nulut", predictor=init_params(3, 2))
    return root


@st.composite
def subcommand_argv(draw, root):
    """argv for one real subcommand, every flag well formed, numbers small or odd."""
    command = draw(st.sampled_from(["fit", "train", "apply", "aeh", "bench", "export-cube"]))
    num = lambda: str(draw(SMALL))  # noqa: E731
    out = str(root / "out")
    # at most one rate is odd, so most runs get as far as training
    rates = {"--lr": "0.01", "--interval-lr-decay": "0.1"}
    if command == "fit":
        rates.update({"--lambda-s": "0.0001", "--lambda-m": "10"})
    odd = draw(st.sampled_from([None, *rates]))
    if odd is not None:
        rates[odd] = draw(ODD_RATES)
    rate_flags = [item for pair in rates.items() for item in pair]
    if command == "fit":
        argv = ["fit", "--input", str(root / "in.ppm"), "--target", str(root / "target.ppm"),
                "--nsize", num(), "--steps", num(),
                draw(st.sampled_from(["--adaptive", "--uniform"])), "--out", out,
                "--seed", num(), *rate_flags]
        if draw(st.booleans()):
            argv += ["--freeze", num()]
    elif command == "train":
        argv = ["train", "--pairs-manifest", str(root / "pairs.tsv"), "--nsize", num(),
                "--m", num(), "--epochs", num(), "--out", out, "--freeze", num(),
                "--batch", num(), "--seed", num(), *rate_flags]
    elif command == "apply":
        lut = draw(st.sampled_from(["plain.nulut", "pred.nulut"]))
        argv = ["apply", "--lut", str(root / lut), "--input", str(root / "in.ppm"),
                "--output", out]
    elif command == "aeh":
        argv = ["aeh", "--input", str(root / "in.ppm"), "--target", str(root / "target.ppm"),
                "--bins", num(), "--out-csv", out]
        if draw(st.booleans()):
            argv += ["--lut", str(root / "plain.nulut"), "--svg"]
    elif command == "bench":
        sizes = draw(st.lists(st.sampled_from(["1x1", "9x3", "0x4", "3x-1", "2x", "ax2"]),
                              min_size=1, max_size=2))
        argv = ["bench", "--sizes", ",".join(sizes), "--threads", num(),
                "--repeat", str(draw(st.integers(-1, 2))), "--nsize", num(), "--seed", num()]
    else:
        argv = ["export-cube", "--lut", str(root / "plain.nulut"), "--size", num(),
                "--out", out]
    if command in ("fit", "train") and draw(st.booleans()):
        argv.append("--shared")
    return argv


class TestSubcommandArgv:
    @SETTINGS
    @given(data=st.data())
    def test_exit_code_contract(self, files, capsys, data):
        run(data.draw(subcommand_argv(files)), capsys)
