import dataclasses
import hashlib
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_lattice

from nulut.lattice import Lattice, coordinates_from_logits, identity_lut, uniform_coordinates
from nulut.lutio import (
    LutFormatError,
    export_cube,
    load_checkpoint,
    load_lattice,
    save_lattice,
)
from nulut.predictor import PARAM_ARRAYS, PredictorParams, init_params, param_shapes
from nulut import transform
from nulut.transform import CHUNK_PIXELS, transform_image, transform_pixel


class TestLatticeRoundTrip:
    def test_100_random_lattices_round_trip_exactly(self, rng, tmp_path):
        path = tmp_path / "rt.nulut"
        for trial in range(100):
            n_s = int(rng.integers(2, 9))
            lattice = random_lattice(rng, n_s, logit_scale=3.0)
            save_lattice(lattice, path)
            loaded = load_lattice(path)
            assert np.array_equal(loaded.coords, lattice.coords)
            assert np.array_equal(loaded.values, lattice.values)

    def test_non_monotone_coords_rejected_with_index(self, tmp_path):
        path = tmp_path / "bad.nulut"
        values = " ".join(["0"] * 3 * 64)
        path.write_text(
            "NULUT3D 1\nsize 4\n"
            "coords r 0 0.5 0.4 1\n"
            "coords g 0 0.3 0.6 1\n"
            "coords b 0 0.3 0.6 1\n"
            f"values\n{values}\n"
        )
        with pytest.raises(LutFormatError, match="non-monotone at index 2"):
            load_lattice(path)

    @staticmethod
    def write_size3(path, r="0 0.5 1", g="0 0.5 1", values=("0",) * 81):
        path.write_text(
            f"NULUT3D 1\nsize 3\ncoords r {r}\ncoords g {g}\ncoords b 0 0.5 1\n"
            f"values\n{' '.join(values)}\n"
        )

    @pytest.mark.parametrize("r, g, message", [
        ("0 0.5 1", "0 0.7 0.6", r"^coords g: last entry must be 1, got 0.6$"),
        ("0.1 0.5 1", "0 0.5 1", r"^coords r: first entry must be 0, got 0.1$"),
        ("0 nan 1", "0 0.5 1", r"^coords r: entries must be finite$"),
    ])
    def test_bad_coords_rejected_with_channel(self, tmp_path, r, g, message):
        path = tmp_path / "bad.nulut"
        self.write_size3(path, r=r, g=g)
        with pytest.raises(LutFormatError, match=message):
            load_lattice(path)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_values_rejected(self, tmp_path, bad):
        path = tmp_path / "bad.nulut"
        values = ["0.5"] * 81
        values[40] = bad
        self.write_size3(path, values=values)
        with pytest.raises(LutFormatError, match="finite"):
            load_lattice(path)

    def test_size_mismatch_rejected(self, tmp_path):
        path = tmp_path / "short.nulut"
        path.write_text(
            "NULUT3D 1\nsize 5\n"
            "coords r 0 0.3 0.6 1\n"
        )
        with pytest.raises(LutFormatError):
            load_lattice(path)

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "v2.nulut"
        path.write_text("NULUT3D 2\nsize 2\n")
        with pytest.raises(LutFormatError, match="version"):
            load_lattice(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "magic.nulut"
        path.write_text("SOMETHING 1\n")
        with pytest.raises(LutFormatError, match="magic"):
            load_lattice(path)

    def test_trailing_garbage_rejected(self, rng, tmp_path):
        path = tmp_path / "trail.nulut"
        save_lattice(random_lattice(rng, 3), path)
        with open(path, "a") as fh:
            fh.write("leftover\n")
        with pytest.raises(LutFormatError):
            load_lattice(path)


class TestParseErrors:
    """A bad or missing float token is reported by field and token."""

    @staticmethod
    def corrupt(path, section, token_index, replacement):
        """Replace the token_index-th token after the section keyword."""
        tokens = path.read_text().split()
        start = tokens.index(section) + 1
        tokens[start + token_index] = replacement
        path.write_text(" ".join(tokens))

    def test_bad_coordinate_token(self, rng, tmp_path):
        path = tmp_path / "c.nulut"
        save_lattice(random_lattice(rng, 4), path)
        self.corrupt(path, "g", 2, "0.4.1")
        with pytest.raises(LutFormatError) as info:
            load_lattice(path)
        assert str(info.value) == "expected float in coords g, found '0.4.1'"

    def test_bad_value_token(self, rng, tmp_path):
        path = tmp_path / "v.nulut"
        save_lattice(random_lattice(rng, 3), path)
        self.corrupt(path, "values", 50, "zz")
        with pytest.raises(LutFormatError) as info:
            load_lattice(path)
        assert str(info.value) == "expected float in values, found 'zz'"

    def test_bad_predictor_token(self, rng, tmp_path):
        path = tmp_path / "p.nulut"
        save_lattice(random_lattice(rng, 3), path, predictor=init_params(n_s=3, m=2))
        self.corrupt(path, "h0_bias", 1, "1e-3x")
        with pytest.raises(LutFormatError) as info:
            load_checkpoint(path)
        assert str(info.value) == "expected float in h0_bias, found '1e-3x'"

    def test_truncated_values_report_end_of_file(self, rng, tmp_path):
        path = tmp_path / "t.nulut"
        save_lattice(random_lattice(rng, 3), path)
        tokens = path.read_text().split()
        path.write_text(" ".join(tokens[: tokens.index("values") + 11]))
        with pytest.raises(LutFormatError) as info:
            load_lattice(path)
        assert str(info.value) == "unexpected end of file, expected values value 10"

    def test_tokens_parse_as_python_floats(self, rng, tmp_path):
        path = tmp_path / "s.nulut"
        save_lattice(random_lattice(rng, 2), path)
        self.corrupt(path, "values", 0, "1_000")
        self.corrupt(path, "values", 1, "-2.5E-1")
        values = load_lattice(path).values.reshape(-1)
        assert values[0] == 1000.0 and values[1] == -0.25
        self.corrupt(path, "values", 2, "0x10")
        with pytest.raises(LutFormatError, match="found '0x10'"):
            load_lattice(path)


class TestHeaderSizes:
    """A header size is checked against the tokens left before anything is allocated."""

    def test_oversized_lattice_size_reports_end_of_file(self, tmp_path):
        path = tmp_path / "huge.nulut"
        path.write_text("NULUT3D 1\nsize 100000000000\ncoords r 0 1\n")
        with pytest.raises(LutFormatError) as info:
            load_lattice(path)
        assert str(info.value) == "unexpected end of file, expected coords r value 2"

    @staticmethod
    def with_predictor_header(rng, path, header):
        save_lattice(random_lattice(rng, 3), path, predictor=init_params(n_s=3, m=2))
        path.write_text(path.read_text().replace("predictor 102 2 0", header))

    @pytest.mark.parametrize("header,message", [
        # the tokens left run into the next section, whose name is not a float
        ("predictor 102 1000000000000000 0", "expected float in h0_weights, found 'h0_bias'"),
        ("predictor 1000000000000000000000 2 0",
         "predictor feature dimension must be 102, got 1000000000000000000000"),
    ])
    def test_oversized_predictor_sizes_report_first_bad_token(
        self, rng, tmp_path, header, message
    ):
        path = tmp_path / "p.nulut"
        self.with_predictor_header(rng, path, header)
        with pytest.raises(LutFormatError) as info:
            load_checkpoint(path)
        assert str(info.value) == message

    @pytest.mark.parametrize("f_dim,m,message", [
        (0, 2, "predictor feature dimension must be 102, got 0"),
        (-5, 2, "predictor feature dimension must be 102, got -5"),
        (5, 2, "predictor feature dimension must be 102, got 5"),
        (102, 0, "m must be >= 1, got 0"),
        (102, -1, "m must be >= 1, got -1"),
    ])
    def test_bad_predictor_dimensions_rejected_by_name(self, rng, tmp_path, f_dim, m, message):
        path = tmp_path / "p.nulut"
        self.with_predictor_header(rng, path, f"predictor {f_dim} {m} 0")
        with pytest.raises(LutFormatError) as info:
            load_checkpoint(path)
        assert str(info.value) == message


class TestCheckpointBytes:
    """save_lattice's exact text, pinned to a file the earlier NumPy-scalar writer made."""

    SPECIALS = [-0.0, 1e-300, 5e-324, 0.1, 1 / 3, -2.5e-310, 1.0, 123456.789, -1 / 7, -1e300]
    SHA256 = "243819a74067e3059086c3b522e28f10adfb2f5dd5a655cee4ddede5c79b83eb"

    def test_bytes_are_pinned(self, tmp_path):
        shapes = param_shapes(3, 1, True)
        predictor = PredictorParams(
            **{name: np.resize(self.SPECIALS, shape) for name, shape in shapes.items()},
            n_s=3, m=1, shared=True)
        lattice = Lattice(np.tile([0.0, 1 / 3, 1.0], (3, 1)),
                          np.resize(self.SPECIALS, (3, 3, 3, 3)))
        path = tmp_path / "pinned.nulut"
        save_lattice(lattice, path, predictor)
        data = path.read_bytes()
        assert data.splitlines()[:10] == [
            b"NULUT3D 1",
            b"size 3",
            b"coords r 0 0.33333333333333331 1",
            b"coords g 0 0.33333333333333331 1",
            b"coords b 0 0.33333333333333331 1",
            b"values",
            b"-0 1e-300 4.9406564584124654e-324",
            b"0.10000000000000001 0.33333333333333331 -2.5000000000000171e-310",
            b"1 123456.789 -0.14285714285714285",
            b"-1.0000000000000001e+300 -0 1e-300",
        ]
        assert b"\npredictor 102 1 1\ng_weights\n-0 1e-300\n" in data
        assert len(data) == 8814
        assert hashlib.sha256(data).hexdigest() == self.SHA256


class TestPredictorCheckpoint:
    def test_round_trip_with_predictor(self, rng, tmp_path):
        params = init_params(n_s=4, m=2, seed=3)
        params.g_weights[:] = rng.normal(size=params.g_weights.shape)
        lattice = random_lattice(rng, 4)
        path = tmp_path / "ckpt.nulut"
        save_lattice(lattice, path, predictor=params)
        loaded_lattice, loaded = load_checkpoint(path)
        assert np.array_equal(loaded_lattice.values, lattice.values)
        assert loaded is not None
        assert loaded.m == params.m
        assert loaded.shared == params.shared
        for name in ("g_weights", "g_bias", "h0_weights", "h0_bias", "basis_luts", "h1_bias"):
            assert np.array_equal(getattr(loaded, name), getattr(params, name))

    def test_basis_luts_are_stored_as_h1_weights(self, rng, tmp_path):
        params = init_params(n_s=3, m=2, seed=1)
        path = tmp_path / "ckpt.nulut"
        save_lattice(random_lattice(rng, 3), path, predictor=params)
        sections = [line for line in path.read_text().splitlines() if line[:1].isalpha()]
        assert sections[-6:] == [
            "g_weights", "g_bias", "h0_weights", "h0_bias", "h1_weights", "h1_bias",
        ]

    @pytest.mark.parametrize("lattice_n,predictor_n", [(3, 5), (5, 3)])
    def test_predictor_of_another_size_rejected_before_the_file_opens(
        self, rng, tmp_path, lattice_n, predictor_n
    ):
        # a 3-knot lattice saved with a 5-knot predictor once wrote a file
        # load_checkpoint refused ("expected 'g_bias', found '0'")
        path = tmp_path / "ckpt.nulut"
        with pytest.raises(ValueError, match=(
            f"^predictor n_s must equal the lattice size {lattice_n}, got {predictor_n}$"
        )):
            save_lattice(random_lattice(rng, lattice_n), path,
                         predictor=init_params(predictor_n, 2))
        assert not path.exists()

    def test_other_feature_length_is_a_format_error(self, rng, tmp_path):
        # a consistent file for 5 features, as init_params(3, 2, f_dim=5)
        # once saved it: it loaded, then apply failed on the 102 features
        path = tmp_path / "ckpt.nulut"
        save_lattice(random_lattice(rng, 3), path, predictor=init_params(n_s=3, m=2))
        tokens = path.read_text().split()
        for section, width in (("g_weights", 6), ("h0_weights", 2)):
            start = tokens.index(section) + 1
            del tokens[start + 5 * width : start + 102 * width]
        tokens[tokens.index("predictor") + 1] = "5"
        path.write_text(" ".join(tokens))
        with pytest.raises(LutFormatError, match="^predictor feature dimension must be 102, got 5$"):
            load_checkpoint(path)

    def test_non_finite_predictor_array_is_a_format_error(self, rng, tmp_path):
        path = tmp_path / "ckpt.nulut"
        save_lattice(random_lattice(rng, 3), path, predictor=init_params(n_s=3, m=2))
        TestParseErrors.corrupt(path, "h0_bias", 1, "nan")
        with pytest.raises(LutFormatError, match="^h0_bias must be finite$"):
            load_checkpoint(path)

    def test_non_ascii_byte_is_a_format_error(self, rng, tmp_path):
        path = tmp_path / "ckpt.nulut"
        save_lattice(random_lattice(rng, 3), path)
        path.write_bytes(path.read_bytes().replace(b"size", b"s\xffze"))
        with pytest.raises(LutFormatError, match="can't decode byte 0xff"):
            load_checkpoint(path)

    def test_lattice_only_file_has_no_predictor(self, rng, tmp_path):
        path = tmp_path / "plain.nulut"
        save_lattice(random_lattice(rng, 3), path)
        _, predictor = load_checkpoint(path)
        assert predictor is None

    def test_shared_predictor_round_trip(self, rng, tmp_path):
        params = init_params(n_s=5, m=2, shared=True, seed=9)
        path = tmp_path / "shared.nulut"
        save_lattice(random_lattice(rng, 5), path, predictor=params)
        _, loaded = load_checkpoint(path)
        assert loaded.shared is True
        assert loaded.g_bias.shape == (4,)


def uniform_cube_interpolate(table, n, x):
    """Reference trilinear interpolation on a uniform grid (floor indexing)."""
    out = np.empty(3)
    idx = np.minimum((np.asarray(x) * (n - 1)).astype(int), n - 2)
    frac = np.asarray(x) * (n - 1) - idx
    for c in range(3):
        acc = 0.0
        for i in (0, 1):
            for j in (0, 1):
                for k in (0, 1):
                    w = (
                        (frac[0] if i else 1 - frac[0])
                        * (frac[1] if j else 1 - frac[1])
                        * (frac[2] if k else 1 - frac[2])
                    )
                    acc += w * table[idx[0] + i, idx[1] + j, idx[2] + k, c]
        out[c] = acc
    return out


def parse_cube(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("LUT_3D_SIZE ")
    n = int(lines[0].split()[1])
    data = np.array([[float(v) for v in line.split()] for line in lines[1:]])
    assert data.shape == (n**3, 3)
    # red fastest: line = r + g*n + b*n^2
    return n, data.reshape(n, n, n, 3)  # [b][g][r][channel] after reshape


class TestExportCube:
    def test_identity_two_knot_cube_lists_corners(self, tmp_path):
        coords = uniform_coordinates(2)
        lattice = Lattice(coords, identity_lut(coords))
        path = tmp_path / "id.cube"
        export_cube(lattice, 2, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "LUT_3D_SIZE 2"
        got = [tuple(float(v) for v in line.split()) for line in lines[1:]]
        expected = [
            (0.0, 0.0, 0.0), (1.0, 0.0, 0.0),  # red varies fastest
            (0.0, 1.0, 0.0), (1.0, 1.0, 0.0),
            (0.0, 0.0, 1.0), (1.0, 0.0, 1.0),
            (0.0, 1.0, 1.0), (1.0, 1.0, 1.0),
        ]
        assert got == expected

    def test_matching_size_on_uniform_grid_reproduces_table(self, rng, tmp_path):
        n = 5
        values = rng.random((3, n, n, n))
        lattice = Lattice(uniform_coordinates(n), values)
        path = tmp_path / "exact.cube"
        export_cube(lattice, n, path)
        size, cube = parse_cube(path)
        assert size == n
        for c in range(3):
            # cube[b][g][r][c] must equal values[c][r][g][b] bit-exactly
            assert np.array_equal(cube[..., c].transpose(2, 1, 0), values[c])

    def test_resampled_cube_approximates_transform(self, rng, tmp_path):
        lattice = random_lattice(rng, 5, value_noise=0.05)
        path = tmp_path / "resampled.cube"
        export_cube(lattice, 17, path)
        size, cube = parse_cube(path)
        worst = 0.0
        for x in rng.random((200, 3)):
            reference = np.clip(transform_pixel(x, lattice), 0.0, 1.0)
            resampled = uniform_cube_interpolate(cube.transpose(2, 1, 0, 3), size, x)
            worst = max(worst, np.abs(reference - resampled).max())
        # resampling error bound measured for this lattice family at 17 knots
        assert worst <= 0.02

    def test_rejects_tiny_size(self, rng, tmp_path):
        with pytest.raises(ValueError):
            export_cube(random_lattice(rng, 3), 1, tmp_path / "x.cube")

    @pytest.mark.parametrize("n_out", [3.0, 2.5, True])
    def test_rejects_non_integer_size_by_name(self, rng, tmp_path, n_out):
        path = tmp_path / "x.cube"
        with pytest.raises(ValueError, match="^n_out must be an integer, got"):
            export_cube(random_lattice(rng, 3), n_out, path)
        assert not path.exists()

    @pytest.mark.parametrize("n_out", [257, 5000, 65537])
    def test_rejects_size_above_the_cube_limit(self, rng, tmp_path, n_out):
        path = tmp_path / "x.cube"
        with pytest.raises(ValueError, match=rf"cube size must lie in \[2, 256\], got {n_out}"):
            export_cube(random_lattice(rng, 3), n_out, path)
        assert not path.exists()

    @pytest.mark.parametrize("n_out", [2, 17, 33])
    def test_bytes_match_float_grid_route(self, rng, tmp_path, n_out):
        lattice = random_lattice(rng, 9, logit_scale=2.0, value_noise=0.05)
        path = tmp_path / "l.cube"
        export_cube(lattice, n_out, path)
        assert path.read_text(encoding="ascii") == float_grid_cube(lattice, n_out)

    def test_grid_runs_in_blocks_of_bounded_workspace(self, rng, tmp_path):
        """The calling thread keeps at most the quantized forward's documented
        128 bytes per pixel of one CHUNK_PIXELS block, and the bytes hold."""
        lattice = random_lattice(rng, 9, logit_scale=2.0, value_noise=0.05)
        path = tmp_path / "l.cube"
        kept = []

        def fresh():
            export_cube(lattice, 65, path)
            kept.append(sum(buf.nbytes for buf in transform._WORKSPACE.buffers.values()))

        thread = threading.Thread(target=fresh)
        thread.start()
        thread.join()
        assert 0 < kept[0] <= 128 * CHUNK_PIXELS
        assert path.read_text(encoding="ascii") == float_grid_cube(lattice, 65)


def float_grid_cube(lattice, n_out):
    """Reference .cube text: a hand-built float grid k / (n_out - 1) through
    the float transform, as export_cube computed it before it used levels."""
    grid = np.arange(n_out, dtype=np.float64) / (n_out - 1)
    grid[-1] = 1.0
    line = np.arange(n_out**3)
    red, green, blue = line % n_out, (line // n_out) % n_out, line // (n_out * n_out)
    pix = np.stack([grid[red], grid[green], grid[blue]], axis=0)
    out = np.clip(transform_image(pix.reshape(3, 1, -1), lattice).reshape(3, -1), 0.0, 1.0)
    rows = "".join(f"{r:.17g} {g:.17g} {b:.17g}\n" for r, g, b in out.T)
    return f"LUT_3D_SIZE {n_out}\n" + rows


# entries a 17-digit text format must carry exactly: signed zero, the
# smallest subnormals, a mid-range subnormal, values outside [0, 1], the
# double just below 1 and values far from 1 in magnitude
SPECIAL_VALUES = np.array([
    -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, -1.5, 1.7,
    1.0 - 2.0**-53, 0.1, 1e300, -1e-300,
])


def with_specials(rng, arr):
    """A copy of arr with about a quarter of its entries replaced by specials."""
    out = np.array(arr, dtype=np.float64)
    hit = rng.random(out.shape) < 0.25
    out[hit] = rng.choice(SPECIAL_VALUES, size=int(hit.sum()))
    return out


class TestCheckpointProperties:
    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(
        n_s=st.integers(2, 6),
        predictor=st.sampled_from([None, "full", "shared"]),
        m=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_save_load_is_value_exact(self, tmp_path_factory, n_s, predictor, m, seed):
        rng = np.random.default_rng(seed)
        coords = coordinates_from_logits(rng.uniform(-3.0, 3.0, size=(3, n_s - 1)))
        if n_s > 2:
            coords[0, 1] = 5e-324  # a subnormal first interval is still increasing
        lattice = Lattice(coords, with_specials(rng, rng.random((3, n_s, n_s, n_s))))
        params = None
        if predictor is not None:
            params = init_params(n_s=n_s, m=m, shared=predictor == "shared")
            params = dataclasses.replace(params, **{
                name: with_specials(rng, rng.normal(size=np.shape(getattr(params, name))))
                for name in PARAM_ARRAYS
            })
        path = tmp_path_factory.getbasetemp() / "property.nulut"
        save_lattice(lattice, path, predictor=params)
        loaded_lattice, loaded = load_checkpoint(path)
        assert loaded_lattice.coords.tobytes() == lattice.coords.tobytes()
        assert loaded_lattice.values.tobytes() == lattice.values.tobytes()
        if params is None:
            assert loaded is None
            return
        assert (loaded.n_s, loaded.m, loaded.shared) == (params.n_s, params.m, params.shared)
        for name in PARAM_ARRAYS:
            assert getattr(loaded, name).tobytes() == getattr(params, name).tobytes(), name


@pytest.fixture(scope="module")
def predictor_checkpoint(tmp_path_factory):
    """The bytes of a valid checkpoint with a predictor, n=3 and m=2."""
    path = tmp_path_factory.mktemp("fuzz") / "valid.nulut"
    save_lattice(random_lattice(np.random.default_rng(7), 3), path,
                 predictor=init_params(n_s=3, m=2, seed=1))
    return path.read_bytes()


# token positions in predictor_checkpoint: 20 header and coords tokens,
# then "values" and 81 values, then the 4-token predictor header, then
# g_weights (612), g_bias (6) and h0_weights (204), each after its name
PREDICTOR_HEADER = 101
H0_BIAS = 930

# tokens a damaged file may carry in place of a good one
ODD_TOKENS = [b"nan", b"inf", b"-inf", b"0", b"1", b"-1", b"5", b"3.0", b"1e999",
              b"100000000000000000000", b"predictor", b"h0_bias", b"\xff", b""]

CHECKPOINT_EDITS = st.one_of(
    st.tuples(st.just("byte"), st.integers(min_value=0), st.integers(0, 255)),
    st.tuples(st.just("truncate"), st.integers(min_value=0), st.just(None)),
    st.tuples(st.just("swap"), st.integers(min_value=0), st.integers(min_value=0)),
    st.tuples(st.just("replace"), st.integers(min_value=0), st.sampled_from(ODD_TOKENS)),
)


def edit_checkpoint(data, edit):
    """data with one byte set, cut short, or two tokens swapped or one replaced."""
    kind, where, what = edit
    if kind == "byte":
        i = where % len(data)
        return data[:i] + bytes([what]) + data[i + 1:]
    if kind == "truncate":
        return data[:where % len(data)]
    tokens = data.split()
    i = where % len(tokens)
    if kind == "swap":
        j = what % len(tokens)
        tokens[i], tokens[j] = tokens[j], tokens[i]
    else:
        tokens[i] = what
    return b"\n".join(tokens)


def test_fuzz_positions_name_their_sections(predictor_checkpoint):
    tokens = predictor_checkpoint.split()
    assert tokens[PREDICTOR_HEADER:PREDICTOR_HEADER + 4] == [b"predictor", b"102", b"2", b"0"]
    assert tokens[H0_BIAS] == b"h0_bias"


@settings(max_examples=300, derandomize=True, deadline=None)
@given(edit=CHECKPOINT_EDITS)
@example(edit=("byte", 0, 0xFF))
@example(edit=("replace", H0_BIAS + 1, b"nan"))
@example(edit=("replace", PREDICTOR_HEADER + 1, b"5"))  # predictor 5 2 0
def test_damaged_checkpoint_loads_or_raises_format_error(
    predictor_checkpoint, tmp_path_factory, edit
):
    """Any one edit of a valid checkpoint loads, or raises LutFormatError and nothing else."""
    path = tmp_path_factory.getbasetemp() / "fuzz.nulut"
    path.write_bytes(edit_checkpoint(predictor_checkpoint, edit))
    try:
        load_checkpoint(path)
    except LutFormatError:
        pass
