import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
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
from nulut.predictor import PARAM_ARRAYS, init_params
from nulut.transform import transform_pixel


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
        ("predictor 1000000000000000000000 2 0", "expected float in g_weights, found 'g_bias'"),
    ])
    def test_oversized_predictor_sizes_report_first_bad_token(
        self, rng, tmp_path, header, message
    ):
        path = tmp_path / "p.nulut"
        self.with_predictor_header(rng, path, header)
        with pytest.raises(LutFormatError) as info:
            load_checkpoint(path)
        assert str(info.value) == message

    @pytest.mark.parametrize("f_dim,m", [(0, 2), (102, 0), (-5, 2), (102, -1)])
    def test_predictor_dimensions_below_one_rejected_by_name(self, rng, tmp_path, f_dim, m):
        path = tmp_path / "p.nulut"
        self.with_predictor_header(rng, path, f"predictor {f_dim} {m} 0")
        with pytest.raises(LutFormatError) as info:
            load_checkpoint(path)
        assert str(info.value) == (
            f"predictor f_dim and m must be >= 1, got f_dim={f_dim}, m={m}"
        )


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
        assert loaded.m == params.m and loaded.f_dim == params.f_dim
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
        assert (loaded.n_s, loaded.m, loaded.f_dim, loaded.shared) == (
            params.n_s, params.m, params.f_dim, params.shared
        )
        for name in PARAM_ARRAYS:
            assert getattr(loaded, name).tobytes() == getattr(params, name).tobytes(), name
