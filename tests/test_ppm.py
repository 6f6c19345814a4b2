import numpy as np
import pytest

from nulut.ppm import PpmParseError, read_image, read_ppm, write_image
from nulut.transform import CHUNK_PIXELS


class TestRead:
    def test_single_8bit_pixel(self, tmp_path):
        path = tmp_path / "one.ppm"
        path.write_bytes(b"P6\n1 1\n255\n" + bytes([255, 0, 128]))
        img, maxval = read_ppm(path)
        assert maxval == 255
        np.testing.assert_allclose(img[:, 0, 0], [1.0, 0.0, 128 / 255])

    def test_16bit_big_endian_sample(self, tmp_path):
        path = tmp_path / "one16.ppm"
        path.write_bytes(b"P6\n1 1\n65535\n" + bytes([0x80, 0x00, 0, 0, 0, 0]))
        img, maxval = read_ppm(path)
        assert maxval == 65535
        assert img[0, 0, 0] == 32768 / 65535

    def test_header_comments_are_skipped(self, tmp_path):
        path = tmp_path / "c.ppm"
        path.write_bytes(b"P6\n# a comment\n2 1\n# another\n255\n" + bytes(6))
        img, _ = read_ppm(path)
        assert img.shape == (3, 1, 2)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ppm"
        path.write_bytes(b"P3\n1 1\n255\n")
        with pytest.raises(PpmParseError, match="byte 0"):
            read_ppm(path)

    def test_unsupported_maxval(self, tmp_path):
        path = tmp_path / "m.ppm"
        for maxval in (0, 65536):
            path.write_bytes(f"P6\n1 1\n{maxval}\n".encode("ascii") + bytes(6))
            with pytest.raises(PpmParseError, match=f"unsupported maxval {maxval} "):
                read_ppm(path)

    @pytest.mark.parametrize("maxval,sample_bytes,offset", [
        (100, bytes([0, 100, 0, 0, 0, 101]), 5),
        (1023, bytes([0, 0, 0x03, 0xFF, 0, 0, 0, 0, 0x04, 0x00, 0, 0]), 8),
    ], ids=["8bit", "16bit"])
    def test_sample_above_maxval_reports_offset(self, tmp_path, maxval, sample_bytes, offset):
        header = f"P6\n2 1\n{maxval}\n".encode("ascii")
        path = tmp_path / "over.ppm"
        path.write_bytes(header + sample_bytes)
        with pytest.raises(PpmParseError, match=f"exceeds maxval {maxval} "
                           rf"\(at byte {len(header) + offset}\)"):
            read_ppm(path, raw=True)
        with pytest.raises(PpmParseError):
            read_ppm(path)

    def test_truncated_payload_reports_offset(self, tmp_path):
        path = tmp_path / "t.ppm"
        path.write_bytes(b"P6\n2 2\n255\n" + bytes(5))
        with pytest.raises(PpmParseError, match="truncated"):
            read_ppm(path)

    def test_missing_dimension(self, tmp_path):
        path = tmp_path / "d.ppm"
        path.write_bytes(b"P6\n2\n")
        with pytest.raises(PpmParseError):
            read_ppm(path)


class TestWriteReadRoundTrip:
    @pytest.mark.parametrize("maxval", [1, 100, 255, 1023, 4095, 65535])
    def test_quantized_round_trip(self, rng, tmp_path, maxval):
        # start from exactly representable levels so the trip is lossless
        levels = rng.integers(0, maxval + 1, size=(3, 7, 5))
        img = levels / maxval
        path = tmp_path / "rt.ppm"
        write_image(img, path, maxval=maxval)
        back, read_maxval = read_ppm(path)
        assert read_maxval == maxval
        np.testing.assert_array_equal(back, img)

    def test_rounding_is_half_up(self, tmp_path):
        img = np.zeros((3, 1, 1))
        img[0] = 0.5 / 255  # exactly halfway between level 0 and 1
        img[1] = 0.49 / 255
        path = tmp_path / "round.ppm"
        write_image(img, path, maxval=255)
        back = read_image(path)
        assert back[0, 0, 0] == 1 / 255
        assert back[1, 0, 0] == 0.0

    @pytest.mark.parametrize("maxval,shape", [
        pytest.param(maxval, shape, id=f"{maxval}{suffix}")
        for suffix, shape in [
            ("", (7, 9)),
            # wider than CHUNK_PIXELS: blocks of one row
            ("-wide", (3, CHUNK_PIXELS + 5)),
            # 32-row blocks and a last block of 11 rows
            ("-ragged", (75, CHUNK_PIXELS // 32)),
        ]
        for maxval in (255, 65535)
    ])
    def test_levels_are_floor_of_half_up_then_clipped(self, rng, tmp_path, maxval, shape):
        img = rng.uniform(-0.1, 1.1, size=(3, *shape))
        img[0, 0, :3] = [0.5 / maxval, 1.5 / maxval, (maxval - 0.5) / maxval]
        path = tmp_path / "levels.ppm"
        write_image(img, path, maxval=maxval)
        levels, _ = read_ppm(path, raw=True)
        expected = np.clip(np.floor(img * maxval + 0.5), 0, maxval)
        np.testing.assert_array_equal(levels, expected)

    def test_out_of_range_values_clip(self, tmp_path):
        img = np.zeros((3, 1, 2))
        img[0, 0, 0] = 1.7
        img[1, 0, 1] = -0.3
        path = tmp_path / "clip.ppm"
        write_image(img, path, maxval=255)
        back = read_image(path)
        assert back[0, 0, 0] == 1.0
        assert back[1, 0, 1] == 0.0

    @pytest.mark.parametrize("maxval", [255, 65535])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_samples_rejected_before_writing(self, tmp_path, maxval, value):
        img = np.full((3, 70, 600), 0.5)  # several row blocks; the bad one is last
        img[1, 65, 7] = value
        path = tmp_path / "bad.ppm"
        with pytest.raises(ValueError, match="image values must be finite"):
            write_image(img, path, maxval=maxval)
        assert not path.exists()

    @pytest.mark.parametrize("shape", [(3, 0, 5), (3, 5, 0), (1, 2, 2), (3, 4)])
    def test_write_rejects_shapes_read_ppm_rejects(self, tmp_path, shape):
        with pytest.raises(ValueError, match=r"image must have shape \(3, h, w\)"):
            write_image(np.zeros(shape), tmp_path / "e.ppm")
        assert not (tmp_path / "e.ppm").exists()

    def test_write_rejects_bad_maxval(self, rng, tmp_path):
        for maxval in (0, 65536, 255.0, True):
            with pytest.raises(ValueError, match="unsupported maxval"):
                write_image(rng.random((3, 2, 2)), tmp_path / "x.ppm", maxval=maxval)
        assert not (tmp_path / "x.ppm").exists()

    @pytest.mark.parametrize("maxval,width", [(1, 1), (255, 1), (256, 2), (65535, 2)])
    def test_sample_width_follows_maxval(self, rng, tmp_path, maxval, width):
        path = tmp_path / "w.ppm"
        write_image(rng.random((3, 4, 5)), path, maxval=maxval)
        header = f"P6\n5 4\n{maxval}\n".encode("ascii")
        data = path.read_bytes()
        assert data.startswith(header)
        assert len(data) == len(header) + 4 * 5 * 3 * width


class TestRawSamples:
    @pytest.mark.parametrize("maxval,dtype", [
        (255, np.uint8), (65535, np.uint16), (100, np.uint8), (1023, np.uint16),
    ])
    def test_raw_samples_scale_to_the_float_image(self, rng, tmp_path, maxval, dtype):
        path = tmp_path / "raw.ppm"
        write_image(rng.random((3, 7, 5)), path, maxval=maxval)
        samples, read_maxval = read_ppm(path, raw=True)
        assert read_maxval == maxval
        assert samples.dtype == np.dtype(dtype) and samples.dtype.isnative
        assert samples.shape == (3, 7, 5)
        np.testing.assert_array_equal(samples.astype(np.float64) / maxval, read_ppm(path)[0])

    def test_raw_16bit_sample_is_big_endian_on_disk(self, tmp_path):
        path = tmp_path / "one16.ppm"
        path.write_bytes(b"P6\n1 1\n65535\n" + bytes([0x80, 0x01, 0, 0, 0xFF, 0xFF]))
        samples, _ = read_ppm(path, raw=True)
        assert samples[:, 0, 0].tolist() == [0x8001, 0, 65535]
