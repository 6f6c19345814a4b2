import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_lattice

from nulut import ppm, transform
from nulut.ppm import PpmParseError, read_image, read_ppm, write_image
from nulut.transform import CHUNK_PIXELS, transform_image


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

    @pytest.mark.parametrize("header,what,offset", [
        (b"P6\n" + b"9" * 5000 + b" 1\n255\n", "width", 3),
        (b"P6 1 #c\n" + b"7" * 5000 + b"\n255\n", "height", 8),
        (b"P6\n1 1\n" + b"0" * 5000 + b"255\n", "maxval", 7),
    ], ids=["width", "height", "maxval-zeros"])
    def test_over_long_field_names_the_field(self, tmp_path, header, what, offset):
        # int() converts at most 4,300 digits by default, leading zeros included
        path = tmp_path / "long.ppm"
        path.write_bytes(header + bytes(6))
        with pytest.raises(PpmParseError, match=f"^{what} too long: ") as info:
            read_ppm(path)
        assert info.value.offset == offset

    def test_raster_size_with_more_digits_than_str_writes_is_truncated(self, tmp_path):
        # each field fits int(), but width * height * 3 has about 5,000 digits
        path = tmp_path / "huge.ppm"
        path.write_bytes(b"P6\n" + b"9" * 2500 + b" " + b"9" * 2500 + b"\n255\n")
        with pytest.raises(PpmParseError, match="^truncated payload: ") as info:
            read_ppm(path)
        assert info.value.offset == 5009

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


class TestOneMaxvalRange:
    """write_image, transform_image(..., maxval=) and read_ppm take the same maxvals."""

    def test_one_constant(self):
        assert ppm.MAX_MAXVAL is transform.MAX_MAXVAL

    @pytest.mark.parametrize("maxval,accepted", [
        (0, False), (1, True), (255, True), (65535, True), (65536, False),
        (2.5, False), (True, False), (np.uint16(65535), True),
    ], ids=["0", "1", "255", "65535", "65536", "2.5", "True", "uint16-65535"])
    def test_same_verdict_everywhere(self, rng, tmp_path, maxval, accepted):
        written, header = tmp_path / "w.ppm", tmp_path / "h.ppm"
        # one pixel at two bytes per sample covers every accepted maxval
        header.write_bytes(f"P6\n1 1\n{maxval}\n".encode("ascii") + bytes(6))
        calls = [
            (lambda: write_image(np.zeros((3, 1, 1)), written, maxval=maxval), ValueError),
            (lambda: transform_image(np.zeros((3, 1, 1), dtype=np.uint8),
                                     random_lattice(rng, 3), maxval=maxval), ValueError),
            (lambda: read_ppm(header), PpmParseError),
        ]
        for call, error in calls:
            if accepted:
                call()
            else:
                with pytest.raises(error):
                    call()
        assert written.exists() == accepted


# the six bytes bytes.isspace() accepts: space, \t, \n, \r, \v, \f
WHITESPACE = [bytes([c]) for c in b" \t\n\r\x0b\x0c"]
COMMENT_BODY = st.binary(max_size=8).map(lambda b: b"#" + b.replace(b"\n", b""))
# a comment ends at a newline, which is also whitespace between fields
SEPARATOR_PIECE = st.one_of(st.sampled_from(WHITESPACE), COMMENT_BODY.map(lambda c: c + b"\n"))
HEADER_FIELDS = ("width", "height", "maxval")


@st.composite
def p6_files(draw):
    """(data, width, height, maxval, samples, spans): a valid P6 file whose
    header fields sit between random runs of whitespace and comments;
    spans[k] is the (start, end) of field k's digits in data."""
    width, height = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    maxval = draw(st.one_of(st.sampled_from([1, 8, 255, 256, 65535]), st.integers(1, 65535)))
    data, spans = b"P6", []
    for k, value in enumerate((width, height, maxval)):
        # the field after the magic may follow it directly; the others need
        # a separator, or their digits would run together
        data += b"".join(draw(st.lists(SEPARATOR_PIECE, min_size=int(k > 0), max_size=4)))
        digits = b"0" * draw(st.integers(0, 2)) + str(value).encode("ascii")
        spans.append((len(data), len(data) + len(digits)))
        data += digits
    data += draw(st.sampled_from(WHITESPACE))
    # samples below 9 are neither digits nor whitespace, so a header that
    # loses a field never reads one of its fields out of the raster
    samples = np.array(draw(st.lists(st.integers(0, min(maxval, 8)),
                                     min_size=3 * width * height, max_size=3 * width * height)))
    dtype = ">u2" if maxval > 255 else "u1"
    data += samples.astype(dtype).tobytes()
    return data, width, height, maxval, samples.reshape(height, width, 3).transpose(2, 0, 1), spans


class TestHeaderGrammar:
    """Header fields read through any mix of the six whitespace bytes and # comments."""

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(file=p6_files())
    @example(file=(b"P6\x0b2\x0c#\x0c\r\n1#x 9\n#\n255\t" + bytes(range(6)),
                   2, 1, 255, np.arange(6).reshape(1, 2, 3).transpose(2, 0, 1), None))
    def test_reads_the_declared_fields(self, tmp_path_factory, file):
        data, width, height, maxval, samples, _ = file
        path = tmp_path_factory.getbasetemp() / "grammar.ppm"
        path.write_bytes(data)
        raw, read_maxval = read_ppm(path, raw=True)
        assert read_maxval == maxval and raw.shape == (3, height, width)
        assert np.array_equal(raw, samples)
        assert np.array_equal(read_ppm(path)[0], samples / maxval)

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(file=p6_files(), field=st.integers(0, 2),
           edit=st.one_of(st.just("remove"), st.just("cut"),
                          st.sampled_from([b"x", b"-", b"+", b"P", b"\x00", b"\xff", b"\x1c"])),
           comment=COMMENT_BODY)
    def test_missing_or_bad_field_names_an_offset_in_the_data(self, tmp_path_factory, file,
                                                              field, edit, comment):
        data, spans = file[0], file[-1]
        start, end = spans[field]
        if edit == "remove":
            data = data[:start] + data[end:]
        elif edit == "cut":
            # the file ends inside a comment where the field should start
            data = data[:start] + comment
        else:
            data = data[:start] + edit + data[end:]
        path = tmp_path_factory.getbasetemp() / "bad_grammar.ppm"
        path.write_bytes(data)
        with pytest.raises(PpmParseError) as info:
            read_ppm(path)
        assert 0 <= info.value.offset <= len(data)
        if edit == "cut":
            assert str(info.value) == f"expected {HEADER_FIELDS[field]} (at byte {len(data)})"
        elif edit != "remove":
            assert str(info.value) == f"expected {HEADER_FIELDS[field]} (at byte {start})"


# tokens a damaged header may carry in place of a field; 4,300 nines is the
# longest field int() converts, and times a height and 3 it has 4,301 digits
ODD_FIELDS = [b"", b"0", b"00", b"-1", b"+1", b"x", b"1.5", b"#", b"\xff", b"65536",
              b"99999999999999999999", b"9" * 2500, b"9" * 4300, b"9" * 4301]

P6_EDITS = st.one_of(
    st.tuples(st.just("byte"), st.integers(min_value=0), st.integers(0, 255)),
    st.tuples(st.just("truncate"), st.integers(min_value=0), st.just(None)),
    st.tuples(st.just("field"), st.integers(0, 2), st.sampled_from(ODD_FIELDS)),
)


def edit_p6(data, spans, edit):
    """data with one byte set, cut short, or one header field replaced."""
    kind, where, what = edit
    if kind == "byte":
        i = where % len(data)
        return data[:i] + bytes([what]) + data[i + 1:]
    if kind == "truncate":
        return data[:where % len(data)]
    start, end = spans[where]
    return data[:start] + what + data[end:]


@settings(max_examples=300, derandomize=True, deadline=None)
@given(file=p6_files(), edit=P6_EDITS)
# setting byte 0 to "P" leaves this header as it is
@example(file=(b"P6\n" + b"9" * 2500 + b" " + b"9" * 2500 + b"\n255\n", None, None, None,
               None, None), edit=("byte", 0, ord("P")))
def test_damaged_p6_reads_or_raises_parse_error(tmp_path_factory, file, edit):
    """Any one edit of a valid P6 file reads, or raises PpmParseError inside the data."""
    data = edit_p6(file[0], file[-1], edit)
    path = tmp_path_factory.getbasetemp() / "damaged.ppm"
    path.write_bytes(data)
    try:
        img, maxval = read_ppm(path)
    except PpmParseError as error:
        assert 0 <= error.offset <= len(data)
    else:
        assert img.shape[0] == 3 and 1 <= maxval <= transform.MAX_MAXVAL
