import numpy as np
import pytest

from nulut.analysis import (
    accumulative_error_histogram,
    error_map,
    export_diagnostics,
    psnr,
)
from nulut.lattice import uniform_coordinates


class TestErrorMap:
    def test_identical_images(self, rng):
        img = rng.random((3, 4, 4))
        assert np.all(error_map(img, img) == 0.0)

    def test_single_difference(self):
        x = np.zeros((3, 2, 2))
        y = np.zeros((3, 2, 2))
        y[1, 0, 1] = 0.5
        d = error_map(x, y)
        assert d[1, 0, 1] == 0.25
        assert d.sum() == 0.25

    def test_symmetric(self, rng):
        x, y = rng.random((3, 3, 3)), rng.random((3, 3, 3))
        np.testing.assert_array_equal(error_map(x, y), error_map(y, x))

    def test_rejects_mismatched_shapes(self, rng):
        with pytest.raises(ValueError):
            error_map(rng.random((3, 2, 2)), rng.random((3, 2, 3)))


def brute_force_histogram(x, y, n_bin):
    """Naive O(pixels * bins) binning used as the oracle."""
    d = (x - y) ** 2
    bins = np.zeros((3, n_bin))
    for c in range(3):
        for value, err in zip(x[c].ravel(), d[c].ravel()):
            for k in range(n_bin):
                lo, hi = k / n_bin, (k + 1) / n_bin
                if (lo <= value < hi) or (k == n_bin - 1 and value == 1.0):
                    bins[c, k] += err
                    break
    theta = bins.sum(axis=1)
    for c in range(3):
        if theta[c] > 0:
            bins[c] /= theta[c]
    return bins, theta


class TestAccumulativeErrorHistogram:
    def test_identical_images_flagged(self, rng):
        img = rng.random((3, 4, 4))
        hist = accumulative_error_histogram(img, img, n_bin=16)
        assert np.all(hist.no_error)
        assert np.all(hist.bins == 0.0)
        assert np.all(hist.aeh == 0.0)
        assert np.all(hist.theta == 0.0)

    def test_one_pixel_step(self):
        x = np.full((3, 1, 1), 0.5)
        y = np.zeros((3, 1, 1))
        hist = accumulative_error_histogram(x, y, n_bin=10)
        assert hist.bins[0, 5] == 1.0
        assert hist.bins[0].sum() == 1.0
        np.testing.assert_array_equal(hist.aeh[0], [0, 0, 0, 0, 0, 1, 1, 1, 1, 1])

    def test_constant_error_recovers_value_cdf(self, rng):
        x = rng.random((3, 8, 8))
        y = np.clip(x + 0.1, 0.0, 1.1)  # constant per-pixel error
        y = x + 0.1
        hist = accumulative_error_histogram(x, y, n_bin=16)
        for c in range(3):
            cdf = np.array(
                [(x[c] * 16 < k + 1).mean() for k in range(16)]
            )
            np.testing.assert_allclose(hist.aeh[c], cdf, atol=1e-9)

    def test_matches_brute_force(self, rng):
        x, y = rng.random((3, 8, 8)), rng.random((3, 8, 8))
        hist = accumulative_error_histogram(x, y, n_bin=32)
        bins, theta = brute_force_histogram(x, y, 32)
        np.testing.assert_allclose(hist.bins, bins, atol=1e-12)
        np.testing.assert_allclose(hist.theta, theta, rtol=1e-12)

    def test_mass_conservation(self, rng):
        x, y = rng.random((3, 16, 16)), rng.random((3, 16, 16))
        hist = accumulative_error_histogram(x, y, n_bin=100)
        d = error_map(x, y)
        for c in range(3):
            recovered = hist.theta[c] * hist.bins[c].sum()
            assert abs(recovered - d[c].sum()) <= 1e-9 * d[c].sum()

    def test_aeh_monotone_with_unit_terminal(self, rng):
        x, y = rng.random((3, 10, 10)), rng.random((3, 10, 10))
        hist = accumulative_error_histogram(x, y, n_bin=50)
        assert np.all(np.diff(hist.aeh, axis=1) >= -1e-15)
        np.testing.assert_allclose(hist.aeh[:, -1], 1.0, atol=1e-9)

    def test_value_one_joins_last_bin(self):
        x = np.ones((3, 1, 1))
        y = np.zeros((3, 1, 1))
        hist = accumulative_error_histogram(x, y, n_bin=8)
        assert np.all(hist.bins[:, -1] == 1.0)

    def test_rejects_bad_bins(self, rng):
        img = rng.random((3, 2, 2))
        with pytest.raises(ValueError):
            accumulative_error_histogram(img, img, n_bin=0)

    @pytest.mark.parametrize("value,message", [
        (np.nan, "^image values must be finite"),
        (np.inf, "^image values must be finite"),
        (1.5, r"^image values must lie in \[0, 1\]"),
        (-0.5, r"^image values must lie in \[0, 1\]"),
    ])
    def test_rejects_input_outside_the_binned_range(self, rng, value, message):
        x = rng.random((3, 2, 2))
        x[1, 0, 1] = value
        with pytest.raises(ValueError, match=message):
            accumulative_error_histogram(x, rng.random((3, 2, 2)), n_bin=4)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_target_by_name(self, rng, value):
        y = rng.random((3, 2, 2))
        y[2, 1, 0] = value
        with pytest.raises(ValueError, match="^y values must be finite"):
            accumulative_error_histogram(rng.random((3, 2, 2)), y, n_bin=4)

    @pytest.mark.parametrize("n_bin", [2.5, 8.0, True, None])
    def test_rejects_non_integer_bins_by_name(self, rng, n_bin):
        img = rng.random((3, 2, 2))
        with pytest.raises(ValueError, match="^n_bin must be an integer, got"):
            accumulative_error_histogram(img, img, n_bin=n_bin)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("which", ["x", "y"])
@pytest.mark.parametrize("measure", [error_map, psnr])
def test_non_finite_images_rejected_by_name(rng, measure, which, value):
    # psnr once returned nan or -inf here, and error_map passed NaN through
    images = {"x": rng.random((3, 4, 4)), "y": rng.random((3, 4, 4))}
    images[which][1, 2, 3] = value
    with pytest.raises(ValueError, match=f"^{which} values must be finite$"):
        measure(images["x"], images["y"])


@pytest.mark.parametrize("shape", [(3, 0, 4), (3, 4, 0)])
@pytest.mark.parametrize("measure", [error_map, psnr, accumulative_error_histogram])
def test_empty_images_rejected(measure, shape):
    # an empty pair once averaged to NaN (psnr) or gave all-zero bins (aeh)
    with pytest.raises(ValueError, match=r"image must have shape \(3, h, w\), got"):
        measure(np.zeros(shape), np.zeros(shape))


class TestPsnr:
    def test_identical_images_hit_cap(self, rng):
        img = rng.random((3, 5, 5))
        assert psnr(img, img) == 100.0

    def test_known_mse(self):
        x = np.zeros((3, 10, 10))
        assert abs(psnr(x + 0.1, x) - 20.0) < 1e-12

    def test_unit_mse_is_zero_db(self):
        x = np.zeros((3, 4, 4))
        assert abs(psnr(x + 1.0, x)) < 1e-12


class TestExportDiagnostics:
    def test_csv_round_trip(self, rng, tmp_path):
        x, y = rng.random((3, 6, 6)), rng.random((3, 6, 6))
        hist = accumulative_error_histogram(x, y, n_bin=20)
        coords = uniform_coordinates(5)
        prefix = tmp_path / "diag"
        written = export_diagnostics(coords, hist, prefix, svg=True)
        assert len(written) == 3

        aeh_lines = (tmp_path / "diag_aeh.csv").read_text().splitlines()
        assert aeh_lines[0] == "channel,bin_center,aeh"
        parsed = np.zeros((3, 20))
        channel_of = {"r": 0, "g": 1, "b": 2}
        row = {c: 0 for c in range(3)}
        for line in aeh_lines[1:]:
            name, center, value = line.split(",")
            c = channel_of[name]
            parsed[c, row[c]] = float(value)
            row[c] += 1
        np.testing.assert_array_equal(parsed, hist.aeh)

        coord_lines = (tmp_path / "diag_coords.csv").read_text().splitlines()
        assert coord_lines[0] == "channel,index,coordinate"
        values = [float(line.split(",")[2]) for line in coord_lines[1:]]
        np.testing.assert_array_equal(np.array(values).reshape(3, 5), coords)

        svg = (tmp_path / "diag.svg").read_text()
        assert svg.startswith("<svg") and "polyline" in svg

    def test_aeh_column_non_decreasing(self, rng, tmp_path):
        x, y = rng.random((3, 6, 6)), rng.random((3, 6, 6))
        hist = accumulative_error_histogram(x, y, n_bin=15)
        export_diagnostics(None, hist, tmp_path / "d")
        lines = (tmp_path / "d_aeh.csv").read_text().splitlines()[1:]
        per_channel = {}
        for line in lines:
            name, _, value = line.split(",")
            per_channel.setdefault(name, []).append(float(value))
        for series in per_channel.values():
            assert np.all(np.diff(series) >= -1e-15)

    @pytest.mark.parametrize("coords,message", [
        (np.linspace(0.0, 1.0, 10).reshape(2, 5), r"^coordinates must have shape \(3, n>=2\)"),
        (np.where(np.arange(5) == 2, np.nan, np.linspace(0.0, 1.0, 5)) * np.ones((3, 1)),
         "^coords r: entries must be finite$"),
    ], ids=["two-rows", "nan"])
    @pytest.mark.parametrize("svg", [False, True])
    def test_bad_coords_rejected_before_any_file_is_written(self, rng, tmp_path, coords,
                                                             message, svg):
        x = rng.random((3, 2, 2))
        hist = accumulative_error_histogram(x, 1.0 - x, n_bin=4)
        with pytest.raises(ValueError, match=message):
            export_diagnostics(coords, hist, tmp_path / "diag", svg=svg)
        assert list(tmp_path.iterdir()) == []

    def test_io_failure_reports_path(self, rng):
        x = rng.random((3, 2, 2))
        hist = accumulative_error_histogram(x, 1.0 - x, n_bin=4)
        with pytest.raises(OSError, match="no/such/dir"):
            export_diagnostics(None, hist, "no/such/dir/prefix")
