import math

import numpy as np
import pytest

from nulut.bench import comparison_bound, run_bench


class TestComparisonBound:
    def test_known_values(self):
        assert comparison_bound(2) == 2
        assert comparison_bound(33) == 7
        assert comparison_bound(65) == 8


class TestRunBench:
    def test_report_fields_and_lookup_bound(self):
        report = run_bench([(64, 48)], threads=1, repeat=2, n_s=33, seed=1)
        assert report.max_comparisons <= report.comparison_bound
        entry = report.entries[0]
        assert entry.pixels == 64 * 48
        assert entry.ms > 0
        assert math.isclose(entry.ns_per_pixel, entry.ms * 1e6 / entry.pixels)

    def test_threaded_transform_identical_to_sequential(self, rng):
        from conftest import random_lattice
        from nulut.transform import transform_image

        lattice = random_lattice(rng, 33)
        img = rng.random((3, 257, 129))
        assert np.array_equal(
            transform_image(img, lattice, workers=1),
            transform_image(img, lattice, workers=4),
        )

    @pytest.mark.parametrize("threads", [0, -2])
    def test_threads_below_one_rejected(self, threads):
        with pytest.raises(ValueError, match=f"threads must be >= 1, got {threads}"):
            run_bench([(4, 4)], threads=threads, repeat=1, n_s=3)

    def test_report_lines_render(self):
        report = run_bench([(32, 32)], repeat=1, n_s=9)
        lines = list(report.lines())
        assert any("ns/px" in line for line in lines)
