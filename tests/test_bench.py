import math
import re

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

    @pytest.mark.parametrize("options,message", [
        ({"n_s": 1}, "n_s must be >= 2, got 1"),
        ({"n_s": 0}, "n_s must be >= 2, got 0"),
        ({"seed": -1}, "seed must be >= 0, got -1"),
        ({"sizes": [(4, 4), (0, 4)]}, "sizes must be at least 1x1, got 0x4"),
        ({"sizes": [(3, -1)]}, "sizes must be at least 1x1, got 3x-1"),
        ({"threads": 1.5}, "threads must be an integer, got 1.5"),
        ({"threads": True}, "threads must be an integer, got True"),
        ({"repeat": 1.5}, "repeat must be an integer, got 1.5"),
        ({"n_s": 5.0}, "n_s must be an integer, got 5.0"),
        ({"seed": 1.5}, "seed must be an integer, got 1.5"),
        ({"sizes": [(4.0, 4)]}, "width must be an integer, got 4.0"),
        ({"sizes": [(4, 4), (4, 2.5)]}, "height must be an integer, got 2.5"),
        ({"repeat": 0}, "repeat must be >= 1, got 0"),
    ])
    def test_out_of_range_rejected_before_drawing(self, monkeypatch, options, message):
        def no_draws(*args, **kwargs):
            raise AssertionError("random numbers drawn before the checks")

        monkeypatch.setattr(np.random, "default_rng", no_draws)
        with pytest.raises(ValueError, match=re.escape(message)):
            run_bench(**{"sizes": [(4, 4)], "repeat": 1, **options})

    def test_report_lines_render(self):
        report = run_bench([(32, 32)], repeat=1, n_s=9)
        lines = list(report.lines())
        assert any("ns/px" in line for line in lines)
