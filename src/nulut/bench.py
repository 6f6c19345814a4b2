"""Throughput and lookup-cost measurement on synthetic images.

The report carries medians of wall time per image plus the worst lookup
comparison count observed against its theoretical binary-search bound.
No absolute-time targets live here; the interesting properties are
linear scaling in pixel count and the logarithmic lookup bound.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .lattice import Lattice, check_integer, coordinates_from_logits, identity_lut
from .transform import lookup_with_count, transform_image


@dataclass(frozen=True)
class BenchEntry:
    width: int
    height: int
    pixels: int
    ms: float
    ns_per_pixel: float


@dataclass
class BenchReport:
    n_s: int
    threads: int
    repeat: int
    max_comparisons: int
    comparison_bound: int
    entries: list = field(default_factory=list)

    def lines(self):
        yield (
            f"lattice size {self.n_s}, threads {self.threads}, "
            f"median of {self.repeat} runs"
        )
        yield (
            f"lookup comparisons: max {self.max_comparisons} "
            f"(bound {self.comparison_bound})"
        )
        for e in self.entries:
            yield (
                f"{e.width}x{e.height} ({e.pixels} px): "
                f"{e.ms:.2f} ms, {e.ns_per_pixel:.2f} ns/px"
            )


def comparison_bound(n_s: int) -> int:
    return math.ceil(math.log2(n_s)) + 1


def audit_lookup_cost(coords, queries) -> int:
    """Worst comparison count over all rows and query values."""
    worst = 0
    for c in range(3):
        for x in queries:
            _, count = lookup_with_count(coords[c], float(x))
            worst = max(worst, count)
    return worst


def run_bench(
    sizes, threads: int = 1, repeat: int = 3, n_s: int = 33, seed: int = 0
) -> BenchReport:
    """Time the transform on random images of the given (width, height) sizes."""
    for name, value, minimum in (("threads", threads, 1), ("repeat", repeat, 1),
                                 ("n_s", n_s, 2), ("seed", seed, 0)):
        check_integer(name, value, minimum)
    for width, height in sizes:
        check_integer("width", width)
        check_integer("height", height)
        if width < 1 or height < 1:
            raise ValueError(f"sizes must be at least 1x1, got {width}x{height}")
    rng = np.random.default_rng(seed)
    coords = coordinates_from_logits(rng.uniform(-1.0, 1.0, size=(3, n_s - 1)))
    values = identity_lut(coords) + rng.normal(0.0, 0.02, size=(3, n_s, n_s, n_s))
    lattice = Lattice(coords, values)

    queries = np.concatenate(([0.0, 1.0], rng.random(10_000)))
    worst = audit_lookup_cost(coords, queries)
    report = BenchReport(
        n_s=n_s,
        threads=threads,
        repeat=repeat,
        max_comparisons=worst,
        comparison_bound=comparison_bound(n_s),
    )
    for width, height in sizes:
        img = rng.random((3, height, width))
        transform_image(img, lattice, workers=threads)  # warm pages and allocator
        times = []
        for _ in range(repeat):
            start = time.perf_counter()
            transform_image(img, lattice, workers=threads)
            times.append(time.perf_counter() - start)
        seconds = float(np.median(times))
        pixels = width * height
        report.entries.append(
            BenchEntry(
                width=width,
                height=height,
                pixels=pixels,
                ms=seconds * 1e3,
                ns_per_pixel=seconds * 1e9 / pixels,
            )
        )
    return report
