import numpy as np
import pytest

from nulut.lattice import Lattice, coordinates_from_logits, identity_lut
from nulut.transform import _base_index, _blend, _locate, _weight_pairs, transform_pixel


@pytest.fixture
def rng():
    return np.random.default_rng(2024)


def random_lattice(rng, n_s, logit_scale=1.0, value_noise=0.0):
    """Non-uniform lattice with random knots and values in [0, 1]."""
    coords = coordinates_from_logits(
        rng.uniform(-logit_scale, logit_scale, size=(3, n_s - 1))
    )
    if value_noise > 0.0:
        values = identity_lut(coords) + rng.normal(
            0.0, value_noise, size=(3, n_s, n_s, n_s)
        )
        values = np.clip(values, 0.0, 1.0)
    else:
        values = rng.random((3, n_s, n_s, n_s))
    return Lattice(coords, values)


def transform_loop(img, lattice):
    """Reference transform: scalar per-pixel loop in row-major order."""
    out = np.empty_like(img)
    for r in range(img.shape[1]):
        for c in range(img.shape[2]):
            out[:, r, c] = transform_pixel(img[:, r, c], lattice)
    return out


def transform_block(pix, coords, values):
    """Transform pixel columns (3, p) against raw, unvalidated lattice arrays.

    The finite-difference tests perturb the pinned end knots, which
    Lattice would reject, so this runs the library's float-route cell
    location and blend on the arrays themselves.
    """
    n = coords.shape[1]
    e0, xd = _locate(coords, pix)
    return _blend(values.reshape(3, n * n * n), n, _base_index(e0, n), _weight_pairs(xd))


def queries_off_knots(rng, coords, count, margin=1e-3):
    """Random query triples at least `margin` away from every knot."""
    picked = []
    while len(picked) < count:
        x = rng.uniform(margin, 1.0 - margin, size=3)
        if all(np.abs(coords[c] - x[c]).min() >= margin for c in range(3)):
            picked.append(x)
    return np.array(picked)
