"""Equivalence of the lattice-table norms, the spatial-coefficient
linear-estimate check and the one-draw generators with frozen copies of the
code they replaced (tests/frozen_bourgain.py)."""

import numpy as np
import pytest

import frozen_bourgain as frozen
from zrbr.bourgain import (
    NO_DISPERSION,
    SCHRODINGER,
    WAVE_MINUS,
    WAVE_PLUS,
    SpaceTimeField,
    linear_estimate_ratio,
    random_band_limited,
    xsb_norm,
    ys_norm,
)
from zrbr.config import SimConfig, make_initial_state
from zrbr.spectral import Grid, low_mode_coefficients

DISPERSIONS = [SCHRODINGER, WAVE_PLUS, WAVE_MINUS, NO_DISPERSION]
DISP_IDS = [d.kind for d in DISPERSIONS]
GRIDS = {2: Grid(2, 16, 2 * np.pi), 3: Grid(3, 8, 3 * np.pi)}


def assert_bits(new, ref):
    assert new.dtype == ref.dtype and new.shape == ref.shape
    assert new.tobytes() == ref.tobytes()


def noise_field(grid, n_time, seed, t_half=1.7):
    """Every lattice mode excited, Nyquist planes included."""
    rng = np.random.default_rng(seed)
    shape = (n_time,) + grid.shape
    return SpaceTimeField(grid, t_half, rng.normal(size=shape) + 1j * rng.normal(size=shape))


def sources(dim, n_time):
    grid = GRIDS[dim]
    return [
        random_band_limited(grid, 2.5, n_time, seed=9000 + dim),
        random_band_limited(grid, 2.5, n_time, seed=77, cutoff=False),
        noise_field(grid, n_time, 5 + dim),
    ]


@pytest.mark.parametrize("n_time", [64, 128])
@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("include_y_term", [True, False])
@pytest.mark.parametrize("disp", DISPERSIONS, ids=DISP_IDS)
def test_linear_estimate_ratio_matches_frozen(disp, include_y_term, dim, n_time):
    for q in sources(dim, n_time):
        for T in (0.25, 0.5, 1.0):
            args = (q, T, 1.0, 0.6, -0.35, disp, include_y_term)
            new, ref = linear_estimate_ratio(*args), frozen.linear_estimate_ratio(*args)
            assert ref > 0
            assert abs(new - ref) <= 1e-12 * ref, (T, new, ref)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("disp", DISPERSIONS, ids=DISP_IDS)
def test_norms_match_frozen(disp, dim):
    for f in sources(dim, 32):
        for s, b in ((0.0, 0.0), (1.0, 0.6), (-0.5, -0.35), (2.0, 1.5), (0.3, -1.0)):
            new, ref = xsb_norm(f, s, b, disp), frozen.xsb_norm(f, s, b, disp)
            assert abs(new - ref) <= 1e-12 * ref, ("xsb", s, b, new, ref)
        for s in (0.0, 1.0, -0.7, 2.5):
            new, ref = ys_norm(f, s, disp), frozen.ys_norm(f, s, disp)
            assert abs(new - ref) <= 1e-12 * ref, ("ys", s, new, ref)


@pytest.mark.parametrize("cutoff", [True, False])
@pytest.mark.parametrize("grid, n_time, time_band, space_band", [
    (Grid(2, 16, 2 * np.pi), 64, 4, 2),
    (Grid(2, 16, 2 * np.pi), 128, 4, 2),
    (Grid(2, 8, 5.0), 16, 0, 0),
    (Grid(2, 32, 4 * np.pi), 32, 7, 5),
    (Grid(3, 8, 4 * np.pi), 16, 2, 3),
])
def test_random_band_limited_bit_identical(grid, n_time, time_band, space_band, cutoff):
    for seed in (0, 9000, 2**31 - 1):
        new = random_band_limited(grid, 2.5, n_time, seed, time_band, space_band, cutoff)
        ref = frozen.random_band_limited(grid, 2.5, n_time, seed, time_band, space_band, cutoff)
        assert_bits(new.values, ref.values)


@pytest.mark.parametrize("grid, band", [
    (Grid(2, 16, 2 * np.pi), 2),
    (Grid(2, 8, 5.0), 4),  # modes -4 and 4 fold onto one index
    (Grid(2, 4, 5.0), 5),  # every index drawn three times
    (Grid(3, 8, 4 * np.pi), 0),
    (Grid(3, 32, 8 * np.pi), 4),
])
def test_low_mode_coefficients_bit_identical(grid, band):
    for seed in (0, 1, 12345):
        rng_new, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
        assert_bits(low_mode_coefficients(grid, rng_new, band),
                    frozen.low_mode_coefficients(grid, rng_ref, band))
        # both leave the stream at the same place
        assert rng_new.random() == rng_ref.random()


def test_stacked_draws_are_successive_draws():
    grid = Grid(2, 16, 2 * np.pi)
    rng_new, rng_ref = np.random.default_rng(3), np.random.default_rng(3)
    stack = low_mode_coefficients(grid, rng_new, 2, (2, 3))
    assert stack.shape == (2, 3) + grid.shape
    for field in stack.reshape((6,) + grid.shape):
        assert_bits(field, frozen.low_mode_coefficients(grid, rng_ref, 2))


@pytest.mark.parametrize("dim, n, length", [(2, 64, 32 * np.pi), (3, 32, 8 * np.pi)])
def test_initial_datum_bit_identical(dim, n, length):
    for seed in (0, 42):
        cfg = SimConfig(dim=dim, n=n, length=length, recipe="random-band-limited",
                        amplitude=1.5, seed=seed)
        coeffs = frozen.low_mode_coefficients(cfg.grid, np.random.default_rng(seed), 4)
        psi = np.fft.ifftn(coeffs, norm="ortho")
        psi = psi * (1.5 / np.max(np.abs(psi)))
        assert_bits(make_initial_state(cfg).psi.values, psi)
