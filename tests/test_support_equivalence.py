"""The linear-estimate check on a band-limited source, drawn straight onto
the band's columns and read from tables gathered once per support, against
a frozen copy of the path that drew a dense coefficient cube and gathered
its tables on every call (tests/frozen_bourgain.py): the same bits."""

import itertools

import numpy as np
import pytest

import frozen_bourgain as frozen
from zrbr.bourgain import SCHRODINGER, WAVE_MINUS, WAVE_PLUS, linear_estimate_ratio, \
    random_band_limited
from zrbr.errors import ConfigurationError
from zrbr.spectral import Grid, low_mode_draws

GRIDS = {2: Grid(2, 16, 2 * np.pi), 3: Grid(3, 8, 3 * np.pi)}
CASES = list(itertools.product((0.25, 0.5, 1.0), (SCHRODINGER, WAVE_PLUS, WAVE_MINUS),
                               (True, False)))


def assert_same_ratios(grid, n_time, seed, space_band=2, cutoff=True):
    q = random_band_limited(grid, 2.5, n_time, seed, space_band=space_band, cutoff=cutoff)
    cols, block = frozen.support_random_band_limited(grid, 2.5, n_time, seed,
                                                     space_band=space_band, cutoff=cutoff)
    new_cols, new_block = q._support()
    assert new_cols.tobytes() == cols.tobytes()
    assert new_block.tobytes() == block.tobytes()
    for T, disp, y_term in CASES:
        new = linear_estimate_ratio(q, T, 1.0, 0.6, -0.35, disp, y_term)
        ref = frozen.support_linear_estimate_ratio(grid, 2.5, cols, block, T, 1.0, 0.6, -0.35,
                                                   disp, y_term)
        assert ref > 0
        assert np.float64(new).tobytes() == np.float64(ref).tobytes(), (T, disp, y_term)


@pytest.mark.parametrize("cutoff", [True, False])
@pytest.mark.parametrize("n_time", [32, 64, 128])
@pytest.mark.parametrize("dim", [2, 3])
def test_support_path_bit_identical(dim, n_time, cutoff):
    for seed in (0, 9000 + dim):
        assert_same_ratios(GRIDS[dim], n_time, seed, cutoff=cutoff)


# random_band_limited refuses 2 band >= n, so its widest bands leave one
# index per axis undrawn; the draws fold only in low_mode_draws itself.
@pytest.mark.parametrize("grid, band", [(Grid(2, 8, 5.0), 3), (Grid(2, 4, 5.0), 1)])
def test_widest_band_bit_identical(grid, band):
    for n_time, seed in ((32, 1), (64, 2)):
        assert_same_ratios(grid, n_time, seed, space_band=band)


@pytest.mark.parametrize("grid, band", [(Grid(2, 8, 5.0), 4), (Grid(2, 4, 5.0), 5)])
def test_folded_band_draws_bit_identical(grid, band):
    with pytest.raises(ConfigurationError, match="too coarse"):
        random_band_limited(grid, 2.5, 32, 0, space_band=band)
    rng_new, rng_ref = np.random.default_rng(4), np.random.default_rng(4)
    kept, draws = low_mode_draws(grid, rng_new, band, 3)
    assert np.all(np.diff(kept) > 0) and kept.size == grid.n**grid.dim
    dense = np.zeros((3, grid.n**grid.dim), dtype=np.complex128)
    dense[:, kept] = draws
    for field in dense:
        ref = frozen.low_mode_coefficients(grid, rng_ref, band).ravel()
        assert field.tobytes() == ref.tobytes()
    assert rng_new.random() == rng_ref.random()
