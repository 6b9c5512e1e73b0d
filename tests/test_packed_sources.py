"""half_wave_sources takes |psi|^2 and its rate forward in one packed
transform; the frozen copy (tests/frozen_sources.py) took one transform of
each.  The split of the packed transform is exact on every mode, so the
two agree to round-off, Nyquist planes included."""

import numpy as np
import pytest

from frozen_sources import frozen_half_wave_sources
from zrbr.model import ModelParams, half_wave_sources
from zrbr.spectral import Grid

GRIDS = {"2d-32": (Grid(2, 32, 8 * np.pi), 4), "3d-16": (Grid(3, 16, 4 * np.pi), 2)}


def block(grid, n_time, seed):
    """A (time, *grid) block of complex values whose spectrum is ten times
    heavier on every Nyquist plane than elsewhere."""
    rng = np.random.default_rng(seed)
    shape = (n_time,) + grid.shape
    hat = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    for axis in range(1, grid.dim + 1):
        np.moveaxis(hat, axis, 0)[grid.n // 2] *= 10.0
    return np.fft.ifftn(hat, axes=tuple(range(1, grid.dim + 1)), norm="ortho")


def packed(psi, psi_t, grid, params):
    return half_wave_sources(np.abs(psi) ** 2 + 0j, psi, psi_t.copy(), grid, params)


@pytest.mark.parametrize("D", [0.0, 0.5])
@pytest.mark.parametrize("case", GRIDS)
def test_packed_sources_match_two_transforms(case, D):
    grid, n_time = GRIDS[case]
    params = ModelParams(sigma2=-1.0, W=1.0, D=D)
    psi, psi_t = block(grid, n_time, 1), block(grid, n_time, 2)
    refs = frozen_half_wave_sources(np.abs(psi) ** 2, psi, psi_t, grid, params)
    news = packed(psi, psi_t, grid, params)
    for new, ref in zip(news, refs):
        assert np.max(np.abs(new - ref)) <= 1e-12 * np.max(np.abs(ref))
    # On the axis-0 Nyquist plane, where dx is 0, G_+ carries weight and
    # every term of H_+ has a factor dx: both forms give it exact zeros.
    nyquist = (slice(None), grid.n // 2)
    assert np.max(np.abs(refs[0][nyquist])) > 0.1 * np.max(np.abs(refs[0]))
    assert not np.any(refs[1][nyquist]) and not np.any(news[1][nyquist])


@pytest.mark.parametrize("case", GRIDS)
def test_zero_input_gives_exact_zeros(case):
    grid, n_time = GRIDS[case]
    zero = np.zeros((n_time,) + grid.shape, dtype=np.complex128)
    for source in packed(zero, zero, grid, ModelParams(D=0.5)):
        assert not np.any(source)
