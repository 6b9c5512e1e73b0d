"""Bit identity of the cached symbol table, the Strang and source symbols
built from it, and the shared low-mode draw with frozen copies of the code
they replaced (tests/frozen_spectral.py)."""

import numpy as np
import pytest

from frozen_bourgain import eager_random_band_limited
from frozen_spectral import (
    reference_initial_psi,
    reference_random_band_limited,
    reference_symbol,
)
from zrbr.bourgain import random_band_limited
from zrbr.config import SimConfig, make_initial_state
from zrbr.errors import ConfigurationError
from zrbr.evolution import _propagator
from zrbr.model import source_symbols
from zrbr.spectral import Grid, dealias_mask, make_multiplier

GRIDS = [
    Grid(2, 8, 5.0),
    Grid(2, 16, 2 * np.pi),
    Grid(2, 16, 4 * np.pi),
    Grid(2, 32, 8 * np.pi),
    Grid(2, 64, 32 * np.pi),
    Grid(3, 4, 2 * np.pi),
    Grid(3, 8, 3 * np.pi),
    Grid(3, 16, 4 * np.pi),
    Grid(3, 32, 8 * np.pi),
]
GRID_IDS = [f"{g.dim}d-{g.n}-{g.length:.3g}" for g in GRIDS]
TABLE = ("laplacian", "omega", "omega_inv", "dx")


def assert_bits(new, ref):
    assert new.dtype == ref.dtype and new.shape == ref.shape
    assert new.tobytes() == ref.tobytes()


@pytest.mark.parametrize("grid", GRIDS, ids=GRID_IDS)
class TestTable:
    @pytest.mark.parametrize("name", TABLE)
    def test_symbol_matches_reference(self, grid, name):
        sym = make_multiplier(grid, name)
        assert_bits(sym, reference_symbol(grid, name))
        assert not sym.flags.writeable
        assert make_multiplier(Grid(grid.dim, grid.n, grid.length), name) is sym

    @pytest.mark.parametrize("dt, epsilon", [(1e-3, 1.0), (1e-2, 0.7), (0.37, 2.5)])
    def test_strang_symbols_match_reference(self, grid, dt, epsilon):
        # psi's symbol covers the full lattice; the acoustic ones, dx and the
        # mask cover the rfftn half-spectrum columns.
        t = dt / 2.0
        prop = _propagator(grid, t, epsilon, True)
        absxi = grid.xi_modulus

        def columns(a):
            return np.ascontiguousarray(np.asarray(a, dtype=np.complex128)[..., : grid.n // 2 + 1])

        assert_bits(prop.schrodinger, reference_symbol(grid, "schrodinger_group", t=epsilon * t))
        assert_bits(prop.cos, columns(np.cos(absxi * t)))
        assert_bits(prop.omega_sin, columns(absxi * np.sin(absxi * t)))
        assert_bits(prop.sinc, columns(reference_symbol(grid, "wave_source_propagator", t=t)))
        assert_bits(prop.dx, columns(reference_symbol(grid, "dx")))
        assert_bits(prop.mask, columns(dealias_mask(grid)))

    @pytest.mark.parametrize("D", [0.0, 0.5, -0.3])
    def test_source_symbols_match_reference(self, grid, D):
        sym = source_symbols(grid, D)
        lap, winv, dx = (reference_symbol(grid, n) for n in ("laplacian", "omega_inv", "dx"))
        assert_bits(sym.laplacian, lap)
        # the pairs (s0 -+ i s1)/2 that the packed transform of |psi|^2 and
        # its rate takes, from the symbols of |psi|^2 and of its rate
        for pair, (s0, s1) in ((sym.g, (-winv * lap, D * winv * dx)),
                               (sym.h, (-D * winv * dx * dx, winv * dx))):
            assert_bits(pair[0], 0.5 * (s0 - 1j * s1))
            assert_bits(pair[1], 0.5 * (s0 + 1j * s1))
        index = np.arange(grid.n**grid.dim).reshape(grid.shape)
        assert_bits(sym.mirror, np.roll(np.flip(index), 1, tuple(range(grid.dim))).ravel())
        assert not sym.mirror.flags.writeable


def test_unknown_symbol_rejected():
    with pytest.raises(ConfigurationError):
        make_multiplier(Grid(2, 8), "schrodinger_group")


@pytest.mark.parametrize("seed", [0, 1, 3, 42, 2**31 - 1])
@pytest.mark.parametrize("dim, n, length, amplitude", [
    (2, 8, 2 * np.pi, 1.0),  # n = 2 * band: modes -4 and 4 share an index
    (2, 16, 4 * np.pi, 1.5),
    (2, 64, 32 * np.pi, 1.0),
    (3, 8, 4 * np.pi, 2.0),
    (3, 32, 8 * np.pi, 0.5),
])
def test_initial_state_matches_reference(seed, dim, n, length, amplitude):
    cfg = SimConfig(dim=dim, n=n, length=length, recipe="random-band-limited",
                    amplitude=amplitude, seed=seed)
    assert_bits(make_initial_state(cfg).psi.values,
                reference_initial_psi(cfg.grid, seed, amplitude))


@pytest.mark.parametrize("cutoff", [True, False])
@pytest.mark.parametrize("grid, n_time, seeds", [
    (Grid(2, 16, 2 * np.pi), 64, (5, 9, 42, 8000, 9004)),
    (Grid(2, 16, 2 * np.pi), 128, (100, 200, 9000)),
    (Grid(2, 8, 2 * np.pi), 32, (0, 15, 16)),
    (Grid(3, 8, 4 * np.pi), 16, (1, 7)),
], ids=["2d-64", "2d-128", "2d-8", "3d-8"])
def test_random_band_limited_matches_reference(grid, n_time, seeds, cutoff):
    # the values are the spatial ifftn of the coefficients, and the values
    # built from the draw to round-off
    for seed in seeds:
        new = random_band_limited(grid, 2.5, n_time, seed, cutoff=cutoff)
        hat = eager_random_band_limited(grid, 2.5, n_time, seed, cutoff=cutoff).spatial_hat
        assert_bits(new.values, np.fft.ifftn(hat, axes=range(1, grid.dim + 1), norm="ortho"))
        ref = reference_random_band_limited(grid, 2.5, n_time, seed, cutoff=cutoff).values
        assert np.max(np.abs(new.values - ref)) <= 1e-13 * np.max(np.abs(ref))

