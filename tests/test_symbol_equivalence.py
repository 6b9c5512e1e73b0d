"""Bit identity of the cached symbol table, the Strang and source symbols
built from it, and the shared low-mode draw with frozen copies of the code
they replaced (tests/frozen_spectral.py)."""

import numpy as np
import pytest

from frozen_spectral import (
    reference_initial_psi,
    reference_random_band_limited,
    reference_symbol,
)
from zrbr.bourgain import random_band_limited
from zrbr.config import SimConfig, make_initial_state
from zrbr.errors import ConfigurationError
from zrbr.evolution import _step_propagators
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
        prop = _step_propagators(grid, dt, epsilon, True)
        t = dt / 2.0
        absxi = grid.xi_modulus
        half = prop.half

        def columns(a):
            return np.ascontiguousarray(np.asarray(a, dtype=np.complex128)[..., : grid.n // 2 + 1])

        assert_bits(half.schrodinger, reference_symbol(grid, "schrodinger_group", t=epsilon * t))
        assert_bits(half.cos, columns(np.cos(absxi * t)))
        assert_bits(half.omega_sin, columns(absxi * np.sin(absxi * t)))
        assert_bits(half.sinc, columns(reference_symbol(grid, "wave_source_propagator", t=t)))
        assert_bits(prop.dx, columns(reference_symbol(grid, "dx")))
        assert_bits(prop.mask, columns(dealias_mask(grid)))

    @pytest.mark.parametrize("D", [0.0, 0.5, -0.3])
    def test_source_symbols_match_reference(self, grid, D):
        sym = source_symbols(grid, D)
        lap, winv, dx = (reference_symbol(grid, n) for n in ("laplacian", "omega_inv", "dx"))
        assert_bits(sym.laplacian, lap)
        assert_bits(sym.omega_inv, winv)
        assert_bits(sym.g[0], winv * lap)
        assert_bits(sym.g[1], D * winv * dx)
        assert_bits(sym.h[0], -D * winv * dx * dx)
        assert_bits(sym.h[1], winv * dx)


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
    for seed in seeds:
        new = random_band_limited(grid, 2.5, n_time, seed, cutoff=cutoff)
        ref = reference_random_band_limited(grid, 2.5, n_time, seed, cutoff=cutoff)
        assert_bits(new.values, ref.values)

