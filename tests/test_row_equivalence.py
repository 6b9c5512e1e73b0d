"""Diagnostics rows against the frozen row of tests/frozen_record.py.

A row step takes only psi to physical space, and energy takes rho and phi_x
from one inverse FFT of rho_hat + i dx phi_hat.  The fields here carry
content on the axis-0 Nyquist plane of phi_hat, where the unzeroed i xi_1
would leak phi_x into rho.
"""

import numpy as np
import pytest

from frozen_record import frozen_energy, frozen_row
from zrbr.config import SimConfig, make_initial_state
from zrbr.evolution import Trajectory, run_simulation, strang_step
from zrbr.model import ModelParams, ZRState, energy
from zrbr.spectral import ComplexField, Grid, half_spectrum, to_frequency, to_physical

FIELDS = ("psi", "rho", "phi")
COLUMNS = ("mass", "energy", "max_abs_psi", "l2_rho", "l2_phi")
PARAMS = ModelParams(sigma2=-1.0, W=2.0, D=0.5)


def in_frequency(state):
    return ZRState(*(to_frequency(getattr(state, name)) for name in FIELDS))


def in_physical(state):
    return ZRState(*(to_physical(getattr(state, name)) for name in FIELDS))


def record_state(traj, t, state, params):
    """traj.record of a state in any representation: psi's physical values
    and spectrum, and the half-spectra of rho and phi."""
    traj.record(t, state.grid, params, to_physical(state.psi).values,
                to_frequency(state.psi).values, half_spectrum(state.rho),
                half_spectrum(state.phi))


def nyquist_state(dim, seed):
    """Complex psi and real rho, phi of white noise, plus on phi a mode that
    alternates along axis 0 and is odd along axis 1."""
    grid = Grid(dim, 8, 3 * np.pi)
    rng = np.random.default_rng(seed)
    x = grid.coordinates()
    j0 = np.arange(grid.n).reshape((-1,) + (1,) * (dim - 1))
    phi = rng.normal(size=grid.shape) + 4.0 * (-1.0) ** j0 * np.sin(2 * np.pi * x[1] / grid.length)
    state = ZRState(
        ComplexField(grid, rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape)),
        ComplexField(grid, rng.normal(size=grid.shape) + 0j),
        ComplexField(grid, phi + 0j),
    )
    nyquist = to_frequency(state.phi).values[grid.n // 2]
    assert np.max(np.abs(nyquist)) > 0.1 * np.max(np.abs(to_frequency(state.phi).values))
    return state


def row(traj, j=-1):
    return tuple(getattr(traj, c)[j] for c in COLUMNS)


def assert_rows_close(rows, expected):
    assert len(rows) == len(expected)
    for got, want in zip(rows, expected):
        for c, g, w in zip(COLUMNS, got, want):
            assert g == pytest.approx(w, rel=1e-12, abs=0.0), c


@pytest.mark.parametrize("dim", [2, 3])
def test_energy_matches_frozen(dim):
    st = nyquist_state(dim, 80 + dim)
    spectral = in_frequency(st)
    mixed = ZRState(st.psi, spectral.rho, spectral.phi)
    expected = frozen_energy(st, PARAMS)
    for state in (st, spectral, mixed):
        assert energy(state, PARAMS) == pytest.approx(expected, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("dim", [2, 3])
def test_record_matches_frozen_in_every_representation(dim):
    st = nyquist_state(dim, 90 + dim)
    spectral = in_frequency(st)
    expected = frozen_row(st, PARAMS, spectral)
    rows = []
    for state in (st, spectral, ZRState(st.psi, spectral.rho, spectral.phi)):
        traj = Trajectory()
        record_state(traj, 0.0, state, PARAMS)
        rows.append(row(traj))
    assert_rows_close(rows, [expected] * 3)


def nyquist_config(dim, stride):
    """Random modes |k|_inf <= 4 without dealiasing: |psi|^2 reaches the
    Nyquist planes, and so phi_hat does after the first step."""
    return SimConfig(dim=dim, n=16 if dim == 2 else 8, length=4 * np.pi, dt=1e-2, t_end=0.1,
                     params=PARAMS, recipe="random-band-limited", amplitude=0.8, seed=7,
                     dealias=False, diagnostics_stride=stride)


def frozen_run(cfg):
    """Rows and physical states of every row step, each row from the whole
    physical state through the frozen row."""
    state = make_initial_state(cfg)
    spectral = in_frequency(state)
    rows, states = [frozen_row(state, cfg.params, spectral)], [state]
    n_steps = int(round(cfg.t_end / cfg.dt))
    for k in range(n_steps):
        spectral = strang_step(spectral, cfg.dt, cfg.params, dealias=cfg.dealias)
        if (k + 1) % cfg.diagnostics_stride == 0 or k == n_steps - 1:
            state = in_physical(spectral)
            rows.append(frozen_row(state, cfg.params, spectral))
            states.append(state)
    n = cfg.grid.n
    assert np.max(np.abs(spectral.phi.values[n // 2])) > 1e-2 * np.max(np.abs(spectral.phi.values))
    return rows, states


def assert_same_states(a, b):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        for name in FIELDS:
            assert getattr(x, name).space == "physical"
            np.testing.assert_array_equal(getattr(x, name).values, getattr(y, name).values)


@pytest.mark.parametrize("stride", [1, 3])
@pytest.mark.parametrize("dim", [2, 3])
def test_run_rows_match_frozen_and_states_are_identical(dim, stride):
    cfg = nyquist_config(dim, stride)
    expected_rows, expected_states = frozen_run(cfg)
    for store_states in (False, True):
        traj = run_simulation(cfg, store_states=store_states)
        assert_rows_close([row(traj, j) for j in range(len(traj))], expected_rows)
        states = expected_states if store_states else expected_states[::len(expected_states) - 1]
        assert_same_states(traj.states, states)
