"""Frozen copy of the diagnostics row from before rho and phi_x shared one
inverse FFT.

energy took rho from the physical field and phi_x through its own inverse
transform of i xi_1 phi_hat (the Nyquist plane not zeroed, its imaginary
part dropped by .real), and the L2 norms of rho and phi were summed over the
values of the state as given.
"""

import numpy as np

from zrbr.spectral import to_frequency, to_physical


def frozen_energy(state, params, spectral=None):
    grid = state.grid
    coeffs = state if spectral is None else spectral
    psi = to_physical(state.psi).values
    rho = to_physical(state.rho).values.real
    psi_h = to_frequency(coeffs.psi).values
    phi_h = to_frequency(coeffs.phi).values

    xi1 = grid.axis_frequencies.reshape((-1,) + (1,) * (grid.dim - 1))
    phi_x = np.fft.ifftn(1j * xi1 * phi_h, norm="ortho").real

    a2 = np.abs(psi) ** 2
    local = (
        0.5 * params.W * rho**2
        + 0.5 * params.sigma2 * a2**2
        + params.W * rho * a2
        + params.D * params.W * a2 * phi_x
    )
    gradients = grid.xi_squared * (np.abs(psi_h) ** 2 + 0.5 * params.W * np.abs(phi_h) ** 2)
    return float((np.sum(local) + np.sum(gradients)) * grid.cell_volume)


def frozen_row(state, params, spectral=None):
    """(mass, energy, max_abs_psi, l2_rho, l2_phi) of one diagnostics row."""
    psi = to_physical(state.psi).values
    return (
        float(np.sum(np.abs(psi) ** 2) * state.grid.cell_volume),
        frozen_energy(state, params, spectral),
        float(np.max(np.abs(psi))),
        state.rho.l2_norm(),
        state.phi.l2_norm(),
    )
