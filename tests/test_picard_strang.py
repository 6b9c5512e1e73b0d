"""Picard solves the system that the Strang integrator solves.

One datum (psi, rho, phi), with rho_t and phi_t from the acoustic equations
rho_t = -Lap phi - D (|psi|^2)_x and phi_t = -rho - |psi|^2, goes through
decompose and picard_iterate on [-2T, 2T).  At t = T the cutoffs are 1, so
the last iterate is the solution there: psi, and rho and phi_x read through
recombine, must match undealiased Strang steps from the same datum (Picard
does not dealias), to the second order of Picard's trapezoid rule in time.
"""

import numpy as np
import pytest

from zrbr.evolution import picard_iterate, strang_step
from zrbr.model import ModelParams, PlusMinusState, ZRState, decompose, recombine
from zrbr.spectral import ComplexField, Grid, make_multiplier, to_frequency, to_physical

T = 0.25
N_ITERS = 8
SUBSTEPS = 8  # Strang steps per Picard time step
COMPONENTS = ("psi", "rho_plus", "rho_minus", "varphi_plus", "varphi_minus")


def datum(grid, D):
    """psi0 = 0.5 exp(-|x|^2/8) exp(i x_1/2); rho0 and phi0 are 0.15 times
    Gaussians of width sqrt(6) off the centre; the rates from the acoustic
    equations."""
    x = grid.coordinates()
    r2 = sum(c**2 for c in x)
    psi = 0.5 * np.exp(-r2 / 8.0) * np.exp(0.5j * x[0])

    def bump(*centre):
        return 0.15 * np.exp(-sum((c - a) ** 2 for c, a in zip(x, centre)) / 12.0) + 0j

    rho, phi = bump(1.0, -0.5, 0.5), bump(-1.0, 1.0, -0.5)
    a2_h = np.fft.fftn(np.abs(psi) ** 2, norm="ortho")
    lap, dx = make_multiplier(grid, "laplacian"), make_multiplier(grid, "dx")
    rho_t = np.fft.ifftn(-lap * np.fft.fftn(phi, norm="ortho") - D * dx * a2_h, norm="ortho")
    phi_t = -rho - np.abs(psi) ** 2
    return ZRState(*(ComplexField(grid, f) for f in (psi, rho, phi, rho_t.real + 0j, phi_t)))


def phi_x(phi: ComplexField) -> np.ndarray:
    return to_physical(ComplexField(phi.grid, make_multiplier(phi.grid, "dx")
                                    * to_frequency(phi).values, "frequency")).values


def errors(grid, params, n_time):
    """Relative L2 differences of psi, rho and phi_x at t = T."""
    state = datum(grid, params.D)
    iterates, _ = picard_iterate(decompose(state), T, N_ITERS, params, n_time=n_time)
    k = 3 * n_time // 4  # the window [-2T, 2T) reaches t = T here
    at_T = PlusMinusState(*(ComplexField(grid, iterates[1][name][k]) for name in COMPONENTS))
    rho, varphi, _, _ = recombine(at_T)

    dt = 4.0 * T / n_time / SUBSTEPS
    strang = ZRState(state.psi, state.rho, state.phi)
    for _ in range(round(T / dt)):
        strang = strang_step(strang, dt, params, dealias=False)

    def rel(a, b):
        return float(np.linalg.norm(a - b) / np.linalg.norm(b))

    return np.array([rel(at_T.psi.values, strang.psi.values),
                     rel(rho.values, strang.rho.values),
                     rel(varphi.values, phi_x(strang.phi))])


@pytest.mark.parametrize("D", [0.0, 0.5])
@pytest.mark.parametrize("epsilon", [1.0, 0.7])
def test_picard_matches_strang_2d(D, epsilon):
    grid = Grid(2, 32, 8 * np.pi)
    params = ModelParams(sigma2=-1.0, W=1.0, D=D, epsilon=epsilon)
    coarse, fine = errors(grid, params, 128), errors(grid, params, 256)
    assert np.all(fine <= 1e-5), fine
    # Second order in Picard's time step: 4x smaller when n_time doubles.
    assert np.all(coarse >= 3.0 * fine), (coarse, fine)


def test_picard_matches_strang_3d():
    # The order is checked in 2D; this keeps the test near 10 s.
    params = ModelParams(sigma2=-1.0, W=1.0, D=0.5, epsilon=0.7)
    err = errors(Grid(3, 16, 8 * np.pi), params, 128)
    assert np.all(err <= 1e-5), err
