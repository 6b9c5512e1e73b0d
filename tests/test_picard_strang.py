"""Picard solves the system that the Strang integrator solves.

One datum (psi, rho, phi) goes through decompose, which takes rho_t and
phi_t from the acoustic equations rho_t = -Lap phi - D (|psi|^2)_x and
phi_t = -rho - |psi|^2, and picard_iterate on [-2T, 2T).  At t = T the
cutoffs are 1, so the last iterate is the solution there: psi, and rho and
phi_x read through recombine, must match undealiased Strang steps from the
same datum (Picard does not dealias), to the second order of Picard's
trapezoid rule in time.  The same holds for the datum of a config, as
`zrbr picard` builds it with initial_plus_minus.
"""

import numpy as np
import pytest

from zrbr.config import SimConfig, make_initial_state
from zrbr.evolution import picard_iterate, strang_step
from zrbr.harness import initial_plus_minus
from zrbr.model import ModelParams, PlusMinusState, ZRState, decompose, recombine
from zrbr.spectral import ComplexField, Grid, make_multiplier, to_frequency, to_physical

T = 0.25
N_ITERS = 8
SUBSTEPS = 8  # Strang steps per Picard time step
COMPONENTS = ("psi", "rho_plus", "rho_minus", "varphi_plus", "varphi_minus")


def datum(grid):
    """psi0 = 0.5 exp(-|x|^2/8) exp(i x_1/2); rho0 and phi0 are 0.15 times
    Gaussians of width sqrt(6) off the centre."""
    x = grid.coordinates()
    r2 = sum(c**2 for c in x)
    psi = 0.5 * np.exp(-r2 / 8.0) * np.exp(0.5j * x[0])

    def bump(*centre):
        return 0.15 * np.exp(-sum((c - a) ** 2 for c, a in zip(x, centre)) / 12.0) + 0j

    return ZRState(*(ComplexField(grid, f)
                     for f in (psi, bump(1.0, -0.5, 0.5), bump(-1.0, 1.0, -0.5))))


def phi_x(phi: ComplexField) -> np.ndarray:
    return to_physical(ComplexField(phi.grid, make_multiplier(phi.grid, "dx")
                                    * to_frequency(phi).values, "frequency")).values


def errors(grid, params, n_time, state=None, initial=None):
    """Relative L2 differences of psi, rho and phi_x at t = T, from Picard
    on initial (decompose of state by default) and Strang on state (datum
    by default)."""
    state = datum(grid) if state is None else state
    initial = decompose(state, params) if initial is None else initial
    iterates, _ = picard_iterate(initial, T, N_ITERS, params, n_time=n_time)
    k = 3 * n_time // 4  # the window [-2T, 2T) reaches t = T here
    at_T = PlusMinusState(*(ComplexField(grid, iterates[1][name][k]) for name in COMPONENTS))
    rho, varphi, _, _ = recombine(at_T)

    dt = 4.0 * T / n_time / SUBSTEPS
    strang = state
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


def test_picard_on_a_config_datum_matches_strang():
    # zrbr picard's datum: a Gaussian envelope, rho = phi = 0, and the rates
    # the acoustic equations give them, which are not zero.
    cfg = SimConfig(dim=2, n=32, length=8 * np.pi, params=ModelParams(sigma2=-1.0, W=1.0, D=0.5),
                    recipe="gaussian", amplitude=0.5, width=2.0)
    err = errors(cfg.grid, cfg.params, 256, make_initial_state(cfg), initial_plus_minus(cfg))
    assert np.all(err <= 1e-5), err
