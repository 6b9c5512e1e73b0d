import dataclasses

import numpy as np
import pytest

from frozen_spectral import apply_symbol
from zrbr.errors import ContractViolationError
from zrbr.model import (
    ModelParams,
    PlusMinusState,
    ZRState,
    decompose,
    energy,
    mass,
    nonlinearity_F,
    nonlinearity_G,
    nonlinearity_H,
    psi_time_derivative,
    recombine,
)
from zrbr.spectral import ComplexField, Grid, to_frequency, to_physical, zero_field


def random_field(grid, seed, band=3):
    """Smooth random field built from a few low modes."""
    rng = np.random.default_rng(seed)
    hat = np.zeros(grid.shape, dtype=np.complex128)
    idx = range(-band, band + 1)
    modes = [(i, j) for i in idx for j in idx] if grid.dim == 2 else [
        (i, j, k) for i in idx for j in idx for k in idx
    ]
    for m in modes:
        hat[tuple(np.mod(m, grid.n))] = rng.normal() + 1j * rng.normal()
    from zrbr.spectral import to_physical

    return to_physical(ComplexField(grid, hat, "frequency"))


def real_random_field(grid, seed):
    f = random_field(grid, seed)
    return ComplexField(grid, f.values.real + 0j)


@pytest.fixture
def grid():
    return Grid(2, 16, 4 * np.pi)


def acoustic_rates(state, D):
    """rho_t = -Lap phi - D (|psi|^2)_x and phi_t = -rho - |psi|^2, physical
    values, through the frozen symbols."""
    grid = state.grid
    a2 = ComplexField(grid, np.abs(to_physical(state.psi).values) ** 2 + 0j)
    rho_t = -apply_symbol(grid, "laplacian", state.phi).values
    rho_t -= D * apply_symbol(grid, "dx", a2).values
    return rho_t, -state.rho.values - a2.values


class TestParams:
    def test_negative_W_rejected(self):
        with pytest.raises(ContractViolationError):
            ModelParams(W=-1.0)

    def test_zero_W_allowed(self):
        assert ModelParams(W=0.0).W == 0.0

    def test_nonpositive_epsilon_rejected(self):
        with pytest.raises(ContractViolationError):
            ModelParams(epsilon=0.0)

    def test_fields_are_the_model_constants(self):
        names = tuple(f.name for f in dataclasses.fields(ModelParams))
        assert names == ("sigma2", "W", "D", "epsilon")


class TestDecompose:
    def test_zero_acoustic_fields_move_with_the_envelope(self, grid):
        # rho = phi = 0 is not at rest: phi_t = -|psi|^2, so varphi_pm =
        # ± i omega^{-1} (phi_t)_x, and rho_t = -D (|psi|^2)_x.
        params = ModelParams(D=0.5)
        st = ZRState(random_field(grid, 1), zero_field(grid), zero_field(grid))
        pm = decompose(st, params)
        rho_t, phi_t = acoustic_rates(st, params.D)
        winv = ComplexField(grid, 1j * apply_symbol(grid, "omega_inv",
                                                     ComplexField(grid, phi_t)).values)
        expected = apply_symbol(grid, "dx", winv).values
        assert np.max(np.abs(expected)) > 0.1
        np.testing.assert_allclose(pm.varphi_plus.values, expected, atol=1e-12)
        np.testing.assert_allclose(pm.varphi_minus.values, -expected, atol=1e-12)
        np.testing.assert_allclose(pm.rho_plus.values, -pm.rho_minus.values, atol=1e-12)
        assert np.max(np.abs(pm.rho_plus.values)) > 0.01
        # without an envelope the acoustic datum is at rest
        rest = decompose(ZRState(zero_field(grid), zero_field(grid), zero_field(grid)), params)
        assert all(np.all(f.values == 0.0) for f in rest.fields())

    def test_roundtrip_modulo_zero_mode(self, grid):
        params = ModelParams(D=0.7)
        st = ZRState(random_field(grid, 1), real_random_field(grid, 2),
                     real_random_field(grid, 3))
        pm = decompose(st, params)
        rho, varphi, rho_t, varphi_t = recombine(pm)

        np.testing.assert_allclose(rho.values, st.rho.values, atol=1e-10)
        phi_x = apply_symbol(grid, "dx", st.phi)
        np.testing.assert_allclose(varphi.values, phi_x.values, atol=1e-10)

        # the rates come back with their spatial mean removed
        def demean(values):
            return values - np.mean(values)

        expected_rho_t, expected_phi_t = acoustic_rates(st, params.D)
        np.testing.assert_allclose(rho_t.values, demean(expected_rho_t), atol=1e-10)
        phi_t_x = apply_symbol(grid, "dx", ComplexField(grid, expected_phi_t))
        np.testing.assert_allclose(varphi_t.values, demean(phi_t_x.values), atol=1e-10)

    def test_grid_mismatch_rejected(self, grid):
        other = Grid(2, 32, 4 * np.pi)
        with pytest.raises(ContractViolationError):
            ZRState(zero_field(grid), zero_field(other), zero_field(grid))


@pytest.mark.parametrize("other", [Grid(2, 16, 4 * np.pi), Grid(2, 8, 2 * np.pi)],
                         ids=["n", "length"])
@pytest.mark.parametrize("slot", range(1, 5))
def test_plus_minus_state_rejects_a_field_on_another_grid(other, slot):
    """Another n broke numpy broadcasting in picard_iterate; another box length
    with the same n ran on psi's box."""
    grid = Grid(2, 8, 4 * np.pi)
    fields = [zero_field(grid) for _ in range(5)]
    fields[slot] = zero_field(other)
    name = ("rho_plus", "rho_minus", "varphi_plus", "varphi_minus")[slot - 1]
    with pytest.raises(ContractViolationError, match=f"{name} lives on a different grid"):
        PlusMinusState(*fields)


class TestNonlinearities:
    def test_all_vanish_on_zero_state(self, grid):
        pm = PlusMinusState(*[zero_field(grid) for _ in range(5)])
        params = ModelParams(sigma2=-1.0, W=2.0, D=0.3)
        assert np.all(nonlinearity_F(pm, params).values == 0)
        psi_t = psi_time_derivative(pm, params)
        assert np.all(nonlinearity_G(pm.psi, psi_t, params, +1).values == 0)
        assert np.all(nonlinearity_H(pm.psi, psi_t, params, -1).values == 0)

    def test_F_formula_pointwise(self, grid):
        pm = PlusMinusState(
            random_field(grid, 10),
            real_random_field(grid, 11),
            real_random_field(grid, 12),
            real_random_field(grid, 13),
            real_random_field(grid, 14),
        )
        params = ModelParams(sigma2=-1.0, W=2.0, D=0.5)
        psi = pm.psi.values
        expected = (
            -1.0 * np.abs(psi) ** 2 * psi
            + 0.5 * 2.0 * (pm.rho_plus.values + pm.rho_minus.values) * psi
            + 0.5 * 2.0 * 0.5 * (pm.varphi_plus.values + pm.varphi_minus.values) * psi
        )
        np.testing.assert_allclose(nonlinearity_F(pm, params).values, expected, atol=1e-12)

    def test_G_vanishes_for_spatially_constant_psi(self, grid):
        psi = ComplexField(grid, np.full(grid.shape, 0.3 + 0.1j))
        psi_t = zero_field(grid)
        out = nonlinearity_G(psi, psi_t, ModelParams(D=0.7), +1)
        np.testing.assert_allclose(out.values, 0.0, atol=1e-14)

    def test_H_vanishes_when_D_zero_and_psi_frozen(self, grid):
        psi = random_field(grid, 20)
        out = nonlinearity_H(psi, zero_field(grid), ModelParams(D=0.0), +1)
        np.testing.assert_allclose(out.values, 0.0, atol=1e-14)

    def test_G_matches_multiplier_chain(self, grid):
        # independent assembly of -omega^{-1} Lap(|psi|^2) + D omega^{-1} dx dt(|psi|^2)
        params = ModelParams(D=0.4)
        psi = random_field(grid, 21)
        psi_t = apply_symbol(grid, "laplacian", psi)
        psi_t = ComplexField(grid, 1j * psi_t.values)

        a2 = np.abs(psi.values) ** 2
        a2t = 2.0 * np.real(np.conj(psi.values) * psi_t.values)
        term1 = apply_symbol(
            grid, "omega_inv", apply_symbol(grid, "laplacian", ComplexField(grid, a2 + 0j))
        )
        term2 = apply_symbol(
            grid, "omega_inv", apply_symbol(grid, "dx", ComplexField(grid, a2t + 0j))
        )
        expected = -term1.values + 0.4 * term2.values

        out = nonlinearity_G(psi, psi_t, params, +1)
        np.testing.assert_allclose(out.values, expected, atol=1e-11)

    def test_G_linear_in_intensity(self, grid):
        params = ModelParams(D=0.4)
        psi = random_field(grid, 22)
        psi_t = random_field(grid, 23)
        g1 = nonlinearity_G(psi, psi_t, params, +1)
        psi2 = ComplexField(grid, np.sqrt(2) * psi.values)
        psi2_t = ComplexField(grid, np.sqrt(2) * psi_t.values)
        g2 = nonlinearity_G(psi2, psi2_t, params, +1)
        np.testing.assert_allclose(g2.values, 2.0 * g1.values, rtol=1e-10, atol=1e-12)

    def test_sign_flips_G_and_H(self, grid):
        params = ModelParams(D=0.4)
        psi = random_field(grid, 24)
        psi_t = random_field(grid, 25)
        gp = nonlinearity_G(psi, psi_t, params, +1)
        gm = nonlinearity_G(psi, psi_t, params, -1)
        np.testing.assert_allclose(gm.values, -gp.values, atol=1e-12)
        hp = nonlinearity_H(psi, psi_t, params, "+")
        hm = nonlinearity_H(psi, psi_t, params, "-")
        np.testing.assert_allclose(hm.values, -hp.values, atol=1e-12)

    def test_bad_sign_rejected(self, grid):
        psi = zero_field(grid)
        with pytest.raises(ContractViolationError):
            nonlinearity_G(psi, psi, ModelParams(), 2)


class TestConservedQuantities:
    def test_mass_of_unit_field_is_volume(self, grid):
        st = ZRState(
            ComplexField(grid, np.ones(grid.shape)), zero_field(grid), zero_field(grid)
        )
        assert mass(st) == pytest.approx(grid.length**2)

    def test_mass_matches_gaussian_integral(self):
        # int |A exp(-r^2/(2 w^2))|^2 dx = A^2 (pi w^2)^{d/2} on a large box
        grid = Grid(2, 64, 32 * np.pi)
        coords = grid.coordinates()
        r2 = sum(x**2 for x in coords)
        A, w = 0.7, 3.0
        st = ZRState(
            ComplexField(grid, A * np.exp(-r2 / (2 * w**2)) + 0j),
            zero_field(grid),
            zero_field(grid),
        )
        assert mass(st) == pytest.approx(A**2 * np.pi * w**2, rel=1e-8)

    def test_mass_nonnegative(self, grid):
        st = ZRState(random_field(grid, 30), zero_field(grid), zero_field(grid))
        assert mass(st) >= 0.0

    def test_energy_of_pure_density(self, grid):
        st = ZRState(
            zero_field(grid),
            ComplexField(grid, np.ones(grid.shape)),
            zero_field(grid),
        )
        W = 1.7
        assert energy(st, ModelParams(W=W)) == pytest.approx(0.5 * W * grid.length**2)

    def test_energy_zero_state(self, grid):
        st = ZRState(zero_field(grid), zero_field(grid), zero_field(grid))
        assert energy(st, ModelParams()) == 0.0

    def test_energy_matches_independent_quadrature(self, grid):
        params = ModelParams(sigma2=-1.0, W=2.0, D=0.5)
        st = ZRState(
            random_field(grid, 31),
            real_random_field(grid, 32),
            real_random_field(grid, 33),
        )
        # term-by-term assembly with raw FFT calls, no package helpers
        def grad_sq(vals):
            hat = np.fft.fftn(vals, norm="ortho")
            out = np.zeros(grid.shape)
            for xi in grid.frequencies():
                out += np.abs(np.fft.ifftn(1j * xi * hat, norm="ortho")) ** 2
            return out

        psi = st.psi.values
        rho = st.rho.values.real
        phi = st.phi.values.real
        xi1 = grid.frequencies()[0]
        phi_x = np.fft.ifftn(1j * xi1 * np.fft.fftn(phi, norm="ortho"), norm="ortho").real
        a2 = np.abs(psi) ** 2
        dens = (
            grad_sq(psi)
            + 0.5 * params.W * rho**2
            + 0.5 * params.W * grad_sq(phi)
            + 0.5 * params.sigma2 * a2**2
            + params.W * rho * a2
            + params.D * params.W * a2 * phi_x
        )
        expected = np.sum(dens) * grid.cell_volume
        assert energy(st, params) == pytest.approx(expected, rel=1e-10)


def reference_energy(state, params):
    """Frozen copy of the energy functional that took phi_x through its own
    "dx" multiplier round trip."""
    grid = state.grid
    psi = to_physical(state.psi).values
    rho = to_physical(state.rho).values.real

    def grad_sq(f):
        fh = to_frequency(f)
        total = np.zeros(grid.shape)
        for xi in grid.frequencies():
            comp = to_physical(ComplexField(grid, 1j * xi * fh.values, "frequency")).values
            total += np.abs(comp) ** 2
        return total

    phi_x = to_physical(apply_symbol(grid, "dx", to_physical(state.phi))).values.real
    a2 = np.abs(psi) ** 2
    dens = (
        grad_sq(state.psi)
        + 0.5 * params.W * rho**2
        + 0.5 * params.W * grad_sq(state.phi)
        + 0.5 * params.sigma2 * a2**2
        + params.W * rho * a2
        + params.D * params.W * a2 * phi_x
    )
    return float(np.sum(dens) * grid.cell_volume)


@pytest.mark.parametrize("dim", [2, 3])
def test_energy_matches_reference_functional(dim):
    grid = Grid(dim, 16, 4 * np.pi)
    params = ModelParams(sigma2=-1.0, W=2.0, D=0.5)
    phi = real_random_field(grid, 52)
    # A round-off imaginary part, as the integrator leaves on phi.
    phi = ComplexField(grid, phi.values + 1e-15j * random_field(grid, 53).values.real)
    st = ZRState(random_field(grid, 50), real_random_field(grid, 51), phi)
    assert energy(st, params) == pytest.approx(reference_energy(st, params), rel=1e-12)


def test_psi_time_derivative_scales_with_epsilon(grid):
    pm = PlusMinusState(
        random_field(grid, 40),
        real_random_field(grid, 41),
        real_random_field(grid, 42),
        real_random_field(grid, 43),
        real_random_field(grid, 44),
    )
    base = psi_time_derivative(pm, ModelParams(sigma2=-1.0, W=1.0, D=0.2, epsilon=1.0))
    half = psi_time_derivative(pm, ModelParams(sigma2=-1.0, W=1.0, D=0.2, epsilon=0.5))
    np.testing.assert_allclose(half.values, 0.5 * base.values, atol=1e-13)


def full_spectrum_state(grid, seed):
    """psi complex and rho, phi real, white noise: every mode is occupied,
    the Nyquist planes included."""
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape)
    return ZRState(
        ComplexField(grid, psi),
        ComplexField(grid, rng.normal(size=grid.shape) + 0j),
        ComplexField(grid, rng.normal(size=grid.shape) + 0j),
    )


def in_frequency(state):
    return ZRState(*(to_frequency(getattr(state, name)) for name in ("psi", "rho", "phi")))


@pytest.mark.parametrize("dim", [2, 3])
def test_energy_from_coefficients_matches_reference(dim):
    grid = Grid(dim, 8, 3 * np.pi)
    params = ModelParams(sigma2=-1.0, W=2.0, D=0.5)
    st = full_spectrum_state(grid, 60 + dim)
    spectral = in_frequency(st)
    expected = reference_energy(st, params)
    assert energy(st, params) == pytest.approx(expected, rel=1e-12)
    assert energy(spectral, params) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("dim", [2, 3])
def test_energy_fft_budget(dim, fft_calls):
    grid = Grid(dim, 8, 3 * np.pi)
    params = ModelParams(sigma2=-1.0, W=2.0, D=0.5)
    st = full_spectrum_state(grid, 70 + dim)
    spectral = in_frequency(st)
    budget = []
    for state in (st, spectral):
        fft_calls.clear()
        energy(state, params)
        budget.append(list(fft_calls))
    # A physical state: psi forward, then rho, phi and |psi|^2 to
    # half-spectra.  Coefficients: psi back, and |psi|^2 to its half-spectrum.
    assert budget == [["fftn", "rfftn", "rfftn", "rfftn"], ["ifftn", "rfftn"]]


class TestDecomposeProperties:
    """Seeded random grids and full-spectrum fields."""

    @pytest.mark.parametrize("seed", range(6))
    def test_roundtrip_modulo_zero_mode_of_rates(self, seed):
        rng = np.random.default_rng(seed)
        grid = Grid(int(rng.integers(2, 4)), int(rng.choice([4, 8, 16])),
                    float(rng.uniform(1.0, 10.0)) * np.pi)
        rho, phi = (
            ComplexField(grid, float(rng.uniform(0.1, 10.0)) * rng.normal(size=grid.shape) + 0j)
            for _ in range(2)
        )
        params = ModelParams(D=float(rng.uniform(-1.0, 1.0)))
        st = ZRState(random_field(grid, seed), rho, phi)
        rho_t, phi_t = (ComplexField(grid, r) for r in acoustic_rates(st, params.D))
        rho_b, varphi_b, rho_t_b, varphi_t_b = recombine(decompose(st, params))

        def close(a, b):
            scale = np.max(np.abs(b))
            np.testing.assert_allclose(a.values, b, rtol=0, atol=1e-12 * scale)

        def demean(values):
            return values - np.mean(values)

        close(rho_b, rho.values)
        close(varphi_b, apply_symbol(grid, "dx", phi).values)
        close(rho_t_b, demean(rho_t.values))
        close(varphi_t_b, demean(apply_symbol(grid, "dx", phi_t).values))
