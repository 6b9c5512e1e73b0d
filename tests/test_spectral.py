import numpy as np
import pytest

from zrbr.errors import ConfigurationError, ContractViolationError
from zrbr.spectral import (
    ComplexField,
    Grid,
    apply_multiplier,
    apply_symbol,
    dealias_mask,
    make_multiplier,
    to_frequency,
    to_physical,
    transform,
)


def plane_wave(grid, mode, amplitude=1.0):
    """exp(i xi_k . x) for an integer mode tuple."""
    coords = grid.coordinates()
    phase = sum((2 * np.pi * m / grid.length) * x for m, x in zip(mode, coords))
    return ComplexField(grid, amplitude * np.exp(1j * phase), "physical")


class TestGrid:
    def test_rejects_bad_dimension(self):
        with pytest.raises(ConfigurationError):
            Grid(1, 8)
        with pytest.raises(ConfigurationError):
            Grid(4, 8)

    def test_rejects_non_power_of_two(self):
        for n in (3, 12, 0, -8):
            with pytest.raises(ConfigurationError):
                Grid(2, n)

    def test_rejects_nonpositive_length(self):
        with pytest.raises(ConfigurationError):
            Grid(2, 8, 0.0)

    def test_coordinates_span_half_open_box(self):
        g = Grid(2, 8, 8.0)
        assert g.dx == 1.0
        assert g.axis_coordinates[0] == -4.0
        assert g.axis_coordinates[-1] == 3.0

    def test_frequency_lattice_spacing(self):
        g = Grid(2, 16, 4 * np.pi)
        # xi_k = 2 pi k / L = k / 2
        xs = np.sort(g.axis_frequencies)
        assert np.allclose(np.diff(xs), 0.5)

    def test_xi_modulus_is_norm_of_lattice(self):
        g = Grid(3, 4, 2 * np.pi)
        xs = g.frequencies()
        assert np.allclose(g.xi_modulus, np.sqrt(sum(x**2 for x in xs)))


class TestTransform:
    def test_roundtrip(self):
        g = Grid(2, 16)
        rng = np.random.default_rng(0)
        f = ComplexField(g, rng.normal(size=g.shape) + 1j * rng.normal(size=g.shape))
        back = transform(transform(f, "forward"), "inverse")
        np.testing.assert_allclose(back.values, f.values, atol=1e-13)

    def test_plancherel(self):
        g = Grid(2, 16, 5.0)
        rng = np.random.default_rng(1)
        f = ComplexField(g, rng.normal(size=g.shape) + 1j * rng.normal(size=g.shape))
        assert to_frequency(f).l2_norm() == pytest.approx(f.l2_norm(), rel=1e-13)

    def test_direction_tag_enforced(self):
        g = Grid(2, 8)
        f = ComplexField(g, np.zeros(g.shape), "frequency")
        with pytest.raises(ContractViolationError):
            transform(f, "forward")

    def test_shape_mismatch_rejected(self):
        g = Grid(2, 8)
        with pytest.raises(ContractViolationError):
            ComplexField(g, np.zeros((8, 4)))


class TestMultipliers:
    def test_laplacian_on_plane_wave(self):
        g = Grid(2, 16, 2 * np.pi)
        f = plane_wave(g, (3, 1))
        out = apply_symbol(g, "laplacian", f)
        np.testing.assert_allclose(out.values, -(3**2 + 1**2) * f.values, atol=1e-12)

    def test_dx_differentiates_sine(self):
        g = Grid(2, 32, 2 * np.pi)
        x = g.coordinates()[0]
        f = ComplexField(g, np.sin(2 * x) + 0j)
        out = apply_symbol(g, "dx", f)
        np.testing.assert_allclose(out.values.real, 2 * np.cos(2 * x), atol=1e-12)
        assert out.is_real_valued()

    def test_dx_of_real_field_stays_real(self):
        # Nyquist-plane zeroing keeps derivatives of real data real.
        g = Grid(2, 8, 2 * np.pi)
        rng = np.random.default_rng(2)
        f = ComplexField(g, rng.normal(size=g.shape) + 0j)
        assert apply_symbol(g, "dx", f).is_real_valued()

    def test_omega_inv_zero_mode_convention(self):
        g = Grid(2, 8)
        m = make_multiplier(g, "omega_inv")
        assert m.symbol[0, 0] == 0.0

    def test_omega_inv_inverts_omega_off_zero_mode(self):
        g = Grid(2, 16, 2 * np.pi)
        f = plane_wave(g, (2, 5))
        out = apply_symbol(g, "omega_inv", apply_symbol(g, "omega", f))
        np.testing.assert_allclose(out.values, f.values, atol=1e-12)

    def test_omega_inv_dx_symbol_bounded_by_one(self):
        g = Grid(3, 8)
        m = make_multiplier(g, "omega_inv_dx")
        assert np.max(np.abs(m.symbol)) <= 1.0 + 1e-15

    def test_bracket_pow_requires_s(self):
        g = Grid(2, 8)
        with pytest.raises(ConfigurationError):
            make_multiplier(g, "bracket_pow")

    def test_bracket_pow_value(self):
        g = Grid(2, 8, 2 * np.pi)
        m = make_multiplier(g, "bracket_pow", s=2.0)
        assert m.symbol[0, 0] == pytest.approx(1.0)
        xi2 = g.xi_squared
        np.testing.assert_allclose(m.symbol.real, 1.0 + xi2)

    def test_schrodinger_group_is_unitary_phase(self):
        g = Grid(2, 8)
        m = make_multiplier(g, "schrodinger_group", t=0.7)
        np.testing.assert_allclose(np.abs(m.symbol), 1.0)

    def test_schrodinger_group_phase_on_plane_wave(self):
        g = Grid(2, 16, 2 * np.pi)
        f = plane_wave(g, (1, 2))
        out = apply_symbol(g, "schrodinger_group", f, t=0.3)
        np.testing.assert_allclose(out.values, np.exp(-1j * 5 * 0.3) * f.values, atol=1e-12)

    def test_wave_groups_are_conjugate_phases(self):
        g = Grid(2, 8)
        p = make_multiplier(g, "wave_group", t=0.4, sign="+")
        m = make_multiplier(g, "wave_group", t=0.4, sign="-")
        np.testing.assert_allclose(p.symbol * m.symbol, 1.0 + 0j, atol=1e-14)

    def test_wave_source_propagator_zero_mode_is_t(self):
        g = Grid(2, 8)
        m = make_multiplier(g, "wave_source_propagator", t=0.25)
        assert m.symbol[0, 0] == pytest.approx(0.25)

    def test_group_requires_finite_time(self):
        g = Grid(2, 8)
        with pytest.raises(ConfigurationError):
            make_multiplier(g, "schrodinger_group")
        with pytest.raises(ConfigurationError):
            make_multiplier(g, "wave_group", t=np.inf)

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError):
            make_multiplier(Grid(2, 8), "gradient")

    def test_apply_requires_frequency_space(self):
        g = Grid(2, 8)
        m = make_multiplier(g, "omega")
        f = ComplexField(g, np.ones(g.shape))
        with pytest.raises(ContractViolationError):
            apply_multiplier(m, f)

    def test_apply_requires_same_grid(self):
        m = make_multiplier(Grid(2, 8), "omega")
        f = ComplexField(Grid(2, 16), np.ones((16, 16)), "frequency")
        with pytest.raises(ContractViolationError):
            apply_multiplier(m, f)


def test_dealias_mask_keeps_low_third():
    g = Grid(2, 32)
    mask = dealias_mask(g)
    k = np.fft.fftfreq(32, d=1.0 / 32)
    keep = np.abs(k) <= 32 / 3
    assert mask[0, 0]
    # product structure: a mode survives iff every axis index survives
    expected = np.outer(keep, keep)
    np.testing.assert_array_equal(mask, expected)


def test_round_trip_preserves_space_tags():
    g = Grid(2, 8)
    f = ComplexField(g, np.ones(g.shape))
    assert to_physical(f) is f
    assert to_frequency(to_frequency(f)).space == "frequency"


class TestPlancherelProperties:
    """Seeded random grids and white-noise fields, Nyquist modes included."""

    @staticmethod
    def _case(seed, dim):
        rng = np.random.default_rng(seed)
        grid = Grid(dim, int(rng.choice([4, 8, 16])), float(rng.uniform(0.5, 20.0)))
        values = rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape)
        return grid, values * float(rng.uniform(0.1, 10.0))

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("seed", range(4))
    def test_ortho_transform_preserves_sum_of_squares(self, seed, dim):
        _, f = self._case(seed, dim)
        f_hat = np.fft.fftn(f, norm="ortho")
        assert np.sum(np.abs(f_hat) ** 2) == pytest.approx(np.sum(np.abs(f) ** 2), rel=1e-12)

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("seed", range(4))
    def test_gradient_norm_from_coefficients(self, seed, dim):
        grid, f = self._case(10 + seed, dim)
        # a real field plus odd content on every Nyquist plane, where the
        # derivative of the real part is imaginary and that of the rest real
        nyquist = np.zeros(grid.shape, dtype=bool)
        for axis in range(dim):
            index = [slice(None)] * dim
            index[axis] = grid.n // 2
            nyquist[tuple(index)] = True
        f_hat = np.fft.fftn(f.real, norm="ortho")
        f_hat[nyquist] += 1j * f_hat[nyquist]
        pointwise = sum(np.abs(np.fft.ifftn(1j * xi * f_hat, norm="ortho")) ** 2
                        for xi in grid.frequencies())
        by_plancherel = grid.cell_volume * np.sum(grid.xi_squared * np.abs(f_hat) ** 2)
        assert by_plancherel == pytest.approx(grid.cell_volume * np.sum(pointwise), rel=1e-12)
