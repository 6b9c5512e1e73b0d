import numpy as np
import pytest

from zrbr.bourgain import WAVE_MINUS, WAVE_PLUS, _group
from zrbr.errors import ConfigurationError, ContractViolationError
from zrbr.evolution import _propagator
from zrbr.spectral import (
    FREQUENCY,
    ComplexField,
    Grid,
    check_count,
    dealias_mask,
    full_spectrum,
    half_spectrum,
    hermitian_sum,
    make_multiplier,
    to_frequency,
    to_physical,
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
        with pytest.raises(ConfigurationError, match="^dim must be 2 or 3, got 4$"):
            Grid(4, 16)

    @pytest.mark.parametrize("dim", [2.0, 3.0, True])
    def test_rejects_a_non_integer_dimension(self, dim):
        with pytest.raises(ConfigurationError, match=f"^dim must be 2 or 3, got {dim!r}$"):
            Grid(dim, 16)

    def test_rejects_non_power_of_two(self):
        for n in (3, 12, 0, -8):
            with pytest.raises(ConfigurationError):
                Grid(2, n)

    def test_rejects_a_non_integer_count(self):
        with pytest.raises(ConfigurationError, match=r"points per axis must be an integer >= 4"):
            Grid(2, 16.0, 1.0)
        # an integer keeps its message
        with pytest.raises(ConfigurationError, match=r"^points per axis must be a power of two"):
            Grid(2, 12)

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

    @pytest.mark.parametrize("name", ["xi_squared", "xi_modulus", "half_xi_squared"])
    def test_equal_grids_share_one_read_only_table(self, name):
        # Every SimConfig builds its own Grid; the |xi| tables are built once
        # per grid value, with the same bits as before they were shared.
        a, b = Grid(3, 8, 3.0), Grid(3, 8, 3.0)
        assert a is not b
        assert getattr(a, name) is getattr(b, name)
        assert not getattr(a, name).flags.writeable
        xi2 = sum(x**2 for x in a.frequencies())
        expected = {"xi_squared": xi2, "xi_modulus": np.sqrt(xi2),
                    "half_xi_squared": xi2[..., :5]}[name]
        assert np.array_equal(getattr(a, name), expected)
        assert getattr(Grid(3, 8, 4.0), name) is not getattr(a, name)


class TestCheckCount:
    @pytest.mark.parametrize("value", [0, -3, 2.5, True, None])
    def test_rejects_non_counts(self, value):
        # 0 and -3 fall below least; 2.5, True and None are not integers
        with pytest.raises(ConfigurationError, match=r"n_iters must be an integer >= 1"):
            check_count(value, "n_iters", 1)

    @pytest.mark.parametrize("value", [1, 7, np.int64(1)])
    def test_accepts_integers_at_or_above_least(self, value):
        check_count(value, "n_iters", 1)


class TestTransform:
    def test_roundtrip(self):
        g = Grid(2, 16)
        rng = np.random.default_rng(0)
        f = ComplexField(g, rng.normal(size=g.shape) + 1j * rng.normal(size=g.shape))
        back = to_physical(to_frequency(f))
        np.testing.assert_allclose(back.values, f.values, atol=1e-13)

    def test_plancherel(self):
        g = Grid(2, 16, 5.0)
        rng = np.random.default_rng(1)
        f = ComplexField(g, rng.normal(size=g.shape) + 1j * rng.normal(size=g.shape))
        assert to_frequency(f).l2_norm() == pytest.approx(f.l2_norm(), rel=1e-13)

    def test_shape_mismatch_rejected(self):
        g = Grid(2, 8)
        with pytest.raises(ContractViolationError):
            ComplexField(g, np.zeros((8, 4)))


def apply(grid, name, f):
    """The table symbol applied to a physical-space field."""
    hat = np.fft.fftn(f.values, norm="ortho")
    return np.fft.ifftn(make_multiplier(grid, name) * hat, norm="ortho")


def assert_real(values, rtol=1e-12):
    assert np.max(np.abs(values.imag)) <= rtol * np.max(np.abs(values))


class TestMultipliers:
    def test_laplacian_on_plane_wave(self):
        g = Grid(2, 16, 2 * np.pi)
        f = plane_wave(g, (3, 1))
        out = apply(g, "laplacian", f)
        np.testing.assert_allclose(out, -(3**2 + 1**2) * f.values, atol=1e-12)

    def test_dx_differentiates_sine(self):
        g = Grid(2, 32, 2 * np.pi)
        x = g.coordinates()[0]
        f = ComplexField(g, np.sin(2 * x) + 0j)
        out = apply(g, "dx", f)
        np.testing.assert_allclose(out.real, 2 * np.cos(2 * x), atol=1e-12)
        assert_real(out)

    def test_dx_of_real_field_stays_real(self):
        # Nyquist-plane zeroing keeps derivatives of real data real.
        g = Grid(2, 8, 2 * np.pi)
        rng = np.random.default_rng(2)
        f = ComplexField(g, rng.normal(size=g.shape) + 0j)
        assert_real(apply(g, "dx", f))

    def test_omega_inv_zero_mode_convention(self):
        g = Grid(2, 8)
        assert make_multiplier(g, "omega_inv")[0, 0] == 0.0

    def test_omega_inv_inverts_omega_off_zero_mode(self):
        g = Grid(2, 16, 2 * np.pi)
        f = plane_wave(g, (2, 5))
        out = apply(g, "omega_inv", ComplexField(g, apply(g, "omega", f)))
        np.testing.assert_allclose(out, f.values, atol=1e-12)

    def test_schrodinger_group_is_unitary_phase(self):
        g = Grid(2, 8)
        np.testing.assert_allclose(np.abs(_propagator(g, 0.7, 1.0, False).schrodinger), 1.0)

    def test_schrodinger_group_phase_on_plane_wave(self):
        g = Grid(2, 16, 2 * np.pi)
        f = plane_wave(g, (1, 2))
        hat = _propagator(g, 0.3, 1.0, False).schrodinger * to_frequency(f).values
        out = np.fft.ifftn(hat, norm="ortho")
        np.testing.assert_allclose(out, np.exp(-1j * 5 * 0.3) * f.values, atol=1e-12)

    def test_wave_groups_are_conjugate_phases(self):
        g = Grid(2, 8)
        t = np.array([0.4])
        p, m = (_group(t, d.phase(g))[0] for d in (WAVE_PLUS, WAVE_MINUS))
        np.testing.assert_allclose(p * m, 1.0 + 0j, atol=1e-14)

    def test_wave_source_propagator_zero_mode_is_t(self):
        g = Grid(2, 8)
        assert _propagator(g, 0.25, 1.0, False).sinc[0, 0] == pytest.approx(0.25)

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError):
            make_multiplier(Grid(2, 8), "gradient")


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


def test_fft_calls_counts_complex_and_real_transforms(fft_calls):
    a = np.ones((4, 4))
    np.fft.ifftn(np.fft.fftn(a))
    np.fft.irfftn(np.fft.rfftn(a), a.shape, axes=(0, 1))
    assert len(fft_calls) == 4
    assert fft_calls == ["fftn", "ifftn", "rfftn", "irfftn"]
    # a 1-D transform is a call of its own, an n-D one's per-axis passes are not
    fft_calls.clear()
    np.fft.ifft(np.fft.fft(a, axis=0), axis=1)
    assert fft_calls == ["fft", "ifft"]


HALF_GRIDS = [Grid(2, 4, 3.0), Grid(2, 16, 4 * np.pi), Grid(3, 4, 2.0), Grid(3, 8, 3 * np.pi)]
HALF_IDS = [f"{g.dim}d-{g.n}" for g in HALF_GRIDS]


def real_white_noise(grid, seed):
    """A real field with every mode excited, the Nyquist ones included."""
    return np.random.default_rng(seed).normal(size=grid.shape) * 10.0 ** (seed % 5 - 2)


def half_shape(grid):
    """Shape of a real field's rfftn half-spectrum."""
    return (grid.n,) * (grid.dim - 1) + (grid.n // 2 + 1,)


@pytest.mark.parametrize("grid", HALF_GRIDS, ids=HALF_IDS)
class TestHalfSpectrum:
    """A real field's rfftn half-spectrum, a plain array, against its full
    spectrum."""

    @pytest.mark.parametrize("seed", range(4))
    def test_hermitian_fill_matches_fftn(self, grid, seed):
        x = real_white_noise(grid, seed)
        full = np.fft.fftn(x, norm="ortho")
        filled = full_spectrum(grid, np.fft.rfftn(x, norm="ortho"))
        assert np.max(np.abs(filled - full)) <= 1e-15 * np.max(np.abs(full))

    @pytest.mark.parametrize("seed", range(4))
    def test_to_physical_is_bitwise_that_of_the_full_spectrum(self, grid, seed):
        half = half_spectrum(ComplexField(grid, real_white_noise(grid, seed) + 0j))
        assert isinstance(half, np.ndarray) and half.shape == half_shape(grid)
        full = ComplexField(grid, full_spectrum(grid, half), FREQUENCY)
        # the fill is a copy: cutting it again gives the half back
        np.testing.assert_array_equal(half_spectrum(full), half)
        np.testing.assert_array_equal(to_physical(full).values,
                                      np.fft.ifftn(full.values, norm="ortho"))

    @pytest.mark.parametrize("seed", range(4))
    def test_l2_norm_and_sup_bound_match_the_full_spectrum(self, grid, seed):
        # The sums a diagnostics row and the divergence proxy take over a
        # half-spectrum count its conjugate columns.
        x = real_white_noise(grid, seed)
        full = to_frequency(ComplexField(grid, x + 0j))
        half = half_spectrum(ComplexField(grid, x + 0j))
        l2 = float(np.sqrt(hermitian_sum(np.abs(half) ** 2) * grid.cell_volume))
        assert l2 == pytest.approx(full.l2_norm(), rel=1e-14, abs=0.0)
        assert l2 == pytest.approx(ComplexField(grid, x).l2_norm(), rel=1e-14)
        assert hermitian_sum(np.abs(half)) == pytest.approx(
            np.sum(np.abs(full.values)), rel=1e-14, abs=0.0)

    def test_half_of_a_full_spectrum_drops_nothing_of_a_real_field(self, grid):
        x = real_white_noise(grid, 7)
        full = to_frequency(ComplexField(grid, x + 0j))
        cut = half_spectrum(full)
        np.testing.assert_array_equal(cut, full.values[..., : grid.n // 2 + 1])
        np.testing.assert_allclose(np.fft.ifftn(full_spectrum(grid, cut), norm="ortho"), x,
                                   rtol=0, atol=1e-14 * np.max(np.abs(x)))

    def test_physical_field_drops_its_imaginary_part(self, grid):
        x = real_white_noise(grid, 3)
        with_imag = ComplexField(grid, x + 1j * real_white_noise(grid, 4))
        np.testing.assert_array_equal(half_spectrum(with_imag), np.fft.rfftn(x, norm="ortho"))

    def test_shape_and_tag_checked(self, grid):
        # A field is physical or frequency; a half-spectrum is no field.
        for values in (np.zeros(grid.shape), np.zeros(half_shape(grid))):
            with pytest.raises(ContractViolationError, match="unknown representation"):
                ComplexField(grid, values, "half")
        with pytest.raises(ContractViolationError):
            ComplexField(grid, np.zeros(half_shape(grid)), FREQUENCY)
        with pytest.raises(ContractViolationError):
            ComplexField(grid, np.zeros(grid.shape), "halfway")
