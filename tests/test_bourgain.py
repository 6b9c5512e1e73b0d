import numpy as np
import pytest

from zrbr.bourgain import (
    NO_DISPERSION,
    SCHRODINGER,
    WAVE_MINUS,
    WAVE_PLUS,
    Dispersion,
    SpaceTimeField,
    check_linear_estimate,
    free_evolution,
    linear_estimate_ratio,
    mixed_norm,
    random_band_limited,
    retarded_convolution,
    spatial_sobolev_sup,
    strichartz_ratio,
    xsb_norm,
    ys_norm,
    _lattice,
    _weight,
)
from zrbr.errors import ConfigurationError, ContractViolationError, PreconditionError
from zrbr.spectral import ComplexField, Grid, low_mode_coefficients


def aligned_grid():
    """L = 2 pi makes |xi|^2 integer-valued on the lattice."""
    return Grid(2, 16, 2 * np.pi)


def random_spacetime(grid, n_time, seed, t_half=np.pi):
    rng = np.random.default_rng(seed)
    shape = (n_time,) + grid.shape
    return SpaceTimeField(grid, t_half, rng.normal(size=shape) + 1j * rng.normal(size=shape))


class TestSpaceTimeField:
    def test_shape_validated(self):
        g = aligned_grid()
        with pytest.raises(ContractViolationError):
            SpaceTimeField(g, 1.0, np.zeros((10, 8, 8)))
        with pytest.raises(ContractViolationError):
            SpaceTimeField(g, 1.0, np.zeros((7, 16, 16)))

    def test_time_axis_contains_zero(self):
        f = random_spacetime(aligned_grid(), 32, 0)
        assert f.times[f.zero_index] == pytest.approx(0.0, abs=1e-15)


class TestNorms:
    def test_xsb_at_zero_weights_is_l2(self):
        f = random_spacetime(aligned_grid(), 32, 3)
        assert xsb_norm(f, 0, 0, SCHRODINGER) == pytest.approx(f.l2_norm(), rel=1e-12)
        assert mixed_norm(f, 2, 2) == pytest.approx(f.l2_norm(), rel=1e-12)

    def test_free_solution_has_zero_modulation(self):
        # exp(it Lap) data concentrates on tau = -|xi|^2: with L = 2 pi and
        # window pi the lattice resolves that surface exactly, so raising b
        # changes nothing.
        g = aligned_grid()
        hat = np.zeros(g.shape, dtype=np.complex128)
        hat[2, 3], hat[1, 0] = 1.0, 0.5 - 0.25j
        f = free_evolution(ComplexField(g, hat, "frequency"), np.pi, 32, SCHRODINGER)
        base = xsb_norm(f, 0.7, 0.0, SCHRODINGER)
        assert xsb_norm(f, 0.7, 3.0, SCHRODINGER) == pytest.approx(base, rel=1e-10)

    def test_xsb_monotone_in_weights(self):
        f = random_spacetime(aligned_grid(), 32, 5)
        assert xsb_norm(f, 1.0, 0.6, SCHRODINGER) >= xsb_norm(f, 1.0, 0.3, SCHRODINGER)
        assert xsb_norm(f, 2.0, 0.3, SCHRODINGER) >= xsb_norm(f, 1.0, 0.3, SCHRODINGER)

    def test_ys_single_mode_closed_form(self):
        # one space-time Fourier mode: the l1-in-tau / l2-in-xi sum collapses
        g = aligned_grid()
        hat = np.zeros((32,) + g.shape, dtype=np.complex128)
        hat[3, 2, 1] = 2.0
        f = SpaceTimeField(g, np.pi, np.fft.ifftn(hat, norm="ortho"))
        tau = _lattice(g, f.t_half, f.n_time, SCHRODINGER).taus[3]
        xi2 = g.xi_squared[2, 1]
        sigma = tau + xi2
        dtau = 2 * np.pi / (2 * f.t_half)
        expected = (
            (1 + xi2) ** 0.25
            * (2.0 / np.sqrt(1 + sigma**2))
            * np.sqrt(dtau * f.dt * g.cell_volume)
        )
        assert ys_norm(f, 0.5, SCHRODINGER) == pytest.approx(expected, rel=1e-12)

    def test_mixed_norm_infinite_exponents(self):
        f = random_spacetime(aligned_grid(), 32, 7)
        assert mixed_norm(f, np.inf, np.inf) == pytest.approx(np.max(np.abs(f.values)))
        with pytest.raises(ConfigurationError):
            mixed_norm(f, 0.5, 2)

    def test_unknown_dispersion_rejected(self):
        f = random_spacetime(aligned_grid(), 32, 8)
        with pytest.raises(ConfigurationError):
            xsb_norm(f, 0, 0, Dispersion("airy"))

    def test_wave_dispersions_are_mirror_images(self):
        # conjugation negates (tau, xi), swapping the two wave weights;
        # Nyquist planes have no negation partner, so keep the field away
        # from them with a band-limited sample
        f = random_band_limited(aligned_grid(), np.pi, 32, seed=9, cutoff=False)
        conj = SpaceTimeField(f.grid, f.t_half, np.conj(f.values))
        a = xsb_norm(f, 0.5, 0.4, WAVE_PLUS)
        b = xsb_norm(conj, 0.5, 0.4, WAVE_MINUS)
        assert a == pytest.approx(b, rel=1e-10)


class TestFieldBuilders:
    def test_free_evolution_slices_are_unitary(self):
        g = aligned_grid()
        rng = np.random.default_rng(10)
        u0 = ComplexField(g, rng.normal(size=g.shape) + 1j * rng.normal(size=g.shape))
        f = free_evolution(u0, np.pi, 16, SCHRODINGER)
        norms = [
            np.sqrt(np.sum(np.abs(f.values[j]) ** 2) * g.cell_volume) for j in range(16)
        ]
        np.testing.assert_allclose(norms, u0.l2_norm(), rtol=1e-12)

    def test_band_limited_field_is_resolution_independent(self):
        g = aligned_grid()
        coarse = random_band_limited(g, 2.5, 32, seed=5)
        fine = random_band_limited(g, 2.5, 64, seed=5)
        # the coarse time lattice is every second fine sample
        np.testing.assert_allclose(fine.values[::2], coarse.values, atol=1e-12)

    def test_band_limited_needs_resolution(self):
        with pytest.raises(ConfigurationError):
            random_band_limited(aligned_grid(), 1.0, 8, seed=0)


class TestRetardedConvolution:
    def test_matches_direct_quadrature_without_dispersion(self):
        # p = 0 reduces to the anchored running trapezoid integral
        f = random_spacetime(aligned_grid(), 32, 11)
        out = retarded_convolution(f, NO_DISPERSION)
        seg = 0.5 * f.dt * (f.values[1:] + f.values[:-1])
        cum = np.concatenate([np.zeros((1,) + f.grid.shape), np.cumsum(seg, axis=0)])
        cum -= cum[f.zero_index]
        np.testing.assert_allclose(out.values, cum, atol=1e-12)

    def test_vanishes_at_time_zero(self):
        f = random_spacetime(aligned_grid(), 32, 12)
        out = retarded_convolution(f, SCHRODINGER)
        np.testing.assert_allclose(out.values[out.zero_index], 0.0, atol=1e-13)


class TestLinearEstimate:
    def test_preconditions(self):
        q = random_spacetime(aligned_grid(), 32, 13, t_half=2.5)
        with pytest.raises(PreconditionError):
            linear_estimate_ratio(q, 1.5, 1.0, 0.6, -0.35, SCHRODINGER)
        with pytest.raises(PreconditionError):
            linear_estimate_ratio(q, 0.5, 1.0, 0.6, 0.1, SCHRODINGER)
        with pytest.raises(PreconditionError):
            linear_estimate_ratio(q, 0.5, 1.0, 0.6, -0.6, SCHRODINGER)

    def test_zero_source_gives_zero_ratio(self):
        g = aligned_grid()
        q = SpaceTimeField(g, 2.5, np.zeros((32,) + g.shape))
        assert linear_estimate_ratio(q, 0.5, 1.0, 0.6, -0.35, SCHRODINGER) == 0.0

    def test_batch_ratio_finite_and_bounded(self):
        g = aligned_grid()
        sources = [random_band_limited(g, 2.5, 32, seed=100 + k) for k in range(5)]
        rep = check_linear_estimate(sources, 0.5, 1.0, 0.6, -0.35, SCHRODINGER)
        assert np.isfinite(rep.max_ratio)
        assert rep.max_ratio > 0
        assert len(rep.ratios) == 5

    def test_y_term_only_lowers_ratio(self):
        g = aligned_grid()
        q = random_band_limited(g, 2.5, 32, seed=42)
        with_y = linear_estimate_ratio(q, 0.5, 1.0, 0.6, -0.35, SCHRODINGER, True)
        without = linear_estimate_ratio(q, 0.5, 1.0, 0.6, -0.35, SCHRODINGER, False)
        assert with_y <= without


class TestStrichartzRatio:
    def test_infeasible_hypotheses_raise(self):
        v = random_spacetime(aligned_grid(), 32, 14, t_half=2.5)
        with pytest.raises(PreconditionError):
            strichartz_ratio(v, 1.0, 1.0, 0.0, 1.0, 0.6, T=0.5)

    def test_trivial_exponents_give_unit_ratio(self):
        # a = a' = 0 turns the smoothing into |F v|, whose (2,2) norm is ||v||
        v = random_band_limited(aligned_grid(), 2.5, 32, seed=15)
        rep = strichartz_ratio(v, 0.0, 0.0, 0.0, 1.0, 0.6, T=0.5)
        assert (rep.q, rep.r) == (2.0, 2.0)
        assert rep.ratio == pytest.approx(1.0, rel=1e-10)

    def test_generic_ratio_finite(self):
        v = random_band_limited(aligned_grid(), 2.5, 32, seed=16)
        rep = strichartz_ratio(v, 0.6, 0.6, 1.0, 1.0, 0.6, T=0.5)
        assert np.isfinite(rep.ratio)
        assert rep.theta == pytest.approx(0.5)

    @pytest.mark.parametrize("T", [0.0, np.nan, -0.5, 1.5])
    def test_cutoff_time_must_be_in_unit_interval(self, T):
        v = random_band_limited(aligned_grid(), 2.5, 32, seed=17)
        with pytest.raises(PreconditionError, match="0 < T <= 1"):
            strichartz_ratio(v, 0.6, 0.6, 1.0, 1.0, 0.6, T=T)


def test_embedding_ratio_bounded_for_high_b():
    # sup_t H^s against X^{s,b}, b > 1/2: ratios stay bounded over a batch
    g = aligned_grid()
    ratios = []
    for k in range(10):
        f = random_band_limited(g, 2.5, 32, seed=200 + k)
        ratios.append(spatial_sobolev_sup(f, 1.0) / xsb_norm(f, 1.0, 0.6, SCHRODINGER))
    assert max(ratios) < 10.0


class TestValidation:
    @pytest.mark.parametrize("t_half", [np.nan, np.inf, -np.inf, 0.0, -1.0])
    def test_window_must_be_finite_and_positive(self, t_half):
        g = aligned_grid()
        with pytest.raises(ContractViolationError):
            SpaceTimeField(g, t_half, np.zeros((8,) + g.shape))
        with pytest.raises(ContractViolationError):
            free_evolution(ComplexField(g, np.ones(g.shape)), t_half, 8, SCHRODINGER)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_norm_exponents_must_be_finite(self, bad):
        f = random_spacetime(aligned_grid(), 16, 20)
        with pytest.raises(ConfigurationError):
            xsb_norm(f, bad, 0.5, SCHRODINGER)
        with pytest.raises(ConfigurationError):
            xsb_norm(f, 1.0, bad, SCHRODINGER)
        with pytest.raises(ConfigurationError):
            ys_norm(f, bad, SCHRODINGER)
        with pytest.raises(ConfigurationError):
            spatial_sobolev_sup(f, bad)

    @pytest.mark.parametrize("which", ["s", "b", "b_prime"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_linear_estimate_exponents_must_be_finite(self, which, bad):
        q = random_spacetime(aligned_grid(), 16, 21, t_half=2.5)
        args = {"s": 1.0, "b": 0.6, "b_prime": -0.35, which: bad}
        with pytest.raises(ConfigurationError):
            linear_estimate_ratio(q, 0.5, args["s"], args["b"], args["b_prime"], SCHRODINGER)

    @pytest.mark.parametrize("band", [-1, 1.5, 2.0, True, "2"])
    def test_bands_must_be_nonnegative_integers(self, band):
        g = aligned_grid()
        with pytest.raises(ConfigurationError):
            random_band_limited(g, 2.5, 32, seed=0, time_band=band)
        with pytest.raises(ConfigurationError):
            random_band_limited(g, 2.5, 32, seed=0, space_band=band)
        with pytest.raises(ConfigurationError):
            low_mode_coefficients(g, np.random.default_rng(0), band)

    def test_zero_bands_give_one_mode(self):
        f = random_band_limited(aligned_grid(), 2.5, 32, seed=3, time_band=0, space_band=0,
                                cutoff=False)
        np.testing.assert_allclose(f.values, f.values[0, 0, 0], rtol=1e-14)
        assert f.values[0, 0, 0] != 0


class TestLatticeTable:
    def test_linear_estimate_is_three_transforms(self, fft_calls):
        q = random_band_limited(aligned_grid(), 2.5, 64, seed=9000)
        fft_calls.clear()
        linear_estimate_ratio(q, 0.5, 1.0, 0.6, -0.35, SCHRODINGER, include_y_term=True)
        assert fft_calls == ["fftn", "fftn", "fftn"]

    def test_strichartz_is_four_transforms(self, fft_calls):
        v = random_band_limited(aligned_grid(), 2.5, 32, seed=16)
        fft_calls.clear()
        strichartz_ratio(v, 0.6, 0.6, 1.0, 1.0, 0.6, T=0.5)
        assert fft_calls == ["fftn", "ifftn", "fftn", "ifftn"]

    def test_time_transform_is_a_traced_fftn(self, monkeypatch):
        # a profiler that wraps only fftn and ifftn sees every transform
        seen = []
        fftn = np.fft.fftn

        def traced(a, *args, **kwargs):
            seen.append(kwargs.get("axes"))
            return fftn(a, *args, **kwargs)

        def forbidden(*args, **kwargs):
            raise AssertionError("one-dimensional fft used")

        monkeypatch.setattr(np.fft, "fftn", traced)
        monkeypatch.setattr(np.fft, "fft", forbidden)
        q = random_band_limited(aligned_grid(), 2.5, 32, seed=1)
        linear_estimate_ratio(q, 0.5, 1.0, 0.6, -0.35, SCHRODINGER)
        assert seen == [(1, 2), (0,), (0,)]

    def test_norm_is_one_transform(self, fft_calls):
        f = random_band_limited(aligned_grid(), 2.5, 32, seed=2)
        fft_calls.clear()
        xsb_norm(f, 1.0, 0.6, SCHRODINGER)
        assert fft_calls == ["fftn"]
        ys_norm(f, 1.0, SCHRODINGER)
        assert fft_calls == ["fftn", "fftn"]

    def test_tables_are_shared_read_only_and_bounded(self):
        f = random_band_limited(aligned_grid(), 2.5, 32, seed=4)
        lat = _lattice(f.grid, f.t_half, f.n_time, SCHRODINGER)
        assert _lattice(Grid(2, 16, 2 * np.pi), 2.5, 32, Dispersion("schrodinger")) is lat
        assert lat.weight(1.0, 0.6) is lat.weight(1.0, 0.6)
        for table in (lat.group, lat.weight(1.0, 0.6), lat.times, lat.taus, lat.phase):
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0] = 0.0
        assert _lattice.cache_info().maxsize is not None
        assert _weight.cache_info().maxsize is not None

    def test_nonfinite_keys_never_reach_the_cache(self):
        f = random_band_limited(aligned_grid(), 2.5, 32, seed=5)
        _weight.cache_clear()
        for _ in range(3):
            with pytest.raises(ConfigurationError):
                xsb_norm(f, np.nan, 0.5, SCHRODINGER)
        assert _weight.cache_info().currsize == 0

    @pytest.mark.parametrize("t_half, n_time", [(2.5, 32), (np.pi, 64), (0.3, 128)])
    def test_table_window_is_the_field_window(self, t_half, n_time):
        # linear_estimate_ratio reads times from the table, the field its own
        g = aligned_grid()
        f = SpaceTimeField(g, t_half, np.zeros((n_time,) + g.shape))
        lat = _lattice(g, f.t_half, f.n_time, WAVE_PLUS)
        assert lat.dt == f.dt
        np.testing.assert_array_equal(lat.times, f.times)
