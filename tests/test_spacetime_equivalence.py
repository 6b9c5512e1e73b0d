"""Equivalence of the lattice-table norms, the spatial-coefficient
linear-estimate check, the unitary-transform Strichartz check and the
one-draw generators with frozen copies of the code they replaced
(tests/frozen_bourgain.py)."""

import numpy as np
import pytest

import frozen_bourgain as frozen
from zrbr import bourgain
from zrbr.bourgain import (
    NO_DISPERSION,
    SCHRODINGER,
    WAVE_MINUS,
    WAVE_PLUS,
    SpaceTimeField,
    linear_estimate_ratio,
    random_band_limited,
    strichartz_ratio,
    xsb_norm,
    ys_norm,
)
from zrbr.config import SimConfig, make_initial_state
from zrbr.spectral import Grid, low_mode_coefficients

DISPERSIONS = [SCHRODINGER, WAVE_PLUS, WAVE_MINUS, NO_DISPERSION]
DISP_IDS = [d.kind for d in DISPERSIONS]
GRIDS = {2: Grid(2, 16, 2 * np.pi), 3: Grid(3, 8, 3 * np.pi)}


def assert_bits(new, ref):
    assert new.dtype == ref.dtype and new.shape == ref.shape
    assert new.tobytes() == ref.tobytes()


def assert_values_of(f, hat, drawn):
    """f's values are the spatial ifftn of hat, the frozen eager build's
    coefficients, bit for bit, and the values built from the draw, drawn,
    to round-off."""
    assert_bits(f.values, np.fft.ifftn(hat, axes=range(1, f.grid.dim + 1), norm="ortho"))
    assert np.max(np.abs(f.values - drawn)) <= 1e-13 * np.max(np.abs(drawn))


def noise_field(grid, n_time, seed, t_half=1.7):
    """Every lattice mode excited, Nyquist planes included."""
    rng = np.random.default_rng(seed)
    shape = (n_time,) + grid.shape
    return SpaceTimeField(grid, t_half, rng.normal(size=shape) + 1j * rng.normal(size=shape))


def sources(dim, n_time):
    grid = GRIDS[dim]
    return [
        random_band_limited(grid, 2.5, n_time, seed=9000 + dim),
        random_band_limited(grid, 2.5, n_time, seed=77, cutoff=False),
        noise_field(grid, n_time, 5 + dim),
    ]


@pytest.mark.parametrize("n_time", [64, 128])
@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("include_y_term", [True, False])
@pytest.mark.parametrize("disp", DISPERSIONS, ids=DISP_IDS)
def test_linear_estimate_ratio_matches_frozen(disp, include_y_term, dim, n_time):
    for q in sources(dim, n_time):
        for T in (0.25, 0.5, 1.0):
            args = (q, T, 1.0, 0.6, -0.35, disp, include_y_term)
            new, ref = linear_estimate_ratio(*args), frozen.linear_estimate_ratio(*args)
            assert ref > 0
            assert abs(new - ref) <= 1e-12 * ref, (T, new, ref)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("disp", DISPERSIONS, ids=DISP_IDS)
def test_norms_match_frozen(disp, dim):
    for f in sources(dim, 32):
        for s, b in ((0.0, 0.0), (1.0, 0.6), (-0.5, -0.35), (2.0, 1.5), (0.3, -1.0)):
            new, ref = xsb_norm(f, s, b, disp), frozen.xsb_norm(f, s, b, disp)
            assert abs(new - ref) <= 1e-12 * ref, ("xsb", s, b, new, ref)
        for s in (0.0, 1.0, -0.7, 2.5):
            new, ref = ys_norm(f, s, disp), frozen.ys_norm(f, s, disp)
            assert abs(new - ref) <= 1e-12 * ref, ("ys", s, new, ref)


# (a, a', gamma, eta, b0).  The Schrodinger (q, r) of each, in d = 2 and 3:
STRICHARTZ_EXPONENTS = [
    (0.0, 0.0, 0.0, 1.0, 0.6),  # (2, 2), no smoothing
    (0.6, 0.6, 1.0, 1.0, 0.6),  # (2, 2)
    (0.6, 0.6, 0.5, 0.5, 0.6),  # finite q, r = 8/3 and 12/5
    (0.6, 0.9, 0.3, 0.2, 0.7),  # finite q, r != 2
    (0.6, 0.6, 0.0, 1.0, 0.6),  # q = inf
]


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("disp", DISPERSIONS[:3], ids=DISP_IDS[:3])
def test_strichartz_ratio_matches_frozen(disp, dim):
    grid = GRIDS[dim]
    fields = [random_band_limited(grid, 2.5, 32, seed=300 + dim), noise_field(grid, 32, 11 + dim)]
    exponents = set()
    for v in fields:
        for args in STRICHARTZ_EXPONENTS:
            for T in (0.25, 0.5, 1.0):
                new = strichartz_ratio(v, *args, T=T, disp=disp)
                ref = frozen.strichartz_ratio(v, *args, T=T, disp=disp)
                assert (new.q, new.r, new.theta) == (ref.q, ref.r, ref.theta)
                for name in ("lhs", "v_norm", "ratio"):
                    n, r = getattr(new, name), getattr(ref, name)
                    assert r > 0 and abs(n - r) <= 1e-12 * r, (args, T, name, n, r)
                exponents.add((ref.q, ref.r))
    assert any(np.isinf(q) for q, _ in exponents)
    assert any(np.isfinite(q) and q != 2.0 for q, _ in exponents)
    if disp is SCHRODINGER:
        assert any(r != 2.0 for _, r in exponents)


@pytest.mark.parametrize("cutoff", [True, False])
@pytest.mark.parametrize("grid, n_time, time_band, space_band", [
    (Grid(2, 16, 2 * np.pi), 64, 4, 2),
    (Grid(2, 16, 2 * np.pi), 128, 4, 2),
    (Grid(2, 8, 5.0), 16, 0, 0),
    (Grid(2, 32, 4 * np.pi), 32, 7, 5),
    (Grid(3, 8, 4 * np.pi), 16, 2, 3),
])
def test_random_band_limited_bit_identical(grid, n_time, time_band, space_band, cutoff):
    for seed in (0, 9000, 2**31 - 1):
        args = (grid, 2.5, n_time, seed, time_band, space_band, cutoff)
        eager = frozen.eager_random_band_limited(*args)
        assert_values_of(random_band_limited(*args), eager.spatial_hat,
                         frozen.random_band_limited(*args).values)


def off_band(grid, band):
    """Spatial modes with |k|_inf > band, as a mask over the lattice."""
    k = np.abs(np.fft.fftfreq(grid.n, d=1.0 / grid.n))
    return np.max(np.meshgrid(*[k] * grid.dim, indexing="ij"), axis=0) > band


# The cases of test_random_band_limited_bit_identical.
@pytest.mark.parametrize("cutoff", [True, False])
@pytest.mark.parametrize("grid, n_time, time_band, space_band", [
    (Grid(2, 16, 2 * np.pi), 64, 4, 2),
    (Grid(2, 16, 2 * np.pi), 128, 4, 2),
    (Grid(2, 8, 5.0), 16, 0, 0),
    (Grid(2, 32, 4 * np.pi), 32, 7, 5),
    (Grid(3, 8, 4 * np.pi), 16, 2, 3),
])
def test_random_band_limited_carries_its_coefficients(grid, n_time, time_band, space_band,
                                                      cutoff):
    axes = tuple(range(1, grid.dim + 1))
    for seed in (0, 9000, 2**31 - 1):
        f = random_band_limited(grid, 2.5, n_time, seed, time_band, space_band, cutoff)
        hat = f.spatial_hat
        ref = np.fft.fftn(f.values, axes=axes, norm="ortho")
        assert hat.shape == ref.shape and hat.dtype == ref.dtype
        assert np.max(np.abs(hat - ref)) <= 1e-13 * np.max(np.abs(ref))
        assert not np.any(hat[:, off_band(grid, space_band)])
        assert not hat.flags.writeable
        assert f.spatial_hat is hat
        ref = frozen.eager_random_band_limited(grid, 2.5, n_time, seed, time_band, space_band,
                                               cutoff)
        assert_values_of(f, ref.spatial_hat, ref.values)


# The cases of test_random_band_limited_bit_identical.
@pytest.mark.parametrize("cutoff", [True, False])
@pytest.mark.parametrize("grid, n_time, time_band, space_band", [
    (Grid(2, 16, 2 * np.pi), 64, 4, 2),
    (Grid(2, 16, 2 * np.pi), 128, 4, 2),
    (Grid(2, 8, 5.0), 16, 0, 0),
    (Grid(2, 32, 4 * np.pi), 32, 7, 5),
    (Grid(3, 8, 4 * np.pi), 16, 2, 3),
])
def test_deferred_build_matches_eager_build(grid, n_time, time_band, space_band, cutoff):
    for seed in (0, 9000, 2**31 - 1):
        args = (grid, 2.5, n_time, seed, time_band, space_band, cutoff)
        new, ref = random_band_limited(*args), frozen.eager_random_band_limited(*args)
        for T in (0.25, 1.0):
            ratio = (T, 1.0, 0.6, -0.35, SCHRODINGER)
            a, b = linear_estimate_ratio(new, *ratio), linear_estimate_ratio(ref, *ratio)
            assert b > 0 and abs(a - b) <= 1e-12 * b, (T, a, b)
        assert "values" not in vars(new) and "spatial_hat" not in vars(new)
        assert_bits(new.spatial_hat, ref.spatial_hat)
        assert_values_of(new, ref.spatial_hat, ref.values)


def test_spatial_hat_of_values_is_the_unitary_transform():
    for dim in (2, 3):
        f = noise_field(GRIDS[dim], 16, dim)
        hat = f.spatial_hat
        assert_bits(hat, np.fft.fftn(f.values, axes=tuple(range(1, dim + 1)), norm="ortho"))
        assert not hat.flags.writeable


@pytest.mark.parametrize("n_time", [64, 128])
@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("include_y_term", [True, False])
@pytest.mark.parametrize("disp", DISPERSIONS, ids=DISP_IDS)
def test_support_path_matches_dense_path(disp, include_y_term, dim, n_time):
    """A band-limited source runs on its 25 (or 125) columns; the same values
    without the carried coefficients have round-off in every column and run
    on the whole lattice."""
    for q in sources(dim, n_time)[:2]:
        dense = SpaceTimeField(q.grid, q.t_half, q.values)
        assert np.all(np.any(dense.spatial_hat, axis=0))
        for T in (0.25, 0.5, 1.0):
            args = (T, 1.0, 0.6, -0.35, disp, include_y_term)
            new, ref = linear_estimate_ratio(q, *args), linear_estimate_ratio(dense, *args)
            assert ref > 0
            assert abs(new - ref) <= 1e-12 * ref, (T, new, ref)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("space_band", [1, 2])
def test_retarded_runs_on_the_support(monkeypatch, dim, space_band):
    sizes = []
    retarded = bourgain._retarded

    def spy(q_hat, group, dt, zero_index):
        assert q_hat.shape == group.shape
        sizes.append(q_hat[0].size)
        return retarded(q_hat, group, dt, zero_index)

    monkeypatch.setattr(bourgain, "_retarded", spy)
    grid = GRIDS[dim]
    band_limited = random_band_limited(grid, 2.5, 32, seed=dim, space_band=space_band)
    for q in (band_limited, noise_field(grid, 32, dim)):
        linear_estimate_ratio(q, 0.5, 1.0, 0.6, -0.35, SCHRODINGER)
    assert sizes == [(2 * space_band + 1) ** dim, grid.n**dim]


@pytest.mark.parametrize("grid, band", [
    (Grid(2, 16, 2 * np.pi), 2),
    (Grid(2, 8, 5.0), 4),  # modes -4 and 4 fold onto one index
    (Grid(2, 4, 5.0), 5),  # every index drawn three times
    (Grid(3, 8, 4 * np.pi), 0),
    (Grid(3, 32, 8 * np.pi), 4),
])
def test_low_mode_coefficients_bit_identical(grid, band):
    for seed in (0, 1, 12345):
        rng_new, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
        assert_bits(low_mode_coefficients(grid, rng_new, band),
                    frozen.low_mode_coefficients(grid, rng_ref, band))
        # both leave the stream at the same place
        assert rng_new.random() == rng_ref.random()


def test_stacked_draws_are_successive_draws():
    grid = Grid(2, 16, 2 * np.pi)
    rng_new, rng_ref = np.random.default_rng(3), np.random.default_rng(3)
    stack = low_mode_coefficients(grid, rng_new, 2, (2, 3))
    assert stack.shape == (2, 3) + grid.shape
    for field in stack.reshape((6,) + grid.shape):
        assert_bits(field, frozen.low_mode_coefficients(grid, rng_ref, 2))


@pytest.mark.parametrize("dim, n, length", [(2, 64, 32 * np.pi), (3, 32, 8 * np.pi)])
def test_initial_datum_bit_identical(dim, n, length):
    for seed in (0, 42):
        cfg = SimConfig(dim=dim, n=n, length=length, recipe="random-band-limited",
                        amplitude=1.5, seed=seed)
        coeffs = frozen.low_mode_coefficients(cfg.grid, np.random.default_rng(seed), 4)
        psi = np.fft.ifftn(coeffs, norm="ortho")
        psi = psi * (1.5 / np.max(np.abs(psi)))
        assert_bits(make_initial_state(cfg).psi.values, psi)
