"""Equivalence of the time-batched Picard iteration and the shared retarded
kernel with frozen copies of the per-slice code they replaced."""

import numpy as np
import pytest

from frozen_spectral import apply_symbol
from zrbr.bourgain import (
    SCHRODINGER,
    WAVE_MINUS,
    WAVE_PLUS,
    SpaceTimeField,
    random_band_limited,
    retarded_convolution,
    smooth_cutoff,
)
from zrbr.config import h1_norm
from zrbr.evolution import _BURN_IN, picard_iterate
from zrbr.model import ModelParams, PlusMinusState
from zrbr.spectral import ComplexField, Grid, to_frequency, to_physical

COMPONENTS = ("psi", "rho_plus", "rho_minus", "varphi_plus", "varphi_minus")


# ---------------------------------------------------------------------------
# Frozen reference: one time slice at a time, every operator through the
# frozen apply_symbol, its own dispersion table and trapezoid integral.
# ---------------------------------------------------------------------------

def reference_F(pm, params):
    psi = to_physical(pm.psi).values
    rp, rm = to_physical(pm.rho_plus).values, to_physical(pm.rho_minus).values
    vp, vm = to_physical(pm.varphi_plus).values, to_physical(pm.varphi_minus).values
    return (
        params.sigma2 * np.abs(psi) ** 2 * psi
        + 0.5 * params.W * (rp + rm) * psi
        + 0.5 * params.W * params.D * (vp + vm) * psi
    )


def reference_psi_t(pm, params):
    lap = apply_symbol(pm.grid, "laplacian", to_physical(pm.psi))
    return ComplexField(pm.grid, params.epsilon * 1j * (lap.values - reference_F(pm, params)))


def reference_G_H(psi, psi_t, params, s):
    grid = psi.grid
    p, pt = to_physical(psi).values, to_physical(psi_t).values
    f = ComplexField(grid, np.abs(p) ** 2)
    ft = ComplexField(grid, 2.0 * np.real(np.conj(p) * pt))
    g1 = apply_symbol(grid, "omega_inv", apply_symbol(grid, "laplacian", f))
    g2 = apply_symbol(grid, "omega_inv", apply_symbol(grid, "dx", ft))
    h1 = apply_symbol(grid, "omega_inv", apply_symbol(grid, "dx", apply_symbol(grid, "dx", f)))
    g = s * (-g1.values + params.D * g2.values)
    h = -s * params.D * h1.values + s * g2.values
    return g, h


def reference_cumtrapz(values, dt, zero_index):
    seg = 0.5 * dt * (values[1:] + values[:-1])
    out = np.zeros_like(values)
    np.cumsum(seg, axis=0, out=out[1:])
    return out - out[zero_index]


def reference_picard(initial, T, n_iters, params, n_time):
    """The iterates and successive differences of the per-slice iteration."""
    grid = initial.grid
    dt = 4.0 * T / n_time
    times = -2.0 * T + dt * np.arange(n_time)
    zero_index = n_time // 2
    axes = tuple(range(1, grid.dim + 1))
    tshape = (-1,) + (1,) * grid.dim
    lam, lam_T, lam_2T = (smooth_cutoff(times / c) for c in (1.0, T, 2.0 * T))
    phases = {"psi": params.epsilon * grid.xi_squared, "rho_plus": grid.xi_modulus,
              "rho_minus": -grid.xi_modulus, "varphi_plus": grid.xi_modulus,
              "varphi_minus": -grid.xi_modulus}
    coef = {name: (params.epsilon if name == "psi" else 1.0) for name in COMPONENTS}

    free = {}
    for name, f in zip(COMPONENTS, initial.fields()):
        prop = np.exp(-1j * times.reshape(tshape) * phases[name][None])
        free[name] = np.fft.ifftn(lam.reshape(tshape) * prop * to_frequency(f).values[None],
                                  axes=axes, norm="ortho")

    iterates, diffs = [free], []
    for _ in range(n_iters):
        cur = iterates[-1]
        q = {name: np.empty_like(cur[name]) for name in COMPONENTS}
        for j in range(n_time):
            pm = PlusMinusState(*[ComplexField(grid, lam_2T[j] * cur[name][j])
                                  for name in COMPONENTS])
            psi_t = reference_psi_t(pm, params)
            q["psi"][j] = reference_F(pm, params)
            for s, rho, varphi in ((1, "rho_plus", "varphi_plus"),
                                   (-1, "rho_minus", "varphi_minus")):
                q[rho][j], q[varphi][j] = reference_G_H(pm.psi, psi_t, params, s)
        nxt = {}
        for name in COMPONENTS:
            p = phases[name]
            q_hat = np.fft.fftn(q[name], axes=axes, norm="ortho")
            integral = reference_cumtrapz(
                np.exp(1j * times.reshape(tshape) * p[None]) * q_hat, dt, zero_index)
            conv_hat = lam_T.reshape(tshape) * np.exp(-1j * times.reshape(tshape) * p[None]) \
                * integral
            nxt[name] = free[name] - 1j * coef[name] * np.fft.ifftn(conv_hat, axes=axes,
                                                                    norm="ortho")
        diffs.append(max(
            float(np.max(np.sqrt(np.sum(np.abs(nxt[n] - cur[n]) ** 2, axis=axes)
                                 * grid.cell_volume)))
            for n in COMPONENTS))
        iterates.append(nxt)
    return iterates, diffs


def reference_retarded_convolution(q, disp):
    grid = q.grid
    p = disp.phase(grid)
    axes = tuple(range(1, grid.dim + 1))
    tshape = (-1,) + (1,) * grid.dim
    q_hat = np.fft.fftn(q.values, axes=axes, norm="ortho")
    integrand = np.exp(1j * q.times.reshape(tshape) * p[None]) * q_hat
    seg = 0.5 * q.dt * (integrand[1:] + integrand[:-1])
    cum = np.zeros_like(integrand)
    np.cumsum(seg, axis=0, out=cum[1:])
    cum -= cum[q.zero_index]
    out_hat = np.exp(-1j * q.times.reshape(tshape) * p[None]) * cum
    return SpaceTimeField(grid, q.t_half, np.fft.ifftn(out_hat, axes=axes, norm="ortho"))


# ---------------------------------------------------------------------------
# Cases
# ---------------------------------------------------------------------------

def band_limited(grid, seed, band=3):
    rng = np.random.default_rng(seed)
    hat = np.zeros(grid.shape, dtype=np.complex128)
    for k in np.ndindex(*(2 * band + 1,) * grid.dim):
        hat[tuple(np.mod(np.array(k) - band, grid.n))] = rng.normal() + 1j * rng.normal()
    return np.fft.ifftn(hat, norm="ortho")


def small_data(grid, scale=1e-3):
    psi = ComplexField(grid, band_limited(grid, 71))
    psi = ComplexField(grid, psi.values * (scale / h1_norm(psi)))
    acoustic = [ComplexField(grid, scale * band_limited(grid, s).real + 0j)
                for s in (72, 73, 74, 75)]
    return PlusMinusState(psi, *acoustic)


GRIDS = {"2d-32": Grid(2, 32, 8 * np.pi), "3d-8": Grid(3, 8, 4 * np.pi)}
PARAMS = {
    "default": ModelParams(sigma2=-1.0, W=1.0, D=0.5),
    "eps0.7": ModelParams(sigma2=-1.0, W=1.0, D=0.5, epsilon=0.7),
    "D0": ModelParams(sigma2=1.0, W=1.5, D=0.0),
}


def max_rel(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


def sup_l2(values, grid):
    axes = tuple(range(1, grid.dim + 1))
    return float(np.max(np.sqrt(np.sum(np.abs(values) ** 2, axis=axes) * grid.cell_volume)))


def factor_with_floor(report, floor):
    """The contraction factor of report's diffs and ratios, with ratios off
    differences at or below floor left out and the burn-in skipped."""
    tail = [r for r, a in zip(report.ratios, report.diffs[:-1]) if a > floor]
    tail = tail[_BURN_IN - 1 :] if len(tail) >= _BURN_IN else tail
    return max(tail) if tail else 0.0


class TestPicardReferenceEquivalence:
    @pytest.mark.parametrize("params", PARAMS, ids=list(PARAMS))
    @pytest.mark.parametrize("n_time", [32, 64])
    @pytest.mark.parametrize("grid", GRIDS, ids=list(GRIDS))
    def test_iterates_and_diffs_match_reference(self, grid, n_time, params):
        grid, params = GRIDS[grid], PARAMS[params]
        # a larger datum keeps the differences above round-off for 3 iterations
        init = small_data(grid, scale=0.05)
        ref_iterates, ref_diffs = reference_picard(init, 0.25, 3, params, n_time)
        # picard_iterate returns iterate 0 and the last one; n_iters = 1, 2, 3
        # reach every reference iterate
        for n_iters in (1, 2, 3):
            iterates, report = picard_iterate(init, 0.25, n_iters, params, n_time=n_time)
            assert len(iterates) == 2
            for new, ref in zip(iterates, (ref_iterates[0], ref_iterates[n_iters])):
                for name in COMPONENTS:
                    assert max_rel(new[name], ref[name]) <= 1e-12, (n_iters, name)
            diffs = ref_diffs[:n_iters]
            assert len(report.diffs) == len(diffs)
            assert np.max(np.abs(np.subtract(report.diffs, diffs))) <= 1e-12 * ref_diffs[0]
            # picard_iterate floors the differences at 64 ulps of a bound on
            # the largest iterate; the exact largest gives the same factor
            largest = max(sup_l2(it[name], grid) for it in ref_iterates[: n_iters + 1]
                          for name in COMPONENTS)
            floor = 64 * np.finfo(np.float64).eps * largest
            assert factor_with_floor(report, floor) == report.contraction_factor, n_iters

    @pytest.mark.parametrize("params", PARAMS, ids=list(PARAMS))
    @pytest.mark.parametrize("grid", GRIDS, ids=list(GRIDS))
    def test_floor_keeps_the_factor_at_round_off(self, grid, params):
        # a small datum whose differences fall below the floor within six
        # iterations (3.9e-16 against a floor of 5.2e-16 on 3D 8^3, D = 0); the
        # exact largest iterate is read off the iterates of n_iters = 1..6
        grid, params = GRIDS[grid], PARAMS[params]
        init = small_data(grid)
        largest = 0.0
        for n_iters in range(1, 7):
            iterates, report = picard_iterate(init, 0.1, n_iters, params, n_time=32)
            largest = max([largest] + [sup_l2(it[name], grid) for it in iterates
                                       for name in COMPONENTS])
        floor = 64 * np.finfo(np.float64).eps * largest
        assert min(report.diffs) <= floor
        assert factor_with_floor(report, floor) == report.contraction_factor

    @pytest.mark.parametrize("disp", [SCHRODINGER, WAVE_PLUS, WAVE_MINUS],
                             ids=lambda d: d.kind)
    def test_retarded_convolution_matches_reference(self, disp):
        # the acceptance-09 sources: 16^2 on [-2.5, 2.5), seeds 9000 + k
        grid = Grid(2, 16, 2 * np.pi)
        for k in range(5):
            for n_time in (64, 128):
                # from values, bit for bit; from the source's coefficients,
                # which skip the spatial fftn of its values, to round-off
                q = random_band_limited(grid, 2.5, n_time, seed=9000 + k)
                dense = SpaceTimeField(grid, q.t_half, q.values)
                ref = reference_retarded_convolution(dense, disp).values
                np.testing.assert_array_equal(retarded_convolution(dense, disp).values, ref)
                new = retarded_convolution(q, disp).values
                assert np.max(np.abs(new - ref)) <= 1e-13 * np.max(np.abs(ref))
