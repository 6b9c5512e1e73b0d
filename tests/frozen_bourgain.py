"""Frozen copies of the space-time norms, the linear-estimate check and the
band-limited generators as they were before the norms read their weights
from the cached lattice table, and of the Strichartz check as it was before
it moved to the unitary lattice transform.

Every symbol is rebuilt per call, the norms and the Strichartz check take
the continuum-normalized transform with its phase shift, and
linear_estimate_ratio goes through physical space.  Fields are read only
through their values, grid and window, so these copies do not depend on
SpaceTimeField's helpers.
"""

import itertools

import numpy as np

from zrbr.bourgain import SCHRODINGER, SpaceTimeField, StrichartzReport, mixed_norm, smooth_cutoff
from zrbr.errors import PreconditionError
from zrbr.exponents import strichartz_exponents

_TWO_PI = 2.0 * np.pi


def _times(f):
    dt = 2.0 * f.t_half / f.n_time
    return -f.t_half + dt * np.arange(f.n_time)


def _taus(f):
    return _TWO_PI * np.fft.fftfreq(f.n_time, d=2.0 * f.t_half / f.n_time)


def _phase_shift(f):
    t0 = _times(f)[0]
    x0 = f.grid.axis_coordinates[0]
    phase = _taus(f).reshape((-1,) + (1,) * f.grid.dim) * t0
    for xi in f.grid.frequencies():
        phase = phase + xi[None] * x0
    return np.exp(-1j * phase)


def spacetime_hat(f):
    dt = 2.0 * f.t_half / f.n_time
    factor = (dt * f.grid.cell_volume) / _TWO_PI ** ((f.grid.dim + 1) / 2.0)
    return np.fft.fftn(f.values, norm=None) * _phase_shift(f) * factor


def from_spacetime_hat(grid, t_half, hat):
    proto = SpaceTimeField(grid, t_half, np.zeros_like(hat))
    dt = 2.0 * t_half / proto.n_time
    factor = (dt * grid.cell_volume) / _TWO_PI ** ((grid.dim + 1) / 2.0)
    values = np.fft.ifftn(hat / _phase_shift(proto) / factor, norm=None)
    return SpaceTimeField(grid, t_half, values)


def _weights(f, disp):
    bxi = np.sqrt(1.0 + f.grid.xi_squared)
    p = disp.phase(f.grid)
    sigma = _taus(f).reshape((-1,) + (1,) * f.grid.dim) + p[None]
    bsigma = np.sqrt(1.0 + sigma**2)
    return bxi, bsigma


def xsb_norm(f, s, b, disp):
    hat = spacetime_hat(f)
    bxi, bsigma = _weights(f, disp)
    total = np.sum(bxi[None] ** (2.0 * s) * bsigma ** (2.0 * b) * np.abs(hat) ** 2)
    cell_weight = (_TWO_PI / (2.0 * f.t_half)) * (_TWO_PI / f.grid.length) ** f.grid.dim
    return float(np.sqrt(total * cell_weight))


def ys_norm(f, s, disp):
    hat = spacetime_hat(f)
    bxi, bsigma = _weights(f, disp)
    inner = np.sum(np.abs(hat) / bsigma, axis=0) * (_TWO_PI / (2.0 * f.t_half))
    total = np.sum(bxi ** (2.0 * s) * inner**2) * (_TWO_PI / f.grid.length) ** f.grid.dim
    return float(np.sqrt(total))


def _group(times, phase):
    return np.exp(-1j * times.reshape((-1,) + (1,) * phase.ndim) * phase[None])


def _retarded(q_hat, group, dt, zero_index):
    integrand = np.conj(group) * q_hat
    seg = integrand[1:] + integrand[:-1]
    seg *= 0.5 * dt
    integrand[0] = 0.0
    np.cumsum(seg, axis=0, out=integrand[1:])
    integrand -= integrand[zero_index]
    return np.multiply(group, integrand, out=integrand)


def retarded_convolution(q, disp):
    axes = tuple(range(1, q.grid.dim + 1))
    q_hat = np.fft.fftn(q.values, axes=axes, norm="ortho")
    dt = 2.0 * q.t_half / q.n_time
    out_hat = _retarded(q_hat, _group(_times(q), disp.phase(q.grid)), dt, q.n_time // 2)
    return SpaceTimeField(q.grid, q.t_half, np.fft.ifftn(out_hat, axes=axes, norm="ortho"))


def linear_estimate_ratio(q, T, s, b, b_prime, disp, include_y_term=True):
    conv = retarded_convolution(q, disp)
    lam_T = smooth_cutoff(_times(conv) / T)
    lhs_field = SpaceTimeField(
        q.grid, q.t_half, lam_T.reshape((-1,) + (1,) * q.grid.dim) * conv.values
    )
    lhs = xsb_norm(lhs_field, s, b, disp)
    rhs = T ** (1.0 - b + b_prime) * xsb_norm(q, s, b_prime, disp)
    if include_y_term:
        rhs += T ** (0.5 - b) * ys_norm(q, s, disp)
    if rhs == 0.0:
        return 0.0
    return lhs / rhs


def low_mode_coefficients(grid, rng, band):
    coeffs = np.zeros(grid.shape, dtype=np.complex128)
    for k in itertools.product(range(-band, band + 1), repeat=grid.dim):
        coeffs[tuple(np.mod(k, grid.n))] = rng.normal() + 1j * rng.normal()
    return coeffs


def random_band_limited(grid, t_half, n_time, seed, time_band=4, space_band=2, cutoff=True):
    rng = np.random.default_rng(seed)
    coeffs = np.zeros((n_time,) + grid.shape, dtype=np.complex128)
    for m in range(-time_band, time_band + 1):
        coeffs[m % n_time] = low_mode_coefficients(grid, rng, space_band)
    vals = np.fft.ifftn(coeffs, norm="forward")
    f = SpaceTimeField(grid, t_half, vals)
    if cutoff:
        lam = smooth_cutoff(_times(f))
        f = SpaceTimeField(grid, t_half, lam.reshape((-1,) + (1,) * grid.dim) * vals)
    return f


def _sigma_weight(f, disp, b):
    sigma = _taus(f).reshape((-1,) + (1,) * f.grid.dim) + disp.phase(f.grid)
    return (1.0 + sigma**2) ** b


def strichartz_ratio(v, a, a_prime, gamma, eta, b0, T, disp=SCHRODINGER):
    wave = disp.kind in ("wave_plus", "wave_minus")
    exps = strichartz_exponents(a, a_prime, gamma, eta, b0, v.grid.dim, wave=wave)
    if not exps.feasible:
        raise PreconditionError(f"hypothesis violated: {exps.violated}")

    hat = spacetime_hat(v)
    h = from_spacetime_hat(v.grid, v.t_half, hat * _sigma_weight(v, disp, -0.5 * a_prime))
    lam_T = smooth_cutoff(_times(h) / T).reshape((-1,) + (1,) * v.grid.dim)
    h_cut = SpaceTimeField(v.grid, v.t_half, lam_T * h.values)
    hat_new = spacetime_hat(h_cut) * _sigma_weight(v, disp, 0.5 * a_prime)
    v_new = from_spacetime_hat(v.grid, v.t_half, hat_new)

    smoothed = from_spacetime_hat(
        v.grid, v.t_half, np.abs(hat_new) * _sigma_weight(v, disp, -0.5 * a)
    )
    lhs = mixed_norm(smoothed, exps.q, exps.r)
    dt = 2.0 * v.t_half / v.n_time
    v_norm = float(np.sqrt(np.sum(np.abs(v_new.values) ** 2) * dt * v.grid.cell_volume))
    ratio = 0.0 if v_norm == 0.0 else lhs / v_norm
    return StrichartzReport(exps.q, exps.r, exps.theta, lhs, v_norm, ratio)
