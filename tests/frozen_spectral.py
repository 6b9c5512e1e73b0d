"""Frozen copies of the symbol builder and the band-limited generators that
the package had before its symbols moved into one cached table.

Tests use them as independent references: the symbols come back as plain
complex128 arrays, and apply_symbol multiplies by them with raw numpy FFTs.
"""

import numpy as np

from zrbr.bourgain import SpaceTimeField, smooth_cutoff
from zrbr.spectral import ComplexField


def reference_symbol(grid, name, **params):
    """Every branch of the former make_multiplier, as a complex128 array."""
    xi2 = grid.xi_squared
    absxi = grid.xi_modulus
    if name == "laplacian":
        sym = -xi2
    elif name == "omega":
        sym = absxi
    elif name == "omega_inv":
        sym = np.zeros(grid.shape)
        nz = absxi > 0
        sym[nz] = 1.0 / absxi[nz]
    elif name == "dx":
        xi1 = grid.frequencies()[0].astype(np.complex128)
        nyquist = np.zeros(grid.n, dtype=bool)
        nyquist[grid.n // 2] = True
        shape = [1] * grid.dim
        shape[0] = grid.n
        xi1[np.broadcast_to(nyquist.reshape(shape), grid.shape)] = 0.0
        sym = 1j * xi1
    elif name == "omega_inv_dx":
        xi1 = grid.frequencies()[0]
        sym = np.zeros(grid.shape)
        nz = absxi > 0
        sym[nz] = np.abs(xi1[nz]) / absxi[nz]
    elif name == "bracket_pow":
        sym = (1.0 + xi2) ** (params["s"] / 2.0)
    elif name == "schrodinger_group":
        sym = np.exp(-1j * float(params["t"]) * xi2)
    elif name == "wave_group":
        s = 1.0 if params.get("sign", "+") in ("+", 1) else -1.0
        sym = np.exp(-1j * s * float(params["t"]) * absxi)
    elif name == "wave_source_propagator":
        t = float(params["t"])
        sym = np.full(grid.shape, t, dtype=np.float64)
        nz = absxi > 0
        sym[nz] = np.sin(absxi[nz] * t) / absxi[nz]
    else:
        raise KeyError(name)
    return np.asarray(sym, dtype=np.complex128)


def apply_symbol(grid, name, f, **params):
    """The named symbol applied to f, returned in f's representation."""
    hat = f.values if f.space == "frequency" else np.fft.fftn(f.values, norm="ortho")
    out = reference_symbol(grid, name, **params) * hat
    if f.space == "frequency":
        return ComplexField(grid, out, "frequency")
    return ComplexField(grid, np.fft.ifftn(out, norm="ortho"), "physical")


def _low_modes(dim, band):
    rng_idx = range(-band, band + 1)
    if dim == 2:
        return [(i, j) for i in rng_idx for j in rng_idx]
    return [(i, j, k) for i in rng_idx for j in rng_idx for k in rng_idx]


def reference_initial_psi(grid, seed, amplitude, band=4):
    """The random-band-limited initial envelope, before any H1 rescaling."""
    rng = np.random.default_rng(seed)
    coeffs = np.zeros(grid.shape, dtype=np.complex128)
    for m in _low_modes(grid.dim, band):
        c = rng.normal() + 1j * rng.normal()
        coeffs[tuple(np.mod(m, grid.n))] = c
    vals = np.fft.ifftn(coeffs, norm="ortho")
    peak = np.max(np.abs(vals))
    if peak > 0:
        vals = vals * (amplitude / peak)
    return vals


def reference_random_band_limited(grid, t_half, n_time, seed, time_band=4, space_band=2,
                                  cutoff=True):
    rng = np.random.default_rng(seed)
    spatial_modes = _low_modes(grid.dim, space_band)
    coeffs = np.zeros((n_time,) + grid.shape, dtype=np.complex128)
    for m in range(-time_band, time_band + 1):
        for k in spatial_modes:
            c = rng.normal() + 1j * rng.normal()
            idx = (m % n_time,) + tuple(np.mod(k, grid.n))
            coeffs[idx] = c
    vals = np.fft.ifftn(coeffs, norm="forward")
    f = SpaceTimeField(grid, t_half, vals)
    if cutoff:
        lam = smooth_cutoff(f.times)
        f = SpaceTimeField(grid, t_half, lam.reshape((-1,) + (1,) * grid.dim) * vals)
    return f
