"""Frozen copy of half_wave_sources as it was while it took |psi|^2 and its
rate forward in two complex transforms, one each, and multiplied each by
its own symbol: G_+ = g0 (|psi|^2)^ + g1 (rate)^, H_+ likewise.

The symbols are those source_symbols built then, from the live symbol
table; the frozen Picard iteration and the packed-transform equivalence
test read the sources from here.
"""

import numpy as np

from zrbr.spectral import make_multiplier


def frozen_half_wave_sources(a2, psi, psi_t, grid, params):
    """Fourier coefficients of G_+ and H_+, given a2 = |psi|^2; no argument
    is changed."""
    axes = tuple(range(-grid.dim, 0))
    lap, winv, dx = (make_multiplier(grid, n) for n in ("laplacian", "omega_inv", "dx"))
    g = (-winv * lap, params.D * winv * dx)
    h = (-params.D * winv * dx * dx, winv * dx)
    a2_hat = a2.astype(np.complex128)
    np.fft.fftn(a2_hat, axes=axes, norm="ortho", out=a2_hat)
    rate_hat = np.multiply(psi.real, psi_t.real, dtype=np.complex128)
    rate_hat += psi.imag * psi_t.imag
    rate_hat *= 2.0
    np.fft.fftn(rate_hat, axes=axes, norm="ortho", out=rate_hat)
    g_hat = g[0] * a2_hat
    g_hat += g[1] * rate_hat
    h_hat = np.multiply(h[0], a2_hat, out=a2_hat)
    h_hat += np.multiply(h[1], rate_hat, out=rate_hat)
    return g_hat, h_hat
