"""States, reformulations, nonlinearities and conserved functionals.

The physical system couples a complex envelope psi with real acoustic
fields rho (density) and phi (velocity potential):

    i psi_t + Lap psi = sigma2 |psi|^2 psi + W rho psi + W D phi_x psi
    rho_t + Lap phi + D (|psi|^2)_x = 0
    phi_t + rho + |psi|^2 = 0

(coefficients already specialized to delta = sigma1 = M = 1, sigma3 = 0).
Its five-field half-wave form, in psi, rho_pm = rho ± i omega^{-1} rho_t and
varphi_pm = d/dx (phi ± i omega^{-1} phi_t), omega = |xi|, has d/dt rho_+ =
-i omega rho_+ - i G_+ from rho_tt - Lap rho = Lap|psi|^2 - D (|psi|^2)_xt.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ContractViolationError
from .spectral import (
    ComplexField,
    Grid,
    check_types,
    frozen_symbol,
    half_spectrum,
    half_width,
    hermitian_sum,
    make_multiplier,
    to_frequency,
    to_physical,
)


@dataclass(frozen=True)
class ModelParams:
    """Coupling coefficients; delta = sigma1 = M = 1 and sigma3 = 0 are fixed."""

    sigma2: float = 1.0
    W: float = 1.0
    D: float = 0.0
    epsilon: float = 1.0

    def __post_init__(self):
        check_types(self)
        if not self.W >= 0:
            raise ContractViolationError(f"W must be nonnegative, got {self.W}")
        if not self.epsilon > 0:
            raise ContractViolationError(f"epsilon must be positive, got {self.epsilon}")


@dataclass
class ZRState:
    """The triple (psi, rho, phi), each tagged physical or frequency.

    rho and phi are real fields: the integrator and energy drop any
    imaginary part they are given.
    """

    psi: ComplexField
    rho: ComplexField
    phi: ComplexField

    def __post_init__(self):
        for name in ("rho", "phi"):
            if getattr(self, name).grid != self.psi.grid:
                raise ContractViolationError(f"{name} lives on a different grid")

    @property
    def grid(self) -> Grid:
        return self.psi.grid

    def copy(self) -> "ZRState":
        return ZRState(self.psi.copy(), self.rho.copy(), self.phi.copy())


@dataclass
class PlusMinusState:
    """Five-field half-wave reformulation."""

    psi: ComplexField
    rho_plus: ComplexField
    rho_minus: ComplexField
    varphi_plus: ComplexField
    varphi_minus: ComplexField

    def __post_init__(self):
        grid = self.psi.grid
        for name in ("rho_plus", "rho_minus", "varphi_plus", "varphi_minus"):
            if getattr(self, name).grid != grid:
                raise ContractViolationError(f"{name} lives on a different grid")

    @property
    def grid(self) -> Grid:
        return self.psi.grid

    def fields(self) -> list[ComplexField]:
        return [self.psi, self.rho_plus, self.rho_minus, self.varphi_plus, self.varphi_minus]


def _half_wave_pair(grid: Grid, fh, ft_h, d_dx: bool):
    """Return g_pm = P(f ± i omega^{-1} f_t), P = d/dx when requested, from
    the spectra fh and ft_h of f and f_t."""
    corr = 1j * make_multiplier(grid, "omega_inv") * ft_h
    plus = fh + corr
    minus = fh - corr
    if d_dx:
        dx = make_multiplier(grid, "dx")
        plus = dx * plus
        minus = dx * minus
    return (
        to_physical(ComplexField(grid, plus, "frequency")),
        to_physical(ComplexField(grid, minus, "frequency")),
    )


def decompose(state: ZRState, params: ModelParams) -> PlusMinusState:
    """Split (rho, phi) into half-wave fields, with the rates the acoustic
    equations give: rho_t = -Lap phi - D (|psi|^2)_x, phi_t = -rho - |psi|^2.

    The zero mode of omega^{-1} is projected out, so the mean of rho_t and
    phi_t does not survive a decompose/recombine round trip.
    """
    grid = state.grid
    rho_h, phi_h = to_frequency(state.rho).values, to_frequency(state.phi).values
    a2_h = np.fft.fftn(np.abs(to_physical(state.psi).values) ** 2, norm="ortho")
    rho_t = -make_multiplier(grid, "laplacian") * phi_h
    rho_t -= params.D * make_multiplier(grid, "dx") * a2_h
    rp, rm = _half_wave_pair(grid, rho_h, rho_t, d_dx=False)
    vp, vm = _half_wave_pair(grid, phi_h, -rho_h - a2_h, d_dx=True)
    return PlusMinusState(state.psi.copy(), rp, rm, vp, vm)


def recombine(pm: PlusMinusState):
    """Invert decompose: returns (rho, varphi, rho_t, varphi_t).

    varphi is phi_x, not phi; the time derivatives come back with their
    spatial mean projected off.
    """
    grid = pm.grid
    omega = make_multiplier(grid, "omega")

    def pair(plus: ComplexField, minus: ComplexField):
        ph = to_frequency(plus).values
        mh = to_frequency(minus).values
        avg = 0.5 * (ph + mh)
        der = omega * (ph - mh) / 2j
        return (
            to_physical(ComplexField(grid, avg, "frequency")),
            to_physical(ComplexField(grid, der, "frequency")),
        )

    rho, rho_t = pair(pm.rho_plus, pm.rho_minus)
    varphi, varphi_t = pair(pm.varphi_plus, pm.varphi_minus)
    return rho, varphi, rho_t, varphi_t


# The source formulas act on value arrays whose trailing axes are the grid,
# so the same code serves one time slice (the ComplexField API below) and a
# block of (time, *grid) slices (evolution._picard_map).


@dataclass(frozen=True, eq=False)
class SourceSymbols:
    """Fourier symbols of the nonlinear sources on one grid, for one D.

    With Z the transform of |psi|^2 + i d/dt |psi|^2 and G_+ = g0 (|psi|^2)^
    + g1 (d/dt |psi|^2)^, g = ((g0 - i g1)/2, (g0 + i g1)/2); likewise h.
    """

    laplacian: np.ndarray  # -|xi|^2
    g: tuple  # G_+ = g[0] Z + g[1] conj Z(-xi)
    h: tuple  # H_+ = h[0] Z + h[1] conj Z(-xi)
    mirror: np.ndarray  # the flat index of -xi per xi


@lru_cache(maxsize=8)
def source_symbols(grid: Grid, D: float) -> SourceSymbols:
    lap, winv, dx = (make_multiplier(grid, n) for n in ("laplacian", "omega_inv", "dx"))
    g0, g1, h0, h1 = -winv * lap, D * winv * dx, -D * winv * dx * dx, winv * dx
    mirror = np.ravel_multi_index(-np.indices(grid.shape) % grid.n, grid.shape).ravel()
    mirror.setflags(write=False)  # shared, like the symbols
    return SourceSymbols(
        laplacian=lap,
        g=(frozen_symbol(0.5 * (g0 - 1j * g1)), frozen_symbol(0.5 * (g0 + 1j * g1))),
        h=(frozen_symbol(0.5 * (h0 - 1j * h1)), frozen_symbol(0.5 * (h0 + 1j * h1))),
        mirror=mirror,
    )


def coupled_source(psi, a2, acoustic, params: ModelParams, out=None):
    """F = (sigma2 |psi|^2 + (W/2) acoustic) psi, given a2 = |psi|^2 and the
    acoustic sum (rho_+ + rho_-) + D (varphi_+ + varphi_-), which is scaled
    in place; F goes to out (a new array by default)."""
    out = np.empty_like(psi) if out is None else out
    np.multiply(a2, params.sigma2, out=out.real)
    out.imag = 0.0
    out += np.multiply(acoustic, 0.5 * params.W, out=acoustic)
    out *= psi
    return out


def envelope_rate(psi_hat, F, grid: Grid, params: ModelParams, out=None):
    """psi_t = epsilon (i Lap psi - i F) from psi's coefficients psi_hat, with
    one inverse FFT over the spatial axes, into out (a new array by
    default; it may be psi_hat)."""
    axes = tuple(range(-grid.dim, 0))  # the trailing grid axes
    lap = np.multiply(source_symbols(grid, params.D).laplacian, psi_hat, out=out)
    np.fft.ifftn(lap, axes=axes, norm="ortho", out=lap)
    lap -= F
    lap *= params.epsilon * 1j
    return lap


def half_wave_sources(z, psi, psi_t, grid: Grid, params: ModelParams, out=None):
    """Fourier coefficients of the '+' sources G_+ and H_+, into the pair out
    (new arrays by default), given z whose real part holds |psi|^2.

    G_+ = -omega^{-1} Lap(|psi|^2) + D omega^{-1} d/dx d/dt(|psi|^2) and
    H_+ = -D omega^{-1} (|psi|^2)_xx + omega^{-1} (|psi|^2)_xt.  |psi|^2 and
    its rate 2 Re(conj(psi) psi_t) are real, so the FFT Z of z = |psi|^2 + i
    rate holds both spectra, (Z + conj Z(-xi))/2 and (Z - conj Z(-xi))/(2i),
    exactly on every mode (Numerical Recipes, section 12.3); the
    SourceSymbols pairs apply that split.  z and psi_t are overwritten.  The
    '-' sources are the negatives.
    """
    axes = tuple(range(-grid.dim, 0))
    sym = source_symbols(grid, params.D)
    g, h = np.empty((2,) + z.shape, dtype=np.complex128) if out is None else out
    np.multiply(psi.real, psi_t.real, out=z.imag)
    psi_t.imag *= psi.imag
    z.imag += psi_t.imag
    z.imag *= 2.0
    np.fft.fftn(z, axes=axes, norm="ortho", out=z)
    flat = z.shape[: z.ndim - grid.dim] + (-1,)
    # mode="clip" writes straight into out, where the default buffers a copy
    np.take(z.reshape(flat), sym.mirror, axis=-1, out=h.reshape(flat), mode="clip")
    np.conjugate(h, out=h)
    np.multiply(sym.g[1], h, out=g)
    h *= sym.h[1]
    g += np.multiply(sym.g[0], z, out=psi_t)
    z *= sym.h[0]
    h += z
    return g, h


def nonlinearity_F(pm: PlusMinusState, params: ModelParams) -> ComplexField:
    """Source of the envelope equation:
    F = sigma2 |psi|^2 psi + (W/2)(rho_+ + rho_-) psi + (W D/2)(varphi_+ + varphi_-) psi."""
    psi, rho_p, rho_m, varphi_p, varphi_m = (to_physical(f).values for f in pm.fields())
    acoustic = (rho_p + rho_m) + params.D * (varphi_p + varphi_m)
    return ComplexField(pm.grid, coupled_source(psi, np.abs(psi) ** 2, acoustic, params),
                        "physical")


def _half_wave_source(which, psi, psi_t, params, sign):
    if sign not in (1, -1, "+", "-"):
        raise ContractViolationError(f"sign must be +1 or -1, got {sign!r}")
    grid = psi.grid
    psi, psi_t = to_physical(psi).values, to_physical(psi_t).values
    z = np.abs(psi) ** 2 + 0j
    out = half_wave_sources(z, psi, psi_t.copy(), grid, params)[which]
    s = 1.0 if sign in (1, "+") else -1.0
    return ComplexField(grid, s * np.fft.ifftn(out, norm="ortho"), "physical")


def nonlinearity_G(psi: ComplexField, psi_t: ComplexField, params: ModelParams,
                   sign: int) -> ComplexField:
    """Half-wave density source: ∓ omega^{-1} Lap(|psi|^2) ± D omega^{-1} d/dx d/dt(|psi|^2).

    sign is +1 or -1.
    """
    return _half_wave_source(0, psi, psi_t, params, sign)


def nonlinearity_H(psi: ComplexField, psi_t: ComplexField, params: ModelParams,
                   sign: int) -> ComplexField:
    """Half-wave velocity source: ∓ D omega^{-1} (|psi|^2)_xx ± omega^{-1} (|psi|^2)_xt."""
    return _half_wave_source(1, psi, psi_t, params, sign)


def psi_time_derivative(pm: PlusMinusState, params: ModelParams) -> ComplexField:
    """psi_t from the envelope equation itself:

    psi_t = epsilon * (i Lap psi - i F)

    The epsilon scaling multiplies both the linear and nonlinear terms of
    the envelope equation; the acoustic equations are unaffected.
    """
    F = nonlinearity_F(pm, params).values
    psi_t = envelope_rate(to_frequency(pm.psi).values, F, pm.grid, params)
    return ComplexField(pm.grid, psi_t, "physical")


def mass(state: ZRState) -> float:
    """Quadrature of the integral of |psi|^2 over the box."""
    p = to_physical(state.psi).values
    return float(np.sum(np.abs(p) ** 2) * state.grid.cell_volume)


def energy(state: ZRState, params: ModelParams) -> float:
    """Conserved energy functional, specialized to delta=sigma1=M=1, sigma3=0:

    E = int |grad psi|^2 + (W/2) rho^2 + (W/2) |grad phi|^2
        + (sigma2/2) |psi|^4 + W rho |psi|^2 + D W |psi|^2 phi_x  dx

    rho and phi are taken as real: their imaginary parts are dropped.  The
    cost is whatever brings psi to both spaces and rho and phi to
    half-spectra, plus the rfftn of |psi|^2: 4 transforms for a state held
    in physical space, 2 for one held as coefficients (see _energy).
    """
    a2 = np.abs(to_physical(state.psi).values)
    a2 *= a2
    return _energy(state.grid, params, a2, to_frequency(state.psi).values,
                   half_spectrum(state.rho), half_spectrum(state.phi))[0]


def _energy(grid: Grid, params: ModelParams, a2, psi_h, rho_h, phi_h, work=None) -> tuple:
    """energy from a2 = |psi|^2 in physical space, psi's spectrum psi_h and
    the rfftn half-spectra rho_h and phi_h, and the sums of |rho_hat|^2 and
    |phi_hat|^2 over the whole lattice that it forms on the way; no argument
    is changed.  work (new by default) takes the temporaries and leaves
    real[1] free for a2.

    The gradient terms come by discrete Plancherel, int |grad f|^2 =
    cell_volume * sum |xi|^2 |f_hat|^2 (Nyquist modes included), and the
    terms in rho and phi_x by Parseval against the rfftn half-spectrum of
    |psi|^2: int |psi|^2 (rho + D phi_x) = cell_volume * Re sum
    conj((|psi|^2)_hat) (rho_hat + D dx phi_hat).  Sums over a half-spectrum
    weigh its last-axis columns 1, 2, ..., 2, 1.  |psi|^4 is summed in
    physical space.
    """
    work = work or _Workspace(psi_h.shape)
    real, (a2_h, mix_h), half = work.real[0], work.half, work.half_real
    np.fft.rfftn(a2, norm="ortho", out=a2_h)
    # dx is zero on the axis-0 Nyquist plane, where the derivative of a real
    # field has no real part.
    np.multiply(half_dx(grid), phi_h, out=mix_h)
    mix_h *= params.D
    mix_h += rho_h
    # Each sum is taken before the next one reuses real or half.
    phi2 = hermitian_sum(_abs2(phi_h, half))
    grad_phi2 = hermitian_sum(np.multiply(grid.half_xi_squared, half, out=half))
    rho2 = hermitian_sum(_abs2(rho_h, half))
    total = (
        np.sum(np.multiply(grid.xi_squared, _abs2(psi_h, real), out=real))
        + 0.5 * params.W * grad_phi2
        + 0.5 * params.sigma2 * np.sum(np.multiply(a2, a2, out=real))
        + params.W * (0.5 * rho2 + hermitian_sum(
            np.multiply(np.conjugate(a2_h, out=a2_h), mix_h, out=a2_h).real))
    )
    return float(total * grid.cell_volume), rho2, phi2


def _abs2(c, out) -> np.ndarray:
    """|c|^2 into the real array out."""
    return np.square(np.abs(c, out=out), out=out)


class _Workspace:
    """Scratch for Strang steps and rows on psi's spectrum shape: a complex field
    (a step's rotation, then a row's psi), two real ones and three half-spectra."""

    def __init__(self, shape: tuple):
        half = shape[:-1] + (shape[-1] // 2 + 1,)
        self.psi, self.real = np.empty(shape, np.complex128), np.empty((2,) + shape)
        self.half, self.half_real = np.empty((2,) + half, np.complex128), np.empty(half)


@lru_cache(maxsize=8)
def half_dx(grid: Grid) -> np.ndarray:
    """make_multiplier(grid, "dx") on the half-spectrum columns."""
    return frozen_symbol(half_width(make_multiplier(grid, "dx")))
