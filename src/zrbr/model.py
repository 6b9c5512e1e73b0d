"""States, reformulations, nonlinearities and conserved functionals.

The physical system couples a complex envelope psi with real acoustic
fields rho (density) and phi (velocity potential):

    i psi_t + Lap psi = sigma2 |psi|^2 psi + W rho psi + W D phi_x psi
    rho_t + Lap phi + D (|psi|^2)_x = 0
    phi_t + rho + |psi|^2 = 0

(coefficients already specialized to delta = sigma1 = M = 1, sigma3 = 0).
Decoupling the wave part and splitting into half-wave components gives the
five-field system in (psi, rho_+, rho_-, varphi_+, varphi_-), where
rho_pm = rho ± i omega^{-1} rho_t and varphi_pm = d/dx (phi ± i omega^{-1} phi_t).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ContractViolationError
from .spectral import (
    PHYSICAL,
    ComplexField,
    Grid,
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
    # When True, the half-wave sources G and H carry the extra linear
    # terms ∓ omega^{-1} rho_pm / ∓ omega^{-1} varphi_pm seen in one of the
    # two stated forms of the cutoff equations.  Off by default.
    extra_cutoff_terms: bool = False

    def __post_init__(self):
        for name in ("sigma2", "W", "D", "epsilon"):
            if not np.isfinite(getattr(self, name)):
                raise ContractViolationError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.W >= 0:
            raise ContractViolationError(f"W must be nonnegative, got {self.W}")
        if not self.epsilon > 0:
            raise ContractViolationError(f"epsilon must be positive, got {self.epsilon}")


@dataclass
class ZRState:
    """The triple (psi, rho, phi) with optional time-derivative slots.

    psi is tagged physical or frequency.  rho and phi are real fields: they
    may also be held as rfftn half-spectra (tag half), and the integrator
    and energy drop any imaginary part they are given.
    """

    psi: ComplexField
    rho: ComplexField
    phi: ComplexField
    rho_t: ComplexField | None = None
    phi_t: ComplexField | None = None

    def __post_init__(self):
        grid = self.psi.grid
        for name in ("rho", "phi", "rho_t", "phi_t"):
            f = getattr(self, name)
            if f is not None and f.grid != grid:
                raise ContractViolationError(f"{name} lives on a different grid")

    @property
    def grid(self) -> Grid:
        return self.psi.grid

    def copy(self) -> "ZRState":
        return ZRState(
            self.psi.copy(),
            self.rho.copy(),
            self.phi.copy(),
            None if self.rho_t is None else self.rho_t.copy(),
            None if self.phi_t is None else self.phi_t.copy(),
        )


@dataclass
class PlusMinusState:
    """Five-field half-wave reformulation."""

    psi: ComplexField
    rho_plus: ComplexField
    rho_minus: ComplexField
    varphi_plus: ComplexField
    varphi_minus: ComplexField

    @property
    def grid(self) -> Grid:
        return self.psi.grid

    def fields(self) -> list[ComplexField]:
        return [self.psi, self.rho_plus, self.rho_minus, self.varphi_plus, self.varphi_minus]


def _half_wave_pair(f: ComplexField, f_t: ComplexField, d_dx: bool):
    """Return g_pm = P(f ± i omega^{-1} f_t), P = d/dx when requested."""
    grid = f.grid
    fh = to_frequency(f).values
    ft_h = to_frequency(f_t).values
    winv = make_multiplier(grid, "omega_inv")
    corr = 1j * winv * ft_h
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


def decompose(state: ZRState) -> PlusMinusState:
    """Split (rho, phi) with their time derivatives into half-wave fields.

    The zero mode of omega^{-1} is projected out, so the mean of rho_t and
    phi_t does not survive a decompose/recombine round trip.
    """
    if state.rho_t is None or state.phi_t is None:
        raise ContractViolationError("decompose requires rho_t and phi_t slots")
    rp, rm = _half_wave_pair(state.rho, state.rho_t, d_dx=False)
    vp, vm = _half_wave_pair(state.phi, state.phi_t, d_dx=True)
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
# whole (n_time, *grid) stack (evolution.picard_iterate).


@dataclass(frozen=True, eq=False)
class SourceSymbols:
    """Fourier symbols of the nonlinear sources on one grid, for one D."""

    laplacian: np.ndarray  # -|xi|^2
    omega_inv: np.ndarray  # 1/|xi|, 0 at xi = 0
    g: tuple  # G_+ = g[0] (|psi|^2)^ + g[1] (d/dt |psi|^2)^
    h: tuple  # H_+ = h[0] (|psi|^2)^ + h[1] (d/dt |psi|^2)^


@lru_cache(maxsize=8)
def source_symbols(grid: Grid, D: float) -> SourceSymbols:
    lap, winv, dx = (make_multiplier(grid, n) for n in ("laplacian", "omega_inv", "dx"))
    return SourceSymbols(
        laplacian=lap,
        omega_inv=winv,
        g=(frozen_symbol(winv * lap), frozen_symbol(D * winv * dx)),
        h=(frozen_symbol(-D * winv * dx * dx), frozen_symbol(winv * dx)),
    )


def envelope_source(psi, rho_plus, rho_minus, varphi_plus, varphi_minus, params: ModelParams):
    """F = sigma2 |psi|^2 psi + (W/2)(rho_+ + rho_-) psi + (W D/2)(varphi_+ + varphi_-) psi."""
    return (
        params.sigma2 * np.abs(psi) ** 2 * psi
        + 0.5 * params.W * (rho_plus + rho_minus) * psi
        + 0.5 * params.W * params.D * (varphi_plus + varphi_minus) * psi
    )


def envelope_rate(psi, F, grid: Grid, params: ModelParams):
    """psi_t = epsilon (i Lap psi - i F), with two FFTs over the spatial axes."""
    axes = tuple(range(-grid.dim, 0))  # the trailing grid axes
    psi_hat = np.fft.fftn(psi, axes=axes, norm="ortho")
    lap = np.fft.ifftn(source_symbols(grid, params.D).laplacian * psi_hat, axes=axes, norm="ortho")
    lap -= F
    lap *= params.epsilon * 1j
    return lap


def half_wave_sources(psi, psi_t, grid: Grid, params: ModelParams):
    """Fourier coefficients of the '+' sources G_+ and H_+.

    G_+ = omega^{-1} Lap(|psi|^2) + D omega^{-1} d/dx d/dt(|psi|^2) and
    H_+ = -D omega^{-1} (|psi|^2)_xx + omega^{-1} (|psi|^2)_xt, from one FFT of
    |psi|^2 and one of its rate 2 Re(conj(psi) psi_t).  The '-' sources are
    their negatives; the extra cutoff terms are not included.
    """
    axes = tuple(range(-grid.dim, 0))
    sym = source_symbols(grid, params.D)
    a2_hat = np.fft.fftn(np.abs(psi) ** 2, axes=axes, norm="ortho")
    rate_hat = np.fft.fftn(2.0 * np.real(np.conj(psi) * psi_t), axes=axes, norm="ortho")
    return (
        sym.g[0] * a2_hat + sym.g[1] * rate_hat,
        sym.h[0] * a2_hat + sym.h[1] * rate_hat,
    )


def nonlinearity_F(pm: PlusMinusState, params: ModelParams) -> ComplexField:
    """Source of the envelope equation (see envelope_source)."""
    values = [to_physical(f).values for f in pm.fields()]
    return ComplexField(pm.grid, envelope_source(*values, params), "physical")


def _half_wave_source(which, psi, psi_t, params, sign, field, field_name):
    s = _check_sign(sign)
    grid = psi.grid
    psi, psi_t = to_physical(psi).values, to_physical(psi_t).values
    out = half_wave_sources(psi, psi_t, grid, params)[which]
    if params.extra_cutoff_terms:
        if field is None:
            raise ContractViolationError(f"extra_cutoff_terms requires {field_name}")
        out = out - source_symbols(grid, params.D).omega_inv * to_frequency(field).values
    return ComplexField(grid, s * np.fft.ifftn(out, norm="ortho"), "physical")


def nonlinearity_G(
    psi: ComplexField,
    psi_t: ComplexField,
    params: ModelParams,
    sign: int,
    rho_pm: ComplexField | None = None,
) -> ComplexField:
    """Half-wave density source: ± omega^{-1} Lap(|psi|^2) ± D omega^{-1} d/dx d/dt(|psi|^2).

    sign is +1 or -1.  With params.extra_cutoff_terms the term
    ∓ omega^{-1} rho_pm is added (rho_pm must then be supplied).
    """
    return _half_wave_source(0, psi, psi_t, params, sign, rho_pm, "rho_pm")


def nonlinearity_H(
    psi: ComplexField,
    psi_t: ComplexField,
    params: ModelParams,
    sign: int,
    varphi_pm: ComplexField | None = None,
) -> ComplexField:
    """Half-wave velocity source: ∓ D omega^{-1} (|psi|^2)_xx ± omega^{-1} (|psi|^2)_xt.

    With params.extra_cutoff_terms the term ∓ omega^{-1} varphi_pm is added.
    """
    return _half_wave_source(1, psi, psi_t, params, sign, varphi_pm, "varphi_pm")


def _check_sign(sign) -> float:
    if sign in (1, +1, "+"):
        return 1.0
    if sign in (-1, "-"):
        return -1.0
    raise ContractViolationError(f"sign must be +1 or -1, got {sign!r}")


def psi_time_derivative(pm: PlusMinusState, params: ModelParams) -> ComplexField:
    """psi_t from the envelope equation itself:

    psi_t = epsilon * (i Lap psi - i F)

    The epsilon scaling multiplies both the linear and nonlinear terms of
    the envelope equation; the acoustic equations are unaffected.
    """
    psi = to_physical(pm.psi).values
    F = nonlinearity_F(pm, params).values
    return ComplexField(pm.grid, envelope_rate(psi, F, pm.grid, params), "physical")


def mass(state: ZRState) -> float:
    """Quadrature of the integral of |psi|^2 over the box."""
    p = to_physical(state.psi).values
    return float(np.sum(np.abs(p) ** 2) * state.grid.cell_volume)


def energy(state: ZRState, params: ModelParams, spectral: ZRState | None = None) -> float:
    """Conserved energy functional, specialized to delta=sigma1=M=1, sigma3=0:

    E = int |grad psi|^2 + (W/2) rho^2 + (W/2) |grad phi|^2
        + (sigma2/2) |psi|^4 + W rho |psi|^2 + D W |psi|^2 phi_x  dx

    rho and phi are taken as real: their imaginary parts are dropped.  The
    gradient terms come by discrete Plancherel, int |grad f|^2 =
    cell_volume * sum |xi|^2 |f_hat|^2 (Nyquist modes included), and the
    terms in rho and phi_x by Parseval against the rfftn half-spectrum of
    |psi|^2: int |psi|^2 (rho + D phi_x) = cell_volume * Re sum
    conj((|psi|^2)_hat) (rho_hat + D dx phi_hat).  Sums over a half-spectrum
    weigh its last-axis columns 1, 2, ..., 2, 1.  |psi|^4 is summed in
    physical space, and so are rho's terms when rho is held there.

    spectral, the same state as coefficients, saves the forward transforms;
    rho and phi are read off their half-spectra whether they are held as
    half or full spectra.  The cost is the rfftn of |psi|^2 plus whatever
    brings psi to both spaces and phi to coefficients: 1 transform with
    spectral and psi in physical space, 2 for a state wholly held as
    coefficients, 3 for one wholly in physical space.
    """
    grid = state.grid
    coeffs = state if spectral is None else spectral
    psi = to_physical(state.psi).values
    psi_h = to_frequency(coeffs.psi).values
    phi_h = half_spectrum(coeffs.phi).values
    a2 = np.abs(psi)
    a2 *= a2
    a2_h = np.fft.rfftn(a2, norm="ortho")

    # dx is zero on the axis-0 Nyquist plane, where the derivative of a real
    # field has no real part.
    mix_h = half_dx(grid) * phi_h
    mix_h *= params.D
    if coeffs.rho.space == PHYSICAL:
        rho = coeffs.rho.values.real
        rho_terms = np.sum(rho * (0.5 * rho + a2))
    else:
        rho_h = half_spectrum(coeffs.rho).values
        rho_terms = 0.5 * hermitian_sum(np.abs(rho_h) ** 2)
        mix_h += rho_h
    total = (
        np.sum(grid.xi_squared * np.abs(psi_h) ** 2)
        + 0.5 * params.W * hermitian_sum(grid.half_xi_squared * np.abs(phi_h) ** 2)
        + 0.5 * params.sigma2 * np.sum(a2 * a2)
        + params.W * (rho_terms + hermitian_sum((np.conj(a2_h) * mix_h).real))
    )
    return float(total * grid.cell_volume)


@lru_cache(maxsize=8)
def half_dx(grid: Grid) -> np.ndarray:
    """make_multiplier(grid, "dx") on the half-spectrum columns."""
    return frozen_symbol(half_width(make_multiplier(grid, "dx")))
