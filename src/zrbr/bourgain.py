"""Discrete space-time norms and numerical checks of the linear and
Strichartz estimates.

A SpaceTimeField samples a complex field on a time window [-Tw, Tw) times
the periodic spatial box.  Every space-time transform here is the unitary
("ortho") lattice fftn.  The continuum transform is a constant multiple of
it up to a unimodular phase, so each norm applies its quadrature constants
as one scalar, and Plancherel matches the quadrature L2 norm:

    sum |hat|^2 dt dx^d  ==  sum |f|^2 dt dx^d

which makes the weighted norms converge as the window and grid refine.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import ConfigurationError, ContractViolationError, PreconditionError
from .exponents import strichartz_exponents
from .spectral import ComplexField, Grid, check_band, low_mode_coefficients

_TWO_PI = 2.0 * np.pi


def smooth_cutoff(t):
    """Even C-infinity bump: 1 on |t| <= 1, 0 on |t| >= 2.

    The bridge on 1 < |t| < 2 is the standard exp(-1/x) partition of unity.
    """
    t = np.asarray(t, dtype=np.float64)
    a = np.abs(t)
    out = np.zeros_like(a)
    out[a <= 1.0] = 1.0
    mid = (a > 1.0) & (a < 2.0)
    if np.any(mid):
        s = a[mid] - 1.0  # in (0, 1)
        f_up = np.exp(-1.0 / (1.0 - s))
        f_down = np.exp(-1.0 / s)
        out[mid] = f_up / (f_up + f_down)
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class Dispersion:
    """Dispersion relation: the weight sigma = tau + p(xi)."""

    kind: str  # schrodinger | wave_plus | wave_minus | none

    def phase(self, grid: Grid) -> np.ndarray:
        if self.kind == "schrodinger":
            return grid.xi_squared
        if self.kind == "wave_plus":
            return grid.xi_modulus
        if self.kind == "wave_minus":
            return -grid.xi_modulus
        if self.kind == "none":
            return np.zeros(grid.shape)
        raise ConfigurationError(f"unknown dispersion {self.kind!r}")


SCHRODINGER = Dispersion("schrodinger")
WAVE_PLUS = Dispersion("wave_plus")
WAVE_MINUS = Dispersion("wave_minus")
NO_DISPERSION = Dispersion("none")


def _check_window(t_half: float, n_time: int) -> None:
    if n_time % 2:
        raise ContractViolationError("number of time samples must be even")
    if not (np.isfinite(t_half) and t_half > 0):
        raise ContractViolationError(f"window half-width must be finite and > 0, got {t_half}")


class SpaceTimeField:
    """Complex field on a (time x space) lattice, physical-space values."""

    def __init__(self, grid: Grid, t_half: float, values: np.ndarray):
        values = np.asarray(values, dtype=np.complex128)
        if values.ndim != grid.dim + 1 or values.shape[1:] != grid.shape:
            raise ContractViolationError(
                f"values shape {values.shape} incompatible with grid {grid.shape}"
            )
        _check_window(t_half, values.shape[0])
        self.grid = grid
        self.t_half = float(t_half)
        self.values = values
        self.n_time = values.shape[0]

    @property
    def dt(self) -> float:
        return 2.0 * self.t_half / self.n_time

    @cached_property
    def times(self) -> np.ndarray:
        return -self.t_half + self.dt * np.arange(self.n_time)

    @property
    def zero_index(self) -> int:
        return self.n_time // 2

    def l2_norm(self) -> float:
        """Space-time L2 norm with quadrature weights."""
        return float(
            np.sqrt(np.sum(np.abs(self.values) ** 2) * self.dt * self.grid.cell_volume)
        )


# ---------------------------------------------------------------------------
# The lattice table
# ---------------------------------------------------------------------------

def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


class _Lattice:
    """The symbols of one space-time lattice and dispersion, shared read-only
    by every field sampled on it: the window times, the free group and the
    weights <xi>^{2s} <sigma>^{2b}.

    The norms read the unitary ("ortho") space-time transform of the values,
    hat, and apply their quadrature constants as one scalar each:
    sum |hat|^2 dt dx^d is the quadrature L2 norm (Plancherel).
    """

    def __init__(self, grid: Grid, t_half: float, n_time: int, disp: Dispersion):
        _check_window(t_half, n_time)
        self.grid = grid
        self.t_half = t_half
        self.n_time = n_time
        self.disp = disp
        self.dt = 2.0 * t_half / n_time
        self.phase = _frozen(disp.phase(grid))
        self.times = _frozen(-t_half + self.dt * np.arange(n_time))
        self.taus = _frozen(_TWO_PI * np.fft.fftfreq(n_time, d=self.dt))

    @cached_property
    def group(self) -> np.ndarray:
        """exp(-i t p(xi)) at every window time, shape (n_time, *grid)."""
        return _frozen(_group(self.times, self.phase))

    def weight(self, s: float, b: float) -> np.ndarray:
        """<xi>^{2s} <sigma>^{2b} with sigma = tau + p(xi), over the lattice."""
        return _weight(self.grid, self.t_half, self.n_time, self.disp, s, b)

    def xsb(self, hat: np.ndarray, s: float, b: float) -> float:
        """X^{s,b} norm of the field whose unitary space-time transform is hat."""
        a = np.abs(hat)
        a *= a
        a *= self.weight(s, b)
        return float(np.sqrt(np.sum(a) * self.dt * self.grid.cell_volume))

    def ys(self, hat: np.ndarray, s: float) -> float:
        """Y^s norm of the field whose unitary space-time transform is hat.

        <xi>^s does not depend on tau, so the l1 sum over tau of
        |hat| <xi>^s / <sigma> squares to <xi>^{2s} (sum |hat| / <sigma>)^2.
        The continuum transform, summed with dtau in tau and squared with
        dxi^d in xi, puts the constant dtau dt dx^d on the unitary hat.
        """
        inner = np.sum(np.abs(hat) * self.weight(0.5 * s, -0.5), axis=0)
        dtau = _TWO_PI / (2.0 * self.t_half)
        return float(np.sqrt(np.sum(inner**2) * dtau * self.dt * self.grid.cell_volume))


@lru_cache(maxsize=8)
def _lattice(grid: Grid, t_half: float, n_time: int, disp: Dispersion) -> _Lattice:
    """The table of one (grid, window, n_time, dispersion), built once."""
    return _Lattice(grid, t_half, n_time, disp)


# Each table's weights share one bound across all tables, so a sweep over
# (s, b) cannot grow the cache without limit.
@lru_cache(maxsize=16)
def _weight(grid: Grid, t_half: float, n_time: int, disp: Dispersion,
            s: float, b: float) -> np.ndarray:
    lat = _lattice(grid, t_half, n_time, disp)
    sigma = lat.taus.reshape((-1,) + (1,) * grid.dim) + lat.phase
    w = (1.0 + sigma**2) ** b
    w *= (1.0 + grid.xi_squared) ** s
    return _frozen(w)


def _check_finite(**exponents):
    for name, value in exponents.items():
        if not np.isfinite(value):
            raise ConfigurationError(f"{name} must be finite, got {value}")


def xsb_norm(f: SpaceTimeField, s: float, b: float, disp: Dispersion) -> float:
    """Bourgain norm: weighted space-time L2 of the transform."""
    _check_finite(s=s, b=b)
    lat = _lattice(f.grid, f.t_half, f.n_time, disp)
    return lat.xsb(np.fft.fftn(f.values, norm="ortho"), s, b)


def ys_norm(f: SpaceTimeField, s: float, disp: Dispersion) -> float:
    """l1 in tau of the weighted modulus, then l2 in xi, with cell weights."""
    _check_finite(s=s)
    lat = _lattice(f.grid, f.t_half, f.n_time, disp)
    return lat.ys(np.fft.fftn(f.values, norm="ortho"), s)


def mixed_norm(f: SpaceTimeField, q: float, r: float) -> float:
    """L^q in time of the L^r spatial norms, with quadrature weights.

    Infinite exponents are taken as the max over the corresponding axis.
    """
    for e in (q, r):
        if not (e >= 1.0 or np.isinf(e)):
            raise ConfigurationError(f"exponents must be >= 1 or inf, got {e}")
    a = np.abs(f.values)
    axes = tuple(range(1, f.grid.dim + 1))
    if np.isinf(r):
        per_slice = np.max(a, axis=axes)
    else:
        per_slice = (np.sum(a**r, axis=axes) * f.grid.cell_volume) ** (1.0 / r)
    if np.isinf(q):
        return float(np.max(per_slice))
    return float((np.sum(per_slice**q) * f.dt) ** (1.0 / q))


def spatial_sobolev_sup(f: SpaceTimeField, s: float) -> float:
    """sup over time slices of the spatial H^s norm."""
    _check_finite(s=s)
    axes = tuple(range(1, f.grid.dim + 1))
    hats = np.fft.fftn(f.values, axes=axes, norm="ortho")
    w = (1.0 + f.grid.xi_squared) ** s
    norms = np.sqrt(np.sum(w[None] * np.abs(hats) ** 2, axis=axes) * f.grid.cell_volume)
    return float(np.max(norms))


# ---------------------------------------------------------------------------
# Field constructors
# ---------------------------------------------------------------------------

def free_evolution(g: ComplexField, t_half: float, n_time: int, disp: Dispersion) -> SpaceTimeField:
    """Space-time field of the free flow exp(-i t p(-i grad)) g."""
    grid = g.grid
    ghat = np.fft.fftn(np.asarray(g.values, dtype=np.complex128), norm="ortho") \
        if g.space == "physical" else g.values
    group = _lattice(grid, float(t_half), n_time, disp).group
    vals = np.fft.ifftn(group * ghat[None], axes=tuple(range(1, grid.dim + 1)), norm="ortho")
    return SpaceTimeField(grid, t_half, vals)


def random_band_limited(
    grid: Grid,
    t_half: float,
    n_time: int,
    seed: int,
    time_band: int = 4,
    space_band: int = 2,
    cutoff: bool = True,
) -> SpaceTimeField:
    """Random space-time field with seeded coefficients on low (tau, xi) modes.

    The coefficient draw depends only on the bands and the seed, so refining
    n_time (or the spatial grid) samples the same underlying field; that is
    what makes refinement-stability checks meaningful.
    """
    check_band(time_band, "time_band")
    check_band(space_band, "space_band")
    if n_time <= 2 * time_band or grid.n <= 2 * space_band:
        raise ConfigurationError("lattice too coarse for the requested bands")
    rng = np.random.default_rng(seed)
    coeffs = np.zeros((n_time,) + grid.shape, dtype=np.complex128)
    coeffs[np.arange(-time_band, time_band + 1) % n_time] = low_mode_coefficients(
        grid, rng, space_band, (2 * time_band + 1,))
    # values = sum c exp(i (tau_m t + xi_k x)) up to fixed per-mode phases;
    # "forward" normalization keeps the sum unscaled, so refining the lattice
    # samples the same continuum field.
    vals = np.fft.ifftn(coeffs, norm="forward")
    f = SpaceTimeField(grid, t_half, vals)
    if cutoff:
        lam = smooth_cutoff(f.times)
        f = SpaceTimeField(grid, t_half, lam.reshape((-1,) + (1,) * grid.dim) * vals)
    return f


# ---------------------------------------------------------------------------
# Retarded convolution and the linear estimate check
# ---------------------------------------------------------------------------

# The space-time kernel shared with evolution.picard_iterate: the free group
# exp(-i t p) and the anchored trapezoid retarded integral.  Both act on
# spatial Fourier coefficients sampled at the window times, pointwise in xi,
# so a caller that starts from spatial coefficients needs no space-time round
# trip: linear_estimate_ratio ends with a time-axis transform into the norms,
# picard_iterate with a spatial inverse per component.  Here the group comes
# from the lattice table; picard_iterate builds its own for its window and
# phases.

def _group(times: np.ndarray, phase: np.ndarray) -> np.ndarray:
    """exp(-i t p(xi)) at every time sample, shape (n_time, *grid)."""
    return np.exp(-1j * times.reshape((-1,) + (1,) * phase.ndim) * phase[None])


def _retarded(q_hat: np.ndarray, group: np.ndarray, dt: float, zero_index: int) -> np.ndarray:
    """int_0^t exp(-i (t-s) p) q_hat(s) ds, given group = exp(-i t p).

    Trapezoid rule in s, anchored so the integral vanishes at zero_index.
    q_hat is left untouched.
    """
    integrand = np.conj(group) * q_hat
    seg = integrand[1:] + integrand[:-1]
    seg *= 0.5 * dt
    integrand[0] = 0.0
    np.cumsum(seg, axis=0, out=integrand[1:])
    integrand -= integrand[zero_index]
    return np.multiply(group, integrand, out=integrand)


def retarded_convolution(q: SpaceTimeField, disp: Dispersion) -> SpaceTimeField:
    """int_0^t exp(-i (t-s) p) q(s) ds, trapezoid in s, anchored at t = 0."""
    grid = q.grid
    axes = tuple(range(1, grid.dim + 1))
    q_hat = np.fft.fftn(q.values, axes=axes, norm="ortho")
    out_hat = _retarded(q_hat, _lattice(grid, q.t_half, q.n_time, disp).group, q.dt,
                        q.zero_index)
    return SpaceTimeField(grid, q.t_half, np.fft.ifftn(out_hat, axes=axes, norm="ortho"))


@dataclass
class RatioReport:
    ratios: list
    max_ratio: float
    meta: dict


def linear_estimate_ratio(
    q: SpaceTimeField,
    T: float,
    s: float,
    b: float,
    b_prime: float,
    disp: Dispersion,
    include_y_term: bool = True,
) -> float:
    """LHS/RHS for one source field q.

    LHS = || lambda_T * (U *_R q) ||_{X^{s,b}};
    RHS = T^{1-b+b'} ||q||_{X^{s,b'}} (+ T^{1/2-b} ||q||_{Y^s} when the Y
    term is included, i.e. when b' <= -1/2 would make the X term alone fail).
    """
    _check_finite(s=s, b=b, b_prime=b_prime)
    if not (b_prime <= 0.0 <= b <= b_prime + 1.0):
        raise PreconditionError(f"need b' <= 0 <= b <= b'+1, got b={b}, b'={b_prime}")
    if not (0.0 < T <= 1.0):
        raise PreconditionError(f"need 0 < T <= 1, got T={T}")
    # Spatial coefficients end to end: the retarded integral and lambda_T act
    # on them slice by slice, and one time-axis transform each of the
    # convolution and of q completes the space-time transforms the norms read.
    lat = _lattice(q.grid, q.t_half, q.n_time, disp)
    q_hat = np.fft.fftn(q.values, axes=tuple(range(1, q.grid.dim + 1)), norm="ortho")
    conv = _retarded(q_hat, lat.group, lat.dt, q.zero_index)
    conv *= smooth_cutoff(lat.times / T).reshape((-1,) + (1,) * q.grid.dim)
    lhs = lat.xsb(np.fft.fftn(conv, axes=(0,), norm="ortho"), s, b)
    del conv
    q_hat = np.fft.fftn(q_hat, axes=(0,), norm="ortho")
    rhs = T ** (1.0 - b + b_prime) * lat.xsb(q_hat, s, b_prime)
    if include_y_term:
        rhs += T ** (0.5 - b) * lat.ys(q_hat, s)
    if rhs == 0.0:
        return 0.0
    return lhs / rhs


def check_linear_estimate(
    sources: list,
    T: float,
    s: float,
    b: float,
    b_prime: float,
    disp: Dispersion,
    include_y_term: bool = True,
) -> RatioReport:
    """Batch version: max LHS/RHS ratio over a list of source fields."""
    ratios = [
        linear_estimate_ratio(q, T, s, b, b_prime, disp, include_y_term) for q in sources
    ]
    return RatioReport(
        ratios=ratios,
        max_ratio=max(ratios) if ratios else 0.0,
        meta={"T": T, "s": s, "b": b, "b_prime": b_prime, "disp": disp.kind,
              "include_y_term": include_y_term},
    )


# ---------------------------------------------------------------------------
# Strichartz estimate check
# ---------------------------------------------------------------------------

@dataclass
class StrichartzReport:
    q: float
    r: float
    theta: float
    lhs: float
    v_norm: float
    ratio: float


def strichartz_ratio(
    v: SpaceTimeField,
    a: float,
    a_prime: float,
    gamma: float,
    eta: float,
    b0: float,
    T: float,
    disp: Dispersion = SCHRODINGER,
) -> StrichartzReport:
    """Numerical check of the dispersive smoothing bound.

    The time-support hypothesis is enforced by pushing v through its inverse
    a'-weighting, multiplying by lambda_T, and pulling back; the reported
    ratio is LHS / ||v||_2 for the adjusted v.  The unitary transform's
    missing continuum constant cancels in each round trip, and its missing
    phase only rolls the smoothed field by half a period on each axis, which
    the mixed norm over the whole periodic lattice does not see.
    """
    if not (0.0 < T <= 1.0):
        raise PreconditionError(f"need 0 < T <= 1, got T={T}")
    wave = disp.kind in ("wave_plus", "wave_minus")
    exps = strichartz_exponents(a, a_prime, gamma, eta, b0, v.grid.dim, wave=wave)
    if not exps.feasible:
        raise PreconditionError(f"hypothesis violated: {exps.violated}")

    lat = _lattice(v.grid, v.t_half, v.n_time, disp)
    # enforce support in |t| <= 2T of F^{-1}(<sigma>^{-a'} vhat)
    h = np.fft.ifftn(np.fft.fftn(v.values, norm="ortho") * lat.weight(0.0, -0.5 * a_prime),
                     norm="ortho")
    h *= smooth_cutoff(lat.times / T).reshape((-1,) + (1,) * v.grid.dim)
    hat = np.fft.fftn(h, norm="ortho")
    hat *= lat.weight(0.0, 0.5 * a_prime)

    smoothed = np.fft.ifftn(np.abs(hat) * lat.weight(0.0, -0.5 * a), norm="ortho")
    lhs = mixed_norm(SpaceTimeField(v.grid, v.t_half, smoothed), exps.q, exps.r)
    v_norm = lat.xsb(hat, 0.0, 0.0)
    ratio = 0.0 if v_norm == 0.0 else lhs / v_norm
    return StrichartzReport(exps.q, exps.r, exps.theta, lhs, v_norm, ratio)
