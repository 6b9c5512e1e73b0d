"""Discrete space-time norms and numerical checks of the linear and
Strichartz estimates.

A SpaceTimeField samples a complex field on a time window [-Tw, Tw) times
the periodic spatial box, held as its unitary spatial Fourier coefficients
at the window times.  X^{s,b} weighs a time transform of those (Tao, CBMS
106, 2.6), so the norms take one fft along time and no spatial transform.
Every transform here is unitary ("ortho").  The continuum transform is a
constant multiple of it up to a unimodular phase, so each norm applies its
quadrature constants as one scalar, and Plancherel matches the quadrature L2 norm:

    sum |hat|^2 dt dx^d  ==  sum |f|^2 dt dx^d

which makes the weighted norms converge as the window and grid refine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import ConfigurationError, ContractViolationError, PreconditionError
from .exponents import strichartz_exponents
from .spectral import ComplexField, Grid, check_count, check_number, low_mode_draws, \
    to_frequency

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


def _number(value, name: str) -> float:
    """value as a float by check_number's rule, except that a non-finite
    float passes, for the range check after it to refuse."""
    if isinstance(value, (float, np.floating)) and not math.isfinite(value):
        return float(value)
    return check_number(value, name)


def _check_window(t_half: float, n_time: int) -> float:
    """t_half as a float, once it and n_time make a window."""
    check_count(n_time, "n_time", 2)
    if n_time % 2:
        raise ContractViolationError("number of time samples must be even")
    if not (math.isfinite(t_half := _number(t_half, "t_half")) and t_half > 0):
        raise ContractViolationError(f"window half-width must be finite and > 0, got {t_half}")
    return t_half


class SpaceTimeField:
    """Complex field on a (time x space) lattice, held as its unitary spatial
    Fourier coefficients at the window times: _support()'s block, on the
    columns cols of the (n_time, N) flattening (every column if cols is
    None), and exactly 0 off them.  The norms read block alone; spatial_hat
    (dense, read-only) and values (its spatial ifftn) are built on first read.

    A field built from values keeps them, not to be changed in place once
    spatial_hat, their spatial fftn, is read.
    """

    def __init__(self, grid: Grid, t_half: float, values: np.ndarray):
        values = np.asarray(values, dtype=np.complex128)
        if values.ndim != grid.dim + 1 or values.shape[1:] != grid.shape:
            raise ContractViolationError(
                f"values shape {values.shape} incompatible with grid {grid.shape}"
            )
        self.grid, self.n_time = grid, values.shape[0]
        self.t_half = _check_window(t_half, self.n_time)
        self.values, self._block = values, None  # _support() finds the block

    @classmethod
    def _of(cls, grid: Grid, t_half: float, block: np.ndarray, cols=None) -> SpaceTimeField:
        """The field whose spatial coefficients are block on the columns cols,
        shape (n_time, cols.size); on every column when cols is None, shape
        (n_time, *grid) or (n_time, N).  block is kept, read-only."""
        f = cls.__new__(cls)
        f.grid, f.t_half, f.n_time = grid, t_half, block.shape[0]
        f._cols, f._block = cols, _frozen(block).reshape(f.n_time, -1)
        return f

    @property
    def dt(self) -> float:
        return 2.0 * self.t_half / self.n_time

    @cached_property
    def times(self) -> np.ndarray:
        return -self.t_half + self.dt * np.arange(self.n_time)

    @property
    def zero_index(self) -> int:
        return self.n_time // 2

    def _support(self) -> tuple:
        """(cols, block); a field built from values takes cols once, as the
        columns of spatial_hat nonzero at some time (block a view if all)."""
        if self._block is None:
            hat = self.spatial_hat.reshape(self.n_time, -1)
            cols = np.flatnonzero(np.any(hat, axis=0))
            self._cols, self._block = (None, hat) if cols.size == hat.shape[1] \
                else (cols, hat[:, cols])
        return self._cols, self._block

    @cached_property
    def spatial_hat(self) -> np.ndarray:
        """Unitary spatial Fourier coefficients at every time, read-only."""
        shape = (self.n_time,) + self.grid.shape
        if self._block is None:  # built from values, support not yet found
            axes = tuple(range(1, self.grid.dim + 1))
            return _frozen(np.fft.fftn(self.values, axes=axes, norm="ortho"))
        if self._cols is None:
            return self._block.reshape(shape)
        hat = np.zeros(shape, dtype=np.complex128)
        hat.reshape(self.n_time, -1)[:, self._cols] = self._block
        return _frozen(hat)

    @cached_property
    def values(self) -> np.ndarray:
        """Physical values at the window times: the spatial ifftn of
        spatial_hat (a field built from values holds its own)."""
        return np.fft.ifftn(self.spatial_hat, axes=range(1, self.grid.dim + 1), norm="ortho")

    def l2_norm(self) -> float:
        """Space-time L2 norm with quadrature weights, by Plancherel."""
        return float(np.sqrt(np.sum(np.abs(self._support()[1]) ** 2)
                             * self.dt * self.grid.cell_volume))


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

    The norms read hat, the time transform of a field's spatial coefficients,
    and apply their quadrature constants as one scalar each:
    sum |hat|^2 dt dx^d is the quadrature L2 norm (Plancherel).
    """

    def __init__(self, grid: Grid, t_half: float, n_time: int, disp: Dispersion):
        if not isinstance(disp, Dispersion):
            raise ConfigurationError(f"disp must be a Dispersion, got {disp!r}")
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

    def on(self, cols, s=None, b=None) -> np.ndarray:
        """The group (s None) or the weight (s, b) on the spatial columns
        cols of the (n_time, N) flattening, read-only; on every column when
        cols is None, as a view."""
        if cols is None:
            table = self.group if s is None else self.weight(s, b)
            return table.reshape(self.n_time, -1)
        return _gathered(self, cols.tobytes(), s, b)

    def xsb(self, hat: np.ndarray, s: float, b: float, cols=None) -> float:
        """X^{s,b} norm of the field whose unitary space-time transform is hat,
        given on the columns cols if hat holds only those (zero elsewhere)."""
        with np.errstate(over="ignore", invalid="ignore"):
            a = np.abs(hat)
            a *= a
            a *= self.on(cols, s, b).reshape(a.shape)
            norm = float(np.sqrt(np.sum(a) * self.dt * self.grid.cell_volume))
        return _finite_norm(norm, "X^{s,b} norm", s=s, b=b)

    def ys(self, hat: np.ndarray, s: float, cols=None) -> float:
        """Y^s norm of the field whose unitary space-time transform is hat.

        <xi>^s does not depend on tau, so the l1 sum over tau of
        |hat| <xi>^s / <sigma> squares to <xi>^{2s} (sum |hat| / <sigma>)^2.
        The continuum transform, summed with dtau in tau and squared with
        dxi^d in xi, puts the constant dtau dt dx^d on the unitary hat.
        """
        dtau = _TWO_PI / (2.0 * self.t_half)
        with np.errstate(over="ignore", invalid="ignore"):
            inner = np.sum(np.abs(hat) * self.on(cols, 0.5 * s, -0.5).reshape(hat.shape),
                           axis=0)
            norm = float(np.sqrt(np.sum(inner**2) * dtau * self.dt * self.grid.cell_volume))
        return _finite_norm(norm, "Y^s norm", s=s)


@lru_cache(maxsize=16)
def _window_cutoff(t_half: float, n_time: int, T: float) -> np.ndarray:
    """smooth_cutoff(t / T) at the window times t, read-only."""
    return _frozen(smooth_cutoff((-t_half + 2.0 * t_half / n_time * np.arange(n_time)) / T))


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


# The tables on one support's columns, shared the same way.  Each is the
# fancy-index result itself, not a contiguous copy: its layout fixes the
# order in which np.sum adds, and a copy moves ratios by an ulp.
@lru_cache(maxsize=16)
def _gathered(lat: _Lattice, support: bytes, s, b) -> np.ndarray:
    table = lat.group if s is None else lat.weight(s, b)
    return _frozen(table.reshape(lat.n_time, -1)[:, np.frombuffer(support, dtype=np.intp)])


def _check_finite(**exponents):
    for name, value in exponents.items():
        if not math.isfinite(_number(value, name)):
            raise ConfigurationError(f"{name} must be finite, got {value}")


def _finite_norm(value: float, name: str, **exponents) -> float:
    """value if it is finite; a ConfigurationError naming the exponents
    when a weight, or the weighted sum, overflows float64."""
    if not math.isfinite(value):
        at = ", ".join(f"{key}={e:g}" for key, e in exponents.items())
        raise ConfigurationError(f"{name} overflows float64 at {at}")
    return value


def xsb_norm(f: SpaceTimeField, s: float, b: float, disp: Dispersion) -> float:
    """Bourgain norm: weighted space-time L2 of the transform."""
    _check_finite(s=s, b=b)
    lat = _lattice(f.grid, f.t_half, f.n_time, disp)
    cols, block = f._support()
    return lat.xsb(np.fft.fft(block, axis=0, norm="ortho"), s, b, cols)


def ys_norm(f: SpaceTimeField, s: float, disp: Dispersion) -> float:
    """l1 in tau of the weighted modulus, then l2 in xi, with cell weights."""
    _check_finite(s=s)
    lat = _lattice(f.grid, f.t_half, f.n_time, disp)
    cols, block = f._support()
    return lat.ys(np.fft.fft(block, axis=0, norm="ortho"), s, cols)


def mixed_norm(f: SpaceTimeField, q: float, r: float) -> float:
    """L^q in time of the L^r spatial norms, with quadrature weights.

    Infinite exponents are taken as the max over the corresponding axis.
    """
    for name, e in (("q", q), ("r", r)):
        if not (_number(e, name) >= 1.0 or e == math.inf):
            raise ConfigurationError(f"{name} must be >= 1 or inf, got {e}")
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
    cols, block = f._support()
    xi2 = f.grid.xi_squared.reshape(-1)
    with np.errstate(over="ignore", invalid="ignore"):
        w = (1.0 + (xi2 if cols is None else xi2[cols])) ** s
        norms = np.sqrt(np.sum(w * np.abs(block) ** 2, axis=1) * f.grid.cell_volume)
    return _finite_norm(float(np.max(norms)), "sup_t H^s norm", s=s)


# ---------------------------------------------------------------------------
# Field constructors
# ---------------------------------------------------------------------------

def free_evolution(g: ComplexField, t_half: float, n_time: int, disp: Dispersion) -> SpaceTimeField:
    """Space-time field of the free flow exp(-i t p(-i grad)) g."""
    t_half = _check_window(t_half, n_time)
    group = _lattice(g.grid, t_half, n_time, disp).group
    return SpaceTimeField._of(g.grid, t_half, group * to_frequency(g).values[None])


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
    what makes refinement-stability checks meaningful.  The field holds its
    spatial coefficients on the band's columns only.
    """
    check_count(time_band, "time_band")
    check_count(space_band, "space_band")
    check_count(seed, "seed")
    t_half = _check_window(t_half, n_time)
    if n_time <= 2 * time_band or grid.n <= 2 * space_band:
        raise ConfigurationError("lattice too coarse for the requested bands")
    rows = np.arange(-time_band, time_band + 1) % n_time
    kept, draws = low_mode_draws(grid, np.random.default_rng(seed), space_band, rows.size)
    # The unitary spatial coefficients are sqrt(N) times the time inverse of
    # the coefficient rows on the band's columns, and exactly 0 off them; a
    # column drawn exactly 0 at every row is off the support.
    nonzero = np.any(draws, axis=0)
    block = np.zeros((n_time, np.count_nonzero(nonzero)), dtype=np.complex128)
    block[rows] = draws[:, nonzero]
    block = np.fft.ifft(block, axis=0, norm="forward")
    block *= np.sqrt(grid.n**grid.dim)
    if cutoff:
        block *= _window_cutoff(t_half, n_time, 1.0)[:, None]
    return SpaceTimeField._of(grid, t_half, block, kept[nonzero])


# ---------------------------------------------------------------------------
# Retarded convolution and the linear estimate check
# ---------------------------------------------------------------------------

# The space-time kernel shared with the Picard map: the free group
# exp(-i t p) and the anchored trapezoid retarded integral, both pointwise in
# xi on spatial coefficients at the window times.  The Picard map builds its
# groups for t >= 0 only, so the lattice cache keeps none per Picard window,
# and it integrates block by block through a carry.

def _group(times: np.ndarray, phase: np.ndarray) -> np.ndarray:
    """exp(-i t p(xi)) at every time sample, shape (n_time, *grid)."""
    return np.exp(-1j * times.reshape((-1,) + (1,) * phase.ndim) * phase[None])


def _retarded(q_hat: np.ndarray, group: np.ndarray, dt: float, zero_index: int,
              carry: np.ndarray | None = None, work: np.ndarray | None = None) -> np.ndarray:
    """int_0^t exp(-i (t-s) p) q_hat(s) ds, given group = exp(-i t p).

    Trapezoid rule in s, anchored so the integral vanishes at zero_index;
    q_hat is left untouched.  A time block of a longer sweep passes carry
    instead: the (2, *grid) integral and integrand at the slice before its
    first.  The sum goes on from there, and carry moves to the block's last
    slice; (0, -q_hat) at t = 0 starts a sweep there.  A block's integral
    overwrites q_hat, and work, an array like it, takes the integrand.
    """
    integrand = np.conjugate(group, out=work)
    integrand *= q_hat
    seg = np.empty_like(integrand) if carry is None else q_hat
    np.add(integrand[1:], integrand[:-1], out=seg[1:])
    if carry is None:  # a whole window, summed from 0 at its first slice
        seg[0] = 0.0
        seg *= 0.5 * dt
        np.cumsum(seg, axis=0, out=integrand)
        integrand -= integrand[zero_index]
    else:  # a block, short in time: a loop over its slices beats cumsum
        np.add(integrand[0], carry[1], out=seg[0])
        carry[1] = integrand[-1]
        seg *= 0.5 * dt
        seg[0] += carry[0]
        for prev, row in zip(seg, seg[1:]):
            row += prev
        carry[0], integrand = seg[-1], seg
    return np.multiply(group, integrand, out=integrand)


def retarded_convolution(q: SpaceTimeField, disp: Dispersion) -> SpaceTimeField:
    """int_0^t exp(-i (t-s) p) q(s) ds, trapezoid in s, anchored at t = 0,
    on q's support."""
    lat = _lattice(q.grid, q.t_half, q.n_time, disp)
    cols, q_hat = q._support()
    return SpaceTimeField._of(q.grid, q.t_half,
                              _retarded(q_hat, lat.on(cols), q.dt, q.zero_index), cols)


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
    T = _number(T, "T")
    _check_finite(s=s, b=b, b_prime=b_prime)
    if not (b_prime <= 0.0 <= b <= b_prime + 1.0):
        raise PreconditionError(f"need b' <= 0 <= b <= b'+1, got b={b}, b'={b_prime}")
    if not (0.0 < T <= 1.0):
        raise PreconditionError(f"need 0 < T <= 1, got T={T}")
    # The retarded integral, lambda_T and the time transforms act column by
    # column, so they run on q's support: the other columns stay exactly 0.
    lat = _lattice(q.grid, q.t_half, q.n_time, disp)
    cols, q_hat = q._support()
    conv = _retarded(q_hat, lat.on(cols), lat.dt, q.zero_index)
    conv *= _window_cutoff(q.t_half, q.n_time, T)[:, None]
    lhs = lat.xsb(np.fft.fft(conv, axis=0, norm="ortho"), s, b, cols)
    del conv
    q_hat = np.fft.fft(q_hat, axis=0, norm="ortho")
    rhs = T ** (1.0 - b + b_prime) * lat.xsb(q_hat, s, b_prime, cols)
    if include_y_term:
        rhs += T ** (0.5 - b) * lat.ys(q_hat, s, cols)
    if rhs == 0.0:
        return 0.0
    return lhs / rhs


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
    T = _number(T, "T")
    _check_finite(a=a, a_prime=a_prime, gamma=gamma, eta=eta, b0=b0)
    if not (0.0 < T <= 1.0):
        raise PreconditionError(f"need 0 < T <= 1, got T={T}")
    lat = _lattice(v.grid, v.t_half, v.n_time, disp)
    wave = disp.kind in ("wave_plus", "wave_minus")
    exps = strichartz_exponents(a, a_prime, gamma, eta, b0, v.grid.dim, wave=wave)
    if not exps.feasible:
        raise PreconditionError(f"hypothesis violated: {exps.violated}")

    # enforce support in |t| <= 2T of F^{-1}(<sigma>^{-a'} vhat); lambda_T
    # scales whole time slices, so that round trip runs along time alone
    hat = np.fft.fft(v.spatial_hat, axis=0, norm="ortho")
    hat *= lat.weight(0.0, -0.5 * a_prime)
    np.fft.ifft(hat, axis=0, norm="ortho", out=hat)
    hat *= _window_cutoff(v.t_half, v.n_time, T).reshape((-1,) + (1,) * v.grid.dim)
    np.fft.fft(hat, axis=0, norm="ortho", out=hat)
    hat *= lat.weight(0.0, 0.5 * a_prime)

    smoothed = np.fft.ifftn(np.abs(hat) * lat.weight(0.0, -0.5 * a), norm="ortho")
    lhs = mixed_norm(SpaceTimeField(v.grid, v.t_half, smoothed), exps.q, exps.r)
    v_norm = lat.xsb(hat, 0.0, 0.0)
    ratio = 0.0 if v_norm == 0.0 else lhs / v_norm
    return StrichartzReport(exps.q, exps.r, exps.theta, lhs, v_norm, ratio)
