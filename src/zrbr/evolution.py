"""Time integration: a Fourier-space Strang split-step for the physical
system and a literal cutoff Duhamel-Picard iterator for the half-wave
system."""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .bourgain import WAVE_PLUS, _group, _lattice, _retarded, _window_cutoff
from .config import SimConfig, make_initial_state
from .errors import ConfigurationError, ContractViolationError, DivergenceError
from .model import (
    ModelParams,
    PlusMinusState,
    ZRState,
    _Workspace,
    _energy,
    coupled_source,
    energy,  # energy and mass stay importable from here
    envelope_rate,
    half_dx,
    half_wave_sources,
    mass,
    nonlinearity_F,  # the per-slice sources stay importable from here
    nonlinearity_G,
    nonlinearity_H,
    psi_time_derivative,
    source_symbols,
)
from .spectral import (
    FREQUENCY,
    PHYSICAL,
    ComplexField,
    Grid,
    check_count,
    check_number,
    dealias_mask,
    frozen_symbol,
    full_spectrum,
    half_spectrum,
    half_width,
    hermitian_sum,
    to_frequency,
)


# ---------------------------------------------------------------------------
# Strang split-step integrator
# ---------------------------------------------------------------------------
#
# The integrator works on Fourier coefficients.  The linear flow is a
# pointwise product there, and once |psi|^2 is known the nonlinear substep is
# linear in (rho_hat, phi_hat).  rho and phi are real, so they are carried as
# rfftn half-spectra and their symbols are built at half width.  A step needs
# two complex and two real transforms: psi to physical space, rfftn of
# |psi|^2, irfftn of the coupling, and the rotated psi back.  The symbols it
# multiplies by are one table, cached per (grid, dt/2, epsilon, dealias).
# run_simulation owns the three coefficient arrays, steps them in place and
# puts every temporary in one workspace of its own.  It goes back to physical
# space only for a diagnostics row, and there only with psi (all three fields
# when states are stored; else the last state's rho and phi wait for the
# first read of the trajectory's states): the row reads rho and phi off the
# coefficients.  Both checks after a step read one squared norm per field: it
# is non-finite when a coefficient is, and its root bounds the sup-norm, so
# the divergence proxy rarely needs more.

_FIELDS = ("psi", "rho", "phi")


@dataclass(frozen=True, eq=False)
class _Propagator:
    """Symbols of the exact linear flow over one time t, psi's on the full
    lattice and the acoustic ones on the half-spectrum columns, and the two
    more that a Strang step with half-step t multiplies by."""

    schrodinger: np.ndarray  # exp(-i epsilon t |xi|^2)
    cos: np.ndarray  # cos(|xi| t)
    omega_sin: np.ndarray  # |xi| sin(|xi| t)
    sinc: np.ndarray  # sin(|xi| t) / |xi|, and t at xi = 0
    dx: np.ndarray  # i xi_1, zero on the axis-0 Nyquist plane; half width
    mask: np.ndarray | None  # the 2/3 rule at half width, None without dealiasing

    def apply_in_place(self, psi_h, rho_h, phi_h, work=(None, None)):
        """Flow the arrays in place, temporaries into the pair work; return them."""
        psi_h *= self.schrodinger
        omega_sin_phi = np.multiply(self.omega_sin, phi_h, out=work[0])
        phi_h *= self.cos
        phi_h -= np.multiply(self.sinc, rho_h, out=work[1])
        rho_h *= self.cos
        rho_h += omega_sin_phi
        return psi_h, rho_h, phi_h


@lru_cache(maxsize=8)
def _propagator(grid: Grid, t: float, epsilon: float, dealias: bool) -> _Propagator:
    absxi = half_width(grid.xi_modulus)
    sinc = np.full(absxi.shape, t, dtype=np.float64)
    nz = absxi > 0
    sinc[nz] = np.sin(absxi[nz] * t) / absxi[nz]
    return _Propagator(
        schrodinger=frozen_symbol(np.exp(-1j * (epsilon * t) * grid.xi_squared)),
        cos=frozen_symbol(np.cos(absxi * t)),
        omega_sin=frozen_symbol(absxi * np.sin(absxi * t)),
        sinc=frozen_symbol(sinc),
        dx=half_dx(grid),
        mask=frozen_symbol(half_width(dealias_mask(grid))) if dealias else None,
    )


def _coefficients(state: ZRState) -> list[np.ndarray]:
    """psi's full spectrum and the half-spectra of rho and phi, as new
    arrays the caller may change in place."""
    return [
        to_frequency(state.psi).values.copy(),
        half_spectrum(state.rho),
        half_spectrum(state.phi),
    ]


def _values(grid: Grid, name: str, c, out=None) -> np.ndarray:
    """Physical values of a field held as coefficients: psi's spectrum, or a
    half-spectrum, filled Hermitian first; into out (a new array by default)."""
    return np.fft.ifftn(c if name == "psi" else full_spectrum(grid, c), norm="ortho", out=out)


def _like(state: ZRState, coeffs) -> ZRState:
    """A state of the given coefficients (as _coefficients returns them),
    each field in the representation of the same field of state: physical
    values by _values, a full spectrum rebuilt from a half-spectrum by
    Hermitian copy."""
    fields = []
    for name, c in zip(_FIELDS, coeffs):
        if getattr(state, name).space == PHYSICAL:
            fields.append(ComplexField(state.grid, _values(state.grid, name, c)))
        else:
            full = c if name == "psi" else full_spectrum(state.grid, c)
            fields.append(ComplexField(state.grid, full, FREQUENCY))
    return ZRState(*fields)


def _linear_flow(state: ZRState, t: float, params: ModelParams) -> ZRState:
    """Exact spectral flow of the linear part over time t.

    psi by the free Schrodinger group (scaled by epsilon); (rho, phi) by the
    exact rotation of rho_t = -Lap phi, phi_t = -rho.  The zero mode keeps
    rho constant and moves phi by -t*rho.  Each field comes back in the
    representation it was given in; rho and phi are taken as real.
    """
    flow = _propagator(state.grid, t, params.epsilon, False)
    return _like(state, flow.apply_in_place(*_coefficients(state)))


def _strang_coefficients(psi_h, rho_h, phi_h, dt, params: ModelParams, prop: _Propagator,
                         work: _Workspace | None = None):
    """L(dt/2) N(dt) L(dt/2) in place on psi's spectrum and the half-spectra
    of rho and phi, with two complex and two real transforms; prop is the
    propagator over dt/2, and work takes the temporaries (new by default).

    The nonlinear substep uses that |psi|^2 is invariant under the phase
    rotation: rho and phi are advanced with the frozen source, and psi is
    rotated with the substep means of rho and phi_x.
    """
    work = work or _Workspace(psi_h.shape)
    prop.apply_in_place(psi_h, rho_h, phi_h, work.half)
    a2_h, spare = work.half

    psi = np.fft.ifftn(psi_h, norm="ortho", out=psi_h)
    a2 = np.abs(psi, out=work.real[0])
    a2 *= a2
    np.fft.rfftn(a2, norm="ortho", out=a2_h)
    if prop.mask is not None:
        a2_h *= prop.mask

    # rho_h becomes rho_new = rho_h - dt D (|psi|^2)_x.  The source moves phi_x
    # by -dt (|psi|^2)_x too, so the substep mean rho_bar + D phi_x_bar
    # equals rho_new + D (phi_h)_x, taken before phi_h is advanced.
    np.multiply(prop.dx, a2_h, out=spare)
    spare *= dt * params.D
    rho_h -= spare
    np.multiply(prop.dx, phi_h, out=spare)
    spare *= params.D
    spare += rho_h
    # irfftn's passes in its axis order, the complex ones in place (irfftn allocates each)
    for axis in range(psi.ndim - 1):
        np.fft.ifft(spare, axis=axis, norm="ortho", out=spare)
    theta = np.fft.irfftn(spare, s=psi.shape[-1:], axes=(-1,), norm="ortho", out=work.real[1])
    phi_h -= np.multiply(a2_h, dt, out=spare)

    # theta = -epsilon dt (sigma2 |psi|^2 + W coupling); psi *= exp(i theta)
    theta *= params.W
    a2 *= params.sigma2
    theta += a2
    theta *= -params.epsilon * dt
    rotation = work.psi
    np.cos(theta, out=rotation.real)
    np.sin(theta, out=rotation.imag)
    psi *= rotation
    np.fft.fftn(psi, norm="ortho", out=psi)

    return prop.apply_in_place(psi, rho_h, phi_h, work.half)


def _sum_abs2(c) -> float:
    """sum |c|^2, by einsum over the float view: np.vdot would call BLAS,
    which starts its own threads unless OPENBLAS_NUM_THREADS=1."""
    f = c.reshape(-1).view(np.float64)
    return float(np.einsum("i,i->", f, f))


def _squared_norms(coeffs) -> list[float]:
    """sum |f_hat|^2 over the whole lattice for psi's spectrum, and twice
    the sum over the half-spectrum for rho and phi, which is no less.

    A non-finite coefficient makes its sum non-finite (so does an overflow
    of finite ones); only then are the coefficients scanned, and the first
    field with a non-finite one raises DivergenceError.
    """
    norms = [w * _sum_abs2(c) for w, c in zip((1.0, 2.0, 2.0), coeffs)]
    if not all(map(math.isfinite, norms)):
        for name, c in zip(_FIELDS, coeffs):
            if not np.all(np.isfinite(c)):
                raise DivergenceError(f"non-finite {name} after step", time=None, field=name)
    return norms


def strang_step(state: ZRState, dt: float, params: ModelParams, dealias: bool = True) -> ZRState:
    """One Strang step L(dt/2) N(dt) L(dt/2); the given state is not changed.

    Works on psi's spectrum and the rfftn half-spectra of rho and phi, which
    are taken as real: physical rho and phi enter through rfftn of their
    real part, full spectra through their first n//2 + 1 columns.  A state
    held as coefficients costs two complex and two real transforms, and each
    field comes back in the representation it was given in (a full spectrum
    rebuilt by Hermitian copy).  Raises DivergenceError when a field's
    coefficients turn non-finite.
    """
    if dt == 0.0:
        return state.copy()

    prop = _propagator(state.grid, dt / 2.0, params.epsilon, dealias)
    coeffs = _coefficients(state)
    _strang_coefficients(*coeffs, dt, params, prop)
    _squared_norms(coeffs)
    return _like(state, coeffs)


@dataclass
class Trajectory:
    """Time stamps, diagnostic series and physical states: the initial one
    and the last (built from psi and the half-spectra of rho and phi on the
    first read of states), or with store_states every row's."""

    times: list = field(default_factory=list)
    mass: list = field(default_factory=list)
    energy: list = field(default_factory=list)
    max_abs_psi: list = field(default_factory=list)
    l2_rho: list = field(default_factory=list)
    l2_phi: list = field(default_factory=list)
    _states: list = field(default_factory=list, repr=False)
    _last: tuple | None = field(default=None, repr=False)  # (grid, psi, rho_h, phi_h)

    @property
    def states(self) -> list:
        if self._last is not None:
            grid, psi, rho_h, phi_h = self._last
            fields = (psi, _values(grid, "rho", rho_h), _values(grid, "phi", phi_h))
            self.states = self._states + [ZRState(*(ComplexField(grid, v) for v in fields))]
        return self._states

    @states.setter
    def states(self, value: list):
        self._states, self._last = value, None

    def record(self, t: float, grid: Grid, params: ModelParams, psi, psi_h, rho_h, phi_h,
               work: _Workspace | None = None):
        """Append one diagnostics row from psi's physical values psi and its
        spectrum psi_h, and the rfftn half-spectra rho_h and phi_h; no
        argument is changed, and work takes the temporaries (new by default).

        |psi| and |psi|^2 are taken once: mass, energy and the sup of |psi|
        share them.  energy takes one transform, and the L2 norms of rho and
        phi come off the sums of their squared half-spectra that energy forms
        (Plancherel).
        """
        if self.times and t <= self.times[-1]:
            raise ContractViolationError("time stamps must be strictly increasing")
        work = work or _Workspace(psi_h.shape)
        a = np.abs(psi, out=work.real[0])
        a2 = np.multiply(a, a, out=work.real[1])
        self.times.append(t)
        self.mass.append(float(np.sum(a2) * grid.cell_volume))
        self.max_abs_psi.append(float(np.max(a)))  # before energy reuses a's memory
        energy, rho2, phi2 = _energy(grid, params, a2, psi_h, rho_h, phi_h, work)
        self.energy.append(energy)
        self.l2_rho.append(float(np.sqrt(rho2 * grid.cell_volume)))
        self.l2_phi.append(float(np.sqrt(phi2 * grid.cell_volume)))

    def __len__(self):
        return len(self.times)


def _coefficient_bound(name: str, c, root_n: float) -> float:
    """N^{-1/2} sum |f_hat| over the whole lattice, from psi's spectrum or a
    half-spectrum: a bound on sup|f|, since the transform is unitary."""
    a = np.abs(c)
    return float((np.sum(a) if name == "psi" else hermitian_sum(a)) / root_n)


# Relative slack on the coefficient bounds for the round-off of their sums
# and of the inverse FFT whose sup they bound; a sum of N squares can be off
# by about N eps (4e-12 at 32^3).
_BOUND_MARGIN = 1e-12
_L2_MARGIN = 1e-9


def run_simulation(config: SimConfig, store_states: bool = False) -> Trajectory:
    """Integrate from t=0 to t_end, recording diagnostics every stride steps.

    Set-up takes psi's spectrum (fftn) and the half-spectra of rho and phi
    (rfftn).  The loop steps these in place, as plain arrays, and puts the
    temporaries of every step and row in one workspace that the run owns;
    the initial datum is dropped before the first step.  The divergence
    proxy stops the run as soon as any field's sup-norm exceeds
    blowup_factor times its initial value; the partial trajectory, the field
    and its growth factor are attached to the raised DivergenceError.

    Only a step that writes a diagnostics row (every stride-th step and the
    last) goes back to physical space.  There psi takes one inverse FFT, and
    the row one more (see Trajectory.record); with store_states, rho and phi
    take theirs too, and the trajectory keeps every row's physical state.
    Otherwise it keeps the initial one and the last, whose rho and phi are
    brought back on the first read of its states.  The proxy tries three
    bounds on sup|f| in turn, until one is under the threshold: the l2 norm
    of the coefficients (the finiteness check's squared norm),
    N^{-1/2} sum|f_hat|, and the exact sup, for which a field held as
    coefficients takes its inverse FFT.  So it trips at the same step, on
    the same field, as an exact check every step.
    """
    state = make_initial_state(config)
    grid = state.grid
    traj = Trajectory(_states=[state.copy()])
    psi = state.psi.values
    coeffs = [np.fft.fftn(psi, norm="ortho"), half_spectrum(state.rho), half_spectrum(state.phi)]
    work = _Workspace(grid.shape)
    traj.record(0.0, grid, config.params, psi, *coeffs, work)
    raw_sup = {
        name: float(np.max(np.abs(getattr(state, name).values))) for name in _FIELDS
    }
    del state, psi  # the datum's memory is free before the loop
    prop = _propagator(grid, config.dt / 2.0, config.params.epsilon, config.dealias)

    n_steps = int(round(config.t_end / config.dt))
    # Fields starting at zero are judged against the largest initial field,
    # otherwise any excitation at all would trip the proxy.
    floor = max(max(raw_sup.values()), 1e-300)
    initial_sup = {name: max(v, floor) for name, v in raw_sup.items()}
    limits = {name: config.blowup_factor * sup0 for name, sup0 in initial_sup.items()}
    root_n = np.sqrt(grid.n**grid.dim)

    t = 0.0
    for k in range(n_steps):
        _strang_coefficients(*coeffs, config.dt, config.params, prop, work)
        try:
            norms = _squared_norms(coeffs)
        except DivergenceError as err:
            raise DivergenceError(str(err), time=t, trajectory=traj, field=err.field) from None
        t = (k + 1) * config.dt
        row = (k + 1) % config.diagnostics_stride == 0 or k == n_steps - 1
        # The fields this step takes to physical space, psi's into work unless kept
        physical = {name: _values(grid, name, c, None if store_states else work.psi)
                    for name, c in zip(_FIELDS, coeffs) if row and (store_states or name == "psi")}
        for name, c, sq in zip(_FIELDS, coeffs, norms):
            limit = limits[name]
            if (1.0 + _L2_MARGIN) * math.sqrt(sq) < limit:
                continue
            if name not in physical:
                if (1.0 + _BOUND_MARGIN) * _coefficient_bound(name, c, root_n) < limit:
                    continue
                physical[name] = _values(grid, name, c)
            sup = np.max(np.abs(physical[name]))
            if sup > limit:
                raise DivergenceError(
                    f"{name} sup-norm exceeded {config.blowup_factor:g} x initial",
                    time=t,
                    trajectory=traj,
                    field=name,
                    growth=float(sup / initial_sup[name]),
                )
        if row:
            traj.record(t, grid, config.params, physical["psi"], *coeffs, work)
        if row and store_states:
            traj.states.append(ZRState(*(ComplexField(grid, physical[name]) for name in _FIELDS)))
    if not store_states and n_steps:
        traj._last = (grid, physical["psi"], *coeffs[1:])
    elif not store_states:
        traj.states.append(traj.states[0].copy())
    return traj


# ---------------------------------------------------------------------------
# Cutoff Duhamel-Picard iteration for the half-wave system
# ---------------------------------------------------------------------------
#
# An iterate is carried as the Duhamel parts of psi, rho_+ and varphi_+, three
# (n_time, *grid) stacks of spatial coefficients; its free part is rebuilt
# where it is read.  Every source is pointwise in time and the retarded
# integral runs outward from t = 0, so the map sweeps the window forward and
# then backward from t = 0 in blocks of whole time slices, carrying the sum
# across block edges and overwriting each block once its sources are read.

_COMPONENTS = ("psi", "rho_plus", "rho_minus", "varphi_plus", "varphi_minus")
_MINUS = {"rho_minus": "rho_plus", "varphi_minus": "varphi_plus"}  # -> plus partner
# The contraction factor skips the first ratio above round-off.
_BURN_IN = 2
_BLOCK_POINTS = 1 << 14  # grid points per time block of a sweep, or one slice


@dataclass
class PicardReport:
    T: float
    n_time: int
    diffs: list  # per iteration, the max of component_diffs
    ratios: list
    contraction_factor: float
    contracting: bool
    component_diffs: dict = field(default_factory=dict)  # component -> diffs


class _PicardContext:
    """What the Picard map reads besides the iterate: u0, lambda and the
    Duhamel coefficients at the window times, psi's and the wave group at
    t = k dt, k <= n_time/2 (at -t, their conjugates), and block workspaces:
    conj for blocks(), and work and carry (per stack and sweep, the retarded
    integral's) for the map, both freed before the readout."""

    def __init__(self, initial: PlusMinusState, T: float, params: ModelParams, n_time: int):
        self.T = check_number(T, "T")
        if not (0.0 < self.T <= 1.0):
            raise ConfigurationError(f"T must be in (0, 1], got {T}")
        check_count(n_time, "n_time", 4)
        if n_time % 2:
            raise ConfigurationError(f"n_time must be even, got {n_time}")
        grid = self.grid = initial.grid
        self.params = params
        # The window [-2T, 2T) is the wave lattice's: its times, step and |xi|.
        lat = _lattice(grid, 2.0 * self.T, n_time, WAVE_PLUS)
        self.dt, tshape = lat.dt, (-1,) + (1,) * grid.dim
        self.lam, lam_T = (_window_cutoff(lat.t_half, n_time, c).reshape(tshape)
                           for c in (1.0, self.T))
        # The screening lambda_{2T}(s) of the sources is exactly 1.0 on the
        # window: |t| <= 2T there, so |t / 2T| <= 1 even after rounding, and
        # multiplying by it would change no bit.  It is left out.
        self.coef = {"psi": -1j * params.epsilon * lam_T, "rho_plus": -1j * lam_T,
                     "varphi_plus": -1j * lam_T}
        self.u0 = {name: to_frequency(f).values for name, f in zip(_COMPONENTS, initial.fields())}
        self.acoustic0 = [self.u0[f"rho_{s}"] + params.D * self.u0[f"varphi_{s}"]
                          for s in ("plus", "minus")]  # data of the acoustic sum's two parts
        half = lat.dt * np.arange(n_time // 2 + 1)  # the groups are exactly 1 at t = 0
        self.groups = (_group(half, params.epsilon * grid.xi_squared), _group(half, lat.phase))
        self.mirror = source_symbols(grid, params.D).mirror
        m = min(max(1, _BLOCK_POINTS // grid.n**grid.dim), n_time // 2)
        self.conj, self.work = (np.empty((k, m) + grid.shape, np.complex128) for k in (2, 6))
        self.carry = np.empty((3, 2, 2) + grid.shape, np.complex128)

    def blocks(self):
        """(s, sign, psi's group, the wave group) per time block in sweep
        order, forward from t = 0 and then backward: a window stack's slices
        in the block are a[s][::sign], outward from t = 0.  Like the map's
        workspaces, the groups lie in the stacks' order (on the backward
        sweep, reversed views of copies): a ufunc that reads one operand
        backward against another makes numpy buffer it."""
        z, m = len(self.lam) // 2, self.conj.shape[1]
        for sign, k0 in [(1, k) for k in range(0, z, m)] + [(-1, k) for k in range(1, z + 1, m)]:
            k1 = min(k0 + m, z + (sign < 0))
            if sign > 0:
                psi, wave = (g[k0:k1] for g in self.groups)
            else:
                psi, wave = (c[: k1 - k0][::-1] for c in self.conj)
                psi[...], wave[...] = (g[k0:k1] for g in self.groups)  # copies reverse unbuffered
                np.conjugate(psi, out=psi)
                np.conjugate(wave, out=wave)
            s = slice(z + k0, z + k1) if sign > 0 else slice(z - k1 + 1, z - k0 + 1)
            yield s, sign, psi, wave


def _picard_map(duh: dict, ctx: _PicardContext) -> dict:
    """Apply the cutoff Duhamel map once: duh, the Duhamel stacks of psi,
    rho_+ and varphi_+ in that order, becomes the next iterate's in place.
    Returns per stack the largest squared spatial L2 sum of the difference
    over time slices.  A block takes five transforms and one retarded
    integral per stack, and every block array is in ctx's workspaces.

    Meanwhile numpy's ufunc buffer holds at most one time slice: where an
    operand broadcasts over the slices of a block (u0, lambda, a symbol),
    numpy would otherwise take a buffer of 8192 elements, 128 KiB."""
    bufsize = np.setbufsize(min(np.getbufsize(), ctx.grid.n ** ctx.grid.dim))
    try:
        return _picard_blocks(duh, ctx)
    finally:
        np.setbufsize(bufsize)


def _picard_blocks(duh: dict, ctx: _PicardContext) -> dict:
    """_picard_map's sweep through ctx.blocks()."""
    grid, params, u0 = ctx.grid, ctx.params, ctx.u0
    axes = tuple(range(1, grid.dim + 1))
    diff2 = dict.fromkeys(duh, 0.0)
    for block, (s, sign, psi_group, wave) in enumerate(ctx.blocks()):
        # The workspaces lie in the stacks' order, reversed views on the
        # backward sweep; np.take writes a contiguous out, so it and
        # half_wave_sources, slice by slice, see them in memory order.
        psi_hat, psi, z, acoustic, spare, temp = (w[: len(wave)][::sign] for w in ctx.work)
        lam = ctx.lam[s][::sign]
        np.multiply(psi_group, u0["psi"], out=psi_hat)
        psi_hat *= lam
        psi_hat += duh["psi"][s][::sign]
        np.fft.ifftn(psi_hat, axes=axes, norm="ortho", out=psi)
        a2 = np.abs(psi, out=z.real)  # z packs |psi|^2 with its rate (half_wave_sources)
        a2 *= a2
        # The coefficients of (rho_+ + rho_-) + D (varphi_+ + varphi_-): the
        # plus Duhamel part d, the minus one conj(d(-xi)), and the free part.
        d = np.multiply(duh["varphi_plus"][s][::sign], params.D, out=acoustic)
        d += duh["rho_plus"][s][::sign]
        np.take(d[::sign].reshape(len(d), -1), ctx.mirror, 1,
                spare[::sign].reshape(len(d), -1), "clip")
        acoustic += np.conjugate(spare, out=spare)
        np.multiply(wave, ctx.acoustic0[0], out=spare)
        spare += np.multiply(np.conjugate(wave, out=temp), ctx.acoustic0[1], out=temp)
        spare *= lam
        acoustic += spare
        np.fft.ifftn(acoustic, axes=axes, norm="ortho", out=acoustic)
        F = coupled_source(psi, a2, acoustic, params, out=spare)
        psi_t = envelope_rate(psi_hat, F, grid, params, out=psi_hat)
        sources = (np.fft.fftn(F, axes=axes, norm="ortho", out=F),
                   *(g[::sign] for g in half_wave_sources(
                       z[::sign], psi[::sign], psi_t[::sign], grid, params,
                       out=(acoustic[::sign], temp[::sign]))))
        for (name, stack), group, q, carry in zip(duh.items(), (psi_group, wave, wave), sources,
                                                  ctx.carry):
            if block == 0:  # both sweeps start at t = 0, where the integrand is q
                np.multiply(0, q[0], out=carry[:, 0])
                np.negative(q[0], out=carry[0, 1])
                carry[1, 1] = q[0]
            new = _retarded(q, group, sign * ctx.dt, None, carry[int(sign < 0)], z)
            new *= ctx.coef[name][s][::sign]
            old = stack[s][::sign]
            diff = np.subtract(old, new, out=z).reshape(len(q), -1).view(np.float64)
            diff2[name] = max(diff2[name], np.max(np.einsum("ij,ij->i", diff, diff)))
            old[...] = new
    return diff2


def picard_contraction(initial: PlusMinusState, T: float, n_iters: int, params: ModelParams,
                       n_time: int = 64, progress=None):
    """Iterate the cutoff Duhamel map on the window [-2T, 2T) from the cutoff
    free flow lambda(t) * group(t) * u0 (the sources' screening lambda_{2T}
    is 1 there).  Returns the map's context, the last Duhamel stacks and a
    PicardReport of the differences per component (on the Duhamel parts, by
    Plancherel) and the contraction factor; progress(k, diff) follows
    iteration k."""
    check_count(n_iters, "n_iters", 1)
    ctx = _PicardContext(initial, T, params, n_time)
    duh = {name: np.zeros((n_time,) + ctx.grid.shape, dtype=np.complex128) for name in ctx.coef}
    component_diffs = {name: [] for name in _COMPONENTS}
    for it in range(1, n_iters + 1):
        for name, d2 in _picard_map(duh, ctx).items():
            component_diffs[name].append(float(np.sqrt(d2 * ctx.grid.cell_volume)))
        if progress is not None:
            progress(it, max(component_diffs[name][-1] for name in duh))
    ctx.work = ctx.carry = None
    for minus, plus in _MINUS.items():
        component_diffs[minus] = list(component_diffs[plus])

    diffs = [max(d) for d in zip(*component_diffs.values())]
    ratios = [0.0 if a == 0.0 else b / a for a, b in zip(diffs, diffs[1:])]
    # Differences within 64 ulps of the largest iterate are round-off, and
    # ratios taken from them say nothing about contraction.  largest bounds
    # every iterate's sup_t L2 norm by the triangle inequality: its free part
    # by the largest datum's norm (lambda <= 1 and the groups are unitary),
    # and its Duhamel part by the sum of the differences before it.
    largest = math.sqrt(max(map(_sum_abs2, ctx.u0.values())) * ctx.grid.cell_volume)
    floor = 64 * np.finfo(np.float64).eps * (largest + sum(diffs))
    tail = [r for r, a in zip(ratios, diffs[:-1]) if a > floor]
    tail = tail[_BURN_IN - 1 :] if len(tail) >= _BURN_IN else tail
    factor = max(tail) if tail else 0.0
    return ctx, duh, PicardReport(ctx.T, n_time, diffs, ratios, factor, factor < 1.0,
                                  component_diffs)


def picard_iterate(initial: PlusMinusState, T: float, n_iters: int, params: ModelParams,
                   n_time: int = 64):
    """picard_contraction's iteration; returns [iterate 0, last iterate] in
    physical space, a read-only sequence that builds both on its first read
    (until then it holds the Duhamel stacks and the context, whose groups
    and workspace are under two stacks more), and the PicardReport.  G_- =
    -G_+ and H_- = -H_+ are real, so a minus component's Duhamel part is,
    in physical space, the conjugate of its plus partner's."""
    ctx, duh, report = picard_contraction(initial, T, n_iters, params, n_time)
    return _Iterates(ctx, duh), report


class _Iterates(Sequence):
    """picard_iterate's [iterate 0, last iterate], by _readout on first read."""

    def __init__(self, ctx: _PicardContext, duh: dict):
        self._pending, self._items = (ctx, duh), None

    def __len__(self):
        return 2

    def __getitem__(self, index):
        if self._items is None:  # the readout transforms the stacks in place: once only
            pending, self._pending = self._pending, None
            self._items = _readout(*pending)
        return self._items[index]


def _readout(ctx: _PicardContext, duh: dict) -> list:
    """picard_iterate's iterates; the last one's plus components are duh's stacks."""
    axes = tuple(range(1, ctx.grid.dim + 1))
    free = {name: np.empty_like(duh["psi"]) for name in _COMPONENTS}
    for s, sign, psi_group, wave in ctx.blocks():
        cwave = np.conjugate(wave)
        for name, group in zip(_COMPONENTS, (psi_group, wave, cwave, wave, cwave)):
            f = np.multiply(group, ctx.u0[name], out=free[name][s][::sign])
            np.fft.ifftn(f, axes=axes, norm="ortho", out=f)
            f *= ctx.lam[s][::sign]
    for d in duh.values():
        np.fft.ifftn(d, axes=axes, norm="ortho", out=d)
    current = {name: np.conj(duh[_MINUS[name]]) if name in _MINUS else duh[name]
               for name in _COMPONENTS}
    for name in _COMPONENTS:
        current[name] += free[name]
    return [free, current]
