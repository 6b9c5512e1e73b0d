"""Time integration: a Fourier-space Strang split-step for the physical
system and a literal cutoff Duhamel-Picard iterator for the half-wave
system."""

from __future__ import annotations

import math
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
# run_simulation owns the three coefficient arrays and steps them in place.
# It goes back to physical space only for a diagnostics row, and there only
# with psi (all three fields on the last step or when states are stored):
# the row reads rho and phi off the coefficients.  Both checks after a step
# read one squared norm per field: it is non-finite when a coefficient is,
# and its root bounds the sup-norm, so the divergence proxy rarely needs more.

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

    def apply_in_place(self, psi_h, rho_h, phi_h):
        """Flow the given coefficient arrays in place and return them."""
        psi_h *= self.schrodinger
        omega_sin_phi = self.omega_sin * phi_h
        phi_h *= self.cos
        phi_h -= self.sinc * rho_h
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


def _values(grid: Grid, name: str, c) -> np.ndarray:
    """Physical values of a field held as coefficients: psi's spectrum, or a
    half-spectrum, filled Hermitian first."""
    return np.fft.ifftn(c if name == "psi" else full_spectrum(grid, c), norm="ortho")


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


def _strang_coefficients(psi_h, rho_h, phi_h, dt, params: ModelParams, prop: _Propagator):
    """L(dt/2) N(dt) L(dt/2) in place on psi's spectrum and the half-spectra
    of rho and phi, with two complex and two real transforms; prop is the
    propagator over dt/2.

    The nonlinear substep uses that |psi|^2 is invariant under the phase
    rotation: rho and phi are advanced with the frozen source, and psi is
    rotated with the substep means of rho and phi_x.
    """
    prop.apply_in_place(psi_h, rho_h, phi_h)
    shape = psi_h.shape
    work = np.empty_like(rho_h)

    psi = np.fft.ifftn(psi_h, norm="ortho", out=psi_h)
    a2 = np.abs(psi)
    a2 *= a2
    a2_h = np.fft.rfftn(a2, norm="ortho")
    if prop.mask is not None:
        a2_h *= prop.mask

    # rho_h becomes rho_new = rho_h - dt D (|psi|^2)_x.  The source moves phi_x
    # by -dt (|psi|^2)_x too, so the substep mean rho_bar + D phi_x_bar
    # equals rho_new + D (phi_h)_x, taken before phi_h is advanced.
    np.multiply(prop.dx, a2_h, out=work)
    work *= dt * params.D
    rho_h -= work
    np.multiply(prop.dx, phi_h, out=work)
    work *= params.D
    work += rho_h
    theta = np.fft.irfftn(work, s=shape, axes=range(len(shape)), norm="ortho")
    phi_h -= np.multiply(a2_h, dt, out=work)

    # theta = -epsilon dt (sigma2 |psi|^2 + W coupling); psi *= exp(i theta)
    theta *= params.W
    a2 *= params.sigma2
    theta += a2
    theta *= -params.epsilon * dt
    rotation = np.empty_like(psi)
    np.cos(theta, out=rotation.real)
    np.sin(theta, out=rotation.imag)
    psi *= rotation
    np.fft.fftn(psi, norm="ortho", out=psi)

    return prop.apply_in_place(psi, rho_h, phi_h)


def _squared_norms(coeffs) -> list[float]:
    """sum |f_hat|^2 over the whole lattice for psi's spectrum, and twice
    the sum over the half-spectrum for rho and phi, which is no less.

    A non-finite coefficient makes its sum non-finite (so does an overflow
    of finite ones); only then are the coefficients scanned, and the first
    field with a non-finite one raises DivergenceError.
    """
    norms = [w * float(np.vdot(c, c).real) for w, c in zip((1.0, 2.0, 2.0), coeffs)]
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
    """Time stamps, diagnostic series and (optionally) state snapshots."""

    times: list = field(default_factory=list)
    mass: list = field(default_factory=list)
    energy: list = field(default_factory=list)
    max_abs_psi: list = field(default_factory=list)
    l2_rho: list = field(default_factory=list)
    l2_phi: list = field(default_factory=list)
    states: list = field(default_factory=list)

    def record(self, t: float, grid: Grid, params: ModelParams, psi, psi_h, rho_h, phi_h):
        """Append one diagnostics row from psi's physical values psi and its
        spectrum psi_h, and the rfftn half-spectra rho_h and phi_h; no
        argument is changed.

        |psi| and |psi|^2 are taken once: mass, energy and the sup of |psi|
        share them.  energy takes one transform, and the L2 norms of rho and
        phi come off their half-spectra (Plancherel).
        """
        if self.times and t <= self.times[-1]:
            raise ContractViolationError("time stamps must be strictly increasing")
        a = np.abs(psi)
        a2 = a * a
        self.times.append(t)
        self.mass.append(float(np.sum(a2) * grid.cell_volume))
        self.energy.append(_energy(grid, params, a2, psi_h, rho_h, phi_h))
        self.max_abs_psi.append(float(np.max(a)))
        for column, c in ((self.l2_rho, rho_h), (self.l2_phi, phi_h)):
            column.append(float(np.sqrt(hermitian_sum(np.abs(c) ** 2) * grid.cell_volume)))

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

    The loop steps psi's spectrum and the rfftn half-spectra of rho and phi
    in place, as plain arrays; the initial datum is dropped before the first
    step.  The divergence proxy stops the run as soon as any field's
    sup-norm exceeds blowup_factor times its initial value; the partial
    trajectory, the field and its growth factor are attached to the raised
    DivergenceError.

    Only a step that writes a diagnostics row (every stride-th step and the
    last) goes back to physical space.  There psi takes one inverse FFT, and
    the row one more (see Trajectory.record); the last step, and every row
    step when store_states is set, also bring rho and phi back.  The states
    kept in the trajectory are physical: the initial one and the last, or
    with store_states that of every row.  The proxy tries three bounds on
    sup|f| in turn, until one is under the threshold: the l2 norm of the
    coefficients (the finiteness check's squared norm), N^{-1/2} sum|f_hat|,
    and the exact sup, for which a field held as coefficients takes its
    inverse FFT.  So it trips at the same step, on the same field, as an
    exact check every step.
    """
    state = make_initial_state(config)
    grid = state.grid
    # The copy is made before the coefficients: in this allocation order the
    # step's temporaries reuse the datum's memory once it is dropped, where
    # the other order costs fresh pages on every row step.
    traj = Trajectory(states=[state.copy()])
    psi = state.psi.values
    # The loop steps these in place.
    coeffs = [np.fft.fftn(psi, norm="ortho")] + [
        half_spectrum(to_frequency(getattr(state, name))) for name in _FIELDS[1:]]
    traj.record(0.0, grid, config.params, psi, *coeffs)
    raw_sup = {
        name: float(np.max(np.abs(getattr(state, name).values))) for name in _FIELDS
    }
    del state, psi
    last = None
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
        _strang_coefficients(*coeffs, config.dt, config.params, prop)
        try:
            norms = _squared_norms(coeffs)
        except DivergenceError as err:
            raise DivergenceError(str(err), time=t, trajectory=traj, field=err.field) from None
        t = (k + 1) * config.dt
        row = (k + 1) % config.diagnostics_stride == 0 or k == n_steps - 1
        whole = row and (store_states or k == n_steps - 1)
        # The fields this step takes to physical space.
        physical = {name: _values(grid, name, c) for name, c in zip(_FIELDS, coeffs)
                    if row and (whole or name == "psi")}
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
            traj.record(t, grid, config.params, physical["psi"], *coeffs)
        if whole:
            last = ZRState(*(ComplexField(grid, physical[name]) for name in _FIELDS))
            if store_states:
                traj.states.append(last)
    if not store_states:
        traj.states.append(traj.states[0].copy() if last is None else last)
    return traj


# ---------------------------------------------------------------------------
# Cutoff Duhamel-Picard iteration for the half-wave system
# ---------------------------------------------------------------------------

_COMPONENTS = ("psi", "rho_plus", "rho_minus", "varphi_plus", "varphi_minus")
_MINUS = {"rho_minus": "rho_plus", "varphi_minus": "varphi_plus"}  # -> plus partner
# The contraction factor skips the first ratio above round-off.
_BURN_IN = 2


@dataclass
class PicardReport:
    T: float
    n_time: int
    diffs: list  # per iteration, the max of component_diffs
    ratios: list
    contraction_factor: float
    contracting: bool
    component_diffs: dict = field(default_factory=dict)  # component -> diffs


def _sup_l2(values: np.ndarray, grid: Grid) -> float:
    """sup over time slices of the spatial L2 norm of a contiguous stack."""
    pairs = values.reshape(len(values), -1).view(np.float64)  # (re, im) per point
    return float(np.sqrt(np.max(np.einsum("ij,ij->i", pairs, pairs)) * grid.cell_volume))


def picard_iterate(
    initial: PlusMinusState,
    T: float,
    n_iters: int,
    params: ModelParams,
    n_time: int = 64,
):
    """Iterate the cutoff Duhamel equations on the window [-2T, 2T).

    Iterate 0 is the cutoff free flow lambda(t) * group(t) * u0 per
    component; each following iterate applies the retarded integral with the
    nonlinearity screened by lambda_{2T}(s), which is 1 on the window.
    Returns [iterate 0, last iterate] (dicts of space-time value arrays,
    physical space) and a PicardReport of successive-difference norms and
    the empirical contraction factor.

    Iterates are carried on whole (n_time, *grid) stacks of spatial Fourier
    coefficients, as the free part lambda * group * u0_hat, which needs no
    transform, plus a Duhamel part.  G_- = -G_+ and H_- = -H_+ are real, so
    the Duhamel part of a minus component is, in physical space, the complex
    conjugate of its plus partner's.  A minus component is carried as its
    conjugate, whose coefficients conj(u_hat(-xi)) obey the plus equation,
    and an iteration takes three retarded integrals (psi, rho_+, varphi_+)
    and six transforms: psi and Lap psi to physical space, one inverse of
    the Duhamel part of the acoustic sum in F (its free part is transformed
    once per call), and the forward transforms of F, |psi|^2 and its rate.
    Differences are taken on the Duhamel parts by Plancherel, and a minus
    component's are its plus partner's.
    """
    T = check_number(T, "T")
    if not (0.0 < T <= 1.0):
        raise ConfigurationError(f"T must be in (0, 1], got {T}")
    check_count(n_iters, "n_iters", 1)
    check_count(n_time, "n_time", 4)
    if n_time % 2:
        raise ConfigurationError(f"n_time must be even, got {n_time}")

    grid = initial.grid
    # The window [-2T, 2T) is the wave lattice's: its times, step and |xi|.
    lat = _lattice(grid, 2.0 * T, n_time, WAVE_PLUS)
    axes = tuple(range(1, grid.dim + 1))
    tshape = (-1,) + (1,) * grid.dim

    lam, lam_T = (_window_cutoff(lat.t_half, n_time, c).reshape(tshape) for c in (1.0, T))
    # The screening lambda_{2T}(s) of the sources is exactly 1.0 on the
    # window: |t| <= 2T there, so |t / 2T| <= 1 even after rounding, and
    # multiplying by it would change no bit.  It is left out.

    # Per carried component: exp(-i t p), its source, and lambda_T times
    # its Duhamel coefficient, -i epsilon (psi) or -i (the acoustic ones).
    # The wave group is built here, not read from the lattice, whose cache
    # would then hold one (n_time, *grid) array per window.
    wave = _group(lat.times, lat.phase)
    psi_group = _group(lat.times, params.epsilon * grid.xi_squared)
    plan = {"psi": (psi_group, "F", -1j * params.epsilon * lam_T),
            "rho_plus": (wave, "G", -1j * lam_T),
            "varphi_plus": (wave, "H", -1j * lam_T)}

    u0 = {name: to_frequency(f).values for name, f in zip(_COMPONENTS, initial.fields())}
    free_psi = lam * (psi_group * u0["psi"])
    cwave = np.conj(wave)
    # (rho_+ + rho_-) + D (varphi_+ + varphi_-) of the free part, as F reads it.
    free_sum = wave * (u0["rho_plus"] + params.D * u0["varphi_plus"])
    free_sum += cwave * (u0["rho_minus"] + params.D * u0["varphi_minus"])
    free_acoustic = lam * np.fft.ifftn(free_sum, axes=axes, norm="ortho")
    del free_sum
    # An acoustic free part lambda * group * u0_hat is never larger than its
    # datum: lambda <= 1, the group is unitary and a mirrored datum (a minus
    # component's, as carried) keeps its norm.
    free_top = _sup_l2(np.stack([u0[name] for name in _COMPONENTS[1:]]), grid)

    duh = {name: np.zeros((n_time,) + grid.shape, dtype=np.complex128) for name in plan}
    component_diffs = {name: [] for name in _COMPONENTS}
    largest = 0.0
    for it in range(n_iters + 1):
        # The current iterate: psi's coefficients, psi's norm and a bound on
        # the acoustic ones (free part plus Duhamel part).
        psi_hat = free_psi + duh["psi"]
        largest = max(largest, _sup_l2(psi_hat, grid), free_top
                      + max(_sup_l2(duh[p], grid) for p in ("rho_plus", "varphi_plus")))
        if it == n_iters:
            break

        psi = np.fft.ifftn(psi_hat, axes=axes, norm="ortho")
        a2 = np.abs(psi)
        a2 *= a2
        # The plus Duhamel part, its conjugate (the minus one) and the free sum.
        acoustic = params.D * duh["varphi_plus"]
        acoustic += duh["rho_plus"]
        np.fft.ifftn(acoustic, axes=axes, norm="ortho", out=acoustic)
        acoustic += np.conj(acoustic)
        acoustic += free_acoustic
        F = coupled_source(psi, a2, acoustic, params)
        del acoustic
        psi_t = envelope_rate(psi_hat, F, grid, params)
        sources = {"F": np.fft.fftn(F, axes=axes, norm="ortho", out=F)}
        del psi_hat, F
        sources["G"], sources["H"] = half_wave_sources(a2, psi, psi_t, grid, params)
        del psi, a2, psi_t

        for name, (group, source, coef) in plan.items():
            new = _retarded(sources.pop(source), group, lat.dt, n_time // 2)
            new *= coef
            # The old Duhamel part is not read again; the difference overwrites it.
            diff = np.subtract(duh[name], new, out=duh[name])
            component_diffs[name].append(_sup_l2(diff, grid))
            duh[name] = new
    for minus, plus in _MINUS.items():
        component_diffs[minus] = list(component_diffs[plus])

    # Iterate 0 on the physical grid, and the last iterate as its free part
    # plus the Duhamel parts, conjugated for the minus components.
    del free_psi, free_acoustic
    free, current = {}, {}
    for name in _COMPONENTS:
        if name in duh:
            d = duh.pop(name)
            np.fft.ifftn(d, axes=axes, norm="ortho", out=d)
        f = (cwave if name in _MINUS else plan[name][0]) * u0[name]
        np.fft.ifftn(f, axes=axes, norm="ortho", out=f)
        f *= lam
        free[name] = f
        current[name] = f + (np.conj(d) if name in _MINUS else d)

    diffs = [max(d) for d in zip(*component_diffs.values())]
    ratios = []
    for a, b in zip(diffs[:-1], diffs[1:]):
        ratios.append(0.0 if a == 0.0 else b / a)
    # Differences within 64 ulps of the largest iterate are round-off, and
    # ratios taken from them say nothing about contraction.  largest bounds
    # the acoustic norms by the triangle inequality, at most about twice over.
    floor = 64 * np.finfo(np.float64).eps * largest
    tail = [r for r, a in zip(ratios, diffs[:-1]) if a > floor]
    tail = tail[_BURN_IN - 1 :] if len(tail) >= _BURN_IN else tail
    factor = max(tail) if tail else 0.0
    return [free, current], PicardReport(
        T=T,
        n_time=n_time,
        diffs=diffs,
        ratios=ratios,
        contraction_factor=factor,
        contracting=factor < 1.0,
        component_diffs=component_diffs,
    )
