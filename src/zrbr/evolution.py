"""Time integration: a Fourier-space Strang split-step for the physical
system and a literal cutoff Duhamel-Picard iterator for the half-wave
system."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .bourgain import _group, _retarded, smooth_cutoff
from .config import SimConfig, make_initial_state
from .errors import ConfigurationError, ContractViolationError, DivergenceError
from .model import (
    ModelParams,
    PlusMinusState,
    ZRState,
    coupled_source,
    energy,
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
    HALF,
    PHYSICAL,
    ComplexField,
    Grid,
    dealias_mask,
    frozen_symbol,
    half_spectrum,
    half_width,
    sup_bound,
    to_frequency,
    to_physical,
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
# multiplies by are built once per (grid, dt, epsilon, dealias) and cached.
# run_simulation owns the three coefficient arrays and steps them in place.
# It goes back to physical space only for a diagnostics row, and there only
# with psi (all three fields on the last step or when states are stored):
# the row reads rho and phi off the coefficients.  Both checks after a step
# read one squared norm per field: it is non-finite when a coefficient is,
# and its root bounds the sup-norm, so the divergence proxy rarely needs more.

_FIELDS = ("psi", "rho", "phi")
_SPACES = (FREQUENCY, HALF, HALF)  # how a Strang step holds each field


@dataclass(frozen=True, eq=False)
class _LinearPropagator:
    """Symbols of the exact linear flow over one time t: psi's on the full
    lattice, the acoustic ones on the half-spectrum columns."""

    schrodinger: np.ndarray  # exp(-i epsilon t |xi|^2)
    cos: np.ndarray  # cos(|xi| t)
    omega_sin: np.ndarray  # |xi| sin(|xi| t)
    sinc: np.ndarray  # sin(|xi| t) / |xi|, and t at xi = 0

    def apply_in_place(self, psi_h, rho_h, phi_h):
        """Flow the given coefficient arrays in place and return them."""
        psi_h *= self.schrodinger
        omega_sin_phi = self.omega_sin * phi_h
        phi_h *= self.cos
        phi_h -= self.sinc * rho_h
        rho_h *= self.cos
        rho_h += omega_sin_phi
        return psi_h, rho_h, phi_h


@dataclass(frozen=True, eq=False)
class _StepPropagators:
    """What a Strang step multiplies by, for one (grid, dt, epsilon, dealias)."""

    half: _LinearPropagator  # the linear flow over dt/2
    dx: np.ndarray  # i xi_1, zero on the axis-0 Nyquist plane; half width
    mask: np.ndarray | None  # the 2/3 rule at half width, None without dealiasing


@lru_cache(maxsize=8)
def _linear_propagator(grid: Grid, t: float, epsilon: float) -> _LinearPropagator:
    absxi = half_width(grid.xi_modulus)
    sinc = np.full(absxi.shape, t, dtype=np.float64)
    nz = absxi > 0
    sinc[nz] = np.sin(absxi[nz] * t) / absxi[nz]
    return _LinearPropagator(
        schrodinger=frozen_symbol(np.exp(-1j * (epsilon * t) * grid.xi_squared)),
        cos=frozen_symbol(np.cos(absxi * t)),
        omega_sin=frozen_symbol(absxi * np.sin(absxi * t)),
        sinc=frozen_symbol(sinc),
    )


@lru_cache(maxsize=8)
def _step_propagators(grid: Grid, dt: float, epsilon: float, dealias: bool) -> _StepPropagators:
    return _StepPropagators(
        half=_linear_propagator(grid, dt / 2.0, epsilon),
        dx=half_dx(grid),
        mask=frozen_symbol(half_width(dealias_mask(grid))) if dealias else None,
    )


def _coefficients(state: ZRState) -> list[np.ndarray]:
    """psi's full spectrum and the half-spectra of rho and phi, as copies
    the caller may change in place."""
    return [
        to_frequency(state.psi).values.copy(),
        half_spectrum(state.rho).values.copy(),
        half_spectrum(state.phi).values.copy(),
    ]


def _like(state: ZRState, coeffs) -> ZRState:
    """A state of the given coefficients (as _coefficients returns them),
    each field in the representation of the same field of state."""
    fields = []
    for name, c, space in zip(_FIELDS, coeffs, _SPACES):
        f = ComplexField(state.grid, c, space)
        given = getattr(state, name).space
        fields.append(to_physical(f) if given == PHYSICAL
                      else to_frequency(f) if given == FREQUENCY else f)
    return ZRState(*fields)


def _linear_flow(state: ZRState, t: float, params: ModelParams) -> ZRState:
    """Exact spectral flow of the linear part over time t.

    psi by the free Schrodinger group (scaled by epsilon); (rho, phi) by the
    exact rotation of rho_t = -Lap phi, phi_t = -rho.  The zero mode keeps
    rho constant and moves phi by -t*rho.  Each field comes back in the
    representation it was given in; rho and phi are taken as real.
    """
    flow = _linear_propagator(state.grid, t, params.epsilon)
    return _like(state, flow.apply_in_place(*_coefficients(state)))


def _strang_coefficients(psi_h, rho_h, phi_h, dt, params: ModelParams, prop: _StepPropagators):
    """L(dt/2) N(dt) L(dt/2) in place on psi's spectrum and the half-spectra
    of rho and phi, with two complex and two real transforms.

    The nonlinear substep uses that |psi|^2 is invariant under the phase
    rotation: rho and phi are advanced with the frozen source, and psi is
    rotated with the substep means of rho and phi_x.
    """
    prop.half.apply_in_place(psi_h, rho_h, phi_h)
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

    return prop.half.apply_in_place(psi, rho_h, phi_h)


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

    prop = _step_propagators(state.grid, dt, params.epsilon, dealias)
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
    store_states: bool = False

    def record(self, t: float, state: ZRState, params: ModelParams,
               spectral: ZRState | None = None):
        """Append one diagnostics row.

        psi is taken to physical space once.  spectral, the same state as
        coefficients, saves energy its forward transforms; the L2 norms of
        rho and phi are then taken from its coefficients (Plancherel on the
        half-spectrum, whether they are held as half or full spectra).  With
        it and psi in physical space, a row costs energy's one transform,
        whatever the representation of rho and phi in state; a state held
        wholly as coefficients costs two without it.
        """
        if self.times and t <= self.times[-1]:
            raise ContractViolationError("time stamps must be strictly increasing")
        psi = to_physical(state.psi)
        row = ZRState(psi, state.rho, state.phi)
        coeffs = state if spectral is None else spectral
        self.times.append(t)
        self.mass.append(mass(row))
        self.energy.append(energy(row, params, coeffs))
        self.max_abs_psi.append(float(np.max(np.abs(psi.values))))
        for f, column in ((coeffs.rho, self.l2_rho), (coeffs.phi, self.l2_phi)):
            column.append((f if f.space == PHYSICAL else half_spectrum(f)).l2_norm())
        if self.store_states:
            self.states.append(state.copy())

    def __len__(self):
        return len(self.times)


# Relative slack on the coefficient bounds for the round-off of their sums
# and of the inverse FFT whose sup they bound; a sum of N squares can be off
# by about N eps (4e-12 at 32^3).
_BOUND_MARGIN = 1e-12
_L2_MARGIN = 1e-9


def run_simulation(config: SimConfig, store_states: bool = False) -> Trajectory:
    """Integrate from t=0 to t_end, recording diagnostics every stride steps.

    The loop steps psi's spectrum and the rfftn half-spectra of rho and phi
    in place, as plain arrays.  The divergence proxy stops the run as soon
    as any field's sup-norm exceeds blowup_factor times its initial value;
    the partial trajectory, the field and its growth factor are attached to
    the raised DivergenceError.

    Only a step that writes a diagnostics row (every stride-th step and the
    last) goes back to physical space.  There psi takes one inverse FFT, and
    the row one more (see Trajectory.record); the last step, and every row
    step when store_states is set, also bring rho and phi back, so the
    stored states are physical.  The proxy tries three bounds on sup|f| in
    turn, until one is under the threshold: the l2 norm of the coefficients
    (the finiteness check's squared norm), N^{-1/2} sum|f_hat|, and the
    exact sup, for which a field held as coefficients takes its inverse FFT.
    So it trips at the same step, on the same field, as an exact check
    every step.
    """
    state = make_initial_state(config)
    spectral = ZRState(*(to_frequency(getattr(state, name)) for name in _FIELDS))
    traj = Trajectory(store_states=store_states)
    traj.record(0.0, state, config.params, spectral)
    if not store_states:
        traj.states = [state.copy()]
    # The loop steps these in place; the full spectra of rho and phi go.
    coeffs = _coefficients(spectral)
    del spectral
    grid = state.grid
    prop = _step_propagators(grid, config.dt, config.params.epsilon, config.dealias)

    n_steps = int(round(config.t_end / config.dt))
    raw_sup = {
        name: float(np.max(np.abs(to_physical(getattr(state, name)).values)))
        for name in _FIELDS
    }
    # Fields starting at zero are judged against the largest initial field,
    # otherwise any excitation at all would trip the proxy.
    floor = max(max(raw_sup.values()), 1e-300)
    initial_sup = {name: max(v, floor) for name, v in raw_sup.items()}
    limits = {name: config.blowup_factor * sup0 for name, sup0 in initial_sup.items()}

    t = 0.0
    for k in range(n_steps):
        _strang_coefficients(*coeffs, config.dt, config.params, prop)
        try:
            norms = _squared_norms(coeffs)
        except DivergenceError as err:
            raise DivergenceError(str(err), time=t, trajectory=traj, field=err.field) from None
        t = (k + 1) * config.dt
        row = (k + 1) % config.diagnostics_stride == 0 or k == n_steps - 1
        if row:
            spectral = ZRState(*(ComplexField(grid, c, sp) for c, sp in zip(coeffs, _SPACES)))
            psi = to_physical(spectral.psi)
            if store_states or k == n_steps - 1:
                state = ZRState(psi, to_physical(spectral.rho), to_physical(spectral.phi))
            else:
                state = ZRState(psi, spectral.rho, spectral.phi)
        for name, c, space, sq in zip(_FIELDS, coeffs, _SPACES, norms):
            limit = limits[name]
            if (1.0 + _L2_MARGIN) * math.sqrt(sq) < limit:
                continue
            f = getattr(state, name) if row else ComplexField(grid, c, space)
            if f.space != PHYSICAL and (1.0 + _BOUND_MARGIN) * sup_bound(f) < limit:
                continue
            sup = np.max(np.abs(to_physical(f).values))
            if sup > limit:
                raise DivergenceError(
                    f"{name} sup-norm exceeded {config.blowup_factor:g} x initial",
                    time=t,
                    trajectory=traj,
                    field=name,
                    growth=float(sup / initial_sup[name]),
                )
        if row:
            traj.record(t, state, config.params, spectral)
    if not store_states:
        traj.states.append(state.copy())
    return traj


# ---------------------------------------------------------------------------
# Cutoff Duhamel-Picard iteration for the half-wave system
# ---------------------------------------------------------------------------

_COMPONENTS = ("psi", "rho_plus", "rho_minus", "varphi_plus", "varphi_minus")
_MINUS = {"rho_minus": "rho_plus", "varphi_minus": "varphi_plus"}  # -> plus partner


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


def _mirror(hat: np.ndarray) -> np.ndarray:
    """conj(hat(-xi)): the coefficients of the complex conjugate of the field
    whose coefficients are hat."""
    minus_k = (-np.arange(hat.shape[0])) % hat.shape[0]
    return np.conj(hat[np.ix_(*[minus_k] * hat.ndim)])


def _check_count(value, name: str, least: int) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ConfigurationError(f"{name} must be an integer >= {least}, got {value!r}")


def picard_iterate(
    initial: PlusMinusState,
    T: float,
    n_iters: int,
    params: ModelParams,
    n_time: int = 64,
    burn_in: int = 2,
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
    component's are its plus partner's.  With extra_cutoff_terms each minus
    source carries its own -omega^{-1} term, the symmetry fails, and the
    minus components take integrals of their own.
    """
    if not (0.0 < T <= 1.0):
        raise ConfigurationError(f"T must be in (0, 1], got {T}")
    _check_count(n_iters, "n_iters", 1)
    _check_count(burn_in, "burn_in", 1)
    _check_count(n_time, "n_time", 4)
    if n_time % 2:
        raise ConfigurationError(f"n_time must be even, got {n_time}")

    grid = initial.grid
    extra = params.extra_cutoff_terms
    dt = 4.0 * T / n_time
    times = -2.0 * T + dt * np.arange(n_time)
    zero_index = n_time // 2
    axes = tuple(range(1, grid.dim + 1))
    tshape = (-1,) + (1,) * grid.dim

    lam = smooth_cutoff(times).reshape(tshape)
    lam_T = smooth_cutoff(times / T).reshape(tshape)
    # The screening lambda_{2T}(s) of the sources is exactly 1.0 on the
    # window: |t| <= 2T there, so |t / 2T| <= 1 even after rounding, and
    # multiplying by it would change no bit.  It is left out.

    # Per component: exp(-i t p), the source it reuses, and lambda_T times
    # its Duhamel coefficient, -i epsilon (psi) or -i (the acoustic ones,
    # the conjugated minus components included).
    wave = _group(times, grid.xi_modulus)
    psi_group = _group(times, params.epsilon * grid.xi_squared)
    plan = {"psi": (psi_group, "F", -1j * params.epsilon * lam_T)}
    for name in _COMPONENTS[1:]:
        plan[name] = (wave, "G" if name.startswith("rho") else "H", -1j * lam_T)
    # The component whose Duhamel part each one reads: a minus component its
    # plus partner's, unless extra_cutoff_terms gives it its own.
    carried = {name: name if extra else _MINUS.get(name, name) for name in _COMPONENTS}
    explicit = [name for name in _COMPONENTS if carried[name] == name]
    # Each source hat is freed right after its last reader.
    last_reader = {plan[name][1]: name for name in explicit}

    u0 = {name: to_frequency(f).values for name, f in zip(_COMPONENTS, initial.fields())}
    # The acoustic free parts are lambda * wave * data[name]; they are not held.
    data = {name: _mirror(u0[name]) if name in _MINUS else u0[name] for name in _COMPONENTS[1:]}
    free_psi = lam * (psi_group * u0["psi"])
    cwave = np.conj(wave)
    # (rho_+ + rho_-) + D (varphi_+ + varphi_-) of the free part, as F reads it.
    free_sum = wave * (u0["rho_plus"] + params.D * u0["varphi_plus"])
    free_sum += cwave * (u0["rho_minus"] + params.D * u0["varphi_minus"])
    free_acoustic = lam * np.fft.ifftn(free_sum, axes=axes, norm="ortho")
    del free_sum
    winv = source_symbols(grid, params.D).omega_inv

    def acoustic_duhamel(rho, varphi):
        out = params.D * duh[varphi]
        out += duh[rho]
        return np.fft.ifftn(out, axes=axes, norm="ortho", out=out)

    # |free + D|^2 = |free|^2 + |D|^2 + 2 Re <free, D> per time slice, where
    # |free|^2 = lambda^2 |data|^2 and <free, D> = lambda <data, conj(wave) D>.
    lam_rows = lam.ravel()
    free_sq = {name: lam_rows**2 * np.vdot(a, a).real for name, a in data.items()}

    def sup_l2_acoustic(key):
        """The largest sup_l2 of the acoustic iterates whose Duhamel part is duh[key]."""
        pairs = duh[key].reshape(n_time, -1).view(np.float64)
        sq = np.einsum("ij,ij->i", pairs, pairs)
        tilted = np.multiply(cwave, duh[key]).reshape(n_time, -1)
        top = max(np.max(free_sq[name] + sq
                         + 2.0 * lam_rows * (tilted @ np.conj(data[name]).ravel()).real)
                  for name in _COMPONENTS[1:] if carried[name] == key)
        return float(np.sqrt(max(top, 0.0) * grid.cell_volume))

    duh = {name: np.zeros((n_time,) + grid.shape, dtype=np.complex128) for name in explicit}
    component_diffs = {name: [] for name in _COMPONENTS}
    largest = 0.0
    for it in range(n_iters + 1):
        # The current iterate: psi's coefficients, and the norms of all five.
        psi_hat = free_psi + duh["psi"]
        largest = max(largest, _sup_l2(psi_hat, grid), *map(sup_l2_acoustic, explicit[1:]))
        if it == n_iters:
            break

        psi = np.fft.ifftn(psi_hat, axes=axes, norm="ortho")
        a2 = np.abs(psi)
        a2 *= a2
        # The free sum, the plus Duhamel part and the conjugate of the minus
        # one, which is the plus one again without extra_cutoff_terms.
        acoustic = acoustic_duhamel("rho_plus", "varphi_plus")
        acoustic += np.conj(acoustic_duhamel("rho_minus", "varphi_minus") if extra else acoustic)
        acoustic += free_acoustic
        F = coupled_source(psi, a2, acoustic, params)
        del acoustic
        psi_t = envelope_rate(psi_hat, F, grid, params)
        sources = {"F": np.fft.fftn(F, axes=axes, norm="ortho", out=F)}
        del psi_hat, F
        sources["G"], sources["H"] = half_wave_sources(a2, psi, psi_t, grid, params)
        del psi, a2, psi_t

        for name in explicit:
            group, source, coef = plan[name]
            q_hat = sources.pop(source) if last_reader[source] == name else sources[source]
            if extra and name != "psi":
                # The source subtracts omega^{-1} times its own iterate.
                q_hat = q_hat - winv * (lam * (wave * data[name]) + duh[name])
            new = _retarded(q_hat, group, dt, zero_index)
            del q_hat
            new *= coef
            # The old Duhamel part is not read again; the difference overwrites it.
            diff = np.subtract(duh[name], new, out=duh[name])
            component_diffs[name].append(_sup_l2(diff, grid))
            duh[name] = new
    for name in _COMPONENTS:
        if carried[name] != name:
            component_diffs[name] = list(component_diffs[carried[name]])

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
    # ratios taken from them say nothing about contraction.
    floor = 64 * np.finfo(np.float64).eps * largest
    tail = [r for r, a in zip(ratios, diffs[:-1]) if a > floor]
    tail = tail[burn_in - 1 :] if len(tail) >= burn_in else tail
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
