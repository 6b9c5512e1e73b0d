import itertools
import tracemalloc
import weakref

import numpy as np
import pytest

from test_picard_equivalence import GRIDS as EQUIVALENCE_GRIDS
from test_picard_equivalence import PARAMS as PICARD_PARAMS
from test_picard_equivalence import small_data as equivalence_data
from test_row_equivalence import record_state
from test_spectral import half_shape
from zrbr import evolution
from zrbr.bourgain import WAVE_PLUS, _lattice, smooth_cutoff
from zrbr.config import SimConfig, h1_norm, make_initial_state
from zrbr.errors import ConfigurationError, ContractViolationError, DivergenceError
from zrbr.evolution import (
    _BOUND_MARGIN,
    _L2_MARGIN,
    Trajectory,
    _coefficient_bound,
    _linear_flow,
    _squared_norms,
    picard_contraction,
    picard_iterate,
    run_simulation,
    strang_step,
)
from zrbr.model import ModelParams, PlusMinusState, ZRState, mass
from zrbr.spectral import (
    ComplexField,
    Grid,
    dealias_mask,
    full_spectrum,
    half_spectrum,
    to_frequency,
    to_physical,
    zero_field,
)

FIELDS = ("psi", "rho", "phi")
EQUIVALENCE_PARAMS = ModelParams(sigma2=-1.0, W=1.3, D=0.5, epsilon=0.7)


def small_grid():
    return Grid(2, 16, 4 * np.pi)


def random_state(grid, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    def smooth(s):
        hat = np.zeros(grid.shape, dtype=np.complex128)
        r = np.random.default_rng(s)
        for i in range(-2, 3):
            for j in range(-2, 3):
                hat[i % grid.n, j % grid.n] = r.normal() + 1j * r.normal()
        return np.fft.ifftn(hat, norm="ortho")
    psi = scale * smooth(seed)
    rho = scale * smooth(seed + 1).real
    phi = scale * smooth(seed + 2).real
    return ZRState(
        ComplexField(grid, psi),
        ComplexField(grid, rho + 0j),
        ComplexField(grid, phi + 0j),
    )


def random_state_nd(grid, seed, scale=1.0, band=3):
    """Smooth random state on a 2D or 3D grid: complex psi, real rho, phi."""
    rng = np.random.default_rng(seed)

    def smooth():
        hat = np.zeros(grid.shape, dtype=np.complex128)
        for m in itertools.product(range(-band, band + 1), repeat=grid.dim):
            hat[tuple(np.mod(m, grid.n))] = rng.normal() + 1j * rng.normal()
        vals = np.fft.ifftn(hat, norm="ortho")
        return scale * vals / np.max(np.abs(vals))

    psi, rho, phi = smooth(), smooth().real, smooth().real
    return ZRState(
        ComplexField(grid, psi),
        ComplexField(grid, rho + 0j),
        ComplexField(grid, phi + 0j),
    )


def in_frequency(state):
    return ZRState(*(to_frequency(getattr(state, name)) for name in FIELDS))


def max_rel_diff(a, b):
    """max |a - b| / max |b| over physical values."""
    a = to_physical(a).values
    b = to_physical(b).values
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


# ---------------------------------------------------------------------------
# Reference integrator: a frozen copy of the physical-space Strang step that
# the Fourier-space integrator replaced (19 FFTs a step).  The equivalence
# tests below hold the package to it.
# ---------------------------------------------------------------------------

def reference_linear_flow(state, t, params):
    grid = state.grid
    xi2 = grid.xi_squared
    absxi = grid.xi_modulus

    psi_h = to_frequency(state.psi).values * np.exp(-1j * params.epsilon * t * xi2)

    rho_h = to_frequency(state.rho).values
    phi_h = to_frequency(state.phi).values
    c = np.cos(absxi * t)
    s = np.sin(absxi * t)
    sinc = np.empty_like(absxi)
    nz = absxi > 0
    sinc[nz] = s[nz] / absxi[nz]
    sinc[~nz] = t
    rho_new = c * rho_h + absxi * s * phi_h
    phi_new = -sinc * rho_h + c * phi_h

    return ZRState(
        ComplexField(grid, psi_h, "frequency"),
        to_physical(ComplexField(grid, rho_new, "frequency")),
        to_physical(ComplexField(grid, phi_new, "frequency")),
    )


def reference_strang_step(state, dt, params, dealias=True):
    if dt == 0.0:
        return state.copy()

    grid = state.grid
    half = reference_linear_flow(state, dt / 2.0, params)

    psi = to_physical(half.psi).values
    rho = to_physical(half.rho).values.real
    phi = to_physical(half.phi).values.real
    a2 = np.abs(psi) ** 2

    a2_h = np.fft.fftn(a2, norm="ortho")
    if dealias:
        a2_h = a2_h * dealias_mask(grid)
    xi1 = grid.frequencies()[0]
    a2_x = np.fft.ifftn(1j * xi1 * a2_h, norm="ortho").real
    a2_smooth = np.fft.ifftn(a2_h, norm="ortho").real

    rho_new = rho - dt * params.D * a2_x
    phi_new = phi - dt * a2_smooth

    phi_x = np.fft.ifftn(1j * xi1 * np.fft.fftn(phi, norm="ortho"), norm="ortho").real
    phi_new_x = np.fft.ifftn(1j * xi1 * np.fft.fftn(phi_new, norm="ortho"), norm="ortho").real

    rho_bar = 0.5 * (rho + rho_new)
    phi_x_bar = 0.5 * (phi_x + phi_new_x)
    phase = params.sigma2 * a2 + params.W * rho_bar + params.W * params.D * phi_x_bar
    psi_new = psi * np.exp(-1j * params.epsilon * dt * phase)

    mid = ZRState(
        ComplexField(grid, psi_new, "physical"),
        ComplexField(grid, rho_new + 0j, "physical"),
        ComplexField(grid, phi_new + 0j, "physical"),
    )
    out = reference_linear_flow(mid, dt / 2.0, params)
    return ZRState(to_physical(out.psi), out.rho, out.phi)


# ---------------------------------------------------------------------------
# Reference proxy loop: a frozen copy of run_simulation as it was when the
# divergence proxy took three inverse FFTs and an exact sup after every step.
# ---------------------------------------------------------------------------

def reference_run_simulation(config, store_states=False):
    def record(t, state, spectral):
        # psi's physical values from state, every coefficient from spectral
        traj.record(t, state.grid, config.params, state.psi.values, spectral.psi.values,
                    half_spectrum(spectral.rho), half_spectrum(spectral.phi))
        if store_states:
            traj.states.append(state.copy())

    state = make_initial_state(config)
    spectral = ZRState(*(to_frequency(getattr(state, name)) for name in FIELDS))
    traj = Trajectory()
    record(0.0, state, spectral)
    if not store_states:
        traj.states = [state.copy()]

    n_steps = int(round(config.t_end / config.dt))
    raw_sup = {
        name: float(np.max(np.abs(to_physical(getattr(state, name)).values)))
        for name in FIELDS
    }
    floor = max(max(raw_sup.values()), 1e-300)
    initial_sup = {name: max(v, floor) for name, v in raw_sup.items()}

    t = 0.0
    for k in range(n_steps):
        try:
            spectral = strang_step(spectral, config.dt, config.params, dealias=config.dealias)
        except DivergenceError as err:
            raise DivergenceError(str(err), time=t, trajectory=traj) from None
        t = (k + 1) * config.dt
        state = ZRState(*(to_physical(getattr(spectral, name)) for name in FIELDS))
        for name, sup0 in initial_sup.items():
            sup = np.max(np.abs(getattr(state, name).values))
            if sup > config.blowup_factor * sup0:
                raise DivergenceError(
                    f"{name} sup-norm exceeded {config.blowup_factor:g} x initial",
                    time=t,
                    trajectory=traj,
                )
        if (k + 1) % config.diagnostics_stride == 0 or k == n_steps - 1:
            record(t, state, spectral)
    if not store_states:
        traj.states.append(state.copy())
    return traj


def injected_outcome(monkeypatch, run, config, step, field, value):
    """outcome(run, config), with value written into one coefficient of
    field right after the step-th Strang step."""
    kernel = evolution._strang_coefficients
    calls = []

    def kernel_then_inject(*args):
        coeffs = kernel(*args)
        calls.append(None)
        if len(calls) == step:
            coeffs[FIELDS.index(field)][1, 2] = value
        return coeffs

    with monkeypatch.context() as m:
        m.setattr(evolution, "_strang_coefficients", kernel_then_inject)
        return outcome(run, config)


def outcome(run, config, store_states=False):
    """(trajectory, error): the trajectory returned or attached to the
    raised DivergenceError, and that error (None for a run to t_end)."""
    try:
        return run(config, store_states), None
    except DivergenceError as err:
        return err.trajectory, err


def assert_same_trajectory(a, b):
    assert a.times == b.times
    for column in ("mass", "energy", "max_abs_psi", "l2_rho", "l2_phi"):
        assert getattr(a, column) == getattr(b, column), column
    assert len(a.states) == len(b.states)
    for x, y in zip(a.states, b.states):
        for name in FIELDS:
            np.testing.assert_array_equal(getattr(x, name).values, getattr(y, name).values)


class TestSmoothCutoff:
    def test_plateau_and_support(self):
        assert smooth_cutoff(0.5) == 1.0
        assert smooth_cutoff(-1.0) == 1.0
        assert smooth_cutoff(3.0) == 0.0
        assert smooth_cutoff(2.0) == 0.0

    def test_bridge_is_intermediate_and_even(self):
        v = smooth_cutoff(1.5)
        assert 0.0 < v < 1.0
        assert smooth_cutoff(-1.5) == v

    def test_monotone_on_bridge(self):
        t = np.linspace(1.0, 2.0, 101)
        v = smooth_cutoff(t)
        assert np.all(np.diff(v) <= 0)


class TestStrangStep:
    def test_zero_dt_is_identity(self):
        st = random_state(small_grid(), 0)
        out = strang_step(st, 0.0, ModelParams())
        np.testing.assert_array_equal(out.psi.values, st.psi.values)

    def test_plane_wave_free_phase_exact(self):
        # sigma2=0, rho=phi=0: after n steps the mode carries exp(-i|xi|^2 n dt)
        grid = Grid(2, 16, 2 * np.pi)
        coords = grid.coordinates()
        psi0 = np.exp(1j * (2 * coords[0] + coords[1]))
        st = ZRState(ComplexField(grid, psi0), zero_field(grid), zero_field(grid))
        params = ModelParams(sigma2=0.0, W=1.0, D=0.0)
        dt, n = 1e-2, 10
        for _ in range(n):
            st = strang_step(st, dt, params)
        expected = psi0 * np.exp(-1j * 5.0 * n * dt)
        np.testing.assert_allclose(st.psi.values, expected, atol=1e-12)

    def test_linear_flow_reversible(self):
        st = random_state(small_grid(), 1)
        params = ModelParams()
        fwd = _linear_flow(st, 0.37, params)
        back = _linear_flow(fwd, -0.37, params)
        for name in ("psi", "rho", "phi"):
            a = to_physical(getattr(st, name)).values
            b = to_physical(getattr(back, name)).values
            np.testing.assert_allclose(a, b, atol=1e-12)

    def test_acoustic_rotation_solves_wave_system(self):
        # d/dt rho = -Lap phi, d/dt phi = -rho: check against a one-mode
        # closed form rho(t) = cos(|xi| t) rho0 for phi0 = 0.
        grid = Grid(2, 16, 2 * np.pi)
        coords = grid.coordinates()
        rho0 = np.cos(coords[0]) # |xi| = 1
        st = ZRState(
            zero_field(grid),
            ComplexField(grid, rho0 + 0j),
            zero_field(grid),
        )
        t = 0.9
        out = _linear_flow(st, t, ModelParams())
        np.testing.assert_allclose(
            to_physical(out.rho).values.real, np.cos(t) * rho0, atol=1e-12
        )

    @pytest.mark.parametrize("spaces", [("physical",) * 3, ("frequency",) * 3,
                                        ("frequency", "physical", "frequency"),
                                        ("physical", "frequency", "physical")])
    def test_inputs_unchanged(self, spaces):
        # the step runs the in-place kernel on copies of its inputs
        st = random_state_nd(Grid(2, 16, 4 * np.pi), 4, scale=2.0)
        convert = {"physical": to_physical, "frequency": to_frequency}
        st = ZRState(*(convert[sp](getattr(st, name)) for name, sp in zip(FIELDS, spaces)))
        before = [getattr(st, name).values.copy() for name in FIELDS]
        out = strang_step(st, 1e-2, EQUIVALENCE_PARAMS)
        for name, values, space in zip(FIELDS, before, spaces):
            np.testing.assert_array_equal(getattr(st, name).values, values)
            assert getattr(out, name).space == space
            assert not np.shares_memory(getattr(out, name).values, getattr(st, name).values)
            assert not np.array_equal(getattr(out, name).values, values), name

    def test_second_order_self_convergence(self):
        params = ModelParams(sigma2=-1.0, W=1.0, D=0.5)
        cfg = dict(dim=2, n=32, length=8 * np.pi, t_end=0.2, params=params,
                   recipe="gaussian", width=1.5, normalize_h1=1.0)
        def final_psi(dt):
            c = SimConfig(dt=dt, **cfg)
            traj = run_simulation(c, store_states=False)
            return traj.states[-1].psi.values
        ref = final_psi(2.5e-4)
        e1 = np.max(np.abs(final_psi(2e-3) - ref))
        e2 = np.max(np.abs(final_psi(1e-3) - ref))
        assert 3.5 <= e1 / e2 <= 4.7


class TestReferenceEquivalence:
    @pytest.mark.parametrize("space", ["frequency", "physical"])
    @pytest.mark.parametrize("dealias", [True, False])
    @pytest.mark.parametrize("grid", [Grid(2, 32, 4 * np.pi), Grid(3, 16, 4 * np.pi)],
                             ids=["2d", "3d"])
    def test_fifty_steps_match_reference(self, grid, dealias, space):
        start = random_state_nd(grid, 5, scale=2.0)
        ref = start
        cur = in_frequency(start) if space == "frequency" else start
        for _ in range(50):
            ref = reference_strang_step(ref, 1e-2, EQUIVALENCE_PARAMS, dealias)
            cur = strang_step(cur, 1e-2, EQUIVALENCE_PARAMS, dealias)
        for name in FIELDS:
            assert getattr(cur, name).space == space
            assert max_rel_diff(getattr(cur, name), getattr(ref, name)) <= 1e-12, name

    @pytest.mark.parametrize("dealias", [True, False])
    @pytest.mark.parametrize("grid", [Grid(2, 32, 4 * np.pi), Grid(3, 16, 4 * np.pi)],
                             ids=["2d", "3d"])
    def test_imaginary_rho_and_phi_are_dropped_like_reference(self, grid, dealias):
        # rho and phi are real: the reference step takes .real of them, and
        # strang_step takes rfftn of their real part.
        st = random_state_nd(grid, 9, scale=2.0)
        noise = random_state_nd(grid, 10, scale=0.5)
        st = ZRState(st.psi,
                     ComplexField(grid, st.rho.values + 1j * noise.rho.values.real),
                     ComplexField(grid, st.phi.values + 1j * noise.phi.values.real))
        assert np.max(np.abs(st.rho.values.imag)) > 0.1
        cur = strang_step(st, 1e-2, EQUIVALENCE_PARAMS, dealias)
        ref = reference_strang_step(st, 1e-2, EQUIVALENCE_PARAMS, dealias)
        for name in FIELDS:
            assert getattr(cur, name).space == "physical"
            assert max_rel_diff(getattr(cur, name), getattr(ref, name)) <= 1e-12, name

    def test_linear_flow_matches_reference(self):
        st = random_state_nd(Grid(3, 16, 4 * np.pi), 6)
        new = _linear_flow(st, 0.37, EQUIVALENCE_PARAMS)
        ref = reference_linear_flow(st, 0.37, EQUIVALENCE_PARAMS)
        for name in FIELDS:
            assert max_rel_diff(getattr(new, name), getattr(ref, name)) <= 1e-12, name

    def test_diagnostics_match_reference_loop(self):
        cfg = SimConfig(dim=2, n=32, length=8 * np.pi, dt=1e-2, t_end=0.5,
                        params=EQUIVALENCE_PARAMS, recipe="gaussian", width=1.5,
                        normalize_h1=2.0, diagnostics_stride=7)
        traj = run_simulation(cfg)

        ref = Trajectory()
        state = make_initial_state(cfg)
        record_state(ref, 0.0, state, cfg.params)
        for k in range(50):
            state = reference_strang_step(state, cfg.dt, cfg.params, cfg.dealias)
            if (k + 1) % 7 == 0 or k == 49:
                record_state(ref, (k + 1) * cfg.dt, state, cfg.params)

        assert traj.times == ref.times
        for column in ("mass", "energy", "max_abs_psi", "l2_rho", "l2_phi"):
            a, b = np.array(getattr(traj, column)), np.array(getattr(ref, column))
            assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b)), column
        for name in FIELDS:
            assert max_rel_diff(getattr(traj.states[-1], name), getattr(state, name)) <= 1e-12


class TestStrangProperties:
    """Seeded random states, couplings and times."""

    @staticmethod
    def _case(seed):
        rng = np.random.default_rng(seed)
        grid = Grid(int(rng.integers(2, 4)), 16, float(rng.uniform(2.0, 8.0)) * np.pi)
        params = ModelParams(
            sigma2=float(rng.uniform(-2.0, 2.0)),
            W=float(rng.uniform(0.0, 2.0)),
            D=float(rng.uniform(-1.0, 1.0)),
            epsilon=float(rng.uniform(0.2, 2.0)),
        )
        state = random_state_nd(grid, seed + 100, scale=float(rng.uniform(0.1, 2.0)))
        return rng, grid, params, state

    @staticmethod
    def _wave_energy(state):
        grid = state.grid
        phi_h = to_frequency(state.phi).values
        grad2 = np.sum(grid.xi_squared * np.abs(phi_h) ** 2) * grid.cell_volume
        return state.rho.l2_norm() ** 2 + grad2

    @pytest.mark.parametrize("seed", range(6))
    def test_linear_flow_is_unitary(self, seed):
        rng, _, params, st = self._case(seed)
        out = _linear_flow(st, float(rng.uniform(-2.0, 2.0)), params)
        assert out.psi.l2_norm() == pytest.approx(st.psi.l2_norm(), rel=1e-12)
        assert self._wave_energy(out) == pytest.approx(self._wave_energy(st), rel=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_linear_flow_is_reversible(self, seed):
        rng, _, params, st = self._case(seed)
        t = float(rng.uniform(-2.0, 2.0))
        back = _linear_flow(_linear_flow(st, t, params), -t, params)
        for name in FIELDS:
            assert max_rel_diff(getattr(back, name), getattr(st, name)) <= 1e-12, name

    @pytest.mark.parametrize("seed", range(6))
    def test_strang_step_conserves_mass(self, seed):
        rng, _, params, st = self._case(seed)
        dt = float(rng.uniform(1e-3, 2e-2))
        dealias = bool(rng.integers(2))
        cur = in_frequency(st)
        for _ in range(20):
            cur = strang_step(cur, dt, params, dealias)
        assert mass(cur) == pytest.approx(mass(st), rel=1e-12)


class TestRunSimulation:
    def test_zero_horizon_records_initial_state_only(self):
        cfg = SimConfig(dim=2, n=16, dt=1e-3, t_end=0.0)
        traj = run_simulation(cfg)
        assert len(traj) == 1
        assert traj.times == [0.0]
        first, last = traj.states
        assert first is not last
        for name in FIELDS:
            a, b = getattr(first, name).values, getattr(last, name).values
            assert not np.shares_memory(a, b)
            np.testing.assert_array_equal(a, b)

    def test_linear_run_conserves_mass_tightly(self):
        params = ModelParams(sigma2=0.0, W=1.0, D=0.0)
        cfg = SimConfig(dim=2, n=16, length=4 * np.pi, dt=1e-3, t_end=0.05,
                        params=params, recipe="gaussian", width=1.0)
        traj = run_simulation(cfg)
        m = np.array(traj.mass)
        assert np.max(np.abs(m - m[0])) <= 1e-12 * m[0]

    def test_blowup_proxy_raises_with_partial_trajectory(self):
        params = ModelParams(sigma2=-1.0, W=1.0, D=0.0)
        cfg = SimConfig(dim=2, n=16, length=4 * np.pi, dt=1e-3, t_end=0.1,
                        params=params, recipe="gaussian", amplitude=1.0,
                        blowup_factor=0.5)
        with pytest.raises(DivergenceError) as err:
            run_simulation(cfg)
        assert err.value.time is not None
        assert err.value.trajectory is not None

    @staticmethod
    def _ten_steps(fft_calls, stride):
        """(rows, FFTs of the run, FFTs of the first read of its states) of
        a 10-step run."""
        cfg = SimConfig(dim=3, n=8, length=4 * np.pi, dt=1e-3, t_end=0.01,
                        params=ModelParams(sigma2=-1.0, W=1.0, D=0.5),
                        recipe="gaussian", diagnostics_stride=stride)
        make_initial_state(cfg)
        setup = len(fft_calls)
        traj = run_simulation(cfg)
        ffts = len(fft_calls) - 2 * setup
        fft_calls.clear()
        traj.states
        return len(traj), ffts, fft_calls

    def test_fft_budget(self, fft_calls):
        # 3 forward transforms of the initial state, 6 FFT calls per step (the
        # real inverse is an ifft pass on each of the first two axes and an
        # irfftn on the last), 1 inverse one for psi on each row step after
        # t = 0, and 1 per diagnostics row; rho and phi come back only when
        # the states are first read
        rows, ffts, read = self._ten_steps(fft_calls, 3)
        assert rows == 5  # t = 0, three strides and the last step
        assert ffts == 3 + 6 * 10 + (rows - 1) + rows
        assert read == ["ifftn"] * 2

    def test_fft_budget_between_rows(self, fft_calls):
        # a stride beyond the 10 steps: only the last step writes a row, and
        # the other nine cost the 6 FFT calls of the step each
        rows, ffts, read = self._ten_steps(fft_calls, 20)
        assert rows == 2
        assert ffts == 3 + 6 * 10 + 1 + rows
        assert read == ["ifftn"] * 2

    def test_step_without_row_is_two_complex_and_two_real_transforms(self, fft_calls):
        cfg = SimConfig(dim=3, n=8, length=4 * np.pi, dt=1e-3, t_end=0.01,
                        params=ModelParams(sigma2=-1.0, W=1.0, D=0.5),
                        recipe="gaussian", diagnostics_stride=20)
        step = ["ifftn", "rfftn", "ifft", "ifft", "irfftn", "fftn"]
        make_initial_state(cfg)
        setup = list(fft_calls)
        fft_calls.clear()
        traj = run_simulation(cfg)
        # set-up, the forward transforms of the datum (psi's complex, rho's
        # and phi's real) and the t = 0 row's rfftn of |psi|^2; ten steps;
        # the last step's inverse transform of psi and its row
        assert fft_calls == (setup + ["fftn", "rfftn", "rfftn"] + ["rfftn"] + step * 10
                             + ["ifftn"] + ["rfftn"])
        # the first read of the states brings rho and phi back, a second
        # read nothing
        fft_calls.clear()
        traj.states
        assert fft_calls == ["ifftn"] * 2
        traj.states
        assert fft_calls == ["ifftn"] * 2

        # a state held as coefficients: half-spectra are cut and filled back
        # by copying
        coeffs = in_frequency(traj.states[-1])
        fft_calls.clear()
        out = strang_step(coeffs, cfg.dt, cfg.params)
        assert fft_calls == step
        assert [getattr(out, name).space for name in FIELDS] == ["frequency"] * 3

    def test_record_takes_psi_to_physical_once(self, fft_calls):
        st = random_state_nd(Grid(3, 8, 3 * np.pi), 21)
        params = ModelParams(sigma2=-1.0, W=1.5, D=0.5)
        spectral = in_frequency(st)
        arrays = (st.psi.values, spectral.psi.values, half_spectrum(spectral.rho),
                  half_spectrum(spectral.phi))
        fft_calls.clear()
        # the row itself: energy's rfftn of |psi|^2
        Trajectory().record(0.0, st.grid, params, *arrays)
        assert fft_calls == ["rfftn"]
        fft_calls.clear()
        coeff_row = Trajectory()
        record_state(coeff_row, 0.0, spectral, params)
        assert fft_calls == ["ifftn", "rfftn"]
        phys_row = Trajectory()
        record_state(phys_row, 0.0, st, params)
        for column in ("mass", "energy", "max_abs_psi", "l2_rho", "l2_phi"):
            assert getattr(coeff_row, column)[0] == pytest.approx(
                getattr(phys_row, column)[0], rel=1e-12, abs=0.0), column

    def test_non_finite_field_names_the_field(self):
        # |psi|^2 overflows in the first step, so psi turns non-finite
        cfg = SimConfig(dim=2, n=16, length=4 * np.pi, dt=1e-3, t_end=0.01,
                        recipe="gaussian", amplitude=1e160)
        with np.errstate(all="ignore"), pytest.raises(DivergenceError) as err:
            run_simulation(cfg)
        assert str(err.value) == "non-finite psi after step"
        assert (err.value.time, err.value.field, err.value.growth) == (0.0, "psi", None)
        assert err.value.trajectory.times == [0.0]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("field", ["rho", "phi"])
    def test_nan_in_one_field_names_that_field(self, monkeypatch, field):
        cfg = proxy_config(50.0, 2)
        traj, err = injected_outcome(monkeypatch, run_simulation, cfg, 3, field, np.nan)
        ref_traj, ref_err = injected_outcome(monkeypatch, reference_run_simulation, cfg, 3,
                                             field, np.nan)
        assert str(err) == str(ref_err) == f"non-finite {field} after step"
        assert err.time == ref_err.time == 2 * cfg.dt
        assert (err.field, err.growth) == (field, None)
        assert_same_trajectory(traj, ref_traj)
        assert traj.times == [0.0, 2 * cfg.dt]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_squared_norm_of_finite_coefficients_is_not_non_finite(
            self, monkeypatch):
        # |1e155|^2 overflows, so rho's squared norm is not finite, though
        # every coefficient is: the proxy, not the finiteness check, stops it.
        grid = small_grid()
        big = np.zeros(half_shape(grid), dtype=np.complex128)
        big[1, 2] = 1e155
        norms = _squared_norms([np.zeros(grid.shape, dtype=np.complex128), big, big])
        assert norms[0] == 0.0 and not np.isfinite(norms[1])

        cfg = proxy_config(50.0, 2)
        traj, err = injected_outcome(monkeypatch, run_simulation, cfg, 3, "rho", 1e155)
        ref_traj, ref_err = injected_outcome(monkeypatch, reference_run_simulation, cfg, 3,
                                             "rho", 1e155)
        assert str(err) == str(ref_err) == "rho sup-norm exceeded 50 x initial"
        assert err.time == ref_err.time == 3 * cfg.dt
        assert err.field == "rho" and err.growth > 1e100
        assert_same_trajectory(traj, ref_traj)

    def test_strang_2d_step_without_row_takes_no_fallback(self, fft_calls, monkeypatch):
        # The strang-2d benchmark's physics and grid, 20 steps with a row only
        # at the last: the l2 bound alone clears every check before it.
        cfg = SimConfig(dim=2, n=64, length=32 * np.pi, dt=1e-3, t_end=0.02,
                        params=ModelParams(sigma2=-1.0, W=1.0, D=0.5, epsilon=1.0),
                        recipe="gaussian", width=1.0, normalize_h1=1.0,
                        diagnostics_stride=100)
        bounds = []
        coefficient_bound = evolution._coefficient_bound
        monkeypatch.setattr(evolution, "_coefficient_bound",
                            lambda *args: bounds.append(args) or coefficient_bound(*args))
        step = ["ifftn", "rfftn", "ifft", "irfftn", "fftn"]
        make_initial_state(cfg)
        setup = list(fft_calls)
        fft_calls.clear()
        traj = run_simulation(cfg)
        assert fft_calls == (setup + ["fftn", "rfftn", "rfftn"] + ["rfftn"] + step * 20
                             + ["ifftn"] + ["rfftn"])
        assert bounds == []
        fft_calls.clear()
        traj.states
        assert fft_calls == ["ifftn"] * 2

    def test_trajectory_requires_increasing_times(self):
        traj = Trajectory()
        st = random_state(small_grid(), 2)
        record_state(traj, 0.0, st, ModelParams())
        with pytest.raises(ContractViolationError):
            record_state(traj, 0.0, st, ModelParams())

    @pytest.mark.parametrize("store_states", [False, True])
    def test_datum_is_freed_before_the_first_step(self, monkeypatch, store_states):
        # Held through the loop, the datum keeps the step's temporaries from
        # reusing freed memory, which costs page faults on every step.
        cfg = SimConfig(dim=3, n=8, length=4 * np.pi, dt=1e-3, t_end=0.003,
                        params=PROXY_PARAMS, recipe="gaussian", diagnostics_stride=1)
        build, kernel = evolution.make_initial_state, evolution._strang_coefficients
        datum, alive = [], []

        def build_and_watch(config):
            state = build(config)
            datum.extend(weakref.ref(x) for x in
                         [state] + [getattr(state, name).values for name in FIELDS])
            return state

        def kernel_and_check(*args):
            alive.append([ref() is not None for ref in datum])
            return kernel(*args)

        monkeypatch.setattr(evolution, "make_initial_state", build_and_watch)
        monkeypatch.setattr(evolution, "_strang_coefficients", kernel_and_check)
        traj = run_simulation(cfg, store_states)
        assert len(datum) == 4 and len(alive) == 3
        assert alive[0] == [False] * 4
        # the trajectory keeps a copy of the datum
        np.testing.assert_array_equal(traj.states[0].psi.values,
                                      build(cfg).psi.values)

    def test_a_warm_row_step_allocates_no_grid_array(self, monkeypatch):
        # 3D 16^3, a row every step: from the second step's kernel to the
        # third's, the step, its checks and its row write every temporary
        # into the run's workspace.  The smallest array a step could take
        # afresh is a real half-spectrum, 18 KiB.
        cfg = SimConfig(dim=3, n=16, length=4 * np.pi, dt=1e-3, t_end=0.004,
                        params=PROXY_PARAMS, recipe="gaussian", diagnostics_stride=1)
        kernel, calls, peaks = evolution._strang_coefficients, [], []

        def kernel_and_trace(*args):
            calls.append(None)
            if len(calls) == 2:
                tracemalloc.start()
            elif len(calls) == 3:
                peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()
            return kernel(*args)

        monkeypatch.setattr(evolution, "_strang_coefficients", kernel_and_trace)
        try:
            traj = run_simulation(cfg)
        finally:
            tracemalloc.stop()
        assert len(traj) == 5 and len(peaks) == 1
        assert peaks[0] < 16 * 16 * 9 * 8


PROXY_PARAMS = ModelParams(sigma2=-1.0, W=1.0, D=0.5)


def proxy_config(blowup_factor, stride):
    """A focusing Gaussian whose psi sup-norm grows to about 2x and rho's to
    about 5.7x its initial value over 200 steps."""
    return SimConfig(dim=2, n=16, length=4 * np.pi, dt=1e-2, t_end=2.0, params=PROXY_PARAMS,
                     recipe="gaussian", amplitude=2.0, blowup_factor=blowup_factor,
                     diagnostics_stride=stride)


def sup_bound(coeffs):
    """The bound run_simulation reads off unitary Fourier coefficients."""
    return (1.0 + _BOUND_MARGIN) * _coefficient_bound("psi", coeffs, np.sqrt(coeffs.size))


def half_sup_bound(grid, half):
    """The same bound read off a real field's half-spectrum, whose columns
    but the first and the Nyquist one stand for their conjugates too."""
    return (1.0 + _BOUND_MARGIN) * _coefficient_bound("rho", half, np.sqrt(grid.n**grid.dim))


class TestDivergenceProxy:
    """The coefficient-bound proxy against the exact every-step check."""

    @pytest.mark.parametrize("store_states", [False, True])
    @pytest.mark.parametrize("stride", [1, 7, 1000])
    @pytest.mark.parametrize("blowup_factor",
                             [0.5, 1.0, 1.05, 1.3, 1.9, 2.05, 3.0, 5.0, 5.7, 50.0])
    def test_trips_like_reference_loop(self, blowup_factor, stride, store_states):
        cfg = proxy_config(blowup_factor, stride)
        traj, err = outcome(run_simulation, cfg, store_states)
        ref_traj, ref_err = outcome(reference_run_simulation, cfg, store_states)
        assert_same_trajectory(traj, ref_traj)
        if ref_err is None:
            assert err is None
            return
        assert err is not None
        assert (err.time, str(err)) == (ref_err.time, str(ref_err))
        assert err.field == str(ref_err).split()[0]
        assert err.growth > blowup_factor

    @pytest.mark.parametrize("blowup_factor, step, field",
                             [(1.3, 30, "psi"), (2.05, 78, "rho"), (5.7, 160, "rho")])
    def test_trip_on_step_without_row(self, blowup_factor, step, field):
        cfg = proxy_config(blowup_factor, 7)
        assert step % 7
        _, err = outcome(run_simulation, cfg)
        _, ref_err = outcome(reference_run_simulation, cfg)
        assert err.time == ref_err.time == step * cfg.dt
        assert err.field == field
        assert str(err) == str(ref_err) == f"{field} sup-norm exceeded {blowup_factor:g} x initial"
        # rho starts at zero and is judged against psi's initial sup
        state = in_frequency(make_initial_state(cfg))
        sup0 = np.max(np.abs(to_physical(state.psi).values))
        for _ in range(step):
            state = strang_step(state, cfg.dt, cfg.params)
        sup = np.max(np.abs(to_physical(getattr(state, field)).values))
        assert err.growth == sup / sup0

    def test_bound_above_limit_takes_exact_sup_without_false_trip(self, fft_calls):
        # Random modes: psi's coefficient bound starts at 3.1x its sup, above
        # the 1.5x limit, while the exact sup stays under 1.2x over the run.
        cfg = SimConfig(dim=2, n=16, length=4 * np.pi, dt=1e-2, t_end=1.0,
                        params=ModelParams(sigma2=-2.0, W=1.0, D=0.5),
                        recipe="random-band-limited", amplitude=1.5, seed=3,
                        blowup_factor=1.5, diagnostics_stride=1000)
        psi = make_initial_state(cfg).psi
        assert sup_bound(to_frequency(psi).values) > 1.5 * np.max(np.abs(psi.values))
        start = len(fft_calls)
        traj = run_simulation(cfg)
        used = len(fft_calls) - start
        ref_traj, ref_err = outcome(reference_run_simulation, cfg)
        assert ref_err is None
        assert_same_trajectory(traj, ref_traj)
        # Without the fallback: 1 FFT for the initial datum, then 3 + 5 * 100
        # + 3 + 2 (see test_fft_budget: in 2D the real inverse is one ifft
        # pass and an irfftn); psi takes one more on each of the 99 steps
        # that write no row.
        assert used >= 1 + 508 + 99

    @pytest.mark.parametrize("blowup_factor", [1.3, 2.05, 5.7])
    def test_each_tier_decides(self, monkeypatch, fft_calls, blowup_factor):
        # A row only at t = 0, so every check up to the trip reads
        # coefficients: the l2 bound decides unless _coefficient_bound is
        # called, and the exact sup is taken when that bound reaches the
        # limit, by the only transform between two steps.
        cfg = proxy_config(blowup_factor, 1000)
        kernel, coefficient_bound = evolution._strang_coefficients, evolution._coefficient_bound
        bounds, entries, exits = [], [], []  # entries, exits: FFT counts at the kernel

        def kernel_counted(*args):
            entries.append(len(fft_calls))
            out = kernel(*args)
            exits.append(len(fft_calls))
            return out

        with monkeypatch.context() as m:
            m.setattr(evolution, "_strang_coefficients", kernel_counted)
            m.setattr(evolution, "_coefficient_bound",
                      lambda *args: bounds.append(coefficient_bound(*args)) or bounds[-1])
            traj, err = outcome(run_simulation, cfg)
        between = [fft_calls[a:b] for a, b in zip(exits, entries[1:] + [len(fft_calls)])]
        ref_traj, ref_err = outcome(reference_run_simulation, cfg)
        assert_same_trajectory(traj, ref_traj)
        assert (err.time, str(err)) == (ref_err.time, str(ref_err))
        # rho and phi start at zero, so every field's limit is psi's
        limit = blowup_factor * np.max(np.abs(make_initial_state(cfg).psi.values))
        checks = 3 * (round(err.time / cfg.dt) - 1) + FIELDS.index(err.field) + 1
        exact = sum((1.0 + _BOUND_MARGIN) * b >= limit for b in bounds)
        assert sum(between, []) == ["ifftn"] * exact
        decided = (checks - len(bounds), len(bounds) - exact, exact)
        assert min(decided) >= 1, decided

    @pytest.mark.parametrize("dim", [2, 3])
    def test_squared_norms_match_vdot_without_calling_it(self, dim, monkeypatch):
        # The sums run outside BLAS (np.vdot starts OpenBLAS's threads) and
        # agree with np.vdot to round-off on full and half spectra.
        rng = np.random.default_rng(dim)
        grid = Grid(dim, 64 if dim == 2 else 16, 2 * np.pi)

        def spectrum(shape):
            return (rng.normal(size=shape) + 1j * rng.normal(size=shape)) * rng.lognormal(
                size=shape)

        for _ in range(5):
            coeffs = [spectrum(grid.shape), spectrum(half_shape(grid)), spectrum(half_shape(grid))]
            expected = [w * np.vdot(c, c).real for w, c in zip((1, 2, 2), coeffs)]
            assert _squared_norms(coeffs) == pytest.approx(expected, rel=1e-14, abs=0.0)

        def no_blas(*args):
            raise AssertionError("BLAS call")

        monkeypatch.setattr(np, "vdot", no_blas)
        strang_step(random_state(grid, 3), 0.01, ModelParams())
        picard_contraction(equivalence_data(EQUIVALENCE_GRIDS["3d-8"]), 0.1, 1, ModelParams(), 8)

    @staticmethod
    def _assert_l2_bound_dominates_sup(grid, full, half):
        """The proxy's first tier, (1 + _L2_MARGIN) times the root of what
        _squared_norms gives, against the exact sup of psi's spectrum full
        and of a half-spectrum half, filled Hermitian as the proxy fills it."""
        norms = _squared_norms([full, half, half])
        for sq, spectrum in zip(norms, (full, full_spectrum(grid, half))):
            sup = np.max(np.abs(np.fft.ifftn(spectrum, norm="ortho")))
            assert (1.0 + _L2_MARGIN) * np.sqrt(sq) >= sup, spectrum is full

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("dim", [2, 3])
    def test_l2_bound_dominates_sup(self, dim, seed):
        # Half-spectra need not come from a real field: column 0 and the
        # Nyquist column carry imaginary parts too.
        rng = np.random.default_rng(seed)
        grid = Grid(dim, 16 if dim == 2 else 8)

        def coefficients(shape, n_modes):
            size = int(np.prod(shape))
            hat = np.zeros(size, dtype=np.complex128)
            idx = rng.choice(size, size=n_modes or size, replace=False)
            hat[idx] = rng.normal(size=idx.size) + 1j * rng.normal(size=idx.size)
            return hat.reshape(shape) * 10.0 ** rng.uniform(-8, 8)

        for n_modes in (1, 2, 5, None):
            full = coefficients(grid.shape, n_modes)
            half = coefficients(half_shape(grid), n_modes)
            self._assert_l2_bound_dominates_sup(grid, full, half)
            edges = np.zeros(half_shape(grid), dtype=np.complex128)
            edges[..., [0, -1]] = 1j * coefficients(half_shape(grid), n_modes)[..., :2]
            self._assert_l2_bound_dominates_sup(grid, full, edges)

    def test_l2_bound_margin_at_32_cubed(self):
        # A point mass makes the l2 bound exact, sup|f| = ||f_hat||_2, so
        # only the margin covers the rounding of a 32^3-term sum and of the
        # inverse FFT.
        grid = Grid(3, 32)
        rng = np.random.default_rng(7)
        for _ in range(4):
            f = np.zeros(grid.shape, dtype=np.complex128)
            f[tuple(rng.integers(32, size=3))] = ((rng.normal() + 1j * rng.normal())
                                                  * 10.0 ** rng.uniform(-8, 8))
            self._assert_l2_bound_dominates_sup(grid, np.fft.fftn(f, norm="ortho"),
                                                np.fft.rfftn(f.real, norm="ortho"))

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("dim", [2, 3])
    def test_bound_dominates_sup(self, dim, seed):
        rng = np.random.default_rng(seed)
        n = 16 if dim == 2 else 8
        shape = (n,) * dim
        for n_modes in (1, 2, 5, n**dim):
            hat = np.zeros(n**dim, dtype=np.complex128)
            idx = rng.choice(n**dim, size=n_modes, replace=False)
            hat[idx] = rng.normal(size=n_modes) + 1j * rng.normal(size=n_modes)
            hat = hat.reshape(shape) * 10.0 ** rng.uniform(-8, 8)
            real = np.fft.fftn(np.fft.ifftn(hat).real, norm="ortho")  # a real field
            for coeffs in (hat, real):
                sup = np.max(np.abs(np.fft.ifftn(coeffs, norm="ortho")))
                assert sup_bound(coeffs) >= sup, n_modes
            # The real field as run_simulation carries it: its half-spectrum,
            # whose exact sup is taken through the Hermitian-filled spectrum.
            grid = Grid(dim, n)
            half = half_spectrum(ComplexField(grid, real, "frequency"))
            sup = np.max(np.abs(np.fft.ifftn(full_spectrum(grid, half), norm="ortho")))
            assert half_sup_bound(grid, half) >= sup, n_modes
            assert half_sup_bound(grid, half) == pytest.approx(sup_bound(real), rel=1e-14, abs=0.0)


class TestPicard:
    def _initial(self, grid, psi_scale=1e-3, seeds=(11, 12, 13, 14)):
        rng_state = random_state(grid, 10, scale=1.0)
        psi = ComplexField(grid, rng_state.psi.values)
        psi = ComplexField(grid, psi.values * (psi_scale / h1_norm(psi)))
        acoustic = [
            ComplexField(grid, psi_scale * random_state(grid, s).rho.values)
            for s in seeds
        ]
        return PlusMinusState(psi, *acoustic)

    def test_zero_couplings_fixed_point(self):
        # constant-in-space envelope + zero couplings: all sources vanish,
        # so one application of the map reproduces the free part exactly
        grid = small_grid()
        psi = ComplexField(grid, np.full(grid.shape, 1e-3 + 0j))
        init = PlusMinusState(psi, *[
            ComplexField(grid, 1e-3 * random_state(grid, s).rho.values)
            for s in (21, 22, 23, 24)
        ])
        params = ModelParams(sigma2=0.0, W=0.0, D=0.0)
        iterates, report = picard_iterate(init, T=0.1, n_iters=2, params=params, n_time=32)
        for name in iterates[0]:
            np.testing.assert_array_equal(iterates[0][name], iterates[1][name])
        assert report.contraction_factor == 0.0
        assert report.contracting

    def test_small_data_contracts(self):
        grid = small_grid()
        init = self._initial(grid)
        params = ModelParams(sigma2=-1.0, W=1.0, D=0.5)
        _, report = picard_iterate(init, T=0.1, n_iters=5, params=params, n_time=32)
        assert report.contracting
        assert report.contraction_factor < 1.0

    def test_free_part_vanishes_outside_cutoff_support(self):
        grid = small_grid()
        init = self._initial(grid)
        iterates, _ = picard_iterate(
            init, T=1.0, n_iters=1, params=ModelParams(), n_time=64
        )
        dt = 4.0 / 64
        times = -2.0 + dt * np.arange(64)
        outside = np.abs(times) > 2.0
        free = iterates[0]["psi"]
        assert np.all(free[outside] == 0.0)

    def test_contraction_factor_grows_with_T(self):
        grid = small_grid()
        init = self._initial(grid, psi_scale=0.05)
        params = ModelParams(sigma2=-1.0, W=1.0, D=0.5)
        factors = []
        for T in (0.125, 0.25, 0.5, 1.0):
            _, rep = picard_iterate(init, T=T, n_iters=4, params=params, n_time=32)
            factors.append(rep.contraction_factor)
        assert all(b >= a for a, b in zip(factors, factors[1:]))

    def test_roundoff_differences_do_not_set_the_factor(self):
        # acceptance-07-style data from another draw: the differences fall to
        # round-off (2.13e-20 twice) after three iterations, and a ratio of
        # two round-off values must not read as a contraction factor near 1
        rng = np.random.default_rng(np.random.SeedSequence([3, 7]))
        grid = Grid(2, 32, 8 * np.pi)

        def field():
            hat = np.zeros(grid.shape, dtype=np.complex128)
            for i in range(-3, 4):
                for j in range(-3, 4):
                    hat[i % 32, j % 32] = rng.normal() + 1j * rng.normal()
            return np.fft.ifftn(hat, norm="ortho")

        psi = ComplexField(grid, field())
        psi = ComplexField(grid, psi.values * (1e-3 / h1_norm(psi)))
        init = PlusMinusState(psi, *[ComplexField(grid, 1e-3 * field().real + 0j)
                                     for _ in range(4)])
        params = ModelParams(sigma2=-1.0, W=1.0, D=0.5)
        _, report = picard_iterate(init, T=0.1, n_iters=6, params=params, n_time=64)
        assert report.contraction_factor < 0.5

    @pytest.mark.parametrize("n_time", [4, 6, 32, 64, 66, 128])
    @pytest.mark.parametrize("T", [1e-3, 0.1, 1.0 / 3.0, 0.7, 1.0, 0.123456789])
    def test_source_screening_is_one_on_the_window(self, T, n_time):
        # picard_iterate leaves out lambda_{2T}(s) because it is exactly 1.0
        # on its window, the times of the wave lattice it reads.
        times = _lattice(small_grid(), 2.0 * T, n_time, WAVE_PLUS).times
        assert np.all(smooth_cutoff(times / (2.0 * T)) == 1.0)

    def test_parameter_validation(self):
        grid = small_grid()
        init = self._initial(grid)
        with pytest.raises(ConfigurationError):
            picard_iterate(init, T=2.0, n_iters=1, params=ModelParams())
        with pytest.raises(ConfigurationError):
            picard_iterate(init, T=0.5, n_iters=1, params=ModelParams(), n_time=7)

    @pytest.mark.parametrize("n_iters", [0, -1, True, 2.0, "3", None])
    def test_iteration_count_validated(self, n_iters):
        init = self._initial(small_grid())
        with pytest.raises(ConfigurationError, match="n_iters"):
            picard_iterate(init, T=0.1, n_iters=n_iters, params=ModelParams(), n_time=8)

    def test_numpy_integer_iteration_count_accepted(self):
        init = self._initial(small_grid())
        _, report = picard_iterate(init, T=0.1, n_iters=np.int64(2), params=ModelParams(),
                                   n_time=8)
        assert len(report.diffs) == 2

    @pytest.mark.parametrize("n_time", [64.0, True, 7, 2, -4, "64", None])
    def test_time_sample_count_validated(self, n_time):
        # 64.0 used to end in a numpy IndexError
        init = self._initial(small_grid())
        with pytest.raises(ConfigurationError, match="n_time"):
            picard_iterate(init, T=0.1, n_iters=1, params=ModelParams(), n_time=n_time)

    @pytest.mark.parametrize("n_time", [32, 64])
    @pytest.mark.parametrize("params", PICARD_PARAMS, ids=list(PICARD_PARAMS))
    @pytest.mark.parametrize("grid", EQUIVALENCE_GRIDS, ids=list(EQUIVALENCE_GRIDS))
    def test_minus_duhamel_parts_are_conjugates(self, grid, params, n_time):
        # G_- = -G_+ and H_- = -H_+ are real, so each minus component's Duhamel
        # part is the complex conjugate of its plus partner's
        grid, params = EQUIVALENCE_GRIDS[grid], PICARD_PARAMS[params]
        (free, last), report = picard_iterate(equivalence_data(grid, scale=0.05), 0.25, 3,
                                              params, n_time=n_time)
        scale = max(np.max(np.abs(v)) for v in last.values())
        for plus, minus in (("rho_plus", "rho_minus"), ("varphi_plus", "varphi_minus")):
            conj_plus = np.conj(last[plus] - free[plus])
            assert np.max(np.abs((last[minus] - free[minus]) - conj_plus)) <= 1e-14 * scale
            gap = np.subtract(report.component_diffs[minus], report.component_diffs[plus])
            assert np.max(np.abs(gap)) <= 1e-12 * report.diffs[0]

    def test_iteration_budget(self, fft_calls, monkeypatch):
        # per iteration and window point: psi and Lap psi to physical space,
        # the acoustic sum, F forward, and one packed forward transform of
        # |psi|^2 and its rate; psi, rho_+ and varphi_+ take one retarded
        # integral each, through the kernel linear_estimate_ratio shares.  The window is swept
        # in blocks of whole time slices, so points are counted, not calls:
        # 16^2 and n_time 256 make two blocks per half-window.
        points = {"transform": 0, "kernel": 0}

        def counting(key, original):
            def counted(*args, **kwargs):
                points[key] += np.size(args[0])
                return original(*args, **kwargs)
            return counted

        for name in ("fftn", "ifftn"):
            monkeypatch.setattr(np.fft, name, counting("transform", getattr(np.fft, name)))
        monkeypatch.setattr(evolution, "_retarded", counting("kernel", evolution._retarded))
        grid, n_time = small_grid(), 256
        init = self._initial(grid)
        params = ModelParams(sigma2=-1.0, W=1.0, D=0.5)
        counts = []
        for n_iters in (2, 3):
            points.update(transform=0, kernel=0)
            fft_calls.clear()
            picard_contraction(init, T=0.1, n_iters=n_iters, params=params, n_time=n_time)
            counts.append(dict(points))
            assert set(fft_calls) == {"fftn", "ifftn"}
        window = n_time * grid.n**grid.dim
        assert {key: counts[1][key] - counts[0][key] for key in points} == {
            "transform": 5 * window, "kernel": 3 * window}

    def test_a_warm_map_allocates_no_block(self):
        # Acceptance-07 data, 2D 32^2 and n_time 64: blocks of 16 slices,
        # 256 KiB each.  Every block temporary and the carry live in the
        # context's workspaces, and no ufunc reads a stack backward into a
        # forward workspace or takes numpy's default 128 KiB buffer for an
        # operand broadcast over slices, so a warm map allocates one slice's
        # 16 KiB cast buffer (lambda is real) and per-call scraps.
        params = ModelParams(sigma2=-1.0, W=1.0, D=0.5)
        ctx = evolution._PicardContext(equivalence_data(EQUIVALENCE_GRIDS["2d-32"]), 0.1,
                                       params, 64)
        duh = {name: np.zeros((64,) + ctx.grid.shape, dtype=np.complex128) for name in ctx.coef}
        bufsize = np.getbufsize()
        evolution._picard_map(duh, ctx)
        tracemalloc.start()
        try:
            evolution._picard_map(duh, ctx)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**10
        assert np.getbufsize() == bufsize  # the map's own buffer size is restored

    def test_iterates_read_as_a_sequence(self):
        grid = small_grid()
        init = self._initial(grid)
        params = ModelParams(sigma2=-1.0, W=1.0, D=0.5)
        iterates, _ = picard_iterate(init, T=0.1, n_iters=2, params=params, n_time=32)
        assert len(iterates) == 2
        free, last = iterates
        assert iterates[0] is free and iterates[1] is last
        assert iterates[-2] is free and iterates[-1] is last
        assert [a is b for a, b in zip(iterates, (free, last, None))] == [True, True]
        assert set(free) == set(last) == {"psi", "rho_plus", "rho_minus", "varphi_plus",
                                          "varphi_minus"}
        assert free["psi"].shape == (32,) + grid.shape
        with pytest.raises(IndexError):
            iterates[2]
        with pytest.raises(TypeError):
            iterates[0] = free

    def test_iterates_are_built_once_on_first_read(self, fft_calls, monkeypatch):
        # Unread, picard_iterate takes exactly picard_contraction's
        # transforms.  The first read adds the readout's 8 window transforms
        # (the five free parts, block by block, and the three Duhamel
        # stacks) and drops the context; a second read returns the same
        # dicts and transforms nothing.
        points = []

        def sized(a, *args, _ifftn=np.fft.ifftn, **kwargs):
            points.append(np.size(a))
            return _ifftn(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, "ifftn", sized)
        grid, n_time = small_grid(), 32
        init, params = self._initial(grid), ModelParams(sigma2=-1.0, W=1.0, D=0.5)
        picard_contraction(init, 0.1, 3, params, n_time)  # fills the caches
        fft_calls.clear()
        picard_contraction(init, 0.1, 3, params, n_time)
        contraction = list(fft_calls)
        fft_calls.clear()
        iterates, _ = picard_iterate(init, 0.1, 3, params, n_time)
        assert fft_calls == contraction
        ctx = weakref.ref(iterates._pending[0])
        fft_calls.clear()
        points.clear()
        first = iterates[0]
        assert fft_calls == ["ifftn"] * len(points)
        assert sum(points) == 8 * n_time * grid.n**grid.dim
        assert ctx() is None
        fft_calls.clear()
        assert iterates[0] is first and tuple(iterates)[0] is first
        assert iterates[1] is iterates[-1]
        assert fft_calls == []

    def test_unread_iterates_cost_no_readout_memory(self):
        # Acceptance-07 data, 2D 32^2 and n_time 64: a stack is 1 MiB and a
        # block of 16 slices 256 KiB.  With its iterates unread,
        # picard_iterate peaks within one block of picard_contraction; an
        # eager readout's five free stacks and two conjugates add 7 MiB.
        params = ModelParams(sigma2=-1.0, W=1.0, D=0.5)
        init = equivalence_data(EQUIVALENCE_GRIDS["2d-32"])
        peaks = []
        for run in (picard_contraction, picard_iterate):
            run(init, 0.1, 2, params, 64)  # fills the caches outside the trace
            tracemalloc.start()
            try:
                run(init, 0.1, 2, params, 64)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0] + 16 * 32**2 * 16, peaks


class TestConfig:
    def test_random_recipe_requires_seed(self):
        with pytest.raises(ConfigurationError):
            SimConfig(recipe="random-band-limited")

    def test_unknown_recipe_rejected(self):
        with pytest.raises(ConfigurationError):
            SimConfig(recipe="soliton")

    @pytest.mark.parametrize("seed", [1.5, 2.0, True, "3"])
    def test_seed_must_be_an_integer(self, seed):
        # a float seed reached numpy's SeedSequence, and True ran as seed 1
        with pytest.raises(ConfigurationError, match="seed must be an integer >= 0"):
            SimConfig(recipe="random-band-limited", seed=seed)

    def test_numpy_integer_seed_accepted(self):
        assert SimConfig(recipe="random-band-limited", seed=np.int64(3)).seed == 3

    @pytest.mark.parametrize("stride", [2.5, 2.0, True, 0, -1])
    def test_diagnostics_stride_must_be_a_positive_integer(self, stride):
        # 2.5 wrote a row every 5 steps, and True ran as stride 1
        with pytest.raises(ConfigurationError, match="diagnostics_stride must be an integer >= 1"):
            SimConfig(diagnostics_stride=stride)

    def test_h1_normalization(self):
        cfg = SimConfig(dim=2, n=32, recipe="gaussian", normalize_h1=1e-3)
        st = make_initial_state(cfg)
        assert h1_norm(st.psi) == pytest.approx(1e-3, rel=1e-12)

    def test_plane_wave_mode_length_checked(self):
        cfg = SimConfig(dim=3, n=16, recipe="plane-wave", mode=(1, 0))
        with pytest.raises(ConfigurationError):
            make_initial_state(cfg)
