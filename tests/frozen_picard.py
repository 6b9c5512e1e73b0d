"""Frozen copy of picard_iterate from before it swept its window in time
blocks.

Every iterate lived on whole (n_time, *grid) stacks: the free parts of psi
and of the acoustic sum, both groups and the conjugate wave group, three
Duhamel stacks and the per-iteration sources, about seventeen stacks at
peak.  The retarded integral was one cumulative sum over the window from
its first slice, anchored at t = 0 by a subtraction, and the psi component
of the round-off bound was the exact sup_t L2 norm of the iterate.  The
half-wave sources are frozen too (tests/frozen_sources.py): one transform
of |psi|^2 and one of its rate.
"""

import numpy as np

from zrbr.bourgain import WAVE_PLUS, _lattice, _window_cutoff
from zrbr.evolution import _BURN_IN, _COMPONENTS, _MINUS, PicardReport
from frozen_sources import frozen_half_wave_sources
from zrbr.model import coupled_source, envelope_rate
from zrbr.spectral import to_frequency


def _group(times, phase):
    return np.exp(-1j * times.reshape((-1,) + (1,) * phase.ndim) * phase[None])


def _retarded(q_hat, group, dt, zero_index):
    integrand = np.conj(group)
    integrand *= q_hat
    seg = integrand[1:] + integrand[:-1]
    seg *= 0.5 * dt
    integrand[0] = 0.0
    np.cumsum(seg, axis=0, out=integrand[1:])
    integrand -= integrand[zero_index]
    return np.multiply(group, integrand, out=integrand)


def _sup_l2(values, grid):
    pairs = values.reshape(len(values), -1).view(np.float64)
    return float(np.sqrt(np.max(np.einsum("ij,ij->i", pairs, pairs)) * grid.cell_volume))


def frozen_picard_iterate(initial, T, n_iters, params, n_time=64):
    grid = initial.grid
    lat = _lattice(grid, 2.0 * T, n_time, WAVE_PLUS)
    axes = tuple(range(1, grid.dim + 1))
    tshape = (-1,) + (1,) * grid.dim

    lam, lam_T = (_window_cutoff(lat.t_half, n_time, c).reshape(tshape) for c in (1.0, T))
    wave = _group(lat.times, lat.phase)
    psi_group = _group(lat.times, params.epsilon * grid.xi_squared)
    plan = {"psi": (psi_group, "F", -1j * params.epsilon * lam_T),
            "rho_plus": (wave, "G", -1j * lam_T),
            "varphi_plus": (wave, "H", -1j * lam_T)}

    u0 = {name: to_frequency(f).values for name, f in zip(_COMPONENTS, initial.fields())}
    free_psi = lam * (psi_group * u0["psi"])
    cwave = np.conj(wave)
    free_sum = wave * (u0["rho_plus"] + params.D * u0["varphi_plus"])
    free_sum += cwave * (u0["rho_minus"] + params.D * u0["varphi_minus"])
    free_acoustic = lam * np.fft.ifftn(free_sum, axes=axes, norm="ortho")
    del free_sum
    free_top = _sup_l2(np.stack([u0[name] for name in _COMPONENTS[1:]]), grid)

    duh = {name: np.zeros((n_time,) + grid.shape, dtype=np.complex128) for name in plan}
    component_diffs = {name: [] for name in _COMPONENTS}
    largest = 0.0
    for it in range(n_iters + 1):
        psi_hat = free_psi + duh["psi"]
        largest = max(largest, _sup_l2(psi_hat, grid), free_top
                      + max(_sup_l2(duh[p], grid) for p in ("rho_plus", "varphi_plus")))
        if it == n_iters:
            break

        psi = np.fft.ifftn(psi_hat, axes=axes, norm="ortho")
        a2 = np.abs(psi)
        a2 *= a2
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
        sources["G"], sources["H"] = frozen_half_wave_sources(a2, psi, psi_t, grid, params)
        del psi, a2, psi_t

        for name, (group, source, coef) in plan.items():
            new = _retarded(sources.pop(source), group, lat.dt, n_time // 2)
            new *= coef
            diff = np.subtract(duh[name], new, out=duh[name])
            component_diffs[name].append(_sup_l2(diff, grid))
            duh[name] = new
    for minus, plus in _MINUS.items():
        component_diffs[minus] = list(component_diffs[plus])

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
