"""Frozen copy of the time-blocked Picard sweep from before its blocks lay
in the stacks' order.

On the backward sweep every block array was a reversed view: blocks()
yielded the conjugate groups reversed, and the map indexed each stack,
workspace, lambda and coefficient with [::sign], so that every block ran
outward from t = 0.  np.take and half_wave_sources were handed the
workspaces reversed back to memory order.
"""

import numpy as np

from zrbr.bourgain import _retarded
from zrbr.evolution import _COMPONENTS, _MINUS
from zrbr.model import coupled_source, envelope_rate, half_wave_sources


def frozen_blocks(ctx):
    z, m = len(ctx.lam) // 2, ctx.conj.shape[1]
    for sign, k0 in [(1, k) for k in range(0, z, m)] + [(-1, k) for k in range(1, z + 1, m)]:
        k1 = min(k0 + m, z + (sign < 0))
        if sign > 0:
            psi, wave = (g[k0:k1] for g in ctx.groups)
        else:
            psi, wave = (c[: k1 - k0][::-1] for c in ctx.conj)
            psi[...], wave[...] = (g[k0:k1] for g in ctx.groups)
            np.conjugate(psi, out=psi)
            np.conjugate(wave, out=wave)
        s = slice(z + k0, z + k1) if sign > 0 else slice(z - k1 + 1, z - k0 + 1)
        yield s, sign, psi, wave


def frozen_picard_map(duh, ctx):
    bufsize = np.setbufsize(min(np.getbufsize(), ctx.grid.n ** ctx.grid.dim))
    try:
        return frozen_picard_blocks(duh, ctx)
    finally:
        np.setbufsize(bufsize)


def frozen_picard_blocks(duh, ctx):
    grid, params, u0 = ctx.grid, ctx.params, ctx.u0
    axes = tuple(range(1, grid.dim + 1))
    diff2 = dict.fromkeys(duh, 0.0)
    for block, (s, sign, psi_group, wave) in enumerate(frozen_blocks(ctx)):
        psi_hat, psi, z, acoustic, spare, temp = (w[: len(wave)][::sign] for w in ctx.work)
        lam = ctx.lam[s][::sign]
        np.multiply(psi_group, u0["psi"], out=psi_hat)
        psi_hat *= lam
        psi_hat += duh["psi"][s][::sign]
        np.fft.ifftn(psi_hat, axes=axes, norm="ortho", out=psi)
        a2 = np.abs(psi, out=z.real)
        a2 *= a2
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
            if block == 0:
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


def frozen_readout(ctx, duh):
    axes = tuple(range(1, ctx.grid.dim + 1))
    free = {name: np.empty_like(duh["psi"]) for name in _COMPONENTS}
    for s, sign, psi_group, wave in frozen_blocks(ctx):
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
