"""Experiment drivers and bit-stable report emission.

Every experiment writes into an output directory: CSV tables with
17-significant-digit floats (lossless round trip of float64) and a JSON
report with sorted keys.  Identical (config, seed) inputs produce identical
bytes; wall-clock timing is therefore printed to stdout, never written into
the report files.  format_floats is format_float (%.17g) for arrays; cmd_region
writes 4,096-line byte blocks (0.5 MiB at 1e-3) from the scan's violation codes:
0.25 s for d = 2 and 3 at 1e-3.
"""

from __future__ import annotations

import dataclasses
import json
import os
import struct
import sys

import numpy as np

from . import __version__
from .config import SimConfig, make_initial_state
from .errors import ConfigurationError, DivergenceError
from .evolution import picard_contraction, run_simulation
from .exponents import region_scan, verify_symbolic_inequalities, violation_texts
from .model import ModelParams, PlusMinusState, ZRState, decompose
from .spectral import ComplexField, Grid, check_count, check_number, to_physical
from .bourgain import (
    SCHRODINGER,
    WAVE_MINUS,
    WAVE_PLUS,
    NO_DISPERSION,
    SpaceTimeField,
    _check_finite,
    _lattice,
    _window_cutoff,
    free_evolution,
    mixed_norm,
    random_band_limited,
    spatial_sobolev_sup,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_DIVERGENCE = 3
EXIT_CAP_EXCEEDED = 4

# Empirical worst-constant caps for the five elementary inequalities.
INEQUALITY_CAPS = {
    "ineq1": 1.0,
    "ineq2": 10.0,
    "ineq3": 10.0,
    "ineq4": 1.01,
    "ineq5": 10.0,
}

# Inequalities false as stated, with the closed-form family that shows it.
# Their results are reported against the caps but do not set the exit code.
KNOWN_FALSE = {
    "ineq3": "tau = -s|xi|, tau1 = |xi1|^2, xi1 parallel to xi, |xi1| = (|xi| - s)/2 "
             "makes every right-hand bracket 1, so the ratio is (1+|xi|^2)/3",
}


def format_float(x: float) -> str:
    """Decimal text that round-trips any finite float64."""
    return f"{float(x):.17g}"


# format_floats' tables: 10^p (exact for p <= 22), split once; 0000..9999 as
# 4-byte words, and the trailing zeros of each (4 for 0000); and the _layout
# of each (sign, k + 4, significant digits).
_POW10 = np.array([float(10**p) for p in range(23)])
_POW10_HI = _POW10 * 134217729.0 - (_POW10 * 134217729.0 - _POW10)
_POW10_LO = _POW10 - _POW10_HI
_DIGITS4 = (np.indices((10,) * 4, np.uint8).reshape(4, -1).T + 48).copy().view(np.uint32)[:, 0]
_IS_ZERO4 = (_DIGITS4.view(np.uint8).reshape(-1, 4) == 48).view(np.int8).T  # per digit place
_ZEROS4 = _IS_ZERO4[3] * (1 + _IS_ZERO4[2] * (1 + _IS_ZERO4[1] * (1 + _IS_ZERO4[0])))


def _layout(sign, k, n_sig):
    """Per byte of the text (0.000ddd, ddd.ddd or ddd) of a value of that sign,
    k and n_sig, the byte it copies from ['000', 17 digits, '.', '-', NUL, '0']."""
    d = list(range(3, 20))
    text = [21] * sign + ([0, 20] + [0] * (-k - 1) + d[:n_sig] if k < 0 else
                          d[:k + 1] + [20] * (n_sig > k + 1) + d[k + 1:n_sig])
    return text + [22] * (24 - len(text))


_LAYOUT = np.array([_layout(s, k, n) for s in (0, 1) for k in range(-4, 17) for n in range(18)],
                   np.int8)
_CSV_BLOCK = 4096  # samples per block of cmd_region's CSV text, rounded to whole b1 rows


def format_floats(x) -> np.ndarray:
    """format_float of each value as a NUL-padded (n, 24) uint8 row.  For
    1e-4 <= |x| < 1e17, |x| 10^(16-k) is formed exactly as hi + lo (Dekker's
    product); with 10^16 <= hi + lo < 10^17, hi is an even integer, so hi +
    rint(lo) is %.17g's round-half-even.  Other values go through format_float."""
    x = np.asarray(x, dtype=np.float64)
    a = np.abs(x)
    fallback = ~((a >= 1e-4) & (a < 1e17))
    a[fallback] = 1.0
    k = np.clip(np.floor(np.log10(a)), -5, 16).astype(np.int64)
    a_hi = a * 134217729.0 - (a * 134217729.0 - a)
    a_lo = a - a_hi  # Veltkamp's split; Dekker's product below is exact
    while True:
        hi, b_hi, b_lo = a * _POW10[16 - k], _POW10_HI[16 - k], _POW10_LO[16 - k]
        lo = (a_hi * b_hi - hi) + a_hi * b_lo + a_lo * b_hi + a_lo * b_lo
        low = (hi < 1e16) | ((hi == 1e16) & (lo < 0))
        high = (hi > 1e17) | ((hi == 1e17) & (lo >= 0))
        if not (low.any() or high.any()):
            break
        k += high.view(np.int8) - low.view(np.int8)
    digits = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    top = digits == 10**17
    digits[top], k = 10**16, k + top
    fallback |= k > 16
    group = np.empty((5, len(x)), np.int64)  # the top digit, then four groups of 4
    for i in range(4, 0, -1):
        rest = digits // 10**4
        np.subtract(digits, rest * 10**4, out=group[i])
        digits = rest
    group[0] = digits
    row = np.empty((len(x), 24), np.uint8)
    row.view(np.uint32)[:, :5] = _DIGITS4[group.T]
    row[:, 20:] = [46, 45, 0, 48]
    # trailing zeros: the last group's, and each earlier group's while all after it are 0000
    zeros = _ZEROS4[group[1:]]
    n_zeros = zeros[3]
    for i in (2, 1, 0):
        n_zeros += (n_zeros == 4 * (3 - i)) * zeros[i]
    n_sig = 17 - n_zeros
    code = (np.signbit(x).view(np.int8) * 21 + np.minimum(k, 16) + 4) * 18 + n_sig
    text = row.ravel()[_LAYOUT[code] + np.arange(0, row.size, 24)[:, None]]
    for i in np.flatnonzero(fallback):
        text[i] = np.frombuffer(format_float(x[i]).encode().ljust(24, b"\0"), np.uint8)
    return text


def csv_text(rows) -> str:
    """CSV lines for a small table: floats as format_float, other cells by str."""
    return "".join(
        ",".join(format_float(v) if isinstance(v, float) else str(v) for v in row) + "\n"
        for row in rows
    )


def write_csv(path: str, header: list, blocks):
    """Write the header line, then each block: the bytes of already-formatted
    CSV lines.  A generator of blocks streams a large table to disk."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        fh.writelines(blocks)


def _plain(x):
    """A numpy scalar (an np.int64 count, say) as the Python number it holds."""
    if isinstance(x, np.generic):
        return x.item()
    raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")


def write_report(path: str, report: dict):
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        json.dump(report, fh, sort_keys=True, indent=2, default=_plain)
        fh.write("\n")


def _short_float(x: float) -> str:
    """Shortest %g text that round-trips x, with an unpadded exponent (1e6)."""
    for digits in range(1, 18):
        text = f"{x:.{digits}g}"
        if float(text) == x:
            break
    mantissa, _, exponent = text.partition("e")
    return mantissa + (f"e{int(exponent)}" if exponent else "")


def make_report(command: str, config_echo: dict, master_seed, payload: dict,
                blowup_factor: float | None = None) -> dict:
    """The report of one command; `divergence_proxy` names the proxy's
    threshold only for a command that ran it (blowup_factor given)."""
    report = {
        "command": command,
        "config": config_echo,
        "tool_version": __version__,
        "master_seed": master_seed,
        "payload": payload,
    }
    if blowup_factor is not None:
        report["divergence_proxy"] = (
            f"sup-norm growth factor {_short_float(blowup_factor)} over the initial field"
        )
    return report


def config_from_dict(doc: dict, seed_override=None) -> tuple[SimConfig, dict]:
    """Build a run from a flat key-value document; unknown keys are hard
    errors, and SimConfig and ModelParams check the types of the values."""
    params = {f.name for f in dataclasses.fields(ModelParams)}
    sim = {f.name for f in dataclasses.fields(SimConfig)} - {"params"}
    unknown = sorted(set(doc) - params - sim)
    if unknown:
        raise ConfigurationError(f"unknown config keys: {', '.join(unknown)}")
    doc = dict(doc)
    if seed_override is not None:
        doc["seed"] = int(seed_override)
    cfg = SimConfig(params=ModelParams(**{k: v for k, v in doc.items() if k in params}), **{
        k: tuple(v) if isinstance(v, list) else v for k, v in doc.items() if k not in params
    })
    return cfg, doc


def load_config(path: str, seed_override=None) -> tuple[SimConfig, dict]:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise ConfigurationError(f"config file not found: {path}")
    except json.JSONDecodeError as err:
        raise ConfigurationError(f"config is not valid JSON: {err}")
    if not isinstance(doc, dict):
        raise ConfigurationError("config must be a JSON object")
    return config_from_dict(doc, seed_override)


# ---------------------------------------------------------------------------
# Binary state snapshots
# ---------------------------------------------------------------------------

SNAPSHOT_MAGIC = b"ZRBR"
SNAPSHOT_VERSION = 1


def write_snapshot(path: str, state: ZRState):
    """Raw binary state dump of the physical fields; layout documented in the
    README."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    grid = state.grid
    with open(path, "wb") as fh:
        fh.write(SNAPSHOT_MAGIC)
        fh.write(struct.pack("<II", SNAPSHOT_VERSION, grid.dim))
        fh.write(struct.pack("<" + "I" * grid.dim, *grid.shape))
        fh.write(struct.pack("<d", grid.length))
        for name in ("psi", "rho", "phi"):
            vals = np.ascontiguousarray(to_physical(getattr(state, name)).values)
            pairs = np.empty(vals.shape + (2,), dtype="<f8")
            pairs[..., 0] = vals.real
            pairs[..., 1] = vals.imag
            fh.write(pairs.tobytes())


def read_snapshot(path: str) -> ZRState:
    """Parse a snapshot; a file that is not exactly one well-formed snapshot
    (truncated, trailing bytes, a non-cubic or invalid grid) raises
    ConfigurationError."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != SNAPSHOT_MAGIC:
        raise ConfigurationError(f"{path}: not a state snapshot")
    if len(data) < 12:
        raise ConfigurationError(f"{path}: snapshot header is truncated")
    version, dim = struct.unpack_from("<II", data, 4)
    if version != SNAPSHOT_VERSION:
        raise ConfigurationError(f"{path}: unsupported snapshot version {version}")
    if dim not in (2, 3):
        raise ConfigurationError(f"{path}: snapshot dimension must be 2 or 3, got {dim}")
    header = 12 + 4 * dim + 8
    if len(data) < header:
        raise ConfigurationError(f"{path}: snapshot header is truncated")
    shape = struct.unpack_from(f"<{dim}I", data, 12)
    (length,) = struct.unpack_from("<d", data, 12 + 4 * dim)
    if len(set(shape)) != 1:
        raise ConfigurationError(f"{path}: snapshot grid {shape} is not cubic")
    grid = Grid(dim, shape[0], length)
    expected = 3 * 16 * grid.n**dim  # three fields of (re, im) f64 pairs
    found = len(data) - header
    if found != expected:
        kind = "truncated" if found < expected else "followed by trailing bytes"
        raise ConfigurationError(
            f"{path}: snapshot fields are {kind} ({found} bytes, expected {expected})"
        )
    pairs = np.frombuffer(data, dtype="<f8", offset=header).reshape((3,) + grid.shape + (2,))
    return ZRState(*(ComplexField(grid, p[..., 0] + 1j * p[..., 1], "physical") for p in pairs))


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------

def _max_drift(series: list):
    """max over the rows of |x - x0| / |x0|; None when x0 is 0 or there is
    no row."""
    if not series or series[0] == 0.0:
        return None
    return max(abs(x - series[0]) for x in series) / abs(series[0])


def cmd_simulate(config: SimConfig, echo: dict, out_dir: str, snapshots: bool = False):
    """Run the split-step integrator; emit diagnostics CSV and a report.

    Besides the first and last mass and energy, the report gives their
    largest relative drift over the rows, and dt max|xi|^2 over the
    frequency lattice: epsilon times it is the largest phase the linear
    Schrodinger flow turns a mode through in one step.
    """
    code = EXIT_OK
    diverged_at = diverged_field = growth_factor = None
    try:
        traj = run_simulation(config, store_states=snapshots)
    except DivergenceError as err:
        traj = err.trajectory
        diverged_at, diverged_field, growth_factor = err.time, err.field, err.growth
        code = EXIT_DIVERGENCE

    rows = list(
        zip(traj.times, traj.mass, traj.energy, traj.max_abs_psi, traj.l2_rho, traj.l2_phi)
    )
    write_csv(
        os.path.join(out_dir, "diagnostics.csv"),
        ["t", "mass", "energy", "max_abs_psi", "l2_rho", "l2_phi"],
        [csv_text(rows).encode()],
    )
    if snapshots:
        for j, state in enumerate(traj.states):
            write_snapshot(os.path.join(out_dir, f"state_{j:06d}.bin"), state)

    payload = {
        "n_rows": len(rows),
        "final_time": traj.times[-1] if traj.times else 0.0,
        "diverged_at": diverged_at,
        "mass_initial": traj.mass[0] if traj.mass else 0.0,
        "mass_final": traj.mass[-1] if traj.mass else 0.0,
        "energy_initial": traj.energy[0] if traj.energy else 0.0,
        "energy_final": traj.energy[-1] if traj.energy else 0.0,
        "mass_drift": _max_drift(traj.mass),
        "energy_drift": _max_drift(traj.energy),
        "dt_xi2_max": config.dt * float(np.max(config.grid.xi_squared)),
        "diverged_field": diverged_field,
        "growth_factor": growth_factor,
    }
    report = make_report("simulate", echo, echo.get("seed"), payload, config.blowup_factor)
    write_report(os.path.join(out_dir, "report.json"), report)
    return code, report


def cmd_epsilon_scaling(config: SimConfig, echo: dict, eps_list, out_dir: str):
    """Sweep epsilon over a descending list; fit log T_proxy vs log(1/eps).
    Progress on stderr."""
    eps_list = [check_number(e, "epsilon") for e in eps_list]
    if not eps_list or any(e <= 0 for e in eps_list):
        raise ConfigurationError("epsilon list must be nonempty and positive")
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ConfigurationError("epsilon list must be strictly descending")

    rows = []
    for k, eps in enumerate(eps_list, 1):
        cfg = dataclasses.replace(config, params=dataclasses.replace(config.params, epsilon=eps))
        try:
            run_simulation(cfg)
            t_proxy = cfg.t_end
        except DivergenceError as err:
            t_proxy = err.time if err.time is not None else 0.0
        rows.append((eps, float(t_proxy)))
        print(f"epsilon-scaling epsilon={eps:g}: run {k}/{len(eps_list)}, T_proxy {t_proxy:g}",
              file=sys.stderr)

    write_csv(os.path.join(out_dir, "epsilon_scaling.csv"), ["epsilon", "T_proxy"],
              [csv_text(rows).encode()])

    if all(t == 0.0 for _, t in rows):
        raise DivergenceError("every run diverged at t=0; scaling fit is degenerate")
    # fit on runs with positive proxy times
    pts = [(np.log(1.0 / e), np.log(t)) for e, t in rows if t > 0.0]
    if len(pts) >= 2 and len({p[1] for p in pts}) == 1:
        alpha_hat = 0.0
    elif len(pts) >= 2:
        x, y = np.array([p[0] for p in pts]), np.array([p[1] for p in pts])
        alpha_hat = float(np.polyfit(x, y, 1)[0])
    else:
        alpha_hat = 0.0
    t_list = [t for _, t in rows]
    payload = {
        "rows": [{"epsilon": e, "T_proxy": t} for e, t in rows],
        "alpha_hat": alpha_hat,
        "t_proxy_nondecreasing": all(b >= a for a, b in zip(t_list, t_list[1:])),
    }
    report = make_report("epsilon-scaling", echo, echo.get("seed"), payload,
                         config.blowup_factor)
    write_report(os.path.join(out_dir, "report.json"), report)
    return EXIT_OK, report


def cmd_region(d: int, resolution: float, out_dir: str):
    """Admissible-region scan export with the containment verdict."""
    scan = region_scan(d, resolution)
    # A block of whole b1 rows is a NUL-padded byte matrix, a line per sample
    # (the violated ids from a byte table indexed by code, as wide as the
    # longest text of a code present), less its NULs.
    n, n_b1, codes = len(scan.b2_axis), len(scan.b1_axis), scan.violated_codes
    rows = max(1, _CSV_BLOCK // n)
    present = np.bincount(codes, minlength=len(violation_texts())) > 0
    violated = np.where(present, violation_texts(), "").astype(bytes)[:, None].view(np.uint8)
    w = 78 + violated.shape[1]
    mat = np.zeros((rows, n, w), np.uint8)
    mat[..., [24, 49, 51, w - 26]], mat[..., w - 1] = ord(","), ord("\n")
    mat[..., 25:49] = format_floats(scan.b2_axis)
    b1_text, adm = format_floats(scan.b1_axis), scan.admissible.view(np.uint8)

    def blocks():
        for r in range(0, n_b1, rows):
            block = mat[:min(rows, n_b1 - r)]
            block[..., :24] = b1_text[r:r + rows, None]
            lo, hi, block = r * n, (r + len(block)) * n, block.reshape(-1, w)
            block[:, 50] = adm[lo:hi] + ord("0")
            block[:, 52:w - 26] = violated[codes[lo:hi]]
            block[:, w - 25:w - 1] = format_floats(scan.min_theta[lo:hi])
            yield block[block != 0].tobytes()

    write_csv(
        os.path.join(out_dir, f"region_d{d}.csv"),
        ["b1", "b2", "admissible", "violated_ids", "min_theta"],
        blocks(),
    )
    payload = {
        "d": d,
        "resolution": resolution,
        "n_samples": len(scan.b1),
        "n_admissible": int(np.sum(scan.admissible)),
        "reference_box_contained": scan.reference_box_contained,
        "witnesses": scan.witnesses,
        "pointwise_b1_range": scan.pointwise_b1_range,
        "uniform_b1_range": scan.uniform_b1_range,
    }
    report = make_report("region", {"d": d, "resolution": resolution}, None, payload)
    write_report(os.path.join(out_dir, "report.json"), report)
    return EXIT_OK, report


def cmd_fuzz(n: int, seed: int, out_dir: str):
    """Randomized worst-constant search for the elementary inequalities;
    EXIT_CAP_EXCEEDED when an inequality not in KNOWN_FALSE is over its cap.
    Progress on stderr."""
    def progress(r):
        print(f"fuzz d={r.d}: {r.inequality} branch {r.branch}, max ratio {r.max_ratio:.6g}"
              f" (cap {INEQUALITY_CAPS[r.inequality]:g})", file=sys.stderr)

    payload = {"n_samples": n, "results": [], "caps": INEQUALITY_CAPS,
               "known_false": KNOWN_FALSE}
    exceeded = False
    for d in (2, 3):
        for res in verify_symbolic_inequalities(n, seed, d, progress):
            cap = INEQUALITY_CAPS[res.inequality]
            ok = res.max_ratio <= cap
            known_false = res.inequality in KNOWN_FALSE
            exceeded = exceeded or not (ok or known_false)
            payload["results"].append(
                {
                    "inequality": res.inequality,
                    "branch": res.branch,
                    "d": res.d,
                    "max_ratio": res.max_ratio,
                    "cap": cap,
                    "within_cap": ok,
                    "known_false": known_false,
                    "argmax": res.argmax,
                }
            )
    report = make_report("fuzz", {"n": n}, seed, payload)
    write_report(os.path.join(out_dir, "report.json"), report)
    return (EXIT_CAP_EXCEEDED if exceeded else EXIT_OK), report


def initial_plus_minus(config: SimConfig) -> PlusMinusState:
    """The half-wave form of the datum that simulate integrates."""
    return decompose(make_initial_state(config), config.params)


def cmd_picard(config: SimConfig, echo: dict, T_list, n_iters: int, out_dir: str,
               n_time: int = 64):
    """Contraction table over a list of cut scales T; progress on stderr."""
    # The contraction factor is a ratio of two successive differences.
    if isinstance(n_iters, bool) or not isinstance(n_iters, (int, np.integer)) or n_iters < 2:
        raise ConfigurationError(f"picard needs at least 2 iterations, got {n_iters!r}")
    T_list = [check_number(T, "T") for T in T_list]
    initial = initial_plus_minus(config)
    rows = []
    reports = []
    for T in T_list:
        _, _, rep = picard_contraction(initial, T, n_iters, config.params, n_time, lambda k, d: print(
            f"picard T={T:g}: iteration {k}/{n_iters}, largest difference {d:.3e}", file=sys.stderr))
        rows.append((T, rep.contraction_factor, int(rep.contracting)))
        reports.append(
            {
                "T": rep.T,
                "diffs": rep.diffs,
                "ratios": rep.ratios,
                "contraction_factor": rep.contraction_factor,
                "contracting": rep.contracting,
                "component_diffs": rep.component_diffs,
            }
        )
    write_csv(
        os.path.join(out_dir, "picard.csv"),
        ["T", "contraction_factor", "contracting"],
        [csv_text(rows).encode()],
    )
    payload = {"n_iters": n_iters, "n_time": n_time, "per_T": reports}
    report = make_report("picard", echo, echo.get("seed"), payload)
    write_report(os.path.join(out_dir, "report.json"), report)
    return EXIT_OK, report


_DISPERSIONS = {d.kind: d for d in (SCHRODINGER, WAVE_PLUS, WAVE_MINUS, NO_DISPERSION)}

NORM_RECIPES = ("zero", "one-mode", "cutoff-free", "random-band-limited")


def _norms_field(recipe: str, seed: int) -> SpaceTimeField:
    grid = Grid(2, 16, 2.0 * np.pi)
    t_half, n_time = 2.5, 64
    if recipe == "zero":
        return SpaceTimeField(grid, t_half, np.zeros((n_time,) + grid.shape))
    if recipe == "one-mode":
        hat = np.zeros(grid.shape, dtype=np.complex128)
        hat[1, 2] = 1.0
        return free_evolution(ComplexField(grid, hat, "frequency"), t_half, n_time, SCHRODINGER)
    if recipe == "cutoff-free":
        rng = np.random.default_rng(seed)
        hat = np.zeros(grid.shape, dtype=np.complex128)
        for k in ((0, 1), (1, 0), (2, 1), (1, 3)):
            hat[k] = rng.normal() + 1j * rng.normal()
        f = free_evolution(ComplexField(grid, hat, "frequency"), t_half, n_time, SCHRODINGER)
        lam = _window_cutoff(t_half, n_time, 1.0).reshape((-1, 1, 1))
        return SpaceTimeField._of(grid, t_half, lam * f.spatial_hat)
    if recipe == "random-band-limited":
        return random_band_limited(grid, t_half, n_time, seed)
    raise ConfigurationError(f"unknown norm recipe {recipe!r}; choose from {NORM_RECIPES}")


def cmd_norms(recipe: str, s: float, b: float, disp_name: str, seed: int, out_dir: str):
    """Norm panel for one synthetic field, with the embedding ratio."""
    _check_finite(s=s, b=b)
    check_count(seed, "seed")
    if disp_name not in _DISPERSIONS:
        raise ConfigurationError(
            f"unknown dispersion {disp_name!r}; choose from {sorted(_DISPERSIONS)}"
        )
    disp = _DISPERSIONS[disp_name]
    f = _norms_field(recipe, seed)
    lat = _lattice(f.grid, f.t_half, f.n_time, disp)
    cols, block = f._support()
    hat = np.fft.fft(block, axis=0, norm="ortho")  # the one time transform of both norms
    x = lat.xsb(hat, s, b, cols)
    sup_hs = spatial_sobolev_sup(f, s)
    payload = {
        "recipe": recipe,
        "s": s,
        "b": b,
        "dispersion": disp_name,
        "xsb_norm": x,
        "ys_norm": lat.ys(hat, s, cols),
        "l2_norm": f.l2_norm(),
        "mixed_norm_inf_2": mixed_norm(f, np.inf, 2),
        "sup_t_sobolev": sup_hs,
        "embedding_ratio": (sup_hs / x) if x > 0 else 0.0,
    }
    report = make_report(
        "norms", {"recipe": recipe, "s": s, "b": b, "dispersion": disp_name}, seed, payload
    )
    write_report(os.path.join(out_dir, "report.json"), report)
    return EXIT_OK, report
