"""Exponent arithmetic: admissibility constraints, T-gain exponents,
region scans, Strichartz exponent calculation and the randomized verifier
for the elementary symbolic inequalities."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, reduce

import numpy as np

from .errors import ConfigurationError, SingularityError
from .spectral import check_count, check_dim, check_number, check_types


def bracket_plus(lam, eps: float = 1e-6):
    """[lam]_+ : lam if lam > 0, a small eps at lam = 0, and 0 if lam < 0."""
    lam = np.asarray(lam, dtype=np.float64)
    out = np.where(lam > 0.0, lam, np.where(lam == 0.0, eps, 0.0))
    return out if out.ndim else float(out)


def bracket(x):
    """Japanese bracket <x> = (1 + |x|^2)^(1/2), per entry, or per vector
    along the last axis when it has length 2 or 3: a 1-D array of length 2 or
    3 is read as one vector.  _bracket_each is the per-entry form."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim and x.shape[-1] in (2, 3):
        return np.sqrt(1.0 + np.sum(x**2, axis=-1))
    return np.sqrt(1.0 + x**2)


@dataclass(frozen=True)
class ExponentParams:
    """The (b1, b2) parameter point in dimension d; b0 defaults to b1."""

    b1: float
    b2: float
    d: int
    b0: float | None = None

    def __post_init__(self):
        check_dim(self.d, "d")
        check_types(self)
        if self.b0 is None:
            object.__setattr__(self, "b0", self.b1)


def derive(b1: float, b2: float, d: int, b0: float | None = None) -> ExponentParams:
    """The checked parameter point; range violations surface in check_constraints."""
    return ExponentParams(b1, b2, d, b0)


# ---------------------------------------------------------------------------
# Constraint ledger
# ---------------------------------------------------------------------------

@dataclass
class ConstraintEntry:
    constraint_id: str
    passed: bool


@dataclass
class ConstraintReport:
    entries: list
    admissible: bool

    def failed_ids(self) -> list[str]:
        return [e.constraint_id for e in self.entries if not e.passed]


# (id, test(b1, b2, d)): each constraint as one comparison, strict where the
# inequality is strict
_CONSTRAINTS = [
    ("base_b1", lambda b1, b2, d: b1 > 0.5),
    ("base_b2_low", lambda b1, b2, d: b2 >= 0.0),
    ("base_b2_high", lambda b1, b2, d: b2 <= 0.5),
    ("auxi1", lambda b1, b2, d: b1 < (2.0 + 2.0 * b2) / (d + 4.0 * b2)),
    ("auxi2", lambda b1, b2, d: b1 < 2.0 / d),
    ("auxi3", lambda b1, b2, d: b2 < 1.0 - b1),
    ("auxi4", lambda b1, b2, d: 2.0 * b1 + (1.0 + d / 2.0) * b2 > (1.0 + d) / 2.0),
    ("i521_auxi1", lambda b1, b2, d: b2 < (2.0 / 3.0) * b1 - d / 12.0),
    ("i521_auxi2", lambda b1, b2, d: b2 <= 1.0 - d / 4.0),
    ("i521_auxi3", lambda b1, b2, d: b2 < (1.0 / 6.0 if d == 2 else 1.0 / 12.0)),
]


def check_constraints(p: ExponentParams) -> ConstraintReport:
    """Every admissibility constraint at (b1, b2), through constraint_matrix
    at the one point; strict inequalities stay strict."""
    passes, ids = constraint_matrix(p.b1, p.b2, p.d)
    entries = [ConstraintEntry(cid, bool(ok)) for cid, ok in zip(ids, passes)]
    return ConstraintReport(entries, all(e.passed for e in entries))


def constraint_matrix(b1, b2, d: int):
    """The verdict of every constraint at broadcastable arrays b1 and b2, in
    float64; returns (pass matrix, ids), a row per constraint.  A bound that
    overflows or divides by zero compares as inf or nan."""
    b1 = np.asarray(b1, dtype=np.float64)
    b2 = np.asarray(b2, dtype=np.float64)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        passes = [test(b1, b2, d) for _, test in _CONSTRAINTS]
    return np.stack(np.broadcast_arrays(*passes), axis=0), [c[0] for c in _CONSTRAINTS]


# ---------------------------------------------------------------------------
# Theta exponents
# ---------------------------------------------------------------------------

THETA_NAMES = (
    "theta_1",
    "theta_21",
    "theta_221",
    "theta_222",
    "theta_223",
    "theta_23",
    "theta_241",
    "theta_242",
    "theta_243",
    "theta_41",
    "theta_42",
    "theta_521",
)


@dataclass
class ThetaReport:
    values: dict
    min_theta: float

    def __getitem__(self, name):
        return self.values[name]


def theta_values(p: ExponentParams) -> ThetaReport:
    """Evaluate all twelve T-gain exponents at the parameter point."""
    vals = _theta_arrays(p.b1, p.b2, p.d, p.b0, 1e-6)
    values = {name: float(v) for name, v in zip(THETA_NAMES, vals)}
    return ThetaReport(values, min(values.values()))


def _theta_arrays(b1, b2, d, b0, eps):
    """Shared theta formulas, vectorized over (b1, b2)."""
    b1 = np.asarray(b1, dtype=np.float64)
    b2 = np.asarray(b2, dtype=np.float64)
    if np.any(b1 == b2):
        raise SingularityError("theta_521 is singular at b1 == b2")
    b0 = np.asarray(b0, dtype=np.float64)

    bp = lambda lam: bracket_plus(lam, eps)

    t1 = (1.0 - d * b1 / (2.0 * b1 + 1.0)) * (2.5 - b1)
    t21 = (1.0 - b1 * (d + 4.0 * b2) / (2.0 + 2.0 * b2)) * (b2 + 1.5 - b1)
    t221 = (1.0 - b1 * d / 2.0) * (1.5 - b1)
    t222 = (1.0 - d * b1 / 2.0) * (1.0 - bp(b1 - b2 - 0.5))
    t223 = (1.0 - d * b1 / 2.0) * (1.5 - b1)
    t23 = t21
    t241 = t221
    t242 = t222
    t243 = t223
    t41 = (1.0 - b0 * (d + 2.0) / (4.0 * b1 + 1.0)) * (b1 + b2 + 0.5 - bp(b1 + b2 - 1.0))
    t42 = (1.0 - (d + 2.0) * b1 / (4.0 * b1 + 1.0)) * (1.5 - bp(0.0))
    t521 = (
        2.0
        * (1.0 - b0 * (2.0 * b2 + d / 2.0) / (2.0 * (b1 - b2)))
        * (b1 - b2)
        * (1.0 - bp(b1 - b2 - 0.5) / (b1 - b2))
    )
    return (t1, t21, t221, t222, t223, t23, t241, t242, t243, t41, t42, t521)


# ---------------------------------------------------------------------------
# Region scan
# ---------------------------------------------------------------------------

REFERENCE_BOX = {
    2: {"b1": (0.75, 5.0 / 6.0), "b2": (0.0, 1.0 / 6.0), "b2_closed_low": True},
    3: {"b1": (0.5, 13.0 / 20.0), "b2": (0.0, 1.0 / 12.0), "b2_closed_low": False},
}
_BLOCK = 1 << 14  # the most samples region_scan takes at once, in whole b1 rows
MAX_REGION_SAMPLES = 50_000_000  # the largest lattice region_scan accepts
_BITS = 1 << np.arange(len(_CONSTRAINTS))  # a violation code has bit i set when constraint i fails


@cache
def violation_texts() -> np.ndarray:
    """The ";"-joined failed constraint ids of every violation code, as an
    object array built once: every sample with a code shares its text."""
    return np.array([";".join(c[0] for c, bit in zip(_CONSTRAINTS, _BITS) if code & bit)
                     for code in range(1 << len(_CONSTRAINTS))], dtype=object)


@dataclass
class RegionScan:
    d: int
    resolution: float
    b1_axis: np.ndarray  # lattice values; samples run over b1 outer, b2 inner
    b2_axis: np.ndarray
    admissible: np.ndarray  # bool per sample
    violated_codes: np.ndarray  # uint16 per sample, the index of its text in violation_texts
    min_theta: np.ndarray
    reference_box_contained: bool
    witnesses: list  # reference-box samples failing, with their violated ids
    pointwise_b1_range: tuple | None
    uniform_b1_range: tuple | None

    @property
    def violated_ids(self) -> list:
        """The text of each sample's code, "" when admissible; built when
        read, from the strings of violation_texts."""
        return violation_texts()[self.violated_codes].tolist()


def region_scan(d: int, resolution: float = 1e-3) -> RegionScan:
    """Scan (1/2, 1) x [0, 1/2] on the given lattice; report admissibility,
    the min-theta surface and the containment verdict for the published
    parameter rectangle.  d must be 2 or 3 and resolution a finite number in
    (0, 1e-2], not a bool, whose lattice has at most MAX_REGION_SAMPLES
    samples (ConfigurationError).  The scan goes through blocks of whole b1
    rows (_BLOCK samples, or one row) and holds its result, 11 B per sample,
    and one block: traced peaks 4.6 MiB at 1e-3, 11.7 at 5e-4."""
    check_dim(d, "d")
    resolution = check_number(resolution, "resolution")
    if not 0.0 < resolution <= 1e-2:
        raise ConfigurationError(f"resolution must be finite, > 0 and <= 1e-2, got {resolution}")
    # numpy's length rule for the two aranges below, before either is made
    size = np.ceil((1.0 - (0.5 + resolution)) / resolution) * np.ceil(
        (0.5 + 0.5 * resolution) / resolution)
    if size > MAX_REGION_SAMPLES:
        raise ConfigurationError(f"resolution {resolution:g} makes {size:.4g} samples; "
                                 f"region_scan takes at most {MAX_REGION_SAMPLES:,}")
    b1_axis = np.arange(0.5 + resolution, 1.0, resolution)
    b2_axis = np.arange(0.0, 0.5 + 0.5 * resolution, resolution)
    n = len(b2_axis)

    codes = np.empty(len(b1_axis) * n, dtype=np.uint16)
    # min theta where defined (b1 != b2), a running minimum: no (12, N) stack
    min_theta = np.full(len(codes), np.nan)
    step = max(1, _BLOCK // n)
    for r in range(0, len(b1_axis), step):
        b1_rows = b1_axis[r:r + step]
        b1, b2 = np.repeat(b1_rows, n), np.tile(b2_axis, len(b1_rows))
        rows = slice(r * n, r * n + len(b1))
        passes, _ = constraint_matrix(b1, b2, d)
        codes[rows] = _BITS @ ~passes
        safe = b1 != b2
        b1s, b2s = b1[safe], b2[safe]
        min_theta[rows][safe] = reduce(np.minimum, _theta_arrays(b1s, b2s, d, b1s, 1e-6))
    admissible = codes == 0

    box = REFERENCE_BOX[d]
    margin = 2.0 * resolution
    b1_in = (b1_axis > box["b1"][0] + margin) & (b1_axis < box["b1"][1] - margin)
    b2_in = b2_axis < box["b2"][1] - margin
    if box["b2_closed_low"]:
        b2_in &= b2_axis >= box["b2"][0]
    else:
        b2_in &= b2_axis > box["b2"][0] + margin
    # the box's sample indices, in scan order
    in_box = (np.nonzero(b1_in)[0][:, None] * n + np.nonzero(b2_in)[0]).ravel()
    contained = bool(np.all(admissible[in_box])) if in_box.size else False
    witnesses = [{"b1": float(b1_axis[j // n]), "b2": float(b2_axis[j % n]),
                  "violated": violation_texts()[codes[j]]}
                 for j in in_box[~admissible[in_box]][:50]]

    # Pointwise b1 range: b1 values admissible for at least one scanned b2.
    # Uniform range: b1 values admissible for every scanned b2 in the reference
    # b2 interval.  The two differ; both are reported, neither is asserted.
    adm_grid = admissible.reshape(len(b1_axis), n)
    span = lambda rows: tuple(b1_axis[rows][[0, -1]].tolist()) if np.any(rows) else None
    pointwise = span(np.any(adm_grid, axis=1))
    uniform = span(np.all(adm_grid[:, b2_in], axis=1)) if np.any(b2_in) else None

    return RegionScan(d=d, resolution=resolution, b1_axis=b1_axis, b2_axis=b2_axis,
                      admissible=admissible, violated_codes=codes, min_theta=min_theta,
                      reference_box_contained=contained, witnesses=witnesses,
                      pointwise_b1_range=pointwise, uniform_b1_range=uniform)


# ---------------------------------------------------------------------------
# Strichartz exponent calculator
# ---------------------------------------------------------------------------

@dataclass
class StrichartzExponents:
    feasible: bool
    q: float | None = None
    r: float | None = None
    theta: float | None = None
    violated: str | None = None


def strichartz_exponents(
    a: float,
    a_prime: float,
    gamma: float,
    eta: float,
    b0: float,
    d: int,
    wave: bool = False,
) -> StrichartzExponents:
    """Admissible (q, r) and the T-gain exponent theta, or an infeasibility
    verdict naming the first violated hypothesis.

    In wave mode eta is forced to 1 and r to 2, and q follows the wave rule
    2/q = 1 - (1 - gamma) a / b0.  d must be 2 or 3 (ConfigurationError).
    """
    check_dim(d, "d")
    checks = [
        (b0 > 0.5, "b0 > 1/2"),
        (a >= 0.0, "a >= 0"),
        (a_prime >= 0.0, "a' >= 0"),
        (0.0 <= gamma <= 1.0, "0 <= gamma <= 1"),
        ((1.0 - gamma) * a <= b0, "(1 - gamma) a <= b0"),
        (gamma * a <= a_prime, "gamma a <= a'"),
    ]
    if not wave:
        checks.append((0.0 < eta <= 1.0, "0 < eta <= 1"))
    for ok, text in checks:
        if not ok:
            return StrichartzExponents(feasible=False, violated=text)

    if wave:
        eta = 1.0
    inv_q_half = 1.0 - eta * (1.0 - gamma) * a / b0  # this is 2/q
    q = 2.0 / inv_q_half if inv_q_half > 0 else np.inf
    if wave:
        r = 2.0
    else:
        # d/2 - d/r = (1 - eta) c with c = (1 - gamma) a / b0 <= 1 and eta > 0,
        # so it is at least d/2 - 1 + eta c > 0 and r is finite.  It is summed
        # as (d/2 - c) + eta c: 1 - eta rounds to 1 for eta below 1e-16.
        c = (1.0 - gamma) * a / b0
        r = d / ((d / 2.0 - c) + eta * c)
    if a == 0.0 or gamma == 0.0:
        theta = 0.0
    else:
        theta = gamma * a * (1.0 - bracket_plus(a_prime - 0.5) / a_prime)
    return StrichartzExponents(feasible=True, q=float(q), r=float(r), theta=float(theta))


# ---------------------------------------------------------------------------
# Randomized verifier for the elementary inequalities
# ---------------------------------------------------------------------------

INEQUALITY_IDS = ("ineq1", "ineq2", "ineq3", "ineq4", "ineq5")


@dataclass
class InequalityResult:
    inequality: str
    branch: str
    d: int
    n_samples: int
    max_ratio: float
    argmax: dict


# Every fuzz batch is cut into chunks of at most _CHUNK samples, the
# modulations tau, tau1 are uniform on [-_TAU_SCALE, _TAU_SCALE), and the
# frequency components have magnitudes in [_LO, _HI].
_CHUNK = 250_000
_TAU_SCALE = 1e6
_LO, _HI = 1e-2, 1e3


def _sample_vectors(rng, n, d, out=None, work=None):
    """Components with log-uniform magnitude in [_LO, _HI] and an independent
    fair sign, both from one uniform u on [-W, W), W = log(_HI / _LO): the
    magnitude is _LO * exp(|u|) and the sign is the sign of u.

    out and work, (n, d) float64 arrays, take the result and u when given,
    so that a loop of draws reuses its memory.
    """
    w = np.log(_HI) - np.log(_LO)
    u = rng.random((n, d), out=work)  # bit for bit rng.uniform(-w, w, (n, d))
    u *= 2.0 * w
    u -= w
    v = np.abs(u, out=out)
    v += np.log(_LO)
    np.exp(v, out=v)
    return np.copysign(v, u, out=v)


def _squared_norm(v):
    """|v|^2 of the rows of an (n, d) array, summed one column at a time."""
    out = v[:, 0] * v[:, 0]
    for j in range(1, v.shape[1]):
        out += v[:, j] * v[:, j]
    return out


def _norm(v):
    return np.sqrt(_squared_norm(v))


def _bracket_each(x):
    """<x> of every entry of a 1-D array; bracket would read an array of
    length 2 or 3 as one vector."""
    return np.sqrt(1.0 + x**2)


def verify_symbolic_inequalities(n_samples: int, seed: int, d: int,
                                 progress=None) -> list[InequalityResult]:
    """Empirical worst constants for the five elementary inequalities;
    progress(result) follows each (inequality, branch).

    For <=-type inequalities the reported ratio is LHS/RHS; for the two
    lower bounds it is the reciprocal orientation (bounded side over
    bounding side), so every reported number should stay below its cap.
    """
    if isinstance(n_samples, (int, np.integer)) and n_samples < 1:
        raise ConfigurationError("n_samples must be >= 1")
    check_count(n_samples, "n_samples", 1)
    check_count(seed, "seed")
    check_dim(d, "d")
    results = []
    buffers = _draw_buffers(min(_CHUNK, n_samples), d)  # reused by every chunk
    for tag, ineq in enumerate(INEQUALITY_IDS):
        # ineq1 has no tau and ineq5 has fixed signs; only the others carry
        # a +/- branch.
        branches = ("+", "-") if ineq in ("ineq2", "ineq3", "ineq4") else ("+",)
        for branch in branches:
            rng = np.random.default_rng(np.random.SeedSequence([seed, tag, 0 if branch == "+" else 1, d]))
            best = -np.inf
            arg = {}
            remaining = n_samples
            while remaining > 0:
                m = min(_CHUNK, remaining)
                ratios, samples = _ineq_ratios(rng, m, d, ineq, branch, buffers)
                j = int(np.argmax(ratios))
                if ratios[j] > best:
                    best = float(ratios[j])
                    arg = {k: (v[j].tolist() if v.ndim > 1 else float(v[j])) for k, v in samples.items()}
                remaining -= m
            results.append(InequalityResult(ineq, branch, d, n_samples, best, arg))
            if progress is not None:
                progress(results[-1])
    return results


# Per inequality, in draw order: the frequency vectors it samples, then its
# modulations.  ineq2's vectors come from a rejection loop (_ineq2_vectors).
_DRAWS = {
    "ineq1": (("xi", "xi1", "xi2"), ()),
    "ineq2": (("xi", "xi1"), ("tau", "tau1")),
    "ineq3": (("xi", "xi1"), ("tau", "tau1")),
    "ineq4": (("xi",), ("tau",)),
    "ineq5": (("xi", "xi1"), ("tau", "tau1")),
}


def _draw_buffers(n, d):
    """Memory for the draws of up to n samples: three (2n, d) arrays, which
    hold ineq2's candidates or, in halves, the other inequalities' frequency
    vectors and the uniforms they are drawn from; and two modulations."""
    return np.empty((3, 2 * n, d)), np.empty((2, n))


def _ineq_ratios(rng, n, d, ineq, branch, buffers=None):
    """The ratios of ineq at n points drawn from rng, and the points: a dict
    of (n, d) frequency vectors and length-n modulations, keyed as in _DRAWS.
    The points are views of buffers (from _draw_buffers, fresh when None),
    so that a loop of draws reuses their memory."""
    vectors, modulations = _DRAWS[ineq]
    blocks, taus = buffers or _draw_buffers(n, d)
    if ineq == "ineq2":
        point = dict(zip(vectors, _ineq2_vectors(rng, n, d, blocks)))
    else:
        *outs, work = (b[k:k + n] for b in blocks[:2] for k in (0, len(b) // 2))
        point = {name: _sample_vectors(rng, n, d, out=out, work=work)
                 for name, out in zip(vectors, outs)}
    for name, out in zip(modulations, taus):
        tau = point[name] = rng.random(out=out[:n])  # bit for bit rng.uniform(-S, S, n)
        tau *= 2.0 * _TAU_SCALE
        tau -= _TAU_SCALE
    return _ratio(ineq, 1.0 if branch == "+" else -1.0, point), point


def _ineq2_vectors(rng, n, d, blocks):
    """n pairs (xi, xi1) with |xi|^2 > 4 |xi - xi1|^2, by rejection; every
    pass draws into the same three (2n, d) blocks."""
    cand, cand1, work = (b[:2 * n] for b in blocks)
    xi, xi1 = [], []
    kept = 0
    while kept < n:
        _sample_vectors(rng, 2 * n, d, out=cand, work=work)
        _sample_vectors(rng, 2 * n, d, out=cand1, work=work)
        keep = _squared_norm(cand) > 4.0 * _squared_norm(np.subtract(cand, cand1, out=work))
        xi.append(cand.compress(keep, axis=0))  # cheaper than cand[keep] at a 2 % yield
        xi1.append(cand1.compress(keep, axis=0))
        kept += len(xi[-1])
    return np.concatenate(xi)[:n], np.concatenate(xi1)[:n]


def _ratio(ineq, s, point):
    """The stated ratio of ineq on branch s = +1 or -1, at every row of a
    point dict as _ineq_ratios fills it: bounded side over bounding side."""
    xi, xi1, tau, tau1 = (point.get(name) for name in ("xi", "xi1", "tau", "tau1"))
    if ineq == "ineq1":
        xi2 = point["xi2"]
        return bracket(xi) / (bracket(xi2) + bracket(xi1 - xi2) + bracket(xi - xi1))
    if ineq == "ineq2":
        return bracket(xi) ** 2 / (
            _bracket_each(tau1 + s * _norm(xi1)) + _bracket_each(tau - tau1 + _norm(xi - xi1) ** 2)
            + _bracket_each(tau + _norm(xi) ** 2))
    if ineq == "ineq3":
        return bracket(xi) ** 2 / (
            _bracket_each(tau - tau1 + _norm(xi - xi1) ** 2) + _bracket_each(tau1 - _norm(xi1) ** 2)
            + _bracket_each(tau + s * _norm(xi)))
    if ineq == "ineq4":
        return np.sqrt(np.abs(tau)) / (
            bracket(xi) * np.sqrt(_bracket_each(tau + s * _norm(xi) ** 2)))
    if ineq == "ineq5":
        return np.sqrt(np.abs(tau)) / (
            bracket(xi1) * bracket(xi - xi1)
            * np.sqrt(_bracket_each(tau - tau1 + _norm(xi - xi1) ** 2))
            * np.sqrt(_bracket_each(tau1 - _norm(xi1) ** 2)))
    raise ConfigurationError(f"unknown inequality {ineq!r}")
