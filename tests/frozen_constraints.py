"""Frozen copies of the admissibility ledger and the region scan as they
were when each constraint was an (id, formula text, lhs, rhs, comparison)
tuple, evaluated by a scalar loop and by a vector route, and the scan held
its flattened sample coordinates.

Tests use them as an independent reference: every verdict, and every field
of a region scan, must match the live code.
"""

import operator
from dataclasses import dataclass
from functools import cache, reduce

import numpy as np

from zrbr.errors import ConfigurationError
from zrbr.exponents import _BLOCK, MAX_REGION_SAMPLES, REFERENCE_BOX, ExponentParams, _theta_arrays
from zrbr.spectral import check_dim, check_number


@dataclass
class ConstraintEntry:
    constraint_id: str
    formula: str
    lhs: float
    rhs: float
    passed: bool


@dataclass
class ConstraintReport:
    entries: list
    admissible: bool

    def failed_ids(self) -> list[str]:
        return [e.constraint_id for e in self.entries if not e.passed]


# (id, formula text, lhs(b1,b2,d), rhs(b1,b2,d), comparison)
_CONSTRAINTS = [
    ("base_b1", "b1 > 1/2", lambda b1, b2, d: b1, lambda b1, b2, d: 0.5, operator.gt),
    ("base_b2_low", "b2 >= 0", lambda b1, b2, d: b2, lambda b1, b2, d: 0.0, operator.ge),
    ("base_b2_high", "b2 <= 1/2", lambda b1, b2, d: b2, lambda b1, b2, d: 0.5, operator.le),
    (
        "auxi1",
        "b1 < (2 + 2 b2) / (d + 4 b2)",
        lambda b1, b2, d: b1,
        lambda b1, b2, d: (2.0 + 2.0 * b2) / (d + 4.0 * b2),
        operator.lt,
    ),
    ("auxi2", "b1 < 2/d", lambda b1, b2, d: b1, lambda b1, b2, d: 2.0 / d, operator.lt),
    ("auxi3", "b2 < 1 - b1", lambda b1, b2, d: b2, lambda b1, b2, d: 1.0 - b1, operator.lt),
    (
        "auxi4",
        "2 b1 + (1 + d/2) b2 > (1 + d)/2",
        lambda b1, b2, d: 2.0 * b1 + (1.0 + d / 2.0) * b2,
        lambda b1, b2, d: (1.0 + d) / 2.0,
        operator.gt,
    ),
    (
        "i521_auxi1",
        "b2 < (2/3) b1 - d/12",
        lambda b1, b2, d: b2,
        lambda b1, b2, d: (2.0 / 3.0) * b1 - d / 12.0,
        operator.lt,
    ),
    (
        "i521_auxi2",
        "b2 <= 1 - d/4",
        lambda b1, b2, d: b2,
        lambda b1, b2, d: 1.0 - d / 4.0,
        operator.le,
    ),
    (
        "i521_auxi3",
        "b2 < 1/6 (d=2) or 1/12 (d=3)",
        lambda b1, b2, d: b2,
        lambda b1, b2, d: 1.0 / 6.0 if d == 2 else 1.0 / 12.0,
        operator.lt,
    ),
]


def check_constraints(p: ExponentParams) -> ConstraintReport:
    """Evaluate every admissibility constraint at (b1, b2); strict
    inequalities stay strict."""
    entries = []
    for cid, text, lhs_f, rhs_f, op in _CONSTRAINTS:
        lhs = float(lhs_f(p.b1, p.b2, p.d))
        rhs = float(rhs_f(p.b1, p.b2, p.d))
        entries.append(ConstraintEntry(cid, text, lhs, rhs, bool(op(lhs, rhs))))
    return ConstraintReport(entries, all(e.passed for e in entries))


def constraint_matrix(b1, b2, d: int):
    """Vectorized constraint evaluation; returns (pass matrix, ids).

    b1 and b2 are broadcastable arrays.  The formulas are shared with
    check_constraints so both routes evaluate identical expressions.
    """
    b1 = np.asarray(b1, dtype=np.float64)
    b2 = np.asarray(b2, dtype=np.float64)
    ids = [c[0] for c in _CONSTRAINTS]
    passes = []
    for cid, text, lhs_f, rhs_f, op in _CONSTRAINTS:
        passes.append(op(lhs_f(b1, b2, d), rhs_f(b1, b2, d)))
    return np.stack(np.broadcast_arrays(*passes), axis=0), ids


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
    b1: np.ndarray  # flattened sample coordinates
    b2: np.ndarray
    admissible: np.ndarray  # bool, same length
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
    rows (_BLOCK samples, or one row) and holds its result, about 27 B per
    sample, and one block: traced peaks 8.1 MiB at 1e-3, 27 at 5e-4."""
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
    b1 = np.repeat(b1_axis, len(b2_axis))
    b2 = np.tile(b2_axis, len(b1_axis))

    codes = np.empty(len(b1), dtype=np.uint16)
    # min theta where defined (b1 != b2), a running minimum: no (12, N) stack
    min_theta = np.full(len(b1), np.nan)
    step = max(1, _BLOCK // len(b2_axis)) * len(b2_axis)
    for lo in range(0, len(b1), step):
        rows = slice(lo, lo + step)
        passes, _ = constraint_matrix(b1[rows], b2[rows], d)
        codes[rows] = _BITS @ ~passes
        safe = b1[rows] != b2[rows]
        b1s, b2s = b1[rows][safe], b2[rows][safe]
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
    in_box = (np.nonzero(b1_in)[0][:, None] * len(b2_axis) + np.nonzero(b2_in)[0]).ravel()
    contained = bool(np.all(admissible[in_box])) if in_box.size else False
    witnesses = [{"b1": float(b1[j]), "b2": float(b2[j]),
                  "violated": violation_texts()[codes[j]]}
                 for j in in_box[~admissible[in_box]][:50]]

    # Pointwise b1 range: b1 values admissible for at least one scanned b2.
    # Uniform range: b1 values admissible for every scanned b2 in the reference
    # b2 interval.  The two differ; both are reported, neither is asserted.
    adm_grid = admissible.reshape(len(b1_axis), len(b2_axis))
    span = lambda rows: tuple(b1_axis[rows][[0, -1]].tolist()) if np.any(rows) else None
    pointwise = span(np.any(adm_grid, axis=1))
    uniform = span(np.all(adm_grid[:, b2_in], axis=1)) if np.any(b2_in) else None

    return RegionScan(
        d=d,
        resolution=resolution,
        b1_axis=b1_axis,
        b2_axis=b2_axis,
        b1=b1,
        b2=b2,
        admissible=admissible,
        violated_codes=codes,
        min_theta=min_theta,
        reference_box_contained=contained,
        witnesses=witnesses,
        pointwise_b1_range=pointwise,
        uniform_b1_range=uniform,
    )
