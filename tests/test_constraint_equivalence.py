"""The admissibility ledger and the region scan against frozen copies of the
code they replaced (tests/frozen_constraints.py): the same verdict for every
constraint at every point, and the same scan, bit for bit."""

import dataclasses

import numpy as np
import pytest

import frozen_constraints as frozen
from zrbr.exponents import check_constraints, constraint_matrix, derive, region_scan

B2_EDGES = (0.0, 1.0 / 12.0, 1.0 / 6.0, 0.5)


def seeded_batch(d):
    rng = np.random.default_rng(1000 + d)
    return rng.uniform(0.4, 1.1, 1000), rng.uniform(0.4, 1.1, 1000)


def float_edge():
    """The 1e-3 lattice samples on the excluded edge b1 + b2 = 3/4."""
    res = 1e-3
    b1 = np.repeat(np.arange(0.5 + res, 1.0, res), 501)
    b2 = np.tile(np.arange(0.0, 0.5 + 0.5 * res, res), len(b1) // 501)
    edge = np.abs(b1 + b2 - 0.75) < 1e-12
    return b1[edge], b2[edge]


def boundaries(d):
    """b1 = b2, b1 = 2/d and b2 on the edges the constraints name."""
    line = np.linspace(0.4, 1.1, 29)
    pairs = [(b, b) for b in line] + [(2.0 / d, b2) for b2 in B2_EDGES]
    pairs += [(b1, b2) for b1 in line for b2 in B2_EDGES]
    return np.array(pairs).T


POINT_SETS = {"seeded": seeded_batch, "float-edge": lambda d: float_edge(),
              "boundaries": boundaries}


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("points", sorted(POINT_SETS))
def test_every_verdict_matches(d, points):
    b1, b2 = POINT_SETS[points](d)
    passes, ids = constraint_matrix(b1, b2, d)
    ref_passes, ref_ids = frozen.constraint_matrix(b1, b2, d)
    assert ids == ref_ids
    assert passes.dtype == ref_passes.dtype and np.array_equal(passes, ref_passes)
    for x1, x2 in zip(b1.tolist(), b2.tolist()):
        rep, ref = check_constraints(derive(x1, x2, d)), frozen.check_constraints(derive(x1, x2, d))
        assert [(e.constraint_id, e.passed) for e in rep.entries] == \
            [(e.constraint_id, e.passed) for e in ref.entries], (x1, x2, d)
        assert rep.admissible == ref.admissible


def test_float_edge_is_the_admitted_one():
    # 167 edge samples pass auxi4's strict > only by the lattice's rounding
    b1, b2 = float_edge()
    assert np.count_nonzero(np.all(frozen.constraint_matrix(b1, b2, 2)[0], axis=0)) == 167


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("resolution", [1e-2, 5e-3])
def test_region_scan_matches_field_by_field(d, resolution):
    scan, ref = region_scan(d, resolution), frozen.region_scan(d, resolution)
    for field in dataclasses.fields(scan):
        new, old = getattr(scan, field.name), getattr(ref, field.name)
        if isinstance(new, np.ndarray):  # bitwise, NaN included
            assert (new.dtype, new.shape) == (old.dtype, old.shape), field.name
            assert new.tobytes() == old.tobytes(), field.name
        else:
            assert type(new) is type(old) and new == old, field.name
    assert scan.violated_ids == ref.violated_ids
