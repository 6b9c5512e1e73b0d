"""The time-blocked Picard sweep against a frozen copy of the whole-window
iteration it replaced.

The sweep sums the retarded integral outward from t = 0 and rebuilds the
t < 0 groups as conjugates, so its sums run in another order: iterates
agree to 1e-12 relative in the max norm and differences to 1e-12 of the
first one, not bit for bit.  Differences at the round-off floor are not
compared more closely, and so neither is the contraction factor; the flag
must agree.
"""

import numpy as np
import pytest

from frozen_picard import frozen_picard_iterate
from test_picard_equivalence import COMPONENTS, GRIDS, PARAMS, max_rel, small_data
from zrbr.evolution import _BLOCK_POINTS, picard_contraction, picard_iterate
from zrbr.model import ModelParams
from zrbr.spectral import Grid


def assert_matches_frozen(init, T, n_iters, params, n_time):
    (free, last), report = picard_iterate(init, T, n_iters, params, n_time=n_time)
    (ref_free, ref_last), ref = frozen_picard_iterate(init, T, n_iters, params, n_time)
    for new, old in ((free, ref_free), (last, ref_last)):
        for name in COMPONENTS:
            assert max_rel(new[name], old[name]) <= 1e-12, name
    for name in COMPONENTS:
        gap = np.subtract(report.component_diffs[name], ref.component_diffs[name])
        assert np.max(np.abs(gap)) <= 1e-12 * ref.diffs[0], name
    assert np.max(np.abs(np.subtract(report.diffs, ref.diffs))) <= 1e-12 * ref.diffs[0]
    assert report.contracting == ref.contracting
    # the driver alone reports what the wrapper reports
    assert picard_contraction(init, T, n_iters, params, n_time)[2] == report


def blocks_per_half(grid, n_time):
    return -(-(n_time // 2) // max(1, _BLOCK_POINTS // grid.n**grid.dim))


@pytest.mark.parametrize("n_time", [32, 128])
@pytest.mark.parametrize("params", PARAMS, ids=list(PARAMS))
@pytest.mark.parametrize("grid", GRIDS, ids=list(GRIDS))
def test_equivalence_grids(grid, params, n_time):
    assert_matches_frozen(small_data(GRIDS[grid], scale=0.05), 0.25, 3, PARAMS[params], n_time)


@pytest.mark.parametrize("n_time", [16, 64, 128])
def test_acceptance_07_data(n_time):
    # six iterations take the differences to the round-off floor
    grid = GRIDS["2d-32"]
    assert blocks_per_half(grid, 128) == 4
    assert_matches_frozen(small_data(grid), 0.1, 6, ModelParams(sigma2=-1.0, W=1.0, D=0.5),
                          n_time)


def test_3d_several_blocks_per_half_window():
    grid = Grid(3, 16, 4 * np.pi)
    assert blocks_per_half(grid, 32) == 4
    assert_matches_frozen(small_data(grid, scale=0.05), 0.25, 3,
                          ModelParams(sigma2=-1.0, W=1.0, D=0.5, epsilon=0.7), 32)


def test_partial_last_blocks():
    # 20 slices per half-window in blocks of 16: each sweep ends in a short block
    grid = GRIDS["2d-32"]
    assert blocks_per_half(grid, 40) == 2
    assert_matches_frozen(small_data(grid, scale=0.05), 0.25, 3, PARAMS["default"], 40)
