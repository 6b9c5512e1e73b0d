"""The Picard map, its blocks in the stacks' order, against a frozen copy of
the sweep that ran every backward block on reversed views
(tests/frozen_picard_blocks.py).

Block edges, carries and the order of every sum are the same, so the two
agree bit for bit: the stacks after each map, the squared differences it
returns and both read-out iterates.
"""

import numpy as np
import pytest

from frozen_picard_blocks import frozen_picard_map, frozen_readout
from test_picard_equivalence import COMPONENTS, GRIDS, PARAMS, small_data
from zrbr import evolution
from zrbr.evolution import _BLOCK_POINTS
from zrbr.spectral import Grid

CASES = {
    # acceptance-07 data: 2D 32^2, blocks of 16 slices
    "07-n16": (GRIDS["2d-32"], 1e-3, 0.1, 16),
    "07-n64": (GRIDS["2d-32"], 1e-3, 0.1, 64),
    "07-n128": (GRIDS["2d-32"], 1e-3, 0.1, 128),
    # 20 slices per half-window: each sweep ends in a short block
    "2d-32-n40": (GRIDS["2d-32"], 0.05, 0.25, 40),
    # N > 2^14: every block is one slice
    "3d-32-n8": (Grid(3, 32, 4 * np.pi), 0.05, 0.25, 8),
}


@pytest.mark.parametrize("case", CASES, ids=list(CASES))
def test_map_matches_the_reversed_view_sweep(case):
    grid, scale, T, n_time = CASES[case]
    if case == "2d-32-n40":
        assert (n_time // 2) % (_BLOCK_POINTS // grid.n**grid.dim) != 0
    if case == "3d-32-n8":
        assert grid.n**grid.dim > _BLOCK_POINTS
    ctx = evolution._PicardContext(small_data(grid, scale), T, PARAMS["default"], n_time)
    duh = {name: np.zeros((n_time,) + grid.shape, dtype=np.complex128) for name in ctx.coef}
    ref = {name: d.copy() for name, d in duh.items()}
    for _ in range(3):
        diff2 = evolution._picard_map(duh, ctx)
        assert diff2 == frozen_picard_map(ref, ctx)
        for name in duh:
            assert np.array_equal(duh[name], ref[name]), name
    for new, old in zip(evolution._readout(ctx, duh), frozen_readout(ctx, ref)):
        for name in COMPONENTS:
            assert np.array_equal(new[name], old[name]), name
