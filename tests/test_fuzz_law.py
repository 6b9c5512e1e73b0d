"""The ineq2 rejection sampler draws from the same law as the frozen copy
of the sampler it replaced (tests/frozen_fuzz.py).

Both samplers keep 100k pairs (xi, xi1) with |xi| > 2 |xi - xi1| per
dimension from fixed seeds.  For four statistics of a kept pair, the
two-sample Kolmogorov-Smirnov distance between the old and the new sample
must stay below its critical value at alpha = 0.001.
"""

import tracemalloc

import numpy as np
import pytest

from frozen_fuzz import ineq2_pairs
from zrbr.exponents import (
    _TAU_SCALE,
    _ineq_ratios,
    _ratio,
    _sample_vectors,
    verify_symbolic_inequalities,
)

N_PAIRS = 100_000
LO, HI = 1e-2, 1e3


def ks_distance(a, b):
    """Two-sample Kolmogorov-Smirnov statistic sup |F_a - F_b|."""
    a, b = np.sort(a), np.sort(b)
    points = np.concatenate([a, b])
    f_a = np.searchsorted(a, points, side="right") / len(a)
    f_b = np.searchsorted(b, points, side="right") / len(b)
    return float(np.max(np.abs(f_a - f_b)))


def ks_critical(n, m):
    """Critical value of the two-sample statistic at alpha = 0.001."""
    return 1.95 * np.sqrt((n + m) / (n * m))


def _norm(v):
    return np.sqrt(np.sum(v**2, axis=1))


STATISTICS = {
    "log|xi|": lambda xi, xi1: np.log(_norm(xi)),
    "log|xi1|": lambda xi, xi1: np.log(_norm(xi1)),
    "log|xi-xi1|": lambda xi, xi1: np.log(_norm(xi - xi1)),
    "xi1_0/|xi|": lambda xi, xi1: xi1[:, 0] / _norm(xi),
}


@pytest.fixture(scope="module", params=[2, 3], ids=["d2", "d3"])
def pairs(request):
    d = request.param
    old = ineq2_pairs(np.random.default_rng([2024, d]), N_PAIRS, d)
    _, samples = _ineq_ratios(np.random.default_rng([2025, d]), N_PAIRS, d, "ineq2", "+")
    return old, (samples["xi"], samples["xi1"])


def test_ks_critical_value():
    assert ks_critical(N_PAIRS, N_PAIRS) == pytest.approx(0.0087, abs=1e-4)
    same = np.arange(10.0)
    assert ks_distance(same, same) == 0.0
    assert ks_distance(same, same + 100.0) == 1.0


@pytest.mark.parametrize("name", list(STATISTICS))
def test_same_law_as_frozen_sampler(pairs, name):
    old, new = pairs
    stat = STATISTICS[name]
    a, b = stat(*old), stat(*new)
    assert len(a) == len(b) == N_PAIRS
    dist = ks_distance(a, b)
    assert dist < ks_critical(len(a), len(b)), f"{name}: KS distance {dist:.5f}"


def test_kept_pairs_satisfy_the_constraint(pairs):
    _, (xi, xi1) = pairs
    assert xi.shape == xi1.shape
    assert np.all(np.sum(xi**2, axis=1) > 4.0 * np.sum((xi - xi1) ** 2, axis=1))
    for v in (xi, xi1):
        assert np.all((np.abs(v) >= LO) & (np.abs(v) <= HI))
        # every component takes both signs, in equal shares up to 5 sigma
        positive = np.mean(v > 0.0, axis=0)
        assert np.all(np.abs(positive - 0.5) < 5.0 * 0.5 / np.sqrt(len(v)))


def test_one_uniform_per_component():
    # Each component is copysign(lo * exp(|u|), u) for u = uniform(-W, W),
    # W = log(hi / lo), drawn in place of the same stream.
    w = np.log(HI) - np.log(LO)
    u = np.random.default_rng(8).uniform(-w, w, size=(1000, 3))
    expected = np.copysign(np.exp(np.log(LO) + np.abs(u)), u)
    assert np.array_equal(_sample_vectors(np.random.default_rng(8), 1000, 3), expected)
    out, work = np.empty((1000, 3)), np.empty((1000, 3))
    got = _sample_vectors(np.random.default_rng(8), 1000, 3, out=out, work=work)
    assert got is out
    assert np.array_equal(out, expected)


def test_modulations_are_the_uniform_draw():
    # tau = random() * 2S - S in place is rng.uniform(-S, S) bit for bit.
    rng = np.random.default_rng(5)
    rng.random((300, 3))
    rng.random((300, 3))
    expected = rng.uniform(-_TAU_SCALE, _TAU_SCALE, size=(2, 300))
    _, point = _ineq_ratios(np.random.default_rng(5), 300, 3, "ineq5", "+")
    assert np.array_equal(point["tau"], expected[0])
    assert np.array_equal(point["tau1"], expected[1])


def test_steps_draw_into_shared_buffers():
    # After the first (inequality, branch), the draws go into buffers that
    # verify_symbolic_inequalities owns, so a step's traced peak is its
    # ratio expression's alone, up to one length-n array; fresh draws add
    # their (n, d) vectors, uniforms and modulations on top.
    n, d = 20_000, 3
    peaks = {}

    def progress(r):
        peaks[r.inequality, r.branch] = tracemalloc.get_traced_memory()[1] - progress.start
        tracemalloc.reset_peak()
        progress.start = tracemalloc.get_traced_memory()[0]

    tracemalloc.start()
    try:
        progress.start = tracemalloc.get_traced_memory()[0]
        verify_symbolic_inequalities(n, 1, d, progress)
        for ineq in ("ineq3", "ineq4", "ineq5"):
            _, point = _ineq_ratios(np.random.default_rng(1), n, d, ineq, "+")
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            _ratio(ineq, 1.0, point)
            ratio_peak = tracemalloc.get_traced_memory()[1] - start
            assert peaks[ineq, "+"] <= ratio_peak + 8 * n, ineq
    finally:
        tracemalloc.stop()
