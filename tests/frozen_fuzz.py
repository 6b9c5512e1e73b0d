"""Frozen copies of the inequality fuzzer's vector sampler and ineq2
rejection loop as they were before each component came from one uniform
draw.

Tests use them as an independent reference for the sampling law: the
magnitude of every component is log-uniform on [lo, hi] and its sign is an
independent fair choice, drawn separately.
"""

import numpy as np


def sample_vectors(rng, n, d, lo=1e-2, hi=1e3):
    """Components with log-uniform magnitude in [lo, hi] and random sign."""
    mag = np.exp(rng.uniform(np.log(lo), np.log(hi), size=(n, d)))
    sign = rng.choice([-1.0, 1.0], size=(n, d))
    return mag * sign


def _norm(v):
    return np.sqrt(np.sum(v**2, axis=-1))


def ineq2_pairs(rng, n, d):
    """The first n candidate pairs (xi, xi1) with |xi| > 2 |xi - xi1|."""
    xi = np.empty((0, d))
    xi1 = np.empty((0, d))
    while len(xi) < n:
        cand = sample_vectors(rng, 2 * n, d)
        cand1 = sample_vectors(rng, 2 * n, d)
        keep = _norm(cand) > 2.0 * _norm(cand - cand1)
        xi = np.concatenate([xi, cand[keep]])
        xi1 = np.concatenate([xi1, cand1[keep]])
    return xi[:n], xi1[:n]
