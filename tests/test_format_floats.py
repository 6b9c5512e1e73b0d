"""format_floats is format_float, byte for byte, on a whole array.

The vector path forms |x| 10^(16-k) exactly as hi + lo and rounds it to 17
digits; every set below aims at one way that can go wrong: the choice of k
at powers of ten and their neighbours, ties at the 17th digit (dyadic
rationals), a mantissa that rounds up to 10^17, the split of the 17 digits
into a top digit and four 4-digit groups and the count of their trailing
zeros (every shape of k and significant digits), and the values that fall
back to format_float (zeros, nan, infinities, |x| < 1e-4, |x| >= 1e17).
"""

import numpy as np
import pytest

from zrbr.harness import format_float, format_floats


def assert_same_text(x):
    x = np.asarray(x, dtype=np.float64)
    rows = format_floats(x)
    assert rows.shape == (len(x), 24) and rows.dtype == np.uint8
    got = [row.tobytes().rstrip(b"\0") for row in rows]
    bad = [(float(v), w, g) for v, w, g in zip(x, (format_float(v).encode() for v in x), got)
           if w != g]
    assert not bad, bad[:5]


def powers_of_ten(_rng):
    """1e-8 .. 1e20, both float neighbours of each, and their negatives."""
    p = np.array([float(f"1e{e}") for e in range(-8, 21)])
    return np.concatenate([p, np.nextafter(p, 0), np.nextafter(p, np.inf), -p])


def shape(x):
    """(k, n): the decimal exponent and the count of significant digits of
    format_float(x), 17 less its trailing zeros."""
    mantissa, exponent = f"{abs(x):.16e}".split("e")
    return int(exponent), len(mantissa.replace(".", "").rstrip("0"))


def trailing_zeros(rng):
    """For every k from -4 to 16 and every n from 1 to 17 (0 to 16 trailing
    zeros, so the last significant digit falls in each 4-digit group and at
    each place in it), a value of that shape, and its negative."""
    found = []
    for k in range(-4, 17):
        for n in range(1, 18):
            for m in rng.integers(10 ** (n - 1), 10**n, 200):
                x = float(f"{m}e{k - n + 1}")
                if shape(x) == (k, n):
                    found.append(x)
                    break
    return np.array(found + [-x for x in found])


SETS = {
    "bit patterns": lambda rng: rng.integers(0, 2**64, 100_000, dtype=np.uint64).view(np.float64),
    "log-uniform": lambda rng: (np.exp(rng.uniform(np.log(1e-8), np.log(1e18), 100_000))
                                * rng.choice([-1.0, 1.0], 100_000)),
    "powers of ten": powers_of_ten,
    # k / 2^j with k < 2^53: exact binary fractions, ties at the 17th digit
    "dyadic": lambda rng: (rng.integers(1, 2**53, 50_000)
                           / 2.0 ** rng.integers(0, 64, 50_000)),
    "round up to 10^17": lambda rng: np.array(
        [np.nextafter(0.1, 0), np.nextafter(1.0, 0), np.nextafter(1e17, 0), 99999999999999999.0,
         9.9999999999999995e16, 0.99999999999999999, np.nextafter(1e-4, np.inf)]),
    "fallback": lambda rng: np.array(
        [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, np.finfo(np.float64).max,
         np.finfo(np.float64).tiny, 1e17, -1e17, np.nextafter(1e-4, 0), 1e-5]),
    "trailing zeros": trailing_zeros,
    "region axes at 5e-4": lambda rng: np.concatenate(
        [np.arange(0.5 + 5e-4, 1.0, 5e-4), np.arange(0.0, 0.5 + 0.5 * 5e-4, 5e-4)]),
}


@pytest.mark.parametrize("name", list(SETS))
def test_matches_format_float(name):
    assert_same_text(SETS[name](np.random.default_rng(31)))


def test_trailing_zeros_cover_every_shape():
    x = trailing_zeros(np.random.default_rng(31))
    assert len(x) == 2 * 21 * 17
    assert {shape(v) for v in x} == {(k, n) for k in range(-4, 17) for n in range(1, 18)}


def test_ties_round_half_even():
    # 1234567890123456.75 * 10 = 12345678901234567.5: a tie, to the even 8
    assert format_floats([1234567890123456.75])[0].tobytes().rstrip(b"\0") == (
        b"1234567890123456.8")
    assert_same_text([1234567890123456.75, 1234567890123456.25, 0.5, 0.125, 2.0**-14])


def test_empty_and_region_axes():
    assert format_floats(np.array([])).shape == (0, 24)
    assert_same_text(np.arange(0.5 + 1e-3, 1.0, 1e-3))
    assert_same_text(np.arange(0.0, 0.5 + 0.5e-3, 1e-3))
