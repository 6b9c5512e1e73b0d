import itertools
import tracemalloc

import numpy as np
import pytest

from zrbr.errors import ConfigurationError, SingularityError
from zrbr.exponents import (
    INEQUALITY_IDS,
    MAX_REGION_SAMPLES,
    REFERENCE_BOX,
    THETA_NAMES,
    ExponentParams,
    bracket,
    bracket_plus,
    check_constraints,
    constraint_matrix,
    derive,
    region_scan,
    strichartz_exponents,
    theta_values,
    verify_symbolic_inequalities,
    _ratio,
)


class TestBrackets:
    def test_bracket_plus_semantics(self):
        assert bracket_plus(0.3) == 0.3
        assert bracket_plus(-0.3) == 0.0
        assert bracket_plus(0.0) == 1e-6
        assert bracket_plus(0.0, eps=1e-3) == 1e-3

    def test_bracket_scalar_and_vector(self):
        assert bracket(0.0) == 1.0
        assert bracket(4.0) == pytest.approx(np.sqrt(17.0))
        v = np.array([[3.0, 4.0]])
        assert bracket(v)[0] == pytest.approx(np.sqrt(26.0))


class TestDerivedExponents:
    def test_values(self):
        p = derive(0.8, 0.1, 2)
        assert (p.b1, p.b2, p.d) == (0.8, 0.1, 2)
        assert p.b0 == 0.8  # defaults to b1

    def test_b0_override(self):
        assert derive(0.8, 0.1, 2, b0=0.6).b0 == 0.6

    def test_dimension_validated(self):
        with pytest.raises(ConfigurationError):
            derive(0.8, 0.1, 4)

    def test_nonfinite_rejected(self):
        with pytest.raises(ConfigurationError):
            derive(np.nan, 0.1, 2)


# Every entry point that takes a dimension, called with d.
DIMENSION_TAKERS = {
    "derive": lambda d: derive(0.8, 0.1, d),
    "ExponentParams": lambda d: ExponentParams(0.8, 0.1, d),
    "region_scan": lambda d: region_scan(d, 1e-2),
    "strichartz_exponents": lambda d: strichartz_exponents(0.6, 0.6, 1.0, 1.0, 0.6, d),
    "verify_symbolic_inequalities": lambda d: verify_symbolic_inequalities(10, 1, d),
}


class TestDimensionRule:
    """d is an int, not a bool, in {2, 3}; a float is never read as one."""

    @pytest.mark.parametrize("taker", sorted(DIMENSION_TAKERS))
    @pytest.mark.parametrize("d", [2.0, 2.5, 3.0, True, "2", None])
    def test_a_non_integer_is_refused(self, taker, d):
        with pytest.raises(ConfigurationError, match=f"^d must be 2 or 3, got {d!r}$"):
            DIMENSION_TAKERS[taker](d)

    @pytest.mark.parametrize("taker", sorted(DIMENSION_TAKERS))
    def test_an_integer_keeps_its_message(self, taker):
        with pytest.raises(ConfigurationError, match="^d must be 2 or 3, got 4$"):
            DIMENSION_TAKERS[taker](4)

    @pytest.mark.parametrize("taker", sorted(DIMENSION_TAKERS))
    def test_a_numpy_integer_is_a_dimension(self, taker):
        DIMENSION_TAKERS[taker](np.int64(3))


class TestConstraints:
    def test_admissible_interior_point_d2(self):
        rep = check_constraints(derive(0.8, 0.1, 2))
        assert rep.admissible
        assert rep.failed_ids() == []

    def test_known_single_failures(self):
        assert check_constraints(derive(0.7, 0.0, 2)).failed_ids() == ["auxi4"]
        assert check_constraints(derive(0.75, 0.0, 2)).failed_ids() == ["auxi4"]
        assert check_constraints(derive(0.6, 0.05, 3)).failed_ids() == ["auxi4"]

    def test_strictness_on_boundaries(self):
        # b1 = 1/2 violates the strict base bound
        assert "base_b1" in check_constraints(derive(0.5, 0.1, 2)).failed_ids()
        # b2 = 1/2 satisfies the non-strict upper bound but not the strict
        # i521 bounds
        fails = check_constraints(derive(0.8, 0.5, 2)).failed_ids()
        assert "base_b2_high" not in fails
        assert "i521_auxi3" in fails

    def test_exact_diagonal_point_fails_only_auxi3(self):
        # b2 = 1 - b1 with both representable exactly in binary
        assert check_constraints(derive(0.875, 0.125, 2)).failed_ids() == ["auxi3"]

    def test_zero_denominator_is_a_verdict(self):
        # auxi1's bound (2 + 2 b2) / (d + 4 b2) divides by zero at b2 = -d/4;
        # it compares as inf, so the point gets verdicts, not a ZeroDivisionError
        assert check_constraints(derive(0.8, -0.5, 2)).failed_ids() == ["base_b2_low", "auxi4"]
        assert "auxi1" not in check_constraints(derive(0.6, -0.75, 3)).failed_ids()

    def test_matrix_agrees_with_scalar_route(self):
        rng = np.random.default_rng(0)
        b1 = rng.uniform(0.4, 1.1, 200)
        b2 = rng.uniform(-0.1, 0.6, 200)
        for d in (2, 3):
            passes, ids = constraint_matrix(b1, b2, d)
            for j in range(len(b1)):
                rep = check_constraints(derive(b1[j], b2[j], d))
                scalar = {e.constraint_id: e.passed for e in rep.entries}
                for i, cid in enumerate(ids):
                    assert passes[i, j] == scalar[cid]


class TestTheta:
    def test_all_names_present(self):
        rep = theta_values(derive(0.8, 0.1, 2))
        assert set(rep.values) == set(THETA_NAMES)

    def test_frozen_values_at_reference_point(self):
        # independent evaluation of the formulas at (b1, b2, d) = (0.8, 0.1, 2)
        rep = theta_values(derive(0.8, 0.1, 2))
        b1, b2, d, b0 = 0.8, 0.1, 2, 0.8
        assert rep["theta_1"] == pytest.approx((1 - d * b1 / (2 * b1 + 1)) * (2.5 - b1))
        assert rep["theta_21"] == pytest.approx(
            (1 - b1 * (d + 4 * b2) / (2 + 2 * b2)) * (b2 + 1.5 - b1)
        )
        assert rep["theta_221"] == pytest.approx((1 - b1 * d / 2) * (1.5 - b1))
        assert rep["theta_222"] == pytest.approx((1 - d * b1 / 2) * (1 - (b1 - b2 - 0.5)))
        assert rep["theta_41"] == pytest.approx(
            (1 - b0 * (d + 2) / (4 * b1 + 1)) * (b1 + b2 + 0.5)
        )
        assert rep["theta_42"] == pytest.approx(
            (1 - (d + 2) * b1 / (4 * b1 + 1)) * (1.5 - 1e-6)
        )
        assert rep["theta_521"] == pytest.approx(
            2 * (1 - b0 * (2 * b2 + d / 2) / (2 * (b1 - b2))) * (b1 - b2)
            * (1 - (b1 - b2 - 0.5) / (b1 - b2))
        )
        assert rep.min_theta == min(rep.values.values())

    def test_duplicate_formula_groups(self):
        rep = theta_values(derive(0.77, 0.12, 2))
        assert rep["theta_23"] == rep["theta_21"]
        assert rep["theta_241"] == rep["theta_221"]
        assert rep["theta_242"] == rep["theta_222"]
        assert rep["theta_243"] == rep["theta_223"]

    def test_singular_at_equal_exponents(self):
        with pytest.raises(SingularityError):
            theta_values(derive(0.6, 0.6, 2))


class TestRegionScan:
    def test_resolution_guard(self):
        with pytest.raises(ConfigurationError):
            region_scan(2, 0.1)

    @pytest.mark.parametrize("d", [1, 4])
    def test_dimension_guard(self, d):
        with pytest.raises(ConfigurationError, match="d must be 2 or 3"):
            region_scan(d, 1e-2)

    @pytest.mark.parametrize("resolution, count", [(1e-6, r"2\.5e\+11"), (5e-324, "inf")])
    def test_too_fine_a_lattice_is_refused_before_any_array(self, resolution, count):
        # 1e-6 is 499,999 x 500,001 samples, past the cap; not even the
        # b1 axis (4 MB) is made
        tracemalloc.start()
        try:
            with pytest.raises(ConfigurationError, match=f"makes {count} samples; "
                               f"region_scan takes at most {MAX_REGION_SAMPLES:,}$"):
                region_scan(2, resolution)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_d2_box_contained(self):
        scan = region_scan(2, 5e-3)
        assert scan.reference_box_contained
        assert scan.witnesses == []

    def test_d3_box_not_contained_and_auxi4_blamed(self):
        scan = region_scan(3, 5e-3)
        assert not scan.reference_box_contained
        assert len(scan.witnesses) > 0
        assert all("auxi4" in w["violated"] for w in scan.witnesses)

    def test_d3_admits_no_sample(self):
        # auxi2 (b1 < 2/3) and i521_auxi3 (b2 < 1/12) give 4 b1 + 5 b2 < 37/12,
        # and auxi4 asks for 4 b1 + 5 b2 > 4
        assert not region_scan(3, 1e-2).admissible.any()

    def test_sample_count_matches_lattice(self):
        res = 5e-3
        scan = region_scan(2, res)
        n_b1 = len(np.arange(0.5 + res, 1.0, res))
        n_b2 = len(np.arange(0.0, 0.5 + 0.5 * res, res))
        assert len(scan.violated_codes) == n_b1 * n_b2

    def test_min_theta_builds_no_stack(self):
        # At 1e-3 (N = 250,000 samples) a (12, N) stack of the thetas took the
        # traced peak of the scan to 52.5 MiB, and the other whole-lattice
        # temporaries (constraint matrix, codes and their sort) to 39.4 MiB.
        # In blocks of b1 rows the scan holds its result, 2.7 MiB (11 B per
        # sample), and one block, so the peak above the result does not grow
        # with N.
        for d in (2, 3):
            for resolution in (1e-3, 5e-4):
                tracemalloc.start()
                try:
                    scan = region_scan(d, resolution)
                    held, peak = tracemalloc.get_traced_memory()
                finally:
                    tracemalloc.stop()
                if resolution == 1e-3:
                    assert peak <= 6 * 2**20, d
                assert peak - held <= 3 * 2**20, (d, resolution)
                del scan

    def test_reports_both_b1_ranges(self):
        scan = region_scan(2, 5e-3)
        lo, hi = REFERENCE_BOX[2]["b1"]
        # the pointwise range is wider than the uniform-in-b2 rectangle
        assert scan.pointwise_b1_range[1] > hi
        assert scan.uniform_b1_range[0] == pytest.approx(lo, abs=2e-2)
        assert scan.uniform_b1_range[1] == pytest.approx(hi, abs=2e-2)


class TestStrichartzExponents:
    def test_trivial_a_zero(self):
        out = strichartz_exponents(0.0, 0.0, 0.5, 1.0, 0.6, 2)
        assert out.feasible
        assert (out.q, out.r, out.theta) == (2.0, 2.0, 0.0)

    def test_reference_point(self):
        out = strichartz_exponents(0.6, 0.6, 1.0, 1.0, 0.6, 2)
        assert out.feasible
        assert out.q == pytest.approx(2.0)
        assert out.r == pytest.approx(2.0)
        assert out.theta == pytest.approx(0.6 * (1 - 0.1 / 0.6))

    def test_infeasible_names_first_violation(self):
        out = strichartz_exponents(1.0, 1.0, 0.0, 1.0, 0.6, 2)
        assert not out.feasible
        assert out.violated == "(1 - gamma) a <= b0"

    def test_gamma_a_exceeds_a_prime(self):
        out = strichartz_exponents(0.5, 0.1, 1.0, 1.0, 0.6, 2)
        assert not out.feasible
        assert out.violated == "gamma a <= a'"

    @pytest.mark.parametrize("d", [1, 4, 0])
    def test_dimension_validated(self, d):
        with pytest.raises(ConfigurationError, match="d must be 2 or 3"):
            strichartz_exponents(0.6, 0.6, 1.0, 1.0, 0.6, d)

    def test_r_finite_on_feasible_grid(self):
        # d/2 - d/r = (1 - eta)(1 - gamma) a / b0 < 1 <= d/2; eta = 1e-20 with
        # (1 - gamma) a = b0 is where 1 - eta rounds to 1
        feasible = 0
        for a, gamma, eta, b0, d in itertools.product(
                [0.0, 0.3, 0.6, 1.0], [0.0, 0.25, 0.5, 1.0], [1e-20, 1e-3, 0.5, 1.0],
                [0.51, 0.6, 1.0], [2, 3]):
            out = strichartz_exponents(a, a, gamma, eta, b0, d)
            if out.feasible:
                feasible += 1
                assert np.isfinite(out.r) and out.r >= 2.0, (a, gamma, eta, b0, d)
        assert feasible > 100
        # the endpoint the old formula sent to r = inf: there d/r = eta
        out = strichartz_exponents(0.6, 0.6, 0.0, 1e-20, 0.6, 2)
        assert out.r == pytest.approx(2e20, rel=1e-12)

    def test_wave_mode_forces_r_two(self):
        out = strichartz_exponents(0.4, 0.4, 0.5, 0.3, 0.6, 3, wave=True)
        assert out.feasible
        assert out.r == 2.0
        assert out.q == pytest.approx(2.0 / (1.0 - 0.5 * 0.4 / 0.6))


class TestInequalityFuzz:
    def test_direct_evaluations(self):
        # spot values of the five ratios at hand-picked points
        assert bracket(0.0) / (3 * bracket(0.0)) == pytest.approx(1.0 / 3.0)
        # lower-bound form: sqrt|tau| / (<xi><tau + |xi|^2>^(1/2)) at xi=0, tau=4
        assert 2.0 / (1.0 * np.sqrt(bracket(4.0))) == pytest.approx(0.9849, abs=1e-4)
        # quadratic form at xi = xi1 = (10,0), tau = tau1 = 0, plus branch
        xi = np.array([10.0, 0.0])
        num = bracket(xi[None]) ** 2
        den = bracket(0.0 + 10.0) + bracket(0.0) + bracket(0.0 + 100.0)
        assert num[0] / den == pytest.approx(101.0 / 111.06, abs=1e-3)

    def test_determinism(self):
        a = verify_symbolic_inequalities(500, seed=9, d=2)
        b = verify_symbolic_inequalities(500, seed=9, d=2)
        for ra, rb in zip(a, b):
            assert ra.max_ratio == rb.max_ratio
            assert ra.argmax == rb.argmax

    @pytest.mark.parametrize("n_samples, seed, message", [
        (10.0, 1, "n_samples must be an integer >= 1, got 10.0"),
        (0, 1, "n_samples must be >= 1"),
        (10, -1, "seed must be an integer >= 0, got -1"),
        (10, 1.5, "seed must be an integer >= 0, got 1.5"),
    ])
    def test_bad_counts_are_named(self, n_samples, seed, message):
        with pytest.raises(ConfigurationError) as err:
            verify_symbolic_inequalities(n_samples, seed, 2)
        assert str(err.value) == message

    def test_branch_bookkeeping(self):
        res = verify_symbolic_inequalities(100, seed=1, d=2)
        tags = {(r.inequality, r.branch) for r in res}
        assert ("ineq1", "+") in tags
        assert ("ineq1", "-") not in tags
        assert ("ineq2", "-") in tags
        assert ("ineq5", "-") not in tags
        assert {r.inequality for r in res} == set(INEQUALITY_IDS)

    def test_triangle_bound_holds_small_batch(self):
        res = verify_symbolic_inequalities(20000, seed=3, d=3)
        ineq1 = [r for r in res if r.inequality == "ineq1"][0]
        assert ineq1.max_ratio <= 1.0

    def test_sample_count_validated(self):
        with pytest.raises(ConfigurationError):
            verify_symbolic_inequalities(0, seed=1, d=2)

    @pytest.mark.parametrize("d", [1, 4])
    def test_dimension_validated(self, d):
        with pytest.raises(ConfigurationError, match="d must be 2 or 3"):
            verify_symbolic_inequalities(10, seed=1, d=d)


def _stated_norm(v):
    return np.sqrt(np.sum(np.asarray(v, dtype=np.float64) ** 2))


def _stated_ratio(ineq, s, a):
    """The ratio each inequality states, at one argmax point, from its
    formula: bounded side over bounding side."""
    xi = np.asarray(a["xi"], dtype=np.float64)
    if ineq == "ineq1":
        xi1, xi2 = np.asarray(a["xi1"]), np.asarray(a["xi2"])
        return bracket(xi) / (bracket(xi2) + bracket(xi1 - xi2) + bracket(xi - xi1))
    tau = a["tau"]
    if ineq == "ineq4":
        return np.sqrt(abs(tau)) / (
            bracket(xi) * np.sqrt(bracket(tau + s * _stated_norm(xi) ** 2)))
    xi1, tau1 = np.asarray(a["xi1"]), a["tau1"]
    rest = bracket(tau - tau1 + _stated_norm(xi - xi1) ** 2)
    if ineq == "ineq2":
        return bracket(xi) ** 2 / (
            bracket(tau1 + s * _stated_norm(xi1)) + rest + bracket(tau + _stated_norm(xi) ** 2))
    if ineq == "ineq3":
        return bracket(xi) ** 2 / (
            rest + bracket(tau1 - _stated_norm(xi1) ** 2) + bracket(tau + s * _stated_norm(xi)))
    assert ineq == "ineq5"
    return np.sqrt(abs(tau)) / (
        bracket(xi1) * bracket(xi - xi1) * np.sqrt(rest)
        * np.sqrt(bracket(tau1 - _stated_norm(xi1) ** 2)))


@pytest.mark.parametrize("n", [2, 3, 20000])
@pytest.mark.parametrize("d", [2, 3])
def test_max_ratio_is_the_stated_ratio_at_its_argmax(d, n):
    # Catches argmax rows taken from a different sample than the ratio, and
    # a batch of 2 or 3 tau values bracketed as one vector.
    results = verify_symbolic_inequalities(n, seed=31, d=d)
    assert len(results) == 8
    for r in results:
        s = 1.0 if r.branch == "+" else -1.0
        recomputed = float(_stated_ratio(r.inequality, s, r.argmax))
        assert recomputed == pytest.approx(r.max_ratio, rel=1e-12, abs=0.0), (
            r.inequality, r.branch, d)
    ineq2 = [r.argmax for r in results if r.inequality == "ineq2"]
    for a in ineq2:
        assert _stated_norm(a["xi"]) > 2.0 * _stated_norm(np.subtract(a["xi"], a["xi1"]))


@pytest.mark.parametrize("r", [10.0, 1e3])
@pytest.mark.parametrize("s", [1.0, -1.0])
@pytest.mark.parametrize("d", [2, 3])
def test_fuzz_formula_at_the_ineq3_resonance(d, s, r):
    # Gate 04b's witness family: tau = -s|xi|, tau1 = |xi1|^2 and xi1
    # parallel to xi with |xi1| = (|xi| - s)/2 make every right-hand bracket
    # 1, so the fuzzer's own formula must read (1 + |xi|^2)/3.
    e = np.arange(1.0, d + 1.0)
    e /= _stated_norm(e)
    xi, xi1 = r * e, 0.5 * (r - s) * e
    point = {"xi": xi[None], "xi1": xi1[None],
             "tau": np.array([-s * _stated_norm(xi)]), "tau1": np.array([_stated_norm(xi1) ** 2])}
    ratio = _ratio("ineq3", s, point)
    assert ratio.shape == (1,)
    assert ratio[0] == pytest.approx((1.0 + r**2) / 3.0, rel=1e-12, abs=0.0)


def test_unknown_inequality_is_named():
    with pytest.raises(ConfigurationError, match="unknown inequality 'ineq6'"):
        _ratio("ineq6", 1.0, {"xi": np.zeros((1, 2))})
