"""Exponent tables, admissibility ranges and auxiliary exponents."""

import math
from fractions import Fraction

import numpy as np
import pytest

from splf import exponents as ex
from splf import spectral as sp

from test_spectral import random_field


class TestCriticalExponents:
    def test_low_dimension_table(self):
        assert ex.critical_exponents(2).p1 == Fraction(3, 2)
        assert ex.critical_exponents(3).p1 == Fraction(9, 5)
        assert ex.critical_exponents(4).p1 == Fraction(2)
        assert ex.critical_exponents(5).p1 == Fraction(11, 5)

    def test_dimension_nine(self):
        c = ex.critical_exponents(9)
        assert round(float(c.p1), 3) == 2.556  # 23/9 = 2.5555...
        assert abs(float(c.p1) - 2.555555555) < 1e-3
        assert c.p2 == Fraction(18, 7)
        assert abs(float(c.p2) - 2.5714) < 1e-3
        assert abs(c.p3 - 2.620) < 1e-3

    def test_d2_upper_exponent_infinite(self):
        assert ex.critical_exponents(2).p2 == math.inf

    def test_p3_d2_exactly_two(self):
        assert ex.critical_exponents(2).p3 == 2.0

    def test_ordering_low_dimensions(self):
        for d in range(2, 9):
            c = ex.critical_exponents(d)
            assert c.p1 < c.p3 < c.p2

    def test_ordering_high_dimensions(self):
        for d in range(10, 40):
            c = ex.critical_exponents(d)
            assert c.p2 < c.p1

    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError):
            ex.critical_exponents(1)


class TestAdmissibility:
    def test_examples(self):
        assert ex.admissible_existence(2.0, 3) is True      # 2 > 9/5
        assert ex.admissible_existence(2.58, 9) is False    # in the d=9 gap
        assert ex.admissible_existence(1.4, 2) is False     # below 3/2

    def test_gap_boundaries_d9(self):
        c = ex.critical_exponents(9)
        assert ex.admissible_existence(float(c.p1) + 1e-6, 9)
        assert not ex.admissible_existence(float(c.p2) + 1e-6, 9)
        assert ex.admissible_existence(c.p3 + 1e-6, 9)

    def test_unified_matches_piecewise_everywhere(self):
        # the single formula (p1, p2) union (p3, inf) equals the piecewise
        # form in every dimension because of how the critical exponents order
        for d in range(2, 65):
            c = ex.critical_exponents(d)
            for p in np.linspace(1.01, 8.0, 173):
                unified = (c.p1 < p < c.p2) or p > c.p3
                assert ex.admissible_existence(p, d) == unified, (p, d)

    def test_rejects_p_at_most_one(self):
        with pytest.raises(ValueError):
            ex.admissible_existence(1.0, 3)


class TestWeakSpaceExponent:
    def test_saturated_branch(self):
        # d=3, p=3 >= 4d/(d+2) = 2.4
        assert ex.weak_space_exponent(3.0, 3) == 1.0

    def test_low_p_branch(self):
        # d=3, p=2: 1 + (1 - 1/2)*3 - 1 = 3/2
        assert ex.weak_space_exponent(2.0, 3) == 1.5

    def test_continuous_at_branch_point(self):
        for d, alpha in [(2, 1.0), (3, 0.5), (4, 1.0)]:
            pc = 4 * d / (d + 2 * alpha)
            below = ex.weak_space_exponent(pc * (1 - 1e-12), d, alpha)
            at = ex.weak_space_exponent(pc, d, alpha)
            assert at == 1.0
            assert abs(below - 1.0) < 1e-9

    def test_first_branch_exceeds_one(self):
        for d in (2, 3, 5):
            for alpha in (0.5, 1.0):
                lo = 2 * d / (d + 2 * alpha)
                hi = 4 * d / (d + 2 * alpha)
                for p in np.linspace(lo * 1.01, hi * 0.99, 23):
                    assert ex.weak_space_exponent(p, d, alpha) > 1.0

    def test_domain_error(self):
        with pytest.raises(ValueError):
            ex.weak_space_exponent(1.0, 3)  # below 2d/(d+2) = 1.2
        with pytest.raises(ValueError):
            ex.weak_space_exponent(2.0, 3, alpha=1.5)  # alpha out of range

    def test_endpoint_triple_flagged_but_computed(self):
        assert ex.weak_space_exponent_flagged(2, 2)
        assert ex.weak_space_exponent(2.0, 2) == 1.0
        assert not ex.weak_space_exponent_flagged(2.5, 2)


class TestRegularityWeight:
    def test_two_dimensional_always_zero(self):
        for p in (1.1, 2.0, 2.9, 5.0):
            assert ex.regularity_weight(p, 2) == 0.0

    def test_vanishes_for_large_p(self):
        for d in (3, 4, 6):
            for p in (3.0, 3.5, 7.0):
                assert ex.regularity_weight(p, d) == 0.0

    def test_hand_value(self):
        # d=3, p=2.5: 2 * 0.5 / (7.5 - 9 + 4) = 0.4
        assert abs(ex.regularity_weight(2.5, 3) - 0.4) < 1e-15

    def test_continuous_in_p(self):
        # away from the pole at p = (3d-4)/d the weight varies smoothly,
        # and the positive-part kink at p = 3 joins continuously to zero
        d = 3
        ps = np.linspace(2.0, 4.0, 400)
        vals = [ex.regularity_weight(p, d) for p in ps]
        diffs = np.abs(np.diff(vals))
        assert diffs.max() < 0.05
        assert abs(ex.regularity_weight(3.0 - 1e-12, d)) < 1e-11
        assert ex.regularity_weight(3.0, d) == 0.0

    def test_domain_error(self):
        with pytest.raises(ValueError):
            ex.regularity_weight(1.2, 3)  # p <= (3d-4)/d = 5/3


class TestSmallExponents:
    def test_moment_exponent(self):
        assert ex.moment_exponent(2.0) == 0.5
        assert abs(ex.moment_exponent(3.0) - 0.6) < 1e-15

    def test_interpolation_endpoint(self):
        assert ex.interpolation_exponent(2.0, 3) == 1.0

    def test_interpolation_range_and_monotone(self):
        for d in (2, 3, 4):
            qmax = 2 * d / (d - 2) if d > 2 else 12.0
            qs = np.linspace(2.0 + 1e-9, qmax, 50)
            th = [ex.interpolation_exponent(q, d) for q in qs]
            assert all(-1e-12 <= t <= 1.0 + 1e-12 for t in th)
            assert all(a >= b - 1e-12 for a, b in zip(th, th[1:]))

    def test_interpolation_domain(self):
        with pytest.raises(ValueError):
            ex.interpolation_exponent(2.0, 2)   # needs q > 2 in d = 2
        with pytest.raises(ValueError):
            ex.interpolation_exponent(7.0, 3)   # above 2d/(d-2) = 6

    def test_uniqueness_threshold(self):
        assert ex.uniqueness_threshold(2) == 2
        assert ex.uniqueness_threshold(3) == Fraction(5, 2)

    def test_gronwall_exponent(self):
        assert ex.gronwall_exponent(2.0, 2) == 2.0
        assert abs(ex.gronwall_exponent(3.0, 2) - 1.5) < 1e-15


class TestInterpolationHomogeneity:
    @pytest.mark.parametrize("q,d", [(4.0, 2), (3.0, 3)])
    def test_ratio_invariant_under_scaling(self, q, d):
        # ||v||_q / (||v||_2^theta ||grad v||_2^(1-theta)) has degree zero
        theta = ex.interpolation_exponent(q, d)
        f = random_field(3, d=d, n=2)

        def ratio(g):
            num = sp.sobolev_norm(g, q, 0.0)
            den = (sp.sobolev_norm(g, 2, 0.0) ** theta *
                   sp.gradient_lp_norm(g, 2) ** (1.0 - theta))
            return num / den

        r1 = ratio(f)
        r2 = ratio(17.3 * f)
        assert abs(r1 - r2) < 1e-10 * r1


class TestReport:
    def test_report_fields(self):
        r = ex.exponent_report(3, 2.0)
        assert r.admissible_existence is True
        assert r.uniqueness_ok is False  # threshold 5/2
        assert r.beta_p1 == 1.5
        assert r.delta == 0.5

    def test_report_total_despite_undefined_entries(self):
        r = ex.exponent_report(5, 1.05)  # below the regularity-weight domain
        assert math.isnan(r.lam)
        assert "lambda-undefined" in r.flags

    def test_csv_row_shape(self):
        r = ex.exponent_report(2, 3.0)
        assert len(r.as_row()) == len(r.HEADER)


@pytest.mark.parametrize("p", [math.nan, math.inf, 1.0])
@pytest.mark.parametrize("fn", [ex.regularity_weight, ex.weak_space_exponent,
                                ex.gronwall_exponent])
def test_p_must_be_finite_and_exceed_one(fn, p):
    # without the check, p = inf gave a number (0.0, 1.0 and nan) and
    # regularity_weight(nan, 3) gave nan
    with pytest.raises(ValueError, match=f"^p: must be finite and exceed 1, got {p}$"):
        fn(p, 3)
