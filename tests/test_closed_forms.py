import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from condana.closed_forms import (
    LOG2E,
    TheoremBounds,
    ball_moments,
    cos_moments,
    entropy_term_expectation,
    epsilon_m,
    exact_mean_abs_weighted_sum,
    expected_log_uniform_sum,
    log_abs_integral,
    log_cos_ratio,
    normal_cdf,
    shifted_entropy_raw_sum,
    snc_wnc_exact,
    tail_log_ratio_integral,
    theorem1_bounds,
    theorem2_bounds,
    uniform_sum_cdf,
    uniform_sum_pdf_raw,
    uniform_sum_tail_quantile,
    wallis_integral,
)


class TestWallis:
    def test_seed_values(self):
        assert wallis_integral(0) == pytest.approx(math.pi / 2, rel=1e-15)
        assert wallis_integral(1) == 1.0
        assert wallis_integral(3) == pytest.approx(2.0 / 3.0, rel=1e-15)

    @given(m=st.integers(min_value=2, max_value=200))
    @settings(max_examples=60, deadline=None)
    def test_recurrence(self, m):
        lhs = wallis_integral(m)
        rhs = (m - 1) / m * wallis_integral(m - 2)
        assert lhs == pytest.approx(rhs, rel=1e-14)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            wallis_integral(-1)


class TestLogCosRatio:
    def test_seed_values(self):
        assert log_cos_ratio(0) == pytest.approx(-math.log(2), rel=1e-15)
        assert log_cos_ratio(1) == -1.0

    def test_one_step_vs_quadrature(self):
        num = quad(lambda t: math.sin(t) ** 2 * math.log(math.cos(t)),
                   0.0, math.pi / 2, epsabs=1e-13)[0]
        den = quad(lambda t: math.sin(t) ** 2, 0.0, math.pi / 2)[0]
        assert log_cos_ratio(2) == pytest.approx(-math.log(2) - 0.5, rel=1e-14)
        assert log_cos_ratio(2) == pytest.approx(num / den, abs=1e-10)

    @given(m=st.integers(min_value=2, max_value=300))
    @settings(max_examples=60, deadline=None)
    def test_recurrence(self, m):
        assert log_cos_ratio(m) == pytest.approx(log_cos_ratio(m - 2) - 1.0 / m, rel=1e-14)


class TestBallMoments:
    def test_small_dimensions(self):
        assert ball_moments(1) == pytest.approx((0.5, 1.0 / 3.0, -1.0))
        assert ball_moments(2) == pytest.approx((2.0 / 3.0, 0.5, -0.5))

    @given(m=st.integers(min_value=1, max_value=10**6))
    @settings(max_examples=60, deadline=None)
    def test_mean_square_below_mean(self, m):
        e_norm, e_norm_sq, e_log = ball_moments(m)
        assert 0.0 < e_norm_sq < e_norm < 1.0
        assert e_log < 0.0

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            ball_moments(0)


class TestCosMoments:
    def test_exact_small_dimensions(self):
        assert cos_moments(3) == pytest.approx((0.5, 1.0 / 3.0, -1.0), rel=1e-15)
        e_abs, e_sq, e_log = cos_moments(4)
        assert e_abs == pytest.approx(4.0 / (3.0 * math.pi), rel=1e-15)
        assert e_sq == 0.25
        assert e_log == pytest.approx(-0.5 - math.log(2), rel=1e-15)
        assert cos_moments(5) == pytest.approx((0.375, 0.2, -4.0 / 3.0), rel=1e-15)

    def test_monte_carlo_cross_check_m5(self):
        # spherical directions from an unrelated generator
        rng = np.random.default_rng(314159)
        g = rng.standard_normal(size=(1_000_000, 5))
        c = np.abs(g[:, 0]) / np.linalg.norm(g, axis=1)
        for sample, exact in [(c, 0.375), (c * c, 0.2), (np.log(c), -4.0 / 3.0)]:
            se = sample.std(ddof=1) / math.sqrt(sample.size)
            assert abs(sample.mean() - exact) < 3 * se

    def test_identity_with_sine_integral(self):
        for m in range(3, 201):
            direct = cos_moments(m)[0]
            via = 1.0 / ((m - 1) * wallis_integral(m - 2))
            assert direct == pytest.approx(via, rel=1e-13)

    def test_rejects_small_m(self):
        with pytest.raises(ValueError):
            cos_moments(2)


class TestExactRatio:
    def test_known_values(self):
        ratio1, gap1 = snc_wnc_exact(1)
        assert ratio1 == 0.5
        assert gap1 == pytest.approx(-LOG2E, rel=1e-15)
        ratio2, gap2 = snc_wnc_exact(2)
        assert ratio2 == pytest.approx(4.0 / (3.0 * math.pi), rel=1e-14)
        assert gap2 == pytest.approx((-0.5 - math.log(2)) * LOG2E, rel=1e-14)
        ratio3, gap3 = snc_wnc_exact(3)
        assert ratio3 == pytest.approx(0.375, rel=1e-14)
        assert gap3 == pytest.approx(-4.0 / 3.0 * LOG2E, rel=1e-14)

    def test_m1_direct_integrals(self):
        # product notation degenerates at m = 1; the direct integrals are
        # E|u| = 1/2 and E ln|u| = -1 for u uniform on [-1, 1]
        e_abs = quad(lambda u: abs(u) / 2.0, -1.0, 1.0)[0]
        e_log = 2.0 * quad(lambda u: math.log(u) / 2.0, 0.0, 1.0, points=[0.0])[0]
        ratio, gap = snc_wnc_exact(1)
        assert ratio == pytest.approx(e_abs, abs=1e-12)
        assert gap == pytest.approx(e_log * LOG2E, abs=1e-9)

    @given(m=st.integers(min_value=2, max_value=400))
    @settings(max_examples=60, deadline=None)
    def test_assembled_from_moments(self, m):
        # ratio = E||u|| E|cos t|; gap = (E ln||u|| + E ln|cos t|) log2 e
        e_norm, _, e_log_norm = ball_moments(m)
        e_cos = 1.0 / ((m - 1) * wallis_integral(m - 2))
        ratio, gap = snc_wnc_exact(m)
        assert ratio == pytest.approx(e_norm * e_cos, rel=1e-13)
        assert gap == pytest.approx((e_log_norm + log_cos_ratio(m - 2)) * LOG2E, rel=1e-13)


class TestTheoremBounds:
    def test_norm_wise_values(self):
        b = theorem1_bounds(4, 2)
        assert b.ratio_lo == pytest.approx(1.0 / (2.0 * math.e), rel=1e-15)
        assert b.ratio_hi == pytest.approx(math.sqrt(2.0 / 6.0), rel=1e-15)

    def test_exact_ratio_sits_inside_m1(self):
        b = theorem1_bounds(1, 1)
        assert b.ratio_hi == pytest.approx(math.sqrt(1.0 / 3.0), rel=1e-15)
        ratio, _ = snc_wnc_exact(1)
        assert b.ratio_lo < ratio < b.ratio_hi

    @given(m=st.integers(min_value=1, max_value=1000),
           n=st.integers(min_value=1, max_value=1000))
    @settings(max_examples=80, deadline=None)
    def test_lower_below_upper(self, m, n):
        b = theorem1_bounds(m, n)
        assert b.ratio_lo < b.ratio_hi
        assert b.gap_lo < b.gap_hi

    @given(m=st.integers(min_value=2, max_value=10_000))
    @settings(max_examples=80, deadline=None)
    def test_componentwise_lower_below_upper(self, m):
        b = theorem2_bounds(m)
        assert b.ratio_lo < b.ratio_hi
        assert b.gap_lo < b.gap_hi

    def test_one_four_field_type(self):
        assert [f.name for f in fields(TheoremBounds)] == [
            "ratio_lo", "ratio_hi", "gap_lo", "gap_hi"]

    def test_componentwise_values(self):
        b = theorem2_bounds(2)
        assert epsilon_m(2) == pytest.approx(2.0 + 2.0 * math.log(2), rel=1e-15)
        assert b.ratio_hi == 0.5
        assert b.gap_hi == -1.0
        assert b.ratio_lo == pytest.approx(
            math.exp(-(3.0 + 2.0 * math.log(2))) / math.sqrt(3.0), rel=1e-14)

    def test_componentwise_rejects_m1(self):
        with pytest.raises(ValueError):
            theorem2_bounds(1)
        with pytest.raises(ValueError):
            epsilon_m(1)

    def test_epsilon_decreases_beyond_eight(self):
        m = np.arange(8, 1_000_001, dtype=float)
        eps = (2.0 + 2.0 * np.log(m)) / np.sqrt(m - 1.0)
        assert np.all(np.diff(eps) < 0.0)
        assert eps[-1] < 0.035


class TestUniformSumCdf:
    @given(m=st.integers(min_value=1, max_value=30))
    @settings(max_examples=30, deadline=None)
    def test_symmetry_and_support(self, m):
        assert uniform_sum_cdf(m, 0.0) == pytest.approx(0.5, abs=1e-12)
        assert uniform_sum_cdf(m, math.sqrt(3.0 * m)) == 1.0
        assert uniform_sum_cdf(m, -math.sqrt(3.0 * m)) == 0.0

    def test_triangular_value(self):
        # P(u1 + u2 <= 1) = 7/8; the raw value 1 standardizes to sqrt(3/2)
        assert uniform_sum_cdf(2, math.sqrt(1.5)) == pytest.approx(0.875, rel=1e-13)

    def test_against_scipy_irwin_hall(self):
        stats_mod = pytest.importorskip("scipy.stats")
        irwinhall = getattr(stats_mod, "irwinhall", None)
        if irwinhall is None:
            pytest.skip("scipy too old for the irwinhall oracle")
        for m in (3, 7, 15, 30):
            dist = irwinhall(m)
            for t in np.linspace(-math.sqrt(3 * m), math.sqrt(3 * m), 23):
                y = (t * math.sqrt(m / 3.0) + m) / 2.0
                assert uniform_sum_cdf(m, t) == pytest.approx(dist.cdf(y), abs=1e-9)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            uniform_sum_cdf(0, 0.0)
        with pytest.raises(ValueError):
            uniform_sum_cdf(31, 0.0)

    def test_tail_quantile_round_trip(self):
        for m, p in [(2, 0.25), (5, 0.01), (12, 0.5)]:
            b = uniform_sum_tail_quantile(m, p)
            back = 2.0 * (1.0 - uniform_sum_cdf(m, b / math.sqrt(m / 3.0)))
            assert back == pytest.approx(p, abs=1e-10)

    def test_pdf_matches_difference_quotient(self):
        for m in (2, 5, 11):
            h = 1e-6
            for s in (-1.3, 0.4, 2.2):
                scale = math.sqrt(m / 3.0)
                num = (uniform_sum_cdf(m, (s + h) / scale) -
                       uniform_sum_cdf(m, (s - h) / scale)) / (2 * h)
                assert uniform_sum_pdf_raw(m, s) == pytest.approx(num, rel=1e-6, abs=1e-9)


class TestLogAbsIntegral:
    def test_paper_values(self):
        assert log_abs_integral(0.0) == pytest.approx(-2.0, rel=1e-15)
        assert log_abs_integral(1.0) == pytest.approx(2.0 * math.log(2) - 2.0, rel=1e-14)
        assert log_abs_integral(5.0) == pytest.approx(
            6.0 * math.log(6) - 4.0 * math.log(4) - 2.0, rel=1e-14)

    @given(a=st.floats(min_value=-20, max_value=20,
                       allow_nan=False, allow_infinity=False))
    @settings(max_examples=40, deadline=None)
    def test_against_quadrature(self, a):
        # split exactly at the interior singularity and budget the check by
        # quad's own error estimate; the closed form is the accurate side
        edges = sorted({-1.0, 1.0} | ({-a} if -1.0 < -a < 1.0 else set()))
        total, err = 0.0, 0.0
        for lo, hi in zip(edges, edges[1:]):
            v, e = quad(lambda u: math.log(abs(a + u)), lo, hi, limit=200)
            total += v
            err += e
        assert log_abs_integral(a) == pytest.approx(total, abs=max(1e-9, 10 * err))


class TestLogUniformSum:
    def test_single_term_exact(self):
        assert expected_log_uniform_sum(1) == -1.0

    def test_two_terms_triangular(self):
        assert expected_log_uniform_sum(2) == pytest.approx(math.log(2) - 1.5, abs=1e-9)

    def test_three_terms_frozen_quadrature(self):
        # independent piecewise-density quadrature value
        assert expected_log_uniform_sum(3) == pytest.approx(-0.5973945085817102, abs=1e-8)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            expected_log_uniform_sum(0)
        with pytest.raises(ValueError):
            expected_log_uniform_sum(17)

    @pytest.mark.parametrize("n_terms", range(3, 17))
    def test_above_componentwise_lower_bound(self, n_terms):
        m = n_terms - 1
        bound = 0.5 * math.log(m) - 0.5 * math.log(3.0) - 1.0 - epsilon_m(n_terms)
        assert expected_log_uniform_sum(n_terms) > bound

    @pytest.mark.parametrize("m", [0, 1, 2, 3])
    def test_shift_by_one_identity(self, m):
        lhs = expected_log_uniform_sum(m + 1)
        rhs = shifted_entropy_raw_sum(m, 1.0) - 1.0
        assert lhs == pytest.approx(rhs, abs=1e-6)

    def test_zero_terms_entropy_is_exact(self):
        assert shifted_entropy_raw_sum(0, 1.0) == 0.0


class TestEntropyTerm:
    def test_uniform_case_closed_form(self):
        # m = 1, delta = sqrt(3): integrand is t ln t on [0, 2 sqrt(3)]
        d = math.sqrt(3.0)
        closed = (6.0 * math.log(2.0 * math.sqrt(3.0)) - 3.0) / (2.0 * math.sqrt(3.0))
        assert entropy_term_expectation(1, d) == pytest.approx(closed, abs=1e-9)

    def test_small_delta_limit_is_odd_integral(self):
        # E[W ln|W|] = 0 by symmetry, so the value vanishes with delta
        assert abs(entropy_term_expectation(2, 1e-4)) < 1e-3

    def test_lower_bound_holds(self):
        for m, delta in [(1, 0.5), (2, 1.0), (4, 2.0), (16, 0.25)]:
            lhs = entropy_term_expectation(m, delta)
            rhs = (-2.0 * delta / math.sqrt(m)) * (
                math.log(1.0 + math.sqrt(3.0 * m) / delta) + 1.0)
            assert lhs > rhs

    def test_domain(self):
        with pytest.raises(ValueError):
            entropy_term_expectation(2, 0.0)
        with pytest.raises(ValueError):
            entropy_term_expectation(2, math.sqrt(6.0) + 0.1)
        with pytest.raises(ValueError):
            entropy_term_expectation(17, 1.0)


class TestTailLogIntegral:
    def test_frozen_values(self):
        assert tail_log_ratio_integral(0.5, 2.0) == pytest.approx(
            0.19898675463348486, abs=1e-9)
        assert tail_log_ratio_integral(2.0, 1.5) == pytest.approx(
            1.5972587311461104, abs=1e-9)

    def test_positive_on_grid(self):
        for delta in (0.1, 0.5, 1.0, 2.0):
            for b in (1.5, 3.0, 6.0):
                assert tail_log_ratio_integral(delta, b) > 0.0

    def test_domain(self):
        with pytest.raises(ValueError):
            tail_log_ratio_integral(0.0, 2.0)
        with pytest.raises(ValueError):
            tail_log_ratio_integral(0.5, 1.0)


class TestExactMeanAbsWeightedSum:
    def test_hand_values(self):
        assert exact_mean_abs_weighted_sum([1.0, 1.0]) == pytest.approx(2.0 / 3.0, rel=1e-12)
        assert exact_mean_abs_weighted_sum([3.0]) == pytest.approx(1.5, rel=1e-14)
        assert exact_mean_abs_weighted_sum([0.0, -2.0, 0.0]) == pytest.approx(1.0, rel=1e-14)
        assert exact_mean_abs_weighted_sum([]) == 0.0
        assert exact_mean_abs_weighted_sum([0.0, 0.0]) == 0.0

    def test_against_monte_carlo(self):
        rng = np.random.default_rng(2718)
        for _ in range(6):
            w = rng.uniform(-2.0, 2.0, size=3)
            u = rng.uniform(-1.0, 1.0, size=(400_000, 3))
            sample = np.abs(u @ w)
            se = sample.std(ddof=1) / math.sqrt(sample.size)
            assert exact_mean_abs_weighted_sum(w) == pytest.approx(
                sample.mean(), abs=4 * se)

    def test_scaling_property(self):
        base = exact_mean_abs_weighted_sum([0.3, 1.1, 0.7])
        assert exact_mean_abs_weighted_sum([0.6, 2.2, 1.4]) == pytest.approx(
            2.0 * base, rel=1e-12)

    @pytest.mark.parametrize("scale", [1e100, 1e-100, 2.0**300, 2.0**-300])
    def test_far_from_unit_scale(self, scale):
        # homogeneous of degree 1; unscaled, the products of the widths
        # overflow or underflow at these scales
        for w in ([0.7], [0.4, -1.3], [0.3, 1.1, -0.7]):
            assert exact_mean_abs_weighted_sum([scale * v for v in w]) == pytest.approx(
                scale * exact_mean_abs_weighted_sum(w), rel=1e-12, abs=0.0)

    def test_too_many_weights(self):
        with pytest.raises(ValueError):
            exact_mean_abs_weighted_sum([1.0, 2.0, 3.0, 4.0])

    @pytest.mark.parametrize("eps", [1e-6, 1e-8, 1e-10, 1e-200])
    def test_two_small_weights(self, eps):
        # b + c < a: E|u_1 + eps u_2 + eps u_3| = 1/2 + eps^2/3 exactly
        assert exact_mean_abs_weighted_sum([1.0, eps, eps]) == pytest.approx(
            0.5 + eps * eps / 3.0, rel=1e-15)

    def test_three_equal_weights(self):
        assert exact_mean_abs_weighted_sum([1.0, 1.0, 1.0]) == pytest.approx(
            13.0 / 16.0, rel=1e-15)

    def test_against_inclusion_exclusion(self):
        # reference: inclusion-exclusion over the piecewise-polynomial
        # density, well conditioned when the weights are of one scale
        rng = np.random.default_rng(31)
        for _ in range(200):
            w = rng.uniform(0.05, 1.0, size=3) * rng.choice([-1.0, 1.0], size=3)
            assert exact_mean_abs_weighted_sum(w) == pytest.approx(
                inclusion_exclusion_mean_abs(w), rel=1e-11)


def inclusion_exclusion_mean_abs(weights) -> float:
    """E|sum w_i u_i| as a signed sum of closed-form integrals of |s| times
    the polynomial pieces of the box-sum density."""
    a = [abs(float(w)) for w in weights if w != 0.0]
    k = len(a)
    total = sum(a)
    acc = 0.0
    for mask in range(1 << k):
        c = 2.0 * sum(ai for i, ai in enumerate(a) if mask >> i & 1) - total
        if c >= total:
            continue
        # integral of |s| (s - c)^p over s in [c, total]
        p = k - 1
        if c >= 0.0:
            piece = (total - c) ** (p + 2) / (p + 2) + c * (total - c) ** (p + 1) / (p + 1)
        else:
            below = (-c) ** (p + 2) / (p + 1) - (-c) ** (p + 2) / (p + 2)
            above = ((total - c) ** (p + 2) - (-c) ** (p + 2)) / (p + 2)
            above += c * ((total - c) ** (p + 1) - (-c) ** (p + 1)) / (p + 1)
            piece = below + above
        acc += (-1.0) ** bin(mask).count("1") * piece
    return acc / (math.factorial(k - 1) * math.prod(2.0 * ai for ai in a))


class TestNormalCdf:
    def test_reference_points(self):
        assert normal_cdf(0.0) == pytest.approx(0.5, abs=1e-15)
        assert float(normal_cdf(math.sqrt(3.0))) == pytest.approx(
            0.9583677416682248, abs=1e-12)
        assert float(normal_cdf(-8.0)) == pytest.approx(6.22096057427178e-16, rel=1e-6)
