"""Closed-form moments, ratios, and bound formulas, plus the numerical
oracles used to verify them.

Every function here is pure. Product and series formulas are evaluated
as running products/sums of ratios, never through factorials, so they
stay finite for dimensions up to about 10^6. Quantities tied to sums of
uniform variables use the exact piecewise-polynomial distribution, taken
on whole arrays of points with compensated sums. It is well conditioned
only for modest term counts; the caps are enforced and larger cases
belong to Monte Carlo. The oracles integrate with one fixed tanh-sinh
rule in numpy and find quantiles by bisection, with no adaptive solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

LOG2E = math.log2(math.e)

#: Exact piecewise-polynomial CDF stays well conditioned up to this many terms.
UNIFORM_SUM_CDF_MAX_TERMS = 30
#: Log-moment quadrature against the exact density is capped here.
UNIFORM_SUM_DENSITY_MAX_TERMS = 16


def xlogabs(t):
    """t * ln|t| with the limit value 0 at t = 0, for a float or an array."""
    t = np.asarray(t, dtype=float)
    return (t * np.log(np.abs(np.where(t == 0.0, 1.0, t))))[()]


def normal_cdf(x):
    """Standard normal CDF via the complementary error function.

    erfc-based evaluation keeps the absolute error near machine level,
    far below the 1/sqrt(m) tolerances it is compared against.
    """
    return ndtr(x)


def wallis_integral(m: int) -> float:
    """Integral of sin^m over (0, pi/2).

    Evaluated by the downward recurrence value_m = ((m-1)/m) * value_{m-2}
    seeded with the m = 0 and m = 1 integrals, as a running product.
    """
    if m < 0:
        raise ValueError("m must be non-negative")
    if m % 2 == 0:
        val, start = math.pi / 2.0, 2
    else:
        val, start = 1.0, 3
    for k in range(start, m + 1, 2):
        val *= (k - 1) / k
    return val


def log_cos_ratio(m: int) -> float:
    """Ratio of the ln|cos|-weighted sin^m integral to the plain one on (0, pi/2).

    The ratio obeys r_m = r_{m-2} - 1/m with seeds r_0 = -ln 2 and r_1 = -1,
    so it is a harmonic-type partial sum.
    """
    if m < 0:
        raise ValueError("m must be non-negative")
    if m % 2 == 0:
        val, start = -math.log(2.0), 2
    else:
        val, start = -1.0, 3
    for k in range(start, m + 1, 2):
        val -= 1.0 / k
    return val


def ball_moments(m: int) -> tuple[float, float, float]:
    """(E||u||, E||u||^2, E ln||u||) for u uniform in the unit m-ball.

    The radial law has CDF r^m, giving m/(m+1), m/(m+2) and -1/m.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    return m / (m + 1.0), m / (m + 2.0), -1.0 / m


def cos_moments(m: int) -> tuple[float, float, float]:
    """(E|cos t|, E cos^2 t, E ln|cos t|) for the angle t between a fixed
    vector and an isotropic direction in R^m.

    Defined for m >= 3; the first moment is a running product of
    consecutive-integer ratios (times 2/pi for even m), the second is
    exactly 1/m, and the log moment reuses :func:`log_cos_ratio`.
    """
    if m < 3:
        raise ValueError("cosine moments require m >= 3")
    e_abs = 1.0
    for k in range(m - 2, 0, -2):
        e_abs *= k / (k + 1.0)
    if m % 2 == 0:
        e_abs *= 2.0 / math.pi
    return e_abs, 1.0 / m, log_cos_ratio(m - 2)


def snc_wnc_exact(m: int) -> tuple[float, float]:
    """Exact (mean-to-max amplification ratio, bit gap) for one-output problems.

    ratio: running product of k/(k+1) over k = m, m-2, ..., with a 2/pi
    factor for even m. gap (in bits): the matching harmonic-type series
    -1/m - 1/(m-2) - ... terminated at -1 (odd m) or -1/2 - ln 2 (even m),
    scaled by log2(e). At m = 1 both reduce to the direct 1-D integrals
    E|u| = 1/2 and E ln|u| = -1.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    ratio = 1.0
    for k in range(m, 0, -2):
        ratio *= k / (k + 1.0)
    if m % 2 == 0:
        ratio *= 2.0 / math.pi
    gap_ln = -math.log(2.0) if m % 2 == 0 else -1.0
    stop = 1 if m % 2 == 0 else 2
    for k in range(m, stop, -2):
        gap_ln -= 1.0 / k
    return ratio, gap_ln * LOG2E


def epsilon_m(m: int) -> float:
    """(2 + 2 ln m) / sqrt(m - 1), the vanishing slack of the componentwise
    lower bounds. Defined only for m > 1; m = 1 has exact results instead."""
    if m <= 1:
        raise ValueError("epsilon_m requires m > 1; use the exact m = 1 results")
    return (2.0 + 2.0 * math.log(m)) / math.sqrt(m - 1.0)


@dataclass(frozen=True, slots=True)
class TheoremBounds:
    """Two-sided bounds on the ratio of a stochastic condition number to its
    worst-case one and on the bit gap between their losses of precision:
    SNC/WNC and SNLP - log2 WNC for Theorem 1, SCC_j/WCC_j and
    SCLP_j - log2 WCC_j for Theorem 2."""

    ratio_lo: float
    ratio_hi: float
    gap_lo: float
    gap_hi: float


def theorem1_bounds(m: int, n: int) -> TheoremBounds:
    """Norm-wise bounds: ratio in [1/(e sqrt(m)), sqrt(k/(m+2))] and bit gap
    in [-(log2 m)/2 - log2 e, (log2 k - log2(m+2))/2], k = min(m, n)."""
    if m < 1 or n < 1:
        raise ValueError("dimensions must be >= 1")
    k = min(m, n)
    return TheoremBounds(
        ratio_lo=1.0 / (math.e * math.sqrt(m)),
        ratio_hi=math.sqrt(k / (m + 2.0)),
        gap_lo=-0.5 * math.log2(m) - LOG2E,
        gap_hi=0.5 * (math.log2(k) - math.log2(m + 2.0)),
    )


def theorem2_bounds(m: int) -> TheoremBounds:
    """Componentwise bounds for m > 1: ratio in (e^{-(1+eps)}/sqrt(3(m-1)), 1/2]
    and bit gap in (-(log2(m-1))/2 - (log2 3)/2 - (1+eps) log2 e, -1],
    eps = ``epsilon_m(m)``."""
    if m <= 1:
        raise ValueError("componentwise bounds require m > 1; m = 1 is exact")
    eps = epsilon_m(m)
    return TheoremBounds(
        ratio_lo=math.exp(-(1.0 + eps)) / math.sqrt(3.0 * (m - 1.0)),
        ratio_hi=0.5,
        gap_lo=-0.5 * math.log2(m - 1.0) - 0.5 * math.log2(3.0) - (1.0 + eps) * LOG2E,
        gap_hi=-1.0,
    )


def _alternating_piecewise_sum(m: int, y: np.ndarray, power: int) -> np.ndarray:
    """Sum of (-1)^k C(m,k) (y-k)^power / power! over k <= floor(y), for each
    entry of ``y`` in [0, m/2], with Neumaier's compensation across the
    alternating terms. A point is taken as a 1-element array, because numpy
    raises arrays and scalars to a power by different routines."""
    shape, y = np.shape(y), np.atleast_1d(y)
    coef = 1.0 / math.factorial(power)
    total, comp = np.zeros_like(y), np.zeros_like(y)
    for k in range(int(y.max(initial=0.0)) + 1):
        term = np.where(y >= k, coef * (y - k) ** power, 0.0)
        step = total + term
        comp += np.where(np.abs(total) >= np.abs(term), (total - step) + term,
                         (term - step) + total)
        total = step
        coef *= -(m - k) / (k + 1.0)
    return (total + comp).reshape(shape)


def uniform_sum_cdf(m: int, t):
    """Exact P((u_1 + ... + u_m)/sqrt(m/3) <= t) for u_i iid uniform on [-1, 1],
    for a float or an array of points t.

    Piecewise-polynomial evaluation with compensated summation, mirrored
    through the distribution's symmetry so the alternating sum is always
    taken on the short side; capped at m <= 30 where that evaluation
    keeps roughly ten significant digits.
    """
    if not 1 <= m <= UNIFORM_SUM_CDF_MAX_TERMS:
        raise ValueError(f"exact CDF supported for 1 <= m <= {UNIFORM_SUM_CDF_MAX_TERMS}")
    t = np.asarray(t, dtype=float)
    edge = math.sqrt(3.0 * m)
    # shift/scale to a sum of m U(0,1), exactly 0 and m beyond the edges
    y = np.where(t <= -edge, 0.0, np.where(t >= edge, m, (t * math.sqrt(m / 3.0) + m) / 2.0))
    cdf = _alternating_piecewise_sum(m, np.minimum(y, m - y), m)
    return np.clip(np.where(y > 0.5 * m, 1.0 - cdf, cdf), 0.0, 1.0)[()]


def uniform_sum_tail_quantile(m: int, prob: float) -> float:
    """Raw threshold b with P(|u_1 + ... + u_m| > b) = prob, by bisection on
    the exact CDF to a bracket of 1e-13 in the standardized variable: each
    step keeps the first of 64 cuts whose tail is at most prob."""
    if not 0.0 < prob < 1.0:
        raise ValueError("prob must lie in (0, 1)")
    lo, hi = 0.0, math.sqrt(3.0 * m)
    while hi - lo > 1e-13:
        grid = np.linspace(lo, hi, 65)
        i = max(int(np.argmin(2.0 * (1.0 - uniform_sum_cdf(m, grid)) > prob)), 1)
        lo, hi = float(grid[i - 1]), float(grid[i])
    return 0.5 * (lo + hi) * math.sqrt(m / 3.0)


def uniform_sum_pdf_raw(m: int, s):
    """Exact density of the raw sum of m iid uniforms on [-1, 1], at a float
    or an array of points s."""
    if not 1 <= m <= UNIFORM_SUM_DENSITY_MAX_TERMS:
        raise ValueError(f"exact density supported for 1 <= m <= {UNIFORM_SUM_DENSITY_MAX_TERMS}")
    y = (np.asarray(s, dtype=float) + m) / 2.0
    y = np.minimum(y, m - y)  # symmetric about the midpoint; keep the sum short
    pdf = _alternating_piecewise_sum(m, y, m - 1)
    return np.where(y > 0.0, np.maximum(pdf, 0.0) / 2.0, 0.0)[()]


# tanh-sinh nodes x = tanh(u), u = pi/2 sinh t, at t = k/32, |t| <= 3.5
# (Takahasi & Mori 1974), kept as their distance 1 - |x| = 2/(1 + exp(2|u|))
# to the nearer end of (-1, 1), free of cancellation, and weights dx/dt / 32.
_TS_T = np.arange(-112, 113) / 32.0
_TS_U = 0.5 * np.pi * np.sinh(_TS_T)
_TS_GAP = 2.0 / (1.0 + np.exp(2.0 * np.abs(_TS_U)))
_TS_WEIGHT = 0.5 * np.pi * np.cosh(_TS_T) / np.cosh(_TS_U) ** 2 / 32.0


def _tanh_sinh(f, *edges: float) -> float:
    """Integral of f from the first of ``edges`` to the last, by the fixed
    tanh-sinh rule on each piece between consecutive edges: exact to
    rounding where f is analytic inside each piece, integrable log
    singularities at its ends included. ``f`` maps an array of nodes, one
    row per piece and each strictly inside it, to the integrand's values."""
    lo, hi = np.array(edges[:-1])[:, None], np.array(edges[1:])[:, None]
    half = 0.5 * (hi - lo)
    x = np.where(_TS_T < 0.0, lo + half * _TS_GAP, hi - half * _TS_GAP)
    # a node within half an ulp of an end rounds onto it; its weight is
    # below that ulp, so taking f one ulp inside moves the sum by a few ulps
    x = np.clip(x, np.nextafter(lo, hi), np.nextafter(hi, lo))
    return math.fsum((half * _TS_WEIGHT * f(x)).ravel())


def _expect_against_sum_density(m, func, singularities):
    """Integral of func(s) against the exact density of the sum of m uniforms.

    Integrated by ``_tanh_sinh`` piece by piece between the density's knots
    and the declared singular points of func (integrable log singularities
    only). Capped at ``UNIFORM_SUM_DENSITY_MAX_TERMS`` terms.
    """
    if not 1 <= m <= UNIFORM_SUM_DENSITY_MAX_TERMS:
        raise ValueError(f"supported for 1 <= m <= {UNIFORM_SUM_DENSITY_MAX_TERMS}")
    knots = {float(-m + 2 * j) for j in range(m + 1)}
    knots.update(float(s) for s in singularities if -m < float(s) < m)
    return _tanh_sinh(lambda s: func(s) * uniform_sum_pdf_raw(m, s), *sorted(knots))


def log_abs_integral(a: float) -> float:
    """Integral of ln|a + u| for u over [-1, 1]:
    (a+1) ln|a+1| - (a-1) ln|a-1| - 2, with 0 * ln 0 taken as 0."""
    return xlogabs(a + 1.0) - xlogabs(a - 1.0) - 2.0


def expected_log_uniform_sum(n_terms: int) -> float:
    """E ln|u_1 + ... + u_n| for iid uniforms on [-1, 1], via the exact
    density and the tanh-sinh rule split at the log singularity.

    Capped at 16 terms; the single-term case is the exact integral -1.
    """
    if n_terms == 1:
        return -1.0
    return _expect_against_sum_density(
        n_terms, lambda s: np.log(np.abs(s)), singularities=(0.0,))


def shifted_entropy_raw_sum(m: int, shift: float) -> float:
    """E[(S_m + shift) ln|S_m + shift|] for the raw sum S_m of m uniforms.

    m = 0 degenerates to the point mass at 0. Used as one side of the
    shift-by-one identity connecting it to :func:`expected_log_uniform_sum`.
    """
    if m == 0:
        return xlogabs(shift)
    return _expect_against_sum_density(
        m, lambda s: xlogabs(s + shift), singularities=(-shift,))


def entropy_term_expectation(m: int, delta: float) -> float:
    """E[(W + delta) ln|W + delta|] for W the standardized sum of m uniforms
    (W = (u_1 + ... + u_m) / sqrt(m/3)), with 0 < delta <= sqrt(3m)."""
    root3m = math.sqrt(3.0 * m)
    if not 0.0 < delta <= root3m:
        raise ValueError("delta must lie in (0, sqrt(3m)]")
    c = math.sqrt(m / 3.0)  # W = S / c
    return _expect_against_sum_density(
        m, lambda s: xlogabs(s / c + delta), singularities=(-delta * c,))


def tail_log_ratio_integral(delta: float, b: float) -> float:
    """delta ln(delta) + integral over (0, b) of P(Z > z) ln|(z+delta)/(z-delta)| dz.

    The integrand's log singularity at z = delta is an explicit split
    point; the whole expression is the quantity shown to stay positive.
    """
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    if b <= 1.0:
        raise ValueError("b must exceed 1")
    edges = [0.0, delta, b] if delta < b else [0.0, b]
    total = _tanh_sinh(lambda z: ndtr(-z) * np.log(np.abs((z + delta) / (z - delta))), *edges)
    return delta * math.log(delta) + total


def exact_mean_abs_weighted_sum(weights) -> float:
    """Exact E|w_1 u_1 + ... + w_k u_k| for u_i iid uniform on [-1, 1].

    With the magnitudes sorted a >= b >= c (padded with zeros) the value
    is a/2 + b^2/(6a) + c^2/(6a) - d^4/(48abc), d = c - (a - b), where
    the last term is present only when d > 0. Each term is a weight times
    ratios at most 1, and the subtracted term is below c/48 <= a/48, so
    nothing cancels or overflows at any scale, and a term underflows only
    where it is negligible next to a/2. Capped at 3 nonzero weights.
    """
    mags = sorted((abs(float(w)) for w in np.asarray(weights, dtype=float).ravel()
                   if w != 0.0), reverse=True)
    if not mags:
        return 0.0
    if len(mags) > 3:
        raise ValueError("exact evaluation supports at most 3 nonzero weights")
    a, b, c = mags + [0.0] * (3 - len(mags))
    value = a / 2.0 + (b / a) * b / 6.0 + (c / a) * c / 6.0
    d = c - (a - b)
    if d > 0.0:
        value -= (d / a) * (d / b) * (d / c) * d / 48.0
    return value
