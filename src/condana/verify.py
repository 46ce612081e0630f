"""Executable verification of every stated bound and identity.

Each check compares a computed quantity against a bound, widened either
by a stated absolute tolerance (exact oracles) or by four Monte-Carlo
half-widths, and records the signed slack. Checks are deterministic
given the master seed: ``_build_tasks`` gives every check group a
sub-stream by its position in the declared order and splits it into one
sub-stream per instance (m or trial), each run as one task, so the
suite can run on any number of threads without changing a byte of
output.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .closed_forms import (
    LOG2E,
    TheoremBounds,
    _tanh_sinh,
    ball_moments,
    cos_moments,
    entropy_term_expectation,
    epsilon_m,
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
    uniform_sum_tail_quantile,
    wallis_integral,
)
# snc stays importable from here: the benchmark's tracer test reads verify.snc
from .condition import (_componentwise, _cube_model, _cube_moments, _half_widths,
                        _norm_wise, _snc, snc)  # noqa: F401
from .problems import random_linear_problem, random_point
from .sampling import SampleStream, _parallel

#: Declared group order; every group always receives the same sub-stream
#: regardless of which subset actually runs.
GROUPS = (
    "closed_forms",
    "corollary1",
    "theorem1",
    "theorem2",
    "lemma5",
    "corollary2",
    "berry_esseen",
    "lemma6",
    "entropy_lemmas",
)

RELATIONS = ("<=", "<", ">=", ">", "=within-tol")


@dataclass(frozen=True, slots=True)
class BoundCheck:
    """One verified statement instance.

    ``slack`` is the signed distance to the (widened) bound, positive
    when satisfied. Strict relations pass only with positive slack; a
    zero-slack strict pass is flagged as a warning because floating
    point cannot certify strictness.
    """

    name: str
    instance: str
    computed: float
    bound: float
    relation: str
    slack: float
    tolerance_or_halfwidth: float
    passed: bool
    warning: bool = False


@dataclass
class VerifySuiteReport:
    seed: int
    checks: list[BoundCheck] = field(default_factory=list)

    @property
    def passed_count(self) -> int:
        return sum(1 for c in self.checks if c.passed)

    @property
    def failed_count(self) -> int:
        return len(self.checks) - self.passed_count

    @property
    def all_passed(self) -> bool:
        return self.failed_count == 0


def make_check(name: str, instance: str, computed: float, bound: float,
               relation: str, widen: float) -> BoundCheck:
    """Build a BoundCheck with the slack/pass semantics for the relation."""
    if relation not in RELATIONS:
        raise ValueError(f"unknown relation {relation!r}")
    # plain floats, so that ``passed`` is a bool and not a numpy bool
    computed, bound, widen = float(computed), float(bound), float(widen)
    warning = False
    if relation in ("<=", "<"):
        slack = bound + widen - computed
        passed = slack > 0.0 if relation == "<" else slack >= 0.0
    elif relation in (">=", ">"):
        slack = computed - bound + widen
        passed = slack > 0.0 if relation == ">" else slack >= 0.0
    else:  # =within-tol
        slack = widen - abs(computed - bound)
        passed = slack >= 0.0
    if relation in ("<", ">") and slack == 0.0:
        passed, warning = True, True
    return BoundCheck(name, instance, computed, bound, relation, slack, widen,
                      passed, warning)


def _uniform_int(stream: SampleStream, lo: int, hi: int) -> int:
    """Integer uniform on [lo, hi]; modulo bias is negligible at these ranges."""
    return lo + int(stream.words(1)[0] % np.uint64(hi - lo + 1))


# ---------------------------------------------------------------------------
# closed-form self-consistency


def closed_form_checks() -> list[BoundCheck]:
    """Recurrence seeds/residuals, moment identities, and exact values sitting
    inside their own bounds."""
    checks = [
        make_check("closed_forms/wallis_seed_even", "m=0", wallis_integral(0),
                   math.pi / 2.0, "=within-tol", 1e-15),
        make_check("closed_forms/wallis_seed_odd", "m=1", wallis_integral(1),
                   1.0, "=within-tol", 1e-15),
        make_check("closed_forms/wallis_odd_product", "m=3", wallis_integral(3),
                   2.0 / 3.0, "=within-tol", 1e-15),
    ]
    worst = 0.0
    for m in range(2, 201):
        res = wallis_integral(m) - (m - 1) / m * wallis_integral(m - 2)
        worst = max(worst, abs(res) / wallis_integral(m))
    checks.append(make_check("closed_forms/wallis_recurrence_residual",
                             "m<=200", worst, 0.0, "<=", 1e-14))

    checks.append(make_check("closed_forms/log_cos_seed_even", "m=0",
                             log_cos_ratio(0), -math.log(2.0), "=within-tol", 1e-15))
    checks.append(make_check("closed_forms/log_cos_seed_odd", "m=1",
                             log_cos_ratio(1), -1.0, "=within-tol", 1e-15))
    checks.append(make_check("closed_forms/log_cos_step", "m=2",
                             log_cos_ratio(2), -math.log(2.0) - 0.5, "=within-tol", 1e-14))

    worst = 0.0
    for m in range(3, 201):
        direct = cos_moments(m)[0]
        via_integral = 1.0 / ((m - 1) * wallis_integral(m - 2))
        worst = max(worst, abs(direct - via_integral) / via_integral)
    checks.append(make_check("closed_forms/cos_moment_identity",
                             "3<=m<=200", worst, 0.0, "<=", 1e-13))

    jensen_slack = min(ball_moments(m)[0] - ball_moments(m)[1] for m in range(1, 201))
    checks.append(make_check("closed_forms/ball_moment_ordering",
                             "m<=200", jensen_slack, 0.0, ">", 0.0))

    lo_slack = math.inf
    hi_slack = math.inf
    for m in range(1, 51):
        ratio, _ = snc_wnc_exact(m)
        b = theorem1_bounds(m, 1)
        lo_slack = min(lo_slack, ratio - b.ratio_lo)
        hi_slack = min(hi_slack, b.ratio_hi - ratio)
    checks.append(make_check("closed_forms/exact_ratio_above_lower",
                             "n=1;m<=50", lo_slack, 0.0, ">=", 0.0))
    checks.append(make_check("closed_forms/exact_ratio_below_upper",
                             "n=1;m<=50", hi_slack, 0.0, ">=", 0.0))

    for a in (0.0, 1.0, 5.0):
        edges = [-1.0, -a, 1.0] if abs(a) < 1.0 else [-1.0, 1.0]
        ref = _tanh_sinh(lambda u: np.log(np.abs(a + u)), *edges)
        checks.append(make_check("closed_forms/log_abs_integral", f"a={a:g}",
                                 log_abs_integral(a), ref, "=within-tol", 1e-10))
    return checks


# ---------------------------------------------------------------------------
# corollary 1: exact one-output ratio, and Monte Carlo against it


def _mc_ratio_and_gap(stream: SampleStream, m: int, n: int,
                      samples: int) -> tuple[float, float, float, float]:
    """SNC/WNC ratio, its widening, bit gap and its widening (four
    half-widths each) on one random m x n linear problem at a random
    point, drawn from three sub-streams of ``stream``."""
    subs = stream.split(3)
    problem = random_linear_problem(m, n, subs[0])
    x = random_point(problem, subs[1], min_norm=1e-12)
    p = _norm_wise(problem, x)
    w, est = p.wnc, _snc(p, subs[2], samples)
    return (est.estimate / w, 4.0 * est.half_width / w,
            est.log_estimate - math.log2(w), 4.0 * est.log_half_width)


def _corollary1_task(stream: SampleStream, m: int, samples: int) -> list[BoundCheck]:
    """The moment-product identity behind the exact one-output ratio, and
    Monte Carlo against the exact value."""
    exact_ratio, exact_gap = snc_wnc_exact(m)
    inst = f"m={m}"
    e_norm, _, e_log_norm = ball_moments(m)
    e_cos = 1.0 if m == 1 else 1.0 / ((m - 1) * wallis_integral(m - 2))
    e_log_cos = 0.0 if m == 1 else log_cos_ratio(m - 2)
    checks = [
        make_check("corollary1/ratio_moment_product", inst,
                   e_norm * e_cos, exact_ratio, "=within-tol", 1e-12),
        make_check("corollary1/gap_moment_sum", inst,
                   (e_log_norm + e_log_cos) * LOG2E, exact_gap, "=within-tol", 1e-12),
    ]
    ratio, ratio_widen, gap, gap_widen = _mc_ratio_and_gap(stream, m, 1, samples)
    checks.append(make_check("corollary1/mc_ratio_vs_exact", inst,
                             ratio, exact_ratio, "=within-tol", ratio_widen))
    checks.append(make_check("corollary1/mc_gap_vs_exact", inst,
                             gap, exact_gap, "=within-tol", gap_widen))
    return checks


# ---------------------------------------------------------------------------
# theorem 1: norm-wise ratio and bit-gap bounds on random linear problems


def _bound_checks(theorem: str, inst: str, bounds: TheoremBounds, lower: str,
                  ratio: float, ratio_widen: float, gap: float,
                  gap_widen: float) -> list[BoundCheck]:
    """The four checks of theorem 1 or 2, in this order: the ratio above
    its lower bound (by ``lower``, ``>=`` or ``>``) and below its upper
    one, then the bit gap likewise."""
    return [
        make_check(f"{theorem}/ratio_lower", inst, ratio, bounds.ratio_lo, lower, ratio_widen),
        make_check(f"{theorem}/ratio_upper", inst, ratio, bounds.ratio_hi, "<=", ratio_widen),
        make_check(f"{theorem}/gap_lower", inst, gap, bounds.gap_lo, lower, gap_widen),
        make_check(f"{theorem}/gap_upper", inst, gap, bounds.gap_hi, "<=", gap_widen),
    ]


def _theorem1_task(stream: SampleStream, trial: int, m_dims: range, n_dims: range,
                   samples: int) -> list[BoundCheck]:
    """Bound checks on one random m x n linear problem, m and n drawn
    uniformly from the given ranges."""
    m = _uniform_int(stream, m_dims[0], m_dims[-1])
    n = _uniform_int(stream, n_dims[0], n_dims[-1])
    return _bound_checks("theorem1", f"m={m};n={n};trial={trial}", theorem1_bounds(m, n),
                         ">=", *_mc_ratio_and_gap(stream, m, n, samples))


# ---------------------------------------------------------------------------
# theorem 2: componentwise ratio and bit-gap bounds over weight patterns


def _theorem2_task(stream: SampleStream, m: int, n_random: int,
                   samples: int) -> list[BoundCheck]:
    """Componentwise bound checks at one m: one-hot and all-ones patterns
    plus `n_random` random weight vectors, sharing one sample block."""
    labels = ["one-hot", "all-ones"] + [f"random-{t}" for t in range(n_random)]
    gmat = np.column_stack([np.eye(m)[0], np.ones(m)]
                           + [stream.symmetric(m) for _ in range(n_random)])
    ests = _componentwise(gmat, np.sum(np.abs(gmat), axis=0), stream, samples)

    checks = []
    bounds = theorem2_bounds(m) if m > 1 else None
    for label, est in zip(labels, ests):
        inst = f"m={m};g={label}"
        mean, hw = est.estimate, est.half_width
        if m == 1:
            # exact one-dimensional results: ratio 1/2, gap -log2(e)
            checks.append(make_check("theorem2/ratio_exact_m1", inst, mean, 0.5,
                                     "=within-tol", 4.0 * hw))
            checks.append(make_check("theorem2/gap_exact_m1", inst, est.log_estimate,
                                     -LOG2E, "=within-tol", 4.0 * est.log_half_width))
            continue
        checks += _bound_checks("theorem2", inst, bounds, ">", mean, 4.0 * hw,
                                est.log_estimate, 4.0 * est.log_half_width)
        if label == "one-hot":
            # the upper ratio bound is attained exactly here
            checks.append(make_check("theorem2/ratio_onehot_attained", inst, mean,
                                     0.5, "=within-tol", 2.0 * hw))
        elif est.exact is not None:
            checks.append(make_check("theorem2/ratio_vs_exact", inst, mean,
                                     est.exact, "=within-tol", 4.0 * hw))
    return checks


# ---------------------------------------------------------------------------
# lemma 5 identity and corollary 2 lower bound


def check_lemma5(max_terms: int = 4) -> list[BoundCheck]:
    """Shift-by-one identity between the log moment of an (m+1)-term sum and
    the entropy-style moment of an m-term sum, via the quadrature oracle."""
    if max_terms > 16:
        raise ValueError("exact-density oracle capped at 16 terms")
    checks = []
    for n_terms in range(1, max_terms + 1):
        m = n_terms - 1
        lhs = expected_log_uniform_sum(n_terms)
        rhs = shifted_entropy_raw_sum(m, 1.0) - 1.0
        checks.append(make_check("lemma5/identity", f"terms={n_terms}",
                                 lhs, rhs, "=within-tol", 1e-6))
    return checks


def _corollary2_bound(m: int) -> float:
    return 0.5 * math.log(m) - 0.5 * math.log(3.0) - 1.0 - epsilon_m(m + 1)


def check_corollary2(m_range=range(2, 16)) -> list[BoundCheck]:
    """E ln|(m+1)-term sum| above its explicit lower bound, via the
    quadrature oracle (up to 15; Monte Carlo beyond)."""
    return [make_check("corollary2/quadrature", f"m={m}", expected_log_uniform_sum(m + 1),
                       _corollary2_bound(m), ">", 1e-7)
            for m in m_range]


def _abs_row_sums(u: np.ndarray, out=None) -> np.ndarray:
    """|sum of each row of u|, as a ``(count, 1)`` column (into ``out`` where
    given): a row sum, not ``@ ones``, as the two round differently for
    m >= 10."""
    return np.abs(np.add.reduce(u, axis=1, keepdims=True, out=out), out=out)


def _corollary2_mc_task(stream: SampleStream, m: int, samples: int) -> list[BoundCheck]:
    """The corollary 2 lower bound at one m, by chunked Monte Carlo."""
    (mean,), (hw,) = _half_widths(_cube_moments(_abs_row_sums, m + 1, 1, stream, samples,
                                               "the corollary 2 log moment", (np.log,)))
    return [make_check("corollary2/monte_carlo", f"m={m};N={samples}",
                       mean[0], _corollary2_bound(m), ">", 4.0 * hw[0])]


# ---------------------------------------------------------------------------
# normal-approximation error of the standardized uniform sum


def check_berry_esseen(m_range=range(1, 13)) -> list[BoundCheck]:
    """Sup over a 10,000-point grid of the |exact CDF - normal CDF| gap,
    against 1/sqrt(m)."""
    checks = []
    for m in m_range:
        edge = math.sqrt(3.0 * m) + 1.0
        grid = np.linspace(-edge, edge, 10_000)
        sup = float(np.max(np.abs(uniform_sum_cdf(m, grid) - normal_cdf(grid))))
        checks.append(make_check("berry_esseen/sup_cdf_gap",
                                 f"m={m};grid=10000", sup,
                                 1.0 / math.sqrt(m), "<=", 1e-9))
    return checks


# ---------------------------------------------------------------------------
# lemma 6: tail-probability ordering under the 1-norm constraint


def _lemma6_task(stream: SampleStream, m: int, trials: int,
                 samples: int) -> list[BoundCheck]:
    """P(|a'u| > b) >= the all-ones tail for every rescaled a (||a||_1 = m);
    the all-ones side is the exact piecewise-polynomial tail and the
    thresholds sit at its quantiles."""
    labels = ["all-ones", "one-hot"]
    vectors = [np.ones(m), np.concatenate([[float(m)], np.zeros(m - 1)])]
    for t in range(trials):
        a = stream.symmetric(m)
        a *= m / np.sum(np.abs(a))
        vectors.append(a)
        labels.append(f"random-{t}")
    amat = np.column_stack(vectors)
    # thresholds placed at exact all-ones tail quantiles, so the
    # Monte-Carlo side always has resolvable statistics
    tails = (0.5, 0.2, 0.05, 0.01)
    thresholds = [uniform_sum_tail_quantile(m, p_ones) for p_ones in tails]
    # the indicator of |a . u| > b, one statistic per threshold
    indicators = [lambda t, out, b=b: np.greater(t, b, out=out, casting="unsafe")
                  for b in thresholds]
    p_hat_rows, hw_rows = _half_widths(_cube_moments(
        lambda u, out=None: _cube_model(amat, 1.0, u, out), m, amat.shape[1], stream, samples,
        "componentwise amplification", indicators))
    checks = []
    for p_ones, b, p_hats, hws in zip(tails, thresholds, p_hat_rows, hw_rows):
        for label, p_hat, hw in zip(labels, p_hats, hws):
            widen = 4.0 * hw + 8.0 / samples  # small-count floor
            checks.append(make_check("lemma6/tail_dominates_all_ones",
                                     f"m={m};b={b:.6g};a={label}", p_hat, p_ones,
                                     ">=", widen))
    return checks


# ---------------------------------------------------------------------------
# entropy-style inequalities (quadrature only)


def check_entropy_lemmas() -> list[BoundCheck]:
    """Entropy-term expectation above its explicit negative bound, and the
    positive tail-log functional, both via singularity-split quadrature
    and widened by 1e-7."""
    checks = []
    for m in (1, 2, 3, 4, 8, 16):
        root3m = math.sqrt(3.0 * m)
        deltas = [d for d in (1e-4, 0.1, 0.5, 1.0, 2.0) if d <= root3m] + [root3m]
        for delta in deltas:
            lhs = entropy_term_expectation(m, delta)
            rhs = (-2.0 * delta / math.sqrt(m)) * (math.log1p(root3m / delta) + 1.0)
            checks.append(make_check("lemma4/entropy_term_lower",
                                     f"m={m};delta={delta:.6g}", lhs, rhs, ">", 1e-7))
    for delta in (0.1, 0.2, 0.5, 1.0, 1.5, 2.0):
        for b in (1.5, 3.0, 6.0):
            val = tail_log_ratio_integral(delta, b)
            checks.append(make_check("lemma7/tail_log_positive",
                                     f"delta={delta:g};b={b:g}", val, 0.0, ">", 1e-7))
    return checks


# ---------------------------------------------------------------------------
# suite assembly


@dataclass
class SuiteConfig:
    """Knobs for the full suite; defaults match the acceptance settings."""

    seed: int = 42
    samples: int = 100_000
    trials: int = 100  # random norm-wise instances
    theorem2_random_g: int = 50
    lemma6_trials: int = 10
    m_range: tuple[int, int] | None = None
    n_range: tuple[int, int] | None = None
    groups: tuple[str, ...] = GROUPS
    threads: int = 1

    def __post_init__(self):
        unknown = set(self.groups) - set(GROUPS)
        if unknown:
            raise ValueError(f"unknown check groups: {sorted(unknown)}")
        if self.samples < 100:
            raise ValueError("samples must be >= 100")
        for name in ("trials", "theorem2_random_g", "lemma6_trials"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")


def _clip_range(user: tuple[int, int] | None, default_lo: int, default_hi: int,
                cap_lo: int, cap_hi: int) -> range:
    """Default sweep when no user range; otherwise the user range clamped to
    what the group's oracles support."""
    if user is None:
        return range(default_lo, default_hi + 1)
    return range(max(cap_lo, user[0]), min(cap_hi, user[1]) + 1)


def _build_tasks(cfg: SuiteConfig):
    """Ordered (group, callable) tasks; streams are pre-split in declared
    order so any subset runs with the same randomness as the full suite."""
    master = SampleStream(cfg.seed)
    group_streams = dict(zip(GROUPS, master.split(len(GROUPS))))
    tasks: list[tuple[str, object]] = []

    def add(group, fn):
        if group in cfg.groups:
            tasks.append((group, fn))

    def per_item(group, items, fn):
        """One task ``fn(sub, item)`` per item, each on its own sub-stream
        of the group's stream."""
        items = list(items)
        subs = group_streams[group].split(max(len(items), 1))
        for item, sub in zip(items, subs):
            add(group, lambda sub=sub, item=item: fn(sub, item))

    add("closed_forms", closed_form_checks)

    per_item("corollary1", _clip_range(cfg.m_range, 1, 10, cap_lo=1, cap_hi=50),
             lambda sub, m: _corollary1_task(sub, m, cfg.samples))

    m_dims = _clip_range(cfg.m_range, 1, 30, cap_lo=1, cap_hi=200)
    n_dims = _clip_range(cfg.n_range, 1, 30, cap_lo=1, cap_hi=200)
    per_item("theorem1", range(cfg.trials) if m_dims and n_dims else (),
             lambda sub, t: _theorem1_task(sub, t, m_dims, n_dims, cfg.samples))

    per_item("theorem2", _clip_range(cfg.m_range, 2, 50, cap_lo=1, cap_hi=100),
             lambda sub, m: _theorem2_task(sub, m, cfg.theorem2_random_g, cfg.samples))

    add("lemma5", check_lemma5)

    c2_ms = _clip_range(cfg.m_range, 2, 15, cap_lo=2, cap_hi=15)
    add("corollary2", lambda: check_corollary2(c2_ms))
    per_item("corollary2", (50, 200), lambda sub, m: _corollary2_mc_task(
        sub, m, min(10 * cfg.samples, 1_000_000)))

    be_ms = _clip_range(cfg.m_range, 1, 12, cap_lo=1, cap_hi=30)
    add("berry_esseen", lambda: check_berry_esseen(be_ms))

    per_item("lemma6", _clip_range(cfg.m_range, 2, 10, cap_lo=2, cap_hi=30),
             lambda sub, m: _lemma6_task(sub, m, cfg.lemma6_trials, min(cfg.samples, 20_000)))

    add("entropy_lemmas", check_entropy_lemmas)
    return tasks


def run_suite(cfg: SuiteConfig | None = None) -> VerifySuiteReport:
    """Run the configured check groups and collect every BoundCheck.

    The whole run is one parallel scope (``sampling._parallel``): the ball
    pieces and cube chunks of each task's draws use every CPU of the
    affinity mask. ``cfg.threads`` > 1 also runs tasks on a thread pool of
    that size. Results are gathered in declared task order, so the report
    is identical for any thread or CPU count.
    """
    cfg = cfg or SuiteConfig()
    tasks = _build_tasks(cfg)
    with _parallel():
        if cfg.threads > 1 and len(tasks) > 1:
            with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
                results = list(pool.map(lambda pair: pair[1](), tasks))
        else:
            results = [fn() for _, fn in tasks]
    report = VerifySuiteReport(seed=cfg.seed)
    for checks in results:
        report.checks.extend(checks)
    return report
