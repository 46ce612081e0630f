"""Worst-case and stochastic condition numbers for differentiable
problems, with executable verification of the closed-form bounds that
relate them.

The package computes six quantities at a point: worst-case and
stochastic condition numbers, norm-wise and componentwise, plus the
matching losses of precision in bits. Worst-case values come from exact
formulas; stochastic values use closed forms where they exist and
reproducible Monte-Carlo estimators elsewhere. The ``verify`` module
turns every supporting bound and identity into a pass/fail check with
measured slack.
"""

from .closed_forms import (
    TheoremBounds,
    ball_moments,
    cos_moments,
    entropy_term_expectation,
    epsilon_m,
    exact_mean_abs_weighted_sum,
    expected_log_uniform_sum,
    log_abs_integral,
    log_cos_ratio,
    snc_wnc_exact,
    theorem1_bounds,
    theorem2_bounds,
    uniform_sum_cdf,
    wallis_integral,
)
from .condition import (
    ConditionReport,
    DegenerateOutputError,
    EstimatorConfig,
    PowerIterationError,
    StochasticEstimate,
    SweepReport,
    delta_sweep,
    report,
    snc,
    spectral_norm,
    wnc,
)
from .problems import (
    Jacobian,
    NonFiniteEvaluationError,
    Problem,
    evaluate,
    evaluate_batch,
    fd_jacobian,
    get_problem,
    jacobian,
    linear_problem,
    list_problems,
    load_matrix_problem,
)
from .sampling import (
    BallRegion,
    CubeRegion,
    SampleStream,
    sample_ball,
    sample_cube,
)
from .verify import BoundCheck, SuiteConfig, VerifySuiteReport, run_suite

__version__ = "0.1.0"
