import dataclasses
import inspect
import math
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

from condana import condition, sampling, verify
from condana.closed_forms import (LOG2E, normal_cdf, theorem1_bounds, theorem2_bounds,
                                  uniform_sum_cdf)
from condana.problems import get_problem
from condana.sampling import SampleStream
from condana.verify import (
    GROUPS,
    RELATIONS,
    SuiteConfig,
    VerifySuiteReport,
    check_berry_esseen,
    check_corollary2,
    check_entropy_lemmas,
    check_lemma5,
    closed_form_checks,
    make_check,
    run_suite,
)


def run_group(group, **kw):
    """The checks of one group, run through the suite."""
    return run_suite(SuiteConfig(groups=(group,), **kw)).checks


class TestMakeCheck:
    def test_non_strict_upper(self):
        c = make_check("x", "i", 1.0, 1.0, "<=", 0.0)
        assert c.passed and c.slack == 0.0 and not c.warning

    def test_strict_needs_positive_slack(self):
        c = make_check("x", "i", 1.0, 1.0, "<", 0.0)
        assert c.passed and c.warning  # zero slack: pass-with-warning
        assert not make_check("x", "i", 1.1, 1.0, "<", 0.0).passed
        assert make_check("x", "i", 0.9, 1.0, "<", 0.0).passed

    def test_lower_relations(self):
        assert make_check("x", "i", 2.0, 1.0, ">=", 0.0).passed
        assert not make_check("x", "i", 0.5, 1.0, ">", 0.2).passed
        widened = make_check("x", "i", 0.9, 1.0, ">", 0.2)
        assert widened.passed and widened.slack == pytest.approx(0.1)

    def test_equality_within_tolerance(self):
        assert make_check("x", "i", 1.0 + 1e-9, 1.0, "=within-tol", 1e-8).passed
        assert not make_check("x", "i", 1.1, 1.0, "=within-tol", 1e-8).passed

    def test_unknown_relation(self):
        with pytest.raises(ValueError):
            make_check("x", "i", 1.0, 1.0, "~", 0.0)

    @pytest.mark.parametrize("relation", RELATIONS)
    def test_numpy_scalars_give_plain_types(self, relation):
        c = make_check("x", "i", np.float64(1.0), np.float64(0.5), relation, np.float64(0.0))
        assert type(c.passed) is bool and type(c.warning) is bool
        assert all(type(v) is float for v in (c.computed, c.bound, c.slack,
                                               c.tolerance_or_halfwidth))


class TestClosedFormChecks:
    def test_all_pass(self):
        checks = closed_form_checks()
        assert checks and all(c.passed for c in checks)

    def test_covers_recurrences_and_identities(self):
        names = {c.name for c in closed_form_checks()}
        assert "closed_forms/wallis_recurrence_residual" in names
        assert "closed_forms/cos_moment_identity" in names
        assert "closed_forms/exact_ratio_below_upper" in names


class TestLemma5:
    def test_identity_holds(self):
        checks = check_lemma5(4)
        assert len(checks) == 4 and all(c.passed for c in checks)

    def test_zero_term_case_is_exact(self):
        c = check_lemma5(1)[0]
        assert c.computed == -1.0 and c.bound == -1.0

    def test_cap(self):
        with pytest.raises(ValueError):
            check_lemma5(17)


class TestCorollary2:
    def test_quadrature_grid_passes(self):
        checks = check_corollary2(range(2, 16))
        assert len(checks) == 14 and all(c.passed for c in checks)

    def test_monte_carlo_passes(self):
        # quadrature at m = 2, Monte Carlo at m = 50 and 200 with N = 50,000
        checks = run_group("corollary2", seed=11, samples=5000, m_range=(2, 2))
        assert all(c.passed for c in checks)
        assert any(c.name == "corollary2/monte_carlo" for c in checks)


class TestBerryEsseen:
    def test_bound_holds_up_to_twelve(self):
        checks = check_berry_esseen(range(1, 13))
        assert all(c.passed for c in checks)

    def test_observed_sup_m1(self):
        c = check_berry_esseen(range(1, 2))[0]
        # the gap peaks where the uniform and normal densities cross:
        # phi(t*) = 1/(2 sqrt 3), giving |F(t*) - Phi(t*)| = 0.05720672...
        t_star = math.sqrt(-2.0 * math.log(math.sqrt(2.0 * math.pi) / (2.0 * math.sqrt(3.0))))
        interior = abs(0.5 + t_star / (2.0 * math.sqrt(3.0)) - float(normal_cdf(t_star)))
        assert c.computed == pytest.approx(interior, abs=1e-7)
        # for reference, the support-edge gap is smaller: 1 - Phi(sqrt 3)
        assert c.computed > 1.0 - float(normal_cdf(math.sqrt(3.0)))

    def test_gap_vanishes_at_zero(self):
        for m in (1, 4, 9):
            assert uniform_sum_cdf(m, 0.0) == pytest.approx(float(normal_cdf(0.0)),
                                                            abs=1e-14)


class TestTheorem1:
    def test_grid_passes(self):
        checks = run_group("theorem1", seed=5, samples=4000, trials=8,
                           m_range=(1, 3), n_range=(1, 2))
        assert len(checks) == 8 * 4
        assert all(c.passed for c in checks)

    def test_m1_bounds_attained_but_widened(self):
        # at m = 1 the true bit gap sits exactly on the lower bound
        checks = run_group("theorem1", seed=8, samples=4000, trials=3,
                           m_range=(1, 1), n_range=(1, 1))
        gap_lower = [c for c in checks if c.name == "theorem1/gap_lower"]
        assert gap_lower and all(c.passed for c in gap_lower)


class TestTheoremBoundChecks:
    def test_names_relations_and_bounds(self):
        # one theorem1 instance (m = 4, n = 2) and one theorem2 pattern
        # (all-ones at m = 5, which has no exact-value check)
        t1 = run_group("theorem1", seed=3, samples=1000, trials=1,
                       m_range=(4, 4), n_range=(2, 2))
        t2 = [c for c in run_group("theorem2", seed=3, samples=1000,
                                   theorem2_random_g=0, m_range=(5, 5))
              if c.instance == "m=5;g=all-ones"]
        for checks, theorem, b, lower in ((t1, "theorem1", theorem1_bounds(4, 2), ">="),
                                          (t2, "theorem2", theorem2_bounds(5), ">")):
            assert [(c.name, c.relation, c.bound) for c in checks] == [
                (f"{theorem}/ratio_lower", lower, b.ratio_lo),
                (f"{theorem}/ratio_upper", "<=", b.ratio_hi),
                (f"{theorem}/gap_lower", lower, b.gap_lo),
                (f"{theorem}/gap_upper", "<=", b.gap_hi),
            ]
            assert all(c.passed for c in checks)


class TestTheorem2:
    def test_patterns_pass(self):
        checks = run_group("theorem2", seed=6, samples=4000, theorem2_random_g=4,
                           m_range=(2, 5))
        assert all(c.passed for c in checks)
        names = {c.name for c in checks}
        assert "theorem2/ratio_onehot_attained" in names
        assert "theorem2/ratio_vs_exact" in names  # all-ones at m <= 3

    def test_all_ones_m2_matches_exact_third(self):
        checks = run_group("theorem2", seed=6, samples=20_000, theorem2_random_g=0,
                           m_range=(2, 2))
        exact = [c for c in checks
                 if c.name == "theorem2/ratio_vs_exact" and "all-ones" in c.instance]
        assert len(exact) == 1
        assert exact[0].bound == pytest.approx(1.0 / 3.0, rel=1e-12)
        assert exact[0].passed

    def test_m1_exact_results(self):
        checks = run_group("theorem2", seed=6, samples=4000, theorem2_random_g=0,
                           m_range=(1, 1))
        names = {c.name for c in checks}
        assert names == {"theorem2/ratio_exact_m1", "theorem2/gap_exact_m1"}
        assert all(c.passed for c in checks)


def _shrink(field, factor):
    """A mutant of an estimate: ``field`` multiplied by ``factor``."""
    def mutate(est):
        setattr(est, field, factor * getattr(est, field))
    return mutate


_BALL_VALUES = condition._ball_values
_BALL_MODEL = condition._ball_model
_SNC = condition._snc
_AT = condition._at


def _sphere_values(p, u, work, out):
    """``_ball_values`` mutant: uniform on the sphere, not in the ball: the
    chi-square takes one uniform fewer, m - k degrees of freedom."""
    return _BALL_VALUES(p, u.reshape(-1, out.size)[:-1], work, out)


def _cube_for_ball(p, stream, n_samples):
    """``_ball_moments`` mutant: u uniform in the cube [-1, 1]^m, not the
    ball, as explicit points through the cube kernel and the sweep's
    model ||J u|| ||x|| / ||f(x)||."""
    def model(u, out=None):
        values = condition._ball_model(p, u)[:, None]
        if out is not None:
            out[...] = values
        return values

    return condition._cube_moments(model, p.x.size, 1, stream, n_samples)


def _first_row_only(p, u, work, out):
    """``_ball_values`` mutant: ||J_1 u|| for the first output only: the
    singular value of J[:1], then zeros (with ``_first_row_wnc``)."""
    sigma = np.zeros_like(p.sigma)
    sigma[0] = condition.spectral_norm(p.mat[:1])
    return _BALL_VALUES(dataclasses.replace(p, sigma=sigma), u, work, out)


def _first_row_wnc(p, stream, samples):
    """``_snc`` mutant, with ``_first_row_only``: the ratios scaled by the
    wnc that the singular value of J[:1] gives."""
    wnc = p.xnorm * condition.spectral_norm(p.mat[:1]) / p.fnorm
    return _SNC(dataclasses.replace(p, wnc=wnc), stream, samples)


def _three_percent_low(p, u, work, out):
    """``_ball_values`` mutant: every value 3% low."""
    values = _BALL_VALUES(p, u, work, out)
    values *= 0.97
    return values


def _model_three_percent_low(p, u):
    """``_ball_model`` mutant: every value 3% low."""
    values = _BALL_MODEL(p, u)
    values *= 0.97
    return values


def _denominators_two_percent_high(problem, x):
    """``_at`` mutant: every componentwise denominator |f_j(x)| 2% high."""
    p = _AT(problem, x)
    p.denoms = [1.02 * d for d in p.denoms]
    return p


#: each mutant's functions, patched in ``condition`` and, where it imports
#: them, in ``verify``
NORM_WISE_MUTANTS = {
    "sphere_for_ball": {"_ball_values": _sphere_values},
    "cube_for_ball": {"_ball_moments": _cube_for_ball},
    "first_output_row_only": {"_ball_values": _first_row_only, "_snc": _first_row_wnc},
    "three_percent_low": {"_ball_values": _three_percent_low},
}

SWEEP_MUTANTS = {
    "norm_wise_model_three_percent_low": ("_ball_model", _model_three_percent_low),
    "denominators_two_percent_high": ("_at", _denominators_two_percent_high),
}


class TestMutantsCaught:
    """Faults patched into the estimators that ``report`` ships make a
    small suite fail; unpatched, the same suites pass."""

    COMPONENTWISE = SuiteConfig(groups=("theorem2",), m_range=(1, 3), samples=50_000)
    NORM_WISE = SuiteConfig(groups=("corollary1", "theorem1"), samples=50_000, trials=10)

    def test_unpatched_suites_pass(self):
        assert run_suite(self.COMPONENTWISE).all_passed
        assert run_suite(self.NORM_WISE).all_passed

    @pytest.mark.parametrize("mutate", [_shrink("estimate", 0.98),
                                        _shrink("log_estimate", 1.0 / LOG2E)],
                             ids=["two_percent_low", "bit_loss_in_nats"])
    def test_componentwise_kernel_mutant(self, monkeypatch, mutate):
        kernel = condition._componentwise

        def mutant(*args, **kwargs):
            ests = kernel(*args, **kwargs)
            for est in ests:
                mutate(est)
            return ests

        cfg = condition.EstimatorConfig(stream=SampleStream(3), samples=1000)
        before = condition.report(get_problem("sum"), [1.0, 2.0], cfg).scc[0]
        for module in (condition, verify):
            monkeypatch.setattr(module, "_componentwise", mutant)
        # report and theorem2 both run the patched kernel
        assert condition.report(get_problem("sum"), [1.0, 2.0], cfg).scc[0] != before
        assert not run_suite(self.COMPONENTWISE).all_passed

    @pytest.mark.parametrize("name", NORM_WISE_MUTANTS)
    def test_norm_wise_mutant(self, monkeypatch, name):
        cfg = condition.EstimatorConfig(stream=SampleStream(3), samples=1000)
        before = condition.report(get_problem("matvec"), [1.0, -1.0, 2.0], cfg).snc
        on_pool = set()

        def recorded(fn):
            def record(*args):
                on_pool.add(threading.current_thread().name.startswith("condana"))
                return fn(*args)
            return record

        monkeypatch.setattr(sampling, "_cpus", lambda: 2)
        for attr, mutant in NORM_WISE_MUTANTS[name].items():
            for module in (condition, verify):
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, recorded(mutant))
        # the cube mutant's points go through the sweep's model
        monkeypatch.setattr(condition, "_ball_model", recorded(_BALL_MODEL))
        # report and corollary1/theorem1 both run the mutant's per-sample
        # work, on the calling thread and in pieces on the pool
        assert condition.report(get_problem("matvec"), [1.0, -1.0, 2.0], cfg).snc != before
        assert not run_suite(self.NORM_WISE).all_passed
        assert on_pool == {False, True}

    @pytest.mark.parametrize("name", SWEEP_MUTANTS)
    def test_sweep_mutant(self, monkeypatch, name):
        # on a linear problem every finite-delta value is its linearized one
        # to within 1e-9, the benchmark's rule; a fault in the model the
        # estimators share moves only the linearized side
        attr, mutant = SWEEP_MUTANTS[name]
        monkeypatch.setattr(condition, attr, mutant)
        cfg = condition.EstimatorConfig(stream=SampleStream(3), samples=2000)
        sw = condition.delta_sweep(get_problem("matvec"), [1.0, -1.0, 2.0],
                                   (1e-2, 1e-3, 1e-4), cfg)
        if attr == "_ball_model":
            pairs = [(pt.estimate, sw.snc_linearized) for pt in sw.snc_by_delta]
        else:
            pairs = [(pt.estimate, sw.scc_linearized[j])
                     for j, points in enumerate(sw.scc_by_delta) for pt in points]
        assert len(pairs) == (3 if attr == "_ball_model" else 6)
        for fd, lin in pairs:
            assert abs(fd - lin) > 1e-9 * abs(lin)


class TestLemma6:
    def test_example_probabilities(self):
        # spread weights (m * one-hot) against all-ones at m = 2, raw b = 1:
        # 1/2 versus 1/4 by direct integration
        p_all_ones = 2.0 * (1.0 - uniform_sum_cdf(2, 1.0 / math.sqrt(2.0 / 3.0)))
        assert p_all_ones == pytest.approx(0.25, rel=1e-12)

    def test_checks_pass(self):
        checks = run_group("lemma6", seed=4, samples=20_000, lemma6_trials=5,
                           m_range=(2, 5))
        assert checks and all(c.passed for c in checks)
        # equality instance present: a = all-ones itself
        assert any("a=all-ones" in c.instance for c in checks)


class TestEntropyLemmas:
    def test_grids_pass_with_positive_slack(self):
        checks = check_entropy_lemmas()
        assert checks and all(c.passed for c in checks)
        assert all(c.slack > 0.0 for c in checks)

    def test_tiny_delta_instance(self):
        lemma4 = [c for c in check_entropy_lemmas()
                  if c.name == "lemma4/entropy_term_lower" and c.instance == "m=2;delta=0.0001"]
        assert len(lemma4) == 1 and lemma4[0].passed
        # expectation is near zero, bound is clearly negative
        assert abs(lemma4[0].computed) < 1e-2 and lemma4[0].bound < -1e-3


class TestSuite:
    def small_config(self, **kw):
        defaults = dict(seed=42, samples=2000, trials=3, theorem2_random_g=2,
                        lemma6_trials=2, m_range=(1, 5))
        defaults.update(kw)
        return SuiteConfig(**defaults)

    def test_deterministic_rerun(self):
        a = run_suite(self.small_config())
        b = run_suite(self.small_config())
        assert a.checks == b.checks

    def test_thread_count_does_not_change_results(self):
        serial = run_suite(self.small_config(threads=1))
        threaded = run_suite(self.small_config(threads=8))
        assert serial.checks == threaded.checks

    @pytest.mark.parametrize("group", GROUPS)
    def test_group_restriction_is_a_sub_run(self, group):
        # a restricted run must reproduce exactly the records the full run
        # produced for that group (streams are pre-split per group)
        full = run_suite(self.small_config(threads=2))
        only = run_suite(self.small_config(groups=(group,), threads=2))
        prefixes = {"entropy_lemmas": ("lemma4/", "lemma7/")}.get(group, (group + "/",))
        in_full = [c for c in full.checks if c.name.startswith(prefixes)]
        assert only.checks and only.checks == in_full

    def test_report_totals(self):
        rep = run_suite(self.small_config(groups=("lemma5",)))
        assert isinstance(rep, VerifySuiteReport)
        assert rep.passed_count + rep.failed_count == len(rep.checks)
        assert rep.all_passed

    def test_unknown_group_rejected(self):
        with pytest.raises(ValueError):
            SuiteConfig(groups=("nope",))

    @pytest.mark.parametrize("field,value", [
        ("trials", -1), ("theorem2_random_g", -1), ("lemma6_trials", -1), ("samples", 99),
        ("threads", 0)])
    def test_bad_counts_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            SuiteConfig(**{field: value})

    def test_declared_group_order_stable(self):
        assert GROUPS[0] == "closed_forms" and "theorem1" in GROUPS

    def test_imports_no_adaptive_scipy_solver(self):
        # every oracle is numpy: a run of every group, in a fresh interpreter,
        # imports neither scipy.integrate nor scipy.optimize (about 24 MB)
        code = ("import sys\n"
                "from condana.verify import SuiteConfig, run_suite\n"
                "report = run_suite(SuiteConfig(samples=1000, trials=2, theorem2_random_g=2,"
                " lemma6_trials=1))\n"
                "print(report.all_passed, len(report.checks),"
                " sorted(m for m in ('scipy.integrate', 'scipy.optimize') if m in sys.modules))")
        src = os.path.dirname(os.path.dirname(verify.__file__))
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src}, timeout=300, check=True)
        passed, count, loaded = run.stdout.split(maxsplit=2)
        assert passed == "True" and int(count) > 1000 and loaded.strip() == "[]"


class TestParallelSuite:
    """``run_suite`` runs its tasks on the calling thread in the parallel
    scope: the same checks as a serial run at any pool width, with
    OpenBLAS restored."""

    SMALL = SuiteConfig(groups=("theorem1", "theorem2", "corollary2", "lemma6"),
                        m_range=(2, 4), samples=20_000, trials=2)

    @pytest.fixture(scope="class")
    def serial_checks(self):
        return run_suite(dataclasses.replace(self.SMALL, threads=1)).checks

    @pytest.mark.parametrize("threads", [None, 2])
    def test_same_checks_as_serial(self, workers, splits, serial_checks, threads):
        suite = run_suite(dataclasses.replace(self.SMALL, threads=threads))
        assert suite.checks == serial_checks and suite.all_passed
        assert splits["condition"] > 0
        assert sampling._pool is None

    def test_one_thread_opens_no_pool(self, workers, monkeypatch):
        # width 1 on a mask of several CPUs runs serially, with OpenBLAS held
        # to one thread: left at more, it spins on the other CPUs
        blas = sampling._openblas_threads()
        assert blas, "no OpenBLAS thread-count entry point found"
        original, inside, lemma5 = [get() for get, _ in blas], [], verify.check_lemma5

        def recorded():
            inside.append((sampling._pool, [get() for get, _ in blas]))
            return lemma5()

        monkeypatch.setattr(verify, "check_lemma5", recorded)
        try:
            for _, put in blas:
                put(2)
            assert run_suite(SuiteConfig(groups=("lemma5",), threads=1)).all_passed
            assert inside == [(None, [1] * len(blas))]
            assert [get() for get, _ in blas] == [2] * len(blas)
        finally:
            for (_, put), count in zip(blas, original):
                put(count)

    @pytest.mark.parametrize("threads", [None, 2])
    def test_only_pool_threads_start(self, workers, monkeypatch, threads):
        # every task runs on the caller; the threads the run starts are the
        # sampling pool's workers, at most its width
        caller, before = threading.current_thread(), set(threading.enumerate())
        callers, started, build = set(), set(), verify._build_tasks

        def watched(fn):
            def call():
                checks = fn()
                callers.add(threading.current_thread())
                started.update(set(threading.enumerate()) - before)
                return checks
            return call

        monkeypatch.setattr(verify, "_build_tasks",
                            lambda cfg: [(group, watched(fn)) for group, fn in build(cfg)])
        assert run_suite(dataclasses.replace(self.SMALL, threads=threads)).all_passed
        assert callers == {caller}
        assert 0 < len(started) <= min(threads or workers, workers)
        assert all(thread.name.startswith("condana") for thread in started)

    def test_no_serial_draw_in_scope(self, workers, splits, monkeypatch):
        # at 1,000 samples many draws are one piece, or a few small ones:
        # inside the scope they too run through ``_split``
        self._assert_no_serial_draw(splits, monkeypatch, None)

    def test_no_serial_draw_in_width_one_scope(self, workers, splits, monkeypatch):
        # a width-1 scope runs the same piece kernels on the calling thread
        self._assert_no_serial_draw(splits, monkeypatch, 1)

    @staticmethod
    def _assert_no_serial_draw(splits, monkeypatch, threads):
        inner, calls = condition._serial, []

        def counted(*args):
            calls.append(args[-1])
            return inner(*args)

        monkeypatch.setattr(condition, "_serial", counted)
        suite = run_suite(SuiteConfig(samples=1000, trials=10, threads=threads))
        assert suite.checks and splits["condition"]
        assert calls == []

    def test_openblas_threads_restored(self, workers, monkeypatch):
        blas = sampling._openblas_threads()
        assert blas, "no OpenBLAS thread-count entry point found"
        original = [get() for get, _ in blas]
        seen = []

        def failing(*args):
            seen.append([get() for get, _ in blas])
            raise ArithmeticError("task failed")

        try:
            for _, put in blas:
                put(2)
            assert run_suite(SuiteConfig(groups=("lemma5",))).all_passed
            assert [get() for get, _ in blas] == [2] * len(blas)
            monkeypatch.setattr(verify, "check_lemma5", failing)
            with pytest.raises(ArithmeticError, match="task failed"):
                run_suite(SuiteConfig(groups=("lemma5",)))
            assert seen == [[1] * len(blas)]
            assert [get() for get, _ in blas] == [2] * len(blas)
            assert sampling._pool is None
        finally:
            for (_, put), count in zip(blas, original):
                put(count)

    def test_public_functions_run_on_the_opening_thread(self, workers, splits, monkeypatch):
        # pool workers call only private functions: the public ones are
        # where callers (and tracers) hook in, and need not be thread-safe
        opener, strays = threading.get_ident(), []

        def guarded(fn, name):
            def call(*args, **kwargs):
                if threading.get_ident() != opener:
                    strays.append(name)
                return fn(*args, **kwargs)
            return call

        modules = [module for name, module in sys.modules.items()
                   if name.startswith("condana.")]
        for layer in (sampling, condition):
            for attr, fn in list(vars(layer).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != layer.__name__):
                    continue
                wrapped = guarded(fn, f"{layer.__name__}.{attr}")
                for module in modules:
                    if vars(module).get(attr) is fn:
                        monkeypatch.setattr(module, attr, wrapped)
        for method in ("words", "uniforms", "symmetric", "normals", "split"):
            monkeypatch.setattr(SampleStream, method,
                                guarded(getattr(SampleStream, method), method))
        cfg = dataclasses.replace(self.SMALL, groups=GROUPS, trials=3)
        assert run_suite(cfg).all_passed
        assert splits["condition"]
        assert strays == []
