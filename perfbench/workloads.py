"""The three benchmark workloads: inputs drawn from the workload seed, the
timed closed loop (one caller, one thread), and the output checks.

- ``verify``: the default suite, run through the CLI entry point exactly as
  ``condana --command verify --seed S --out FILE`` runs it.
- ``analyze-scan``: ``report`` at 1,000 samples per estimator, cycling over
  22 problems: the 9 corpus problems, the same 9 without their analytic
  Jacobians (the central-difference path), seed-drawn linear problems of
  shape 30x7, 7x30 and 30x30 (the power-iteration path), and one fixed
  6x5 matrix whose top two singular values differ by 1e-5.
- ``sweep``: ``condana --command sweep`` at 100k samples and four deltas,
  on ``product`` (nonlinear, n = 1) and ``matvec`` (linear, n = 2).

A pass is one unit of the workload's work list (the suite; one report per
problem; both sweeps). The first pass always runs; another starts only if,
taking as long as the last one, it would end within ``seconds``. Checks run
after the timed loop.
"""

from __future__ import annotations

import dataclasses
import hashlib
import resource
from pathlib import Path
from time import perf_counter

import numpy as np

from condana import cli, condition, problems
from condana.sampling import SampleStream
from condana.verify import SuiteConfig

import checks

WORKLOADS = ("verify", "analyze-scan", "sweep")

#: Checks the default suite produces; the count does not depend on the seed.
VERIFY_CHECKS = 11_314
ANALYZE_SAMPLES = 1_000
LINEAR_SHAPES = ((30, 7), (7, 30), (30, 30))  # (n, m)
#: Singular values of the clustered matrix: a well-posed input whose top
#: two singular values differ by 1e-5 relative.
CLUSTERED_SIGMA = (1.0, 1.0 - 1e-5, 0.5, 0.25, 0.125)
CLUSTERED_SEED = 0xC1057E4
SWEEP_SAMPLES = 100_000
SWEEP_DELTAS = "1e-2,1e-3,1e-4,1e-5"
#: Sweep problems and the exact bound their rows are checked against.
SWEEP_PROBLEMS = (("product", "product"), ("matvec", "linear"))


def sample_counts() -> dict:
    suite = SuiteConfig()
    return {
        "verify": {"samples": suite.samples, "trials": suite.trials,
                   "theorem2_random_g": suite.theorem2_random_g,
                   "lemma6_trials": suite.lemma6_trials, "threads": suite.threads},
        "analyze-scan": {"samples_per_estimator": ANALYZE_SAMPLES},
        "sweep": {"samples": SWEEP_SAMPLES, "deltas": SWEEP_DELTAS},
    }


def _fmt(value) -> str:
    return "" if value is None else format(value, ".17g")


def _point_arg(x) -> str:
    # "--point=..." keeps a leading minus sign from reading as a flag
    return "--point=" + ",".join(_fmt(v) for v in x)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _sha256(*texts: str) -> str:
    digest = hashlib.sha256()
    for text in texts:
        digest.update(text.encode())
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# inputs


def clustered_matrix() -> np.ndarray:
    """Fixed 6x5 matrix U diag(CLUSTERED_SIGMA) V' with orthonormal U, V."""
    stream = SampleStream(CLUSTERED_SEED)
    u, _ = np.linalg.qr(stream.normals(30).reshape(6, 5))
    v, _ = np.linalg.qr(stream.normals(25).reshape(5, 5))
    return u @ np.diag(CLUSTERED_SIGMA) @ v.T


@dataclasses.dataclass
class AnalyzeInputs:
    problems: list
    point_seeds: list[int]
    estimator_seeds: list[int]

    def point(self, index: int, visit: int) -> np.ndarray:
        """The CLI's random point: box (-2, 2), every |f_j| >= 1e-9."""
        stream = SampleStream(self.point_seeds[index], visit)
        return problems.random_point(self.problems[index], stream, min_component=1e-9)

    def config(self, index: int, visit: int):
        stream = SampleStream(self.estimator_seeds[index], visit)
        return condition.EstimatorConfig(stream=stream, samples=ANALYZE_SAMPLES)


def analyze_inputs(seed: int) -> AnalyzeInputs:
    matrices, points, estimators = SampleStream(seed).split(3)
    corpus = problems.list_problems()
    without_jac = [dataclasses.replace(p, name=f"{p.name}-fd", jac=None) for p in corpus]
    linear = [problems.random_linear_problem(m, n, stream, name=f"linear-{n}x{m}")
              for (n, m), stream in zip(LINEAR_SHAPES, matrices.split(len(LINEAR_SHAPES)))]
    clustered = problems.linear_problem(clustered_matrix(), name="clustered-6x5")
    probs = corpus + without_jac + linear + [clustered]
    return AnalyzeInputs(
        problems=probs,
        point_seeds=[s.seed for s in points.split(len(probs))],
        estimator_seeds=[s.seed for s in estimators.split(len(probs))],
    )


@dataclasses.dataclass
class SweepCase:
    problem: object
    kind: str
    point: np.ndarray
    seed: int  # the CLI's --seed, which keys the estimator stream


def sweep_inputs(seed: int) -> list[SweepCase]:
    """One point per problem, each from its own sub-stream of the seed."""
    points, estimators = SampleStream(seed).split(2)
    cases = []
    for (name, kind), ps, es in zip(SWEEP_PROBLEMS, points.split(len(SWEEP_PROBLEMS)),
                                    estimators.split(len(SWEEP_PROBLEMS))):
        problem = problems.get_problem(name)
        x = problems.random_point(problem, ps, min_component=1e-9)
        cases.append(SweepCase(problem, kind, x, es.seed))
    return cases


def prepare(workload: str, seed: int):
    """Everything a workload builds before its first timed call."""
    if workload == "verify":
        return None
    if workload == "analyze-scan":
        return analyze_inputs(seed)
    return sweep_inputs(seed)


# ---------------------------------------------------------------------------
# timed loops and checks


@dataclasses.dataclass
class Outcome:
    """What one workload run measured and what its checks found."""

    passes: list[float]          # wall time of each pass, s
    calls: list[float]           # latency of each completed call, s: a verify
                                 # or sweep command, or a report that returned
    attempted: int               # operations: checks, reports or sweep rows
    failed: int
    defects: dict[str, int]      # failed operations explained by a known defect
    unexplained: list[str]       # failed operations no known defect explains
    digest: str                  # sha256 of the first pass's output
    peak_rss_mb: float
    entry_calls: int             # calls attempted


def _tally(failures, run_errors=()) -> tuple[int, dict, list]:
    """Count failed operations, split into known defects and unexplained
    reasons; ``run_errors`` are problems of the run as a whole."""
    defects: dict[str, int] = {}
    unexplained = list(run_errors)
    for reasons, defect in failures:
        if defect is None:
            unexplained.append("; ".join(reasons))
        else:
            defects[defect] = defects.get(defect, 0) + 1
    return len(failures), defects, unexplained


def _passes(seconds: float):
    """Yield pass numbers 0, 1, ... while the next pass would end in time."""
    start = perf_counter()
    index, last = 0, 0.0
    while index == 0 or perf_counter() - start + last <= seconds:
        t0 = perf_counter()
        yield index
        last = perf_counter() - t0
        index += 1


def run_verify(seed: int, seconds: float, workdir: Path, after_timing) -> Outcome:
    out = workdir / f"verify-{seed}.csv"
    argv = ["--command", "verify", "--seed", str(seed), "--out", str(out)]
    passes, codes, texts = [], [], []
    for _ in _passes(seconds):
        t0 = perf_counter()
        codes.append(cli.main(argv))
        passes.append(perf_counter() - t0)
        texts.append(out.read_text())
    rss = _peak_rss_mb()
    after_timing()

    failures, run_errors, attempted = [], [], 0
    for code, text in zip(codes, texts):
        rows = checks.parse_csv(text)
        attempted += max(len(rows), VERIFY_CHECKS)
        failures += [([f"{r['name']} {r['instance']} failed"], None)
                     for r in rows if r["passed"] != "true"]
        failures += [([f"check missing: {len(rows)} of {VERIFY_CHECKS}"], None)
                     ] * (VERIFY_CHECKS - len(rows))
        if len(rows) > VERIFY_CHECKS:
            run_errors.append(f"{len(rows)} checks, expected {VERIFY_CHECKS}")
        if (code == cli.EXIT_OK) != all(r["passed"] == "true" for r in rows):
            run_errors.append(f"exit code {code} disagrees with the checks")
    if any(text != texts[0] for text in texts):
        run_errors.append("verify output differs between passes")
    failed, defects, unexplained = _tally(failures, run_errors)
    return Outcome(passes, list(passes), attempted, failed, defects, unexplained,
                   _sha256(texts[0]), rss, len(passes))


def report_line(name: str, x, result) -> str:
    """Canonical text of one report, or of its failure, for the digest."""
    head = f"{name} {' '.join(_fmt(v) for v in x)}"
    if isinstance(result, BaseException):
        return f"{head} error {type(result).__name__}\n"
    values = [result.wnc, *result.wcc]
    for est in [result.snc, *result.scc]:  # None marks a flagged output
        values += [None] * 5 if est is None else [
            est.estimate, est.half_width, est.log_estimate, est.log_half_width, est.exact]
    return f"{head} {' '.join(_fmt(v) for v in values)}\n"


def run_analyze(inputs: AnalyzeInputs, seconds: float, after_timing) -> Outcome:
    attempts = []  # (problem index, point, report or exception)
    passes, calls = [], []
    for visit in _passes(seconds):
        elapsed = 0.0
        for index, problem in enumerate(inputs.problems):
            x = inputs.point(index, visit)
            cfg = inputs.config(index, visit)
            t0 = perf_counter()
            try:
                result = condition.report(problem, x, cfg)
            except Exception as exc:  # a failed report is a counted outcome
                result = exc
            took = perf_counter() - t0
            elapsed += took
            if not isinstance(result, Exception):
                calls.append(took)
            attempts.append((index, x, result))
        passes.append(elapsed)
    rss = _peak_rss_mb()
    after_timing()

    failures = []
    for index, x, result in attempts:
        problem = inputs.problems[index]
        y = problems.evaluate(problem, x)
        jac = problems.jacobian(problem, x).matrix
        if isinstance(result, Exception):
            failures.append(([f"{problem.name}: {type(result).__name__}: {result}"],
                             checks.classify_report_error(result, jac)))
            continue
        reasons = checks.check_report(result, x, y, jac)
        if reasons:
            failures.append(([f"{problem.name}: {r}" for r in reasons], None))
    failed, defects, unexplained = _tally(failures)
    first = "".join(report_line(inputs.problems[i].name, x, r)
                    for i, x, r in attempts[:len(inputs.problems)])
    return Outcome(passes, calls, len(attempts), failed, defects, unexplained,
                   _sha256(first), rss, len(attempts))


def run_sweep(cases: list[SweepCase], seconds: float, workdir: Path, after_timing) -> Outcome:
    argvs = []
    for case in cases:
        out = workdir / f"sweep-{case.problem.name}-{case.seed}.csv"
        argvs.append((out, ["--command", "sweep", "--problem", case.problem.name,
                            _point_arg(case.point), "--deltas", SWEEP_DELTAS,
                            "--samples", str(SWEEP_SAMPLES), "--seed", str(case.seed),
                            "--out", str(out)]))
    passes, calls, results = [], [], []  # results: (case, exit code, csv text)
    for _ in _passes(seconds):
        elapsed = 0.0
        for case, (out, argv) in zip(cases, argvs):
            t0 = perf_counter()
            code = cli.main(argv)
            took = perf_counter() - t0
            elapsed += took
            calls.append(took)
            ok = code in (cli.EXIT_OK, cli.EXIT_FLAGGED)
            results.append((case, code, out.read_text() if ok else ""))
        passes.append(elapsed)
    rss = _peak_rss_mb()
    after_timing()

    deltas = len(SWEEP_DELTAS.split(","))
    failures, attempted = [], 0
    for case, code, text in results:
        expected = deltas * case.problem.n
        attempted += expected
        rows = checks.parse_csv(text)
        if code not in (cli.EXIT_OK, cli.EXIT_FLAGGED) or len(rows) != expected:
            failures += [([f"{case.problem.name}: exit code {code}, {len(rows)} rows"], None)
                         ] * expected
            continue
        y = problems.evaluate(case.problem, case.point)
        jac = problems.jacobian(case.problem, case.point).matrix
        for row in rows:
            reasons, defect = checks.check_sweep_row(row, case.kind, case.point, y, jac)
            if reasons:
                failures.append(([f"{case.problem.name}: {r}" for r in reasons], defect))
    first = [text for _, _, text in results[:len(cases)]]
    run_errors = []
    if any(text != first[i % len(cases)] for i, (_, _, text) in enumerate(results)):
        run_errors.append("sweep output differs between passes")
    failed, defects, unexplained = _tally(failures, run_errors)
    return Outcome(passes, calls, attempted, failed, defects, unexplained,
                   _sha256(*first), rss, len(results))


def run(workload: str, inputs, seed: int, seconds: float, workdir: Path,
        after_timing=None) -> Outcome:
    """Measure one workload; ``after_timing`` runs between the timed loop
    and the checks (the traced run removes its wrappers there)."""
    after_timing = after_timing or (lambda: None)
    if workload == "verify":
        return run_verify(seed, seconds, workdir, after_timing)
    if workload == "analyze-scan":
        return run_analyze(inputs, seconds, after_timing)
    return run_sweep(inputs, seconds, workdir, after_timing)
