"""Command-line surface: condition analyses, bound-verification suites,
delta sweeps, and moment tables, emitted as CSV or JSON.

Floats are serialized with 17 significant digits so reports round-trip
losslessly; infinite condition numbers appear as a boolean flag column,
never as IEEE infinity. Exit codes: 0 success / all checks passed,
1 usage or configuration error, 2 completed with degenerate or failed
rows, 3 internal numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import closed_forms
from .condition import (
    ConditionReport,
    EstimatorConfig,
    PowerIterationError,
    SweepReport,
    delta_sweep,
    report,
)
from .problems import (
    NonFiniteEvaluationError,
    Problem,
    get_problem,
    load_matrix_problem,
    random_point,
)
from .sampling import SampleStream, _parallel
from .verify import GROUPS, SuiteConfig, run_suite

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FLAGGED = 2
EXIT_NUMERICAL = 3


class UsageError(Exception):
    """Bad flags or configuration; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _fmt(value) -> str:
    """One CSV cell: 17 significant digits for floats, empty for missing."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _jsonable(value):
    return None if isinstance(value, float) and math.isnan(value) else value


def write_rows(rows: list[dict], fields: list[str], fmt: str, out_path: str | None,
               meta: dict | None = None) -> None:
    """Emit rows to a file or stdout. CSV: header plus one line per row.
    JSON: {"meta": ..., "rows": [...]} with the same field order."""
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(fields)
        for row in rows:
            writer.writerow([_fmt(row.get(f)) for f in fields])
        text = buf.getvalue()
    else:
        payload = {"meta": meta or {}, "rows": [
            {f: _jsonable(row.get(f)) for f in fields} for row in rows
        ]}
        text = json.dumps(payload, indent=2) + "\n"
    if out_path in (None, "-"):
        sys.stdout.write(text)
        return
    try:
        Path(out_path).write_text(text)
    except OSError as exc:
        raise UsageError(f"cannot write {out_path}: {exc.strerror}") from None


def _floats(text: str, what: str) -> list[float]:
    try:
        return [float(tok) for tok in text.replace(",", " ").split()]
    except ValueError:
        raise UsageError(f"could not parse {what} {text!r}") from None


def _parse_point(text: str, problem: Problem, stream: SampleStream) -> np.ndarray:
    if text == "random":
        # reproducible but non-degenerate: redraw while any |f_j| < 1e-9
        try:
            return random_point(problem, stream, min_component=1e-9)
        except RuntimeError as exc:
            raise UsageError(f"{exc}; give one with --point") from None
    values = _floats(text, "point")
    if len(values) != problem.m:
        raise UsageError(f"point has {len(values)} coordinates, problem needs {problem.m}")
    if not all(map(math.isfinite, values)):
        raise UsageError(f"point {text!r} has a non-finite coordinate")
    return np.array(values)


def _parse_range(text: str) -> tuple[int, int]:
    try:
        if ":" in text:
            lo, hi = text.split(":", 1)
            pair = (int(lo), int(hi))
        else:
            pair = (int(text), int(text))
    except ValueError:
        raise UsageError(f"could not parse range {text!r}; use LO:HI") from None
    if pair[0] > pair[1] or pair[0] < 0:
        raise UsageError(f"bad range {text!r}")
    return pair


def _load_problem(spec: str) -> Problem:
    if os.path.exists(spec):
        try:
            return load_matrix_problem(spec)
        except (OSError, ValueError) as exc:
            raise UsageError(str(exc)) from None
    try:
        return get_problem(spec)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="condana",
                     description="Condition-number analysis and bound verification")
    parser.add_argument("--command", required=True,
                        choices=("analyze", "verify", "sweep", "moments"))
    parser.add_argument("--problem", help="corpus problem name or matrix file path")
    parser.add_argument("--point", default="random",
                        help="comma-separated coordinates, or 'random'")
    parser.add_argument("--samples", type=int, default=100_000, help="samples N; sweep: "
                        "ceil(N/2) mirrored pairs, 2 ceil(N/2) points per delta and region")
    parser.add_argument("--seed", type=int, default=42,
                        help="master seed (CONDANA_SEED overrides when set)")
    parser.add_argument("--deltas", help="comma-separated decreasing deltas (sweep)")
    parser.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv")
    parser.add_argument("--out", help="output path; stdout when omitted")
    parser.add_argument("--m-range", help="dimension range LO:HI")
    parser.add_argument("--n-range", help="output-dimension range LO:HI (verify)")
    parser.add_argument("--trials", type=int, default=100,
                        help="random problem instances for the norm-wise suite")
    parser.add_argument("--checks", help="comma-separated verify groups "
                        f"(subset of: {', '.join(GROUPS)})")
    parser.add_argument("--threads", type=int,
                        help="sampling pool width; default every CPU in the affinity mask")
    return parser


ANALYZE_FIELDS = [
    "problem", "point", "m", "n", "k", "j", "wnc", "wcc_j",
    "snc_est", "snc_half_width", "snc_exact", "snlp", "snlp_half_width",
    "scc_j", "scc_half_width", "sclp_j", "sclp_half_width", "log_skewness",
    "flag_norm_degenerate", "flag_output_degenerate",
]


#: analyze cell -> StochasticEstimate field: norm-wise for sn*, output j's else
ESTIMATE_CELLS = {
    "snc_est": "estimate", "snc_half_width": "half_width", "snc_exact": "exact",
    "snlp": "log_estimate", "snlp_half_width": "log_half_width",
    "scc_j": "estimate", "scc_half_width": "half_width", "sclp_j": "log_estimate",
    "sclp_half_width": "log_half_width", "log_skewness": "log_skewness",
}


def _analyze_rows(rep: ConditionReport) -> list[dict]:
    point_str = " ".join(format(v, ".17g") for v in rep.point)
    rows = []
    for j in range(rep.n):
        row = {
            "problem": rep.problem, "point": point_str,
            "m": rep.m, "n": rep.n, "k": rep.k, "j": j,
            "wnc": rep.wnc, "wcc_j": rep.wcc[j],
            "flag_norm_degenerate": rep.degenerate_norm,
            "flag_output_degenerate": j in rep.degenerate_outputs,
        }
        for cell, field in ESTIMATE_CELLS.items():
            est = rep.snc if cell.startswith("sn") else rep.scc[j]
            row[cell] = getattr(est, field) if est else None
        rows.append(row)
    return rows


def _point_setup(args) -> tuple[Problem, np.ndarray, EstimatorConfig]:
    """The problem, point and estimator configuration of analyze and sweep;
    the point and the estimators draw from the two halves of the seed."""
    if not args.problem:
        raise UsageError(f"{args.command} needs --problem")
    problem = _load_problem(args.problem)
    point_stream, est_stream = SampleStream(args.seed).split(2)
    x = _parse_point(args.point, problem, point_stream)
    return problem, x, EstimatorConfig(stream=est_stream, samples=args.samples)


def run_analyze(args) -> int:
    rep = report(*_point_setup(args))
    rows = _analyze_rows(rep)
    meta = {"command": "analyze", "seed": args.seed, "samples": args.samples}
    write_rows(rows, ANALYZE_FIELDS, args.fmt, args.out, meta)
    flagged = rep.degenerate_norm or bool(rep.degenerate_outputs)
    return EXIT_FLAGGED if flagged else EXIT_OK


VERIFY_FIELDS = [
    "name", "instance", "computed", "bound", "relation", "slack",
    "tolerance_or_halfwidth", "passed", "warning",
]


def run_verify(args) -> int:
    groups = tuple(GROUPS)
    if args.checks:
        groups = tuple(tok.strip() for tok in args.checks.split(",") if tok.strip())
    try:
        cfg = SuiteConfig(
            seed=args.seed,
            samples=args.samples,
            trials=args.trials,
            m_range=_parse_range(args.m_range) if args.m_range else None,
            n_range=_parse_range(args.n_range) if args.n_range else None,
            groups=groups,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    suite = run_suite(cfg)
    if not suite.checks:
        raise UsageError("the selected groups, trials and ranges yield no checks")
    rows = [{f: getattr(c, f) for f in VERIFY_FIELDS} for c in suite.checks]
    meta = {"command": "verify", "seed": suite.seed,
            "passed": suite.passed_count, "failed": suite.failed_count}
    write_rows(rows, VERIFY_FIELDS, args.fmt, args.out, meta)
    return EXIT_OK if suite.all_passed else EXIT_FLAGGED


SWEEP_FIELDS = [
    "problem", "point", "delta", "j", "snc_fd", "snc_fd_half_width",
    "snc_linearized", "scc_fd_j", "scc_fd_half_width", "scc_linearized_j",
    "flag_underflow", "slope_snc", "slope_scc_j",
]


#: Gaps up to this many units of eps * |linearized| / delta are rounding.
_ROUNDING_FLOOR_ULPS = 2.0**10


def _fit_slope(points) -> float | None:
    """log-log slope of |finite-delta - linearized| against delta, over the
    deltas whose gap is above the rounding floor; None below two of them."""
    xs, ys = [], []
    for pt, lin in points:
        if pt.underflowed or lin is None:
            continue
        gap = abs(pt.estimate - lin)
        # the estimate divides f(x + offset) - f(x) by delta; the rounding of
        # that difference, some ulps amplified like the condition number
        # |lin|, is divided too, so the floor grows as 1/delta
        if gap > _ROUNDING_FLOOR_ULPS * 2.0**-52 * abs(lin) / pt.delta:
            xs.append(math.log2(pt.delta))
            ys.append(math.log2(gap))
    if len(xs) < 2:
        return None
    return float(np.polyfit(xs, ys, 1)[0])


def _sweep_rows(rep: SweepReport) -> tuple[list[dict], bool]:
    point_str = " ".join(format(v, ".17g") for v in rep.point)
    slope_snc = _fit_slope([(pt, rep.snc_linearized) for pt in rep.snc_by_delta])
    slopes_scc = [
        _fit_slope([(pt, rep.scc_linearized[j]) for pt in rep.scc_by_delta[j]])
        if rep.scc_by_delta[j] else None
        for j in range(len(rep.scc_linearized))
    ]
    rows = []
    any_flag = rep.degenerate_norm or bool(rep.degenerate_outputs)
    for d_idx, delta in enumerate(rep.deltas):
        snc_pt = rep.snc_by_delta[d_idx] if rep.snc_by_delta else None
        for j in range(len(rep.scc_linearized)):
            scc_pt = rep.scc_by_delta[j][d_idx] if rep.scc_by_delta[j] else None
            underflow = bool((snc_pt and snc_pt.underflowed) or
                             (scc_pt and scc_pt.underflowed))
            any_flag = any_flag or underflow
            rows.append({
                "problem": rep.problem, "point": point_str, "delta": delta, "j": j,
                "snc_fd": snc_pt.estimate if snc_pt else None,
                "snc_fd_half_width": snc_pt.half_width if snc_pt else None,
                "snc_linearized": rep.snc_linearized,
                "scc_fd_j": scc_pt.estimate if scc_pt else None,
                "scc_fd_half_width": scc_pt.half_width if scc_pt else None,
                "scc_linearized_j": rep.scc_linearized[j],
                "flag_underflow": underflow,
                "slope_snc": slope_snc,
                "slope_scc_j": slopes_scc[j],
            })
    return rows, any_flag


def run_sweep(args) -> int:
    problem, x, cfg = _point_setup(args)
    if not args.deltas:
        raise UsageError("sweep needs --deltas")
    try:
        rep = delta_sweep(problem, x, _floats(args.deltas, "deltas"), cfg)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    rows, flagged = _sweep_rows(rep)
    meta = {"command": "sweep", "seed": args.seed, "samples": args.samples}
    write_rows(rows, SWEEP_FIELDS, args.fmt, args.out, meta)
    return EXIT_FLAGGED if flagged else EXIT_OK


MOMENTS_FIELDS = [
    "m", "e_norm", "e_norm_sq", "e_log_norm", "e_abs_cos", "e_cos_sq",
    "e_log_abs_cos", "snc_wnc_ratio", "snlp_gap_bits",
    "t1_ratio_lo", "t1_ratio_hi", "t1_gap_lo", "t1_gap_hi",
    "t2_ratio_lo", "t2_ratio_hi", "t2_gap_lo", "t2_gap_hi", "epsilon_m",
]


def run_moments(args) -> int:
    if not args.m_range:
        raise UsageError("moments needs --m-range")
    lo, hi = _parse_range(args.m_range)
    if lo < 1:
        raise UsageError("moments needs m >= 1")
    rows = []
    for m in range(lo, hi + 1):
        e_norm, e_norm_sq, e_log_norm = closed_forms.ball_moments(m)
        # the cosine moments are defined for m >= 3 only
        e_abs_cos, e_cos_sq, e_log_abs_cos = (
            closed_forms.cos_moments(m) if m >= 3 else (None, None, None))
        ratio, gap = closed_forms.snc_wnc_exact(m)
        row = {
            "m": m, "e_norm": e_norm, "e_norm_sq": e_norm_sq,
            "e_log_norm": e_log_norm, "e_abs_cos": e_abs_cos,
            "e_cos_sq": e_cos_sq, "e_log_abs_cos": e_log_abs_cos,
            "snc_wnc_ratio": ratio, "snlp_gap_bits": gap,
        }
        # theorem 2 is stated for m > 1 only; its cells stay empty at m = 1
        bounds = {"t1": closed_forms.theorem1_bounds(m, 1)}
        if m > 1:
            bounds["t2"] = closed_forms.theorem2_bounds(m)
            row["epsilon_m"] = closed_forms.epsilon_m(m)
        for prefix, b in bounds.items():
            row.update({f"{prefix}_{name}": value for name, value in asdict(b).items()})
        rows.append(row)
    meta = {"command": "moments"}
    write_rows(rows, MOMENTS_FIELDS, args.fmt, args.out, meta)
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        env_seed = os.environ.get("CONDANA_SEED")
        if env_seed is not None:
            try:
                args.seed = int(env_seed)
            except ValueError:
                raise UsageError(f"CONDANA_SEED={env_seed!r} is not an integer") from None
        if not 0 <= args.seed < 2**64:
            raise UsageError(f"seed {args.seed} is not in [0, 2**64)")
        if args.samples < 100:
            raise UsageError("--samples must be >= 100")
        if args.threads is not None and args.threads < 1:
            raise UsageError("threads must be >= 1")
        dispatch = {"analyze": run_analyze, "verify": run_verify,
                    "sweep": run_sweep, "moments": run_moments}
        with _parallel(args.threads):
            return dispatch[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (PowerIterationError, NonFiniteEvaluationError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
