"""Output checks, failure classification and summary statistics.

Every operation a workload attempts is checked against an oracle that is
independent of the code path that produced it. An operation that raises or
fails its check counts as failed. A failure is *explained* when it matches
one of the defects recorded in ``KNOWN_DEFECTS``; any other failure makes
the run incorrect, so a regression cannot hide behind the known defects.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

from condana.condition import PowerIterationError

#: Defects the seed commit shows on these workloads. They count as failed
#: operations; they do not make a run incorrect.
KNOWN_DEFECTS = {
    "power-iteration-clustered": (
        "spectral_norm raises PowerIterationError on a well-posed matrix whose "
        "two largest singular values lie within 1e-3 of each other"),
    "sweep-offset-sign": (
        "delta_sweep pairs cube offsets delta*|x|*u with linearized weights x*J, "
        "so at a point with a negative coordinate the finite-delta value is off "
        "by Monte-Carlo noise, not by rounding"),
}

#: Relative agreement the exact quantities must reach.
EXACT_RTOL = 1e-9
#: Monte-Carlo agreement, in confidence half-widths (the verify suite's rule).
HALF_WIDTHS = 4.0
#: Top-two singular-value ratio above which power iteration is expected to stall.
CLUSTERED_RATIO = 1.0 - 1e-3


def percentile(sorted_values, p: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    n = len(sorted_values)
    rank = max(1, math.ceil(p / 100.0 * n))
    return sorted_values[rank - 1]


def tail_percentile(n: int) -> int:
    """Highest whole percentile, at most 99, with at least 10 of ``n`` samples
    beyond it; 100 (the maximum) when ``n`` is too small for any."""
    for p in range(99, 0, -1):
        if n - math.ceil(p / 100.0 * n) >= 10:
            return p
    return 100


def latency_summary(latencies_s) -> dict:
    """Median and tail latency in ms, with the tail's percentile and the count."""
    values = sorted(latencies_s)
    p = tail_percentile(len(values))
    return {
        "count": len(values),
        "p50_ms": 1e3 * percentile(values, 50),
        "tail_percentile": p,
        "tail_ms": 1e3 * percentile(values, p),
    }


def _close(value, expected, rtol=EXACT_RTOL) -> bool:
    return value is not None and abs(value - expected) <= rtol * abs(expected)


# ---------------------------------------------------------------------------
# analyze-scan


def check_report(rep, x, y, jac) -> list[str]:
    """Reasons a ConditionReport disagrees with its oracles; empty when it passes.

    ``y`` and ``jac`` are f(x) and the Jacobian the report is built on.
    """
    reasons = []
    if rep.degenerate_norm or rep.degenerate_outputs:
        reasons.append("degenerate flag on a non-degenerate point")
        return reasons
    xnorm = float(np.linalg.norm(x))
    wnc = xnorm * float(np.linalg.svd(jac, compute_uv=False)[0]) / float(np.linalg.norm(y))
    if not _close(rep.wnc, wnc):
        reasons.append(f"wnc {rep.wnc!r} != svd oracle {wnc!r}")
    for j in range(jac.shape[0]):
        wcc = float(np.sum(np.abs(x * jac[j]))) / abs(float(y[j]))
        if not _close(rep.wcc[j], wcc, 1e-12):
            reasons.append(f"wcc[{j}] {rep.wcc[j]!r} != formula {wcc!r}")
    if rep.snc.exact is not None and (
            abs(rep.snc.estimate - rep.snc.exact) > HALF_WIDTHS * rep.snc.half_width):
        reasons.append(f"snc estimate {rep.snc.estimate!r} far from exact {rep.snc.exact!r}")
    for j, est in enumerate(rep.scc):
        if est.exact is not None and abs(est.estimate - est.exact) > HALF_WIDTHS * est.half_width:
            reasons.append(f"scc[{j}] estimate {est.estimate!r} far from exact {est.exact!r}")
    return reasons


def classify_report_error(exc: BaseException, jac) -> str | None:
    """Known defect behind a failed report, or None when unexplained."""
    if isinstance(exc, PowerIterationError):
        sigma = np.linalg.svd(jac, compute_uv=False)
        if sigma.size > 1 and sigma[1] / sigma[0] > CLUSTERED_RATIO:
            return "power-iteration-clustered"
    return None


# ---------------------------------------------------------------------------
# sweep


def parse_csv(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def _num(cell: str) -> float | None:
    return None if cell == "" else float(cell)


def check_sweep_row(row: dict, kind: str, x, y, jac) -> tuple[list[str], str | None]:
    """Check one CLI sweep row against the exact Taylor-remainder bounds.

    ``kind`` is "linear" (finite-delta must equal linearized to rounding) or
    "product" (f = x1*x2, whose second-order term is delta^2 * u1*u2 in
    scaled units). Returns the failure reasons and, when every reason is
    explained by a recorded defect, that defect's name.
    """
    j = int(row["j"])
    delta = float(row["delta"])
    if row["flag_underflow"] != "false":
        return [f"delta={delta:g} j={j}: flagged as underflowed"], None
    snc_fd, snc_lin = _num(row["snc_fd"]), _num(row["snc_linearized"])
    scc_fd, scc_lin = _num(row["scc_fd_j"]), _num(row["scc_linearized_j"])
    if kind == "linear":
        snc_gap = scc_gap = 0.0
    else:
        snc_gap = delta * float(np.dot(x, x)) / (2.0 * float(np.linalg.norm(y)))
        scc_gap = delta
    reasons, scc_failed = [], False
    if snc_fd is None or abs(snc_fd - snc_lin) > snc_gap + EXACT_RTOL * abs(snc_lin):
        reasons.append(f"delta={delta:g} j={j}: snc_fd {snc_fd!r} vs linearized {snc_lin!r}")
    if scc_fd is None or abs(scc_fd - scc_lin) > scc_gap + EXACT_RTOL * abs(scc_lin):
        reasons.append(f"delta={delta:g} j={j}: scc_fd {scc_fd!r} vs linearized {scc_lin!r}")
        scc_failed = True
    if not reasons:
        return reasons, None
    defect = None
    if len(reasons) == 1 and scc_failed:
        # |x|*u pairs with x*J up to one global sign only when the
        # coordinates carrying weight share a sign; otherwise the pairing
        # differs per sample and costs Monte-Carlo noise, a few half-widths
        signs = np.sign(x[(x * jac[j]) != 0.0])
        mixed_signs = signs.size > 0 and signs.min() < 0.0 < signs.max()
        noise = 2.0 * HALF_WIDTHS * float(row["scc_fd_half_width"]) + scc_gap
        if mixed_signs and abs(scc_fd - scc_lin) <= noise:
            defect = "sweep-offset-sign"
    return reasons, defect
