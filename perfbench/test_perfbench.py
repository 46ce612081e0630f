"""Tests of the benchmark's own helpers.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import math

import numpy as np
import pytest

import checks
import tracer as tracer_mod
import workloads
from condana import cli
from condana.sampling import SampleStream


@pytest.mark.parametrize("n, expected", [(1000, 99), (999, 98), (165, 93), (11, 9), (10, 100),
                                         (2, 100), (1, 100)])
def test_tail_percentile_is_highest_with_ten_beyond(n, expected):
    p = checks.tail_percentile(n)
    assert p == expected
    if p < 100:
        assert n - math.ceil(p * n / 100) >= 10
        assert p == 99 or n - math.ceil((p + 1) * n / 100) < 10


def test_latency_summary_uses_nearest_rank():
    summary = checks.latency_summary([i / 1000 for i in range(1, 1001)])  # 1..1000 ms
    assert summary["count"] == 1000
    assert summary["p50_ms"] == pytest.approx(500.0)
    assert summary["tail_percentile"] == 99
    assert summary["tail_ms"] == pytest.approx(990.0)


@pytest.fixture
def clock(monkeypatch):
    now = [0.0]
    monkeypatch.setattr(tracer_mod, "perf_counter", lambda: now[0])
    return now


def test_self_time_with_nested_and_aggregated_spans(clock):
    tr = tracer_mod.Tracer()

    def work(dt):
        clock[0] += dt

    evaluate = tr.leaf(lambda: work(1.0), "problems.evaluate")
    nested = tr.leaf(lambda: (work(0.5), evaluate()), "problems.jacobian")
    inner = tr.span(lambda: (work(2.0), evaluate()), "condition.inner")
    outer = tr.span(lambda: (work(3.0), inner(), evaluate(), nested()), "condition.outer")
    outer()

    summary = tr.summary()
    names, layers = summary["names"], summary["layers"]
    assert names["condition.outer"]["total_s"] == pytest.approx(8.5)
    assert names["condition.outer"]["self_s"] == pytest.approx(3.0)
    assert names["condition.inner"]["total_s"] == pytest.approx(3.0)
    assert names["condition.inner"]["self_s"] == pytest.approx(2.0)
    # two direct calls aggregated; the call made inside another leaf is not traced
    assert names["problems.evaluate"]["calls"] == 2
    assert names["problems.evaluate"]["total_s"] == pytest.approx(2.0)
    assert names["problems.jacobian"]["self_s"] == pytest.approx(1.5)
    assert layers["condition"]["self_s"] == pytest.approx(5.0)
    assert layers["problems"]["self_s"] == pytest.approx(3.5)
    assert layers["condition"]["calls"] == 1  # inner is called from inside the layer
    assert layers["problems"]["calls"] == 3
    assert summary["spans"] == 2 and summary["leaf_entries"] == 3


def test_span_records_a_raise_and_unwinds(clock):
    tr = tracer_mod.Tracer()

    def boom():
        clock[0] += 1.0
        raise ValueError("boom")

    failing = tr.span(boom, "condition.spectral_norm")
    with pytest.raises(ValueError):
        failing()
    after = tr.span(lambda: None, "condition.wnc")
    after()
    names = tr.summary()["names"]
    assert names["condition.spectral_norm"]["raised"] == 1
    assert names["condition.spectral_norm"]["total_s"] == pytest.approx(1.0)
    assert tr.spans[1][1] == tracer_mod.ROOT  # the raise popped its frame


def test_install_and_restore_leave_the_library_unchanged():
    from condana import condition, problems, verify

    originals = (condition.report, condition.evaluate, verify.snc, problems.evaluate,
                 verify._build_tasks)
    tr = tracer_mod.Tracer()
    tr.install()
    try:
        assert condition.evaluate is not originals[1]
        x = np.array([1.0, 2.0])
        cfg = condition.EstimatorConfig(stream=SampleStream(3), samples=200)
        condition.report(problems.get_problem("product"), x, cfg)
    finally:
        tr.restore()
    assert (condition.report, condition.evaluate, verify.snc, problems.evaluate,
            verify._build_tasks) == originals
    names = tr.summary()["names"]
    assert names["condition.report"]["calls"] == 1
    assert names["problems.evaluate"]["calls"] >= 1


def test_clustered_matrix_has_the_stated_singular_values():
    a = workloads.clustered_matrix()
    assert a.shape == (6, 5)
    sigma = np.linalg.svd(a, compute_uv=False)
    np.testing.assert_allclose(sigma, workloads.CLUSTERED_SIGMA, rtol=0, atol=1e-14)
    assert sigma[1] / sigma[0] == pytest.approx(1.0 - 1e-5, rel=0, abs=1e-13)
    np.testing.assert_array_equal(a, workloads.clustered_matrix())


def _sweep_rows(tmp_path, x, samples=2_000):
    out = tmp_path / "sweep.csv"
    point = "--point=" + ",".join(repr(float(v)) for v in x)
    code = cli.main(["--command", "sweep", "--problem", "matvec", point, "--deltas",
                     workloads.SWEEP_DELTAS, "--samples", str(samples), "--seed", "5",
                     "--out", str(out)])
    assert code == cli.EXIT_OK
    return checks.parse_csv(out.read_text())


MATVEC_A = np.array([[2.0, 0.0, 1.0], [-1.0, 3.0, 0.5]])


def _check_all(rows, x):
    y = MATVEC_A @ x
    return [checks.check_sweep_row(row, "linear", x, y, MATVEC_A) for row in rows]


def test_sweep_check_passes_a_same_sign_point(tmp_path):
    x = np.array([1.0, 1.5, 0.7])
    assert all(reasons == [] for reasons, _ in _check_all(_sweep_rows(tmp_path, x), x))


def test_sweep_check_flags_offsets_whose_signs_miss_the_weights(tmp_path):
    x = np.array([1.0, -1.5, 0.7])
    results = _check_all(_sweep_rows(tmp_path, x), x)
    flagged = [(reasons, defect) for reasons, defect in results if reasons]
    # output 1 weighs every coordinate, and they do not share a sign
    assert len(flagged) >= 4
    assert all(defect == "sweep-offset-sign" for _, defect in flagged)


def test_sweep_check_does_not_blame_the_defect_on_a_same_sign_point():
    x = np.array([1.0, 1.5, 0.7])
    y = MATVEC_A @ x
    row = {"j": "1", "delta": "0.01", "flag_underflow": "false",
           "snc_fd": "1.0", "snc_linearized": "1.0",
           "scc_fd_j": "0.501", "scc_linearized_j": "0.5", "scc_fd_half_width": "0.01"}
    reasons, defect = checks.check_sweep_row(row, "linear", x, y, MATVEC_A)
    assert reasons and defect is None
    x_mixed = np.array([1.0, -1.5, 0.7])
    reasons, defect = checks.check_sweep_row(row, "linear", x_mixed, MATVEC_A @ x_mixed,
                                             MATVEC_A)
    assert reasons and defect == "sweep-offset-sign"


def test_product_rows_follow_the_second_order_bound():
    x = np.array([1.5, -0.5])
    y = np.array([x[0] * x[1]])
    jac = np.array([[x[1], x[0]]])
    row = {"j": "0", "delta": "0.001", "flag_underflow": "false",
           "snc_fd": "2.0", "snc_linearized": "2.0005",
           "scc_fd_j": "1.0", "scc_linearized_j": "1.0009", "scc_fd_half_width": "0.01"}
    assert checks.check_sweep_row(row, "product", x, y, jac) == ([], None)
    row["scc_fd_j"] = "1.002"
    reasons, defect = checks.check_sweep_row(row, "product", x, y, jac)
    assert len(reasons) == 1 and defect == "sweep-offset-sign"
    row["flag_underflow"] = "true"
    assert checks.check_sweep_row(row, "product", x, y, jac)[1] is None


def test_report_check_catches_a_wrong_wnc():
    from condana import condition, problems

    problem = problems.get_problem("matvec")
    x = np.array([0.5, -1.0, 1.5])
    cfg = condition.EstimatorConfig(stream=SampleStream(9), samples=1_000)
    rep = condition.report(problem, x, cfg)
    y, jac = problems.evaluate(problem, x), problems.jacobian(problem, x).matrix
    assert checks.check_report(rep, x, y, jac) == []
    rep.wnc *= 1.0 + 1e-8
    assert any("wnc" in reason for reason in checks.check_report(rep, x, y, jac))


def test_power_iteration_failure_is_explained_only_by_a_clustered_spectrum():
    from condana.condition import PowerIterationError

    exc = PowerIterationError("stalled", np.zeros(5), 1.0)
    assert checks.classify_report_error(exc, workloads.clustered_matrix()) == \
        "power-iteration-clustered"
    assert checks.classify_report_error(exc, np.diag([2.0, 1.0, 0.5])) is None
    assert checks.classify_report_error(ValueError("x"), workloads.clustered_matrix()) is None
