import csv
import json
import math
import warnings

import numpy as np
import pytest

from condana import cli, condition, sampling


def run(argv):
    return cli.main(argv)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def matrix_file(path, seed, n):
    """An n x n matrix problem file of ``default_rng(seed)`` normals."""
    rows = np.random.default_rng(seed).standard_normal((n, n))
    path.write_text(f"{n} {n}\n" + "".join(" ".join(map(repr, row.tolist())) + "\n"
                                            for row in rows))
    return str(path)


class TestAnalyze:
    def test_identity_unit_condition(self, tmp_path):
        out = tmp_path / "r.csv"
        code = run(["--command", "analyze", "--problem", "identity",
                    "--point", "1,1", "--samples", "2000", "--out", str(out)])
        assert code == 0
        rows = read_csv(out)
        assert len(rows) == 2
        assert float(rows[0]["wnc"]) == pytest.approx(1.0)
        assert float(rows[0]["wcc_j"]) == pytest.approx(1.0)
        assert rows[0]["flag_norm_degenerate"] == "false"

    def test_product_carries_exact_value(self, tmp_path):
        out = tmp_path / "r.json"
        code = run(["--command", "analyze", "--problem", "product",
                    "--point", "1,1", "--samples", "2000",
                    "--format", "json", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        row = payload["rows"][0]
        assert row["wnc"] == pytest.approx(2.0)
        assert row["snc_exact"] == pytest.approx(8.0 / (3.0 * math.pi), rel=1e-12)
        assert payload["meta"]["seed"] == 42

    def test_degenerate_point_exits_two(self, tmp_path, capsys):
        code = run(["--command", "analyze", "--problem", "sum",
                    "--point", "1,-1", "--samples", "2000"])
        assert code == 2
        stdout = capsys.readouterr().out
        rows = list(csv.DictReader(stdout.splitlines()))
        assert rows[0]["flag_output_degenerate"] == "true"
        assert rows[0]["wcc_j"] == ""  # never IEEE infinity in a value column

    def test_non_finite_evaluation_exits_three(self, capsys):
        with np.errstate(over="ignore"):
            code = run(["--command", "analyze", "--problem", "matvec",
                        "--point", "1e308,1e308,1e308", "--samples", "2000"])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: matvec: non-finite output")
        assert err.count("\n") == 1

    def test_non_finite_evaluation_warns_nothing(self, capsys):
        # the overflow is reported once, as the exit-3 message, and numpy
        # adds no warning of its own
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(["--command", "analyze", "--problem", "matvec",
                        "--point", "1e308,1e308,1e308", "--samples", "2000"])
        assert code == 3
        assert caught == []
        assert capsys.readouterr().err.count("\n") == 1

    def test_tiny_weights_dot_point(self, tmp_path):
        # two weights 1e-200 beside a unit one: the exact componentwise
        # value is 1/2 + 1e-400/3, i.e. 1/2 in double precision
        out = tmp_path / "r.csv"
        assert run(["--command", "analyze", "--problem", "dot",
                    "--point", "1,1e-200,1e-200", "--samples", "2000",
                    "--out", str(out)]) == 0
        row = read_csv(out)[0]
        assert abs(float(row["scc_j"]) - 0.5) <= 4.0 * float(row["scc_half_width"])

    def test_far_from_unit_scale_point(self, tmp_path, capsys):
        # every condition number of the product is at most 2 at any scale,
        # also where the squares of f(x) and of x overflow (1e100) or
        # underflow (1e-100)
        for scale in ("1e60", "1e100", "1e-100"):
            out = tmp_path / f"r{scale}.csv"
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = run(["--command", "analyze", "--problem", "product",
                            f"--point={scale},{scale}", "--samples", "2000",
                            "--out", str(out)])
            assert code == 0 and caught == [], scale
            row = read_csv(out)[0]
            assert float(row["wnc"]) == pytest.approx(2.0, rel=1e-12)
            assert float(row["wcc_j"]) == 2.0
            assert float(row["snc_exact"]) == pytest.approx(8.0 / (3.0 * math.pi), rel=1e-12)
            assert math.isfinite(float(row["snlp"])) and float(row["scc_j"]) > 0.0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("text, samples", [("1 2\n1e200 1e200\n", "2000"),
                                               ("2 2\n1e-200 0\n0 1e-200\n", "100000")])
    def test_matrix_far_from_unit_scale(self, tmp_path, capsys, text, samples):
        # the squares of J u overflow (1e200) or underflow (1e-200); both
        # inputs are well posed, with worst-case condition number 1
        mat = tmp_path / "mat.txt"
        mat.write_text(text)
        out = tmp_path / "r.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(["--command", "analyze", "--problem", str(mat), "--point=1,1",
                        "--samples", samples, "--out", str(out)])
        assert code == 0 and caught == []
        assert capsys.readouterr().err == ""
        for row in read_csv(out):
            assert float(row["wnc"]) == pytest.approx(1.0, rel=1e-12)
            for field in ("snc_est", "snc_half_width", "snlp", "snlp_half_width"):
                assert math.isfinite(float(row[field])), field
            exact = float(row["snc_exact"]) if row["snc_exact"] else 2.0 / 3.0
            assert abs(float(row["snc_est"]) - exact) <= 4.0 * float(row["snc_half_width"])

    @pytest.mark.parametrize("problem, point", [("product", "1e-160,1"),
                                                 ("polynomial", "1e-200")])
    def test_half_widths_at_extreme_scales(self, tmp_path, capsys, problem, point):
        # the squared deviations of the norm-wise samples overflow (1e160)
        # or underflow (1e-200); their half-widths stay finite and positive
        out = tmp_path / "r.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(["--command", "analyze", "--problem", problem, f"--point={point}",
                        "--samples", "1000", "--out", str(out)])
        assert code == 0 and capsys.readouterr().err == ""
        row = read_csv(out)[0]
        for field in ("snc_half_width", "scc_half_width"):
            assert 0.0 < float(row[field]) < math.inf, field
        gap = abs(float(row["snc_est"]) - float(row["snc_exact"]))
        assert gap <= 4.0 * float(row["snc_half_width"])

    @pytest.mark.parametrize("point", ["0", "0.16024689946928675", "5e-324"])
    def test_zero_condition_point(self, tmp_path, capsys, point):
        # x = 0, and J(x) = 0: the estimates are exact zeros, the bit-loss
        # cells are empty, and nothing is drawn or warned about
        out = tmp_path / "r.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(["--command", "analyze", "--problem", "polynomial",
                        f"--point={point}", "--samples", "1000", "--out", str(out)])
        assert code == 0 and capsys.readouterr().err == ""
        text = out.read_text()
        assert "inf" not in text and "nan" not in text
        row = read_csv(out)[0]
        assert row["snc_est"] == row["scc_j"] == row["snc_exact"] == "0"
        for field in ("snlp", "snlp_half_width", "sclp_j", "sclp_half_width",
                      "log_skewness"):
            assert row[field] == "", field

    def test_beyond_double_range_is_flagged(self, tmp_path, capsys):
        # ||x|| / ||f(x)|| = 1e320: the norm-wise cells are empty, never inf
        out = tmp_path / "r.json"
        code = run(["--command", "analyze", "--problem", "product", "--point=1e-320,1",
                    "--samples", "1000", "--format", "json", "--out", str(out)])
        assert code == 2 and capsys.readouterr().err == ""

        def reject(name):
            raise ValueError(name)

        row = json.loads(out.read_text(), parse_constant=reject)["rows"][0]
        assert row["flag_norm_degenerate"] is True
        assert all(row[f] is None for f in ("wnc", "snc_est", "snc_half_width", "snlp"))
        assert row["wcc_j"] == 2.0 and row["scc_j"] is not None

    def test_subnormal_point(self, tmp_path, capsys):
        # x = 1e-310 is subnormal and f(x) is not: the weight x f'(x) is
        # far below f(x), so scaling it to unit size would overflow f(x);
        # analyze gives the tiny condition numbers, and sweep flags every
        # delta, whose perturbations of x underflow
        out = tmp_path / "r.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(["--command", "analyze", "--problem", "polynomial",
                        "--point=1e-310", "--samples", "1000", "--out", str(out)])
        assert code == 0 and capsys.readouterr().err == ""
        row = read_csv(out)[0]
        wcc = float(row["wcc_j"])
        assert 0.0 < wcc < 1e-300 and float(row["wnc"]) == wcc
        # m = 1: scc = E|u| wcc = wcc / 2 and snc = snc_exact exactly in law
        assert abs(float(row["scc_j"]) - wcc / 2.0) <= 4.0 * float(row["scc_half_width"])
        assert (abs(float(row["snc_est"]) - float(row["snc_exact"]))
                <= 4.0 * float(row["snc_half_width"]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(["--command", "sweep", "--problem", "polynomial", "--point=1e-310",
                        "--samples", "1000", "--deltas", "1e-2,1e-3", "--out", str(out)])
        assert code == 2 and capsys.readouterr().err == ""
        assert "nan" not in out.read_text()
        assert all(r["flag_underflow"] == "true" for r in read_csv(out))

    def test_componentwise_sums_beyond_double_range(self, tmp_path, capsys):
        # the weights x_i a_i = +-1e308 sum past the double range, though
        # f(x) = 1e300 and wcc_j = 2e8 do not: every cell is finite and right
        mat = tmp_path / "big.txt"
        mat.write_text("1 2\n1e300 -1e300\n")
        base = ["--problem", str(mat), "--point=1e8,99999999"]

        def reject(name):
            raise ValueError(name)

        outs = {}
        for fmt in ("csv", "json"):
            outs[fmt] = tmp_path / f"r.{fmt}"
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code = run(["--command", "analyze", *base, "--samples", "1000",
                            "--format", fmt, "--out", str(outs[fmt])])
            assert code == 0 and capsys.readouterr().err == ""
        text = outs["csv"].read_text()
        assert "inf" not in text and "nan" not in text
        row = read_csv(outs["csv"])[0]
        assert float(row["wcc_j"]) == pytest.approx(199999999.83051392, rel=1e-15)
        assert json.loads(outs["json"].read_text(), parse_constant=reject)["rows"][0] is not None
        sweep = tmp_path / "s.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(["--command", "sweep", *base, "--samples", "2000",
                        "--deltas", "1e-2,1e-3", "--out", str(sweep)])
        assert code == 0 and capsys.readouterr().err == ""
        text = sweep.read_text()
        assert "inf" not in text and "nan" not in text
        # a sweep of 2,000 samples draws analyze's 1,000 directions and
        # mirrors them; its norm-wise value reads explicit ball points,
        # analyze draws from the singular values: four combined half-widths
        # apart
        for srow in read_csv(sweep):
            assert (abs(float(srow["snc_linearized"]) - float(row["snc_est"]))
                    <= 4.0 * math.sqrt(2.0) * float(row["snc_half_width"]))
            assert srow["scc_linearized_j"] == row["scc_j"]

    @pytest.mark.parametrize("command, point", [("analyze", "nan,1"), ("analyze", "1e309,1"),
                                                ("sweep", "1,inf"), ("sweep", "-inf,1")])
    def test_non_finite_point_is_usage_error(self, capsys, command, point):
        code = run(["--command", command, "--problem", "product", f"--point={point}",
                    "--deltas", "1e-2", "--samples", "1000"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    def test_random_point_is_reproducible(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert run(["--command", "analyze", "--problem", "dot",
                        "--point", "random", "--samples", "2000",
                        "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_matrix_file_problem(self, tmp_path):
        mat = tmp_path / "mat.txt"
        mat.write_text("1 2\n3.0 4.0\n")
        out = tmp_path / "r.csv"
        code = run(["--command", "analyze", "--problem", str(mat),
                    "--point", "1,1", "--samples", "2000", "--out", str(out)])
        assert code == 0
        rows = read_csv(out)
        # f(x) = 3x1 + 4x2: wnc at (1,1) = sqrt(2)*5/7
        assert float(rows[0]["wnc"]) == pytest.approx(math.sqrt(2.0) * 5.0 / 7.0)

    def test_usage_errors(self):
        assert run(["--command", "analyze"]) == 1  # missing problem
        assert run(["--command", "analyze", "--problem", "nope",
                    "--point", "1"]) == 1
        assert run(["--command", "analyze", "--problem", "identity",
                    "--point", "1"]) == 1  # wrong arity
        assert run(["--command", "analyze", "--problem", "identity",
                    "--point", "x,y"]) == 1
        assert run(["--command", "analyze", "--problem", "identity",
                    "--point", "1,1", "--samples", "50"]) == 1
        assert run(["--command", "bogus"]) == 1

    def test_no_random_point_is_usage_error(self, tmp_path, capsys):
        # the second output is zero everywhere, so no random point has
        # every |f_j| away from zero
        mat = tmp_path / "mat.txt"
        mat.write_text("2 2\n1 0\n0 0\n")
        for command in (["analyze"], ["sweep", "--deltas", "1e-2"]):
            assert run(["--command", *command, "--problem", str(mat),
                        "--samples", "2000"]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1
            assert "--point" in err

    def test_directory_problem_is_usage_error(self, tmp_path, capsys):
        assert run(["--command", "analyze", "--problem", str(tmp_path),
                    "--point", "1,1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_out_in_missing_directory_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "missing" / "r.csv"
        assert run(["--command", "analyze", "--problem", "identity", "--point", "1,1",
                    "--samples", "2000", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write ") and err.count("\n") == 1


class TestVerifyCommand:
    def test_restricted_group_all_pass(self, tmp_path):
        out = tmp_path / "v.csv"
        code = run(["--command", "verify", "--checks", "corollary1",
                    "--samples", "2000", "--m-range", "1:10", "--out", str(out)])
        assert code == 0
        rows = read_csv(out)
        assert len(rows) >= 10
        assert all(r["passed"] == "true" for r in rows)
        assert all(r["name"].startswith("corollary1/") for r in rows)

    def test_seed_reruns_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["--command", "verify", "--checks", "lemma5,berry_esseen",
                "--samples", "2000", "--seed", "42"]
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_boolean_cells_are_lowercase(self, tmp_path):
        out = tmp_path / "v.csv"
        assert run(["--command", "verify", "--checks", "theorem2,corollary2,lemma6",
                    "--m-range", "2:3", "--samples", "2000", "--out", str(out)]) == 0
        rows = read_csv(out)
        assert rows
        assert all(r["passed"] in ("true", "false") for r in rows)
        assert all(r["warning"] in ("true", "false") for r in rows)

    def test_thread_count_keeps_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        base = ["--command", "verify", "--checks", "theorem2", "--m-range", "2:5",
                "--samples", "2000"]
        assert run(base + ["--threads", "1", "--out", str(a)]) == 0
        assert run(base + ["--threads", "8", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_env_seed_override(self, tmp_path, monkeypatch):
        a, b, c = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
        args = ["--command", "verify", "--checks", "corollary1", "--m-range", "1:3",
                "--samples", "2000", "--seed", "42"]
        assert run(args + ["--out", str(a)]) == 0
        monkeypatch.setenv("CONDANA_SEED", "7")
        assert run(args + ["--out", str(b)]) == 0
        monkeypatch.setenv("CONDANA_SEED", "42")
        assert run(args + ["--out", str(c)]) == 0
        assert a.read_bytes() != b.read_bytes()
        assert a.read_bytes() == c.read_bytes()

    def test_failed_checks_exit_two(self, monkeypatch):
        from condana.verify import BoundCheck, VerifySuiteReport

        fake = VerifySuiteReport(seed=42, checks=[
            BoundCheck("x/y", "m=1", 2.0, 1.0, "<=", -1.0, 0.0, False)])
        monkeypatch.setattr(cli, "run_suite", lambda cfg: fake)
        assert run(["--command", "verify"]) == 2

    def test_unknown_group_is_usage_error(self):
        assert run(["--command", "verify", "--checks", "nope"]) == 1

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_is_usage_error(self, threads, capsys):
        assert run(["--command", "verify", "--checks", "closed_forms",
                    "--threads", threads]) == 1
        assert capsys.readouterr().err == "error: threads must be >= 1\n"

    def test_negative_trials_is_usage_error(self, capsys):
        assert run(["--command", "verify", "--trials", "-5", "--checks", "theorem1"]) == 1
        assert capsys.readouterr().err == "error: trials must be >= 0\n"

    @pytest.mark.parametrize("args", [
        ["--checks", "theorem1", "--trials", "0"],
        ["--checks", "corollary1,theorem2", "--m-range", "300:400"],
    ])
    def test_empty_selection_is_usage_error(self, args, tmp_path, capsys):
        # a header-only report would read as "all passed"
        out = tmp_path / "v.csv"
        assert run(["--command", "verify", *args, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_out_of_range_is_usage_error(self, seed, capsys):
        assert run(["--command", "verify", "--checks", "lemma5", "--seed", seed]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_env_seed_out_of_range_is_usage_error(self, monkeypatch, capsys):
        monkeypatch.setenv("CONDANA_SEED", "-1")
        assert run(["--command", "analyze", "--problem", "identity", "--point", "1,1",
                    "--samples", "2000"]) == 1
        assert capsys.readouterr().err.count("\n") == 1


class TestSweep:
    def test_polynomial_slopes_are_two(self, tmp_path):
        # mirrored pairs cancel the odd Taylor terms: the gap of a cubic is
        # c delta**2, not the O(delta) sample mean of an odd function of u
        for seed in ("42", "1", "7"):
            out = tmp_path / f"s{seed}.csv"
            code = run(["--command", "sweep", "--problem", "polynomial", "--point=0.9",
                        "--seed", seed, "--samples", "20000",
                        "--deltas", "1e-1,1e-2,1e-3", "--out", str(out)])
            assert code == 0
            rows = read_csv(out)
            assert len(rows) == 3
            for field in ("slope_snc", "slope_scc_j"):
                assert abs(float(rows[0][field]) - 2.0) < 1e-6, (seed, field)

    def test_linear_problem_fd_equals_linearized(self, tmp_path):
        out = tmp_path / "s.csv"
        code = run(["--command", "sweep", "--problem", "matvec",
                    "--point", "1,1,1", "--samples", "500",
                    "--deltas", "1e-1,1e-2,1e-3", "--out", str(out)])
        assert code == 0
        for row in read_csv(out):
            fd = float(row["snc_fd"])
            lin = float(row["snc_linearized"])
            assert fd == pytest.approx(lin, rel=1e-12)

    def test_point_far_from_unit_scale(self, tmp_path, capsys):
        # the squares of f(x) and of its differences overflow at 1e100; with
        # mirrored pairs the product's gap at 1,000 pairs is rounding by
        # delta = 1e-3, so the slope is fitted at 1e-1 and 1e-2
        out = tmp_path / "s.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(["--command", "sweep", "--problem", "product",
                        "--point=1e100,1e100", "--samples", "2000",
                        "--deltas", "1e-1,1e-2", "--out", str(out)])
        assert code == 0 and caught == []
        assert capsys.readouterr().err == ""
        for row in read_csv(out):
            for field in ("snc_fd", "snc_fd_half_width", "snc_linearized", "slope_snc"):
                assert math.isfinite(float(row[field])), field
            assert float(row["snc_fd"]) == pytest.approx(float(row["snc_linearized"]), rel=1e-3)

    def test_half_widths_at_extreme_scale(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(["--command", "sweep", "--problem", "product", "--point=1e-160,1",
                        "--deltas", "1e-2,1e-3", "--samples", "1000", "--out", str(out)])
        assert code == 0 and capsys.readouterr().err == ""
        for row in read_csv(out):
            for field in ("snc_fd_half_width", "scc_fd_half_width"):
                assert 0.0 < float(row[field]) < math.inf, field

    def test_underflow_flagged_exit_two(self, tmp_path):
        out = tmp_path / "s.csv"
        code = run(["--command", "sweep", "--problem", "matvec",
                    "--point", "1,1,1", "--samples", "300",
                    "--deltas", "1e-2,1e-300", "--out", str(out)])
        assert code == 2
        rows = read_csv(out)
        flagged = [r for r in rows if r["flag_underflow"] == "true"]
        assert flagged and all(r["snc_fd"] == "" for r in flagged)

    def test_subnormal_output_flags_and_warns_nothing(self, tmp_path, capsys):
        # f(x) = 1e-320 is subnormal: delta |f(x)| underflows, and every
        # difference f could not resolve flags its delta instead of giving nan
        out = tmp_path / "s.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(["--command", "sweep", "--problem", "product",
                        "--point=1e-160,1e-160", "--samples", "1000",
                        "--deltas", "1e-2,1e-5", "--out", str(out)])
        assert code == 2 and capsys.readouterr().err == ""
        assert "nan" not in out.read_text()
        rows = read_csv(out)
        assert len(rows) == 2 and all(r["flag_underflow"] == "true" for r in rows)

    def test_zero_condition_point_is_zero_not_underflow(self, tmp_path, capsys):
        # at x = 0 no offset moves x and both linearized values are 0: the
        # finite-delta cells are 0 as well, and no delta is flagged
        out = tmp_path / "s.csv"
        code = run(["--command", "sweep", "--problem", "polynomial", "--point=0",
                    "--deltas", "1e-2,1e-3", "--samples", "1000", "--out", str(out)])
        assert code == 0 and capsys.readouterr().err == ""
        rows = read_csv(out)
        assert len(rows) == 2
        for row in rows:
            assert row["flag_underflow"] == "false"
            for field in ("snc_fd", "snc_fd_half_width", "snc_linearized",
                          "scc_fd_j", "scc_fd_half_width", "scc_linearized_j"):
                assert row[field] == "0", field
            assert row["slope_snc"] == row["slope_scc_j"] == ""

    @pytest.mark.parametrize("name, seed", [("matvec", "1"), ("matvec", "7"),
                                            ("solve_ill", "1"), ("solve_ill", "7")])
    def test_linear_slopes_within_rounding_are_empty(self, tmp_path, name, seed):
        # every |finite-delta - linearized| is rounding here: no slope to fit
        out = tmp_path / "s.csv"
        code = run(["--command", "sweep", "--problem", name, "--seed", seed,
                    "--deltas", "1e-2,1e-3,1e-4,1e-5", "--samples", "20000",
                    "--out", str(out)])
        assert code == 0
        for row in read_csv(out):
            assert row["slope_snc"] == "" and row["slope_scc_j"] == ""

    def test_product_slopes_kept_bit_for_bit(self, tmp_path):
        out = tmp_path / "s.csv"
        code = run(["--command", "sweep", "--problem", "product", "--point=1,1",
                    "--seed", "42", "--deltas", "1e-1,1e-2,1e-3", "--samples", "20000",
                    "--out", str(out)])
        assert code == 0
        for row in read_csv(out):
            # recorded when snc_linearized became a ratio mean times wnc (1 ulp)
            assert row["slope_snc"] == "2.0850375853665355"
            assert row["slope_scc_j"] == "1.8633410954549579"

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("deltas, point, column", [
        ("3.138e-2", "1.3399429842915627e+154, 1.3416197637822874e+154", 78655),
        ("5e-2,4e-2,3.138e-2,3e-2", "1.3247116130306487e+154, 1.371137140904359e+154", 14),
    ], ids=["second-stripe", "first-of-four-deltas"])
    def test_non_finite_names_the_whole_block_column(self, monkeypatch, capsys, threads,
                                                     deltas, point, column):
        # the product overflows at perturbed points near 1.3e154: the message
        # names the column in the whole block of 2 x 50,000 points, the -u
        # half numbered after the +u half, not in its stripe (12271 in the
        # second of the -u half) nor in its half (28655), for the first
        # failing delta in order, whichever worker met a failure (the third
        # delta fails at 78655 too)
        monkeypatch.setattr(sampling, "_cpus", lambda: 2)
        code = run(["--command", "sweep", "--problem", "product", "--point=1.3e154,1.3e154",
                    "--deltas", deltas, "--samples", "100000", "--seed", "9",
                    "--threads", threads])
        assert code == 3
        assert capsys.readouterr().err == (f"numerical failure: product: non-finite output at "
                                           f"[{point}] (batch column {column})\n")

    def test_needs_deltas(self):
        assert run(["--command", "sweep", "--problem", "product",
                    "--point", "1,1"]) == 1
        assert run(["--command", "sweep", "--problem", "product", "--point", "1,1",
                    "--deltas", "1e-3,1e-2"]) == 1  # not decreasing


class TestThreads:
    """Every command runs in the one parallel scope: ``--threads`` is checked
    for each, and no output depends on the width or on OpenBLAS's own
    thread count."""

    @pytest.mark.parametrize("args", [
        ["--command", "analyze", "--problem", "product", "--threads", "-3"],
        ["--command", "sweep", "--problem", "product", "--deltas", "1e-2", "--threads", "0"],
        ["--command", "moments", "--m-range", "1:3", "--threads", "-1"],
    ], ids=["analyze", "sweep", "moments"])
    def test_below_one_is_usage_error(self, args, capsys):
        assert run(args) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == "error: threads must be >= 1\n"

    def test_analyze_bytes_at_any_width(self, workers, splits, tmp_path, monkeypatch):
        # the pieces run on the calling thread at width 1 and on the pool by
        # default, never through the serial path; a short last piece too
        problem, texts = matrix_file(tmp_path / "m20.txt", 7, 20), []
        monkeypatch.setattr(condition, "_serial", lambda *args: pytest.fail("serial draw"))
        for threads in (["--threads", "1"], []):
            out = tmp_path / "a.csv"
            assert run(["--command", "analyze", "--problem", problem, "--seed", "7",
                        "--samples", "30000", *threads, "--out", str(out)]) == 0
            texts.append(out.read_bytes())
        assert texts[0] == texts[1]
        assert splits["condition"] == 2 * 21  # snc and the 20 scc_j, twice

    def test_sweep_bytes_at_any_openblas_thread_count(self, tmp_path):
        # a matrix problem's finite differences multiply it by whole blocks,
        # whose rounding follows OpenBLAS's thread count unless the scope
        # holds it to one: one scc_fd_j cell of this sweep moved by an ulp
        blas = sampling._openblas_threads()
        if sampling._cpus() < 2 or not blas:
            pytest.skip("needs two CPUs and an OpenBLAS thread-count entry point")
        problem, texts = matrix_file(tmp_path / "m16.txt", 3, 16), []
        original = [get() for get, _ in blas]
        try:
            for count in (2, 1):
                for _, put in blas:
                    put(count)
                out = tmp_path / "s.csv"
                assert run(["--command", "sweep", "--problem", problem, "--seed", "3",
                            "--samples", "69637", "--deltas", "1e-2,1e-3",
                            "--out", str(out)]) == 0
                texts.append(out.read_bytes())
        finally:
            for (_, put), count in zip(blas, original):
                put(count)
        assert texts[0] == texts[1]


class TestMoments:
    def test_m3_row_values(self, tmp_path):
        out = tmp_path / "m.csv"
        assert run(["--command", "moments", "--m-range", "1:4",
                    "--out", str(out)]) == 0
        rows = {r["m"]: r for r in read_csv(out)}
        r3 = rows["3"]
        assert float(r3["e_norm"]) == 0.75
        assert float(r3["e_norm_sq"]) == pytest.approx(0.6)
        assert float(r3["e_log_norm"]) == pytest.approx(-1.0 / 3.0)
        assert float(r3["e_abs_cos"]) == 0.5
        assert float(r3["e_cos_sq"]) == pytest.approx(1.0 / 3.0)
        assert float(r3["e_log_abs_cos"]) == -1.0
        assert float(r3["snc_wnc_ratio"]) == pytest.approx(0.375)

    def test_m2_contains_even_ratio(self, tmp_path):
        out = tmp_path / "m.csv"
        assert run(["--command", "moments", "--m-range", "2:2",
                    "--out", str(out)]) == 0
        row = read_csv(out)[0]
        assert float(row["snc_wnc_ratio"]) == pytest.approx(4.0 / (3.0 * math.pi))

    def test_m1_has_empty_cosine_columns(self, tmp_path):
        out = tmp_path / "m.csv"
        assert run(["--command", "moments", "--m-range", "1:1",
                    "--out", str(out)]) == 0
        row = read_csv(out)[0]
        assert row["e_abs_cos"] == "" and row["e_log_abs_cos"] == ""
        assert row["epsilon_m"] == ""
        assert float(row["snc_wnc_ratio"]) == 0.5

    def test_requires_range(self):
        assert run(["--command", "moments"]) == 1
        assert run(["--command", "moments", "--m-range", "3:1"]) == 1


class TestSerialization:
    def test_seventeen_digit_round_trip(self, tmp_path):
        out = tmp_path / "m.csv"
        run(["--command", "moments", "--m-range", "7:7", "--out", str(out)])
        row = read_csv(out)[0]
        from condana.closed_forms import snc_wnc_exact
        exact, gap = snc_wnc_exact(7)
        assert float(row["snc_wnc_ratio"]) == exact  # bitwise round trip
        assert float(row["snlp_gap_bits"]) == gap

    def test_csv_and_json_agree(self, tmp_path):
        a, b = tmp_path / "m.csv", tmp_path / "m.json"
        run(["--command", "moments", "--m-range", "2:5", "--out", str(a)])
        run(["--command", "moments", "--m-range", "2:5", "--format", "json",
             "--out", str(b)])
        crows = read_csv(a)
        jrows = json.loads(b.read_text())["rows"]
        assert len(crows) == len(jrows)
        for cr, jr in zip(crows, jrows):
            for key, jval in jr.items():
                if isinstance(jval, float):
                    assert float(cr[key]) == jval
                elif jval is None:
                    assert cr[key] == ""

    def test_stdout_when_no_out(self, capsys):
        assert run(["--command", "moments", "--m-range", "1:1"]) == 0
        header = capsys.readouterr().out.splitlines()[0]
        assert header.startswith("m,e_norm,")
