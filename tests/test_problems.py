import numpy as np
import pytest

from condana.problems import (
    NonFiniteEvaluationError,
    Problem,
    _evaluate_columns,
    evaluate,
    evaluate_batch,
    fd_jacobian,
    get_problem,
    jacobian,
    linear_problem,
    list_problems,
    load_matrix_problem,
    random_linear_problem,
    random_point,
)
from condana.sampling import SampleStream

REQUIRED = ["identity", "scale", "dot", "product", "polynomial",
            "matvec", "solve_well", "solve_ill", "sum"]
#: Problems whose fn goes through BLAS/LAPACK, which may round a batch
#: differently from a single point.
BLAS_BACKED = {"matvec", "solve_well", "solve_ill"}


class TestEvaluate:
    def test_identity(self):
        np.testing.assert_array_equal(evaluate(get_problem("identity"), [3.0, 4.0]), [3.0, 4.0])

    def test_product(self):
        assert evaluate(get_problem("product"), [2.0, 5.0])[0] == 10.0

    def test_linear(self):
        p = linear_problem([[2.0, 0.0], [0.0, 1.0]])
        np.testing.assert_array_equal(evaluate(p, [1.0, 1.0]), [2.0, 1.0])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            evaluate(get_problem("identity"), [1.0, 2.0, 3.0])

    def test_non_finite_flagged(self):
        bad = Problem("inverse", 1, 1,
                      lambda x: np.array([np.inf if x[0] == 0 else 1.0 / x[0]]))
        with pytest.raises(NonFiniteEvaluationError):
            evaluate(bad, [0.0])


class TestEvaluateBatch:
    @pytest.mark.parametrize("name", REQUIRED)
    def test_matches_looped_evaluate(self, name):
        p = get_problem(name)
        points = 4.0 * SampleStream(31).uniforms(p.m * 50).reshape(p.m, 50) - 2.0
        batch = evaluate_batch(p, points)
        looped = np.column_stack([evaluate(p, points[:, i]) for i in range(50)])
        assert batch.shape == (p.n, 50)
        if name in BLAS_BACKED:
            np.testing.assert_allclose(batch, looped, rtol=1e-14, atol=0.0)
        else:
            np.testing.assert_array_equal(batch, looped)

    def test_wrong_shapes_rejected(self):
        p = get_problem("product")
        for points in ([1.0, 2.0], np.ones((3, 4)), np.ones((2, 4, 1))):
            with pytest.raises(ValueError, match=r"\(2, N\) batch"):
                evaluate_batch(p, points)
        # a pointwise-only fn: fine for one point, wrong shape for a batch
        flat = Problem("flat-product", 2, 1, lambda x: x[0] * x[1])
        assert evaluate(flat, [2.0, 5.0])[0] == 10.0
        with pytest.raises(ValueError, match=r"\(m, N\) column batch to \(n, N\)"):
            evaluate_batch(flat, np.ones((2, 4)))

    def test_non_finite_column_named(self):
        inverse = Problem("inverse", 1, 1, lambda x: 1.0 / x)
        with np.errstate(divide="ignore"), pytest.raises(
                NonFiniteEvaluationError, match=r"at \[-0\.0\] \(batch column 2\)"):
            evaluate_batch(inverse, [[1.0, -3.0, -0.0, 0.0]])

    def test_non_finite_second_output_names_the_whole_batch_column(self):
        # the one non-finite value is output 1's at column 2 of columns that
        # start at 40: the message names the column of the whole batch
        def fn(x):
            return np.vstack([x[0], np.where(x[0] == 3.0, np.nan, x[0])])

        two = Problem("two", 1, 2, fn)
        with pytest.raises(NonFiniteEvaluationError, match=r"at \[3\.0\] \(batch column 42\)$"):
            _evaluate_columns(two, np.array([[1.0, 2.0, 3.0, 4.0]]), 40)


class TestJacobian:
    def test_identity(self):
        np.testing.assert_array_equal(jacobian(get_problem("identity"), [1.0, 2.0]).matrix,
                                      np.eye(2))

    def test_product_gradient(self):
        np.testing.assert_allclose(jacobian(get_problem("product"), [2.0, 5.0]).matrix,
                                   [[5.0, 2.0]])

    def test_solve_is_hand_inverse(self):
        # A = [[2,1],[1,2]] inverts to (1/3) [[2,-1],[-1,2]]
        mat = jacobian(get_problem("solve_well"), [1.0, 1.0]).matrix
        np.testing.assert_allclose(mat, np.array([[2.0, -1.0], [-1.0, 2.0]]) / 3.0,
                                   rtol=1e-14)

    def test_ill_conditioned_inverse_entries(self):
        mat = jacobian(get_problem("solve_ill"), [1.0, 0.5]).matrix
        np.testing.assert_array_equal(mat, [[5000.5, -4999.5], [-4999.5, 5000.5]])

    def test_fd_fallback_used_without_analytic(self):
        p = Problem("square", 1, 1, lambda x: np.array([x[0] ** 2]))
        assert p.jac is None
        np.testing.assert_array_equal(jacobian(p, [3.0]).matrix, fd_jacobian(p, [3.0]).matrix)
        assert jacobian(p, [3.0]).matrix[0, 0] == pytest.approx(6.0, abs=1e-8)


class TestFiniteDifferences:
    def test_linear_exact_for_any_step(self):
        p = get_problem("matvec")
        x = np.array([0.3, -1.2, 2.0])
        for h in (1e-2, 1e-5, 1e-8):
            np.testing.assert_allclose(fd_jacobian(p, x, h).matrix,
                                       jacobian(p, x).matrix, atol=1e-9)

    def test_product_at_2_5(self):
        mat = fd_jacobian(get_problem("product"), [2.0, 5.0], 1e-5).matrix
        np.testing.assert_allclose(mat, [[5.0, 2.0]], atol=1e-8)

    def test_cubic(self):
        p = Problem("cubic", 1, 1, lambda x: np.array([x[0] ** 3]))
        assert fd_jacobian(p, [1.0], 1e-5).matrix[0, 0] == pytest.approx(3.0, abs=1e-8)

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            fd_jacobian(get_problem("product"), [1.0, 1.0], 0.0)

    @pytest.mark.parametrize("name", REQUIRED)
    def test_matches_analytic_at_random_points(self, name):
        p = get_problem(name)
        stream = SampleStream(2024)
        for _ in range(20):
            x = 4.0 * stream.uniforms(p.m) - 2.0
            analytic = jacobian(p, x).matrix
            numeric = fd_jacobian(p, x, 1e-5).matrix
            scale = np.maximum(np.abs(analytic), 1.0)
            assert np.max(np.abs(analytic - numeric) / scale) < 1e-6

    @pytest.mark.parametrize("name", REQUIRED)
    def test_matches_looped_central_differences(self, name):
        # one pair of evaluate calls per coordinate is the reference
        p = get_problem(name)
        x = 4.0 * SampleStream(57).uniforms(p.m) - 2.0
        cols = []
        for i in range(p.m):
            h = 1e-5 * max(abs(x[i]), 1.0)
            step = np.zeros(p.m)
            step[i] = h
            cols.append((evaluate(p, x + step) - evaluate(p, x - step)) / (2.0 * h))
        looped = np.column_stack(cols)
        batched = fd_jacobian(p, x, 1e-5).matrix
        if name in BLAS_BACKED:
            np.testing.assert_allclose(batched, looped, rtol=0.0,
                                       atol=1e-10 * np.max(np.abs(looped)))
        else:
            np.testing.assert_array_equal(batched, looped)

    @pytest.mark.parametrize("name", ["product", "polynomial"])
    def test_taylor_remainder_slope(self, name):
        # ||f(x+du) - f(x) - J(du)|| should shrink at least quadratically
        p = get_problem(name)
        stream = SampleStream(77)
        x = 0.5 + stream.uniforms(p.m)
        u = stream.normals(p.m)
        u /= np.linalg.norm(u)
        mat = jacobian(p, x).matrix
        deltas = [1e-2 / 2**i for i in range(6)]
        residuals = []
        for d in deltas:
            r = np.linalg.norm(evaluate(p, x + d * u) - evaluate(p, x) - mat @ (d * u))
            residuals.append(r)
        logs_d = np.log2(deltas)
        logs_r = np.log2(residuals)
        slope = np.polyfit(logs_d, logs_r, 1)[0]
        assert slope >= 1.9


class TestCorpus:
    def test_contains_required_problems(self):
        names = [p.name for p in list_problems()]
        for required in REQUIRED:
            assert required in names

    def test_round_trip_by_name(self):
        for p in list_problems():
            again = get_problem(p.name)
            assert (again.name, again.m, again.n) == (p.name, p.m, p.n)

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown problem"):
            get_problem("nope")

    def test_ill_conditioned_solve_blows_up(self):
        # condition number of the baked-in matrix is 1e4; at (1, 1) the
        # norm-wise condition number equals it, far above 1e3
        from condana.condition import wnc

        assert wnc(get_problem("solve_ill"), [1.0, 1.0]) > 1e3

    def test_ill_conditioned_wnc_value_by_hand(self):
        # ||x|| sigma_1 / ||f(x)||: x = f(x) = (1, 1), sigma_1(inverse) = 1e4
        p = get_problem("solve_ill")
        x = np.array([1.0, 1.0])
        fx = evaluate(p, x)
        np.testing.assert_allclose(fx, [1.0, 1.0], rtol=1e-10)
        sigma = np.linalg.svd(jacobian(p, x).matrix, compute_uv=False)[0]
        assert sigma == pytest.approx(1e4, rel=1e-12)


class TestMatrixFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "mat.txt"
        path.write_text("2 3\n1.0 2.0 3.0\n-0.5 0.25 0\n")
        p = load_matrix_problem(path)
        assert (p.m, p.n) == (3, 2)
        assert p.name == "mat"
        np.testing.assert_array_equal(evaluate(p, [1.0, 1.0, 1.0]), [6.0, -0.25])
        np.testing.assert_array_equal(jacobian(p, [0.0, 0.0, 0.0]).matrix,
                                      [[1.0, 2.0, 3.0], [-0.5, 0.25, 0.0]])

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("x y\n1 2\n")
        with pytest.raises(ValueError):
            load_matrix_problem(path)

    def test_wrong_entry_count(self, tmp_path):
        path = tmp_path / "short.txt"
        path.write_text("2 2\n1 2 3\n")
        with pytest.raises(ValueError, match="expected 4 entries"):
            load_matrix_problem(path)


class TestRandomGeneration:
    def test_random_linear_problem_dimensions(self):
        p = random_linear_problem(4, 2, SampleStream(5))
        assert (p.m, p.n) == (4, 2)
        assert np.all(np.abs(jacobian(p, np.zeros(4)).matrix) <= 1.0)

    def test_random_point_respects_exclusions(self):
        p = get_problem("product")
        x = random_point(p, SampleStream(11), min_component=1e-9)
        assert np.all(np.abs(evaluate(p, x)) >= 1e-9)
        assert np.all(np.abs(x) <= 2.0)

    def test_random_point_gives_up(self):
        zero = Problem("zero", 1, 1, lambda x: np.array([0.0]))
        with pytest.raises(RuntimeError):
            random_point(zero, SampleStream(1), min_component=1e-12)
