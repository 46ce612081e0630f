"""Differentiable test problems f: R^m -> R^n with evaluation, analytic
Jacobians, and a central-difference fallback.

Corpus parameters (vectors, matrices, coefficients) are baked in so every
downstream number is reproducible run to run.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .sampling import SampleStream


class NonFiniteEvaluationError(ArithmeticError):
    """An evaluation produced NaN or infinity."""


@dataclass
class Problem:
    """A named differentiable map with fixed input/output dimensions.

    ``fn`` maps a length-m point to a length-n value, and it also maps an
    (m, N) column batch of points to the (n, N) array of their values
    (see :func:`evaluate_batch`). A ``fn`` written with numpy operations
    that act along the first axis meets both contracts unchanged.
    """

    name: str
    m: int
    n: int
    fn: Callable[[np.ndarray], np.ndarray]
    jac: Callable[[np.ndarray], np.ndarray] | None = None


@dataclass
class Jacobian:
    """n x m first-derivative matrix at a point; row j is the gradient of
    output j. Its transpose maps input perturbations to output ones."""

    matrix: np.ndarray


def _as_point(problem: Problem, x) -> np.ndarray:
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.shape != (problem.m,):
        raise ValueError(f"{problem.name}: expected input of length {problem.m}, got {x.shape}")
    return x


def evaluate(problem: Problem, x) -> np.ndarray:
    """f(x) as a length-n array; rejects wrong input length and non-finite output."""
    x = _as_point(problem, x)
    # an overflow is reported once, by the non-finite check below
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        y = np.atleast_1d(np.asarray(problem.fn(x), dtype=float)).reshape(-1)
    if y.shape != (problem.n,):
        raise ValueError(f"{problem.name}: evaluator returned shape {y.shape}, wanted ({problem.n},)")
    if not np.all(np.isfinite(y)):
        raise NonFiniteEvaluationError(f"{problem.name}: non-finite output at {x.tolist()}")
    return y


def evaluate_batch(problem: Problem, points) -> np.ndarray:
    """f at every column of an (m, N) array, as the (n, N) array of values.

    Makes the checks of :func:`evaluate` for the whole batch in one call
    of ``fn``: a wrong input or output shape raises ``ValueError`` and a
    non-finite value raises :class:`NonFiniteEvaluationError` naming the
    first column point that produced one.
    """
    return _evaluate_columns(problem, points, 0)


def _evaluate_columns(problem: Problem, points, first: int) -> np.ndarray:
    """``evaluate_batch`` of a batch's columns from ``first`` on."""
    x = np.asarray(points, dtype=float)
    if x.ndim != 2 or x.shape[0] != problem.m:
        raise ValueError(f"{problem.name}: expected an ({problem.m}, N) batch of column "
                         f"points, got shape {x.shape}")
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        y = np.asarray(problem.fn(x), dtype=float)
    if y.shape != (problem.n, x.shape[1]):
        raise ValueError(f"{problem.name}: fn must map an (m, N) column batch to (n, N); "
                         f"it returned shape {y.shape} for input shape {x.shape}")
    if not np.isfinite(y).all():
        col = int(np.flatnonzero(~np.isfinite(y).all(axis=0))[0])
        raise NonFiniteEvaluationError(f"{problem.name}: non-finite output at "
                                       f"{x[:, col].tolist()} (batch column {first + col})")
    return y


def fd_jacobian(problem: Problem, x, h_scale: float = 1e-5) -> Jacobian:
    """Central-difference Jacobian, per-coordinate step h_i = h_scale * max(|x_i|, 1).

    The 2m points x + h_i e_i and x - h_i e_i are evaluated as one batch."""
    if h_scale <= 0.0:
        raise ValueError("h_scale must be positive")
    x = _as_point(problem, x)
    h = h_scale * np.maximum(np.abs(x), 1.0)
    steps = np.diag(h)
    values = evaluate_batch(problem, np.hstack([x[:, None] + steps, x[:, None] - steps]))
    m = problem.m
    return Jacobian((values[:, :m] - values[:, m:]) / (2.0 * h))


def jacobian(problem: Problem, x) -> Jacobian:
    """Analytic Jacobian when the problem carries one, else central
    differences with the default step of :func:`fd_jacobian`."""
    x = _as_point(problem, x)
    if problem.jac is None:
        return fd_jacobian(problem, x)
    mat = np.asarray(problem.jac(x), dtype=float).reshape(problem.n, problem.m)
    if not np.all(np.isfinite(mat)):
        raise NonFiniteEvaluationError(f"{problem.name}: non-finite Jacobian at {x.tolist()}")
    return Jacobian(mat)


def linear_problem(matrix, name: str = "linear") -> Problem:
    """f(x) = A x for a fixed matrix A (rows are output gradients)."""
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2:
        raise ValueError("matrix must be two-dimensional")
    n, m = a.shape
    return Problem(name=name, m=m, n=n, fn=lambda x: a @ x, jac=lambda x: a)


def _horner(coeffs: np.ndarray, t: float) -> float:
    acc = 0.0
    for c in coeffs[::-1]:
        acc = acc * t + c
    return acc


# Fixed corpus parameters.
_SCALE_C = 3.0
_DOT_A = np.array([2.0, -1.0, 0.5])
_POLY_COEFFS = np.array([2.0, -1.0, 3.0, 0.5])  # 2 - t + 3t^2 + 0.5t^3, ascending
_POLY_DERIV = _POLY_COEFFS[1:] * np.arange(1, 4)
_MATVEC_A = np.array([[2.0, 0.0, 1.0], [-1.0, 3.0, 0.5]])
_SOLVE_WELL_A = np.array([[2.0, 1.0], [1.0, 2.0]])
_SOLVE_WELL_INV = np.array([[2.0, -1.0], [-1.0, 2.0]]) / 3.0
# Symmetric with eigenvalues {1, 1e-4}: condition number 1e4, inverse exact in decimals.
_SOLVE_ILL_A = np.array([[0.50005, 0.49995], [0.49995, 0.50005]])
_SOLVE_ILL_INV = np.array([[5000.5, -4999.5], [-4999.5, 5000.5]])


def scale_problem(c: float = _SCALE_C, m: int = 2) -> Problem:
    """f(x) = c x; exposed with configurable c for scaling-invariance checks."""
    return Problem(name="scale", m=m, n=m, fn=lambda x: c * x,
                   jac=lambda x: c * np.eye(m))


def _build_corpus() -> dict[str, Callable[[], Problem]]:
    return {
        "identity": lambda: Problem("identity", 2, 2, lambda x: x.copy(),
                                    lambda x: np.eye(2)),
        "scale": scale_problem,
        "dot": lambda: Problem("dot", 3, 1, lambda x: np.array([_DOT_A @ x]),
                               lambda x: _DOT_A.reshape(1, 3)),
        "sum": lambda: Problem("sum", 2, 1, lambda x: np.array([x[0] + x[1]]),
                               lambda x: np.ones((1, 2))),
        "product": lambda: Problem("product", 2, 1, lambda x: np.array([x[0] * x[1]]),
                                   lambda x: np.array([[x[1], x[0]]])),
        "polynomial": lambda: Problem("polynomial", 1, 1,
                                      lambda x: np.array([_horner(_POLY_COEFFS, x[0])]),
                                      lambda x: np.array([[_horner(_POLY_DERIV, x[0])]])),
        "matvec": lambda: linear_problem(_MATVEC_A, name="matvec"),
        "solve_well": lambda: Problem("solve_well", 2, 2,
                                      lambda x: np.linalg.solve(_SOLVE_WELL_A, x),
                                      lambda x: _SOLVE_WELL_INV),
        "solve_ill": lambda: Problem("solve_ill", 2, 2,
                                     lambda x: np.linalg.solve(_SOLVE_ILL_A, x),
                                     lambda x: _SOLVE_ILL_INV),
    }


_CORPUS = _build_corpus()


def list_problems() -> list[Problem]:
    """Fresh instances of every named corpus problem."""
    return [build() for build in _CORPUS.values()]


def get_problem(name: str) -> Problem:
    """Look a corpus problem up by name."""
    try:
        return _CORPUS[name]()
    except KeyError:
        known = ", ".join(sorted(_CORPUS))
        raise ValueError(f"unknown problem {name!r}; known problems: {known}") from None


def load_matrix_problem(path) -> Problem:
    """Linear problem f(x) = A x from a plain-text matrix file.

    First line: "n m"; then n rows of m whitespace-separated decimals.
    """
    path = Path(path)
    tokens = path.read_text().split()
    if len(tokens) < 2:
        raise ValueError(f"{path}: expected a header line 'n m'")
    try:
        n, m = int(tokens[0]), int(tokens[1])
    except ValueError:
        raise ValueError(f"{path}: header must be two integers 'n m'") from None
    if n < 1 or m < 1:
        raise ValueError(f"{path}: dimensions must be positive")
    values = tokens[2:]
    if len(values) != n * m:
        raise ValueError(f"{path}: expected {n * m} entries, found {len(values)}")
    a = np.array([float(v) for v in values]).reshape(n, m)
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{path}: matrix entries must be finite")
    return linear_problem(a, name=path.stem)


def random_linear_problem(m: int, n: int, stream: SampleStream,
                          name: str = "random-linear") -> Problem:
    """Linear problem with entries uniform on [-1, 1] drawn from the stream."""
    entries = stream.symmetric(n * m).reshape(n, m)
    return linear_problem(entries, name=name)


def random_point(problem: Problem, stream: SampleStream, *,
                 min_component: float = 0.0, min_norm: float = 0.0) -> np.ndarray:
    """Random input uniform in the box (-2, 2)^m, redrawn while the output
    is degenerate, at most 100 times.

    Degenerate means ||f(x)|| < min_norm or some |f_j(x)| < min_component.
    """
    for _ in range(100):
        x = -2.0 + 4.0 * stream.uniforms(problem.m)
        y = evaluate(problem, x)
        if np.linalg.norm(y) < min_norm:
            continue
        if min_component > 0.0 and np.any(np.abs(y) < min_component):
            continue
        return x
    raise RuntimeError(f"{problem.name}: no non-degenerate point found in 100 draws")
