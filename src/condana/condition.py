"""Worst-case and stochastic condition numbers at a point.

Every quantity depends only on x, f(x) and the Jacobian J(x): the entry
points evaluate f and J once per point and hand them to per-point
kernels. Worst-case quantities come from exact formulas (largest
singular value, weighted 1-norm). Stochastic quantities use the
linearized estimator: the limit of vanishing perturbation size is taken
analytically, so samples are drawn from the first-order model instead of
finite differences; ``delta_sweep`` checks that treatment empirically.
Losses of precision are reported in bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from . import closed_forms
from .problems import Problem, evaluate, evaluate_batch, jacobian
from .sampling import (_NORMAL, _SYMMETRIC, _UNIFORM, BallRegion, SampleStream, _ball_points,
                       _fill, _fill_scratch, _pooled, _split, sample_ball)


#: Confidence level of every reported Monte-Carlo half-width.
CONFIDENCE = 0.99
_Z = float(ndtri(0.5 * (1.0 + CONFIDENCE)))  # two-sided normal quantile


def _mean_var(row: np.ndarray, scratch: np.ndarray) -> tuple[float, float]:
    n = row.size
    mean = np.add.reduce(row) / n
    np.subtract(row, mean, out=scratch)
    scratch *= scratch
    return mean, np.add.reduce(scratch) / (n - 1)


def _reduce_rows(rows: np.ndarray, mean, var, exps, scratch: np.ndarray) -> None:
    """``mean_half_width``'s mean, variance and scale exponent of each row,
    written into ``mean``, ``var`` and ``exps``."""
    with np.errstate(over="ignore", invalid="ignore"):
        for i, row in enumerate(rows):
            mean[i], var[i] = _mean_var(row, scratch)
            if not 2.0**-900 <= var[i] < math.inf and (e := _pow2_exponent(row)):
                mean[i], var[i] = _mean_var(np.ldexp(row, -e, out=scratch), scratch)
                mean[i], exps[i] = math.ldexp(mean[i], e), e


def _by_rows(task, rows: np.ndarray, buffer=lambda size: None) -> None:
    """``task(lo, hi, buffer(hi - lo))`` over the rows of a ``(k, N)`` block:
    split by rows over the pool of the parallel scope when one is open and
    the block is large, else on every row here."""
    if len(rows) > 1 and _pooled(rows.size):
        _split(len(rows), task, buffer)
    else:
        task(0, len(rows), buffer(len(rows)))


def mean_half_width(values: np.ndarray):
    """Sample mean and its normal-theory half-width z * sd / sqrt(n) at
    level ``CONFIDENCE`` over the last axis: floats for one sample, arrays
    for a sample per row. Rows are reduced one by one through a scratch
    row, bit for bit as ``np.mean`` and ``np.std(ddof=1)`` reduce them. A
    row whose sum or squared deviations overflow or underflow is reduced
    again scaled by ``2**-e`` (``_pow2_exponent``), and the results are
    scaled back, so they are exact powers of two apart from the row's."""
    rows = values.reshape(-1, values.shape[-1])
    mean, var = np.empty(len(rows)), np.empty(len(rows))
    exps = np.zeros(len(rows), dtype=int)

    def reduce(lo, hi, scratch):
        _reduce_rows(rows[lo:hi], mean[lo:hi], var[lo:hi], exps[lo:hi], scratch)

    _by_rows(reduce, rows, lambda size: np.empty(rows.shape[1]))
    hw = np.ldexp(_Z * np.sqrt(var) / math.sqrt(rows.shape[1]), exps)
    return (float(mean[0]), float(hw[0])) if values.ndim == 1 else (mean, hw)


class DegenerateOutputError(ArithmeticError):
    """The norm-wise condition number is infinite: ||f(x)|| is zero, or the
    value lies beyond the double range."""


class PowerIterationError(RuntimeError):
    """The largest singular value could not be computed (LAPACK's SVD did
    not converge). The name predates the SVD and is kept for importers."""


@dataclass
class EstimatorConfig:
    """How the Monte-Carlo estimators run: the stream they draw from and
    the sample count. Half-widths are at the level ``CONFIDENCE``."""

    stream: SampleStream
    samples: int = 100_000

    def __post_init__(self):
        if self.samples < 100:
            raise ValueError("samples must be >= 100")


@dataclass(slots=True)
class DeltaPoint:
    """One finite-delta mean and its half-width in a sweep; both are None
    where ``underflowed`` flags the delta."""

    delta: float
    estimate: float | None
    half_width: float | None

    @property
    def underflowed(self) -> bool:
        return self.estimate is None


@dataclass(slots=True)
class StochasticEstimate:
    """A Monte-Carlo mean with its confidence half-width, plus the matching
    bit-loss estimate (mean of log2 of the same samples).

    Where the condition number is exactly 0 (x = 0, or J(x), or for a
    componentwise estimate its row, is 0 there) nothing is drawn: the estimate and half-width are 0 and the
    log2 entries, whose samples would all be -inf, are None.

    ``exact`` is filled when a closed form exists. ``log_skewness``, the
    skew of the log2 samples, is filled for componentwise estimates only:
    the log of a near-zero sample is heavy-tailed, and strong skew warns
    that the normal-theory half-width is optimistic.
    """

    estimate: float
    half_width: float
    log_estimate: float | None
    log_half_width: float | None
    exact: float | None = None
    log_skewness: float | None = None


@dataclass(slots=True)
class ConditionReport:
    """All six condition quantities at a point.

    ``wnc``/``wcc`` entries are None when the corresponding output is
    exactly zero there; the degenerate flags say which. Stochastic
    entries for flagged outputs are skipped (None) rather than failing
    the whole report.
    """

    problem: str
    point: np.ndarray
    m: int
    n: int
    k: int
    wnc: float | None
    wcc: list[float | None]
    snc: StochasticEstimate | None
    scc: list[StochasticEstimate | None]
    degenerate_norm: bool
    degenerate_outputs: list[int]


def spectral_norm(matrix) -> float:
    """Largest singular value, from LAPACK's SVD.

    Raises :class:`PowerIterationError` when the SVD does not converge.
    """
    b = np.asarray(matrix, dtype=float)
    if b.ndim != 2:
        raise ValueError("matrix must be two-dimensional")
    if not np.all(np.isfinite(b)):
        raise ValueError("matrix entries must be finite")
    try:
        return float(np.linalg.svd(b, compute_uv=False)[0])
    except np.linalg.LinAlgError as exc:
        raise PowerIterationError(f"SVD did not converge: {exc}") from exc


def _pow2_exponent(a: np.ndarray) -> int:
    """Binary exponent e of the largest |entry| of ``a``, so that ``a * 2**-e``
    is near 1 in size; 0 when that entry is 0 or in (1e-150, 1e150), where
    no square overflows and one that underflows is below the sum's rounding."""
    big = max(float(a.max()), -float(a.min()))
    return 0 if big == 0.0 or 1e-150 < big < 1e150 else math.frexp(big)[1]


def _column_norms(a: np.ndarray, e: int | None = None, out=None) -> np.ndarray:
    """Euclidean norm of each column of ``a * 2**e``, summing the squares,
    written over ``a``, as ``np.linalg.norm(a, axis=0)`` does, into ``out``
    where given. Without ``e``, ``a`` is first scaled by ``_pow2_exponent``
    (exactly)."""
    if e is None:
        e = _pow2_exponent(a)
        np.ldexp(a, -e, out=a)
    a *= a
    norms = np.sqrt(np.add.reduce(a, axis=0, out=out), out=out)
    return np.ldexp(norms, e, out=norms)


def _norm(v: np.ndarray) -> float:
    """Euclidean norm of a vector without overflow or underflow in its
    squares: ``np.linalg.norm(v)``, scaled by ``_pow2_exponent``."""
    e = _pow2_exponent(v)
    return math.ldexp(float(np.linalg.norm(np.ldexp(v, -e))), e)


@dataclass(slots=True)
class _Point:
    """The linearization at x that all six quantities read: x, f(x), their
    norms, J(x) (None where f(x) = 0), wnc (None where ``_wnc`` flags x)
    and, for each live output j (f_j(x) != 0, in ``live``; the others are
    in ``degenerate``), its weights g = x * J[j] in ``weights`` and its
    denominator |f_j(x)| in ``denoms``, both scaled by 2**-e with
    e = ``_pow2_exponent(g)``."""

    x: np.ndarray
    y: np.ndarray
    xnorm: float
    fnorm: float
    mat: np.ndarray | None
    wnc: float | None
    live: list[int]
    degenerate: list[int]
    weights: list[np.ndarray]
    denoms: list[float]


def _wnc(xnorm: float, fnorm: float, mat: np.ndarray | None) -> float | None:
    """||x|| sigma_1 / ||f(x)||, or None where the norm-wise condition
    numbers are infinite in double precision: f(x) = 0, or this value or
    the factor ||x|| / ||f(x)|| of every norm-wise sample overflows."""
    if fnorm == 0.0:
        return None
    sigma = spectral_norm(mat)
    value = xnorm * sigma / fnorm
    if value == math.inf:  # the product may overflow where the quotient does not
        value = xnorm / fnorm * sigma
    return value if value < math.inf and xnorm / fnorm < math.inf else None


def _at(problem: Problem, x) -> _Point:
    """f, J, sigma_1 and the componentwise weights evaluated once at x."""
    x = np.asarray(x, dtype=float).reshape(-1)
    y = evaluate(problem, x)
    xnorm, fnorm = _norm(x), _norm(y)
    mat = jacobian(problem, x).matrix if fnorm else None
    live = [j for j in range(problem.n) if y[j] != 0.0]
    degenerate = [j for j in range(problem.n) if y[j] == 0.0]
    weights, denoms = [], []
    for j in live:
        # a sum of |g_i| or a product u . g can overflow where its quotient by
        # |f_j(x)| does not; scaling both by one power of two is exact
        g = x * mat[j]
        e = _pow2_exponent(g)
        weights.append(np.ldexp(g, -e))
        denoms.append(math.ldexp(abs(float(y[j])), -e))
    return _Point(x, y, xnorm, fnorm, mat, _wnc(xnorm, fnorm, mat), live, degenerate,
                  weights, denoms)


def _norm_wise(problem: Problem, x) -> _Point:
    """The point of ``wnc`` and ``snc``, which raise where ``_wnc`` flags x."""
    p = _at(problem, x)
    if p.wnc is None:
        raise DegenerateOutputError(f"{problem.name}: norm-wise condition number is infinite")
    return p


def wnc(problem: Problem, x) -> float:
    """Worst-case norm-wise condition number ||x|| sigma_1 / ||f(x)||."""
    return _norm_wise(problem, x).wnc


_CHUNK = 1 << 16  # samples per ball chunk, part of the byte contract; cube chunk cap


def _draw_values(draw, n_samples: int, rows: int, what: str) -> np.ndarray:
    """``draw(count)``, a ``(count, k)`` block of k statistics per sample,
    called on chunks of ``rows`` samples until the ``(k, n_samples)``
    result, one contiguous row per statistic, is filled."""
    out = None
    for lo in range(0, n_samples, rows):
        chunk = draw(min(rows, n_samples - lo))
        if out is None:
            out = np.empty((chunk.shape[1], n_samples))
        out[:, lo:lo + len(chunk)] = chunk.T
        del chunk  # so that two chunks are never alive at once
    return _redraw_zeros(out, draw, what)


def _redraw_zeros(out: np.ndarray, draw, what: str) -> np.ndarray:
    """``out`` with its zero samples redrawn by ``draw``: they break the log
    estimator and have probability zero. They are redrawn from the
    continuing stream in sample order, a zero of statistic c taking column
    c of a fresh draw."""
    for _ in range(100):
        if out.all():
            return out
        zeros = np.nonzero(out.T == 0.0)
        fresh = draw(zeros[0].size)
        out.T[zeros] = fresh[np.arange(len(fresh)), zeros[1]]
    raise RuntimeError(f"persistent zero samples while estimating {what}")


def _on_pool(out: np.ndarray, pieces: int, piece, buffers, draw, what: str) -> np.ndarray:
    """``out`` filled by ``piece(i, buffers())`` for each piece i on the pool of
    the parallel scope, each worker with its own ``buffers()``. ``piece``
    returns whether its samples hold a zero; only then is ``out`` scanned
    for zeros to redraw by ``draw``."""
    zeros = np.zeros(pieces, dtype=bool)

    def run(first: int, last: int, bufs) -> None:
        for i in range(first, last):
            zeros[i] = piece(i, bufs)

    _split(pieces, run, lambda size: buffers())
    return _redraw_zeros(out, draw, what) if zeros.any() else out


def _ball_model(p: _Point, u: np.ndarray, out=None, product=None) -> np.ndarray:
    """||J u|| ||x|| / ||f(x)|| for each ball point u, a row of ``(count, m)``:
    the norm-wise linearized amplification, which ``snc`` averages and the
    sweep compares against, written into ``out`` ``(count,)`` where given.
    J is scaled by ``_pow2_exponent`` first, so no square overflows; J u is
    taken into ``product`` ``(n, count)`` where given."""
    e = _pow2_exponent(p.mat)
    values = _column_norms(np.matmul(np.ldexp(p.mat, -e), u.T, out=product), e, out)
    values *= p.xnorm / p.fnorm
    return values


def _ball_model_values(p: _Point, stream: SampleStream, n_samples: int) -> np.ndarray:
    """``_ball_model`` for u uniform in the unit ball, in one ``(1, n_samples)``
    row. Each chunk of ``_CHUNK`` samples draws its normals, then its radii,
    so ``_CHUNK`` fixes the bytes.

    Inside the parallel scope, the chunks are cut into pieces that run on
    its pool, each filling its normals and radii from the word ranges that
    a serial draw gives them, through buffers made once per call, one set
    per worker. A piece starts at a multiple of ``_cube_rows(m + n)``, a
    power of two, and a chunk's last piece runs to the chunk's end, so
    that each product J u rounds as the whole chunk's does: BLAS rounds a
    short product of a few columns differently. The stream then stands
    where the serial draw leaves it, and zero samples are redrawn
    serially."""
    m, n = p.x.size, len(p.mat)
    what = "norm-wise amplification"

    def draw(count: int) -> np.ndarray:
        u = stream.normals(count * m).reshape(count, m)
        return _ball_model(p, _ball_points(u, stream.uniforms(count)))[:, None]

    rows = _cube_rows(m + n)
    if n_samples <= rows or not _pooled(n_samples * m):
        return _draw_values(draw, n_samples, _CHUNK, what)
    bounds = []
    for start in range(0, n_samples, _CHUNK):
        count = min(_CHUNK, n_samples - start)
        bounds += range(start, start + max(count // rows, 1) * rows, rows)
    bounds.append(n_samples)
    size = max(hi - lo for lo, hi in zip(bounds, bounds[1:]))
    out = np.empty((1, n_samples))
    base, pos = stream._reserve(n_samples * (m + 1))

    def piece(i: int, buffers) -> bool:
        u, r, norms, work = buffers
        lo, count = bounds[i], bounds[i + 1] - bounds[i]
        # the piece's chunk draws m normals per sample, then one radius per sample
        start = lo - lo % _CHUNK
        normals = pos + start * (m + 1)
        radii = normals + min(_CHUNK, n_samples - start) * m
        scratch = work.view(np.uint64)
        _fill(base, normals + (lo - start) * m, u[:count].reshape(-1), scratch, _NORMAL)
        _fill(base, radii + lo - start, r[:count], scratch, _UNIFORM)
        _ball_points(u[:count], r[:count], 1.0, work[:count * m].reshape(count, m),
                     norms[:count])
        values = _ball_model(p, u[:count], out[0, lo:lo + count],
                             work[:n * count].reshape(n, count))
        return not values.all()

    def buffers():
        # the work buffer serves in turn as fill scratch, squares and J u
        return np.empty((size, m)), np.empty(size), np.empty(size), np.empty(size * max(m, n))

    return _on_pool(out, len(bounds) - 1, piece, buffers, draw, what)


def _cube_rows(width: int) -> int:
    """Rows per cube chunk or ball piece for ``width`` values per row (m
    coordinates and k weight vectors or n outputs): the largest power
    of two with rows * width <= 2**18, at most ``_CHUNK``. Power-of-two
    chunks split evenly over BLAS threads, so their bytes do not depend on
    the thread count, where an odd-sized matrix-vector product's did."""
    return min(_CHUNK, 1 << (max(1, (1 << 18) // width).bit_length() - 1))


def _cube_model(gmat: np.ndarray, denoms, u: np.ndarray, out=None) -> np.ndarray:
    """|u . g| / d for each cube point u, a row of ``(count, m)``, and each
    weight column g of ``gmat`` ``(m, k)`` with its denominator d in
    ``denoms``: the componentwise linearized amplification, ``(count, k)``,
    written into ``out`` where given."""
    values = np.abs(np.matmul(u, gmat, out=out), out=out)
    values /= denoms
    return values


def _cube_values(model, m: int, k: int, stream: SampleStream, n_samples: int,
                 what: str) -> np.ndarray:
    """``model(u, out=None)``, the ``(count, k)`` statistics of the cube
    points u, a row of ``(count, m)``, for u uniform on [-1, 1]^m, as a
    ``(k, n_samples)`` block in chunks of ``_cube_rows(m + k)`` samples.

    Inside the parallel scope, the chunks run on its pool (``_on_pool``),
    each from the word range that a serial draw would give it; the stream
    then stands where the serial draw leaves it, and zero samples are
    redrawn serially."""
    rows = _cube_rows(m + k)
    pad = k > 1
    # BLAS multiplies a short block by a small-matrix kernel that rounds
    # differently; zero rows make it a full chunk again (one column is a
    # matrix-vector product, which rounds alike at any length)

    def draw(count: int) -> np.ndarray:
        u = stream.symmetric(count * m).reshape(count, m)
        if pad and count < rows:
            u = np.concatenate([u, np.zeros((rows - count, m))])
        return model(u)[:count]

    if n_samples <= rows or not _pooled(n_samples * m):
        return _draw_values(draw, n_samples, rows, what)
    out = np.empty((k, n_samples))
    base, pos = stream._reserve(n_samples * m)

    def chunk(i: int, buffers) -> bool:
        u, values, scratch = buffers
        lo = i * rows
        count = min(rows, n_samples - lo)
        used = rows if pad else count
        _fill(base, pos + lo * m, u[:count].reshape(-1), scratch, _SYMMETRIC)
        u[count:used] = 0.0
        model(u[:used], values[:used])
        out[:, lo:lo + count] = values[:count].T
        return not values[:count].all()

    return _on_pool(out, -(-n_samples // rows), chunk, lambda: (
        np.empty((rows, m)), np.empty((rows, k)), _fill_scratch(rows * m)), draw, what)


def cube_model_values(gmat: np.ndarray, denoms, stream: SampleStream,
                      n_samples: int) -> np.ndarray:
    """``_cube_model`` for u uniform on [-1, 1]^m, as a ``(k, n_samples)``
    block. Every column shares the same u."""
    m, k = gmat.shape
    return _cube_values(lambda u, out=None: _cube_model(gmat, denoms, u, out), m, k,
                        stream, n_samples, "componentwise amplification")


def _row_estimates(values: np.ndarray, exact: list) -> list[StochasticEstimate]:
    """Mean and log2 mean with half-widths of each row of a ``(k, N)`` block,
    with that row's ``exact``; leaves the log2 samples in ``values``."""
    est, hw = mean_half_width(values)
    _by_rows(lambda lo, hi, _: np.log2(values[lo:hi], out=values[lo:hi]), values)
    log_est, log_hw = mean_half_width(values)
    return list(map(StochasticEstimate, est.tolist(), hw.tolist(), log_est.tolist(),
                    log_hw.tolist(), exact))


def _componentwise(gmat: np.ndarray, denoms: np.ndarray, stream: SampleStream,
                   samples: int) -> tuple[list[StochasticEstimate], np.ndarray]:
    """|u . g| / denom for k nonzero weight columns ``(m, k)`` and
    denominators ``(k,)``, over one shared cube block: one estimate per
    column, exact for at most 3 nonzero weights, and the ``(k, samples)``
    block of log2 samples."""
    values = cube_model_values(gmat, denoms, stream, samples)
    exact = [closed_forms.exact_mean_abs_weighted_sum(g) / float(d)
             if np.count_nonzero(g) <= 3 else None for g, d in zip(gmat.T, denoms)]
    return _row_estimates(values, exact), values


def _snc(p: _Point, stream: SampleStream, samples: int) -> StochasticEstimate:
    """Norm-wise kernel at a point ``_wnc`` does not flag."""
    exact = None
    if p.y.size == 1:
        exact = p.wnc * closed_forms.snc_wnc_exact(p.x.size)[0]
    if p.wnc == 0.0:
        return StochasticEstimate(0.0, 0.0, None, None, exact)
    return _row_estimates(_ball_model_values(p, stream, samples), [exact])[0]


def _scc(g: np.ndarray, denom: float, stream: SampleStream,
         samples: int) -> StochasticEstimate:
    """Componentwise estimate for the weights g of one output, with log skew."""
    if not g.any():
        return StochasticEstimate(0.0, 0.0, None, None, 0.0)
    (est,), (logs,) = _componentwise(g[:, None], np.array([denom]), stream, samples)
    logs -= est.log_estimate  # the centred log2 samples
    sd = math.sqrt(float(np.sum(logs * logs)) / (logs.size - 1))
    est.log_skewness = float(np.mean(logs**3)) / sd**3 if sd > 0.0 else 0.0
    return est


def snc(problem: Problem, x, cfg: EstimatorConfig) -> StochasticEstimate:
    """Stochastic norm-wise condition number and loss of precision.

    Averages ||J' u|| * ||x|| / ||f(x)|| over u uniform in the unit ball
    (and the log2 of the same samples for the bit loss). When n = 1 the
    exact closed-form value is attached as well.
    """
    return _snc(_norm_wise(problem, x), cfg.stream, cfg.samples)


def _delta_point(delta: float, diffs: np.ndarray, denom: float, lin: float | None) -> DeltaPoint:
    scale = delta * denom
    # where that product falls below the smallest normal double, it loses
    # precision or underflows to 0; dividing by each in turn keeps the values
    values = diffs / scale if scale >= 2.0**-1022 else diffs / denom / delta
    if lin == 0.0 and not values.any():  # a zero condition number, not an underflow
        return DeltaPoint(delta, 0.0, 0.0)
    if np.any(values == 0.0):
        # a difference rounded or underflowed to zero: f missed the perturbation
        # there, and such samples bias the mean low, so the delta is flagged
        return DeltaPoint(delta, None, None)
    return DeltaPoint(delta, *mean_half_width(values))


@dataclass
class SweepReport:
    """Finite-delta estimates next to linearized values on shared samples."""

    problem: str
    point: np.ndarray
    deltas: tuple[float, ...]
    snc_linearized: float | None
    snc_by_delta: list[DeltaPoint]
    scc_linearized: list[float | None]
    scc_by_delta: list[list[DeltaPoint]]
    degenerate_norm: bool
    degenerate_outputs: list[int]


def delta_sweep(problem: Problem, x, deltas, cfg: EstimatorConfig) -> SweepReport:
    """Empirical validation of the vanishing-perturbation limit.

    The norm-wise estimate perturbs x by delta * ||x|| * u with u in the
    unit ball; the componentwise one perturbs each coordinate to
    x_i (1 + delta u_i) with u in [-1, 1]^m. One block of ball directions
    and one block of cube directions is drawn up front and reused for the
    linearized values and for every delta, so |finite-delta - linearized|
    carries only the Taylor remainder, not fresh Monte-Carlo noise. The
    linearized values are the estimators' own models on these blocks,
    reduced as they reduce them: up to ``_CHUNK`` samples, they are
    ``report``'s ``snc`` and ``scc[0]`` estimates for the same stream. f is
    evaluated on each block as one batch, once per delta and region. For
    linear problems the two agree to rounding for every delta. A delta
    at which any difference underflows to zero is flagged, unless all of
    them and the linearized value are 0 (a zero condition number, as at
    x = 0): its estimate is then 0. ``deltas`` must be finite, positive
    and strictly decreasing.
    """
    deltas = tuple(float(d) for d in deltas)
    if not deltas:
        raise ValueError("delta_sweep needs a non-empty deltas list")
    if not (math.isfinite(deltas[0])
            and all(a > b for a, b in zip(deltas, deltas[1:] + (0.0,)))):
        raise ValueError("deltas must be finite, positive and strictly decreasing")
    p = _at(problem, x)
    x, y = p.x, p.y
    subs = cfg.stream.split(2)
    u_ball = sample_ball(BallRegion(np.zeros(problem.m), 1.0), subs[0], size=cfg.samples)
    u_cube = subs[1].symmetric(cfg.samples * problem.m).reshape(cfg.samples, problem.m)

    snc_lin = None if p.wnc is None else float(np.mean(_ball_model(p, u_ball)))
    scc_lin: list[float | None] = [None] * problem.n
    for j, g, d in zip(p.live, p.weights, p.denoms):
        scc_lin[j] = float(np.mean(_cube_model(g[:, None], d, u_cube)[:, 0]))

    snc_points: list[DeltaPoint] = []
    scc_points: list[list[DeltaPoint]] = [[] for _ in range(problem.n)]
    # the perturbed points of one delta and region, as columns; the operand
    # order matches x + (delta * ||x||) * u and x + (delta * x) * u
    buf = np.empty((problem.m, cfg.samples))
    for delta in deltas:
        if p.wnc is not None:
            np.multiply(u_ball.T, delta * p.xnorm, out=buf)
            buf += x[:, None]
            diffs = _column_norms(evaluate_batch(problem, buf) - y[:, None])
            snc_points.append(_delta_point(delta, diffs, p.fnorm, snc_lin))
        if p.live:
            np.multiply(u_cube.T, (delta * x)[:, None], out=buf)
            buf += x[:, None]
            # the finite differences keep f's own |f_j(x)|, apart from the
            # linearization, so that a fault in either shows as a gap
            diffs = np.abs(evaluate_batch(problem, buf)[p.live] - y[p.live, None])
            for j, row in zip(p.live, diffs):
                scc_points[j].append(_delta_point(delta, row, abs(float(y[j])), scc_lin[j]))

    return SweepReport(
        problem=problem.name,
        point=x.copy(),
        deltas=deltas,
        snc_linearized=snc_lin,
        snc_by_delta=snc_points,
        scc_linearized=scc_lin,
        scc_by_delta=scc_points,
        degenerate_norm=p.wnc is None,
        degenerate_outputs=p.degenerate,
    )


def report(problem: Problem, x, cfg: EstimatorConfig) -> ConditionReport:
    """All six quantities at x, from one evaluation of f, J and sigma_1.

    Outputs with f_j(x) = 0 are flagged rather than failing the whole
    report; the stream is split per estimator so the layout is
    deterministic."""
    p = _at(problem, x)
    streams = cfg.stream.split(1 + problem.n)
    snc_value = None if p.wnc is None else _snc(p, streams[0], cfg.samples)
    wcc_values: list[float | None] = [None] * problem.n
    scc_values: list[StochasticEstimate | None] = [None] * problem.n
    for j, g, d in zip(p.live, p.weights, p.denoms):
        wcc_values[j] = float(np.sum(np.abs(g))) / d
        scc_values[j] = _scc(g, d, streams[1 + j], cfg.samples)

    return ConditionReport(
        problem=problem.name,
        point=p.x.copy(),
        m=problem.m,
        n=problem.n,
        k=min(problem.m, problem.n),
        wnc=p.wnc,
        wcc=wcc_values,
        snc=snc_value,
        scc=scc_values,
        degenerate_norm=p.wnc is None,
        degenerate_outputs=p.degenerate,
    )
