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

from . import closed_forms, sampling
from .problems import Problem, _evaluate_columns, evaluate, jacobian
from .sampling import (_BLOCK, _SYMMETRIC, _UNIFORM, BallRegion, SampleStream, _carve,
                       _fill, _split, _symmetric_rows, sample_ball)


#: Confidence level of every reported Monte-Carlo half-width.
CONFIDENCE = 0.99
_Z = float(ndtri(0.5 * (1.0 + CONFIDENCE)))  # two-sided normal quantile


#: The estimators' statistics of a draw's values, each ``transform(t, out)``
#: of them: the values themselves (None) and their log2.
_ESTIMATES = (None, np.log2)


def _reduce(t: np.ndarray, stats, third: bool, out: np.ndarray, w, d, rescale=True) -> None:
    """Moments of each row of ``t`` ``(k, n)`` under each statistic, into
    ``out`` ``(len(stats), 4, k)`` (zeros): the mean, the sum of squared
    deviations, with ``third`` the last statistic's sum of cubed ones, and
    a binary exponent e. The deviations go to ``w``, cubes to ``d`` (``(k,
    >= n)`` each). These are ``np.mean``'s and ``np.std(ddof=1)``'s steps
    on each row. A row whose variance falls outside [2**-900, inf) (squares
    that underflowed, or a sum or squares that overflowed) is reduced again
    scaled by 2**-e (``_pow2_exponent``)."""
    k, n = t.shape
    w, d = w[:k, :n], d[:k, :n]
    with np.errstate(over="ignore", invalid="ignore"):
        for j, (transform, slot) in enumerate(zip(stats, out)):
            cubes = third and j == len(stats) - 1
            x = transform(t, out=w) if transform else t
            np.divide(np.add.reduce(x, axis=1), n, out=slot[0])
            dev = np.subtract(x, slot[0][:, None], out=w)
            squares = np.multiply(dev, dev, out=d if cubes else dev)
            np.add.reduce(squares, axis=1, out=slot[1])
            if cubes:
                # numpy's power, the log skewness's cube so far: multiplies
                # are faster, which analyze-scan's memory metric penalizes
                # (see CHANGES.md)
                np.power(dev, 3, out=squares)
                np.add.reduce(squares, axis=1, out=slot[2])
            var = slot[1] / max(n - 1, 1)
            if not rescale or (2.0**-900 <= np.minimum.reduce(var)
                               and np.maximum.reduce(var) < math.inf):
                continue
            for c in np.flatnonzero(~((2.0**-900 <= var) & (var < math.inf))):
                row = transform(t[c:c + 1], out=w[c:c + 1]) if transform else t[c:c + 1]
                if e := _pow2_exponent(row):
                    row = np.ldexp(row, -e, out=w[c:c + 1])
                    _reduce(row, (None,), cubes, slot[None, :, c:c + 1], row, d[c:c + 1], False)
                    slot[3, c] = e


def _half_widths(moments) -> tuple[np.ndarray, np.ndarray]:
    """The means of combined moments and their half-widths z * sd / sqrt(n)
    at level ``CONFIDENCE``, each ``(statistics, k)``, for n >= 2."""
    n, mean, m2, _, e = moments
    if min(n.tolist()) < 2:  # a list's min costs a tenth of np.min on a few counts
        raise RuntimeError("fewer than two nonzero Monte-Carlo samples")
    return np.ldexp(mean, e), np.ldexp(_Z * np.sqrt(m2 / (n - 1)) / np.sqrt(n), e)


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

    Where the condition number is 0 in double precision (x = 0, or J(x),
    or for a componentwise estimate its row, is 0 there, or it rounds to
    0) nothing is drawn: the estimate and half-width are 0 and the log2
    entries, whose samples would all be -inf, are None.

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


def _singular_values(matrix) -> np.ndarray:
    """All singular values, largest first, from LAPACK's SVD; raises
    :class:`PowerIterationError` when it does not converge."""
    b = np.asarray(matrix, dtype=float)
    if b.ndim != 2:
        raise ValueError("matrix must be two-dimensional")
    if not np.all(np.isfinite(b)):
        raise ValueError("matrix entries must be finite")
    try:
        return np.linalg.svd(b, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise PowerIterationError(f"SVD did not converge: {exc}") from exc


def spectral_norm(matrix) -> float:
    """Largest singular value (``_singular_values``)."""
    return float(_singular_values(matrix)[0])


def _pow2_exponent(a: np.ndarray) -> int:
    """Binary exponent e of the largest |entry| of ``a``, so that ``a * 2**-e``
    is near 1 in size; 0 when that entry is 0 or in (1e-150, 1e150), where
    no square overflows and one that underflows is below the sum's rounding."""
    big = max(float(a.max()), -float(a.min()))
    return 0 if big == 0.0 or 1e-150 < big < 1e150 else math.frexp(big)[1]


def _column_norms(a: np.ndarray, out=None) -> np.ndarray:
    """Euclidean norm of each column of ``a``, summing the squares, written
    over ``a``, as ``np.linalg.norm(a, axis=0)`` does, into ``out`` where
    given. ``a`` is first scaled by ``_pow2_exponent`` (exactly); the sweep
    scales each stripe alone, which gives the whole block's norms unless a
    scaled square underflows in one of them. At e = 0, the usual case, both
    scalings are skipped: times 2**0 is exact."""
    e = _pow2_exponent(a)
    if e:
        np.ldexp(a, -e, out=a)
    a *= a
    norms = np.sqrt(np.add.reduce(a, axis=0, out=out), out=out)
    return np.ldexp(norms, e, out=norms) if e else norms


def _norm(v: np.ndarray) -> float:
    """Euclidean norm of a vector without overflow or underflow in its
    squares: ``np.linalg.norm(v)``, scaled by ``_pow2_exponent``."""
    e = _pow2_exponent(v)
    return math.ldexp(float(np.linalg.norm(np.ldexp(v, -e))), e)


@dataclass(slots=True)
class _Point:
    """The linearization at x that all six quantities read: x, f(x), their
    norms, J(x), its singular values ``sigma`` (largest first) and wnc =
    ||x|| sigma_1 / ||f(x)||, all None where f(x) = 0 (wnc also where it or
    ||x|| / ||f(x)|| overflows), and for each live output j (f_j(x) != 0,
    in ``live``; the others are in ``degenerate``) its weights g = x * J[j]
    scaled to unit 1-norm in ``weights``, and wcc_j = ||g||_1 / |f_j(x)|,
    to which its samples are ratios, as the norm-wise ones are to wnc."""

    x: np.ndarray
    y: np.ndarray
    xnorm: float
    fnorm: float
    mat: np.ndarray | None
    sigma: np.ndarray | None
    wnc: float | None
    live: list[int]
    degenerate: list[int]
    weights: list[np.ndarray]
    wcc: list[float]


def _at(problem: Problem, x) -> _Point:
    """f, J, its singular values, wnc, and each live output's weights and wcc, once at x."""
    x = np.asarray(x, dtype=float).reshape(-1)
    y = evaluate(problem, x)
    xnorm, fnorm = _norm(x), _norm(y)
    mat = sigma = wnc = None
    if fnorm:
        mat = jacobian(problem, x).matrix
        sigma = _singular_values(mat)
        wnc = xnorm * float(sigma[0]) / fnorm
        if wnc == math.inf:  # the product may overflow where the quotient does not
            wnc = xnorm / fnorm * float(sigma[0])
        if not (wnc < math.inf and xnorm / fnorm < math.inf):
            wnc = None
    live = [j for j in range(problem.n) if y[j] != 0.0]
    degenerate = [j for j in range(problem.n) if y[j] == 0.0]
    weights, wcc = [], []
    for j in live:
        # a sum of |g_i| can overflow where its quotient by |f_j(x)| does
        # not; scaling both by one power of two is exact
        g = x * mat[j]
        e = _pow2_exponent(g)
        try:
            d = math.ldexp(abs(float(y[j])), -e)
        except OverflowError:  # g far below f_j(x), as at a subnormal x: scale by f_j
            e = math.frexp(float(y[j]))[1] - 1022
            d = math.ldexp(abs(float(y[j])), -e)
        g = np.ldexp(g, -e)
        norm = float(np.sum(np.abs(g)))
        wcc.append(norm / d)
        weights.append(g / norm if norm else g)
    return _Point(x, y, xnorm, fnorm, mat, sigma, wnc, live, degenerate, weights, wcc)


def _norm_wise(problem: Problem, x) -> _Point:
    """The point of ``wnc`` and ``snc``, which raise where its wnc is None."""
    p = _at(problem, x)
    if p.wnc is None:
        raise DegenerateOutputError(f"{problem.name}: norm-wise condition number is infinite")
    return p


def wnc(problem: Problem, x) -> float:
    """Worst-case norm-wise condition number ||x|| sigma_1 / ||f(x)||."""
    return _norm_wise(problem, x).wnc


_CHUNK = 1 << 16  # samples per cube chunk at most
_STRIPE = 1 << 14  # columns per stripe of the sweep's finite differences


class _Moments:
    """A draw's moments per piece: counts ``(pieces, k)`` and ``_reduce``'s
    ``(pieces, statistics, 4, k)``, filled by ``_piece_moments`` on any
    thread, zero samples left out."""

    def __init__(self, pieces: int, k: int, stats, third: bool = False):
        self.stats, self.third = stats, third
        self.counts = np.zeros((pieces, k))
        self.slots = np.zeros((pieces, len(stats), 4, k))

    def shapes(self, rows: int) -> list[tuple[int, int]]:
        """A worker's buffers for pieces of up to ``rows`` samples."""
        k = self.counts.shape[1]
        return [(k, rows), (k, rows), (k if self.third else 0, rows)]

    def combine(self):
        """``(n, mean, m2, m3, e)``, each ``(statistics, k)`` (n ``(k,)``; m3 of
        the statistic that takes it): the pieces alone, combined in order by
        the pairwise updates of Chan, Golub & LeVeque (mean, m2) and Pebay
        (m3), each first brought to the largest exponent, so a row 2**k away
        from unit scale gives 2**k times its moments."""
        counts, slots = self.counts, self.slots
        exps = slots[:, :, 3]
        if not counts[1:].any():  # one piece, returned as it is
            return counts[0], slots[0, :, 0], slots[0, :, 1], slots[0, :, 2], exps[0].astype(int)
        live = counts[:, None] > 0
        top = np.max(np.where(live, exps, -math.inf), axis=0)
        top[top == -math.inf] = 0.0
        shift = np.where(live, exps - top, 0.0).astype(int)
        mean, m2, m3 = (np.ldexp(slots[:, :, j], (j + 1) * shift) for j in range(3))
        n, mu, q2, q3 = counts[0], mean[0], m2[0], m3[0]
        for nb, mb, m2b, m3b in zip(counts[1:], mean[1:], m2[1:], m3[1:]):
            total = n + nb
            div = np.maximum(total, 1.0)  # two empty slots make an empty one
            delta = mb - mu
            cross = delta * n * nb / div
            q3 = (q3 + m3b + delta * delta * cross * (n - nb) / div
                  + 3.0 * delta * (n * m2b - nb * q2) / div)
            q2 = q2 + m2b + delta * cross
            mu = mu + delta * nb / div
            n = total
        return n, mu, q2, q3, top.astype(int)


def _piece_moments(acc: _Moments, i: int, values: np.ndarray, bufs) -> None:
    """The piece kernel: the moments of piece i of a draw, its ``(count,
    k)`` values, into slot i of ``acc``, through a worker's buffers of
    ``acc.shapes`` (``values`` may share the second's memory). A zero
    sample, of probability zero (a cancellation in u . g, an underflow), is
    left out of its column: equal in law to drawing it again.
    ``_delta_point`` flags a zero finite difference (f missed it)."""
    t, w, d = bufs
    count, k = values.shape
    if values.T.flags.c_contiguous and not np.may_share_memory(values, w):
        t = values.T  # one column needs no copy
    else:
        t = t[:, :count]
        np.copyto(t, values.T)
    if np.minimum.reduce(values, axis=None):  # faster than all() on these nonnegatives
        acc.counts[i] = count
        _reduce(t, acc.stats, acc.third, acc.slots[i], w, d)
        return
    for c, row in enumerate(t):
        kept = row[row != 0.0][None]
        acc.counts[i, c] = kept.size
        if kept.size:
            _reduce(kept, acc.stats, acc.third, acc.slots[i, :, :, c:c + 1], w, d)


def _serial(acc: _Moments, draw, bounds: list[int]):
    """``acc.combine`` of ``draw(count)`` made here for each piece in turn,
    the pieces starting at ``bounds`` (the last entry is the sample count)."""
    bufs = _carve(acc.shapes(max(hi - lo for lo, hi in zip(bounds, bounds[1:]))))[0]
    for i, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        _piece_moments(acc, i, draw(hi - lo), bufs)
    return acc.combine()


def _block_moments(values: np.ndarray, bounds: list[int]):
    """The combined moments of the ``(N, k)`` values, zeros left out, reduced
    in the pieces that start at ``bounds`` (the last entry is N). One piece
    without zeros reduces each column whole, bit for bit as ``np.mean`` and
    ``np.std(ddof=1)`` do where no square overflows or underflows."""
    acc = _Moments(len(bounds) - 1, values.shape[1], (None,))
    pieces = iter(np.split(values, bounds[1:-1]))
    return _serial(acc, lambda count: next(pieces), bounds)


def _ball_model(a: np.ndarray, u: np.ndarray) -> np.ndarray:
    """||a u|| for each ball point u, a row of ``(count, m)``: with a = J /
    sigma_1, the sweep's norm-wise linearized ratio to wnc, at most 1, so no
    square overflows."""
    return _column_norms(a @ u.T)


def _bounds(n_samples: int, width: int) -> list[int]:
    """The pieces' first samples, then ``n_samples``, for ``width`` values or
    words per sample: ``_cube_rows(width)`` samples each, the last fewer."""
    return [*range(0, n_samples, _cube_rows(width)), n_samples]


#: Uniforms per product: each is at least 2**-53, and 2**(-53 * 19) > 2**-1022.
_PRODUCT = 19


def _ball_rows(k: int, m: int) -> tuple[int, int, int]:
    """The chi-square terms of a norm-wise sample for k singular values and
    m inputs, k + odd with odd = (m - k) % 2, the uniforms that make them,
    2h for h = ceil((k + odd) / 2) pairs (``_chi_square_pairs``), and its
    words: those, then half = (m + 2 - k) // 2 uniforms for c."""
    terms = k + (m - k) % 2
    pairs = 2 * -(-terms // 2)
    return terms, pairs, pairs + (m + 2 - k) // 2


def _ball_values(sigma: np.ndarray, m: int, u: np.ndarray, work: np.ndarray,
                 out: np.ndarray) -> np.ndarray:
    """sqrt(sum_i rho_i^2 g_i^2 / (sum_i z_i^2 + c)), at most 1, rho = sigma
    / sigma_1 for J's k singular values ``sigma``, largest first, and m
    inputs, into ``out`` over ``u`` (may be flat) and ``work``, for the
    uniforms ``u`` ``(2h + half, count)`` of ``_ball_rows``: its first 2h
    rows give the squared normals z^2 (``_chi_square_pairs``), k + odd of
    them, g^2 its first k; c is -2 ln of the product of the other rows,
    ``_PRODUCT`` at a time. The denominator is chi-square on m + 2 degrees,
    so g over its root is the first k coordinates of a point uniform in the
    m-ball (Voelker, Gosmann & Stewart, 2017); ``_snc`` scales by wnc. No
    value is 0: rho_1 = 1 and no term is 0."""
    k, (terms, pairs, _) = sigma.size, _ball_rows(sigma.size, m)
    u = u.reshape(-1, out.size)
    z, v = u[:terms], u[pairs:]
    sampling._chi_square_pairs(u[:pairs], terms, work)
    c = np.log(np.multiply.reduce(v[:_PRODUCT], axis=0, out=work), out=work)
    for lo in range(_PRODUCT, len(v), _PRODUCT):
        c += np.log(np.multiply.reduce(v[lo:lo + _PRODUCT], axis=0, out=out), out=out)
    c *= -2.0
    c += np.add.reduce(z, axis=0, out=out)
    rho = sigma / sigma[0]
    z[:k] *= (rho * rho)[:, None]
    out = np.divide(np.add.reduce(z[:k], axis=0, out=out), c, out=out)
    return np.sqrt(out, out=out)


def _ball_moments(sigma: np.ndarray, m: int, stream: SampleStream, n_samples: int):
    """The combined ``_ESTIMATES`` moments of the ratios ||J u|| / sigma_1 to
    the worst case, for u uniform in the unit m-ball, from J's singular
    values ``sigma`` alone (``_ball_values``), free of BLAS rounding. The
    pieces are ``_bounds`` for a sample's words (``_ball_rows``), all
    uniforms, row by row, drawn from the stream, or in the parallel scope,
    at any width, filled from the words it reserves."""
    width = _ball_rows(sigma.size, m)[2]
    bounds = _bounds(n_samples, width)
    acc = _Moments(len(bounds) - 1, 1, _ESTIMATES)

    def draw(count: int) -> np.ndarray:
        return _ball_values(sigma, m, stream.uniforms(width * count), np.empty(count),
                            np.empty(count))[:, None]

    if not sampling._width():
        return _serial(acc, draw, bounds)
    base, pos = stream._reserve(n_samples * width)

    def run(first: int, last: int, buffers) -> None:
        u, scratch, t, w, _ = buffers
        for i in range(first, last):
            lo, count = bounds[i], bounds[i + 1] - bounds[i]
            _fill(base, pos + lo * width, u[:width * count], scratch.view(np.uint64), _UNIFORM)
            values = _ball_values(sigma, m, u[:width * count], w[0, :count], t[0, :count])
            _piece_moments(acc, i, values[:, None], buffers[2:])

    size = bounds[1]  # the first piece is the longest
    _split(len(bounds) - 1, run, [(width * size,), (min(width * size, _BLOCK),), *acc.shapes(size)])
    return acc.combine()


def _cube_rows(width: int) -> int:
    """Rows per cube chunk or ball piece, for ``width`` values or words per
    sample: the largest power of two with rows * width <= 2**18, at most
    ``_CHUNK``. This fixes the piece plan, and through it the bytes, by
    (width, sample count) alone."""
    return min(_CHUNK, 1 << (max(1, (1 << 18) // width).bit_length() - 1))


def _cube_model(gmat: np.ndarray, u: np.ndarray, out=None) -> np.ndarray:
    """|u . w| for each cube point u, a row of ``(count, m)``, and each weight
    column w of ``gmat`` ``(m, k)``: with w of unit 1-norm, the
    componentwise linearized ratio to wcc, at most 1, ``(count, k)``,
    written into ``out`` where given."""
    return np.abs(np.matmul(u, gmat, out=out), out=out)


def _cube_moments(model, m: int, k: int, stream: SampleStream, n_samples: int,
                  stats=_ESTIMATES, third: bool = False):
    """The combined moments (``_Moments``) of ``model(u, out=None)``, the
    ``(count, k)`` values of the cube points u, rows of ``(count, m)``, for u
    uniform on [-1, 1]^m, in the pieces of ``_bounds``: ``_cube_rows(m + k)``
    samples, one chunk each. Inside the parallel scope, at any width, the
    chunks run through ``_split``, each from the word range that a serial
    draw would give it."""
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

    bounds = _bounds(n_samples, m + k)
    pieces = len(bounds) - 1
    acc = _Moments(pieces, k, stats, third)
    if not sampling._width():
        return _serial(acc, draw, bounds)
    base, pos = stream._reserve(n_samples * m)

    def run(first: int, last: int, buffers) -> None:
        u, values, scratch, t, d = buffers
        # once transposed, the values' memory serves the statistics
        bufs = t, values.reshape(k, rows), d
        for i in range(first, last):
            lo, count = bounds[i], bounds[i + 1] - bounds[i]
            used = rows if pad else count
            _fill(base, pos + lo * m, u[:count].reshape(-1), scratch.view(np.uint64), _SYMMETRIC)
            u[count:used] = 0.0
            model(u[:used], values[:used])
            _piece_moments(acc, i, values[:count], bufs)

    t, _, d = acc.shapes(rows)
    _split(pieces, run, [(rows, m), (rows, k), (min(rows * m, _BLOCK),), t, d])
    return acc.combine()


def _estimates(moments, exact: list) -> list[StochasticEstimate]:
    """The ``StochasticEstimate`` of each column of ``_ESTIMATES`` moments,
    with that column's ``exact``."""
    est, hw = (a.tolist() for a in _half_widths(moments))
    return list(map(StochasticEstimate, est[0], hw[0], est[1], hw[1], exact))


def _componentwise(gmat: np.ndarray, stream: SampleStream, samples: int,
                   skew: bool = False) -> list[StochasticEstimate]:
    """|u . w| for k nonzero weight columns w ``(m, k)`` over one shared cube
    draw: one estimate per column, exact for at most 3 nonzero weights, and
    with ``skew`` the skewness of its log2 samples, from their combined
    third moment. For columns of unit 1-norm these are the ratios to wcc."""
    m, k = gmat.shape
    moments = _cube_moments(lambda u, out=None: _cube_model(gmat, u, out), m, k,
                            stream, samples, third=skew)
    exact = [closed_forms.exact_mean_abs_weighted_sum(w) if np.count_nonzero(w) <= 3 else None
             for w in gmat.T]
    ests = _estimates(moments, exact)
    if skew:
        n, _, m2, m3, _ = moments
        for est, count, q2, q3 in zip(ests, n.tolist(), m2[1].tolist(), m3[1].tolist()):
            sd = math.sqrt(q2 / (count - 1))
            est.log_skewness = q3 / count / sd**3 if sd > 0.0 else 0.0
    return ests


def _snc(p: _Point, stream: SampleStream, samples: int) -> StochasticEstimate:
    """Norm-wise kernel at a point whose wnc is not None, on ratios to wnc (as ``_scc``)."""
    exact = None
    if p.y.size == 1:
        exact = p.wnc * closed_forms.snc_wnc_exact(p.x.size)[0]
    if p.wnc == 0.0:
        return StochasticEstimate(0.0, 0.0, None, None, exact)
    moments = _ball_moments(p.sigma, p.x.size, stream, samples)
    (mean, log_mean), (hw, log_hw) = (a[:, 0].tolist() for a in _half_widths(moments))
    return StochasticEstimate(mean * p.wnc, hw * p.wnc, log_mean + math.log2(p.wnc), log_hw, exact)


def _scc(w: np.ndarray, wcc: float, stream: SampleStream, samples: int) -> StochasticEstimate:
    """Componentwise kernel for the unit 1-norm weights w of one output, with
    log skew: the estimate, half-width and exact value of the ratios, times
    ``wcc`` once, and log2 wcc added to their log mean, so no sample
    underflows; nothing is drawn where ``wcc`` is 0 in double precision."""
    if wcc == 0.0:
        return StochasticEstimate(0.0, 0.0, None, None, 0.0)
    est = _componentwise(w[:, None], stream, samples, skew=True)[0]
    exact = None if est.exact is None else est.exact * wcc
    log_mean = est.log_estimate + math.log2(wcc)
    return StochasticEstimate(est.estimate * wcc, est.half_width * wcc, log_mean,
                              est.log_half_width, exact, est.log_skewness)


def snc(problem: Problem, x, cfg: EstimatorConfig) -> StochasticEstimate:
    """Stochastic norm-wise condition number and loss of precision.

    Averages ||J' u|| * ||x|| / ||f(x)|| over u uniform in the unit ball
    (and the log2 of the same samples for the bit loss). When n = 1 the
    exact closed-form value is attached as well.
    """
    return _snc(_norm_wise(problem, x), cfg.stream, cfg.samples)


def _delta_point(delta: float, diffs: np.ndarray, denom: float, lin: float | None,
                 scratch: np.ndarray) -> DeltaPoint:
    """The point of the values diffs / (delta * denom), ``(2, P)`` (at +u,
    then -u), whose P pair means are reduced as by ``_block_moments(means[:,
    None], [0, P])``: in place in ``diffs``, with ``scratch`` ``(1, >= P)``
    for the means."""
    scale = delta * denom
    # where that product falls below the smallest normal double, it loses
    # precision or underflows to 0; dividing by each in turn keeps the values
    for divisor in (scale,) if scale >= 2.0**-1022 else (denom, delta):
        diffs /= divisor
    if lin == 0.0 and not diffs.any():  # a zero condition number, not an underflow
        return DeltaPoint(delta, 0.0, 0.0)
    if not np.minimum.reduce(diffs, axis=None):  # faster than all() on these nonnegatives
        # a difference rounded or underflowed to zero: f missed the
        # perturbation there, so the delta is flagged
        return DeltaPoint(delta, None, None)
    a, b = diffs
    with np.errstate(over="ignore"):
        means = np.add(a, b, out=scratch[0, :a.size])
    means *= 0.5  # exact where the mean is normal, as it is where a and b are
    if np.maximum.reduce(means) == math.inf:  # a sum beyond the double range halves first
        over = means == math.inf
        means[over] = a[over] * 0.5 + b[over] * 0.5
    acc = _Moments(1, 1, (None,))
    _piece_moments(acc, 0, means[:, None], (diffs, diffs, diffs))
    mean, hw = _half_widths(acc.combine())
    return DeltaPoint(delta, mean.item(), hw.item())


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


@sampling._parallel()  # a fresh scope per call, or none inside an open one
def delta_sweep(problem: Problem, x, deltas, cfg: EstimatorConfig) -> SweepReport:
    """Empirical validation of the vanishing-perturbation limit.

    The norm-wise estimate perturbs x by delta * ||x|| * u with u in the
    unit ball; the componentwise one perturbs each coordinate to
    x_i (1 + delta u_i) with u in [-1, 1]^m. One block of P = ceil(N / 2)
    ball directions and one of P cube directions (N = ``cfg.samples``),
    rows filled through ``_split``, are drawn up front and reused for every
    delta, and f is evaluated at +u and at -u. Each delta reduces the P pair
    means, so its half-width counts pairs, about sqrt(2) wider than N
    independent samples give. Within a pair the odd Taylor terms cancel
    exactly: |finite-delta - linearized| is the even part of the remainder,
    O(delta**2), with no fresh Monte-Carlo noise. The linearized values,
    even in u, are the means of the estimators' ratio models on the drawn
    rows, zeros left out as the estimators leave them (a block with none
    left is 0), times wcc_j or wnc once: for output 0, ``report``'s
    ``scc[0]`` at P samples, same stream, bit for bit, in its pieces; the
    norm-wise block, ||(J / sigma_1) u||, is reduced in one piece, since
    ``report``'s ``snc`` draws from the singular values, not ball points,
    and agrees within a few half-widths. Workers take ranges of deltas
    (``_split``) and evaluate f on stripes of ``_STRIPE`` columns of each
    half, errors numbering -u after +u, so no byte depends on the width,
    nor on OpenBLAS's threads: a call outside any scope opens one. Linear
    problems agree to rounding for every delta. A delta at which any of the
    2P differences is zero is flagged, unless all of them and the linearized
    value are 0 (a zero condition number, as at x = 0): its estimate is then
    0. ``deltas`` must be finite, positive and strictly decreasing.
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
    pairs = -(-cfg.samples // 2)
    u_ball = sample_ball(BallRegion(np.zeros(problem.m), 1.0), subs[0], size=pairs)
    u_cube = _symmetric_rows(subs[1], pairs, problem.m)

    def linearized(values, bounds, scale: float) -> float:
        _, mean, _, _, e = _block_moments(values, bounds)
        return np.ldexp(mean, e).item() * scale

    snc_lin = p.wnc  # None or 0.0 as it is: nothing to draw
    if p.wnc:
        snc_lin = linearized(_ball_model(p.mat / p.sigma[0], u_ball)[:, None], [0, pairs], p.wnc)
    scc_lin: list[float | None] = [None] * problem.n
    cube_bounds = _bounds(pairs, problem.m + 1)
    for j, w, c in zip(p.live, p.weights, p.wcc):
        scc_lin[j] = linearized(_cube_model(w[:, None], u_cube), cube_bounds, c)

    # a short last stripe joins the one before it: OpenBLAS multiplies a short
    # block on a small-matrix kernel that rounds differently from the whole's
    stripes = [*range(0, _STRIPE * max(1, pairs // _STRIPE), _STRIPE), pairs]
    wide = pairs - stripes[-2]  # the last stripe is the widest
    plan = [(side, lo, hi) for side in (0, 1) for lo, hi in zip(stripes, stripes[1:])]
    snc_points = [None] * len(deltas) if p.wnc is not None else []
    scc_points = [[None] * len(deltas) if j in p.live else [] for j in range(problem.n)]

    def run(first: int, last: int, buffers) -> None:
        # one buffer holds a stripe's points, then their differences, then
        # the reductions' pair means, each dead once the next is written
        work, values = buffers

        def f(u: np.ndarray, scale, side: int, lo: int, hi: int) -> np.ndarray:
            # f at the stripe's perturbed points, as columns numbered -u after
            # +u; the operand order matches x + (delta * ||x||) * (+-u) and
            # x + (delta * x) * (+-u)
            at = work[:x.size * (hi - lo)].reshape(x.size, hi - lo)
            np.multiply(u[lo:hi].T, -scale if side else scale, out=at)
            at += x[:, None]
            return _evaluate_columns(problem, at, side * pairs + lo)

        for i, delta in enumerate(deltas[first:last], first):
            if p.wnc is not None:
                for side, lo, hi in plan:
                    diffs = work[:y.size * (hi - lo)].reshape(y.size, hi - lo)
                    np.subtract(f(u_ball, delta * p.xnorm, side, lo, hi), y[:, None], out=diffs)
                    _column_norms(diffs, out=values[0, side, lo:hi])
                snc_points[i] = _delta_point(delta, values[0], p.fnorm, snc_lin, work[None])
            if p.live:
                for side, lo, hi in plan:
                    fx = f(u_cube, (delta * x)[:, None], side, lo, hi)
                    # the finite differences keep f's own |f_j(x)|, apart from
                    # the linearization, so that a fault in either shows as a gap
                    for row, j in zip(values, p.live):
                        np.subtract(fx[j], y[j], out=row[side, lo:hi])
                    np.abs(values[:, side, lo:hi], out=values[:, side, lo:hi])
                for row, j in zip(values, p.live):
                    scc_points[j][i] = _delta_point(delta, row, abs(y[j]), scc_lin[j], work[None])

    _split(len(deltas), run, [(max(problem.m * wide, problem.n * wide, pairs),),
                              (max(1, len(p.live)), 2, pairs)])

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
    for j, w, c in zip(p.live, p.weights, p.wcc):
        wcc_values[j] = c
        scc_values[j] = _scc(w, c, streams[1 + j], cfg.samples)

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
