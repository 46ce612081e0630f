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
from .problems import Problem, evaluate, evaluate_batch, jacobian
from .sampling import (_BLOCK, _NORMAL, _SYMMETRIC, _UNIFORM, BallRegion, SampleStream, _carve,
                       _fill, _split, sample_ball)


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
    at level ``CONFIDENCE``, each ``(statistics, k)``."""
    n, mean, m2, _, e = moments
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


def _column_norms(a: np.ndarray, e: int | None = None) -> np.ndarray:
    """Euclidean norm of each column of ``a * 2**e``, summing the squares,
    written over ``a``, as ``np.linalg.norm(a, axis=0)`` does. Without
    ``e``, ``a`` is first scaled by ``_pow2_exponent`` (exactly)."""
    if e is None:
        e = _pow2_exponent(a)
        np.ldexp(a, -e, out=a)
    a *= a
    norms = np.sqrt(np.add.reduce(a, axis=0))
    return np.ldexp(norms, e, out=norms)


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
    ||x|| / ||f(x)||, a factor of every norm-wise sample, overflows), and
    for each live output j (f_j(x) != 0, in ``live``; the others are in
    ``degenerate``) its weights g = x * J[j] and denominator |f_j(x)| in
    ``weights`` and ``denoms``, both scaled by one power of two (``_at``)."""

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
    denoms: list[float]


def _at(problem: Problem, x) -> _Point:
    """f, J, its singular values, wnc and the componentwise weights, once at x."""
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
    weights, denoms = [], []
    for j in live:
        # a sum of |g_i| or a product u . g can overflow where its quotient by
        # |f_j(x)| does not; scaling both by one power of two is exact
        g = x * mat[j]
        e = _pow2_exponent(g)
        try:
            denoms.append(math.ldexp(abs(float(y[j])), -e))
        except OverflowError:  # g far below f_j(x), as at a subnormal x: scale by f_j
            e = math.frexp(float(y[j]))[1] - 1022
            denoms.append(math.ldexp(abs(float(y[j])), -e))
        weights.append(np.ldexp(g, -e))
    return _Point(x, y, xnorm, fnorm, mat, sigma, wnc, live, degenerate, weights, denoms)


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


class _Moments:
    """A draw's moments, per piece and, in a last slot, for its redrawn
    zero samples: counts ``(slots, k)`` and ``_reduce``'s ``(slots,
    statistics, 4, k)``, filled by ``_piece_moments`` on any thread. With
    ``redraw``, pieces leave zero samples out and record their columns."""

    def __init__(self, pieces: int, k: int, stats, third: bool = False, redraw: bool = True):
        self.stats, self.third = stats, third
        self.counts = np.zeros((pieces + 1, k))
        self.slots = np.zeros((pieces + 1, len(stats), 4, k))
        self.zeros = [None] * (pieces + 1) if redraw else None

    def shapes(self, rows: int) -> list[tuple[int, int]]:
        """A worker's buffers for pieces of up to ``rows`` samples."""
        k = self.counts.shape[1]
        return [(k, rows), (k, rows), (k if self.third else 0, rows)]

    def combine(self, draw, what: str):
        """``(n, mean, m2, m3, e)``, each ``(statistics, k)`` (n ``(k,)``; m3 of
        the statistic that takes it): the slots combined in order by the
        pairwise updates of Chan, Golub & LeVeque (mean, m2) and Pebay (m3),
        once the zero samples are redrawn by ``draw`` into the last slot.
        The slots are first brought to their largest exponent, so a row
        2**k away from unit scale gives 2**k times its moments."""
        counts, slots = self.counts, self.slots
        if cols := [c for c in self.zeros or () if c is not None]:
            cols = np.concatenate(cols)
            # column c of the last piece holds statistic c's redraws
            last = np.zeros((cols.size, counts.shape[1]))
            last[np.arange(cols.size), cols] = _redraw(cols, draw, what)
            _piece_moments(self, len(counts) - 1, -1, last, *_carve(self.shapes(cols.size)))
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


def _piece_moments(acc: _Moments, i: int, lo: int, values: np.ndarray, bufs) -> None:
    """The piece kernel: the moments of piece i of a draw, its ``(count,
    k)`` values from sample ``lo`` on, into slot i of ``acc``, through a
    worker's buffers of ``acc.shapes`` (``values`` may share the second's
    memory). A piece that redraws leaves its zero samples out."""
    t, w, d = bufs
    count, k = values.shape
    if values.T.flags.c_contiguous and not np.may_share_memory(values, w):
        t = values.T  # one column needs no copy
    else:
        t = t[:, :count]
        np.copyto(t, values.T)
    if acc.zeros is None or values.all():
        acc.counts[i] = count
        _reduce(t, acc.stats, acc.third, acc.slots[i], w, d)
        return
    acc.zeros[i] = np.nonzero(values == 0.0)[1]  # a probability-zero event
    for c, row in enumerate(t):
        kept = row[row != 0.0][None]
        acc.counts[i, c] = kept.size
        if kept.size:
            _reduce(kept, acc.stats, acc.third, acc.slots[i, :, :, c:c + 1], w, d)


def _redraw(cols: np.ndarray, draw, what: str) -> np.ndarray:
    """New values for zero samples, which break the log estimator: the
    zeros of statistics ``cols``, in sample order, are redrawn by ``draw``
    from the continuing stream, a zero of statistic c taking column c of
    a fresh draw, until none is zero."""
    values, pending = np.zeros(cols.size), np.arange(cols.size)
    for _ in range(100):
        if not pending.size:
            return values
        fresh = draw(pending.size)
        values[pending] = fresh[np.arange(pending.size), cols[pending]]
        pending = pending[values[pending] == 0.0]
    raise RuntimeError(f"persistent zero samples while estimating {what}")


def _serial(acc: _Moments, draw, bounds: list[int], what: str):
    """``acc.combine`` of ``draw(count)`` made here for each piece in turn,
    the pieces starting at ``bounds`` (the last entry is the sample count)."""
    bufs = _carve(acc.shapes(max(hi - lo for lo, hi in zip(bounds, bounds[1:]))))[0]
    for i, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        _piece_moments(acc, i, lo, draw(hi - lo), bufs)
    return acc.combine(draw, what)


def _block_moments(values: np.ndarray, bounds: list[int]):
    """The combined moments of the ``(N, k)`` values, zeros kept, reduced
    in the pieces that start at ``bounds`` (the last entry is N). One piece
    reduces each column whole, bit for bit as ``np.mean`` and
    ``np.std(ddof=1)`` do where no square overflows or underflows."""
    acc = _Moments(len(bounds) - 1, values.shape[1], (None,), redraw=False)
    pieces = iter(np.split(values, bounds[1:-1]))
    return _serial(acc, lambda count: next(pieces), bounds, "")


def _ball_model(p: _Point, u: np.ndarray) -> np.ndarray:
    """||J u|| ||x|| / ||f(x)|| for each ball point u, a row of ``(count, m)``:
    the sweep's norm-wise linearized amplification. J is scaled by
    ``_pow2_exponent`` first, so no square overflows."""
    e = _pow2_exponent(p.mat)
    values = _column_norms(np.ldexp(p.mat, -e) @ u.T, e)
    values *= p.xnorm / p.fnorm
    return values


def _bounds(n_samples: int, width: int) -> list[int]:
    """The pieces' first samples, then ``n_samples``, for ``width`` values or
    words per sample: ``_cube_rows(width)`` samples each, the last fewer."""
    return [*range(0, n_samples, _cube_rows(width)), n_samples]


#: Uniforms per product: each is at least 2**-53, and 2**(-53 * 19) > 2**-1022.
_PRODUCT = 19


def _ball_values(p: _Point, z: np.ndarray, v: np.ndarray, work: np.ndarray,
                 out: np.ndarray) -> np.ndarray:
    """wnc * sqrt(sum_i rho_i^2 g_i^2 / (sum_i z_i^2 + c)), rho = sigma /
    sigma_1, into ``out`` over z, v (either may be flat) and ``work``, for
    the normals ``z`` ``(k + odd, count)``, g its first k rows, and c -2 ln
    of the product of the uniforms ``v`` ``(half, count)``, ``_PRODUCT``
    rows at a time. With odd = (m - k) % 2 and half = (m + 2 - k) // 2 the
    denominator is chi-square on m + 2 degrees, so g over its root is the
    first k coordinates of a point uniform in the m-ball (Voelker, Gosmann
    & Stewart, 2017)."""
    k, z, v = p.sigma.size, z.reshape(-1, out.size), v.reshape(-1, out.size)
    np.multiply(z, z, out=z)
    c = np.log(np.multiply.reduce(v[:_PRODUCT], axis=0, out=work), out=work)
    for lo in range(_PRODUCT, len(v), _PRODUCT):
        c += np.log(np.multiply.reduce(v[lo:lo + _PRODUCT], axis=0, out=out), out=out)
    c *= -2.0
    c += np.add.reduce(z, axis=0, out=out)
    rho = p.sigma / p.sigma[0]
    z[:k] *= (rho * rho)[:, None]
    out = np.divide(np.add.reduce(z[:k], axis=0, out=out), c, out=out)
    np.sqrt(out, out=out)
    out *= p.wnc
    return out


def _ball_moments(p: _Point, stream: SampleStream, n_samples: int):
    """The combined ``_ESTIMATES`` moments of ||J u|| ||x|| / ||f(x)|| for u
    uniform in the unit ball, from J's singular values (``_ball_values``),
    free of BLAS rounding. The pieces are ``_bounds`` for a sample's words,
    k + odd normals, row by row, then half uniforms, drawn from the stream,
    or on the pool of the parallel scope filled from the words it reserves."""
    k = p.sigma.size
    half, odd = divmod(p.x.size + 2 - k, 2)
    rows, width = k + odd, k + odd + half
    bounds = _bounds(n_samples, width)
    acc = _Moments(len(bounds) - 1, 1, _ESTIMATES)
    what = "norm-wise amplification"

    def draw(count: int) -> np.ndarray:
        return _ball_values(p, stream.normals(rows * count), stream.uniforms(half * count),
                            np.empty(count), np.empty(count))[:, None]

    if sampling._pool is None:
        return _serial(acc, draw, bounds, what)
    base, pos = stream._reserve(n_samples * width)

    def run(first: int, last: int, buffers) -> None:
        zv, scratch, t, w, _ = buffers
        for i in range(first, last):
            lo, count = bounds[i], bounds[i + 1] - bounds[i]
            z, v = zv[:rows * count], zv[rows * count:width * count]
            _fill(base, pos + lo * width, z, scratch.view(np.uint64), _NORMAL)
            _fill(base, pos + lo * width + z.size, v, scratch.view(np.uint64), _UNIFORM)
            values = _ball_values(p, z, v, w[0, :count], t[0, :count])
            _piece_moments(acc, i, lo, values[:, None], buffers[2:])

    size = bounds[1]  # the first piece is the longest
    _split(len(bounds) - 1, run, [(width * size,), (min(width * size, _BLOCK),), *acc.shapes(size)])
    return acc.combine(draw, what)


def _cube_rows(width: int) -> int:
    """Rows per cube chunk or ball piece, for ``width`` values or words per
    sample: the largest power of two with rows * width <= 2**18, at most
    ``_CHUNK``. A power-of-two chunk splits evenly over BLAS threads, so
    its bytes do not depend on their count, as an odd-sized one's did."""
    return min(_CHUNK, 1 << (max(1, (1 << 18) // width).bit_length() - 1))


def _cube_model(gmat: np.ndarray, denoms, u: np.ndarray, out=None) -> np.ndarray:
    """|u . g| / d for each cube point u, a row of ``(count, m)``, and each
    weight column g of ``gmat`` ``(m, k)`` with its denominator d in
    ``denoms``: the componentwise linearized amplification, ``(count, k)``,
    written into ``out`` where given."""
    values = np.abs(np.matmul(u, gmat, out=out), out=out)
    values /= denoms
    return values


def _cube_moments(model, m: int, k: int, stream: SampleStream, n_samples: int, what: str,
                  stats=_ESTIMATES, third: bool = False):
    """The combined moments (``_Moments``) of ``model(u, out=None)``, the
    ``(count, k)`` values of the cube points u, rows of ``(count, m)``, for u
    uniform on [-1, 1]^m, in the pieces of ``_bounds``: ``_cube_rows(m + k)``
    samples, one chunk each. Inside the parallel scope, the chunks run
    through ``_split``, each from the word range that a serial draw would
    give it."""
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
    if sampling._pool is None:
        return _serial(acc, draw, bounds, what)
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
            _piece_moments(acc, i, lo, values[:count], bufs)

    t, _, d = acc.shapes(rows)
    _split(pieces, run, [(rows, m), (rows, k), (min(rows * m, _BLOCK),), t, d])
    return acc.combine(draw, what)


def _estimates(moments, exact: list) -> list[StochasticEstimate]:
    """The ``StochasticEstimate`` of each column of ``_ESTIMATES`` moments,
    with that column's ``exact``."""
    est, hw = (a.tolist() for a in _half_widths(moments))
    return list(map(StochasticEstimate, est[0], hw[0], est[1], hw[1], exact))


def _componentwise(gmat: np.ndarray, denoms: np.ndarray, stream: SampleStream,
                   samples: int, skew: bool = False) -> list[StochasticEstimate]:
    """|u . g| / denom for k nonzero weight columns ``(m, k)`` and
    denominators ``(k,)``, over one shared cube draw: one estimate per
    column, exact for at most 3 nonzero weights, and with ``skew`` the
    skewness of its log2 samples, from their combined third moment."""
    m, k = gmat.shape
    moments = _cube_moments(lambda u, out=None: _cube_model(gmat, denoms, u, out), m, k,
                            stream, samples, "componentwise amplification", third=skew)
    exact = [closed_forms.exact_mean_abs_weighted_sum(g) / float(d)
             if np.count_nonzero(g) <= 3 else None for g, d in zip(gmat.T, denoms)]
    ests = _estimates(moments, exact)
    if skew:
        n, _, m2, m3, _ = moments
        for est, count, q2, q3 in zip(ests, n.tolist(), m2[1].tolist(), m3[1].tolist()):
            sd = math.sqrt(q2 / (count - 1))
            est.log_skewness = q3 / count / sd**3 if sd > 0.0 else 0.0
    return ests


def _snc(p: _Point, stream: SampleStream, samples: int) -> StochasticEstimate:
    """Norm-wise kernel at a point whose wnc is not None."""
    exact = None
    if p.y.size == 1:
        exact = p.wnc * closed_forms.snc_wnc_exact(p.x.size)[0]
    if p.wnc == 0.0:
        return StochasticEstimate(0.0, 0.0, None, None, exact)
    return _estimates(_ball_moments(p, stream, samples), [exact])[0]


def _scc(g: np.ndarray, denom: float, stream: SampleStream,
         samples: int) -> StochasticEstimate:
    """Componentwise estimate for the weights g of one output, with log skew."""
    if not g.any():
        return StochasticEstimate(0.0, 0.0, None, None, 0.0)
    return _componentwise(g[:, None], np.array([denom]), stream, samples, skew=True)[0]


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
    mean, hw = _half_widths(_block_moments(values[:, None], [0, values.size]))
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


def delta_sweep(problem: Problem, x, deltas, cfg: EstimatorConfig) -> SweepReport:
    """Empirical validation of the vanishing-perturbation limit.

    The norm-wise estimate perturbs x by delta * ||x|| * u with u in the
    unit ball; the componentwise one perturbs each coordinate to
    x_i (1 + delta u_i) with u in [-1, 1]^m. One block of ball directions
    and one block of cube directions is drawn up front and reused for the
    linearized values and for every delta, so |finite-delta - linearized|
    carries only the Taylor remainder, not fresh Monte-Carlo noise. The
    linearized values are the estimators' models on these blocks, zeros
    kept: for output 0, ``report``'s ``scc[0]`` for the same stream, bit
    for bit; ``report``'s ``snc`` draws from the singular values, not ball
    points, and agrees within a few half-widths. f is evaluated on each
    block as one batch, once per delta and region. For linear problems
    the two agree to rounding for every delta. A delta at which any
    difference underflows to zero is flagged, unless all of them and the
    linearized value are 0 (a zero condition number, as at x = 0): its
    estimate is then 0. ``deltas`` must be finite, positive and strictly
    decreasing.
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

    def linearized(values, bounds) -> float:
        return _half_widths(_block_moments(values, bounds))[0].item()

    # the ball values keep the pieces, and bytes, of the estimator's former
    # chunks of _CHUNK samples: a short last piece joins the one before it
    ball_bounds = _bounds(cfg.samples, problem.m + problem.n)
    if cfg.samples % _cube_rows(problem.m + problem.n) and ball_bounds[-2] % _CHUNK:
        del ball_bounds[-2]
    snc_lin = None if p.wnc is None else linearized(_ball_model(p, u_ball)[:, None], ball_bounds)
    scc_lin: list[float | None] = [None] * problem.n
    cube_bounds = _bounds(cfg.samples, problem.m + 1)
    for j, g, d in zip(p.live, p.weights, p.denoms):
        scc_lin[j] = linearized(_cube_model(g[:, None], d, u_cube), cube_bounds)

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
