import hashlib
import math
import sys
import threading
import tracemalloc
import warnings
from contextlib import contextmanager
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from condana import cli, condition, sampling
from condana.closed_forms import snc_wnc_exact, theorem1_bounds
from condana.condition import (
    _CHUNK,
    _ESTIMATES,
    _STRIPE,
    _Z,
    DegenerateOutputError,
    DeltaPoint,
    EstimatorConfig,
    _ball_moments,
    _block_moments,
    _bounds,
    _componentwise,
    _cube_moments,
    _cube_rows,
    _delta_point,
    _half_widths,
    _norm,
    delta_sweep,
    report,
    snc,
    spectral_norm,
    wnc,
)
from condana.problems import (evaluate, evaluate_batch, get_problem, jacobian, linear_problem,
                              list_problems, random_point)
from condana.problems import scale_problem
from condana.sampling import BallRegion, SampleStream, sample_ball


def cfg(seed=42, samples=20_000, **kw):
    return EstimatorConfig(stream=SampleStream(seed), samples=samples, **kw)


def pair_point(delta, values, denom):
    """The sweep's point of the ``(2, P)`` values at +u, then at -u: the mean
    and half-width (``one_piece``) of the P explicit pair means of the values
    / (delta * denom)."""
    a, b = values / (delta * denom)
    return DeltaPoint(delta, *one_piece((a + b) / 2.0))


def looped_sweep(problem, x, deltas, config):
    """Reference for ``delta_sweep`` at a point with no zero output: the
    same P = ceil(N / 2) directions u, f evaluated at the offsets +u and -u
    one point at a time, per delta and per region, and each point reduced
    from the explicit pair means (``pair_point``). Returns (snc points, scc
    points per output)."""
    x = np.asarray(x, dtype=float)
    y = evaluate(problem, x)
    subs, pairs = config.stream.split(2), -(-config.samples // 2)
    u_ball = sample_ball(BallRegion(np.zeros(problem.m), 1.0), subs[0], size=pairs)
    u_cube = subs[1].symmetric(pairs * problem.m).reshape(pairs, problem.m)
    xnorm, fnorm = float(np.linalg.norm(x)), float(np.linalg.norm(y))
    snc_points, scc_points = [], [[] for _ in range(problem.n)]
    for delta in deltas:
        ball_offsets = delta * xnorm * u_ball
        cube_offsets = delta * x * u_cube
        ball = np.empty((2, pairs))
        cube = np.empty((2, pairs, problem.n))
        for i in range(pairs):
            for side, sign in enumerate((1.0, -1.0)):
                ball[side, i] = np.linalg.norm(evaluate(problem, x + sign * ball_offsets[i]) - y)
                cube[side, i] = np.abs(evaluate(problem, x + sign * cube_offsets[i]) - y)
        snc_points.append(pair_point(delta, ball, fnorm))
        for j in range(problem.n):
            scc_points[j].append(pair_point(delta, cube[:, :, j], abs(float(y[j]))))
    return snc_points, scc_points


def whole_block_sweep(problem, x, deltas, config):
    """Reference for ``delta_sweep``'s finite-delta points at a point with no
    zero output: the same directions, each delta, region and half (+u, -u)
    evaluated as one batch over the whole block, column norms from
    ``np.linalg.norm``. Returns (snc points, scc points per output)."""
    p = condition._at(problem, x)
    subs, pairs = config.stream.split(2), -(-config.samples // 2)
    u_ball = sample_ball(BallRegion(np.zeros(problem.m), 1.0), subs[0], size=pairs)
    u_cube = subs[1].symmetric(pairs * problem.m).reshape(pairs, problem.m)
    snc_points, scc_points = [], [[] for _ in range(problem.n)]
    for delta in deltas:
        ball = [evaluate_batch(problem, u_ball.T * s + p.x[:, None])
                for s in (delta * p.xnorm, -delta * p.xnorm)]
        diffs = np.linalg.norm(np.stack(ball) - p.y[:, None], axis=1)
        snc_points.append(_delta_point(delta, diffs, p.fnorm, None, np.empty((1, pairs))))
        cube = np.stack([evaluate_batch(problem, u_cube.T * s[:, None] + p.x[:, None])
                         for s in (delta * p.x, -delta * p.x)])
        for j in range(problem.n):
            diffs = np.abs(cube[:, j] - p.y[j])
            scc_points[j].append(_delta_point(delta, diffs, abs(float(p.y[j])), None,
                                              np.empty((1, pairs))))
    return snc_points, scc_points


def sweep_digest(sw):
    """sha256 over the reprs of every field of a sweep but the problem and
    point."""
    fields = (sw.snc_linearized, sw.snc_by_delta, sw.scc_linearized, sw.scc_by_delta,
              sw.degenerate_norm, sw.degenerate_outputs)
    return hashlib.sha256(repr(fields).encode()).hexdigest()


#: (n, m, seed, sha256 of its sweep) of seeded n x m matrices (``matrix_sweep_digest``).
PINNED_MATRICES = [
    (30, 7, 1, "fffbe69965f626f8b5d754cc3274896d9b4746ec7d641b3c70afabbd68c0d4ab"),
    (20, 3, 2, "2e07b75ea50d3aa973079221b267399c6fb1632ebac1837781fd695531770c7b"),
]


def matrix_sweep_digest(n, m, seed):
    """``sweep_digest`` of a 5-delta sweep of a ``default_rng(seed)`` n x m
    matrix at 69,637 samples."""
    p = linear_problem(np.random.default_rng(seed).standard_normal((n, m)))
    x = random_point(p, SampleStream(seed, 1))
    return sweep_digest(delta_sweep(p, x, (1e-2, 1e-3, 1e-4, 1e-5, 1e-6),
                                    cfg(seed=seed, samples=69_637)))


@contextmanager
def blas_threads(count: int):
    """OpenBLAS set to ``count`` threads, whose number splits a product
    outside any scope and so its rounding; the counts are restored on
    exit."""
    blas = sampling._openblas_threads()
    before = [get() for get, _ in blas]
    try:
        for _, put in blas:
            put(count)
        yield
    finally:
        for (_, put), old in zip(blas, before):
            put(old)


def assert_same_law(linearized, est):
    """The sweep's linearized norm-wise value and ``report``'s estimate
    ``est``, means of as many samples of one law from different draws,
    agree within four combined half-widths: sqrt(2) times four of
    ``est``'s."""
    assert abs(linearized - est.estimate) <= 4.0 * math.sqrt(2.0) * est.half_width


def one_shot_dots(g, seed, n):
    """Reference: |u @ g| for n cube points drawn as one block and
    multiplied at once, one row per sample."""
    m = g.shape[0]
    return np.abs(SampleStream(seed).symmetric(n * m).reshape(n, m) @ g)


def looped_gemv_dots(g, seed, n, chunk=65_536):
    """Reference: |u . g| drawn in fixed chunks of 65,536 points, one
    matrix-vector product per chunk."""
    stream, m = SampleStream(seed), g.size
    out = np.empty(n)
    for lo in range(0, n, chunk):
        take = min(chunk, n - lo)
        out[lo:lo + take] = np.abs(stream.symmetric(take * m).reshape(take, m) @ g)
    return out


def pow2_rows(width):
    """Largest power of two r with r * width <= 2**18, at most 65,536."""
    rows = 1
    while 2 * rows * width <= 1 << 18 and rows < 65_536:
        rows *= 2
    return rows


def counting_draw(width, zero_at=()):
    """A fake ``draw``: consecutive numbers 1, 2, ... as ``(count,
    width)`` blocks, with the numbers in ``zero_at`` replaced by 0."""
    state = {"next": 1.0}

    def draw(count):
        size = count * width
        vals = np.arange(state["next"], state["next"] + size)
        state["next"] += size
        vals[np.isin(vals, zero_at)] = 0.0
        return vals.reshape(count, width)

    return draw


def pieces(monkeypatch):
    """The values each piece of a draw reduces, by its index: the
    piece kernel, which ``condition`` looks up in its own namespace, is
    wrapped to record them, on whichever thread runs it."""
    seen = {}
    kernel = condition._piece_moments

    def recording(acc, i, values, bufs):
        seen[i] = values.copy()
        return kernel(acc, i, values, bufs)

    monkeypatch.setattr(condition, "_piece_moments", recording)
    return seen


def in_order(seen):
    """The recorded piece values in sample order, as one ``(N, k)`` block,
    and the record cleared for the next draw."""
    block = np.concatenate([seen[i] for i in sorted(seen)])
    seen.clear()
    return block


def cube_draw(gmat, denoms, seed, n, stats=(None,), third=False):
    """``_cube_moments`` of |u . g| / d on ``n`` cube points of stream
    ``seed``, and the next words of the stream."""
    stream = SampleStream(seed)
    moments = _cube_moments(lambda u, out=None: condition._cube_model(gmat, denoms, u, out),
                            gmat.shape[0], gmat.shape[1], stream, n, stats, third)
    return moments, stream.words(2)


def moment_bytes(moments):
    return b"".join(np.asarray(a).tobytes() for a in moments)


def counting_model(zero_at=()):
    """A fake one-column cube model: consecutive numbers 1, 2, ... per
    sample, with the numbers in ``zero_at`` replaced by 0."""
    draw = counting_draw(1, zero_at)

    def model(u, out=None):
        values = draw(len(u))
        if out is not None:
            out[...] = values
        return values

    return model


def small_first(stream, n, m, below):
    """Which of n cube points of ``stream`` in m coordinates have a first
    coordinate below ``below`` in size."""
    return np.abs(stream.symmetric(n * m).reshape(n, m)[:, 0]) < below


def zeroing_cube_model(below=1e-3):
    """``_cube_model`` with every sample whose first coordinate is below
    ``below`` in size set to 0 (zero rows of a padded chunk included)."""
    model = condition._cube_model

    def zeroing(gmat, denoms, u, out=None):
        values = model(gmat, denoms, u, out)
        values[np.abs(u[:, 0]) < below] = 0.0
        return values

    return zeroing


class TestDrawPath:
    @pytest.mark.parametrize("m", [2, 50, 100])
    def test_weight_columns_bit_equal_to_one_block(self, monkeypatch, m):
        # every sample each piece reduces, padded short chunk included
        seen = pieces(monkeypatch)
        k = 52
        gmat = SampleStream(5).symmetric(m * k).reshape(m, k)
        n = 3 * pow2_rows(m + k) + 5
        cube_draw(gmat, 1.0, 9, n)
        assert len(seen) == 4
        np.testing.assert_array_equal(in_order(seen), one_shot_dots(gmat, 9, n))

    @pytest.mark.parametrize("m", [3, 30, 200])
    @pytest.mark.parametrize("n", [66_565, 100_000])
    def test_one_weight_vector_bit_equal_to_looped_gemv(self, monkeypatch, m, n):
        seen = pieces(monkeypatch)
        g = SampleStream(77).symmetric(m)
        cube_draw(g[:, None], 1.0, 9, n)
        np.testing.assert_array_equal(in_order(seen)[:, 0], looped_gemv_dots(g, 9, n))

    def test_zeros_left_out_in_sample_order(self):
        # the samples 1..10 hold zeros at 3 and 8: the column counts the
        # other eight, and nothing more is drawn
        stream = SampleStream(1)
        n, mean, m2, m3, e = _cube_moments(counting_model((3.0, 8.0)), 1, 1, stream, 10,
                                           (None,), third=True)
        ref = np.array([1, 2, 4, 5, 6, 7, 9, 10], dtype=float)
        assert n.tolist() == [8.0] and e.tolist() == [[0]]
        assert mean[0, 0] == pytest.approx(np.mean(ref), rel=4e-16)
        assert m2[0, 0] == pytest.approx(7.0 * np.var(ref, ddof=1), rel=4e-16)
        assert m3[0, 0] == pytest.approx(np.sum((ref - np.mean(ref))**3), rel=1e-14)

    @pytest.mark.parametrize("width", [1, 3])
    def test_persistent_zero_raises(self, monkeypatch, width):
        # every sample but the first of column 0 is zero: each column keeps
        # fewer than two, and the estimator raises before any half-width
        def zeroing(gmat, denoms, u, out=None):
            values = np.zeros((len(u), width))
            values[:1, 0] = 1.0
            return values

        monkeypatch.setattr(condition, "_cube_model", zeroing)
        gmat = SampleStream(5).symmetric(2 * width).reshape(2, width)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RuntimeError, match="fewer than two nonzero"):
                _componentwise(gmat, np.ones(width), SampleStream(1), 100, skew=True)


def in_and_out_of_scope(fn):
    """``fn()`` outside the parallel scope, then inside it at width 1, where
    the piece kernels run on the calling thread, and on the pool. No CLI
    run takes the serial path, so this is its cross-check against them."""
    outside, inside = fn(), []
    for width in (1, None):
        with sampling._parallel(width):
            assert (sampling._pool is None) == (width == 1)
            inside.append(fn())
    return outside, *inside


class TestParallelScope:
    """Cube chunks give the same samples, moments and stream position on
    the pool of the parallel scope as serially."""

    @pytest.mark.parametrize("m, k, extra", [(3, 52, 5), (3, 1, 1029), (40, 12, 0)],
                             ids=["padded-short-chunk", "one-column-short-chunk", "even"])
    def test_cube_model_values_bit_equal(self, workers, splits, monkeypatch, m, k, extra):
        seen = pieces(monkeypatch)
        gmat = SampleStream(5).symmetric(m * k).reshape(m, k)
        n = 3 * _cube_rows(m + k) + extra

        def draw():
            moments, after = cube_draw(gmat, 1.5, 9, n, _ESTIMATES)
            return moment_bytes(moments), after.tobytes(), in_order(seen).tobytes()

        serial, one, pooled = in_and_out_of_scope(draw)
        assert one == pooled == serial
        assert splits["condition"] >= 2

    def test_cube_zero_redraw_bit_equal(self, workers, splits, monkeypatch):
        # samples whose first coordinate is below 1e-3 in size are zeroed by
        # the model, about 1 in 1,000, and left out of every column
        monkeypatch.setattr(condition, "_cube_model", zeroing_cube_model())
        seen = pieces(monkeypatch)
        gmat = SampleStream(5).symmetric(4 * 6).reshape(4, 6)
        kept = 50_000 - np.count_nonzero(small_first(SampleStream(9), 50_000, 4, 1e-3))

        def draw():
            moments, after = cube_draw(gmat, 1.0, 9, 50_000, _ESTIMATES)
            assert moments[0].tolist() == [float(kept)] * 6
            return moment_bytes(moments), after.tobytes(), in_order(seen).tobytes()

        serial, one, pooled = in_and_out_of_scope(draw)
        assert 50_000 - kept > 20
        assert one == pooled == serial
        assert splits["condition"] >= 2

    def test_scaled_rows_bit_equal(self, workers, splits):
        # columns 1 and 2 are scaled by 2**-700 and 2**600: their squared
        # deviations underflow and overflow in every piece, which is reduced
        # again scaled, and the pieces combine at their largest exponent
        gmat = np.repeat(SampleStream(4).symmetric(6)[:, None], 3, axis=1)
        denoms = np.array([1.0, 2.0**700, 2.0**-600])

        def draw():
            return _half_widths(cube_draw(gmat, denoms, 9, 3 * _cube_rows(9) + 5)[0])

        (mean, hw), one, pooled = in_and_out_of_scope(draw)
        assert moment_bytes(one) == moment_bytes(pooled) == moment_bytes((mean, hw))
        np.testing.assert_array_equal(mean[:, 1:], np.ldexp(mean[:, :1], [-700, 600]))
        np.testing.assert_array_equal(hw[:, 1:], np.ldexp(hw[:, :1], [-700, 600]))
        assert splits["condition"] == 2

    def test_componentwise_estimates_bit_equal(self, workers):
        # the estimates and, where asked for, the log skewness
        gmat = SampleStream(6).symmetric(5 * 20).reshape(5, 20)
        denoms = np.sum(np.abs(gmat), axis=0)
        for skew in (False, True):
            serial, one, pooled = in_and_out_of_scope(
                lambda: _componentwise(gmat, denoms, SampleStream(2), 30_000, skew))
            assert one == pooled == serial
            assert all((est.log_skewness is not None) == skew for est in serial)

    def test_scope_belongs_to_its_thread(self, workers, monkeypatch):
        # three threads run sweeps, each call opening its own scope, which
        # take turns; a report on one thread while another holds a scope
        # runs on its own thread, not on that scope's pool. Every result is
        # a lone call's, and the OpenBLAS counts end where they began
        blas = sampling._openblas_threads()
        before = [get() for get, _ in blas]
        p, x, deltas = get_problem("matvec"), [1.0, -1.0, 2.0], (1e-2, 1e-3, 1e-4, 1e-5)

        def sweep():
            return sweep_digest(delta_sweep(p, x, deltas, cfg(samples=20_000)))

        def estimates():
            rep = report(p, x, cfg(samples=200_000))  # in pieces
            return rep.snc, rep.scc

        lone_sweep, lone_report, digests, errors = sweep(), estimates(), [], []

        def sweeps():
            try:
                for _ in range(10):
                    digests.append(sweep())
            except Exception as exc:
                errors.append(exc)

        threads = [threading.Thread(target=sweeps) for _ in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == [] and digests == [lone_sweep] * 30

        held, release, names = threading.Event(), threading.Event(), []
        fill = condition._fill

        def named_fill(*args):
            names.append(threading.current_thread().name)
            fill(*args)

        def holder():
            with sampling._parallel():
                held.set()
                release.wait(120)

        monkeypatch.setattr(condition, "_fill", named_fill)
        other = threading.Thread(target=holder)
        other.start()
        try:
            assert held.wait(120)
            assert estimates() == lone_report
        finally:
            release.set()
            other.join(120)
        assert not other.is_alive()
        assert set(names) <= {threading.current_thread().name}
        assert [get() for get, _ in blas] == before


ULP = 2.0**-52


def assert_moments(moments, block):
    """``(mean, m2, m3)`` of each column of the ``(N, k)`` block agree with
    numpy's mean and ``std(ddof=1)`` of the column to 4 ulps, and, unless
    m3 is None, its sum of cubed deviations to 16 ulps of the sum of their
    sizes (the sum itself may cancel), plus what moving the mean by its 4
    ulps moves it by, 3 * 4 ulps * |mean| * (sum of squared deviations)."""
    mean, m2, m3 = moments
    rows = np.ascontiguousarray(block.T)  # numpy sums a contiguous row pairwise
    centre = np.mean(rows, axis=1)
    dev = rows - centre[:, None]
    np.testing.assert_allclose(mean, centre, rtol=4 * ULP)
    np.testing.assert_allclose(np.sqrt(m2 / (len(block) - 1)), np.std(rows, axis=1, ddof=1),
                               rtol=4 * ULP)
    if m3 is not None:
        bound = ULP * (16 * np.sum(np.abs(dev)**3, axis=1) + 12 * np.abs(centre) * m2)
        np.testing.assert_array_less(np.abs(m3 - np.sum(dev * dev * dev, axis=1)), bound)


def left_out_block(g, seed, n, below):
    """Reference for a one-column cube draw with zeros: |u . g| of n points
    as one block, without the points ``small_first`` picks."""
    u = SampleStream(seed).symmetric(n * g.size).reshape(n, g.size)
    return np.abs(u @ g)[~small_first(SampleStream(seed), n, g.size, below)]


class TestStreamedMoments:
    """Moments combined from pieces agree with numpy's on the materialized
    block to a few ulps, and bit for bit at every worker count and outside
    the parallel scope."""

    M, K = 5, 5
    SCALES = np.array([0, 700, -700, 1000, -1000])

    @pytest.mark.parametrize("n", [100, "one piece", _CHUNK + 5, "three pieces"])
    def test_moments_match_numpy(self, workers, n):
        rows = _cube_rows(self.M + self.K)
        n = {"one piece": rows, "three pieces": 3 * rows + 5}.get(n, n)
        g = SampleStream(3).symmetric(self.M)
        gmat = np.repeat(g[:, None], self.K, axis=1)
        # exact powers of two, so each column is the first scaled
        denoms = np.ldexp(1.0, -self.SCALES)

        def draw():
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                return cube_draw(gmat, denoms, 9, n, _ESTIMATES, third=True)[0]

        outside, one, inside = in_and_out_of_scope(draw)
        assert moment_bytes(one) == moment_bytes(inside) == moment_bytes(outside)
        count, mean, m2, m3, e = outside
        assert count.tolist() == [float(n)] * self.K
        ref = one_shot_dots(gmat, 9, n)
        # the values in the units of the unscaled column: the moments times
        # 2**(e - scale); only the last statistic takes a third moment
        shift = e[0] - self.SCALES
        assert_moments((np.ldexp(mean[0], shift), np.ldexp(m2[0], 2 * shift), None), ref)
        # their log2, of the scaled values themselves
        assert_moments((np.ldexp(mean[1], e[1]), np.ldexp(m2[1], 2 * e[1]),
                        np.ldexp(m3[1], 3 * e[1])), np.log2(np.ldexp(ref, self.SCALES)))

    def test_zero_redraw_matches_numpy(self, workers, monkeypatch):
        # zeros left out: the moments of the nonzero samples alone
        monkeypatch.setattr(condition, "_cube_model", zeroing_cube_model())
        g, n = SampleStream(3).symmetric(4), 3 * _cube_rows(5) + 5
        outside, one, inside = in_and_out_of_scope(lambda: cube_draw(g[:, None], 1.0, 9, n,
                                                                     third=True)[0])
        assert moment_bytes(one) == moment_bytes(inside) == moment_bytes(outside)
        ref = left_out_block(g, 9, n, 1e-3)
        count, mean, m2, m3, _ = outside
        assert 0 < n - ref.size and count.tolist() == [float(ref.size)]
        assert_moments((mean[0], m2[0], m3[0]), ref[:, None])

    def test_peak_memory_per_worker(self, workers):
        # theorem2's largest task: 52 weight vectors at m = 50, reduced in
        # pieces of 2,048 samples; the (52, 100,000) block alone was 41.6 MB
        gmat = SampleStream(5).symmetric(50 * 52).reshape(50, 52)
        denoms = np.sum(np.abs(gmat), axis=0)
        with sampling._parallel():
            tracemalloc.start()
            try:
                _componentwise(gmat, denoms, SampleStream(2), 100_000)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak <= workers * 6e6


def unit_point(mat, k=0):
    """A point for the norm-wise draw with ||x|| / ||f(x)|| = 1, so that its
    estimate is of ||J u|| alone, for J = ``mat`` times 2**k: its singular
    values are those of ``mat`` times 2**k, exactly."""
    sigma = np.ldexp(np.linalg.svd(mat, compute_uv=False), k)
    return SimpleNamespace(x=np.zeros(mat.shape[1]), y=np.ones(mat.shape[0]), sigma=sigma,
                           wnc=float(sigma[0]), xnorm=1.0, fnorm=1.0)


def ball_width(m, k):
    """Words per norm-wise sample: two uniforms for each pair of the k + odd
    chi-square terms, odd = (m - k) % 2, rounded up to a whole pair, then
    (m + 2 - k) // 2 uniforms for c."""
    return 2 * -(-(k + (m - k) % 2) // 2) + (m + 2 - k) // 2


def numpy_ball_values(p, seed, n):
    """Reference for the norm-wise draw, written out with numpy on
    ``SampleStream.uniforms``: piece by piece (``_bounds`` for ``ball_width``
    words per sample), each piece's uniforms row by row: h radius rows a,
    h angle rows b, then the rows v for c. Pair i gives the squared normals
    R / (1 + t^2) and R t^2 / (1 + t^2), R = -2 ln a_i, t = tan(pi b_i / 2);
    the first k + odd of the 2h, in that order, are z^2, g^2 its first k.
    Each sample is the ratio sqrt(sum rho^2 g^2 / (sum z^2 + c)), c -2 ln of
    the product of each group of 19 rows of v, summed. Returns the values
    and the next words of the stream."""
    m, k = p.x.size, p.sigma.size
    terms = k + (m - k) % 2
    h = -(-terms // 2)
    rho2 = (p.sigma / p.sigma[0]) ** 2
    stream, values = SampleStream(seed), []
    bounds = _bounds(n, ball_width(m, k))
    for lo, hi in zip(bounds, bounds[1:]):
        u = stream.uniforms(ball_width(m, k) * (hi - lo)).reshape(-1, hi - lo)
        r, t2 = -2.0 * np.log(u[:h]), np.tan(u[h:2 * h] * (np.pi / 2.0)) ** 2
        first = r / (1.0 + t2)
        z = np.concatenate([first, first * t2])[:terms]
        v = u[2 * h:]
        c = -2.0 * sum(np.log(np.prod(v[a:a + 19], axis=0)) for a in range(0, len(v), 19))
        c += np.sum(z, axis=0)
        values.append(np.sqrt(np.sum(z[:k] * rho2[:, None], axis=0) / c))
    return np.concatenate(values), stream.words(2)


def ball_draw(p, n_samples, seed=2):
    """The estimators' ``_ball_moments`` at the point ``p`` and the next
    words of its stream."""
    stream = SampleStream(seed)
    return _ball_moments(p, stream, n_samples), stream.words(2)


def ball_mat(m, n):
    return SampleStream(100 * m + n).symmetric(n * m).reshape(n, m)


def zeroing_ball_values(monkeypatch, below=6.25e-6):
    """Patches ``_ball_values`` to set to 0 every sample whose first
    chi-square term is below ``below`` (a normal below 2.5e-3 in size);
    returns the list of zeroed counts per call, appended on whichever
    thread runs it."""
    values, zeroed = condition._ball_values, []

    def zeroing(p, u, work, out):
        values(p, u, work, out)
        # the pair kernel leaves the terms in place, the first times rho_1^2 = 1
        small = u.reshape(-1, out.size)[0] < below
        out[small] = 0.0
        zeroed.append(int(np.count_nonzero(small)))
        return out

    monkeypatch.setattr(condition, "_ball_values", zeroing)
    return zeroed


class TestBallPieces:
    """The norm-wise draw in pieces on the pool of the parallel scope gives
    the samples, moments and stream position it gives on the calling
    thread, whatever the OpenBLAS thread count: no matrix product is
    taken."""

    N = 100_000

    @pytest.mark.parametrize("last", ["one", "five", "joined"])
    @pytest.mark.parametrize("m, n", [(2, 7), (4, 12), (16, 16), (30, 1), (30, 30)])
    def test_short_chunks_bit_equal(self, workers, monkeypatch, m, n, last):
        # a last piece of 1 or 5 samples, and a draw across what was the
        # boundary of a 65,536-sample chunk, with a last piece of 5 samples
        seen = pieces(monkeypatch)
        rows = _cube_rows(ball_width(m, min(m, n)))
        n_samples = {"one": 2 * rows + 1, "five": 3 * rows + 5,
                     "joined": _CHUNK + 2 * rows + 5}[last]

        def draw():
            moments, after = ball_draw(unit_point(ball_mat(m, n)), n_samples)
            return moment_bytes(moments), after.tobytes(), in_order(seen).tobytes()

        serial, one, pooled = in_and_out_of_scope(draw)
        assert one == pooled == serial

    @pytest.mark.parametrize("k", [-700, 700])
    def test_scaled_jacobian_bit_equal(self, workers, monkeypatch, k):
        # the samples are ratios, the same bits at any scale of J, and the
        # estimate and half-width scaled by wnc once are exactly 2**k times
        seen = pieces(monkeypatch)
        mat = ball_mat(5, 9)

        def estimate(p):
            est = condition._snc(p, SampleStream(2), self.N)
            return (est.estimate, est.half_width, est.log_estimate, est.log_half_width), \
                in_order(seen)

        (serial, serial_values), (one, one_values), (pooled, values) = in_and_out_of_scope(
            lambda: estimate(unit_point(mat, k)))
        assert one == pooled == serial
        assert one_values.tobytes() == values.tobytes() == serial_values.tobytes()
        with sampling._parallel():
            unscaled, unscaled_values = estimate(unit_point(mat))
        assert values.tobytes() == unscaled_values.tobytes()
        assert pooled[:2] == tuple(math.ldexp(v, k) for v in unscaled[:2])
        assert pooled[3] == unscaled[3]
        assert pooled[2] == pytest.approx(unscaled[2] + k, rel=1e-15)

    def test_zero_redraw_bit_equal(self, workers, splits, monkeypatch):
        # samples whose first chi-square term is below 6.25e-6 are zeroed,
        # about 2 in 1,000, and left out in whichever piece holds them
        zeroed = zeroing_ball_values(monkeypatch)
        seen = pieces(monkeypatch)

        def draw():
            before = sum(zeroed)
            moments, after = ball_draw(unit_point(ball_mat(6, 4)), self.N)
            assert moments[0].tolist() == [float(self.N - (sum(zeroed) - before))]
            return moment_bytes(moments), after.tobytes(), in_order(seen).tobytes()

        serial, one, pooled = in_and_out_of_scope(draw)
        assert sum(zeroed) > 3 * 100
        assert one == pooled == serial
        assert splits["condition"] == 2

    def test_blas_thread_count_and_scope_bit_equal(self, workers, monkeypatch):
        # a 16 x 16 J at 69,637 samples, whose last 4,101 samples once gave
        # J u^T an odd column count that two OpenBLAS threads rounded
        # differently: with OpenBLAS at one and at two threads outside the
        # scope, and inside it, every sample and moment is the same
        seen = pieces(monkeypatch)
        mat = ball_mat(16, 16)

        def draw():
            moments, after = ball_draw(unit_point(mat), 69_637, seed=5)
            return moment_bytes(moments), after.tobytes(), in_order(seen).tobytes()

        by_threads = []
        for threads in (1, 2):
            with blas_threads(threads):
                by_threads.append(draw())
        with sampling._parallel():
            pooled = draw()
        assert by_threads[0] == by_threads[1] == pooled

    def test_peak_memory_per_worker(self, workers):
        # buffers are made once per call, one set per worker: a 30 x 30
        # problem at 100,000 samples holds pieces of 8,192 samples
        p = unit_point(ball_mat(30, 30))
        with sampling._parallel():
            tracemalloc.start()
            try:
                ball_draw(p, self.N)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak <= workers * 4 * 2**20


class TestZeroSamples:
    """A zero sample is left out of its column, never drawn again: a draw
    of N samples of w words moves its stream exactly N * w words, on the
    serial path, at width 1 and on the pool."""

    N = 50_000

    @pytest.mark.parametrize("region", ["cube", "ball"])
    def test_draw_moves_stream_n_w_words(self, workers, monkeypatch, region):
        # the count below N shows that zeros were drawn and left out
        if region == "cube":
            monkeypatch.setattr(condition, "_cube_model", zeroing_cube_model())
            gmat, width = SampleStream(5).symmetric(4 * 6).reshape(4, 6), 4

            def draw():
                return cube_draw(gmat, 1.0, 9, self.N)
        else:
            zeroing_ball_values(monkeypatch)
            width = ball_width(6, 4)

            def draw():
                return ball_draw(unit_point(ball_mat(6, 4)), self.N, seed=9)

        stream = SampleStream(9)
        stream.words(self.N * width)
        expected = stream.words(2).tobytes()
        for moments, after in in_and_out_of_scope(draw):
            assert after.tobytes() == expected
            assert moments[0].min() < self.N

    def test_subnormal_condition_number_leaves_out_no_norm_wise_sample(self, monkeypatch,
                                                                       tmp_path):
        # at x = 1e-320 wnc is subnormal: the norm-wise samples are ratios,
        # scaled by wnc once, so none underflows; the cube's |u . g| / d
        # still do (ROADMAP item 12), and are left out
        kernel, drawn = condition._piece_moments, []

        def counting(acc, i, values, bufs):
            kernel(acc, i, values, bufs)
            drawn.append((acc.third, values.shape[0], int(acc.counts[i].sum())))

        monkeypatch.setattr(condition, "_piece_moments", counting)
        assert cli.main(["--command", "analyze", "--problem", "polynomial", "--point=1e-320",
                         "--samples", "100000", "--out", str(tmp_path / "out.csv")]) == 0
        # the componentwise draw alone keeps a third moment for its skew
        for cube, kept_all in ((False, True), (True, False)):
            counts = [(n, kept) for third, n, kept in drawn if third == cube]
            assert sum(n for n, _ in counts) == 100_000
            assert (sum(kept for _, kept in counts) == 100_000) == kept_all


def norm_wise_exact(sigma, m):
    """Exact E||J u||, E ln||J u|| and E||J u||^2 for u uniform in the unit
    m-ball and J with singular values ``sigma``, largest 1. For Q = sum_i
    sigma_i^2 g_i^2, g standard normal, and M(t) = prod_i (1 + 2 t
    sigma_i^2)^(-1/2), quadrature gives E sqrt(Q) = (1 / (2 sqrt(pi))) int
    (1 - M) t^(-3/2) dt and E ln Q = int (e^-t - M) / t dt. ||J u|| has the
    law of r sqrt(Q) / ||g||, r the radius of u, all independent, with
    E r = m / (m + 1), E ln r = -1/m and E ln ||g|| = (psi(m/2) + ln 2) / 2;
    E||J u||^2 = sum_i sigma_i^2 / (m + 2) exactly."""
    from scipy.integrate import quad
    from scipy.special import digamma, gammaln

    s2 = np.asarray(sigma, dtype=float) ** 2

    def log_m(t):
        return -0.5 * float(np.sum(np.log1p(2.0 * t * s2)))

    def integral(f):
        return sum(quad(f, lo, hi, limit=200, epsabs=0.0, epsrel=1e-12)[0]
                   for lo, hi in ((0.0, 1.0), (1.0, math.inf)))

    sqrt_q = integral(lambda t: -math.expm1(log_m(t)) * t**-1.5) / (2.0 * math.sqrt(math.pi))
    ln_q = integral(lambda t: (math.exp(-t) - math.exp(log_m(t))) / t)
    norm_g = math.sqrt(2.0) * math.exp(gammaln((m + 1) / 2) - gammaln(m / 2))
    return (m / (m + 1) * sqrt_q / norm_g,
            -1.0 / m + 0.5 * ln_q - 0.5 * (float(digamma(m / 2)) + math.log(2.0)),
            float(np.sum(s2)) / (m + 2))


class TestBallExactValues:
    """The norm-wise draw against exact values: its mean and log2 mean
    against quadratures of the law of ||J u||, and the mean of its squares
    against the exact E||J u||^2 = sum sigma_i^2 / (m + 2), as z-scores
    over ten seeds; and the words each draw takes."""

    SEEDS = range(10)
    # n x m Jacobians; "two-zero-sigma" is 5 x 8 with two zero rows, whose
    # singular values include two exact zeros; m = 2,000 takes 999 uniforms
    # a sample, in products of 19
    SHAPES = {"30x7": (30, 7), "7x30": (7, 30), "30x30": (30, 30), "1x5": (1, 5),
              "3x200": (3, 200), "two-zero-sigma": (5, 8), "4x2000": (4, 2000)}

    @pytest.mark.parametrize("shape", SHAPES)
    def test_z_scores_and_words(self, monkeypatch, shape):
        n, m = self.SHAPES[shape]
        mat = ball_mat(m, n)
        if shape == "two-zero-sigma":
            mat[3:] = 0.0
        p = unit_point(mat)
        if shape == "two-zero-sigma":
            assert p.sigma[3:].tolist() == [0.0, 0.0]
        # the draw's samples are the ratios ||J u|| / sigma_1
        exact = norm_wise_exact(p.sigma / p.sigma[0], m)
        exact = (exact[0], exact[1] / math.log(2.0), exact[2])
        samples = 2_000 if m > 1000 else 20_000
        seen = pieces(monkeypatch)
        z = []
        for seed in self.SEEDS:
            stream = SampleStream(seed)
            mean, hw = _half_widths(_ball_moments(p, stream, samples))
            assert stream._pos == samples * ball_width(m, min(m, n))
            squares = in_order(seen)[:, 0] ** 2
            sd = np.std(squares, ddof=1) / math.sqrt(samples)
            z.append([(mean[0, 0] - exact[0]) / (hw[0, 0] / _Z),
                      (mean[1, 0] - exact[1]) / (hw[1, 0] / _Z),
                      (np.mean(squares) - exact[2]) / sd])
        z = np.array(z)
        assert np.all(np.abs(np.mean(z, axis=0)) <= 4.0 / math.sqrt(len(self.SEEDS))), z
        assert np.max(np.abs(z)) <= 4.5, z


def one_piece(values):
    """The mean and half-width of each row of ``values``, floats for a single
    row: ``_block_moments`` with the row as one piece, as ``_delta_point``
    reduces a row of finite differences."""
    rows = values.reshape(-1, values.shape[-1])
    mean, hw = _half_widths(_block_moments(rows.T, [0, rows.shape[1]]))
    return (mean.item(), hw.item()) if values.ndim == 1 else (mean[0], hw[0])


class TestNumpyOracles:
    """The in-place statistics and norms equal numpy's own, bit for bit."""

    @pytest.mark.parametrize("shape", [(2,), (1000,), (3, 1000), (5, 70_001)])
    def test_mean_half_width_bit_equal_to_mean_and_std(self, shape):
        values = SampleStream(3).normals(math.prod(shape)).reshape(shape)
        values = values * 1e3 + 7.0
        if values.ndim == 2:
            values[1] = 0.25  # a constant row: zero spread
            values[2] = np.abs(values[2]) * np.where(np.arange(shape[1]) % 3, 1.0, -1.0)
        mean, hw = one_piece(values)
        n = shape[-1]
        ref_mean = np.mean(values, axis=-1)
        ref_hw = _Z * np.std(values, axis=-1, ddof=1) / math.sqrt(n)
        if values.ndim == 1:
            assert type(mean) is float and type(hw) is float
            assert (mean, hw) == (float(ref_mean), float(ref_hw))
        else:
            assert hw[1] == 0.0
            np.testing.assert_array_equal(mean, ref_mean)
            np.testing.assert_array_equal(hw, ref_hw)

    @pytest.mark.parametrize("k", [-1000, -700, 700, 1000])
    def test_mean_half_width_scales_exactly(self, k):
        # the squared deviations (and at 2**1000 the sums) of these rows
        # overflow or underflow, so each is reduced again scaled by a power
        # of two, which leaves every bit of the mean and half-width / 2**k
        values = SampleStream(3).normals(3000).reshape(3, 1000) * 1e3 + 7.0
        values[1] = 0.25
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            far = one_piece(np.ldexp(values, k))
            far_row = one_piece(np.ldexp(values[0], k))
        for got, ref in zip(far, one_piece(values)):
            np.testing.assert_array_equal(got, np.ldexp(ref, k))
        assert far_row == tuple(math.ldexp(v, k) for v in one_piece(values[0]))
        assert far[1][0] > 0.0 and far[1][1] == 0.0

    @pytest.mark.parametrize("m", [*range(1, 10), 16, 30])
    def test_sample_ball_bit_equal_to_linalg_norm(self, monkeypatch, m):
        # the sphere rule in plain numpy: the squares added column by column
        # onto -2 ln v, as sample_ball adds them, a sum that matches numpy's
        # linalg.norm to rounding; 69,637 rows end every m's blocks, and
        # each of the pool's three workers', on a short one
        monkeypatch.setattr(sampling, "_cpus", lambda: 3)
        size = 69_637
        stream = SampleStream(4)
        g, v = stream.normals(size * m).reshape(size, m), stream.uniforms(size)
        radicand = -2.0 * np.log(v)
        for column in g.T:
            radicand += column * column
        np.testing.assert_allclose(radicand, np.linalg.norm(g, axis=1) ** 2 - 2.0 * np.log(v),
                                   rtol=1e-13)
        ref = g * (0.75 / np.sqrt(radicand))[:, None]
        for c in (np.zeros(m), np.linspace(-1.0, 2.0, m)):
            def draw():
                return sample_ball(BallRegion(c, 0.75), SampleStream(4), size=size).tobytes()

            assert set(in_and_out_of_scope(draw)) == {(ref + c).tobytes()}

    @pytest.mark.parametrize("e", [None, 0])
    def test_column_norms_at_unit_scale_bit_equal_to_linalg_norm(self, e):
        # at e = 0, given or found, the scalings by 2**0 are skipped
        a = SampleStream(6).normals(7 * 1000).reshape(7, 1000)
        assert condition._pow2_exponent(a) == 0
        out = np.empty(1000)
        got = condition._column_norms(a.copy(), e, out=out)
        assert got is out and got.tobytes() == np.linalg.norm(a, axis=0).tobytes()

    @pytest.mark.parametrize("m", [1, 2, 3, 30, 200])
    @pytest.mark.parametrize("n_out", [1, 7])
    def test_ball_model_values_bit_equal_to_linalg_norm(self, monkeypatch, m, n_out):
        # every sample of the norm-wise draw and the words it leaves, against
        # the draw written out with numpy on the stream's own draws; at
        # m = 200 the uniforms of a sample make several products
        seen = pieces(monkeypatch)
        p = unit_point(SampleStream(8).symmetric(n_out * m).reshape(n_out, m))
        n = _CHUNK + 5
        _, after = ball_draw(p, n)
        values, ref_after = numpy_ball_values(p, 2, n)
        np.testing.assert_array_equal(in_order(seen)[:, 0], values)
        np.testing.assert_array_equal(after, ref_after)

    @pytest.mark.parametrize("k", [-1000, -700, 700, 1000])
    def test_ball_model_values_scale_exactly(self, monkeypatch, k):
        # singular values 2**k times larger scale wnc alone: the samples are
        # the same ratios, and the estimate and half-width exactly 2**k
        # times, with no warning
        seen = pieces(monkeypatch)
        mat = SampleStream(8).symmetric(6).reshape(2, 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = condition._snc(unit_point(mat, k), SampleStream(2), 500)
        values = in_order(seen)[:, 0]
        np.testing.assert_array_equal(values, numpy_ball_values(unit_point(mat), 2, 500)[0])
        ref = condition._snc(unit_point(mat), SampleStream(2), 500)
        assert (est.estimate, est.half_width) == (math.ldexp(ref.estimate, k),
                                                  math.ldexp(ref.half_width, k))


class TestSpectralNorm:
    def test_identity(self):
        assert spectral_norm(np.eye(3)) == 1.0

    def test_diagonal(self):
        assert spectral_norm(np.diag([2.0, 1.0])) == 2.0

    def test_row_vector(self):
        assert spectral_norm(np.array([[5.0, 2.0]])) == pytest.approx(math.sqrt(29))

    def test_zero_matrix(self):
        assert spectral_norm(np.zeros((4, 5))) == 0.0

    def test_against_svd_oracle(self):
        rng = np.random.default_rng(99)
        matrices = [rng.uniform(-1.0, 1.0, size=shape)
                    for shape in [(3, 3), (5, 9), (9, 5), (12, 12), (30, 7), (25, 25)]]
        # clustered top of the spectrum: sigma_2 / sigma_1 = 1 - 1e-5
        q6, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        q5, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        matrices.append(q6[:, :5] @ np.diag([1.0, 1.0 - 1e-5, 0.5, 0.3, 0.1]) @ q5.T)
        for a in matrices:
            ref = np.linalg.svd(a, compute_uv=False)[0]
            assert spectral_norm(a) == pytest.approx(ref, rel=1e-10)

    def test_power_of_two_scaling_exact(self):
        rng = np.random.default_rng(3)
        a = rng.uniform(-1.0, 1.0, size=(6, 6))
        assert spectral_norm(4.0 * a) == 4.0 * spectral_norm(a)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            spectral_norm(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_svd_failure_exits_three(self, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", fail)
        assert cli.main(["--command", "analyze", "--problem", "identity",
                         "--point", "1,1", "--samples", "200"]) == cli.EXIT_NUMERICAL


class TestWorstCase:
    def test_wnc_identity_is_one(self):
        assert wnc(get_problem("identity"), [1.0, 1.0]) == pytest.approx(1.0)
        assert wnc(get_problem("identity"), [-2.0, 0.5]) == pytest.approx(1.0)

    def test_wnc_product(self):
        assert wnc(get_problem("product"), [1.0, 1.0]) == pytest.approx(2.0)

    def test_wnc_diagonal_linear(self):
        p = linear_problem(np.diag([2.0, 1.0]))
        assert wnc(p, [1.0, 0.0]) == pytest.approx(1.0)

    def test_wnc_degenerate(self):
        with pytest.raises(DegenerateOutputError):
            wnc(get_problem("sum"), [1.0, -1.0])

    def test_wcc_product_is_two_everywhere(self):
        for x in ([1.0, 1.0], [2.0, 5.0], [-0.3, 0.7]):
            assert report(get_problem("product"), x, cfg()).wcc[0] == pytest.approx(2.0)

    def test_wcc_sum(self):
        assert report(get_problem("sum"), [1.0, 1.0], cfg()).wcc[0] == pytest.approx(1.0)

    def test_wcc_zero_coordinate_is_natural(self):
        # x_i = 0 just zeroes that weight
        rep = report(get_problem("dot"), [1.0, 0.0, 0.0], cfg())
        assert rep.wcc[0] == pytest.approx(1.0)


class TestStochasticNormWise:
    def test_exact_value_for_product(self):
        est = snc(get_problem("product"), [1.0, 1.0], cfg())
        assert est.exact == pytest.approx(8.0 / (3.0 * math.pi), rel=1e-12)
        assert abs(est.estimate - est.exact) < 4.0 * est.half_width

    def test_gap_estimate_matches_exact(self):
        p = get_problem("product")
        est = snc(p, [1.0, 1.0], cfg(samples=50_000))
        w = wnc(p, [1.0, 1.0])
        _, exact_gap = snc_wnc_exact(2)
        assert abs(est.log_estimate - math.log2(w) - exact_gap) < 4.0 * est.log_half_width

    def test_identity_ratio_within_bounds(self):
        p = get_problem("identity")
        est = snc(p, [1.0, 1.0], cfg())
        ratio = est.estimate / wnc(p, [1.0, 1.0])
        b = theorem1_bounds(2, 2)
        slack = 4.0 * est.half_width
        assert b.ratio_lo - slack <= ratio <= b.ratio_hi + slack

    def test_estimate_never_exceeds_worst_case(self):
        p = get_problem("matvec")
        est = snc(p, [1.0, 2.0, -1.0], cfg())
        assert est.estimate <= wnc(p, [1.0, 2.0, -1.0]) * (1.0 + 1e-12)

    def test_scaling_invariance_bitwise_for_power_of_two(self):
        x = [0.7, -1.3]
        a = snc(scale_problem(1.0), x, cfg(seed=7))
        b = snc(scale_problem(4.0), x, cfg(seed=7))
        assert a.estimate == b.estimate
        assert a.log_estimate == b.log_estimate

    def test_scaling_invariance_general_constant(self):
        x = [0.7, -1.3]
        a = snc(scale_problem(1.0), x, cfg(seed=7))
        b = snc(scale_problem(3.0), x, cfg(seed=7))
        assert b.estimate == pytest.approx(a.estimate, rel=1e-12)

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateOutputError):
            snc(get_problem("sum"), [1.0, -1.0], cfg())

    @pytest.mark.parametrize("name", ["dot", "sum", "product", "polynomial"])
    def test_single_output_corpus_matches_exact(self, name):
        # every one-output corpus problem, ten random points: the estimate
        # agrees with the exact value within four half-widths
        from condana.problems import random_point

        p = get_problem(name)
        stream = SampleStream(1000 + p.m)
        for trial_stream in stream.split(10):
            subs = trial_stream.split(2)
            x = random_point(p, subs[0], min_component=1e-3)
            est = snc(p, x, EstimatorConfig(stream=subs[1], samples=100_000))
            assert abs(est.estimate - est.exact) < 4.0 * est.half_width

    def test_gap_estimate_within_norm_wise_bounds(self):
        p = get_problem("identity")
        est = snc(p, [1.0, 1.0], cfg(samples=50_000))
        gap = est.log_estimate - math.log2(wnc(p, [1.0, 1.0]))
        b = theorem1_bounds(2, 2)
        widen = 4.0 * est.log_half_width
        assert b.gap_lo - widen <= gap <= b.gap_hi + widen

    def test_config_validation(self):
        with pytest.raises(ValueError):
            EstimatorConfig(stream=SampleStream(1), samples=10)
        p = get_problem("product")
        for deltas in [(), (1e-3, 1e-2), (1e-3, 0.0), (math.nan,), (math.inf, 1e-3)]:
            with pytest.raises(ValueError):
                delta_sweep(p, [1.0, 1.0], deltas, cfg(samples=100))


class TestStochasticComponentwise:
    def test_single_active_coordinate_is_half(self):
        # dot problem at (1, 0, 0): only one weight survives, the exact
        # ratio to the worst case is 1/2
        rep = report(get_problem("dot"), [1.0, 0.0, 0.0], cfg())
        est, w = rep.scc[0], rep.wcc[0]
        assert est.exact == pytest.approx(0.5 * w, rel=1e-12)
        assert abs(est.estimate - est.exact) < 4.0 * est.half_width

    def test_two_equal_weights_third(self):
        rep = report(get_problem("sum"), [1.0, 1.0], cfg())
        est, w = rep.scc[0], rep.wcc[0]
        assert est.exact == pytest.approx(w / 3.0, rel=1e-12)
        assert abs(est.estimate - est.exact) < 4.0 * est.half_width

    def test_upper_bound_half(self):
        rep = report(get_problem("matvec"), [1.0, 0.5, 1.0], cfg())
        for j in range(2):
            est = rep.scc[j]
            assert est.estimate <= 0.5 * rep.wcc[j] + 4.0 * est.half_width

    def test_bit_loss_below_minus_one(self):
        rep = report(get_problem("sum"), [1.0, 1.0], cfg())
        est = rep.scc[0]
        gap = est.log_estimate - math.log2(rep.wcc[0])
        assert gap <= -1.0 + 4.0 * est.log_half_width

    def test_exact_skipped_for_many_weights(self):
        p = linear_problem(np.ones((1, 5)), name="wide")
        est = report(p, [1.0, 1.0, 1.0, 1.0, 1.0], cfg(samples=5000)).scc[0]
        assert est.exact is None


class TestZeroCondition:
    # the polynomial at x = 0 and at a root of its derivative, where J(x) is
    # exactly 0: both condition numbers are 0, and every sample would be 0
    @pytest.mark.parametrize("x", [0.0, 0.16024689946928675])
    def test_estimates_are_exact_zeros(self, x):
        p = get_problem("polynomial")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = report(p, [x], cfg())
            ests = [snc(p, [x], cfg()), rep.snc, rep.scc[0]]
        assert rep.wnc == 0.0 and rep.wcc == [0.0]
        assert not rep.degenerate_norm and rep.degenerate_outputs == []
        for est in ests:
            assert (est.estimate, est.half_width, est.exact) == (0.0, 0.0, 0.0)
            assert est.log_estimate is None and est.log_half_width is None
            assert est.log_skewness is None


class TestReport:
    def test_identity_values(self):
        rep = report(get_problem("identity"), [1.0, 1.0], cfg(samples=2000))
        assert rep.wnc == pytest.approx(1.0)
        assert rep.wcc[0] == pytest.approx(1.0)
        assert rep.wcc[1] == pytest.approx(1.0)
        assert rep.k == 2 and not rep.degenerate_norm

    def test_product_values(self):
        rep = report(get_problem("product"), [1.0, 1.0], cfg(samples=2000))
        assert rep.wnc == pytest.approx(2.0)
        assert rep.wcc[0] == pytest.approx(2.0)
        assert rep.snc.exact == pytest.approx(8.0 / (3.0 * math.pi), rel=1e-12)

    def test_degenerate_output_flagged_not_fatal(self):
        rep = report(get_problem("sum"), [1.0, -1.0], cfg(samples=2000))
        assert rep.degenerate_norm
        assert rep.degenerate_outputs == [0]
        assert rep.wnc is None and rep.wcc == [None]
        assert rep.snc is None and rep.scc == [None]

    def test_partial_degeneracy(self):
        # first output zero at this point, second alive
        p = linear_problem(np.array([[1.0, -1.0], [1.0, 1.0]]), name="mixed")
        rep = report(p, [1.0, 1.0], cfg(samples=2000))
        assert rep.degenerate_outputs == [0]
        assert not rep.degenerate_norm
        assert rep.wcc[0] is None and rep.wcc[1] == pytest.approx(1.0)
        assert rep.scc[0] is None and rep.scc[1] is not None

    def test_componentwise_log_skewness_matches_formula(self):
        # the same samples as the report's output 1, skewed by the formula
        # written out: centre the log2 samples, sd with ddof=1, mean cube
        p, x = get_problem("matvec"), np.array([1.0, -0.5, 2.0])
        rep = report(p, x, cfg(seed=11, samples=3000))
        y, g = evaluate(p, x), x * jacobian(p, x).matrix[1]
        u = SampleStream(11).split(1 + p.n)[2].symmetric(3000 * 3).reshape(3000, 3)
        logs = np.log2(np.abs(u @ g[:, None])[:, 0] / abs(y[1]))
        c = logs - np.mean(logs)
        sd = np.std(logs, ddof=1)
        assert rep.scc[1].log_skewness == float(np.mean(c**3)) / float(sd)**3

    def test_norm_wise_log_skewness_not_computed(self):
        rep = report(get_problem("product"), [1.0, 2.0], cfg(samples=2000))
        assert rep.snc.log_skewness is None
        assert snc(get_problem("product"), [1.0, 2.0], cfg(samples=2000)).log_skewness is None
        rep = report(get_problem("sum"), [1.0, 2.0], cfg(samples=2000))
        assert rep.scc[0].log_skewness is not None

    def test_deterministic(self):
        a = report(get_problem("product"), [1.0, 2.0], cfg(seed=5, samples=2000))
        b = report(get_problem("product"), [1.0, 2.0], cfg(seed=5, samples=2000))
        assert a.snc.estimate == b.snc.estimate
        assert a.scc[0].log_estimate == b.scc[0].log_estimate


class TestPointComputedOnce:
    @pytest.mark.parametrize("name, x", [("product", [1.5, -0.7]), ("matvec", [1.0, -0.5, 2.0])])
    @pytest.mark.parametrize("entry", ["report", "delta_sweep"])
    def test_f_jacobian_sigma_and_norms_once(self, monkeypatch, entry, name, x):
        # one f(x), one J(x) and one SVD per point; _norm takes ||x|| and
        # ||f(x)|| once each
        from condana import condition

        calls = {}
        for fn in ("evaluate", "jacobian", "_singular_values", "_norm"):
            def counted(*args, _fn=getattr(condition, fn), _name=fn, **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(condition, fn, counted)
        if entry == "report":
            report(get_problem(name), x, cfg(samples=1000))
        else:
            delta_sweep(get_problem(name), x, (1e-2, 1e-3), cfg(samples=1000))
        assert calls == {"evaluate": 1, "jacobian": 1, "_singular_values": 1, "_norm": 2}


class TestFarFromUnitScale:
    @pytest.mark.parametrize("k", [-1000, -600, -500, -300, 0, 300, 500, 600, 1000])
    def test_norm_scales_exactly(self, k):
        # beyond 2**+-500 the squares of these entries overflow or underflow
        for v in SampleStream(11).normals(30).reshape(10, 3):
            assert _norm(np.ldexp(v, k)) == math.ldexp(float(np.linalg.norm(v)), k)
        assert _norm(np.zeros(3)) == 0.0

    @pytest.mark.parametrize("k", [-300, 300, 500])
    def test_product_report_bitwise_at_power_of_two_scales(self, k):
        # every quantity of the product is scale-invariant, and scaling x by
        # 2**k scales f and J exactly, so the report keeps every bit
        x = np.array([1.5, -0.7])
        base = report(get_problem("product"), x, cfg(seed=3, samples=2000))
        far = report(get_problem("product"), np.ldexp(x, k), cfg(seed=3, samples=2000))
        assert not far.degenerate_norm and far.degenerate_outputs == []
        assert (far.wnc, far.wcc, far.snc, far.scc) == (base.wnc, base.wcc, base.snc, base.scc)


class TestBeyondDoubleRange:
    # ||x|| / ||f(x)|| = 1e320 overflows: the norm-wise condition numbers
    # are infinite in double precision and flagged like f(x) = 0
    X = [1e-320, 1.0]

    def test_public_norm_wise_raise(self):
        with pytest.raises(DegenerateOutputError):
            wnc(get_problem("product"), self.X)
        with pytest.raises(DegenerateOutputError):
            snc(get_problem("product"), self.X, cfg(samples=1000))

    def test_report_and_sweep_flag_norm_wise_only(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = report(get_problem("product"), self.X, cfg(samples=1000))
            sw = delta_sweep(get_problem("product"), self.X, [1e-2], cfg(samples=1000))
        assert rep.degenerate_norm and rep.wnc is None and rep.snc is None
        assert rep.degenerate_outputs == [] and rep.wcc == [2.0]
        assert math.isfinite(rep.scc[0].estimate)
        assert sw.degenerate_norm and sw.snc_linearized is None and sw.snc_by_delta == []

    def test_in_range_values_unflagged(self):
        # wnc = 1e300 is finite, so the point is analyzed as before
        rep = report(get_problem("product"), [1e-300, 1.0], cfg(samples=1000))
        assert not rep.degenerate_norm and rep.wnc == pytest.approx(1e300)
        # ||x|| sigma_1 = 1e400 overflows, but wnc = 1e200 does not
        problem, x = linear_problem(np.diag([1e200, 1.0])), [1e-200, 1e200]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = report(problem, x, cfg(samples=1000))
        assert rep.wnc == 1e200 and wnc(problem, x) == 1e200
        assert 0.0 < rep.snc.half_width < rep.snc.estimate <= 1e200


class TestComponentwiseOverflow:
    # the weights x_i a_i = +-1e308 of this row sum past the double range,
    # though f(x) = 1e300 and wcc = 2e8 do not
    ROW, X = (1e300, -1e300), np.array([1e8, 99999999.0])

    def test_values_finite_and_right(self):
        p = linear_problem(np.array([self.ROW]), name="big")
        y = float(evaluate(p, self.X)[0])
        exact_wcc = (sum(abs(Fraction(xi) * Fraction(ai)) for xi, ai in zip(self.X, self.ROW))
                     / abs(Fraction(y)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # a sweep of 1,000 samples draws report's 500 directions and mirrors them
            rep = report(p, self.X, cfg(samples=500))
            sw = delta_sweep(p, self.X, (1e-2, 1e-3), cfg(samples=1000))
        assert abs(Fraction(rep.wcc[0]) - exact_wcc) <= Fraction(1e-15) * exact_wcc
        est = rep.scc[0]
        assert abs(est.estimate - est.exact) < 4.0 * est.half_width
        assert_same_law(sw.snc_linearized, rep.snc)
        assert sw.scc_linearized[0] == est.estimate


class TestFiniteDelta:
    @pytest.mark.parametrize("seed", [1, 7])
    @pytest.mark.parametrize("name", [p.name for p in list_problems()])
    def test_linearized_values_are_report_estimates(self, name, seed):
        # the sweep's two blocks are the first two streams report splits off
        # (norm-wise, then output 0), and both read the estimators' models
        # on the N / 2 drawn directions, the mirrored ones giving the same
        # values: the componentwise values agree bit for bit with report at
        # N / 2 samples; the norm-wise ones are explicit ball points in the
        # sweep and singular-value draws in report, so they agree within four
        # combined half-widths
        p = get_problem(name)
        point_stream, est_stream = SampleStream(seed).split(2)
        x = random_point(p, point_stream, min_component=1e-9)
        rep = report(p, x, EstimatorConfig(stream=est_stream, samples=10_000))
        sw = delta_sweep(p, x, (1e-2,), EstimatorConfig(stream=est_stream, samples=20_000))
        if rep.snc is None:
            assert sw.snc_linearized is None
        else:
            assert_same_law(sw.snc_linearized, rep.snc)
        assert sw.scc_linearized[0] == (rep.scc[0].estimate if rep.scc[0] else None)

    def test_zero_sample_left_out_alike(self, monkeypatch):
        # one cube point, the eighth of output 0's block, is zeroed in the
        # model: report at n / 2 samples and the sweep at n, whose n / 2
        # drawn directions are report's, both leave it out, bit for bit alike
        p, x, n = get_problem("product"), [1.0, 2.0], 1000
        target = SampleStream(3).split(2)[1].symmetric(n * p.m).reshape(n, p.m)[7]
        model, zeroed = condition._cube_model, []

        def zeroing(gmat, denoms, u, out=None):
            values = model(gmat, denoms, u, out)
            hit = np.all(u == target, axis=1)
            values[hit] = 0.0
            zeroed.append(int(np.count_nonzero(hit)))
            return values

        monkeypatch.setattr(condition, "_cube_model", zeroing)
        rep = report(p, x, cfg(seed=3, samples=n // 2))
        sw = delta_sweep(p, x, (1e-2,), cfg(seed=3, samples=n))
        assert sw.scc_linearized[0] == rep.scc[0].estimate
        assert zeroed == [1, 1]

    @pytest.mark.parametrize("name, x, seed, digest", [
        ("product", [1.4806523, -1.10939713], 5,
         "8ba2096b5ba56bc4967387ff3580a71a86b7dcaa8732fc8e8ae0b228a0a707d8"),
        ("matvec", [1.0, -1.0, 2.0], 7,
         "d2609e3846e4b8c9e72d20d96b5bcf78587e28c4fef6c00d44b3c8346598a296"),
    ], ids=["product", "matvec"])
    def test_pinned_digest_at_any_width(self, workers, name, x, seed, digest):
        # sha256 over the reprs of every sweep field, recorded when the
        # ball block took the sphere rule of the norm-wise estimator; the
        # rows of both blocks fill through _split, on the pool inside a scope
        def sweep():
            return sweep_digest(delta_sweep(get_problem(name), x, (1e-2, 1e-3, 1e-4, 1e-5),
                                            cfg(seed=seed, samples=69_637)))

        assert list(in_and_out_of_scope(sweep)) == [digest] * 3

    @pytest.mark.parametrize("n, m, seed, digest", PINNED_MATRICES, ids=["30x7", "20x3"])
    def test_pinned_matrix_digest_at_any_width(self, workers, n, m, seed, digest):
        # 69,637 samples give 34,819 pairs, whose tail of 2,051 columns
        # OpenBLAS multiplies on its small-matrix kernel, rounding some
        # products differently from the whole block's; joined to the stripe
        # before it (18,435 columns), it gives the whole block's bytes. Five
        # deltas split 2 and 3 on two workers. sha256 recorded at one
        # OpenBLAS thread, as in every scope, and equal to each delta, region
        # and half evaluated as one whole-block batch (whole_block_sweep)
        assert list(in_and_out_of_scope(lambda: matrix_sweep_digest(n, m, seed))) == [digest] * 3

    @pytest.mark.parametrize("n, m, seed, digest", PINNED_MATRICES, ids=["30x7", "20x3"])
    def test_unscoped_matrix_digest_at_two_blas_threads(self, workers, n, m, seed, digest):
        # at two OpenBLAS threads the products split, and round, by the
        # thread count; a call outside any scope opens its own, which holds
        # OpenBLAS to one thread, and gives the pinned bytes
        with blas_threads(2):
            assert matrix_sweep_digest(n, m, seed) == digest

    @pytest.mark.parametrize("samples", [20_000, 69_637], ids=["one-stripe", "joined-tail"])
    @pytest.mark.parametrize("name", ["product", "matvec", "solve_ill", "30x7"])
    def test_stripes_bit_equal_to_whole_block(self, workers, name, samples):
        p = (linear_problem(np.random.default_rng(1).standard_normal((30, 7)))
             if name == "30x7" else get_problem(name))
        x = random_point(p, SampleStream(4), min_component=1e-9)
        deltas = (1e-2, 1e-4, 1e-6)
        with sampling._parallel(1):
            ref = whole_block_sweep(p, x, deltas, cfg(seed=5, samples=samples))
        for width in (1, None):
            with sampling._parallel(width):
                sw = delta_sweep(p, x, deltas, cfg(seed=5, samples=samples))
            assert (sw.snc_by_delta, sw.scc_by_delta) == ref

    @pytest.mark.parametrize("n", [100, 2 * _STRIPE - 1, 2 * _STRIPE, 3 * _STRIPE - 1, 69_637,
                                   100_000, 5 * _STRIPE, 6 * _STRIPE - 1])
    def test_fn_called_once_per_stripe(self, workers, n):
        # the P = ceil(n / 2) pairs in stripes of S columns and a last one of
        # S to 2S - 1; below 2S one call takes the whole half; per delta,
        # region and half (+u, -u), at any width
        p, widths, pairs = get_problem("product"), [], -(-n // 2)

        def fn(x):
            if x.ndim == 2:
                widths.append(x.shape[1])
            return x[:1] * x[1:]

        p.fn = fn
        want = [pairs] if pairs < 2 * _STRIPE else [_STRIPE] * (pairs // _STRIPE - 1) + [
            _STRIPE + pairs % _STRIPE]
        for width in (1, None):
            widths.clear()
            with sampling._parallel(width):
                delta_sweep(p, [1.5, -0.7], (1e-2, 1e-3), cfg(samples=n))
            assert sorted(widths) == sorted(want * 8)

    def test_linear_problem_matches_linearized_exactly(self):
        # differencing noise is ~eps/delta per sample, so the 1e-12 equality
        # is checked at deltas where that noise sits far below it; the
        # mixed-sign point checks that offsets carry the sign of x
        p = get_problem("matvec")
        for x in ([1.0, 1.0, 1.0], [1.0, -1.0, 2.0]):
            sweep = delta_sweep(p, x, (1e-1, 1e-2, 1e-3), cfg(samples=500))
            for pt in sweep.snc_by_delta:
                assert pt.estimate == pytest.approx(sweep.snc_linearized, rel=1e-12)
            for j in range(p.n):
                for pt in sweep.scc_by_delta[j]:
                    assert pt.estimate == pytest.approx(sweep.scc_linearized[j], rel=1e-12)

    def test_polynomial_gap_is_second_order(self):
        # each pair cancels the odd Taylor terms of its two differences
        # exactly, so the gap |finite-delta - linearized| is the even part:
        # for a cubic at m = 1, c delta**2 with c fixed by the draw. With
        # independent directions the odd O(delta) term left slopes of 1.1-1.2
        p, deltas = get_problem("polynomial"), (1e-1, 1e-2, 1e-3)
        for seed in (42, 1, 7):
            sweep = delta_sweep(p, [0.9], deltas, cfg(seed=seed, samples=20_000))
            for lin, points in ((sweep.snc_linearized, sweep.snc_by_delta),
                                (sweep.scc_linearized[0], sweep.scc_by_delta[0])):
                gaps = [abs(pt.estimate - lin) for pt in points]
                slope = np.polyfit(np.log2(deltas), np.log2(gaps), 1)[0]
                assert abs(slope - 2.0) < 1e-6, (seed, slope)

    @pytest.mark.parametrize("name, x", [("product", [1.5, -0.7]), ("polynomial", [0.8])])
    def test_batched_bit_equal_to_looped_reference(self, name, x):
        # the oracle of the pair reduction: estimates and half-widths of the
        # explicit pair means, f evaluated at +u and -u one point at a time
        p = get_problem(name)
        deltas = (1e-2, 1e-3, 1e-4, 1e-5)
        sweep = delta_sweep(p, x, deltas, cfg(seed=7, samples=2000))
        snc_ref, scc_ref = looped_sweep(p, x, deltas, cfg(seed=7, samples=2000))
        assert sweep.snc_by_delta == snc_ref
        assert sweep.scc_by_delta == scc_ref

    def test_batched_blas_problem_near_looped_reference(self):
        # a batched matrix product may round differently from one matrix-vector
        # product per point; 1e-9 is the benchmark's tolerance for exact values
        p = get_problem("matvec")
        x, deltas = [1.0, -1.0, 2.0], (1e-2, 1e-3, 1e-4, 1e-5)
        sweep = delta_sweep(p, x, deltas, cfg(seed=7, samples=2000))
        snc_ref, scc_ref = looped_sweep(p, x, deltas, cfg(seed=7, samples=2000))
        pairs = list(zip(sweep.snc_by_delta, snc_ref))
        pairs += [pair for j in range(p.n) for pair in zip(sweep.scc_by_delta[j], scc_ref[j])]
        assert len(pairs) == 12
        for got, ref in pairs:
            assert not got.underflowed and not ref.underflowed
            for field in ("estimate", "half_width"):
                assert getattr(got, field) == pytest.approx(getattr(ref, field), rel=1e-9)

    @pytest.mark.parametrize("k", [-300, 400])
    def test_sweep_bitwise_at_power_of_two_scales(self, k):
        # beyond 2**+-500 the squares of f and of its differences overflow
        # or underflow; the per-sample norms scale each block first
        x, deltas = np.array([1.5, -0.7]), (1e-2, 1e-3)
        base = delta_sweep(get_problem("product"), x, deltas, cfg(seed=3, samples=2000))
        far = delta_sweep(get_problem("product"), np.ldexp(x, k), deltas,
                          cfg(seed=3, samples=2000))
        assert far.snc_linearized == base.snc_linearized
        assert far.snc_by_delta == base.snc_by_delta

    def test_subnormal_scale_divides_in_turn(self):
        # delta * denom = 1e-325 underflows to 0, where diffs / 0 was inf
        # or nan; dividing by denom and then by delta keeps the values
        diffs = np.array([[1e-310, 2e-310], [4e-310, 1e-310]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pt = _delta_point(1e-20, diffs.copy(), 1e-305, None, np.empty((1, 2)))
        a, b = diffs / 1e-305 / 1e-20
        assert pt.estimate == one_piece((a + b) / 2.0)[0]
        assert pt.estimate == pytest.approx(2e15, rel=1e-12)
        # a zero quotient flags the delta, as on the ordinary path
        assert _delta_point(1e-20, np.array([[1e-310], [0.0]]), 1e-305, None,
                            np.empty((1, 1))).underflowed
        # where delta * denom is normal, the values are diffs / (delta * denom)
        pt = _delta_point(1e-2, diffs.copy(), 1e-300, None, np.empty((1, 2)))
        assert pt == pair_point(1e-2, diffs, 1e-300)

    def test_pair_means_stay_in_range(self):
        # a + b overflows where a and b do not, and those pairs halve first;
        # at the smallest normals the halved sum is exact: every mean is
        # exact here, and the largest stays finite
        a = np.array([2.0**1023, 1.0, 2.0**-1022, 3.0])
        b = np.array([1.5 * 2.0**1023, 3.0, 3.0 * 2.0**-1022, 5.0])
        means = np.array([1.25 * 2.0**1023, 2.0, 2.0**-1021, 4.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pt = _delta_point(1.0, np.stack([a, b]), 1.0, None, np.empty((1, 4)))
        assert pt == DeltaPoint(1.0, *one_piece(means))
        assert math.isfinite(pt.estimate) and math.isfinite(pt.half_width)

    @pytest.mark.parametrize("side", [0, 1], ids=["plus-u", "minus-u"])
    def test_zero_difference_in_either_half_flags(self, monkeypatch, side):
        # a pair mean is 0 only where both of its differences are; f missing
        # the first perturbation of either half flags the delta all the same
        p, x, n = get_problem("product"), [1.5, -0.7], 1000
        y, inner = evaluate(p, x), condition._evaluate_columns

        def missing(problem, at, first):
            values = inner(problem, at, first)
            if first == side * n // 2:
                values[:, 0] = y
            return values

        monkeypatch.setattr(condition, "_evaluate_columns", missing)
        sw = delta_sweep(p, x, (1e-2, 1e-3), cfg(samples=n))
        assert all(pt.underflowed for pt in sw.snc_by_delta + sw.scc_by_delta[0])

    def test_underflow_flagged(self):
        p = get_problem("matvec")
        # at 5e-17 only some differences round to zero; the delta is flagged
        # all the same, so no mean is taken over samples f did not resolve
        for deltas in [(1e-2, 1e-300), (1e-2, 5e-17)]:
            sweep = delta_sweep(p, [1.0, 1.0, 1.0], deltas, cfg(samples=300))
            assert not sweep.snc_by_delta[0].underflowed
            assert sweep.snc_by_delta[1].underflowed
            # no sentinel values: an underflowed delta has no mean to report
            assert sweep.snc_by_delta[1].estimate is None
            assert sweep.snc_by_delta[1].half_width is None
