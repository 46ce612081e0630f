import hashlib
import math
import tracemalloc
import warnings
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from condana import cli, condition, sampling
from condana.closed_forms import snc_wnc_exact, theorem1_bounds
from condana.condition import (
    _CHUNK,
    _ESTIMATES,
    _Z,
    DegenerateOutputError,
    EstimatorConfig,
    _ball_moments,
    _block_moments,
    _componentwise,
    _cube_moments,
    _cube_rows,
    _delta_point,
    _half_widths,
    _norm,
    _redraw,
    delta_sweep,
    report,
    snc,
    spectral_norm,
    wnc,
)
from condana.problems import (evaluate, get_problem, jacobian, linear_problem, list_problems,
                              random_point)
from condana.problems import scale_problem
from condana.sampling import BallRegion, SampleStream, sample_ball


def cfg(seed=42, samples=20_000, **kw):
    return EstimatorConfig(stream=SampleStream(seed), samples=samples, **kw)


def looped_sweep(problem, x, deltas, config):
    """Reference for ``delta_sweep`` at a point with no zero output: the
    same directions, with one ``evaluate`` call per sample, per delta and
    per region. Returns (snc points, scc points per output)."""
    x = np.asarray(x, dtype=float)
    y = evaluate(problem, x)
    subs = config.stream.split(2)
    u_ball = sample_ball(BallRegion(np.zeros(problem.m), 1.0), subs[0], size=config.samples)
    u_cube = subs[1].symmetric(config.samples * problem.m).reshape(config.samples, problem.m)
    xnorm, fnorm = float(np.linalg.norm(x)), float(np.linalg.norm(y))
    snc_points, scc_points = [], [[] for _ in range(problem.n)]
    for delta in deltas:
        ball_offsets = delta * xnorm * u_ball
        cube_offsets = delta * x * u_cube
        ball = np.empty(config.samples)
        cube = np.empty((config.samples, problem.n))
        for i in range(config.samples):
            ball[i] = np.linalg.norm(evaluate(problem, x + ball_offsets[i]) - y)
            cube[i] = np.abs(evaluate(problem, x + cube_offsets[i]) - y)
        snc_points.append(_delta_point(delta, ball, fnorm, None))
        for j in range(problem.n):
            scc_points[j].append(_delta_point(delta, cube[:, j], abs(float(y[j])), None))
    return snc_points, scc_points


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
    """The values each piece of a draw reduces, by its first sample: the
    piece kernel, which ``condition`` looks up in its own namespace, is
    wrapped to record them, on whichever thread runs it."""
    seen = {}
    kernel = condition._piece_moments

    def recording(acc, i, lo, values, bufs):
        seen[lo] = values.copy()
        return kernel(acc, i, lo, values, bufs)

    monkeypatch.setattr(condition, "_piece_moments", recording)
    return seen


def in_order(seen):
    """The recorded piece values in sample order, as one ``(N, k)`` block,
    and the record cleared for the next draw."""
    block = np.concatenate([seen[lo] for lo in sorted(seen)])
    seen.clear()
    return block


def cube_draw(gmat, denoms, seed, n, stats=(None,), third=False):
    """``_cube_moments`` of |u . g| / d on ``n`` cube points of stream
    ``seed``, and the next words of the stream."""
    stream = SampleStream(seed)
    moments = _cube_moments(lambda u, out=None: condition._cube_model(gmat, denoms, u, out),
                            gmat.shape[0], gmat.shape[1], stream, n, "x", stats, third)
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

    def test_zeros_redrawn_in_sample_order(self):
        # the samples 1..10 hold zeros at 3 and 8, which take 11 and 12; the
        # piece leaves them out and the redraws come in as a last piece
        stream = SampleStream(1)
        n, mean, m2, m3, e = _cube_moments(counting_model((3.0, 8.0)), 1, 1, stream, 10, "x",
                                           (None,), third=True)
        ref = np.array([1, 2, 11, 4, 5, 6, 7, 12, 9, 10], dtype=float)
        assert n.tolist() == [10.0] and e.tolist() == [[0]]
        assert mean[0, 0] == pytest.approx(np.mean(ref), rel=4e-16)
        assert m2[0, 0] == pytest.approx(9.0 * np.var(ref, ddof=1), rel=4e-16)
        assert m3[0, 0] == pytest.approx(np.sum((ref - np.mean(ref))**3), rel=1e-14)

    def test_zeros_redrawn_per_statistic(self):
        # zeros (sample, column) = (1, 1), (2, 2), (4, 0) take column c of
        # fresh rows 16..18, 19..21, 22..24, and 17, itself zeroed, takes
        # column 1 of a second fresh row 25..27
        draw = counting_draw(3, zero_at=(17.0,))
        draw(5)  # the samples themselves: 1..15
        np.testing.assert_array_equal(_redraw(np.array([1, 2, 0]), draw, "x"), [26.0, 21.0, 22.0])

    @pytest.mark.parametrize("width", [1, 3])
    def test_persistent_zero_raises(self, width):
        def model(u, out=None):
            return np.zeros((len(u), width))

        with pytest.raises(RuntimeError, match="persistent zero"):
            _cube_moments(model, 2, width, SampleStream(1), 10, "x")


def in_and_out_of_scope(fn):
    """``fn()`` outside the parallel scope, then inside it."""
    outside = fn()
    with sampling._parallel():
        assert sampling._pool is not None
        inside = fn()
    return outside, inside


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

        serial, pooled = in_and_out_of_scope(draw)
        assert pooled == serial
        assert splits["condition"] >= 1

    def test_cube_zero_redraw_bit_equal(self, workers, splits, monkeypatch):
        # samples whose first coordinate is below 1e-3 in size are zeroed by
        # the model, about 1 in 1,000, and redrawn serially after the chunks
        model, zeroed = condition._cube_model, []

        def zeroing(gmat, denoms, u, out=None):
            values = model(gmat, denoms, u, out)
            small = np.abs(u[:, 0]) < 1e-3
            values[small] = 0.0
            zeroed.append(int(np.count_nonzero(small)))
            return values

        monkeypatch.setattr(condition, "_cube_model", zeroing)
        seen = pieces(monkeypatch)
        gmat = SampleStream(5).symmetric(4 * 6).reshape(4, 6)

        def draw():
            moments, after = cube_draw(gmat, 1.0, 9, 50_000, _ESTIMATES)
            assert moments[0].tolist() == [50_000.0] * 6
            return moment_bytes(moments), after.tobytes(), in_order(seen).tobytes()

        serial, pooled = in_and_out_of_scope(draw)
        assert sum(zeroed) > 50
        assert pooled == serial
        assert splits["condition"] >= 1

    def test_scaled_rows_bit_equal(self, workers, splits):
        # columns 1 and 2 are scaled by 2**-700 and 2**600: their squared
        # deviations underflow and overflow in every piece, which is reduced
        # again scaled, and the pieces combine at their largest exponent
        gmat = np.repeat(SampleStream(4).symmetric(6)[:, None], 3, axis=1)
        denoms = np.array([1.0, 2.0**700, 2.0**-600])

        def draw():
            return _half_widths(cube_draw(gmat, denoms, 9, 3 * _cube_rows(9) + 5)[0])

        (mean, hw), pooled = in_and_out_of_scope(draw)
        assert moment_bytes(pooled) == moment_bytes((mean, hw))
        np.testing.assert_array_equal(mean[:, 1:], np.ldexp(mean[:, :1], [-700, 600]))
        np.testing.assert_array_equal(hw[:, 1:], np.ldexp(hw[:, :1], [-700, 600]))
        assert splits["condition"] == 1

    def test_componentwise_estimates_bit_equal(self, workers):
        # the estimates and, where asked for, the log skewness
        gmat = SampleStream(6).symmetric(5 * 20).reshape(5, 20)
        denoms = np.sum(np.abs(gmat), axis=0)
        for skew in (False, True):
            serial, pooled = in_and_out_of_scope(
                lambda: _componentwise(gmat, denoms, SampleStream(2), 30_000, skew))
            assert pooled == serial
            assert all((est.log_skewness is not None) == skew for est in serial)


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


def redrawn_block(g, seed, n, zero):
    """Reference for a one-column cube draw with zeros: |u . g| of n points,
    zeroed where ``zero(u)``, and each zero replaced, in sample order, by
    the next point of the stream, until none is left."""
    stream, m = SampleStream(seed), g.size
    def dots(count):
        u = stream.symmetric(count * m).reshape(count, m)
        values = np.abs(u @ g)
        values[zero(u)] = 0.0
        return values
    values = dots(n)
    while not values.all():
        (zeros,) = np.nonzero(values == 0.0)
        values[zeros] = dots(zeros.size)
    return values


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

        outside, inside = in_and_out_of_scope(draw)
        assert moment_bytes(inside) == moment_bytes(outside)
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
        model = condition._cube_model

        def zeroing(gmat, denoms, u, out=None):
            values = model(gmat, denoms, u, out)
            values[np.abs(u[:, 0]) < 1e-3] = 0.0
            return values

        monkeypatch.setattr(condition, "_cube_model", zeroing)
        g, n = SampleStream(3).symmetric(4), 3 * _cube_rows(5) + 5
        outside, inside = in_and_out_of_scope(lambda: cube_draw(g[:, None], 1.0, 9, n,
                                                                third=True)[0])
        assert moment_bytes(inside) == moment_bytes(outside)
        ref = redrawn_block(g, 9, n, lambda u: np.abs(u[:, 0]) < 1e-3)
        count, mean, m2, m3, _ = outside
        assert count.tolist() == [float(n)]
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


def unit_point(mat):
    """A point for the norm-wise model with ||x|| / ||f(x)|| = 1, so that its
    values are ||J u|| alone."""
    return SimpleNamespace(x=np.zeros(mat.shape[1]), mat=mat, xnorm=1.0, fnorm=1.0)


def numpy_ball_norms(mat, seed, n):
    """Reference for the norm-wise model: ``np.linalg.norm`` of J u on the
    ball points of each chunk of ``_CHUNK`` samples."""
    stream, region = SampleStream(seed), BallRegion(np.zeros(mat.shape[1]), 1.0)
    return np.concatenate([
        np.linalg.norm(mat @ sample_ball(region, stream, size=min(_CHUNK, n - lo)).T, axis=0)
        for lo in range(0, n, _CHUNK)])


def ball_draw(mat, n_samples, seed=2):
    """The estimators' ``_ball_moments`` of J = ``mat`` and the next words
    of its stream."""
    stream = SampleStream(seed)
    return _ball_moments(unit_point(mat), stream, n_samples), stream.words(2)


def ball_mat(m, n):
    return SampleStream(100 * m + n).symmetric(n * m).reshape(n, m)


def serial_and_pooled(fn):
    """``fn()`` outside the parallel scope, on the serial path, with OpenBLAS
    held at one thread as the scope holds it, then inside the scope, on the
    pooled path. At OpenBLAS's own thread count, a chunk whose length does
    not split evenly over its threads (4,101 samples on two) can round
    differently."""
    blas = sampling._openblas_threads()
    counts = [get() for get, _ in blas]
    try:
        for _, put in blas:
            put(1)
        serial = fn()
    finally:
        for (_, put), count in zip(blas, counts):
            put(count)
    with sampling._parallel():
        return serial, fn()


def digest(*arrays):
    return hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest()


class TestBallPieces:
    """Ball chunks cut into pieces on the pool of the parallel scope reduce
    the serial path's samples, give its moments and leave the stream where
    it leaves it."""

    N = 100_000

    @pytest.fixture(scope="class")
    def oracle_digests(self):
        # ``numpy_ball_norms`` of each J, chunk by chunk, on one OpenBLAS
        # thread as in the scope; the ball points of one m serve every n
        digests = {}
        with sampling._parallel():
            for m in range(1, 31):
                stream, region = SampleStream(m), BallRegion(np.zeros(m), 1.0)
                chunks = [sample_ball(region, stream, size=min(_CHUNK, self.N - lo))
                          for lo in range(0, self.N, _CHUNK)]
                after = stream.words(2)
                for n in range(1, 31):
                    mat = ball_mat(m, n)
                    digests[m, n] = digest(*(np.linalg.norm(mat @ pts.T, axis=0)
                                             for pts in chunks), after)
        return digests

    def test_every_shape_bit_equal(self, workers, splits, monkeypatch, oracle_digests):
        # every shape of the default theorem1 group, every sample its pieces
        # reduce; for m + n <= 4 the pieces are whole chunks
        seen = pieces(monkeypatch)
        with sampling._parallel():
            mismatched = []
            for shape in oracle_digests:
                _, after = ball_draw(ball_mat(*shape), self.N, seed=shape[0])
                if digest(in_order(seen), after) != oracle_digests[shape]:
                    mismatched.append(shape)
        assert mismatched == []
        assert splits["condition"] == len(oracle_digests)

    @pytest.mark.parametrize("last", ["one", "five", "joined"])
    @pytest.mark.parametrize("m, n", [(2, 7), (4, 12), (16, 16), (30, 1), (30, 30)])
    def test_short_chunks_bit_equal(self, workers, monkeypatch, m, n, last):
        # a last chunk of 1 or 5 samples is one piece; one of 2 pieces and 5
        # samples has a tail of 5 after its first piece, which joins the
        # second: alone, BLAS rounds its product differently
        seen = pieces(monkeypatch)
        rows = _cube_rows(m + n)
        n_samples = {"one": _CHUNK + 1, "five": 3 * _CHUNK + 5,
                     "joined": _CHUNK + 2 * rows + 5}[last]

        def draw():
            moments, after = ball_draw(ball_mat(m, n), n_samples)
            return moment_bytes(moments), after.tobytes(), in_order(seen).tobytes()

        serial, pooled = serial_and_pooled(draw)
        assert pooled == serial

    @pytest.mark.parametrize("k", [-700, 700])
    def test_scaled_jacobian_bit_equal(self, workers, monkeypatch, k):
        # every piece's squared deviations underflow or overflow, so each is
        # reduced again scaled, and the moments are exactly 2**k times
        seen = pieces(monkeypatch)
        mat = ball_mat(5, 9)

        def draw():
            moments, _ = ball_draw(np.ldexp(mat, k), self.N)
            return _half_widths(moments), in_order(seen)

        (serial, serial_values), (pooled, values) = serial_and_pooled(draw)
        assert moment_bytes(pooled) == moment_bytes(serial)
        assert values.tobytes() == serial_values.tobytes()
        with sampling._parallel():
            unscaled, _ = ball_draw(mat, self.N)
        np.testing.assert_array_equal(values, np.ldexp(in_order(seen), k))
        mean, hw = _half_widths(unscaled)
        np.testing.assert_array_equal(pooled[0][0], np.ldexp(mean[0], k))
        np.testing.assert_array_equal(pooled[1][0], np.ldexp(hw[0], k))

    def test_zero_redraw_bit_equal(self, workers, splits, monkeypatch):
        # values of points whose first coordinate is below 1e-3 in size are
        # zeroed, about 2 in 1,000, and redrawn serially after the pieces
        model, zeroed = condition._ball_model, []

        def zeroing(p, u, out=None, product=None):
            values = model(p, u, out, product)
            small = np.abs(u[:, 0]) < 1e-3
            values[small] = 0.0
            zeroed.append(int(np.count_nonzero(small)))
            return values

        monkeypatch.setattr(condition, "_ball_model", zeroing)
        seen = pieces(monkeypatch)

        def draw():
            moments, after = ball_draw(ball_mat(6, 4), self.N)
            assert moments[0].tolist() == [float(self.N)]
            return moment_bytes(moments), after.tobytes(), in_order(seen).tobytes()

        serial, pooled = serial_and_pooled(draw)
        assert sum(zeroed) > 100
        assert pooled == serial
        assert splits["condition"] == 1

    def test_peak_memory_per_worker(self, workers):
        # buffers are made once per call, one set per worker: a 30 x 30
        # problem at 100,000 samples holds pieces of 4,096 to 5,792 samples
        mat = ball_mat(30, 30)
        with sampling._parallel():
            tracemalloc.start()
            try:
                ball_draw(mat, self.N)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak <= workers * 4 * 2**20


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

    @pytest.mark.parametrize("m", [1, 2, 3, 30])
    def test_sample_ball_bit_equal_to_linalg_norm(self, m):
        center = np.linspace(-1.0, 2.0, m)
        for c in (np.zeros(m), center):
            got = sample_ball(BallRegion(c, 0.75), SampleStream(4), size=3000)
            stream = SampleStream(4)
            ref = stream.normals(3000 * m).reshape(3000, m)
            ref /= np.linalg.norm(ref, axis=1)[:, None]
            ref *= (0.75 * stream.uniforms(3000) ** (1.0 / m))[:, None]
            np.testing.assert_array_equal(got, ref + c)

    @pytest.mark.parametrize("m", [1, 2, 3, 30])
    @pytest.mark.parametrize("n_out", [1, 7])
    def test_ball_model_values_bit_equal_to_linalg_norm(self, monkeypatch, m, n_out):
        seen = pieces(monkeypatch)
        mat = SampleStream(8).symmetric(n_out * m).reshape(n_out, m)
        n = _CHUNK + 5
        ball_draw(mat, n)
        np.testing.assert_array_equal(in_order(seen)[:, 0], numpy_ball_norms(mat, 2, n))

    @pytest.mark.parametrize("k", [-1000, -700, 700, 1000])
    def test_ball_model_values_scale_exactly(self, monkeypatch, k):
        # the squares of these entries overflow or underflow, so J is scaled
        # by a power of two first, which leaves every bit of ||J u|| / 2**k
        seen = pieces(monkeypatch)
        mat = SampleStream(8).symmetric(6).reshape(2, 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ball_draw(np.ldexp(mat, k), 500)
        np.testing.assert_array_equal(in_order(seen)[:, 0],
                                      np.ldexp(numpy_ball_norms(mat, 2, 500), k))


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
        # one f(x), one J(x) and one sigma_1 per point; _norm takes ||x|| and
        # ||f(x)|| once each
        from condana import condition

        calls = {}
        for fn in ("evaluate", "jacobian", "spectral_norm", "_norm"):
            def counted(*args, _fn=getattr(condition, fn), _name=fn, **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(condition, fn, counted)
        if entry == "report":
            report(get_problem(name), x, cfg(samples=1000))
        else:
            delta_sweep(get_problem(name), x, (1e-2, 1e-3), cfg(samples=1000))
        assert calls == {"evaluate": 1, "jacobian": 1, "spectral_norm": 1, "_norm": 2}


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
            rep = report(p, self.X, cfg(samples=1000))
            sw = delta_sweep(p, self.X, (1e-2, 1e-3), cfg(samples=1000))
        assert abs(Fraction(rep.wcc[0]) - exact_wcc) <= Fraction(1e-15) * exact_wcc
        est = rep.scc[0]
        assert abs(est.estimate - est.exact) < 4.0 * est.half_width
        assert sw.snc_linearized == rep.snc.estimate
        assert sw.scc_linearized[0] == est.estimate


class TestFiniteDelta:
    @pytest.mark.parametrize("seed", [1, 7])
    @pytest.mark.parametrize("name", [p.name for p in list_problems()])
    def test_linearized_values_are_report_estimates(self, name, seed):
        # the sweep's two blocks are the first two streams report splits off
        # (norm-wise, then output 0), and both read the estimators' models:
        # up to one ball chunk the values agree bit for bit
        p = get_problem(name)
        point_stream, est_stream = SampleStream(seed).split(2)
        x = random_point(p, point_stream, min_component=1e-9)
        rep = report(p, x, EstimatorConfig(stream=est_stream, samples=20_000))
        sw = delta_sweep(p, x, (1e-2,), EstimatorConfig(stream=est_stream, samples=20_000))
        assert sw.snc_linearized == (rep.snc.estimate if rep.snc else None)
        assert sw.scc_linearized[0] == (rep.scc[0].estimate if rep.scc[0] else None)

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

    def test_product_converges_linearly(self):
        p = get_problem("product")
        deltas = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6)
        sweep = delta_sweep(p, [1.0, 1.0], deltas, cfg(samples=2000))
        gaps = [abs(pt.estimate - sweep.snc_linearized) for pt in sweep.snc_by_delta]
        slope = np.polyfit(np.log2(deltas), np.log2(gaps), 1)[0]
        assert 0.8 <= slope <= 1.2

    @pytest.mark.parametrize("name, x", [("product", [1.5, -0.7]), ("polynomial", [0.8])])
    def test_batched_bit_equal_to_looped_reference(self, name, x):
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
        diffs = np.array([1e-310, 2e-310, 4e-310])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pt = _delta_point(1e-20, diffs, 1e-305, None)
        assert pt.estimate == one_piece(diffs / 1e-305 / 1e-20)[0]
        assert pt.estimate == pytest.approx(7e15 / 3.0, rel=1e-12)
        # a zero quotient flags the delta, as on the ordinary path
        assert _delta_point(1e-20, np.array([1e-310, 0.0]), 1e-305, None).underflowed
        # where delta * denom is normal, the values are diffs / (delta * denom)
        pt = _delta_point(1e-2, diffs, 1e-300, None)
        assert pt.estimate == one_piece(diffs / (1e-2 * 1e-300))[0]

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
