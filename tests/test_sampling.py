import hashlib
import itertools
import math
import threading
import tracemalloc
from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.integrate import quad
from scipy.special import ndtri

from condana import sampling
from condana.closed_forms import wallis_integral
from condana.sampling import (
    _BLOCK,
    BallRegion,
    CubeRegion,
    SampleStream,
    sample_ball,
    sample_cube,
)

# Documented word sequence for the default stream of seed 42: the
# determinism contract other tools may rely on.
SEED42_WORDS = (6332618229526065668, 17630415256238047317, 8971565426155258802)
SEED42_CHILD_SEEDS = (4797102819533973150, 427650396134216005, 3611371786050219056)


class OneShotStream:
    """Reference oracle: each draw as one full-size expression over the
    word counters, the formulas the blocked draws must reproduce."""

    GAMMA = np.uint64(0x9E3779B97F4A7C15)

    @staticmethod
    def mix64(z):
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))

    def __init__(self, seed, stream_index=0):
        start = (seed + int(self.GAMMA) * (stream_index + 1)) % 2**64
        self.base = self.mix64(np.array([start], dtype=np.uint64))[0]
        self.pos = 0

    def words(self, n):
        idx = np.arange(self.pos + 1, self.pos + n + 1, dtype=np.uint64)
        self.pos += n
        return self.mix64(self.base + idx * self.GAMMA)

    def uniforms(self, n):
        return ((self.words(n) >> np.uint64(12)).astype(np.float64) + 0.5) * 2.0**-52

    def symmetric(self, n):
        return 2.0 * self.uniforms(n) - 1.0

    def normals(self, n):
        return ndtri(self.uniforms(n))


DRAWS = ("words", "uniforms", "symmetric", "normals")
MIXED_CALLS = (("words", 5), ("symmetric", _BLOCK + 1), ("normals", 2 * _BLOCK + 3),
               ("uniforms", _BLOCK - 1), ("words", 3 * _BLOCK + 5), ("uniforms", 1),
               ("symmetric", 0), ("normals", _BLOCK))
# sha256 over the bytes of these draws at seeds 0, 42 (stream 3) and
# 2**64 - 1, recorded from the one-shot formulas
PINNED_CALLS = (("words", 5), ("symmetric", 65537), ("normals", 131075),
                ("uniforms", 65535), ("words", 196613), ("uniforms", 1),
                ("symmetric", 0), ("normals", 65536))
PINNED_DIGEST = "8571730ea054d503e5483c63f96066ddd1c016018cdb116aa19d5e719371422e"


class TestSampleStream:
    def test_documented_sequence_seed42(self):
        assert tuple(int(w) for w in SampleStream(42).words(3)) == SEED42_WORDS

    def test_uniforms_are_transformed_words(self):
        words = SampleStream(42).words(4)
        expected = ((words >> np.uint64(12)).astype(float) + 0.5) * 2.0**-52
        np.testing.assert_array_equal(SampleStream(42).uniforms(4), expected)
        assert np.all(expected > 0.0) and np.all(expected < 1.0)

    def test_normals_are_inverse_cdf_of_uniforms(self):
        u = SampleStream(7).uniforms(100)
        np.testing.assert_array_equal(SampleStream(7).normals(100), ndtri(u))

    @given(seed=st.integers(min_value=0, max_value=2**64 - 1),
           index=st.integers(min_value=0, max_value=1000))
    @settings(max_examples=25, deadline=None)
    def test_same_identity_same_sequence(self, seed, index):
        a = SampleStream(seed, index).words(32)
        b = SampleStream(seed, index).words(32)
        np.testing.assert_array_equal(a, b)

    def test_distinct_stream_index_differs(self):
        a = SampleStream(42, 0).words(100)
        b = SampleStream(42, 1).words(100)
        assert not np.array_equal(a, b)

    def test_substream_cross_correlation(self):
        n = 100_000
        a = SampleStream(42, 0).uniforms(n)
        b = SampleStream(42, 1).uniforms(n)
        r = np.corrcoef(a, b)[0, 1]
        assert abs(r) < 0.01

    def test_split_is_pure_and_distinct(self):
        s = SampleStream(42)
        kids = s.split(3)
        assert [k.seed for k in kids] == list(SEED42_CHILD_SEEDS)
        # advancing the parent does not change what split returns
        s.words(1000)
        assert [k.seed for k in s.split(3)] == list(SEED42_CHILD_SEEDS)
        first, second = s.split(2)
        assert not np.array_equal(first.words(100), second.words(100))

    def test_split_prefix_stable(self):
        s = SampleStream(9)
        assert [k.seed for k in s.split(2)] == [k.seed for k in s.split(5)][:2]

    @pytest.mark.parametrize("n", [0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 5])
    @pytest.mark.parametrize("draw", DRAWS)
    def test_blocked_bit_equal_to_one_shot(self, draw, n):
        stream, oracle = SampleStream(42), OneShotStream(42)
        stream.words(7), oracle.words(7)  # start off a block boundary too
        got, want = getattr(stream, draw)(n), getattr(oracle, draw)(n)
        assert got.dtype == want.dtype and got.shape == (n,)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("seed", [0, 42, 2**64 - 1])
    def test_interleaved_calls_bit_equal_to_one_shot(self, seed):
        # seed 2**64 - 1 wraps the counter offsets modulo 2**64
        stream, oracle = SampleStream(seed, 5), OneShotStream(seed, 5)
        for draw, n in MIXED_CALLS:
            got, want = getattr(stream, draw)(n), getattr(oracle, draw)(n)
            assert got.tobytes() == want.tobytes(), (draw, n)

    def test_pinned_digest(self):
        digest = hashlib.sha256()
        for seed, index in ((0, 0), (42, 3), (2**64 - 1, 0)):
            stream = SampleStream(seed, index)
            for draw, n in PINNED_CALLS:
                digest.update(getattr(stream, draw)(n).tobytes())
        assert digest.hexdigest() == PINNED_DIGEST

    @pytest.mark.parametrize("draw", DRAWS)
    def test_negative_count_rejected_without_rewinding(self, draw):
        stream = SampleStream(42)
        with pytest.raises(ValueError):
            getattr(stream, draw)(-3)
        assert tuple(int(w) for w in stream.words(3)) == SEED42_WORDS
        assert tuple(int(w) for w in stream.words(3)) != SEED42_WORDS

    def test_validation(self):
        with pytest.raises(ValueError):
            SampleStream(-1)
        with pytest.raises(ValueError):
            SampleStream(2**64)
        with pytest.raises(ValueError):
            SampleStream(1, -2)
        with pytest.raises(ValueError):
            SampleStream(1).split(0)


    def test_edge_words_give_interior_values(self, monkeypatch):
        # the extreme words, the two words beside the middle, and the word
        # whose top 53 bits are 2**53 - 1; on a 53-bit grid the middle word
        # 2**63 = 2**52 << 11 gave the uniform 1/2 and the top words 1.0.
        # Every draw, the ball's row fills included, makes its words with
        # _mix64, which here hands out these words in turn instead
        edge_words = np.array([0, 2**63 - 1, 2**63, 2**64 - 1, (2**53 - 1) << 11],
                              dtype=np.uint64)
        words, handed = itertools.cycle(edge_words), []

        def edge_mix64(z, scratch):
            z[:] = np.fromiter(words, dtype=np.uint64, count=z.size)
            handed.append(z.copy())

        monkeypatch.setattr(sampling, "_mix64", edge_mix64)
        n = edge_words.size
        u = SampleStream(1).uniforms(n)
        assert np.all((u > 0.0) & (u < 1.0) & (u != 0.5))
        s = SampleStream(1).symmetric(n)
        assert np.all((s > -1.0) & (s < 1.0) & (s != 0.0))
        z = SampleStream(1).normals(n)
        assert np.all(np.isfinite(z) & (z != 0.0) & (np.abs(z) <= 8.21))
        for m in (1, 2, 3):
            handed.clear()
            pts = sample_ball(BallRegion(np.zeros(m), 1.0), SampleStream(1), size=4 * n)
            assert np.all(np.isfinite(pts))
            assert np.all(np.linalg.norm(pts, axis=1) <= 1.0)
            # the edge words reached the ball's fill, every one of them
            arrived = np.concatenate(handed)
            assert arrived.size == 4 * n * (m + 1)
            assert set(arrived.tolist()) == set(edge_words.tolist())


    @pytest.mark.parametrize("unit", ["uniform", "symmetric"])
    def test_unit_values_bit_equal_to_the_2_52_mantissa_rule(self, unit):
        # the earlier conversion: j + 1/2 as 2**52 + j less 2**52 - 1/2, then
        # times 2**-52 (uniform) or 2**-51 less 1 (symmetric); 2**22 words
        # of the stream and the edge words 0, 2**64 - 1, 2**12 - 1 and 2**63
        words = np.concatenate([SampleStream(17).words(1 << 22),
                                np.array([0, 2**64 - 1, 2**12 - 1, 2**63], dtype=np.uint64)])
        j = ((words >> np.uint64(12)) | np.uint64(0x4330000000000000)).view(np.float64)
        half = j - (2.0**52 - 0.5)
        ref = half * 2.0**-52 if unit == "uniform" else half * 2.0**-51 - 1.0
        got = np.empty(words.size)
        sampling._unit_values(words.copy(), got, {"uniform": sampling._UNIFORM,
                                                  "symmetric": sampling._SYMMETRIC}[unit])
        assert got.tobytes() == ref.tobytes()


class TestChiSquarePairs:
    """The norm-wise estimator's squared normals, two from each pair of
    uniforms (``sampling._chi_square_pairs``), follow the chi-square law on
    one degree, and no grid uniform gives a term that is 0 or not finite."""

    def test_chi_square_law_z_scores(self):
        # 2**20 pairs, 2**21 terms: mean 1, variance 2 (the sample variance
        # has variance (mu_4 - 4) / N = 56 / N), E ln X = psi(1/2) + ln 2
        # with variance psi'(1/2) = pi^2 / 2, and E[XY] = 1 for the two terms
        # of a pair, with variance 3 * 3 - 1 = 8
        pairs = 1 << 20
        u = SampleStream(23).uniforms(2 * pairs).reshape(2, pairs)
        sampling._chi_square_pairs(u, 2, np.empty(pairs))
        x, n = u.reshape(-1), 2 * pairs
        assert np.all(np.isfinite(x) & (x > 0.0))
        ln_mean = -1.2703628454614782  # psi(1/2) + ln 2 = -gamma - ln 2
        z = [(np.mean(x) - 1.0) / math.sqrt(2.0 / n),
             (np.var(x, ddof=1) - 2.0) / math.sqrt(56.0 / n),
             (np.mean(np.log(x)) - ln_mean) / math.sqrt(math.pi**2 / 2.0 / n),
             (np.mean(u[0] * u[1]) - 1.0) / math.sqrt(8.0 / pairs)]
        assert np.max(np.abs(z)) <= 4.0, z

    def test_odd_terms_keep_the_first_of_the_last_pair(self):
        # three terms from two pairs: the last pair's second term is the
        # spare, and the three kept equal the even case's
        u = SampleStream(5).uniforms(4 * 1000).reshape(4, 1000)
        odd, even = u.copy(), u.copy()
        sampling._chi_square_pairs(odd, 3, np.empty(1000))
        sampling._chi_square_pairs(even, 4, np.empty(1000))
        assert odd[:3].tobytes() == even[:3].tobytes()

    def test_grid_ends_give_finite_positive_normal_terms(self):
        # every pairing of the smallest and largest grid uniforms, 2**-53 and
        # 1 - 2**-53: R from 2.2e-16 to 73.5, t from 1.7e-16 to 3.5e15
        ends = [2.0**-53, 1.0 - 2.0**-53]
        a, b = np.array(list(itertools.product(ends, ends))).T
        u = np.stack([a, b])
        sampling._chi_square_pairs(u, 2, np.empty(4))
        assert np.all(np.isfinite(u)) and np.min(u) >= 2.0**-1022
        assert np.min(u) > 6e-48


class TestParallelScope:
    """Inside the parallel scope the Monte-Carlo kernels reserve a draw's
    words and fill pieces of it on the pool workers with ``_fill``; the
    bytes stay those of the one-shot formulas."""

    @pytest.mark.parametrize("n", [1, 32_767, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 5])
    @pytest.mark.parametrize("draw", DRAWS)
    def test_split_fills_bit_equal_to_one_shot(self, workers, draw, n):
        # pieces of a power-of-two number of values, as the ball pieces and
        # cube chunks are, filled by the workers in index ranges
        unit = {"words": None, "uniforms": sampling._UNIFORM,
                "symmetric": sampling._SYMMETRIC, "normals": sampling._NORMAL}[draw]
        rows = 4096
        stream, oracle = SampleStream(42, 2), OneShotStream(42, 2)
        stream.words(7), oracle.words(7)  # start off a block boundary too
        got = np.empty(n, np.uint64 if unit is None else float)
        base, pos = stream._reserve(n)

        def pieces(first, last, buffers):
            scratch = buffers[0].view(np.uint64)
            for lo in range(first * rows, min(last * rows, n), rows):
                sampling._fill(base, pos + lo, got[lo:lo + rows], scratch, unit)

        with sampling._parallel():
            sampling._split(-(-n // rows), pieces, [(rows,)])
            after = stream.words(3)
        want = getattr(oracle, draw)(n)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert after.tobytes() == oracle.words(3).tobytes()

    def test_openblas_on_one_thread_inside_and_restored(self, workers):
        blas = sampling._openblas_threads()
        assert blas, "no OpenBLAS thread-count entry point found"
        before = [get() for get, _ in blas]
        with pytest.raises(KeyError):
            with sampling._parallel():
                assert [get() for get, _ in blas] == [1] * len(blas)
                assert sampling._pool is not None
                raise KeyError("inside")
        assert sampling._pool is None
        assert [get() for get, _ in blas] == before

    def test_openblas_lookup_runs_once(self, monkeypatch):
        # each CLI run enters the scope, so its entry reads no maps file
        blas = sampling._openblas_threads()
        monkeypatch.setattr(sampling, "open", lambda *args: pytest.fail("maps read again"),
                            raising=False)
        with sampling._parallel():
            assert sampling._openblas_threads() is blas

    def test_width_capped_by_the_mask(self, workers):
        # 8 asked on a mask of `workers` CPUs: the ranges meet at a barrier
        # of `workers` parties, which a pool of any other size breaks
        barrier = threading.Barrier(workers, timeout=30)
        with sampling._parallel(8):
            assert sampling._pool_workers == workers
            sampling._split(8, lambda lo, hi, buffers: barrier.wait(), [(1,)])
            pool = {t.name for t in threading.enumerate() if t.name.startswith("condana")}
        assert len(pool) == workers

    @pytest.mark.parametrize("width", [1, None])
    def test_inner_scope_changes_nothing(self, workers, width):
        with sampling._parallel(width):
            pool = sampling._pool
            with sampling._parallel(8):
                assert sampling._pool is pool
                assert sampling._pool_workers == (width or workers)
        assert sampling._pool is None and sampling._pool_workers == 0

    @pytest.mark.parametrize("patch", ["_cpus", "_openblas_threads"])
    def test_one_cpu_or_no_openblas_opens_no_pool(self, monkeypatch, patch):
        monkeypatch.setattr(sampling, patch, (lambda: 1) if patch == "_cpus" else list)
        with sampling._parallel():
            assert sampling._pool is None

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_split_ranges_and_buffers(self, workers, n):
        # one range per worker, each with its own buffers; a single range
        # runs on the calling thread
        calls = []

        def task(lo, hi, buffers):
            calls.append((lo, hi, threading.get_ident(), buffers))

        with sampling._parallel():
            sampling._split(n, task, [(3, 2), (4,)])
        calls.sort(key=lambda call: call[0])
        parts = min(workers, n)
        assert [(lo, hi) for lo, hi, *_ in calls] == [
            (n * i // parts, n * (i + 1) // parts) for i in range(parts)]
        for *_, buffers in calls:
            assert [b.shape for b in buffers] == [(3, 2), (4,)]
        flat = [b for *_, buffers in calls for b in buffers]
        assert not any(np.shares_memory(a, b) for a, b in itertools.combinations(flat, 2))
        on_caller = [ident == threading.get_ident() for _, _, ident, _ in calls]
        assert on_caller == [parts == 1] * parts


    @pytest.mark.parametrize("n", [0, 1, 5])
    def test_split_outside_scope_runs_one_range_on_caller(self, n):
        # outside any scope one range (0, n) runs on the calling thread, as
        # at width 1; n = 0 runs nothing
        calls = []

        def task(lo, hi, buffers):
            calls.append((lo, hi, threading.get_ident(), [b.shape for b in buffers]))

        assert sampling._pool_workers == 0
        sampling._split(n, task, [(3, 2), (4,)])
        assert calls == ([(0, n, threading.get_ident(), [(3, 2), (4,)])] if n else [])

    @pytest.mark.parametrize("width", [0, 1, None], ids=["unscoped", "width-1", "pool"])
    def test_split_without_buffers(self, workers, width):
        # a split that carves nothing hands each range an empty tuple
        calls = []

        def task(lo, hi, buffers):
            calls.append((lo, hi, buffers))

        with nullcontext() if width == 0 else sampling._parallel(width):
            sampling._split(5, task, [])
        parts = workers if width is None else 1
        assert sorted(calls) == [(5 * i // parts, 5 * (i + 1) // parts, ()) for i in range(parts)]


def on_each_path(draw, monkeypatch):
    """``draw()``, a block and the stream it drew from, outside any scope, in
    a scope of width 1 and on the pool: each block, the stream's next three
    words, and whether each thread that filled the block was a pool thread."""
    fill, names = sampling._fill, []

    def named_fill(*args):
        names.append(threading.current_thread().name)
        fill(*args)

    monkeypatch.setattr(sampling, "_fill", named_fill)
    runs = []
    for scope in (nullcontext(), sampling._parallel(1), sampling._parallel()):
        names.clear()
        with scope:
            block, stream = draw()
        pooled = {name.startswith("condana") for name in names}
        runs.append((block, stream.words(3), pooled))
    return runs


def filled_by(size):
    """Who fills a block of ``size`` rows on each path of ``on_each_path``:
    the calling thread, and the pool once there are two rows to split."""
    return [{False}, {False}, {size > 1}] if size else [set()] * 3


class TestSweepBlocks:
    """The sweep's two blocks of directions fill row ranges through
    ``_split``, on the pool inside a scope, with the bytes of the stream's
    own draws and the stream left where those draws leave it."""

    @pytest.mark.parametrize("size", [0, 1, 100, 69_637])
    @pytest.mark.parametrize("m", [*range(1, 10), 16, 30])
    def test_sample_ball_bit_equal_to_one_shot(self, workers, monkeypatch, m, size):
        # the sphere rule on whole-block draws, normals(size m) then
        # uniforms(size): radius g / sqrt(||g||**2 - 2 ln v), the squares
        # added column by column onto -2 ln v; 69,637 rows end every m's
        # blocks, and each worker's range, on a short one
        oracle = OneShotStream(42, 3)
        g, v = oracle.normals(size * m).reshape(size, m), oracle.uniforms(size)
        after = oracle.words(3)
        radicand = -2.0 * np.log(v)
        for column in g.T:
            radicand += column * column
        for center, radius in ((np.zeros(m), 1.0), (np.linspace(-1.0, 2.0, m), 0.3)):
            want = g * (radius / np.sqrt(radicand))[:, None] + center

            def draw():
                stream = SampleStream(42, 3)
                return sample_ball(BallRegion(center, radius), stream, size), stream

            runs = on_each_path(draw, monkeypatch)
            for got, words, _ in runs:
                assert got.shape == (size, m) and got.tobytes() == want.tobytes()
                assert words.tobytes() == after.tobytes()
            assert [pooled for *_, pooled in runs] == filled_by(size)

    @pytest.mark.parametrize("size", [0, 1, 100, 69_637])
    def test_sample_cube_bit_equal_to_one_shot(self, workers, monkeypatch, size):
        # the cube block's fill, then the region's scale and shift
        oracle = OneShotStream(42, 5)
        region = CubeRegion([1.0, 0.0, -2.0], [0.5, 2.0, 0.0])
        want = region.center + oracle.symmetric(size * 3).reshape(size, 3) * region.half_widths
        after = oracle.words(3)

        def draw():
            stream = SampleStream(42, 5)
            return sample_cube(region, stream, size), stream

        runs = on_each_path(draw, monkeypatch)
        for got, words, _ in runs:
            assert got.shape == (size, 3) and got.tobytes() == want.tobytes()
            assert words.tobytes() == after.tobytes()
        assert [pooled for *_, pooled in runs] == filled_by(size)

    @pytest.mark.parametrize("size", [0, 1, 100, 69_637])
    @pytest.mark.parametrize("m", [1, 3, 30])
    def test_cube_block_bit_equal_to_one_shot(self, workers, monkeypatch, m, size):
        oracle = OneShotStream(42, 4)
        want, after = oracle.symmetric(size * m).reshape(size, m), oracle.words(3)

        def draw():
            stream = SampleStream(42, 4)
            return sampling._symmetric_rows(stream, size, m), stream

        runs = on_each_path(draw, monkeypatch)
        for got, words, _ in runs:
            assert got.shape == (size, m) and got.tobytes() == want.tobytes()
            assert words.tobytes() == after.tobytes()
        assert [pooled for *_, pooled in runs] == filled_by(size)


    @pytest.mark.parametrize("m", [2, 30])
    def test_workers_allocate_nothing(self, workers, m):
        # beyond each block and the buffers _split carves, one set a worker,
        # the fills hold no temporaries but numpy's own 64 KiB ufunc buffers:
        # squares and row sums made afresh would add 768 KiB a worker at m = 2
        size, rows = 100_000, sampling._BLOCK // m
        for draw, words in ((lambda: sample_ball(BallRegion(np.zeros(m), 1.0),
                                                 SampleStream(1), size), rows * (m + 1)),
                            (lambda: sampling._symmetric_rows(SampleStream(1), size, m),
                             _BLOCK)):
            with sampling._parallel():
                tracemalloc.start()
                try:
                    draw()
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
            assert peak <= 8 * (size * m + workers * words) + 2**18

class TestBallSampling:
    def test_zero_radius_returns_center(self):
        region = BallRegion(np.array([3.0, -1.0]), 0.0)
        np.testing.assert_array_equal(sample_ball(region, SampleStream(1), size=1), [[3.0, -1.0]])

    def test_inside_radius(self):
        region = BallRegion(np.array([1.0, 2.0, 3.0]), 0.7)
        pts = sample_ball(region, SampleStream(5), size=500)
        assert np.all(np.linalg.norm(pts - region.center, axis=1) <= 0.7 + 1e-12)

    def test_mean_abs_1d(self):
        # one-dimensional ball = interval [-1, 1]; E|v| = 1/2
        vals = np.abs(sample_ball(BallRegion([0.0], 1.0), SampleStream(42), size=100_000))
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        assert abs(vals.mean() - 0.5) < 3 * se

    def test_mean_square_norm_3d(self):
        # E||v||^2 = m/(m+2) = 3/5 in three dimensions
        pts = sample_ball(BallRegion(np.zeros(3), 1.0), SampleStream(42), size=100_000)
        sq = np.sum(pts * pts, axis=1)
        se = sq.std(ddof=1) / math.sqrt(sq.size)
        assert abs(sq.mean() - 0.6) < 3 * se

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_radial_cdf_kolmogorov_smirnov(self, m):
        # the radial law has CDF r^m
        n = 100_000
        pts = sample_ball(BallRegion(np.zeros(m), 1.0), SampleStream(1234 + m), size=n)
        radii = np.sort(np.linalg.norm(pts, axis=1))
        cdf = radii**m
        grid = np.arange(1, n + 1) / n
        d = max(np.max(grid - cdf), np.max(cdf - (grid - 1.0 / n)))
        assert d < 1.63 / math.sqrt(n)

    @pytest.mark.parametrize("m,axis", [
        (2, None), (3, None), (5, None),
        # rotation invariance: same law against an oblique reference vector
        (3, np.array([1.0, -2.0, 0.5])),
    ])
    def test_direction_angle_distribution(self, m, axis):
        # the angle against any fixed vector has density sin(t)^(m-2), normalized
        n = 100_000
        pts = sample_ball(BallRegion(np.zeros(m), 1.0), SampleStream(98 + m), size=n)
        ref = np.zeros(m) if axis is None else axis
        if axis is None:
            ref[0] = 1.0
        ref = ref / np.linalg.norm(ref)
        cosines = pts @ ref / np.linalg.norm(pts, axis=1)
        angles = np.arccos(np.clip(cosines, -1, 1))
        edges = np.linspace(0.0, math.pi, 21)
        norm = 2.0 * wallis_integral(m - 2)
        probs = [
            quad(lambda t: math.sin(t) ** (m - 2), lo, hi)[0] / norm
            for lo, hi in zip(edges, edges[1:])
        ]
        observed, _ = np.histogram(angles, bins=edges)
        expected = n * np.array(probs)
        stat = float(np.sum((observed - expected) ** 2 / expected))
        assert stats.chi2.sf(stat, len(probs) - 1) > 0.001

    def test_determinism(self):
        region = BallRegion(np.zeros(4), 2.0)
        a = sample_ball(region, SampleStream(6), size=50)
        b = sample_ball(region, SampleStream(6), size=50)
        np.testing.assert_array_equal(a, b)

    def test_region_validation(self):
        with pytest.raises(ValueError):
            BallRegion([0.0], -1.0)
        with pytest.raises(ValueError):
            BallRegion([np.inf], 1.0)


class TestCubeSampling:
    def test_zero_half_widths_return_center(self):
        region = CubeRegion([1.0, -2.0], [0.0, 0.0])
        np.testing.assert_array_equal(sample_cube(region, SampleStream(3), size=1), [[1.0, -2.0]])

    def test_inside_box(self):
        region = CubeRegion([1.0, 2.0], [0.5, 0.0])
        pts = sample_cube(region, SampleStream(8), size=1000)
        assert np.all(np.abs(pts[:, 0] - 1.0) <= 0.5)
        assert np.all(pts[:, 1] == 2.0)

    def test_mean_abs_1d(self):
        vals = np.abs(sample_cube(CubeRegion([0.0], [1.0]), SampleStream(42), size=100_000))
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        assert abs(vals.mean() - 0.5) < 3 * se

    def test_coordinates_uncorrelated(self):
        pts = sample_cube(CubeRegion([0.0, 0.0], [1.0, 1.0]), SampleStream(42), size=100_000)
        r = np.corrcoef(pts[:, 0], pts[:, 1])[0, 1]
        assert abs(r) < 3.0 / math.sqrt(pts.shape[0])

    def test_region_validation(self):
        with pytest.raises(ValueError):
            CubeRegion([0.0, 0.0], [1.0])
        with pytest.raises(ValueError):
            CubeRegion([0.0], [-0.5])
