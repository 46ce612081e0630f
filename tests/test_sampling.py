import hashlib
import itertools
import math
import threading

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


    def test_edge_words_give_interior_values(self):
        # the extreme words, the two words beside the middle, and the word
        # whose top 53 bits are 2**53 - 1; on a 53-bit grid the middle word
        # 2**63 = 2**52 << 11 gave the uniform 1/2 and the top words 1.0
        edge_words = np.array([0, 2**63 - 1, 2**63, 2**64 - 1, (2**53 - 1) << 11],
                              dtype=np.uint64)

        def fed():
            stream = SampleStream(1)
            words = itertools.cycle(edge_words)
            stream.words = lambda n: np.fromiter(words, dtype=np.uint64, count=n)
            return stream

        n = edge_words.size
        u = fed().uniforms(n)
        assert np.all((u > 0.0) & (u < 1.0) & (u != 0.5))
        s = fed().symmetric(n)
        assert np.all((s > -1.0) & (s < 1.0) & (s != 0.0))
        z = fed().normals(n)
        assert np.all(np.isfinite(z) & (z != 0.0) & (np.abs(z) <= 8.21))
        for m in (1, 2, 3):
            pts = sample_ball(BallRegion(np.zeros(m), 1.0), fed(), size=4 * n)
            assert np.all(np.isfinite(pts))
            assert np.all(np.linalg.norm(pts, axis=1) <= 1.0)


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
