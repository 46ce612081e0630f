"""Deterministic, splittable sampling of perturbation regions.

The word generator is a counter-based splitmix64: plain 64-bit integer
arithmetic, so two runs with the same seed agree bit for bit on any
platform, and word k depends only on k, so draws are filled in fixed
blocks with in-place numpy operations whatever the call sizes. Uniforms
are the midpoints ``(j + 1/2) * 2**-52`` of a 52-bit grid, computed
exactly from the top 52 bits of a word, so they lie strictly inside
(0, 1) and are never 1/2. Standard normals are produced by applying the
inverse normal CDF to them rather than by any platform RNG, so every
normal is finite and nonzero.

``_fill`` writes any contiguous range of words, or of values made from
them in place, from the word counters alone. Inside the parallel scope
(``_parallel``, which only ``verify.run_suite`` opens), the Monte-Carlo
kernels of ``condition`` reserve a draw's words with ``_reserve`` and
fill pieces of it on the pool workers with ``_fill``; every value is the
one a serial draw gives, so the bytes do not depend on the number of
workers. ``SampleStream`` draws themselves always run on the calling
thread.
"""

from __future__ import annotations

import ctypes
import itertools
import math
import os
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

_U64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15  # splitmix64 Weyl increment
_SPLIT_GAMMA = 0xD1B54A32D192ED03  # separate odd increment for child-seed derivation
_MIX_A = np.uint64(0xBF58476D1CE4E5B9)
_MIX_B = np.uint64(0x94D049BB133111EB)
_S12, _S27, _S30, _S31 = (np.uint64(k) for k in (12, 27, 30, 31))
_EXP52 = np.uint64(0x4330000000000000)  # bits of the double 2**52

_BLOCK = 1 << 16  # values filled per block
# read-only counter steps (j + 1) * GAMMA mod 2**64 for a block's slots j
_STEPS = np.arange(1, _BLOCK + 1, dtype=np.uint64)
_STEPS *= np.uint64(_GAMMA)
_STEPS.setflags(write=False)


def _mix64(z: np.ndarray, scratch: np.ndarray) -> None:
    """splitmix64 finalizer on a uint64 array, in place (wraps silently)."""
    np.right_shift(z, _S30, out=scratch)
    z ^= scratch
    z *= _MIX_A
    np.right_shift(z, _S27, out=scratch)
    z ^= scratch
    z *= _MIX_B
    np.right_shift(z, _S31, out=scratch)
    z ^= scratch


def _mix64_int(z: int) -> int:
    """splitmix64 finalizer on a plain int, masked to 64 bits."""
    z = ((z ^ (z >> 30)) * int(_MIX_A)) & _U64
    z = ((z ^ (z >> 27)) * int(_MIX_B)) & _U64
    return z ^ (z >> 31)


def _count(n: int) -> int:
    if n < 0:
        raise ValueError("the number of values drawn must be non-negative")
    return n


#: (scale, finish) of each kind of unit draw for ``_fill``
_UNIFORM = (2.0**-52, None)
_SYMMETRIC = (2.0**-51, lambda o: np.subtract(o, 1.0, out=o))
_NORMAL = (2.0**-52, lambda o: ndtri(o, out=o))


def _unit_values(w: np.ndarray, out: np.ndarray, unit) -> None:
    """The words ``w`` as the doubles ``(j + 1/2) * scale`` in ``out``, j the
    top 52 bits of each word, then ``finish`` on them, for ``unit = (scale,
    finish)``; ``w`` may be the memory of ``out`` itself."""
    scale, finish = unit
    # j as the mantissa of 2**52 + j, less 2**52 - 1/2: exact (Sterbenz)
    w >>= _S12
    w |= _EXP52
    np.subtract(w.view(np.float64), 2.0**52 - 0.5, out=out)
    out *= scale
    if finish is not None:
        finish(out)


def _fill(base: int, pos: int, out: np.ndarray, scratch: np.ndarray, unit=None) -> None:
    """Words ``pos + 1`` to ``pos + out.size`` of the stream keyed ``base``,
    written into ``out`` block by block through ``scratch`` (uint64, at least
    ``min(out.size, _BLOCK)`` long); with ``unit``, their ``_unit_values``,
    in place. Word k depends only on k, so any split of a draw into ranges
    gives the same bits."""
    words = out.view(np.uint64)
    for lo in range(0, out.size, _BLOCK):
        z = words[lo:lo + _BLOCK]
        # word k (counted from 1) is mix64(base + k * GAMMA)
        offset = (base + (pos + lo) * _GAMMA) & _U64
        np.add(_STEPS[:z.size], np.uint64(offset), out=z)
        _mix64(z, scratch[:z.size])
        if unit is not None:
            _unit_values(z, out[lo:lo + _BLOCK], unit)


def _fill_scratch(size: int) -> np.ndarray:
    return np.empty(min(size, _BLOCK), dtype=np.uint64)


# ---------------------------------------------------------------------------
# the parallel scope

#: The pool of the open parallel scope and its worker count; None and 0 outside.
_pool: ThreadPoolExecutor | None = None
_pool_workers = 0
#: (prefix, suffix) of the OpenBLAS thread-count entry points: the plain
#: library, its 64-bit-integer build, and the builds bundled with numpy
#: (``scipy_``, ``64_``) and with scipy (``scipy_``)
_OPENBLAS_NAMES = (("", ""), ("", "64_"), ("scipy_", "64_"), ("scipy_", ""))


def _cpus() -> int:
    """CPUs in this process's affinity mask; 1 where the platform has none."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else 1


def _openblas_threads() -> list:
    """The ``(get, set)`` thread-count entry points of each OpenBLAS loaded
    in this process, found through ``/proc/self/maps``; empty where that
    cannot be read."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split(None, 5)[5].strip() for line in fh if "openblas" in line}
    except OSError:
        return []
    found = []
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in _OPENBLAS_NAMES:
            get = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}openblas_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                found.append((get, put))
                break
    return found


@contextmanager
def _parallel():
    """The parallel scope: inside it, every OpenBLAS loaded runs on one
    thread, and ball pieces and cube chunks run on a pool of one worker per
    CPU in the affinity mask. With one CPU, or no OpenBLAS entry point
    found, nothing changes and all work stays serial. Both are restored on
    exit, also on an exception. Bytes do not depend on it: see ``_split``."""
    global _pool, _pool_workers
    blas, cpus = _openblas_threads(), _cpus()
    if _pool is not None or not blas or cpus < 2:
        yield
        return
    counts = [get() for get, _ in blas]
    try:
        for _, put in blas:
            # an OpenBLAS call on several threads leaves its workers spinning
            # on the other CPUs, where they slow the pool
            put(1)
        with ThreadPoolExecutor(cpus, thread_name_prefix="condana") as _pool:
            _pool_workers = cpus
            yield
    finally:
        _pool, _pool_workers = None, 0
        for (_, put), count in zip(blas, counts):
            put(count)


def _carve(shapes, sets: int = 1) -> list[tuple]:
    """``sets`` tuples of buffers of ``shapes``, views of one allocation:
    large enough that numpy asks for huge pages, which saves most of the
    page faults of buffers made afresh for each call."""
    sizes = [math.prod(shape) for shape in shapes]
    block, ends = np.empty(sets * sum(sizes)), itertools.accumulate(sizes * sets)
    views = [block[end - size:end].reshape(shape)
             for end, size, shape in zip(ends, sizes * sets, shapes * sets)]
    return [tuple(views[i:i + len(shapes)]) for i in range(0, len(views), len(shapes))]


def _split(n: int, task, shapes) -> None:
    """``task(lo, hi, buffers)`` over contiguous ranges ``[lo, hi)`` covering
    ``[0, n)``, one per worker of the open pool, each with its own buffers
    of ``shapes`` (``_carve``), made here, before submission, so that
    workers allocate nothing large; workers call only private functions
    and never submit work themselves. A single range runs on the calling
    thread. Returns when every range is done, raising the first failure.
    Every caller splits work whose result does not depend on the ranges:
    ball pieces and cube chunks by their word ranges."""
    parts = min(_pool_workers, n)
    bounds = [n * i // parts for i in range(parts + 1)]
    sets = _carve(shapes, parts)
    if parts == 1:
        task(0, n, sets[0])
        return
    futures = [_pool.submit(task, lo, hi, buffers)
               for lo, hi, buffers in zip(bounds, bounds[1:], sets)]
    wait(futures)
    for future in futures:
        future.result()


@dataclass
class SampleStream:
    """Random stream fully identified by ``(seed, stream_index)``.

    The same pair always yields the identical word sequence; distinct
    stream indices mix into decorrelated sequences. Instances are cheap
    and value-like, but a single instance must not be advanced from two
    threads at once: parallel work should go through :meth:`split`.
    """

    seed: int
    stream_index: int = 0

    def __post_init__(self):
        if not 0 <= int(self.seed) <= _U64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")
        if self.stream_index < 0:
            raise ValueError("stream_index must be non-negative")
        base = (int(self.seed) + _GAMMA * (self.stream_index + 1)) & _U64
        self._base = _mix64_int(base)
        self._pos = 0

    def words(self, n: int) -> np.ndarray:
        """Next ``n`` raw 64-bit words as a uint64 array."""
        return self._draw(n)

    def _reserve(self, n: int) -> tuple[int, int]:
        """Advance past the next ``n`` words; the stream key and the count of
        words drawn before them, for ``_fill`` to fill them from anywhere."""
        start = (self._base, self._pos)
        self._pos += _count(n)
        return start

    def _draw(self, n: int, unit=None) -> np.ndarray:
        """The next ``n`` words, or with ``unit`` their ``_unit_values``, as a
        new array: words filled here, unit values block by block from
        ``words``."""
        out = np.empty(_count(n), np.uint64 if unit is None else float)
        if unit is None:
            _fill(*self._reserve(n), out, _fill_scratch(n))
        else:
            for lo in range(0, n, _BLOCK):
                o = out[lo:lo + _BLOCK]
                _unit_values(self.words(o.size), o, unit)
        return out

    def uniforms(self, n: int) -> np.ndarray:
        """``n`` doubles uniform on the open interval (0, 1), never 1/2."""
        return self._draw(n, _UNIFORM)

    def symmetric(self, n: int) -> np.ndarray:
        """``n`` nonzero doubles uniform on (-1, 1)."""
        return self._draw(n, _SYMMETRIC)

    def normals(self, n: int) -> np.ndarray:
        """``n`` standard normals: inverse normal CDF applied to uniforms.
        Each is finite and nonzero, with ``|z| <= 8.21``."""
        return self._draw(n, _NORMAL)

    def split(self, k: int) -> list["SampleStream"]:
        """Derive ``k`` child streams.

        A pure function of ``(seed, stream_index)``: re-splitting the
        same parent yields bit-identical children no matter how far the
        parent has been advanced, and the child-seed derivation uses an
        increment disjoint from the word counter's.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        return [
            SampleStream(_mix64_int((self._base + (i + 1) * _SPLIT_GAMMA) & _U64))
            for i in range(k)
        ]


@dataclass
class BallRegion:
    """Euclidean ball ``{v : ||v - center|| <= radius}``."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        self.center = np.asarray(self.center, dtype=float).reshape(-1)
        self.radius = float(self.radius)
        if not np.isfinite(self.radius) or self.radius < 0.0:
            raise ValueError("radius must be finite and non-negative")
        if not np.all(np.isfinite(self.center)):
            raise ValueError("center must be finite")


@dataclass
class CubeRegion:
    """Axis-aligned box: coordinate ``i`` spans ``center_i +- half_widths_i``."""

    center: np.ndarray
    half_widths: np.ndarray

    def __post_init__(self):
        self.center = np.asarray(self.center, dtype=float).reshape(-1)
        self.half_widths = np.asarray(self.half_widths, dtype=float).reshape(-1)
        if self.half_widths.shape != self.center.shape:
            raise ValueError("half_widths must match center in length")
        if not np.all(np.isfinite(self.half_widths)) or np.any(self.half_widths < 0.0):
            raise ValueError("half_widths must be finite and non-negative")
        if not np.all(np.isfinite(self.center)):
            raise ValueError("center must be finite")


def _ball_points(u: np.ndarray, r: np.ndarray, radius: float = 1.0, squares=None,
                 norms=None) -> np.ndarray:
    """Points uniform in the ball of ``radius`` about 0, made in place from
    standard normals ``u`` ``(count, m)`` and uniforms ``r`` ``(count,)``:
    each row of u divided by its norm, taken through ``squares`` ``(count,
    m)`` and ``norms`` ``(count,)`` where given, then scaled by
    ``radius * r**(1/m)``, the inverse CDF of the r^m law. Returns u."""
    norms = np.add.reduce(np.multiply(u, u, out=squares), axis=1, out=norms)
    u /= np.sqrt(norms, out=norms)[:, None]
    np.power(r, 1.0 / u.shape[1], out=r)
    r *= radius
    u *= r[:, None]
    return u


def sample_ball(region: BallRegion, stream: SampleStream, size: int) -> np.ndarray:
    """``size`` uniform points in a ball, as a ``(size, m)`` array.

    Direction is a normalized vector of independent normals, never zero
    because every normal is nonzero; the radial coordinate is
    ``radius * U**(1/m)`` (``_ball_points``). A zero-radius region returns
    copies of its center.
    """
    m = region.center.size
    if region.radius == 0.0:
        return np.tile(region.center, (size, 1))
    out = stream.normals(size * m).reshape(size, m)
    _ball_points(out, stream.uniforms(size), region.radius)
    if region.center.any():  # adding zeros is exact: no coordinate is +-0
        out += region.center
    return out


def sample_cube(region: CubeRegion, stream: SampleStream, size: int) -> np.ndarray:
    """``size`` uniform points in a box, as a ``(size, m)`` array: each
    coordinate independent uniform."""
    m = region.center.size
    u = stream.symmetric(size * m).reshape(size, m)
    return region.center + u * region.half_widths
