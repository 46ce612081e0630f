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
"""

from __future__ import annotations

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
        n = _count(n)
        out = np.empty(n, dtype=np.uint64)
        scratch = np.empty(min(n, _BLOCK), dtype=np.uint64)
        for lo in range(0, n, _BLOCK):
            z = out[lo:lo + _BLOCK]
            # word k (counted from 1) is mix64(base + k * GAMMA)
            offset = (self._base + (self._pos + lo) * _GAMMA) & _U64
            np.add(_STEPS[:z.size], np.uint64(offset), out=z)
            _mix64(z, scratch[:z.size])
        self._pos += n
        return out

    def _unit_draw(self, n: int, scale: float = 2.0**-52, finish=None) -> np.ndarray:
        """``n`` values ``(j + 1/2) * scale``, j the top 52 bits of a word;
        ``finish`` transforms each block in place."""
        out = np.empty(_count(n))
        for lo in range(0, out.size, _BLOCK):
            o = out[lo:lo + _BLOCK]
            w = self.words(o.size)
            # j as the mantissa of 2**52 + j, less 2**52 - 1/2: exact (Sterbenz)
            w >>= _S12
            w |= _EXP52
            np.subtract(w.view(np.float64), 2.0**52 - 0.5, out=o)
            o *= scale
            if finish is not None:
                finish(o)
        return out

    def uniforms(self, n: int) -> np.ndarray:
        """``n`` doubles uniform on the open interval (0, 1), never 1/2."""
        return self._unit_draw(n)

    def symmetric(self, n: int) -> np.ndarray:
        """``n`` nonzero doubles uniform on (-1, 1)."""
        return self._unit_draw(n, 2.0**-51, lambda o: np.subtract(o, 1.0, out=o))

    def normals(self, n: int) -> np.ndarray:
        """``n`` standard normals: inverse normal CDF applied to uniforms.
        Each is finite and nonzero, with ``|z| <= 8.21``."""
        return self._unit_draw(n, finish=lambda o: ndtri(o, out=o))

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


def sample_ball(region: BallRegion, stream: SampleStream, size: int) -> np.ndarray:
    """``size`` uniform points in a ball, as a ``(size, m)`` array.

    Direction is a normalized vector of independent normals, never zero
    because every normal is nonzero; the radial coordinate is
    ``radius * U**(1/m)``, the inverse CDF of the r^m law. A zero-radius
    region returns copies of its center.
    """
    m = region.center.size
    if region.radius == 0.0:
        return np.tile(region.center, (size, 1))
    out = stream.normals(size * m).reshape(size, m)
    out /= np.sqrt(np.add.reduce(out * out, axis=1))[:, None]
    radii = region.radius * stream.uniforms(size) ** (1.0 / m)
    out *= radii[:, None]
    if region.center.any():  # adding zeros is exact: no coordinate is +-0
        out += region.center
    return out


def sample_cube(region: CubeRegion, stream: SampleStream, size: int) -> np.ndarray:
    """``size`` uniform points in a box, as a ``(size, m)`` array: each
    coordinate independent uniform."""
    m = region.center.size
    u = stream.symmetric(size * m).reshape(size, m)
    return region.center + u * region.half_widths
