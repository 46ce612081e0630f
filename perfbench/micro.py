"""Layer micro-benchmarks: per-value and per-call costs of the sampling,
problems and condition layers, timed in a process of their own.

Sizes: 1,000 values (an analyze-scan estimator at 1k samples), 65,536
(``condition._CHUNK``, one estimator chunk) and 5,000,000 (theorem2's
sample block at m = 50).
"""

from __future__ import annotations

import dataclasses
import statistics
from time import perf_counter

import numpy as np

from condana import condition, problems
from condana.sampling import BallRegion, CubeRegion, SampleStream, sample_ball, sample_cube

SIZES = (("1k", 1_000), ("64k", 65_536), ("5m", 5_000_000))
POINTS = 65_536


def per_call(fn, min_time: float = 0.02, repeats: int = 5) -> float:
    """Median seconds per call over ``repeats`` batches of at least ``min_time``."""
    batch = 1
    while True:
        t0 = perf_counter()
        for _ in range(batch):
            fn()
        elapsed = perf_counter() - t0
        if elapsed >= min_time:
            break
        batch *= 2
    times = [elapsed / batch]
    for _ in range(repeats - 1):
        t0 = perf_counter()
        for _ in range(batch):
            fn()
        times.append((perf_counter() - t0) / batch)
    return statistics.median(times)


def run_micro(seed: int) -> dict:
    stream = SampleStream(seed)
    out = {}
    for label, n in SIZES:
        for kind in ("words", "symmetric", "normals"):
            draw = getattr(stream, kind)
            out[f"sampling.{kind}_ns_{label}"] = 1e9 * per_call(lambda: draw(n)) / n
    for name, region, sampler in (
            ("sample_ball_ns_m2", BallRegion(np.zeros(2), 1.0), sample_ball),
            ("sample_ball_ns_m30", BallRegion(np.zeros(30), 1.0), sample_ball),
            ("sample_cube_ns_m3", CubeRegion(np.zeros(3), np.ones(3)), sample_cube)):
        out[f"sampling.{name}"] = 1e9 * per_call(
            lambda: sampler(region, stream, size=POINTS)) / POINTS

    product = problems.get_problem("product")
    product_fd = dataclasses.replace(product, jac=None)
    x = np.array([1.25, -0.75])
    out["problems.evaluate_us"] = 1e6 * per_call(lambda: problems.evaluate(product, x))
    out["problems.jacobian_us_analytic"] = 1e6 * per_call(lambda: problems.jacobian(product, x))
    out["problems.jacobian_us_fd"] = 1e6 * per_call(lambda: problems.jacobian(product_fd, x))

    for n, m in ((2, 2), (30, 7), (30, 30)):
        matrix = stream.symmetric(n * m).reshape(n, m)
        out[f"condition.spectral_norm_us_{n}x{m}"] = 1e6 * per_call(
            lambda: condition.spectral_norm(matrix))
    return out
