"""One measurement in a fresh interpreter; ``run.py`` starts it.

    worker.py setup --workload W --seed S
    worker.py run   --workload W --seed S --seconds T [--spans FILE]
    worker.py micro --seed S

``setup`` imports condana, builds the workload's inputs and exits at once,
so its wall time is the set-up cost. ``run`` measures the workload (traced
when ``--spans`` names a file for the spans) and ``micro`` times the
layers; both print one JSON object on stdout. condana is imported from
``src/`` of the checkout, which ``run.py`` puts on PYTHONPATH.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import json
import os
import statistics
import sys
import tempfile
from pathlib import Path

import checks
import workloads

BLAS_THREAD_SYMBOLS = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads")


def library_facts() -> dict:
    import numpy as np
    import scipy

    blas = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    threads = None
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        symbol = next((s for s in BLAS_THREAD_SYMBOLS if hasattr(handle, s)), None)
        if symbol is not None:
            getter = getattr(handle, symbol)
            getter.restype = ctypes.c_int
            threads = getter()
            break
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": threads,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=("setup", "run", "micro"))
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--workdir", type=Path, default=Path("."))
    parser.add_argument("--spans", type=Path, help="trace the run; write its spans here")
    return parser.parse_args(argv)


def main(argv=None) -> None:
    args = parse_args(argv)
    if args.mode == "setup":
        workloads.prepare(args.workload, args.seed)
        os._exit(0)  # interpreter teardown is not part of set-up
    if args.mode == "micro":
        import micro

        result = {"micro": micro.run_micro(args.seed)}
    else:
        inputs = workloads.prepare(args.workload, args.seed)
        tracer = None
        if args.spans is not None:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        # the CLI's output files go to a directory of this process's own
        with tempfile.TemporaryDirectory(dir=args.workdir) as scratch:
            outcome = workloads.run(args.workload, inputs, args.seed, args.seconds,
                                    Path(scratch),
                                    after_timing=tracer.restore if tracer else None)
        result = {
            "outcome": dataclasses.asdict(outcome),
            "summary": {"passes": len(outcome.passes),
                        "pass_s": statistics.median(outcome.passes),
                        "timed_s": sum(outcome.passes),
                        "latency": checks.latency_summary(outcome.calls)},
            "samples": workloads.sample_counts()[args.workload],
        }
        if tracer is not None:
            result["trace"] = tracer.summary()
            tracer.dump(args.spans)
    result["libraries"] = library_facts()
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
