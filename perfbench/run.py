"""condana benchmark: end-to-end metrics per workload, or the traced per-layer table.

    python3 perfbench/run.py --workload {verify,analyze-scan,sweep} --seed N \\
        --seconds T --trace {0,1}

Run from the root of a source checkout; condana is imported from its
``src/``. With ``--trace 0`` the workload runs untraced in a fresh process
and the end-to-end metrics are reported; set-up time is the median of
three fresh interpreters that import condana and build the inputs. With
``--trace 1`` the workload runs once untraced and once traced, each in its
own process, and the layer micro-benchmarks run in a third; the per-layer
metrics are reported. BLAS runs on one thread.

A readable report goes to stderr; scratch files, the full details and the
spans go to ``.perfbench/`` in the checkout. The last line of stdout is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".perfbench"
WORKLOADS = ("verify", "analyze-scan", "sweep")
SETUP_PROBES = 3
#: Every process this run starts must end within this many seconds.
BUDGET_S = 170.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    """The benchmark could not measure; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.update({var: "1" for var in THREAD_VARS})
    env.pop("CONDANA_SEED", None)  # the CLI would let it override --seed
    return env


def spawn(args: list[str], deadline: float, capture: bool) -> str:
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                              cwd=ROOT, env=child_env(), text=True,
                              stdout=subprocess.PIPE if capture else subprocess.DEVNULL,
                              timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {args[0]} ran out of time") from None
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited with code {proc.returncode}")
    return proc.stdout or ""


def run_worker(args: list[str], deadline: float) -> dict:
    return json.loads(spawn(args, deadline, capture=True).strip().splitlines()[-1])


def setup_seconds(workload: str, seed: int, deadline: float) -> list[float]:
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        spawn(["setup", "--workload", workload, "--seed", str(seed)], deadline, capture=False)
        times.append(time.perf_counter() - t0)
    return times


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def layer_metrics(trace: dict, micro: dict, entry_calls: int, overhead: float) -> dict:
    """The per-layer metrics of BENCHMARK.json, from a traced run's summary."""
    names, layers, counters = trace["names"], trace["layers"], trace["counters"]

    def name(key, field="calls"):
        return names.get(key, {}).get(field, 0)

    metrics = dict(micro)
    metrics.update({
        "sampling.self_s": layers["sampling"]["self_s"],
        "sampling.calls": layers["sampling"]["calls"],
        "sampling.values": counters.get("sampling.values", 0),
        "problems.self_s": layers["problems"]["self_s"],
        "problems.evaluate_calls": name("problems.evaluate"),
        "problems.jacobian_calls": name("problems.jacobian"),
        "problems.jacobian_calls_per_call": name("problems.jacobian") / max(entry_calls, 1),
        "condition.self_s": layers["condition"]["self_s"],
        "condition.calls": layers["condition"]["calls"],
        "condition.spectral_norm_calls": name("condition.spectral_norm"),
        "condition.spectral_norm_failures": name("condition.spectral_norm", "raised"),
        "closed_forms.calls": layers["closed_forms"]["calls"],
        "verify.tasks": sum(v["calls"] for k, v in names.items()
                            if k.startswith("verify.group.")),
        "verify.checks": name("verify.make_check"),
        "cli.rows": counters.get("cli.rows", 0),
        "trace.overhead_frac": overhead,
    })
    return metrics


def layer_table(trace: dict) -> list[str]:
    """Every traced function and layer, including the workload-specific
    breakdowns (verify groups, report, delta_sweep, write_rows)."""
    lines = [f"  {'layer':<14}{'self s':>12}{'calls in':>12}"]
    for layer, entry in trace["layers"].items():
        lines.append(f"  {layer:<14}{entry['self_s']:>12.4f}{entry['calls']:>12}")
    lines.append(f"  {'function':<40}{'calls':>10}{'total s':>12}{'self s':>12}{'raised':>8}")
    for key, entry in sorted(trace["names"].items(), key=lambda kv: -kv[1]["total_s"]):
        lines.append(f"  {key:<40}{entry['calls']:>10}{entry['total_s']:>12.4f}"
                     f"{entry['self_s']:>12.4f}{entry['raised']:>8}")
    return lines


def workload_metrics(workload: str, outcome: dict, summary: dict) -> dict:
    """The workload's metrics under their per-workload names: name -> (value, unit)."""
    latency = summary["latency"]
    named = {"peak_rss_mb": (outcome["peak_rss_mb"], "MB"),
             "failed_frac": (outcome["failed"] / max(outcome["attempted"], 1), "ratio")}
    if workload == "verify":
        named.update({"verify_s": (summary["pass_s"], "s")})
    elif workload == "analyze-scan":
        named.update({"reports_per_s": (latency["count"] / summary["timed_s"], "1/s"),
                      "report_ms_p50": (latency["p50_ms"], "ms"),
                      f"report_ms_p{latency['tail_percentile']}": (latency["tail_ms"], "ms")})
    else:
        named.update({"sweep_s": (summary["pass_s"], "s")})
    return named


def baseline_digest(workload: str, seed: int) -> str | None:
    """The seed commit's output digest for this workload and seed, if stored."""
    baseline = json.loads((HERE / "baseline.json").read_text())
    return baseline["workloads"].get(workload, {}).get("digests", {}).get(str(seed))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="condana benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "condana" / "__init__.py").is_file():
        print(f"error: no condana sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + BUDGET_S
    WORKDIR.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}"
    run_args = ["run", "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--workdir", str(WORKDIR)]

    facts = {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu_model(),
             "python": platform.python_version(), "commit": git_commit(),
             "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
             "trace": args.trace}
    unexplained = []
    try:
        if args.trace:
            untraced = run_worker(run_args, deadline)
            spans = WORKDIR / f"{tag}-spans.json"
            traced = run_worker(run_args + ["--spans", str(spans)], deadline)
            micro = run_worker(["micro", "--seed", str(args.seed)], deadline)["micro"]
        else:
            setup = setup_seconds(args.workload, args.seed, deadline)
            untraced = run_worker(run_args, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    outcome, summary = untraced["outcome"], untraced["summary"]
    facts.update(untraced["libraries"])
    facts["samples"] = untraced["samples"]
    if facts["blas_threads"] is not None and facts["blas_threads"] > facts["nproc"]:
        unexplained.append(f"BLAS runs {facts['blas_threads']} threads on "
                              f"{facts['nproc']} CPUs")
    unexplained += outcome["unexplained"]

    if args.trace:
        overhead = traced["summary"]["pass_s"] / summary["pass_s"] - 1.0
        metrics = layer_metrics(traced["trace"], micro, traced["outcome"]["entry_calls"],
                                overhead)
        if traced["outcome"]["digest"] != outcome["digest"]:
            unexplained.append("traced output differs from untraced output")
        unexplained += traced["outcome"]["unexplained"]
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "pass_s": summary["pass_s"],
            "latency_ms_p50": summary["latency"]["p50_ms"],
            "latency_ms_tail": summary["latency"]["tail_ms"],
            "peak_rss_mb": outcome["peak_rss_mb"],
        }
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {entry["name"]: entry["unit"]
             for entry in bench["per_layer" if args.trace else "end_to_end"]}
    if set(metrics) != set(units):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} disagree with "
              "BENCHMARK.json", file=sys.stderr)
        return 4

    expected = baseline_digest(args.workload, args.seed)
    details = {
        "facts": facts,
        "metrics": metrics,
        "named": workload_metrics(args.workload, outcome, summary),
        "summary": summary,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "defects": outcome["defects"],
        "unexplained": unexplained,
        "digest": outcome["digest"],
        "digest_matches_baseline": None if expected is None else expected == outcome["digest"],
    }
    if args.trace:
        details["trace"] = traced["trace"]
    (WORKDIR / f"{tag}-trace{args.trace}.json").write_text(json.dumps(details, indent=1))

    err = sys.stderr
    print(f"condana benchmark: {args.workload}, seed {args.seed}, trace {args.trace}", file=err)
    for key, value in facts.items():
        print(f"  {key}: {value}", file=err)
    print(f"  passes: {summary['passes']}  calls timed: {summary['latency']['count']}  "
          f"tail percentile: p{summary['latency']['tail_percentile']}", file=err)
    for key, (value, unit) in details["named"].items():
        print(f"  {key}: {value:.6g} {unit}", file=err)
    print(f"  failed: {outcome['failed']} of {outcome['attempted']}  "
          f"known defects: {outcome['defects'] or 'none'}", file=err)
    print(f"  output sha256: {outcome['digest']}  matches seed-commit baseline: "
          f"{details['digest_matches_baseline']}", file=err)
    for problem in unexplained[:10]:
        print(f"  UNEXPLAINED: {problem}", file=err)
    for key, value in metrics.items():
        print(f"  {key:<40}{value:>16.6g} {units[key]}", file=err)
    if args.trace:
        print("\n".join(layer_table(traced["trace"])), file=err)

    print(json.dumps({
        "correct": not unexplained,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
