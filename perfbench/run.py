"""Benchmark of acmpts: three seeded workloads, end-to-end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout that has ``src/acmpts``; the package
is imported from that tree, never from an installed copy.

A run repeats passes of the workload until ``--seconds`` have elapsed,
each pass in a fresh interpreter (``worker.py``).  Every output is
checked by the benchmark itself; a wrong output or an exception fails
that operation and the run goes on.  The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones:

- ``setup_s``: ``import acmpts`` plus input generation, up to the first
  operation, in a fresh interpreter; median over the run's passes and
  extra set-up-only processes.
- ``ops_per_s``: configurations completed per second of operation time,
  median over passes.
- ``op_p50_ms``, ``op_p95_ms``: per-configuration latency.  Each
  configuration's latency is its median over the run's passes; the
  percentiles are taken over configurations.  The sweep runs all its
  configurations in one CLI call, so its only latency sample is the
  mean time per configuration, and both percentiles equal it.
- ``peak_rss_mb``: ``ru_maxrss`` of the pass process, median over passes.

With ``--trace 1`` the run alternates untraced and traced passes and the
metrics are the per-layer ones from ``tracing.py`` (medians over traced
passes), plus ``trace.overhead_s`` (traced minus untraced operation
time) and ``trace.coverage`` (share of the traced operation time that
top-level spans cover).  Spans of the last traced pass and a full result
with provenance are written under ``perfbench/out/``.
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
OUT = HERE / "out"
WORKER = HERE / "worker.py"

WORKLOADS = ("sweep_2x2x3", "sample_3x3x3", "hilbert_tables")
DEFAULT_SEED = 42  # the seed of acceptance criterion 7
SETUP_PROBES = 10  # set-up-only processes per run, besides one set-up per pass
RUN_LIMIT_S = 170  # a worker still running then is killed and the run fails

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p95_ms": "ms",
    "peak_rss_mb": "MB",
}


def spawn(args: argparse.Namespace, mode: str, spans: Path | None = None) -> dict:
    """Run one worker process to completion and return its JSON result."""
    timeout = max(1.0, args.limit - time.monotonic())
    cmd = [sys.executable, str(WORKER), args.workload, str(args.seed), mode]
    if args.small:
        cmd.append("--small")
    if spans is not None:
        cmd += ["--spans", str(spans)]
    proc = subprocess.run(
        cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {mode} pass exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quantile(values: list[float], q: float) -> float:
    """Inclusive-method quantile, defined for a single value too."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def per_op_latencies(passes: list[dict]) -> list[float]:
    """Each operation's median latency over the passes where it succeeded."""
    columns = zip(*(p["latencies_s"] for p in passes))
    medians = []
    for column in columns:
        ok = [t for t in column if t is not None]
        if ok:
            medians.append(statistics.median(ok))
    return medians


def end_to_end(passes: list[dict], setups: list[float]) -> dict[str, float]:
    # A pass whose operations all failed reads as zero; its run is not correct.
    latencies = per_op_latencies(passes) or [0.0]
    return {
        "setup_s": statistics.median(setups),
        "ops_per_s": statistics.median(
            (p["attempted"] - p["failed"]) / p["busy_s"] if p["busy_s"] else 0.0 for p in passes
        ),
        "op_p50_ms": 1000 * statistics.median(latencies),
        "op_p95_ms": 1000 * quantile(latencies, 0.95),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }


def per_layer(plain: list[dict], traced: list[dict]) -> tuple[dict[str, float], dict[str, str]]:
    names = traced[0]["layers"]
    metrics = {name: statistics.median(p["layers"][name] for p in traced) for name in names}
    metrics["trace.overhead_s"] = statistics.median(p["busy_s"] for p in traced) - statistics.median(
        p["busy_s"] for p in plain
    )
    units = {name: layer_unit(name) for name in metrics}
    return metrics, units


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith((".calls", ".rows", ".cols", ".nnz")):
        return "count"
    return "ratio"


def provenance(args: argparse.Namespace, digests: set[str]) -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            git = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            )
            commit = git.stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "input_digest": sorted(digests),
        "python": platform.python_version(),
        "commit": commit,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--small", action="store_true", help="tiny inputs, for the benchmark's own tests"
    )
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "acmpts" / "__init__.py").is_file():
        print(f"perfbench: no acmpts sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    args.limit = time.monotonic() + RUN_LIMIT_S
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    setups = [spawn(args, "setup")["setup_s"] for _ in range(SETUP_PROBES)]
    plain: list[dict] = []
    traced: list[dict] = []
    deadline = time.monotonic() + args.seconds
    while True:
        plain.append(spawn(args, "run"))
        if args.trace:
            traced.append(spawn(args, "trace", OUT / f"spans-{tag}.tsv.gz"))
        if time.monotonic() >= deadline:
            break
    passes = plain + traced
    setups += [p["setup_s"] for p in passes]

    if args.trace:
        metrics, units = per_layer(plain, traced)
    else:
        metrics, units = end_to_end(plain, setups), END_TO_END_UNITS
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    digests = {p["digest"] for p in passes}
    correct = failed == 0 and len(digests) == 1

    info = provenance(args, digests)
    info["passes"] = len(plain)
    info["pass_busy_s"] = [p["busy_s"] for p in passes]
    info["error_rate"] = failed / attempted
    problems = [msg for p in passes for msg in p["problems"]]
    print("provenance " + json.dumps(info))
    for msg in problems:
        print(f"FAILED {msg}")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(f"error_rate {info['error_rate']:.6g} ratio ({failed}/{attempted})")

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    with open(OUT / f"result-{tag}.json", "w", encoding="utf-8") as fh:
        json.dump({**result, "provenance": info, "problems": problems}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
