"""Seeded inputs, operations and output checks for the acmpts benchmark.

Everything here runs inside one worker process (see ``worker.py``), and
``acmpts`` must be importable before this module is.  The package is
reached through its module attributes at call time, so that the tracer in
``tracing.py`` (or a test's monkeypatch) sees every call.

The checks are the benchmark's own: they recompute what a correct answer
must satisfy instead of asking the package, and each returns a list of
problems, empty when the output is correct.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import itertools
import json
import math
import os
import random
import tempfile
import time

from acmpts import cli, constructions, grid_model, hilbert_function, reisner_oracle, star_property

# Per-pass input sizes; the ``small`` ones exist for the benchmark's own
# tests.  Both seeded workloads draw 405 configurations, each size 1..27
# fifteen times: with 200, the cost varied too much from seed to seed.
SWEEP_GRID = {False: (2, 2, 3), True: (2, 2)}
SAMPLE_OPS = {False: 405, True: 6}

DELTA_BOX = (3, 3, 3)
LAYER_DIRECTION = 1
LAYER_BOX = (2, 2, 2)

MAX_PROBLEMS = 20  # failure messages kept per pass

CUBE_CELLS = sorted(itertools.product((1, 2, 3), repeat=3))


def sample_configurations(seed: int, count: int) -> list:
    """``count`` canonical subsets of the 3x3x3 grid.

    Sizes are spread evenly over 1..27 (each size ``count // 27`` or one
    more times, in a seeded order), then each subset is a seeded sample
    of that size.  Acceptance criterion 7 draws each size uniformly at
    random instead, so seed 42 does not give its sample.  Spreading the
    sizes evenly keeps the same marginal while removing most of the
    run-to-run variation of the total cost, which the near-full
    configurations dominate.
    """
    rng = random.Random(seed)
    sizes = [1 + k % len(CUBE_CELLS) for k in range(count)]
    rng.shuffle(sizes)
    return [grid_model.canonicalize(sorted(rng.sample(CUBE_CELLS, k))) for k in sizes]


def sweep_configurations(grid: tuple[int, ...]) -> list:
    """Every nonempty subset of the grid, canonical, in bitmask order."""
    cells = sorted(itertools.product(*[range(1, r + 1) for r in grid]))
    return [
        grid_model.canonicalize([c for b, c in enumerate(cells) if mask >> b & 1])
        for mask in range(1, 1 << len(cells))
    ]


# --- operations -----------------------------------------------------------


def sample_op(X):
    """Star and Reisner verdicts; on ACM configurations a chain for every pair."""
    star = star_property.is_acm(X)
    cm = reisner_oracle.is_cm(X)
    paths = []
    if star:
        for P, Q in itertools.combinations(X.sorted_points(), 2):
            paths.append((P, Q, star_property.find_path(X, P, Q, X.n)))
    return star, cm, paths


def hilbert_op(X):
    """First-difference table on the 3x3x3 box and the layer identity check."""
    table = hilbert_function.delta_table(X, DELTA_BOX)
    layer_ok = constructions.verify_layer_hf(X, LAYER_DIRECTION, LAYER_BOX)
    return table, layer_ok


def sweep_op(grid: tuple[int, ...], workdir: str):
    """One ``acmpts enumerate`` call, in process; returns (exit code, stdout, CSV rows)."""
    fd, out = tempfile.mkstemp(suffix=".csv", dir=workdir)
    os.close(fd)
    try:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["enumerate", "--grid", ",".join(map(str, grid)), "--out", out])
        with open(out, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
    finally:
        os.unlink(out)
    return code, buf.getvalue(), rows


# --- checks ---------------------------------------------------------------


def _distance(u, v) -> int:
    return sum(a != b for a, b in zip(u, v))


def check_path(X, P, Q, path) -> list[str]:
    """The chain contract of ``find_path`` for one pair."""
    if not path or path[0] != P or path[-1] != Q:
        return [f"path {P}->{Q}: endpoints are not P and Q"]
    problems = []
    if len(path) != _distance(P, Q) + 1:
        problems.append(f"path {P}->{Q}: {len(path)} points, expected d(P,Q)+1")
    if any(_distance(u, v) != 1 for u, v in zip(path, path[1:])):
        problems.append(f"path {P}->{Q}: a step does not change exactly one coordinate")
    for u in path:
        if u not in X.points or any(c not in (p, q) for c, p, q in zip(u, P, Q)):
            problems.append(f"path {P}->{Q}: {u} is outside X or outside the box")
            break
    return problems


def check_sample(X, result) -> list[str]:
    star, cm, paths = result
    if star != cm:
        return [f"star verdict {star} but Reisner verdict {cm}"]
    if not star:
        return []
    expected = X.size * (X.size - 1) // 2
    if len(paths) != expected:
        return [f"{len(paths)} paths for {expected} pairs"]
    return [msg for P, Q, path in paths for msg in check_path(X, P, Q, path)]


def check_hilbert(X, result) -> list[str]:
    table, layer_ok = result
    problems = []
    degrees = set(itertools.product(*[range(t + 1) for t in DELTA_BOX]))
    if set(table.values) != degrees:
        problems.append("delta table does not cover the box")
    # Summing the first differences over [0, T] telescopes to h(T), and
    # h(T) = |X| because every T_i >= r_i - 1 on a 3x3x3 grid.
    elif sum(table.values.values()) != X.size:
        problems.append(f"delta values sum to {sum(table.values.values())}, expected {X.size}")
    if layer_ok is not True:
        problems.append(f"verify_layer_hf returned {layer_ok!r}")
    return problems


def sweep_failures(grid: tuple[int, ...], result) -> int:
    """Configurations of the sweep whose output is wrong.

    A wrong exit code, summary line or row count fails the whole sweep;
    otherwise each row that does not report agreement fails on its own.
    """
    code, stdout, rows = result
    total = sweep_size(grid)
    summary = f"star/reisner agreement {total}/{total}"
    if code != 0 or summary not in stdout or len(rows) != total:
        return total
    return sum(row.get("agree") != "true" for row in rows)


def sweep_size(grid: tuple[int, ...]) -> int:
    """Number of nonempty subsets of the grid."""
    return (1 << math.prod(grid)) - 1


# --- one pass -------------------------------------------------------------


def make_inputs(workload: str, seed: int, small: bool):
    """The pass's inputs: the sweep grid, or the seeded configurations.

    The sweep is exhaustive, so it ignores the seed.
    """
    if workload == "sweep_2x2x3":
        return SWEEP_GRID[small]
    return sample_configurations(seed, SAMPLE_OPS[small])


def digest_of(workload: str, inputs) -> str:
    """SHA-256 of the sorted canonical point sets, in input order."""
    configs = sweep_configurations(inputs) if workload == "sweep_2x2x3" else inputs
    h = hashlib.sha256()
    for X in configs:
        h.update(json.dumps([X.dims, X.sorted_points()]).encode())
        h.update(b"\n")
    return h.hexdigest()


def run_pass(workload: str, inputs, workdir: str) -> dict:
    """Run every operation of one pass, timing each and checking its output.

    An exception or a failed check fails the operation and the pass goes
    on.  ``latencies_s`` has one entry per operation, ``None`` for failed
    ones; the sweep is one timed call, so its single entry is the mean
    time per configuration.  ``busy_s`` sums the operation times, checks
    excluded.
    """
    clock = time.perf_counter
    problems: list[str] = []
    if workload == "sweep_2x2x3":
        attempted = sweep_size(inputs)
        start = clock()
        try:
            result = sweep_op(inputs, workdir)
            busy = clock() - start
            failed = sweep_failures(inputs, result)
        except Exception as e:  # a crash of the program fails the sweep, not the benchmark
            busy = clock() - start
            failed = attempted
            problems.append(f"{type(e).__name__}: {e}")
        if failed:
            problems.append(f"{failed} of {attempted} configurations failed")
        latencies = [busy / attempted if not failed else None]
        return {"attempted": attempted, "failed": failed, "busy_s": busy,
                "latencies_s": latencies, "problems": problems}

    op, check = OPERATIONS[workload]
    latencies = []
    for X in inputs:
        start = clock()
        try:
            result = op(X)
            elapsed = clock() - start
            found = check(X, result)
        except Exception as e:  # counted as a failed operation
            found = [f"{type(e).__name__}: {e}"]
        if found:
            problems.extend(f"{X!r}: {msg}" for msg in found)
        latencies.append(None if found else elapsed)
    failed = sum(t is None for t in latencies)
    return {"attempted": len(inputs), "failed": failed,
            "busy_s": sum(t for t in latencies if t is not None),
            "latencies_s": latencies, "problems": problems[:MAX_PROBLEMS]}


OPERATIONS = {
    "sample_3x3x3": (sample_op, check_sample),
    "hilbert_tables": (hilbert_op, check_hilbert),
}
