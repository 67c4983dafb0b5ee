"""Tests of the benchmark itself, at a tiny size.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import workloads  # noqa: E402
from run import WORKLOADS  # noqa: E402
from acmpts import cli, hilbert_function, reisner_oracle, star_property  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "0", "--trace", str(trace), "--small"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def printed(proc: subprocess.CompletedProcess) -> tuple[dict, list[str]]:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_printed_with_unit(workload, trace, section):
    result, lines = printed(run_bench(workload, trace))
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert any(line.startswith(f"{name} ") and line.endswith(f" {unit}") for line in lines)
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0
    assert any(line.startswith("error_rate 0 ratio") for line in lines)
    assert any(line.startswith("provenance ") for line in lines)


def test_traced_workloads_bypass_the_layers_they_do_not_use():
    layers = {w: printed(run_bench(w, 1))[0]["metrics"] for w in WORKLOADS}
    hilbert = layers["hilbert_tables"]
    for name, metric in hilbert.items():
        if name.startswith(("reisner_oracle.", "star_property.")) and name.endswith(".calls"):
            assert metric["value"] == 0, name
    assert hilbert["linalg.rank_int.evaluation.calls"]["value"] > 0
    for w in ("sweep_2x2x3", "sample_3x3x3"):
        assert layers[w]["linalg.rank_int.evaluation.calls"]["value"] == 0
        assert layers[w]["linalg.rank_int.boundary.calls"]["value"] > 0


def test_inputs_are_a_function_of_the_seed():
    digest = lambda seed: workloads.digest_of(  # noqa: E731
        "sample_3x3x3", workloads.make_inputs("sample_3x3x3", seed, small=True)
    )
    assert digest(1) == digest(1)
    assert digest(1) != digest(2)


def run_small(workload: str, tmp_path: Path, seed: int = 3) -> dict:
    inputs = workloads.make_inputs(workload, seed, small=True)
    return workloads.run_pass(workload, inputs, str(tmp_path))


def test_clean_passes_have_no_failures(tmp_path):
    for w in WORKLOADS:
        result = run_small(w, tmp_path)
        assert result["failed"] == 0, result["problems"]


def test_path_with_a_non_unit_step_fails_its_operation(tmp_path, monkeypatch):
    X = workloads.grid_model.canonicalize([(1, 1), (1, 2), (2, 1), (2, 2)])
    assert workloads.check_path(X, (1, 1), (2, 2), [(1, 1), (1, 2), (2, 2)]) == []
    assert workloads.check_path(X, (1, 1), (2, 2), [(1, 1), (2, 2)])

    def skipping(X, P, Q, s):
        return [P, Q]

    monkeypatch.setattr(star_property, "find_path", skipping)
    result = run_small("sample_3x3x3", tmp_path, seed=1)
    assert result["attempted"] == workloads.SAMPLE_OPS[True]
    assert result["failed"] > 0
    assert any("exactly one coordinate" in p or "d(P,Q)+1" in p for p in result["problems"])


def test_wrong_delta_sum_fails_its_operation(tmp_path, monkeypatch):
    original = hilbert_function.delta_table

    def off_by_one(X, T):
        table = original(X, T)
        values = dict(table.values)
        values[(0, 0, 0)] += 1
        return type(table)(box=table.box, values=values)

    monkeypatch.setattr(hilbert_function, "delta_table", off_by_one)
    result = run_small("hilbert_tables", tmp_path)
    assert result["failed"] == result["attempted"]


def test_exception_in_an_operation_fails_it_without_crashing(tmp_path, monkeypatch):
    def broken(X):
        raise RuntimeError("boom")

    monkeypatch.setattr(reisner_oracle, "is_cm", broken)
    result = run_small("sample_3x3x3", tmp_path)
    assert result["failed"] == result["attempted"]
    assert all(t is None for t in result["latencies_s"])


def test_sweep_disagreement_fails_the_sweep(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "is_cm", lambda X: False)
    result = run_small("sweep_2x2x3", tmp_path)
    assert result["failed"] == result["attempted"] == workloads.sweep_size((2, 2))


def test_refuses_to_run_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("sample_3x3x3", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
