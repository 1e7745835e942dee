"""Tests of the benchmark itself, on a workload shrunk so each case takes
seconds. It still steps long enough that a fresh run outlasts its
generation-0 set-up run."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run

TINY = run.Workload(
    "tiny", "compare", ("standard", "dendrite"), n=12, k=2, generations=200, runs=2, pop=10,
    plot=True, extra=("--hidden", "2", "--train-size", "16", "--test-size", "16"),
)


def _printed(out: str, units) -> None:
    lines = out.splitlines()
    for name, unit in units:
        assert any(
            line.startswith(f"{name} = ") and line.endswith(f" {unit}") for line in lines
        ), name
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert list(result["metrics"]) == [name for name, _ in units]


def test_smoke_prints_every_end_to_end_metric(capsys):
    result = run.run_workload(TINY, seed=42, seconds=0, trace=False, pin=None)
    out = capsys.readouterr().out
    _printed(out, run.END_TO_END)
    assert "failed_ratio = 0.0 ratio" in out
    assert result["correct"] and result["attempted"] > 0
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_smoke_prints_every_per_layer_metric(capsys):
    result = run.run_workload(TINY, seed=42, seconds=0, trace=True, pin=None)
    _printed(capsys.readouterr().out, run.per_layer_units())
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert result["correct"]
    assert metrics["evolve.steps"] == TINY.steps
    assert metrics["harness.cache_hit_ratio"] == 1.0
    assert metrics["svgplot.trace_chart.calls"] == 2


def test_wrong_pinned_sha_counts_as_failure(capsys):
    result = run.run_workload(TINY, seed=42, seconds=0, trace=False, pin="0" * 64)
    out = capsys.readouterr().out
    assert result["failed"] > 0 and not result["correct"]
    ratio = next(line for line in out.splitlines() if line.startswith("failed_ratio = "))
    assert float(ratio.split()[2]) > 0


def test_untraced_run_never_imports_the_tracer(tmp_path):
    argv = run.cli_argv(TINY.argv(42, tmp_path / "out"))
    assert str(run.TRACER) not in argv
    proc = subprocess.run(
        [argv[0], "-X", "importtime", *argv[1:]], env=run.child_env(), cwd=tmp_path,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    imported = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:")]
    assert "dendrevo.cli" in imported
    assert not any("tracer" in name for name in imported)


def test_benchmark_json_matches_what_run_reports():
    spec = json.loads((run.CHECKOUT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.per_layer_units()
    assert set(json.loads(run.PINS.read_text())["trace_sha256"]) == set(run.WORKLOADS)


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(run.CHECKOUT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "full-cell", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
