"""Golden fingerprint: a small seed-42 grid must keep its exact bytes.

The grid covers all four variants with enough generations for every
gate kind to appear, and runs in a few seconds; a second, single cell
redraws its training set from a k=10 landscape every generation, and a
third does the same under the center-band encoding. A refactor that
moves a single bit of any cell's trace changes its digest. If a change
of behaviour is intended, say so and why, and record the new digest here.
"""

import hashlib

from dendrevo.cli import main

GRID = [
    "compare", "--variants", "standard,dendrite,range,dropout",
    "--n", "40", "--k", "3", "--generations", "60", "--runs", "2", "--pop", "20",
    "--train-size", "300", "--test-size", "300", "--seed", "42", "--workers", "1",
]
TRACE_SHA256 = "51f595da562ac2a83b8385a15b810e291f2869bd0383910f4ca4ac10caec3c9f"
RESAMPLE_CELL = [
    "run", "--variant", "dendrite", "--resample-train",
    "--n", "20", "--k", "10", "--generations", "30", "--runs", "1", "--pop", "20",
    "--train-size", "300", "--test-size", "300", "--seed", "42", "--workers", "1",
]
RESAMPLE_TRACE_SHA256 = "c0fbd9b9b6a6ee732f3a09a470dc6c30c4d81d5cc575ddaa0ab6a36302c296d1"
CENTER_BAND_CELL = [
    "run", "--variant", "range", "--encoding", "centerband", "--resample-train",
    "--n", "30", "--k", "4", "--generations", "30", "--runs", "1", "--pop", "20",
    "--train-size", "300", "--test-size", "300", "--seed", "42", "--workers", "1",
]
CENTER_BAND_TRACE_SHA256 = "9b90e7cb2529a32537da66c3619a9056e6d6b10aae2f1f653018cb3194e87060"


def test_small_grid_trace_matches_the_golden_digest(tmp_path, monkeypatch):
    monkeypatch.delenv("DENDREVO_SEED", raising=False)
    assert main([*GRID, "--out", str(tmp_path)]) == 0
    digest = hashlib.sha256((tmp_path / "trace.csv").read_bytes()).hexdigest()
    assert digest == TRACE_SHA256


def test_resampling_cell_trace_matches_the_golden_digest(tmp_path, monkeypatch):
    monkeypatch.delenv("DENDREVO_SEED", raising=False)
    assert main([*RESAMPLE_CELL, "--out", str(tmp_path)]) == 0
    digest = hashlib.sha256((tmp_path / "trace.csv").read_bytes()).hexdigest()
    assert digest == RESAMPLE_TRACE_SHA256


def test_center_band_cell_trace_matches_the_golden_digest(tmp_path, monkeypatch):
    monkeypatch.delenv("DENDREVO_SEED", raising=False)
    assert main([*CENTER_BAND_CELL, "--out", str(tmp_path)]) == 0
    digest = hashlib.sha256((tmp_path / "trace.csv").read_bytes()).hexdigest()
    assert digest == CENTER_BAND_TRACE_SHA256
