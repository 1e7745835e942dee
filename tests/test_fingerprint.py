"""Golden fingerprint: a small seed-42 grid must keep its exact bytes.

The grid covers all four variants with enough generations for every
gate kind to appear, and runs in a few seconds. Every file it writes is
pinned: the trace, the summary and pairwise CSVs, the SVG chart and the
saved genomes. A second, single cell
redraws its training set from a k=10 landscape every generation, and a
third does the same under the center-band encoding. A small input-size
sweep pins sweep.csv and sweep.svg. A refactor that
moves a single bit of any cell's trace changes its digest. If a change
of behaviour is intended, say so and why, and record the new digest here.
"""

import hashlib
import threading

from dendrevo import evolve
from dendrevo.cli import main

GRID = [
    "compare", "--variants", "standard,dendrite,range,dropout",
    "--n", "40", "--k", "3", "--generations", "60", "--runs", "2", "--pop", "20",
    "--train-size", "300", "--test-size", "300", "--seed", "42", "--workers", "1",
    "--plot",
]
TRACE_SHA256 = "51f595da562ac2a83b8385a15b810e291f2869bd0383910f4ca4ac10caec3c9f"
GRID_ARTIFACT_SHA256 = {
    "summary.csv": "0c4d998623f2cd8ee5afc24002aff8a9cb1a9735c6a79dd4a3529a1a6b679ab7",
    "compare.csv": "cb2b2a93c67dfade3b16f62c275716be0439f4ed33e779cd91d0ab1486c81395",
    "trace.svg": "569fe741d55fbe38e8dfdcd87b87d2b0e0c01cae518c65bc10611c932b9677d9",
}
# The grid's runs/*.dnet files, concatenated in sorted name order.
GRID_GENOMES_SHA256 = "e5f459492fa813c6d55b63934a84646180f82a2fe789f6dc56a7b5948b42bf0c"
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
SWEEP = [
    "sweep", "--n-values", "12,24", "--k", "3", "--generations", "40", "--runs", "2",
    "--pop", "20", "--train-size", "200", "--test-size", "200", "--seed", "42",
    "--workers", "1", "--plot",
]
SWEEP_ARTIFACT_SHA256 = {
    "sweep.csv": "ea508dfd2709cba0ae7c51be53bbdce44afa084a6a15d83d2ea52d9ee7e20f49",
    "sweep.svg": "bc555f2c245b0c13f244e64c52effc53636b785befe14eeb3ed59681635de829",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_small_grid_trace_matches_the_golden_digest(tmp_path, monkeypatch):
    monkeypatch.delenv("DENDREVO_SEED", raising=False)
    assert main([*GRID, "--out", str(tmp_path)]) == 0
    assert sha256((tmp_path / "trace.csv").read_bytes()) == TRACE_SHA256
    for name, digest in GRID_ARTIFACT_SHA256.items():
        assert sha256((tmp_path / name).read_bytes()) == digest, name
    genomes = sorted((tmp_path / "runs").glob("*.dnet"))
    assert len(genomes) == 8
    assert sha256(b"".join(p.read_bytes() for p in genomes)) == GRID_GENOMES_SHA256


def test_resampling_cell_trace_matches_the_golden_digest(tmp_path, monkeypatch):
    monkeypatch.delenv("DENDREVO_SEED", raising=False)
    assert main([*RESAMPLE_CELL, "--out", str(tmp_path)]) == 0
    assert sha256((tmp_path / "trace.csv").read_bytes()) == RESAMPLE_TRACE_SHA256


def test_center_band_cell_trace_matches_the_golden_digest(tmp_path, monkeypatch):
    monkeypatch.delenv("DENDREVO_SEED", raising=False)
    assert main([*CENTER_BAND_CELL, "--out", str(tmp_path)]) == 0
    assert sha256((tmp_path / "trace.csv").read_bytes()) == CENTER_BAND_TRACE_SHA256


def test_sweep_table_and_chart_match_the_golden_digests(tmp_path, monkeypatch):
    monkeypatch.delenv("DENDREVO_SEED", raising=False)
    assert main([*SWEEP, "--out", str(tmp_path)]) == 0
    for name, digest in SWEEP_ARTIFACT_SHA256.items():
        assert sha256((tmp_path / name).read_bytes()) == digest, name


def test_golden_digests_hold_with_every_test_row_on_the_helper_thread(tmp_path, monkeypatch):
    """No pinned cell reaches OVERLAP_MIN_MACS, so patch it to 0: every row
    whose best genome has no drop gate is then priced on the helper thread."""
    monkeypatch.delenv("DENDREVO_SEED", raising=False)
    monkeypatch.setattr(evolve, "OVERLAP_MIN_MACS", 0)
    callers = set()
    direct = evolve.mse

    def mse(net, data, rng=None):
        callers.add(threading.get_ident())
        return direct(net, data, rng)

    monkeypatch.setattr(evolve, "mse", mse)
    cells = (
        ("grid", GRID, TRACE_SHA256),
        ("resample", RESAMPLE_CELL, RESAMPLE_TRACE_SHA256),
        ("center-band", CENTER_BAND_CELL, CENTER_BAND_TRACE_SHA256),
    )
    for name, command, digest in cells:
        out = tmp_path / name
        assert main([*command, "--out", str(out)]) == 0
        assert sha256((out / "trace.csv").read_bytes()) == digest, name
    for name, digest in GRID_ARTIFACT_SHA256.items():
        assert sha256((tmp_path / "grid" / name).read_bytes()) == digest, name
    genomes = sorted((tmp_path / "grid" / "runs").glob("*.dnet"))
    assert sha256(b"".join(p.read_bytes() for p in genomes)) == GRID_GENOMES_SHA256
    assert callers - {threading.get_ident()}, "no row reached the helper thread"
