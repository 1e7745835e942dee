"""Experiment orchestration, persistence, and the statistics layer."""

import ast
import json
import os
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
import scipy.stats

from dendrevo import harness

from dendrevo.evolve import EvoConfig, RunTrace, TraceRecord, Variant
from dendrevo.harness import (
    ExperimentSpec,
    TRACE_HEADER,
    ablation_study,
    compare,
    derive_seed,
    final_values,
    format_float,
    read_trace_rows,
    run_cell,
    run_experiment,
    summarize,
    sweep_n,
    welch_t_test,
    write_trace_csv,
)
from dendrevo.net import Network, ablate_output_gates, mse, save_network
from dendrevo.nk import Encoding, build_landscape, generate_dataset


def tiny_spec(**overrides):
    config = EvoConfig(p=6, h=2, generations=3)
    defaults = dict(
        config=config,
        n=8,
        k=2,
        variants=(Variant.STANDARD, Variant.DENDRITE_THRESHOLD),
        runs=2,
        train_size=12,
        test_size=12,
        master_seed=5,
    )
    defaults.update(overrides)
    return ExperimentSpec(**defaults)


# --- seeding and formatting ---------------------------------------------------


def test_derive_seed_is_deterministic_and_sensitive():
    assert derive_seed(42, 1, 2, 3) == derive_seed(42, 1, 2, 3)
    assert derive_seed(42, 1, 2, 3) != derive_seed(42, 1, 2, 4)
    assert derive_seed(42, 1, 2, 3) != derive_seed(43, 1, 2, 3)
    assert 0 <= derive_seed(0) < 2**64


def test_format_float_round_trips_exactly():
    values = [1 / 3, 5.34e-05, 1e-17, 0.1 + 0.2, -0.0, 2.0**-1074, 1e300]
    for v in values:
        assert float(format_float(v)) == v


# --- Welch t test -------------------------------------------------------------

# Frozen outputs of an independent high-precision implementation.
WELCH_CASES = [
    (
        [0.1, 0.2, 0.3],
        [0.2, 0.3, 0.4],
        -1.2247448713915892,
        0.28786413472669065,
    ),
    (
        [1.0, 2.0, 3.0, 4.0, 5.0],
        [2.5, 2.5, 3.5, 4.5],
        -0.29277002188455997,
        0.7786268571530446,
    ),
]


@pytest.mark.parametrize("a,b,t_want,p_want", WELCH_CASES)
def test_welch_matches_frozen_reference(a, b, t_want, p_want):
    t, p = welch_t_test(a, b)
    assert abs(t - t_want) <= 1e-9
    assert abs(p - p_want) <= 1e-9


@pytest.mark.parametrize("a,b,t_want,p_want", WELCH_CASES)
def test_welch_matches_library_route(a, b, t_want, p_want):
    t, p = welch_t_test(a, b)
    ref = scipy.stats.ttest_ind(a, b, equal_var=False)
    assert t == pytest.approx(ref.statistic, abs=1e-12)
    assert p == pytest.approx(ref.pvalue, abs=1e-12)


def test_welch_identical_samples_give_t0_p1():
    t, p = welch_t_test([0.3, 0.5, 0.9], [0.3, 0.5, 0.9])
    assert t == 0.0
    assert p == 1.0


def test_welch_is_antisymmetric():
    a, b = [0.1, 0.4, 0.3], [0.2, 0.6, 0.5]
    t_ab, p_ab = welch_t_test(a, b)
    t_ba, p_ba = welch_t_test(b, a)
    assert t_ab == -t_ba
    assert p_ab == p_ba


def test_welch_validation():
    with pytest.raises(ValueError):
        welch_t_test([1.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        welch_t_test([1.0, 1.0], [2.0, 2.0])  # both constant
    with pytest.raises(ValueError):
        welch_t_test(np.zeros((2, 2)), [1.0, 2.0])


# --- experiment grid ----------------------------------------------------------


def test_spec_validation():
    with pytest.raises(ValueError):
        tiny_spec(n=0)
    with pytest.raises(ValueError):
        tiny_spec(k=8)  # k must stay below n
    with pytest.raises(ValueError):
        tiny_spec(variants=())
    with pytest.raises(ValueError):
        tiny_spec(variants=(Variant.STANDARD, Variant.STANDARD))
    with pytest.raises(ValueError):
        tiny_spec(runs=0)
    with pytest.raises(ValueError):
        tiny_spec(train_size=0)


def test_run_cell_is_deterministic_and_cells_differ():
    spec = tiny_spec()
    a = run_cell(spec, Variant.STANDARD, 0)
    b = run_cell(spec, Variant.STANDARD, 0)
    assert [r.best_train_mse for r in a.records] == [
        r.best_train_mse for r in b.records
    ]
    c = run_cell(spec, Variant.STANDARD, 1)
    assert [r.best_train_mse for r in a.records] != [
        r.best_train_mse for r in c.records
    ]


def test_trace_csv_round_trip(tmp_path):
    spec = tiny_spec()
    trace = run_cell(spec, Variant.DENDRITE_THRESHOLD, 0)
    path = tmp_path / "trace.csv"
    write_trace_csv(path, [(Variant.DENDRITE_THRESHOLD, 0, trace)])
    rows = read_trace_rows(path)
    assert len(rows) == len(trace.records)
    for (name, run, rec), want in zip(rows, trace.records):
        assert name == "dendrite"
        assert run == 0
        assert rec == want  # 17 significant digits round-trip floats exactly


def test_read_trace_rows_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("nope\n")
    with pytest.raises(ValueError, match="header"):
        read_trace_rows(bad)
    short = tmp_path / "short.csv"
    short.write_text(TRACE_HEADER + "\nstandard,0,0\n")
    with pytest.raises(ValueError, match="fields"):
        read_trace_rows(short)


def test_run_experiment_persists_and_resumes(tmp_path):
    spec = tiny_spec()
    out = tmp_path / "exp"
    messages = []
    fresh = run_experiment(spec, out_dir=out, log=messages.append)
    assert sorted(p.name for p in (out / "runs").glob("*.trace.csv")) == [
        "dendrite-run000.trace.csv",
        "dendrite-run001.trace.csv",
        "standard-run000.trace.csv",
        "standard-run001.trace.csv",
    ]
    assert all("finished" in m for m in messages)

    messages.clear()
    again = run_experiment(spec, out_dir=out, log=messages.append)
    assert all("loaded" in m for m in messages)
    for variant in spec.variants:
        for t_fresh, t_again in zip(fresh[variant], again[variant]):
            assert [r.best_test_mse for r in t_fresh.records] == [
                r.best_test_mse for r in t_again.records
            ]
            assert np.array_equal(
                t_fresh.final_network.w_in, t_again.final_network.w_in
            )


def test_cell_files_arrive_by_rename_and_leave_no_temp_files(tmp_path, monkeypatch):
    """Cell files are renamed into place; the manifest is linked, so that
    only one run can create it."""
    published = []

    def spy(real):
        def publish(src, dst):
            published.append((real.__name__, Path(src).name, Path(dst).name))
            real(src, dst)
        return publish

    monkeypatch.setattr(harness.os, "replace", spy(os.replace))
    monkeypatch.setattr(harness.os, "link", spy(os.link))
    out = tmp_path / "exp"
    run_experiment(tiny_spec(), out_dir=out)
    cell_files = sorted(p.name for p in (out / "runs").iterdir())
    assert len(cell_files) == 8  # a trace and a genome per cell
    assert sorted(dst for how, _, dst in published if how == "replace") == cell_files
    assert [(how, dst) for how, _, dst in published if how != "replace"] == [
        ("link", "manifest.json")
    ]
    temp_names = [src for _, src, _ in published]
    assert len(set(temp_names)) == len(temp_names)
    assert all(src.startswith(dst + ".") for _, src, dst in published)
    assert list(out.rglob("*.tmp")) == []


def test_failed_atomic_write_keeps_the_old_file_and_no_temp(tmp_path):
    target = tmp_path / "cell.trace.csv"
    target.write_text("old\n")

    def fail(tmp):
        tmp.write_text("partial")
        raise OSError("disk full")

    with pytest.raises(OSError, match="disk full"):
        harness._atomic_write(target, fail)
    assert target.read_text() == "old\n"
    assert list(tmp_path.iterdir()) == [target]


def test_only_the_atomic_writer_and_the_genome_writer_write_files():
    """Every file the package writes goes through write_atomic, except the
    genome, which save_network writes to the temp path _atomic_write gives it."""

    def opens_for_writing(call):
        # open(path, mode) or Path.open(mode); no mode reads, an unknown one may write.
        first = 1 if isinstance(call.func, ast.Name) else 0
        modes = call.args[first:first + 1] + [k.value for k in call.keywords if k.arg == "mode"]
        return any(not isinstance(m, ast.Constant) or set(m.value) & set("wax+") for m in modes)

    writers = set()
    for path in sorted(Path(harness.__file__).parent.glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text())):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for call in ast.walk(func):
                if not isinstance(call, ast.Call):
                    continue
                name = getattr(call.func, "attr", getattr(call.func, "id", None))
                if name in ("write_text", "write_bytes") or (
                    name == "open" and opens_for_writing(call)
                ):
                    writers.add((path.stem, func.name))
    assert writers == {("harness", "write_atomic"), ("net", "save_network")}


def test_a_failed_cell_is_named_in_the_error(tmp_path, monkeypatch):
    def boom(spec, variant, run):
        raise ValueError("boom")

    monkeypatch.setattr(harness, "run_cell", boom)
    with pytest.raises(RuntimeError, match=r"variant=standard, run=0\): boom"):
        run_experiment(tiny_spec(), out_dir=tmp_path / "exp", workers=1)


def test_run_experiment_rejects_stale_cache(tmp_path):
    out = tmp_path / "exp"
    run_experiment(tiny_spec(), out_dir=out)
    longer = tiny_spec(config=EvoConfig(p=6, h=2, generations=5))
    with pytest.raises(ValueError, match="stale"):
        run_experiment(longer, out_dir=out)


def test_run_experiment_rejects_mismatched_genome_cache(tmp_path):
    out = tmp_path / "exp"
    run_experiment(tiny_spec(), out_dir=out)
    wider = tiny_spec(config=EvoConfig(p=6, h=3, generations=3))
    with pytest.raises(ValueError, match=r"config\.h \(2 -> 3\)"):
        run_experiment(wider, out_dir=out)


def test_cached_cell_with_a_foreign_genome_is_refused(tmp_path):
    """The per-cell check still guards a cell file swapped in by hand."""
    out = tmp_path / "exp"
    spec = tiny_spec()
    run_experiment(spec, out_dir=out)
    save_network(Network(spec.n, 3), out / "runs" / "standard-run001.dnet")
    with pytest.raises(ValueError, match="genome shape"):
        run_experiment(spec, out_dir=out)
    # Another cell's trace, of the right length, under this cell's name.
    runs = out / "runs"
    trace = (runs / "standard-run000.trace.csv").read_bytes()
    (runs / "standard-run001.trace.csv").write_bytes(trace)
    with pytest.raises(ValueError, match=r"rows do not match cell \(standard, 1\)"):
        run_experiment(spec, out_dir=out)


def test_manifest_records_every_spec_field_and_refuses_other_specs(tmp_path):
    out = tmp_path / "exp"
    spec = tiny_spec()
    run_experiment(spec, out_dir=out)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["format"] == harness.MANIFEST_FORMAT
    config_keys = {f"config.{f.name}" for f in fields(EvoConfig)}
    spec_keys = {f.name for f in fields(ExperimentSpec)} - {"config"}
    assert set(manifest["spec"]) == config_keys | spec_keys
    assert manifest["spec"]["variants"] == ["standard", "dendrite"]
    for changed in (
        tiny_spec(master_seed=6),
        tiny_spec(encoding=Encoding.CENTER_BAND),
        tiny_spec(config=EvoConfig(p=6, h=2, generations=3, r=0.2)),
    ):
        with pytest.raises(harness.SpecMismatch, match="differing fields"):
            run_experiment(changed, out_dir=out)
    assert json.loads((out / "manifest.json").read_text()) == manifest
    run_experiment(spec, out_dir=out, workers=2)  # workers are not part of the spec


def test_of_two_runs_racing_to_create_the_manifest_one_wins(tmp_path, monkeypatch):
    """Both checks find no manifest, as two runs started together into one
    --out can: the first creates it, the second is refused, not let in."""
    out = tmp_path / "exp"
    (out / "runs").mkdir(parents=True)
    real_exists = Path.exists
    monkeypatch.setattr(
        Path, "exists", lambda self: self.name != "manifest.json" and real_exists(self)
    )
    harness._check_manifest(out, tiny_spec(master_seed=1))
    with pytest.raises(harness.SpecMismatch, match=r"master_seed \(1 -> 2\)"):
        harness._check_manifest(out, tiny_spec(master_seed=2))
    assert json.loads((out / "manifest.json").read_text())["spec"]["master_seed"] == 1
    assert list(out.glob("*.tmp")) == []
    harness._check_manifest(out, tiny_spec(master_seed=1))  # the winner's own spec passes


def test_cells_without_a_manifest_are_refused(tmp_path):
    out = tmp_path / "exp"
    run_experiment(tiny_spec(), out_dir=out)
    (out / "manifest.json").unlink()
    with pytest.raises(harness.SpecMismatch, match="no manifest"):
        run_experiment(tiny_spec(), out_dir=out)
    (out / "manifest.json").write_text("{not json")
    with pytest.raises(harness.SpecMismatch, match="unreadable"):
        run_experiment(tiny_spec(), out_dir=out)


def test_run_experiment_workers_match_sequential(tmp_path):
    spec = tiny_spec()
    logs = {1: [], 2: []}
    results = {
        workers: run_experiment(
            spec, out_dir=tmp_path / f"w{workers}", workers=workers, log=logs[workers].append
        )
        for workers in (1, 2)
    }
    for variant in spec.variants:
        for a, b in zip(results[1][variant], results[2][variant]):
            assert a.records == b.records
    files = {
        workers: {
            p.relative_to(tmp_path / f"w{workers}"): p.read_bytes()
            for p in sorted((tmp_path / f"w{workers}").rglob("*"))
            if p.is_file()
        }
        for workers in (1, 2)
    }
    assert len(files[1]) == 1 + 2 * len(spec.variants) * spec.runs  # manifest, cells
    assert files[1] == files[2]
    # Each pending cell is logged once, counted 1..N; one worker goes in grid order.
    cells = [(v.value, run) for v in spec.variants for run in range(spec.runs)]
    total = len(cells)
    assert logs[1] == [
        f"finished variant={name} run={run} ({i}/{total})"
        for i, (name, run) in enumerate(cells, start=1)
    ]
    cell_logs, counts = zip(*(line.rsplit(" (", 1) for line in logs[2]))
    assert counts == tuple(f"{i}/{total})" for i in range(1, total + 1))
    assert sorted(cell_logs) == sorted(line.rsplit(" (", 1)[0] for line in logs[1])
    with pytest.raises(ValueError):
        run_experiment(spec, out_dir=tmp_path / "w0", workers=0)


# --- reports ------------------------------------------------------------------


def synthetic_trace(final_train, final_test, fraction=0.0):
    records = [
        TraceRecord(0, 0.5, 0.5, 0.0, 0.0),
        TraceRecord(1, final_train, final_test, fraction, fraction),
    ]
    return RunTrace(records=records, final_network=Network(3, 2))


def test_summarize_and_compare_math():
    result = {
        Variant.STANDARD: [synthetic_trace(0.1, 0.2), synthetic_trace(0.1, 0.4)],
        Variant.DENDRITE_THRESHOLD: [
            synthetic_trace(0.1, 0.1),
            synthetic_trace(0.1, 0.15),
        ],
    }
    report = compare(result)
    assert [s.variant for s in report.summaries] == list(result.keys())
    std = report.summaries[0]
    assert std.mean_test_mse == pytest.approx(0.3)
    assert std.min_test_mse == 0.2
    assert std.max_test_mse == 0.4
    assert std.std_test_mse == pytest.approx(np.std([0.2, 0.4], ddof=1))
    assert len(report.pairwise) == 1
    pair = report.pairwise[0]
    assert (pair.variant_a, pair.variant_b) == (
        Variant.STANDARD,
        Variant.DENDRITE_THRESHOLD,
    )
    t, p = welch_t_test([0.2, 0.4], [0.1, 0.15])
    assert pair.t_statistic == t and pair.p_value == p


def test_summarize_single_run_has_zero_std():
    summary = summarize(Variant.STANDARD, [synthetic_trace(0.1, 0.2)])
    assert summary.std_test_mse == 0.0
    assert summary.runs == 1


def test_ablation_study_mechanics(tmp_path):
    spec = tiny_spec(
        config=EvoConfig(p=6, h=2, generations=12), runs=3
    )
    result = run_experiment(spec, out_dir=tmp_path / "exp")
    report = ablation_study(spec, result=result)
    assert report.gated_test_mse.shape == (3,)
    assert report.ablated_test_mse.shape == (3,)
    assert report.standard_test_mse.shape == (3,)
    assert np.array_equal(
        report.standard_test_mse, final_values(result[Variant.STANDARD], "best_test_mse")
    )
    # recompute one gated/ablated pair by hand from the cell's own task
    from dendrevo.harness import _cell_seeds

    land_seed, _, test_seed, _ = _cell_seeds(spec, Variant.DENDRITE_THRESHOLD, 0)
    land = build_landscape(spec.n, spec.k, land_seed)
    test = generate_dataset(
        land, spec.test_size, spec.encoding, np.random.default_rng(test_seed)
    )
    net = result[Variant.DENDRITE_THRESHOLD][0].final_network
    assert report.gated_test_mse[0] == mse(net, test)
    assert report.ablated_test_mse[0] == mse(ablate_output_gates(net), test)
    assert 0.0 <= report.p_ablated_vs_standard <= 1.0


def test_ablation_study_requires_both_variants():
    spec = tiny_spec(variants=(Variant.STANDARD,))
    with pytest.raises(ValueError, match="variant"):
        ablation_study(spec, result={Variant.STANDARD: []})


def test_sweep_n_layout_and_validation(tmp_path):
    spec = tiny_spec()
    rows = sweep_n(spec, [6, 9], out_dir=tmp_path / "sweep")
    assert [row.n for row in rows] == [6] * 4 + [9] * 4
    for n in (6, 9):
        at_n = [row for row in rows if row.n == n]
        assert len(at_n) == 4  # two variants x train/test
        splits = {(row.variant, row.split) for row in at_n}
        assert len(splits) == 4
        for row in at_n:
            assert row.min <= row.mean <= row.max
    assert (tmp_path / "sweep" / "n-6" / "runs").is_dir()
    with pytest.raises(ValueError):
        sweep_n(spec, [], out_dir=tmp_path / "sweep")
    with pytest.raises(ValueError):
        sweep_n(spec, [6, 6], out_dir=tmp_path / "sweep")
    with pytest.raises(ValueError):
        sweep_n(spec, [2], out_dir=tmp_path / "sweep")  # n must exceed k
