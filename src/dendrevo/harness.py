"""Multi-run experiment orchestration.

An experiment is a grid of independent evolution runs: every (variant,
run index) cell gets its own landscape, train/test datasets, and random
stream, all derived from one master seed. Derivation is positional, so
cell results never depend on execution order or worker count, and a
finished cell can be reloaded from disk instead of recomputed.
"""

from __future__ import annotations

import json
import math
import os
import secrets
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, fields, replace as dc_replace
from enum import Enum
from itertools import combinations
from multiprocessing import get_context
from operator import attrgetter
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.special import betainc

from .evolve import EvoConfig, RunTrace, TraceRecord, Variant, run_evolution
from .net import Network, ablate_output_gates, format_network, load_network, mse
# generate_dataset is bound here, though unused, for bench/tracer.py to patch.
from .nk import Dataset, Encoding, NKLandscape, build_landscape, generate_dataset, generate_datasets

TRACE_HEADER = ",".join(["variant", "run", *(f.name for f in fields(TraceRecord))])
_record_values = attrgetter(*(f.name for f in fields(TraceRecord)))

# Entropy tags for per-cell stream derivation. A cell's streams are keyed
# by (master, n, k, variant code, run index, tag).
_STREAM_LANDSCAPE = 0
_STREAM_TRAIN = 1
_STREAM_TEST = 2
_STREAM_EVOLVE = 3

_VARIANT_CODE = {
    Variant.STANDARD: 0,
    Variant.DENDRITE_THRESHOLD: 1,
    Variant.DENDRITE_RANGE: 2,
    Variant.RANDOM_DROPOUT: 3,
}

_MASK64 = (1 << 64) - 1

# Version of out/manifest.json; bump it when a cell file's format changes.
MANIFEST_FORMAT = 1

Logger = Callable[[str], None]
ExperimentResult = dict[Variant, list[RunTrace]]


def format_float(x: float) -> str:
    """17 significant digits: enough to round-trip any float exactly."""
    return format(float(x), ".17g")


def csv_row(*values) -> str:
    """Floats by :func:`format_float`, enums by value, the rest by str."""
    return ",".join([
        format_float(v) if isinstance(v, float) else v.value if isinstance(v, Enum) else str(v)
        for v in values
    ])


def derive_seed(master_seed: int, *parts: int) -> int:
    """Collapse a key path into one 64-bit stream seed."""
    entropy = [master_seed & _MASK64] + [int(p) & _MASK64 for p in parts]
    return int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything needed to reproduce an experiment from scratch."""

    config: EvoConfig
    n: int = 1000
    k: int = 15
    variants: tuple[Variant, ...] = (Variant.STANDARD, Variant.DENDRITE_THRESHOLD)
    runs: int = 20
    train_size: int = 1000
    test_size: int = 1000
    encoding: Encoding = Encoding.SIGN_SPLIT
    master_seed: int = 42

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be positive")
        if not 0 <= self.k <= self.n - 1:
            raise ValueError(f"k must lie in [0, n-1], got k={self.k} with n={self.n}")
        if not self.variants:
            raise ValueError("need at least one variant")
        if len(set(self.variants)) != len(self.variants):
            raise ValueError("variants must be distinct")
        if self.runs < 1:
            raise ValueError("need at least one run")
        if self.train_size < 1 or self.test_size < 1:
            raise ValueError("train and test sets must be nonempty")


def _cell_seeds(
    spec: ExperimentSpec, variant: Variant, run: int
) -> tuple[int, int, int, int]:
    base = (spec.n, spec.k, _VARIANT_CODE[variant], run)
    return (
        derive_seed(spec.master_seed, *base, _STREAM_LANDSCAPE),
        derive_seed(spec.master_seed, *base, _STREAM_TRAIN),
        derive_seed(spec.master_seed, *base, _STREAM_TEST),
        derive_seed(spec.master_seed, *base, _STREAM_EVOLVE),
    )


def cell_task(
    spec: ExperimentSpec, variant: Variant, run: int
) -> tuple[NKLandscape, Dataset, Dataset]:
    """One (variant, run) cell's landscape, train set and test set, each set
    drawn from its own stream, so a set's bytes do not depend on the other."""
    land_seed, train_seed, test_seed, _ = _cell_seeds(spec, variant, run)
    landscape = build_landscape(spec.n, spec.k, land_seed)
    train, test = generate_datasets(
        landscape,
        spec.encoding,
        (spec.train_size, np.random.default_rng(train_seed)),
        (spec.test_size, np.random.default_rng(test_seed)),
    )
    return landscape, train, test


def run_cell(spec: ExperimentSpec, variant: Variant, run: int) -> RunTrace:
    """Execute one (variant, run) cell of the grid."""
    config = dc_replace(spec.config, variant=variant)
    rng = np.random.default_rng(_cell_seeds(spec, variant, run)[3])
    return run_evolution(config, *cell_task(spec, variant, run), rng)


# --- per-cell persistence ---------------------------------------------------


def write_atomic(path: str | Path, text: str, exclusive: bool = False) -> None:
    """Write ``text`` as UTF-8 to a temp file beside ``path``, fsync it,
    rename it over ``path`` and fsync the directory, so readers see the old
    file or the whole new one, also after a power loss; every file the
    package writes goes through here. The pid and a random token keep
    concurrent writers' temp names apart. ``exclusive`` links the temp file
    to ``path`` instead, which raises FileExistsError if ``path`` exists."""
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.{secrets.token_hex(4)}.tmp")
    try:
        with tmp.open("w", encoding="utf-8") as file:
            file.write(text)
            file.flush()
            os.fsync(file.fileno())
        (os.link if exclusive else os.replace)(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    directory = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(directory)
    finally:
        os.close(directory)


def save_network(net: Network, path: str | Path) -> None:
    """Write ``net``'s genome export to ``path``."""
    write_atomic(path, format_network(net))


def write_csv(path: str | Path, header: str, rows) -> None:
    """``header``, then one line per already formatted row."""
    write_atomic(path, "\n".join([header, *rows]) + "\n")


def write_trace_csv(
    path: str | Path, cells: list[tuple[Variant, int, RunTrace]]
) -> None:
    """One row per (cell, generation), cells in the given order."""
    rows = []
    for variant, run, trace in cells:
        prefix = csv_row(variant, run, "")  # "variant,run," once per cell
        rows += [prefix + csv_row(*_record_values(rec)) for rec in trace.records]
    write_csv(path, TRACE_HEADER, rows)


def read_csv_rows(path: str | Path, header: str, casts) -> list[tuple]:
    """Parse a CSV written under ``header``: one tuple per data row, field
    i passed through ``casts[i]``. A float must be finite, as every float
    the package writes is."""
    path = Path(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"{path}: unexpected header; expected {header!r}")
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != len(casts):
            raise ValueError(f"{path}:{lineno}: expected {len(casts)} fields, got {len(parts)}")
        try:
            row = tuple(cast(part) for cast, part in zip(casts, parts))
            for part, value in zip(parts, row):
                if isinstance(value, float) and not math.isfinite(value):
                    raise ValueError(f"value {part!r} is not finite")
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
        rows.append(row)
    return rows


def read_trace_rows(path: str | Path) -> list[tuple[str, int, TraceRecord]]:
    """Parse a trace CSV back into (variant name, run, record) rows."""
    casts = (str, int, int, float, float, float, float)
    return [
        (name, run, TraceRecord(*values))
        for name, run, *values in read_csv_rows(path, TRACE_HEADER, casts)
    ]


def _cell_paths(runs_dir: Path, variant: Variant, run: int) -> tuple[Path, Path]:
    stem = f"{variant.value}-run{run:03d}"
    return runs_dir / f"{stem}.trace.csv", runs_dir / f"{stem}.dnet"


class SpecMismatch(ValueError):
    """An output directory holds cells of a different experiment."""


def _spec_fields(spec: ExperimentSpec) -> dict[str, object]:
    """Every ExperimentSpec and EvoConfig field as a JSON value; config
    fields are keyed ``config.<name>``."""

    def plain(value):
        if isinstance(value, Enum):
            return value.value
        if isinstance(value, tuple):
            return [plain(v) for v in value]
        return value

    flat = {f"config.{f.name}": plain(getattr(spec.config, f.name)) for f in fields(EvoConfig)}
    for f in fields(ExperimentSpec):
        if f.name != "config":
            flat[f.name] = plain(getattr(spec, f.name))
    return flat


def _check_manifest(out_dir: Path, spec: ExperimentSpec) -> None:
    """Write out_dir/manifest.json on first use; refuse a directory whose
    manifest records a different spec, or that holds cells without one."""
    path = out_dir / "manifest.json"
    want = {"format": MANIFEST_FORMAT, "spec": _spec_fields(spec)}
    if not path.exists():
        if any((out_dir / "runs").glob("*.trace.csv")):
            raise SpecMismatch(
                f"{out_dir} holds cells but no manifest.json to match them to "
                "this experiment; use a fresh --out"
            )
        try:  # exclusive: of two runs that both got here, one creates it
            write_atomic(path, json.dumps(want, indent=2, sort_keys=True) + "\n", True)
            return
        except FileExistsError:
            pass  # the other run's manifest: compare specs below
    try:
        have = json.loads(path.read_text(encoding="utf-8"))
        recorded = {"format": have["format"], **have["spec"]}
    except (ValueError, KeyError, TypeError):
        raise SpecMismatch(f"{path} is unreadable; use a fresh --out") from None
    current = {"format": MANIFEST_FORMAT, **want["spec"]}
    differing = [
        f"{name} ({recorded.get(name)!r} -> {current.get(name)!r})"
        for name in sorted(recorded.keys() | current.keys())
        if recorded.get(name) != current.get(name)
    ]
    if differing:
        raise SpecMismatch(
            f"{out_dir} holds stale outputs of a different experiment; differing "
            f"fields: {', '.join(differing)}. Use a fresh --out or remove it."
        )


def _load_cached_cell(
    runs_dir: Path, spec: ExperimentSpec, variant: Variant, run: int
) -> RunTrace | None:
    """Reload a finished cell; None if absent, ValueError if inconsistent."""
    csv_path, dnet_path = _cell_paths(runs_dir, variant, run)
    if not csv_path.exists() or not dnet_path.exists():
        return None
    rows = read_trace_rows(csv_path)
    expected = spec.config.generations + 1
    if len(rows) != expected:
        raise ValueError(
            f"{csv_path}: has {len(rows)} records but the requested configuration "
            f"produces {expected}; remove stale outputs or use a fresh --out"
        )
    for idx, (name, row_run, rec) in enumerate(rows):
        if name != variant.value or row_run != run or rec.generation != idx:
            raise ValueError(f"{csv_path}: rows do not match cell ({variant.value}, {run})")
    network = load_network(dnet_path)
    if network.n != spec.n or network.h != spec.config.h:
        raise ValueError(
            f"{dnet_path}: genome shape ({network.n}, {network.h}) does not match "
            f"the requested (n={spec.n}, h={spec.config.h})"
        )
    return RunTrace(records=[rec for _, _, rec in rows], final_network=network)


def _run_and_store(spec: ExperimentSpec, variant: Variant, run: int, runs_dir: Path) -> RunTrace:
    """Worker entry point; wraps failures with the cell identity."""
    try:
        trace = run_cell(spec, variant, run)
        csv_path, dnet_path = _cell_paths(runs_dir, variant, run)
        # Genome first: the trace file is the completion marker.
        save_network(trace.final_network, dnet_path)
        write_trace_csv(csv_path, [(variant, run, trace)])
        return trace
    except Exception as exc:
        raise RuntimeError(
            f"run failed (variant={variant.value}, run={run}): {exc}"
        ) from exc


def _finish_cells(spec: ExperimentSpec, pending: list, runs_dir: Path, workers: int):
    """Yield ((variant, run), trace) for each pending cell as it finishes:
    lazily in grid order in this process, or in completion order from a
    pool of ``workers`` processes when more than one cell is pending."""
    if workers == 1 or len(pending) <= 1:
        for variant, run in pending:
            yield (variant, run), _run_and_store(spec, variant, run, runs_dir)
        return
    with ProcessPoolExecutor(max_workers=workers, mp_context=get_context("spawn")) as pool:
        futures = {pool.submit(_run_and_store, spec, *cell, runs_dir): cell for cell in pending}
        for future in as_completed(futures):
            yield futures[future], future.result()


def run_experiment(
    spec: ExperimentSpec,
    out_dir: str | Path,
    workers: int = 1,
    log: Logger | None = None,
) -> ExperimentResult:
    """Run (or resume) every cell and return traces in grid order.

    Each finished cell leaves a trace CSV and a genome file under
    out_dir/runs/; on a rerun those cells are loaded instead of
    recomputed. out_dir/manifest.json records the spec, and a rerun
    under a different spec raises :class:`SpecMismatch` naming the
    differing fields. workers > 1 spreads pending cells over processes;
    results are identical either way because every cell is self-seeded.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    runs_dir = Path(out_dir) / "runs"
    runs_dir.mkdir(parents=True, exist_ok=True)
    _check_manifest(Path(out_dir), spec)

    done: dict[tuple[Variant, int], RunTrace] = {}
    pending: list[tuple[Variant, int]] = []
    for variant in spec.variants:
        for run in range(spec.runs):
            cached = _load_cached_cell(runs_dir, spec, variant, run)
            if cached is not None:
                done[(variant, run)] = cached
                if log:
                    log(f"loaded variant={variant.value} run={run} from {runs_dir}")
            else:
                pending.append((variant, run))

    finished = _finish_cells(spec, pending, runs_dir, workers)
    for count, ((variant, run), trace) in enumerate(finished, start=1):
        done[(variant, run)] = trace
        if log:
            log(f"finished variant={variant.value} run={run} ({count}/{len(pending)})")
    return {
        variant: [done[(variant, run)] for run in range(spec.runs)]
        for variant in spec.variants
    }


# --- statistics and reports -------------------------------------------------


def welch_t_test(a, b) -> tuple[float, float]:
    """Unequal-variance t test; returns (t, two-sided p).

    p comes from the regularized incomplete beta function:
    p = I_{df/(df+t^2)}(df/2, 1/2) with the Welch-Satterthwaite df,
    so t = 0 gives exactly p = 1 and swapping the samples negates t
    without changing p.
    """
    x = np.asarray(a, dtype=np.float64)
    y = np.asarray(b, dtype=np.float64)
    if x.ndim != 1 or y.ndim != 1:
        raise ValueError("samples must be one-dimensional")
    if len(x) < 2 or len(y) < 2:
        raise ValueError("each sample needs at least two observations")
    vx = float(x.var(ddof=1))
    vy = float(y.var(ddof=1))
    if vx == 0.0 and vy == 0.0:
        raise ValueError("both samples are constant; the t statistic is undefined")
    sx = vx / len(x)
    sy = vy / len(y)
    se2 = sx + sy
    t = (float(x.mean()) - float(y.mean())) / np.sqrt(se2)
    df = se2 * se2 / (sx * sx / (len(x) - 1) + sy * sy / (len(y) - 1))
    p = float(betainc(df / 2.0, 0.5, df / (df + t * t)))
    return float(t), p


def final_values(traces: list[RunTrace], field: str) -> np.ndarray:
    """Each run's last trace record's ``field``, e.g. ``"best_test_mse"``."""
    return np.array([getattr(t.records[-1], field) for t in traces])


@dataclass(frozen=True)
class VariantSummary:
    variant: Variant
    runs: int
    mean_test_mse: float
    std_test_mse: float
    min_test_mse: float
    max_test_mse: float
    mean_gate_fraction: float


@dataclass(frozen=True)
class PairwiseResult:
    variant_a: Variant
    variant_b: Variant
    mean_a: float
    mean_b: float
    t_statistic: float
    p_value: float


@dataclass(frozen=True)
class ComparisonReport:
    summaries: list[VariantSummary]
    pairwise: list[PairwiseResult]


def summarize(variant: Variant, traces: list[RunTrace]) -> VariantSummary:
    errs = final_values(traces, "best_test_mse")
    return VariantSummary(
        variant=variant,
        runs=len(traces),
        mean_test_mse=float(errs.mean()),
        std_test_mse=float(errs.std(ddof=1)) if len(errs) > 1 else 0.0,
        min_test_mse=float(errs.min()),
        max_test_mse=float(errs.max()),
        mean_gate_fraction=float(final_values(traces, "best_gate_fraction").mean()),
    )


def compare(result: ExperimentResult) -> ComparisonReport:
    """Per-variant summaries plus Welch tests on final test error for
    every variant pair, in the result's variant order."""
    summaries = [summarize(v, traces) for v, traces in result.items()]
    pairwise = []
    for va, vb in combinations(result.keys(), 2):
        ea = final_values(result[va], "best_test_mse")
        eb = final_values(result[vb], "best_test_mse")
        t, p = welch_t_test(ea, eb)
        pairwise.append(
            PairwiseResult(va, vb, float(ea.mean()), float(eb.mean()), t, p)
        )
    return ComparisonReport(summaries=summaries, pairwise=pairwise)


@dataclass(frozen=True)
class AblationReport:
    """Test error of evolved threshold-gated genomes before and after
    forcing every output-layer gate off, against plain-MLP finals."""

    gated_test_mse: np.ndarray
    ablated_test_mse: np.ndarray
    standard_test_mse: np.ndarray
    t_gated_vs_standard: float
    p_gated_vs_standard: float
    t_ablated_vs_standard: float
    p_ablated_vs_standard: float


def ablation_study(spec: ExperimentSpec, result: ExperimentResult) -> AblationReport:
    """Re-evaluate the final threshold-variant genomes of ``result`` (the
    grid of ``spec``) with output gates cut.

    Each genome is scored on its own run's test set, which is rebuilt
    by :func:`cell_task`, so a cached experiment can be ablated without
    rerunning evolution.
    """
    needed = (Variant.STANDARD, Variant.DENDRITE_THRESHOLD)
    if any(v not in spec.variants for v in needed):
        raise ValueError("ablation needs both the standard and dendrite variants")
    gated, ablated = [], []
    for run, trace in enumerate(result[Variant.DENDRITE_THRESHOLD]):
        _, _, test = cell_task(spec, Variant.DENDRITE_THRESHOLD, run)
        net = trace.final_network
        gated.append(mse(net, test))
        ablated.append(mse(ablate_output_gates(net), test))
    gated_arr = np.array(gated)
    ablated_arr = np.array(ablated)
    standard = final_values(result[Variant.STANDARD], "best_test_mse")
    tg, pg = welch_t_test(gated_arr, standard)
    ta, pa = welch_t_test(ablated_arr, standard)
    return AblationReport(
        gated_test_mse=gated_arr,
        ablated_test_mse=ablated_arr,
        standard_test_mse=standard,
        t_gated_vs_standard=tg,
        p_gated_vs_standard=pg,
        t_ablated_vs_standard=ta,
        p_ablated_vs_standard=pa,
    )


@dataclass(frozen=True)
class SweepRow:
    n: int
    variant: Variant
    split: str  # "train" or "test"
    mean: float
    min: float
    max: float


def sweep_n(
    spec: ExperimentSpec,
    n_values: list[int],
    out_dir: str | Path,
    workers: int = 1,
    log: Logger | None = None,
) -> list[SweepRow]:
    """The spec's variants at each input size, k fixed.

    Every n gets its own grid of cells (seeds include n, so cells are
    independent across sizes). Rows carry train and test means with
    min/max bars, two per variant per n, in (n, variant, split) order.
    """
    if not n_values:
        raise ValueError("need at least one n value")
    if len(set(n_values)) != len(n_values):
        raise ValueError("n values must be distinct")
    if min(n_values) <= spec.k:
        raise ValueError(
            f"every n must exceed k={spec.k}; got n={min(n_values)}"
        )
    rows = []
    for n in n_values:
        sub_dir = Path(out_dir) / f"n-{n}"
        result = run_experiment(dc_replace(spec, n=n), out_dir=sub_dir, workers=workers, log=log)
        for variant in spec.variants:
            for split in ("train", "test"):
                errs = final_values(result[variant], f"best_{split}_mse")
                rows.append(
                    SweepRow(
                        n=n,
                        variant=variant,
                        split=split,
                        mean=float(errs.mean()),
                        min=float(errs.min()),
                        max=float(errs.max()),
                    )
                )
    return rows
