"""dendrevo benchmark: end-to-end CLI timings and a traced per-layer run.

Usage (from the root of a checkout):

    python3 bench/run.py --workload desk-gated --seed 42 --seconds 30 --trace 0

Each workload is one client in a closed loop: the benchmark runs the
real CLI (``python -m dendrevo``, i.e. ``dendrevo.cli.main``) with
``--workers 1`` in a fresh process, waits for it to exit, then starts the
next. The workload seed becomes the CLI's ``--seed``; the program gets
nothing else from the benchmark. Children import ``dendrevo`` from this
checkout's ``src/`` through an absolute ``PYTHONPATH``, with BLAS and
OpenMP pinned to one thread.

``--trace 0`` repeats, until ``--seconds`` are used, a fresh run into an
empty ``--out``, a resume over it, and a ``--generations 0`` set-up run,
and reports the end-to-end metrics: the fastest sample of each timing
and the median peak RSS.
``--trace 1`` runs the workload untraced once (fresh and resume), then
traced through ``tracer.py`` (fresh and resume) and reports per-layer
metrics computed from the recorded spans.

Every CLI exit code and every correctness check counts as one attempted
operation; the last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
SRC = CHECKOUT / "src"
WORK = CHECKOUT / ".bench_work"
TRACER = HERE / "tracer.py"
PINS = HERE / "pins.json"

MODULES = ("nk", "net", "evolve", "harness", "svgplot", "cli")
DRIFT_TOLERANCE = 1e-12
# A child that runs longer than this is killed, so a run ends inside the
# benchmark's 180 s limit.
CHILD_TIMEOUT_S = 150.0
MIN_SAMPLES = 3


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "run" or "compare"
    variants: tuple[str, ...]
    n: int
    k: int
    generations: int
    runs: int
    pop: int = 50
    plot: bool = False
    extra: tuple[str, ...] = ()  # further CLI flags, e.g. smaller data sets

    def argv(self, seed: int, out: Path, generations: int | None = None) -> list[str]:
        gens = self.generations if generations is None else generations
        names = ",".join(self.variants)
        args = [self.command, "--variants" if self.command == "compare" else "--variant", names]
        args += [
            "--n", str(self.n), "--k", str(self.k), "--pop", str(self.pop),
            "--generations", str(gens), "--runs", str(self.runs),
            "--workers", "1", "--seed", str(seed), "--out", str(out),
            *self.extra,
        ]
        return args + ["--plot"] if self.plot else args

    @property
    def steps(self) -> int:
        """Offspring evaluated by one fresh run."""
        return len(self.variants) * self.runs * self.generations * self.pop

    @property
    def outputs(self) -> tuple[str, ...]:
        names = ["trace.csv", "summary.csv"]
        if self.command == "compare":
            names.append("compare.csv")
        if self.plot:
            names.append("trace.svg")
        return tuple(names)


# Why each workload is here, and the traced layer shares, are recorded in
# BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        # Incremental evaluator with deterministic gates; `compare` needs
        # two runs per variant.
        Workload("desk-gated", "compare", ("standard", "dendrite", "range"),
                 n=100, k=5, generations=200, runs=2, plot=True),
        # The drop-gate `score` path; its cost grows with the active drop
        # gates, and so with the generation count.
        Workload("desk-dropout", "run", ("dropout",), n=100, k=5, generations=200, runs=1),
        # Full-scale cell: 2^16-wide NK tables, 10k-gene genomes, cell I/O;
        # the generation count gives set-up and stepping similar shares.
        Workload("full-cell", "run", ("dendrite",), n=1000, k=15, generations=150, runs=1),
    )
}

# resume_s, dominated by interpreter start-up, spreads too much across
# runs on a shared 2-core host to carry a bound; it is a per-layer metric.
END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("steps_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
)

# Span name -> unit of its median-per-call metric.
TIMED_LAYERS = (
    ("nk.build_landscape", "s"),
    ("nk.generate_dataset", "s"),
    ("evolve.seed_population", "s"),
    ("evolve.full_states", "s"),
    ("evolve.tournament_select", "us"),
    ("evolve.describe_mutation", "us"),
    ("evolve.child_state", "us"),
    ("evolve.score", "us"),
    ("evolve.replace", "us"),
    ("net.count_active_gates", "us"),
    ("net.mse_test", "us"),
    ("harness.save_network", "ms"),
    ("harness.write_trace_csv", "ms"),
    ("harness.load_network", "ms"),
    ("harness.read_trace_rows", "ms"),
    ("svgplot.trace_chart", "ms"),
)
_SCALE = {"s": 1.0, "ms": 1e3, "us": 1e6}


def per_layer_units() -> list[tuple[str, str]]:
    """Every per-layer metric name with its unit, in report order."""
    names = [("resume_s", "s"), ("cli.import_s", "s"), ("cli.self_s", "s")]
    for span, unit in TIMED_LAYERS:
        names += [(f"{span}_{unit}", unit), (f"{span}.calls", "count"),
                  (f"{span}.busy_s", "s"), (f"{span}.self_s", "s")]
    names += [
        ("harness.run_cell_s_p50", "s"), ("harness.run_cell_s_max", "s"),
        ("harness.run_cell.calls", "count"), ("harness.run_cell.busy_s", "s"),
        ("harness.run_cell.self_s", "s"),
        ("nk.landscape_mb", "MiB"),
        ("harness.cache_hit_ratio", "ratio"),
        ("evolve.steps", "count"),
        ("evolve.gate_mutation_ratio", "ratio"),
        ("evolve.moved_in_ratio", "ratio"),
        ("evolve.active_gates_mean", "count"),
        ("evolve.fitness_drift_max", "mse"),
        ("trace_overhead_ratio", "ratio"),
        ("failed_ratio", "ratio"),
    ]
    names += [(f"{module}.src_lines", "lines") for module in MODULES]
    return names


# --- child processes ------------------------------------------------------------


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "DENDREVO_SEED")}
    env.update(
        PYTHONPATH=str(SRC),
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


@dataclass(frozen=True)
class Exit:
    code: int
    wall_s: float
    peak_rss_mb: float


def launch(argv: list[str], log: Path) -> Exit:
    """Run one child to completion; wall time is from spawn to reap."""
    with open(log.with_suffix(".out"), "wb") as out, open(log.with_suffix(".err"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=log.parent)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Exit(proc.returncode, wall, usage.ru_maxrss / 1024.0)


def cli_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "dendrevo", *args]


def traced_argv(spans: Path, args: list[str]) -> list[str]:
    return [sys.executable, str(TRACER), str(spans), *args]


_PROBE = """
import json, platform
import numpy, scipy
import dendrevo, dendrevo.cli
try:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    blas = f"{blas['name']} {blas['version']}"
except Exception:
    blas = "unknown"
print(json.dumps({"dendrevo": dendrevo.__file__, "python": platform.python_version(),
                  "numpy": numpy.__version__, "scipy": scipy.__version__, "blas": blas}))
"""


def preflight(work: Path) -> dict:
    """Import dendrevo the way the children will; refuse a copy from
    outside this checkout. Also fills the bytecode cache before timing."""
    if not (SRC / "dendrevo" / "__init__.py").is_file():
        raise SystemExit(f"bench: no dendrevo sources under {SRC}")
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE], env=child_env(), cwd=work,
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise SystemExit(f"bench: cannot import dendrevo from {SRC}:\n{proc.stderr}")
    info = json.loads(proc.stdout)
    if not Path(info["dendrevo"]).resolve().is_relative_to(CHECKOUT):
        raise SystemExit(f"bench: dendrevo imported from {info['dendrevo']}, outside {CHECKOUT}")
    return info


def _read_first(path: str, prefix: str = "") -> str:
    try:
        with open(path) as fh:
            for line in fh:
                if line.startswith(prefix):
                    return line.split(":", 1)[-1].strip()
    except OSError:
        pass
    return "unknown"


def machine_info(probe: dict) -> dict:
    return {
        "cpu": _read_first("/proc/cpuinfo", "model name"),
        "nproc": os.cpu_count(),
        "l3": _read_first("/sys/devices/system/cpu/cpu0/cache/index3/size"),
        **{key: probe[key] for key in ("python", "numpy", "scipy", "blas")},
    }


def src_lines() -> dict[str, int]:
    return {
        m: len((SRC / "dendrevo" / f"{m}.py").read_text().splitlines()) for m in MODULES
    }


# --- correctness checks -----------------------------------------------------------


class Checks:
    """Counts attempted and failed operations; failures go to stderr."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def __call__(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"bench: FAILED {what}", file=sys.stderr)
        return ok

    def exited(self, result: Exit, what: str, log: Path) -> bool:
        ok = self(result.code == 0, f"{what} exited with {result.code}")
        if not ok:
            err = log.with_suffix(".err")
            tail = err.read_text(errors="replace")[-2000:] if err.exists() else ""
            print(tail, file=sys.stderr)
        return ok


def read_outputs(out: Path, names: tuple[str, ...]) -> dict[str, bytes | None]:
    return {name: (out / name).read_bytes() if (out / name).exists() else None for name in names}


def check_first_run(check: Checks, wl: Workload, files: dict, pin: str | None) -> None:
    """Every cell has generations+1 rows in order, with finite MSEs in
    [0, 1]; at the pinned seed, trace.csv has the pinned digest."""
    trace = files["trace.csv"]
    if not check(trace is not None, "trace.csv was written"):
        return
    if pin is not None:
        digest = hashlib.sha256(trace).hexdigest()
        check(digest == pin, f"trace.csv sha256 {digest} != pinned {pin}")
    cells: dict[tuple[str, str], list[list[str]]] = {}
    for line in trace.decode().splitlines()[1:]:
        parts = line.split(",")
        cells.setdefault((parts[0], parts[1]), []).append(parts)
    expected = {(v, str(r)) for v in wl.variants for r in range(wl.runs)}
    check(set(cells) == expected, f"trace.csv cells {sorted(cells)} != {sorted(expected)}")
    for cell, rows in cells.items():
        gens = [int(row[2]) for row in rows]
        check(gens == list(range(wl.generations + 1)), f"cell {cell} has generations {gens[:3]}...")
        mses = [float(x) for row in rows for x in row[3:5]]
        check(
            all(math.isfinite(x) and 0.0 <= x <= 1.0 for x in mses),
            f"cell {cell} has an MSE outside [0, 1]",
        )


def generation_zero(trace: bytes) -> bytes:
    lines = trace.decode().splitlines()
    rows = [line for line in lines[1:] if line.split(",")[2] == "0"]
    return ("\n".join(lines[:1] + rows) + "\n").encode()


# --- end-to-end loop --------------------------------------------------------------


def measure(wl: Workload, seed: int, seconds: float, pin: str | None, work: Path):
    """Closed loop of fresh, resume and set-up runs; returns (metrics, checks)."""
    check = Checks()
    samples = {"fresh": [], "resume": [], "setup": []}
    rss = []
    fresh_dir, setup_dir = work / "fresh", work / "setup"
    reference: dict[str, bytes | None] = {}

    def timed(kind: str, args: list[str]) -> Exit:
        log = work / f"{kind}{len(samples[kind])}"
        result = launch(cli_argv(args), log)
        samples[kind].append(result.wall_s)
        check.exited(result, f"{kind} run", log)
        return result

    def fresh() -> None:
        shutil.rmtree(fresh_dir, ignore_errors=True)
        rss.append(timed("fresh", wl.argv(seed, fresh_dir)).peak_rss_mb)
        files = read_outputs(fresh_dir, wl.outputs)
        if reference:
            check(files == reference, "fresh run repeats the first run's bytes")
            return
        reference.update(files)
        check_first_run(check, wl, files, pin)

    def resume() -> None:
        timed("resume", wl.argv(seed, fresh_dir))
        check(read_outputs(fresh_dir, wl.outputs) == reference, "resume reproduces every output")

    def setup() -> None:
        shutil.rmtree(setup_dir, ignore_errors=True)
        timed("setup", wl.argv(seed, setup_dir, generations=0))
        trace = read_outputs(setup_dir, ("trace.csv",))["trace.csv"]
        check(
            trace is not None and trace == generation_zero(reference["trace.csv"] or b""),
            "set-up run's trace.csv equals the fresh run's generation-0 rows",
        )

    # One fresh run may use the whole budget (desk-dropout), so resume and
    # set-up get MIN_SAMPLES runs regardless; then fresh runs repeat while
    # they fit, and resume/set-up pairs fill what is left.
    deadline = time.perf_counter() + seconds
    fresh()
    while True:
        if len(samples["setup"]) >= MIN_SAMPLES:
            last = {kind: times[-1] for kind, times in samples.items()}
            remaining = deadline - time.perf_counter()
            if remaining >= sum(last.values()):
                fresh()
            elif remaining < last["resume"] + last["setup"]:
                break
        resume()
        setup()

    for kind, times in samples.items():
        print(
            f"samples: {kind} n={len(times)} min={min(times):.4f} "
            f"median={statistics.median(times):.4f} max={max(times):.4f} s"
        )
    # The fastest sample of each timing: on a shared host the speed of one
    # core drifts by up to a third over seconds to minutes, and a slowdown
    # only ever adds time, so the minimum repeats across runs better than
    # the median does.
    wall, setup_s = min(samples["fresh"]), min(samples["setup"])
    busy = wall - setup_s
    check(busy > 0, f"wall_s {wall} exceeds setup_s {setup_s}")
    metrics = {
        "wall_s": wall,
        "setup_s": setup_s,
        "steps_per_s": wl.steps / busy if busy > 0 else 0.0,
        "peak_rss_mb": statistics.median(rss),
    }
    return metrics, check


# --- traced run -------------------------------------------------------------------


class SpanStats:
    """Durations and self times per span name, over one or more span files."""

    def __init__(self) -> None:
        self.durations: dict[str, list[float]] = {}
        self.self_times: dict[str, list[float]] = {}
        self.values: dict[str, list] = {}

    def add(self, spans: list[list]) -> None:
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _cell, _value in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for idx, (name, start, end, parent, _cell, value) in enumerate(spans):
            if name == "net.mse":
                # The mse calls under seed_population are charged to seeding.
                seeding = parent >= 0 and spans[parent][0] == "evolve.seed_population"
                name = "evolve.seed_population.mse" if seeding else "net.mse_test"
            self.durations.setdefault(name, []).append(end - start)
            self.self_times.setdefault(name, []).append(end - start - child_time[idx])
            if value is not None:
                self.values.setdefault(name, []).append(value)

    def calls(self, name: str) -> int:
        return len(self.durations.get(name, ()))

    def mean_value(self, name: str) -> float:
        values = self.values.get(name)
        return statistics.fmean(values) if values else 0.0


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(stats: SpanStats, resume: SpanStats) -> dict[str, float]:
    metrics = {
        "cli.import_s": _median(stats.durations["cli.import"] + resume.durations["cli.import"]),
        "cli.self_s": _median(stats.self_times["cli.main"] + resume.self_times["cli.main"]),
    }
    for span, unit in TIMED_LAYERS:
        durations = stats.durations.get(span, []) + resume.durations.get(span, [])
        metrics[f"{span}_{unit}"] = _median(durations) * _SCALE[unit]
        metrics[f"{span}.calls"] = len(durations)
        metrics[f"{span}.busy_s"] = math.fsum(durations)
        metrics[f"{span}.self_s"] = math.fsum(
            stats.self_times.get(span, []) + resume.self_times.get(span, [])
        )
    cells = stats.durations.get("harness.run_cell", [])
    metrics.update({
        "harness.run_cell_s_p50": _median(cells),
        "harness.run_cell_s_max": max(cells, default=0.0),
        "harness.run_cell.calls": len(cells),
        "harness.run_cell.busy_s": math.fsum(cells),
        "harness.run_cell.self_s": math.fsum(stats.self_times.get("harness.run_cell", [])),
        "nk.landscape_mb": max(stats.values.get("nk.build_landscape", []), default=0.0),
    })
    hits = resume.calls("harness.load_network")
    lookups = hits + resume.calls("harness.run_cell")
    metrics.update({
        "harness.cache_hit_ratio": hits / lookups if lookups else 0.0,
        "evolve.steps": stats.calls("evolve.describe_mutation"),
        "evolve.gate_mutation_ratio": stats.mean_value("evolve.describe_mutation"),
        "evolve.moved_in_ratio": stats.mean_value("evolve.replace"),
        "evolve.active_gates_mean": stats.mean_value("net.count_active_gates"),
        "evolve.fitness_drift_max": max(stats.values.get("bench.drift_check", []), default=0.0),
    })
    return metrics


def load_spans(path: Path) -> list[list]:
    return json.loads(path.read_text())["spans"] if path.exists() else []


def measure_traced(wl: Workload, seed: int, pin: str | None, work: Path):
    """Untraced fresh run, then traced fresh and resume runs of the same
    command; returns (per-layer metrics, checks)."""
    check = Checks()
    plain_dir, traced_dir = work / "plain", work / "traced"
    log = work / "untraced"
    plain = launch(cli_argv(wl.argv(seed, plain_dir)), log)
    check.exited(plain, "untraced run", log)
    plain_files = read_outputs(plain_dir, wl.outputs)
    check_first_run(check, wl, plain_files, pin)
    log = work / "untraced-resume"
    plain_resume = launch(cli_argv(wl.argv(seed, plain_dir)), log)
    check.exited(plain_resume, "untraced resume run", log)
    check(read_outputs(plain_dir, wl.outputs) == plain_files, "resume reproduces every output")

    stats, resume = SpanStats(), SpanStats()
    walls = []
    for label, target in (("traced-fresh", stats), ("traced-resume", resume)):
        spans_path = work / f"{label}.spans.json"
        log = work / label
        result = launch(traced_argv(spans_path, wl.argv(seed, traced_dir)), log)
        walls.append(result.wall_s)
        check.exited(result, f"{label} run", log)
        target.add(load_spans(spans_path))
        check(
            read_outputs(traced_dir, wl.outputs) == plain_files,
            f"{label} outputs are byte-equal to the untraced run's",
        )
    if not check(bool(stats.durations) and bool(resume.durations), "traced runs wrote spans"):
        return {}, check

    metrics = layer_metrics(stats, resume)
    metrics["trace_overhead_ratio"] = walls[0] / plain.wall_s - 1.0
    metrics["resume_s"] = plain_resume.wall_s
    check(metrics["evolve.steps"] == wl.steps, f"evolve.steps {metrics['evolve.steps']} != {wl.steps}")
    check(
        metrics["evolve.fitness_drift_max"] <= DRIFT_TOLERANCE,
        f"fitness drift {metrics['evolve.fitness_drift_max']} > {DRIFT_TOLERANCE}",
    )
    check(metrics["harness.cache_hit_ratio"] == 1.0, "resume loads every cell from the cache")
    return metrics, check


# --- entry point -----------------------------------------------------------------


def pinned_sha(workload: str, seed: int) -> str | None:
    pins = json.loads(PINS.read_text())
    return pins["trace_sha256"].get(workload) if seed == pins["seed"] else None


def report(metrics: dict[str, float], units: list[tuple[str, str]], check: Checks, env: dict) -> dict:
    """Print every metric by name with its unit, then the JSON result line."""
    failed_ratio = check.failed / max(check.attempted, 1)
    values = {**metrics, "failed_ratio": failed_ratio}
    for name, unit in units:
        print(f"{name} = {values.get(name, 0.0)!r} {unit}")
    if "failed_ratio" not in dict(units):
        print(f"failed_ratio = {failed_ratio!r} ratio")
    print(f"env: {json.dumps(env)}")
    result = {
        "correct": check.failed == 0,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {name: {"value": values.get(name, 0.0), "unit": unit} for name, unit in units},
    }
    print(json.dumps(result))
    return result


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool, pin: str | None) -> dict:
    work = WORK / wl.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = machine_info(preflight(work))
    env.update(workload=wl.name, seed=seed, trace=int(trace))
    if trace:
        metrics, check = measure_traced(wl, seed, pin, work)
        metrics.update({f"{m}.src_lines": n for m, n in src_lines().items()})
        return report(metrics, per_layer_units(), check, env)
    metrics, check = measure(wl, seed, seconds, pin, work)
    return report(metrics, list(END_TO_END), check, env)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=[*WORKLOADS, "all"],
        help="one workload, or all of them in turn (one result line each)",
    )
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    correct = True
    for name in names:
        if len(names) > 1:
            print(f"== {name}")
        pin = pinned_sha(name, args.seed)
        result = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace), pin)
        correct = correct and result["correct"]
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
