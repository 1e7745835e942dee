"""Command-line entry points.

Subcommands: run (one variant), compare (several variants plus pairwise
t tests), sweep (input-size scan), plot (CSV to SVG), inspect (gate
placement of a saved genome). Settings resolve in precedence order:
command-line flag, then config file, then the DENDREVO_SEED environment
variable (seed only), then built-in defaults.

Exit codes: 0 on success, 1 on runtime failure, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .evolve import EvoConfig, Variant
from .harness import (
    ExperimentSpec,
    SpecMismatch,
    TRACE_HEADER,
    compare,
    format_float,
    read_trace_rows,
    run_experiment,
    sweep_n,
    write_trace_csv,
)
from .net import count_active_gates, gate_fraction, load_network
from .nk import Encoding
from . import svgplot

ENV_SEED = "DENDREVO_SEED"

SUMMARY_HEADER = (
    "variant,n,k,runs,mean_test_mse,std_test_mse,min_test_mse,"
    "max_test_mse,mean_gate_fraction"
)
COMPARE_HEADER = "variant_a,variant_b,mean_a,mean_b,t_statistic,p_value"
SWEEP_HEADER = "n,variant,split,mean,min,max"

_DEFAULT_SWEEP_N = "25,50,100,250,500,1000"


class UsageError(Exception):
    """Bad arguments or config values; exits with status 2."""


# --- settings resolution ------------------------------------------------------

_BOOL_WORDS = {
    "1": True, "true": True, "yes": True, "on": True,
    "0": False, "false": False, "no": False, "off": False,
}

_CONFIG_KEYS = {
    "n", "k", "pop", "hidden", "mutation_range", "generations", "runs",
    "train_size", "test_size", "encoding", "seed", "variant", "variants",
    "n_values", "dendrite_prob", "drop_prob", "parsimony",
    "shared_landscape", "resample_train", "workers", "out", "plot",
}


def _load_config(path: str) -> dict[str, str]:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}") from None
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _CONFIG_KEYS:
            raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
        values[key] = value.strip()
    return values


def _parse_bool(text: str, key: str) -> bool:
    try:
        return _BOOL_WORDS[text.lower()]
    except KeyError:
        raise UsageError(f"{key}: expected a boolean, got {text!r}") from None


def _parse_variant(name: str) -> Variant:
    try:
        return Variant(name)
    except ValueError:
        valid = ", ".join(v.value for v in Variant)
        raise UsageError(f"unknown variant {name!r} (choose from: {valid})") from None


def _parse_encoding(name: str) -> Encoding:
    try:
        return Encoding(name)
    except ValueError:
        valid = ", ".join(e.value for e in Encoding)
        raise UsageError(f"unknown encoding {name!r} (choose from: {valid})") from None


def _parse_int_list(text: str, what: str) -> list[int]:
    items = [piece.strip() for piece in text.split(",") if piece.strip()]
    if not items:
        raise UsageError(f"{what}: empty list")
    try:
        return [int(piece) for piece in items]
    except ValueError:
        raise UsageError(f"{what}: expected comma-separated integers, got {text!r}") from None


@dataclass
class _Resolver:
    """Applies the flag > config > environment > default precedence."""

    args: argparse.Namespace
    cfg: dict[str, str]

    def pick(self, name: str, cast, default):
        flag = getattr(self.args, name, None)
        if flag is not None:
            # Numeric flags are typed by argparse already; string flags
            # (encoding names, value lists) still need the same parse as
            # config entries.
            if isinstance(flag, str):
                return self._cast(name, flag, cast)
            return flag
        if name in self.cfg:
            return self._cast(name, self.cfg[name], cast)
        return default

    @staticmethod
    def _cast(name: str, raw: str, cast):
        try:
            return cast(raw)
        except UsageError:
            raise
        except (TypeError, ValueError):
            raise UsageError(f"{name}: bad value {raw!r}") from None

    def pick_bool(self, name: str, default: bool) -> bool:
        flag = getattr(self.args, name, None)
        if flag is not None:
            return flag
        if name in self.cfg:
            return _parse_bool(self.cfg[name], name)
        return default

    def seed(self) -> int:
        if self.args.seed is not None:
            return self.args.seed
        if "seed" in self.cfg:
            try:
                return int(self.cfg["seed"])
            except ValueError:
                raise UsageError(
                    f"config key seed: bad value {self.cfg['seed']!r}"
                ) from None
        env = os.environ.get(ENV_SEED)
        if env is not None:
            try:
                return int(env)
            except ValueError:
                raise UsageError(f"{ENV_SEED} must be an integer, got {env!r}") from None
        return 42


def _resolver(args: argparse.Namespace) -> _Resolver:
    cfg = _load_config(args.config) if getattr(args, "config", None) else {}
    return _Resolver(args, cfg)


def _experiment_spec(res: _Resolver, variants: tuple[Variant, ...]) -> ExperimentSpec:
    try:
        config = EvoConfig(
            p=res.pick("pop", int, 50),
            h=res.pick("hidden", int, 10),
            r=res.pick("mutation_range", float, 0.1),
            generations=res.pick("generations", int, 1000),
            variant=variants[0],
            dendrite_mutation_prob=res.pick("dendrite_prob", float, 0.5),
            parsimony=res.pick_bool("parsimony", True),
            drop_prob=res.pick("drop_prob", float, 0.5),
            resample_train_each_generation=res.pick_bool("resample_train", False),
        )
        return ExperimentSpec(
            config=config,
            n=res.pick("n", int, 1000),
            k=res.pick("k", int, 15),
            variants=variants,
            runs=res.pick("runs", int, 20),
            train_size=res.pick("train_size", int, 1000),
            test_size=res.pick("test_size", int, 1000),
            encoding=res.pick("encoding", _parse_encoding, Encoding.SIGN_SPLIT),
            master_seed=res.seed(),
            shared_landscape=res.pick_bool("shared_landscape", False),
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _out_dir(res: _Resolver) -> Path:
    out = Path(res.pick("out", str, "dendrevo-out"))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_text(path: Path, text: str) -> None:
    path.write_text(text)
    print(f"wrote {path}")


def _write_rows(path: Path, header: str, rows: list[list[str]]) -> None:
    lines = [header] + [",".join(row) for row in rows]
    _write_text(path, "\n".join(lines) + "\n")


def _write_aggregate_trace(out: Path, spec: ExperimentSpec, result) -> Path:
    cells = [
        (variant, run, result[variant][run])
        for variant in spec.variants
        for run in range(spec.runs)
    ]
    path = out / "trace.csv"
    write_trace_csv(path, cells)
    print(f"wrote {path}")
    return path


def _write_summary(out: Path, spec: ExperimentSpec, report) -> None:
    rows = [
        [
            s.variant.value,
            str(spec.n),
            str(spec.k),
            str(s.runs),
            format_float(s.mean_test_mse),
            format_float(s.std_test_mse),
            format_float(s.min_test_mse),
            format_float(s.max_test_mse),
            format_float(s.mean_gate_fraction),
        ]
        for s in report.summaries
    ]
    _write_rows(out / "summary.csv", SUMMARY_HEADER, rows)


def _log(message: str) -> None:
    print(message, file=sys.stderr)


def _maybe_plot_trace(res: _Resolver, out: Path, trace_path: Path) -> None:
    if res.pick_bool("plot", False):
        svg = svgplot.trace_chart(read_trace_rows(trace_path))
        _write_text(out / "trace.svg", svg)


# --- subcommands --------------------------------------------------------------


def _cmd_run(args: argparse.Namespace) -> int:
    res = _resolver(args)
    variant = _parse_variant(res.pick("variant", str, "dendrite"))
    spec = _experiment_spec(res, (variant,))
    out = _out_dir(res)
    workers = res.pick("workers", int, 1)
    result = run_experiment(spec, out_dir=out, workers=workers, log=_log)
    report = compare(result)
    trace_path = _write_aggregate_trace(out, spec, result)
    _write_summary(out, spec, report)
    for s in report.summaries:
        print(
            f"{s.variant.value}: runs={s.runs} mean_test_mse={s.mean_test_mse:.6g} "
            f"min={s.min_test_mse:.6g} max={s.max_test_mse:.6g} "
            f"gate_fraction={s.mean_gate_fraction:.6g}"
        )
    _maybe_plot_trace(res, out, trace_path)
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    res = _resolver(args)
    names = res.pick("variants", str, "standard,dendrite")
    variants = tuple(_parse_variant(name.strip()) for name in names.split(",") if name.strip())
    if len(variants) < 2:
        raise UsageError("compare needs at least two variants")
    if len(set(variants)) != len(variants):
        raise UsageError("compare variants must be distinct")
    spec = _experiment_spec(res, variants)
    if spec.runs < 2:
        raise UsageError("pairwise tests need at least two runs per variant")
    out = _out_dir(res)
    workers = res.pick("workers", int, 1)
    result = run_experiment(spec, out_dir=out, workers=workers, log=_log)
    report = compare(result)
    trace_path = _write_aggregate_trace(out, spec, result)
    _write_summary(out, spec, report)
    rows = [
        [
            pair.variant_a.value,
            pair.variant_b.value,
            format_float(pair.mean_a),
            format_float(pair.mean_b),
            format_float(pair.t_statistic),
            format_float(pair.p_value),
        ]
        for pair in report.pairwise
    ]
    _write_rows(out / "compare.csv", COMPARE_HEADER, rows)
    for pair in report.pairwise:
        print(
            f"{pair.variant_a.value} vs {pair.variant_b.value}: "
            f"mean {pair.mean_a:.6g} vs {pair.mean_b:.6g}, "
            f"t={pair.t_statistic:.4g}, p={pair.p_value:.4g}"
        )
    _maybe_plot_trace(res, out, trace_path)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    res = _resolver(args)
    n_values = res.pick(
        "n_values", lambda s: _parse_int_list(s, "n_values"), None
    )
    if n_values is None:
        n_values = _parse_int_list(_DEFAULT_SWEEP_N, "n_values")
    spec = _experiment_spec(res, (Variant.STANDARD, Variant.DENDRITE_THRESHOLD))
    out = _out_dir(res)
    workers = res.pick("workers", int, 1)
    try:
        points = sweep_n(spec, n_values, out_dir=out, workers=workers, log=_log)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    rows = [
        [
            str(row.n),
            row.variant.value,
            row.split,
            format_float(row.mean),
            format_float(row.min),
            format_float(row.max),
        ]
        for point in points
        for row in point.rows
    ]
    _write_rows(out / "sweep.csv", SWEEP_HEADER, rows)
    for point in points:
        for s in point.report.summaries:
            print(
                f"n={point.n} {s.variant.value}: mean_test_mse={s.mean_test_mse:.6g} "
                f"min={s.min_test_mse:.6g} max={s.max_test_mse:.6g}"
            )
    if res.pick_bool("plot", False):
        tuples = [
            (row.n, row.variant.value, row.split, row.mean, row.min, row.max)
            for point in points
            for row in point.rows
        ]
        _write_text(out / "sweep.svg", svgplot.sweep_chart(tuples))
    return 0


def _read_sweep_rows(path: Path) -> list[tuple[int, str, str, float, float, float]]:
    lines = path.read_text().splitlines()
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 6:
            raise ValueError(f"{path}:{lineno}: expected 6 fields, got {len(parts)}")
        try:
            rows.append(
                (
                    int(parts[0]), parts[1], parts[2],
                    float(parts[3]), float(parts[4]), float(parts[5]),
                )
            )
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
    return rows


def _cmd_plot(args: argparse.Namespace) -> int:
    src = Path(args.input)
    if not src.exists():
        raise FileNotFoundError(f"no such file: {src}")
    header = src.read_text().splitlines()
    header = header[0] if header else ""
    if header == TRACE_HEADER:
        rows = read_trace_rows(src)
        if not rows:
            raise ValueError(f"{src}: no data rows")
        svg = svgplot.trace_chart(rows)
    elif header == SWEEP_HEADER:
        rows = _read_sweep_rows(src)
        if not rows:
            raise ValueError(f"{src}: no data rows")
        svg = svgplot.sweep_chart(rows)
    else:
        raise ValueError(
            f"{src}: unrecognized header; expected a trace or sweep CSV"
        )
    dest = Path(args.out)
    if dest.parent and not dest.parent.exists():
        dest.parent.mkdir(parents=True, exist_ok=True)
    _write_text(dest, svg)
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    net = load_network(args.genome)
    total, (in_count, out_count) = count_active_gates(net)
    print(f"n = {net.n}")
    print(f"hidden_nodes = {net.h}")
    print(f"active_gates_total = {total}")
    print(f"active_gates_input_layer = {in_count}")
    print(f"active_gates_output_layer = {out_count}")
    print(f"gate_fraction_of_gateable = {format_float(gate_fraction(net))}")
    print(f"gate_fraction_of_parameters = {format_float(total / net.param_count)}")
    input_counts = np.count_nonzero(net.gate_kind_in, axis=1)
    for j in range(net.h):
        print(f"input_gates[{j}] = {int(input_counts[j])}")
    for j in range(net.h):
        print(f"output_gated[{j}] = {int(net.gate_kind_out[j] != 0)}")
    return 0


# --- parser -------------------------------------------------------------------


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="settings file with 'key = value' lines")
    sub.add_argument("--seed", type=int, help="master seed (beats config and env)")
    sub.add_argument("--out", help="output directory (default dendrevo-out)")
    sub.add_argument("--workers", type=int, help="parallel worker processes")
    sub.add_argument(
        "--plot", action="store_true", default=None, help="also write an SVG chart"
    )


def _add_experiment_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--n", type=int, help="inputs per sample (default 1000)")
    sub.add_argument("--k", type=int, help="epistatic neighbors per gene (default 15)")
    sub.add_argument("--pop", type=int, help="population size (default 50)")
    sub.add_argument("--hidden", type=int, help="hidden nodes (default 10)")
    sub.add_argument(
        "--mutation-range", dest="mutation_range", type=float,
        help="weight perturbation half-width (default 0.1)",
    )
    sub.add_argument("--generations", type=int, help="generations (default 1000)")
    sub.add_argument("--runs", type=int, help="independent runs (default 20)")
    sub.add_argument("--train-size", dest="train_size", type=int)
    sub.add_argument("--test-size", dest="test_size", type=int)
    sub.add_argument("--encoding", help="signsplit or centerband")
    sub.add_argument(
        "--dendrite-prob", dest="dendrite_prob", type=float,
        help="probability a mutation hits a gate instead of a weight (default 0.5)",
    )
    sub.add_argument(
        "--drop-prob", dest="drop_prob", type=float,
        help="blocking probability of dropout gates (default 0.5)",
    )
    sub.add_argument(
        "--no-parsimony", dest="parsimony", action="store_false", default=None,
        help="disable the fewer-gates tie-breaker at replacement",
    )
    sub.add_argument(
        "--shared-landscape", dest="shared_landscape", action="store_true",
        default=None, help="one landscape for every cell instead of one per run",
    )
    sub.add_argument(
        "--resample-train", dest="resample_train", action="store_true", default=None,
        help="draw a fresh training set every generation",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dendrevo",
        description="neuroevolution of gated networks on epistatic regression tasks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="evolve one variant and write trace/summary CSVs")
    p_run.add_argument("--variant", help="standard, dendrite, range, or dropout")
    _add_experiment_flags(p_run)
    _add_common(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_cmp = sub.add_parser("compare", help="run several variants plus pairwise t tests")
    p_cmp.add_argument("--variants", help="comma-separated variant names")
    _add_experiment_flags(p_cmp)
    _add_common(p_cmp)
    p_cmp.set_defaults(func=_cmd_compare)

    p_swp = sub.add_parser("sweep", help="standard vs dendrite across input sizes")
    p_swp.add_argument(
        "--n-values", dest="n_values", help="comma-separated input sizes"
    )
    _add_experiment_flags(p_swp)
    _add_common(p_swp)
    p_swp.set_defaults(func=_cmd_sweep)

    p_plt = sub.add_parser("plot", help="render a trace or sweep CSV as SVG")
    p_plt.add_argument("--input", required=True, help="trace.csv or sweep.csv")
    p_plt.add_argument("--out", required=True, help="SVG path to write")
    p_plt.set_defaults(func=_cmd_plot)

    p_ins = sub.add_parser("inspect", help="report a saved genome's gate placement")
    p_ins.add_argument("--genome", required=True, help="genome file to inspect")
    p_ins.set_defaults(func=_cmd_inspect)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except SpecMismatch as exc:  # a resume under a different spec
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
