"""Command-line entry points.

Subcommands: run (one variant), compare (several variants plus pairwise
t tests), sweep (input-size scan), plot (CSV to SVG), inspect (gate
placement of a saved genome). Settings resolve in precedence order:
command-line flag, then config file, then the defaults of the dataclasses
they fill. A config key is accepted exactly when its command has that flag.

Exit codes: 0 on success, 1 on runtime failure, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import MISSING, astuple, dataclass, fields
from enum import Enum
from pathlib import Path

import numpy as np

from .evolve import EvoConfig, Variant
from .harness import (
    TRACE_HEADER,
    ExperimentSpec,
    PairwiseResult,
    SpecMismatch,
    SweepRow,
    VariantSummary,
    compare,
    csv_row,
    format_float,
    read_csv_rows,
    read_trace_rows,
    run_experiment,
    sweep_n,
    write_atomic,
    write_csv,
    write_trace_csv,
)
from .net import count_active_gates, load_network
from . import svgplot

# Each report's columns are its dataclass's fields; summary.csv adds the
# grid's n and k after the variant.
SUMMARY_HEADER = ",".join(["variant", "n", "k", *(f.name for f in fields(VariantSummary)[1:])])
COMPARE_HEADER = ",".join(f.name for f in fields(PairwiseResult))
SWEEP_HEADER = ",".join(f.name for f in fields(SweepRow))
_SWEEP_CASTS = (int, str, str, float, float, float)


class UsageError(Exception):
    """Bad arguments or config values; exits with status 2."""


@dataclass(frozen=True)
class RunOptions:
    """How a command runs and where it writes, beside the experiment."""

    workers: int = 1
    out: str = "dendrevo-out"
    plot: bool = False

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be >= 1")


# --- the settings table -------------------------------------------------------

# One row per setting: config key, the field it fills, help text. The flag
# is --key with dashes, and a bool flag switches its False default on. A
# field is an ExperimentSpec field, "config.<EvoConfig field>" or
# "run.<RunOptions field>"; its default is the setting's default and its
# default's type the setting's cast.
SETTINGS = (
    ("n", "n", "inputs per sample"),
    ("k", "k", "epistatic neighbors per gene"),
    ("pop", "config.p", "population size; a generation is this many steps"),
    ("hidden", "config.h", "hidden nodes"),
    ("mutation_range", "config.r", "weight perturbation half-width"),
    ("generations", "config.generations", "generations"),
    ("runs", "runs", "independent runs per variant"),
    ("train_size", "train_size", "training samples per run"),
    ("test_size", "test_size", "test samples per run"),
    ("encoding", "encoding", "gene encoding: signsplit or centerband"),
    ("seed", "master_seed", "master seed"),
    ("resample_train", "config.resample_train_each_generation",
     "draw a fresh training set every generation"),
    ("workers", "run.workers", "parallel worker processes"),
    ("out", "run.out", "output directory"),
    ("plot", "run.plot", "also write an SVG chart"),
)


def _defaults(cls, prefix: str = "") -> dict[str, object]:
    return {prefix + f.name: f.default for f in fields(cls) if f.default is not MISSING}


_DEFAULTS = {
    **_defaults(ExperimentSpec),
    **_defaults(EvoConfig, "config."),
    **_defaults(RunOptions, "run."),
}

# The grid axis each experiment command takes: config key, help, default.
# sweep takes its sizes from n_values alone, so it has no n setting.
_AXES = {
    "run": ("variant", "standard, dendrite, range or dropout", "dendrite"),
    "compare": ("variants", "comma-separated variant names",
                ",".join(v.value for v in _DEFAULTS["variants"])),
    "sweep": ("n_values", "comma-separated input sizes", "25,50,100,250,500,1000"),
}


_BOOL_WORDS = {
    "1": True, "true": True, "yes": True, "on": True,
    "0": False, "false": False, "no": False, "off": False,
}


def _parse_enum(cls: type[Enum], text: str) -> Enum:
    try:
        return cls(text)
    except ValueError:
        valid = ", ".join(member.value for member in cls)
        name = cls.__name__.lower()
        raise UsageError(f"unknown {name} {text!r} (choose from: {valid})") from None


def _cast(key: str, raw, default):
    """``raw`` as the type of ``default``; ``key`` names it in errors."""
    if isinstance(raw, bool):  # a switch flag
        return raw
    if isinstance(default, Enum):
        return _parse_enum(type(default), raw)
    if isinstance(default, bool):
        if raw.lower() not in _BOOL_WORDS:
            raise UsageError(f"{key}: expected a boolean, got {raw!r}")
        return _BOOL_WORDS[raw.lower()]
    try:
        return type(default)(raw)
    except ValueError:
        raise UsageError(f"{key}: bad value {raw!r}") from None


def _config(args: argparse.Namespace) -> dict[str, str]:
    """The --config file's entries; each key must name a flag of the command, once."""
    path = getattr(args, "config", None)
    if not path:
        return {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read config file: {exc}") from None
    keys = vars(args).keys() - {"command", "func", "config"}
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in keys:
            raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in values:
            raise UsageError(f"{path}:{lineno}: config key {key!r} given twice")
        values[key] = value.strip()
    return values


def _pick(args: argparse.Namespace, cfg: dict[str, str], key: str):
    """A setting's raw value: the flag, else the config entry, else None."""
    flag = getattr(args, key, None)
    return flag if flag is not None else cfg.get(key)


def _axis(args: argparse.Namespace, cfg: dict[str, str], example) -> list:
    """The command's comma-separated axis, each item cast like ``example``."""
    key, _, default = _AXES[args.command]
    raw = _pick(args, cfg, key)
    text = default if raw is None else raw
    return [_cast(key, item.strip(), example) for item in text.split(",") if item.strip()]


def _settings(
    args: argparse.Namespace, cfg: dict[str, str], **fixed
) -> tuple[ExperimentSpec, RunOptions]:
    """Resolve every table row from its flag, config entry or default,
    beside the ExperimentSpec fields in ``fixed``, which the command sets;
    all are validated here, before anything is written."""
    values: dict[str, dict] = {"": {}, "config": {}, "run": {}}
    for key, target, _ in SETTINGS:
        raw = _pick(args, cfg, key)
        if raw is not None:
            owner, _, name = target.rpartition(".")
            values[owner][name] = _cast(key, raw, _DEFAULTS[target])
    try:
        config = EvoConfig(variant=fixed["variants"][0], **values["config"])
        spec = ExperimentSpec(config=config, **values[""], **fixed)
        return spec, RunOptions(**values["run"])
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _write(path: Path, write, *args) -> None:
    """``write(path, *args)``, then say so."""
    write(path, *args)
    print(f"wrote {path}")


def _log(message: str) -> None:
    print(message, file=sys.stderr)


# --- subcommands --------------------------------------------------------------


def _cmd_grid(args: argparse.Namespace) -> int:
    """run evolves one variant; compare several, plus pairwise Welch tests."""
    cfg = _config(args)
    variants = tuple(_axis(args, cfg, Variant.STANDARD))
    pairwise = args.command == "compare"
    if pairwise and len(variants) < 2:
        raise UsageError("compare needs at least two variants")
    if not pairwise and len(variants) != 1:
        raise UsageError("run takes one variant; compare takes several")
    spec, opts = _settings(args, cfg, variants=variants)
    if pairwise and spec.runs < 2:
        raise UsageError("pairwise tests need at least two runs per variant")
    out = Path(opts.out)  # run_experiment creates it
    result = run_experiment(spec, out_dir=out, workers=opts.workers, log=_log)
    report = compare(result)
    trace_path = out / "trace.csv"
    cells = [(v, run, result[v][run]) for v in spec.variants for run in range(spec.runs)]
    _write(trace_path, write_trace_csv, cells)
    summaries = [csv_row(s.variant, spec.n, spec.k, *astuple(s)[1:]) for s in report.summaries]
    _write(out / "summary.csv", write_csv, SUMMARY_HEADER, summaries)
    for s in report.summaries:
        print(
            f"{s.variant.value}: runs={s.runs} mean_test_mse={s.mean_test_mse:.6g} "
            f"min={s.min_test_mse:.6g} max={s.max_test_mse:.6g} "
            f"gate_fraction={s.mean_gate_fraction:.6g}"
        )
    if pairwise:
        pairs = [csv_row(*astuple(pair)) for pair in report.pairwise]
        _write(out / "compare.csv", write_csv, COMPARE_HEADER, pairs)
        for pair in report.pairwise:
            print(
                f"{pair.variant_a.value} vs {pair.variant_b.value}: "
                f"mean {pair.mean_a:.6g} vs {pair.mean_b:.6g}, "
                f"t={pair.t_statistic:.4g}, p={pair.p_value:.4g}"
            )
    if opts.plot:
        _write(out / "trace.svg", write_atomic, svgplot.trace_chart(read_trace_rows(trace_path)))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _config(args)
    n_values = _axis(args, cfg, 0)
    if not n_values or len(set(n_values)) != len(n_values):
        raise UsageError(f"n_values: need distinct sizes, got {n_values}")
    # Each size runs as its own grid; the smallest one must admit k.
    spec, opts = _settings(args, cfg, n=min(n_values), variants=_DEFAULTS["variants"])
    out = Path(opts.out)  # run_experiment creates it
    rows = sweep_n(spec, n_values, out_dir=out, workers=opts.workers, log=_log)
    _write(out / "sweep.csv", write_csv, SWEEP_HEADER, [csv_row(*astuple(row)) for row in rows])
    for row in rows:
        if row.split == "test":
            print(
                f"n={row.n} {row.variant.value}: mean_test_mse={row.mean:.6g} "
                f"min={row.min:.6g} max={row.max:.6g}"
            )
    if opts.plot:  # drawn from the file, as trace.svg and plot are
        table = read_csv_rows(out / "sweep.csv", SWEEP_HEADER, _SWEEP_CASTS)
        _write(out / "sweep.svg", write_atomic, svgplot.sweep_chart(table))
    return 0


def _cmd_plot(args: argparse.Namespace) -> int:
    src = Path(args.input)
    if not src.exists():
        raise FileNotFoundError(f"no such file: {src}")
    with src.open(encoding="utf-8") as file:  # the first line only; the reader reads it all
        header = file.readline().rstrip("\n")
    if header == TRACE_HEADER:
        rows, chart = read_trace_rows(src), svgplot.trace_chart
    elif header == SWEEP_HEADER:
        rows, chart = read_csv_rows(src, SWEEP_HEADER, _SWEEP_CASTS), svgplot.sweep_chart
    else:
        raise ValueError(f"{src}: unrecognized header; expected a trace or sweep CSV")
    if not rows:
        raise ValueError(f"{src}: no data rows")
    dest = Path(args.out)
    dest.parent.mkdir(parents=True, exist_ok=True)
    _write(dest, write_atomic, chart(rows))
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    net = load_network(args.genome)
    total, (in_count, out_count) = count_active_gates(net)
    print(f"n = {net.n}")
    print(f"hidden_nodes = {net.h}")
    print(f"active_gates_total = {total}")
    print(f"active_gates_input_layer = {in_count}")
    print(f"active_gates_output_layer = {out_count}")
    print(f"gate_fraction_of_gateable = {format_float(total / net.gateable_count)}")
    print(f"gate_fraction_of_parameters = {format_float(total / net.param_count)}")
    input_counts = np.count_nonzero(net.gate_kind_in, axis=1)
    for j in range(net.h):
        print(f"input_gates[{j}] = {int(input_counts[j])}")
    for j in range(net.h):
        print(f"output_gated[{j}] = {int(net.gate_kind_out[0, j] != 0)}")
    return 0


# --- parser -------------------------------------------------------------------


def _add_settings(sub: argparse.ArgumentParser, command: str) -> None:
    """The command's axis, --config and a flag per table row."""
    key, text, default = _AXES[command]
    sub.add_argument(f"--{key.replace('_', '-')}", dest=key, help=f"{text} (default: {default})")
    sub.add_argument("--config", help="settings file with 'key = value' lines")
    for key, target, text in SETTINGS:
        if command == "sweep" and key == "n":
            continue
        default = _DEFAULTS[target]
        shown = default.value if isinstance(default, Enum) else default
        flag = "--" + key.replace("_", "-")
        switch = {"action": "store_const", "const": True}
        sub.add_argument(
            flag, dest=key, help=f"{text} (default: {shown})",
            **(switch if isinstance(default, bool) else {}),
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dendrevo",
        description="neuroevolution of gated networks on epistatic regression tasks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for command, text, func in (
        ("run", "evolve one variant and write trace/summary CSVs", _cmd_grid),
        ("compare", "run several variants plus pairwise t tests", _cmd_grid),
        ("sweep", "standard vs dendrite across input sizes", _cmd_sweep),
    ):
        p_exp = sub.add_parser(command, help=text)
        _add_settings(p_exp, command)
        p_exp.set_defaults(func=func)

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
