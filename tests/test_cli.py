"""End-to-end tests for the command-line interface.

Every experiment here is shrunk to a few dozen evaluations so the whole
module stays fast; the numerical behaviour of the underlying pipeline is
covered elsewhere.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import time
import xml.etree.ElementTree as ET
from dataclasses import fields
from enum import Enum
from pathlib import Path

import pytest

from dendrevo.cli import (
    COMPARE_HEADER,
    SETTINGS,
    SUMMARY_HEADER,
    SWEEP_HEADER,
    RunOptions,
    UsageError,
    _config,
    _settings,
    build_parser,
    main,
)
import dendrevo
from dendrevo import evolve, harness
from dendrevo.evolve import EvoConfig, Variant
from dendrevo.harness import (
    ExperimentSpec, TRACE_HEADER, format_float, read_trace_rows, save_network,
)
from dendrevo.net import GateKind, GateState, Network, count_active_gates

# Shared tiny-problem flags: n=8, k=2, 6 genomes, 2 hidden nodes,
# 2 generations, 10-sample data sets.
TINY = [
    "--n", "8", "--k", "2", "--pop", "6", "--hidden", "2",
    "--generations", "2", "--train-size", "10", "--test-size", "10",
]


def tiny_run(tmp_path, name, *extra):
    out = tmp_path / name
    rc = main(["run", *TINY, "--runs", "1", "--seed", "3", "--out", str(out), *extra])
    assert rc == 0
    return out


def child_env(**extra) -> dict[str, str]:
    """The environment for a CLI child process. As in criterion 4, the
    children run elsewhere, so their PYTHONPATH leads with the absolute
    directory holding the package this process imported."""
    env = os.environ.copy()
    root = str(Path(dendrevo.__file__).resolve().parent.parent)
    rest = env.get("PYTHONPATH")
    env["PYTHONPATH"] = root + (os.pathsep + rest if rest else "")
    env.update(extra)
    return env


def test_run_writes_trace_summary_and_cell_files(tmp_path, capsys):
    out = tiny_run(tmp_path, "a")
    captured = capsys.readouterr()
    assert f"wrote {out / 'trace.csv'}" in captured.out
    assert "dendrite: runs=1 mean_test_mse=" in captured.out
    assert (out / "runs" / "dendrite-run000.trace.csv").exists()
    assert (out / "runs" / "dendrite-run000.dnet").exists()
    assert (out / "summary.csv").read_text().splitlines()[0] == SUMMARY_HEADER
    rows = read_trace_rows(out / "trace.csv")
    assert [r[0] for r in rows] == ["dendrite"] * 3
    assert [r[2].generation for r in rows] == [0, 1, 2]


def test_run_variant_flag_selects_the_variant(tmp_path):
    out = tiny_run(tmp_path, "std", "--variant", "standard")
    lines = (out / "summary.csv").read_text().splitlines()
    fields = lines[1].split(",")
    assert fields[0] == "standard"
    assert fields[1:4] == ["8", "2", "1"]
    assert fields[-1] == "0"


def test_run_is_reproducible_per_seed(tmp_path):
    first = tiny_run(tmp_path, "a")
    second = tiny_run(tmp_path, "b")
    other = tmp_path / "c"
    assert main(["run", *TINY, "--runs", "1", "--seed", "4", "--out", str(other)]) == 0
    trace = (first / "trace.csv").read_bytes()
    assert trace == (second / "trace.csv").read_bytes()
    assert trace != (other / "trace.csv").read_bytes()


def test_resume_under_a_different_seed_is_refused(tmp_path, capsys):
    out = tiny_run(tmp_path, "a")
    trace = (out / "trace.csv").read_bytes()
    capsys.readouterr()
    rc = main(["run", *TINY, "--runs", "1", "--seed", "999", "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "master_seed (3 -> 999)" in err
    assert (out / "trace.csv").read_bytes() == trace
    # The same spec still resumes from the cached cell.
    assert main(["run", *TINY, "--runs", "1", "--seed", "3", "--out", str(out)]) == 0
    assert "loaded variant=dendrite run=0" in capsys.readouterr().err
    assert (out / "trace.csv").read_bytes() == trace


def test_run_plot_flag_writes_chart(tmp_path):
    out = tiny_run(tmp_path, "a", "--plot")
    root = ET.parse(out / "trace.svg").getroot()
    assert root.tag.rsplit("}", 1)[-1] == "svg"


def test_seed_ignores_the_environment(tmp_path, monkeypatch):
    """Without --seed or a seed key the seed is its field's default,
    whatever the environment holds."""
    default = ExperimentSpec(config=EvoConfig()).master_seed
    assert default != 999
    flagged, ambient = tmp_path / "flagged", tmp_path / "ambient"
    assert main(["run", *TINY, "--runs", "1", "--seed", str(default), "--out", str(flagged)]) == 0
    monkeypatch.setenv("DENDREVO_SEED", "999")
    assert main(["run", *TINY, "--runs", "1", "--out", str(ambient)]) == 0
    assert (ambient / "trace.csv").read_bytes() == (flagged / "trace.csv").read_bytes()


def test_a_failed_cell_exits_1(tmp_path, monkeypatch, capsys):
    def boom(spec, variant, run):
        raise ValueError("boom")

    monkeypatch.setattr(harness, "run_cell", boom)
    assert main(["run", *TINY, "--runs", "1", "--out", str(tmp_path / "x")]) == 1
    assert "error: run failed" in capsys.readouterr().err


def config_text(out_dir) -> str:
    return (
        "# tiny smoke configuration\n"
        "n = 8\n"
        "k = 2\n"
        "pop = 6\n"
        "hidden = 2\n"
        "generations = 2\n"
        "runs = 1\n"
        "train_size = 10\n"
        "test_size = 10\n"
        "seed = 3\n"
        "variant = standard\n"
        f"out = {out_dir}\n"
    )


def test_config_file_supplies_settings(tmp_path):
    cfg = tmp_path / "exp.cfg"
    out = tmp_path / "from-config"
    cfg.write_text(config_text(out))
    assert main(["run", "--config", str(cfg)]) == 0
    lines = (out / "summary.csv").read_text().splitlines()
    assert lines[1].split(",")[0] == "standard"


def test_flag_overrides_config(tmp_path):
    cfg = tmp_path / "exp.cfg"
    out = tmp_path / "from-config"
    cfg.write_text(config_text(out))
    assert main(["run", "--config", str(cfg), "--generations", "3"]) == 0
    rows = read_trace_rows(out / "trace.csv")
    assert [r[2].generation for r in rows] == [0, 1, 2, 3]


def test_config_plot_key_is_honoured(tmp_path):
    cfg = tmp_path / "exp.cfg"
    out = tmp_path / "from-config"
    cfg.write_text(config_text(out) + "plot = yes\n")
    assert main(["run", "--config", str(cfg)]) == 0
    assert (out / "trace.svg").exists()


def test_config_rejects_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("votes = 12\n")
    assert main(["run", "--config", str(cfg)]) == 2
    assert "unknown config key" in capsys.readouterr().err


def test_config_rejects_a_key_given_twice(tmp_path, capsys):
    out = tmp_path / "never"
    cfg = tmp_path / "exp.cfg"
    text = config_text(out).replace("generations = 2\n", "generations = 1\n") + "generations = 3\n"
    cfg.write_text(text)
    lineno = len(text.splitlines())
    assert main(["run", "--config", str(cfg)]) == 2
    assert f"{cfg}:{lineno}: config key 'generations' given twice" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, key",
    [("sweep", "variants"), ("sweep", "n"), ("compare", "n_values"), ("run", "variants")],
)
def test_config_rejects_another_commands_axis(tmp_path, capsys, command, key):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"{key} = range,dropout\n")
    # A tiny grid, so a command that ignored the key would finish quickly.
    tiny = [*TINY, "--runs", "2", "--out", str(tmp_path / "x")]
    if command == "sweep":
        tiny[:2] = ["--n-values", "8"]
    assert main([command, "--config", str(cfg), *tiny]) == 2
    assert f"unknown config key {key!r}" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def _flag_dests(command: str) -> set[str]:
    """The dests of ``command``'s flags, --help and --config aside."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {action.dest for action in sub.choices[command]._actions} - {"help", "config"}


@pytest.mark.parametrize("command", ["run", "compare", "sweep"])
def test_config_accepts_exactly_the_commands_flags(tmp_path, command):
    every_dest = _flag_dests("run") | _flag_dests("compare") | _flag_dests("sweep")
    cfg = tmp_path / "exp.cfg"
    accepted = set()
    for key in sorted(every_dest | {"command", "func", "config", "votes"}):
        cfg.write_text(f"{key} = 1\n")
        args = build_parser().parse_args([command, "--config", str(cfg)])
        try:
            _config(args)
        except UsageError:
            continue
        accepted.add(key)
    assert accepted == _flag_dests(command)


def test_a_value_of_the_wrong_type_is_a_usage_error_before_any_output(tmp_path, capsys):
    out = tmp_path / "never"
    assert main(["run", *TINY, "--n", "abc", "--out", str(out)]) == 2
    assert "usage error: n: bad value 'abc'" in capsys.readouterr().err
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(config_text(out).replace("pop = 6\n", "pop = 1.5\n"))
    assert main(["run", "--config", str(cfg)]) == 2
    assert "usage error: pop: bad value '1.5'" in capsys.readouterr().err
    assert not out.exists()


def test_config_rejects_malformed_line(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("n 8\n")
    assert main(["run", "--config", str(cfg)]) == 2
    assert "expected 'key = value'" in capsys.readouterr().err
    cfg.write_text("plot = maybe\n")
    assert main(["run", "--config", str(cfg)]) == 2
    assert "plot: expected a boolean, got 'maybe'" in capsys.readouterr().err


def test_missing_config_file_is_a_usage_error(tmp_path, capsys):
    rc = main(["run", "--config", str(tmp_path / "absent.cfg")])
    assert rc == 2
    assert "cannot read config file" in capsys.readouterr().err


def test_undecodable_config_file_is_a_usage_error(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_bytes(b"n = 8 # \xff\n")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
    assert "cannot read config file" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_config_is_read_as_utf8_under_an_ascii_locale(tmp_path):
    """A config file is UTF-8 whatever the locale says: under LC_ALL=C,
    with locale coercion and UTF-8 mode off, a non-ASCII comment reads
    and the run writes the bytes it writes under the default locale."""
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(config_text(tmp_path / "unused") + "# mutation range \u00b5\n", encoding="utf-8")
    ascii_locale = {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}
    traces = []
    for name, extra in (("default", {}), ("ascii", ascii_locale)):
        out = tmp_path / name
        result = subprocess.run(
            [sys.executable, "-m", "dendrevo", "run", "--config", str(cfg), "--out", str(out)],
            cwd=tmp_path, env=child_env(**extra), capture_output=True,
        )
        assert result.returncode == 0, result.stderr.decode(errors="replace")
        traces.append((out / "trace.csv").read_bytes())
    assert traces[0] == traces[1]


def test_unknown_variant_is_a_usage_error(tmp_path, capsys):
    rc = main(["run", *TINY, "--variant", "quantum", "--out", str(tmp_path / "x")])
    assert rc == 2
    assert "unknown variant" in capsys.readouterr().err
    rc = main(["run", *TINY, "--variant", "standard,dendrite", "--out", str(tmp_path / "x")])
    assert rc == 2
    assert "run takes one variant; compare takes several" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_unknown_encoding_is_a_usage_error(tmp_path, capsys):
    rc = main(["run", *TINY, "--encoding", "sideways", "--out", str(tmp_path / "x")])
    assert rc == 2
    assert "unknown encoding" in capsys.readouterr().err


def test_invalid_problem_shape_is_a_usage_error(tmp_path, capsys):
    rc = main([
        "run", "--n", "4", "--k", "5", "--pop", "6", "--hidden", "2",
        "--generations", "1", "--runs", "1", "--train-size", "5",
        "--test-size", "5", "--out", str(tmp_path / "x"),
    ])
    assert rc == 2
    assert "usage error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag", [["--drop-prob", "0.3"], ["--dendrite-prob", "0.3"], ["--no-parsimony"],
             ["--shared-landscape"]],
    ids=lambda flag: flag[0],
)
def test_a_removed_setting_flag_is_refused(tmp_path, capsys, flag):
    out = tmp_path / "never"
    with pytest.raises(SystemExit) as exc:
        main(["run", *TINY, *flag, "--out", str(out)])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "line", ["drop_prob = 0.3", "dendrite_prob = 0.3", "parsimony = no", "shared_landscape = yes"]
)
def test_a_removed_setting_config_key_is_refused(tmp_path, capsys, line):
    out = tmp_path / "never"
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(config_text(out) + line + "\n")
    assert main(["run", "--config", str(cfg)]) == 2
    key = line.split(" = ")[0]
    assert f"unknown config key {key!r}" in capsys.readouterr().err
    assert not out.exists()


def test_non_finite_mutation_range_is_a_usage_error_before_any_output(tmp_path, capsys):
    out = tmp_path / "never"
    for bad in ("nan", "inf", "1e308"):  # 1e308 is finite but 2r is not
        assert main(["run", *TINY, "--mutation-range", bad, "--out", str(out)]) == 2
        assert "mutation range" in capsys.readouterr().err
    assert not out.exists()
    # Nothing locked the directory: a valid run may still use it.
    assert main(["run", *TINY, "--out", str(out)]) == 0


# Fields the settings table leaves out: each cell's variant comes from
# --variant (run) or --variants (compare).
SET_PER_CELL = {"config.variant", "variants"}


def _resolved(argv):
    args = build_parser().parse_args(argv)
    return _settings(args, _config(args), variants=(Variant.DENDRITE_THRESHOLD,))


def _field(spec, opts, target):
    owner, _, name = target.rpartition(".")
    return getattr({"": spec, "config": spec.config, "run": opts}[owner], name)


def _defaults():
    return ExperimentSpec(config=EvoConfig()), RunOptions()


def _other_value(default):
    """A value unlike ``default``, and how a config file spells it."""
    if isinstance(default, bool):  # every bool setting defaults to False
        return True, "yes"
    if isinstance(default, Enum):
        member = next(m for m in type(default) if m is not default)
        return member, member.value
    if isinstance(default, int):
        return default + 1, str(default + 1)
    if isinstance(default, float):
        return default / 2, repr(default / 2)
    return default + "-elsewhere", default + "-elsewhere"


@pytest.mark.parametrize(
    "key,target", [row[:2] for row in SETTINGS], ids=[row[0] for row in SETTINGS]
)
def test_every_setting_reaches_its_field(tmp_path, key, target):
    """Through each experiment command's flag and config key; sweep has no n."""
    default = _field(*_defaults(), target)
    value, spelled = _other_value(default)
    flag = "--" + key.replace("_", "-")
    argv = [flag] if isinstance(default, bool) else [flag, spelled]
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"{key} = {spelled}\n")
    for command in ("run", "compare", "sweep"):
        if command == "sweep" and key == "n":
            continue
        assert _field(*_resolved([command]), target) == default
        assert _field(*_resolved([command, *argv]), target) == value
        assert _field(*_resolved([command, "--config", str(cfg)]), target) == value


def test_every_dataclass_field_is_a_setting_or_set_per_cell():
    targets = [target for _, target, _ in SETTINGS]
    assert len(set(targets)) == len(targets)
    assert not set(targets) & SET_PER_CELL
    every_field = (
        {f.name for f in fields(ExperimentSpec) if f.name != "config"}
        | {f"config.{f.name}" for f in fields(EvoConfig)}
        | {f"run.{f.name}" for f in fields(RunOptions)}
    )
    assert set(targets) | SET_PER_CELL == every_field
    defaults = _defaults()
    for target in targets:  # a bool setting is a switch that turns it on
        default = _field(*defaults, target)
        assert not isinstance(default, bool) or default is False, target


@pytest.mark.parametrize("command", ["run", "compare", "sweep"])
def test_help_shows_every_default(command, capsys):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    text = " ".join(capsys.readouterr().out.split())
    for key, target, _ in SETTINGS:
        default = _field(*_defaults(), target)
        flag = "--" + key.replace("_", "-")
        if command == "sweep" and key == "n":
            assert f"{flag} " not in text  # sweep's sizes come from --n-values
            continue
        shown = default.value if isinstance(default, Enum) else default
        entry = text[text.rindex(f"{flag} "):].split(" --", 1)[0]
        assert entry.endswith(f"(default: {shown})"), entry


def test_zero_workers_is_a_usage_error_before_any_output(tmp_path, capsys):
    out = tmp_path / "never"
    assert main(["run", *TINY, "--workers", "0", "--out", str(out)]) == 2
    assert "workers must be >= 1" in capsys.readouterr().err
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(config_text(out) + "workers = 0\n")
    assert main(["run", "--config", str(cfg)]) == 2
    assert "workers must be >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_compare_writes_pairwise_table(tmp_path, capsys):
    out = tmp_path / "cmp"
    rc = main(["compare", *TINY, "--runs", "2", "--seed", "3", "--out", str(out)])
    assert rc == 0
    lines = (out / "compare.csv").read_text().splitlines()
    assert lines[0] == COMPARE_HEADER
    assert len(lines) == 2
    fields = lines[1].split(",")
    assert fields[:2] == ["standard", "dendrite"]
    float(fields[4]), float(fields[5])
    assert "standard vs dendrite:" in capsys.readouterr().out
    names = {r[0] for r in read_trace_rows(out / "trace.csv")}
    assert names == {"standard", "dendrite"}


def test_compare_needs_two_distinct_variants(tmp_path, capsys):
    rc = main(["compare", *TINY, "--runs", "2", "--variants", "standard",
               "--out", str(tmp_path / "x")])
    assert rc == 2
    rc = main(["compare", *TINY, "--runs", "2", "--variants", "standard,standard",
               "--out", str(tmp_path / "x")])
    assert rc == 2
    assert "distinct" in capsys.readouterr().err


def test_compare_needs_two_runs(tmp_path, capsys):
    rc = main(["compare", *TINY, "--runs", "1", "--out", str(tmp_path / "x")])
    assert rc == 2
    assert "at least two runs" in capsys.readouterr().err


def test_sweep_writes_table_subdirs_and_chart(tmp_path, capsys):
    out = tmp_path / "swp"
    rc = main([
        "sweep", "--n-values", "8,10", "--k", "2", "--pop", "6", "--hidden", "2",
        "--generations", "2", "--runs", "2", "--train-size", "10",
        "--test-size", "10", "--seed", "3", "--out", str(out), "--plot",
    ])
    assert rc == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == SWEEP_HEADER
    # 2 sizes x 2 variants x (train, test).
    assert len(lines) == 9
    assert (out / "n-8").is_dir() and (out / "n-10").is_dir()
    ET.parse(out / "sweep.svg")
    assert "n=8 standard:" in capsys.readouterr().out


def test_sweep_with_one_run_per_cell_writes_its_table(tmp_path, capsys):
    out = tmp_path / "swp"
    rc = main([
        "sweep", "--n-values", "8,12", "--k", "2", "--pop", "6", "--hidden", "2",
        "--generations", "2", "--runs", "1", "--train-size", "10",
        "--test-size", "10", "--out", str(out),
    ])
    assert rc == 0, capsys.readouterr().err
    rows = (out / "sweep.csv").read_text().splitlines()[1:]
    # 2 sizes x 2 variants x (train, test); one run gives min = mean = max.
    assert len(rows) == 8
    assert all(len(set(row.split(",")[3:])) == 1 for row in rows)


def test_sweep_checks_k_against_its_sizes_only(tmp_path):
    rc = main([
        "sweep", "--k", "3", "--n-values", "5,6",
        "--pop", "6", "--hidden", "2", "--generations", "1", "--runs", "2",
        "--train-size", "5", "--test-size", "5", "--out", str(tmp_path / "swp"),
    ])
    assert rc == 0
    assert (tmp_path / "swp" / "n-5").is_dir() and (tmp_path / "swp" / "n-6").is_dir()


def test_sweep_reports_a_damaged_cell_as_a_runtime_error(tmp_path, capsys):
    argv = ["sweep", "--n-values", "8", "--k", "2", "--pop", "6", "--hidden", "2",
            "--generations", "2", "--runs", "2", "--train-size", "5", "--test-size", "5",
            "--out", str(tmp_path / "swp")]
    assert main(argv) == 0
    cell = tmp_path / "swp" / "n-8" / "runs" / "standard-run000.trace.csv"
    cell.write_text("\n".join(cell.read_text().splitlines()[:2]) + "\n")
    assert main(argv) == 1
    assert "remove stale outputs" in capsys.readouterr().err


def test_sweep_rejects_bad_sizes(tmp_path, capsys):
    common = ["--k", "2", "--pop", "6", "--hidden", "2", "--generations", "1",
              "--runs", "1", "--train-size", "5", "--test-size", "5",
              "--out", str(tmp_path / "x")]
    assert main(["sweep", "--n-values", "8,8", *common]) == 2
    assert main(["sweep", "--n-values", "2,8", *common]) == 2
    assert main(["sweep", "--n-values", "", *common]) == 2
    assert not (tmp_path / "x").exists()


def test_every_file_the_cli_writes_arrives_by_rename(tmp_path, monkeypatch):
    """Every file is renamed into place, except each manifest, which is
    linked into place so that only one run can create it."""
    renamed, linked = [], []

    def spy(real, published):
        def publish(src, dst):
            published.append(Path(dst))
            real(src, dst)
        return publish

    monkeypatch.setattr(harness.os, "replace", spy(os.replace, renamed))
    monkeypatch.setattr(harness.os, "link", spy(os.link, linked))
    grid, swp = tmp_path / "cmp", tmp_path / "swp"
    assert main(["compare", *TINY, "--runs", "2", "--out", str(grid), "--plot"]) == 0
    assert main([
        "sweep", "--n-values", "8,10", "--k", "2", "--pop", "6", "--hidden", "2",
        "--generations", "2", "--runs", "2", "--train-size", "10",
        "--test-size", "10", "--out", str(swp), "--plot",
    ]) == 0
    chart = tmp_path / "charts" / "trace.svg"
    assert main(["plot", "--input", str(grid / "trace.csv"), "--out", str(chart)]) == 0
    written = {p for p in tmp_path.rglob("*") if p.is_file()}
    assert {p.name for p in grid.iterdir() if p.is_file()} == {
        "manifest.json", "trace.csv", "summary.csv", "compare.csv", "trace.svg"
    }
    assert {p.name for p in swp.iterdir() if p.is_file()} == {"sweep.csv", "sweep.svg"}
    assert written <= set(renamed) | set(linked)
    assert {p.name for p in linked} == {"manifest.json"}
    assert not any(p.suffix == ".tmp" for p in written)


def test_plot_renders_trace_csv(tmp_path):
    src = tmp_path / "trace.csv"
    src.write_text(
        TRACE_HEADER + "\n"
        "dendrite,0,0,0.1,0.12,0,0.01\n"
        "dendrite,0,1,0.09,0.11,0.005,0.01\n"
    )
    dest = tmp_path / "charts" / "trace.svg"
    assert main(["plot", "--input", str(src), "--out", str(dest)]) == 0
    ET.parse(dest)


def test_plot_renders_sweep_csv(tmp_path):
    src = tmp_path / "sweep.csv"
    src.write_text(SWEEP_HEADER + "\n25,standard,test,0.04,0.03,0.05\n")
    dest = tmp_path / "sweep.svg"
    assert main(["plot", "--input", str(src), "--out", str(dest)]) == 0
    ET.parse(dest)


def test_plot_reads_its_input_once(tmp_path, monkeypatch):
    trace = tmp_path / "trace.csv"
    trace.write_text(TRACE_HEADER + "\ndendrite,0,0,0.1,0.12,0,0.01\n")
    sweep = tmp_path / "sweep.csv"
    sweep.write_text(SWEEP_HEADER + "\n25,standard,test,0.04,0.03,0.05\n")
    reads = []
    real_read_text = Path.read_text

    def read_text(path, *args, **kwargs):
        reads.append(path)
        return real_read_text(path, *args, **kwargs)

    monkeypatch.setattr(Path, "read_text", read_text)
    for src in (trace, sweep):
        assert main(["plot", "--input", str(src), "--out", str(tmp_path / "x.svg")]) == 0
    assert [path for path in reads if path in (trace, sweep)] == [trace, sweep]


def test_plot_missing_input_is_a_runtime_error(tmp_path, capsys):
    rc = main(["plot", "--input", str(tmp_path / "nope.csv"),
               "--out", str(tmp_path / "x.svg")])
    assert rc == 1
    assert "no such file" in capsys.readouterr().err


def test_plot_rejects_unrecognized_header(tmp_path, capsys):
    src = tmp_path / "odd.csv"
    src.write_text("a,b,c\n1,2,3\n")
    rc = main(["plot", "--input", str(src), "--out", str(tmp_path / "x.svg")])
    assert rc == 1
    assert "unrecognized header" in capsys.readouterr().err


def test_plot_rejects_header_only_trace(tmp_path, capsys):
    src = tmp_path / "empty.csv"
    src.write_text(TRACE_HEADER + "\n")
    rc = main(["plot", "--input", str(src), "--out", str(tmp_path / "x.svg")])
    assert rc == 1
    assert "no data rows" in capsys.readouterr().err


@pytest.mark.parametrize("bad", ["inf", "-inf", "nan"])
def test_plot_rejects_non_finite_values(tmp_path, capsys, bad):
    trace = tmp_path / "trace.csv"
    trace.write_text(TRACE_HEADER + f"\ndendrite,0,0,0.1,{bad},0,0.01\n")
    sweep = tmp_path / "sweep.csv"
    sweep.write_text(SWEEP_HEADER + f"\n25,standard,test,{bad},0.03,0.05\n")
    for src in (trace, sweep):
        rc = main(["plot", "--input", str(src), "--out", str(tmp_path / "x.svg")])
        assert rc == 1
        assert f"{src}:2: value '{bad}' is not finite" in capsys.readouterr().err
    assert not (tmp_path / "x.svg").exists()


def test_inspect_reports_gate_placement(tmp_path, capsys):
    net = Network(3, 2)
    net.set_gate(False, 1, 0, GateState(GateKind.LOWER, 0.25))
    net.set_gate(False, 1, 2, GateState(GateKind.RANGE, -0.5, 0.5))
    net.set_gate(True, 0, 0, GateState(GateKind.DROP))
    path = tmp_path / "genome.dnet"
    save_network(net, path)
    assert main(["inspect", "--genome", str(path)]) == 0
    report = {}
    for line in capsys.readouterr().out.splitlines():
        key, _, value = line.partition(" = ")
        report[key] = value
    total, (in_count, out_count) = count_active_gates(net)
    assert report["n"] == "3"
    assert report["hidden_nodes"] == "2"
    assert report["active_gates_total"] == str(total) == "3"
    assert report["active_gates_input_layer"] == str(in_count) == "2"
    assert report["active_gates_output_layer"] == str(out_count) == "1"
    assert report["gate_fraction_of_gateable"] == format_float(3 / 8) == "0.375"
    assert report["input_gates[0]"] == "0"
    assert report["input_gates[1]"] == "2"
    assert report["output_gated[0]"] == "1"
    assert report["output_gated[1]"] == "0"


def test_inspect_missing_genome_is_a_runtime_error(tmp_path, capsys):
    rc = main(["inspect", "--genome", str(tmp_path / "absent.dnet")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_missing_subcommand_exits_via_argparse():
    with pytest.raises(SystemExit):
        main([])


def test_helper_thread_rows_match_inline_rows_under_one_and_two_blas_threads(tmp_path):
    """The CLI takes BLAS's default thread count. At n=1000 with a 1000-row
    test set each trace row is priced on the helper thread while the main
    thread steps, so both threads may call BLAS at once. Under one and under
    two BLAS threads the cell must write the bytes it writes with every row
    priced inline. (One and two threads do not agree with each other at this
    size, at this commit's parent too: OpenBLAS splits the n=1000 products.)"""
    argv = [
        "run", "--variant", "dendrite", "--n", "1000", "--k", "2", "--pop", "4",
        "--generations", "4", "--runs", "1", "--train-size", "200", "--test-size", "1000",
        "--seed", "5", "--workers", "1",
    ]
    assert 1000 * 1000 * EvoConfig().h >= evolve.OVERLAP_MIN_MACS
    script = (
        "import sys; from dendrevo import cli, evolve; "
        "evolve.OVERLAP_MIN_MACS = int(sys.argv[1]); sys.exit(cli.main(sys.argv[2:]))"
    )
    for threads in ("1", "2"):
        env = child_env(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        outputs = []
        for limit in (evolve.OVERLAP_MIN_MACS, 10**18):
            out = tmp_path / f"blas{threads}-{limit}"
            result = subprocess.run(
                [sys.executable, "-c", script, str(limit), *argv, "--out", str(out)],
                cwd=tmp_path, env=env, capture_output=True,
            )
            assert result.returncode == 0, result.stderr.decode(errors="replace")
            genomes = sorted((out / "runs").glob("*.dnet"))
            assert len(genomes) == 1
            outputs.append([(out / "trace.csv").read_bytes(), genomes[0].read_bytes()])
        assert outputs[0] == outputs[1], f"OPENBLAS_NUM_THREADS={threads}"


def test_a_killed_compare_resumes_to_the_bytes_of_an_uninterrupted_run(tmp_path):
    """SIGKILL a compare once its k-th cell trace exists, for an early and a
    middle k of six cells, then rerun it. Wherever the kill lands, it leaves
    only whole files, and the rerun loads exactly the cells whose trace
    files exist, never a temp file, and ends with every file byte-equal to
    an uninterrupted run's. Stray temp files are the only leftovers."""
    argv = [
        sys.executable, "-m", "dendrevo", "compare", "--variants", "standard,dendrite,range",
        "--runs", "2", "--n", "50", "--k", "3", "--pop", "20", "--hidden", "4",
        "--generations", "250", "--train-size", "200", "--test-size", "200", "--seed", "11",
    ]
    env = child_env()

    def finish(out):
        result = subprocess.run([*argv, "--out", str(out)], cwd=tmp_path, env=env,
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        return result.stderr

    def files(out):
        return {
            p.relative_to(out): p.read_bytes()
            for p in out.rglob("*") if p.is_file() and p.suffix != ".tmp"
        }

    finish(tmp_path / "fresh")
    want = files(tmp_path / "fresh")
    assert len(list((tmp_path / "fresh" / "runs").glob("*.trace.csv"))) == 6
    for k in (1, 3):
        out = tmp_path / f"killed-{k}"
        runs = out / "runs"
        child = subprocess.Popen([*argv, "--out", str(out)], cwd=tmp_path, env=env,
                                 stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        try:
            while child.poll() is None and len(list(runs.glob("*.trace.csv"))) < k:
                time.sleep(0.002)
        finally:
            child.kill()
            child.wait(timeout=60)
        left = files(out)
        assert all(left[name] == want[name] for name in left), "a killed run left a torn file"
        finished = len(list(runs.glob("*.trace.csv")))
        # A garbage temp file beside every cell's two files; none may be read.
        for name in want:
            if name.parent == Path("runs"):
                (out / name).with_name(f"{name.name}.1.00000000.tmp").write_text("garbage\n")
        log = finish(out)
        assert log.count("loaded variant=") == finished >= k
        assert files(out) == want
