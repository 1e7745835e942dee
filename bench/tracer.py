"""Traced dendrevo CLI run for the benchmark's per-layer numbers.

Usage: python3 bench/tracer.py SPANS_JSON CLI_ARG...

Imports ``dendrevo.cli`` (timed as the ``cli.import`` span), swaps
timing wrappers in for the functions each layer calls, at the name the
caller looks up (``dendrevo.harness.build_landscape``, not
``dendrevo.nk.build_landscape``, because ``harness`` binds the name at
import), then runs ``dendrevo.cli.main``. Every span records its name,
start, end, parent span index (-1 for none), cell and an optional
value; spans stay in memory and are written to SPANS_JSON at exit.

The wrappers draw nothing from the program's random streams, so a
traced run writes the same bytes as an untraced one. Only ``run.py``
launches this file; untraced runs never import it.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

CHECKOUT = Path(__file__).resolve().parent.parent


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._cell: str | None = None

    def wrap(self, name, fn, cell_of=None, value_of=None):
        """Timing wrapper around fn. cell_of(args) names the cell that the
        call and its children belong to; value_of(result, args) is
        stored with the span."""

        def traced(*args, **kwargs):
            outer_cell = self._cell
            if cell_of is not None:
                self._cell = cell_of(args)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self._cell, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
                self._cell = outer_cell
            if value_of is not None:
                span[5] = value_of(result, args)
            return result

        return traced

    def record(self, name: str, start: float, end: float, value=None) -> None:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, start, end, parent, self._cell, value])

    def install(self) -> None:
        import dendrevo.evolve as evolve
        import dendrevo.harness as harness
        import dendrevo.net as net
        import dendrevo.svgplot as svgplot
        from dendrevo.evolve import GateChange, TrainEvaluator, Variant

        def patch(owner, attr, name, **kw):
            setattr(owner, attr, self.wrap(name, getattr(owner, attr), **kw))

        def run_cell_id(args):
            return f"{args[1].value}-run{args[2]:03d}"

        def file_cell(args):
            return Path(args[0]).name.split(".")[0]

        def landscape_mib(landscape, args):
            return (landscape.neighbors.nbytes + landscape.tables.nbytes) / 2**20

        traced_evolution = self.wrap("evolve.run_evolution", harness.run_evolution)

        def run_evolution_checked(config, landscape, train, test, rng=None):
            # Drift between the incremental fitness and the direct forward
            # pass; dropout cells redraw coins, so they have no exact target.
            trace = traced_evolution(config, landscape, train, test, rng)
            if config.variant is not Variant.RANDOM_DROPOUT:
                start = time.perf_counter()
                direct = net.mse(trace.final_network, train)
                drift = abs(trace.records[-1].best_train_mse - direct)
                self.record("bench.drift_check", start, time.perf_counter(), drift)
            return trace

        harness.run_evolution = run_evolution_checked

        patch(harness, "run_cell", "harness.run_cell", cell_of=run_cell_id)
        patch(harness, "build_landscape", "nk.build_landscape", value_of=landscape_mib)
        patch(harness, "generate_dataset", "nk.generate_dataset")
        patch(harness, "save_network", "harness.save_network")
        patch(harness, "write_trace_csv", "harness.write_trace_csv")
        patch(harness, "load_network", "harness.load_network", cell_of=file_cell)
        patch(harness, "read_trace_rows", "harness.read_trace_rows", cell_of=file_cell)
        patch(evolve, "seed_population", "evolve.seed_population")
        patch(evolve, "tournament_select", "evolve.tournament_select")
        patch(
            evolve, "describe_mutation", "evolve.describe_mutation",
            value_of=lambda result, args: int(isinstance(result[1], GateChange)),
        )
        patch(
            evolve, "_replace_slot", "evolve.replace",
            value_of=lambda result, args: int(result[1]),
        )
        patch(
            evolve, "count_active_gates", "net.count_active_gates",
            value_of=lambda result, args: result[0],
        )
        patch(evolve, "mse", "net.mse")
        patch(TrainEvaluator, "full_states", "evolve.full_states")
        patch(TrainEvaluator, "child_state", "evolve.child_state")
        patch(TrainEvaluator, "score", "evolve.score")
        patch(svgplot, "trace_chart", "svgplot.trace_chart")


def main(argv: list[str]) -> int:
    spans_path, cli_args = Path(argv[0]), argv[1:]
    start = time.perf_counter()
    import dendrevo
    import dendrevo.cli

    imported = time.perf_counter()
    if not Path(dendrevo.__file__).resolve().is_relative_to(CHECKOUT):
        print(f"dendrevo imported from {dendrevo.__file__}, outside {CHECKOUT}", file=sys.stderr)
        return 3
    tracer = Tracer()
    tracer.record("cli.import", start, imported)
    tracer.install()
    try:
        return tracer.wrap("cli.main", dendrevo.cli.main)(cli_args)
    finally:
        spans_path.write_text(json.dumps({"spans": tracer.spans}))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
