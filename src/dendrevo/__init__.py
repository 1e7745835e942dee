"""Neuroevolution of gated perceptrons on tuneable epistatic regression tasks.

The package splits into data generation (:mod:`dendrevo.nk`), the gated
network model (:mod:`dendrevo.net`), the steady-state evolutionary loop
(:mod:`dendrevo.evolve`), multi-run orchestration and statistics
(:mod:`dendrevo.harness`), and SVG reporting (:mod:`dendrevo.svgplot`).
The package root re-exports the names that the README's Python API and
the acceptance criteria use; every other name is imported from its module.
"""

from .evolve import (
    EvoConfig,
    Individual,
    Variant,
    describe_mutation,
    run_evolution,
    seed_population,
)
from .harness import (
    ExperimentSpec,
    ablation_study,
    compare,
    read_trace_rows,
    run_experiment,
    sweep_n,
    welch_t_test,
)
from .net import Network, count_active_gates, mse, predict
from .nk import (
    Encoding,
    build_landscape,
    evaluate_genomes,
    generate_dataset,
    generate_datasets,
)

__version__ = "0.1.0"

__all__ = [
    "Encoding",
    "EvoConfig",
    "ExperimentSpec",
    "Individual",
    "Network",
    "Variant",
    "ablation_study",
    "build_landscape",
    "compare",
    "count_active_gates",
    "describe_mutation",
    "evaluate_genomes",
    "generate_dataset",
    "generate_datasets",
    "mse",
    "predict",
    "read_trace_rows",
    "run_evolution",
    "run_experiment",
    "seed_population",
    "sweep_n",
    "welch_t_test",
]
