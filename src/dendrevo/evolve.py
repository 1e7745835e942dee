"""Steady-state neuroevolution of gated perceptrons.

One offspring per step: binary tournament picks a parent, a single-gene
mutation produces the child, the child is evaluated on the training set
and then overwrites a uniformly chosen victim. When child and victim have
exactly equal training error, the one using fewer active gates keeps the
slot, which applies a constant selective pressure against gate use.

A "generation" is P steps of this loop, one offspring per population
member, so the default 1000-generation run performs 50,000 fitness
evaluations.

Because each mutation changes one gene, training fitness is maintained
incrementally: every population member carries the deterministic part of
its pre-activations on the training set, and an offspring's state is its
parent's plus one column update. Only drop-gate coin flips are redrawn
per evaluation. The direct forward pass in :mod:`dendrevo.net` remains
the reference; the cached path must agree with it to float tolerance.

Genomes and states are persistent: a seeded genome, and each array a
mutation copies and writes, is made read-only. A child shares with its
parent every genome array and state column that its mutation does not
write. So a large generation's test row can be priced on a helper
thread, bit for bit, while the next generation steps.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum
from functools import partial

import numpy as np
from scipy.special import expit

from .net import (
    DROP, OPEN_KINDS,
    GateKind,
    GateState,
    Individual,
    Network,
    count_active_gates,
    det_gates,
    mse,
    output_terms,
    pass_mask,
    retract_input_gates,
)
from .nk import Dataset, NKLandscape, generate_dataset


class Variant(Enum):
    """Which gate machinery the mutation operator may introduce."""

    STANDARD = "standard"  # plain MLP: weights only, no gates ever
    DENDRITE_THRESHOLD = "dendrite"  # lower/upper activation thresholds
    DENDRITE_RANGE = "range"  # [lo, hi] admission window
    RANDOM_DROPOUT = "dropout"  # coin-flip transmission control


@dataclass(frozen=True)
class EvoConfig:
    """Evolution settings; defaults follow the reference experiments
    (population 50, 10 hidden nodes, mutation half-width 0.1)."""

    p: int = 50
    h: int = 10
    r: float = 0.1
    generations: int = 1000
    variant: Variant = Variant.STANDARD
    resample_train_each_generation: bool = False

    def __post_init__(self) -> None:
        if self.p < 2:
            raise ValueError("population size must be at least 2")
        if self.h < 1:
            raise ValueError("need at least one hidden node")
        if not 0.0 < 2 * self.r < float("inf"):  # uniform(-r, r) needs 2r finite; nan fails
            raise ValueError(f"mutation range half-width must be > 0 with 2r finite, got {self.r}")
        if self.generations < 0:
            raise ValueError("generations cannot be negative")


Population = list  # exactly p Individuals, fitnesses cached on the training set

_GENOME_ARRAYS = tuple(name for name in Network.__slots__ if name != "b_out")


def _freeze(net: Network, names: tuple[str, ...] = _GENOME_ARRAYS) -> Network:
    """Make the genome's ``names`` arrays read-only."""
    for name in names:
        getattr(net, name).setflags(False)  # a third of the keyword call's cost
    return net


@dataclass(frozen=True)
class TraceRecord:
    generation: int
    best_train_mse: float
    best_test_mse: float
    best_gate_fraction: float
    mean_gate_fraction: float


@dataclass
class RunTrace:
    """Per-generation metrics plus the final best genome.

    Gate fractions are reported against the full weighted parameter count
    (n*h + 2h + 1, e.g. 15/10021 at n=1000, h=10), matching how the
    gate-usage traces are plotted.
    """

    records: list[TraceRecord]
    final_network: Network


def seed_population(
    config: EvoConfig,
    n: int,
    train: Dataset,
    rng: np.random.Generator,
) -> Population:
    """P networks with weights and biases uniform in [-1, 1], unpriced (fitness
    inf): :func:`run_evolution` prices them all at once. Their inactive gates are
    one blank genome's arrays, shared, as no population genome is written in place."""
    if len(train) == 0:
        raise ValueError("training set must be nonempty")
    blank = Network(n, config.h)
    pop: Population = []
    for _ in range(config.p):
        net = blank.child()
        net.w_in = rng.uniform(-1.0, 1.0, size=(config.h, n))
        net.b_hidden = rng.uniform(-1.0, 1.0, size=config.h)
        net.w_out = rng.uniform(-1.0, 1.0, size=config.h)
        net.b_out = float(rng.uniform(-1.0, 1.0))
        pop.append(Individual(_freeze(net), float("inf"), 0))
    return pop


def tournament_select(pop: Population, rng: np.random.Generator) -> int:
    """Binary tournament: two uniform draws with replacement, lower
    training error wins, exact tie decided by a fair coin. Two scalar draws
    give the pair one ``size=2`` draw gives, at half its cost."""
    a, b = int(rng.integers(0, len(pop))), int(rng.integers(0, len(pop)))
    fa, fb = pop[a].fitness, pop[b].fitness
    if fa < fb:
        return a
    if fb < fa:
        return b
    return a if rng.random() < 0.5 else b


# --- single-gene mutation -----------------------------------------------------

# Flat parameter layout for weight mutations: input weights row-major,
# then hidden biases, then output weights, then the output bias.
_FIELD_W_IN = 0
_FIELD_B_HIDDEN = 1
_FIELD_W_OUT = 2
_FIELD_B_OUT = 3

#: Probability that a mutation of a gated variant hits a gate, not a weight.
GATE_MUTATION_PROB = 0.5


@dataclass(frozen=True)
class WeightChange:
    """One weight or bias shifted by delta."""

    kind: int  # one of the _FIELD_* codes
    j: int  # hidden node (unused for the output bias)
    i: int  # input index, input-weight changes only
    delta: float


@dataclass(frozen=True)
class GateChange:
    """One connection's gate replaced (old may equal new: the dropout
    re-enable move is a deliberate no-op)."""

    output_layer: bool
    j: int
    i: int  # input index, input-layer changes only
    old: GateState
    new: GateState


MutationRecord = WeightChange | GateChange


def _activate_gate(variant: Variant, rng: np.random.Generator) -> GateState:
    """Fresh gate for a connection that had none, per the variant."""
    if variant is Variant.DENDRITE_THRESHOLD:
        threshold = float(rng.uniform(-1.0, 1.0))
        if rng.random() < 0.5:
            return GateState(GateKind.LOWER, threshold)
        return GateState(GateKind.UPPER, threshold)
    if variant is Variant.DENDRITE_RANGE:
        edges = rng.uniform(-1.0, 1.0, size=2)
        return GateState(GateKind.RANGE, float(edges.min()), float(edges.max()))
    if variant is Variant.RANDOM_DROPOUT:
        return GateState(GateKind.DROP)
    raise ValueError(f"variant {variant} cannot introduce gates")


def _mutate_active_gate(gate: GateState, r: float, rng: np.random.Generator) -> GateState:
    """Uniform choice among the gate's applicable moves.

    Thresholds: perturb the value, flip lower/upper, or disable.
    Ranges: perturb both edges (re-ordered to keep lo <= hi) or disable.
    Drop gates have no parameter: disable or a no-op re-enable.
    """
    if gate.kind in (GateKind.LOWER, GateKind.UPPER):
        move = int(rng.integers(0, 3))
        if move == 0:
            return GateState(gate.kind, gate.a + float(rng.uniform(-r, r)))
        if move == 1:
            flipped = GateKind.UPPER if gate.kind is GateKind.LOWER else GateKind.LOWER
            return GateState(flipped, gate.a)
        return GateState()
    if gate.kind is GateKind.RANGE:
        move = int(rng.integers(0, 2))
        if move == 0:
            edges = np.array([gate.a, gate.b]) + rng.uniform(-r, r, size=2)
            return GateState(GateKind.RANGE, float(edges.min()), float(edges.max()))
        return GateState()
    if gate.kind is GateKind.DROP:
        return GateState(GateKind.DROP) if int(rng.integers(0, 2)) == 0 else GateState()
    raise ValueError("cannot mutate an inactive gate here")


def describe_mutation(
    parent: Network, config: EvoConfig, rng: np.random.Generator
) -> tuple[Network, MutationRecord]:
    """Single-gene mutation, returning the child and what changed.

    With probability 1 - GATE_MUTATION_PROB (always, for STANDARD) a
    uniformly chosen weighted parameter, biases included, is shifted by a
    uniform draw from [-r, +r]. Otherwise a uniformly chosen gated
    connection is hit: an inactive gate is activated with fresh uniform
    [-1, 1] parameters, an active one takes one of its moves. Values are
    never clamped; a threshold drifting outside [-1, 1] simply behaves as
    an always-open (or always-shut) condition for inputs in range.
    The child shares the parent's arrays but those it copies, writes and freezes.
    """
    n, h = parent.n, parent.h
    gate_prob = 0.0 if config.variant is Variant.STANDARD else GATE_MUTATION_PROB
    if rng.random() < gate_prob:  # drawn for STANDARD too, which fixes the stream
        gate_idx = int(rng.integers(0, parent.gateable_count))
        output_layer = gate_idx >= n * h
        j, i = (gate_idx - n * h, 0) if output_layer else divmod(gate_idx, n)
        old = parent.output_gate(j) if output_layer else parent.input_gate(j, i)
        if old.kind is GateKind.INACTIVE:
            new = _activate_gate(config.variant, rng)
        else:
            new = _mutate_active_gate(old, config.r, rng)
        if output_layer:
            written = ("gate_kind_out", "gate_a_out", "gate_b_out")
            child = parent.child(*written)
            child.set_output_gate(j, new)
        else:
            written = ("gate_kind_in", "gate_a_in", "gate_b_in")
            child = parent.child(*written)
            child.set_input_gate(j, i, new)
        return _freeze(child, written), GateChange(output_layer, j, i, old, new)
    param_idx = int(rng.integers(0, parent.param_count))
    delta = float(rng.uniform(-config.r, config.r))
    if param_idx < n * h:
        j, i = divmod(param_idx, n)
        child = parent.child("w_in")
        child.w_in[j, i] += delta
        return _freeze(child, ("w_in",)), WeightChange(_FIELD_W_IN, j, i, delta)
    # Past the input weights come h biases, h output weights, the output bias.
    kind, j = divmod(param_idx - n * h + h, h)
    if kind == _FIELD_B_OUT:
        child = parent.child()
        child.b_out += delta
    else:
        name = "b_hidden" if kind == _FIELD_B_HIDDEN else "w_out"
        child = parent.child(name)
        getattr(child, name)[j] += delta
        _freeze(child, (name,))
    return child, WeightChange(kind, j, 0, delta)


def _replace_slot(
    pop: Population,
    offspring: Individual,
    rng: np.random.Generator,
) -> tuple[int, bool]:
    """Overwrite a uniformly chosen slot with the offspring, unless an exact
    fitness tie lets the contender with fewer active gates keep it (equal
    counts fall to a fair coin); returns (slot, offspring moved in)."""
    idx = int(rng.integers(0, len(pop)))
    victim = pop[idx]
    if offspring.fitness == victim.fitness:
        if offspring.active_gate_count > victim.active_gate_count:
            return idx, False
        if offspring.active_gate_count == victim.active_gate_count:
            if rng.random() >= 0.5:
                return idx, False
    pop[idx] = offspring
    return idx, True


# --- incremental training-set evaluation --------------------------------------


@dataclass
class EvalState:
    """Deterministic evaluation state of one network on one dataset.

    det_pre_hidden holds the hidden pre-activations with threshold/range
    retractions applied and drop-gated contributions still included (drop
    corrections are per-pass). The hidden activations and det_pre_out
    follow from it the same way. For a network with no drop gates,
    det_pre_out is the exact output pre-activation.

    Each hidden node's pre-activation and activation is its own (samples,)
    array. States share these columns, so none is written in place.
    """

    pre_cols: tuple[np.ndarray, ...]  # h columns of det_pre_hidden
    hidden_cols: tuple[np.ndarray, ...]  # h columns of expit(det_pre_hidden)
    det_pre_out: np.ndarray  # (samples,)

    @property
    def det_pre_hidden(self) -> np.ndarray:  # a fresh (samples, h) matrix, C order
        return np.array(self.pre_cols).T.copy()


class TrainEvaluator:
    """Incremental MSE evaluation against one fixed dataset.

    ``full_states`` prices networks from scratch; ``child_state`` prices
    a single-gene mutant from its parent's state in O(samples). ``score``
    turns a state into the MSE, redrawing drop-gate coins per call. The
    direct route (:func:`dendrevo.net.mse`) is the reference; both agree
    to float rounding.
    """

    def __init__(self, data: Dataset):
        self.features = data.features
        self.targets = data.targets

    def full_states(self, nets: list[Network]) -> list[EvalState]:
        """States for a whole population at once.

        The input-layer products are fused into one matrix multiply,
        which is what makes per-generation training-set resampling
        affordable.
        """
        h = nets[0].h
        products = self.features @ np.hstack([net.w_in.T for net in nets])  # (S, len*h)
        products += np.concatenate([net.b_hidden for net in nets])
        return [
            self._finish_state(net, products[:, m * h : (m + 1) * h])
            for m, net in enumerate(nets)
        ]

    def _finish_state(self, net: Network, pre_hidden: np.ndarray) -> EvalState:
        """Apply deterministic gate retractions, in place, and price the
        output layer."""
        flat = det_gates(net.gate_kind_in.reshape(-1))
        hidden, det_pre_out = self._forward(net, pre_hidden, flat)
        # Independent columns: a view would keep the whole matrix alive.
        return EvalState(
            tuple(col.copy() for col in pre_hidden.T),
            tuple(col.copy() for col in hidden.T),
            det_pre_out,
        )

    def _forward(self, net: Network, pre_hidden: np.ndarray, flat: np.ndarray, rng=None):
        """Retract the input gates at ``flat`` from ``pre_hidden`` in place; return
        the hidden activations and the output pre-activation, the deterministic
        output gates' terms subtracted one node at a time in ascending order."""
        if flat.size:
            retract_input_gates(net, pre_hidden, self.features, flat, rng)
        hidden = expit(pre_hidden)
        pre_out = hidden @ net.w_out + net.b_out
        det = det_gates(net.gate_kind_out)
        if det.size:
            for terms in output_terms(net, hidden.T, det).T:
                pre_out -= terms
        return hidden, pre_out

    @staticmethod
    def _with_node(child: Network, parent: EvalState, j: int, pre_j) -> EvalState:
        """The parent state with node j's pre-activation column set to pre_j
        and the change carried through; the other columns are shared."""
        h_old, h_new = parent.hidden_cols[j], expit(pre_j)
        kind = int(child.gate_kind_out[j])
        if kind in OPEN_KINDS:
            diff = h_new - h_old
        else:
            a, b = child.gate_a_out[j], child.gate_b_out[j]
            diff = h_new * pass_mask(kind, a, b, h_new)
            diff -= h_old * pass_mask(kind, a, b, h_old)
        return EvalState(
            parent.pre_cols[:j] + (pre_j,) + parent.pre_cols[j + 1 :],
            parent.hidden_cols[:j] + (h_new,) + parent.hidden_cols[j + 1 :],
            parent.det_pre_out + float(child.w_out[j]) * diff,
        )

    def child_state(
        self, parent_state: EvalState, child: Network, change: MutationRecord
    ) -> EvalState:
        """The child's state, built out of place: only the mutated node's
        columns and det_pre_out are new arrays."""
        pre, hidden = parent_state.pre_cols, parent_state.hidden_cols
        j, i = change.j, change.i
        if isinstance(change, WeightChange):
            if change.kind == _FIELD_W_IN:
                column = self.features[:, i]
                kind = int(child.gate_kind_in[j, i])
                mask = pass_mask(kind, child.gate_a_in[j, i], child.gate_b_in[j, i], column)
                term = change.delta * column * mask
                return self._with_node(child, parent_state, j, pre[j] + term)
            if change.kind == _FIELD_B_HIDDEN:
                return self._with_node(child, parent_state, j, pre[j] + change.delta)
            if change.kind == _FIELD_W_OUT:
                kind = int(child.gate_kind_out[j])
                mask = pass_mask(kind, child.gate_a_out[j], child.gate_b_out[j], hidden[j])
                term = change.delta * hidden[j] * mask
            else:
                term = change.delta
            return EvalState(pre, hidden, parent_state.det_pre_out + term)
        old, new, out = change.old, change.new, change.output_layer
        values = hidden[j] if out else self.features[:, i]
        term = float(child.w_out[j] if out else child.w_in[j, i]) * values * (
            pass_mask(new.kind, new.a, new.b, values) - pass_mask(old.kind, old.a, old.b, values)
        )
        if out:
            return EvalState(pre, hidden, parent_state.det_pre_out + term)
        return self._with_node(child, parent_state, j, pre[j] + term)

    def score(
        self, net: Network, state: EvalState, rng: np.random.Generator | None = None
    ) -> float:
        """MSE from a state. Drop coins, when present, are drawn in the
        same order as the direct route: one block for the input layer's
        drop gates in ascending connection order, then one for the
        output layer's."""
        drop_in = (net.gate_kind_in.reshape(-1) == DROP).nonzero()[0]
        drop_out = (net.gate_kind_out == DROP).nonzero()[0]
        hidden_cols, pre_out = state.hidden_cols, state.det_pre_out
        if drop_in.size:
            hidden, pre_out = self._forward(net, state.det_pre_hidden, drop_in, rng)
            hidden_cols = hidden.T
        if drop_out.size:
            terms = output_terms(net, hidden_cols, drop_out, rng)
            pre_out = pre_out - terms.sum(axis=1)
        err = expit(pre_out) - self.targets
        return float(err @ err / err.shape[0])


# --- the steady-state loop -----------------------------------------------------


#: Test-row multiply-adds (rows x n x h) from which a row goes to the helper thread: a 1000-row
#: h=10 cell on 2 cores broke even at n=150; a smaller row mostly contends for the GIL.
OVERLAP_MIN_MACS = 2_000_000


def _record(pop: Population, generation: int, test: Dataset, rng, pool: ThreadPoolExecutor):
    """The generation's trace row, as a call that returns it. All but the best
    member's test error is read now (``_price`` rewrites fitness in place); that
    is priced on ``pool``'s thread with no rng, unless the product is below
    OVERLAP_MIN_MACS or a drop gate needs ``rng``'s coins in order."""
    best = min(pop, key=lambda m: m.fitness)
    net, denom = best.network, best.network.param_count
    row = partial(
        TraceRecord, generation, best.fitness,
        best_gate_fraction=best.active_gate_count / denom,
        mean_gate_fraction=float(np.mean([member.active_gate_count / denom for member in pop])),
    )
    inline = len(test) * net.n * net.h < OVERLAP_MIN_MACS
    if inline or DROP in net.gate_kind_in or DROP in net.gate_kind_out:
        return partial(row, mse(net, test, rng))
    future = pool.submit(mse, net, test)
    return lambda: row(future.result())


def _price(pop: Population, train: Dataset, rng: np.random.Generator):
    """Score every member on ``train`` from scratch, in population order;
    return the evaluator and the members' states."""
    evaluator = TrainEvaluator(train)
    states = evaluator.full_states([member.network for member in pop])
    for member, state in zip(pop, states):
        member.fitness = evaluator.score(member.network, state, rng)
    return evaluator, states


def run_evolution(
    config: EvoConfig,
    landscape: NKLandscape | None,
    train: Dataset,
    test: Dataset,
    rng: np.random.Generator,
) -> RunTrace:
    """Run the steady-state loop and record one trace row per generation.

    All randomness (seeding, selection, mutation, drop-gate coins) flows
    through ``rng``, so its seed fully determines the trace. A generation
    is P steps.
    Training fitness is maintained by the incremental evaluator; test
    error is measured by the direct forward pass on the generation's
    best member, at full scale on a helper thread that this call joins
    before it returns or raises. The landscape is only consulted when
    per-generation training-set resampling is enabled, and that run draws
    its table once and holds it; pass None otherwise if it has been dropped.
    """
    if train.n != test.n:
        raise ValueError(f"train n={train.n} and test n={test.n} disagree")
    if landscape is not None and landscape.n != train.n:
        raise ValueError(f"landscape n={landscape.n} does not match data n={train.n}")
    if config.resample_train_each_generation:
        if landscape is None:
            raise ValueError("training-set resampling needs the landscape")
        landscape = landscape.dense()

    pop = seed_population(config, train.n, train, rng)
    evaluator, states = _price(pop, train, rng)
    records = []
    with ThreadPoolExecutor(max_workers=1) as pool:  # starts a thread on first submit
        row = _record(pop, 0, test, rng, pool)
        for generation in range(1, config.generations + 1):
            if config.resample_train_each_generation:
                train = generate_dataset(landscape, len(train), train.encoding, rng)
                evaluator, states = _price(pop, train, rng)
            for _ in range(config.p):
                parent_idx = tournament_select(pop, rng)
                child_net, change = describe_mutation(
                    pop[parent_idx].network, config, rng
                )
                child_state = evaluator.child_state(states[parent_idx], child_net, change)
                child = Individual(
                    child_net,
                    evaluator.score(child_net, child_state, rng),
                    count_active_gates(child_net)[0],
                )
                slot, moved_in = _replace_slot(pop, child, rng)
                if moved_in:
                    states[slot] = child_state
            records.append(row())
            row = _record(pop, generation, test, rng, pool)
        records.append(row())
    best = min(pop, key=lambda m: m.fitness)
    return RunTrace(records=records, final_network=best.network)
