"""Steady-state neuroevolution of gated perceptrons.

One offspring per step: binary tournament picks a parent, a single-gene
mutation produces the child, the child is evaluated on the training set
and then overwrites a uniformly chosen victim. When child and victim have
exactly equal training error, the one using fewer active gates keeps the
slot, which applies a constant selective pressure against gate use.

A "generation" is ``offspring_per_generation`` steps of this loop
(default: one per population member, i.e. P offspring), so the default
1000-generation run performs 50,000 fitness evaluations.

Because each mutation changes one gene, training fitness is maintained
incrementally: every population member carries the deterministic part of
its pre-activations on the training set, and an offspring's state is its
parent's plus one column update. Only drop-gate coin flips are redrawn
per evaluation. The direct forward pass in :mod:`dendrevo.net` remains
the reference; the cached path must agree with it to float tolerance.

Genomes and states are persistent: once a genome is in the population,
its arrays are never written in place. A child shares with its parent
every genome array and state column that its mutation does not write.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np
from scipy.special import expit

from .net import (
    DEFAULT_DROP_PROB,
    DROP, INACTIVE, LOWER, RANGE, UPPER,
    GateKind,
    GateState,
    Individual,
    Network,
    blocked_matrix,
    count_active_gates,
    mse,
    retract_blocked,
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
    offspring_per_generation: int | None = None  # None means p
    variant: Variant = Variant.STANDARD
    dendrite_mutation_prob: float = 0.5
    parsimony: bool = True
    seed: int = 0
    drop_prob: float = DEFAULT_DROP_PROB
    resample_train_each_generation: bool = False

    def __post_init__(self) -> None:
        if self.p < 2:
            raise ValueError("population size must be at least 2")
        if self.h < 1:
            raise ValueError("need at least one hidden node")
        if self.r <= 0:
            raise ValueError("mutation range half-width must be positive")
        if self.generations < 0:
            raise ValueError("generations cannot be negative")
        if not 0.0 <= self.dendrite_mutation_prob <= 1.0:
            raise ValueError("dendrite_mutation_prob must lie in [0, 1]")
        if not 0.0 <= self.drop_prob <= 1.0:
            raise ValueError("drop_prob must lie in [0, 1]")
        if self.offspring_per_generation is not None and self.offspring_per_generation < 1:
            raise ValueError("offspring_per_generation must be >= 1")

    @property
    def steps_per_generation(self) -> int:
        return self.offspring_per_generation if self.offspring_per_generation else self.p

    @property
    def effective_dendrite_prob(self) -> float:
        """STANDARD never takes the gate-mutation path."""
        if self.variant is Variant.STANDARD:
            return 0.0
        return self.dendrite_mutation_prob


Population = list  # exactly p Individuals, fitnesses cached on the training set


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
    gate-usage traces are plotted. ``input_gate_counts[j]`` is the number
    of gated connections into hidden node j; ``output_gate_flags[j]`` is 1
    when the hidden-j-to-output connection is gated.
    """

    records: list[TraceRecord]
    final_network: Network
    input_gate_counts: np.ndarray = field(init=False)
    output_gate_flags: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        self.input_gate_counts = np.count_nonzero(
            self.final_network.gate_kind_in, axis=1
        ).astype(np.int64)
        self.output_gate_flags = (self.final_network.gate_kind_out != 0).astype(np.int64)


def seed_population(
    config: EvoConfig,
    n: int,
    train: Dataset,
    rng: np.random.Generator,
) -> Population:
    """P networks with weights and biases uniform in [-1, 1], gates inactive,
    unpriced (fitness inf): :func:`run_evolution` prices them all at once."""
    if len(train) == 0:
        raise ValueError("training set must be nonempty")
    pop: Population = []
    for _ in range(config.p):
        net = Network.zeros(n, config.h)
        net.w_in[:] = rng.uniform(-1.0, 1.0, size=(config.h, n))
        net.b_hidden[:] = rng.uniform(-1.0, 1.0, size=config.h)
        net.w_out[:] = rng.uniform(-1.0, 1.0, size=config.h)
        net.b_out = float(rng.uniform(-1.0, 1.0))
        pop.append(Individual(net, float("inf"), 0))
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
            return GateState.lower(threshold)
        return GateState.upper(threshold)
    if variant is Variant.DENDRITE_RANGE:
        edges = rng.uniform(-1.0, 1.0, size=2)
        return GateState.band(float(edges.min()), float(edges.max()))
    if variant is Variant.RANDOM_DROPOUT:
        return GateState.drop()
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
        return GateState.inactive()
    if gate.kind is GateKind.RANGE:
        move = int(rng.integers(0, 2))
        if move == 0:
            edges = np.array([gate.a, gate.b]) + rng.uniform(-r, r, size=2)
            return GateState.band(float(edges.min()), float(edges.max()))
        return GateState.inactive()
    if gate.kind is GateKind.DROP:
        return GateState.drop() if int(rng.integers(0, 2)) == 0 else GateState.inactive()
    raise ValueError("cannot mutate an inactive gate here")


def _child(parent: Network, *written: str) -> Network:
    """A genome sharing every array of ``parent`` except the ``written``
    fields, which it copies, so writing them leaves the parent intact."""
    child = Network(*(getattr(parent, name) for name in Network.__slots__))
    for name in written:
        setattr(child, name, getattr(parent, name).copy())
    return child


def describe_mutation(
    parent: Network, config: EvoConfig, rng: np.random.Generator
) -> tuple[Network, MutationRecord]:
    """Single-gene mutation, returning the child and what changed.

    With probability 1 - dendrite_mutation_prob (always, for STANDARD) a
    uniformly chosen weighted parameter, biases included, is shifted by a
    uniform draw from [-r, +r]. Otherwise a uniformly chosen gated
    connection is hit: an inactive gate is activated with fresh uniform
    [-1, 1] parameters, an active one takes one of its moves. Values are
    never clamped; a threshold drifting outside [-1, 1] simply behaves as
    an always-open (or always-shut) condition for inputs in range.
    The child shares the parent's arrays and copies only those it writes.
    """
    n, h = parent.n, parent.h
    if rng.random() < config.effective_dendrite_prob:
        gate_idx = int(rng.integers(0, parent.gateable_count))
        output_layer = gate_idx >= n * h
        j, i = (gate_idx - n * h, 0) if output_layer else divmod(gate_idx, n)
        old = parent.output_gate(j) if output_layer else parent.input_gate(j, i)
        if old.kind is GateKind.INACTIVE:
            new = _activate_gate(config.variant, rng)
        else:
            new = _mutate_active_gate(old, config.r, rng)
        if output_layer:
            child = _child(parent, "gate_kind_out", "gate_a_out", "gate_b_out")
            child.set_output_gate(j, new)
        else:
            child = _child(parent, "gate_kind_in", "gate_a_in", "gate_b_in")
            child.set_input_gate(j, i, new)
        return child, GateChange(output_layer, j, i, old, new)
    param_idx = int(rng.integers(0, parent.param_count))
    delta = float(rng.uniform(-config.r, config.r))
    if param_idx < n * h:
        j, i = divmod(param_idx, n)
        child = _child(parent, "w_in")
        child.w_in[j, i] += delta
        return child, WeightChange(_FIELD_W_IN, j, i, delta)
    # Past the input weights come h biases, h output weights, the output bias.
    kind, j = divmod(param_idx - n * h + h, h)
    if kind == _FIELD_B_OUT:
        child = _child(parent)
        child.b_out += delta
    else:
        name = "b_hidden" if kind == _FIELD_B_HIDDEN else "w_out"
        child = _child(parent, name)
        getattr(child, name)[j] += delta
    return child, WeightChange(kind, j, 0, delta)


def _replace_slot(
    pop: Population,
    offspring: Individual,
    parsimony: bool,
    rng: np.random.Generator,
) -> tuple[int, bool]:
    """Overwrite a uniformly chosen slot with the offspring, unless an exact
    fitness tie lets the contender with fewer active gates keep it (equal
    counts fall to a fair coin); returns (slot, offspring moved in)."""
    idx = int(rng.integers(0, len(pop)))
    victim = pop[idx]
    if parsimony and offspring.fitness == victim.fitness:
        if offspring.active_gate_count > victim.active_gate_count:
            return idx, False
        if offspring.active_gate_count == victim.active_gate_count:
            if rng.random() >= 0.5:
                return idx, False
    pop[idx] = offspring
    return idx, True


# --- incremental training-set evaluation --------------------------------------


def _pass_mask(kind: int, a: float, b: float, values: np.ndarray):
    """Deterministic contribution factor of a gate on ``values``: a 0/1 mask
    for threshold/range kinds, 1 otherwise (drop corrections are per pass)."""
    if kind == LOWER:
        passed = values >= a
    elif kind == UPPER:
        passed = values <= a
    elif kind == RANGE:
        passed = (values >= a) & (values <= b)
    else:
        return 1.0
    return passed.astype(np.float64)


def _output_mask(net: Network, j: int, values: np.ndarray):
    """``_pass_mask`` of the gate on hidden node j's output connection."""
    kind = int(net.gate_kind_out[j])
    return _pass_mask(kind, net.gate_a_out[j], net.gate_b_out[j], values)


@dataclass
class EvalState:
    """Deterministic evaluation state of one network on one dataset.

    det_pre_hidden holds the hidden pre-activations with threshold/range
    retractions applied and drop-gated contributions still included (drop
    corrections are per-pass). hidden and det_pre_out follow from it the
    same way. For a network with no drop gates, det_pre_out is the exact
    output pre-activation.

    Each hidden node's pre-activation and activation is its own (samples,)
    array. States share these columns, so none is written in place.
    """

    pre_cols: tuple[np.ndarray, ...]  # h columns of det_pre_hidden
    hidden_cols: tuple[np.ndarray, ...]  # h columns of expit(det_pre_hidden)
    det_pre_out: np.ndarray  # (samples,)

    @property
    def det_pre_hidden(self) -> np.ndarray:  # (samples, h), C order
        return np.array(self.pre_cols).T.copy()

    @property
    def hidden(self) -> np.ndarray:  # (samples, h), C order
        return np.array(self.hidden_cols).T.copy()


class TrainEvaluator:
    """Incremental MSE evaluation against one fixed dataset.

    ``full_state`` prices a network from scratch; ``child_state`` prices
    a single-gene mutant from its parent's state in O(samples). ``score``
    turns a state into the MSE, redrawing drop-gate coins per call. The
    direct route (:func:`dendrevo.net.mse`) is the reference; both agree
    to float rounding, and exactly when no drop gates are involved and
    the states were built by the same expressions.
    """

    def __init__(self, data: Dataset, drop_prob: float = DEFAULT_DROP_PROB):
        self.features = data.features
        self.targets = data.targets
        self.drop_prob = drop_prob

    def full_state(self, net: Network) -> EvalState:
        return self._finish_state(net, self.features @ net.w_in.T + net.b_hidden)

    def full_states(self, nets: list[Network]) -> list[EvalState]:
        """States for a whole population at once.

        The input-layer products are fused into one matrix multiply,
        which is what makes per-generation training-set resampling
        affordable. The fused product can differ from the one-network
        route in the last float digit (the BLAS kernel depends on the
        output shape), so a loop that relies on exact fitness ties must
        price every member through the same route.
        """
        if not nets:
            return []
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
        flat = _det_gates(net.gate_kind_in.reshape(-1))
        if flat.size:
            retract_input_gates(net, pre_hidden, self.features, flat)
        hidden = expit(pre_hidden)
        # Independent columns: a view would keep the whole matrix alive.
        return EvalState(
            tuple(col.copy() for col in pre_hidden.T),
            tuple(col.copy() for col in hidden.T),
            _det_pre_out(net, hidden),
        )

    @staticmethod
    def _with_node(child: Network, parent: EvalState, j: int, pre_j) -> EvalState:
        """The parent state with node j's pre-activation column set to pre_j
        and the change carried through; the other columns are shared."""
        h_old, h_new = parent.hidden_cols[j], expit(pre_j)
        if int(child.gate_kind_out[j]) in (INACTIVE, DROP):
            diff = h_new - h_old
        else:
            diff = h_new * _output_mask(child, j, h_new)
            diff -= h_old * _output_mask(child, j, h_old)
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
                mask = _pass_mask(kind, child.gate_a_in[j, i], child.gate_b_in[j, i], column)
                term = change.delta * column * mask
                return self._with_node(child, parent_state, j, pre[j] + term)
            if change.kind == _FIELD_B_HIDDEN:
                return self._with_node(child, parent_state, j, pre[j] + change.delta)
            if change.kind == _FIELD_W_OUT:
                term = change.delta * hidden[j] * _output_mask(child, j, hidden[j])
            else:
                term = change.delta
            return EvalState(pre, hidden, parent_state.det_pre_out + term)
        old, new, out = change.old, change.new, change.output_layer
        values = hidden[j] if out else self.features[:, i]
        term = float(child.w_out[j] if out else child.w_in[j, i]) * values * (
            _pass_mask(new.kind, new.a, new.b, values) - _pass_mask(old.kind, old.a, old.b, values)
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
        output layer's. Dropped terms are zeroed by a 0/1 multiply, not a
        select, which spares a mispredicted branch per coin. A dropped
        term may then be -0.0 where the select gave +0.0; adding either to
        a nonzero partial sum is exact and ``expit`` maps both zeros to the
        same value, so the score is bitwise that of the select."""
        drop_in = (net.gate_kind_in.reshape(-1) == DROP).nonzero()[0]
        drop_out = (net.gate_kind_out == DROP).nonzero()[0]
        if (drop_in.size or drop_out.size) and rng is None:
            raise ValueError("a DROP gate needs an rng to flip its coins")
        hidden_cols, pre_out = state.hidden_cols, state.det_pre_out
        if drop_in.size:
            nodes, inputs = np.divmod(drop_in, net.n)
            pre_hidden = state.det_pre_hidden  # a fresh C-ordered matrix
            blocked = rng.random((len(self.targets), drop_in.size)) < self.drop_prob
            w = net.w_in.reshape(-1)[drop_in]
            values = np.take(self.features, inputs, axis=1)
            retract_blocked(pre_hidden, values, w, blocked, nodes)
            hidden = expit(pre_hidden)
            hidden_cols = hidden.T
            pre_out = _det_pre_out(net, hidden)
        if drop_out.size:
            # C order, as np.take gives in predict
            values = np.column_stack([hidden_cols[j] for j in drop_out])
            values *= net.w_out[drop_out]
            values *= rng.random(values.shape) < self.drop_prob
            pre_out = pre_out - values.sum(axis=1)
        err = expit(pre_out) - self.targets
        return float(err @ err / err.shape[0])


def _det_gates(kinds: np.ndarray) -> np.ndarray:
    """Indices of the LOWER, UPPER and RANGE gates among ``kinds``."""
    return np.flatnonzero((kinds != INACTIVE) & (kinds != DROP))


def _det_pre_out(net: Network, hidden: np.ndarray) -> np.ndarray:
    """Output pre-activation with the deterministic output gates' terms
    retracted one node at a time, in ascending node order."""
    pre_out = hidden @ net.w_out + net.b_out
    det = _det_gates(net.gate_kind_out)
    if det.size:
        values = hidden[:, det]
        blocked = blocked_matrix(
            net.gate_kind_out[det], net.gate_a_out[det], net.gate_b_out[det], values
        )
        values *= net.w_out[det]
        values *= blocked
        for terms in values.T:
            pre_out -= terms
    return pre_out


# --- the steady-state loop -----------------------------------------------------


def _record(
    pop: Population,
    generation: int,
    test: Dataset,
    rng: np.random.Generator,
    drop_prob: float,
) -> TraceRecord:
    best_idx = min(range(len(pop)), key=lambda m: pop[m].fitness)
    best = pop[best_idx]
    denom = best.network.param_count
    mean_fraction = float(
        np.mean([member.active_gate_count / denom for member in pop])
    )
    return TraceRecord(
        generation=generation,
        best_train_mse=best.fitness,
        best_test_mse=mse(best.network, test, rng, drop_prob),
        best_gate_fraction=best.active_gate_count / denom,
        mean_gate_fraction=mean_fraction,
    )


def run_evolution(
    config: EvoConfig,
    landscape: NKLandscape | None,
    train: Dataset,
    test: Dataset,
    rng: np.random.Generator | None = None,
) -> RunTrace:
    """Run the steady-state loop and record one trace row per generation.

    All randomness (seeding, selection, mutation, drop-gate coins) flows
    through one stream, so a given seed fully determines the trace.
    Training fitness is maintained by the incremental evaluator; test
    error is measured by the direct forward pass on the generation's
    best member. The landscape is only consulted when per-generation
    training-set resampling is enabled, and that run draws its table once
    and holds it; pass None otherwise if it has been dropped.
    """
    if train.n != test.n:
        raise ValueError(f"train n={train.n} and test n={test.n} disagree")
    if landscape is not None and landscape.n != train.n:
        raise ValueError(f"landscape n={landscape.n} does not match data n={train.n}")
    if config.resample_train_each_generation:
        if landscape is None:
            raise ValueError("training-set resampling needs the landscape")
        landscape = landscape.dense()
    if rng is None:
        rng = np.random.default_rng(config.seed)

    evaluator = TrainEvaluator(train, config.drop_prob)
    pop = seed_population(config, train.n, train, rng)
    states = evaluator.full_states([member.network for member in pop])
    for member, state in zip(pop, states):
        member.fitness = evaluator.score(member.network, state, rng)
    records = [_record(pop, 0, test, rng, config.drop_prob)]
    for generation in range(1, config.generations + 1):
        if config.resample_train_each_generation:
            train = generate_dataset(landscape, len(train), train.encoding, rng)
            evaluator = TrainEvaluator(train, config.drop_prob)
            states = evaluator.full_states([member.network for member in pop])
            for idx, member in enumerate(pop):
                member.fitness = evaluator.score(member.network, states[idx], rng)
        for _ in range(config.steps_per_generation):
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
            slot, moved_in = _replace_slot(pop, child, config.parsimony, rng)
            if moved_in:
                states[slot] = child_state
        records.append(_record(pop, generation, test, rng, config.drop_prob))
    best = min(pop, key=lambda m: m.fitness)
    return RunTrace(records=records, final_network=best.network)
