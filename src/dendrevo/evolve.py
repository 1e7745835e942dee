"""Steady-state neuroevolution of gated perceptrons.

One offspring per step: binary tournament picks a parent, a single-gene
mutation produces the child, the child is evaluated on the training set
and then overwrites a uniformly chosen victim. When child and victim have
exactly equal training error, the one using fewer active gates keeps the
slot, which applies a constant selective pressure against gate use.

A "generation" is P steps of this loop, one offspring per member, so
the default 1000-generation run performs 50,000 fitness evaluations.

Because each mutation changes one gene, training fitness is maintained
incrementally: every population member carries the deterministic part of
its training-set pre-activations and its active gate count, and an
offspring's are its parent's with one column updated and the count moved
by the edit. Only drop-gate coin flips are redrawn per evaluation. The
direct forward pass in :mod:`dendrevo.net` remains the reference; the
cached path must agree with it to float tolerance.

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
    DROP, INACTIVE_GATE, LAYERS, OPEN_KINDS,
    GateKind,
    GateState,
    Network,
    count_active_gates,
    det_gates,
    hidden_pass,
    mse,
    output_terms,
    pass_mask,
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


def _freeze(net: Network, names: tuple[str, ...] = Network.__slots__) -> Network:
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


def seed_population(config: EvoConfig, n: int, rng: np.random.Generator) -> list[Network]:
    """P read-only genomes with weights and biases uniform in [-1, 1], which
    :func:`run_evolution` prices all at once. Their inactive gates are one blank
    genome's arrays, shared, as no population genome is written in place."""
    blank = Network(n, config.h)
    nets = []
    for _ in range(config.p):
        net = blank.child()
        net.w_in = rng.uniform(-1.0, 1.0, size=(config.h, n))
        net.b_hidden = rng.uniform(-1.0, 1.0, size=config.h)
        net.w_out = rng.uniform(-1.0, 1.0, size=(1, config.h))
        net.b_out = np.array([rng.uniform(-1.0, 1.0)])
        nets.append(_freeze(net))
    return nets


def tournament_select(pop: list[Individual], rng: np.random.Generator) -> int:
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

#: Probability that a mutation of a gated variant hits a gate, not a weight.
GATE_MUTATION_PROB = 0.5


@dataclass(frozen=True)
class WeightChange:
    """One weight or bias shifted by delta, addressed as a GateChange is;
    i = -1 names node j's bias."""

    output_layer: bool
    j: int
    i: int
    delta: float


@dataclass(frozen=True)
class GateChange:
    """One connection's gate replaced (old may equal new: the dropout
    re-enable move is a deliberate no-op). ``(output_layer, j, i)`` is the
    address a ``.dnet`` line starts with: layer, target node, source node."""

    output_layer: bool
    j: int  # the connection's target: a hidden node, or 0 in the output layer
    i: int  # the connection's source: an input, or a hidden node in the output layer
    old: GateState
    new: GateState


MutationRecord = WeightChange | GateChange


def _activate_gate(variant: Variant, rng: np.random.Generator) -> GateState:
    """Fresh gate for a connection that had none, per the variant."""
    if variant is Variant.DENDRITE_THRESHOLD:
        threshold = 2 * rng.random() - 1  # rng.uniform(-1, 1), bit for bit
        if rng.random() < 0.5:
            return GateState(GateKind.LOWER, threshold)
        return GateState(GateKind.UPPER, threshold)
    if variant is Variant.DENDRITE_RANGE:
        edges = sorted((2 * rng.random() - 1, 2 * rng.random() - 1))  # rng.uniform(-1, 1, size=2)
        return GateState(GateKind.RANGE, *edges)
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
            return GateState(gate.kind, gate.a + (2 * r * rng.random() - r))
        if move == 1:
            flipped = GateKind.UPPER if gate.kind is GateKind.LOWER else GateKind.LOWER
            return GateState(flipped, gate.a)
        return INACTIVE_GATE
    if gate.kind is GateKind.RANGE:
        move = int(rng.integers(0, 2))
        if move == 0:
            edges = sorted(edge + (2 * r * rng.random() - r) for edge in (gate.a, gate.b))
            return GateState(GateKind.RANGE, *edges)
        return INACTIVE_GATE
    if gate.kind is GateKind.DROP:
        return GateState(GateKind.DROP) if int(rng.integers(0, 2)) == 0 else INACTIVE_GATE
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
        out = gate_idx >= n * h
        j, i = (0, gate_idx - n * h) if out else divmod(gate_idx, n)
        old = parent.gate(out, j, i)
        if old.kind is GateKind.INACTIVE:
            new = _activate_gate(config.variant, rng)
        else:
            new = _mutate_active_gate(old, config.r, rng)
        written = LAYERS[out][:3]
        child = parent.child(*written)
        child.set_gate(out, j, i, new)
        return _freeze(child, written), GateChange(out, j, i, old, new)
    param_idx = int(rng.integers(0, parent.param_count))
    delta = 2 * config.r * rng.random() - config.r  # rng.uniform(-r, r), bit for bit
    # n*h input weights, then h hidden biases, h output weights and the output bias.
    k = param_idx - n * h
    if k < 0:
        out, (j, i) = False, divmod(param_idx, n)
    else:
        out, j, i = (False, k, -1) if k < h else (True, 0, k - h if k < 2 * h else -1)
    name = LAYERS[out][3 if i >= 0 else 4]
    child = parent.child(name)
    getattr(child, name)[(j, i) if i >= 0 else j] += delta
    return _freeze(child, (name,)), WeightChange(out, j, i, delta)


def _replace_slot(
    pop: list[Individual],
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


@dataclass
class Individual:
    """A population member: its genome, training error and active gate
    count, and the training-set state the error was scored from."""

    network: Network
    fitness: float  # training MSE, lower is better
    active_gate_count: int
    state: EvalState | None = None

    def __post_init__(self) -> None:
        if self.fitness < 0:
            raise ValueError("fitness (an MSE) cannot be negative")


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
        """:func:`dendrevo.net.hidden_pass` over the input gates at ``flat``, then
        the deterministic output gates' terms subtracted from the output
        pre-activation one node at a time in ascending order."""
        hidden, pre_out = hidden_pass(net, pre_hidden, self.features, flat, rng)
        det = det_gates(net.gate_kind_out)
        if det.size:
            for terms in output_terms(net, hidden.T, det).T:
                pre_out -= terms
        return hidden, pre_out

    def child_state(
        self, parent_state: EvalState, child: Network, change: MutationRecord
    ) -> EvalState:
        """The child's state, built out of place: only the mutated node's
        columns and det_pre_out are new arrays. The edit adds one term to node
        j's pre-activation, or in the output layer to det_pre_out: a bias edit
        adds delta, a weight edit delta * values * pass, and a gate edit
        w * values * (new pass - old pass), where values is the wire's input."""
        pre, hidden = parent_state.pre_cols, parent_state.hidden_cols
        out, j, i = change.output_layer, change.j, change.i
        base = parent_state.det_pre_out if out else pre[j]  # the sum the term is added to
        if i < 0:
            summed = base + change.delta  # a bias has no gate
        else:
            values = hidden[i] if out else self.features[:, i]
            kinds, a, b, w, _ = child.layer(out)
            passed = pass_mask(int(kinds[j, i]), a[j, i], b[j, i], values)
            if isinstance(change, WeightChange):
                summed = change.delta * values
                if not isinstance(passed, float):  # skip an open gate's exact * 1.0
                    summed *= passed
            else:
                old_pass = pass_mask(change.old.kind, change.old.a, change.old.b, values)
                summed = float(w[j, i]) * values * (passed - old_pass)
            summed += base  # the term is a fresh array, so it takes the sum in place
        if out:
            return EvalState(pre, hidden, summed)
        # Node j's new pre-activation, carried through its output connection.
        h_old, h_new = hidden[j], expit(summed)
        kind = int(child.gate_kind_out[0, j])
        if kind in OPEN_KINDS:
            diff = h_new - h_old
        else:
            a, b = child.gate_a_out[0, j], child.gate_b_out[0, j]
            diff = h_new * pass_mask(kind, a, b, h_new)
            diff -= h_old * pass_mask(kind, a, b, h_old)
        diff *= float(child.w_out[0, j])
        diff += parent_state.det_pre_out
        return EvalState(
            pre[:j] + (summed,) + pre[j + 1 :], hidden[:j] + (h_new,) + hidden[j + 1 :], diff
        )

    def score(
        self, net: Network, state: EvalState, rng: np.random.Generator | None = None
    ) -> float:
        """MSE from a state. Drop coins, when present, are drawn in the
        same order as the direct route: one block for the input layer's
        drop gates in ascending connection order, then one for the
        output layer's; one byte search first spares a drop-free net the scans."""
        hidden_cols, pre_out = state.hidden_cols, state.det_pre_out
        if bytes((DROP,)) in net.gate_kind_in.tobytes() + net.gate_kind_out.tobytes():
            drop_in = (net.gate_kind_in.reshape(-1) == DROP).nonzero()[0]
            drop_out = (net.gate_kind_out[0] == DROP).nonzero()[0]
            if drop_in.size:
                hidden, pre_out = self._forward(net, state.det_pre_hidden, drop_in, rng)
                hidden_cols = hidden.T
            if drop_out.size:
                terms = output_terms(net, hidden_cols, drop_out, rng)
                pre_out = pre_out - terms.sum(axis=1)
        err = expit(pre_out)
        err -= self.targets
        return float(err @ err / err.shape[0])


# --- the steady-state loop -----------------------------------------------------


#: Test-row multiply-adds (rows x n x h) from which a row goes to the helper thread: a 1000-row
#: h=10 cell on 2 cores broke even at n=150; a smaller row mostly contends for the GIL.
OVERLAP_MIN_MACS = 2_000_000


def _record(pop: list[Individual], generation: int, test: Dataset, rng, pool: ThreadPoolExecutor):
    """The generation's trace row, as a call that returns it. All but the best
    member's test error is read now, before the next generation replaces members;
    that is priced on ``pool``'s thread with no rng, unless the product is below
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


def _price(nets: list[Network], train: Dataset, rng: np.random.Generator):
    """Score every genome on ``train`` from scratch, in order; return the
    evaluator and a population of the priced members."""
    evaluator = TrainEvaluator(train)
    pop = [
        Individual(net, evaluator.score(net, state, rng), count_active_gates(net)[0], state)
        for net, state in zip(nets, evaluator.full_states(nets))
    ]
    return evaluator, pop


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
    if len(train) == 0:
        raise ValueError("training set must be nonempty")
    if train.n != test.n:
        raise ValueError(f"train n={train.n} and test n={test.n} disagree")
    if landscape is not None and landscape.n != train.n:
        raise ValueError(f"landscape n={landscape.n} does not match data n={train.n}")
    if config.resample_train_each_generation:
        if landscape is None:
            raise ValueError("training-set resampling needs the landscape")
        landscape = landscape.dense()

    evaluator, pop = _price(seed_population(config, train.n, rng), train, rng)
    records = []
    with ThreadPoolExecutor(max_workers=1) as pool:  # starts a thread on first submit
        row = _record(pop, 0, test, rng, pool)
        for generation in range(1, config.generations + 1):
            if config.resample_train_each_generation:
                train = generate_dataset(landscape, len(train), train.encoding, rng)
                evaluator, pop = _price([member.network for member in pop], train, rng)
            for _ in range(config.p):
                parent = pop[tournament_select(pop, rng)]
                net, change = describe_mutation(parent.network, config, rng)
                state = evaluator.child_state(parent.state, net, change)
                fitness = evaluator.score(net, state, rng)
                gates = parent.active_gate_count  # carried: +1 per activation, -1 per disable
                if isinstance(change, GateChange):  # INACTIVE is the one falsy kind
                    gates += bool(change.new.kind) - bool(change.old.kind)
                _replace_slot(pop, Individual(net, fitness, gates, state), rng)
            records.append(row())
            row = _record(pop, generation, test, rng, pool)
        records.append(row())
    best = min(pop, key=lambda m: m.fitness)
    return RunTrace(records=records, final_network=best.network)
