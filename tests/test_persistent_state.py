"""Persistent genomes and evaluator states.

A child genome shares every array its one-gene mutation does not write,
and a child state shares every hidden column its mutation leaves alone.
The oracle below keeps the earlier copy-based evaluator: whole (samples,
h) matrices copied per child and updated in place. The column states
must match it bit for bit, and no ancestor may change under its
descendants.
"""

import numpy as np
import pytest
from scipy.special import expit

from dendrevo import evolve
from dendrevo.evolve import (
    EvalState,
    EvoConfig,
    TrainEvaluator,
    Variant,
    WeightChange,
    describe_mutation,
    run_evolution,
    seed_population,
)
from dendrevo.net import GateKind, GateState, Network, mse
from dendrevo.nk import Encoding, build_landscape, generate_dataset

GATED = (Variant.DENDRITE_THRESHOLD, Variant.DENDRITE_RANGE, Variant.RANDOM_DROPOUT)


@pytest.fixture(scope="module")
def task():
    land = build_landscape(12, 3, 100)
    rng = np.random.default_rng(300)
    train = generate_dataset(land, 64, Encoding.SIGN_SPLIT, rng)
    test = generate_dataset(land, 32, Encoding.SIGN_SPLIT, rng)
    return land, train, test


# --- the copy-based oracle ---------------------------------------------------


class OracleState:
    def __init__(self, det_pre_hidden, hidden, det_pre_out):
        self.det_pre_hidden = det_pre_hidden
        self.hidden = hidden
        self.det_pre_out = det_pre_out

    def copy(self):
        return OracleState(
            self.det_pre_hidden.copy(), self.hidden.copy(), self.det_pre_out.copy()
        )


def oracle_eff_mask(gate, values):
    if gate.kind is GateKind.LOWER:
        passed = values >= gate.a
    elif gate.kind is GateKind.UPPER:
        passed = values <= gate.a
    elif gate.kind is GateKind.RANGE:
        passed = (values >= gate.a) & (values <= gate.b)
    else:
        return 1.0
    return passed.astype(np.float64)


def oracle_refresh_node(child, state, j):
    h_old = state.hidden[:, j].copy()
    h_new = expit(state.det_pre_hidden[:, j])
    state.hidden[:, j] = h_new
    gate = child.gate(True, 0, j)
    w = float(child.w_out[0, j])
    if gate.kind in (GateKind.INACTIVE, GateKind.DROP):
        state.det_pre_out += w * (h_new - h_old)
    else:
        state.det_pre_out += w * (
            h_new * oracle_eff_mask(gate, h_new) - h_old * oracle_eff_mask(gate, h_old)
        )


def oracle_child_state(features, parent_state, child, change):
    state = parent_state.copy()
    if isinstance(change, WeightChange):
        j, i = change.j, change.i
        if not change.output_layer and i >= 0:
            column = features[:, i]
            state.det_pre_hidden[:, j] += (
                change.delta * column * oracle_eff_mask(child.gate(False, j, i), column)
            )
            oracle_refresh_node(child, state, j)
        elif not change.output_layer:
            state.det_pre_hidden[:, j] += change.delta
            oracle_refresh_node(child, state, j)
        elif i >= 0:
            h = state.hidden[:, i]
            state.det_pre_out += change.delta * h * oracle_eff_mask(child.gate(True, 0, i), h)
        else:
            state.det_pre_out += change.delta
        return state
    j = change.j
    if not change.output_layer:
        column = features[:, change.i]
        w = float(child.w_in[j, change.i])
        state.det_pre_hidden[:, j] += w * column * (
            oracle_eff_mask(change.new, column) - oracle_eff_mask(change.old, column)
        )
        oracle_refresh_node(child, state, j)
        return state
    h = state.hidden[:, change.i]
    w = float(child.w_out[0, change.i])
    state.det_pre_out += w * h * (
        oracle_eff_mask(change.new, h) - oracle_eff_mask(change.old, h)
    )
    return state


def oracle_score(data, net, state, rng):
    """The matrix-based score: a copied pre-activation matrix, the dropped
    input terms selected and summed per node by ``np.add.reduceat``, the
    deterministic output gates retracted one node at a time by a select,
    and an ``np.take`` gather of the dropped output columns. A drop coin
    below 0.5 blocks."""
    drop_in = np.flatnonzero(net.gate_kind_in.reshape(-1) == GateKind.DROP.value)
    drop_out = np.flatnonzero(net.gate_kind_out[0] == GateKind.DROP.value)
    hidden, pre_out = state.hidden, state.det_pre_out
    if drop_in.size:
        nodes, inputs = np.divmod(drop_in, net.n)
        pre_hidden = state.det_pre_hidden.copy()
        blocked = rng.random((len(data.targets), drop_in.size)) < 0.5
        w = net.w_in.reshape(-1)[drop_in]
        retract = np.where(blocked, w * np.take(data.features, inputs, axis=1), 0.0)
        starts = np.flatnonzero(np.r_[True, nodes[1:] != nodes[:-1]])
        pre_hidden[:, nodes[starts]] -= np.add.reduceat(retract, starts, axis=1)
        hidden = expit(pre_hidden)
        pre_out = hidden @ net.w_out[0] + net.b_out[0]
        for j in range(net.h):
            gate = net.gate(True, 0, j)
            if gate.kind in (GateKind.LOWER, GateKind.UPPER, GateKind.RANGE):
                h = hidden[:, j]
                pre_out -= np.where(oracle_eff_mask(gate, h), 0.0, net.w_out[0, j] * h)
    if drop_out.size:
        values = np.take(hidden, drop_out, axis=1)
        values *= net.w_out[0, drop_out]
        values *= rng.random(values.shape) < 0.5
        pre_out = pre_out - values.sum(axis=1)
    err = expit(pre_out) - data.targets
    return float(err @ err / err.shape[0])


def hidden_matrix(state):
    """An EvalState's hidden activations as one C-ordered (samples, h) matrix."""
    return np.array(state.hidden_cols).T.copy()


def as_oracle(state):
    return OracleState(state.det_pre_hidden, hidden_matrix(state), state.det_pre_out.copy())


def genome_bytes(net):
    return tuple(
        np.asarray(getattr(net, name)).tobytes() for name in Network.__slots__
    )


def state_bytes(state):
    return (
        tuple(col.tobytes() for col in state.pre_cols),
        tuple(col.tobytes() for col in state.hidden_cols),
        state.det_pre_out.tobytes(),
    )


# --- tests ---------------------------------------------------------------------


def check_lineages_against_the_oracle(train, cfg, seed_gates=None):
    """A small population of lineages: each step mutates a random member,
    so children of old and new states alike are checked. ``seed_gates``
    returns a gated child of each seeded genome. Returns the gate changes
    and the children scored with both input drop gates and deterministic
    output gates."""
    evaluator = TrainEvaluator(train)
    rng = np.random.default_rng(60)
    pop = []
    for net in seed_population(cfg, train.n, rng):
        if seed_gates is not None:
            net = seed_gates(net)
        state = evaluator.full_states([net])[0]
        pop.append((net, state, as_oracle(state)))
    gate_changes = mixed = 0
    for step in range(400):
        net, state, oracle = pop[int(rng.integers(0, len(pop)))]
        child, change = describe_mutation(net, cfg, rng)
        gate_changes += not isinstance(change, WeightChange)
        kinds_out = child.gate_kind_out
        mixed += bool((child.gate_kind_in == GateKind.DROP).any()) and bool(
            ((kinds_out != GateKind.INACTIVE) & (kinds_out != GateKind.DROP)).any()
        )
        child_state = evaluator.child_state(state, child, change)
        child_oracle = oracle_child_state(train.features, oracle, child, change)
        assert child_state.det_pre_hidden.tobytes() == child_oracle.det_pre_hidden.tobytes()
        assert hidden_matrix(child_state).tobytes() == child_oracle.hidden.tobytes()
        assert child_state.det_pre_out.tobytes() == child_oracle.det_pre_out.tobytes()
        got = evaluator.score(child, child_state, np.random.default_rng(step))
        want = oracle_score(train, child, child_oracle, np.random.default_rng(step))
        assert got == want
        pop[int(rng.integers(0, len(pop)))] = (child, child_state, child_oracle)
    return gate_changes, mixed


def all_output_drops(net):
    # 8 or more dropped terms in one output sum fix its layout
    net = net.child("gate_kind_out", "gate_a_out", "gate_b_out")
    for j in range(net.h):
        net.set_gate(True, 0, j, GateState(GateKind.DROP))
    return net


@pytest.mark.parametrize("variant", list(Variant))
def test_column_states_are_bitwise_the_copy_based_oracle(task, variant):
    _, train, _ = task
    cfg = EvoConfig(variant=variant, p=5)
    seed_gates = all_output_drops if variant is Variant.RANDOM_DROPOUT else None
    gate_changes, _ = check_lineages_against_the_oracle(train, cfg, seed_gates)
    if variant is not Variant.STANDARD:
        assert gate_changes > 100


def input_drops_and_deterministic_output_gates(net):
    net = net.child(
        "gate_kind_in", "gate_a_in", "gate_b_in", "gate_kind_out", "gate_a_out", "gate_b_out"
    )
    for j in range(net.h):
        for i in range(j % 3, net.n, 3):
            net.set_gate(False, j, i, GateState(GateKind.DROP))
    outputs = (
        GateState(GateKind.LOWER, 0.5),
        GateState(GateKind.UPPER, 0.5),
        GateState(GateKind.RANGE, 0.3, 0.7),
    )
    for j in range(net.h):
        net.set_gate(True, 0, j, outputs[j % 3])
    return net


def test_input_drops_under_deterministic_output_gates_match_the_oracle(task):
    """Input drop gates send ``score`` through the evaluator's full forward
    step, which retracts the LOWER, UPPER and RANGE output gates node by
    node; the oracle's own retraction loop must run for most children."""
    _, train, _ = task
    cfg = EvoConfig(variant=Variant.DENDRITE_THRESHOLD, p=5)
    seed_gates = input_drops_and_deterministic_output_gates
    gate_changes, mixed = check_lineages_against_the_oracle(train, cfg, seed_gates)
    assert gate_changes > 100
    assert mixed > 300


def test_state_matrices_are_c_ordered_rebuilds_of_the_columns(task):
    _, train, _ = task
    cfg = EvoConfig(variant=Variant.DENDRITE_RANGE)
    evaluator = TrainEvaluator(train)
    net = seed_population(cfg, train.n, np.random.default_rng(61))[0]
    state = evaluator.full_states([net])[0]
    assert len(state.pre_cols) == len(state.hidden_cols) == net.h
    for matrix, cols in ((state.det_pre_hidden, state.pre_cols), (hidden_matrix(state), state.hidden_cols)):
        assert matrix.shape == (len(train), net.h)
        assert matrix.flags.c_contiguous
        for j, col in enumerate(cols):
            assert col.flags.c_contiguous and col.base is None  # owns its data
            assert col.tobytes() == matrix[:, j].tobytes()
    assert not hasattr(EvalState, "copy")


@pytest.mark.parametrize("variant", GATED)
def test_descendants_never_change_their_ancestors(task, variant):
    _, train, _ = task
    cfg = EvoConfig(variant=variant)
    evaluator = TrainEvaluator(train)
    rng = np.random.default_rng(62)
    net = seed_population(cfg, train.n, rng)[0]
    state = evaluator.full_states([net])[0]
    chain = [(net, state, genome_bytes(net), state_bytes(state))]
    for _ in range(300):
        net, change = describe_mutation(net, cfg, rng)
        state = evaluator.child_state(state, net, change)
        chain.append((net, state, genome_bytes(net), state_bytes(state)))
    for net, state, genome, columns in chain:
        assert genome_bytes(net) == genome
        assert state_bytes(state) == columns


def test_children_share_what_their_mutation_does_not_write(task):
    _, train, _ = task
    cfg = EvoConfig(variant=Variant.DENDRITE_THRESHOLD)
    evaluator = TrainEvaluator(train)
    rng = np.random.default_rng(63)
    parent = seed_population(cfg, train.n, rng)[0]
    parent_state = evaluator.full_states([parent])[0]
    for _ in range(200):
        child, change = describe_mutation(parent, cfg, rng)
        written = {
            name for name in Network.__slots__ if getattr(child, name) is not getattr(parent, name)
        }
        if isinstance(change, WeightChange):
            name = [["b_hidden", "w_in"], ["b_out", "w_out"]][change.output_layer][change.i >= 0]
            assert written == {name}
        elif change.output_layer:
            assert written == {"gate_kind_out", "gate_a_out", "gate_b_out"}
        else:
            assert written == {"gate_kind_in", "gate_a_in", "gate_b_in"}
        state = evaluator.child_state(parent_state, child, change)
        new_cols = {
            j
            for j in range(parent.h)
            if state.pre_cols[j] is not parent_state.pre_cols[j]
            or state.hidden_cols[j] is not parent_state.hidden_cols[j]
        }
        assert new_cols == (set() if change.output_layer else {change.j})


def test_the_step_loop_never_deep_copies_a_genome(task, monkeypatch):
    land, train, test = task
    # What one step may copy: one weight or bias array, or one layer's gates.
    allowed = [
        set(), {"w_in"}, {"b_hidden"}, {"w_out"}, {"b_out"},
        {"gate_kind_in", "gate_a_in", "gate_b_in"},
        {"gate_kind_out", "gate_a_out", "gate_b_out"},
    ]
    real_child = Network.child
    copied = []

    def spy(self, *written):
        assert set(written) in allowed, written
        copied.append(written)
        return real_child(self, *written)

    monkeypatch.setattr(Network, "child", spy)
    for variant in Variant:
        copied.clear()
        cfg = EvoConfig(variant=variant, generations=2, p=8)
        trace = run_evolution(cfg, land, train, test, np.random.default_rng(64))
        assert len(trace.records) == 3
        # One child per seeded member (of the shared blank genome) and per step.
        assert len(copied) == cfg.p + cfg.generations * cfg.p


@pytest.mark.parametrize(
    "variant", [Variant.STANDARD, Variant.DENDRITE_THRESHOLD, Variant.DENDRITE_RANGE]
)
def test_incremental_fitness_does_not_drift_from_the_direct_pass(task, variant):
    land, train, test = task
    cfg = EvoConfig(variant=variant, generations=40, p=10)
    trace = run_evolution(cfg, land, train, test, np.random.default_rng(65))
    drift = abs(trace.records[-1].best_train_mse - mse(trace.final_network, train))
    assert drift <= 1e-12


def assert_read_only(net: Network) -> None:
    assert len(Network.__slots__) == 10
    for name in Network.__slots__:
        with pytest.raises(ValueError, match="read-only"):
            getattr(net, name)[(0,) * getattr(net, name).ndim] = 1.0


def test_population_genomes_refuse_in_place_writes(task, monkeypatch):
    land, train, test = task
    cfg = EvoConfig(variant=Variant.DENDRITE_THRESHOLD, generations=3, p=8)
    seeded = seed_population(cfg, train.n, np.random.default_rng(66))
    for net in seeded:
        assert_read_only(net)
    with pytest.raises(ValueError, match="read-only"):
        seeded[0].set_gate(False, 0, 0, GateState(GateKind.LOWER, 0.0))
    # Network.child's copies stay writable; describe_mutation freezes what it wrote.
    child = seeded[0].child("w_in", "gate_kind_out", "gate_a_out", "gate_b_out")
    child.w_in[0, 0] += 1.0
    child.set_gate(True, 0, 0, GateState(GateKind.UPPER, 0.5))
    # An output-bias edit copies the length-1 b_out array, and freezes it too.
    rng = np.random.default_rng(68)
    edits = (describe_mutation(seeded[0], cfg, rng) for _ in range(10_000))
    child, _ = next((c, ch) for c, ch in edits if ch.output_layer and ch.i == -1)
    assert child.b_out is not seeded[0].b_out
    assert_read_only(child)

    real_replace = evolve._replace_slot
    joined = []

    def spy(pop, offspring, rng):
        slot, moved_in = real_replace(pop, offspring, rng)
        if moved_in:
            joined.append(offspring.network)
        return slot, moved_in

    monkeypatch.setattr(evolve, "_replace_slot", spy)
    trace = run_evolution(cfg, land, train, test, np.random.default_rng(67))
    assert joined
    for net in joined:
        assert_read_only(net)
    assert_read_only(trace.final_network)


@pytest.mark.parametrize(
    "variant", [Variant.STANDARD, Variant.DENDRITE_THRESHOLD, Variant.DENDRITE_RANGE]
)
def test_each_member_carries_the_state_its_fitness_was_scored_from(task, monkeypatch, variant):
    land, train, test = task
    cfg = EvoConfig(variant=variant, generations=3, p=8)
    real_replace = evolve._replace_slot
    populations = []

    def spy(pop, offspring, rng):
        populations.append(pop)
        return real_replace(pop, offspring, rng)

    monkeypatch.setattr(evolve, "_replace_slot", spy)
    run_evolution(cfg, land, train, test, np.random.default_rng(68))
    pop = populations[0]
    assert len(populations) == cfg.p * cfg.generations
    assert all(seen is pop for seen in populations) and len(pop) == cfg.p
    evaluator = TrainEvaluator(train)
    for member in pop:
        fresh = evaluator.full_states([member.network])[0]
        assert np.allclose(member.state.det_pre_hidden, fresh.det_pre_hidden, atol=1e-9)
        assert np.allclose(member.state.hidden_cols, fresh.hidden_cols, atol=1e-9)
        assert np.allclose(member.state.det_pre_out, fresh.det_pre_out, atol=1e-9)
        assert evaluator.score(member.network, member.state) == member.fitness
