"""Selection, mutation, replacement, and the incremental evaluator."""

import copy
import math
from dataclasses import replace

import numpy as np
import pytest

from dendrevo import evolve
from dendrevo.evolve import (
    EvoConfig,
    GateChange,
    TrainEvaluator,
    Variant,
    WeightChange,
    _replace_slot,
    describe_mutation,
    run_evolution,
    seed_population,
    tournament_select,
)
from dendrevo.net import (
    GateKind,
    GateState,
    Individual,
    Network,
    count_active_gates,
    mse,
)
from dendrevo.nk import Encoding, build_landscape, generate_dataset


@pytest.fixture(scope="module")
def task():
    land = build_landscape(12, 3, 100)
    rng = np.random.default_rng(200)
    train = generate_dataset(land, 40, Encoding.SIGN_SPLIT, rng)
    test = generate_dataset(land, 40, Encoding.SIGN_SPLIT, rng)
    return land, train, test


def network_diff(parent: Network, child: Network):
    """All parameter and gate slots that differ between two genomes."""
    diffs = []
    for name in ("w_in", "b_hidden", "w_out"):
        a, b = getattr(parent, name), getattr(child, name)
        for idx in zip(*np.nonzero(a != b)):
            diffs.append(("weight", name, idx))
    if parent.b_out != child.b_out:
        diffs.append(("weight", "b_out", ()))
    gate_in_changed = (
        (parent.gate_kind_in != child.gate_kind_in)
        | (parent.gate_a_in != child.gate_a_in)
        | (parent.gate_b_in != child.gate_b_in)
    )
    for idx in zip(*np.nonzero(gate_in_changed)):
        diffs.append(("gate", "input", idx))
    gate_out_changed = (
        (parent.gate_kind_out != child.gate_kind_out)
        | (parent.gate_a_out != child.gate_a_out)
        | (parent.gate_b_out != child.gate_b_out)
    )
    for idx in zip(*np.nonzero(gate_out_changed)):
        diffs.append(("gate", "output", idx))
    return diffs


def test_config_validation():
    with pytest.raises(ValueError):
        EvoConfig(p=1)
    with pytest.raises(ValueError):
        EvoConfig(h=0)
    # 1e308 is finite, but uniform(-r, r) needs the width 2r to be finite too.
    for bad in (0.0, float("nan"), float("inf"), 1e308):
        with pytest.raises(ValueError, match="mutation range"):
            EvoConfig(r=bad)
    EvoConfig(r=float(np.finfo(float).max) / 2)
    with pytest.raises(ValueError):
        EvoConfig(generations=-1)


def test_standard_variant_never_mutates_gates(task, monkeypatch):
    _, train, _ = task
    cfg = EvoConfig(variant=Variant.STANDARD)
    monkeypatch.setattr(evolve, "GATE_MUTATION_PROB", 1.0)  # STANDARD still never takes it
    rng = np.random.default_rng(0)
    parent = seed_population(cfg, train.n, train, rng)[0].network
    for _ in range(2000):
        child, _ = describe_mutation(parent, cfg, rng)
        assert count_active_gates(child)[0] == 0


def test_seed_population_properties(task):
    _, train, test = task
    cfg = EvoConfig(p=20, h=4)
    pop = seed_population(cfg, train.n, train, np.random.default_rng(5))
    assert len(pop) == 20
    for member in pop:
        net = member.network
        assert np.all(np.abs(net.w_in) <= 1.0)
        assert np.all(np.abs(net.b_hidden) <= 1.0)
        assert np.all(np.abs(net.w_out) <= 1.0)
        assert abs(net.b_out) <= 1.0
        assert count_active_gates(net)[0] == 0
        assert member.active_gate_count == 0
        assert member.fitness == math.inf  # unpriced until run_evolution scores it
    # run_evolution seeds from the same draws and prices the members as the
    # direct forward pass does, up to the fused product's last digit.
    trace = run_evolution(replace(cfg, generations=0), None, train, test, np.random.default_rng(5))
    best = min(mse(member.network, train) for member in pop)
    assert trace.records[0].best_train_mse == pytest.approx(best, rel=1e-12)
    again = seed_population(cfg, train.n, train, np.random.default_rng(5))
    assert all(
        np.array_equal(a.network.w_in, b.network.w_in) for a, b in zip(pop, again)
    )
    empty = replace(train, features=train.features[:0], targets=train.targets[:0])
    with pytest.raises(ValueError, match="training set must be nonempty"):
        seed_population(cfg, train.n, empty, np.random.default_rng(5))


def test_seed_population_members_share_one_blank_genomes_gates(task, monkeypatch):
    """Members share one set of inactive gate arrays, safe because a gate
    mutation copies the layer it writes: a gate child of one member leaves
    every sibling's gate bytes as they were."""
    _, train, _ = task
    cfg = EvoConfig(p=6, h=3, variant=Variant.DENDRITE_THRESHOLD)
    monkeypatch.setattr(evolve, "GATE_MUTATION_PROB", 1.0)  # gate mutations only
    rng = np.random.default_rng(6)
    pop = seed_population(cfg, train.n, train, rng)
    gates = [name for name in Network.__slots__ if name.startswith("gate_")]
    first = pop[0].network
    for member in pop[1:]:
        assert all(getattr(member.network, g) is getattr(first, g) for g in gates)
        assert member.network.w_in is not first.w_in
    before = [[getattr(m.network, g).tobytes() for g in gates] for m in pop]
    layers = set()
    for _ in range(60):
        child, change = describe_mutation(first, cfg, rng)
        layers.add(change.output_layer)
        assert count_active_gates(child)[0] == 1
        assert [[getattr(m.network, g).tobytes() for g in gates] for m in pop] == before
    assert layers == {False, True}


def test_tournament_prefers_lower_error():
    pop = [
        Individual(Network(2, 1), 0.1, 0),
        Individual(Network(2, 1), 0.9, 0),
    ]
    rng = np.random.default_rng(3)
    wins = sum(tournament_select(pop, rng) == 0 for _ in range(10_000))
    # picked unless both draws land on the worse member: expect 3/4
    assert abs(wins - 75_00) < 4 * np.sqrt(10_000 * 0.75 * 0.25)


def size_two_tournament_select(pop, rng):
    """tournament_select as it drew its pair before: one size=2 draw."""
    a, b = rng.integers(0, len(pop), size=2)
    a, b = int(a), int(b)
    fa, fb = pop[a].fitness, pop[b].fitness
    if fa < fb:
        return a
    if fb < fa:
        return b
    return a if rng.random() < 0.5 else b


@pytest.mark.parametrize("taken", [0, 1, 3])
def test_scalar_tournament_draws_equal_one_size_two_draw(taken):
    """Two scalar draws pick the pair one size=2 draw picks and leave the
    generator where it left it, also after an odd number of 32-bit draws
    (PCG64 keeps the other half of a 64-bit word for the next one)."""
    for size in (2, 7, 50):
        # Pairs of equal fitness send some tournaments to the tie coin.
        pop = [Individual(Network(2, 1), float(m // 2), 0) for m in range(size)]
        for seed in range(200):
            got, want = np.random.default_rng(seed), np.random.default_rng(seed)
            for rng in (got, want):
                for _ in range(taken):
                    rng.random(dtype=np.float32)  # one 32-bit draw
            for _ in range(50):
                assert tournament_select(pop, got) == size_two_tournament_select(pop, want)
                assert got.random() == want.random()
            assert got.bit_generator.state == want.bit_generator.state


def test_tournament_tie_falls_to_fair_coin():
    pop = [
        Individual(Network(2, 1), 0.5, 0),
        Individual(Network(2, 1), 0.5, 0),
    ]
    rng = np.random.default_rng(4)
    zeros = sum(tournament_select(pop, rng) == 0 for _ in range(10_000))
    assert abs(zeros - 5000) < 200


@pytest.mark.parametrize(
    "variant", [Variant.DENDRITE_THRESHOLD, Variant.DENDRITE_RANGE, Variant.RANDOM_DROPOUT]
)
def test_mutation_changes_at_most_one_gene(task, variant):
    _, train, _ = task
    cfg = EvoConfig(variant=variant)
    rng = np.random.default_rng(17)
    parent = seed_population(cfg, train.n, train, rng)[0].network
    for _ in range(400):
        child, change = describe_mutation(parent, cfg, rng)
        diffs = network_diff(parent, child)
        if isinstance(change, WeightChange):
            assert len(diffs) == 1 and diffs[0][0] == "weight"
            assert abs(change.delta) <= cfg.r
        else:
            # the dropout re-enable move rewrites a slot with equal content
            assert len(diffs) <= 1
            if diffs:
                assert diffs[0][0] == "gate"
        parent = child  # walk the chain so gates accumulate


def test_mutation_descriptor_matches_observed_change(task):
    _, train, _ = task
    cfg = EvoConfig(variant=Variant.DENDRITE_RANGE)
    rng = np.random.default_rng(23)
    parent = seed_population(cfg, train.n, train, rng)[0].network
    for _ in range(300):
        child, change = describe_mutation(parent, cfg, rng)
        if isinstance(change, WeightChange):
            recon = copy.deepcopy(child)
            if change.kind == 0:
                recon.w_in[change.j, change.i] -= change.delta
                assert recon.w_in[change.j, change.i] == pytest.approx(
                    parent.w_in[change.j, change.i], abs=1e-15
                )
            elif change.kind == 1:
                assert child.b_hidden[change.j] == pytest.approx(
                    parent.b_hidden[change.j] + change.delta
                )
            elif change.kind == 2:
                assert child.w_out[change.j] == pytest.approx(
                    parent.w_out[change.j] + change.delta
                )
            else:
                assert child.b_out == pytest.approx(parent.b_out + change.delta)
        else:
            assert isinstance(change, GateChange)
            if change.output_layer:
                assert parent.output_gate(change.j) == change.old
                assert child.output_gate(change.j) == change.new
            else:
                assert parent.input_gate(change.j, change.i) == change.old
                assert child.input_gate(change.j, change.i) == change.new
        parent = child


def test_threshold_gate_moves(task):
    _, train, _ = task
    cfg = EvoConfig(variant=Variant.DENDRITE_THRESHOLD)
    rng = np.random.default_rng(29)
    parent = seed_population(cfg, train.n, train, rng)[0].network
    seen = set()
    for _ in range(3000):
        child, change = describe_mutation(parent, cfg, rng)
        if isinstance(change, GateChange):
            kinds = (change.old.kind, change.new.kind)
            seen.add(kinds)
            if change.old.kind is GateKind.INACTIVE:
                assert change.new.kind in (GateKind.LOWER, GateKind.UPPER)
                assert -1.0 <= change.new.a <= 1.0
            elif kinds == (GateKind.LOWER, GateKind.UPPER) or kinds == (
                GateKind.UPPER,
                GateKind.LOWER,
            ):
                assert change.new.a == change.old.a  # flip keeps the threshold
        parent = child
    # activation, perturb or flip, and disabling must all occur
    assert any(old is GateKind.INACTIVE for old, _ in seen)
    assert any(new is GateKind.INACTIVE for _, new in seen)
    assert (GateKind.LOWER, GateKind.UPPER) in seen or (
        GateKind.UPPER,
        GateKind.LOWER,
    ) in seen


def test_range_gate_moves_keep_edges_sorted(task):
    _, train, _ = task
    cfg = EvoConfig(variant=Variant.DENDRITE_RANGE)
    rng = np.random.default_rng(31)
    parent = seed_population(cfg, train.n, train, rng)[0].network
    for _ in range(2000):
        child, change = describe_mutation(parent, cfg, rng)
        if isinstance(change, GateChange) and change.new.kind is GateKind.RANGE:
            assert change.new.a <= change.new.b
        parent = child


def test_replace_is_unconditional_without_tie():
    rng = np.random.default_rng(6)
    pop = [Individual(Network(2, 1), 0.1, 0) for _ in range(10)]
    worse = Individual(Network(2, 1), 0.9, 0)
    _replace_slot(pop, worse, rng)
    assert sum(member is worse for member in pop) == 1


def test_replace_parsimony_tie_prefers_fewer_gates():
    def gated(count):
        net = Network(4, 2)
        for i in range(count):
            net.set_input_gate(0, i, GateState(GateKind.LOWER, 0.0))
        return Individual(net, 0.25, count)

    rng = np.random.default_rng(7)
    for _ in range(200):
        pop = [gated(2) for _ in range(5)]
        _replace_slot(pop, gated(3), rng)
        assert all(member.active_gate_count == 2 for member in pop)

    for _ in range(200):
        pop = [gated(2) for _ in range(5)]
        slim = gated(1)
        _replace_slot(pop, slim, rng)
        assert sum(member is slim for member in pop) == 1

    # equal gate counts: fair coin
    taken = 0
    for _ in range(10_000):
        pop = [gated(2) for _ in range(5)]
        contender = gated(2)
        _replace_slot(pop, contender, rng)
        taken += any(member is contender for member in pop)
    assert abs(taken - 5000) < 200


@pytest.mark.parametrize("variant", list(Variant))
def test_incremental_evaluator_tracks_direct_route(task, variant):
    """Chained O(samples) updates agree with the full forward pass."""
    _, train, _ = task
    cfg = EvoConfig(variant=variant, generations=0)
    evaluator = TrainEvaluator(train)
    rng = np.random.default_rng(40)
    net = seed_population(cfg, train.n, train, rng)[0].network
    state = evaluator.full_states([net])[0]
    for step in range(300):
        net, change = describe_mutation(net, cfg, rng)
        state = evaluator.child_state(state, net, change)
        if step % 25 == 0:
            direct = mse(net, train, np.random.default_rng(step))
            cached = evaluator.score(net, state, np.random.default_rng(step))
            assert cached == pytest.approx(direct, abs=1e-9)
    fresh = evaluator.full_states([net])[0]
    assert np.allclose(fresh.det_pre_hidden, state.det_pre_hidden, atol=1e-9)
    assert np.allclose(fresh.det_pre_out, state.det_pre_out, atol=1e-9)


def test_incremental_evaluator_is_bitwise_for_gateless_networks(task):
    _, train, _ = task
    cfg = EvoConfig()
    evaluator = TrainEvaluator(train)
    pop = seed_population(cfg, train.n, train, np.random.default_rng(41))
    for member in pop[:5]:
        state = evaluator.full_states([member.network])[0]
        assert evaluator.score(member.network, state) == mse(member.network, train)


def test_disabling_vacuous_gate_keeps_score_bitwise_equal(task):
    """Parsimony ties rely on exact equality when a gate never fires."""
    _, train, _ = task
    cfg = EvoConfig()
    evaluator = TrainEvaluator(train)
    rng = np.random.default_rng(42)
    seeded = seed_population(cfg, train.n, train, rng)[0].network
    net = seeded.child("gate_kind_in", "gate_a_in", "gate_b_in")
    net.set_input_gate(1, 3, GateState(GateKind.LOWER, -2.0))  # inputs never reach -2
    state = evaluator.full_states([net])[0]
    child = copy.deepcopy(net)
    child.set_input_gate(1, 3, GateState())
    change = GateChange(False, 1, 3, GateState(GateKind.LOWER, -2.0), GateState())
    child_state = evaluator.child_state(state, child, change)
    assert evaluator.score(child, child_state) == evaluator.score(net, state)


def test_evaluator_drop_gates_need_rng(task):
    _, train, _ = task
    evaluator = TrainEvaluator(train)
    net = Network(train.n, 2)
    net.set_input_gate(0, 0, GateState(GateKind.DROP))
    state = evaluator.full_states([net])[0]
    with pytest.raises(ValueError, match="rng"):
        evaluator.score(net, state)


def test_evaluator_drop_coins_align_with_direct_route(task):
    """Same seed, same coin block order: both routes agree to rounding."""
    _, train, _ = task
    cfg = EvoConfig(variant=Variant.RANDOM_DROPOUT)
    evaluator = TrainEvaluator(train)
    rng = np.random.default_rng(43)
    seeded = seed_population(cfg, train.n, train, rng)[0].network
    net = seeded.child(
        "gate_kind_in", "gate_a_in", "gate_b_in", "gate_kind_out", "gate_a_out", "gate_b_out"
    )
    for i in range(6):
        net.set_input_gate(i % 10, i, GateState(GateKind.DROP))
    net.set_output_gate(2, GateState(GateKind.DROP))
    state = evaluator.full_states([net])[0]
    cached = evaluator.score(net, state, np.random.default_rng(77))
    direct = mse(net, train, np.random.default_rng(77))
    assert cached == pytest.approx(direct, abs=1e-12)


def test_run_evolution_trace_shape_and_reproducibility(task):
    land, train, test = task
    for variant in Variant:
        cfg = EvoConfig(variant=variant, generations=8, p=10)
        first = run_evolution(cfg, land, train, test, np.random.default_rng(51))
        second = run_evolution(cfg, land, train, test, np.random.default_rng(51))
        assert [r.generation for r in first.records] == list(range(9))
        pairs = zip(first.records, second.records)
        assert all(a == b for a, b in pairs)
        assert np.array_equal(
            first.final_network.gate_kind_in, second.final_network.gate_kind_in
        )


def test_run_evolution_standard_has_zero_gate_fractions(task):
    land, train, test = task
    cfg = EvoConfig(variant=Variant.STANDARD, generations=6, p=10)
    trace = run_evolution(cfg, land, train, test, np.random.default_rng(1))
    assert all(r.best_gate_fraction == 0.0 for r in trace.records)
    assert all(r.mean_gate_fraction == 0.0 for r in trace.records)
    assert count_active_gates(trace.final_network)[0] == 0


def test_run_evolution_gate_fractions_use_parameter_count(task):
    land, train, test = task
    cfg = EvoConfig(variant=Variant.DENDRITE_THRESHOLD, generations=25, p=10)
    trace = run_evolution(cfg, land, train, test, np.random.default_rng(3))
    denom = trace.final_network.param_count
    fractions = {round(r.best_gate_fraction * denom) for r in trace.records}
    # every recorded fraction is an integer count of gates over param_count
    for r in trace.records:
        assert (r.best_gate_fraction * denom) == pytest.approx(
            round(r.best_gate_fraction * denom), abs=1e-9
        )
    assert any(f > 0 for f in fractions)  # gates really appeared


def test_run_evolution_final_network_is_the_last_records_best(task):
    """The genome a trace keeps is the one its last row describes: its
    gates, counted from the genome, give that row's gate fraction."""
    land, train, test = task
    cfg = EvoConfig(variant=Variant.DENDRITE_THRESHOLD, generations=20, p=10)
    trace = run_evolution(cfg, land, train, test, np.random.default_rng(9))
    net = trace.final_network
    total, (in_count, out_count) = count_active_gates(net)
    assert in_count == np.count_nonzero(net.gate_kind_in)
    assert out_count == np.count_nonzero(net.gate_kind_out)
    assert total > 0
    assert trace.records[-1].best_gate_fraction == total / net.param_count


def test_run_evolution_validates_dimensions(task):
    land, train, test = task
    other = build_landscape(9, 2, 1)
    bad_test = generate_dataset(other, 10, Encoding.SIGN_SPLIT, np.random.default_rng(0))
    cfg = EvoConfig(generations=1)
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="disagree"):
        run_evolution(cfg, land, train, bad_test, rng)
    with pytest.raises(ValueError, match="landscape"):
        run_evolution(cfg, other, train, test, rng)
    with pytest.raises(ValueError, match="resampling"):
        run_evolution(
            EvoConfig(generations=1, resample_train_each_generation=True),
            None,
            train,
            test,
            rng,
        )


def test_run_evolution_resampling_mode_runs(task):
    land, train, test = task
    cfg = EvoConfig(generations=5, p=8, resample_train_each_generation=True)
    trace = run_evolution(cfg, land, train, test, np.random.default_rng(2))
    assert len(trace.records) == 6
    a = run_evolution(cfg, land, train, test, np.random.default_rng(2))
    assert [r.best_train_mse for r in a.records] == [
        r.best_train_mse for r in trace.records
    ]
