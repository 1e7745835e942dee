"""The shared gate-retraction kernel against the select-based expressions.

The oracles below keep the earlier formulation of the retraction: a
boolean pass mask per gate kind, ``np.where(passed, 0.0, w * values)``
and a per-node ``np.add.reduceat``. The kernel zeroes blocked terms by a
0/1 multiply instead; outputs, scores and the rng stream position must
not move by a single bit. The boundary tests at the end hold the
incremental evaluator's single-gate rule, ``net.pass_mask``, to the
kernel's ``blocked_matrix`` on every threshold and edge.
"""

import ast
from pathlib import Path

import numpy as np
import pytest
from scipy.special import expit

from dendrevo import net as net_module
from dendrevo.evolve import GateChange, TrainEvaluator, WeightChange
from dendrevo.net import (
    GateKind, GateState, Network, blocked_matrix, mse, pass_mask, predict,
)
from dendrevo.nk import Dataset, Encoding

DROP_PROB = 0.5


def oracle_pass_matrix(kinds, a, b, values, rng, drop_prob):
    passed = np.ones(values.shape, dtype=bool)
    sel = kinds == GateKind.LOWER
    if sel.any():
        passed[:, sel] = values[:, sel] >= a[sel]
    sel = kinds == GateKind.UPPER
    if sel.any():
        passed[:, sel] = values[:, sel] <= a[sel]
    sel = kinds == GateKind.RANGE
    if sel.any():
        passed[:, sel] = (values[:, sel] >= a[sel]) & (values[:, sel] <= b[sel])
    sel = kinds == GateKind.DROP
    if sel.any():
        passed[:, sel] = rng.random((values.shape[0], int(sel.sum()))) >= drop_prob
    return passed


def oracle_predict(net, features, rng, drop_prob=DROP_PROB):
    pre_hidden = features @ net.w_in.T + net.b_hidden
    flat = np.flatnonzero(net.gate_kind_in)
    if flat.size:
        j_idx, i_idx = flat // net.n, flat % net.n
        values = features[:, i_idx]
        passed = oracle_pass_matrix(
            net.gate_kind_in[j_idx, i_idx], net.gate_a_in[j_idx, i_idx],
            net.gate_b_in[j_idx, i_idx], values, rng, drop_prob,
        )
        retract = np.where(passed, 0.0, net.w_in[j_idx, i_idx] * values)
        starts = np.flatnonzero(np.r_[True, j_idx[1:] != j_idx[:-1]])
        pre_hidden[:, j_idx[starts]] -= np.add.reduceat(retract, starts, axis=1)
    hidden = expit(pre_hidden)
    pre_out = hidden @ net.w_out[0] + net.b_out[0]
    flat_out = np.flatnonzero(net.gate_kind_out[0])
    if flat_out.size:
        values = hidden[:, flat_out]
        passed = oracle_pass_matrix(
            net.gate_kind_out[0, flat_out], net.gate_a_out[0, flat_out],
            net.gate_b_out[0, flat_out], values, rng, drop_prob,
        )
        pre_out -= np.where(passed, 0.0, net.w_out[0, flat_out] * values).sum(axis=1)
    return expit(pre_out)


def oracle_det_retract_out(net, hidden, pre_out):
    """Per-node sequential retraction of deterministic output gates."""
    for j in range(net.h):
        gate = net.gate(True, 0, j)
        h = hidden[:, j]
        if gate.kind is GateKind.LOWER:
            mask = h >= gate.a
        elif gate.kind is GateKind.UPPER:
            mask = h <= gate.a
        elif gate.kind is GateKind.RANGE:
            mask = (h >= gate.a) & (h <= gate.b)
        else:
            continue
        pre_out -= np.where(mask, 0.0, net.w_out[0, j] * h)
    return pre_out


def hidden_matrix(state):
    """An EvalState's hidden activations as one C-ordered (samples, h) matrix."""
    return np.array(state.hidden_cols).T.copy()


def oracle_score(data, net, state, rng, drop_prob=DROP_PROB):
    X = data.features
    drop_in = np.flatnonzero(net.gate_kind_in.reshape(-1) == GateKind.DROP)
    drop_out = np.flatnonzero(net.gate_kind_out[0] == GateKind.DROP)
    hidden, pre_out = hidden_matrix(state), state.det_pre_out.copy()
    if drop_in.size:
        j_idx, i_idx = drop_in // net.n, drop_in % net.n
        values = X[:, i_idx]
        coins = rng.random((X.shape[0], drop_in.size)) >= drop_prob
        retract = np.where(coins, 0.0, net.w_in[j_idx, i_idx] * values)
        pre_hidden = state.det_pre_hidden.copy()
        starts = np.flatnonzero(np.r_[True, j_idx[1:] != j_idx[:-1]])
        pre_hidden[:, j_idx[starts]] -= np.add.reduceat(retract, starts, axis=1)
        hidden = expit(pre_hidden)
        pre_out = oracle_det_retract_out(net, hidden, hidden @ net.w_out[0] + net.b_out[0])
    if drop_out.size:
        values = hidden[:, drop_out]
        coins = rng.random((hidden.shape[0], drop_out.size)) >= drop_prob
        pre_out = pre_out - np.where(coins, 0.0, net.w_out[0, drop_out] * values).sum(axis=1)
    err = expit(pre_out) - data.targets
    return float(err @ err / err.shape[0])


def gated_network(rng, n, h, density, kinds=(1, 2, 3, 4)):
    """Random weights; each connection gated with probability density."""
    net = Network(n, h)
    net.w_in[:] = rng.uniform(-2, 2, size=(h, n))
    net.b_hidden[:] = rng.uniform(-1, 1, size=h)
    net.w_out[0] = rng.uniform(-2, 2, size=h)
    net.b_out[0] = rng.uniform(-1, 1)

    def random_gate():
        kind = GateKind(int(rng.choice(kinds)))
        lo, hi = np.sort(rng.uniform(-1, 1, size=2))
        if kind is GateKind.LOWER:
            return GateState(GateKind.LOWER, float(lo))
        if kind is GateKind.UPPER:
            return GateState(GateKind.UPPER, float(hi))
        if kind is GateKind.RANGE:
            return GateState(GateKind.RANGE, float(lo), float(hi))
        return GateState(GateKind.DROP)

    for j in range(h):
        for i in range(n):
            if rng.random() < density:
                net.set_gate(False, j, i, random_gate())
        if rng.random() < density:
            net.set_gate(True, 0, j, random_gate())
    return net


def dataset(rng, size, n):
    # Exact zeros among the features give blocked terms of either sign.
    features = rng.uniform(-1, 1, size=(size, n))
    features[rng.random(features.shape) < 0.1] = 0.0
    return Dataset(features, rng.uniform(0, 1, size=size), Encoding.SIGN_SPLIT)


# (density, kinds, drop_prob): sparse nets leave some hidden nodes without
# a gate, dense ones hit every node; the kind sets cover drop-only and mixed
# layers. Eight or more terms in one sum switch NumPy to pairwise addition,
# where the memory order of the terms decides the rounding; a high
# drop_prob, patched into net.DROP_PROB, keeps most of those terms nonzero.
CASES = [
    (0.05, (1, 2, 3, 4), 0.5),
    (0.4, (1, 2, 3, 4), 0.5),
    (0.9, (1, 2, 3, 4), 0.5),
    (0.5, (4,), 0.5),
    (0.95, (4,), 0.9),
    (0.5, (1, 2, 3), 0.5),
    (0.0, (4,), 0.5),
]


@pytest.mark.parametrize("density,kinds,drop_prob", CASES)
def test_predict_is_bitwise_the_select_oracle(density, kinds, drop_prob, monkeypatch):
    monkeypatch.setattr(net_module, "DROP_PROB", drop_prob)
    rng = np.random.default_rng(int(density * 100) + len(kinds))
    for _ in range(20):
        net = gated_network(rng, n=9, h=8, density=density, kinds=kinds)
        features = dataset(rng, 64, 9).features
        seed = int(rng.integers(2**32))
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = predict(net, features, got_rng)
        want = oracle_predict(net, features.copy(), want_rng, drop_prob)
        assert got.tobytes() == want.tobytes()
        assert got_rng.random() == want_rng.random()


@pytest.mark.parametrize("density,kinds,drop_prob", CASES)
def test_score_is_bitwise_the_select_oracle(density, kinds, drop_prob, monkeypatch):
    monkeypatch.setattr(net_module, "DROP_PROB", drop_prob)
    rng = np.random.default_rng(1000 + int(density * 100) + len(kinds))
    data = dataset(rng, 80, 9)
    evaluator = TrainEvaluator(data)
    for _ in range(20):
        net = gated_network(rng, n=9, h=8, density=density, kinds=kinds)
        state = evaluator.full_states([net])[0]
        cached = (state.det_pre_hidden, hidden_matrix(state), state.det_pre_out)
        before = [array.tobytes() for array in cached]
        seed = int(rng.integers(2**32))
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = evaluator.score(net, state, got_rng)
        want = oracle_score(data, net, state, want_rng, drop_prob)
        assert got == want
        assert got_rng.random() == want_rng.random()
        # Scoring must leave the cached state untouched.
        assert [array.tobytes() for array in cached] == before


def test_full_state_is_bitwise_the_select_oracle():
    """Deterministic gates: input layer by reduceat, output layer node by
    node, as the evaluator has always priced them."""
    rng = np.random.default_rng(7)
    data = dataset(rng, 80, 9)
    evaluator = TrainEvaluator(data)
    for density in (0.05, 0.4, 0.9):
        net = gated_network(rng, n=9, h=8, density=density)
        state = evaluator.full_states([net])[0]
        # The product full_states builds, so no BLAS kernel choice differs.
        pre_hidden = data.features @ np.hstack([net.w_in.T]) + net.b_hidden
        kinds = net.gate_kind_in.reshape(-1)
        flat = np.flatnonzero((kinds != GateKind.INACTIVE) & (kinds != GateKind.DROP))
        if flat.size:
            j_idx, i_idx = flat // net.n, flat % net.n
            values = data.features[:, i_idx]
            passed = oracle_pass_matrix(
                kinds[flat], net.gate_a_in.reshape(-1)[flat],
                net.gate_b_in.reshape(-1)[flat], values, None, DROP_PROB,
            )
            retract = np.where(passed, 0.0, net.w_in[j_idx, i_idx] * values)
            starts = np.flatnonzero(np.r_[True, j_idx[1:] != j_idx[:-1]])
            pre_hidden[:, j_idx[starts]] -= np.add.reduceat(retract, starts, axis=1)
        hidden = expit(pre_hidden)
        pre_out = oracle_det_retract_out(net, hidden, hidden @ net.w_out[0] + net.b_out[0])
        assert np.array_equal(state.det_pre_hidden, pre_hidden)
        assert hidden_matrix(state).tobytes() == hidden.tobytes()
        assert expit(state.det_pre_out).tobytes() == expit(pre_out).tobytes()


def test_full_states_is_bitwise_the_per_member_route():
    """The population pass against the per-member loop it replaced: each
    member's block of the fused product plus its biases, priced by
    ``_finish_state``, which finds the member's own gates."""
    rng = np.random.default_rng(8)
    data = dataset(rng, 80, 9)
    evaluator = TrainEvaluator(data)
    nets = [
        gated_network(rng, n=9, h=8, density=density, kinds=kinds)
        for density, kinds, _ in CASES
    ]
    only_output = gated_network(rng, n=9, h=8, density=0.0)
    only_output.set_gate(True, 0, 3, GateState(GateKind.UPPER, 0.6))
    only_output.set_gate(True, 0, 5, GateState(GateKind.DROP))
    nets.insert(2, only_output)
    assert any(not net.gate_kind_in.any() and not net.gate_kind_out.any() for net in nets)
    states = evaluator.full_states(nets)
    products = data.features @ np.hstack([net.w_in.T for net in nets])
    for m, (net, state) in enumerate(zip(nets, states)):
        want = evaluator._finish_state(net, products[:, m * 8 : (m + 1) * 8] + net.b_hidden)
        assert state.det_pre_hidden.tobytes() == want.det_pre_hidden.tobytes()
        assert hidden_matrix(state).tobytes() == hidden_matrix(want).tobytes()
        assert state.det_pre_out.tobytes() == want.det_pre_out.tobytes()


@pytest.mark.parametrize("layer", ["input", "output"])
def test_drop_gates_without_an_rng_are_refused_on_every_route(layer):
    rng = np.random.default_rng(9)
    data = dataset(rng, 16, 5)
    net = gated_network(rng, n=5, h=3, density=0.0)
    if layer == "input":
        net.set_gate(False, 1, 2, GateState(GateKind.DROP))
    else:
        net.set_gate(True, 0, 2, GateState(GateKind.DROP))
    evaluator = TrainEvaluator(data)
    state = evaluator.full_states([net])[0]
    with pytest.raises(ValueError, match="needs an rng"):
        predict(net, data.features)
    with pytest.raises(ValueError, match="needs an rng"):
        mse(net, data)
    with pytest.raises(ValueError, match="needs an rng"):
        evaluator.score(net, state)


def test_drop_coins_are_drawn_only_in_blocked_matrix():
    """Every comparison of a ``*.random(...)`` draw against ``DROP_PROB``
    in the package sits in ``net.blocked_matrix``, so a change to how the
    coins are drawn has one place to go."""

    def is_coin(compare):
        operands = [compare.left, *compare.comparators]
        draws = any(
            isinstance(op, ast.Call) and getattr(op.func, "attr", None) == "random"
            for op in operands
        )
        names = {getattr(node, "id", getattr(node, "attr", None)) for op in operands
                 for node in ast.walk(op)}
        return draws and "DROP_PROB" in names

    sites = []
    for path in sorted(Path(net_module.__file__).parent.glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text())):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                sites += [
                    (path.stem, func.name)
                    for node in ast.walk(func)
                    if isinstance(node, ast.Compare) and is_coin(node)
                ]
    assert sites == [("net", "blocked_matrix")]


def test_blocked_matrix_is_called_only_by_gate_terms():
    """Both layers share one term step, ``gate_terms``, which the input
    layer's ``retract_input_gates`` and the output layer's ``output_terms``
    call; every other caller goes through one of those two and keeps only
    its own pinned sum."""
    sites = []
    for path in sorted(Path(net_module.__file__).parent.glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text())):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                sites += [
                    (path.stem, func.name)
                    for node in ast.walk(func)
                    if isinstance(node, ast.Call)
                    and "blocked_matrix" in (
                        getattr(node.func, "id", None), getattr(node.func, "attr", None)
                    )
                ]
    assert sites == [("net", "gate_terms")]


# --- the inclusive rule's two forms -------------------------------------------


@pytest.mark.parametrize(
    "gate, passes",
    [
        (GateState(GateKind.LOWER, 0.1), [0, 1, 1]),
        (GateState(GateKind.UPPER, -0.3), [1, 1, 0]),
        (GateState(GateKind.RANGE, -0.3, 0.1), [0, 1, 1, 1, 1, 0]),
        (GateState(GateKind.RANGE, 0.7, 0.7), [0, 1, 0, 0, 1, 0]),
    ],
    ids=["lower", "upper", "range", "range-point"],
)
def test_pass_mask_is_the_complement_of_blocked_matrix_at_every_edge(gate, passes):
    """The evaluator's single-gate rule and the full pass's matrix rule agree
    on each threshold or edge and one ulp either side of it."""
    edges = (gate.a, gate.b) if gate.kind is GateKind.RANGE else (gate.a,)
    values = np.array([
        v for e in edges for v in (np.nextafter(e, -np.inf), e, np.nextafter(e, np.inf))
    ])
    kinds = np.array([gate.kind], dtype=np.uint8)
    blocked = blocked_matrix(kinds, np.array([gate.a]), np.array([gate.b]), values[:, None])
    got = pass_mask(int(gate.kind), gate.a, gate.b, values)
    assert got.tolist() == passes
    assert got.tobytes() == (1.0 - blocked[:, 0]).tobytes()


@pytest.mark.parametrize("kind", [GateKind.INACTIVE, GateKind.DROP])
def test_pass_mask_lets_inactive_and_drop_gates_through(kind):
    assert pass_mask(int(kind), 0.0, 0.0, np.array([-1.0, 0.0, 1.0])) == 1.0


# Gates with an edge exactly at t: both thresholds, both edges of a range,
# and the point range.
BOUNDARY_GATES = {
    "lower": lambda t: GateState(GateKind.LOWER, t),
    "upper": lambda t: GateState(GateKind.UPPER, t),
    "range-low-edge": lambda t: GateState(GateKind.RANGE, t, t + 0.5),
    "range-high-edge": lambda t: GateState(GateKind.RANGE, t - 0.5, t),
    "range-point": lambda t: GateState(GateKind.RANGE, t, t),
}


def assert_child_state_is_the_full_pricing(evaluator, parent, child, change, exact_hidden):
    got = evaluator.child_state(evaluator.full_states([parent])[0], child, change)
    want = evaluator.full_states([child])[0]
    if exact_hidden:
        assert got.det_pre_hidden.tobytes() == want.det_pre_hidden.tobytes()
    else:
        np.testing.assert_allclose(got.det_pre_hidden, want.det_pre_hidden, rtol=0, atol=1e-12)
    np.testing.assert_allclose(got.det_pre_out, want.det_pre_out, rtol=0, atol=1e-12)


def boundary_setup(seed):
    """An ungated network, its evaluator and a sample far from zero, so a
    term that one rule admits and the other blocks shows in the sums."""
    rng = np.random.default_rng(seed)
    data = dataset(rng, 80, 5)
    net = gated_network(rng, n=5, h=3, density=0.0)
    s = int(np.flatnonzero(np.abs(data.features[:, 2]) > 0.3)[0])
    return TrainEvaluator(data), net, s


@pytest.mark.parametrize("make_gate", BOUNDARY_GATES.values(), ids=BOUNDARY_GATES)
def test_input_gate_on_a_feature_value_prices_incrementally_as_in_full(make_gate):
    """An input-gate edge exactly on a training feature value, and an output
    gate on the same node with its edge exactly on the child's activation."""
    evaluator, parent, s = boundary_setup(21)
    j, i = 1, 2
    gate = make_gate(float(evaluator.features[s, i]))
    child = parent.child("gate_kind_in", "gate_a_in", "gate_b_in")
    child.set_gate(False, j, i, gate)
    on_hidden = float(evaluator.full_states([child])[0].hidden_cols[j][s])
    # The child shares the parent's output-gate arrays, so this gates both.
    parent.set_gate(True, 0, j, make_gate(on_hidden))
    change = GateChange(False, j, i, GateState(), gate)
    assert_child_state_is_the_full_pricing(evaluator, parent, child, change, exact_hidden=True)

    gated = child
    child = gated.child("w_in")
    child.w_in[j, i] += 0.25
    change = WeightChange(False, j, i, 0.25)
    assert_child_state_is_the_full_pricing(evaluator, gated, child, change, exact_hidden=False)


@pytest.mark.parametrize("make_gate", BOUNDARY_GATES.values(), ids=BOUNDARY_GATES)
def test_output_gate_on_a_hidden_activation_prices_incrementally_as_in_full(make_gate):
    """An output-gate edge exactly on a hidden activation, reached by a gate
    change, an output-weight change and a hidden-bias change."""
    evaluator, parent, s = boundary_setup(22)
    j = 2
    gate = make_gate(float(evaluator.full_states([parent])[0].hidden_cols[j][s]))
    child = parent.child("gate_kind_out", "gate_a_out", "gate_b_out")
    child.set_gate(True, 0, j, gate)
    change = GateChange(True, 0, j, GateState(), gate)
    assert_child_state_is_the_full_pricing(evaluator, parent, child, change, exact_hidden=True)

    gated = child
    for change, name, at in ((WeightChange(True, 0, j, 0.25), "w_out", (0, j)),
                             (WeightChange(False, j, -1, 0.25), "b_hidden", j)):
        child = gated.child(name)
        getattr(child, name)[at] += 0.25
        assert_child_state_is_the_full_pricing(evaluator, gated, child, change, exact_hidden=False)


def test_plain_int_gate_kinds_are_named_only_in_net():
    """Only ``net`` says what each gate kind admits: no other module names the
    plain-int kinds INACTIVE, LOWER, UPPER or RANGE (``GateKind`` members are
    fine), so a change to gate semantics touches one module."""
    rule_kinds = {"INACTIVE", "LOWER", "UPPER", "RANGE"}
    sites = set()
    for path in sorted(Path(net_module.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                named = {node.id}
            elif isinstance(node, ast.ImportFrom):
                named = {alias.name for alias in node.names}
            elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) != "GateKind":
                named = {node.attr}
            else:
                continue
            if named & rule_kinds:
                sites.add(path.stem)
    assert sites == {"net"}
