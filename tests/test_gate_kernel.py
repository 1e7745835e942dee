"""The shared gate-retraction kernel against the select-based expressions.

The oracles below keep the earlier formulation of the retraction: a
boolean pass mask per gate kind, ``np.where(passed, 0.0, w * values)``
and a per-node ``np.add.reduceat``. The kernel zeroes blocked terms by a
0/1 multiply instead; outputs, scores and the rng stream position must
not move by a single bit.
"""

import numpy as np
import pytest
from scipy.special import expit

from dendrevo.evolve import TrainEvaluator
from dendrevo.net import GateKind, GateState, Network, predict
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
    pre_out = hidden @ net.w_out + net.b_out
    flat_out = np.flatnonzero(net.gate_kind_out)
    if flat_out.size:
        values = hidden[:, flat_out]
        passed = oracle_pass_matrix(
            net.gate_kind_out[flat_out], net.gate_a_out[flat_out],
            net.gate_b_out[flat_out], values, rng, drop_prob,
        )
        pre_out -= np.where(passed, 0.0, net.w_out[flat_out] * values).sum(axis=1)
    return expit(pre_out)


def oracle_det_retract_out(net, hidden, pre_out):
    """Per-node sequential retraction of deterministic output gates."""
    for j in range(net.h):
        gate = net.output_gate(j)
        h = hidden[:, j]
        if gate.kind is GateKind.LOWER:
            mask = h >= gate.a
        elif gate.kind is GateKind.UPPER:
            mask = h <= gate.a
        elif gate.kind is GateKind.RANGE:
            mask = (h >= gate.a) & (h <= gate.b)
        else:
            continue
        pre_out -= np.where(mask, 0.0, net.w_out[j] * h)
    return pre_out


def oracle_score(data, net, state, rng, drop_prob=DROP_PROB):
    X = data.features
    drop_in = np.flatnonzero(net.gate_kind_in.reshape(-1) == GateKind.DROP)
    drop_out = np.flatnonzero(net.gate_kind_out == GateKind.DROP)
    hidden, pre_out = state.hidden, state.det_pre_out.copy()
    if drop_in.size:
        j_idx, i_idx = drop_in // net.n, drop_in % net.n
        values = X[:, i_idx]
        coins = rng.random((X.shape[0], drop_in.size)) >= drop_prob
        retract = np.where(coins, 0.0, net.w_in[j_idx, i_idx] * values)
        pre_hidden = state.det_pre_hidden.copy()
        starts = np.flatnonzero(np.r_[True, j_idx[1:] != j_idx[:-1]])
        pre_hidden[:, j_idx[starts]] -= np.add.reduceat(retract, starts, axis=1)
        hidden = expit(pre_hidden)
        pre_out = oracle_det_retract_out(net, hidden, hidden @ net.w_out + net.b_out)
    if drop_out.size:
        values = hidden[:, drop_out]
        coins = rng.random((hidden.shape[0], drop_out.size)) >= drop_prob
        pre_out = pre_out - np.where(coins, 0.0, net.w_out[drop_out] * values).sum(axis=1)
    err = expit(pre_out) - data.targets
    return float(err @ err / err.shape[0])


def gated_network(rng, n, h, density, kinds=(1, 2, 3, 4)):
    """Random weights; each connection gated with probability density."""
    net = Network.zeros(n, h)
    net.w_in[:] = rng.uniform(-2, 2, size=(h, n))
    net.b_hidden[:] = rng.uniform(-1, 1, size=h)
    net.w_out[:] = rng.uniform(-2, 2, size=h)
    net.b_out = float(rng.uniform(-1, 1))

    def random_gate():
        kind = GateKind(int(rng.choice(kinds)))
        lo, hi = np.sort(rng.uniform(-1, 1, size=2))
        if kind is GateKind.LOWER:
            return GateState.lower(float(lo))
        if kind is GateKind.UPPER:
            return GateState.upper(float(hi))
        if kind is GateKind.RANGE:
            return GateState.band(float(lo), float(hi))
        return GateState.drop()

    for j in range(h):
        for i in range(n):
            if rng.random() < density:
                net.set_input_gate(j, i, random_gate())
        if rng.random() < density:
            net.set_output_gate(j, random_gate())
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
# drop_prob keeps most of those terms nonzero.
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
def test_predict_is_bitwise_the_select_oracle(density, kinds, drop_prob):
    rng = np.random.default_rng(int(density * 100) + len(kinds))
    for _ in range(20):
        net = gated_network(rng, n=9, h=8, density=density, kinds=kinds)
        features = dataset(rng, 64, 9).features
        seed = int(rng.integers(2**32))
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = predict(net, features, got_rng, drop_prob)
        want = oracle_predict(net, features.copy(), want_rng, drop_prob)
        assert got.tobytes() == want.tobytes()
        assert got_rng.random() == want_rng.random()


@pytest.mark.parametrize("density,kinds,drop_prob", CASES)
def test_score_is_bitwise_the_select_oracle(density, kinds, drop_prob):
    rng = np.random.default_rng(1000 + int(density * 100) + len(kinds))
    data = dataset(rng, 80, 9)
    evaluator = TrainEvaluator(data, drop_prob)
    for _ in range(20):
        net = gated_network(rng, n=9, h=8, density=density, kinds=kinds)
        state = evaluator.full_state(net)
        cached = (state.det_pre_hidden, state.hidden, state.det_pre_out)
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
    evaluator = TrainEvaluator(data, DROP_PROB)
    for density in (0.05, 0.4, 0.9):
        net = gated_network(rng, n=9, h=8, density=density)
        state = evaluator.full_state(net)
        pre_hidden = data.features @ net.w_in.T + net.b_hidden
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
        pre_out = oracle_det_retract_out(net, hidden, hidden @ net.w_out + net.b_out)
        assert np.array_equal(state.det_pre_hidden, pre_hidden)
        assert state.hidden.tobytes() == hidden.tobytes()
        assert expit(state.det_pre_out).tobytes() == expit(pre_out).tobytes()


def test_full_states_is_bitwise_the_per_member_route():
    """The population pass against the per-member loop it replaced: each
    member's block of the fused product plus its biases, priced by
    ``_finish_state``, which finds the member's own gates."""
    rng = np.random.default_rng(8)
    data = dataset(rng, 80, 9)
    evaluator = TrainEvaluator(data, DROP_PROB)
    nets = [
        gated_network(rng, n=9, h=8, density=density, kinds=kinds)
        for density, kinds, _ in CASES
    ]
    only_output = gated_network(rng, n=9, h=8, density=0.0)
    only_output.set_output_gate(3, GateState.upper(0.6))
    only_output.set_output_gate(5, GateState.drop())
    nets.insert(2, only_output)
    assert any(not net.gate_kind_in.any() and not net.gate_kind_out.any() for net in nets)
    states = evaluator.full_states(nets)
    products = data.features @ np.hstack([net.w_in.T for net in nets])
    for m, (net, state) in enumerate(zip(nets, states)):
        want = evaluator._finish_state(net, products[:, m * 8 : (m + 1) * 8] + net.b_hidden)
        assert state.det_pre_hidden.tobytes() == want.det_pre_hidden.tobytes()
        assert state.hidden.tobytes() == want.hidden.tobytes()
        assert state.det_pre_out.tobytes() == want.det_pre_out.tobytes()
