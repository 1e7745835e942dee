"""Gated forward pass against a scalar reference, plus genome IO."""

import math

import numpy as np
import pytest
from scipy.special import expit

from dendrevo.net import (
    GateKind,
    GateState,
    Individual,
    Network,
    ablate_output_gates,
    blocked_matrix,
    count_active_gates,
    forward,
    gate_fraction,
    load_network,
    mse,
    predict,
    save_network,
)
from dendrevo.nk import Dataset, Encoding

# Output of a 1-1-1 net with zero input weight and unit output weight:
# hidden = sigmoid(0) = 0.5, out = sigmoid(0.5). Value frozen from an
# independent high-precision evaluation.
SIGMOID_HALF = 0.6224593312018546


def scalar_reference(net, x, drop_decisions=None):
    """Loop-and-math.exp evaluation of the same network semantics.

    drop_decisions, when given, maps (layer, j, i) to the coin outcome so
    deterministic comparisons can cover DROP gates too.
    """

    def sigmoid(v):
        return 1.0 / (1.0 + math.exp(-v))

    def admits(gate, value, key):
        if gate.kind is GateKind.INACTIVE:
            return True
        if gate.kind is GateKind.LOWER:
            return value >= gate.a
        if gate.kind is GateKind.UPPER:
            return value <= gate.a
        if gate.kind is GateKind.RANGE:
            return gate.a <= value <= gate.b
        return drop_decisions[key]

    hidden = []
    for j in range(net.h):
        total = float(net.b_hidden[j])
        for i in range(net.n):
            if admits(net.input_gate(j, i), x[i], (0, j, i)):
                total += float(net.w_in[j, i]) * x[i]
        hidden.append(sigmoid(total))
    out = float(net.b_out)
    for j in range(net.h):
        if admits(net.output_gate(j), hidden[j], (1, j, 0)):
            out += float(net.w_out[j]) * hidden[j]
    return sigmoid(out)


def random_gated_network(rng, n=6, h=3, kinds=(1, 2, 3), density=0.4):
    net = Network.zeros(n, h)
    net.w_in[:] = rng.uniform(-2, 2, size=(h, n))
    net.b_hidden[:] = rng.uniform(-1, 1, size=h)
    net.w_out[:] = rng.uniform(-2, 2, size=h)
    net.b_out = float(rng.uniform(-1, 1))

    def random_gate():
        kind = GateKind(int(rng.choice(kinds)))
        if kind is GateKind.LOWER:
            return GateState.lower(float(rng.uniform(-1, 1)))
        if kind is GateKind.UPPER:
            return GateState.upper(float(rng.uniform(-1, 1)))
        if kind is GateKind.RANGE:
            edges = rng.uniform(-1, 1, size=2)
            return GateState.band(float(edges.min()), float(edges.max()))
        return GateState.drop()

    for j in range(h):
        for i in range(n):
            if rng.random() < density:
                net.set_input_gate(j, i, random_gate())
        if rng.random() < density:
            net.set_output_gate(j, random_gate())
    return net


def test_gate_state_validation():
    with pytest.raises(ValueError):
        GateState.band(0.5, -0.5)
    with pytest.raises(ValueError):
        GateState.lower(float("nan"))
    with pytest.raises(ValueError):
        GateState.band(0.0, float("inf"))
    assert GateState.inactive().kind is GateKind.INACTIVE
    assert GateState.drop().kind is GateKind.DROP


def passes(gate, values, rng=None, drop_prob=0.5):
    """Whether an active gate admits each of ``values``, by the kernel's mask."""
    kinds, a, b = np.array([int(gate.kind)]), np.array([gate.a]), np.array([gate.b])
    column = np.asarray(values, dtype=np.float64).reshape(-1, 1)
    return ~blocked_matrix(kinds, a, b, column, rng, drop_prob)[:, 0]


def test_gate_passes_inclusive_comparisons():
    assert passes(GateState.lower(0.3), [0.3, 0.4, 0.2]).tolist() == [True, True, False]
    assert passes(GateState.upper(0.3), [0.3, 0.4]).tolist() == [True, False]
    assert passes(GateState.band(-0.2, 0.2), [-0.2, 0.2, 0.21]).tolist() == [True, True, False]
    assert passes(GateState.band(0.1, 0.1), [0.1]).all()  # degenerate range
    # An inactive gate transmits any value: sigmoid(1e9) = 1 reaches the output.
    net = Network.zeros(1, 1)
    net.w_in[0, 0] = net.w_out[0] = 1.0
    assert forward(net, np.array([1e9])) == expit(1.0)


def test_drop_gate_needs_rng_and_respects_probability():
    with pytest.raises(ValueError):
        passes(GateState.drop(), [0.0])
    outcomes = passes(GateState.drop(), np.zeros(10_000), np.random.default_rng(0))
    # fair coin: 4 sigma around 5000
    assert abs(int(outcomes.sum()) - 5000) < 200
    assert passes(GateState.drop(), np.zeros(10), np.random.default_rng(1), drop_prob=0.0).all()
    assert not passes(GateState.drop(), np.zeros(10), np.random.default_rng(1), drop_prob=1.0).any()


def test_forward_matches_frozen_sigmoid_value():
    net = Network.zeros(1, 1)
    net.w_out[0] = 1.0
    assert forward(net, np.array([0.123])) == SIGMOID_HALF


def test_ungated_forward_equals_plain_mlp_reference():
    """No active gates: bitwise equality with an independent expression."""
    rng = np.random.default_rng(42)
    net = Network.zeros(12, 5)
    net.w_in[:] = rng.uniform(-1, 1, size=(5, 12))
    net.b_hidden[:] = rng.uniform(-1, 1, size=5)
    net.w_out[:] = rng.uniform(-1, 1, size=5)
    net.b_out = float(rng.uniform(-1, 1))
    X = rng.uniform(-1, 1, size=(200, 12))

    from scipy.special import expit

    reference = expit(expit(X @ net.w_in.T + net.b_hidden) @ net.w_out + net.b_out)
    assert np.array_equal(predict(net, X), reference)


def test_deterministic_gates_match_scalar_reference():
    rng = np.random.default_rng(7)
    for _ in range(20):
        net = random_gated_network(rng)
        x = rng.uniform(-1, 1, size=net.n)
        want = scalar_reference(net, x)
        got = forward(net, x)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-15)


def test_drop_gates_match_scalar_reference_at_coin_extremes():
    rng = np.random.default_rng(8)
    for drop_prob, outcome in ((0.0, True), (1.0, False)):
        net = random_gated_network(rng, kinds=(4,), density=0.5)
        x = rng.uniform(-1, 1, size=net.n)
        decisions = {
            (0, j, i): outcome for j in range(net.h) for i in range(net.n)
        }
        decisions.update({(1, j, 0): outcome for j in range(net.h)})
        want = scalar_reference(net, x, decisions)
        got = forward(net, x, np.random.default_rng(0), drop_prob=drop_prob)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-15)


def test_output_gates_test_post_sigmoid_activation():
    """An output-layer threshold compares against sigmoid(hidden), not the
    raw sum: with bias 10 the hidden activation saturates near 1."""
    net = Network.zeros(1, 1)
    net.b_hidden[0] = 10.0  # hidden activation ~ 0.99995
    net.w_out[0] = 3.0
    net.set_output_gate(0, GateState.upper(0.9))  # blocks values above 0.9
    assert forward(net, np.zeros(1)) == 0.5  # connection cut: sigmoid(0)
    net.set_output_gate(0, GateState.lower(0.9))  # admits values >= 0.9
    assert forward(net, np.zeros(1)) > 0.9  # sigmoid(3 * ~1)


def test_drop_forward_is_reproducible_per_seed():
    rng = np.random.default_rng(3)
    net = random_gated_network(rng, kinds=(4,), density=0.6)
    X = rng.uniform(-1, 1, size=(50, net.n))
    a = predict(net, X, np.random.default_rng(11))
    b = predict(net, X, np.random.default_rng(11))
    assert np.array_equal(a, b)
    c = predict(net, X, np.random.default_rng(12))
    assert not np.array_equal(a, c)


def test_predict_validates_feature_shape():
    net = Network.zeros(4, 2)
    with pytest.raises(ValueError):
        predict(net, np.zeros((3, 5)))
    with pytest.raises(ValueError):
        forward(net, np.zeros(5))
    net.set_input_gate(0, 0, GateState.drop())
    with pytest.raises(ValueError, match="rng"):
        predict(net, np.zeros((2, 4)))


def test_mse_matches_direct_computation():
    rng = np.random.default_rng(1)
    net = random_gated_network(rng, kinds=(1,))
    features = rng.uniform(-1, 1, size=(30, net.n))
    targets = rng.uniform(0, 1, size=30)
    data = Dataset(features=features, targets=targets, encoding=Encoding.SIGN_SPLIT)
    out = predict(net, features)
    expected = float(np.mean((out - targets) ** 2))
    assert mse(net, data) == pytest.approx(expected, rel=1e-15)


def test_gate_counts_and_fraction():
    net = Network.zeros(5, 2)
    assert count_active_gates(net) == (0, (0, 0))
    net.set_input_gate(0, 1, GateState.lower(0.0))
    net.set_input_gate(1, 4, GateState.band(-0.1, 0.1))
    net.set_output_gate(1, GateState.drop())
    total, (inner, outer) = count_active_gates(net)
    assert (total, inner, outer) == (3, 2, 1)
    assert gate_fraction(net) == 3 / net.gateable_count
    assert net.gateable_count == 5 * 2 + 2
    assert net.param_count == 5 * 2 + 2 * 2 + 1


def test_ablate_output_gates_only_touches_output_layer():
    rng = np.random.default_rng(5)
    net = random_gated_network(rng, density=0.8)
    before_in = net.gate_kind_in.copy()
    cut = ablate_output_gates(net)
    assert np.all(cut.gate_kind_out == GateKind.INACTIVE)
    assert np.array_equal(cut.gate_kind_in, before_in)
    assert np.array_equal(cut.w_in, net.w_in)
    # the original must be untouched
    assert np.any(net.gate_kind_out != GateKind.INACTIVE)


def test_individual_rejects_negative_fitness():
    with pytest.raises(ValueError):
        Individual(Network.zeros(2, 1), -0.5, 0)


def test_network_copy_is_deep():
    net = Network.zeros(3, 2)
    dup = net.copy()
    dup.w_in[0, 0] = 5.0
    dup.set_input_gate(1, 2, GateState.drop())
    assert net.w_in[0, 0] == 0.0
    assert net.input_gate(1, 2).kind is GateKind.INACTIVE


def test_genome_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(9)
    net = random_gated_network(rng, n=7, h=4, kinds=(1, 2, 3, 4), density=0.5)
    path = tmp_path / "genome.dnet"
    save_network(net, path)
    back = load_network(path)
    assert np.array_equal(back.w_in, net.w_in)
    assert np.array_equal(back.b_hidden, net.b_hidden)
    assert np.array_equal(back.w_out, net.w_out)
    assert back.b_out == net.b_out
    assert np.array_equal(back.gate_kind_in, net.gate_kind_in)
    assert np.array_equal(back.gate_a_in, net.gate_a_in)
    assert np.array_equal(back.gate_b_in, net.gate_b_in)
    assert np.array_equal(back.gate_kind_out, net.gate_kind_out)
    assert np.array_equal(back.gate_a_out, net.gate_a_out)
    assert np.array_equal(back.gate_b_out, net.gate_b_out)


def gate_state_export(net: Network) -> str:
    """The genome export as it was written before: one GateState per line."""

    def tokens(gate):
        tag = {0: "I", 1: "L", 2: "U", 3: "R", 4: "D"}[int(gate.kind)]
        if gate.kind in (GateKind.LOWER, GateKind.UPPER):
            return [tag, f"{gate.a:.17g}"]
        if gate.kind is GateKind.RANGE:
            return [tag, f"{gate.a:.17g}", f"{gate.b:.17g}"]
        return [tag]

    lines = [f"DNET 1 {net.n} {net.h}"]
    for j in range(net.h):
        for i in range(net.n):
            line = ["0", str(j), str(i), f"{net.w_in[j, i]:.17g}"]
            lines.append(" ".join(line + tokens(net.input_gate(j, i))))
        lines.append(f"0 {j} -1 {net.b_hidden[j]:.17g} I")
    for j in range(net.h):
        line = ["1", "0", str(j), f"{net.w_out[j]:.17g}"]
        lines.append(" ".join(line + tokens(net.output_gate(j))))
    lines.append(f"1 0 -1 {net.b_out:.17g} I")
    return "\n".join(lines) + "\n"


def test_genome_export_is_bytewise_the_gate_state_export(tmp_path):
    rng = np.random.default_rng(19)
    net = random_gated_network(rng, n=30, h=6, kinds=(1, 2, 3, 4), density=0.6)
    net.w_in[0, :3] = [0.0, -0.0, 1e-300]
    outputs = [GateState.lower(-0.25), GateState.upper(0.5), GateState.band(-0.5, 0.75)]
    for j, gate in enumerate([GateState.inactive(), *outputs, GateState.drop()]):
        net.set_output_gate(j, gate)
    for layer in (net.gate_kind_in, net.gate_kind_out):
        assert set(np.unique(layer)) == {0, 1, 2, 3, 4}
    path = tmp_path / "genome.dnet"
    save_network(net, path)
    assert path.read_bytes() == gate_state_export(net).encode("utf-8")


def test_load_network_rejects_malformed_files(tmp_path):
    good = Network.zeros(2, 1)
    path = tmp_path / "net.dnet"

    save_network(good, path)
    text = path.read_text()

    bad_header = tmp_path / "bad_header.dnet"
    bad_header.write_text(text.replace("DNET 1", "XNET 9", 1))
    with pytest.raises(ValueError, match="header"):
        load_network(bad_header)

    truncated = tmp_path / "truncated.dnet"
    truncated.write_text("\n".join(text.splitlines()[:-1]) + "\n")
    with pytest.raises(ValueError, match="parameters"):
        load_network(truncated)

    duplicated = tmp_path / "dup.dnet"
    lines = text.splitlines()
    duplicated.write_text("\n".join(lines + [lines[1]]) + "\n")
    with pytest.raises(ValueError, match="duplicate"):
        load_network(duplicated)

    gated_bias = tmp_path / "gated_bias.dnet"
    gated_bias.write_text(text.replace("0 0 -1 0 I", "0 0 -1 0 D", 1))
    with pytest.raises(ValueError, match="bias"):
        load_network(gated_bias)

    bad_gate = tmp_path / "bad_gate.dnet"
    bad_gate.write_text(text.replace("0 0 0 0 I", "0 0 0 0 L", 1))
    with pytest.raises(ValueError, match="gate"):
        load_network(bad_gate)

    empty = tmp_path / "empty.dnet"
    empty.write_text("")
    with pytest.raises(ValueError, match="empty"):
        load_network(empty)
