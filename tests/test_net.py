"""Gated forward pass against a scalar reference, plus genome IO."""

import ast
import math
import re
from pathlib import Path

import numpy as np
import pytest
from scipy.special import expit

from dendrevo import net as net_module
from dendrevo.net import (
    LAYERS,
    GateKind,
    GateState,
    Network,
    ablate_output_gates,
    blocked_matrix,
    count_active_gates,
    format_network,
    load_network,
    mse,
    predict,
)
from dendrevo.evolve import Individual
from dendrevo.harness import save_network
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
            if admits(net.gate(False, j, i), x[i], (0, j, i)):
                total += float(net.w_in[j, i]) * x[i]
        hidden.append(sigmoid(total))
    out = float(net.b_out[0])
    for j in range(net.h):
        if admits(net.gate(True, 0, j), hidden[j], (1, 0, j)):
            out += float(net.w_out[0, j]) * hidden[j]
    return sigmoid(out)


def random_gated_network(rng, n=6, h=3, kinds=(1, 2, 3), density=0.4):
    net = Network(n, h)
    net.w_in[:] = rng.uniform(-2, 2, size=(h, n))
    net.b_hidden[:] = rng.uniform(-1, 1, size=h)
    net.w_out[0] = rng.uniform(-2, 2, size=h)
    net.b_out[0] = rng.uniform(-1, 1)

    def random_gate():
        kind = GateKind(int(rng.choice(kinds)))
        if kind is GateKind.LOWER:
            return GateState(GateKind.LOWER, float(rng.uniform(-1, 1)))
        if kind is GateKind.UPPER:
            return GateState(GateKind.UPPER, float(rng.uniform(-1, 1)))
        if kind is GateKind.RANGE:
            edges = rng.uniform(-1, 1, size=2)
            return GateState(GateKind.RANGE, float(edges.min()), float(edges.max()))
        return GateState(GateKind.DROP)

    for j in range(h):
        for i in range(n):
            if rng.random() < density:
                net.set_gate(False, j, i, random_gate())
        if rng.random() < density:
            net.set_gate(True, 0, j, random_gate())
    return net


def test_gate_state_validation():
    with pytest.raises(ValueError):
        GateState(GateKind.RANGE, 0.5, -0.5)
    with pytest.raises(ValueError):
        GateState(GateKind.LOWER, float("nan"))
    with pytest.raises(ValueError):
        GateState(GateKind.RANGE, 0.0, float("inf"))
    assert GateState().kind is GateKind.INACTIVE
    assert GateState(GateKind.DROP).kind is GateKind.DROP


def test_gate_kinds_given_as_ints_are_checked_as_their_kind():
    with pytest.raises(ValueError, match="not a valid GateKind"):
        GateState(9, 0.2)
    with pytest.raises(ValueError, match="not a valid GateKind"):
        GateState(-1)
    with pytest.raises(ValueError, match="lo <= hi"):
        GateState(int(GateKind.RANGE), 0.5, -0.5)
    assert GateState(int(GateKind.LOWER), 0.2).kind is GateKind.LOWER


def passes(gate, values, rng=None):
    """Whether an active gate admits each of ``values``, by the kernel's mask."""
    kinds, a, b = np.array([int(gate.kind)]), np.array([gate.a]), np.array([gate.b])
    column = np.asarray(values, dtype=np.float64).reshape(-1, 1)
    return ~blocked_matrix(kinds, a, b, column, rng)[:, 0]


def test_gate_passes_inclusive_comparisons():
    assert passes(GateState(GateKind.LOWER, 0.3), [0.3, 0.4, 0.2]).tolist() == [True, True, False]
    assert passes(GateState(GateKind.UPPER, 0.3), [0.3, 0.4]).tolist() == [True, False]
    band = GateState(GateKind.RANGE, -0.2, 0.2)
    assert passes(band, [-0.2, 0.2, 0.21]).tolist() == [True, True, False]
    assert passes(GateState(GateKind.RANGE, 0.1, 0.1), [0.1]).all()  # degenerate range
    # An inactive gate transmits any value: sigmoid(1e9) = 1 reaches the output.
    net = Network(1, 1)
    net.w_in[0, 0] = net.w_out[0, 0] = 1.0
    assert predict(net, np.array([[1e9]]))[0] == expit(1.0)


def test_drop_gate_needs_rng_and_respects_probability(monkeypatch):
    drop = GateState(GateKind.DROP)
    with pytest.raises(ValueError):
        passes(drop, [0.0])
    outcomes = passes(drop, np.zeros(10_000), np.random.default_rng(0))
    # fair coin: 4 sigma around 5000
    assert abs(int(outcomes.sum()) - 5000) < 200
    monkeypatch.setattr(net_module, "DROP_PROB", 0.0)
    assert passes(drop, np.zeros(10), np.random.default_rng(1)).all()
    monkeypatch.setattr(net_module, "DROP_PROB", 1.0)
    assert not passes(drop, np.zeros(10), np.random.default_rng(1)).any()


def test_forward_matches_frozen_sigmoid_value():
    net = Network(1, 1)
    net.w_out[0, 0] = 1.0
    assert predict(net, np.array([[0.123]]))[0] == SIGMOID_HALF


def test_ungated_forward_equals_plain_mlp_reference():
    """No active gates: bitwise equality with an independent expression."""
    rng = np.random.default_rng(42)
    net = Network(12, 5)
    net.w_in[:] = rng.uniform(-1, 1, size=(5, 12))
    net.b_hidden[:] = rng.uniform(-1, 1, size=5)
    net.w_out[0] = rng.uniform(-1, 1, size=5)
    net.b_out[0] = rng.uniform(-1, 1)
    X = rng.uniform(-1, 1, size=(200, 12))

    from scipy.special import expit

    reference = expit(expit(X @ net.w_in.T + net.b_hidden) @ net.w_out[0] + net.b_out[0])
    assert np.array_equal(predict(net, X), reference)


def test_deterministic_gates_match_scalar_reference():
    rng = np.random.default_rng(7)
    for _ in range(20):
        net = random_gated_network(rng)
        x = rng.uniform(-1, 1, size=net.n)
        want = scalar_reference(net, x)
        got = predict(net, x[None, :])[0]
        assert got == pytest.approx(want, rel=1e-12, abs=1e-15)


def test_drop_gates_match_scalar_reference_at_coin_extremes(monkeypatch):
    rng = np.random.default_rng(8)
    for drop_prob, outcome in ((0.0, True), (1.0, False)):
        monkeypatch.setattr(net_module, "DROP_PROB", drop_prob)
        net = random_gated_network(rng, kinds=(4,), density=0.5)
        x = rng.uniform(-1, 1, size=net.n)
        decisions = {
            (0, j, i): outcome for j in range(net.h) for i in range(net.n)
        }
        decisions.update({(1, 0, j): outcome for j in range(net.h)})
        want = scalar_reference(net, x, decisions)
        got = predict(net, x[None, :], np.random.default_rng(0))[0]
        assert got == pytest.approx(want, rel=1e-12, abs=1e-15)


def test_output_gates_test_post_sigmoid_activation():
    """An output-layer threshold compares against sigmoid(hidden), not the
    raw sum: with bias 10 the hidden activation saturates near 1."""
    net = Network(1, 1)
    net.b_hidden[0] = 10.0  # hidden activation ~ 0.99995
    net.w_out[0, 0] = 3.0
    net.set_gate(True, 0, 0, GateState(GateKind.UPPER, 0.9))  # blocks values above 0.9
    assert predict(net, np.zeros((1, 1)))[0] == 0.5  # connection cut: sigmoid(0)
    net.set_gate(True, 0, 0, GateState(GateKind.LOWER, 0.9))  # admits values >= 0.9
    assert predict(net, np.zeros((1, 1)))[0] > 0.9  # sigmoid(3 * ~1)


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
    net = Network(4, 2)
    with pytest.raises(ValueError):
        predict(net, np.zeros((3, 5)))
    net.set_gate(False, 0, 0, GateState(GateKind.DROP))
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
    empty = Dataset(features=features[:0], targets=targets[:0], encoding=Encoding.SIGN_SPLIT)
    with pytest.raises(ValueError, match="cannot evaluate on an empty dataset"):
        mse(net, empty)


def test_gate_counts_and_fraction():
    net = Network(5, 2)
    assert count_active_gates(net) == (0, (0, 0))
    net.set_gate(False, 0, 1, GateState(GateKind.LOWER, 0.0))
    net.set_gate(False, 1, 4, GateState(GateKind.RANGE, -0.1, 0.1))
    net.set_gate(True, 0, 1, GateState(GateKind.DROP))
    total, (inner, outer) = count_active_gates(net)
    assert (total, inner, outer) == (3, 2, 1)
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
        Individual(Network(2, 1), -0.5, 0)


@pytest.mark.parametrize("n, h", [(0, 3), (3, 0)])
def test_network_needs_an_input_and_a_hidden_node(n, h):
    with pytest.raises(ValueError, match="at least one input and one hidden node"):
        Network(n, h)


def test_network_child_copies_only_the_written_arrays():
    net = Network(3, 2)
    dup = net.child("w_in", "gate_kind_in", "gate_a_in", "gate_b_in")
    dup.w_in[0, 0] = 5.0
    dup.set_gate(False, 1, 2, GateState(GateKind.DROP))
    assert net.w_in[0, 0] == 0.0
    assert net.gate(False, 1, 2).kind is GateKind.INACTIVE
    assert dup.w_out is net.w_out and dup.gate_kind_out is net.gate_kind_out
    dup.b_out = np.ones(1)
    assert net.b_out[0] == 0.0


def test_only_the_layer_table_names_a_genome_array():
    """``net.LAYERS`` is the one place in ``src/`` that spells a genome array's
    name as a string; ``Network.__slots__``, ``Network.layer`` and every
    written-field tuple of a child are built from it."""
    assert Network.__slots__ == LAYERS[0] + LAYERS[1]
    slots = set(Network.__slots__)
    sites = []
    for path in sorted(Path(net_module.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        table = set()
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "LAYERS" for target in node.targets
            ):
                table = {id(inner) for inner in ast.walk(node.value)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and node.value in slots and id(node) not in table:
                sites.append(f"{path.name}:{node.lineno} {node.value!r}")
    assert sites == []


def test_genome_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(9)
    net = random_gated_network(rng, n=7, h=4, kinds=(1, 2, 3, 4), density=0.5)
    path = tmp_path / "genome.dnet"
    save_network(net, path)
    back = load_network(path)
    assert np.array_equal(back.w_in, net.w_in)
    assert np.array_equal(back.b_hidden, net.b_hidden)
    assert np.array_equal(back.w_out, net.w_out)
    assert np.array_equal(back.b_out, net.b_out)
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
            lines.append(" ".join(line + tokens(net.gate(False, j, i))))
        lines.append(f"0 {j} -1 {net.b_hidden[j]:.17g} I")
    for j in range(net.h):
        line = ["1", "0", str(j), f"{net.w_out[0, j]:.17g}"]
        lines.append(" ".join(line + tokens(net.gate(True, 0, j))))
    lines.append(f"1 0 -1 {net.b_out[0]:.17g} I")
    return "\n".join(lines) + "\n"


def test_genome_export_is_bytewise_the_gate_state_export(tmp_path):
    rng = np.random.default_rng(19)
    net = random_gated_network(rng, n=30, h=6, kinds=(1, 2, 3, 4), density=0.6)
    net.w_in[0, :3] = [0.0, -0.0, 1e-300]
    outputs = [
        GateState(GateKind.LOWER, -0.25),
        GateState(GateKind.UPPER, 0.5),
        GateState(GateKind.RANGE, -0.5, 0.75),
    ]
    for j, gate in enumerate([GateState(), *outputs, GateState(GateKind.DROP)]):
        net.set_gate(True, 0, j, gate)
    for layer in (net.gate_kind_in, net.gate_kind_out):
        assert set(np.unique(layer)) == {0, 1, 2, 3, 4}
    path = tmp_path / "genome.dnet"
    save_network(net, path)
    assert path.read_bytes() == gate_state_export(net).encode("utf-8")


def test_full_scale_genome_with_every_gate_kind_round_trips(tmp_path):
    rng = np.random.default_rng(23)
    net = random_gated_network(rng, n=1000, h=10, kinds=(0, 1, 2, 3, 4), density=0.5)
    outputs = [
        GateState(),
        GateState(GateKind.LOWER, -0.25),
        GateState(GateKind.UPPER, 0.5),
        GateState(GateKind.RANGE, -0.5, 0.75),
        GateState(GateKind.DROP),
    ]
    for j in range(net.h):  # every kind on the output layer too
        net.set_gate(True, 0, j, outputs[j % len(outputs)])
    for layer in (net.gate_kind_in, net.gate_kind_out):
        assert set(np.unique(layer)) == {0, 1, 2, 3, 4}
    path = tmp_path / "genome.dnet"
    save_network(net, path)
    assert format_network(load_network(path)) == path.read_text()


def test_load_network_rejects_malformed_files(tmp_path):
    good = Network(2, 1)
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

    # The count is exact: one line too many is refused as well.
    extra = tmp_path / "extra.dnet"
    extra.write_text(text + "1 0 -1 0 I\n")
    with pytest.raises(ValueError, match="defines 6 parameters, expected 5"):
        load_network(extra)

    # A duplicate in place of another line keeps the count but breaks the order.
    duplicated = tmp_path / "dup.dnet"
    lines = text.splitlines()
    duplicated.write_text("\n".join(lines[:2] + [lines[1]] + lines[3:]) + "\n")
    message = "line 3: expected parameter (0, 0, 1), got '0 0 0'"
    with pytest.raises(ValueError, match=re.escape(message)):
        load_network(duplicated)

    # Two swapped lines of a complete genome: the first of them is named.
    swapped = tmp_path / "swapped.dnet"
    swapped.write_text("\n".join([lines[0], lines[1], lines[3], lines[2], *lines[4:]]) + "\n")
    message = "line 3: expected parameter (0, 0, 1), got '0 0 -1'"
    with pytest.raises(ValueError, match=re.escape(message)):
        load_network(swapped)

    gated_bias = tmp_path / "gated_bias.dnet"
    gated_bias.write_text(text.replace("0 0 -1 0 I", "0 0 -1 0 D", 1))
    with pytest.raises(ValueError, match="bias"):
        load_network(gated_bias)

    bad_gate = tmp_path / "bad_gate.dnet"
    bad_gate.write_text(text.replace("0 0 0 0 I", "0 0 0 0 L", 1))
    with pytest.raises(ValueError, match="gate"):
        load_network(bad_gate)
    # Lines that name no parameter of the header's shape.
    for line, message in (
        ("0 0 0", "line 3: too few fields"),
        ("0 1 0 0 I", "line 3: expected parameter (0, 0, 1), got '0 1 0'"),
        ("1 0 1 0 I", "line 3: expected parameter (0, 0, 1), got '1 0 1'"),
        ("2 0 0 0 I", "line 3: expected parameter (0, 0, 1), got '2 0 0'"),
    ):
        bad_line = tmp_path / "bad_line.dnet"
        lines = text.splitlines()
        bad_line.write_text("\n".join(lines[:2] + [line] + lines[3:]) + "\n")
        with pytest.raises(ValueError, match=re.escape(message)):
            load_network(bad_line)
    # An inactive tag takes no parameter.
    tagged = tmp_path / "tagged_inactive.dnet"
    tagged.write_text(text.replace("0 0 0 0 I", "0 0 0 0 I 0.3", 1))
    with pytest.raises(ValueError, match="line 2: bad gate 'I 0.3'"):
        load_network(tagged)

    # A header that claims a huge genome is refused before anything is allocated.
    huge = tmp_path / "huge.dnet"
    huge.write_text("DNET 1 2000000000 100000\n0 0 0 0 I\n")
    with pytest.raises(ValueError, match="defines 1 parameters, expected 200000000200001"):
        load_network(huge)

    empty = tmp_path / "empty.dnet"
    empty.write_text("")
    with pytest.raises(ValueError, match="empty"):
        load_network(empty)

    # Weights and biases must be finite; the error names the line.
    for bad in ("nan", "inf", "-inf"):
        non_finite = tmp_path / f"weight_{bad}.dnet"
        non_finite.write_text(text.replace("0 0 0 0 I", f"0 0 0 {bad} I", 1))
        with pytest.raises(ValueError, match="line 2: weight"):
            load_network(non_finite)
        non_finite.write_text(text.replace("0 0 -1 0 I", f"0 0 -1 {bad} I", 1))
        with pytest.raises(ValueError, match="line 4: weight"):
            load_network(non_finite)

    # Every parse error names its line, counting blank lines too.
    bad_int = tmp_path / "bad_int.dnet"
    bad_int.write_text(text.replace("0 0 1 0 I", "0 x 1 0 I", 1))
    with pytest.raises(ValueError, match="line 3: invalid literal"):
        load_network(bad_int)
    bad_header_int = tmp_path / "bad_header_int.dnet"
    bad_header_int.write_text(text.replace("DNET 1 2 1", "DNET 1 2 x", 1))
    with pytest.raises(ValueError, match="line 1: invalid literal"):
        load_network(bad_header_int)
    with pytest.raises(ValueError, match="line 2: bad gate 'L'"):
        load_network(bad_gate)
    blank_first = tmp_path / "blank_first.dnet"
    blank_first.write_text("\n" + bad_gate.read_text())
    with pytest.raises(ValueError, match="line 3: bad gate"):
        load_network(blank_first)
