"""Two-layer perceptrons whose connections may carry activation gates.

Every weighted connection (input-to-hidden and hidden-to-output, but not
biases: a bias has no incoming signal to gate) owns a gate. An inactive
gate transmits unconditionally, reducing the node to a plain weighted
sum; an active gate admits the connection's input into the activation
sum only when its condition holds for the value on the wire. Gates on
hidden-to-output connections test the transmitted hidden activation,
i.e. the post-sigmoid value.

Gate kinds:
  INACTIVE  always transmits.
  LOWER(t)  transmits iff x >= t.
  UPPER(t)  transmits iff x <= t.
  RANGE(lo, hi)  transmits iff lo <= x <= hi.
  DROP      transmits by independent coin flip on every forward pass.

Threshold comparisons are inclusive so RANGE(t, t) still admits x == t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum
from operator import attrgetter
from pathlib import Path

import numpy as np
from scipy.special import expit

#: Probability that a DROP gate blocks its input on one pass (fair coin).
DROP_PROB = 0.5


class GateKind(IntEnum):
    INACTIVE = 0
    LOWER = 1
    UPPER = 2
    RANGE = 3
    DROP = 4


# Plain ints for array compares: an enum member lookup costs about 1 us
# and, compared with an array, takes NumPy's slow enum path.
INACTIVE, LOWER, UPPER, RANGE, DROP = (kind.value for kind in GateKind)
#: The kinds whose deterministic pass factor is 1: drop coins are per pass.
OPEN_KINDS = (INACTIVE, DROP)

# Each kind's .dnet tag and how many parameters (a, then b) follow it.
_DNET_GATES = {
    GateKind.INACTIVE: ("I", 0),
    GateKind.LOWER: ("L", 1),
    GateKind.UPPER: ("U", 1),
    GateKind.RANGE: ("R", 2),
    GateKind.DROP: ("D", 0),
}


@dataclass(frozen=True)
class GateState:
    """One connection's transmission condition.

    ``a`` holds the threshold for LOWER/UPPER and the low edge for RANGE;
    ``b`` holds the RANGE high edge and is unused otherwise.
    """

    kind: GateKind = GateKind.INACTIVE
    a: float = 0.0
    b: float = 0.0

    def __post_init__(self) -> None:
        if type(self.kind) is not GateKind:  # an unknown kind raises ValueError here
            object.__setattr__(self, "kind", GateKind(self.kind))
        if self.kind in (GateKind.LOWER, GateKind.UPPER) and not math.isfinite(self.a):
            raise ValueError("threshold must be finite")
        if self.kind is GateKind.RANGE:
            if not (math.isfinite(self.a) and math.isfinite(self.b)):
                raise ValueError("range bounds must be finite")
            if self.a > self.b:
                raise ValueError(f"range requires lo <= hi, got ({self.a}, {self.b})")


#: Each layer's genome arrays: gate kinds, gate a, gate b, weights, biases.
#: Weights and gates are (to nodes, from nodes), biases (to nodes,).
LAYERS = (
    ("gate_kind_in", "gate_a_in", "gate_b_in", "w_in", "b_hidden"),
    ("gate_kind_out", "gate_a_out", "gate_b_out", "w_out", "b_out"),
)
_LAYER_GETTERS = tuple(attrgetter(*names) for names in LAYERS)


class Network:
    """Fully connected n -> h -> 1 perceptron with per-connection gates.

    Weights, biases and gate parameters live in dense arrays so mutation
    can index any parameter in O(1); sigmoid transfer at every node.
    Both layers share one layout (``LAYERS``): gates and weights are (to,
    from), (h, n) and (1, h), and biases (to,), so ``b_out`` is a length-1
    array. ``.dnet`` lines and mutation records address a parameter alike,
    as (output layer, to, from). Total weighted parameters: n*h + 2h + 1
    (for n=1000, h=10: 10,021). Gates exist on the n*h + h weighted
    connections only. Genomes in a population share arrays, so once a genome
    is in one, none of its arrays is written in place (see :mod:`dendrevo.evolve`).
    """

    __slots__ = LAYERS[0] + LAYERS[1]

    def __init__(self, n: int, h: int) -> None:
        """All-zero weights and biases, every gate inactive."""
        if n < 1 or h < 1:
            raise ValueError("need at least one input and one hidden node")
        for (kinds, *floats, bias), shape in zip(LAYERS, ((h, n), (1, h))):
            setattr(self, kinds, np.zeros(shape, dtype=np.uint8))
            for name in floats:
                setattr(self, name, np.zeros(shape))
            setattr(self, bias, np.zeros(shape[0]))

    @property
    def n(self) -> int:
        return self.w_in.shape[1]

    @property
    def h(self) -> int:
        return self.w_in.shape[0]

    @property
    def param_count(self) -> int:
        """All weighted parameters including biases."""
        return self.n * self.h + 2 * self.h + 1

    @property
    def gateable_count(self) -> int:
        """Connections that can carry a gate (biases cannot)."""
        return self.n * self.h + self.h

    def child(self, *written: str) -> "Network":
        """A genome sharing every array of this one except the ``written``
        fields, which it copies, so writing them leaves this one intact."""
        child = Network.__new__(Network)  # __init__ would allocate zeros
        for name in Network.__slots__:
            setattr(child, name, getattr(self, name))
        for name in written:
            setattr(child, name, getattr(self, name).copy())
        return child

    def layer(self, output: bool) -> tuple[np.ndarray, ...]:
        """One layer's (gate kinds, gate a, gate b, weights, biases) arrays."""
        return _LAYER_GETTERS[output](self)

    def gate(self, output: bool, j: int, i: int) -> GateState:
        """The gate on the connection from node i to node j of one layer."""
        kinds, a, b = self.layer(output)[:3]
        return GateState(GateKind(int(kinds[j, i])), float(a[j, i]), float(b[j, i]))

    def set_gate(self, output: bool, j: int, i: int, gate: GateState) -> None:
        kinds, a, b = self.layer(output)[:3]
        kinds[j, i], a[j, i], b[j, i] = int(gate.kind), gate.a, gate.b


def blocked_matrix(
    kinds: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    values: np.ndarray,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """(batch, gates) mask, True where an active gate blocks its input.

    LOWER, UPPER and RANGE gates admit the inclusive interval [lo, hi]
    with the open sides at infinity. DROP coins are one uniform block
    over the drop gates in the given order; a coin below DROP_PROB blocks.
    """
    drops = np.flatnonzero(kinds == DROP)
    if drops.size:
        if rng is None:
            raise ValueError("a DROP gate needs an rng to flip its coins")
        coins = rng.random((values.shape[0], drops.size)) < DROP_PROB
        if drops.size == kinds.size:
            return coins  # drop gates only: the coins are the whole mask
    lo = np.where(kinds == UPPER, -np.inf, a)
    hi = np.where(kinds == RANGE, b, a)
    hi[kinds == LOWER] = np.inf
    blocked = (values < lo) | (values > hi)
    if drops.size:
        blocked[:, drops] = coins
    return blocked


def pass_mask(kind: int, a: float, b: float, values: np.ndarray):
    """Deterministic pass factor of one gate on ``values``, the single-gate form
    of ``blocked_matrix``'s rule: a 0/1 mask for LOWER, UPPER and RANGE, else 1."""
    if kind == LOWER:
        passed = values >= a
    elif kind == UPPER:
        passed = values <= a
    elif kind == RANGE:
        passed = (values >= a) & (values <= b)
    else:
        return 1.0
    return passed.astype(np.float64)


def det_gates(kinds: np.ndarray) -> np.ndarray:
    """Indices of the LOWER, UPPER and RANGE gates among ``kinds``."""
    return np.flatnonzero((kinds != INACTIVE) & (kinds != DROP))


def gate_terms(
    layer: tuple[np.ndarray, ...],
    flat: np.ndarray,
    values: np.ndarray,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """``values``, the (batch, gates) inputs of the gates at flat indices
    ``flat`` of one layer's (kinds, a, b, w) arrays, overwritten with their
    terms ``w * values * blocked``; the caller subtracts them from its sums.

    The 0/1 multiply spares a select's mispredicted branch per coin. A
    dropped term may then be -0.0 where the select gave +0.0; adding either
    to a nonzero partial sum is exact and ``expit`` maps both zeros to the
    same value, so every result is bitwise that of the select.
    """
    kinds, a, b, w = (m.reshape(-1)[flat] for m in layer[:4])
    blocked = blocked_matrix(kinds, a, b, values, rng)
    values *= w
    values *= blocked
    return values


def retract_input_gates(
    net: Network,
    pre: np.ndarray,
    features: np.ndarray,
    flat: np.ndarray,
    rng: np.random.Generator | None = None,
) -> None:
    """Retract the input-layer gates at row-major indices ``flat`` from
    the (batch, h) hidden pre-activations ``pre``, in place; each node's
    terms are summed by one ``np.add.reduceat`` segment."""
    nodes, inputs = np.divmod(flat, net.n)  # row-major, so nodes ascend
    terms = gate_terms(net.layer(False), flat, np.take(features, inputs, axis=1), rng)
    starts = np.flatnonzero(np.diff(nodes, prepend=-1))
    sums = np.add.reduceat(terms, starts, axis=1)
    if starts.size == pre.shape[1]:
        pre -= sums  # every node is hit: skip the slow column scatter
    else:
        pre[:, nodes[starts]] -= sums


def output_terms(
    net: Network,
    hidden_cols,
    flat: np.ndarray,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """(batch, gates) terms of the output gates at ``flat``, whose inputs are
    the hidden activation columns ``hidden_cols[j]``; callers sum them."""
    values = np.column_stack([hidden_cols[j] for j in flat])  # C order fixes a row sum's adds
    return gate_terms(net.layer(True), flat, values, rng)


def predict(
    net: Network,
    features: np.ndarray,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Network output for each row of a (batch, n) feature matrix.

    The ungated weighted sums are computed as one matrix product; the
    active gates then retract their connections' contributions from the
    rows where their conditions fail, grouped per target node. With no
    active gates nothing is retracted and the result is exactly the plain
    two-layer perceptron. DROP coins are drawn as one uniform block per
    layer, shaped (batch, active drop gates in ascending connection
    order), input layer first; that fixes the draw order for replay.
    """
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[1] != net.n:
        raise ValueError(f"features must be (batch, {net.n}), got {features.shape}")
    pre_hidden = features @ net.w_in.T + net.b_hidden
    flat = np.flatnonzero(net.gate_kind_in)
    if flat.size:
        retract_input_gates(net, pre_hidden, features, flat, rng)
    hidden = expit(pre_hidden)
    pre_out = hidden @ net.w_out[0] + net.b_out
    flat_out = np.flatnonzero(net.gate_kind_out)
    if flat_out.size:
        pre_out -= output_terms(net, hidden.T, flat_out, rng).sum(axis=1)
    return expit(pre_out)


def mse(
    net: Network,
    data,
    rng: np.random.Generator | None = None,
) -> float:
    """Mean squared error of the network over a dataset."""
    if len(data) == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    out = predict(net, data.features, rng)
    err = out - data.targets
    return float(err @ err / err.shape[0])


def count_active_gates(net: Network) -> tuple[int, tuple[int, int]]:
    """Total non-inactive gates plus the (input layer, output layer) split."""
    in_count = int(np.count_nonzero(net.gate_kind_in))
    out_count = int(np.count_nonzero(net.gate_kind_out))
    return in_count + out_count, (in_count, out_count)


def ablate_output_gates(net: Network) -> Network:
    """Copy of the network with every hidden-to-output gate disabled."""
    written = LAYERS[1][:3]
    out = net.child(*written)
    for name in written:
        getattr(out, name)[:] = 0
    return out


def _gated_lines(prefix: str, weights, kinds, a, b) -> list[str]:
    """``prefix``, source index, weight and gate for each connection."""
    lines = []
    for i, (w, kind, ai, bi) in enumerate(zip(weights, kinds, a, b)):
        tag, count = _DNET_GATES[kind]
        if count:  # most gates are inactive and take no parameters
            tag += "".join(f" {p:.17g}" for p in (ai, bi)[:count])
        lines.append(f"{prefix}{i} {w:.17g} {tag}")
    return lines


def format_network(net: Network) -> str:
    """The textual genome export.

    Header ``DNET 1 <n> <h>``; one line per parameter:
    ``<layer> <to> <from> <weight> <gate-tag> [<gate-params>]``.
    Layer 0 is input-to-hidden (to = hidden node), layer 1 is
    hidden-to-output (to = 0); bias lines use from = -1 and are
    always ungated. ``<layer> <to> <from>`` is the address a mutation
    record carries. Each hidden node's inputs come in order, then its
    bias; then the output node's inputs, then its bias.
    """
    lines = [f"DNET 1 {net.n} {net.h}"]
    for layer in (0, 1):
        kinds, a, b, w, bias = (m.tolist() for m in net.layer(layer))
        for j, row in enumerate(zip(w, kinds, a, b)):
            lines += _gated_lines(f"{layer} {j} ", *row)
            lines.append(f"{layer} {j} -1 {bias[j]:.17g} I")
    return "\n".join(lines) + "\n"


def _parse_gate(tokens: list[str]) -> GateState:
    for kind, (tag, count) in _DNET_GATES.items():
        if tokens[0] == tag and len(tokens) == count + 1:
            return GateState(kind, *map(float, tokens[1:]))
    raise ValueError(f"bad gate {' '.join(tokens)!r}")


def load_network(path: str | Path) -> Network:
    """Parse a genome export in the line order :func:`format_network`
    writes; an error names its line. Weights and biases must be finite."""
    text = Path(path).read_text(encoding="utf-8")
    lines = [(no, ln.split()) for no, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
    if not lines:
        raise ValueError("empty genome file")
    line_no, header = lines[0]
    try:
        if len(header) != 4 or header[:2] != ["DNET", "1"]:
            raise ValueError(f"bad genome header {' '.join(header)!r}")
        n, h = int(header[2]), int(header[3])
        defined, expected = len(lines) - 1, n * h + 2 * h + 1
        if defined != expected:  # checked before a huge header allocates
            raise ValueError(f"genome file defines {defined} parameters, expected {expected}")
        net = Network(n, h)
        body = iter(lines[1:])
        for layer in (0, 1):
            *_, w, bias = net.layer(layer)
            to, frm = w.shape
            keys = [(layer, j, i) for j in range(to) for i in (*range(frm), -1)]
            weights = []
            for key, (line_no, tokens) in zip(keys, body):  # keys first: zip stops at their end
                if len(tokens) < 5:
                    raise ValueError("too few fields")
                if (int(tokens[0]), int(tokens[1]), int(tokens[2])) != key:
                    raise ValueError(f"expected parameter {key}, got {' '.join(tokens[:3])!r}")
                weight = float(tokens[3])
                if not math.isfinite(weight):
                    raise ValueError(f"weight {tokens[3]} is not finite")
                weights.append(weight)
                # Most lines carry a bare inactive tag, which Network(n, h) already holds.
                if tokens[4:] != ["I"]:
                    gate = _parse_gate(tokens[4:])
                    if key[2] == -1:
                        raise ValueError("biases cannot carry gates")
                    net.set_gate(*key, gate)
            rows = np.array(weights).reshape(to, frm + 1)  # each node's inputs, then its bias
            w[:], bias[:] = rows[:, :frm], rows[:, frm]
    except ValueError as exc:
        raise ValueError(f"line {line_no}: {exc}") from None
    return net
