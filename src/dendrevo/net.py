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
from pathlib import Path

import numpy as np
from scipy.special import expit

#: Probability that a DROP gate blocks its input on one pass (fair coin).
DEFAULT_DROP_PROB = 0.5


class GateKind(IntEnum):
    INACTIVE = 0
    LOWER = 1
    UPPER = 2
    RANGE = 3
    DROP = 4


# Plain ints for array compares: an enum member lookup costs about 1 us
# and, compared with an array, takes NumPy's slow enum path.
INACTIVE, LOWER, UPPER, RANGE, DROP = (kind.value for kind in GateKind)

_GATE_TAGS = {
    GateKind.INACTIVE: "I",
    GateKind.LOWER: "L",
    GateKind.UPPER: "U",
    GateKind.RANGE: "R",
    GateKind.DROP: "D",
}
_TAG_KINDS = {v: k for k, v in _GATE_TAGS.items()}


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
        if self.kind in (GateKind.LOWER, GateKind.UPPER) and not math.isfinite(self.a):
            raise ValueError("threshold must be finite")
        if self.kind is GateKind.RANGE:
            if not (math.isfinite(self.a) and math.isfinite(self.b)):
                raise ValueError("range bounds must be finite")
            if self.a > self.b:
                raise ValueError(f"range requires lo <= hi, got ({self.a}, {self.b})")

    @classmethod
    def inactive(cls) -> "GateState":
        return cls(GateKind.INACTIVE)

    @classmethod
    def lower(cls, threshold: float) -> "GateState":
        return cls(GateKind.LOWER, threshold)

    @classmethod
    def upper(cls, threshold: float) -> "GateState":
        return cls(GateKind.UPPER, threshold)

    @classmethod
    def band(cls, lo: float, hi: float) -> "GateState":
        return cls(GateKind.RANGE, lo, hi)

    @classmethod
    def drop(cls) -> "GateState":
        return cls(GateKind.DROP)


class Network:
    """Fully connected n -> h -> 1 perceptron with per-connection gates.

    Weights, biases and gate parameters live in dense arrays so mutation
    can index any parameter in O(1); sigmoid transfer at every node.
    Total weighted parameters: n*h + 2h + 1 (for n=1000, h=10: 10,021).
    Gates exist on the n*h + h weighted connections only. Genomes in a
    population share arrays, so once a genome is in one, none of its
    arrays is written in place (see :mod:`dendrevo.evolve`).
    """

    __slots__ = (
        "w_in", "b_hidden", "w_out", "b_out",
        "gate_kind_in", "gate_a_in", "gate_b_in",
        "gate_kind_out", "gate_a_out", "gate_b_out",
    )

    def __init__(
        self,
        w_in: np.ndarray,
        b_hidden: np.ndarray,
        w_out: np.ndarray,
        b_out: float,
        gate_kind_in: np.ndarray,
        gate_a_in: np.ndarray,
        gate_b_in: np.ndarray,
        gate_kind_out: np.ndarray,
        gate_a_out: np.ndarray,
        gate_b_out: np.ndarray,
    ) -> None:
        h, n = w_in.shape
        if b_hidden.shape != (h,) or w_out.shape != (h,):
            raise ValueError("inconsistent layer dimensions")
        if gate_kind_in.shape != (h, n) or gate_kind_out.shape != (h,):
            raise ValueError("gate arrays must match connection layout")
        self.w_in = w_in
        self.b_hidden = b_hidden
        self.w_out = w_out
        self.b_out = float(b_out)
        self.gate_kind_in = gate_kind_in
        self.gate_a_in = gate_a_in
        self.gate_b_in = gate_b_in
        self.gate_kind_out = gate_kind_out
        self.gate_a_out = gate_a_out
        self.gate_b_out = gate_b_out

    @classmethod
    def zeros(cls, n: int, h: int) -> "Network":
        """All-zero weights and biases, every gate inactive."""
        if n < 1 or h < 1:
            raise ValueError("need at least one input and one hidden node")
        return cls(
            w_in=np.zeros((h, n)),
            b_hidden=np.zeros(h),
            w_out=np.zeros(h),
            b_out=0.0,
            gate_kind_in=np.zeros((h, n), dtype=np.uint8),
            gate_a_in=np.zeros((h, n)),
            gate_b_in=np.zeros((h, n)),
            gate_kind_out=np.zeros(h, dtype=np.uint8),
            gate_a_out=np.zeros(h),
            gate_b_out=np.zeros(h),
        )

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

    def copy(self) -> "Network":
        return Network(
            self.w_in.copy(), self.b_hidden.copy(), self.w_out.copy(), self.b_out,
            self.gate_kind_in.copy(), self.gate_a_in.copy(), self.gate_b_in.copy(),
            self.gate_kind_out.copy(), self.gate_a_out.copy(), self.gate_b_out.copy(),
        )

    def input_gate(self, j: int, i: int) -> GateState:
        kind, a, b = self.gate_kind_in[j, i], self.gate_a_in[j, i], self.gate_b_in[j, i]
        return GateState(GateKind(int(kind)), float(a), float(b))

    def output_gate(self, j: int) -> GateState:
        kind, a, b = self.gate_kind_out[j], self.gate_a_out[j], self.gate_b_out[j]
        return GateState(GateKind(int(kind)), float(a), float(b))

    def set_input_gate(self, j: int, i: int, gate: GateState) -> None:
        self.gate_kind_in[j, i] = int(gate.kind)
        self.gate_a_in[j, i] = gate.a
        self.gate_b_in[j, i] = gate.b

    def set_output_gate(self, j: int, gate: GateState) -> None:
        self.gate_kind_out[j] = int(gate.kind)
        self.gate_a_out[j] = gate.a
        self.gate_b_out[j] = gate.b


@dataclass
class Individual:
    """A network genome with its cached training error and gate count."""

    network: Network
    fitness: float  # training MSE, lower is better
    active_gate_count: int

    def __post_init__(self) -> None:
        if self.fitness < 0:
            raise ValueError("fitness (an MSE) cannot be negative")


def blocked_matrix(
    kinds: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    values: np.ndarray,
    rng: np.random.Generator | None = None,
    drop_prob: float = DEFAULT_DROP_PROB,
) -> np.ndarray:
    """(batch, gates) mask, True where an active gate blocks its input.

    LOWER, UPPER and RANGE gates admit the inclusive interval [lo, hi]
    with the open sides at infinity. DROP coins are one uniform block
    over the drop gates in the given order; a coin below drop_prob blocks.
    """
    lo = np.where(kinds == UPPER, -np.inf, a)
    hi = np.where(kinds == RANGE, b, a)
    hi[kinds == LOWER] = np.inf
    blocked = (values < lo) | (values > hi)
    drops = np.flatnonzero(kinds == DROP)
    if drops.size:
        if rng is None:
            raise ValueError("a DROP gate needs an rng to flip its coins")
        blocked[:, drops] = rng.random((values.shape[0], drops.size)) < drop_prob
    return blocked


def retract_blocked(
    pre: np.ndarray,
    values: np.ndarray,
    w: np.ndarray,
    blocked: np.ndarray,
    nodes: np.ndarray,
) -> None:
    """Subtract every blocked connection's term from its node, in place.

    Column g of the (batch, gates) ``values`` feeds node ``nodes[g]``
    through weight ``w[g]``; ``nodes`` must be ascending. ``values`` is
    overwritten with the terms ``w * values * blocked``, and each node's
    terms are summed by one ``np.add.reduceat`` segment. The 0/1 multiply
    equals a select on ``blocked`` except that a dropped term may be -0.0
    instead of +0.0, which leaves every nonzero sum unchanged.
    """
    values *= w
    values *= blocked
    starts = np.flatnonzero(np.diff(nodes, prepend=-1))
    sums = np.add.reduceat(values, starts, axis=1)
    if starts.size == pre.shape[1]:
        pre -= sums  # every node is hit: skip the slow column scatter
    else:
        pre[:, nodes[starts]] -= sums


def retract_input_gates(
    net: Network,
    pre: np.ndarray,
    features: np.ndarray,
    flat: np.ndarray,
    rng: np.random.Generator | None = None,
    drop_prob: float = DEFAULT_DROP_PROB,
) -> None:
    """Retract the input-layer gates at row-major indices ``flat`` from
    the (batch, h) hidden pre-activations ``pre``, in place."""
    nodes, inputs = np.divmod(flat, net.n)  # row-major, so nodes ascend
    values = np.take(features, inputs, axis=1)
    kinds, a, b, w = (
        m.reshape(-1)[flat]
        for m in (net.gate_kind_in, net.gate_a_in, net.gate_b_in, net.w_in)
    )
    blocked = blocked_matrix(kinds, a, b, values, rng, drop_prob)
    retract_blocked(pre, values, w, blocked, nodes)


def predict(
    net: Network,
    features: np.ndarray,
    rng: np.random.Generator | None = None,
    drop_prob: float = DEFAULT_DROP_PROB,
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
        retract_input_gates(net, pre_hidden, features, flat, rng, drop_prob)
    hidden = expit(pre_hidden)
    pre_out = hidden @ net.w_out + net.b_out
    flat_out = np.flatnonzero(net.gate_kind_out)
    if flat_out.size:
        # np.take returns C order, which fixes how .sum(axis=1) adds a row.
        values = np.take(hidden, flat_out, axis=1)
        blocked = blocked_matrix(
            net.gate_kind_out[flat_out],
            net.gate_a_out[flat_out],
            net.gate_b_out[flat_out],
            values, rng, drop_prob,
        )
        values *= net.w_out[flat_out]
        values *= blocked
        pre_out -= values.sum(axis=1)
    return expit(pre_out)


def forward(
    net: Network,
    features: np.ndarray,
    rng: np.random.Generator | None = None,
    drop_prob: float = DEFAULT_DROP_PROB,
) -> float:
    """Single forward pass; output always lies in (0, 1)."""
    features = np.asarray(features, dtype=np.float64)
    if features.shape != (net.n,):
        raise ValueError(f"expected {net.n} features, got {features.shape}")
    return float(predict(net, features[None, :], rng, drop_prob)[0])


def mse(
    net: Network,
    data,
    rng: np.random.Generator | None = None,
    drop_prob: float = DEFAULT_DROP_PROB,
) -> float:
    """Mean squared error of the network over a dataset."""
    if len(data) == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    out = predict(net, data.features, rng, drop_prob)
    err = out - data.targets
    return float(err @ err / err.shape[0])


def count_active_gates(net: Network) -> tuple[int, tuple[int, int]]:
    """Total non-inactive gates plus the (input layer, output layer) split."""
    in_count = int(np.count_nonzero(net.gate_kind_in))
    out_count = int(np.count_nonzero(net.gate_kind_out))
    return in_count + out_count, (in_count, out_count)


def gate_fraction(net: Network) -> float:
    """Active gates as a fraction of the gateable connections."""
    total, _ = count_active_gates(net)
    return total / net.gateable_count


def ablate_output_gates(net: Network) -> Network:
    """Copy of the network with every hidden-to-output gate disabled."""
    out = net.copy()
    out.gate_kind_out[:] = GateKind.INACTIVE
    out.gate_a_out[:] = 0.0
    out.gate_b_out[:] = 0.0
    return out


def _gate_tokens(gate: GateState) -> list[str]:
    tag = _GATE_TAGS[gate.kind]
    if gate.kind in (GateKind.LOWER, GateKind.UPPER):
        return [tag, f"{gate.a:.17g}"]
    if gate.kind is GateKind.RANGE:
        return [tag, f"{gate.a:.17g}", f"{gate.b:.17g}"]
    return [tag]


def save_network(net: Network, path: str | Path) -> None:
    """Write the textual genome export.

    Header ``DNET 1 <n> <h>``; one line per parameter:
    ``<layer> <to> <from> <weight> <gate-tag> [<gate-params>]``.
    Layer 0 is input-to-hidden (to = hidden node), layer 1 is
    hidden-to-output (to = 0); bias lines use from = -1 and are
    always ungated.
    """
    lines = [f"DNET 1 {net.n} {net.h}"]
    kinds = net.gate_kind_in.tolist()
    for j, row in enumerate(net.w_in.tolist()):
        for i, w in enumerate(row):
            # No GateState for an inactive gate: it is most lines at n=1000.
            gate = " ".join(_gate_tokens(net.input_gate(j, i))) if kinds[j][i] else "I"
            lines.append(f"0 {j} {i} {w:.17g} {gate}")
        lines.append(f"0 {j} -1 {net.b_hidden[j]:.17g} I")
    for j in range(net.h):
        tokens = ["1", "0", str(j), f"{net.w_out[j]:.17g}"]
        tokens.extend(_gate_tokens(net.output_gate(j)))
        lines.append(" ".join(tokens))
    lines.append(f"1 0 -1 {net.b_out:.17g} I")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _parse_gate(tokens: list[str], line_no: int) -> GateState:
    if not tokens or tokens[0] not in _TAG_KINDS:
        raise ValueError(f"line {line_no}: missing or unknown gate tag")
    kind = _TAG_KINDS[tokens[0]]
    params = tokens[1:]
    try:
        if kind in (GateKind.LOWER, GateKind.UPPER):
            (a,) = params
            return GateState(kind, float(a))
        if kind is GateKind.RANGE:
            a, b = params
            return GateState(kind, float(a), float(b))
        if params:
            raise ValueError
        return GateState(kind)
    except ValueError as exc:
        raise ValueError(f"line {line_no}: bad gate parameters {params}") from exc


def load_network(path: str | Path) -> Network:
    """Parse a genome export written by :func:`save_network`."""
    text = Path(path).read_text(encoding="utf-8")
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty genome file")
    header = lines[0].split()
    if len(header) != 4 or header[0] != "DNET" or header[1] != "1":
        raise ValueError(f"bad genome header: {lines[0]!r}")
    n, h = int(header[2]), int(header[3])
    net = Network.zeros(n, h)
    seen = set()
    for line_no, line in enumerate(lines[1:], start=2):
        tokens = line.split()
        if len(tokens) < 5:
            raise ValueError(f"line {line_no}: too few fields")
        layer, to, frm = int(tokens[0]), int(tokens[1]), int(tokens[2])
        weight = float(tokens[3])
        gate = _parse_gate(tokens[4:], line_no)
        key = (layer, to, frm)
        if key in seen:
            raise ValueError(f"line {line_no}: duplicate parameter {key}")
        seen.add(key)
        if frm == -1 and gate.kind is not GateKind.INACTIVE:
            raise ValueError(f"line {line_no}: biases cannot carry gates")
        if layer == 0:
            if not 0 <= to < h or not -1 <= frm < n:
                raise ValueError(f"line {line_no}: index out of range")
            if frm == -1:
                net.b_hidden[to] = weight
            else:
                net.w_in[to, frm] = weight
                net.set_input_gate(to, frm, gate)
        elif layer == 1:
            if to != 0 or not -1 <= frm < h:
                raise ValueError(f"line {line_no}: index out of range")
            if frm == -1:
                net.b_out = weight
            else:
                net.w_out[frm] = weight
                net.set_output_gate(frm, gate)
        else:
            raise ValueError(f"line {line_no}: unknown layer {layer}")
    if len(seen) != net.param_count:
        raise ValueError(
            f"genome file defines {len(seen)} parameters, expected {net.param_count}"
        )
    return net
