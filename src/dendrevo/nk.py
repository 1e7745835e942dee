"""NK landscapes and the regression datasets drawn from them.

An NK landscape assigns a fitness in [0, 1] to every binary genome of
length ``n``. Each gene's contribution depends on its own bit and on the
bits of ``k`` randomly chosen other genes, looked up in a per-gene table
of 2^(k+1) random values; genome fitness is the mean contribution.
Raising ``k`` raises epistasis and therefore task ruggedness, which makes
the landscape a convenient tuneable source of regression data: random
genomes become feature vectors, their fitnesses become targets.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

# Table entries drawn per block: 1 MiB of float64 stays in a typical L2
# cache while it is gathered, and at k <= 9, n <= 100 the table is one block.
BLOCK_ENTRIES = 2**17


class Encoding(Enum):
    """How binary genes are turned into real-valued network inputs.

    SIGN_SPLIT: a one gene becomes a uniform draw from [0, 1], a zero gene
    a uniform draw from [-1, 0), so the bit is recoverable from the sign.
    CENTER_BAND: a one gene becomes a uniform draw from [-0.5, 0.5]; a zero
    gene lands in one of the outer bands [-1, -0.5] or (0.5, 1], chosen by
    a fair coin.
    """

    SIGN_SPLIT = "signsplit"
    CENTER_BAND = "centerband"


@dataclass(frozen=True)
class NKLandscape:
    """A seeded epistatic fitness function over length-``n`` binary genomes.

    ``neighbors[i]`` lists the k other genes that modulate gene i's
    contribution; row i of ``tables`` holds its 2^(k+1) contribution values.
    :func:`build_landscape` with the same (n, k, seed) yields an identical one.
    The table is not held: ``table_state`` is the generator state at which
    its draws begin, and evaluation draws it again in ``BLOCK_ENTRIES``
    blocks, so at n=1000, k=15 a landscape holds 125 KB of neighbor lists,
    not a 500 MiB table. ``dense()`` holds it, for callers that evaluate often.
    """

    n: int
    k: int
    neighbors: np.ndarray  # (n, k) int64, row i excludes i, entries distinct
    table_state: dict  # PCG64 state at the first table draw
    held_table: np.ndarray | None = field(default=None, repr=False)

    @property
    def tables(self) -> np.ndarray:
        """The (n, 2^(k+1)) table in [0, 1), drawn anew per access unless held."""
        if self.held_table is not None:
            return self.held_table
        return self._generator().random((self.n, 2 ** (self.k + 1)))

    def dense(self) -> NKLandscape:
        """This landscape with its table drawn once and held."""
        return self if self.held_table is not None else replace(self, held_table=self.tables)

    def _generator(self) -> np.random.Generator:
        bit_generator = np.random.PCG64()
        bit_generator.state = self.table_state
        return np.random.Generator(bit_generator)

    def _blocks(self) -> Iterator[tuple[int, np.ndarray]]:
        """(first gene, its rows of the table) in gene order. PCG64 fills
        arrays in C order, so consecutive blocks are the bulk draw bit for
        bit. Blocks share one buffer: use each before drawing the next."""
        if self.held_table is not None:
            return iter([(0, self.held_table)])
        width = 2 ** (self.k + 1)
        buffer = np.empty((max(1, BLOCK_ENTRIES // width), width))
        generator = self._generator()
        starts = range(0, self.n, len(buffer))
        return ((i, generator.random(out=buffer[: self.n - i])) for i in starts)


@dataclass(frozen=True)
class Dataset:
    """A batch of samples drawn from one landscape.

    Features are stored as one (size, n) matrix and targets as a (size,)
    vector so evaluation code can stay vectorized.
    """

    features: np.ndarray  # (size, n) float64
    targets: np.ndarray  # (size,) float64
    encoding: Encoding

    def __post_init__(self) -> None:
        if self.features.ndim != 2 or self.targets.shape != (self.features.shape[0],):
            raise ValueError("features must be (size, n) with matching targets")

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def n(self) -> int:
        return self.features.shape[1]


def build_landscape(n: int, k: int, seed: int) -> NKLandscape:
    """Construct a seeded NK landscape.

    Each gene's k neighbors are drawn uniformly without replacement from
    the other n-1 genes; table entries are uniform on [0, 1). The rng
    consumption order (all neighbor lists first, then the table in gene
    order) is fixed so (seed, n, k) always reproduces the same landscape.
    """
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    if not 0 <= k <= n - 1:
        raise ValueError(f"k must satisfy 0 <= k <= n-1, got k={k} for n={n}")
    rng = np.random.default_rng(seed)
    neighbors = np.empty((n, k), dtype=np.int64)
    for i in range(n):
        # Indices into the other n-1 genes, as choice(others, k) draws them.
        idx = rng.choice(n - 1, k, replace=False)
        neighbors[i] = idx + (idx >= i)
    return NKLandscape(n, k, neighbors, table_state=rng.bit_generator.state)


def _table_rows(landscape: NKLandscape, bits: np.ndarray) -> np.ndarray:
    """Gene-major (n, batch) table row indices for a (batch, n) bit matrix:
    own bit lowest, neighbor bits above it in neighbor-list order. The
    words are the narrowest unsigned type that holds k+1 bits."""
    # Another dtype is checked before the cast, which would turn 0.5 and 256 into 0.
    non_binary = bits.dtype != np.uint8 and np.any((bits != 0) & (bits != 1))
    genes = np.ascontiguousarray(bits.T, dtype=np.uint8)
    if non_binary or genes.max(initial=0) > 1:
        raise ValueError("genomes must hold only 0 and 1")
    rows = genes.astype(np.min_scalar_type(2 ** (landscape.k + 1) - 1))
    shifted = np.empty_like(rows)
    for m in range(landscape.k):
        neighbor_bits = genes[landscape.neighbors[:, m]]
        rows += np.left_shift(neighbor_bits, m + 1, out=shifted, dtype=rows.dtype)
    return rows


def evaluate_genomes(landscape: NKLandscape, bits: np.ndarray) -> np.ndarray:
    """Fitness of each row of a (batch, n) binary matrix.

    Each gene block's table rows are gathered while the block is in
    cache; a row's fitness does not depend on the other rows.
    """
    bits = np.asarray(bits)
    if bits.ndim != 2 or bits.shape[1] != landscape.n:
        raise ValueError(
            f"genome matrix must be (batch, {landscape.n}), got {bits.shape}"
        )
    rows = _table_rows(landscape, bits)
    contrib = np.empty(rows.shape)  # gene-major, like rows
    for start, block in landscape._blocks():
        genes = slice(start, start + len(block))
        # Flat indices into the block, widened to int64 one block at a time.
        # Indices are in range, so "wrap" only spares the copy "raise" buffers.
        offsets = np.arange(0, block.size, block.shape[1])[:, None]
        np.take(block.reshape(-1), offsets + rows[genes], out=contrib[genes], mode="wrap")
    del rows, block
    # Row sums on genome-major chunks of about one block: no whole transposed copy.
    fitness, chunk = np.empty(contrib.shape[1]), max(1, BLOCK_ENTRIES // landscape.n)
    for s in range(0, len(fitness), chunk):
        np.ascontiguousarray(contrib[:, s:s + chunk].T).sum(axis=1, out=fitness[s:s + chunk])
    return fitness / landscape.n


def _encode_bits(bits: np.ndarray, encoding: Encoding, rng: np.random.Generator) -> np.ndarray:
    """Encode a (batch, n) bit matrix into feature values in [-1, 1].

    Draw order is fixed: one uniform per gene, then (CENTER_BAND only) one
    coin per gene, so a given rng state always yields the same features.
    """
    u = rng.random(bits.shape)
    if encoding is Encoding.SIGN_SPLIT:
        # one -> [0, 1), zero -> [-1, 0); in place, as u - 1.0 is exact
        u -= bits == 0
        return u
    # CENTER_BAND: one -> [-0.5, 0.5); zero -> [-1, -0.5) or (0.5, 1.0]
    coin = rng.random(bits.shape) < 0.5
    outer = np.where(coin, 0.5 * u - 1.0, 1.0 - 0.5 * u)
    return np.where(bits == 1, u - 0.5, outer)


def generate_datasets(
    landscape: NKLandscape, encoding: Encoding, *draws: tuple[int, np.random.Generator]
) -> list[Dataset]:
    """One dataset per (size, rng): ``size`` uniform genomes, then their
    encoded features, drawn from that rng in turn. The targets of all the
    datasets come from one pass over the landscape's table. Their arrays
    are read-only: a helper thread may read the test set while a run steps."""
    sizes = [size for size, _ in draws]
    if not sizes or any(size < 1 for size in sizes):
        raise ValueError(f"dataset sizes must be >= 1, got {sizes}")
    genes, features = np.empty((landscape.n, sum(sizes)), np.uint8), []  # as _table_rows reads
    for (size, rng), end in zip(draws, np.cumsum(sizes)):
        bits = rng.integers(0, 2, size=(size, landscape.n), dtype=np.uint8)
        features.append(_encode_bits(bits, encoding, rng))
        genes[:, end - size:end] = bits.T
    del bits
    targets = np.split(evaluate_genomes(landscape, genes.T), np.cumsum(sizes)[:-1])
    for array in (*features, *targets):
        array.setflags(write=False)
    return [Dataset(f, t, encoding) for f, t in zip(features, targets)]


def generate_dataset(
    landscape: NKLandscape, size: int, encoding: Encoding, rng: np.random.Generator
) -> Dataset:
    """Draw ``size`` uniform genomes, encode them, pair with their fitness."""
    return generate_datasets(landscape, encoding, (size, rng))[0]
