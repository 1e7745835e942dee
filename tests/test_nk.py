"""Landscape construction, exhaustive fitness properties, and encodings."""

import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import dendrevo
from dendrevo import nk
from dendrevo.nk import (
    Dataset,
    Encoding,
    build_landscape,
    evaluate_genomes,
    generate_dataset,
    generate_datasets,
)


def table_index(land, bits: np.ndarray, gene: int) -> int:
    """Row into ``tables[gene]``: own bit in the lowest position,
    neighbor bits above it in stored neighbor-list order."""
    idx = int(bits[gene])
    for m, j in enumerate(land.neighbors[gene]):
        idx |= int(bits[j]) << (m + 1)
    return idx


def bulk_landscape(n: int, k: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Neighbors and table as a bulk build draws them: every neighbor
    list, then the whole table in one call."""
    rng = np.random.default_rng(seed)
    neighbors = np.empty((n, k), dtype=np.int64)
    genes = np.arange(n)
    for i in range(n):
        neighbors[i] = rng.choice(np.delete(genes, i), size=k, replace=False)
    return neighbors, rng.random((n, 2 ** (k + 1)))


def dense_fitness(neighbors: np.ndarray, tables: np.ndarray, bits: np.ndarray) -> np.ndarray:
    """Fitness by one gather from the whole table, genome-major."""
    n, k = neighbors.shape
    rows = bits.astype(np.int64, copy=True)
    for m in range(k):
        rows += bits[:, neighbors[:, m]].astype(np.int64) << (m + 1)
    return tables[np.arange(n)[None, :], rows].sum(axis=1) / n


def dataset_genomes(size: int, n: int, seed: int) -> np.ndarray:
    """The genomes a dataset drawn from ``default_rng(seed)`` encodes: its
    generator's first draw."""
    return np.random.default_rng(seed).integers(0, 2, size=(size, n), dtype=np.uint8)


def test_build_landscape_shapes_and_ranges():
    land = build_landscape(12, 3, 5)
    assert land.neighbors.shape == (12, 3)
    assert land.tables.shape == (12, 2**4)
    assert np.all(land.tables >= 0.0) and np.all(land.tables < 1.0)


def test_neighbors_exclude_self_and_are_distinct():
    land = build_landscape(30, 7, 99)
    for i in range(land.n):
        row = land.neighbors[i]
        assert i not in row
        assert len(set(row.tolist())) == land.k
        assert np.all((row >= 0) & (row < land.n))


def test_build_landscape_is_reproducible():
    a = build_landscape(10, 2, 1234)
    b = build_landscape(10, 2, 1234)
    assert np.array_equal(a.neighbors, b.neighbors)
    assert np.array_equal(a.tables, b.tables)
    c = build_landscape(10, 2, 1235)
    assert not np.array_equal(a.tables, c.tables)


def test_build_landscape_rejects_bad_parameters():
    with pytest.raises(ValueError):
        build_landscape(0, 0, 1)
    with pytest.raises(ValueError):
        build_landscape(5, 5, 1)  # k may not reach n
    with pytest.raises(ValueError):
        build_landscape(5, -1, 1)


def test_table_index_packs_own_bit_lowest():
    """The oracle's packing, written out by hand, is the one evaluation uses."""
    land = build_landscape(4, 2, 7)
    bits = np.array([1, 0, 1, 1], dtype=np.uint8)
    rows = nk._table_rows(land, bits[None, :])
    for gene in range(4):
        expected = int(bits[gene])
        for m, neighbor in enumerate(land.neighbors[gene]):
            expected |= int(bits[neighbor]) << (m + 1)
        assert table_index(land, bits, gene) == expected
        assert rows[gene, 0] == expected


def int64_table_rows(land, bits: np.ndarray) -> np.ndarray:
    """Table rows as evaluation packed them before: int64 words, gene-major."""
    genes = np.ascontiguousarray(bits.T, dtype=np.uint8)
    rows = genes.astype(np.int64)
    for m in range(land.k):
        rows += genes[land.neighbors[:, m]] << np.int64(m + 1)
    return rows


@pytest.mark.parametrize("k", [0, 1, 15, 30])
def test_table_rows_in_narrow_words_equal_the_int64_rows(k):
    land = build_landscape(40, k, 17 + k)  # the table is never drawn here
    bits = np.random.default_rng(k).integers(0, 2, size=(50, 40), dtype=np.uint8)
    rows = nk._table_rows(land, bits)
    assert np.array_equal(rows, int64_table_rows(land, bits))
    assert rows.dtype.kind == "u" and rows.dtype.itemsize * 8 >= k + 1


def delete_drawn_neighbors(n: int, k: int, seed: int) -> tuple[np.ndarray, dict]:
    """Neighbor lists drawn from each gene's ``np.delete``d list of the
    others, and the generator state after them."""
    rng = np.random.default_rng(seed)
    genes = np.arange(n)
    neighbors = np.array(
        [rng.choice(np.delete(genes, i), size=k, replace=False) for i in range(n)],
        dtype=np.int64,
    ).reshape(n, k)
    return neighbors, rng.bit_generator.state


@pytest.mark.parametrize("n,k", [(1, 0), (10, 0), (10, 3), (40, 39), (200, 15), (60, 45)])
def test_neighbor_draws_equal_the_delete_based_draws(n, k):
    land = build_landscape(n, k, seed=n * k + 3)
    neighbors, state = delete_drawn_neighbors(n, k, seed=n * k + 3)
    assert np.array_equal(land.neighbors, neighbors)
    assert land.table_state == state


def test_evaluate_genome_matches_scalar_table_walk():
    """Vectorized fitness agrees with a per-gene lookup loop."""
    land = build_landscape(9, 3, 21)
    tables = land.tables
    rng = np.random.default_rng(0)
    for _ in range(25):
        bits = rng.integers(0, 2, size=9, dtype=np.uint8)
        looked_up = [tables[g][table_index(land, bits, g)] for g in range(land.n)]
        expected = sum(looked_up) / land.n
        got = evaluate_genomes(land, bits[None, :])[0]
        assert got == pytest.approx(expected, rel=1e-12, abs=1e-15)
        assert 0.0 <= got <= 1.0


def test_evaluate_genomes_matches_single_evaluation(monkeypatch):
    """A batch row equals that row evaluated alone, under the module's block
    size and under blocks of three genes, the last one partial."""
    land = build_landscape(8, 2, 3)
    rng = np.random.default_rng(1)
    bits = rng.integers(0, 2, size=(40, 8), dtype=np.uint8)
    for block_entries in (nk.BLOCK_ENTRIES, 3 * 2**3):
        monkeypatch.setattr(nk, "BLOCK_ENTRIES", block_entries)
        batch = evaluate_genomes(land, bits)
        singles = np.array([evaluate_genomes(land, row[None, :])[0] for row in bits])
        assert batch.tobytes() == singles.tobytes()


def test_evaluate_genomes_validates_shape():
    land = build_landscape(6, 1, 0)
    with pytest.raises(ValueError):
        evaluate_genomes(land, np.zeros((3, 5), dtype=np.uint8))
    with pytest.raises(ValueError):
        evaluate_genomes(land, np.zeros(6, dtype=np.uint8))
    with pytest.raises(ValueError):
        evaluate_genomes(land, np.full((2, 6), 2))
    # A cast to uint8 would read each of these as an all-zeros genome.
    land = build_landscape(8, 2, 1)
    for bad in (np.full((1, 8), 0.5), np.full((1, 8), 0.9), np.full((1, 8), 256, np.int64)):
        with pytest.raises(ValueError, match="only 0 and 1"):
            evaluate_genomes(land, bad)


def test_exhaustive_fitness_stays_in_unit_interval():
    rng = np.random.default_rng(77)
    for _ in range(10):
        n = int(rng.integers(3, 11))
        k = int(rng.integers(0, min(5, n)))
        land = build_landscape(n, k, int(rng.integers(1 << 30)))
        genomes = (
            (np.arange(2**n)[:, None] >> np.arange(n)[None, :]) & 1
        ).astype(np.uint8)
        fits = evaluate_genomes(land, genomes)
        assert np.all(fits >= 0.0) and np.all(fits <= 1.0)


def test_k0_flip_effect_is_background_independent():
    """With no epistasis, flipping gene i shifts fitness by a constant.

    Checked in exact rational arithmetic over the stored table values, so
    equality is literal rather than within a float tolerance.
    """
    land = build_landscape(10, 0, 13)
    tables = land.tables
    rng = np.random.default_rng(4)

    def exact_fitness(bits):
        total = sum(
            Fraction(tables[g][table_index(land, bits, g)]) for g in range(land.n)
        )
        return total / land.n

    for gene in range(land.n):
        effects = set()
        for _ in range(20):
            background = rng.integers(0, 2, size=land.n, dtype=np.uint8)
            flipped = background.copy()
            flipped[gene] ^= 1
            effects.add(exact_fitness(flipped) - exact_fitness(background))
        # one positive and one negative direction of the same magnitude
        assert len({abs(e) for e in effects}) == 1


def test_k0_float_engine_tracks_exact_arithmetic():
    land = build_landscape(10, 0, 13)
    tables = land.tables
    rng = np.random.default_rng(5)
    bits = rng.integers(0, 2, size=land.n, dtype=np.uint8)
    exact = sum(
        Fraction(tables[g][table_index(land, bits, g)]) for g in range(land.n)
    ) / land.n
    got = evaluate_genomes(land, bits[None, :])[0]
    assert got == pytest.approx(float(exact), abs=1e-12)


def test_sign_split_encoding_keeps_bit_in_sign():
    land = build_landscape(125, 1, 11)
    data = generate_dataset(land, 4, Encoding.SIGN_SPLIT, np.random.default_rng(2))
    bits = dataset_genomes(4, 125, 2)
    ones = data.features[bits == 1]
    zeros = data.features[bits == 0]
    assert np.all(ones >= 0.0) and np.all(ones < 1.0)
    assert np.all(zeros >= -1.0) and np.all(zeros < 0.0)


def test_center_band_encoding_separates_by_magnitude():
    land = build_landscape(100, 1, 12)
    data = generate_dataset(land, 20, Encoding.CENTER_BAND, np.random.default_rng(3))
    bits = dataset_genomes(20, 100, 3)
    ones = data.features[bits == 1]
    zeros = data.features[bits == 0]
    assert np.all(np.abs(ones) <= 0.5)
    assert np.all(np.abs(zeros) >= 0.5) and np.all(np.abs(zeros) <= 1.0)
    # zero genes must use both outer bands, not just one side
    assert np.any(zeros > 0) and np.any(zeros < 0)


def select_encode_bits(bits, encoding, rng):
    """Bit encoding by selects on the bits, as it was written before."""
    u = rng.random(bits.shape)
    if encoding is Encoding.SIGN_SPLIT:
        return np.where(bits == 1, u, u - 1.0)
    coin = rng.random(bits.shape) < 0.5
    outer = np.where(coin, 0.5 * u - 1.0, 1.0 - 0.5 * u)
    return np.where(bits == 1, u - 0.5, outer)


@pytest.mark.parametrize("encoding", list(Encoding))
def test_encoding_is_bitwise_the_select_oracle(encoding):
    for seed in range(20):
        bits = np.random.default_rng(100 + seed).integers(0, 2, size=(40, 60), dtype=np.uint8)
        got, want = np.random.default_rng(seed), np.random.default_rng(seed)
        features = nk._encode_bits(bits, encoding, got)
        assert features.tobytes() == select_encode_bits(bits, encoding, want).tobytes()
        assert got.random() == want.random()


def test_encoding_is_reproducible_per_rng_seed():
    land = build_landscape(64, 2, 1)
    for enc in Encoding:
        a = generate_dataset(land, 3, enc, np.random.default_rng(9))
        b = generate_dataset(land, 3, enc, np.random.default_rng(9))
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.targets, b.targets)


def test_generate_dataset_targets_match_recovered_bits():
    """Sign-split features carry the genome in their signs, so the targets
    must equal a fresh fitness evaluation of the recovered bits."""
    land = build_landscape(20, 4, 31)
    data = generate_dataset(land, 50, Encoding.SIGN_SPLIT, np.random.default_rng(8))
    bits = (data.features >= 0.0).astype(np.uint8)
    assert np.array_equal(evaluate_genomes(land, bits), data.targets)


def test_generate_dataset_shapes_and_validation():
    land = build_landscape(7, 2, 2)
    data = generate_dataset(land, 12, Encoding.CENTER_BAND, np.random.default_rng(0))
    assert len(data) == 12
    assert data.n == 7
    assert data.features.shape == (12, 7)
    assert data.targets.shape == (12,)
    assert data.encoding is Encoding.CENTER_BAND
    with pytest.raises(ValueError):
        generate_dataset(land, 0, Encoding.SIGN_SPLIT, np.random.default_rng(0))
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        generate_datasets(land, Encoding.SIGN_SPLIT, (5, rng), (0, rng))


def test_dataset_rejects_mismatched_arrays():
    with pytest.raises(ValueError):
        Dataset(
            features=np.zeros((3, 2)),
            targets=np.zeros(4),
            encoding=Encoding.SIGN_SPLIT,
        )


# n is not a multiple of the genes in a module-sized block (65536, 16384,
# 128 and 2 genes at these k), so the last block is partial wherever
# there are several.
STREAM_CASES = [(0, 11), (2, 11), (9, 131), (15, 17)]


@pytest.mark.parametrize("k,n", STREAM_CASES)
@pytest.mark.parametrize("encoding", list(Encoding))
def test_streamed_targets_are_byte_equal_to_the_bulk_table(k, n, encoding, monkeypatch):
    neighbors, tables = bulk_landscape(n, k, seed=n + k)
    bits = dataset_genomes(30, n, seed=4)
    expected = dense_fitness(neighbors, tables, bits).tobytes()
    land = build_landscape(n, k, seed=n + k)
    assert np.array_equal(land.neighbors, neighbors)
    assert land.tables.tobytes() == tables.tobytes()
    held = generate_dataset(land.dense(), 30, encoding, np.random.default_rng(4))
    assert held.targets.tobytes() == expected
    # The module's block size, then three genes a block with the last one
    # partial, so k=0 and k=2 cross block boundaries too.
    for block_entries in (nk.BLOCK_ENTRIES, 3 * 2 ** (k + 1)):
        monkeypatch.setattr(nk, "BLOCK_ENTRIES", block_entries)
        data = generate_dataset(land, 30, encoding, np.random.default_rng(4))
        assert data.targets.tobytes() == expected


@pytest.mark.parametrize("encoding", list(Encoding))
def test_generate_datasets_equals_successive_generate_dataset_calls(encoding):
    land = build_landscape(23, 9, 8)
    sizes = (40, 7)

    def fingerprint(datasets, rngs):
        return (
            [(d.features.tobytes(), d.targets.tobytes()) for d in datasets],
            [rng.random() for rng in rngs],
        )

    # Distinct generators, one per dataset.
    rngs = [np.random.default_rng(seed) for seed in (1, 2)]
    joint = generate_datasets(land, encoding, *zip(sizes, rngs))
    expected_rngs = [np.random.default_rng(seed) for seed in (1, 2)]
    apart = [generate_dataset(land, s, encoding, r) for s, r in zip(sizes, expected_rngs)]
    assert fingerprint(joint, rngs) == fingerprint(apart, expected_rngs)
    # One generator shared by both datasets.
    shared = np.random.default_rng(3)
    joint = generate_datasets(land, encoding, *((s, shared) for s in sizes))
    expected_shared = np.random.default_rng(3)
    apart = [generate_dataset(land, s, encoding, expected_shared) for s in sizes]
    assert fingerprint(joint, [shared]) == fingerprint(apart, [expected_shared])


def test_generated_datasets_refuse_in_place_writes():
    """A run's helper thread reads the test set while the run steps, so
    the arrays of every generated dataset are read-only."""
    land = build_landscape(12, 3, 5)
    train, test = generate_datasets(
        land, Encoding.SIGN_SPLIT, (20, np.random.default_rng(1)), (10, np.random.default_rng(2))
    )
    for data in (train, test):
        for array in (data.features, data.targets):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.5


# n=300: the table is one block at k=3, and 16 genes a block, the last
# block partial, at k=12.
@pytest.mark.parametrize("k", [3, 12])
def test_chunked_row_sums_equal_the_whole_transpose(k):
    """Fitness is summed over samples in chunks of c = BLOCK_ENTRIES // n
    rows; every batch size around the chunk boundaries gives the bytes of
    one sum over the whole genome-major contribution matrix, streamed or held."""
    n = 300
    land = build_landscape(n, k, seed=k)
    held = land.dense()
    c = nk.BLOCK_ENTRIES // n
    bits = dataset_genomes(2 * c + 3, n, seed=k + 1)
    for batch in (1, c - 1, c, c + 1, 2 * c + 3):
        expected = dense_fitness(land.neighbors, held.tables, bits[:batch]).tobytes()
        assert evaluate_genomes(land, bits[:batch]).tobytes() == expected
        assert evaluate_genomes(held, bits[:batch]).tobytes() == expected


def test_generate_datasets_holds_no_copy_of_its_matrices():
    """Set-up peaks below its outputs, one float64 contribution matrix and
    its row indices, with 25% on top, plus the one table block that is
    drawn at a time: no transposed copy of the contributions is held."""
    n, k, sizes = 300, 11, (600, 300)
    land = build_landscape(n, k, seed=9)
    batch = sum(sizes)
    tracemalloc.start()
    try:
        datasets = generate_datasets(
            land, Encoding.SIGN_SPLIT, *((s, np.random.default_rng(s)) for s in sizes)
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    outputs = sum(d.features.nbytes + d.targets.nbytes for d in datasets)
    contrib = batch * n * 8
    row_indices = batch * n * np.min_scalar_type(2 ** (k + 1) - 1).itemsize
    block = nk.BLOCK_ENTRIES * 8
    budget = 1.25 * (outputs + contrib + row_indices) + block
    assert peak < budget, f"peak {peak / 2**20:.2f} MiB over {budget / 2**20:.2f} MiB"


MEMORY_CHILD = """
import resource
import numpy as np
from dendrevo.nk import Encoding, build_landscape, generate_dataset
land = build_landscape(1000, 15, 42)
data = [
    generate_dataset(land, 1000, Encoding.SIGN_SPLIT, np.random.default_rng(seed))
    for seed in (1, 2)
]
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def test_full_scale_setup_never_holds_the_table():
    """A full-scale cell's landscape and datasets fit in 256 MiB; the
    n=1000, k=15 table alone is 500 MiB. Measured in a child process, so
    no earlier test's allocations count."""
    # Lead the child's PYTHONPATH with the absolute directory holding the
    # imported package, so it runs the same source tree as this process.
    env = os.environ.copy()
    root = str(Path(dendrevo.__file__).resolve().parent.parent)
    rest = env.get("PYTHONPATH")
    env["PYTHONPATH"] = root + (os.pathsep + rest if rest else "")
    result = subprocess.run(
        [sys.executable, "-c", MEMORY_CHILD], env=env, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    peak_mib = int(result.stdout.split()[-1]) / 1024  # ru_maxrss is in KiB on Linux
    assert peak_mib < 256, f"full-scale set-up peaked at {peak_mib:.0f} MiB"
