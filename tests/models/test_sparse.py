"""Differential tests of the sparse propagation operator.

``SparseAdjacency`` replaced the dense ``(n, n)`` matrices GCN-Align and
Dual-AMN trained on.  Its products are checked against a dense matrix
built entry by entry in a loop, the two models' operators against the
dense formulas they replaced, and a fit at ZH-EN scale 5 against a
memory budget smaller than one dense matrix.
"""

import tracemalloc

import numpy as np
import pytest

from repro.datasets import generate_dataset
from repro.datasets.registry import benchmark_config
from repro.kg import AlignmentSet, EADataset, KnowledgeGraph, Triple
from repro.models import DualAMN, EntityIndex, GCNAlign, TrainingConfig, build_adjacency
from repro.models.sparse import COLUMN_BLOCK, SparseAdjacency

#: 150 columns span three column blocks, the last one partial.
WIDTHS = (1, 32, 150)
#: Products sum the same terms as the dense reference in another order.
TOLERANCE = 1e-12


def random_coo(rng, n, count):
    """Random entries with duplicate cells and diagonal entries; the last two
    rows and columns stay empty."""
    rows = rng.integers(0, n - 2, count)
    cols = rng.integers(0, n - 2, count)
    rows = np.concatenate([rows, rows[:7], np.arange(4)])
    cols = np.concatenate([cols, cols[:7], np.arange(4)])
    return rows, cols, rng.normal(size=len(rows))


def dense_loop(rows, cols, values, n):
    dense = np.zeros((n, n))
    for row, col, value in zip(rows, cols, values):
        dense[row, col] += value
    return dense


class TestSparseAdjacency:
    @pytest.mark.parametrize("width", WIDTHS)
    def test_products_match_dense_loop_reference(self, width):
        rng = np.random.default_rng(width)
        n = 40
        rows, cols, values = random_coo(rng, n, 150)
        adjacency = SparseAdjacency.from_coo(rows, cols, values, n)
        dense = dense_loop(rows, cols, values, n)
        operand = rng.normal(size=(n, width))
        np.testing.assert_allclose(adjacency @ operand, dense @ operand, rtol=0, atol=TOLERANCE)
        np.testing.assert_allclose(adjacency.T @ operand, dense.T @ operand, rtol=0, atol=TOLERANCE)
        assert adjacency.nnz == np.count_nonzero(dense)

    def test_duplicates_sum_in_input_order_like_add_at(self):
        rows, cols = np.array([0, 2, 0, 0]), np.array([1, 2, 1, 1])
        values = np.array([1e16, 3.0, 1.0, -1e16])
        adjacency = SparseAdjacency.from_coo(rows, cols, values, 3)
        expected = np.zeros((3, 3))
        np.add.at(expected, (rows, cols), values)
        assert np.array_equal(adjacency @ np.eye(3), expected)
        assert adjacency.nnz == 2

    def test_empty_rows_and_an_empty_matrix(self):
        adjacency = SparseAdjacency.from_coo([1], [0], [2.0], 4)
        operand = np.arange(8.0).reshape(4, 2)
        assert np.array_equal(adjacency @ operand, [[0, 0], [0, 2], [0, 0], [0, 0]])
        empty = SparseAdjacency.from_coo(np.zeros(0), np.zeros(0), np.zeros(0), 4)
        assert empty.nnz == 0
        assert np.array_equal(empty @ operand, np.zeros((4, 2)))
        assert np.array_equal(empty.T @ operand, np.zeros((4, 2)))

    def test_identity_returns_the_operand(self):
        operand = np.random.default_rng(0).normal(size=(6, COLUMN_BLOCK + 3))
        assert np.array_equal(SparseAdjacency.identity(6) @ operand, operand)

    def test_transpose_is_cached_and_involutive(self):
        rows, cols, values = random_coo(np.random.default_rng(1), 10, 20)
        adjacency = SparseAdjacency.from_coo(rows, cols, values, 10)
        assert adjacency.T is adjacency.T
        assert np.array_equal(adjacency.T.T @ np.eye(10), adjacency @ np.eye(10))

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            SparseAdjacency.from_coo([0, 3], [1, 1], [1.0, 1.0], 3)
        with pytest.raises(ValueError):
            SparseAdjacency.identity(3) @ np.ones((4, 2))
        with pytest.raises(ValueError):
            SparseAdjacency.identity(3) @ np.ones(3)


# ----------------------------------------------------------------------
# The models' operators against the dense formulas they replaced
# ----------------------------------------------------------------------
def random_dataset(rng, shape):
    """Two random KGs of 30 entities each; the last two of each are isolated.

    Each KG also holds a self-loop triple, two relations between one pair
    and the reverse edge of that pair.  *shape* ``"empty_kg2"`` leaves
    ``kg2`` without triples, ``"no_triples"`` both KGs.
    """
    names1 = [f"a{i}" for i in range(30)]
    names2 = [f"b{i}" for i in range(30)]

    def triples(names):
        heads = rng.integers(0, len(names) - 2, 70)
        tails = rng.integers(0, len(names) - 2, 70)
        relations = rng.integers(0, 4, 70)
        drawn = [Triple(names[h], f"r{r}", names[t]) for h, r, t in zip(heads, relations, tails)]
        return drawn + [
            Triple(names[0], "r0", names[0]),
            Triple(names[1], "r1", names[2]),
            Triple(names[1], "r2", names[2]),
            Triple(names[2], "r0", names[1]),
        ]

    kg1 = KnowledgeGraph([] if shape == "no_triples" else triples(names1), entities=names1)
    kg2 = KnowledgeGraph(triples(names2) if shape == "both" else [], entities=names2)
    seeds = AlignmentSet((names1[i], names2[i]) for i in range(0, 30, 3))
    tests = AlignmentSet((names1[i], names2[i]) for i in range(1, 30, 3))
    return EADataset(kg1, kg2, seeds, tests)


def dense_gcn_adjacency(dataset, index):
    """``D^{-1/2} (A + I) D^{-1/2}`` built cell by cell."""
    n = index.num_entities()
    reference = np.zeros((n, n))
    for kg in (dataset.kg1, dataset.kg2):
        for triple in kg.triples:
            i, j = index.entity_to_id[triple.head], index.entity_to_id[triple.tail]
            reference[i, j] = reference[j, i] = 1.0
    for source, target in dataset.train_alignment:
        i, j = index.entity_to_id[source], index.entity_to_id[target]
        reference[i, j] = reference[j, i] = 1.0
    reference += np.eye(n)
    inv_sqrt = 1.0 / np.sqrt(np.maximum(reference.sum(axis=1), 1e-12))
    return reference * inv_sqrt[:, None] * inv_sqrt[None, :]


def dense_attention_adjacency(model, triples, index, entity_matrix, sources, targets):
    """Dual-AMN's attention operator as the dense formula computed it."""
    n = index.num_entities()
    adjacency = np.zeros((n, n))
    if triples.shape[0]:
        relation_matrix = model._relation_embeddings(triples, index, entity_matrix)
        heads, relations, tails = triples[:, 0], triples[:, 1], triples[:, 2]
        scores = np.einsum("ij,ij->i", entity_matrix[heads], relation_matrix[relations])
        scale = np.std(scores) + 1e-8
        weights = np.exp(np.clip(scores / scale, -10.0, 10.0))
        np.add.at(adjacency, (heads, tails), weights)
        np.add.at(adjacency, (tails, heads), weights)
    if sources.size:
        mean_weight = adjacency[adjacency > 0].mean() if np.any(adjacency > 0) else 1.0
        adjacency[sources, targets] += mean_weight
        adjacency[targets, sources] += mean_weight
    adjacency += np.eye(n)
    return adjacency / np.maximum(adjacency.sum(axis=1, keepdims=True), 1e-12)


SHAPES = ("both", "empty_kg2", "no_triples")


@pytest.mark.parametrize("shape", SHAPES)
def test_gcn_align_adjacency_equals_dense_formula(shape):
    dataset = random_dataset(np.random.default_rng(11), shape)
    index = EntityIndex(dataset)
    n = index.num_entities()
    adjacency = build_adjacency(dataset.kg1, dataset.kg2, index, dataset.train_alignment)
    assert np.array_equal(adjacency @ np.eye(n), dense_gcn_adjacency(dataset, index))


@pytest.mark.parametrize("shape", SHAPES)
def test_dual_amn_attention_equals_dense_formula(shape):
    rng = np.random.default_rng(12)
    dataset = random_dataset(rng, shape)
    index = EntityIndex(dataset)
    n = index.num_entities()
    model = DualAMN()
    triples = index.triples_to_ids(model._all_triples(dataset))
    entity_matrix = rng.normal(size=(n, 8))
    seeds = sorted(dataset.train_alignment)
    sources = index.entity_ids([source for source, _ in seeds])
    targets = index.entity_ids([target for _, target in seeds])
    for seed_sources, seed_targets in ((sources, targets), (sources[:0], targets[:0])):
        attention = model._attention_adjacency(triples, index, entity_matrix, seed_sources, seed_targets)
        expected = dense_attention_adjacency(
            model, triples, index, entity_matrix, seed_sources, seed_targets
        )
        np.testing.assert_allclose(attention @ np.eye(n), expected, rtol=0, atol=TOLERANCE)
        np.testing.assert_allclose(
            attention.T @ np.eye(n), expected.T, rtol=0, atol=TOLERANCE
        )


# ----------------------------------------------------------------------
# Memory: no N x N matrix while training
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def zh_en_scale5():
    return generate_dataset(benchmark_config("ZH-EN", scale=5))


def refreshing_dual_amn():
    """Dual-AMN rebuilding its attention operator every epoch: each
    replaced operator, with its transpose and caches, must be freed."""
    model = DualAMN(TrainingConfig(dim=32, epochs=8, seed=1))
    model.refresh_interval = 1
    return model


@pytest.mark.parametrize(
    ("make", "budget"),
    [
        (lambda: DualAMN(TrainingConfig(dim=32, epochs=2, seed=1)), 0.5),
        (refreshing_dual_amn, 0.5),
        # The seed channel holds several n x |seeds| arrays at once, and a
        # product with its |seeds|-wide operand gathers only one column
        # block at a time.
        (lambda: GCNAlign(TrainingConfig(dim=32, epochs=2, seed=1)), 1.5),
    ],
    ids=["DualAMN", "DualAMN-refreshing", "GCNAlign"],
)
def test_fit_peak_memory_stays_below_dense_matrices(zh_en_scale5, make, budget):
    n = EntityIndex(zh_en_scale5).num_entities()
    dense_bytes = n * n * np.dtype(np.float64).itemsize
    model = make()
    tracemalloc.start()
    try:
        model.fit(zh_en_scale5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < budget * dense_bytes, (
        f"{model.name} fit peaked at {peak / 1e6:.0f} MB, "
        f"{peak / dense_bytes:.2f} dense {n}x{n} matrices"
    )
