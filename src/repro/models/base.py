"""Common interface and shared machinery of the embedding-based EA models.

The ExEA framework (Section II-C) takes "a trained EA model f and its
predicted EA results" as input.  Every model in :mod:`repro.models`
implements the :class:`EAModel` interface, which exposes exactly what the
explanation and repair modules need:

* entity embeddings (for neighbour / path matching and similarity),
* relation embeddings — learned ones when the architecture has them
  (MTransE, AlignE, Dual-AMN) or translation-derived ones via Eq. (1)
  when it does not (GCN-Align),
* the pairwise similarity matrix between test entities, and
* the greedy-nearest-neighbour alignment prediction ``A_res``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..embedding import (
    SIMILARITY_BLOCK,
    RankingMetrics,
    csls_matrix,
    greedy_alignment,
    ranking_metrics,
)
from ..kg import AlignmentSet, EADataset, KnowledgeGraph, Triple
from .sparse import SparseAdjacency


@dataclass
class TrainingConfig:
    """Hyper-parameters shared by all models.

    ``epochs`` and ``learning_rate`` default to ``None``, meaning "use the
    model's own recommended value" (translation-based models prefer many
    Adagrad epochs with a large step size, the GCN-based models far fewer
    Adam epochs).  The defaults are sized for the synthetic CPU-scale
    benchmarks; the paper's GPU-scale settings simply correspond to larger
    ``dim`` / ``epochs`` values.
    """

    dim: int = 48
    epochs: int | None = None
    learning_rate: float | None = None
    batch_size: int = 64
    margin: float = 1.0
    negative_samples: int = 2
    alignment_weight: float = 5.0
    seed: int = 0
    use_csls: bool = False
    extra: dict = field(default_factory=dict)


class EntityIndex:
    """Bidirectional entity/relation <-> integer id mapping over both KGs."""

    def __init__(self, dataset: EADataset) -> None:
        entities1 = sorted(dataset.kg1.entities)
        entities2 = sorted(dataset.kg2.entities)
        seen = set(entities1)
        self.entities: list[str] = entities1 + [e for e in entities2 if e not in seen]
        self.entity_to_id: dict[str, int] = {e: i for i, e in enumerate(self.entities)}
        relations = sorted(dataset.kg1.relations | dataset.kg2.relations)
        self.relations: list[str] = relations
        self.relation_to_id: dict[str, int] = {r: i for i, r in enumerate(relations)}

    def num_entities(self) -> int:
        return len(self.entities)

    def num_relations(self) -> int:
        return len(self.relations)

    def entity_ids(self, entities: Sequence[str]) -> np.ndarray:
        return np.array([self.entity_to_id[e] for e in entities], dtype=int)

    def triples_to_ids(self, triples: Sequence[Triple]) -> np.ndarray:
        """Return an ``(n, 3)`` array of (head_id, relation_id, tail_id)."""
        if not triples:
            return np.zeros((0, 3), dtype=int)
        return np.array(
            [
                (
                    self.entity_to_id[t.head],
                    self.relation_to_id[t.relation],
                    self.entity_to_id[t.tail],
                )
                for t in triples
            ],
            dtype=int,
        )


class EAModel:
    """Abstract embedding-based entity alignment model."""

    #: Human-readable model name used in result tables.
    name: str = "EAModel"
    #: Whether the architecture learns relation embeddings itself.
    learns_relation_embeddings: bool = True
    #: Per-model recommended training length and step size (used when the
    #: config leaves ``epochs`` / ``learning_rate`` unset).
    default_epochs: int = 200
    default_learning_rate: float = 0.05

    def __init__(self, config: TrainingConfig | None = None) -> None:
        self.config = config or TrainingConfig()
        self.index: EntityIndex | None = None
        self.dataset: EADataset | None = None
        self.entity_matrix: np.ndarray | None = None
        self.relation_matrix: np.ndarray | None = None
        self._derived_relation_matrix: np.ndarray | None = None
        self._entity_norms: np.ndarray | None = None
        self._unit_entity_matrix: np.ndarray | None = None
        self._embedding_version = 0

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    def fit(self, dataset: EADataset) -> "EAModel":
        """Train the model on *dataset* and return ``self``."""
        self.dataset = dataset
        self.index = EntityIndex(dataset)
        rng = np.random.default_rng(self.config.seed)
        self.entity_matrix, self.relation_matrix = self._train(dataset, self.index, rng)
        self._derived_relation_matrix = None
        self._entity_norms = None
        self._unit_entity_matrix = None
        self._embedding_version += 1
        return self

    def _train(
        self, dataset: EADataset, index: EntityIndex, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """Model-specific training; returns (entity matrix, relation matrix or None)."""
        raise NotImplementedError

    @property
    def epochs(self) -> int:
        """Number of training epochs (config value or the model default)."""
        return self.config.epochs if self.config.epochs is not None else self.default_epochs

    @property
    def learning_rate(self) -> float:
        """Optimiser step size (config value or the model default)."""
        if self.config.learning_rate is not None:
            return self.config.learning_rate
        return self.default_learning_rate

    def _require_fitted(self) -> None:
        if self.entity_matrix is None or self.index is None or self.dataset is None:
            raise RuntimeError(f"{self.name} has not been fitted yet; call fit(dataset) first")

    @property
    def is_fitted(self) -> bool:
        return self.entity_matrix is not None

    @property
    def embedding_version(self) -> int:
        """Counter bumped on every (re)fit; lets derived caches detect stale matrices."""
        return self._embedding_version

    @property
    def embedding_dim(self) -> int:
        """Dimensionality of the trained entity embeddings.

        May differ from ``config.dim`` for models whose output concatenates
        several channels (e.g. Dual-AMN's relation-signature channel).
        """
        self._require_fitted()
        assert self.entity_matrix is not None
        return int(self.entity_matrix.shape[1])

    # ------------------------------------------------------------------
    # Embedding access
    # ------------------------------------------------------------------
    def entity_embedding(self, entity: str) -> np.ndarray:
        """Return the embedding vector of *entity*."""
        self._require_fitted()
        assert self.index is not None and self.entity_matrix is not None
        return self.entity_matrix[self.index.entity_to_id[entity]]

    def entity_embeddings(self, entities: Sequence[str]) -> np.ndarray:
        """Return the stacked embeddings of *entities* (shape ``(n, dim)``)."""
        self._require_fitted()
        assert self.index is not None and self.entity_matrix is not None
        return self.entity_matrix[self.index.entity_ids(entities)]

    def relation_embedding(self, relation: str) -> np.ndarray:
        """Return the embedding vector of *relation*.

        If the model does not learn relation embeddings (GCN-Align), the
        translation-derived embedding of Eq. (1) is returned instead:
        ``r = mean over (s, r, o) of (e_s - e_o)``.
        """
        self._require_fitted()
        assert self.index is not None
        relation_id = self.index.relation_to_id[relation]
        if self.learns_relation_embeddings and self.relation_matrix is not None:
            return self.relation_matrix[relation_id]
        return self._derived_relations()[relation_id]

    def _derived_relations(self) -> np.ndarray:
        """Translation-derived relation embeddings (Eq. 1), cached after first use.

        Vectorised: the per-relation sums of ``e_head - e_tail`` are
        accumulated with one ``np.add.at`` scatter per KG instead of a
        Python loop over triples.
        """
        assert self.index is not None and self.entity_matrix is not None and self.dataset is not None
        if self._derived_relation_matrix is None:
            num_relations = self.index.num_relations()
            matrix = np.zeros((num_relations, self.entity_matrix.shape[1]))
            counts = np.zeros(num_relations)
            for kg in (self.dataset.kg1, self.dataset.kg2):
                ids = self.index.triples_to_ids(sorted(kg.triples, key=lambda t: t.as_tuple()))
                if not len(ids):
                    continue
                differences = self.entity_matrix[ids[:, 0]] - self.entity_matrix[ids[:, 2]]
                np.add.at(matrix, ids[:, 1], differences)
                counts += np.bincount(ids[:, 1], minlength=num_relations)
            counts[counts == 0] = 1.0
            self._derived_relation_matrix = matrix / counts[:, None]
        return self._derived_relation_matrix

    def relation_embedding_matrix(self) -> np.ndarray:
        """The full relation-embedding matrix, indexed by relation id.

        Learned embeddings when the architecture has them, otherwise the
        translation-derived matrix of Eq. (1).  Lets batched code gather
        many relation rows at once instead of looking them up one by one.
        """
        self._require_fitted()
        if self.learns_relation_embeddings and self.relation_matrix is not None:
            return self.relation_matrix
        return self._derived_relations()

    # ------------------------------------------------------------------
    # Similarity & alignment inference
    # ------------------------------------------------------------------
    def entity_norms(self) -> np.ndarray:
        """L2 norm of every entity embedding row, computed once per fit."""
        self._require_fitted()
        assert self.entity_matrix is not None
        if self._entity_norms is None:
            self._entity_norms = np.linalg.norm(self.entity_matrix, axis=1)
        return self._entity_norms

    def unit_entity_matrix(self) -> np.ndarray:
        """Row-L2-normalised entity matrix, computed once per fit.

        Rows with (near-)zero norm are divided by ``1e-12`` exactly as
        :func:`repro.embedding.cosine_matrix` does, so gathering rows from
        this matrix and taking dot products reproduces its output.
        """
        self._require_fitted()
        assert self.entity_matrix is not None
        if self._unit_entity_matrix is None:
            norms = np.maximum(self.entity_norms(), 1e-12)
            self._unit_entity_matrix = self.entity_matrix / norms[:, None]
        return self._unit_entity_matrix

    def similarity(self, entity1: str, entity2: str) -> float:
        """Cosine similarity of two entities' embeddings.

        A row dot product over cached ids and norms — equivalent to (and
        bit-compatible with) ``cosine(entity_embedding(e1), entity_embedding(e2))``
        without re-deriving either norm.
        """
        self._require_fitted()
        assert self.index is not None and self.entity_matrix is not None
        id1 = self.index.entity_to_id[entity1]
        id2 = self.index.entity_to_id[entity2]
        norms = self.entity_norms()
        denominator = norms[id1] * norms[id2]
        if denominator < 1e-12:
            return 0.0
        return float(np.dot(self.entity_matrix[id1], self.entity_matrix[id2]) / denominator)

    def similarity_many(self, pairs: Sequence[tuple[str, str]]) -> np.ndarray:
        """Cosine similarity of many ``(entity1, entity2)`` pairs at once.

        Returns a ``(len(pairs),)`` array; entry *i* equals
        ``similarity(pairs[i][0], pairs[i][1])``.
        """
        self._require_fitted()
        assert self.index is not None and self.entity_matrix is not None
        if not pairs:
            return np.zeros(0)
        ids1 = np.fromiter(
            (self.index.entity_to_id[p[0]] for p in pairs), dtype=np.int64, count=len(pairs)
        )
        ids2 = np.fromiter(
            (self.index.entity_to_id[p[1]] for p in pairs), dtype=np.int64, count=len(pairs)
        )
        dots = np.einsum("ij,ij->i", self.entity_matrix[ids1], self.entity_matrix[ids2])
        norms = self.entity_norms()
        denominators = norms[ids1] * norms[ids2]
        return np.where(denominators < 1e-12, 0.0, dots / np.maximum(denominators, 1e-12))

    def similarity_matrix(
        self, sources: Sequence[str], targets: Sequence[str], block: int = SIMILARITY_BLOCK
    ) -> np.ndarray:
        """Pairwise similarity between *sources* (rows) and *targets* (columns).

        CSLS re-scaling is applied when the model's config requests it.

        Computed in fixed-size row blocks: the source-row gather and the
        gemm run ``block`` rows at a time into one preallocated output, and
        the CSLS pass rescales that output in place — peak memory is the
        result matrix plus one block of scratch, never two full dense
        matrices, which is what keeps the 15k-scale datasets viable.

        Beyond one block the per-call gemm shape changes, so BLAS may pick
        different kernels than a single full-matrix call would — results
        can differ from the unblocked product in the last ulp there.  Any
        given matrix is still computed deterministically, and every
        consumer in the repo (prediction, repair, the service reference
        alignment) shares this one kernel, so all within-run equivalence
        contracts (batch == sequential, service == direct) are unaffected.
        """
        assert self.index is not None
        unit = self.unit_entity_matrix()
        source_ids = self.index.entity_ids(sources)
        target_unit_t = unit[self.index.entity_ids(targets)].T
        matrix = np.empty((len(source_ids), target_unit_t.shape[1]))
        for start in range(0, len(source_ids), block):
            stop = start + block
            np.matmul(unit[source_ids[start:stop]], target_unit_t, out=matrix[start:stop])
        if self.config.use_csls:
            csls_matrix(matrix, block=block, out=matrix)
        return matrix

    def predict(self, sources: Sequence[str] | None = None, targets: Sequence[str] | None = None) -> AlignmentSet:
        """Greedy nearest-neighbour alignment ``A_res`` for the test entities.

        When *sources* / *targets* are omitted, the dataset's test entity
        sets are used (the standard protocol).
        """
        self._require_fitted()
        assert self.dataset is not None
        source_list = sorted(sources) if sources is not None else sorted(self.dataset.test_sources())
        target_list = sorted(targets) if targets is not None else sorted(self.dataset.test_targets())
        if not source_list or not target_list:
            return AlignmentSet()
        similarity = self.similarity_matrix(source_list, target_list)
        return greedy_alignment(similarity, source_list, target_list)

    def evaluate(self) -> RankingMetrics:
        """Ranking metrics of the model on the dataset's test alignment."""
        self._require_fitted()
        assert self.dataset is not None
        source_list = sorted(self.dataset.test_sources())
        target_list = sorted(self.dataset.test_targets())
        similarity = self.similarity_matrix(source_list, target_list)
        return ranking_metrics(similarity, source_list, target_list, self.dataset.test_alignment)

    def accuracy(self) -> float:
        """Greedy-alignment accuracy on the test split (the paper's repair metric)."""
        self._require_fitted()
        assert self.dataset is not None
        return self.predict().accuracy(self.dataset.test_alignment)

    # ------------------------------------------------------------------
    # Helpers shared by subclasses
    # ------------------------------------------------------------------
    @staticmethod
    def _all_triples(dataset: EADataset) -> list[Triple]:
        return sorted(dataset.kg1.triples | dataset.kg2.triples, key=lambda t: t.as_tuple())

    @staticmethod
    def _swap_aligned_triples(
        triples: list[Triple], alignment: AlignmentSet
    ) -> list[Triple]:
        """Augment triples by swapping seed-aligned entities (parameter sharing).

        For every seed pair (e1, e2) the triples of e1 are copied with e1
        replaced by e2 and vice versa.  This is the calibration mechanism of
        AlignE/BootEA and is also useful for MTransE-style joint training.
        """
        forward: dict[str, str] = {}
        backward: dict[str, str] = {}
        for source, target in alignment:
            forward[source] = target
            backward[target] = source
        swapped: list[Triple] = []
        for triple in triples:
            if triple.head in forward:
                swapped.append(Triple(forward[triple.head], triple.relation, triple.tail))
            if triple.tail in forward:
                swapped.append(Triple(triple.head, triple.relation, forward[triple.tail]))
            if triple.head in backward:
                swapped.append(Triple(backward[triple.head], triple.relation, triple.tail))
            if triple.tail in backward:
                swapped.append(Triple(triple.head, triple.relation, backward[triple.tail]))
        return triples + swapped

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        status = "fitted" if self.is_fitted else "unfitted"
        return f"{self.name}({status}, dim={self.config.dim})"


def build_adjacency(
    kg1: KnowledgeGraph,
    kg2: KnowledgeGraph,
    index: EntityIndex,
    seed_alignment: AlignmentSet | None = None,
) -> SparseAdjacency:
    """Symmetric, degree-normalised adjacency matrix over both KGs.

    Returns the sparse ``(n, n)`` operator ``D^{-1/2} (A + I) D^{-1/2}`` of
    the union graph, which is the propagation operator used by the
    GCN-based models: ``A`` holds a 1 for every entity pair joined by a
    triple in either direction, ``I`` adds a self-loop to every entity,
    and ``D`` holds the row sums of ``A + I``.  When *seed_alignment* is
    given, cross-KG edges are added between seed-aligned entities so that
    information propagates across the two graphs (the standard seed-fusion
    trick of GCN-based EA models: counterpart entities then share actual
    neighbours, which is what lets the encoder generalise beyond the seed
    set).
    """
    n = index.num_entities()
    heads, tails = [], []
    for kg in (kg1, kg2):
        ids = index.triples_to_ids(list(kg.triples))
        heads.append(ids[:, 0])
        tails.append(ids[:, 2])
    if seed_alignment is not None and len(seed_alignment):
        pairs = list(seed_alignment)
        heads.append(index.entity_ids([source for source, _ in pairs]))
        tails.append(index.entity_ids([target for _, target in pairs]))
    heads = np.concatenate(heads).astype(np.int64)
    tails = np.concatenate(tails).astype(np.int64)
    # An edge counts once however many triples join its two entities.
    edges = np.unique(np.concatenate([heads * n + tails, tails * n + heads]))
    diagonal = np.arange(n)
    adjacency = SparseAdjacency.from_coo(
        np.concatenate([edges // n, diagonal]),
        np.concatenate([edges % n, diagonal]),
        np.ones(len(edges) + n),
        n,
    )
    inv_sqrt = 1.0 / np.sqrt(np.maximum(adjacency.row_sums(), 1e-12))
    return adjacency.with_data(
        adjacency.data * inv_sqrt[adjacency.rows] * inv_sqrt[adjacency.indices]
    )
