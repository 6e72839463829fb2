"""Dual-AMN [10]: dual attention matching network with hard sample mining.

Dual-AMN is the strongest structure-only EA model in the paper's line-up.
This reproduction keeps its three distinguishing ingredients while staying
within a NumPy-sized budget (each simplification is listed in DESIGN.md):

* **Relation-aware attention aggregation.**  The propagation matrix is not
  the plain normalised adjacency but an attention-weighted one: the weight
  of edge ``(i, r, j)`` reflects the agreement between the current
  embedding of ``i`` and the relation embedding of ``r``.  The attention
  matrix is recomputed from the current parameters every few epochs and
  treated as a constant in between (a stop-gradient simplification of the
  proxy-attention of the original model).
* **Relation-signature channel.**  Dual-AMN feeds the relations incident to
  an entity into its representation ("relation-aware dual aggregation").
  Here that channel is realised as an explicit, L2-normalised histogram of
  incoming/outgoing relation types (own plus averaged one-hop neighbour
  histograms), concatenated with the learned GCN output.  Relation names
  shared across the two KGs therefore provide a direct cross-KG signal,
  exactly the information the original attention layers exploit.
* **Normalised hard sample mining.**  Training uses a LogSumExp loss over
  all in-batch negatives, which focuses the gradient on the hardest (most
  similar) wrong targets.

Relation embeddings are maintained as the translation average of the final
entity embeddings (Eq. 1 of the paper), so the model exposes relation
vectors to the explanation generator just like the original.
"""

from __future__ import annotations

import time

import numpy as np

from ..embedding import l2_normalize_rows, make_optimizer
from ..kg import EADataset, KnowledgeGraph
from .base import EAModel, EntityIndex, EpochRecord
from .gcn import GCNEncoder, logsumexp_mining_gradient
from .sparse import SparseAdjacency


class DualAMN(EAModel):
    """Relation-aware attention GCN with LogSumExp hard-negative mining."""

    name = "Dual-AMN"
    learns_relation_embeddings = True
    default_epochs = 120
    default_learning_rate = 0.01

    #: how often (in epochs) the attention adjacency and relation embeddings
    #: are recomputed from the current parameters
    refresh_interval: int = 20
    #: loss temperature (lambda in the original paper)
    loss_scale: float = 5.0
    #: relative weight of the relation-signature channel in the final embedding
    signature_weight: float = 0.9

    def _train(
        self, dataset: EADataset, index: EntityIndex, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        config = self.config
        encoder = GCNEncoder(
            num_nodes=index.num_entities(),
            input_dim=config.dim,
            hidden_dim=config.dim,
            output_dim=config.dim,
            rng=rng,
        )
        optimizer = make_optimizer("adam", self.learning_rate)
        triples = index.triples_to_ids(self._all_triples(dataset))

        seed_pairs = sorted(dataset.train_alignment.pairs)
        source_ids = np.array([index.entity_to_id[s] for s, _ in seed_pairs], dtype=int)
        target_ids = np.array([index.entity_to_id[t] for _, t in seed_pairs], dtype=int)

        output = encoder.forward(SparseAdjacency.identity(index.num_entities()))
        adjacency = self._attention_adjacency(triples, index, output, source_ids, target_ids)
        for epoch in range(self.epochs):
            started = time.perf_counter()
            if epoch > 0 and epoch % self.refresh_interval == 0:
                adjacency = self._attention_adjacency(
                    triples, index, output, source_ids, target_ids
                )
            output = encoder.forward(adjacency)
            if len(source_ids) == 0:
                break
            gradient, loss = logsumexp_mining_gradient(
                output, source_ids, target_ids, margin=config.margin, scale=self.loss_scale
            )
            encoder.apply_gradients(encoder.backward(gradient), optimizer)
            self.fit_history.append(EpochRecord(loss, time.perf_counter() - started))
        learned = l2_normalize_rows(encoder.forward(adjacency))
        signature = self._relation_signature(dataset, index)
        entity_matrix = np.concatenate(
            [learned, self.signature_weight * signature], axis=1
        )
        relation_matrix = self._relation_embeddings(triples, index, entity_matrix)
        return entity_matrix, relation_matrix

    # ------------------------------------------------------------------
    # Relation-signature channel
    # ------------------------------------------------------------------
    def _relation_bridge(self, dataset: EADataset, index: EntityIndex) -> dict[int, int]:
        """Map every relation id to a shared "bridged" relation id.

        Heterogeneous datasets (DBP-WD, DBP-YAGO) use different relation
        vocabularies in the two KGs, so raw relation histograms live in
        disjoint dimensions and carry no cross-KG signal.  The original
        Dual-AMN learns the correspondence through its attention layers;
        here it is recovered structurally from the seed alignment: relations
        that co-occur around seed-aligned entity pairs (in the same
        direction) are mapped onto each other, and every KG2 relation is
        folded into the dimension of its best co-occurring KG1 relation.
        """
        num_relations = index.num_relations()
        relations1 = {index.relation_to_id[r] for r in dataset.kg1.relations}
        relations2 = {index.relation_to_id[r] for r in dataset.kg2.relations}
        cooccurrence = np.zeros((num_relations, num_relations))
        for source, target in dataset.train_alignment:
            out1 = {index.relation_to_id[t.relation] for t in dataset.kg1.outgoing(source)}
            in1 = {index.relation_to_id[t.relation] for t in dataset.kg1.incoming(source)}
            out2 = {index.relation_to_id[t.relation] for t in dataset.kg2.outgoing(target)}
            in2 = {index.relation_to_id[t.relation] for t in dataset.kg2.incoming(target)}
            for r1 in out1:
                for r2 in out2:
                    cooccurrence[r1, r2] += 1.0
            for r1 in in1:
                for r2 in in2:
                    cooccurrence[r1, r2] += 1.0
        bridge = {relation_id: relation_id for relation_id in range(num_relations)}
        for relation_id in sorted(relations2 - relations1):
            row = cooccurrence[:, relation_id].copy()
            for other in range(num_relations):
                if other not in relations1:
                    row[other] = -1.0
            if row.max() > 0:
                bridge[relation_id] = int(row.argmax())
        return bridge

    def _relation_signature(self, dataset: EADataset, index: EntityIndex) -> np.ndarray:
        """Normalised relation-type histograms (own + averaged 1-hop neighbours).

        Relation ids are passed through the seed-derived bridge so that
        corresponding relations of heterogeneous KGs share a dimension.
        """
        num_relations = index.num_relations()
        bridge = self._relation_bridge(dataset, index)
        own = np.zeros((index.num_entities(), 2 * num_relations))

        def accumulate(kg: KnowledgeGraph) -> None:
            for triple in kg.triples:
                head = index.entity_to_id[triple.head]
                tail = index.entity_to_id[triple.tail]
                relation = bridge[index.relation_to_id[triple.relation]]
                own[head, relation] += 1.0
                own[tail, num_relations + relation] += 1.0

        accumulate(dataset.kg1)
        accumulate(dataset.kg2)
        own_normalized = l2_normalize_rows(own)

        neighbor = np.zeros_like(own_normalized)
        counts = np.zeros(index.num_entities())
        for kg in (dataset.kg1, dataset.kg2):
            for triple in kg.triples:
                head = index.entity_to_id[triple.head]
                tail = index.entity_to_id[triple.tail]
                neighbor[head] += own_normalized[tail]
                neighbor[tail] += own_normalized[head]
                counts[head] += 1.0
                counts[tail] += 1.0
        counts[counts == 0] = 1.0
        neighbor /= counts[:, None]
        return np.concatenate(
            [own_normalized, l2_normalize_rows(neighbor)], axis=1
        ) / np.sqrt(2.0)

    # ------------------------------------------------------------------
    # Attention machinery
    # ------------------------------------------------------------------
    def _relation_embeddings(
        self, triples: np.ndarray, index: EntityIndex, entity_matrix: np.ndarray
    ) -> np.ndarray:
        """Translation-averaged relation embeddings from the current entity space."""
        relation_matrix = np.zeros((index.num_relations(), entity_matrix.shape[1]))
        counts = np.zeros(index.num_relations())
        if triples.shape[0]:
            differences = entity_matrix[triples[:, 0]] - entity_matrix[triples[:, 2]]
            np.add.at(relation_matrix, triples[:, 1], differences)
            np.add.at(counts, triples[:, 1], 1.0)
        counts[counts == 0] = 1.0
        return relation_matrix / counts[:, None]

    def _attention_adjacency(
        self,
        triples: np.ndarray,
        index: EntityIndex,
        entity_matrix: np.ndarray,
        seed_source_ids: np.ndarray,
        seed_target_ids: np.ndarray,
    ) -> SparseAdjacency:
        """Attention-weighted propagation matrix (recomputed periodically).

        The raw attention score of edge ``(i, r, j)`` is the dot product of
        the current representation of ``i`` with the relation embedding of
        ``r``; scores are softmax-normalised over each node's incident
        edges, symmetrised, and self-loops are added.  Seed-aligned entities
        are connected with cross-KG edges so that information flows between
        the two graphs.
        """
        n = index.num_entities()
        heads = tails = np.zeros(0, dtype=np.int64)
        weights = np.zeros(0)
        if triples.shape[0]:
            relation_matrix = self._relation_embeddings(triples, index, entity_matrix)
            heads, relations, tails = triples[:, 0], triples[:, 1], triples[:, 2]
            scores = np.einsum(
                "ij,ij->i", entity_matrix[heads], relation_matrix[relations]
            )
            # Normalise the score scale before the per-node softmax so the
            # temperature is comparable across refreshes.
            scale = np.std(scores) + 1e-8
            weights = np.exp(np.clip(scores / scale, -10.0, 10.0))
        edges = SparseAdjacency.from_coo(
            np.concatenate([heads, tails]),
            np.concatenate([tails, heads]),
            np.concatenate([weights, weights]),
            n,
        )
        rows, cols, values = [edges.rows], [edges.indices], [edges.data]
        if seed_source_ids.size:
            positive = edges.data[edges.data > 0]
            mean_weight = positive.mean() if positive.size else 1.0
            rows += [seed_source_ids, seed_target_ids]
            cols += [seed_target_ids, seed_source_ids]
            values.append(np.full(2 * seed_source_ids.size, mean_weight))
        diagonal = np.arange(n)
        adjacency = SparseAdjacency.from_coo(
            np.concatenate(rows + [diagonal]),
            np.concatenate(cols + [diagonal]),
            np.concatenate(values + [np.ones(n)]),
            n,
        )
        row_sums = np.maximum(adjacency.row_sums(), 1e-12)
        return adjacency.with_data(adjacency.data / row_sums[adjacency.rows])
