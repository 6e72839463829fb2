"""Tests for the four EA models and the shared model machinery.

Training tests use a tiny synthetic dataset and reduced epochs so the whole
module runs in a few seconds while still checking that every model learns
something better than random.
"""

import numpy as np
import pytest

from repro.datasets import SyntheticConfig, generate_dataset
from repro.kg import AlignmentSet, EADataset, KnowledgeGraph, Triple
from repro.models import (
    MODEL_REGISTRY,
    AlignE,
    DualAMN,
    EntityIndex,
    GCNAlign,
    MTransE,
    TrainingConfig,
    build_adjacency,
    make_model,
)
from repro.models.gcn import GCNEncoder, logsumexp_mining_gradient, pair_margin_gradient
from repro.models.sparse import SparseAdjacency


@pytest.fixture(scope="module")
def tiny_dataset():
    return generate_dataset(
        SyntheticConfig(name="TINY", num_entities=80, avg_degree=4.0, seed=3, train_ratio=0.3)
    )


@pytest.fixture(scope="module")
def fast_config():
    return TrainingConfig(dim=24, epochs=25, seed=1)


@pytest.fixture(scope="module")
def fitted_models(tiny_dataset, fast_config):
    models = {}
    for name, cls in MODEL_REGISTRY.items():
        models[name] = cls(fast_config).fit(tiny_dataset)
    return models


class TestEntityIndex:
    def test_covers_both_kgs(self, tiny_dataset):
        index = EntityIndex(tiny_dataset)
        assert index.num_entities() == len(tiny_dataset.kg1.entities | tiny_dataset.kg2.entities)
        assert set(index.relations) == tiny_dataset.kg1.relations | tiny_dataset.kg2.relations

    def test_triples_to_ids_roundtrip(self, tiny_dataset):
        index = EntityIndex(tiny_dataset)
        triples = sorted(tiny_dataset.kg1.triples)[:5]
        ids = index.triples_to_ids(triples)
        assert ids.shape == (5, 3)
        for row, triple in zip(ids, triples):
            assert index.entities[row[0]] == triple.head
            assert index.relations[row[1]] == triple.relation
            assert index.entities[row[2]] == triple.tail

    def test_empty_triples(self, tiny_dataset):
        assert EntityIndex(tiny_dataset).triples_to_ids([]).shape == (0, 3)


class TestAdjacency:
    def test_adjacency_is_symmetric_and_normalized(self, tiny_dataset):
        index = EntityIndex(tiny_dataset)
        n = index.num_entities()
        adjacency = build_adjacency(tiny_dataset.kg1, tiny_dataset.kg2, index) @ np.eye(n)
        assert adjacency.shape == (n, n)
        assert np.allclose(adjacency, adjacency.T)
        assert np.all(adjacency.diagonal() > 0)


class TestModelRegistry:
    def test_registry_has_paper_models(self):
        assert set(MODEL_REGISTRY) == {"MTransE", "AlignE", "GCN-Align", "Dual-AMN"}

    def test_make_model_case_insensitive(self):
        assert isinstance(make_model("mtranse"), MTransE)
        assert isinstance(make_model("DUAL-AMN"), DualAMN)

    def test_make_model_unknown(self):
        with pytest.raises(KeyError):
            make_model("TransR")


class TestUnfittedBehaviour:
    def test_requires_fit(self):
        model = MTransE()
        assert not model.is_fitted
        with pytest.raises(RuntimeError):
            model.entity_embedding("x")
        with pytest.raises(RuntimeError):
            model.predict()


@pytest.mark.parametrize("name", list(MODEL_REGISTRY))
class TestFittedModels:
    def test_embeddings_have_consistent_dim(self, fitted_models, fast_config, name):
        model = fitted_models[name]
        entity = sorted(model.dataset.kg1.entities)[0]
        assert model.entity_embedding(entity).shape == (model.embedding_dim,)
        assert model.embedding_dim >= fast_config.dim

    def test_relation_embedding_available(self, fitted_models, fast_config, name):
        model = fitted_models[name]
        relation = sorted(model.dataset.kg1.relations)[0]
        assert model.relation_embedding(relation).shape == (model.embedding_dim,)

    def test_similarity_is_symmetric(self, fitted_models, name):
        model = fitted_models[name]
        entities = sorted(model.dataset.kg1.entities)[:2]
        assert model.similarity(entities[0], entities[1]) == pytest.approx(
            model.similarity(entities[1], entities[0])
        )

    def test_predict_covers_all_test_sources(self, fitted_models, name):
        model = fitted_models[name]
        predicted = model.predict()
        assert predicted.sources() == model.dataset.test_sources()

    def test_accuracy_beats_random_guessing(self, fitted_models, name):
        model = fitted_models[name]
        num_targets = len(model.dataset.test_targets())
        random_baseline = 1.0 / num_targets
        assert model.accuracy() > 5 * random_baseline

    def test_seed_pairs_are_similar(self, fitted_models, name):
        model = fitted_models[name]
        seed_sims = [model.similarity(s, t) for s, t in list(model.dataset.train_alignment)[:20]]
        rng = np.random.default_rng(0)
        sources = sorted(model.dataset.kg1.entities)
        targets = sorted(model.dataset.kg2.entities)
        random_sims = [
            model.similarity(rng.choice(sources), rng.choice(targets)) for _ in range(20)
        ]
        assert np.mean(seed_sims) > np.mean(random_sims)


class TestModelSpecifics:
    def test_gcn_align_has_no_learned_relations(self):
        assert GCNAlign.learns_relation_embeddings is False
        assert MTransE.learns_relation_embeddings is True
        assert AlignE.learns_relation_embeddings is True
        assert DualAMN.learns_relation_embeddings is True

    def test_derived_relation_embeddings_follow_translation(self, fitted_models):
        model = fitted_models["GCN-Align"]
        relation = sorted(model.dataset.kg1.relations)[0]
        derived = model.relation_embedding(relation)
        triples = [
            t
            for t in (model.dataset.kg1.triples | model.dataset.kg2.triples)
            if t.relation == relation
        ]
        manual = np.mean(
            [model.entity_embedding(t.head) - model.entity_embedding(t.tail) for t in triples],
            axis=0,
        )
        assert np.allclose(derived, manual)

    def test_refit_updates_dataset(self, tiny_dataset, fast_config):
        model = MTransE(fast_config).fit(tiny_dataset)
        reduced = tiny_dataset.without_triples(kg1_removed=list(tiny_dataset.kg1.triples)[:5])
        model.fit(reduced)
        assert model.dataset is reduced

    def test_training_is_deterministic_given_seed(self, tiny_dataset):
        config = TrainingConfig(dim=16, epochs=5, seed=7)
        first = MTransE(config).fit(tiny_dataset)
        second = MTransE(config).fit(tiny_dataset)
        assert np.allclose(first.entity_matrix, second.entity_matrix)

    @pytest.mark.parametrize("name", ["GCN-Align", "Dual-AMN"])
    def test_gcn_fits_keep_one_finite_loss_per_epoch(self, fitted_models, fast_config, name):
        history = fitted_models[name].fit_history
        assert len(history) == fast_config.epochs
        assert all(np.isfinite(record.loss) for record in history)
        assert all(record.seconds >= 0.0 for record in history)

    def test_refit_restarts_the_fit_history(self, tiny_dataset):
        model = GCNAlign(TrainingConfig(dim=8, epochs=3, seed=1)).fit(tiny_dataset)
        first = model.fit_history
        model.fit(tiny_dataset)
        assert len(model.fit_history) == 3
        assert [record.loss for record in model.fit_history] == [record.loss for record in first]


class TestGCNInternals:
    def test_encoder_forward_shape(self):
        rng = np.random.default_rng(0)
        encoder = GCNEncoder(num_nodes=6, input_dim=4, hidden_dim=5, output_dim=3, rng=rng)
        adjacency = np.eye(6)
        assert encoder.forward(adjacency).shape == (6, 3)

    def test_backward_requires_forward(self):
        rng = np.random.default_rng(0)
        encoder = GCNEncoder(num_nodes=3, input_dim=2, hidden_dim=2, output_dim=2, rng=rng)
        with pytest.raises(RuntimeError):
            encoder.backward(np.zeros((3, 2)))

    @staticmethod
    def _encoder_and_adjacency():
        rng = np.random.default_rng(0)
        encoder = GCNEncoder(num_nodes=5, input_dim=3, hidden_dim=4, output_dim=2, rng=rng)
        adjacency = np.abs(rng.normal(size=(5, 5)))
        return encoder, (adjacency + adjacency.T) / 2

    @staticmethod
    def _assert_gradient_matches_finite_differences(encoder, adjacency):
        def loss_value():
            return 0.5 * np.sum(encoder.forward(adjacency) ** 2)

        output = encoder.forward(adjacency)
        gradients = encoder.backward(output)  # dL/dH = H for this loss
        epsilon = 1e-6
        # check one weight1 entry and one feature entry numerically
        for parameter, gradient, idx in [
            (encoder.weight1, gradients.weight1, (1, 2)),
            (encoder.features, gradients.features, (2, 1)),
            (encoder.weight2, gradients.weight2, (0, 1)),
        ]:
            original = parameter[idx]
            parameter[idx] = original + epsilon
            plus = loss_value()
            parameter[idx] = original - epsilon
            minus = loss_value()
            parameter[idx] = original
            numeric = (plus - minus) / (2 * epsilon)
            assert gradient[idx] == pytest.approx(numeric, rel=1e-4, abs=1e-6)

    def test_encoder_gradient_matches_finite_differences(self):
        encoder, adjacency = self._encoder_and_adjacency()
        self._assert_gradient_matches_finite_differences(encoder, adjacency)

    def test_encoder_gradient_matches_finite_differences_sparse(self):
        encoder, dense = self._encoder_and_adjacency()
        rows, cols = np.nonzero(dense)
        adjacency = SparseAdjacency.from_coo(rows, cols, dense[rows, cols], len(dense))
        self._assert_gradient_matches_finite_differences(encoder, adjacency)

    def test_pair_margin_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        output = rng.normal(size=(6, 3))
        sources = np.array([0, 1])
        targets = np.array([2, 3])
        negatives = np.array([4, 5])

        gradient, _ = pair_margin_gradient(output, sources, targets, negatives, margin=2.0)
        epsilon = 1e-6
        idx = (0, 1)
        perturbed = output.copy()
        perturbed[idx] += epsilon
        _, loss_plus = pair_margin_gradient(perturbed, sources, targets, negatives, margin=2.0)
        perturbed[idx] -= 2 * epsilon
        _, loss_minus = pair_margin_gradient(perturbed, sources, targets, negatives, margin=2.0)
        numeric = (loss_plus - loss_minus) / (2 * epsilon)
        assert gradient[idx] == pytest.approx(numeric, rel=1e-4, abs=1e-6)

    def test_logsumexp_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        output = rng.normal(size=(8, 3))
        sources = np.array([0, 1, 2])
        targets = np.array([4, 5, 6])

        gradient, _ = logsumexp_mining_gradient(output, sources, targets, margin=1.0, scale=3.0)
        epsilon = 1e-6
        for idx in [(0, 0), (4, 1), (6, 2)]:
            perturbed = output.copy()
            perturbed[idx] += epsilon
            _, loss_plus = logsumexp_mining_gradient(perturbed, sources, targets, margin=1.0, scale=3.0)
            perturbed[idx] -= 2 * epsilon
            _, loss_minus = logsumexp_mining_gradient(perturbed, sources, targets, margin=1.0, scale=3.0)
            numeric = (loss_plus - loss_minus) / (2 * epsilon)
            assert gradient[idx] == pytest.approx(numeric, rel=1e-3, abs=1e-6)


# ----------------------------------------------------------------------
# Translation-derived relation embeddings (Eq. 1)
# ----------------------------------------------------------------------
def derived_relations_add_at(model):
    """The former ``_derived_relations``: one ``np.add.at`` scatter per KG."""
    num_relations = model.index.num_relations()
    matrix = np.zeros((num_relations, model.entity_matrix.shape[1]))
    counts = np.zeros(num_relations)
    for kg in (model.dataset.kg1, model.dataset.kg2):
        ids = model.index.triples_to_ids(sorted(kg.triples, key=lambda t: t.as_tuple()))
        if not len(ids):
            continue
        differences = model.entity_matrix[ids[:, 0]] - model.entity_matrix[ids[:, 2]]
        np.add.at(matrix, ids[:, 1], differences)
        counts += np.bincount(ids[:, 1], minlength=num_relations)
    counts[counts == 0] = 1.0
    return matrix / counts[:, None]


def relation_dataset(kg2_triples: bool):
    """Two random KGs of 40 entities: r0-r3 occur in both, r4 only in kg1, r5 only in kg2.

    Without *kg2_triples* kg2 holds entities but no triples.
    """
    rng = np.random.default_rng(11)
    names1 = [f"a{i}" for i in range(40)]
    names2 = [f"b{i}" for i in range(40)]

    def triples(names, relations):
        heads, tails = rng.integers(0, len(names), 120), rng.integers(0, len(names), 120)
        return [
            Triple(names[h], relations[r], names[t])
            for h, r, t in zip(heads, rng.integers(0, len(relations), 120), tails)
        ]

    kg1 = KnowledgeGraph(triples(names1, ["r0", "r1", "r2", "r3", "r4"]), entities=names1)
    kg2 = KnowledgeGraph(
        triples(names2, ["r0", "r1", "r2", "r3", "r5"]) if kg2_triples else [], entities=names2
    )
    seeds = AlignmentSet((names1[i], names2[i]) for i in range(0, 40, 3))
    tests = AlignmentSet((names1[i], names2[i]) for i in range(1, 40, 3))
    return EADataset(kg1, kg2, seeds, tests)


class TestDerivedRelations:
    @pytest.mark.parametrize("kg2_triples", [True, False], ids=["shared_relations", "empty_kg2"])
    def test_bincount_matches_add_at_bit_for_bit(self, kg2_triples):
        model = GCNAlign(TrainingConfig(dim=8, epochs=2, seed=0)).fit(relation_dataset(kg2_triples))
        derived = model._derived_relations()
        assert derived.shape == (model.index.num_relations(), model.entity_matrix.shape[1])
        assert np.array_equal(derived, derived_relations_add_at(model))
