"""Engine equivalence and cache-correctness tests.

The batch explanation engine must produce output identical to the
sequential reference implementation pair-for-pair, and every cache in the
stack (KG structural memos, engine path lists, the repair confidence
oracle) must invalidate correctly when graphs or alignments mutate — the
fidelity protocol mutates graphs mid-experiment, so stale caches would
silently corrupt results.
"""

import numpy as np
import pytest

from repro.core import ExplanationConfig, ExplanationGenerator
from repro.core.repair import EARepairer
from repro.kg import AlignmentSet, AlignmentUnionView, KnowledgeGraph, Triple
from repro.models import build_adjacency


# ----------------------------------------------------------------------
# Batch vs sequential equivalence
# ----------------------------------------------------------------------
class TestBatchEquivalence:
    @pytest.mark.parametrize("max_hops", [1, 2])
    def test_explain_pairs_matches_sequential(self, fitted_mtranse, core_dataset, max_hops):
        generator = ExplanationGenerator(
            fitted_mtranse, core_dataset, ExplanationConfig(max_hops=max_hops)
        )
        reference = generator.reference_alignment()
        pairs = sorted(core_dataset.test_alignment)[:20]
        batched = generator.explain_pairs(pairs, reference)
        assert set(batched) == set(pairs)
        for pair in pairs:
            sequential = generator.explain_sequential(pair[0], pair[1], reference)
            explanation = batched[pair]
            assert explanation.candidate_triples1 == sequential.candidate_triples1
            assert explanation.candidate_triples2 == sequential.candidate_triples2
            assert len(explanation.matched_paths) == len(sequential.matched_paths)
            for got, expected in zip(explanation.matched_paths, sequential.matched_paths):
                assert got.path1 == expected.path1
                assert got.path2 == expected.path2
                # bit-identical: same rows, same normalisation, same matmul shape
                assert got.similarity == expected.similarity

    def test_explain_is_batch_of_one(self, fitted_mtranse, core_dataset):
        generator = ExplanationGenerator(fitted_mtranse, core_dataset)
        reference = generator.reference_alignment()
        pairs = sorted(core_dataset.test_alignment)[:10]
        batched = generator.explain_pairs(pairs, reference)
        for pair in pairs:
            single = generator.explain(pair[0], pair[1], reference)
            assert single.matched_paths == batched[pair].matched_paths

    def test_duplicate_pairs_collapse(self, fitted_mtranse, core_dataset):
        generator = ExplanationGenerator(fitted_mtranse, core_dataset)
        reference = generator.reference_alignment()
        pair = sorted(core_dataset.test_alignment)[0]
        explanations = generator.explain_pairs([pair, pair, pair], reference)
        assert list(explanations) == [pair]

    def test_batched_similarity_many_matches_scalar(self, fitted_mtranse, core_dataset):
        model = fitted_mtranse
        pairs = sorted(core_dataset.test_alignment)[:15]
        batched = model.similarity_many(pairs)
        for value, (source, target) in zip(batched, pairs):
            assert value == pytest.approx(model.similarity(source, target), abs=1e-12)


# ----------------------------------------------------------------------
# KG structural cache invalidation
# ----------------------------------------------------------------------
class TestKGCacheInvalidation:
    def _kg(self):
        return KnowledgeGraph(
            [
                ("a", "r", "b"),
                ("b", "s", "c"),
                ("c", "t", "d"),
            ]
        )

    def test_version_bumps_on_mutation_only(self):
        kg = self._kg()
        version = kg.version
        kg.add_triple(("a", "r", "b"))  # duplicate: no-op
        assert kg.version == version
        kg.add_triple(("a", "u", "d"))
        assert kg.version > version
        version = kg.version
        kg.remove_triple(Triple("x", "y", "z"))  # absent: no-op
        assert kg.version == version
        kg.remove_triple(Triple("a", "u", "d"))
        assert kg.version > version

    def test_neighbors_cache_invalidates(self):
        kg = self._kg()
        assert kg.neighbors("a") == {"b"}
        kg.add_triple(("a", "u", "d"))
        assert kg.neighbors("a") == {"b", "d"}
        kg.remove_triple(Triple("a", "u", "d"))
        assert kg.neighbors("a") == {"b"}

    def test_triples_within_hops_invalidates(self):
        kg = self._kg()
        assert kg.triples_within_hops("a", 2) == {
            Triple("a", "r", "b"),
            Triple("b", "s", "c"),
        }
        kg.add_triple(("b", "u", "e"))
        assert Triple("b", "u", "e") in kg.triples_within_hops("a", 2)
        kg.remove_triple(Triple("b", "s", "c"))
        assert Triple("b", "s", "c") not in kg.triples_within_hops("a", 2)

    def test_entities_within_hops_invalidates(self):
        kg = self._kg()
        assert kg.entities_within_hops("a", 2) == {"b", "c"}
        kg.remove_triple(Triple("b", "s", "c"))
        assert kg.entities_within_hops("a", 2) == {"b"}

    def test_relation_paths_invalidate(self):
        kg = self._kg()
        assert kg.relation_paths("a", "c", max_length=2) == [
            (Triple("a", "r", "b"), Triple("b", "s", "c"))
        ]
        kg.add_triple(("a", "u", "c"))
        paths = kg.relation_paths("a", "c", max_length=2)
        assert (Triple("a", "u", "c"),) in paths
        assert (Triple("a", "r", "b"), Triple("b", "s", "c")) in paths
        kg.remove_triple(Triple("b", "s", "c"))
        assert kg.relation_paths("a", "c", max_length=2) == [(Triple("a", "u", "c"),)]

    def test_index_matches_graph_after_mutation(self):
        kg = self._kg()
        kg.index()  # force a build, then mutate
        kg.add_triple(("d", "u", "a"))
        index = kg.index()
        assert set(index.triples) == kg.triples
        assert index.num_entities() == kg.num_entities()

    def test_unknown_entity_queries_are_empty(self):
        kg = self._kg()
        assert kg.triples_within_hops("ghost", 2) == set()
        assert kg.entities_within_hops("ghost", 2) == frozenset()
        assert kg.relation_paths("ghost", "a", max_length=2) == []


# ----------------------------------------------------------------------
# Engine cache invalidation across KG mutation (fidelity protocol shape)
# ----------------------------------------------------------------------
class TestEngineInvalidation:
    def test_explanations_track_graph_mutation(self, fitted_mtranse, core_dataset):
        generator = ExplanationGenerator(fitted_mtranse, core_dataset)
        reference = generator.reference_alignment()
        # find a pair whose explanation actually uses some triples
        chosen = None
        for pair in sorted(core_dataset.test_alignment):
            explanation = generator.explain(pair[0], pair[1], reference)
            if explanation.matched_paths:
                chosen = (pair, explanation)
                break
        assert chosen is not None, "no non-empty explanation found"
        pair, explanation = chosen
        removed = next(iter(explanation.triples1))
        kg1 = core_dataset.kg1
        kg1.remove_triple(removed)
        try:
            after = generator.explain(pair[0], pair[1], reference)
            assert removed not in after.triples1
            assert removed not in after.candidate_triples1
            # and the sequential reference agrees on the mutated graph
            sequential = generator.explain_sequential(pair[0], pair[1], reference)
            assert after.matched_paths == sequential.matched_paths
        finally:
            kg1.add_triple(removed)

    def test_confidence_oracle_tracks_alignment_changes(self, fitted_mtranse, core_dataset):
        repairer = EARepairer(fitted_mtranse, core_dataset)
        reference = repairer.generator.reference_alignment()
        pair = sorted(core_dataset.test_alignment)[0]
        first = repairer.confidence(pair[0], pair[1], reference)
        again = repairer.confidence(pair[0], pair[1], reference)
        assert again == first  # cache hit returns the identical value
        # removing every aligned neighbour empties the explanation:
        empty_conf = repairer.confidence(pair[0], pair[1], AlignmentSet())
        neighbor_pairs = repairer.generator.matched_neighbors(pair[0], pair[1], reference)
        if neighbor_pairs:
            assert empty_conf != first or not neighbor_pairs
        # the oracle key is the matched-neighbour fingerprint, so an
        # unrelated alignment edit must not change the answer
        edited = reference.copy()
        edited.add("unrelated-source-entity", "unrelated-target-entity")
        assert repairer.confidence(pair[0], pair[1], edited) == first

    def test_repair_conflict_count_stable_across_runs(self, fitted_mtranse, core_dataset):
        # Cache hits must replay the relation-conflict counts their ADG
        # builds contributed, so repeated repair runs report the same
        # num_relation_conflicts as a fresh (uncached) repairer.
        repairer = EARepairer(fitted_mtranse, core_dataset)
        first = repairer.repair()
        second = repairer.repair()
        assert second.num_relation_conflicts == first.num_relation_conflicts
        assert second.repaired_accuracy == first.repaired_accuracy
        fresh = EARepairer(fitted_mtranse, core_dataset).repair()
        assert fresh.num_relation_conflicts == first.num_relation_conflicts

    def test_confidence_oracle_invalidates_on_kg_mutation(self, fitted_mtranse, core_dataset):
        repairer = EARepairer(fitted_mtranse, core_dataset)
        reference = repairer.generator.reference_alignment()
        # pick a pair with a non-trivial explanation
        pair = None
        for candidate in sorted(core_dataset.test_alignment):
            explanation = repairer.explain(candidate[0], candidate[1], reference)
            if explanation.matched_paths:
                pair = candidate
                break
        assert pair is not None
        before = repairer.confidence(pair[0], pair[1], reference)
        explanation = repairer.explain(pair[0], pair[1], reference)
        removed = next(iter(explanation.triples1))
        core_dataset.kg1.remove_triple(removed)
        try:
            after = repairer.confidence(pair[0], pair[1], reference)
            fresh = EARepairer(fitted_mtranse, core_dataset).confidence(
                pair[0], pair[1], reference
            )
            assert after == fresh  # no stale cache entry survives the mutation
        finally:
            core_dataset.kg1.add_triple(removed)
        assert repairer.confidence(pair[0], pair[1], reference) == before


# ----------------------------------------------------------------------
# Alignment views
# ----------------------------------------------------------------------
class TestAlignmentUnionView:
    def test_live_union_lookups(self):
        working = AlignmentSet([("a", "x")])
        seed = AlignmentSet([("b", "y")])
        view = AlignmentUnionView(working, seed)
        assert view.targets_of("a") == {"x"}
        assert view.targets_of("b") == {"y"}
        working.add("a", "z")
        assert view.targets_of("a") == {"x", "z"}
        working.remove("a", "x")
        assert view.targets_of("a") == {"z"}
        assert ("b", "y") in view
        assert ("a", "x") not in view

    def test_version_tracks_both_sides(self):
        working = AlignmentSet()
        seed = AlignmentSet()
        view = AlignmentUnionView(working, seed)
        version = view.version
        working.add("a", "x")
        assert view.version != version
        version = view.version
        seed.add("b", "y")
        assert view.version != version


# ----------------------------------------------------------------------
# Vectorised helpers stay equivalent to their loop references
# ----------------------------------------------------------------------
class TestVectorisedReferences:
    def test_build_adjacency_matches_loop_reference(self, core_dataset, fitted_mtranse):
        index = fitted_mtranse.index
        kg1, kg2 = core_dataset.kg1, core_dataset.kg2
        seed = core_dataset.train_alignment
        n = index.num_entities()
        vectorised = build_adjacency(kg1, kg2, index, seed) @ np.eye(n)
        reference = np.zeros((n, n))
        for kg in (kg1, kg2):
            for triple in kg.triples:
                i = index.entity_to_id[triple.head]
                j = index.entity_to_id[triple.tail]
                reference[i, j] = 1.0
                reference[j, i] = 1.0
        for source, target in seed:
            i = index.entity_to_id[source]
            j = index.entity_to_id[target]
            reference[i, j] = 1.0
            reference[j, i] = 1.0
        reference += np.eye(n)
        degrees = reference.sum(axis=1)
        inv_sqrt = 1.0 / np.sqrt(np.maximum(degrees, 1e-12))
        reference = reference * inv_sqrt[:, None] * inv_sqrt[None, :]
        assert np.allclose(vectorised, reference)

    def test_derived_relations_match_loop_reference(self, fitted_mtranse, core_dataset):
        model = fitted_mtranse
        derived = model._derived_relations()
        for relation in sorted(core_dataset.kg1.relations)[:3]:
            triples = [
                t
                for t in (core_dataset.kg1.triples | core_dataset.kg2.triples)
                if t.relation == relation
            ]
            manual = np.mean(
                [
                    model.entity_embedding(t.head) - model.entity_embedding(t.tail)
                    for t in triples
                ],
                axis=0,
            )
            relation_id = model.index.relation_to_id[relation]
            assert np.allclose(derived[relation_id], manual)


# ----------------------------------------------------------------------
# Fused similarity gemms (PR-8)
# ----------------------------------------------------------------------
class TestFusedSimilarities:
    def test_fused_blocked_gemm_bit_identical_to_per_pair_matmul(
        self, fitted_mtranse, core_dataset, monkeypatch
    ):
        import repro.core.engine as engine_module

        pairs = sorted(core_dataset.test_alignment)[:24]

        def collect(generator):
            reference = generator.reference_alignment()
            batched = generator.explain_pairs(pairs, reference)
            return {
                pair: [
                    (m.path1, m.path2, m.similarity)
                    for m in batched[pair].matched_paths
                ]
                for pair in pairs
            }

        fused = collect(
            ExplanationGenerator(fitted_mtranse, core_dataset, ExplanationConfig())
        )
        # Force the per-pair path for an otherwise identical run.
        monkeypatch.setattr(engine_module, "_FUSE_MIN_PLANS", 10**9)
        unfused = collect(
            ExplanationGenerator(fitted_mtranse, core_dataset, ExplanationConfig())
        )
        # Bitwise float equality, not approximate: the fusion must not
        # change a single similarity by even one ulp.
        assert fused == unfused

    def test_plan_similarities_groups_by_shape(self, fitted_mtranse, core_dataset):
        generator = ExplanationGenerator(fitted_mtranse, core_dataset)
        reference = generator.reference_alignment()
        pairs = sorted(core_dataset.test_alignment)[:24]
        generator.explain_pairs(pairs, reference)
        engine = generator.engine
        rows = sorted(engine._path_rows)[:6]
        if len(rows) < 6:
            pytest.skip("not enough cached endpoint blocks on this dataset")
        plans = [(None, None, None, None, [key1], [key2]) for key1, key2 in zip(rows[:3], rows[3:])]
        fused = engine._plan_similarities(plans * 2)  # 6 plans: fusion kicks in
        loop = [
            engine.store.unit_rows(engine._path_rows[key1])
            @ engine.store.unit_rows(engine._path_rows[key2]).T
            for key1, key2 in zip(rows[:3], rows[3:])
        ] * 2
        for got, expected in zip(fused, loop):
            assert got.shape == expected.shape
            assert np.array_equal(got, expected)


# ----------------------------------------------------------------------
# Scoped engine-cache invalidation (PR-8)
# ----------------------------------------------------------------------
class TestScopedEngineInvalidation:
    def _removed(self, dataset):
        return sorted(dataset.kg1.triples, key=lambda t: t.as_tuple())[0]

    def test_mutation_evicts_only_the_blast_radius(self, fitted_mtranse, core_dataset):
        dataset = core_dataset.__class__(
            core_dataset.kg1.copy(),
            core_dataset.kg2.copy(),
            core_dataset.train_alignment,
            core_dataset.test_alignment,
            name=core_dataset.name,
        )
        generator = ExplanationGenerator(fitted_mtranse, dataset)
        engine = generator.engine
        reference = generator.reference_alignment()
        pairs = sorted(dataset.test_alignment)[:24]
        generator.explain_pairs(pairs, reference)
        before_rows = dict(engine._path_rows)
        before_store = engine.store.size
        assert before_rows

        version_before = dataset.kg1.version
        removed = self._removed(dataset)
        dataset.kg1.remove_triple(removed)
        blast = dataset.kg1.blast_radius(
            dataset.kg1.mutations_since(version_before), generator.config.max_hops
        )
        engine._check_versions()

        # Side-1 blocks inside the blast ball are gone, everything else
        # (including every side-2 block) survives with its embedding rows.
        for key, rows in before_rows.items():
            side, entity, _ = key
            if side == 1 and entity in blast:
                assert key not in engine._path_rows
            else:
                assert np.array_equal(engine._path_rows[key], rows)
        assert engine.store.size == before_store  # rows retained, not rebuilt
        assert engine._dead_store_rows > 0 or all(
            key[0] != 1 or key[1] not in blast for key in before_rows
        )

        # And the surviving caches are *correct*: identical to cold rebuild.
        served = generator.explain_pairs(pairs, reference)
        cold = ExplanationGenerator(fitted_mtranse, dataset).explain_pairs(
            pairs, ExplanationGenerator(fitted_mtranse, dataset).reference_alignment()
        )
        for pair in pairs:
            assert served[pair].matched_paths == cold[pair].matched_paths
            assert served[pair].candidate_triples1 == cold[pair].candidate_triples1

    def test_uncovered_log_falls_back_to_wholesale(self, fitted_mtranse, core_dataset):
        dataset = core_dataset.__class__(
            core_dataset.kg1.copy(),
            core_dataset.kg2.copy(),
            core_dataset.train_alignment,
            core_dataset.test_alignment,
            name=core_dataset.name,
        )
        generator = ExplanationGenerator(fitted_mtranse, dataset)
        engine = generator.engine
        reference = generator.reference_alignment()
        generator.explain_pairs(sorted(dataset.test_alignment)[:8], reference)
        assert engine.store.size > 0
        dataset.kg1.remove_triple(self._removed(dataset))
        dataset.kg1._mutation_log.clear()  # engine can no longer cover the span
        engine._check_versions()
        assert engine.store.size == 0
        assert not engine._path_rows and not engine._path_lists

    def test_dead_row_reclaim_resets_the_store(
        self, fitted_mtranse, core_dataset, monkeypatch
    ):
        import repro.core.engine as engine_module

        monkeypatch.setattr(engine_module, "_STORE_DEAD_ROW_MIN", 0)
        monkeypatch.setattr(engine_module, "_STORE_DEAD_ROW_FACTOR", 0)
        dataset = core_dataset.__class__(
            core_dataset.kg1.copy(),
            core_dataset.kg2.copy(),
            core_dataset.train_alignment,
            core_dataset.test_alignment,
            name=core_dataset.name,
        )
        generator = ExplanationGenerator(fitted_mtranse, dataset)
        engine = generator.engine
        reference = generator.reference_alignment()
        pairs = sorted(dataset.test_alignment)[:16]
        generator.explain_pairs(pairs, reference)
        dataset.kg1.remove_triple(self._removed(dataset))
        engine._check_versions()
        # Any eviction now trips the (zeroed) reclaim threshold.
        assert engine.store.size == 0 and engine._dead_store_rows == 0
        served = generator.explain_pairs(pairs, reference)
        cold = ExplanationGenerator(fitted_mtranse, dataset)
        cold_results = cold.explain_pairs(pairs, cold.reference_alignment())
        for pair in pairs:
            assert served[pair].matched_paths == cold_results[pair].matched_paths
