"""Tests for rule mining, conflict detection, Algorithms 1 & 2 and the pipeline."""

import numpy as np
import pytest

from repro.core import ExEA, ExEAConfig, RepairConfig
from repro.core.repair import (
    EARepairer,
    LowConfidenceRepairer,
    NotSameAsRule,
    NotSameAsRuleSet,
    RelationAlignment,
    mine_not_same_as_rules,
    mine_relation_alignment,
    relation_name_similarity,
    repair_one_to_many,
    resolve_to_one_to_one,
    translate_triple,
)
from repro.kg import AlignmentSet, KnowledgeGraph, Triple


def batch_oracle(confidence):
    """The repair stages' batch oracle over a scalar ``confidence(source, target, alignment)``."""
    def confidence_batch(pairs, alignment):
        return {(source, target): confidence(source, target, alignment) for source, target in pairs}
    return confidence_batch


# ----------------------------------------------------------------------
# Relation alignment and name similarity
# ----------------------------------------------------------------------
class TestRelationNameSimilarity:
    def test_identical_names(self):
        assert relation_name_similarity("birth_place", "birth_place") == pytest.approx(1.0)

    def test_related_names_high(self):
        assert relation_name_similarity("zh_birth_place", "en_birth_place") > 0.5

    def test_unrelated_names_low(self):
        assert relation_name_similarity("spouse", "located_in") < 0.3

    def test_empty_name(self):
        assert relation_name_similarity("", "anything") == 0.0


class TestRelationAlignmentMining:
    def test_mutual_one_to_one(self, fitted_mtranse, core_dataset):
        alignment = mine_relation_alignment(fitted_mtranse, core_dataset.kg1, core_dataset.kg2)
        assert len(alignment) > 0
        targets = list(alignment.forward.values())
        assert len(targets) == len(set(targets))

    def test_shared_names_align_to_themselves(self, fitted_mtranse, core_dataset):
        alignment = mine_relation_alignment(fitted_mtranse, core_dataset.kg1, core_dataset.kg2)
        shared = core_dataset.kg1.relations & core_dataset.kg2.relations
        matched_identically = sum(
            1 for relation in shared if alignment.forward.get(relation) == relation
        )
        assert matched_identically >= len(shared) * 0.7

    def test_counterpart_lookup_both_directions(self):
        alignment = RelationAlignment(forward={"a": "b"})
        assert alignment.counterpart("a") == "b"
        assert alignment.counterpart("b") == "a"
        assert alignment.counterpart("c") is None
        assert alignment.are_aligned("a", "b")
        assert not alignment.are_aligned("b", "a")

    def test_empty_kg(self, fitted_mtranse):
        empty = KnowledgeGraph()
        assert len(mine_relation_alignment(fitted_mtranse, empty, empty)) == 0


# ----------------------------------------------------------------------
# ¬sameAs rules
# ----------------------------------------------------------------------
class TestNotSameAsRules:
    def test_successor_predecessor_style_rule(self):
        kg = KnowledgeGraph(
            [
                ("gpu400", "successor", "gpu500"),
                ("gpu400", "predecessor", "gpu300"),
                ("gpu300", "successor", "gpu400"),
                ("gpu300", "predecessor", "gpu200"),
            ]
        )
        rules = mine_not_same_as_rules(kg)
        assert rules.applies("successor", "predecessor")
        assert rules.applies("predecessor", "successor")

    def test_no_rule_when_objects_coincide(self):
        kg = KnowledgeGraph(
            [
                ("a", "r1", "x"),
                ("a", "r2", "x"),
                ("b", "r1", "y"),
                ("b", "r2", "z"),
            ]
        )
        rules = mine_not_same_as_rules(kg)
        assert not rules.applies("r1", "r2")

    def test_no_rule_without_instance(self):
        kg = KnowledgeGraph([("a", "r1", "x"), ("b", "r2", "y")])
        rules = mine_not_same_as_rules(kg)
        assert not rules.applies("r1", "r2")

    def test_rule_set_api(self):
        rules = NotSameAsRuleSet([NotSameAsRule("r1", "r2")])
        assert len(rules) == 1
        assert rules.applies("r2", "r1")
        assert not rules.applies("r1", "r1")
        assert list(rules) == [NotSameAsRule("r1", "r2")]
        assert list(rules)[0].involves("r2", "r1")


# ----------------------------------------------------------------------
# Cross-KG triples
# ----------------------------------------------------------------------
class TestCrossKGTriples:
    def test_entity_and_relation_swapped(self):
        alignment = AlignmentSet([("Donald_John_Trump", "Donald_Trump")])
        relation_alignment = RelationAlignment(forward={"followed_by": "successor"})
        triple = Triple("Donald_John_Trump", "followed_by", "Joe_Biden")
        cross = translate_triple(triple, alignment, relation_alignment)
        assert cross is not None
        assert cross.translated == Triple("Donald_Trump", "successor", "Joe_Biden")
        assert cross.origin == triple

    def test_returns_none_without_counterparts(self):
        cross = translate_triple(Triple("a", "r", "b"), AlignmentSet())
        assert cross is None

    def test_reverse_direction(self):
        alignment = AlignmentSet([("s", "t")])
        relation_alignment = RelationAlignment(forward={"r1": "r2"})
        cross = translate_triple(
            Triple("t", "r2", "other"), alignment, relation_alignment, source_to_target=False
        )
        assert cross.translated == Triple("s", "r1", "other")


# ----------------------------------------------------------------------
# Algorithm 1: one-to-many conflicts
# ----------------------------------------------------------------------
class TestOneToManyRepair:
    @staticmethod
    def _confidence_from_table(table):
        def confidence(source, target, alignment):
            return table.get((source, target), 0.0)
        return batch_oracle(confidence)

    def test_resolve_keeps_highest_confidence(self):
        predictions = AlignmentSet([("s1", "t1"), ("s2", "t1"), ("s3", "t3")])
        table = {("s1", "t1"): 0.9, ("s2", "t1"): 0.4}
        resolved, released, conflicts = resolve_to_one_to_one(
            predictions, self._confidence_from_table(table), AlignmentSet()
        )
        assert conflicts == 1
        assert ("s1", "t1") in resolved
        assert ("s2", "t1") not in resolved
        assert released == {"s2"}
        assert ("s3", "t3") in resolved

    def test_full_repair_reassigns_released_source(self):
        sources = ["s1", "s2", "s3"]
        targets = ["t1", "t2", "t3"]
        predictions = AlignmentSet([("s1", "t1"), ("s2", "t1"), ("s3", "t3")])
        similarity = np.array(
            [
                [0.9, 0.2, 0.1],
                [0.8, 0.7, 0.1],
                [0.1, 0.2, 0.9],
            ]
        )
        table = {("s1", "t1"): 0.9, ("s2", "t1"): 0.4, ("s2", "t2"): 0.8}
        result = repair_one_to_many(
            predictions,
            similarity,
            sources,
            targets,
            confidence_batch=self._confidence_from_table(table),
            seed_alignment=AlignmentSet(),
            k=3,
        )
        assert result.alignment.is_one_to_one()
        assert ("s1", "t1") in result.alignment
        assert ("s2", "t2") in result.alignment
        assert ("s3", "t3") in result.alignment
        assert result.num_conflicts == 1
        assert not result.unaligned_sources

    def test_challenger_with_higher_confidence_takes_over(self):
        sources = ["s1", "s2"]
        targets = ["t1", "t2"]
        predictions = AlignmentSet([("s1", "t1"), ("s2", "t1")])
        similarity = np.array([[0.9, 0.1], [0.95, 0.05]])
        # s2 loses the initial arbitration but every candidate of s2 is t1,
        # and its confidence against the holder decides.
        table = {("s1", "t1"): 0.9, ("s2", "t1"): 0.3, ("s1", "t2"): 0.1, ("s2", "t2"): 0.2}
        result = repair_one_to_many(
            predictions,
            similarity,
            sources,
            targets,
            confidence_batch=self._confidence_from_table(table),
            seed_alignment=AlignmentSet(),
            k=2,
        )
        assert result.alignment.is_one_to_one()
        # both sources end up aligned because t2 was free
        assert result.alignment.sources() == {"s1", "s2"}

    def test_output_never_one_to_many(self):
        rng = np.random.default_rng(0)
        sources = [f"s{i}" for i in range(10)]
        targets = [f"t{i}" for i in range(10)]
        predictions = AlignmentSet((s, targets[rng.integers(0, 3)]) for s in sources)
        similarity = rng.random((10, 10))
        table = {}
        result = repair_one_to_many(
            predictions,
            similarity,
            sources,
            targets,
            confidence_batch=batch_oracle(lambda s, t, a: table.get((s, t), 0.5)),
            seed_alignment=AlignmentSet(),
            k=4,
        )
        assert not result.alignment.one_to_many_targets()


# ----------------------------------------------------------------------
# Algorithm 2: low-confidence conflicts
# ----------------------------------------------------------------------
class TestLowConfidenceRepair:
    def test_low_confidence_pairs_get_reassigned(self, core_dataset):
        gold = dict(sorted(core_dataset.test_alignment.pairs))
        sources = sorted(gold)
        # working alignment: two wrong pairs, rest correct
        working = AlignmentSet()
        wrong_sources = sources[:2]
        for source in sources:
            if source in wrong_sources:
                continue
            working.add(source, gold[source])
        working.add(wrong_sources[0], gold[wrong_sources[1]])
        working.add(wrong_sources[1], gold[wrong_sources[0]])

        def confidence(source, target, alignment):
            return 0.9 if gold.get(source) == target else 0.1

        def similarity(source, target):
            return 1.0 if gold.get(source) == target else 0.0

        repairer = LowConfidenceRepairer(
            dataset=core_dataset,
            confidence_batch=batch_oracle(confidence),
            similarity=similarity,
            seed_alignment=core_dataset.train_alignment,
            beta=0.5,
            k=5,
        )
        result = repairer.repair(working)
        assert result.num_low_confidence >= 2
        repaired_accuracy = result.alignment.accuracy(core_dataset.test_alignment)
        base_accuracy = working.accuracy(core_dataset.test_alignment)
        assert repaired_accuracy >= base_accuracy

    def test_candidates_come_from_matched_neighbourhoods(self, core_dataset):
        repairer = LowConfidenceRepairer(
            dataset=core_dataset,
            confidence_batch=batch_oracle(lambda s, t, a: 0.5),
            similarity=lambda s, t: 0.0,
            seed_alignment=core_dataset.train_alignment,
        )
        gold = dict(sorted(core_dataset.test_alignment.pairs))
        working = AlignmentSet(gold.items())
        source = sorted(gold)[0]
        candidates = repairer._candidates(source, working)
        assert isinstance(candidates, list)
        for candidate in candidates:
            assert candidate in core_dataset.kg2.entities

    def test_greedy_fallback_aligns_leftovers(self, core_dataset):
        gold = dict(sorted(core_dataset.test_alignment.pairs))
        sources = sorted(gold)
        working = AlignmentSet((s, gold[s]) for s in sources[2:])
        repairer = LowConfidenceRepairer(
            dataset=core_dataset,
            confidence_batch=batch_oracle(lambda s, t, a: 1.0),  # nothing flagged as low confidence
            similarity=lambda s, t: 1.0 if gold.get(s) == t else 0.0,
            seed_alignment=core_dataset.train_alignment,
        )
        result = repairer.repair(working, unaligned_sources=set(sources[:2]))
        assert result.alignment.sources() >= set(sources[:2])


# ----------------------------------------------------------------------
# Full pipeline
# ----------------------------------------------------------------------
class TestRepairPipeline:
    def test_repair_improves_accuracy(self, fitted_mtranse, core_dataset):
        repairer = EARepairer(fitted_mtranse, core_dataset)
        result = repairer.repair()
        assert result.repaired_accuracy >= result.base_accuracy
        assert result.accuracy_gain == pytest.approx(
            result.repaired_accuracy - result.base_accuracy
        )
        assert not result.repaired_alignment.one_to_many_targets()

    def test_repaired_alignment_covers_test_sources(self, fitted_mtranse, core_dataset):
        repairer = EARepairer(fitted_mtranse, core_dataset)
        result = repairer.repair()
        covered = result.repaired_alignment.sources()
        assert len(covered) >= 0.9 * len(core_dataset.test_sources())

    def test_disabling_stages(self, fitted_mtranse, core_dataset):
        full = EARepairer(fitted_mtranse, core_dataset).repair()
        no_cr2 = EARepairer(
            fitted_mtranse, core_dataset, RepairConfig(enable_one_to_many=False)
        ).repair()
        no_cr3 = EARepairer(
            fitted_mtranse, core_dataset, RepairConfig(enable_low_confidence=False)
        ).repair()
        assert full.one_to_many is not None
        assert no_cr2.one_to_many is None
        assert no_cr3.low_confidence is None
        # the ablated pipelines should not beat the full one by a large margin
        assert full.repaired_accuracy >= no_cr2.repaired_accuracy - 0.05

    def test_relation_conflicts_counted(self, fitted_mtranse, core_dataset):
        repairer = EARepairer(fitted_mtranse, core_dataset)
        result = repairer.repair()
        assert result.num_relation_conflicts >= 0
        no_cr1 = EARepairer(
            fitted_mtranse, core_dataset, RepairConfig(enable_relation_conflicts=False)
        ).repair()
        assert no_cr1.num_relation_conflicts == 0

    def test_reasoning_artifacts_cached(self, fitted_mtranse, core_dataset):
        repairer = EARepairer(fitted_mtranse, core_dataset)
        assert repairer.relation_alignment is repairer.relation_alignment
        rules1, rules2 = repairer.not_same_as_rules
        assert (rules1, rules2) == repairer.not_same_as_rules


# ----------------------------------------------------------------------
# ExEA facade
# ----------------------------------------------------------------------
class TestExEAFacade:
    def test_end_to_end(self, fitted_dual_amn, core_dataset):
        exea = ExEA(fitted_dual_amn, core_dataset)
        pair = sorted(core_dataset.test_alignment)[0]
        explanation = exea.explain(*pair)
        graph = exea.build_adg(explanation)
        assert graph.pair == pair
        assert 0.0 < exea.confidence(*pair) < 1.0
        result = exea.repair()
        assert result.repaired_accuracy >= result.base_accuracy - 0.02

    def test_verify_separates_correct_from_incorrect(self, fitted_dual_amn, core_dataset):
        exea = ExEA(fitted_dual_amn, core_dataset)
        gold = dict(sorted(core_dataset.test_alignment.pairs))
        sources = sorted(gold)[:20]
        targets = sorted({gold[s] for s in sources})
        correct_pairs = [(s, gold[s]) for s in sources[:10]]
        wrong_pairs = [(s, targets[(i + 3) % len(targets)]) for i, s in enumerate(sources[10:20])]
        wrong_pairs = [(s, t) for s, t in wrong_pairs if gold[s] != t]
        verdicts = exea.verify(correct_pairs + wrong_pairs)
        accepted_correct = sum(verdicts[p] for p in correct_pairs) / len(correct_pairs)
        accepted_wrong = sum(verdicts[p] for p in wrong_pairs) / max(len(wrong_pairs), 1)
        assert accepted_correct > accepted_wrong

    def test_explain_predictions_limit(self, fitted_dual_amn, core_dataset):
        exea = ExEA(fitted_dual_amn, core_dataset)
        explanations = exea.explain_predictions(limit=5)
        assert len(explanations) == 5

    def test_requires_fitted_model(self, core_dataset):
        from repro.models import MTransE

        with pytest.raises(ValueError):
            ExEA(MTransE(), core_dataset)

    def test_config_propagates_to_repairer(self, fitted_dual_amn, core_dataset):
        from repro.core import ADGConfig, ExplanationConfig

        config = ExEAConfig(
            explanation=ExplanationConfig(max_hops=1),
            adg=ADGConfig(alpha=0.7),
        )
        exea = ExEA(fitted_dual_amn, core_dataset, config)
        assert exea.repairer.config.adg.alpha == 0.7
        assert exea.repairer.config.explanation.max_hops == 1
