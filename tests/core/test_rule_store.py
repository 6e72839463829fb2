"""Differential tests of the shared stores behind the mined cr1 artefacts.

``mine_not_same_as_rules`` serves each graph's rules from an incremental
miner that applies the mutation log, and ``mine_relation_alignment``
serves a memo.  After every step of seeded random write sequences both
must equal a cold mine on ``kg.copy()`` — a fresh graph object whose
miner has never run — including new relations, a subject losing and
regaining its only triple of a relation, ``add_entity``, and a burst of
writes longer than the mutation log.
"""

import gc
import pickle
import random
import sys
import threading
import weakref

import pytest

from repro.core.repair import rules
from repro.core.repair.rules import mine_not_same_as_rules, mine_relation_alignment
from repro.datasets import load_benchmark
from repro.kg import EADataset, KnowledgeGraph, Triple
from repro.kg.graph import MUTATION_LOG_CAPACITY
from repro.models import MTransE, TrainingConfig


@pytest.fixture()
def zh_en():
    """A small ZH-EN instance (≈125 entities and ≈280 triples per KG)."""
    return load_benchmark("ZH-EN", scale=0.3)


@pytest.fixture()
def scans(monkeypatch):
    """Every graph a rule miner scanned in full, in order."""
    scanned = []
    full_scan = rules._RuleMiner._scan

    def counting_scan(miner, kg):
        scanned.append(kg)
        return full_scan(miner, kg)

    monkeypatch.setattr(rules._RuleMiner, "_scan", counting_scan)
    return scanned


def _cold_rules(kg):
    return mine_not_same_as_rules(kg.copy())


def _sole_triple_of_relation(kg, rng):
    """A triple that is its head's only triple of that relation."""
    candidates = [
        triple
        for triple in sorted(kg.triples, key=lambda t: t.as_tuple())
        if sum(1 for other in kg.outgoing(triple.head) if other.relation == triple.relation) == 1
    ]
    return rng.choice(candidates)


def _random_writes(kg, seed: int, steps: int):
    """Yield after each of *steps* seeded writes to *kg*."""
    rng = random.Random(seed)
    entities = sorted(kg.entities)
    relations = sorted(kg.relations)
    for step in range(steps):
        roll = rng.random()
        if roll < 0.35:
            kg.remove_triple(rng.choice(sorted(kg.triples, key=lambda t: t.as_tuple())))
        elif roll < 0.75:
            kg.add_triple(Triple(rng.choice(entities), rng.choice(relations), rng.choice(entities)))
        elif roll < 0.85:
            relation = f"new_relation_{step}"
            relations.append(relation)
            kg.add_triple(Triple(rng.choice(entities), relation, rng.choice(entities)))
        elif roll < 0.9:
            # A head writing a second triple of a relation it already has.
            triple = rng.choice(sorted(kg.triples, key=lambda t: t.as_tuple()))
            kg.add_triple(Triple(triple.head, triple.relation, rng.choice(entities)))
        elif roll < 0.95:
            entity = f"new_entity_{step}"
            entities.append(entity)
            kg.add_entity(entity)
        else:
            triple = _sole_triple_of_relation(kg, rng)
            kg.remove_triple(triple)
            yield
            kg.add_triple(triple)
        yield


class TestIncrementalRules:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_every_step_equals_a_cold_full_scan(self, zh_en, scans, seed):
        for side, kg in enumerate((zh_en.kg1, zh_en.kg2)):
            assert mine_not_same_as_rules(kg) == _cold_rules(kg)
            for _ in _random_writes(kg, seed * 10 + side, steps=300):
                assert mine_not_same_as_rules(kg) == _cold_rules(kg)
            # One scan on first use; every later step applied the log.
            assert sum(1 for scanned in scans if scanned is kg) == 1

    def test_batched_writes_between_reads_equal_a_cold_full_scan(self, zh_en, scans):
        kg = zh_en.kg1
        mine_not_same_as_rules(kg)
        writes = _random_writes(kg, seed=7, steps=300)
        for _ in range(30):
            for _ in range(10):
                next(writes, None)
            assert mine_not_same_as_rules(kg) == _cold_rules(kg)
        assert sum(1 for scanned in scans if scanned is kg) == 1

    def test_removing_and_readding_a_sole_triple_moves_the_rules_back(self, zh_en):
        kg = zh_en.kg1
        before = mine_not_same_as_rules(kg)
        triple = _sole_triple_of_relation(kg, random.Random(3))
        kg.remove_triple(triple)
        assert mine_not_same_as_rules(kg) == _cold_rules(kg)
        kg.add_triple(triple)
        assert mine_not_same_as_rules(kg) == before

    def test_a_burst_past_the_log_falls_back_to_one_full_scan(self, zh_en, scans):
        kg = zh_en.kg1
        mine_not_same_as_rules(kg)
        mined_at = kg.version
        triple = sorted(kg.triples, key=lambda t: t.as_tuple())[0]
        for _ in range(MUTATION_LOG_CAPACITY // 2 + 1):
            kg.remove_triple(triple)
            kg.add_triple(triple)
        kg.add_triple(Triple(triple.head, "burst_relation", triple.tail))
        assert kg.mutations_since(mined_at) is None
        assert mine_not_same_as_rules(kg) == _cold_rules(kg)
        assert sum(1 for scanned in scans if scanned is kg) == 2

    def test_a_returned_rule_set_is_never_changed_in_place(self, zh_en):
        kg = zh_en.kg1
        before = mine_not_same_as_rules(kg)
        frozen = set(before)
        for _ in _random_writes(kg, seed=5, steps=60):
            mine_not_same_as_rules(kg)
        assert mine_not_same_as_rules(kg) != before
        assert set(before) == frozen

    def test_unchanged_rules_come_back_as_the_same_object(self, zh_en):
        kg = zh_en.kg1
        before = mine_not_same_as_rules(kg)
        kg.add_entity("isolated")
        assert mine_not_same_as_rules(kg) is before

    def test_the_miner_is_not_pickled_and_does_not_keep_its_graph_alive(self, zh_en):
        kg = KnowledgeGraph(zh_en.kg1.triples)
        size = len(pickle.dumps(kg))
        mine_not_same_as_rules(kg)
        assert len(pickle.dumps(kg)) == size
        assert kg in rules._MINERS
        ref = weakref.ref(kg)
        del kg
        gc.collect()
        assert ref() is None


class TestConcurrentReaders:
    def test_threads_catching_up_together_agree_with_a_cold_scan(self, zh_en):
        """Worker threads share each graph's miner: after every write
        batch, readers racing the catch-up must all get one rule set equal
        to a cold scan (a lost or doubled per-head update would not)."""
        kg = zh_en.kg1
        mine_not_same_as_rules(kg)
        writes = _random_writes(kg, seed=11, steps=200)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                for _ in range(10):
                    next(writes, None)
                barrier = threading.Barrier(4)
                results = []

                def read():
                    barrier.wait(timeout=10)
                    results.append(mine_not_same_as_rules(kg))

                readers = [threading.Thread(target=read) for _ in range(4)]
                for reader in readers:
                    reader.start()
                for reader in readers:
                    reader.join(timeout=10)
                    assert not reader.is_alive()
                assert len(results) == 4
                assert all(result is results[0] for result in results)
                assert results[0] == _cold_rules(kg)
        finally:
            sys.setswitchinterval(interval)


class TestRelationAlignmentMemo:
    def test_equals_a_cold_mine_across_writes_new_relations_and_refits(self, zh_en, monkeypatch):
        relation = sorted(zh_en.kg1.relations)[0]
        # kg1 starts without `relation`; the model still knows it through kg2.
        kg1 = zh_en.kg1.without_triples(zh_en.kg1.triples_with_relation(relation))
        dataset = EADataset(kg1, zh_en.kg2, zh_en.train_alignment, zh_en.test_alignment)
        kg2 = dataset.kg2
        model = MTransE(TrainingConfig(dim=16, epochs=20, seed=1)).fit(dataset)

        mined = []
        scan = rules._scan_relation_alignment

        def counting_scan(*args):
            mined.append(args[0])
            return scan(*args)

        monkeypatch.setattr(rules, "_scan_relation_alignment", counting_scan)

        def cold():
            return mine_relation_alignment(model, kg1.copy(), kg2.copy())

        first = mine_relation_alignment(model, kg1, kg2)
        assert first == cold()
        assert relation not in first.forward

        # Writes that keep both inventories are served from the memo.
        mined.clear()
        kg1.remove_triple(sorted(kg1.triples, key=lambda t: t.as_tuple())[0])
        kg2.add_entity("isolated")
        assert mine_relation_alignment(model, kg1, kg2) is first
        assert mined == []

        # A relation new to kg1 changes its inventory.
        head, tail = sorted(kg1.entities)[:2]
        kg1.add_triple(Triple(head, relation, tail))
        grown = mine_relation_alignment(model, kg1, kg2)
        assert grown == cold()
        assert grown.forward.get(relation) == relation

        # A relation the model never saw fails exactly like a cold mine...
        kg1.add_triple(Triple(head, "unseen_relation", tail))
        with pytest.raises(KeyError):
            mine_relation_alignment(model, kg1, kg2)
        with pytest.raises(KeyError):
            cold()
        # ...until a refit learns it.
        model.fit(dataset)
        assert mine_relation_alignment(model, kg1, kg2) == cold()

    def test_arguments_are_part_of_the_key(self, zh_en):
        model = MTransE(TrainingConfig(dim=16, epochs=20, seed=1)).fit(zh_en)
        kg1, kg2 = zh_en.kg1, zh_en.kg2
        loose = mine_relation_alignment(model, kg1, kg2)
        assert len(loose) > 0
        assert mine_relation_alignment(model, kg1, kg2, min_score=1.5) == rules.RelationAlignment()
        assert mine_relation_alignment(model, kg1, kg2) == loose
