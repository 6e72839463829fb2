"""Relation alignment mining and ¬sameAs rule mining (Section IV-A).

Two ingredients feed the relation-alignment conflict detector:

* a **relation alignment** between the two KGs.  The paper encodes relation
  names with a pre-trained language model (BERT) when names are available
  and falls back to the EA model's relation embeddings otherwise; aligned
  relations are the mutual best matches.  This reproduction replaces BERT
  with a character-n-gram name encoder (documented in DESIGN.md) combined
  with the model's relation embeddings.
* a set of **¬sameAs rules** per KG: a pair of different relations
  ``(r1, r2)`` yields the rule ``(x, r1, y) ∧ (x, r2, z) → y ¬sameAs z``
  when the two relations never point a common subject at the same object
  but do co-occur on at least one subject with different objects (the
  paper's "real rule instance" condition).

Both are global functions of the graphs, yet live writes touch one
triple at a time, so neither is mined again in full per write.
Each graph keeps one incremental rule miner, shared by every caller in
the process: a triple ``(h, r, t)`` can only change subject ``h``'s
contribution to the rule set, so the miner catches up through
:meth:`KnowledgeGraph.mutations_since` by recomputing only the logged
heads, and falls back to one full scan on first use or a gap in the log.
The relation alignment is memoized per ``(model, kg1, kg2)`` and mined
again only when a relation inventory, ``model.embedding_version`` or the
arguments change.  Neither store is pickled with its graph, and neither
keeps a dropped graph or model alive.
"""

from __future__ import annotations

import threading
import weakref
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from ...embedding import cosine_matrix, greedy_match
from ...kg import KnowledgeGraph, Triple
from ...models import EAModel


# ----------------------------------------------------------------------
# Relation name similarity (BERT substitute)
# ----------------------------------------------------------------------
def _character_ngrams(text: str, n: int = 3) -> set[str]:
    cleaned = "".join(ch.lower() if ch.isalnum() else " " for ch in text)
    cleaned = " ".join(cleaned.split())
    padded = f"  {cleaned}  "
    return {padded[i:i + n] for i in range(len(padded) - n + 1)}


def relation_name_similarity(name1: str, name2: str) -> float:
    """Dice similarity of character trigrams of two relation names."""
    grams1 = _character_ngrams(name1)
    grams2 = _character_ngrams(name2)
    if not grams1 or not grams2:
        return 0.0
    return 2.0 * len(grams1 & grams2) / (len(grams1) + len(grams2))


# ----------------------------------------------------------------------
# Relation alignment
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RelationAlignment:
    """Mutual mapping between relations of the two KGs."""

    forward: dict[str, str] = field(default_factory=dict)

    def counterpart(self, relation: str) -> str | None:
        """The KG2 relation aligned with a KG1 relation (or vice versa)."""
        if relation in self.forward:
            return self.forward[relation]
        for source, target in self.forward.items():
            if target == relation:
                return source
        return None

    def are_aligned(self, relation1: str, relation2: str) -> bool:
        return self.forward.get(relation1) == relation2

    def __len__(self) -> int:
        return len(self.forward)

    def pairs(self) -> list[tuple[str, str]]:
        return sorted(self.forward.items())


@dataclass
class _AlignmentMemo:
    """The relation alignment last mined for one ``(model, kg1, kg2)``."""

    key: tuple  #: ``(name_weight, min_score, model.embedding_version)``
    inventories: tuple[frozenset[str], frozenset[str]]
    alignment: RelationAlignment
    #: graph versions the inventories were last confirmed at
    versions: tuple[int, int]


#: model -> kg1 -> kg2 -> memo; weak at every level, so a dropped model or
#: graph takes its entries with it.
_ALIGNMENTS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
_ALIGNMENTS_LOCK = threading.Lock()


def mine_relation_alignment(
    model: EAModel,
    kg1: KnowledgeGraph,
    kg2: KnowledgeGraph,
    name_weight: float = 0.5,
    min_score: float = 0.3,
) -> RelationAlignment:
    """Greedy mutual matching of relations across the two KGs.

    The matching score blends name similarity (the BERT stand-in) with the
    cosine similarity of the model's relation embeddings.  Greedy matching
    (highest scores first, each relation used once) keeps only pairs above
    ``min_score``.

    The result depends on the graphs only through their relation
    inventories, so it is memoized per ``(model, kg1, kg2)`` and mined
    again only when an inventory, ``model.embedding_version`` or an
    argument changes.  A graph write that keeps both inventories (every
    ``remove_triple`` does) costs one inventory comparison.  GCN-Align's
    Eq. 1 relation matrix is cached on the model at first use and only a
    refit refreshes it, with or without this memo.
    """
    key = (name_weight, min_score, model.embedding_version)
    versions = (kg1.version, kg2.version)
    with _ALIGNMENTS_LOCK:
        by_kg1 = _ALIGNMENTS.setdefault(model, weakref.WeakKeyDictionary())
        by_kg2 = by_kg1.setdefault(kg1, weakref.WeakKeyDictionary())
        memo = by_kg2.get(kg2)
        if memo is not None and memo.key == key and memo.versions == versions:
            return memo.alignment
        inventories = (frozenset(kg1.relations), frozenset(kg2.relations))
        if memo is None or memo.key != key or memo.inventories != inventories:
            alignment = _scan_relation_alignment(
                model, sorted(inventories[0]), sorted(inventories[1]), name_weight, min_score
            )
            memo = by_kg2[kg2] = _AlignmentMemo(key, inventories, alignment, versions)
        memo.versions = versions
        return memo.alignment


def _scan_relation_alignment(
    model: EAModel,
    relations1: list[str],
    relations2: list[str],
    name_weight: float,
    min_score: float,
) -> RelationAlignment:
    """Score every relation pair and match greedily (no memo)."""
    if not relations1 or not relations2:
        return RelationAlignment()
    name_scores = np.array(
        [[relation_name_similarity(r1, r2) for r2 in relations2] for r1 in relations1]
    )
    embeddings1 = np.stack([model.relation_embedding(r) for r in relations1])
    embeddings2 = np.stack([model.relation_embedding(r) for r in relations2])
    embedding_scores = cosine_matrix(embeddings1, embeddings2)
    scores = name_weight * name_scores + (1.0 - name_weight) * embedding_scores

    forward: dict[str, str] = {}
    for i, j in greedy_match(scores):
        if scores[i, j] < min_score:
            continue
        forward[relations1[i]] = relations2[j]
    return RelationAlignment(forward=forward)


# ----------------------------------------------------------------------
# ¬sameAs rules
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class NotSameAsRule:
    """Rule ``(x, relation1, y) ∧ (x, relation2, z) → (y, ¬sameAs, z)``."""

    relation1: str
    relation2: str

    def involves(self, relation1: str, relation2: str) -> bool:
        """True if the rule covers the (unordered) relation pair."""
        return {relation1, relation2} == {self.relation1, self.relation2}


class NotSameAsRuleSet:
    """Set of ¬sameAs rules mined from one KG, indexed for fast lookup."""

    def __init__(self, rules: list[NotSameAsRule] | None = None) -> None:
        self._pairs: set[frozenset[str]] = set()
        for rule in rules or []:
            self.add(rule)

    def add(self, rule: NotSameAsRule) -> None:
        self._pairs.add(frozenset((rule.relation1, rule.relation2)))

    def applies(self, relation1: str, relation2: str) -> bool:
        """True if a rule exists for the (unordered) relation pair."""
        if relation1 == relation2:
            return False
        return frozenset((relation1, relation2)) in self._pairs

    def __len__(self) -> int:
        return len(self._pairs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NotSameAsRuleSet):
            return NotImplemented
        return self._pairs == other._pairs

    def __hash__(self) -> int:
        return hash(frozenset(self._pairs))

    def __iter__(self):
        for pair in sorted(tuple(sorted(p)) for p in self._pairs):
            yield NotSameAsRule(*pair)

    @classmethod
    def _of_pairs(cls, pairs: set[frozenset[str]]) -> "NotSameAsRuleSet":
        """A rule set over *pairs*, which it takes ownership of."""
        rules = cls()
        rules._pairs = pairs
        return rules


#: One relation pair, its two names sorted.
_Pair = tuple[str, str]


def _subject_pairs(triples: Iterable[Triple]) -> tuple[tuple[_Pair, ...], tuple[_Pair, ...]]:
    """The relation pairs one subject makes *candidate* and *violating*.

    *triples* are the subject's outgoing triples.  A pair is violating
    when the two relations point the subject at a common object (the rule
    would be wrong), and a candidate when they point it at different
    objects (a real rule instance).
    """
    objects_by_relation: dict[str, set[str]] = defaultdict(set)
    for triple in triples:
        objects_by_relation[triple.relation].add(triple.tail)
    relations = sorted(objects_by_relation)
    candidate: list[_Pair] = []
    violating: list[_Pair] = []
    for i, relation1 in enumerate(relations):
        objects1 = objects_by_relation[relation1]
        for relation2 in relations[i + 1:]:
            objects2 = objects_by_relation[relation2]
            if not objects1.isdisjoint(objects2):
                violating.append((relation1, relation2))
            if objects1 != objects2:
                candidate.append((relation1, relation2))
    return tuple(candidate), tuple(violating)


class _RuleMiner:
    """The ¬sameAs rule set of one graph, kept current from its mutation log.

    Per subject it keeps the relation pairs that subject makes candidate
    or violating, and per pair how many subjects do each.  A rule is a
    pair with at least one candidate subject and no violating subject.
    """

    def __init__(self) -> None:
        self.lock = threading.Lock()
        #: graph version the state reflects (None = never scanned)
        self.version: int | None = None
        #: replaced, never changed in place, when the rules move
        self.rules = NotSameAsRuleSet()
        self._subjects: dict[str, tuple[tuple[_Pair, ...], tuple[_Pair, ...]]] = {}
        self._candidates: dict[_Pair, int] = {}
        self._violations: dict[_Pair, int] = {}

    def rules_of(self, kg: KnowledgeGraph) -> NotSameAsRuleSet:
        """The rules of *kg* at its current version (callers serialise on ``lock``)."""
        version = kg.version
        if version != self.version:
            records = None if self.version is None else kg.mutations_since(self.version)
            if records is None:
                self._scan(kg)
            else:
                heads = {record.triple.head for record in records if record.triple is not None}
                self._update(kg, heads)
            self.version = version
        return self.rules

    def _scan(self, kg: KnowledgeGraph) -> None:
        """Rebuild from every subject of *kg* (first use, or a gap in the log)."""
        self._subjects.clear()
        self._candidates.clear()
        self._violations.clear()
        self.rules = NotSameAsRuleSet()
        self._update(kg, {triple.head for triple in kg.triples})

    def _update(self, kg: KnowledgeGraph, heads: set[str]) -> None:
        """Recompute the contributions of *heads* from the live graph."""
        touched: set[_Pair] = set()
        for head in heads:
            old = self._subjects.pop(head, ((), ()))
            new = _subject_pairs(kg.outgoing(head))
            if new[0] or new[1]:
                self._subjects[head] = new
            if new == old:
                continue
            _shift(self._candidates, old[0], -1, touched)
            _shift(self._violations, old[1], -1, touched)
            _shift(self._candidates, new[0], 1, touched)
            _shift(self._violations, new[1], 1, touched)
        current = self.rules._pairs
        added: set[frozenset[str]] = set()
        dropped: set[frozenset[str]] = set()
        for pair in touched:
            as_set = frozenset(pair)
            is_rule = pair in self._candidates and pair not in self._violations
            if is_rule and as_set not in current:
                added.add(as_set)
            elif not is_rule and as_set in current:
                dropped.add(as_set)
        if added or dropped:
            self.rules = NotSameAsRuleSet._of_pairs((current - dropped) | added)


def _shift(counts: dict[_Pair, int], pairs: tuple[_Pair, ...], delta: int, touched: set[_Pair]) -> None:
    """Add *delta* to the count of every pair, dropping counts that reach 0."""
    for pair in pairs:
        count = counts.get(pair, 0) + delta
        if count:
            counts[pair] = count
        else:
            del counts[pair]
    touched.update(pairs)


#: graph -> its rule miner.  Weak, so a dropped graph takes its miner with
#: it; outside the graph, so a pickled graph carries no miner.
_MINERS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
_MINERS_LOCK = threading.Lock()


def mine_not_same_as_rules(kg: KnowledgeGraph) -> NotSameAsRuleSet:
    """Mine ¬sameAs rules from a single KG.

    For an ordered relation pair to yield a rule, two conditions must hold:

    1. the relations never share a (subject, object) pair — otherwise the
       objects can clearly coincide;
    2. at least one subject has both relations with different objects — the
       "real rule instance" filter the paper adds to avoid vacuous rules.

    The result is exactly what a full scan of the current graph returns.
    It is served from the graph's incremental miner, which recomputes
    only the subjects of the triples written since its last call and
    scans the whole graph on first use or a gap in the mutation log.
    The returned set is never changed afterwards: a later write that
    moves the rules yields a new set.  Safe to call from several threads.
    """
    with _MINERS_LOCK:
        miner = _MINERS.get(kg)
        if miner is None:
            miner = _MINERS[kg] = _RuleMiner()
    with miner.lock:
        return miner.rules_of(kg)
