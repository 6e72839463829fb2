"""The full ExEA repair pipeline: cr1 + cr2 + cr3 (Section IV).

The pipeline takes the base model's predictions ``A_res`` and repairs them
by resolving the three conflict types in order:

1. **relation-alignment conflicts (cr1)** — soft: conflicting neighbour
   nodes are removed from ADGs so the affected pairs lose confidence;
2. **one-to-many conflicts (cr2)** — Algorithm 1;
3. **low-confidence conflicts (cr3)** — Algorithm 2.

Each stage can be disabled individually, which is what the ablation
experiments of Table IV and Fig. 6 measure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ...kg import AlignmentSet, EADataset
from ...models import EAModel
from ..adg import ADGBuilder, ADGConfig, AlignmentDependencyGraph, low_confidence_threshold
from ..explanation import Explanation, ExplanationConfig, ExplanationGenerator
from .low_confidence import LowConfidenceRepairer, LowConfidenceRepairResult
from .one_to_many import OneToManyRepairResult, repair_one_to_many
from .relation_conflicts import RelationConflictResolver
from .rules import (
    NotSameAsRuleSet,
    RelationAlignment,
    mine_not_same_as_rules,
    mine_relation_alignment,
)


@dataclass
class RepairConfig:
    """Configuration of the repair pipeline.

    The three ``enable_*`` switches correspond to cr1 / cr2 / cr3 in the
    paper's ablation study.
    """

    enable_relation_conflicts: bool = True
    enable_one_to_many: bool = True
    enable_low_confidence: bool = True
    candidate_k: int = 5
    score_alpha: float = 1.0
    beta: float | None = None
    max_iterations: int = 10
    explanation: ExplanationConfig = field(default_factory=ExplanationConfig)
    adg: ADGConfig = field(default_factory=ADGConfig)


@dataclass
class RepairResult:
    """Outcome of the full repair pipeline."""

    base_alignment: AlignmentSet
    repaired_alignment: AlignmentSet
    base_accuracy: float
    repaired_accuracy: float
    num_relation_conflicts: int = 0
    one_to_many: OneToManyRepairResult | None = None
    low_confidence: LowConfidenceRepairResult | None = None

    @property
    def accuracy_gain(self) -> float:
        """Δacc, the improvement reported in Table III."""
        return self.repaired_accuracy - self.base_accuracy


class EARepairer:
    """Repairs the EA results of a fitted model using ExEA explanations."""

    def __init__(
        self,
        model: EAModel,
        dataset: EADataset | None = None,
        config: RepairConfig | None = None,
    ) -> None:
        if not model.is_fitted:
            raise ValueError("the EA model must be fitted before repairing its results")
        self.model = model
        self.dataset = dataset or model.dataset
        if self.dataset is None:
            raise ValueError("a dataset is required (none attached to the model)")
        self.config = config or RepairConfig()
        self.generator = ExplanationGenerator(model, self.dataset, self.config.explanation)
        self.adg_builder = ADGBuilder(model, self.dataset, self.config.adg)
        #: built from the mined artefacts current when it was first needed;
        #: the cached confidences that consulted it were computed under them
        self._conflict_resolver: RelationConflictResolver | None = None
        self._similarity_cache: dict[tuple[str, str], float] = {}
        self._similarity_version: int = model.embedding_version
        #: key -> (confidence, relation conflicts resolved by that ADG build)
        self._confidence_cache: dict[tuple, tuple[float, int]] = {}
        self._confidence_token: tuple[int, int, int] | None = None
        self._num_relation_conflicts = 0

    # ------------------------------------------------------------------
    # Mined reasoning artefacts
    # ------------------------------------------------------------------
    def _token(self) -> tuple[int, int, int]:
        return (
            self.dataset.kg1.version,
            self.dataset.kg2.version,
            self.model.embedding_version,
        )

    @property
    def relation_alignment(self) -> RelationAlignment:
        """Mutual relation alignment between the two KGs, current with the graphs.

        Served from the memo in :mod:`.rules`, shared with every other
        caller in the process.
        """
        return mine_relation_alignment(self.model, self.dataset.kg1, self.dataset.kg2)

    @property
    def not_same_as_rules(self) -> tuple[NotSameAsRuleSet, NotSameAsRuleSet]:
        """¬sameAs rule sets of the two KGs, current with the graphs.

        Served from each graph's incremental miner in :mod:`.rules`.
        """
        return mine_not_same_as_rules(self.dataset.kg1), mine_not_same_as_rules(self.dataset.kg2)

    @property
    def conflict_resolver(self) -> RelationConflictResolver:
        """The cr1 resolver, built from the artefacts current at its first use.

        Reaching it first reconciles the confidence cache with the graphs
        (:meth:`_sync_confidence_cache`), which drops a resolver whose
        artefacts a write has superseded.
        """
        token = self._token()
        if token != self._confidence_token:
            self._sync_confidence_cache(token)
        if self._conflict_resolver is None:
            rules_kg1, rules_kg2 = self.not_same_as_rules
            self._conflict_resolver = RelationConflictResolver(
                self.dataset.kg1,
                self.dataset.kg2,
                self.relation_alignment,
                rules_kg1,
                rules_kg2,
            )
        return self._conflict_resolver

    def _mined_artifacts_changed(self) -> bool:
        """True when the resolver's artefacts differ from the current ones.

        The resolver holds the artefacts every cached confidence that
        consulted it was computed under; the current ones come from the
        shared stores, which catch up on writes without a full scan.
        Without a resolver no cached confidence consulted the artefacts,
        so they do not count as changed.
        """
        resolver = self._conflict_resolver
        if resolver is None:
            return False
        used = (resolver.relation_alignment, resolver.rules_kg1, resolver.rules_kg2)
        return used != (self.relation_alignment, *self.not_same_as_rules)

    # ------------------------------------------------------------------
    # Confidence oracle shared by the repair stages
    # ------------------------------------------------------------------
    def explain(self, source: str, target: str, alignment: AlignmentSet) -> Explanation:
        """Explanation of the pair under the given working alignment."""
        return self.generator.explain(source, target, alignment)

    def build_adg(
        self, explanation: Explanation, resolve_conflicts: bool | None = None
    ) -> AlignmentDependencyGraph:
        """ADG of *explanation*, with cr1 filtering applied when enabled."""
        graph = self.adg_builder.build(explanation)
        if resolve_conflicts is None:
            resolve_conflicts = self.config.enable_relation_conflicts
        if resolve_conflicts and graph.edges:
            conflicts = self.conflict_resolver.resolve(graph, self.adg_builder)
            self._num_relation_conflicts += len(conflicts)
        return graph

    def confidence(self, source: str, target: str, alignment: AlignmentSet) -> float:
        """Explanation confidence of a candidate pair under *alignment* (memoized).

        The batch-of-one case of :meth:`confidence_batch` — single and
        batched queries run through the same gather / explain / build path
        and produce bit-identical confidences.
        """
        return self.confidence_batch([(source, target)], alignment)[(source, target)]

    def confidence_batch(
        self,
        pairs: list[tuple[str, str]],
        alignment: AlignmentSet,
    ) -> dict[tuple[str, str], float]:
        """Explanation confidences of many candidate pairs under one *alignment*.

        The explanation — and therefore its ADG and confidence — depends on
        the alignment only through the matched-neighbour pairs of each
        ``(source, target)``, so results are memoized on the key
        ``(pair, matched-neighbour fingerprint)``.  Repair iterations that
        shuffle unrelated parts of the working alignment hit the cache
        instead of rebuilding the same explanation and ADG.  A model refit
        drops the cache wholesale; KG mutations evict only the entries in
        the mutation's relation-seeded blast radius when possible (see
        :meth:`_sync_confidence_cache`).

        Batching happens at three levels for the pairs that miss the
        cache: their matched-neighbour sets are gathered first, one
        :meth:`~repro.core.engine.ExplanationEngine.explain_batch` call
        embeds every new relation path through the engine's shared
        path-embedding store, and :meth:`~repro.core.adg.ADGBuilder.build_many`
        constructs the ADGs with node influences deduplicated across the
        batch.  Each step preserves bit-identity with the scalar path, so
        ``confidence_batch(pairs)[p] == confidence(*p)`` exactly.

        Each cache entry also remembers how many relation conflicts its
        ADG build resolved, and replays that count on every hit, so the
        per-run ``num_relation_conflicts`` statistic matches the uncached
        implementation (which re-counted on every query).  Duplicate pairs
        collapse: each unique pair is counted once per call.
        """
        token = self._token()
        if token != self._confidence_token:
            self._sync_confidence_cache(token)

        unique_pairs = list(dict.fromkeys(pairs))
        fingerprints: dict[tuple[str, str], list[tuple[str, str]]] = {}
        keys: dict[tuple[str, str], tuple] = {}
        for source, target in unique_pairs:
            neighbor_pairs = self.generator.matched_neighbors(source, target, alignment)
            fingerprints[(source, target)] = neighbor_pairs
            keys[(source, target)] = (source, target, tuple(neighbor_pairs))

        missing = [pair for pair in unique_pairs if keys[pair] not in self._confidence_cache]
        if missing:
            explanations = self.generator.engine.explain_batch(
                missing,
                alignment,
                neighbor_pairs_by_pair={pair: fingerprints[pair] for pair in missing},
            )
            graphs = self.adg_builder.build_many([explanations[pair] for pair in missing])
            resolve = self.config.enable_relation_conflicts
            for pair, graph in zip(missing, graphs):
                conflicts_before = self._num_relation_conflicts
                if resolve and graph.edges:
                    conflicts = self.conflict_resolver.resolve(graph, self.adg_builder)
                    self._num_relation_conflicts += len(conflicts)
                self._confidence_cache[keys[pair]] = (
                    graph.confidence,
                    self._num_relation_conflicts - conflicts_before,
                )

        missing_set = set(missing)
        results: dict[tuple[str, str], float] = {}
        for pair in unique_pairs:
            confidence, conflict_count = self._confidence_cache[keys[pair]]
            if pair not in missing_set:
                # Cache hits replay the conflict count their build contributed.
                self._num_relation_conflicts += conflict_count
            results[pair] = confidence
        return results

    def _sync_confidence_cache(self, token: tuple[int, int, int]) -> None:
        """Reconcile the confidence cache (and the cr1 resolver) with a generation change.

        A model refit drops everything (including the similarity cache).
        A pure KG mutation tries the scoped path: when both graphs'
        mutation logs cover the span *and* the mined reasoning artefacts
        the cached confidences used equal the current ones, only entries
        whose pair falls inside the relation-seeded blast radius are
        evicted — confidence depends on the global functionality
        statistics of mutated relations, so the ball is seeded with every
        endpoint of every triple carrying a mutated relation (see
        :meth:`KnowledgeGraph.blast_radius`).  The artefact check mines
        nothing in full: the relation-alignment memo and each
        graph's rule miner apply only the logged writes.  If a log cannot
        cover the span or the artefacts moved (they are global functions
        of the graphs), fall back to the wholesale drop, which also drops
        the resolver so its next use is built from the current artefacts.
        """
        old = self._confidence_token
        self._confidence_token = token
        refit = old is not None and token[2] != old[2]
        if refit:
            self._similarity_cache.clear()
        records1 = records2 = None
        if old is not None and self._confidence_cache and not refit:
            records1 = self.dataset.kg1.mutations_since(old[0])
            records2 = self.dataset.kg2.mutations_since(old[1])
        if records1 is None or records2 is None or self._mined_artifacts_changed():
            self._confidence_cache.clear()
            self._conflict_resolver = None
            return
        hops = self.config.explanation.max_hops
        blast1 = self.dataset.kg1.blast_radius(records1, hops, include_relations=True)
        blast2 = self.dataset.kg2.blast_radius(records2, hops, include_relations=True)
        for key in [k for k in self._confidence_cache if k[0] in blast1 or k[1] in blast2]:
            del self._confidence_cache[key]

    def similarity(self, source: str, target: str) -> float:
        """Cached model similarity of a pair (dropped on model refit)."""
        if self.model.embedding_version != self._similarity_version:
            self._similarity_cache.clear()
            self._similarity_version = self.model.embedding_version
        key = (source, target)
        if key not in self._similarity_cache:
            self._similarity_cache[key] = self.model.similarity(source, target)
        return self._similarity_cache[key]

    # ------------------------------------------------------------------
    # Full pipeline
    # ------------------------------------------------------------------
    def repair(self, predictions: AlignmentSet | None = None) -> RepairResult:
        """Repair the model's predictions and return the detailed outcome."""
        config = self.config
        self._num_relation_conflicts = 0
        gold = self.dataset.test_alignment
        if predictions is None:
            predictions = self.model.predict()
        source_entities = sorted(self.dataset.test_sources())
        target_entities = sorted(self.dataset.test_targets())
        similarity_matrix = self.model.similarity_matrix(source_entities, target_entities)

        beta = config.beta
        if beta is None:
            beta = low_confidence_threshold(config.adg.theta)

        working = predictions.copy()
        unaligned: set[str] = set()
        one_to_many_result: OneToManyRepairResult | None = None
        low_confidence_result: LowConfidenceRepairResult | None = None

        if config.enable_one_to_many:
            one_to_many_result = repair_one_to_many(
                working,
                similarity_matrix,
                source_entities,
                target_entities,
                confidence_batch=self.confidence_batch,
                seed_alignment=self.dataset.train_alignment,
                k=config.candidate_k,
                max_iterations=config.max_iterations,
            )
            working = one_to_many_result.alignment
            unaligned = set(one_to_many_result.unaligned_sources)

        if config.enable_low_confidence:
            repairer = LowConfidenceRepairer(
                dataset=self.dataset,
                confidence_batch=self.confidence_batch,
                similarity=self.similarity,
                seed_alignment=self.dataset.train_alignment,
                beta=beta,
                score_alpha=config.score_alpha,
                k=config.candidate_k,
                max_iterations=config.max_iterations,
                allow_takeover=config.enable_one_to_many,
            )
            low_confidence_result = repairer.repair(working, unaligned)
            working = low_confidence_result.alignment

        return RepairResult(
            base_alignment=predictions,
            repaired_alignment=working,
            base_accuracy=predictions.accuracy(gold),
            repaired_accuracy=working.accuracy(gold),
            num_relation_conflicts=self._num_relation_conflicts,
            one_to_many=one_to_many_result,
            low_confidence=low_confidence_result,
        )
