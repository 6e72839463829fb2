"""Low-confidence conflict repair — Algorithm 2 of the paper (Section IV-C).

After the one-to-many resolution some alignment pairs lose their matched
neighbours and end up with explanations that no longer support them
(no strongly-influential edges → confidence below ``beta = sigmoid(0)``).
Those pairs are released and re-aligned: for every unaligned source the
repair searches candidate targets whose neighbourhood can form a confident
explanation, scores them by ``confidence + alpha * model similarity``
(balancing local explanation evidence against the model's global view),
and arbitrates collisions by the same score.  Sources that still cannot be
aligned at the end are greedily matched with the remaining free targets.

Confidence comes from a batch oracle, one call per scoring round: each
iteration scores every unprotected working pair at once, and each
unaligned source scores all of its candidates at once.  The working
alignment does not change inside a round.  A challenged holder is scored
only when a collision needs it, as a batch of one, so no confidence is
computed that a pair-at-a-time loop would not compute.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ...kg import AlignmentSet, AlignmentUnionView, EADataset
from .one_to_many import ConfidenceBatchFn

#: ``similarity(source, target)`` from the original EA model.
SimilarityFn = Callable[[str, str], float]


@dataclass
class LowConfidenceRepairResult:
    """Outcome of the low-confidence repair stage."""

    alignment: AlignmentSet
    num_low_confidence: int = 0
    num_reassigned: int = 0
    num_greedy_fallback: int = 0
    iterations: int = 0
    released_pairs: list[tuple[str, str]] = field(default_factory=list)


class LowConfidenceRepairer:
    """Implements Algorithm 2 on top of a batch confidence / similarity oracle."""

    def __init__(
        self,
        dataset: EADataset,
        confidence_batch: ConfidenceBatchFn,
        similarity: SimilarityFn,
        seed_alignment: AlignmentSet,
        beta: float = 0.5,
        score_alpha: float = 1.0,
        k: int = 5,
        max_candidates: int = 25,
        max_iterations: int = 10,
        allow_takeover: bool = True,
    ) -> None:
        self.dataset = dataset
        self.confidence_batch = confidence_batch
        self.similarity = similarity
        self.seed_alignment = seed_alignment
        self.beta = beta
        self.score_alpha = score_alpha
        self.k = k
        self.max_candidates = max_candidates
        self.max_iterations = max_iterations
        # When one-to-many conflict resolution is ablated (cr2 off), this
        # stage must not arbitrate target collisions either — otherwise it
        # would silently re-introduce the ablated capability.
        self.allow_takeover = allow_takeover
        self._test_targets = dataset.test_targets()

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _reference(self, working: AlignmentSet) -> AlignmentUnionView:
        """Live (working ∪ seed) view — no per-query alignment copying."""
        return AlignmentUnionView(working, self.seed_alignment)

    def _low_confidence_pairs(
        self, working: AlignmentSet, protected: set[tuple[str, str]]
    ) -> list[tuple[str, str]]:
        """Pairs of *working* whose explanation confidence falls below beta."""
        pairs = [pair for pair in sorted(working.pairs) if pair not in protected]
        confidences = self.confidence_batch(pairs, self._reference(working))
        # A confidence of exactly beta (= sigmoid(0)) means the ADG has no
        # influential edges at all, which is the canonical low-confidence
        # case, so the comparison is inclusive.
        return [pair for pair in pairs if confidences[pair] <= self.beta]

    def _candidates(self, source: str, working: AlignmentSet) -> list[str]:
        """Candidate targets whose neighbourhood shares an aligned entity with *source*.

        These are the targets that can form an explanation with at least one
        matched neighbour, hence a confidence above 0.5 ("target entities
        with aligned neighbors" in the paper).

        Runs on the integer :class:`~repro.kg.KGIndex` adjacency: the
        neighbourhood walks are memoized sorted id lists instead of
        per-call set builds + string sorts.  Ids follow sorted-entity
        order, so the candidate order is identical to the former
        sorted-string enumeration.
        """
        reference = self._reference(working)
        index1 = self.dataset.kg1.index()
        index2 = self.dataset.kg2.index()
        source_id = index1.entity_to_id.get(source)
        if source_id is None:
            return []
        candidates: list[str] = []
        seen: set[int] = set()
        entities1 = index1.entities
        entities2 = index2.entities
        for neighbor1_id in index1.neighbor_ids(source_id):
            for neighbor2 in sorted(reference.targets_of(entities1[neighbor1_id])):
                neighbor2_id = index2.entity_to_id.get(neighbor2)
                if neighbor2_id is None:
                    continue
                for candidate_id in index2.neighbor_ids(neighbor2_id):
                    if candidate_id in seen:
                        continue
                    seen.add(candidate_id)
                    candidate = entities2[candidate_id]
                    # Valid targets: test targets and currently aligned ones.
                    if candidate not in self._test_targets and not working.sources_of(candidate):
                        continue
                    candidates.append(candidate)
                    if len(candidates) >= self.max_candidates:
                        return candidates
        return candidates

    def _scores(
        self, pairs: list[tuple[str, str]], reference: AlignmentUnionView
    ) -> list[float]:
        """Alignment scores of *pairs*: explanation confidence plus scaled model similarity."""
        confidences = self.confidence_batch(pairs, reference)
        return [confidences[pair] + self.score_alpha * self.similarity(*pair) for pair in pairs]

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def repair(
        self,
        alignment: AlignmentSet,
        unaligned_sources: set[str] | None = None,
    ) -> LowConfidenceRepairResult:
        """Run Algorithm 2 starting from *alignment* (modified on a copy)."""
        working = alignment.copy()
        unaligned: set[str] = set(unaligned_sources or set())
        result = LowConfidenceRepairResult(alignment=working)
        protected: set[tuple[str, str]] = set()
        reference = self._reference(working)

        last_size = -1
        for iteration in range(self.max_iterations):
            result.iterations = iteration + 1
            flagged = self._low_confidence_pairs(working, protected)
            result.num_low_confidence += len(flagged)
            for source, target in flagged:
                working.remove(source, target)
                unaligned.add(source)
                result.released_pairs.append((source, target))
            if last_size > -1 and len(unaligned) >= last_size:
                break
            last_size = len(unaligned)

            still_unaligned: set[str] = set()
            for source in sorted(unaligned):
                candidates = self._candidates(source, working)
                if not candidates:
                    still_unaligned.add(source)
                    continue
                scores = self._scores([(source, candidate) for candidate in candidates], reference)
                scored = sorted(zip(scores, candidates), key=lambda item: (-item[0], item[1]))
                aligned = False
                for score, target in scored[: self.k]:
                    holders = working.sources_of(target)
                    if not holders:
                        working.add(source, target)
                        protected.add((source, target))
                        result.num_reassigned += 1
                        aligned = True
                        break
                    if not self.allow_takeover:
                        continue
                    holder = next(iter(holders))
                    (holder_score,) = self._scores([(holder, target)], reference)
                    if score > holder_score:
                        working.remove(holder, target)
                        working.add(source, target)
                        protected.add((source, target))
                        result.num_reassigned += 1
                        still_unaligned.add(holder)
                        aligned = True
                        break
                if not aligned:
                    still_unaligned.add(source)
            unaligned = still_unaligned
            if not unaligned:
                break

        self._greedy_fallback(working, unaligned, result)
        result.alignment = working
        return result

    def _greedy_fallback(
        self,
        working: AlignmentSet,
        unaligned: set[str],
        result: LowConfidenceRepairResult,
    ) -> None:
        """Greedily match leftover sources with still-free targets by similarity."""
        if not unaligned:
            return
        free_targets = sorted(self._test_targets - working.targets())
        if not free_targets:
            return
        for source in sorted(unaligned):
            if not free_targets:
                break
            best = max(free_targets, key=lambda target: self.similarity(source, target))
            working.add(source, best)
            free_targets.remove(best)
            result.num_greedy_fallback += 1
