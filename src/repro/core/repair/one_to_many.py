"""One-to-many conflict repair — Algorithm 1 of the paper (Section IV-B).

A one-to-many conflict arises when several source entities are predicted to
align with the same target entity: since entities within one KG are
distinct, at most one of those predictions can be correct.  The repair
keeps the prediction with the highest explanation confidence, releases the
others, and iteratively re-aligns the released sources with their top-k
most similar targets, again arbitrating collisions by confidence.

Confidence comes from a batch oracle, one call per scoring round: the
initial arbitration scores every source of every contested target at
once, and each re-alignment collision scores challenger and holder
together.  The working alignment does not change inside a round, so a
batch sees exactly what the pairs would have seen one by one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ...embedding import top_k_indices
from ...kg import AlignmentSet, AlignmentUnionView

#: Batch oracle computing the explanation confidences of candidate pairs
#: under one working alignment: ``confidence_batch(pairs, alignment)``
#: returns ``{pair: confidence}``.  The alignment argument may be an
#: :class:`AlignmentSet` or a live :class:`AlignmentUnionView` (working ∪ seed).
ConfidenceBatchFn = Callable[
    [list[tuple[str, str]], AlignmentSet | AlignmentUnionView], dict[tuple[str, str], float]
]


@dataclass
class OneToManyRepairResult:
    """Outcome of the one-to-many repair stage."""

    alignment: AlignmentSet
    unaligned_sources: set[str]
    num_conflicts: int = 0
    num_reassigned: int = 0
    iterations: int = 0
    resolved_pairs: list[tuple[str, str]] = field(default_factory=list)


def resolve_to_one_to_one(
    predictions: AlignmentSet,
    confidence_batch: ConfidenceBatchFn,
    reference_alignment: AlignmentSet | AlignmentUnionView,
) -> tuple[AlignmentSet, set[str], int]:
    """The ``OnetoOne`` step (line 1): keep the most confident pair per target.

    Every contested pair is scored in one oracle call under the fixed
    *reference_alignment*.  Returns the one-to-one alignment, the set of
    released source entities, and the number of conflicting targets found.
    """
    resolved = AlignmentSet()
    released: set[str] = set()
    conflicts = predictions.one_to_many_targets()
    for source, target in predictions:
        if target not in conflicts:
            resolved.add(source, target)
    confidences = confidence_batch(
        [(source, target) for target, sources in conflicts.items() for source in sources],
        reference_alignment,
    )
    for target, sources in sorted(conflicts.items()):
        scored = sorted(
            ((confidences[(source, target)], source) for source in sources),
            key=lambda item: (-item[0], item[1]),
        )
        best_source = scored[0][1]
        resolved.add(best_source, target)
        released |= {source for source in sources if source != best_source}
    return resolved, released, len(conflicts)


def repair_one_to_many(
    predictions: AlignmentSet,
    similarity: np.ndarray,
    source_entities: Sequence[str],
    target_entities: Sequence[str],
    confidence_batch: ConfidenceBatchFn,
    seed_alignment: AlignmentSet,
    k: int = 5,
    max_iterations: int = 20,
) -> OneToManyRepairResult:
    """Algorithm 1: repair one-to-many conflicts in *predictions*.

    Args:
        predictions: the model's EA results ``A_res`` (greedy, may contain
            one-to-many conflicts).
        similarity: pairwise similarity matrix between *source_entities*
            (rows) and *target_entities* (columns), from the original model.
        source_entities / target_entities: orderings matching *similarity*.
        confidence_batch: explanation-confidence batch oracle
            ``conf(pairs, alignment) -> {pair: confidence}``.
        seed_alignment: the training alignment ``A_train`` (used, together
            with the working alignment, as the reference for explanations).
        k: number of candidate targets examined per unaligned source.
        max_iterations: hard cap on the outer loop (the algorithm already
            stops when no progress is made).

    Returns:
        The repaired one-to-one alignment plus bookkeeping counters.
    """
    source_index = {entity: i for i, entity in enumerate(source_entities)}
    top_k_cache: dict[str, list[str]] = {}

    def top_candidates(source: str) -> list[str]:
        if source not in top_k_cache:
            row = similarity[source_index[source]]
            top_k_cache[source] = [target_entities[j] for j in top_k_indices(row, k)]
        return top_k_cache[source]

    working, unaligned, num_conflicts = resolve_to_one_to_one(
        predictions, confidence_batch, AlignmentUnionView(predictions, seed_alignment)
    )
    result = OneToManyRepairResult(
        alignment=working,
        unaligned_sources=set(unaligned),
        num_conflicts=num_conflicts,
    )

    # Live view of (working ∪ seed): confidence queries see every mutation
    # of ``working`` immediately, with no per-query alignment copying.
    reference = AlignmentUnionView(working, seed_alignment)
    iterations = 0
    while unaligned and iterations < max_iterations:
        iterations += 1
        last_size = len(unaligned)
        still_unaligned: set[str] = set()
        for source in sorted(unaligned):
            if source not in source_index:
                continue
            aligned = False
            for target in top_candidates(source):
                holders = working.sources_of(target)
                if not holders:
                    working.add(source, target)
                    result.num_reassigned += 1
                    result.resolved_pairs.append((source, target))
                    aligned = True
                    break
                current_holder = next(iter(holders))
                challenger, held = (source, target), (current_holder, target)
                confidences = confidence_batch([challenger, held], reference)
                if confidences[challenger] > confidences[held]:
                    working.remove(current_holder, target)
                    working.add(source, target)
                    result.num_reassigned += 1
                    result.resolved_pairs.append((source, target))
                    still_unaligned.add(current_holder)
                    aligned = True
                    break
            if not aligned:
                still_unaligned.add(source)
        unaligned = still_unaligned
        if len(unaligned) >= last_size:
            break

    result.alignment = working
    result.unaligned_sources = unaligned
    result.iterations = iterations
    return result
