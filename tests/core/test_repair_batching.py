"""Batched repair ≡ pair-at-a-time repair, differentially.

The cr2 and cr3 stages ask the confidence oracle for one batch per
scoring round.  Splitting every batch into in-order single-pair calls
must not change a single field of the repair outcome under any of the
four ablation variants — the working alignment never changes inside a
round, so a batch sees exactly what its pairs would have seen one by one.
"""

import dataclasses

import pytest

from repro.core.repair import EARepairer, RepairConfig, RepairResult
from repro.datasets import load_benchmark
from repro.experiments import ABLATION_VARIANTS
from repro.models import GCNAlign, TrainingConfig


@pytest.fixture(scope="module")
def fitted_gcn():
    """GCN-Align on ZH-EN at scale 1, where cr1, cr2 and cr3 all fire."""
    dataset = load_benchmark("ZH-EN", scale=1.0)
    return GCNAlign(TrainingConfig(dim=32, seed=1)).fit(dataset)


def repair_with(model, overrides, split: bool) -> tuple[RepairResult, list[list[tuple[str, str]]]]:
    """Repair the predictions; returns the result and the pairs of every oracle call.

    With *split*, every batch the stages ask for is answered by in-order
    single-pair calls of the shipped oracle.
    """
    repairer = EARepairer(model, config=RepairConfig(**overrides))
    shipped = repairer.confidence_batch
    calls: list[list[tuple[str, str]]] = []

    def oracle(pairs, alignment):
        if not split:
            calls.append(list(pairs))
            return shipped(pairs, alignment)
        results = {}
        for pair in pairs:
            calls.append([pair])
            results.update(shipped([pair], alignment))
        return results

    repairer.confidence_batch = oracle
    return repairer.repair(model.predict()), calls


@pytest.mark.parametrize("variant", list(ABLATION_VARIANTS))
def test_batched_repair_matches_single_pair_calls(fitted_gcn, variant):
    overrides = ABLATION_VARIANTS[variant]
    batched, batch_calls = repair_with(fitted_gcn, overrides, split=False)
    single, single_calls = repair_with(fitted_gcn, overrides, split=True)

    for field in dataclasses.fields(RepairResult):
        assert getattr(batched, field.name) == getattr(single, field.name), field.name
    # The same pairs were scored in the same order, in fewer calls.
    asked = [pair for call in batch_calls for pair in call]
    assert asked == [pair for call in single_calls for pair in call]
    assert len(asked) / len(batch_calls) > 1.0

    config = RepairConfig(**overrides)
    if config.enable_relation_conflicts:
        assert batched.num_relation_conflicts > 0
    if config.enable_one_to_many:
        one_to_many = batched.one_to_many
        assert one_to_many.num_conflicts > 0 and one_to_many.num_reassigned > 0
        assert one_to_many.resolved_pairs and one_to_many.iterations > 0
    if config.enable_low_confidence:
        low_confidence = batched.low_confidence
        assert low_confidence.num_low_confidence > 0 and low_confidence.num_reassigned > 0
        assert low_confidence.released_pairs and low_confidence.iterations > 0
