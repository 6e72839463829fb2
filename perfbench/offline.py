"""offline-repair: the paper's Table III/IV flow as a researcher runs it.

Set-up generates ZH-EN and fits GCN-Align (dense N×N propagation).  The
timed phase repeats ExEA passes over the trained model until the run's
seconds are used — ``predict`` → ``explain_predictions`` (all predicted
pairs) → ``confidence_many`` (all) → ``repair`` under each of the four
ablation variants — each on a fresh unpickled copy of the post-fit model
and dataset, so every pass starts from the same cold caches.  After each
pass, sweeps on further fresh copies query every predicted pair one at
a time (``ExEA.explain`` then ``ExEA.confidence``, seeded order) and
check the answers equal that pass's batch outputs bit for bit; those
interactive per-pair queries are what ``p50_ms`` and ``p90_ms`` time
here.  The other checks: every predicted pair explained and scored,
repaired alignments one-to-one over test entities, passes identical,
and repair raising accuracy.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import random
import time
from dataclasses import dataclass

from repro.core import ExEA, ExEAConfig, RepairConfig
from repro.experiments import ABLATION_VARIANTS

from .harness import (
    SETUP_ROUNDS,
    Metric,
    Outcome,
    fit,
    generate,
    latency_metrics,
    peak_rss_mb,
)
from .tracing import core_layer_metrics, zero_service_metrics

#: ZH-EN scale of the offline workload (≈1.1k entities per KG, ≈740 test pairs).
SCALE = 2.5
MODEL = "GCN-Align"
#: Pair-query sweeps after each pass, each on its own fresh copy.
SWEEPS_PER_PASS = 2
#: The variant whose repaired accuracy the report headlines.
FULL_REPAIR = "ExEA"


@dataclass
class PassResult:
    """Outputs and per-stage wall times of one ExEA pass."""

    stages: dict[str, float]
    pairs: list[tuple[str, str]]
    base_accuracy: float
    explanations: dict
    confidences: dict
    repairs: dict
    test_sources: set
    test_targets: set


def _setup_round(seed: int):
    started = time.perf_counter()
    dataset = generate(SCALE, seed)
    model = fit(MODEL, dataset, seed)
    return time.perf_counter() - started, model, dataset


@contextlib.contextmanager
def _stage(stages: dict[str, float], name: str):
    began = time.perf_counter()
    yield
    stages[name] = time.perf_counter() - began


@contextlib.contextmanager
def _on_cpu(turn: int):
    """Pin this process to the *turn*-th usable CPU, round robin, for the block.

    The host's slow phases come and go per CPU, and a single-threaded
    process otherwise stays on one CPU through a whole phase; repeats
    spread over every CPU give the fastest-repeat figures a fast CPU to
    find.
    """
    usable = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {sorted(usable)[turn % len(usable)]})
    try:
        yield
    finally:
        os.sched_setaffinity(0, usable)


def _one_pass(pristine: bytes) -> PassResult:
    model, dataset = pickle.loads(pristine)
    stages: dict[str, float] = {}
    with _stage(stages, "predict"):
        predictions = model.predict()
        pairs = sorted(predictions.pairs)
    with _stage(stages, "explain"):
        exea = ExEA(model, dataset)
        explanations = exea.explain_predictions(pairs)
    with _stage(stages, "confidence"):
        confidences = exea.confidence_many(pairs)
    repairs = {}
    for variant, overrides in ABLATION_VARIANTS.items():
        with _stage(stages, variant):
            repairs[variant] = ExEA(model, dataset, ExEAConfig(repair=RepairConfig(**overrides))).repair(
                predictions
            )
    return PassResult(
        stages=stages,
        pairs=pairs,
        base_accuracy=predictions.accuracy(dataset.test_alignment),
        explanations=explanations,
        confidences=confidences,
        repairs=repairs,
        test_sources=dataset.test_sources(),
        test_targets=dataset.test_targets(),
    )


def _scalar_sweep(pristine: bytes, reference: PassResult, seed: int, outcome: Outcome) -> list[float]:
    """Query every predicted pair in seeded order; returns each query's latency.

    A query is what a researcher inspecting one pair asks: its
    explanation, then its confidence.  The two are timed together — the
    confidence reuses the explanation's work, so apart they would form
    two clusters and a median sitting between them.  The order is the
    same in every sweep, so position *i* of two sweeps times the same
    query from the same cache state.
    """
    model, dataset = pickle.loads(pristine)
    exea = ExEA(model, dataset)
    sample = random.Random(seed).sample(reference.pairs, len(reference.pairs))
    latencies: list[float] = []
    explain_wrong = confidence_wrong = 0
    for source, target in sample:
        started = time.perf_counter()
        explanation = exea.explain(source, target)
        confidence = exea.confidence(source, target)
        latencies.append(time.perf_counter() - started)
        explain_wrong += explanation != reference.explanations[(source, target)]
        confidence_wrong += confidence != reference.confidences[(source, target)]
    outcome.mismatches(explain_wrong, len(sample), "scalar ExEA.explain != explain_predictions")
    outcome.mismatches(confidence_wrong, len(sample), "scalar ExEA.confidence != confidence_many")
    return latencies


def _digest(result: PassResult) -> tuple:
    """What must repeat exactly from pass to pass."""
    return result.confidences, {
        variant: frozenset(repair.repaired_alignment) for variant, repair in result.repairs.items()
    }


def _check_passes(last: PassResult, digests: list[tuple], outcome: Outcome) -> None:
    expected = set(last.pairs)
    outcome.mismatches(len(expected - set(last.explanations)), len(expected), "predicted pairs not explained")
    outcome.mismatches(len(expected - set(last.confidences)), len(expected), "predicted pairs not scored")
    for variant, result in last.repairs.items():
        # Without cr2 the one-to-many conflicts (a target claimed by several
        # sources) stay by design; every variant still maps each source once.
        repaired = result.repaired_alignment
        one_to_many_kept = ABLATION_VARIANTS[variant].get("enable_one_to_many", True) is False
        valid = (
            (repaired.is_one_to_one() or (one_to_many_kept and not repaired.one_to_many_sources()))
            and repaired.sources() <= last.test_sources
            and repaired.targets() <= last.test_targets
        )
        outcome.check(valid, f"{variant}: repaired alignment is not one-to-one over test entities")
    full = last.repairs[FULL_REPAIR]
    outcome.check(
        full.repaired_accuracy > full.base_accuracy,
        f"repair did not raise accuracy ({full.base_accuracy} -> {full.repaired_accuracy})",
    )
    for digest in digests[:-1]:
        outcome.check(digest == digests[-1], "passes on identical copies disagree")


def run(seed: int, seconds: float, tracer=None) -> Outcome:
    """One offline-repair run; *tracer* set means a traced run."""
    outcome = Outcome("offline-repair")
    rounds = outcome.setup_rounds
    if tracer is None:
        for _ in range(SETUP_ROUNDS):
            elapsed, model, dataset = _setup_round(seed)
            rounds.append(elapsed)
    else:
        with tracer.recording("setup"):
            elapsed, model, dataset = _setup_round(seed)
        rounds.append(elapsed)
    pristine = pickle.dumps((model, dataset))

    # Only the latest pass's outputs stay alive: a growing heap would slow
    # later passes through the garbage collector.
    stage_times: list[dict[str, float]] = []
    sweeps: list[list[float]] = []
    digests: list[tuple] = []
    last = None
    phase_started = time.perf_counter()
    while True:
        last = None
        # A traced run makes two passes: untraced, then traced.
        traced = tracer is not None and len(stage_times) == 1
        with _on_cpu(len(stage_times)), tracer.recording("phase") if traced else contextlib.nullcontext():
            last = _one_pass(pristine)
        stage_times.append(last.stages)
        digests.append(_digest(last))
        # Sweeps follow every pass, so they spread over the phase like the passes.
        for _ in range(SWEEPS_PER_PASS):
            with _on_cpu(len(sweeps)):
                sweeps.append(_scalar_sweep(pristine, last, seed, outcome))
        if traced or (tracer is None and time.perf_counter() - phase_started >= seconds):
            break
    _check_passes(last, digests, outcome)

    # The machine's speed drifts within a run; each stage's fastest pass and
    # each query's fastest sweep are the run's undisturbed costs of that work.
    times = [sum(stages.values()) for stages in stage_times]
    pipeline_s = sum(min(stages[name] for stages in stage_times) for name in last.stages)
    best_queries = [min(samples) for samples in zip(*sweeps)]
    full = last.repairs[FULL_REPAIR]
    outcome.meta.update(
        {
            "scale": SCALE,
            "model": MODEL,
            "entities_kg1": len(dataset.kg1.entities),
            "entities_kg2": len(dataset.kg2.entities),
            "test_pairs": len(dataset.test_alignment),
            "predicted_pairs": len(last.pairs),
            "passes": len(times),
            "pair_queries_per_sweep": len(best_queries),
            "sweeps": len(sweeps),
        }
    )
    outcome.lines.append(
        "passes: " + ", ".join(f"{value:.3f} s" for value in times)
        + " | set-up rounds: " + ", ".join(f"{value:.3f} s" for value in rounds)
    )
    for variant, result in last.repairs.items():
        outcome.lines.append(f"{variant}: repaired_acc = {result.repaired_accuracy:.4f}")
    outcome.report.update(
        {
            "pipeline_s": Metric(pipeline_s, "s", f"sum over stages of the fastest of {len(times)} passes"),
            "base_acc": Metric(last.base_accuracy, "ratio"),
            "repaired_acc": Metric(full.repaired_accuracy, "ratio", "all repair stages"),
        }
    )
    outcome.end_to_end["rps"] = Metric(len(last.pairs) / pipeline_s, "1/s", "predicted pairs per pass second")
    outcome.end_to_end.update(
        latency_metrics([best_queries], f"pair query (fastest of {len(sweeps)} sweeps)", outcome)
    )
    outcome.end_to_end["peak_rss_mb"] = Metric(peak_rss_mb(), "MB")
    if tracer is not None:
        outcome.per_layer.update(core_layer_metrics(tracer))
        outcome.per_layer.update(zero_service_metrics())
        outcome.per_layer["bench.trace_overhead"] = Metric(
            times[-1] / times[0], "ratio", "traced / untraced pass"
        )
    return outcome
