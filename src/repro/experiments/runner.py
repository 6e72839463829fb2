"""Experiment runners used by the benchmark harness (one per paper table/figure).

Every runner returns plain result rows (dataclasses) that the benchmark
modules print with :mod:`repro.experiments.tables`; the same runners back
the example scripts, so the paper's experiments can also be reproduced
programmatically.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from ..baselines import BASELINE_REGISTRY
from ..core import ExEA, ExEAConfig, ExplanationConfig, RepairConfig
from ..datasets import corrupt_seed_alignment, load_benchmark, replay_workload
from ..kg import EADataset
from ..llm import (
    ChatGPTMatchExplainer,
    ChatGPTPerturbExplainer,
    ExEAVerifier,
    FusedVerifier,
    LLMVerifier,
    SimulatedChatGPT,
    verdicts_to_bool,
)
from ..metrics import (
    fidelity_by_retraining,
    fidelity_fast,
    mean_sparsity,
    verification_metrics,
)
from ..models import EAModel, make_model
from ..service import (
    ExEAClient,
    ExplanationService,
    ReplicatedLocalCluster,
    ServiceConfig,
    replay_concurrently,
)
from .config import ExperimentScale

# ----------------------------------------------------------------------
# Result rows
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ExplanationRow:
    """One row of Tables I / II / V / VII."""

    dataset: str
    model: str
    method: str
    fidelity: float
    sparsity: float
    seconds: float


@dataclass(frozen=True)
class RepairRow:
    """One cell-group of Tables III / VIII."""

    dataset: str
    model: str
    base_accuracy: float
    repaired_accuracy: float

    @property
    def delta(self) -> float:
        return self.repaired_accuracy - self.base_accuracy


@dataclass(frozen=True)
class AblationRow:
    """One cell of Table IV / Fig. 6."""

    dataset: str
    model: str
    variant: str
    accuracy: float


@dataclass(frozen=True)
class VerificationRow:
    """One row of Table VI."""

    dataset: str
    model: str
    method: str
    precision: float
    recall: float
    f1: float


@dataclass(frozen=True)
class ServiceRow:
    """One serving-throughput measurement (service-backed runner path)."""

    dataset: str
    model: str
    num_requests: int
    num_clients: int
    seconds: float
    requests_per_second: float
    cache_hit_rate: float
    mean_batch_occupancy: float
    p50_ms: float
    p95_ms: float
    num_shards: int = 1
    transport: str = "local"
    num_replicas: int = 1


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------
def prepare_dataset(name: str, scale: ExperimentScale, noisy_seed: bool = False) -> EADataset:
    """Generate a benchmark dataset (optionally with seed noise, Section V-E)."""
    dataset = load_benchmark(name, scale=scale.dataset_scale)
    if noisy_seed:
        dataset = corrupt_seed_alignment(dataset, fraction=scale.noise_fraction, seed=scale.seed)
    return dataset


def train_model(model_name: str, dataset: EADataset, scale: ExperimentScale) -> EAModel:
    """Train one base EA model at the experiment scale."""
    return make_model(model_name, scale.training_config()).fit(dataset)


def sample_correct_pairs(
    model: EAModel, dataset: EADataset, sample_size: int, seed: int = 0
) -> list[tuple[str, str]]:
    """Sample correctly-predicted test pairs (the fidelity protocol's population)."""
    predictions = model.predict()
    correct = sorted(pair for pair in predictions if pair in dataset.test_alignment.pairs)
    rng = random.Random(seed)
    if len(correct) > sample_size:
        correct = rng.sample(correct, sample_size)
    return sorted(correct)


def sample_verification_pairs(
    model: EAModel, dataset: EADataset, num_each: int, seed: int = 0
) -> dict[tuple[str, str], bool]:
    """Sample correct and incorrect predicted pairs with gold labels (Table VI)."""
    predictions = model.predict()
    gold = dataset.test_alignment.pairs
    correct = sorted(pair for pair in predictions if pair in gold)
    incorrect = sorted(pair for pair in predictions if pair not in gold)
    rng = random.Random(seed)
    if len(correct) > num_each:
        correct = rng.sample(correct, num_each)
    if len(incorrect) > num_each:
        incorrect = rng.sample(incorrect, num_each)
    labels = {pair: True for pair in correct}
    labels.update({pair: False for pair in incorrect})
    return labels


# ----------------------------------------------------------------------
# Explanation generation experiments (Tables I, II, V, VII; Fig. 4)
# ----------------------------------------------------------------------
def explanation_methods(
    model: EAModel,
    dataset: EADataset,
    max_hops: int = 1,
    include_baselines: bool = True,
    include_llm: bool = False,
    llm: SimulatedChatGPT | None = None,
) -> dict[str, object]:
    """Instantiate the explanation methods compared in the paper's tables."""
    methods: dict[str, object] = {}
    if include_baselines:
        for name, cls in BASELINE_REGISTRY.items():
            methods[name] = cls(model, dataset, max_hops=max_hops)
    if include_llm:
        shared_llm = llm or SimulatedChatGPT()
        methods["ChatGPT (perturb)"] = ChatGPTPerturbExplainer(model, dataset, max_hops, llm=shared_llm)
        methods["ChatGPT (match)"] = ChatGPTMatchExplainer(model, dataset, max_hops, llm=shared_llm)
    return methods


def run_explanation_experiment(
    model: EAModel,
    dataset: EADataset,
    scale: ExperimentScale,
    max_hops: int = 1,
    methods: dict[str, object] | None = None,
    fidelity_mode: str = "fast",
) -> list[ExplanationRow]:
    """Fidelity/sparsity of ExEA and the baselines on one model+dataset.

    ExEA runs first; each baseline then selects as many triples as ExEA did
    for the same pair, so the sparsity levels are comparable (the paper's
    protocol of tuning baseline explanation lengths to match ExEA).
    """
    pairs = sample_correct_pairs(model, dataset, scale.explanation_sample, seed=scale.seed)
    if not pairs:
        return []
    exea = ExEA(model, dataset, ExEAConfig(explanation=ExplanationConfig(max_hops=max_hops)))

    rows: list[ExplanationRow] = []
    start = time.perf_counter()
    exea_explanations = exea.explain_predictions(pairs)
    exea_seconds = time.perf_counter() - start
    budget = {
        pair: max(len(explanation.triples), 1)
        for pair, explanation in exea_explanations.items()
    }

    def evaluate(name: str, explanations, seconds: float) -> None:
        if fidelity_mode == "retrain":
            fidelity = fidelity_by_retraining(model, dataset, explanations)
        else:
            fidelity = fidelity_fast(model, dataset, explanations)
        rows.append(
            ExplanationRow(
                dataset=dataset.name,
                model=model.name,
                method=name,
                fidelity=fidelity,
                sparsity=mean_sparsity(explanations),
                seconds=seconds,
            )
        )

    if methods is None:
        methods = explanation_methods(model, dataset, max_hops=max_hops)
    for name, explainer in methods.items():
        start = time.perf_counter()
        explanations = {
            pair: explainer.explain(pair[0], pair[1], budget[pair]) for pair in pairs
        }
        evaluate(name, explanations, time.perf_counter() - start)
    evaluate("ExEA", exea_explanations, exea_seconds)
    return rows


# ----------------------------------------------------------------------
# Repair experiments (Tables III, IV, VIII; Fig. 6)
# ----------------------------------------------------------------------
def run_repair_experiment(
    model: EAModel, dataset: EADataset, repair_config: RepairConfig | None = None
) -> RepairRow:
    """Base vs repaired accuracy of one model on one dataset (Table III)."""
    exea = ExEA(model, dataset, ExEAConfig(repair=repair_config or RepairConfig()))
    result = exea.repair()
    return RepairRow(
        dataset=dataset.name,
        model=model.name,
        base_accuracy=result.base_accuracy,
        repaired_accuracy=result.repaired_accuracy,
    )


#: The ablation variants of Table IV / Fig. 6, in reporting order.
ABLATION_VARIANTS: dict[str, dict[str, bool]] = {
    "ExEA": {},
    "ExEA w/o cr1": {"enable_relation_conflicts": False},
    "ExEA w/o cr2": {"enable_one_to_many": False},
    "ExEA w/o cr3": {"enable_low_confidence": False},
}


def run_ablation_experiment(model: EAModel, dataset: EADataset) -> list[AblationRow]:
    """Repair accuracy with each conflict-resolution stage removed in turn."""
    rows: list[AblationRow] = []
    for variant, overrides in ABLATION_VARIANTS.items():
        config = RepairConfig(**overrides)
        result = ExEA(model, dataset, ExEAConfig(repair=config)).repair()
        rows.append(
            AblationRow(
                dataset=dataset.name,
                model=model.name,
                variant=variant,
                accuracy=result.repaired_accuracy,
            )
        )
    return rows


# ----------------------------------------------------------------------
# Service-backed serving experiment (explanation-as-a-service layer)
# ----------------------------------------------------------------------
def run_service_experiment(
    model: EAModel,
    dataset: EADataset,
    scale: ExperimentScale,
    num_requests: int | None = None,
    num_clients: int = 4,
    skew: float = 1.0,
    service_config=None,
    num_shards: int = 1,
    transport: str = "local",
    num_replicas: int = 2,
) -> ServiceRow:
    """Replay skewed explain traffic through the explanation service.

    Samples the fidelity protocol's pair population, builds a
    deterministic Zipf replay over it and drives the service front door
    with *num_clients* concurrent synchronous clients — the serving
    analogue of :func:`run_explanation_experiment`.  Results are
    bit-identical to direct engine calls at any shard count (covered by
    the service test suite); this runner measures the serving side:
    throughput, overall cache hit rate, batch occupancy and latency
    percentiles.

    *transport* selects the deployment axis: ``"local"`` drives one
    in-process :class:`~repro.service.ExplanationService` (a shard is a
    process, so *num_shards* must stay 1 there); ``"cluster"`` spawns
    *num_replicas* real server subprocesses for each of *num_shards*
    shards, fed a pickled snapshot of this exact model, behind the
    health-checked control plane
    (:class:`~repro.service.ReplicatedLocalCluster`) and replays over
    the wire with load-aware replica routing (``num_replicas=1`` is the
    plain process-per-shard deployment) — same workload, bit-identical
    results, so the rows isolate the transport and replication costs;
    the reported figures merge every process's stats.
    """
    if transport not in ("local", "cluster"):
        raise ValueError(f'transport must be "local" or "cluster", got {transport!r}')
    if transport == "local" and num_shards != 1:
        raise ValueError(
            f"the local transport serves one in-process service; num_shards={num_shards} "
            'needs transport="cluster"'
        )
    pairs = sample_correct_pairs(model, dataset, scale.explanation_sample, seed=scale.seed)
    if num_requests is None:
        num_requests = 10 * len(pairs)
    workload = replay_workload(pairs, num_requests, seed=scale.seed, skew=skew)

    config = service_config or ServiceConfig()
    if transport == "cluster":
        with ReplicatedLocalCluster(
            model,
            dataset,
            num_shards=num_shards,
            num_replicas=num_replicas,
            service_config=config,
        ) as cluster:
            seconds = replay_concurrently(cluster.client, workload, num_clients)
            stats = cluster.client.stats_snapshot()["overall"]
    else:
        with ExplanationService(model, dataset, config) as service:
            seconds = replay_concurrently(ExEAClient(service), workload, num_clients)
        stats = service.stats.snapshot()
    return ServiceRow(
        dataset=dataset.name,
        model=model.name,
        num_requests=len(workload),
        num_clients=num_clients,
        seconds=seconds,
        requests_per_second=len(workload) / seconds if seconds > 0 else 0.0,
        cache_hit_rate=stats["cache_hit_rate"],
        mean_batch_occupancy=stats["mean_batch_occupancy"],
        p50_ms=stats["p50_ms"],
        p95_ms=stats["p95_ms"],
        num_shards=num_shards,
        transport=transport,
        num_replicas=num_replicas if transport == "cluster" else 1,
    )


# ----------------------------------------------------------------------
# LLM comparison experiments (Tables V and VI)
# ----------------------------------------------------------------------
def run_llm_explanation_experiment(
    model: EAModel, dataset: EADataset, scale: ExperimentScale
) -> list[ExplanationRow]:
    """ExEA vs ChatGPT (perturb) vs ChatGPT (match) on explanation generation."""
    reduced = ExperimentScale(**{**scale.__dict__, "explanation_sample": scale.llm_sample})
    methods = explanation_methods(
        model, dataset, include_baselines=False, include_llm=True,
        llm=SimulatedChatGPT(seed=scale.seed),
    )
    return run_explanation_experiment(model, dataset, reduced, methods=methods)


def run_verification_experiment(
    model: EAModel, dataset: EADataset, scale: ExperimentScale
) -> list[VerificationRow]:
    """ChatGPT vs ExEA vs their fusion on EA verification (Table VI)."""
    labels = sample_verification_pairs(model, dataset, scale.verification_sample, seed=scale.seed)
    pairs = sorted(labels)
    exea = ExEA(model, dataset)
    llm_verifier = LLMVerifier(dataset, SimulatedChatGPT(seed=scale.seed))
    exea_verifier = ExEAVerifier(exea)
    fused_verifier = FusedVerifier(llm_verifier, exea_verifier)
    rows: list[VerificationRow] = []
    for verifier in (llm_verifier, exea_verifier, fused_verifier):
        verdicts = verdicts_to_bool(verifier.verify_pairs(pairs))
        metrics = verification_metrics(verdicts, labels)
        rows.append(
            VerificationRow(
                dataset=dataset.name,
                model=model.name,
                method=verifier.name,
                precision=metrics.precision,
                recall=metrics.recall,
                f1=metrics.f1,
            )
        )
    return rows
