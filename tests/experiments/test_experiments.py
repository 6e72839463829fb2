"""Tests for the experiment runners and table formatting (the Section V harness)."""

import pytest

from repro.experiments import (
    ABLATION_VARIANTS,
    SMOKE_SCALE,
    ExperimentScale,
    explanation_methods,
    format_ablation_rows,
    format_explanation_rows,
    format_repair_rows,
    format_service_rows,
    format_table,
    format_timing_rows,
    format_verification_rows,
    prepare_dataset,
    run_ablation_experiment,
    run_explanation_experiment,
    run_llm_explanation_experiment,
    run_repair_experiment,
    run_service_experiment,
    run_verification_experiment,
    sample_correct_pairs,
    sample_verification_pairs,
    train_model,
)


@pytest.fixture(scope="module")
def scale():
    return SMOKE_SCALE


@pytest.fixture(scope="module")
def dataset(scale):
    return prepare_dataset("ZH-EN", scale)


@pytest.fixture(scope="module")
def model(dataset, scale):
    return train_model("MTransE", dataset, scale)


class TestPreparation:
    def test_prepare_dataset_scales(self, scale):
        dataset = prepare_dataset("JA-EN", scale)
        assert dataset.name == "JA-EN"
        assert dataset.kg1.num_entities() < 200

    def test_prepare_noisy_dataset(self, scale):
        noisy = prepare_dataset("ZH-EN", scale, noisy_seed=True)
        clean = prepare_dataset("ZH-EN", scale)
        assert noisy.train_alignment != clean.train_alignment
        assert "Noise" in noisy.name

    def test_training_config_from_scale(self):
        scale = ExperimentScale(embedding_dim=16, seed=9)
        config = scale.training_config(seed_offset=2)
        assert config.dim == 16
        assert config.seed == 11

    def test_sample_correct_pairs_only_correct(self, model, dataset, scale):
        pairs = sample_correct_pairs(model, dataset, 10, seed=scale.seed)
        assert 0 < len(pairs) <= 10
        assert all(pair in dataset.test_alignment.pairs for pair in pairs)

    def test_sample_verification_pairs_balanced_labels(self, model, dataset):
        labels = sample_verification_pairs(model, dataset, 10)
        assert any(labels.values())
        assert not all(labels.values())


class TestRunners:
    def test_explanation_experiment_rows(self, model, dataset, scale):
        rows = run_explanation_experiment(model, dataset, scale)
        methods = {row.method for row in rows}
        assert {"EALime", "EAShapley", "Anchor", "LORE", "ExEA"} == methods
        for row in rows:
            assert 0.0 <= row.fidelity <= 1.0
            assert 0.0 <= row.sparsity <= 1.0
            assert row.seconds >= 0.0

    def test_explanation_methods_selection(self, model, dataset):
        only_llm = explanation_methods(model, dataset, include_baselines=False, include_llm=True)
        assert set(only_llm) == {"ChatGPT (perturb)", "ChatGPT (match)"}

    def test_repair_experiment_row(self, model, dataset):
        row = run_repair_experiment(model, dataset)
        assert row.repaired_accuracy >= row.base_accuracy
        assert row.delta == pytest.approx(row.repaired_accuracy - row.base_accuracy)

    def test_ablation_covers_all_variants(self, model, dataset):
        rows = run_ablation_experiment(model, dataset)
        assert {row.variant for row in rows} == set(ABLATION_VARIANTS)
        full = next(row for row in rows if row.variant == "ExEA")
        for row in rows:
            assert row.accuracy <= full.accuracy + 0.1

    def test_llm_explanation_experiment(self, model, dataset, scale):
        rows = run_llm_explanation_experiment(model, dataset, scale)
        assert {row.method for row in rows} == {"ChatGPT (perturb)", "ChatGPT (match)", "ExEA"}

    def test_verification_experiment(self, model, dataset, scale):
        rows = run_verification_experiment(model, dataset, scale)
        assert {row.method for row in rows} == {"ChatGPT", "ExEA", "ChatGPT + ExEA"}
        for row in rows:
            assert 0.0 <= row.f1 <= 1.0

    def test_service_experiment_row(self, model, dataset, scale):
        # Long enough that the replay cannot fit into the first concurrent
        # first-compute batches: with <= explanation_sample unique pairs,
        # later requests for already-computed pairs must hit the cache, so
        # the hit-rate assertion is deterministic rather than a race.
        row = run_service_experiment(model, dataset, scale, num_requests=600, num_clients=3)
        assert row.dataset == dataset.name
        assert row.num_requests == 600
        assert row.requests_per_second > 0
        # Zipf replay repeats hot pairs, so the cache must see real hits.
        assert row.cache_hit_rate > 0.0
        assert row.transport == "local"
        assert "Hit rate" in format_service_rows([row], title="svc")

    @pytest.mark.parametrize("num_replicas", [1, 2])
    def test_service_experiment_cluster_transport(self, model, dataset, scale, num_replicas):
        """The transport and replication axes: real shard subprocesses, one
        per shard or replicated with failover routing."""
        row = run_service_experiment(
            model, dataset, scale, num_requests=120, num_clients=2,
            num_shards=2, transport="cluster", num_replicas=num_replicas,
        )
        assert row.transport == "cluster"
        assert row.num_shards == 2
        assert row.num_replicas == num_replicas
        assert row.num_requests == 120
        assert row.requests_per_second > 0
        table = format_service_rows([row], title="svc")
        assert "Transport" in table and "Replicas" in table and "cluster" in table

    def test_service_experiment_rejects_unknown_transport(self, model, dataset, scale):
        with pytest.raises(ValueError):
            run_service_experiment(model, dataset, scale, transport="carrier-pigeon")

    def test_service_experiment_local_transport_is_one_shard(self, model, dataset, scale):
        """A shard is a process: the in-process transport refuses a shard count."""
        with pytest.raises(ValueError, match="num_shards=2"):
            run_service_experiment(model, dataset, scale, num_shards=2)


class TestTables:
    def test_format_table_alignment(self):
        text = format_table(["A", "Bee"], [["1", "22"], ["333", "4"]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert len({len(line) for line in lines[1:]}) <= 2  # header and rows aligned

    def test_format_helpers_render(self, model, dataset, scale):
        explanation_rows = run_explanation_experiment(model, dataset, scale)
        repair_rows = [run_repair_experiment(model, dataset)]
        ablation_rows = run_ablation_experiment(model, dataset)
        verification_rows = run_verification_experiment(model, dataset, scale)
        assert "Fidelity" in format_explanation_rows(explanation_rows, title="t1")
        assert "Δacc" in format_repair_rows(repair_rows, title="t3")
        assert "Drop" in format_ablation_rows(ablation_rows, title="t4")
        assert "F1" in format_verification_rows(verification_rows, title="t6")
        assert "Time" in format_timing_rows(explanation_rows, title="fig4")
