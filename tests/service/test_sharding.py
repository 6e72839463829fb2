"""Sharded serving tests: bit-identical results at any shard count,
per-shard backpressure and deadlines, concurrent determinism, stats
aggregation, and the dispatcher's per-operation batch packing."""

import random
import threading
import time

import pytest

from repro.core import ExEA
from repro.service import (
    CONFIDENCE,
    EXPLAIN,
    VERIFY,
    DeadlineExceededError,
    Dispatcher,
    ExEAClient,
    MicroBatcher,
    RequestQueue,
    ServiceConfig,
    ServiceOverloadedError,
    ServiceRequest,
    ShardedExEAClient,
    ShardedExplanationService,
    ShardRouter,
    WorkerPool,
    merge_stats,
    replay_concurrently,
)
from repro.datasets import replay_workload


def predicted_pairs(model, limit=20):
    return sorted(model.predict().pairs)[:limit]


# ----------------------------------------------------------------------
# Routing
# ----------------------------------------------------------------------
class TestShardRouter:
    def test_routing_is_deterministic_and_in_range(self):
        router = ShardRouter(4)
        pairs = [(f"s{i}", f"t{i}") for i in range(64)]
        first = [router.shard_of(*pair) for pair in pairs]
        assert first == [router.shard_of(*pair) for pair in pairs]
        assert all(0 <= shard < 4 for shard in first)
        assert len(set(first)) > 1  # a hash that lands everything on one shard is broken

    def test_partition_covers_everything(self):
        router = ShardRouter(3)
        pairs = [(f"s{i}", f"t{i}") for i in range(30)]
        partition = router.partition(pairs)
        assert sorted(pair for shard in partition.values() for pair in shard) == sorted(pairs)
        for shard, members in partition.items():
            assert all(router.shard_of(*pair) == shard for pair in members)

    def test_single_shard_short_circuits(self):
        router = ShardRouter(1)
        assert router.shard_of("anything", "at-all") == 0


# ----------------------------------------------------------------------
# Bit-identical results across shard counts
# ----------------------------------------------------------------------
class TestShardedEquivalence:
    def test_results_identical_across_shard_counts(self, fitted_model, service_dataset):
        pairs = predicted_pairs(fitted_model, limit=12)
        direct = ExEA(fitted_model, service_dataset)
        reference = direct.reference_alignment()
        expected_explain = {pair: direct.explain(*pair) for pair in pairs}
        expected_confidence = {
            pair: direct.repairer.confidence(*pair, reference) for pair in pairs
        }

        for num_shards in (1, 4):
            config = ServiceConfig(num_shards=num_shards, num_workers=2)
            with ShardedExplanationService(fitted_model, service_dataset, config) as service:
                client = ShardedExEAClient(service)
                for pair in pairs:
                    assert client.explain(*pair) == expected_explain[pair]
                    assert client.confidence(*pair) == expected_confidence[pair]
                    assert client.verify(*pair) == (
                        expected_confidence[pair] > service.verify_threshold
                    )

    def test_per_worker_scheduler_still_equivalent(self, fitted_model, service_dataset):
        """The PR-2 baseline path must keep serving identical results."""
        pairs = predicted_pairs(fitted_model, limit=8)
        direct = ExEA(fitted_model, service_dataset)
        reference = direct.reference_alignment()

        config = ServiceConfig(scheduler="per-worker", num_workers=2)
        with ShardedExplanationService(fitted_model, service_dataset, config) as service:
            client = ShardedExEAClient(service)
            for pair in pairs:
                assert client.explain(*pair) == direct.explain(*pair)
                assert client.confidence(*pair) == direct.repairer.confidence(*pair, reference)


# ----------------------------------------------------------------------
# Per-shard admission control and deadlines
# ----------------------------------------------------------------------
class TestPerShardBackpressure:
    def _same_shard_pairs(self, router, pairs, count):
        """Pick *count* pairs that route to one shard, plus one that doesn't."""
        by_shard = router.partition(pairs)
        shard, members = max(by_shard.items(), key=lambda item: len(item[1]))
        other = next(
            (pair for other_shard, rest in by_shard.items() if other_shard != shard for pair in rest),
            None,
        )
        assert len(members) >= count, "test dataset routed too unevenly"
        return members[:count], other

    def test_full_shard_sheds_while_others_accept(self, fitted_model, service_dataset):
        pairs = predicted_pairs(fitted_model, limit=20)
        config = ServiceConfig(num_shards=2, queue_capacity=2, num_workers=1)
        service = ShardedExplanationService(fitted_model, service_dataset, config)
        same, other = self._same_shard_pairs(service.router, pairs, 3)
        # Workers are intentionally not started: queues can only fill.
        service.submit(EXPLAIN, *same[0])
        service.submit(EXPLAIN, *same[1])
        with pytest.raises(ServiceOverloadedError):
            service.submit(EXPLAIN, *same[2])
        if other is not None:  # the sibling shard still has capacity
            service.submit(EXPLAIN, *other)
        overall = service.stats_snapshot()["overall"]
        assert overall["rejected"] == 1
        service.close(drain=False)

    def test_deadlines_enforced_per_shard(self, fitted_model, service_dataset):
        pairs = predicted_pairs(fitted_model, limit=4)
        config = ServiceConfig(num_shards=2, num_workers=1)
        service = ShardedExplanationService(fitted_model, service_dataset, config)
        futures = [service.submit(EXPLAIN, *pair, deadline_ms=1.0) for pair in pairs]
        time.sleep(0.05)  # let every deadline lapse while nothing serves
        service.start()
        for future in futures:
            with pytest.raises(DeadlineExceededError):
                future.result(30)
        assert service.stats_snapshot()["overall"]["expired"] == len(pairs)
        service.close()


# ----------------------------------------------------------------------
# Concurrency: determinism with many clients over many shards
# ----------------------------------------------------------------------
class TestShardedConcurrency:
    def test_concurrent_clients_get_identical_results(self, fitted_model, service_dataset):
        pairs = predicted_pairs(fitted_model, limit=15)
        direct = ExEA(fitted_model, service_dataset)
        expected = {pair: direct.explain(*pair) for pair in pairs}

        config = ServiceConfig(num_shards=3, num_workers=2, max_batch_size=8)
        results: list[dict] = []
        errors: list[BaseException] = []

        def run_client(seed: int, client: ShardedExEAClient) -> None:
            order = list(pairs)
            random.Random(seed).shuffle(order)
            try:
                results.append(
                    {pair: client.explain(pair[0], pair[1], timeout=60) for pair in order}
                )
            except BaseException as error:  # noqa: BLE001 - surfaced below
                errors.append(error)

        with ShardedExplanationService(fitted_model, service_dataset, config) as service:
            client = ShardedExEAClient(service)
            threads = [
                threading.Thread(target=run_client, args=(seed, client)) for seed in range(6)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

        assert not errors
        assert len(results) == 6
        for served in results:
            assert all(served[pair] == expected[pair] for pair in pairs)
        assert service.stats_snapshot()["overall"]["completed"] == 6 * len(pairs)


# ----------------------------------------------------------------------
# Telemetry: per-shard rows, overall merge, per-operation attribution
# ----------------------------------------------------------------------
class TestShardedStats:
    def test_overall_merges_per_shard_counters(self, fitted_model, service_dataset):
        pairs = predicted_pairs(fitted_model, limit=10)
        workload = replay_workload(
            pairs, 200, seed=5, skew=1.0, kinds=(EXPLAIN, CONFIDENCE, VERIFY)
        )
        config = ServiceConfig(num_shards=3, num_workers=1)
        with ShardedExplanationService(fitted_model, service_dataset, config) as service:
            replay_concurrently(ExEAClient(service), workload, num_clients=4)
        snapshot = service.stats_snapshot()
        assert snapshot["num_shards"] == 3
        assert len(snapshot["per_shard"]) == 3
        overall = snapshot["overall"]
        for key in ("submitted", "completed", "cache_hits", "cache_misses", "num_batches"):
            assert overall[key] == sum(row[key] for row in snapshot["per_shard"])
        assert overall["completed"] == len(workload)
        # merge_stats over the shard stats objects agrees with the snapshot.
        assert merge_stats(service.stats)["completed"] == overall["completed"]

    def test_shard_imbalance_metric_reports_request_and_pair_skew(
        self, fitted_model, service_dataset
    ):
        """The overall snapshot carries max/mean request share and pair
        count across shards (the skewed-partition telemetry)."""
        pairs = predicted_pairs(fitted_model, limit=10)
        workload = replay_workload(pairs, 120, seed=5, skew=1.5, kinds=(EXPLAIN,))
        config = ServiceConfig(num_shards=3, num_workers=1)
        with ShardedExplanationService(fitted_model, service_dataset, config) as service:
            replay_concurrently(ExEAClient(service), workload, num_clients=4)
            pair_counts = service.pairs_per_shard()
        snapshot = service.stats_snapshot()
        imbalance = snapshot["overall"]["shard_imbalance"]
        submitted = [row["submitted"] for row in snapshot["per_shard"]]
        assert imbalance["request_share"]["max"] == max(submitted)
        assert imbalance["request_share"]["mean"] == pytest.approx(
            sum(submitted) / len(submitted)
        )
        assert imbalance["request_share"]["max_over_mean"] >= 1.0
        # Pair counts partition the reference alignment exactly.
        assert snapshot["pairs_per_shard"] == pair_counts
        assert imbalance["pair_count"]["max"] == max(pair_counts)
        assert sum(pair_counts) == len(
            service.shards[0]._backends[0].generator.reference_alignment().pairs
        )

    def test_imbalance_summary_handles_empty_and_zero_inputs(self):
        from repro.service import imbalance_summary

        assert imbalance_summary([])["max_over_mean"] == 1.0
        assert imbalance_summary([0, 0])["max_over_mean"] == 1.0
        assert imbalance_summary([30, 10])["max_over_mean"] == pytest.approx(1.5)

    def test_verify_served_from_confidence_cache_counts_as_verify_hit(
        self, fitted_model, service_dataset
    ):
        pair = predicted_pairs(fitted_model, limit=1)[0]
        config = ServiceConfig(num_shards=1, num_workers=1)
        with ShardedExplanationService(fitted_model, service_dataset, config) as service:
            client = ShardedExEAClient(service)
            client.confidence(*pair)  # populates the confidence cache
            client.verify(*pair)      # answered from that cache
            snapshot = client.stats_snapshot()["overall"]
        per_operation = snapshot["per_operation"]
        assert per_operation["confidence"]["cache_misses"] == 1
        assert per_operation["verify"]["cache_hits"] == 1
        assert per_operation["verify"]["cache_misses"] == 0
        assert snapshot["cache_hits"] == 1


# ----------------------------------------------------------------------
# Dispatcher packing (no model required)
# ----------------------------------------------------------------------
class TestDispatcherPacking:
    def test_batches_are_operation_homogeneous(self):
        queue = RequestQueue(capacity=32)
        kinds = [EXPLAIN, CONFIDENCE, EXPLAIN, VERIFY, CONFIDENCE, EXPLAIN]
        requests = [
            ServiceRequest(kind=kind, pair=(f"e{index}", f"e{index}"))
            for index, kind in enumerate(kinds)
        ]
        for request in requests:
            queue.put(request)
        queue.close()

        batches: list[list[ServiceRequest]] = []
        lock = threading.Lock()

        def handler(worker_id: int, batch: list[ServiceRequest]) -> None:
            with lock:
                batches.append(batch)
            for request in batch:
                request.future.set_result(request.kind)

        pool = WorkerPool(2, handler)
        group_of = lambda kind: CONFIDENCE if kind == VERIFY else kind  # noqa: E731
        batcher = MicroBatcher(queue, max_batch_size=16)
        dispatcher = Dispatcher(batcher, pool, group_of=group_of)
        dispatcher.start()
        dispatcher.join(timeout=10)
        assert not dispatcher.alive

        served = sorted(
            request.pair[0] for batch in batches for request in batch
        )
        assert served == sorted(request.pair[0] for request in requests)
        for batch in batches:
            assert len({group_of(request.kind) for request in batch}) == 1

    def test_scheduler_survives_precheck_failure(self):
        """A bug in scheduler-side code fails the gathered requests, not the dispatcher."""
        queue = RequestQueue(capacity=8)
        boom = ServiceRequest(kind=EXPLAIN, pair=("boom", "boom"))
        ok = ServiceRequest(kind=EXPLAIN, pair=("ok", "ok"))

        def precheck(request):
            if request.pair[0] == "boom":
                raise RuntimeError("precheck bug")
            return False

        handled = []

        def handler(worker_id, batch):
            for request in batch:
                handled.append(request.pair[0])
                request.future.set_result(None)

        pool = WorkerPool(1, handler)
        dispatcher = Dispatcher(MicroBatcher(queue, max_batch_size=1), pool, precheck=precheck)
        dispatcher.start()
        queue.put(boom)
        with pytest.raises(RuntimeError):
            boom.future.result(10)
        queue.put(ok)  # the dispatcher must still be scheduling
        assert ok.future.result(10) is None
        queue.close()
        dispatcher.join(10)
        assert handled == ["ok"]

    def test_respects_max_batch_size(self):
        queue = RequestQueue(capacity=32)
        for index in range(7):
            queue.put(ServiceRequest(kind=EXPLAIN, pair=(f"e{index}", f"e{index}")))
        queue.close()

        sizes: list[int] = []
        lock = threading.Lock()

        def handler(worker_id: int, batch: list[ServiceRequest]) -> None:
            with lock:
                sizes.append(len(batch))
            for request in batch:
                request.future.set_result(None)

        pool = WorkerPool(1, handler)
        dispatcher = Dispatcher(MicroBatcher(queue, max_batch_size=3), pool)
        dispatcher.start()
        dispatcher.join(timeout=10)
        assert sum(sizes) == 7
        assert max(sizes) <= 3
