"""Shard routing and scheduling tests: the CRC-32 router's partition,
the per-shard imbalance summary, per-operation hit attribution, and the
dispatcher's per-operation batch packing.

Results across shard counts and the exact cluster stats merge are
checked over real shard processes in ``test_transport.py`` and
``test_cluster.py``; a shard is one ``serve`` process.
"""

import threading

import pytest

from repro.service import (
    CONFIDENCE,
    EXPLAIN,
    VERIFY,
    Dispatcher,
    ExEAClient,
    ExplanationService,
    MicroBatcher,
    RequestQueue,
    ServiceConfig,
    ServiceRequest,
    ShardRouter,
    WorkerPool,
)


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
# Telemetry: the imbalance summary and per-operation attribution
# ----------------------------------------------------------------------
class TestShardedStats:
    def test_imbalance_summary_handles_empty_and_zero_inputs(self):
        from repro.service import imbalance_summary

        assert imbalance_summary([])["max_over_mean"] == 1.0
        assert imbalance_summary([0, 0])["max_over_mean"] == 1.0
        assert imbalance_summary([30, 10])["max_over_mean"] == pytest.approx(1.5)

    def test_verify_served_from_confidence_cache_counts_as_verify_hit(
        self, fitted_model, service_dataset
    ):
        pair = predicted_pairs(fitted_model, limit=1)[0]
        config = ServiceConfig(num_workers=1)
        with ExplanationService(fitted_model, service_dataset, config) as service:
            client = ExEAClient(service)
            client.confidence(*pair)  # populates the confidence cache
            client.verify(*pair)      # answered from that cache
            snapshot = service.stats.snapshot()
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
