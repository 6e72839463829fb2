"""Service-layer tests: equivalence, cache invalidation, backpressure, concurrency."""

import json
import random
import threading
import time

import pytest

from repro.core import ExEA
from repro.core.adg import low_confidence_threshold
from repro.service import (
    CONFIDENCE,
    EXPLAIN,
    VERIFY,
    DeadlineExceededError,
    ExEAClient,
    ExplanationService,
    MicroBatcher,
    RequestQueue,
    ResultCache,
    ServiceConfig,
    ServiceOverloadedError,
    ServiceRequest,
)


def predicted_pairs(model, limit=20):
    return sorted(model.predict().pairs)[:limit]


# ----------------------------------------------------------------------
# Equivalence: service path == direct engine calls
# ----------------------------------------------------------------------
class TestEquivalence:
    def test_explanations_match_direct_engine(self, fitted_model, service_dataset):
        pairs = predicted_pairs(fitted_model)
        direct = ExEA(fitted_model, service_dataset)
        expected = {pair: direct.explain(*pair) for pair in pairs}

        with ExplanationService(fitted_model, service_dataset) as service:
            served = ExEAClient(service).explain_many(pairs)
        for pair in pairs:
            assert served[pair] == expected[pair]

    def test_confidence_and_verify_match_repairer(self, fitted_model, service_dataset):
        pairs = predicted_pairs(fitted_model, limit=8)
        direct = ExEA(fitted_model, service_dataset)
        reference = direct.reference_alignment()
        expected = {pair: direct.repairer.confidence(*pair, reference) for pair in pairs}
        threshold = low_confidence_threshold(direct.config.adg.theta)

        with ExplanationService(fitted_model, service_dataset) as service:
            client = ExEAClient(service)
            for pair in pairs:
                assert client.confidence(*pair) == expected[pair]
                assert client.verify(*pair) == (expected[pair] > threshold)

    def test_uncached_service_still_equivalent(self, fitted_model, service_dataset):
        """cache_capacity=0 disables caching; every request recomputes."""
        pairs = predicted_pairs(fitted_model, limit=10)
        direct = ExEA(fitted_model, service_dataset)
        expected = {pair: direct.explain(*pair) for pair in pairs}
        config = ServiceConfig(cache_capacity=0, num_workers=2)
        with ExplanationService(fitted_model, service_dataset, config) as service:
            client = ExEAClient(service)
            for _ in range(2):
                served = client.explain_many(pairs)
                assert all(served[pair] == expected[pair] for pair in pairs)
        assert service.stats.cache_hits == 0

    def test_mixed_kind_batches(self, fitted_model, service_dataset):
        pairs = predicted_pairs(fitted_model, limit=6)
        direct = ExEA(fitted_model, service_dataset)
        reference = direct.reference_alignment()

        with ExplanationService(fitted_model, service_dataset) as service:
            futures = []
            for pair in pairs:
                futures.append((EXPLAIN, pair, service.submit(EXPLAIN, *pair)))
                futures.append((CONFIDENCE, pair, service.submit(CONFIDENCE, *pair)))
                futures.append((VERIFY, pair, service.submit(VERIFY, *pair)))
            results = {(kind, pair): future.result(30) for kind, pair, future in futures}

        for pair in pairs:
            assert results[(EXPLAIN, pair)] == direct.explain(*pair)
            expected_confidence = direct.repairer.confidence(*pair, reference)
            assert results[(CONFIDENCE, pair)] == expected_confidence
            assert results[(VERIFY, pair)] == (expected_confidence > service.verify_threshold)


# ----------------------------------------------------------------------
# Cache behaviour across version bumps
# ----------------------------------------------------------------------
class TestCacheInvalidation:
    def test_hit_miss_across_kg_and_model_versions(self, private_copy):
        dataset, model = private_copy
        pair = predicted_pairs(model, limit=1)[0]

        with ExplanationService(model, dataset) as service:
            client = ExEAClient(service)

            first = client.explain(*pair)
            assert service.stats.cache_misses == 1
            assert service.stats.cache_hits == 0

            again = client.explain(*pair)
            assert again == first
            assert service.stats.cache_hits == 1
            assert service.stats.cache_invalidations == 0

            # KG mutation bumps KnowledgeGraph.version -> wholesale drop.
            triples = sorted(dataset.kg1.triples, key=lambda t: t.as_tuple())
            removed = triples[0]
            dataset.kg1.remove_triple(removed)
            after_mutation = client.explain(*pair)
            assert service.stats.cache_invalidations == 1
            assert service.stats.cache_misses == 2

            # Same traffic again is a hit within the new generation.
            assert client.explain(*pair) == after_mutation
            assert service.stats.cache_hits == 2

            # Restoring the triple is *another* mutation (version counters
            # are monotonic), so the original result must be recomputed —
            # and must equal the first-generation answer bit for bit.
            dataset.kg1.add_triple(removed)
            restored = client.explain(*pair)
            assert service.stats.cache_invalidations == 2
            assert restored == first

            # A model refit bumps embedding_version -> invalidation too.
            model.fit(dataset)
            client.explain(*pair)
            assert service.stats.cache_invalidations == 3

    def test_lru_eviction(self):
        cache = ResultCache(capacity=2)
        token = (0, 0, 0)
        cache.put("explain", ("a", "b"), token, 1)
        cache.put("explain", ("c", "d"), token, 2)
        cache.lookup("explain", ("a", "b"), token)  # refresh ("a","b")
        cache.put("explain", ("e", "f"), token, 3)  # evicts ("c","d")
        assert cache.lookup("explain", ("a", "b"), token) == (True, 1)
        assert cache.lookup("explain", ("c", "d"), token) == (False, None)
        assert cache.lookup("explain", ("e", "f"), token) == (True, 3)


# ----------------------------------------------------------------------
# Admission control / deadlines
# ----------------------------------------------------------------------
class TestBackpressure:
    def test_submit_rejects_when_queue_full(self, fitted_model, service_dataset):
        pairs = predicted_pairs(fitted_model, limit=3)
        config = ServiceConfig(queue_capacity=2, num_workers=1)
        service = ExplanationService(fitted_model, service_dataset, config)
        # Workers are intentionally not started: the queue can only fill.
        service.submit(EXPLAIN, *pairs[0])
        service.submit(EXPLAIN, *pairs[1])
        with pytest.raises(ServiceOverloadedError):
            service.submit(EXPLAIN, *pairs[2])
        assert service.stats.rejected == 1
        assert service.stats.submitted == 3
        service.close(drain=False)

    def test_expired_request_fails_with_deadline_error(self, fitted_model, service_dataset):
        pair = predicted_pairs(fitted_model, limit=1)[0]
        service = ExplanationService(fitted_model, service_dataset)
        future = service.submit(EXPLAIN, *pair, deadline_ms=1.0)
        time.sleep(0.05)  # let the deadline lapse while nothing serves it
        service.start()
        with pytest.raises(DeadlineExceededError):
            future.result(30)
        assert service.stats.expired == 1
        service.close()


# ----------------------------------------------------------------------
# Concurrency: determinism under many clients
# ----------------------------------------------------------------------
class TestConcurrency:
    def test_concurrent_clients_get_identical_results(self, fitted_model, service_dataset):
        pairs = predicted_pairs(fitted_model, limit=15)
        direct = ExEA(fitted_model, service_dataset)
        expected = {pair: direct.explain(*pair) for pair in pairs}

        config = ServiceConfig(num_workers=3, max_batch_size=8)
        results: list[dict] = []
        errors: list[BaseException] = []

        def run_client(seed: int, client: ExEAClient) -> None:
            order = list(pairs)
            random.Random(seed).shuffle(order)
            try:
                results.append({pair: client.explain(pair[0], pair[1], timeout=60) for pair in order})
            except BaseException as error:  # noqa: BLE001 - surfaced below
                errors.append(error)

        with ExplanationService(fitted_model, service_dataset, config) as service:
            client = ExEAClient(service)
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
        # Every request either hit the cache or was computed; none were lost.
        assert service.stats.completed == 6 * len(pairs)


# ----------------------------------------------------------------------
# Queue / batcher mechanics (no model required)
# ----------------------------------------------------------------------
class _RecordingQueue(RequestQueue):
    """Records the ``timeout`` of every ``get``; flags the first blocking one."""

    def __init__(self, capacity: int) -> None:
        super().__init__(capacity)
        self.timeouts: list[float | None] = []
        self.blocking_get = threading.Event()

    def get(self, timeout: float | None = None) -> ServiceRequest | None:
        self.timeouts.append(timeout)
        if timeout is None:
            self.blocking_get.set()
        return super().get(timeout)


class TestMicroBatching:
    def _request(self, name: str) -> ServiceRequest:
        return ServiceRequest(kind=EXPLAIN, pair=(name, name))

    def test_batcher_coalesces_queued_requests(self):
        queue = RequestQueue(capacity=16)
        for index in range(5):
            queue.put(self._request(f"e{index}"))
        batcher = MicroBatcher(queue, max_batch_size=8)
        batch = batcher.next_batch()
        assert [request.pair[0] for request in batch] == ["e0", "e1", "e2", "e3", "e4"]

    def test_batcher_respects_max_batch_size(self):
        queue = RequestQueue(capacity=16)
        for index in range(5):
            queue.put(self._request(f"e{index}"))
        batcher = MicroBatcher(queue, max_batch_size=3)
        assert len(batcher.next_batch()) == 3
        assert len(batcher.next_batch()) == 2

    def test_closed_queue_drains_then_signals_shutdown(self):
        queue = RequestQueue(capacity=4)
        queue.put(self._request("pending"))
        queue.close()
        batcher = MicroBatcher(queue, max_batch_size=4)
        assert [request.pair[0] for request in batcher.next_batch()] == ["pending"]
        assert batcher.next_batch() == []

    @pytest.mark.parametrize(
        "queued, max_batch_size, timeouts",
        [
            # the fourth get finds the queue empty and ends the batch at once
            (3, 8, [None, 0, 0, 0]),
            # a full batch stops draining without another get
            (5, 3, [None, 0, 0]),
        ],
    )
    def test_batcher_drains_without_waiting(self, queued, max_batch_size, timeouts):
        """One blocking get for the first request, then only non-blocking ones."""
        queue = _RecordingQueue(capacity=16)
        for index in range(queued):
            queue.put(self._request(f"e{index}"))
        batch = MicroBatcher(queue, max_batch_size=max_batch_size).next_batch()
        assert [request.pair[0] for request in batch] == [
            f"e{index}" for index in range(min(queued, max_batch_size))
        ]
        assert queue.timeouts == timeouts

    def test_lone_request_is_released_at_once(self):
        """A request arriving at an idle batcher forms a batch of one, unwaited."""
        queue = _RecordingQueue(capacity=4)
        batcher = MicroBatcher(queue, max_batch_size=8)
        batches: list[list[ServiceRequest]] = []
        consumer = threading.Thread(target=lambda: batches.append(batcher.next_batch()))
        consumer.start()
        assert queue.blocking_get.wait(10)
        queue.put(self._request("lone"))
        consumer.join(10)
        assert not consumer.is_alive()
        assert [[request.pair[0] for request in batch] for batch in batches] == [["lone"]]
        assert queue.timeouts == [None, 0]


# ----------------------------------------------------------------------
# The gather timer is gone: no config field, no CLI flag
# ----------------------------------------------------------------------
class TestNoGatherWindow:
    def test_config_has_no_max_wait(self):
        with pytest.raises(TypeError):
            ServiceConfig(max_wait_ms=1.0)

    @pytest.mark.parametrize("entry", ["replay_main", "serve_main"])
    def test_cli_rejects_max_wait_flag(self, entry, capsys, monkeypatch):
        from repro.service import __main__ as cli

        def parsed(args):
            raise AssertionError("--max-wait-ms was accepted")

        # Were the flag accepted, the command would go on to fit a model
        # (and serve forever); fail at that point instead.
        monkeypatch.setattr(cli, "_fit_model", parsed)
        with pytest.raises(SystemExit) as exit_info:
            getattr(cli, entry)(["--max-wait-ms", "1"])
        assert exit_info.value.code == 2
        assert "--max-wait-ms" in capsys.readouterr().err


# ----------------------------------------------------------------------
# The `replay` CLI end to end: fit, serve, report, stats and metrics files
# ----------------------------------------------------------------------
class TestReplayCLI:
    def test_replay_main_reports_stats_and_metrics(self, tmp_path, capsys):
        from repro.service.__main__ import replay_main

        stats_path = tmp_path / "stats.json"
        metrics_path = tmp_path / "metrics.prom"
        argv = [
            "--model", "MTransE", "--scale", "0.3", "--dim", "16",
            "--requests", "40", "--clients", "2", "--mix", "mixed",
            "--stats-json", str(stats_path), "--metrics-out", str(metrics_path),
        ]
        assert replay_main(argv) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["service"]["completed"] == 40
        stats = json.loads(stats_path.read_text())
        assert stats["overall"]["completed"] == 40
        assert "repro_completed_total 40" in metrics_path.read_text().splitlines()
