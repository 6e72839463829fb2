"""Online-mutation tests: blast-radius invalidation + the ordered log.

Five layers of coverage:

* **Scoped-cache edge cases** — boundary pairs (source-only / target-only
  membership in the blast scope), epoch-tag wraparound across
  ``EPOCH_MODULUS``, the ``capacity=0`` degenerate cache, and stale puts
  racing a scoped advance.
* **Service mutate** — `ExplanationService.mutate` applies KG edits,
  advances the cache scoped (entries outside the blast radius survive and
  still hit), results after the mutation are bit-identical to a cold
  rebuild on the mutated graphs, and the per-scope telemetry counters
  record what happened.  ``scoped_invalidation=False`` falls back to the
  wholesale drop with the same bit-identical results.
* **Concurrent mutate** — readers hammering the service throughout a
  mutation never observe an error, and the replay after the mutation
  equals a cold rebuild on the mutated graphs.
* **Wire forms** — mutation batches round-trip through the JSON v1 rows
  and natively through the binary v2 codec; malformed rows are refused.
* **Ordered log over real sockets** — a `ShardServer` acks duplicates
  idempotently, refuses sequence gaps, refuses *reads* while behind
  (``ReplicaBehindError``), and recovers once the missing entries are
  replayed in order; `ReplicatedLocalCluster` proves the cluster-wide
  fan-out (every replica of every shard applies the log in order and
  serves bit-identical post-mutation results).

Workload/mutation helpers and process-fault injection come from the
shared ``faultlib`` harness.
"""

import threading

import pytest

from faultlib import ChaosController, dataset_copy, predicted_pairs, removal_specs
from repro.core import ExEA
from repro.core.repair import rules
from repro.datasets import replay_workload
from repro.kg import Triple
from repro.service import (
    CONFIDENCE,
    EXPLAIN,
    ExEAClient,
    ExplanationService,
    MutationSpec,
    RemoteShardClient,
    ReplicaBehindError,
    ReplicatedLocalCluster,
    ServiceConfig,
    ShardServer,
)
from repro.service.cache import EPOCH_MODULUS, ResultCache
from repro.service.transport.protocol import OP_MUTATE, decode_mutations
from repro.service.transport.wire import decode_binary, encode_binary


# ----------------------------------------------------------------------
# Scoped-cache edge cases
# ----------------------------------------------------------------------
class TestScopedCacheEdgeCases:
    def test_boundary_pairs_evict_on_either_side_of_the_scope(self):
        cache = ResultCache(capacity=16)
        token = (1, 1, 1)
        cache.put("explain", ("a", "x"), token, 1)  # source inside the scope
        cache.put("explain", ("x", "b"), token, 2)  # target inside the scope
        cache.put("explain", ("x", "y"), token, 3)  # fully outside
        cache.put("confidence", ("a", "x"), token, 4)  # kind not in scopes

        dropped, retained = cache.invalidate_scoped(
            (2, 1, 1), {"explain": ({"a"}, {"b"})}
        )
        assert (dropped, retained) == (2, 2)
        assert cache.lookup("explain", ("a", "x"), (2, 1, 1)) == (False, None)
        assert cache.lookup("explain", ("x", "b"), (2, 1, 1)) == (False, None)
        assert cache.lookup("explain", ("x", "y"), (2, 1, 1)) == (True, 3)
        # A kind absent from the scopes mapping is retained untouched.
        assert cache.lookup("confidence", ("a", "x"), (2, 1, 1)) == (True, 4)

    def test_kind_mapped_to_none_is_evicted_wholesale(self):
        cache = ResultCache(capacity=16)
        cache.put("confidence", ("a", "b"), (1, 1, 1), 0.5)
        cache.put("explain", ("a", "b"), (1, 1, 1), "kept")
        dropped, retained = cache.invalidate_scoped(
            (2, 1, 1), {"confidence": None, "explain": (set(), set())}
        )
        assert (dropped, retained) == (1, 1)
        assert cache.lookup("explain", ("a", "b"), (2, 1, 1)) == (True, "kept")

    def test_epoch_tag_wraps_around_the_modulus(self):
        cache = ResultCache(capacity=8)
        cache._epoch = EPOCH_MODULUS - 1
        cache.put("explain", ("a", "b"), (1, 1, 1), "v")
        assert cache.entry_epoch("explain", ("a", "b")) == EPOCH_MODULUS - 1

        dropped, retained = cache.invalidate_scoped((2, 1, 1), {"explain": (set(), set())})
        assert (dropped, retained) == (0, 1)
        assert cache.epoch == 0  # wrapped, not EPOCH_MODULUS
        # The survivor keeps its pre-wrap tag and still hits under the new token.
        assert cache.entry_epoch("explain", ("a", "b")) == EPOCH_MODULUS - 1
        assert cache.lookup("explain", ("a", "b"), (2, 1, 1)) == (True, "v")
        cache.put("explain", ("c", "d"), (2, 1, 1), "w")
        assert cache.entry_epoch("explain", ("c", "d")) == 0

    def test_capacity_zero_cache_stays_a_noop(self):
        cache = ResultCache(capacity=0)
        cache.put("explain", ("a", "b"), (1, 1, 1), "v")
        assert cache.invalidate_scoped((2, 1, 1), {"explain": None}) == (0, 0)
        assert cache.lookup("explain", ("a", "b"), (2, 1, 1)) == (False, None)
        assert len(cache) == 0

    def test_stale_put_after_scoped_advance_is_discarded(self):
        cache = ResultCache(capacity=8)
        cache.put("explain", ("a", "b"), (1, 1, 1), "old-gen")
        cache.invalidate_scoped((2, 1, 1), {"explain": ({"a"}, set())})
        # A worker that computed under the superseded generation must not
        # resurrect its value into the new one.
        cache.put("explain", ("a", "b"), (1, 1, 1), "stale")
        assert cache.lookup("explain", ("a", "b"), (2, 1, 1)) == (False, None)

    def test_scoped_advance_at_or_behind_the_token_is_a_noop(self):
        cache = ResultCache(capacity=8)
        cache.put("explain", ("a", "b"), (2, 1, 1), "v")
        assert cache.invalidate_scoped((2, 1, 1), {"explain": None}) == (0, 1)
        assert cache.invalidate_scoped((1, 1, 1), {"explain": None}) == (0, 1)
        assert cache.lookup("explain", ("a", "b"), (2, 1, 1)) == (True, "v")


class TestMutationSpec:
    def test_rejects_bad_fields(self):
        triple = Triple("a", "r", "b")
        with pytest.raises(ValueError):
            MutationSpec(op="upsert", kg=1, triple=triple)
        with pytest.raises(ValueError):
            MutationSpec(op="add", kg=3, triple=triple)
        with pytest.raises(TypeError):
            MutationSpec(op="add", kg=1, triple=("a", "r", "b"))


# ----------------------------------------------------------------------
# Service mutate: scoped invalidation, bit-identity, telemetry
# ----------------------------------------------------------------------
class TestServiceMutate:
    def test_scoped_mutation_bit_identical_to_cold_rebuild(self, private_copy):
        dataset, model = private_copy
        pairs = predicted_pairs(model, limit=12)
        specs = removal_specs(dataset)

        with ExplanationService(model, dataset) as service:
            client = ExEAClient(service)
            warm = {pair: (client.explain(*pair), client.confidence(*pair)) for pair in pairs}
            warmed_entries = len(service.cache)
            assert warmed_entries == 2 * len(pairs)

            report = service.mutate(specs)
            assert report["applied"] == len(specs)
            assert report["scoped"] is True
            assert report["entries_dropped"] + report["entries_retained"] == warmed_entries
            assert report["blast_entities"] >= 1
            assert tuple(report["token"]) == service.generation_token()

            inv = service.stats.invalidation
            assert inv["scoped"] == 1 and inv["wholesale"] == 0
            assert inv["entries_dropped"] == report["entries_dropped"]
            assert inv["entries_retained"] == report["entries_retained"]
            assert inv["max_blast_entities"] == report["blast_entities"]

            after = {pair: (client.explain(*pair), client.confidence(*pair)) for pair in pairs}

        # Fresh graph objects holding the post-mutation state: a reference
        # on the mutated ones would reuse their warm rule miners.
        cold = ExEA(model, dataset_copy(dataset))
        reference = cold.reference_alignment()
        for pair in pairs:
            assert after[pair][0] == cold.explain(*pair)
            assert after[pair][1] == cold.repairer.confidence(*pair, reference)
        assert warm  # pre-mutation results were captured (warmed the cache)

    def test_scoped_mutation_runs_no_full_scan(self, private_copy, monkeypatch):
        """The service and both workers' repairers share one rule miner per
        graph and one relation-alignment memo: after warm-up, a scoped
        write and the confidence reads behind it run no full scan."""
        dataset, model = private_copy
        pairs = predicted_pairs(model, limit=12)
        full_scans = []
        scan_rules = rules._RuleMiner._scan
        scan_alignment = rules._scan_relation_alignment

        def counting_rule_scan(miner, kg):
            full_scans.append("rules")
            return scan_rules(miner, kg)

        def counting_alignment_scan(*args):
            full_scans.append("alignment")
            return scan_alignment(*args)

        monkeypatch.setattr(rules._RuleMiner, "_scan", counting_rule_scan)
        monkeypatch.setattr(rules, "_scan_relation_alignment", counting_alignment_scan)

        with ExplanationService(model, dataset) as service:
            assert service.config.num_workers == 2
            client = ExEAClient(service)
            for pair in pairs:
                client.confidence(*pair)
            # First use: one scan per graph and one alignment mine, shared
            # by both workers.
            assert sorted(full_scans) == ["alignment", "rules", "rules"]
            full_scans.clear()

            report = service.mutate(removal_specs(dataset))
            assert report["scoped"] is True
            after = {pair: client.confidence(*pair) for pair in pairs}
            assert full_scans == []

        cold = ExEA(model, dataset_copy(dataset))
        reference = cold.reference_alignment()
        for pair in pairs:
            assert after[pair] == cold.repairer.confidence(*pair, reference)

    def test_retained_entries_still_hit_after_scoped_mutation(self, private_copy):
        dataset, model = private_copy
        pairs = predicted_pairs(model, limit=12)

        with ExplanationService(model, dataset) as service:
            client = ExEAClient(service)
            for pair in pairs:
                client.explain(*pair)
            report = service.mutate(removal_specs(dataset))
            assert report["scoped"] is True
            hits_before = service.stats.cache_hits
            for pair in pairs:
                client.explain(*pair)
            new_hits = service.stats.cache_hits - hits_before
            assert new_hits == report["entries_retained"]

    def test_wholesale_fallback_when_scoped_disabled(self, private_copy):
        dataset, model = private_copy
        pairs = predicted_pairs(model, limit=6)
        config = ServiceConfig(scoped_invalidation=False)

        with ExplanationService(model, dataset, config) as service:
            client = ExEAClient(service)
            for pair in pairs:
                client.confidence(*pair)
            report = service.mutate(removal_specs(dataset))
            assert report["scoped"] is False
            assert report["entries_retained"] == 0
            assert service.stats.invalidation["wholesale"] == 1
            assert service.stats.invalidation["scoped"] == 0
            after = {pair: client.confidence(*pair) for pair in pairs}

        cold = ExEA(model, dataset_copy(dataset))
        reference = cold.reference_alignment()
        for pair in pairs:
            assert after[pair] == cold.repairer.confidence(*pair, reference)

    def test_out_of_band_mutation_still_safe_via_wholesale(self, private_copy):
        """Mutating the graph directly (not through mutate()) keeps the
        pre-PR-8 wholesale contract: the next request drops everything."""
        dataset, model = private_copy
        pair = predicted_pairs(model, limit=1)[0]
        with ExplanationService(model, dataset) as service:
            client = ExEAClient(service)
            client.explain(*pair)
            removed = sorted(dataset.kg1.triples, key=lambda t: t.as_tuple())[0]
            dataset.kg1.remove_triple(removed)
            after = client.explain(*pair)
            assert service.stats.cache_invalidations == 1
        assert after == ExEA(model, dataset).explain(*pair)


# ----------------------------------------------------------------------
# Concurrency: lookups racing a mutation
# ----------------------------------------------------------------------
class TestConcurrentAndShardedMutate:
    def test_concurrent_lookups_during_mutation_match_a_cold_rebuild(
        self, fitted_model, service_dataset
    ):
        """Three readers call ``confidence`` in a loop while ``mutate``
        edits the graphs: none of them fails, and the replay after the
        mutation equals a cold rebuild on the mutated graphs."""
        dataset = dataset_copy(service_dataset)
        pairs = predicted_pairs(fitted_model, limit=12)
        workload = replay_workload(pairs, 60, seed=11, kinds=(EXPLAIN, CONFIDENCE))
        specs = removal_specs(dataset, count=2)
        config = ServiceConfig(num_workers=2)
        with ExplanationService(fitted_model, dataset, config) as service:
            client = ExEAClient(service)
            client.replay(workload)  # warm the cache

            stop = threading.Event()
            failures = []

            def hammer():
                try:
                    while not stop.is_set():
                        for source, target in pairs[:4]:
                            client.confidence(source, target)
                except BaseException as error:  # noqa: BLE001
                    failures.append(error)

            readers = [threading.Thread(target=hammer, daemon=True) for _ in range(3)]
            for reader in readers:
                reader.start()
            report = service.mutate(specs)
            stop.set()
            for reader in readers:
                reader.join(timeout=30)
            assert not failures
            assert report["applied"] == len(specs)
            after = client.replay(workload)

        # Fresh graph objects holding the post-mutation state: a reference
        # on the mutated ones would reuse their warm rule miners.
        cold = ExEA(fitted_model, dataset_copy(dataset))
        reference = cold.reference_alignment()
        expected = [
            cold.explain(source, target)
            if kind == EXPLAIN
            else cold.repairer.confidence(source, target, reference)
            for kind, source, target in workload
        ]
        assert after == expected


# ----------------------------------------------------------------------
# Wire forms
# ----------------------------------------------------------------------
class TestMutationWire:
    SPECS = [
        MutationSpec(op="add", kg=1, triple=Triple("é1", "r→", "e2")),
        MutationSpec(op="remove", kg=2, triple=Triple("x", "rel", "y")),
    ]

    def test_binary_codec_ships_specs_natively(self):
        payload = {"op": OP_MUTATE, "seq": 3, "mutations": list(self.SPECS)}
        decoded = decode_binary(encode_binary(payload))
        assert decoded["seq"] == 3
        assert decoded["mutations"] == self.SPECS
        assert all(isinstance(spec, MutationSpec) for spec in decoded["mutations"])
        assert decode_mutations(decoded["mutations"]) == self.SPECS

    @pytest.mark.parametrize(
        "payload",
        [
            "not-a-list",
            [["add", 1, "h", "r"]],
            [["grow", 1, "h", "r", "t", "x"]],
            [42],
            [["add", 1, "h", "r", "t"]],  # a 5-element row is not a MutationSpec
        ],
    )
    def test_malformed_rows_are_refused(self, payload):
        with pytest.raises(ValueError):
            decode_mutations(payload)


# ----------------------------------------------------------------------
# Ordered log over real sockets
# ----------------------------------------------------------------------
@pytest.fixture()
def mutation_server(private_copy):
    dataset, model = private_copy
    service = ExplanationService(model, dataset).start()
    server = ShardServer(service, shard_id=0, num_shards=1)
    address = server.bind("127.0.0.1:0")
    server.start_in_thread()
    yield dataset, model, service, server, address
    server.stop()
    service.close(drain=False)


class TestOrderedLogServer:
    def test_duplicate_gap_refusal_and_catch_up(self, mutation_server):
        dataset, model, service, server, address = mutation_server
        pair = predicted_pairs(model, limit=1)[0]
        batches = [removal_specs(dataset, count=3)[i : i + 1] for i in range(3)]
        client = RemoteShardClient(address)

        first = client.mutate(batches[0], seq=1)
        assert first["seq"] == 1 and first["applied"] == 1

        # Idempotent duplicate: acked, not re-applied.
        duplicate = client.mutate(batches[0], seq=1)
        assert duplicate["duplicate"] is True and duplicate["applied"] == 0
        assert tuple(duplicate["token"]) == service.generation_token()

        # A gap marks the replica behind; the batch is NOT applied and
        # reads are refused until the log is replayed in order.
        with pytest.raises(ReplicaBehindError):
            client.mutate(batches[2], seq=3)
        with pytest.raises(ReplicaBehindError):
            client.call({"op": EXPLAIN, "source": pair[0], "target": pair[1]})
        # The control plane stays reachable: pings report the applied seq.
        assert client.ping()["mutation_seq"] == 1

        # Replaying the missing entry (then the gapped one) catches up.
        assert client.mutate(batches[1], seq=2)["seq"] == 2
        assert client.mutate(batches[2], seq=3)["seq"] == 3
        served = client.call({"op": EXPLAIN, "source": pair[0], "target": pair[1]})
        client.close()

        from repro.service.transport.protocol import decode_value

        assert decode_value(EXPLAIN, served) == ExEA(model, dataset).explain(*pair)

    def test_unsequenced_mutate_applies_without_advancing_the_log(self, mutation_server):
        dataset, _, service, _, address = mutation_server
        client = RemoteShardClient(address)
        version_before = dataset.kg1.version
        report = client.mutate(removal_specs(dataset), seq=None)
        assert report["applied"] == 1
        assert dataset.kg1.version == version_before + 1
        assert client.ping()["mutation_seq"] == 0
        client.close()


# ----------------------------------------------------------------------
# Cluster-wide ordered fan-out (real subprocesses)
# ----------------------------------------------------------------------
class TestClusterMutation:
    def test_ordered_mutation_through_replicated_cluster(
        self, fitted_model, service_dataset
    ):
        pairs = predicted_pairs(fitted_model, limit=8)
        specs = removal_specs(service_dataset, count=2)

        # Expected post-mutation truth: a private in-process copy with the
        # same mutations applied through the same service primitives.
        expected_dataset = dataset_copy(service_dataset)
        with ExplanationService(fitted_model, expected_dataset) as local:
            local_client = ExEAClient(local)
            local.mutate(specs)
            expected = {
                pair: (local_client.explain(*pair), local_client.confidence(*pair))
                for pair in pairs
            }

        with ReplicatedLocalCluster(
            fitted_model, service_dataset, num_shards=2, num_replicas=2
        ) as cluster:
            client = cluster.client
            for pair in pairs:  # warm caches on every shard
                client.confidence(*pair)

            report = client.mutate(specs[:1])
            assert report["seq"] == 1
            assert len(report["replicas_applied"]) == 4
            assert report["replicas_behind"] == []
            report = client.mutate(specs[1:])
            assert report["seq"] == 2
            assert len(report["replicas_applied"]) == 4

            for pair in pairs:
                assert client.explain(*pair) == expected[pair][0]
                assert client.confidence(*pair) == expected[pair][1]

            # Kill one replica: the next mutation leaves it behind and
            # reads keep succeeding (failover routes around it).
            ChaosController(cluster).kill(0, 1)
            dead = cluster.replicas[0][1].endpoint
            extra = removal_specs(service_dataset, count=3)[2:]
            report = client.mutate(extra)
            assert report["seq"] == 3
            assert dead in report["replicas_behind"]
            assert len(report["replicas_applied"]) == 3
            for pair in pairs:
                client.confidence(*pair)  # must not raise

            # A catch-up sweep reports the dead replica still behind.
            assert dead in client.catch_up()["behind"]
