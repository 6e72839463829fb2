"""remote-hot-rw: hot reads through the process boundary, with live writes.

Set-up generates ZH-EN, fits MTransE (no dense propagation), spawns
``ReplicatedLocalCluster(num_shards=2, num_replicas=1)`` — one client
and two server processes — and warms a seeded hot set of predicted pairs
with one ``explain`` and one ``confidence`` each.  The timed phase is
the benchmark's 2-thread closed loop over ``ClusterClient`` with default
service and wire settings: Zipf reads over the hot set, and every
200th operation a ``mutate`` that alternately removes and re-adds one
kg1 triple, so the run ends on the starting graph.

Answers are checked against the direct path under the same reference
alignment (model predictions plus seed alignment): ``explain`` against
``ExplanationGenerator.explain_pairs``, ``confidence`` against
``EARepairer.confidence_batch`` — the service serves repair confidence,
cr1 filtering included.
"""

from __future__ import annotations

import random
import threading
import time
from array import array

from repro.core import ExEAConfig, ExplanationGenerator
from repro.core.repair import EARepairer
from repro.service import CONFIDENCE, EXPLAIN, MutationSpec, ReplicatedLocalCluster

from .harness import (
    CALL_TIMEOUT_S,
    SETUP_ROUNDS,
    Metric,
    Outcome,
    closed_loop,
    describe_percentile,
    fast_quartile,
    fit,
    generate,
    latency_metrics,
    peak_rss_mb,
    percentile,
    windowed,
)
from .tracing import core_layer_metrics

#: ZH-EN scale (≈2.1k entities per KG, ≈1.5k test pairs).
SCALE = 5.0
MODEL = "MTransE"
#: Hot set size, Zipf skew over it, and one write per this many ops.
HOT_PAIRS = 200
ZIPF_SKEW = 1.1
WRITE_EVERY = 200
#: Reads per popularity window: each window ranks the hot set afresh, so a
#: run averages over many draws of which pairs are hottest.
POPULARITY_WINDOW = 400
#: Length of the pre-drawn read sequence (more than a run issues).
READ_SEQUENCE = 60_000
#: kg1 triples the write stream cycles through, rarest relations first.
WRITE_TRIPLES = 128
#: rps and read percentiles are computed per window of this length.
WINDOW_S = 1.0


def _call(client, kind: str, pair: tuple[str, str]):
    if kind == EXPLAIN:
        return client.explain(*pair, timeout=CALL_TIMEOUT_S)
    return client.confidence(*pair, timeout=CALL_TIMEOUT_S)


def _direct_answers(model, dataset, pairs: list) -> dict[tuple[str, tuple], object]:
    """Explain and confidence answers of *pairs* from the direct (non-served) path."""
    config = ExEAConfig()
    generator = ExplanationGenerator(model, dataset, config.explanation)
    reference = generator.reference_alignment()
    explanations = generator.explain_pairs(pairs, reference)
    confidences = EARepairer(model, dataset, config.repair).confidence_batch(pairs, reference)
    answers = {(EXPLAIN, pair): value for pair, value in explanations.items()}
    answers.update({(CONFIDENCE, pair): value for pair, value in confidences.items()})
    return answers


def write_triples(dataset) -> list:
    """kg1 triples, rarest relations first (the churn benchmark's write shape)."""
    kg = dataset.kg1
    relations = sorted(kg.relations, key=lambda r: (len(kg.triples_with_relation(r)), r))
    triples = []
    for relation in relations:
        triples.extend(sorted(kg.triples_with_relation(relation), key=lambda t: t.as_tuple()))
        if len(triples) >= WRITE_TRIPLES:
            break
    return triples[:WRITE_TRIPLES]


class ReadSequence:
    """Pre-drawn reads: hot-set indexes and explain/confidence flags.

    Kept in flat arrays, which the garbage collector does not walk.
    """

    def __init__(self, hot: list, picks: array, explain: bytearray) -> None:
        self.hot = hot
        self.picks = picks
        self.explain = explain

    def __len__(self) -> int:
        return len(self.picks)

    def __getitem__(self, index: int) -> tuple[str, tuple[str, str]]:
        return (EXPLAIN if self.explain[index] else CONFIDENCE), self.hot[self.picks[index]]


def hot_inputs(model, seed: int) -> tuple[list, ReadSequence]:
    """The seeded hot set and a Zipf read sequence over it, half explain, half confidence.

    Which pair holds which Zipf rank is redrawn every
    :data:`POPULARITY_WINDOW` reads.
    """
    rng = random.Random(seed)
    hot = rng.sample(sorted(model.predict().pairs), HOT_PAIRS)
    weights = [1.0 / rank**ZIPF_SKEW for rank in range(1, HOT_PAIRS + 1)]
    picks = array("H")
    while len(picks) < READ_SEQUENCE:
        ranked = rng.sample(range(HOT_PAIRS), HOT_PAIRS)
        picks.extend(rng.choices(ranked, weights=weights, k=POPULARITY_WINDOW))
    explain = bytearray(rng.random() < 0.5 for _ in range(len(picks)))
    return hot, ReadSequence(hot, picks, explain)


class WriteStream:
    """Alternately removes and re-adds one kg1 triple, in order, one write at a time.

    ``state`` is ``(writes started, writes done)``; the graph is in its
    starting state whenever both are equal and even.
    """

    def __init__(self, client, triples) -> None:
        self.client = client
        self.triples = triples
        self.lock = threading.Lock()
        self.done = 0
        self.state = (0, 0)
        self.behind: list[str] = []

    def write(self) -> None:
        with self.lock:
            number = self.done
            triple = self.triples[(number // 2) % len(self.triples)]
            spec = MutationSpec(op="remove" if number % 2 == 0 else "add", kg=1, triple=triple)
            self.state = (number + 1, number)
            try:
                report = self.client.mutate([spec], timeout=CALL_TIMEOUT_S)
                self.behind.extend(report["replicas_behind"])
            finally:
                self.done = number + 1
                self.state = (number + 1, number + 1)

    def restore(self) -> None:
        """Re-add the last removed triple, so the graph ends where it started."""
        if self.done % 2 == 1:
            self.write()


def _warm_up(client, hot) -> dict:
    return {(kind, pair): _call(client, kind, pair) for pair in hot for kind in (EXPLAIN, CONFIDENCE)}


def _remote_round(seed: int):
    """Generate, fit, spawn and warm up; the input drawing between is not timed."""
    started = time.perf_counter()
    dataset = generate(SCALE, seed)
    model = fit(MODEL, dataset, seed)
    fit_seconds = time.perf_counter() - started
    hot, reads = hot_inputs(model, seed)
    started = time.perf_counter()
    cluster = ReplicatedLocalCluster(model, dataset, num_shards=2, num_replicas=1)
    try:
        cluster.start()
        warm = _warm_up(cluster.client, hot)
    except BaseException:
        cluster.close()
        raise
    return fit_seconds + time.perf_counter() - started, model, dataset, cluster, hot, reads, warm


def _hot_phase(client, writes: WriteStream, reads, warm, seconds: float):
    checked: list[bool] = []

    def operation(index: int) -> tuple[str, float]:
        began = time.perf_counter()
        if index % WRITE_EVERY == WRITE_EVERY - 1:
            writes.write()
            return "write", time.perf_counter() - began
        kind, pair = reads[index - index // WRITE_EVERY]
        before = writes.state
        began = time.perf_counter()
        value = _call(client, kind, pair)
        seconds = time.perf_counter() - began
        if before == writes.state and before[0] == before[1] and before[1] % 2 == 0:
            checked.append(value == warm[(kind, pair)])
        return "read", seconds

    loop = closed_loop(operation, len(reads) * WRITE_EVERY // (WRITE_EVERY - 1), seconds)
    writes.restore()
    return loop, checked


def _count_hot_phase(loop, checked, outcome: Outcome) -> None:
    outcome.count_loop(loop)
    outcome.mismatches(
        checked.count(False), loop.completed, "read in the starting graph state != warm-up answer"
    )
    outcome.lines.append(f"reads checked against warm-up answers: {len(checked)}")


def _diff(after: dict, before: dict, *keys) -> float:
    for key in keys:
        after, before = after.get(key, {}), before.get(key, {})
    return (after or 0) - (before or 0)


def _stage_mean_ms(after: dict, before: dict, stage: str) -> float:
    def totals(snapshot):
        row = snapshot.get("stage_latency_ms", {}).get(stage, {})
        return row.get("mean_ms", 0.0) * row.get("count", 0), row.get("count", 0)

    (sum_after, count_after), (sum_before, count_before) = totals(after), totals(before)
    count = count_after - count_before
    return (sum_after - sum_before) / count if count else 0.0


def _remote_layer_metrics(before: dict, after: dict, wire_before: dict, wire_after: dict,
                          loop, server_rss: list[float]) -> dict[str, Metric]:
    """Server-side layers over the traced phase, from stats and wire counters."""
    overall_after, overall_before = after["overall"], before["overall"]
    hits = _diff(overall_after, overall_before, "cache_hits")
    misses = _diff(overall_after, overall_before, "cache_misses")
    batches = _diff(overall_after, overall_before, "num_batches")
    batched = _diff(overall_after, overall_before, "batched_requests")
    kept = _diff(overall_after, overall_before, "invalidation", "entries_retained")
    dropped = _diff(overall_after, overall_before, "invalidation", "entries_dropped")
    metrics = {
        "service.queue_ms": Metric(_stage_mean_ms(overall_after, overall_before, "queue"), "ms"),
        "service.engine_ms": Metric(_stage_mean_ms(overall_after, overall_before, "engine"), "ms"),
        "service.batch_occupancy": Metric(batched / batches if batches else 0.0, "requests"),
        "service.cache_hit_ratio": Metric(hits / (hits + misses) if hits + misses else 0.0, "ratio"),
        "service.rejected": Metric(_diff(overall_after, overall_before, "rejected"), "count"),
        "service.invalidation_retained_ratio": Metric(kept / (kept + dropped) if kept + dropped else 0.0, "ratio"),
    }
    shares = [
        _diff(shard_after, shard_before, "submitted")
        for shard_after, shard_before in zip(after["per_shard"], before["per_shard"])
    ]
    mean_share = sum(shares) / len(shares) if shares else 0.0
    client_wire = {key: wire_after["overall"].get(key, 0) - wire_before["overall"].get(key, 0)
                   for key in wire_after["overall"]}
    server_wire = {key: _diff(overall_after, overall_before, "wire", key) for key in client_wire}
    frames = sum(wire[key] for wire in (client_wire, server_wire) for key in ("frames_sent", "frames_received"))
    codec_ns = sum(wire[key] for wire in (client_wire, server_wire) for key in ("encode_ns", "decode_ns"))
    ops = loop.completed
    reads = loop.latencies.get("read", [])
    client_read_ms = 1000.0 * sum(reads) / len(reads) if reads else 0.0
    metrics["sharding.imbalance"] = Metric(max(shares) / mean_share if mean_share else 0.0, "ratio",
                                           "max / mean requests per shard")
    metrics["transport.added_ms"] = Metric(
        client_read_ms - _stage_mean_ms(overall_after, overall_before, "request"), "ms",
        "client read mean - server request mean",
    )
    metrics["transport.bytes_per_op"] = Metric(
        (client_wire.get("bytes_sent", 0) + client_wire.get("bytes_received", 0)) / ops if ops else 0.0, "B"
    )
    metrics["transport.codec_us_per_frame"] = Metric(codec_ns / frames / 1000.0 if frames else 0.0, "us")
    metrics["cluster.replica_rss_mb"] = Metric(sum(server_rss) / len(server_rss), "MB", "mean over replicas")
    metrics["cluster.retries"] = Metric(
        sum(row.get("failures", 0) for row in after["routing"]["replicas"]), "count"
    )
    return metrics


def run_remote_hot_rw(seed: int, seconds: float, tracer=None) -> Outcome:
    """One remote-hot-rw run; *tracer* set means a traced run."""
    outcome = Outcome("remote-hot-rw")
    cluster = None
    try:
        for _ in range(1 if tracer is not None else SETUP_ROUNDS):
            if cluster is not None:
                cluster.close()
            if tracer is not None:
                with tracer.recording("setup"):
                    elapsed, model, dataset, cluster, hot, reads, warm = _remote_round(seed)
            else:
                elapsed, model, dataset, cluster, hot, reads, warm = _remote_round(seed)
            outcome.setup_rounds.append(elapsed)

        client = cluster.client
        writes = WriteStream(client, write_triples(dataset))
        loop, checked = _hot_phase(client, writes, reads, warm, seconds)
        _count_hot_phase(loop, checked, outcome)

        if tracer is not None:
            before, wire_before = client.stats_snapshot(), client.wire_snapshot()
            with tracer.recording("phase"):
                loop_b, checked_b = _hot_phase(client, writes, reads, warm, seconds)
            after, wire_after = client.stats_snapshot(), client.wire_snapshot()
            _count_hot_phase(loop_b, checked_b, outcome)

        final = _warm_up(client, hot)
        outcome.mismatches(
            sum(final[key] != value for key, value in warm.items()), len(warm),
            "hot pair after the run != warm-up answer",
        )
        outcome.check(not writes.behind, f"replicas left behind by a write: {writes.behind}")
        server_rss = [peak_rss_mb(replica.process.pid) for group in cluster.replicas for replica in group]
    finally:
        if cluster is not None:
            cluster.close()

    expected = _direct_answers(model, dataset, hot)
    outcome.mismatches(
        sum(warm[key] != expected[key] for key in warm), len(warm), "warm-up answer != direct path"
    )
    outcome.meta.update(
        {
            "scale": SCALE,
            "model": MODEL,
            "entities_kg1": len(dataset.kg1.entities),
            "entities_kg2": len(dataset.kg2.entities),
            "test_pairs": len(dataset.test_alignment),
            "hot_pairs": len(hot),
            "ops_issued": loop.issued,
            "writes": writes.done,
            "shards": 2,
            "replicas": 1,
            "client_threads": 2,
        }
    )
    rates, reads_by_window = windowed(loop, WINDOW_S)
    outcome.lines.append(f"pooled rps = {loop.completed / loop.wall_s:.2f} 1/s ({loop.completed} ops)")
    outcome.end_to_end["rps"] = Metric(
        fast_quartile(rates, lower_is_better=False), "1/s",
        f"reads + writes, third quartile over {len(rates)} windows of {WINDOW_S:g} s",
    )
    outcome.end_to_end.update(latency_metrics(reads_by_window, "read", outcome))
    write_samples = loop.latencies.get("write", [])
    write_p50 = percentile(write_samples, 0.5)
    outcome.lines.append(describe_percentile("write p50", write_p50))
    if write_p50 is not None:
        outcome.report["write_p50_ms"] = Metric(write_p50["value"] * 1000.0, "ms", f"n={write_p50['samples']}")
    rss = {"client": peak_rss_mb()}
    rss.update({f"server{index}": mb for index, mb in enumerate(server_rss)})
    outcome.lines.append("peak RSS: " + ", ".join(f"{name} {mb:.1f} MB" for name, mb in rss.items()))
    outcome.end_to_end["peak_rss_mb"] = Metric(sum(rss.values()), "MB")
    outcome.lines.append(
        f"set-up rounds: {', '.join(f'{value:.3f} s' for value in outcome.setup_rounds)}"
        f" | phase {loop.wall_s:.3f} s"
    )

    if tracer is not None:
        outcome.per_layer.update(core_layer_metrics(tracer))
        outcome.per_layer.update(_remote_layer_metrics(before, after, wire_before, wire_after, loop_b, server_rss))
        untraced = loop.completed / loop.wall_s
        traced = loop_b.completed / loop_b.wall_s
        outcome.per_layer["bench.trace_overhead"] = Metric(untraced / traced, "ratio", "untraced / traced rps")
    return outcome
