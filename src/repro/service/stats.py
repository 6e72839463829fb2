"""Service telemetry: counters, cache hit rate, batch occupancy, latency histograms.

Cache hits and misses are additionally attributed to the *operation* that
made them (explain / confidence / verify).  This is what makes a
``verify`` answered from the confidence cache visible: it is counted as a
cache hit under its own ``verify`` counter even though the cached raw
value lives under the ``confidence`` cache key.

Latency lives in the fixed-ladder histograms of ``stages``; the snapshot's
``p50_ms``/``p95_ms`` are estimates from the whole-request ``request``
histogram.  :func:`merge_stats` combines the stats of several shards into
one overall snapshot — counters and histogram buckets are summed, so the
merge is exact — which is how the sharded service reports "overall"
figures next to its per-shard rows.
"""

from __future__ import annotations

import threading
from typing import Iterable

from .observability.metrics import MetricsRegistry, summarize_histogram_raw


class WireCounters:
    """Thread-safe per-connection transport telemetry.

    Both wire endpoints (the remote client's connections and each shard
    server's accept loop) keep one of these per peer plus one aggregate:
    bytes and frames in each direction, and the nanoseconds spent inside
    the codec (encode before send, decode after receive).  The split is
    what makes a codec regression observable in production: it shows up
    as more bytes or more codec time for the same frame counts, without
    rerunning a benchmark.
    """

    __slots__ = (
        "_lock",
        "bytes_sent",
        "bytes_received",
        "frames_sent",
        "frames_received",
        "encode_ns",
        "decode_ns",
    )

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.bytes_sent = 0
        self.bytes_received = 0
        self.frames_sent = 0
        self.frames_received = 0
        self.encode_ns = 0
        self.decode_ns = 0

    def record_sent(self, nbytes: int, encode_ns: int = 0) -> None:
        """Count one outgoing frame of *nbytes* that took *encode_ns* to encode."""
        with self._lock:
            self.bytes_sent += nbytes
            self.frames_sent += 1
            self.encode_ns += encode_ns

    def record_received(self, nbytes: int, decode_ns: int = 0) -> None:
        """Count one incoming frame of *nbytes* that took *decode_ns* to decode."""
        with self._lock:
            self.bytes_received += nbytes
            self.frames_received += 1
            self.decode_ns += decode_ns

    def raw(self) -> dict:
        """Copy of the counters as a plain dict (mergeable, JSON-safe)."""
        with self._lock:
            return {
                "bytes_sent": self.bytes_sent,
                "bytes_received": self.bytes_received,
                "frames_sent": self.frames_sent,
                "frames_received": self.frames_received,
                "encode_ns": self.encode_ns,
                "decode_ns": self.decode_ns,
            }


class ServiceStats:
    """Thread-safe counters describing one service's traffic.

    Everything is recorded under one lock; reads go through
    :meth:`snapshot`, which derives the aggregate figures (hit rate, mean
    batch occupancy, p50/p95 latency) from the raw counters and
    histograms so the hot path only ever increments integers.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.submitted = 0
        self.completed = 0
        self.failed = 0
        self.rejected = 0
        self.expired = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.cache_evictions = 0
        self.cache_invalidations = 0
        #: per-scope invalidation telemetry (PR-8): scoped vs wholesale
        #: advances, how many entries each scoped advance dropped vs
        #: retained, and the blast-radius sizes that drove them.
        self.invalidation: dict[str, int] = {
            "scoped": 0,
            "wholesale": 0,
            "entries_dropped": 0,
            "entries_retained": 0,
            "blast_entities": 0,
            "max_blast_entities": 0,
        }
        self.num_batches = 0
        self.batched_requests = 0
        self.max_batch_size = 0
        #: completions slow enough for the slow-request log (PR-10): a
        #: cumulative counter, unlike the bounded log itself, so it
        #: merges fleet-wide and survives ring eviction.
        self.slow_requests = 0
        #: operation kind -> cache hits / misses attributed to that kind
        self.hits_by_kind: dict[str, int] = {}
        self.misses_by_kind: dict[str, int] = {}
        #: transport telemetry for whatever wire serves this service (the
        #: shard server aggregates every connection into this object)
        self.wire = WireCounters()
        #: per-stage log-bucketed duration histograms (queue / batch /
        #: engine / cache / wire_encode / wire_decode, plus the
        #: whole-request ``request`` ones); fixed shared bucket ladder,
        #: so fleet merges are exact
        self.stages = MetricsRegistry()

    # ------------------------------------------------------------------
    def record_submitted(self) -> None:
        """Count one submitted request."""
        with self._lock:
            self.submitted += 1

    def record_rejected(self) -> None:
        """Count one request rejected by admission control (backpressure)."""
        with self._lock:
            self.rejected += 1

    def record_expired(self) -> None:
        """Count one request whose deadline lapsed before serving."""
        with self._lock:
            self.expired += 1

    def record_failed(self) -> None:
        """Count one request failed by an error other than its deadline."""
        with self._lock:
            self.failed += 1

    def record_hit(self, kind: str | None = None) -> None:
        """Count one cache hit, attributed to operation *kind* when given."""
        with self._lock:
            self.cache_hits += 1
            if kind is not None:
                self.hits_by_kind[kind] = self.hits_by_kind.get(kind, 0) + 1

    def record_miss(self, kind: str | None = None) -> None:
        """Count one cache miss, attributed to operation *kind* when given."""
        with self._lock:
            self.cache_misses += 1
            if kind is not None:
                self.misses_by_kind[kind] = self.misses_by_kind.get(kind, 0) + 1

    def record_eviction(self, count: int = 1) -> None:
        """Count *count* LRU evictions."""
        with self._lock:
            self.cache_evictions += count

    def record_invalidation(self) -> None:
        """Count one wholesale cache invalidation (generation change)."""
        with self._lock:
            self.cache_invalidations += 1
            self.invalidation["wholesale"] += 1

    def record_scoped_invalidation(
        self, dropped: int, retained: int, blast_entities: int
    ) -> None:
        """Count one blast-radius scoped cache advance.

        *dropped* / *retained* are the entry counts the scoped eviction
        removed and kept; *blast_entities* is the size of the entity
        blast radius that drove the scopes (a high watermark of it is
        kept alongside the running sum, mirroring ``max_batch_size``).
        """
        with self._lock:
            self.invalidation["scoped"] += 1
            self.invalidation["entries_dropped"] += dropped
            self.invalidation["entries_retained"] += retained
            self.invalidation["blast_entities"] += blast_entities
            if blast_entities > self.invalidation["max_blast_entities"]:
                self.invalidation["max_blast_entities"] = blast_entities

    def record_batch(self, size: int) -> None:
        """Count one gathered batch of *size* requests (occupancy telemetry)."""
        with self._lock:
            self.num_batches += 1
            self.batched_requests += size
            if size > self.max_batch_size:
                self.max_batch_size = size

    def record_completed(self) -> None:
        """Count one request resolved with a result (its latency goes to :meth:`record_request`)."""
        with self._lock:
            self.completed += 1

    def record_stage(self, stage: str, seconds: float) -> None:
        """Record one per-stage duration into its log-bucketed histogram.

        Stage histograms live outside the main lock (each histogram has
        its own); the hot path pays one dict lookup and one bucket
        increment per stage.
        """
        self.stages.observe(stage, seconds)

    def record_request(self, kind: str, seconds: float) -> None:
        """Record one whole-request latency histogram sample.

        Lands in the ``request`` histogram plus a per-operation
        ``request.<kind>`` histogram — the fixed-ladder, exactly
        fleet-mergeable latency distribution behind the snapshot's
        ``p50_ms``/``p95_ms`` and the SLO engine's per-operation
        objectives.
        """
        self.stages.observe("request", seconds)
        self.stages.observe(f"request.{kind}", seconds)

    def record_slow_request(self) -> None:
        """Count one completion over the slow-request threshold."""
        with self._lock:
            self.slow_requests += 1

    # ------------------------------------------------------------------
    def raw(self) -> dict:
        """Copy of the raw counters and histograms (caller gets fresh objects).

        This is what the remote transport ships over the wire (the
        ``--stats-json`` equivalent): raw parts merge exactly, whereas
        derived figures (hit rates, percentiles) generally do not.
        """
        with self._lock:
            counters = {
                "submitted": self.submitted,
                "completed": self.completed,
                "failed": self.failed,
                "rejected": self.rejected,
                "expired": self.expired,
                "cache_hits": self.cache_hits,
                "cache_misses": self.cache_misses,
                "cache_evictions": self.cache_evictions,
                "cache_invalidations": self.cache_invalidations,
                "num_batches": self.num_batches,
                "batched_requests": self.batched_requests,
                "max_batch_size": self.max_batch_size,
                "slow_requests": self.slow_requests,
                "hits_by_kind": dict(self.hits_by_kind),
                "misses_by_kind": dict(self.misses_by_kind),
                "invalidation": dict(self.invalidation),
                "wire": self.wire.raw(),
            }
        # The registry has its own locks; taken outside the stats lock.
        counters["stages"] = self.stages.raw()
        return counters

    def snapshot(self) -> dict:
        """Aggregate view of the counters (safe to call while serving)."""
        return _derive_snapshot(self.raw())


def _derive_snapshot(counters: dict) -> dict:
    """Turn raw counters into the reported snapshot.

    Tolerant of raw parts from version-skewed peers: keys a peer's
    release predates (``wire``, ``stages``) are simply absent from its
    part and the derived figures treat them as zeros.  ``p50_ms`` and
    ``p95_ms`` repeat ``stage_latency_ms["request"]``: estimates from the
    since-start request histogram, within one doubling bucket of the
    true value.
    """
    hits_by_kind = counters.get("hits_by_kind", {})
    misses_by_kind = counters.get("misses_by_kind", {})
    lookups = counters.get("cache_hits", 0) + counters.get("cache_misses", 0)
    kinds = sorted(set(hits_by_kind) | set(misses_by_kind))
    per_operation = {
        kind: {
            "cache_hits": hits_by_kind.get(kind, 0),
            "cache_misses": misses_by_kind.get(kind, 0),
        }
        for kind in kinds
    }
    stages = counters.get("stages", {})
    stage_latency_ms = {
        stage: summarize_histogram_raw(raw)
        for stage, raw in stages.items()
        if isinstance(raw, dict)
    }
    request = stage_latency_ms.get("request", {})
    snapshot = {
        key: value
        for key, value in counters.items()
        if key not in ("hits_by_kind", "misses_by_kind")
    }
    snapshot.update(
        {
            "cache_hit_rate": counters.get("cache_hits", 0) / lookups if lookups else 0.0,
            "mean_batch_occupancy": (
                counters.get("batched_requests", 0) / counters["num_batches"]
                if counters.get("num_batches")
                else 0.0
            ),
            "per_operation": per_operation,
            "stage_latency_ms": stage_latency_ms,
            "p50_ms": request.get("p50_ms", 0.0),
            "p95_ms": request.get("p95_ms", 0.0),
        }
    )
    return snapshot


def imbalance_summary(values: Iterable[float]) -> dict:
    """Skew of a per-shard quantity: ``{"max", "mean", "max_over_mean"}``.

    ``max_over_mean`` is the imbalance factor — 1.0 means a perfectly
    even spread, 2.0 means the hottest shard carries twice its fair
    share.  A zero mean (no traffic / no pairs yet) reports 1.0 rather
    than dividing by zero: an empty cluster is trivially balanced.
    """
    values = [float(value) for value in values]
    if not values:
        return {"max": 0.0, "mean": 0.0, "max_over_mean": 1.0}
    mean = sum(values) / len(values)
    peak = max(values)
    return {
        "max": peak,
        "mean": mean,
        "max_over_mean": peak / mean if mean > 0 else 1.0,
    }


def merge_stats(stats: Iterable[ServiceStats]) -> dict:
    """One overall snapshot across several :class:`ServiceStats` objects.

    Counters and histogram buckets are summed and the per-operation
    attribution is merged, so the overall p50/p95 reflect every shard's
    requests (``max_batch_size`` takes the max, as it is a high
    watermark rather than a sum).  The result carries a
    ``shard_imbalance.request_share`` summary (max/mean submitted across
    the merged parts) so a skewed partition is visible in the overall
    row, not only by eyeballing the per-shard ones.
    """
    return merge_raw(shard_stats.raw() for shard_stats in stats)


def merge_raw(parts: Iterable[dict]) -> dict:
    """Merge raw counters parts (:meth:`ServiceStats.raw`) into one overall snapshot.

    The raw-parts form of :func:`merge_stats`: this is what the remote
    transport uses to aggregate the per-process stats payloads fetched
    from every shard server, and what :func:`merge_stats` delegates to
    for in-process shards.  The input parts are left untouched (the
    accumulator starts from its own copy), so the same raw payloads can
    feed several aggregations — e.g. a cluster's overall *and* per-shard
    merges.
    """
    total: dict = {}
    per_part_submitted: list[int] = []
    for counters in parts:
        per_part_submitted.append(counters.get("submitted", 0))
        _merge_counters(total, counters)
    snapshot = _derive_snapshot(total if per_part_submitted else ServiceStats().raw())
    snapshot["shard_imbalance"] = {"request_share": imbalance_summary(per_part_submitted)}
    return snapshot


def _merge_counters(total: dict, part: dict) -> None:
    """Merge one raw counters dict into the *total* accumulator, in place.

    Recursive and shape-tolerant on purpose — this is the version-skew
    boundary of the stats plane.  Peers in a mixed-version fleet ship
    whatever keys their release knows about: an older peer's part may
    lack ``wire`` or ``stages`` entirely (they merge as zeros via the
    lazily-created accumulator slot), a newer peer may ship maps nested
    arbitrarily deep (histogram raw forms inside ``stages``) or keys this
    release has never heard of (summed as opaque counters).  Lists merge
    element-wise with length padding, so histogram ``counts`` arrays from
    releases with different ladder lengths still add up.
    ``max_batch_size`` stays a high watermark rather than a sum.
    """
    for key, value in part.items():
        if isinstance(value, dict):
            slot = total.setdefault(key, {})
            if isinstance(slot, dict):
                _merge_counters(slot, value)
        elif isinstance(value, (list, tuple)):
            slot = total.setdefault(key, [])
            if isinstance(slot, list):
                for index, item in enumerate(value):
                    if index < len(slot):
                        slot[index] += item
                    else:
                        slot.append(item)
        elif key in ("max_batch_size", "max_blast_entities"):
            total[key] = max(total.get(key, 0), value)
        else:
            total[key] = total.get(key, 0) + value
