"""Explanation-as-a-service: a batching operation pipeline over the batch engine.

This package is the serving layer over the PR-1 batch engine (see
ROADMAP.md, "Service architecture").  The pieces compose bottom-up:

* :mod:`~repro.service.batching` — bounded :class:`RequestQueue`
  (admission control / backpressure) + :class:`MicroBatcher` (the
  coalescing policy: whatever is already queued, up to the max batch
  size).
* :mod:`~repro.service.cache` — :class:`ResultCache`, an LRU keyed on
  ``(operation, pair)`` and invalidated wholesale by the KG / model
  version counters.
* :mod:`~repro.service.worker` — :class:`WorkerPool`, pure executor
  threads with one engine backend each.
* :mod:`~repro.service.dispatch` — :class:`Dispatcher`, the central
  scheduler packing cross-worker, operation-homogeneous batches.
* :mod:`~repro.service.service` — :class:`ExplanationService` tying them
  together and the synchronous :class:`ExEAClient` facade.
* :mod:`~repro.service.sharding` — :class:`ShardRouter`, the CRC-32
  partition that maps a pair to the ``serve`` process (shard) that
  answers it.
* :mod:`~repro.service.stats` — :class:`ServiceStats` telemetry (hit
  rate, per-operation attribution, batch occupancy, p50/p95 latency from
  the request histogram) and :func:`merge_raw` for overall-across-shards
  reporting.
* :mod:`~repro.service.observability` — the tracing/metrics plane:
  :class:`TraceContext` propagation through every layer and the wire,
  per-process :class:`Span` rings stitched fleet-wide by
  :func:`stitch_trace`, log-bucketed per-stage histograms, the
  slow-request log, and the :func:`prometheus_text` exporter.
* :mod:`~repro.service.transport` — the process boundary:
  :class:`ShardServer` hosts one service per server process (one shard)
  behind length-prefixed binary frames, and :class:`RemoteShardClient`
  is the channel to one such server.
* :mod:`~repro.service.cluster` — the control plane over that transport:
  a declarative :class:`ClusterTopology` (shard → replica endpoints +
  weights), :class:`ClusterManager` health checking with a
  consecutive-miss failure detector publishing a versioned routing
  table, and :class:`ClusterClient`, the one remote client facade,
  routing reads to healthy replicas by load score with idempotent
  failover retry (:class:`ReplicatedLocalCluster` spawns R replicas per
  shard locally; one replica per shard is the plain process-per-shard
  fleet, addressed with :func:`topology_for_endpoints`).

``python -m repro.service`` serves a scripted traffic replay against a
registry dataset end to end through one in-process service;
``python -m repro.service serve`` / ``cluster`` run the shard processes
and the replicated control plane over them (see
``docs/OPERATIONS.md``).
"""

from .batching import MicroBatcher, RequestQueue, ServiceRequest
from .cache import ResultCache
from .cluster import (
    ClusterClient,
    ClusterManager,
    ClusterTopology,
    ReplicaSpec,
    ReplicatedLocalCluster,
    RoutingTable,
    TopologyError,
    load_topology,
    parse_topology,
    topology_for_endpoints,
)
from .config import ServiceConfig
from .dispatch import Dispatcher
from .errors import (
    DeadlineExceededError,
    RemoteOperationError,
    RemoteTransportError,
    ReplicaBehindError,
    ServiceClosedError,
    ServiceError,
    ServiceOverloadedError,
)
from .observability import (
    Span,
    SpanRecorder,
    TraceContext,
    new_trace,
    prometheus_text,
    stitch_trace,
)
from .service import (
    CONFIDENCE,
    EXPLAIN,
    VERIFY,
    ExEAClient,
    ExplanationService,
    MutationSpec,
    replay_concurrently,
)
from .sharding import ShardRouter
from .stats import ServiceStats, WireCounters, imbalance_summary, merge_raw
from .transport import RemoteShardClient, ShardServer
from .worker import WorkerPool

__all__ = [
    "CONFIDENCE",
    "ClusterClient",
    "ClusterManager",
    "ClusterTopology",
    "DeadlineExceededError",
    "Dispatcher",
    "EXPLAIN",
    "ExEAClient",
    "ExplanationService",
    "MicroBatcher",
    "MutationSpec",
    "RemoteOperationError",
    "ReplicaBehindError",
    "RemoteShardClient",
    "RemoteTransportError",
    "ReplicaSpec",
    "ReplicatedLocalCluster",
    "RequestQueue",
    "ResultCache",
    "RoutingTable",
    "ServiceClosedError",
    "ServiceConfig",
    "ServiceError",
    "ServiceOverloadedError",
    "ServiceRequest",
    "ServiceStats",
    "ShardRouter",
    "ShardServer",
    "Span",
    "SpanRecorder",
    "TopologyError",
    "TraceContext",
    "VERIFY",
    "WireCounters",
    "WorkerPool",
    "imbalance_summary",
    "load_topology",
    "merge_raw",
    "new_trace",
    "parse_topology",
    "prometheus_text",
    "replay_concurrently",
    "stitch_trace",
    "topology_for_endpoints",
]
