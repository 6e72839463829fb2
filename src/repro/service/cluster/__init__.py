"""Cluster control plane: replicated shards, health-checked failover, load-aware routing.

PR 4's transport put each shard in its own process but left the
topology a static, ordered endpoint list: one dead process takes its pair
partition offline and routing ignores load entirely.  This package adds
the fleet-operation layer in front of that transport:

* :mod:`~repro.service.cluster.topology` — the declarative topology
  document (JSON/TOML): shard → ordered replica endpoints + weights,
  validated at load time.
* :mod:`~repro.service.cluster.manager` — :class:`ClusterManager`, the
  control plane: continuous ``ping`` health checks with a
  consecutive-miss failure detector and reconnect backoff, optional
  liveness leases, publishing an immutable, versioned
  :class:`RoutingTable` of per-replica health and load (queue depth, the
  p95 of the last stats window).
* :mod:`~repro.service.cluster.client` — :class:`ClusterClient`, the
  exact `ExEAClient` facade routing each pair to its CRC-32 shard and,
  within it, to a healthy replica by load score, retrying idempotent
  requests on a replica failing mid-flight, and fanning
  ``invalidate()`` out to every replica of every shard.  It
  is the one remote client: a one-replica topology
  (:func:`topology_for_endpoints`) addresses a plain process-per-shard
  fleet.
* :mod:`~repro.service.cluster.local` — :class:`ReplicatedLocalCluster`,
  spawning R real server subprocesses per shard from one pickled
  snapshot (tests, benchmarks, the experiment runner's
  ``transport="cluster"``; ``num_replicas=1`` is the plain
  process-per-shard cluster).

``python -m repro.service cluster --topology cluster.json`` (or
``--endpoints A,B`` for one replica per shard) replays traffic against a
running cluster; see ``docs/OPERATIONS.md`` ("Running a cluster") for the
topology schema and failover semantics.
"""

from .client import ClusterClient, prefer_distinct_domains, replica_score
from .local import ReplicatedLocalCluster
from .manager import ClusterManager, ReplicaRoute, RoutingTable
from .topology import (
    ClusterTopology,
    ReplicaSpec,
    TopologyError,
    load_topology,
    parse_topology,
    topology_for_endpoints,
)

__all__ = [
    "ClusterClient",
    "ClusterManager",
    "ClusterTopology",
    "ReplicaRoute",
    "ReplicaSpec",
    "ReplicatedLocalCluster",
    "RoutingTable",
    "TopologyError",
    "load_topology",
    "parse_topology",
    "prefer_distinct_domains",
    "replica_score",
    "topology_for_endpoints",
]
