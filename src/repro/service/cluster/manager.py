"""Cluster control plane: health checking, leases and load signals.

:class:`ClusterManager` continuously probes every endpoint of a
:class:`~repro.service.cluster.topology.ClusterTopology` with the wire
protocol's ``ping`` operation and runs a consecutive-miss failure
detector over the answers: an endpoint is **up** while pings succeed,
becomes **down** after ``miss_threshold`` consecutive misses (or
immediately when the data path reports a mid-request connection failure
via :meth:`report_failure`), and is re-probed under exponential reconnect
backoff until it answers again — a replica that restarts rejoins the
rotation without operator action.  This is the same fleet-operation
discipline long-running distributed arrays apply: the monitor, not the
request path, owns the liveness decision, and the request path consumes
its published view.

On top of the detector the manager runs one autonomous loop, off by
default and deterministic under an injected ``clock``: **leases**.  Each
successful ping renews a liveness lease (the server advertises the TTL
it grants; the manager tracks expiry on its *own* clock).  A replica
whose lease lapses — or that keeps answering pings while its admitted
work stalls (queue depth > 0 and the completed counter frozen for
``lease_stall_cycles`` stats cycles) — has its lease revoked: it drops
out of preferred routing *before* the consecutive-miss detector would
catch it, which is exactly the half-dead (SIGSTOP'd, deadlocked,
GC-wedged) failure mode ping counts alone cannot see.

The first probe cycle and every ``stats_every``-th one after it also
read each replica's ``request`` histogram and publish the p95 of the
requests recorded since the previous stats probe — a windowed figure, so
a slow spell stops counting against a replica one stats cycle after it
ends.  The first reading has no earlier one and is since-start.

That view is the :class:`RoutingTable` — an immutable snapshot, swapped
atomically and versioned, mapping every shard to its replicas' health and
load signals.  :class:`~repro.service.cluster.client.ClusterClient`
reads the current table on every routing decision and never blocks on
the prober; a table is always available because construction publishes
one synchronously before the probe thread starts.  Lease revocations and
restorations (and the SLO alerter's transitions) append to a bounded
event log surfaced through ``stats_snapshot()["fleet"]`` and
``--stats-json``.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable

from ..errors import RemoteTransportError
from ..observability.metrics import histogram_quantile
from ..transport.client import RemoteShardClient
from ..transport.framing import DEFAULT_MAX_FRAME_BYTES
from ..transport.protocol import OP_STATS
from .topology import ClusterTopology

#: Default seconds between health-probe cycles.
DEFAULT_PROBE_INTERVAL = 0.5
#: Consecutive failed pings before a replica is marked down.
DEFAULT_MISS_THRESHOLD = 3
#: First reconnect backoff after a replica goes down (seconds); doubles
#: per subsequent miss up to :data:`DEFAULT_BACKOFF_MAX`.
DEFAULT_BACKOFF_BASE = 0.5
DEFAULT_BACKOFF_MAX = 8.0
#: Pull the heavier ``stats`` payload (windowed p95) every Nth probe cycle.
DEFAULT_STATS_EVERY = 4
#: Stats cycles of frozen progress (with queued work) before a lease is
#: revoked for a work stall.
DEFAULT_LEASE_STALL_CYCLES = 3
#: Fleet events kept (lease revocations and restorations, SLO alerts).
FLEET_EVENT_CAPACITY = 256


@dataclass(frozen=True)
class ReplicaRoute:
    """One replica's published routing entry (immutable table row)."""

    endpoint: str
    shard_id: int
    replica_index: int
    weight: float
    healthy: bool
    queue_depth: int = 0
    p95_ms: float = 0.0
    consecutive_misses: int = 0
    last_error: str | None = None
    #: Failure-domain labels from the topology (``None`` = unlabelled).
    zone: str | None = None
    rack: str | None = None
    #: False while the liveness lease is revoked (expired, or work
    #: stalled); such replicas leave preferred routing but remain
    #: last-resort candidates, like unhealthy ones.
    lease_ok: bool = True


@dataclass(frozen=True)
class RoutingTable:
    """Atomic snapshot of every replica's health/load, grouped by shard."""

    version: int
    shards: tuple[tuple[ReplicaRoute, ...], ...]

    def replicas(self, shard_id: int) -> tuple[ReplicaRoute, ...]:
        """Every replica route of one shard (healthy and not)."""
        return self.shards[shard_id]

    def healthy(self, shard_id: int) -> tuple[ReplicaRoute, ...]:
        """The healthy replicas of one shard, replica order preserved."""
        return tuple(route for route in self.shards[shard_id] if route.healthy)

    def route_of(self, endpoint: str) -> ReplicaRoute:
        """The table row of one endpoint (raises ``KeyError`` on unknown)."""
        for replicas in self.shards:
            for route in replicas:
                if route.endpoint == endpoint:
                    return route
        raise KeyError(endpoint)


def _windowed_p95_ms(previous: dict | None, current: dict) -> float:
    """p95 (ms) of the requests one ``request`` histogram gained since *previous*.

    Both arguments are raw histogram forms from successive stats
    probes.  An empty window reads 0.0.  With no previous reading, or
    when a bucket count went down (the replica restarted), the window
    is everything *current* holds since its start.
    """
    if previous:
        window = [
            now - then
            for now, then in zip(current.get("counts", ()), previous.get("counts", ()))
        ]
        if all(delta >= 0 for delta in window):
            return histogram_quantile({"counts": window, "count": sum(window)}, 0.95) * 1000.0
    return histogram_quantile(current, 0.95) * 1000.0


class _ReplicaHealth:
    """Mutable per-endpoint detector state (guarded by the manager lock)."""

    def __init__(
        self,
        endpoint: str,
        shard_id: int,
        replica_index: int,
        weight: float,
        zone: str | None = None,
        rack: str | None = None,
    ) -> None:
        self.endpoint = endpoint
        self.shard_id = shard_id
        self.replica_index = replica_index
        self.weight = weight
        self.zone = zone
        self.rack = rack
        self.healthy = True  # optimistic until the first probe says otherwise
        self.consecutive_misses = 0
        self.backoff_until = 0.0
        self.backoff_seconds = 0.0
        self.last_error: str | None = None
        self.queue_depth = 0
        self.p95_ms = 0.0
        self.probes = 0
        self.transitions = 0  # up<->down flips, for telemetry
        #: liveness lease: deadline on the *manager's* clock (0.0 = never
        #: granted), whether it currently holds, and the work-stall
        #: detector feeding revocation
        self.lease_expires = 0.0
        self.lease_ok = True
        self.last_completed: int | None = None
        self.stall_cycles = 0
        #: the ``request`` histogram of the last stats probe, which the
        #: next one differences into a windowed p95
        self.last_request: dict | None = None

    def route(self) -> ReplicaRoute:
        """The immutable table row for the current state."""
        return ReplicaRoute(
            endpoint=self.endpoint,
            shard_id=self.shard_id,
            replica_index=self.replica_index,
            weight=self.weight,
            healthy=self.healthy,
            queue_depth=self.queue_depth,
            p95_ms=self.p95_ms,
            consecutive_misses=self.consecutive_misses,
            last_error=self.last_error,
            zone=self.zone,
            rack=self.rack,
            lease_ok=self.lease_ok,
        )


class ClusterManager:
    """Health-checks a topology's endpoints and publishes the routing table.

    One background thread probes every endpoint each *probe_interval*
    seconds (endpoints in backoff are skipped until their deadline).  The
    detector is deliberately simple and explainable: ``miss_threshold``
    consecutive ping failures mark a replica down; one successful ping
    marks it up again.  :meth:`report_failure` lets the data path
    short-circuit detection when a request hits a dead connection — a
    mid-request death is stronger evidence than a missed probe, so the
    replica is marked down immediately and routing shifts on the very
    next request instead of after ``miss_threshold * probe_interval``.

    *lease_ttl* arms the lease-based liveness check (off by default).
    *clock* injects the time source every deadline/lease decision reads
    — the fault-injection suite passes a virtual clock and drives
    :meth:`probe_once` by hand, making every decision reproducible tick
    by tick.
    """

    def __init__(
        self,
        topology: ClusterTopology,
        probe_interval: float = DEFAULT_PROBE_INTERVAL,
        miss_threshold: int = DEFAULT_MISS_THRESHOLD,
        backoff_base: float = DEFAULT_BACKOFF_BASE,
        backoff_max: float = DEFAULT_BACKOFF_MAX,
        stats_every: int = DEFAULT_STATS_EVERY,
        probe_timeout: float = 5.0,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        lease_ttl: float | None = None,
        lease_stall_cycles: int = DEFAULT_LEASE_STALL_CYCLES,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if probe_interval <= 0:
            raise ValueError("probe_interval must be positive")
        if miss_threshold < 1:
            raise ValueError("miss_threshold must be >= 1")
        if lease_ttl is not None and lease_ttl <= 0:
            raise ValueError("lease_ttl must be positive (or None to disable leases)")
        if lease_stall_cycles < 1:
            raise ValueError("lease_stall_cycles must be >= 1")
        self.topology = topology
        self.probe_interval = probe_interval
        self.miss_threshold = miss_threshold
        self.backoff_base = backoff_base
        self.backoff_max = backoff_max
        self.stats_every = max(1, stats_every)
        self.lease_ttl = lease_ttl
        self.lease_stall_cycles = lease_stall_cycles
        self._clock = clock
        self._lock = threading.Lock()
        self._health: dict[str, _ReplicaHealth] = {}
        for shard_id, replicas in enumerate(topology.shards):
            for index, spec in enumerate(replicas):
                self._health[spec.endpoint] = _ReplicaHealth(
                    spec.endpoint, shard_id, index, spec.weight, spec.zone, spec.rack
                )
        #: probe clients are separate from the data path so a wedged data
        #: pool cannot starve health checking (and vice versa)
        self._probes = {
            endpoint: RemoteShardClient(
                endpoint, timeout=probe_timeout, max_frame_bytes=max_frame_bytes
            )
            for endpoint in self._health
        }
        self._stop = threading.Event()
        self._wake = threading.Event()
        self._thread: threading.Thread | None = None
        self._cycle = 0
        self._events: deque[dict] = deque(maxlen=FLEET_EVENT_CAPACITY)
        self._counters = {"lease_revocations": 0, "lease_restored": 0}
        self._table = self._publish()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "ClusterManager":
        """Probe every endpoint once synchronously, then keep probing on a thread."""
        if self._thread is None:
            self.probe_once()
            self._thread = threading.Thread(
                target=self._run, name="repro-cluster-manager", daemon=True
            )
            self._thread.start()
        return self

    def stop(self) -> None:
        """Stop the probe thread and close the probe connections (idempotent)."""
        self._stop.set()
        self._wake.set()
        if self._thread is not None:
            self._thread.join(timeout=10)
            self._thread = None
        for probe in self._probes.values():
            probe.close()

    def __enter__(self) -> "ClusterManager":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # The published view
    # ------------------------------------------------------------------
    def table(self) -> RoutingTable:
        """The current routing table (immutable; re-read for a fresher one)."""
        with self._lock:
            return self._table

    def _publish(self) -> RoutingTable:
        """Rebuild and swap the table from current health state (lock held or init)."""
        version = getattr(self, "_table", None).version + 1 if getattr(self, "_table", None) else 1
        table = RoutingTable(
            version=version,
            shards=tuple(
                tuple(self._health[spec.endpoint].route() for spec in replicas)
                for replicas in self.topology.shards
            ),
        )
        self._table = table
        return table

    def _record_event(self, kind: str, **details) -> None:
        """Append one fleet event (lock held)."""
        event = {"cycle": self._cycle, "type": kind}
        event.update(details)
        self._events.append(event)

    @property
    def clock(self) -> Callable[[], float]:
        """The manager's injected time source (shared by the SLO plane).

        Exposed so the cluster client's SLO engine and alerter run on
        the same clock as lease/backoff decisions — one virtual clock
        drives the whole control plane deterministically in tests.
        """
        return self._clock

    def record_external_event(self, kind: str, **details) -> None:
        """Append one event from outside the probe loop (public, locking).

        The SLO alerter feeds its firing/resolved transitions through
        here so budget breaches and lease revocations land on the same
        bounded fleet timeline (``fleet_snapshot()["events"]``).
        """
        with self._lock:
            self._record_event(kind, **details)

    # ------------------------------------------------------------------
    # Detection
    # ------------------------------------------------------------------
    def report_failure(self, endpoint: str, error: BaseException) -> None:
        """Data-path failure report: mark the replica down without waiting for probes.

        Called by the cluster client when a request to *endpoint* failed at
        the transport level.  The replica re-enters rotation as soon as a
        probe succeeds again (under the reconnect backoff schedule).

        Only the **first** report (healthy → down) touches the reconnect
        schedule: it clears the backoff so the woken probe cycle
        re-probes immediately (confirm death / catch a fast restart).
        Repeat reports against an already-down endpoint are routing
        residue — concurrent requests draining onto a corpse — and leave
        the probe-owned backoff schedule untouched: re-arming it here
        used to double the backoff per failed request and force probe
        cycles at data-path rate, hammering the healthy replicas with
        out-of-schedule probes exactly when the cluster is degraded.
        """
        with self._lock:
            state = self._health.get(endpoint)
            if state is None:
                return
            state.consecutive_misses = max(state.consecutive_misses + 1, self.miss_threshold)
            state.last_error = str(error)
            if not state.healthy:
                return  # backoff (and the prober's sleep) stay untouched
            state.healthy = False
            state.transitions += 1
            state.backoff_seconds = 0.0
            state.backoff_until = 0.0
            self._publish()
        self._wake.set()  # probe soon: confirm death / catch a fast restart

    def _arm_backoff(self, state: _ReplicaHealth) -> None:
        state.backoff_seconds = min(
            self.backoff_max,
            self.backoff_base if state.backoff_seconds == 0 else state.backoff_seconds * 2,
        )
        state.backoff_until = self._clock() + state.backoff_seconds

    def probe_once(self) -> RoutingTable:
        """One probe cycle over every due endpoint; returns the new table.

        Endpoints still inside their reconnect backoff window are skipped.
        Endpoints are probed **concurrently** (one short-lived thread
        each): a black-holed host that eats the full ``probe_timeout``
        must only stall its own probe, not delay detection and recovery
        for every other replica.  The first cycle and every
        ``stats_every``-th one after it fetch the heavier ``stats``
        payload (the windowed p95), so the table published by
        :meth:`start` already holds each replica's since-start p95; the
        in-between cycles only ``ping`` (shard identity + queue depth),
        keeping the steady-state probe cost one tiny frame per replica.

        Lease expiry is checked *before and after* probing, so a wedged
        probe socket cannot delay a revocation the clock already
        justifies.
        """
        want_stats = self._cycle % self.stats_every == 0
        self._cycle += 1
        now = self._clock()
        with self._lock:
            if self._check_leases(now):
                # Publish the revocation now: the probe fan-out below can
                # block for the full probe timeout on exactly the wedged
                # replica whose lease just lapsed, and routing must shift
                # off it before then, not after.
                self._publish()
            pending = [
                state.endpoint
                for state in self._health.values()
                if state.healthy or now >= state.backoff_until
            ]
        if len(pending) == 1:
            self._probe_endpoint(pending[0], want_stats)
        elif pending:
            threads = [
                threading.Thread(
                    target=self._probe_endpoint, args=(endpoint, want_stats), daemon=True
                )
                for endpoint in pending
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        with self._lock:
            self._check_leases(self._clock())
            return self._publish()

    def _probe_endpoint(self, endpoint: str, want_stats: bool) -> None:
        """Ping (and optionally stats-poll) one endpoint; update its detector state."""
        probe = self._probes[endpoint]
        try:
            info = probe.ping()
            stats = probe.call({"op": OP_STATS}) if want_stats else None
        except RemoteTransportError as error:
            with self._lock:
                state = self._health[endpoint]
                state.probes += 1
                state.consecutive_misses += 1
                state.last_error = str(error)
                if state.healthy and state.consecutive_misses >= self.miss_threshold:
                    state.healthy = False
                    state.transitions += 1
                if not state.healthy:
                    self._arm_backoff(state)
            return
        with self._lock:
            state = self._health[endpoint]
            state.probes += 1
            state.consecutive_misses = 0
            state.backoff_seconds = 0.0
            state.backoff_until = 0.0
            state.last_error = None
            state.queue_depth = int(info.get("queue_depth", 0))
            if stats is not None:
                request = stats.get("counters", {}).get("stages", {}).get("request") or {}
                state.p95_ms = _windowed_p95_ms(state.last_request, request)
                state.last_request = request
            if not state.healthy:
                state.healthy = True
                state.transitions += 1
            self._renew_lease(state, info, stats_cycle=want_stats)

    # ------------------------------------------------------------------
    # Leases
    # ------------------------------------------------------------------
    def _renew_lease(self, state: _ReplicaHealth, info: dict, stats_cycle: bool) -> None:
        """Grant/renew the liveness lease after a successful ping (lock held).

        The server advertises the TTL it grants (``lease_ttl`` in the
        ping payload); the manager honours the shorter of that grant and
        its own configured TTL, tracked on its own clock — a SIGSTOP'd
        peer cannot extend its own lease by having *granted* a long one.
        The work-stall detector runs on stats cycles only, so its cadence
        is probe-rate-independent: queued work whose completed counter
        has not advanced for ``lease_stall_cycles`` consecutive stats
        cycles revokes the lease even though pings still answer.
        """
        if self.lease_ttl is None:
            return
        granted = info.get("lease_ttl")
        try:
            granted = float(granted) if granted is not None else 0.0
        except (TypeError, ValueError):
            granted = 0.0
        ttl = min(granted, self.lease_ttl) if granted > 0 else self.lease_ttl
        state.lease_expires = self._clock() + ttl
        completed = info.get("completed")
        if stats_cycle and completed is not None:
            completed = int(completed)
            if state.queue_depth > 0 and completed == state.last_completed:
                state.stall_cycles += 1
            else:
                state.stall_cycles = 0
            state.last_completed = completed
        if state.lease_ok and state.stall_cycles >= self.lease_stall_cycles:
            state.lease_ok = False
            self._counters["lease_revocations"] += 1
            self._record_event(
                "lease_revoked", endpoint=state.endpoint, reason="stalled",
                queue_depth=state.queue_depth, completed=state.last_completed,
            )
        elif not state.lease_ok and state.stall_cycles == 0:
            state.lease_ok = True
            self._counters["lease_restored"] += 1
            self._record_event("lease_restored", endpoint=state.endpoint)

    def _check_leases(self, now: float) -> bool:
        """Revoke leases the clock has outrun (lock held); True if any changed."""
        if self.lease_ttl is None:
            return False
        changed = False
        for state in self._health.values():
            if state.lease_ok and state.lease_expires > 0.0 and now > state.lease_expires:
                state.lease_ok = False
                changed = True
                self._counters["lease_revocations"] += 1
                self._record_event(
                    "lease_revoked", endpoint=state.endpoint, reason="expired"
                )
        return changed

    def _run(self) -> None:
        """Probe loop: one cycle per interval, woken early by failure reports."""
        while not self._stop.is_set():
            self._wake.wait(timeout=self.probe_interval)
            self._wake.clear()
            if self._stop.is_set():
                return
            self.probe_once()

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def health_snapshot(self) -> dict:
        """Control-plane telemetry: per-replica detector state + table version."""
        with self._lock:
            return {
                "table_version": self._table.version,
                "probe_interval": self.probe_interval,
                "miss_threshold": self.miss_threshold,
                "replicas": [
                    {
                        "endpoint": state.endpoint,
                        "shard": state.shard_id,
                        "replica": state.replica_index,
                        "healthy": state.healthy,
                        "consecutive_misses": state.consecutive_misses,
                        "probes": state.probes,
                        "transitions": state.transitions,
                        "queue_depth": state.queue_depth,
                        "p95_ms": state.p95_ms,
                        "last_error": state.last_error,
                        "zone": state.zone,
                        "rack": state.rack,
                        "lease_ok": state.lease_ok,
                    }
                    for state in self._health.values()
                ],
            }

    def fleet_snapshot(self) -> dict:
        """Autonomy telemetry: lease settings, counters, events and lease states.

        This is the ``"fleet"`` section of the cluster client's
        ``stats_snapshot()`` (and thus of ``--stats-json``): the bounded
        event log explains *what the control plane did* — which leases
        it revoked and why — without grepping server logs.
        """
        with self._lock:
            return {
                "lease_ttl": self.lease_ttl,
                "counters": dict(self._counters),
                "events": list(self._events),
                "leases": {
                    state.endpoint: state.lease_ok for state in self._health.values()
                }
                if self.lease_ttl is not None
                else {},
            }


__all__ = [
    "ClusterManager",
    "DEFAULT_LEASE_STALL_CYCLES",
    "DEFAULT_MISS_THRESHOLD",
    "DEFAULT_PROBE_INTERVAL",
    "ReplicaRoute",
    "RoutingTable",
]
