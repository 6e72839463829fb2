"""Replicated-cluster client: the `ExEAClient` facade with failover routing.

:class:`ClusterClient` speaks the exact call surface of the in-process
:class:`~repro.service.service.ExEAClient` (``explain`` / ``confidence``
/ ``verify`` / ``explain_many`` / ``replay``) plus the sharded extras
(``shard_of``, ``stats_snapshot``) and the cluster-wide operations
(``invalidate``, ``pairs``), but routes every read across the *replicas*
of the pair's shard instead of a single endpoint:

* **Load-aware selection** — each request picks the replica with the
  lowest score, combining the client's own live signals (in-flight
  requests, an EMA of observed latency) with the control plane's
  published ones (queue depth from ``ping``, p95 from ``stats``), scaled
  by the topology weight.  A deliberately slow or saturated replica
  sheds traffic onto its healthy peer without any configuration.
* **Failover retry** — every wire operation is idempotent and replicas
  serve bit-identical results, so a replica failing mid-flight
  (connection refused, died mid-request) or answering with backpressure
  is retried on the shard's next-best replica; the failure is reported
  to the :class:`~repro.service.cluster.manager.ClusterManager` so the
  routing table shifts immediately.  Timeouts do *not* fail over — a
  slow replica is not a dead one, and re-sending would double the wait
  (the PR-4 rule, kept cluster-wide).  Only when every replica of the
  shard fails does the caller see an error.
* **Generation fan-out** — ``invalidate()`` drops the cache of every
  replica of every shard, because each replica process holds its own
  versioned cache.
* **Slot routing** — pairs route through the manager's slot→shard
  assignment (identity ≡ the classic CRC partition until a migration
  moves a slot); per-slot routed counters feed the manager's rebalance
  loop, and during a handoff window the failover candidate set spans
  *both* sides of the migration (every replica serves the full
  snapshot, so either answers bit-identically).
* **Zone-aware failover** — after a replica fails mid-request, the
  retry prefers surviving replicas in a *different* zone than the
  failed ones: a correlated failure domain (rack power, ToR switch)
  should not eat every retry.  Replicas whose liveness lease was
  revoked leave preferred routing the same way unhealthy ones do.

Determinism is unchanged: which replica answers is a pure deployment
decision (all replicas of a shard serve the same snapshot and the codec
round-trips exactly), so results stay bit-identical to the in-process
sharded service at the same shard count — through failovers, lease
revocations and live slot migrations alike.

A plain process-per-shard fleet is the one-replica case:
``ClusterClient(topology_for_endpoints([[a], [b]]))`` addresses shard 0
at *a* and shard 1 at *b*; a dead shard then fails its own pairs while
the others keep serving.

The retry policy rests on one question besides the transport's own
stale-socket rule (:func:`~repro.service.transport.client.is_stale_symptom`):
:func:`is_request_shaped` — would this failure reproduce on any peer
(oversized frame, malformed payload)?  Such failures are never retried
and never held against the replica: evicting a live replica over a bad
request poisons the routing table.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Iterable

from ..errors import RemoteTransportError, ReplicaBehindError, ServiceOverloadedError
from ..observability.alerts import AlertPolicy, BurnRateAlerter
from ..observability.context import TraceContext, new_span_id, new_trace
from ..observability.slo import SLOEngine, SLOObjective
from ..observability.spans import Span, SpanRecorder, stitch_trace
from ..observability.tailsample import TailSampler
from ..service import _fan_out
from ..sharding import ShardRouter
from ..stats import imbalance_summary, merge_raw
from ..transport.client import DEFAULT_TIMEOUT, RemoteShardClient
from ..transport.framing import DEFAULT_MAX_FRAME_BYTES, ConnectionClosedError, ProtocolError
from ..transport.protocol import (
    OP_BATCH,
    OP_CONFIDENCE,
    OP_EXPLAIN,
    OP_INVALIDATE,
    OP_PAIRS,
    OP_SHUTDOWN,
    OP_STATS,
    OP_VERIFY,
    PROTOCOL_VERSION,
    decode_error,
    decode_value,
)
from .manager import ClusterManager, ReplicaRoute
from .topology import ClusterTopology

#: EMA smoothing for the client-side per-replica latency estimate.
_EMA_ALPHA = 0.2
#: Items per ``batch`` frame in ``explain_many`` / ``replay`` exchanges.
BATCH_CHUNK_SIZE = 256


def is_request_shaped(error: BaseException) -> bool:
    """True for failures the *request itself* causes on any peer.

    Deterministic protocol violations — an oversized frame, a malformed
    payload, a mis-sized batch reply — fail identically wherever they are
    sent, so neither the stale-retry nor replica failover applies.
    """
    return isinstance(error, ProtocolError) and not isinstance(error, ConnectionClosedError)


def verify_peer_identity(
    info: dict, endpoint: str, expected_shard: int, num_shards: int
) -> None:
    """Check one ping payload against the topology slot it answers for.

    Raises :class:`RemoteTransportError` when the peer speaks a different
    protocol revision or identifies as a different shard — a miswired
    cluster must refuse to connect, not silently serve wrong partitions.
    """
    if info.get("protocol") != PROTOCOL_VERSION:
        raise RemoteTransportError(
            f"{endpoint} speaks protocol {info.get('protocol')}, "
            f"this client speaks {PROTOCOL_VERSION}"
        )
    if info.get("shard_id") != expected_shard or info.get("num_shards") != num_shards:
        raise RemoteTransportError(
            f"{endpoint} identifies as shard {info.get('shard_id')}/{info.get('num_shards')}, "
            f"expected {expected_shard}/{num_shards} — cluster is miswired"
        )


def verify_served_identity(first: dict, first_endpoint: str, info: dict, endpoint: str) -> None:
    """Check two ping payloads agree on *what* they serve.

    Every peer must report the same dataset, model and generation token;
    peers started against divergent snapshots would connect cleanly and
    silently serve mixed results.
    """
    for key in ("dataset", "model", "token"):
        if info.get(key) != first.get(key):
            raise RemoteTransportError(
                f"{endpoint} serves {key}={info.get(key)!r} but "
                f"{first_endpoint} serves {first.get(key)!r} — cluster "
                "replicas disagree on what they serve (miswired)"
            )


class _ReplicaLoad:
    """Client-side live load signals of one replica endpoint."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.inflight = 0
        self.routed = 0
        self.failures = 0
        self.ema_ms = 0.0
        self._seen = False

    def begin(self) -> None:
        """One request is now in flight against this replica."""
        with self.lock:
            self.inflight += 1

    def end(self, seconds: float, ok: bool) -> None:
        """The in-flight request finished; fold its latency into the EMA."""
        ms = seconds * 1000.0
        with self.lock:
            self.inflight -= 1
            if ok:
                self.routed += 1
                self.ema_ms = ms if not self._seen else (1 - _EMA_ALPHA) * self.ema_ms + _EMA_ALPHA * ms
                self._seen = True
            else:
                self.failures += 1

    def snapshot(self) -> dict:
        """Copy of the counters for routing telemetry."""
        with self.lock:
            return {
                "inflight": self.inflight,
                "routed": self.routed,
                "failures": self.failures,
                "ema_ms": self.ema_ms,
            }


def replica_score(route: ReplicaRoute, inflight: int, ema_ms: float) -> float:
    """Routing score of one replica — lower is better.

    Multiplies a *congestion* term (requests this client has in flight
    there plus the server's own queue depth) by a *latency* term (the
    client's EMA of observed latency plus the server's published p95),
    normalised by the routing weight (the topology weight, scaled by the
    manager's adaptive factor when the weight controller is on).  Either
    signal alone is enough to shift load: a stalled replica accumulates
    in-flight requests even before its latency samples return, and a
    merely-slow replica raises its EMA even when nothing is queued.
    """
    congestion = 1.0 + inflight + route.queue_depth
    latency = 1.0 + ema_ms + route.p95_ms
    return congestion * latency / max(route.routing_weight, 1e-9)


def prefer_distinct_domains(
    candidates: "list[ReplicaRoute]", failed_zones: "set[str]"
) -> "list[ReplicaRoute]":
    """Zone-aware failover preference — pure filter, unit-tested directly.

    Given the replicas still eligible for a retry and the zones of the
    replicas that already failed this request, prefer the candidates in
    a *different* (or unlabelled) zone; when every survivor shares a
    failed zone, all of them stay eligible — domain diversity is a
    preference, never a reason to fail a servable request.
    """
    if not failed_zones:
        return candidates
    distinct = [route for route in candidates if route.zone not in failed_zones]
    return distinct or candidates


class ClusterClient:
    """The `ExEAClient` facade over a replicated, health-checked cluster.

    *manager* defaults to a new :class:`ClusterManager` over *topology*
    (owned and stopped by this client); pass one explicitly to share a
    control plane across clients or to tune detection.  The client is
    thread-safe: concurrent callers share the per-endpoint connections
    and load accounting.  Construction pings every replica and refuses a
    miswired cluster (:meth:`check_topology`).
    """

    def __init__(
        self,
        topology: ClusterTopology,
        manager: ClusterManager | None = None,
        timeout: float = DEFAULT_TIMEOUT,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        check_topology: bool = True,
        tail_sampler=None,
        slo_objectives: "Iterable[SLOObjective] | None" = None,
        alert_policy: AlertPolicy | None = None,
    ) -> None:
        self.router = ShardRouter(topology.num_shards)
        #: client-side span ring: ``client_send`` envelopes and the
        #: ``retry`` spans of traced failovers
        self.tracer = SpanRecorder(512)
        #: tail-based sampling: when set, :meth:`traced` traces the
        #: sampler's fraction of requests as *pending* and keeps them only
        #: when slow / errored / retried (or on the baseline rotation);
        #: kept traces are pinned locally and on every serving process
        #: via the ``trace`` op's ``pin`` flag.  Unset, every
        #: :meth:`traced` call is traced.  Never affects request results.
        self.tail_sampler: TailSampler | None = tail_sampler
        #: trace ids that failed over at least once, noted by the retry
        #: path — an O(1) lookup for the tail sampler's "retried" keep
        #: reason (scanning the span ring per completion would cost
        #: O(ring) on every fast request)
        self._retried_traces: dict[str, bool] = {}
        self._retried_lock = threading.Lock()
        self.topology = topology
        self._owns_manager = manager is None
        self.manager = manager or ClusterManager(topology)
        #: SLO plane (opt-in): objectives are evaluated over the merged
        #: fleet counters on every ``stats_snapshot()`` call, burn-rate
        #: alert transitions land in the fleet event log so SLO breaches
        #: and lease revocations share one timeline.
        objectives = tuple(slo_objectives or ())
        self._slo_engine = (
            SLOEngine(objectives, clock=self.manager.clock) if objectives else None
        )
        self._alerter = (
            BurnRateAlerter(alert_policy, clock=self.manager.clock)
            if objectives
            else None
        )
        self._slo_lock = threading.Lock()
        self._clients = {
            endpoint: RemoteShardClient(
                endpoint, timeout=timeout, max_frame_bytes=max_frame_bytes
            )
            for endpoint in topology.endpoints()
        }
        self._loads = {endpoint: _ReplicaLoad() for endpoint in self._clients}
        self._rr = 0
        self._rr_lock = threading.Lock()
        #: per-slot routed-request counters: the load signal the manager's
        #: rebalance loop differences into per-shard request shares
        self._slot_lock = threading.Lock()
        self._slot_routed = [0] * self.router.num_slots
        self.manager.attach_slot_loads(self.slot_routed_snapshot)
        #: ordered mutation log: this client is the single sequencer, so
        #: ``seq`` values are assigned monotonically here and the log is
        #: the replay source for replicas that missed entries
        self._mutation_lock = threading.Lock()
        self._mutation_log: list[tuple[int, list]] = []
        self._next_seq = 1
        self._replica_seq: dict[str, int] = {}
        try:
            if check_topology:
                self.check_topology()
            self.manager.start()
        except BaseException:
            self.close()
            raise

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    def check_topology(self) -> list[dict]:
        """Ping every replica and verify the cluster is wired as declared.

        Every *answering* replica of shard *k* must identify as shard
        ``k`` of ``num_shards`` and speak this protocol version, and all
        answering endpoints must agree on dataset, model and generation
        token — replicas serving divergent snapshots would silently break
        the bit-identical contract on failover.  A replica that is merely
        **unreachable** does not fail the check (surviving a dead replica
        is what replication is for — an operator must be able to connect
        to a degraded cluster): its failure is reported to the manager so
        the routing table starts with it marked down, and only a shard
        with *no* reachable replica at all refuses the connection.

        Returns the ping descriptions of the answering replicas.
        """
        descriptions: list[dict] = []
        first: dict | None = None
        first_endpoint: str | None = None
        unreachable: dict[str, RemoteTransportError] = {}
        for shard_id, replicas in enumerate(self.topology.shards):
            reachable = 0
            for spec in replicas:
                try:
                    info = self._clients[spec.endpoint].ping()
                except RemoteTransportError as error:
                    unreachable[spec.endpoint] = error
                    self.manager.report_failure(spec.endpoint, error)
                    continue
                reachable += 1
                verify_peer_identity(info, spec.endpoint, shard_id, self.topology.num_shards)
                if first is None:
                    first, first_endpoint = info, spec.endpoint
                else:
                    verify_served_identity(first, first_endpoint, info, spec.endpoint)
                descriptions.append(info)
            if not reachable:
                details = "; ".join(
                    f"{spec.endpoint}: {unreachable[spec.endpoint]}"
                    for spec in replicas
                    if spec.endpoint in unreachable
                )
                raise RemoteTransportError(
                    f"no replica of shard {shard_id} is reachable ({details})"
                )
        return descriptions

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def shard_of(self, source: str, target: str) -> int:
        """Which shard serves this pair under the *current* routing table.

        Routes through the slot layer: the pair's CRC slot looks up the
        manager's slot→shard assignment (identity — exactly the classic
        ``crc32 % num_shards`` partition — until a migration moves the
        slot).  Every lookup also bumps the slot's routed counter, which
        is the load signal the rebalance loop differences.
        """
        slot = self.router.slot_of(source, target)
        with self._slot_lock:
            self._slot_routed[slot] += 1
        return self.manager.table().shard_for_slot(slot)

    def slot_routed_snapshot(self) -> list[int]:
        """Copy of the cumulative per-slot routed-request counters."""
        with self._slot_lock:
            return list(self._slot_routed)

    def _candidate_shards(self, table, shard_id: int) -> tuple[int, ...]:
        """The shards whose replicas may serve a request addressed to *shard_id*.

        The primary shard first; during a migration handoff window, the
        other side of the migration follows — the dual-routing half of
        the online rebalance (either side serves the full snapshot, so
        failing over across the migration is bit-identical).
        """
        return (shard_id, *table.handoff_peers(shard_id))

    def _select(
        self,
        table,
        shard_id: int,
        excluded: set[str],
        failed_zones: set[str] | None = None,
    ) -> ReplicaRoute | None:
        """The best replica for a shard-addressed request, not yet tried.

        Candidates span the primary shard and (during a handoff window)
        the migration peer.  Preference order: healthy lease-holding
        replicas — in a distinct zone from the ones that already failed
        this request, when possible — then healthy replicas with a
        revoked lease, then (the detector may simply not have caught a
        restart yet) anything left, as a last resort rather than failing
        a request a live server could answer.  Ties break round-robin so
        equal replicas share load.
        """
        routes: list[ReplicaRoute] = []
        for candidate_shard in self._candidate_shards(table, shard_id):
            routes.extend(table.replicas(candidate_shard))
        pool = [route for route in routes if route.endpoint not in excluded]
        candidates = [route for route in pool if route.healthy and route.lease_ok]
        if candidates and failed_zones:
            candidates = prefer_distinct_domains(candidates, failed_zones)
        if not candidates:
            candidates = [route for route in pool if route.healthy]
        if not candidates:
            candidates = pool
        if not candidates:
            return None
        if len(candidates) == 1:
            return candidates[0]
        with self._rr_lock:
            self._rr += 1
            offset = self._rr
        scored = []
        for position, route in enumerate(candidates):
            load = self._loads[route.endpoint]
            with load.lock:
                inflight, ema_ms = load.inflight, load.ema_ms
            scored.append((replica_score(route, inflight, ema_ms), (position + offset) % len(candidates), route))
        return min(scored, key=lambda item: (item[0], item[1]))[2]

    def _call_shard(
        self,
        shard_id: int,
        payload: dict,
        timeout: float | None,
        reject: "Callable[[dict], Exception | None] | None" = None,
    ) -> dict:
        """One request against a shard, failing over across its replicas.

        Replica-death symptoms (connection refused/reset, died
        mid-request) and backpressure answers move on to the next replica;
        each replica is tried at most once.  *Request-shaped* failures do
        **not** fail over and are not reported as replica failures — a
        timeout (slow, not gone: re-sending doubles work and wait), an
        oversized frame, or a malformed payload would fail identically on
        the peer, and evicting a live replica over them would poison the
        routing table.  *reject* lets bulk callers turn a structurally-OK
        response into a failover-eligible error (the batch path's per-item
        backpressure slots).  The failure kinds behave differently on the
        *last* replica: a transport failure re-raises as itself, while
        backpressure re-raises the service's own
        :class:`ServiceOverloadedError` so callers keep the in-process
        retry semantics.

        When the request carries a sampled trace context, every attempt
        that fails over records a ``retry`` span in the client's ring —
        the failover's cost is otherwise invisible in the stitched
        timeline (the dead replica recorded nothing, and the serving
        replica's spans only start once the retry reaches it).
        """
        trace = payload.get("trace")
        if not isinstance(trace, TraceContext):
            trace = None
        excluded: set[str] = set()
        failed_zones: set[str] = set()
        last_error: Exception | None = None
        # One consistent table view per request: the candidate set (and
        # any dual-routed migration peer) cannot shift mid-failover.
        table = self.manager.table()
        attempts = sum(
            len(table.replicas(candidate_shard))
            for candidate_shard in self._candidate_shards(table, shard_id)
        )
        for _ in range(attempts):
            route = self._select(table, shard_id, excluded, failed_zones)
            if route is None:
                break
            load = self._loads[route.endpoint]
            load.begin()
            start = time.monotonic()
            try:
                response = self._clients[route.endpoint].call(payload, timeout=timeout)
            except ServiceOverloadedError as error:
                load.end(time.monotonic() - start, ok=False)
                self._record_retry(trace, route.endpoint, error, time.monotonic() - start)
                excluded.add(route.endpoint)
                last_error = error
                continue  # a peer replica may have queue capacity
            except RemoteTransportError as error:
                load.end(time.monotonic() - start, ok=False)
                if is_request_shaped(error):
                    raise  # timeout/oversized/malformed: fails the same anywhere
                self.manager.report_failure(route.endpoint, error)
                self._record_retry(trace, route.endpoint, error, time.monotonic() - start)
                excluded.add(route.endpoint)
                if route.zone is not None:
                    # a transport death may be the whole failure domain
                    # going dark — prefer retrying somewhere else
                    failed_zones.add(route.zone)
                last_error = error
                continue
            except BaseException:
                load.end(time.monotonic() - start, ok=False)
                raise  # service-level errors (deadline, value) are answers, not failures
            rejection = reject(response) if reject is not None else None
            if rejection is not None:
                load.end(time.monotonic() - start, ok=False)
                self._record_retry(trace, route.endpoint, rejection, time.monotonic() - start)
                excluded.add(route.endpoint)
                last_error = rejection
                continue
            load.end(time.monotonic() - start, ok=True)
            return response
        if last_error is not None:
            raise last_error
        raise RemoteTransportError(f"no replica of shard {shard_id} is reachable")

    def _record_retry(
        self,
        trace: TraceContext | None,
        endpoint: str,
        error: BaseException,
        seconds: float,
    ) -> None:
        """Record one failed-over attempt as a ``retry`` span (traced requests)."""
        if trace is None:
            return
        self._note_retried(trace.trace_id)
        self.tracer.add(
            "retry",
            trace,
            seconds,
            attrs={"endpoint": endpoint, "error": type(error).__name__},
            span_id=new_span_id(),
            parent_span_id=trace.span_id,
        )

    # ------------------------------------------------------------------
    # Single-pair operations (the ExEAClient surface)
    # ------------------------------------------------------------------
    def _single(self, op, source, target, timeout, deadline_ms, trace=None):
        payload = {"op": op, "source": source, "target": target}
        if deadline_ms is not None:
            payload["deadline_ms"] = deadline_ms
        if trace is not None:
            payload["trace"] = trace
        shard_id = self.shard_of(source, target)
        return decode_value(op, self._call_shard(shard_id, payload, timeout))

    def explain(
        self, source: str, target: str, timeout: float | None = None, deadline_ms: float | None = None
    ):
        """Remote ``explain`` — equal to the in-process explanation object."""
        return self._single(OP_EXPLAIN, source, target, timeout, deadline_ms)

    def confidence(
        self, source: str, target: str, timeout: float | None = None, deadline_ms: float | None = None
    ) -> float:
        """Remote repair-confidence — the exact in-process float."""
        return self._single(OP_CONFIDENCE, source, target, timeout, deadline_ms)

    def verify(
        self, source: str, target: str, timeout: float | None = None, deadline_ms: float | None = None
    ) -> bool:
        """Remote EA verification (confidence thresholded server-side)."""
        return self._single(OP_VERIFY, source, target, timeout, deadline_ms)

    # ------------------------------------------------------------------
    # Tracing
    # ------------------------------------------------------------------
    def traced(
        self, kind: str, source: str, target: str, timeout: float | None = None
    ) -> "tuple[object, TraceContext]":
        """Run one traced remote operation; returns ``(result, trace_context)``.

        Mints a root :class:`TraceContext` and sends it with the request;
        the serving process records its stage spans under the
        trace, and the enveloping ``client_send`` span — request out to
        result in, wire time and failovers included — lands in this
        client's own ring.  Feed the context's ``trace_id`` to
        :meth:`trace_timeline`.

        Without a :class:`TailSampler` every call is traced.  With one
        attached, the sampler's fraction of requests is traced as
        pending, then kept (pinned fleet-wide) only when the request
        turned out slow, errored, or failed over — plus the configured
        baseline fraction of fast clean ones.  A request outside that
        fraction is sent *without* a trace context (no wire bytes, no
        server spans, no client span) and returns a context whose
        ``sampled`` flag is false, so callers can tell an empty timeline
        from a dropped one.
        """
        sampler = self.tail_sampler
        sampled = sampler.begin() if sampler is not None else True
        trace = new_trace(sampled=sampled)
        started = time.perf_counter()
        try:
            value = self._single(
                kind, source, target, timeout, None, trace=trace if trace.sampled else None
            )
        except BaseException:
            if trace.sampled:
                self.tracer.add(
                    "client_send",
                    trace,
                    time.perf_counter() - started,
                    attrs={"kind": kind, "source": source, "target": target, "error": True},
                )
                if sampler is not None:
                    self._tail_complete(
                        sampler, trace, (time.perf_counter() - started) * 1000.0, errored=True
                    )
            raise
        elapsed = time.perf_counter() - started
        if trace.sampled:
            self.tracer.add(
                "client_send",
                trace,
                elapsed,
                attrs={"kind": kind, "source": source, "target": target},
            )
            if sampler is not None:
                self._tail_complete(sampler, trace, elapsed * 1000.0, errored=False)
        return value, trace

    def _note_retried(self, trace_id: str) -> None:
        """Record that *trace_id* failed over (a tail-sampling keep reason)."""
        with self._retried_lock:
            retried = self._retried_traces
            retried[trace_id] = True
            while len(retried) > 1024:
                del retried[next(iter(retried))]

    def _tail_complete(
        self,
        sampler: TailSampler,
        trace: TraceContext,
        latency_ms: float,
        errored: bool,
    ) -> None:
        """Keep-or-drop one completed pending trace (tail sampling).

        Dropped traces are NOT purged from the ring eagerly — the ring is
        the pending buffer and eviction recycles them for free, whereas a
        per-request O(ring) rebuild would dominate fast requests.
        """
        with self._retried_lock:
            retried = self._retried_traces.pop(trace.trace_id, False)
        decision = sampler.complete(
            trace.trace_id, latency_ms, errored=errored, retried=retried
        )
        if decision.keep:
            self.tracer.pin(trace.trace_id)
            self.pin_trace(trace.trace_id)

    def trace_timeline(self, trace_id: str) -> dict:
        """Stitched fleet-wide timeline of one trace.

        Combines this client's own spans (``client_send``, failover
        ``retry``) with every serving process's spans for *trace_id* into
        one ordered, per-stage-summed view — the "where did this
        request's time go" answer.
        """
        spans = self.tracer.spans(trace_id) + self.trace_spans(trace_id)
        return stitch_trace(spans, trace_id)

    def trace_spans(self, trace_id: str | None = None) -> list[Span]:
        """Spans pulled from **every replica of every shard**.

        A traced request's server spans live in whichever replica served
        it (which failover may have changed mid-request), so the pull
        must cover them all.  Unreachable replicas contribute nothing — a
        timeline must stay readable mid-outage, which is exactly when it
        is wanted.
        """
        spans: list[Span] = []
        for endpoint in self.topology.endpoints():
            try:
                spans.extend(self._clients[endpoint].trace_spans(trace_id))
            except RemoteTransportError:
                continue
        return spans

    def pin_trace(self, trace_id: str) -> None:
        """Fan the tail-sampling pin out to every replica of every shard.

        Failover may have split a kept trace's spans across replicas, so
        the pin covers them all; unreachable replicas are skipped — a
        keep decision is best-effort against a degraded fleet.
        """
        for endpoint in self.topology.endpoints():
            try:
                self._clients[endpoint].pin_trace(trace_id)
            except RemoteTransportError:
                continue

    # ------------------------------------------------------------------
    # Bulk operations
    # ------------------------------------------------------------------
    @staticmethod
    def _reject_overloaded_batch(response: dict) -> Exception | None:
        """Failover trigger for batch responses: any backpressure slot.

        The server reports sustained overload per *item* rather than as a
        top-level error, so without this check a saturated replica would
        abort the whole replay even while its peer sits idle — the
        batch-path analogue of the single-op overload failover.
        """
        slots = response.get("results")
        if not isinstance(slots, list):
            return None  # structural problems are handled by the caller
        for slot in slots:
            if "error" in slot:
                error = decode_error(slot["error"])
                if isinstance(error, ServiceOverloadedError):
                    return error
        return None

    def _run_batch(
        self, shard_id: int, items: list[tuple[str, str, str]], timeout: float | None
    ) -> list:
        """One shard's items in chunked ``batch`` frames; decode in order.

        A chunk that comes back with a backpressure slot is re-sent to
        the shard's next replica; the operations are idempotent, so
        re-running the chunk's other items on the peer only warms a
        second cache.  Any other per-item error is an *answer* and
        re-raises, as the in-process facade raises on
        ``future.result()``.  A mis-sized reply is a protocol violation,
        because ``zip()`` would silently truncate a short reply into
        ``None`` results.
        """
        values: list = []
        for start in range(0, len(items), BATCH_CHUNK_SIZE):
            chunk = items[start : start + BATCH_CHUNK_SIZE]
            response = self._call_shard(
                shard_id,
                {"op": OP_BATCH, "items": [list(item) for item in chunk]},
                timeout,
                reject=self._reject_overloaded_batch,
            )
            slots = response.get("results")
            if not isinstance(slots, list) or len(slots) != len(chunk):
                raise ProtocolError(
                    f"a shard-{shard_id} replica answered {len(chunk)} batch items with "
                    f"{len(slots) if isinstance(slots, list) else 'no'} results"
                )
            for (kind, _, _), slot in zip(chunk, slots):
                if "error" in slot:
                    raise decode_error(slot["error"])
                values.append(decode_value(kind, slot["ok"]))
        return values

    def explain_many(
        self, pairs: list[tuple[str, str]], timeout: float | None = None
    ) -> dict[tuple[str, str], object]:
        """Explain every distinct pair; one concurrent batch exchange per shard."""
        unique = list(dict.fromkeys(pairs))
        items = [(OP_EXPLAIN, source, target) for source, target in unique]
        return dict(zip(unique, self._scatter(items, timeout)))

    def replay(
        self, workload: list[tuple[str, str, str]], timeout: float | None = None
    ) -> list[object]:
        """Run a scripted ``(kind, source, target)`` replay; results in order.

        The workload is partitioned by shard and shipped as ``batch``
        frames (one in-flight exchange per shard, concurrently), then the
        per-shard results are stitched back into submission order.
        """
        return self._scatter(list(workload), timeout)

    def _scatter(self, items: list[tuple[str, str, str]], timeout: float | None) -> list:
        """Partition items by shard, exchange concurrently, restore order."""
        by_shard: dict[int, list[int]] = {}
        for index, (_, source, target) in enumerate(items):
            by_shard.setdefault(self.shard_of(source, target), []).append(index)
        results: list = [None] * len(items)

        def run_shard(shard_id: int, indices: list[int]) -> None:
            values = self._run_batch(shard_id, [items[index] for index in indices], timeout)
            for index, value in zip(indices, values):
                results[index] = value

        _fan_out(
            [
                lambda shard_id=shard_id, indices=indices: run_shard(shard_id, indices)
                for shard_id, indices in by_shard.items()
            ]
        )
        return results

    # ------------------------------------------------------------------
    # Cluster-wide operations
    # ------------------------------------------------------------------
    def pairs(self) -> list[tuple[str, str]]:
        """Sorted predicted pairs of the served model (any live replica)."""
        response = self._call_shard(0, {"op": OP_PAIRS}, None)
        return [tuple(pair) for pair in response]

    def invalidate(self) -> list[dict]:
        """Drop the result cache of **every replica of every shard**.

        Each replica process holds its own versioned cache, so a
        generation change must reach them all; one ``{"cleared",
        "token"}`` report per reachable replica is returned and
        unreachable replicas raise (an invalidation that silently missed
        a live replica would let it keep serving stale results).
        """
        return [
            self._clients[endpoint].call({"op": OP_INVALIDATE})
            for endpoint in self.topology.endpoints()
        ]

    # ------------------------------------------------------------------
    # Online mutation
    # ------------------------------------------------------------------
    def mutate(self, mutations, timeout: float | None = None) -> dict:
        """Apply one ordered mutation batch to every replica of every shard.

        This client is the **single sequencer**: each batch gets the next
        monotonic sequence number and is appended to the client-side
        mutation log before any replica sees it.  The fan-out walks every
        replica of every shard in topology order and sends each one *all*
        the log entries it has not yet acknowledged, oldest first — a
        replica that missed earlier batches (it was down, or the send
        failed) is caught up before receiving the new one, so no replica
        ever applies mutations out of order.  Replicas that stay
        unreachable are simply left behind: the server refuses reads on a
        gap (:class:`~repro.service.errors.ReplicaBehindError`, which the
        read path fails over like backpressure) and the next ``mutate``
        or an explicit :meth:`catch_up` replays the missing entries.

        Raises :class:`RemoteTransportError` only when **no** replica
        accepted the batch — then nothing serves the new generation and
        the caller must retry.  Returns an aggregate report (drop/retain
        counts summed over the replicas reached) with the behind
        endpoints listed under ``"replicas_behind"``.
        """
        specs = list(mutations)
        with self._mutation_lock:
            seq = self._next_seq
            self._next_seq += 1
            self._mutation_log.append((seq, specs))
            reports, missed = self._fan_out_log(timeout)
        if not reports:
            raise RemoteTransportError(
                f"mutation seq {seq} reached no replica "
                f"({'; '.join(missed) or 'empty topology'})"
            )
        sample = next(iter(reports.values()))
        return {
            "seq": seq,
            "applied": len(specs),
            "token": sample.get("token"),
            "scoped": all(report.get("scoped", True) for report in reports.values()),
            "entries_dropped": sum(
                report.get("entries_dropped", 0) for report in reports.values()
            ),
            "entries_retained": sum(
                report.get("entries_retained", 0) for report in reports.values()
            ),
            "blast_entities": sample.get("blast_entities", 0),
            "replicas_applied": sorted(reports),
            "replicas_behind": missed,
        }

    def catch_up(self, timeout: float | None = None) -> dict:
        """Replay missing mutation-log entries to every lagging replica.

        Call after a downed replica comes back: the replay clears its
        server-side behind flag (restoring it to the read rotation) by
        delivering the missed entries in log order.  Returns the
        endpoints now caught up and the ones still unreachable.
        """
        with self._mutation_lock:
            reports, missed = self._fan_out_log(timeout)
        return {"caught_up": sorted(reports), "behind": missed}

    def _fan_out_log(self, timeout: float | None) -> tuple[dict, list[str]]:
        """Send unacknowledged log entries to every replica (in order).

        Caller holds ``_mutation_lock``.  Returns ``(reports, behind)``:
        the last ack per endpoint that took new entries, and the
        endpoints that could not be reached (reported to the manager so
        routing shifts off them immediately).
        """
        reports: dict[str, dict] = {}
        missed: list[str] = []
        for endpoint in self.topology.endpoints():
            try:
                report = self._catch_up_replica(endpoint, timeout)
            except RemoteTransportError as error:
                self.manager.report_failure(endpoint, error)
                missed.append(endpoint)
                continue
            except ReplicaBehindError:
                # Its ordered log still disagrees after a reset; leave it
                # behind (reads fail over) rather than abort the fan-out.
                missed.append(endpoint)
                continue
            if report is not None:
                reports[endpoint] = report
        return reports, missed

    def _catch_up_replica(self, endpoint: str, timeout: float | None) -> dict | None:
        """Deliver every log entry this replica has not acknowledged.

        Entries go oldest-first so the server's ordered log accepts each
        as ``applied + 1``.  When the server still reports a gap — its
        applied seq disagrees with our ledger, e.g. it restarted from a
        fresh snapshot — its actual seq is re-read from a ping and the
        replay restarts from there, once; a second disagreement
        re-raises.  Returns the last ack, or ``None`` when the replica
        was already caught up.
        """
        client = self._clients[endpoint]
        acked = self._replica_seq.get(endpoint, 0)
        pending = [entry for entry in self._mutation_log if entry[0] > acked]
        report: dict | None = None
        reset = False
        while pending:
            seq, specs = pending[0]
            try:
                report = client.mutate(specs, seq=seq, timeout=timeout)
            except ReplicaBehindError:
                if reset:
                    raise
                reset = True
                applied = int(client.ping().get("mutation_seq", 0))
                pending = [entry for entry in self._mutation_log if entry[0] > applied]
                continue
            self._replica_seq[endpoint] = int(report.get("seq", seq))
            pending = pending[1:]
        return report

    def stats_snapshot(self) -> dict:
        """Cluster telemetry: overall, per shard, per replica, plus imbalance.

        ``overall`` merges the raw counters of every *reachable* replica
        (replicas of one shard serve disjoint slices of its traffic, so
        summing is exact); ``per_shard`` merges each shard's replicas;
        ``per_replica`` keeps every process's own snapshot.  Unreachable
        replicas are reported under ``unreachable`` instead of failing the
        whole snapshot — telemetry must stay readable mid-outage.
        """
        per_shard_parts: list[list[dict]] = []
        per_replica: list[list[dict | None]] = []
        pair_counts: list[int] = []
        unreachable: list[str] = []
        slow_requests: list[dict] = []
        for replicas in self.topology.shards:
            parts: list[dict] = []
            rows: list[dict | None] = []
            shard_pairs = 0
            for spec in replicas:
                try:
                    payload = self._clients[spec.endpoint].call({"op": OP_STATS})
                except RemoteTransportError:
                    unreachable.append(spec.endpoint)
                    rows.append(None)
                    continue
                parts.append(payload["counters"])
                rows.append(payload["snapshot"])
                shard_pairs = int(payload.get("num_pairs", shard_pairs))
                slow_requests.extend(payload.get("slow_requests", []))
            per_shard_parts.append(parts)
            per_replica.append(rows)
            pair_counts.append(shard_pairs)
        shard_submitted = [
            sum(counters.get("submitted", 0) for counters in parts)
            for parts in per_shard_parts
        ]
        overall = merge_raw(part for parts in per_shard_parts for part in parts)
        overall["shard_imbalance"] = {
            "request_share": imbalance_summary(shard_submitted),
            "pair_count": imbalance_summary(pair_counts),
        }
        snapshot = {
            "num_shards": self.topology.num_shards,
            "num_replicas": self.topology.num_replicas,
            "overall": overall,
            "per_shard": [merge_raw(parts) for parts in per_shard_parts],
            "per_replica": per_replica,
            "pairs_per_shard": pair_counts,
            "slow_requests": slow_requests,
            "unreachable": unreachable,
            "routing": self.routing_snapshot(),
            "client_wire": self.wire_snapshot(),
        }
        slo = self.slo_update(overall)
        if slo is not None:
            snapshot["slo"] = slo
        # The fleet snapshot is taken *after* the SLO update so alert
        # transitions raised by this very scrape are already in the
        # event log — a one-shot doctor run sees its own breach.
        snapshot["fleet"] = self.manager.fleet_snapshot()
        if self.tail_sampler is not None:
            snapshot["tail_sampling"] = self.tail_sampler.snapshot()
        return snapshot

    def slo_update(self, overall: dict) -> dict | None:
        """Feed one merged snapshot through the SLO engine and alerter.

        Returns the ``"slo"`` section (objective evaluations + alert
        state) or ``None`` when no objectives are configured.  Alert
        transitions are forwarded to the fleet event log, so a breach
        shows up in the same timeline as the lease revocation that
        caused it.  Serialised under a lock: the engine's history and
        the alerter's state machine see snapshots in one order even with
        concurrent ``stats_snapshot()`` callers.
        """
        if self._slo_engine is None or self._alerter is None:
            return None
        with self._slo_lock:
            self._slo_engine.observe(overall)
            evaluations = self._slo_engine.evaluate()
            transitions = self._alerter.update(evaluations)
            alerts = self._alerter.snapshot()
        for event in transitions:
            self.manager.record_external_event(
                "slo_alert",
                objective=event["objective"],
                state=event["state"],
                severity=event.get("severity"),
                budget_remaining=event.get("budget_remaining"),
            )
        return {"objectives": evaluations, "alerts": alerts}

    def wire_snapshot(self) -> dict:
        """Client-side wire telemetry, overall and per replica endpoint."""
        per_endpoint = {
            endpoint: client.wire_counters.raw() for endpoint, client in self._clients.items()
        }
        overall: dict[str, int] = {}
        for counters in per_endpoint.values():
            for key, value in counters.items():
                overall[key] = overall.get(key, 0) + value
        return {"overall": overall, "per_endpoint": per_endpoint}

    def routing_snapshot(self) -> dict:
        """Where traffic actually went: per-replica routed/failure/load counters."""
        table = self.manager.table()
        replicas = []
        for shard_replicas in table.shards:
            for route in shard_replicas:
                row = {
                    "endpoint": route.endpoint,
                    "shard": route.shard_id,
                    "replica": route.replica_index,
                    "weight": route.weight,
                    "effective_weight": route.routing_weight,
                    "healthy": route.healthy,
                    "lease_ok": route.lease_ok,
                    "zone": route.zone,
                    "rack": route.rack,
                    "queue_depth": route.queue_depth,
                    "p95_ms": route.p95_ms,
                }
                row.update(self._loads[route.endpoint].snapshot())
                replicas.append(row)
        return {
            "table_version": table.version,
            "replicas": replicas,
            "migrations_active": len(table.migrations),
            "slots_moved": sum(
                1
                for slot, shard in enumerate(table.slot_map)
                if shard != slot % len(table.shards)
            ),
        }

    def shutdown_servers(self) -> None:
        """Ask every replica process of every shard to exit (best effort)."""
        for endpoint in self.topology.endpoints():
            try:
                self._clients[endpoint].call({"op": OP_SHUTDOWN}, timeout=5.0)
            except RemoteTransportError:
                pass  # already gone

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop the owned control plane and close every connection pool."""
        if self._owns_manager:
            self.manager.stop()
        for client in self._clients.values():
            client.close()

    def __enter__(self) -> "ClusterClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


__all__ = [
    "BATCH_CHUNK_SIZE",
    "ClusterClient",
    "is_request_shaped",
    "prefer_distinct_domains",
    "replica_score",
    "verify_peer_identity",
    "verify_served_identity",
]
