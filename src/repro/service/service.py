"""The explanation service: dispatcher-batched explain / confidence / verify.

:class:`ExplanationService` turns the PR-1 batch engine into serving
infrastructure.  Callers submit single-pair operations; the central
:class:`~repro.service.dispatch.Dispatcher` packs concurrent requests into
operation-homogeneous cross-worker batches, explain batches run through
:meth:`ExplanationEngine.explain_batch`, confidence/verify batches run
through the batched ADG path
(:meth:`~repro.core.repair.EARepairer.confidence_batch`), repeated traffic
is answered from a versioned LRU cache, and the bounded queue sheds load
when it fills up.  Results are *bit-identical* to direct engine calls:
batching only changes how work is grouped (the engine and the confidence
oracle both guarantee batch == sequential), and the cache is reconciled
with every KG/model version change, so a cached result is always exactly
what a fresh computation would produce.

Online mutation (PR-8)
----------------------

:meth:`ExplanationService.mutate` applies a batch of
:class:`MutationSpec` edits to the live graphs and invalidates only the
mutation's *blast radius*: cached pairs outside the k-hop ball around the
mutated endpoints (relation-seeded for confidence, which additionally
depends on global relation-functionality statistics) survive the
generation change, bit-identical with a cold rebuild.  A mutation falls
back to the pre-PR-8 wholesale drop when the mutation log cannot cover
the span, when the mined reasoning artefacts (relation alignment /
¬sameAs rules — global functions of the graphs) change, or when
``ServiceConfig.scoped_invalidation`` is off.  The artefacts are not
mined again per write: :mod:`repro.core.repair.rules` keeps one copy per
graph, shared by the service and every worker's repairer, and applies
each write from the mutation log.  Out-of-band mutations (someone
editing a KG without going through ``mutate``) keep the wholesale
contract: the next lookup sees a newer token and drops everything.

Operations
----------

* ``explain``     — the semantic-matching-subgraph explanation of a pair.
* ``confidence``  — the repair-confidence oracle (explanation -> ADG ->
  confidence, with cr1 filtering per the repair config), memoized both in
  the service cache and in the backend's fingerprint cache.
* ``verify``      — confidence thresholded at the low-confidence bound
  ``beta = sigmoid(theta)`` (the paper's EA-verification operation).
  Served from the confidence cache; such answers are counted as cache
  hits under the ``verify`` per-operation counter.

Threading model
---------------

One dispatcher thread owns the queue and the batching policy; workers are
pure executor threads, each owning a private :class:`~repro.core.ExEA`
backend because the engine's caches are single-threaded state.  Shared
*read* state (the KG memo tables, the model matrices, the reference
alignment) is safe under the GIL.  The reference alignment (model
predictions ∪ seed) is computed once per generation under a lock and
shared by all workers, so every request in a generation is answered
against the same alignment — a prerequisite for determinism under
concurrency.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Sequence

from ..core import ExEA, ExEAConfig
from ..core.repair.rules import mine_not_same_as_rules, mine_relation_alignment
from ..core.adg import low_confidence_threshold
from ..datasets import shard_workload
from ..kg import AlignmentSet, EADataset, Triple
from ..models import EAModel
from .batching import MicroBatcher, RequestQueue, ServiceRequest
from .cache import GenerationToken, ResultCache
from .config import ServiceConfig
from .dispatch import Dispatcher
from .errors import (
    DeadlineExceededError,
    ServiceClosedError,
    ServiceError,
    ServiceOverloadedError,
)
from .observability.context import TraceContext, new_span_id, new_trace
from .observability.spans import ServiceTracer, Span, SpanRecorder, stitch_trace
from .observability.tailsample import TailDecision, TailSampler
from .stats import ServiceStats
from .worker import WorkerPool

#: Operation kinds accepted by :meth:`ExplanationService.submit`.
EXPLAIN = "explain"
CONFIDENCE = "confidence"
VERIFY = "verify"
_KINDS = (EXPLAIN, CONFIDENCE, VERIFY)


def _cache_kind(kind: str) -> str:
    """verify is served from the confidence cache (it is a thresholding of it)."""
    return CONFIDENCE if kind == VERIFY else kind


@dataclass(frozen=True)
class MutationSpec:
    """One online KG edit: add or remove a triple in one of the two graphs.

    The unit the mutation plane ships around — service API, wire codec
    and cluster fan-out all speak lists of these.
    """

    op: str  #: ``"add"`` or ``"remove"``
    kg: int  #: 1 or 2 — which side of the dataset to edit
    triple: Triple

    def __post_init__(self) -> None:
        if self.op not in ("add", "remove"):
            raise ValueError(f"unknown mutation op {self.op!r}; expected 'add' or 'remove'")
        if self.kg not in (1, 2):
            raise ValueError(f"kg must be 1 or 2, got {self.kg!r}")
        if not isinstance(self.triple, Triple):
            raise TypeError("MutationSpec.triple must be a Triple")


class _MutationGate:
    """Reader/writer gate pausing batch execution during graph mutation.

    Workers hold the read side for the duration of a batch — the engine
    walks shared KG indexes that a concurrent mutation would rewrite
    under it — and :meth:`ExplanationService.mutate` holds the write side
    while it edits the graphs and advances the cache.  A writer blocks
    new readers and waits for in-flight ones to drain.  The sharded
    service shares one gate across its shards, since they share the
    graphs.
    """

    def __init__(self) -> None:
        self._condition = threading.Condition()
        self._readers = 0
        self._writing = False

    @contextmanager
    def read(self):
        with self._condition:
            while self._writing:
                self._condition.wait()
            self._readers += 1
        try:
            yield
        finally:
            with self._condition:
                self._readers -= 1
                if not self._readers:
                    self._condition.notify_all()

    @contextmanager
    def write(self):
        with self._condition:
            while self._writing:
                self._condition.wait()
            self._writing = True
            while self._readers:
                self._condition.wait()
        try:
            yield
        finally:
            with self._condition:
                self._writing = False
                self._condition.notify_all()


class ExplanationService:
    """Dispatcher-batching, caching front-end over the batch explanation engine."""

    def __init__(
        self,
        model: EAModel,
        dataset: EADataset | None = None,
        config: ServiceConfig | None = None,
        exea_config: ExEAConfig | None = None,
        reference_provider: Callable[[], AlignmentSet] | None = None,
        mutation_gate: _MutationGate | None = None,
    ) -> None:
        if not model.is_fitted:
            raise ValueError("the EA model must be fitted before serving explanations")
        self.model = model
        self.dataset = dataset or model.dataset
        if self.dataset is None:
            raise ValueError("a dataset is required (none attached to the model)")
        self.config = config or ServiceConfig()
        self.exea_config = exea_config or ExEAConfig()
        self.stats = ServiceStats()
        #: span ring + slow-request log for this service's side of a trace
        self.tracer = ServiceTracer(
            trace_buffer=self.config.trace_buffer,
            slow_request_ms=self.config.slow_request_ms,
            slow_log_capacity=self.config.slow_log_capacity,
        )
        self.cache = ResultCache(self.config.cache_capacity, stats=self.stats)
        self.queue = RequestQueue(self.config.queue_capacity)
        #: one engine backend per worker — engine caches are single-threaded
        self._backends = [
            ExEA(model, self.dataset, self.exea_config)
            for _ in range(self.config.num_workers)
        ]
        self.verify_threshold = low_confidence_threshold(self.exea_config.adg.theta)
        self.batcher = MicroBatcher(self.queue, max_batch_size=self.config.max_batch_size)
        self.pool = WorkerPool(self.config.num_workers, self._handle_batch)
        self._dispatcher = Dispatcher(
            self.batcher,
            self.pool,
            group_of=_cache_kind,
            precheck=self._precheck,
            on_gather=self.stats.record_batch,
        )
        #: when set, replaces the per-service reference-alignment compute —
        #: the sharded service shares one reference across its shards
        self._reference_provider = reference_provider
        self._reference_lock = threading.Lock()
        self._reference_alignment: AlignmentSet | None = None
        self._reference_version: int | None = None
        #: pauses batch execution while a mutation rewrites the graphs;
        #: the sharded service passes one shared gate to every shard
        self._mutation_gate = mutation_gate or _MutationGate()
        #: while a mutation is in flight, lookups see the pre-mutation
        #: token instead of a half-advanced live one (see ``mutate``)
        self._token_override: GenerationToken | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "ExplanationService":
        """Start the dispatcher and worker threads (idempotent)."""
        self._dispatcher.start()
        return self

    def close(self, drain: bool = True) -> None:
        """Stop admitting requests; by default wait for queued work to finish."""
        self.queue.close()
        if drain:
            self._dispatcher.join()

    def __enter__(self) -> "ExplanationService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Versioning
    # ------------------------------------------------------------------
    def _live_token(self) -> GenerationToken:
        """The token derived directly from the live version counters."""
        return (
            self.dataset.kg1.version,
            self.dataset.kg2.version,
            self.model.embedding_version,
        )

    def _token(self) -> GenerationToken:
        """Generation token tying results to KG/model versions (PR-1 counters).

        While :meth:`mutate` is rewriting the graphs the live counters
        pass through intermediate states no result was ever computed
        under; the override pins concurrent lookups to the pre-mutation
        token until the cache has been advanced to the post-mutation one.
        """
        override = self._token_override
        if override is not None:
            return override
        return self._live_token()

    def generation_token(self) -> GenerationToken:
        """Public view of the generation token guarding this service's cache.

        Transports expose it over the wire so clients can check that every
        shard process serves the same ``(kg1, kg2, model)`` generation.
        """
        return self._token()

    def trace_spans(self, trace_id: str | None = None) -> list[Span]:
        """Spans recorded by this service, optionally filtered to one trace."""
        return self.tracer.recorder.spans(trace_id)

    def slow_requests(self) -> list[dict]:
        """Entries of the slow-request log (empty when no threshold is set)."""
        return self.tracer.slow_entries()

    def reference_alignment(self) -> AlignmentSet:
        """Model predictions ∪ seed alignment, recomputed once per model refit.

        The reference depends only on the model's predictions and the
        seed alignment — not on the graphs — so it survives online KG
        mutations and is keyed on the embedding version alone.
        """
        if self._reference_provider is not None:
            return self._reference_provider()
        version = self.model.embedding_version
        with self._reference_lock:
            if self._reference_alignment is None or self._reference_version != version:
                self._reference_alignment = self._backends[0].generator.reference_alignment()
                self._reference_version = version
            return self._reference_alignment

    # ------------------------------------------------------------------
    # Request admission
    # ------------------------------------------------------------------
    def submit(
        self,
        kind: str,
        source: str,
        target: str,
        deadline_ms: float | None = None,
        trace: TraceContext | None = None,
    ) -> Future:
        """Submit one operation; returns a future resolving to its result.

        When *trace* is given (and sampled) the request's stage spans —
        cache lookup, queue wait, batch gather, engine compute — are
        recorded into this service's span ring under that trace.

        Raises:
            ServiceOverloadedError: the bounded queue is full (backpressure).
            ServiceClosedError: the service no longer admits requests.
            ValueError: unknown operation *kind*.
        """
        if kind not in _KINDS:
            raise ValueError(f"unknown operation {kind!r}; expected one of {_KINDS}")
        self.stats.record_submitted()
        pair = (source, target)
        # Fast path: answer straight from the cache, no queueing at all.
        # verify lookups read the confidence cache but are attributed to
        # their own per-operation hit counter.
        lookup_started = time.perf_counter()
        found, value = self.cache.lookup(_cache_kind(kind), pair, self._token())
        lookup_seconds = time.perf_counter() - lookup_started
        self.stats.record_stage("cache", lookup_seconds)
        if self.tracer.should_record(trace):
            self.tracer.recorder.add(
                "cache",
                trace,
                lookup_seconds,
                attrs={"kind": kind, "hit": found},
                span_id=new_span_id(),
                parent_span_id=trace.span_id,
            )
        if found:
            self.stats.record_hit(kind)
            future: Future = Future()
            future.set_result(self._present(kind, value))
            self.stats.record_completed()
            self.stats.record_request(kind, lookup_seconds)
            return future
        deadline_ms = deadline_ms if deadline_ms is not None else self.config.default_deadline_ms
        request = ServiceRequest(
            kind=kind,
            pair=pair,
            deadline=None if deadline_ms is None else time.monotonic() + deadline_ms / 1000.0,
            trace=trace,
        )
        try:
            self.queue.put(request)
        except ServiceOverloadedError:
            self.stats.record_rejected()
            raise
        return request.future

    # ------------------------------------------------------------------
    # Batch execution (runs on worker threads)
    # ------------------------------------------------------------------
    def _present(self, kind: str, value):
        """Map a cached/computed raw value to the operation's result type."""
        if kind == VERIFY:
            return bool(value > self.verify_threshold)
        return value

    def _complete(self, request: ServiceRequest, raw_value) -> None:
        if not request.future.set_running_or_notify_cancel():
            return
        now = time.monotonic()
        latency = now - request.enqueued_at
        self.stats.record_completed()
        self.stats.record_request(request.kind, latency)
        # Stages and spans are recorded *before* the future resolves so a
        # caller that sees the result and immediately pulls the trace is
        # guaranteed to find the request's stage spans.
        self._record_request_stages(request, now, latency)
        request.future.set_result(self._present(request.kind, raw_value))

    def _record_request_stages(
        self, request: ServiceRequest, now: float, latency: float
    ) -> None:
        """Record the per-stage breakdown of one completed request.

        The stage boundaries are the request's lifecycle stamps —
        ``enqueued_at`` → ``gathered_at`` (queue wait), → ``started_at``
        (batch gather/packing), → *now* (engine compute) — so the three
        stage durations sum exactly to the request's completion latency.
        Every completion feeds the stage histograms; span objects are
        built only for sampled traces, and the slow-request log captures
        the same breakdown when the latency crosses its threshold.
        """
        gathered = request.gathered_at
        started = request.started_at
        stages: dict[str, float] = {}
        if gathered is not None:
            stages["queue"] = max(gathered - request.enqueued_at, 0.0)
            batch_end = started if started is not None else now
            stages["batch"] = max(batch_end - gathered, 0.0)
            if started is not None:
                stages["engine"] = max(now - started, 0.0)
        for stage, seconds in stages.items():
            self.stats.record_stage(stage, seconds)
        trace = request.trace
        if stages and self.tracer.should_record(trace):
            # Walk the stages backwards from "now" so the spans tile the
            # request's wall-clock interval end to end.
            cursor = time.time()
            for name in ("engine", "batch", "queue"):
                seconds = stages.get(name)
                if seconds is None:
                    continue
                self.tracer.recorder.add(
                    name,
                    trace,
                    seconds,
                    attrs={"kind": request.kind},
                    span_id=new_span_id(),
                    parent_span_id=trace.span_id,
                    end_wall=cursor,
                )
                cursor -= seconds
        slow = self.tracer.slow_log
        if slow is not None and latency * 1000.0 >= slow.threshold_ms:
            self.stats.record_slow_request()
            slow.record(
                request.kind,
                request.pair,
                latency * 1000.0,
                {name: seconds * 1000.0 for name, seconds in stages.items()},
                trace_id=trace.trace_id if trace is not None else None,
            )

    def _fail(self, request: ServiceRequest, error: BaseException) -> None:
        if not request.future.set_running_or_notify_cancel():
            return
        request.future.set_exception(error)
        if isinstance(error, DeadlineExceededError):
            self.stats.record_expired()
        else:
            self.stats.record_failed()

    def _try_resolve(self, request: ServiceRequest, token: GenerationToken) -> bool:
        """Resolve a request without engine work, if possible.

        Fails it when its deadline lapsed in the queue, completes it when
        an earlier batch (or another worker) cached its pair while it
        waited.  Returns True when the request is done.
        """
        now = time.monotonic()
        if request.deadline is not None and now > request.deadline:
            self._fail(
                request,
                DeadlineExceededError(
                    f"{request.kind}{request.pair} expired after "
                    f"{(now - request.enqueued_at) * 1000:.1f}ms in queue"
                ),
            )
            return True
        found, value = self.cache.lookup(_cache_kind(request.kind), request.pair, token)
        if found:
            self.stats.record_hit(request.kind)
            self._complete(request, value)
            return True
        return False

    def _precheck(self, request: ServiceRequest) -> bool:
        """Dispatcher-side resolve-before-routing (cache hits, lapsed deadlines)."""
        return self._try_resolve(request, self._token())

    def _handle_batch(self, worker_id: int, batch: list[ServiceRequest]) -> None:
        # Workers hold the mutation gate's read side for the whole batch:
        # the engine walks shared KG indexes that a concurrent mutation
        # would rewrite under it.
        with self._mutation_gate.read():
            self._execute_batch(worker_id, batch)

    def _execute_batch(self, worker_id: int, batch: list[ServiceRequest]) -> None:
        backend = self._backends[worker_id]
        token = self._token()
        reference = self.reference_alignment()
        execution_started = time.monotonic()
        for request in batch:
            request.started_at = execution_started

        live = [request for request in batch if not self._try_resolve(request, token)]

        explain_requests = [r for r in live if r.kind == EXPLAIN]
        if explain_requests:
            self._run_explains(backend, explain_requests, reference, token)

        confidence_requests = [r for r in live if r.kind in (CONFIDENCE, VERIFY)]
        if confidence_requests:
            self._run_confidences(backend, confidence_requests, reference, token)

    def _run_explains(self, backend: ExEA, requests, reference, token) -> None:
        """One coalesced ``explain_batch`` call for every live explain request."""
        pairs = list(dict.fromkeys(request.pair for request in requests))
        try:
            results = backend.generator.engine.explain_batch(pairs, reference)
        except Exception:
            # Isolate the poisonous pair: retry one by one so a single bad
            # request (e.g. an entity unknown to the model) fails alone.
            results = None
        if results is None:
            for request in requests:
                try:
                    value = backend.generator.engine.explain_batch([request.pair], reference)[
                        request.pair
                    ]
                except Exception as error:  # noqa: BLE001 - per-request isolation
                    self._fail(request, error)
                    continue
                self.cache.put(EXPLAIN, request.pair, token, value)
                self.stats.record_miss(EXPLAIN)
                self._complete(request, value)
            return
        for request in requests:
            value = results[request.pair]
            self.cache.put(EXPLAIN, request.pair, token, value)
            self.stats.record_miss(EXPLAIN)
            self._complete(request, value)

    def _run_confidences(self, backend: ExEA, requests, reference, token) -> None:
        """Batched repair-confidence oracle over the live confidence/verify requests.

        One :meth:`~repro.core.repair.EARepairer.confidence_batch` call
        gathers matched-neighbour sets, explains every cache-missing pair
        through the engine's shared path-embedding store and constructs
        the ADGs in one pass — bit-identical to pair-at-a-time oracle
        calls, which remain the fallback when a batch contains a
        poisonous pair.
        """
        pairs = list(dict.fromkeys(request.pair for request in requests))
        try:
            computed = backend.repairer.confidence_batch(pairs, reference)
        except Exception:
            # Isolate the poisonous pair: fall back to one-by-one so a
            # single bad request (e.g. an entity unknown to the model)
            # fails alone.
            computed = None
        if computed is not None:
            for pair, value in computed.items():
                self.cache.put(CONFIDENCE, pair, token, value)
            for request in requests:
                self.stats.record_miss(request.kind)
                self._complete(request, computed[request.pair])
            return
        done: dict[tuple[str, str], float] = {}
        for request in requests:
            pair = request.pair
            if pair not in done:
                try:
                    done[pair] = backend.repairer.confidence(pair[0], pair[1], reference)
                except Exception as error:  # noqa: BLE001 - per-request isolation
                    self._fail(request, error)
                    continue
                self.cache.put(CONFIDENCE, pair, token, done[pair])
            self.stats.record_miss(request.kind)
            self._complete(request, done[pair])

    # ------------------------------------------------------------------
    # Online mutation (PR-8)
    # ------------------------------------------------------------------
    def mutate(self, mutations: Sequence[MutationSpec]) -> dict:
        """Apply KG edits and invalidate only their blast radius.

        Pauses batch execution (the mutation gate's write side), applies
        every spec to the live graphs, computes per-kind entity scopes
        from the mutation records, and advances the result cache to the
        post-mutation generation evicting only intersecting entries.
        Engine-internal caches reconcile themselves on their next batch
        via the same mutation log (:meth:`KnowledgeGraph.mutations_since`).

        Returns a JSON-safe report::

            {"applied": int, "token": [kg1, kg2, model],
             "scoped": bool, "entries_dropped": int,
             "entries_retained": int, "blast_entities": int}
        """
        specs = list(mutations)
        for spec in specs:
            if not isinstance(spec, MutationSpec):
                raise TypeError(f"expected MutationSpec, got {type(spec).__name__}")
        with self._mutation_gate.write():
            return self._mutate_locked(specs)

    def _mutate_locked(self, specs: list[MutationSpec]) -> dict:
        """Apply *specs* and reconcile the cache (caller holds the write gate)."""
        old_token = self._token()
        artifacts_before = self._mined_artifacts()
        self._token_override = old_token
        try:
            records1, records2 = self._apply_specs(specs)
            new_token = self._live_token()
            scopes, blast = self._compute_scopes(records1, records2, artifacts_before)
            report = self._advance_cache(new_token, scopes, blast)
        finally:
            # Cleared only after the cache reached the new token: a lookup
            # racing this window sees either the pinned old token (its
            # entries are still the pre-mutation ones) or the new one.
            self._token_override = None
        report["applied"] = len(specs)
        report["token"] = list(new_token)
        # Internal (not JSON-safe): the per-kind entity scopes, so hosts
        # holding derived caches (the shard server's encode cache) can
        # scope their own eviction.  Wire layers pop it before encoding.
        report["_scopes"] = scopes
        return report

    def _apply_specs(self, specs: list[MutationSpec]):
        """Apply *specs* to the graphs; returns both sides' mutation records.

        Either side's records are ``None`` when its log cannot cover the
        span (an oversized batch) — the caller falls back to wholesale.
        """
        kg1, kg2 = self.dataset.kg1, self.dataset.kg2
        before1, before2 = kg1.version, kg2.version
        for spec in specs:
            kg = kg1 if spec.kg == 1 else kg2
            if spec.op == "add":
                kg.add_triple(spec.triple)
            else:
                kg.remove_triple(spec.triple)
        return kg1.mutations_since(before1), kg2.mutations_since(before2)

    def _mined_artifacts(self):
        """The mined reasoning artefacts of the live graphs, or ``None``.

        ``None`` when cr1 is disabled — the conflict resolver is never
        consulted, so no cached confidence depends on the artefacts and
        the equality check degenerates to "unchanged".  With cr1 on this
        reads the stores in :mod:`repro.core.repair.rules` that the
        workers' repairers share: a write costs each graph's rule miner
        the subjects it touched and the relation-alignment memo one
        inventory comparison, not a scan of the graphs.  The artefacts
        are global functions of the graphs, so comparing the pre- and
        post-mutation values is what buys scoped confidence eviction its
        correctness.
        """
        if not self.exea_config.repair.enable_relation_conflicts:
            return None
        return (
            mine_relation_alignment(self.model, self.dataset.kg1, self.dataset.kg2),
            mine_not_same_as_rules(self.dataset.kg1),
            mine_not_same_as_rules(self.dataset.kg2),
        )

    def _compute_scopes(self, records1, records2, artifacts_before):
        """Per-kind entity scopes for the cache advance.

        Returns ``(scopes, blast_entities)``; ``scopes is None`` means
        wholesale (log gap, mined-artefact drift, or scoped invalidation
        disabled).  Explain entries depend only on the structural k-hop
        ball around the mutated endpoints; confidence entries additionally
        depend on relation functionality statistics, so their ball is
        relation-seeded (every endpoint of every triple carrying a mutated
        relation).  verify shares the confidence cache, hence its scope.
        """
        if not self.config.scoped_invalidation:
            return None, 0
        if records1 is None or records2 is None:
            return None, 0
        if artifacts_before != self._mined_artifacts():
            return None, 0
        hops = self.exea_config.explanation.max_hops
        kg1, kg2 = self.dataset.kg1, self.dataset.kg2
        explain_scope = (
            kg1.blast_radius(records1, hops),
            kg2.blast_radius(records2, hops),
        )
        confidence_scope = (
            kg1.blast_radius(records1, hops, include_relations=True),
            kg2.blast_radius(records2, hops, include_relations=True),
        )
        scopes = {EXPLAIN: explain_scope, CONFIDENCE: confidence_scope}
        return scopes, len(confidence_scope[0]) + len(confidence_scope[1])

    def _advance_cache(self, new_token: GenerationToken, scopes, blast: int) -> dict:
        """Advance the result cache to *new_token* and record telemetry."""
        if scopes is None:
            dropped, retained = self.cache.invalidate_scoped(
                new_token, {EXPLAIN: None, CONFIDENCE: None}
            )
            self.stats.record_invalidation()
        else:
            dropped, retained = self.cache.invalidate_scoped(new_token, scopes)
            self.stats.record_scoped_invalidation(dropped, retained, blast)
        return {
            "scoped": scopes is not None,
            "entries_dropped": dropped,
            "entries_retained": retained,
            "blast_entities": blast,
        }


class ExEAClient:
    """Synchronous in-process facade over an :class:`ExplanationService`.

    Callers that think in terms of single requests use this; concurrent
    clients each hold one (it is stateless) and the service's micro-batcher
    does the coalescing underneath.
    """

    def __init__(
        self,
        service: ExplanationService,
        tail_sampler: TailSampler | None = None,
    ) -> None:
        self.service = service
        #: tail-based sampling: when set, ``traced()`` traces the
        #: sampler's fraction of requests as *pending* and keeps/drops
        #: at completion (slow, errored, retried, or baseline); unset,
        #: every ``traced()`` call is traced.  Never affects results.
        self.tail_sampler = tail_sampler
        #: client-side span ring: one ``client_send`` span per traced call
        self.tracer = SpanRecorder(512)

    # ------------------------------------------------------------------
    def traced(
        self, kind: str, source: str, target: str, timeout: float | None = None
    ) -> tuple[object, TraceContext]:
        """Run one traced operation; returns ``(result, trace_context)``.

        Mints a root :class:`TraceContext`, submits the request under it
        (the service records its stage spans into its own ring when
        sampled), and records the enveloping ``client_send`` span —
        submit to result — into this client's ring.  Feed the context's
        ``trace_id`` to :meth:`trace_timeline` for the stitched
        per-request view.

        Without a :class:`TailSampler` every call is sampled.  With one
        attached, the sampled fraction is the sampler's and the keep/drop
        decision moves to completion: slow, errored or retried requests
        are kept (and their spans pinned in every ring), fast clean ones
        are dropped on the spot bar the configured baseline fraction.
        """
        sampler = self.tail_sampler
        sampled = sampler.begin() if sampler is not None else True
        trace = new_trace(sampled=sampled)
        started = time.perf_counter()
        try:
            value = self.service.submit(kind, source, target, trace=trace).result(timeout)
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

    def _tail_complete(
        self,
        sampler: TailSampler,
        trace: TraceContext,
        latency_ms: float,
        errored: bool,
    ) -> TailDecision:
        """Apply the tail keep/drop decision for one completed pending trace.

        In-process requests never fail over, so ``retried`` is always
        False here (the remote facades track failovers explicitly).
        Dropped traces are NOT purged eagerly — the span ring is the
        pending buffer and eviction recycles them for free; an O(ring)
        rebuild per fast request would dwarf the request itself.
        """
        decision = sampler.complete(
            trace.trace_id, latency_ms, errored=errored, retried=False
        )
        if decision.keep:
            self._pin_trace(trace.trace_id)
        return decision

    def _pin_trace(self, trace_id: str) -> None:
        """Pin a kept trace's spans against ring eviction, everywhere we can."""
        self.tracer.pin(trace_id)
        self.service.tracer.recorder.pin(trace_id)

    def trace_timeline(self, trace_id: str) -> dict:
        """Stitched timeline of one trace: client spans + the service's spans."""
        spans = self.tracer.spans(trace_id) + self.service.trace_spans(trace_id)
        return stitch_trace(spans, trace_id)

    # ------------------------------------------------------------------
    def explain(self, source: str, target: str, timeout: float | None = None, deadline_ms: float | None = None):
        """Explanation (semantic matching subgraph) of one pair, synchronously."""
        return self.service.submit(EXPLAIN, source, target, deadline_ms).result(timeout)

    def confidence(self, source: str, target: str, timeout: float | None = None, deadline_ms: float | None = None) -> float:
        """Repair-confidence of one pair, synchronously."""
        return self.service.submit(CONFIDENCE, source, target, deadline_ms).result(timeout)

    def verify(self, source: str, target: str, timeout: float | None = None, deadline_ms: float | None = None) -> bool:
        """EA verification (confidence thresholded at beta) of one pair."""
        return self.service.submit(VERIFY, source, target, deadline_ms).result(timeout)

    # ------------------------------------------------------------------
    def explain_many(
        self, pairs: list[tuple[str, str]], timeout: float | None = None
    ) -> dict[tuple[str, str], object]:
        """Submit every pair first, then gather — this drives the batcher."""
        futures = {pair: self.service.submit(EXPLAIN, *pair) for pair in dict.fromkeys(pairs)}
        return {pair: future.result(timeout) for pair, future in futures.items()}

    def replay(
        self, workload: list[tuple[str, str, str]], timeout: float | None = None
    ) -> list[object]:
        """Run a scripted ``(kind, source, target)`` traffic replay in order.

        Requests are submitted as fast as admission control allows and
        gathered afterwards; overloaded submissions are retried after a
        short backoff so the replay exerts sustained pressure without
        dropping requests.
        """
        futures: list[Future] = []
        for kind, source, target in workload:
            while True:
                try:
                    futures.append(self.service.submit(kind, source, target))
                    break
                except ServiceOverloadedError:
                    time.sleep(0.0005)
        return [future.result(timeout) for future in futures]


def _fan_out(thunks) -> None:
    """Run every thunk on its own daemon thread; join all; re-raise the first failure.

    The shared fan-out used by :func:`replay_concurrently` and the
    cluster client's per-shard scatter — one place to fix error
    propagation for both.  A failed thunk must never be
    silently dropped: a replay that lost requests would otherwise be
    mistaken for a fast one.
    """
    errors: list[BaseException] = []

    def run(thunk) -> None:
        try:
            thunk()
        except BaseException as error:  # noqa: BLE001 - re-raised below
            errors.append(error)

    threads = [threading.Thread(target=run, args=(thunk,), daemon=True) for thunk in thunks]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


def replay_concurrently(
    client,
    workload: list[tuple[str, str, str]],
    num_clients: int,
    timeout: float | None = 120.0,
) -> float:
    """Drive a scripted replay through *num_clients* concurrent threads.

    Shards the workload round-robin and replays each slice on its own
    thread through the shared *client* — anything with the `ExEAClient`
    ``replay`` surface: ``ExEAClient(service)`` in process, or a remote
    :class:`~repro.service.cluster.client.ClusterClient`.  Returns the
    elapsed wall-clock seconds.  Thread failures are re-raised — a replay
    that dropped requests must never be mistaken for a fast one (its
    timing would be meaningless).
    """
    slices = [part for part in shard_workload(list(workload), num_clients) if part]
    start = time.perf_counter()
    _fan_out([lambda part=part: client.replay(part, timeout=timeout) for part in slices])
    return time.perf_counter() - start


__all__ = [
    "CONFIDENCE",
    "EXPLAIN",
    "VERIFY",
    "ExEAClient",
    "ExplanationService",
    "MutationSpec",
    "ServiceError",
    "ServiceClosedError",
    "ServiceOverloadedError",
    "DeadlineExceededError",
    "replay_concurrently",
]
