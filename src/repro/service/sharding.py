"""Sharded serving: hash-partitioned shard groups of the explanation service.

Scaling past one dispatcher/worker-pool/cache triplet is a routing
problem: the dataset's alignment pairs hash-partition across ``N`` shard
groups, each a full :class:`~repro.service.service.ExplanationService`
(own bounded queue, dispatcher, worker pool with private engine backends,
versioned result cache and generation token).  The
:class:`ShardRouter` makes the partition deterministic — CRC-32 of the
pair, not Python's per-process salted ``hash`` — so a pair is served by
the same shard in every run and every process, which keeps results
bit-identical at any shard count.  The remote
:class:`~repro.service.cluster.client.ClusterClient` routes by the same
router, so a pair reaches the same shard in process and across the
wire.

Admission control, deadlines and cache invalidation are all *per shard*:
one hot shard sheds load while the others keep serving, and a KG/model
version bump invalidates every shard's cache independently through the
same generation-token mechanism.  The reference alignment is computed
once per generation and shared by all shards (it depends only on the
model and seed alignment, not on the shard), so a request is answered
against the same alignment regardless of which shard serves it.

:class:`ShardedExEAClient` is the synchronous facade; the plain
:class:`~repro.service.service.ExEAClient` also works because routing
happens inside :meth:`ShardedExplanationService.submit`.
"""

from __future__ import annotations

import threading
import zlib
from concurrent.futures import Future

from ..core import ExEAConfig
from ..kg import AlignmentSet, EADataset
from ..models import EAModel
from .cache import GenerationToken
from .config import ServiceConfig
from .observability.context import TraceContext
from .observability.spans import Span
from .service import ExEAClient, ExplanationService, MutationSpec, _MutationGate
from .stats import imbalance_summary, merge_stats


class ShardRouter:
    """Deterministic hash partition of alignment pairs across shard groups."""

    def __init__(self, num_shards: int) -> None:
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        self.num_shards = num_shards

    def shard_of(self, source: str, target: str) -> int:
        """Shard index of a pair — stable across runs and processes."""
        if self.num_shards == 1:
            return 0
        key = f"{source}\x1f{target}".encode("utf-8")
        return zlib.crc32(key) % self.num_shards

    def partition(
        self, pairs: list[tuple[str, str]]
    ) -> dict[int, list[tuple[str, str]]]:
        """Group *pairs* by shard (insertion order preserved per shard)."""
        shards: dict[int, list[tuple[str, str]]] = {}
        for source, target in pairs:
            shards.setdefault(self.shard_of(source, target), []).append((source, target))
        return shards


class ShardedExplanationService:
    """N shard groups of the explanation service behind one submit() front door.

    ``config.num_shards`` controls the fan-out; every shard runs the full
    service stack (dispatcher, workers, cache, stats) and requests route
    by :class:`ShardRouter`.  With ``num_shards=1`` this is exactly one
    :class:`ExplanationService` plus a constant-time route, so results are
    bit-identical across shard counts by construction: the same pair
    always reaches the same kind of engine path, only *which* cache and
    worker pool serve it changes.
    """

    def __init__(
        self,
        model: EAModel,
        dataset: EADataset | None = None,
        config: ServiceConfig | None = None,
        exea_config: ExEAConfig | None = None,
    ) -> None:
        self.model = model
        self.config = config or ServiceConfig()
        self.router = ShardRouter(self.config.num_shards)
        self._reference_lock = threading.Lock()
        self._reference_alignment: AlignmentSet | None = None
        self._reference_version: int | None = None
        self._pairs_lock = threading.Lock()
        self._pairs_cache: tuple[int, list[int]] | None = None
        #: one gate for all shards: they share the graphs, so a mutation
        #: must pause every shard's workers, not just one partition's
        self._mutation_gate = _MutationGate()
        self.shards = [
            ExplanationService(
                model,
                dataset,
                self.config,
                exea_config=exea_config,
                reference_provider=self._shared_reference,
                mutation_gate=self._mutation_gate,
            )
            for _ in range(self.config.num_shards)
        ]
        self.dataset = self.shards[0].dataset
        self.verify_threshold = self.shards[0].verify_threshold

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "ShardedExplanationService":
        """Start every shard's dispatcher and worker pool (idempotent)."""
        for shard in self.shards:
            shard.start()
        return self

    def close(self, drain: bool = True) -> None:
        """Close every shard; by default wait for admitted work to finish."""
        for shard in self.shards:
            shard.queue.close()
        if drain:
            for shard in self.shards:
                shard.close()

    def __enter__(self) -> "ShardedExplanationService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Shared generation state
    # ------------------------------------------------------------------
    def _token(self) -> GenerationToken:
        return (
            self.dataset.kg1.version,
            self.dataset.kg2.version,
            self.model.embedding_version,
        )

    def _shared_reference(self) -> AlignmentSet:
        """One reference alignment per model refit, shared by every shard.

        The reference (model predictions ∪ seed) is independent of the
        shard, so computing it N times would waste N-1 prediction passes
        and — worse — allow shards to momentarily disagree mid-refit.  It
        does not depend on the graphs either, so it survives online KG
        mutations and is keyed on the embedding version alone.
        """
        version = self.model.embedding_version
        with self._reference_lock:
            if self._reference_alignment is None or self._reference_version != version:
                self._reference_alignment = (
                    self.shards[0]._backends[0].generator.reference_alignment()
                )
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
        """Route one operation to its shard; returns the shard's future.

        Backpressure and deadlines are enforced by the owning shard: a
        full shard queue raises
        :class:`~repro.service.errors.ServiceOverloadedError` even while
        other shards have capacity (load shedding is per partition, as it
        would be across processes).  A trace context travels with the
        request, so its stage spans land in the serving shard's ring.
        """
        shard = self.shards[self.router.shard_of(source, target)]
        return shard.submit(kind, source, target, deadline_ms, trace=trace)

    def shard_of(self, source: str, target: str) -> int:
        """Shard index that serves the given pair."""
        return self.router.shard_of(source, target)

    # ------------------------------------------------------------------
    # Online mutation
    # ------------------------------------------------------------------
    def mutate(self, mutations: list[MutationSpec]) -> dict:
        """Apply KG edits once and advance every shard's cache with one scope.

        The graphs are shared by all shards, so the edits are applied a
        single time (through shard 0's primitives) under the shared
        mutation gate — pausing every shard's workers — and the same
        post-mutation token and blast-radius scopes advance each shard's
        result cache.  Pinning every shard's token override for the whole
        window keeps concurrent lookups on any shard answering under the
        pre-mutation generation until its cache has moved.  Returns the
        same JSON-safe report as
        :meth:`~repro.service.service.ExplanationService.mutate`, with
        entry counts summed across shards.
        """
        specs = list(mutations)
        for spec in specs:
            if not isinstance(spec, MutationSpec):
                raise TypeError(f"expected MutationSpec, got {type(spec).__name__}")
        primary = self.shards[0]
        with self._mutation_gate.write():
            old_token = primary._token()
            artifacts_before = primary._mined_artifacts()
            for shard in self.shards:
                shard._token_override = old_token
            try:
                records1, records2 = primary._apply_specs(specs)
                new_token = primary._live_token()
                scopes, blast = primary._compute_scopes(records1, records2, artifacts_before)
                dropped = retained = 0
                for shard in self.shards:
                    shard_report = shard._advance_cache(new_token, scopes, blast)
                    dropped += shard_report["entries_dropped"]
                    retained += shard_report["entries_retained"]
            finally:
                for shard in self.shards:
                    shard._token_override = None
        return {
            "applied": len(specs),
            "token": list(new_token),
            "scoped": scopes is not None,
            "entries_dropped": dropped,
            "entries_retained": retained,
            "blast_entities": blast,
            "_scopes": scopes,
        }

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def trace_spans(self, trace_id: str | None = None) -> list[Span]:
        """Spans recorded by every shard, optionally filtered to one trace."""
        spans: list[Span] = []
        for shard in self.shards:
            spans.extend(shard.trace_spans(trace_id))
        return spans

    def slow_requests(self) -> list[dict]:
        """Slow-request log entries pooled across every shard."""
        entries: list[dict] = []
        for shard in self.shards:
            entries.extend(shard.slow_requests())
        return entries

    @property
    def stats(self):
        """Per-shard :class:`ServiceStats` objects (index = shard id)."""
        return [shard.stats for shard in self.shards]

    def pairs_per_shard(self) -> list[int]:
        """How many reference pairs each shard's partition holds.

        Partitions the current generation's reference alignment (model
        predictions ∪ seed — the pair population the service actually
        answers about) with the same router requests use.  Both the
        reference and the counts are cached per model refit (the pair
        population depends on the predictions and the seed, not on the
        graphs), so a stats poll pays the CRC-32 pass only after a refit.
        """
        version = self.model.embedding_version
        with self._pairs_lock:
            if self._pairs_cache is None or self._pairs_cache[0] != version:
                counts = [0] * len(self.shards)
                for source, target in self._shared_reference().pairs:
                    counts[self.router.shard_of(source, target)] += 1
                self._pairs_cache = (version, counts)
            return list(self._pairs_cache[1])

    def stats_snapshot(self) -> dict:
        """Aggregate + per-shard telemetry.

        ``overall`` merges every shard's counters and histograms
        (including the ``shard_imbalance.request_share`` summary) and adds a ``shard_imbalance.pair_count`` summary over
        the partition sizes; ``per_shard`` keeps one full snapshot per
        shard so imbalanced partitions (hit rate, occupancy, p50/p95
        skew) stay visible.
        """
        overall = merge_stats(shard.stats for shard in self.shards)
        pair_counts = self.pairs_per_shard()
        overall["shard_imbalance"]["pair_count"] = imbalance_summary(pair_counts)
        return {
            "num_shards": len(self.shards),
            "overall": overall,
            "per_shard": [shard.stats.snapshot() for shard in self.shards],
            "pairs_per_shard": pair_counts,
            "slow_requests": self.slow_requests(),
        }


class ShardedExEAClient(ExEAClient):
    """Synchronous facade over a :class:`ShardedExplanationService`.

    Identical call surface to :class:`ExEAClient` (routing happens inside
    the sharded service's ``submit``), plus shard introspection helpers.
    """

    def __init__(self, service: ShardedExplanationService) -> None:
        super().__init__(service)

    def shard_of(self, source: str, target: str) -> int:
        """Which shard serves this pair."""
        return self.service.shard_of(source, target)

    def stats_snapshot(self) -> dict:
        """Aggregate + per-shard telemetry of the backing service."""
        return self.service.stats_snapshot()
