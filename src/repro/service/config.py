"""Configuration of the explanation service."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ServiceConfig:
    """Tuning knobs of the micro-batching explanation service.

    Attributes:
        max_batch_size: upper bound on the number of requests the
            dispatcher gathers into one cycle (and therefore on the size
            of any batch handed to a worker).  A cycle never waits for
            more requests: it holds whatever queued while the shard was
            busy, so a lone request reaches a worker at once.
        queue_capacity: admission-control bound on queued requests;
            submissions beyond it fail fast with
            :class:`~repro.service.errors.ServiceOverloadedError`.
        num_workers: worker threads, each with its own engine backend
            (the engine's caches are single-threaded by design).
        cache_capacity: maximum number of entries in the versioned
            result cache (LRU eviction).
        default_deadline_ms: per-request deadline applied when a request
            does not carry its own; ``None`` means no deadline.
        num_shards: how many shard groups
            :class:`~repro.service.sharding.ShardedExplanationService`
            partitions the pair space into; each shard gets its own
            dispatcher, worker pool and result cache.  Plain
            :class:`~repro.service.service.ExplanationService` ignores it.
        trace_buffer: capacity of the per-process span ring buffer that
            holds stage spans of traced requests; ``0`` disables span
            recording entirely (stage histograms keep working).
        slow_request_ms: completed requests slower than this threshold
            get their per-stage timeline appended to the slow-request
            log automatically, traced or not; ``None`` disables the log.
        slow_log_capacity: how many slow-request entries the bounded log
            retains (oldest age out).
        scoped_invalidation: when True (default) a mutation applied via
            :meth:`~repro.service.service.ExplanationService.mutate`
            evicts only the cache entries whose pair intersects the
            mutation's blast radius; False forces a wholesale drop on
            every mutation (the benchmark baseline).
    """

    max_batch_size: int = 32
    queue_capacity: int = 1024
    num_workers: int = 2
    cache_capacity: int = 4096
    default_deadline_ms: float | None = None
    num_shards: int = 1
    trace_buffer: int = 2048
    slow_request_ms: float | None = None
    slow_log_capacity: int = 128
    scoped_invalidation: bool = True

    def __post_init__(self) -> None:
        if self.max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if self.queue_capacity < 1:
            raise ValueError("queue_capacity must be >= 1")
        if self.num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        if self.cache_capacity < 0:
            raise ValueError("cache_capacity must be >= 0")
        if self.default_deadline_ms is not None and self.default_deadline_ms <= 0:
            raise ValueError("default_deadline_ms must be positive when set")
        if self.num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        if self.trace_buffer < 0:
            raise ValueError("trace_buffer must be >= 0")
        if self.slow_request_ms is not None and self.slow_request_ms < 0:
            raise ValueError("slow_request_ms must be >= 0 when set")
        if self.slow_log_capacity < 1:
            raise ValueError("slow_log_capacity must be >= 1")
