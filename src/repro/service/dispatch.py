"""Central dispatcher: cross-worker batching and per-operation packing.

One scheduler thread drains the queue through the
:class:`~repro.service.batching.MicroBatcher` policy (whatever is already
queued, up to the max batch size, with no added wait), packs each gather
cycle into **operation-homogeneous** batches (explain requests together,
confidence/verify requests together — the two kinds run different
engine paths), and routes each packed batch to an idle worker.  While
every worker is busy the dispatcher blocks on the pool, so the next
cycle holds what queued meanwhile.  Workers are pure executors over
their private engine backends; with mixed traffic the explain batch and
the confidence batch of one gather cycle run on *different* workers
concurrently instead of being serialised inside one.

Shutdown follows the queue's close semantics: when the queue is closed
and drained the dispatcher forwards the shutdown to the pool (sentinels
queue *behind* any batches already assigned, so admitted work always
finishes) and exits.
"""

from __future__ import annotations

import threading
from typing import Callable

from .batching import MicroBatcher, ServiceRequest
from .worker import WorkerPool, _fail_batch

#: Maps an operation kind to its batch group (e.g. verify -> confidence).
GroupKey = Callable[[str], str]
#: Resolves a request before routing (cache hit / lapsed deadline);
#: returns True when the request is done and must not reach a worker.
Precheck = Callable[[ServiceRequest], bool]


class Dispatcher:
    """One scheduler thread: micro-batcher -> packed per-kind batches -> idle workers."""

    def __init__(
        self,
        batcher: MicroBatcher,
        pool: WorkerPool,
        group_of: GroupKey = lambda kind: kind,
        precheck: Precheck | None = None,
        on_gather: Callable[[int], None] | None = None,
    ) -> None:
        self.batcher = batcher
        self.pool = pool
        self.group_of = group_of
        self.precheck = precheck
        #: called with the size of every gather cycle (occupancy telemetry):
        #: gathered requests, before any cache/deadline resolution.
        self.on_gather = on_gather
        self._thread: threading.Thread | None = None

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start the worker pool and the dispatcher thread (idempotent)."""
        if self._thread is not None:
            return
        self.pool.start()
        self._thread = threading.Thread(
            target=self._run, name="repro-service-dispatcher", daemon=True
        )
        self._thread.start()

    def join(self, timeout: float | None = None) -> None:
        """Wait for the dispatcher and every worker to exit.

        The queue must be closed first; the dispatcher drains it, forwards
        the shutdown to the pool and exits.
        """
        if self._thread is not None:
            self._thread.join(timeout)
        self.pool.join(timeout)

    @property
    def alive(self) -> bool:
        """True while the scheduler thread or any worker is still running."""
        return (self._thread is not None and self._thread.is_alive()) or self.pool.alive

    # ------------------------------------------------------------------
    def _run(self) -> None:
        while True:
            gathered = self.batcher.next_batch()
            if not gathered:
                self.pool.shutdown()
                return
            # The precheck and the telemetry hook run service-side code on
            # this — the only — scheduler thread; a bug there must fail
            # the gathered requests, not kill the dispatcher (the same
            # contract the worker loop applies to its handler).
            try:
                if self.on_gather is not None:
                    self.on_gather(len(gathered))
                batches = self._pack(gathered)
            except BaseException as error:  # noqa: BLE001 - must not kill the dispatcher
                _fail_batch(gathered, error)
                continue
            for batch in batches:
                worker_id = self.pool.acquire_worker()
                self.pool.assign(worker_id, batch)

    def _pack(self, gathered: list[ServiceRequest]) -> list[list[ServiceRequest]]:
        """Partition one gather cycle into operation-homogeneous batches.

        When a *precheck* is installed, requests it resolves (cache hits
        while the request sat in the queue, lapsed deadlines) are answered
        right here on the scheduler thread and never occupy a worker.
        Requests keep their arrival order
        inside each group; groups are emitted in first-seen order, so
        packing is deterministic.
        """
        groups: dict[str, list[ServiceRequest]] = {}
        for request in gathered:
            if self.precheck is not None and self.precheck(request):
                continue
            groups.setdefault(self.group_of(request.kind), []).append(request)
        return list(groups.values())
