"""Executor threads running the batches the dispatcher packs.

Each worker owns a private inbox and blocks on it; the central
:class:`~repro.service.dispatch.Dispatcher` acquires an idle worker and
assigns it a packed batch.  Workers never touch the request queue and
never make batching decisions.

Each worker id indexes one private engine backend in the owning service
(the engine's caches are deliberately single-threaded); sharing
read-only state (KG memo tables, the model's matrices) across workers is
safe, mutating engine state is not.
"""

from __future__ import annotations

import queue
import threading
from typing import Callable

from .batching import ServiceRequest

BatchHandler = Callable[[int, list[ServiceRequest]], None]


def _fail_batch(batch: list[ServiceRequest], error: BaseException) -> None:
    """Resolve every unresolved future of *batch* with *error*.

    The handler resolves futures itself; anything escaping it is a bug or
    a systemic failure — fail the whole batch so no client blocks forever,
    then keep serving.
    """
    for request in batch:
        if not request.future.done():
            request.future.set_exception(error)


class WorkerPool:
    """Fixed pool of daemon executor threads, each fed through its own inbox."""

    def __init__(self, num_workers: int, handler: BatchHandler) -> None:
        self.num_workers = num_workers
        self.handler = handler
        self._inboxes: list[queue.SimpleQueue] = [queue.SimpleQueue() for _ in range(num_workers)]
        self._idle: queue.SimpleQueue = queue.SimpleQueue()
        self._threads: list[threading.Thread] = []

    def start(self) -> None:
        """Start every worker thread and mark it idle (idempotent)."""
        if self._threads:
            return
        for worker_id in range(self.num_workers):
            thread = threading.Thread(
                target=self._run,
                args=(worker_id,),
                name=f"repro-service-worker-{worker_id}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)
            self._idle.put(worker_id)

    # ------------------------------------------------------------------
    # Dispatcher interface
    # ------------------------------------------------------------------
    def acquire_worker(self) -> int:
        """Block until a worker is idle and claim it (returns its id)."""
        return self._idle.get()

    def assign(self, worker_id: int, batch: list[ServiceRequest]) -> None:
        """Hand a packed batch to a previously acquired worker."""
        self._inboxes[worker_id].put(batch)

    def shutdown(self) -> None:
        """Ask every worker to exit once its queued batches are done."""
        for inbox in self._inboxes:
            inbox.put(None)

    # ------------------------------------------------------------------
    def _run(self, worker_id: int) -> None:
        inbox = self._inboxes[worker_id]
        while True:
            batch = inbox.get()
            if batch is None:
                return
            try:
                self.handler(worker_id, batch)
            except BaseException as error:  # noqa: BLE001 - must not kill the worker
                _fail_batch(batch, error)
            finally:
                self._idle.put(worker_id)

    def join(self, timeout: float | None = None) -> None:
        """Wait for every worker to exit (send :meth:`shutdown` first)."""
        for thread in self._threads:
            thread.join(timeout)

    @property
    def alive(self) -> bool:
        """True while any worker thread is still running."""
        return any(thread.is_alive() for thread in self._threads)
