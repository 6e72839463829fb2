"""Bounded request queue and micro-batching policy.

The queue is the admission controller: a fixed capacity, non-blocking
``put`` that raises :class:`ServiceOverloadedError` when full (the
backpressure signal), and a blocking ``get`` the workers park on.  The
:class:`MicroBatcher` implements the coalescing policy on top: it blocks
for the first request of a batch, then takes only what is already queued,
up to ``max_batch_size``, without waiting for more.  A lone request goes
to a worker at once; requests that queued while the shard was busy are
served together through :meth:`ExplanationEngine.explain_batch` instead
of one engine call per request.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, field

from .errors import ServiceClosedError, ServiceOverloadedError
from .observability.context import TraceContext


@dataclass
class ServiceRequest:
    """One queued operation awaiting a worker."""

    kind: str
    pair: tuple[str, str]
    future: Future = field(default_factory=Future)
    #: absolute ``time.monotonic()`` deadline, or ``None`` for no deadline
    deadline: float | None = None
    enqueued_at: float = field(default_factory=time.monotonic)
    #: trace context carried by the request, or ``None`` when untraced
    trace: TraceContext | None = None
    #: ``time.monotonic()`` when the batcher popped the request from the
    #: queue (queue-wait stage ends here); ``None`` until gathered
    gathered_at: float | None = None
    #: ``time.monotonic()`` when a worker started executing the batch
    #: holding this request (batch-gather stage ends here)
    started_at: float | None = None


class RequestQueue:
    """Bounded FIFO queue with close semantics.

    * ``put`` never blocks: a full queue raises
      :class:`ServiceOverloadedError` immediately (load shedding beats
      unbounded buffering under sustained overload).
    * ``get`` blocks until an item is available, the optional timeout
      elapses, or the queue is closed *and drained* — so closing the
      service lets workers finish everything already admitted.
    """

    def __init__(self, capacity: int) -> None:
        self._capacity = capacity
        self._items: deque[ServiceRequest] = deque()
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._closed = False

    def __len__(self) -> int:
        with self._lock:
            return len(self._items)

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has been called."""
        with self._lock:
            return self._closed

    def put(self, request: ServiceRequest) -> None:
        """Enqueue *request*; raises instead of blocking when full or closed."""
        with self._lock:
            if self._closed:
                raise ServiceClosedError("the service is closed")
            if len(self._items) >= self._capacity:
                raise ServiceOverloadedError(
                    f"request queue is full ({self._capacity} pending requests)"
                )
            self._items.append(request)
            self._not_empty.notify()

    def get(self, timeout: float | None = None) -> ServiceRequest | None:
        """Pop the oldest request; ``None`` on timeout or closed-and-empty.

        An already-queued item is always returned immediately, even with
        ``timeout <= 0`` — the batcher uses that to greedily drain bursts
        without waiting.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._not_empty:
            while not self._items:
                if self._closed:
                    return None
                if deadline is None:
                    self._not_empty.wait()
                else:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return None
                    self._not_empty.wait(remaining)
            return self._items.popleft()

    def close(self) -> None:
        """Stop admitting requests; blocked getters wake up once drained."""
        with self._lock:
            self._closed = True
            self._not_empty.notify_all()


class MicroBatcher:
    """Coalesces already-queued requests into batches of at most ``max_batch_size``."""

    def __init__(self, queue: RequestQueue, max_batch_size: int) -> None:
        self.queue = queue
        self.max_batch_size = max_batch_size

    def next_batch(self) -> list[ServiceRequest]:
        """Block for the first request, then drain without waiting.

        An empty list means the queue closed.
        """
        first = self.queue.get()
        if first is None:
            return []
        first.gathered_at = time.monotonic()
        batch = [first]
        while len(batch) < self.max_batch_size:
            request = self.queue.get(timeout=0)
            if request is None:
                break
            request.gathered_at = time.monotonic()
            batch.append(request)
        return batch
