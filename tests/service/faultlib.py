"""Deterministic fault-injection harness for the cluster/fleet tests.

Two layers share this module:

* **Virtual-time units** — :class:`VirtualClock` plus :class:`FakeProbe`
  let a test drive a real :class:`~repro.service.cluster.manager.ClusterManager`
  tick by tick with *scripted* probe answers and a clock it advances by
  hand: no sockets, no sleeps, every lease, backoff and windowed-p95
  decision reproducible down to the probe cycle.
* **Process chaos** — :class:`FaultSchedule` turns a seed into a
  replayable schedule of process faults (SIGSTOP / SIGCONT / SIGKILL)
  fired at request indices; :class:`ChaosController` applies them to a
  live :class:`~repro.service.cluster.ReplicatedLocalCluster`, and
  :func:`run_with_faults` replays a workload while firing the schedule,
  printing the seed's repro line first (pytest shows captured stdout on
  failure, so a red chaos run always carries its own reproduction
  command).

The bottom of the module collects the helpers the cluster test files
used to duplicate (``predicted_pairs`` / ``dataset_copy`` /
``removal_specs``) and the fault servers (:class:`SlowShardServer`,
:class:`BlackholeServer`) so every suite injects failure the same way.
"""

from __future__ import annotations

import random
import socket
import threading
import time
from dataclasses import dataclass, field

from repro.kg import EADataset
from repro.service import MutationSpec, ServiceStats, ShardServer
from repro.service.errors import RemoteTransportError
from repro.service.transport.protocol import OP_STATS


# ----------------------------------------------------------------------
# Virtual time + scripted probes
# ----------------------------------------------------------------------
class VirtualClock:
    """A monotonic clock a test advances by hand (inject as ``clock=``)."""

    def __init__(self, start: float = 0.0) -> None:
        self._now = start

    def __call__(self) -> float:
        return self._now

    def advance(self, seconds: float) -> float:
        """Move time forward; returns the new now."""
        if seconds < 0:
            raise ValueError("time only moves forward")
        self._now += seconds
        return self._now


def fake_ping(
    queue_depth: int = 0,
    completed: int | None = 0,
    lease_ttl: float = 15.0,
    **extra,
) -> dict:
    """A ping description carrying exactly the keys the manager reads."""
    info = {"shard_id": 0, "queue_depth": queue_depth, "lease_ttl": lease_ttl}
    if completed is not None:
        info["completed"] = completed
    info.update(extra)
    return info


class FakeProbe:
    """Scripted replacement for a manager probe connection.

    *script* is the sequence of ping outcomes, consumed one per probe:
    a ``dict`` is returned as the ping description, an exception
    instance is raised (use :class:`RemoteTransportError` to exercise
    the miss path).  Once the script runs out, the last entry repeats —
    a steady-state replica is one scripted entry.  ``stats`` calls
    answer the way a server does, from :attr:`stats`: record request
    latencies there (``probe.stats.record_request(kind, seconds)``).
    """

    def __init__(self, script=None) -> None:
        self.script = list(script) if script is not None else [fake_ping()]
        if not self.script:
            raise ValueError("FakeProbe needs at least one scripted outcome")
        self.stats = ServiceStats()
        self.pings = 0
        self.stats_calls = 0

    def _next(self):
        outcome = self.script[min(self.pings, len(self.script) - 1)]
        self.pings += 1
        return outcome

    def ping(self) -> dict:
        outcome = self._next()
        if isinstance(outcome, BaseException):
            raise outcome
        return dict(outcome)

    def call(self, payload: dict, timeout=None) -> dict:
        if payload.get("op") == OP_STATS:
            self.stats_calls += 1
            return {"counters": self.stats.raw(), "snapshot": self.stats.snapshot()}
        raise AssertionError(f"unexpected probe op: {payload!r}")

    def close(self) -> None:  # the manager closes probes on stop()
        pass


def install_probes(manager, scripts: dict) -> None:
    """Swap a manager's real probe connections for scripted ones.

    *scripts* maps endpoint → :class:`FakeProbe` (endpoints omitted keep
    their real probe).  Call before the first ``probe_once()``; combined
    with a :class:`VirtualClock` the manager becomes a pure state
    machine the test single-steps.
    """
    for endpoint, probe in scripts.items():
        if endpoint not in manager._probes:
            raise KeyError(f"{endpoint} is not in the topology")
        manager._probes[endpoint].close()
        manager._probes[endpoint] = probe


# ----------------------------------------------------------------------
# Seeded fault schedules over real subprocesses
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault: *action* on a replica once *at_request* requests sent."""

    at_request: int
    action: str  # "stop" | "cont" | "kill"
    shard: int
    replica: int
    #: seconds the runner sleeps right after firing (lets a detector
    #: window elapse with no requests in flight — e.g. hold a SIGSTOP
    #: past the lease TTL)
    hold: float = 0.0

    def __post_init__(self) -> None:
        if self.action not in ("stop", "cont", "kill"):
            raise ValueError(f"unknown fault action: {self.action!r}")


@dataclass(frozen=True)
class FaultSchedule:
    """A seeded, replayable schedule of process faults.

    Built via :meth:`generate`, which derives every choice (victim,
    firing points) from ``random.Random(seed)`` — the same seed always
    produces the same schedule, which is the whole reproducibility
    contract: a failing chaos run prints ``describe()`` and re-running
    with that seed replays the identical fault sequence.
    """

    seed: int
    events: tuple[FaultEvent, ...] = field(default_factory=tuple)

    @classmethod
    def generate(
        cls,
        seed: int,
        num_requests: int,
        num_shards: int,
        num_replicas: int,
        hold: float = 0.0,
        kill: bool = False,
    ) -> "FaultSchedule":
        """Derive a stop/…/cont (and optionally kill) schedule from *seed*.

        The SIGSTOP lands in the first third of the replay and is held
        for *hold* seconds with no requests in flight (sized by the
        caller to outlast the lease TTL); the SIGCONT fires in the back
        half.  With *kill*, a second, distinct replica is SIGKILLed
        between the two.
        """
        rng = random.Random(seed)
        victim_shard = rng.randrange(num_shards)
        victim_replica = rng.randrange(num_replicas)
        stop_at = rng.randrange(num_requests // 8, max(num_requests // 3, num_requests // 8 + 1))
        cont_at = rng.randrange(num_requests // 2, max(3 * num_requests // 4, num_requests // 2 + 1))
        events = [
            FaultEvent(stop_at, "stop", victim_shard, victim_replica, hold=hold),
            FaultEvent(cont_at, "cont", victim_shard, victim_replica),
        ]
        if kill and num_replicas > 1:
            dead_shard = rng.randrange(num_shards)
            dead_replica = next(
                index
                for index in range(num_replicas)
                if (dead_shard, index) != (victim_shard, victim_replica)
            )
            kill_at = rng.randrange(stop_at + 1, cont_at)
            events.append(FaultEvent(kill_at, "kill", dead_shard, dead_replica))
        return cls(seed=seed, events=tuple(sorted(events, key=lambda e: e.at_request)))

    def describe(self) -> str:
        """The repro line a failing chaos test prints."""
        steps = "; ".join(
            f"{event.action} shard{event.shard}/replica{event.replica}"
            f" @req {event.at_request}"
            + (f" (hold {event.hold:g}s)" if event.hold else "")
            for event in self.events
        )
        return f"FaultSchedule(seed={self.seed}): {steps}"


class ChaosController:
    """Applies fault events to a live :class:`ReplicatedLocalCluster`."""

    def __init__(self, cluster) -> None:
        self.cluster = cluster
        self.applied: list[FaultEvent] = []

    def kill(self, shard: int, replica: int) -> None:
        self.apply(FaultEvent(0, "kill", shard, replica))

    def stop(self, shard: int, replica: int) -> None:
        self.apply(FaultEvent(0, "stop", shard, replica))

    def cont(self, shard: int, replica: int) -> None:
        self.apply(FaultEvent(0, "cont", shard, replica))

    def apply(self, event: FaultEvent) -> None:
        if event.action == "kill":
            self.cluster.kill_replica(event.shard, event.replica)
        elif event.action == "stop":
            self.cluster.stop_replica(event.shard, event.replica)
        else:
            self.cluster.cont_replica(event.shard, event.replica)
        self.applied.append(event)


def run_with_faults(
    client,
    workload,
    schedule: FaultSchedule,
    controller: ChaosController,
    chunk_size: int = 50,
    pause: float = 0.0,
    timeout: float = 120.0,
) -> list:
    """Replay *workload* in chunks, firing the schedule's faults between them.

    Faults fire at chunk boundaries (no request is ever in flight when a
    signal lands, so "zero failed requests" is a property of the routing
    layer, not of racy luck); an event's ``hold`` sleeps right after it
    fires, and *pause* sleeps between every chunk (paces the replay so
    probe/stats cycles interleave with traffic).  Results come back in
    workload order.  The schedule's repro line prints first.
    """
    print(f"repro: {schedule.describe()}")
    workload = list(workload)
    pending = sorted(schedule.events, key=lambda e: e.at_request)
    results: list = []
    sent = 0
    while sent < len(workload):
        while pending and pending[0].at_request <= sent:
            event = pending.pop(0)
            controller.apply(event)
            if event.hold:
                time.sleep(event.hold)
        chunk = workload[sent : sent + chunk_size]
        results.extend(client.replay(chunk, timeout=timeout))
        sent += len(chunk)
        if pause and sent < len(workload):
            time.sleep(pause)
    for event in pending:  # anything scheduled past the end still fires
        controller.apply(event)
        if event.hold:
            time.sleep(event.hold)
    return results


# ----------------------------------------------------------------------
# Fault servers (in-process, real sockets)
# ----------------------------------------------------------------------
class SlowShardServer(ShardServer):
    """A :class:`ShardServer` that sleeps before every dispatch.

    The injected-latency fault: correct answers, pathological tail.
    Used by the load-shift tests (routing must shed traffic off it) and
    available to any suite needing a deterministic slow replica.
    """

    dispatch_delay = 0.05

    def _dispatch(self, request):
        time.sleep(self.dispatch_delay)
        return super()._dispatch(request)


class BlackholeServer:
    """Accepts connections and reads, never answers — the black-holed host.

    Distinct from a dead endpoint (connections *succeed*) and from a
    slow one (no answer ever comes): only a client-side deadline gets a
    caller out.  ``close()`` unblocks everything.
    """

    def __init__(self) -> None:
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(16)
        host, port = self._listener.getsockname()
        self.address = f"{host}:{port}"
        self._connections: list[socket.socket] = []
        self._lock = threading.Lock()
        self._thread = threading.Thread(target=self._accept_forever, daemon=True)
        self._thread.start()

    def _accept_forever(self) -> None:
        while True:
            try:
                connection, _ = self._listener.accept()
            except OSError:
                return  # closed
            with self._lock:
                self._connections.append(connection)

    def close(self) -> None:
        self._listener.close()
        with self._lock:
            connections, self._connections = self._connections, []
        for connection in connections:
            try:
                connection.close()
            except OSError:
                pass
        self._thread.join(timeout=5)


# ----------------------------------------------------------------------
# Shared workload/mutation helpers (deduplicated from the test files)
# ----------------------------------------------------------------------
def predicted_pairs(model, limit: int = 20) -> list:
    """The lexicographically first *limit* predicted pairs (deterministic)."""
    return sorted(model.predict().pairs)[:limit]


def dataset_copy(dataset) -> EADataset:
    """A private copy whose graphs a test may mutate freely."""
    return EADataset(
        dataset.kg1.copy(),
        dataset.kg2.copy(),
        dataset.train_alignment,
        dataset.test_alignment,
        name=dataset.name,
    )


def removal_specs(dataset, count: int = 1) -> list[MutationSpec]:
    """Deterministic remove-mutations over kg1's lexicographically first triples."""
    triples = sorted(dataset.kg1.triples, key=lambda t: t.as_tuple())[:count]
    return [MutationSpec(op="remove", kg=1, triple=triple) for triple in triples]


def transport_error(message: str = "probe failed") -> RemoteTransportError:
    """A transport-shaped probe failure for :class:`FakeProbe` scripts."""
    return RemoteTransportError(message)


__all__ = [
    "BlackholeServer",
    "ChaosController",
    "FakeProbe",
    "FaultEvent",
    "FaultSchedule",
    "SlowShardServer",
    "VirtualClock",
    "dataset_copy",
    "fake_ping",
    "install_probes",
    "predicted_pairs",
    "removal_specs",
    "run_with_faults",
    "transport_error",
]
