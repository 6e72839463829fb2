"""Spawn a replicated local cluster: R real server processes per shard.

:class:`ReplicatedLocalCluster` is the deployment in a box.  It pickles
the fitted model + dataset (plus the service/ExEA configs) into a
snapshot file, spawns *num_replicas* independent
``python -m repro.service serve`` subprocesses per shard against
it, and waits for each server's ``READY`` line to learn its ephemeral
port.  Every replica of every shard deserialises the same snapshot, so
they serve identical model bytes and the failover path is bit-identical
by construction.  The spawned endpoints become a
:class:`~repro.service.cluster.topology.ClusterTopology`, a
:class:`~repro.service.cluster.manager.ClusterManager` health-checks
them, and :attr:`client` is a connected
:class:`~repro.service.cluster.client.ClusterClient`.  ``num_replicas=1``
is the plain process-per-shard cluster.  Benchmarks, the experiment
runner's ``transport="cluster"`` axis and the subprocess tests all go
through this class.

*lease_ttl* passes straight through to the manager and arms the
lease-based liveness check; *replica_zones* labels replica column *r*
of every shard with a failure domain for zone-aware failover (the usual
local layout: replica 0 of each shard models zone A, replica 1 zone B).

Fault injection uses the process handles directly: :meth:`kill_replica`
(SIGKILL) crashes a replica outright, while :meth:`stop_replica` /
:meth:`cont_replica` (SIGSTOP/SIGCONT) freeze one mid-flight — the
half-dead shape (sockets accept, nothing progresses) that only the
lease detector catches.  ``tests/service/faultlib.py`` wraps these in
seeded, replayable fault schedules; production deployments run the same
``serve`` processes under their own supervisor and describe them in a
topology file instead (see ``docs/OPERATIONS.md``, "Running a cluster").
"""

from __future__ import annotations

import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

from ..config import ServiceConfig
from ..transport.cluster import (
    DEFAULT_STARTUP_TIMEOUT,
    ShardProcess,
    _read_ready_line,
    _subprocess_env,
    write_snapshot,
)
from .client import ClusterClient
from .manager import (
    DEFAULT_LEASE_STALL_CYCLES,
    DEFAULT_MISS_THRESHOLD,
    DEFAULT_PROBE_INTERVAL,
    DEFAULT_STATS_EVERY,
    ClusterManager,
)
from .topology import ClusterTopology, topology_for_endpoints


class ReplicatedLocalCluster:
    """A replicated process-per-shard cluster on this machine.

    Use as a context manager::

        with ReplicatedLocalCluster(model, dataset, num_shards=2, num_replicas=2) as cluster:
            explanation = cluster.client.explain(source, target)
            cluster.kill_replica(shard_id=0, replica_index=1)  # reads keep succeeding

    ``replicas[k][r]`` is replica *r* of shard *k*; ``processes`` is the
    same handles as one flat shard-major list.  Every process serves one
    :class:`~repro.service.service.ExplanationService` under
    ``service_config``.
    """

    def __init__(
        self,
        model,
        dataset,
        num_shards: int,
        num_replicas: int = 2,
        service_config: ServiceConfig | None = None,
        exea_config=None,
        startup_timeout: float = DEFAULT_STARTUP_TIMEOUT,
        client_timeout: float = 60.0,
        probe_interval: float = DEFAULT_PROBE_INTERVAL,
        miss_threshold: int = DEFAULT_MISS_THRESHOLD,
        probe_timeout: float = 5.0,
        stats_every: int = DEFAULT_STATS_EVERY,
        lease_ttl: float | None = None,
        lease_stall_cycles: int = DEFAULT_LEASE_STALL_CYCLES,
        replica_zones: list[str] | None = None,
    ) -> None:
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        if num_replicas < 1:
            raise ValueError("num_replicas must be >= 1")
        self.model = model
        self.dataset = dataset
        self.num_shards = num_shards
        self.num_replicas = num_replicas
        self.service_config = service_config or ServiceConfig()
        self.exea_config = exea_config
        self.startup_timeout = startup_timeout
        self.client_timeout = client_timeout
        self.probe_interval = probe_interval
        self.miss_threshold = miss_threshold
        self.probe_timeout = probe_timeout
        self.stats_every = stats_every
        self.lease_ttl = lease_ttl
        self.lease_stall_cycles = lease_stall_cycles
        self.replica_zones = list(replica_zones) if replica_zones is not None else None
        self.processes: list[ShardProcess] = []
        self.replicas: list[list[ShardProcess]] = []
        self.topology: ClusterTopology | None = None
        self.manager: ClusterManager | None = None
        self.client: ClusterClient | None = None
        self._workdir: Path | None = None

    # ------------------------------------------------------------------
    def _write_snapshot(self) -> Path:
        """Create the working directory and pickle the serving snapshot into it."""
        self._workdir = Path(tempfile.mkdtemp(prefix="repro-shard-cluster-"))
        return write_snapshot(
            self._workdir / "snapshot.pkl",
            self.model,
            self.dataset,
            service_config=self.service_config,
            exea_config=self.exea_config,
        )

    def _spawn_serve(self, snapshot: Path, shard_id: int, env: dict) -> subprocess.Popen:
        """Spawn one ``python -m repro.service serve`` subprocess for *shard_id*."""
        command = [
            sys.executable,
            "-m",
            "repro.service",
            "serve",
            "--snapshot",
            str(snapshot),
            "--shard-id",
            str(shard_id),
            "--num-shards",
            str(self.num_shards),
            "--listen",
            "127.0.0.1:0",
        ]
        return subprocess.Popen(command, stdout=subprocess.PIPE, env=env)

    @staticmethod
    def _reap_untracked(spawned: list[subprocess.Popen], tracked_pids: set[int]) -> None:
        """Kill and reap spawned processes that never reached bookkeeping."""
        for process in spawned:
            if process.pid in tracked_pids:
                continue
            if process.poll() is None:
                process.kill()
            process.wait(timeout=30)  # reap: no zombies from failed startups
            if process.stdout is not None:
                process.stdout.close()

    def start(self) -> "ReplicatedLocalCluster":
        """Write the snapshot, spawn every replica of every shard, connect."""
        if self.client is not None:
            return self
        spawned: list[tuple[int, subprocess.Popen]] = []
        try:
            # Inside the cleanup scope: a snapshot that fails to pickle
            # must not leave its temp dir (and partial file) behind.
            snapshot = self._write_snapshot()
            env = _subprocess_env()
            # Spawn the full shard × replica grid first, then collect the
            # READY lines — startup costs ~one process's startup, not N*R.
            for shard_id in range(self.num_shards):
                for _ in range(self.num_replicas):
                    spawned.append((shard_id, self._spawn_serve(snapshot, shard_id, env)))
            self.replicas = [[] for _ in range(self.num_shards)]
            for shard_id, process in spawned:
                ready = _read_ready_line(process, self.startup_timeout)
                shard = ShardProcess(shard_id, process, ready)
                self.replicas[shard_id].append(shard)
                self.processes.append(shard)
            self.topology = topology_for_endpoints(
                [[replica.endpoint for replica in group] for group in self.replicas],
                zones=self.replica_zones,
            )
            self.manager = ClusterManager(
                self.topology,
                probe_interval=self.probe_interval,
                miss_threshold=self.miss_threshold,
                probe_timeout=self.probe_timeout,
                stats_every=self.stats_every,
                lease_ttl=self.lease_ttl,
                lease_stall_cycles=self.lease_stall_cycles,
            )
            self.client = ClusterClient(
                self.topology,
                manager=self.manager,
                timeout=self.client_timeout,
            )
        except BaseException:
            # Tear down whatever came up, including spawned processes that
            # never reached ShardProcess bookkeeping.
            self._reap_untracked(
                [process for _, process in spawned],
                {shard.process.pid for shard in self.processes},
            )
            self.close()
            raise
        return self

    # ------------------------------------------------------------------
    def kill_replica(self, shard_id: int, replica_index: int) -> None:
        """Kill one replica process outright (SIGKILL; failover tests/benchmarks)."""
        self.replicas[shard_id][replica_index].kill()

    def kill_shard(self, shard_id: int) -> None:
        """Kill **every** replica of a shard (takes the partition fully offline)."""
        for replica in self.replicas[shard_id]:
            replica.kill()

    def stop_replica(self, shard_id: int, replica_index: int) -> None:
        """Freeze one replica with SIGSTOP (half-dead: alive, zero progress).

        The kernel keeps its sockets open and its listen queue accepting,
        so connection-level failure detection sees nothing wrong — the
        exact failure mode the lease/work-stall detector exists for.
        Undo with :meth:`cont_replica`.
        """
        self.replicas[shard_id][replica_index].process.send_signal(signal.SIGSTOP)

    def cont_replica(self, shard_id: int, replica_index: int) -> None:
        """Resume a SIGSTOP'd replica (SIGCONT); it re-earns its lease on ping."""
        self.replicas[shard_id][replica_index].process.send_signal(signal.SIGCONT)

    def close(self) -> None:
        """Shut down the client, the manager, every process and the snapshot dir."""
        # A SIGSTOP'd replica would ignore SIGTERM until resumed and make
        # teardown wait out the kill escalation; resume everything first.
        for replica in self.processes:
            if replica.process.poll() is None:
                try:
                    replica.process.send_signal(signal.SIGCONT)
                except OSError:
                    pass  # already reaped
        if self.client is not None:
            try:
                self.client.shutdown_servers()
            except Exception:
                pass
            self.client.close()
            self.client = None
        # ClusterClient owns its manager only when it constructed one; here
        # the cluster built the manager, so the client's close() leaves it
        # running — stop it explicitly after the client goes away.
        manager, self.manager = self.manager, None
        if manager is not None:
            manager.stop()
        for replica in self.processes:
            replica.terminate()
        self.processes = []
        self.replicas = []
        self.topology = None
        if self._workdir is not None:
            shutil.rmtree(self._workdir, ignore_errors=True)
            self._workdir = None

    def __enter__(self) -> "ReplicatedLocalCluster":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()


__all__ = ["ReplicatedLocalCluster"]
