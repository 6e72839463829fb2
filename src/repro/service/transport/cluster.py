"""Shard-server subprocess plumbing: the serving snapshot and process handles.

A local cluster pickles the fitted model + dataset (plus the service/ExEA
configs) into a *snapshot* file with :func:`write_snapshot`; every
``python -m repro.service serve --snapshot PATH`` process loads it with
:func:`read_snapshot`, prints a ``READY`` line carrying its ephemeral
port (:func:`_read_ready_line` waits for it), and is then held as a
:class:`ShardProcess`.
:class:`~repro.service.cluster.local.ReplicatedLocalCluster` is the one
spawner built on these pieces.

The snapshot is what makes remote results bit-identical to in-process
results: every shard process deserialises the *same* fitted embeddings
and the *same* graphs, rather than refitting from a spec (training is
seeded and deterministic, but shipping the exact bytes removes even that
assumption).  Production deployments run the same ``serve`` subcommand
under their own process supervisor instead (see ``docs/OPERATIONS.md``).
"""

from __future__ import annotations

import json
import os
import pickle
import select
import subprocess
import time
from pathlib import Path

from ..errors import RemoteTransportError

#: Seconds each shard process gets to print its ``READY`` line.
DEFAULT_STARTUP_TIMEOUT = 120.0


def write_snapshot(path: str | Path, model, dataset, service_config=None, exea_config=None) -> Path:
    """Pickle a serving snapshot (model, dataset, configs) to *path*.

    ``python -m repro.service serve --snapshot PATH`` deserialises this
    instead of loading a registry dataset and refitting, so a spawned
    shard serves exactly the caller's model bytes.
    """
    path = Path(path)
    payload = {
        "model": model,
        "dataset": dataset,
        "service_config": service_config,
        "exea_config": exea_config,
    }
    with open(path, "wb") as handle:
        pickle.dump(payload, handle)
    return path


def read_snapshot(path: str | Path) -> dict:
    """Load a serving snapshot written by :func:`write_snapshot`."""
    with open(path, "rb") as handle:
        return pickle.load(handle)


def _subprocess_env() -> dict:
    """Environment for shard subprocesses: ``src/`` prepended to PYTHONPATH."""
    import repro

    src_dir = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src_dir if not existing else f"{src_dir}{os.pathsep}{existing}"
    return env


def _read_ready_line(process: subprocess.Popen, timeout: float) -> dict:
    """Wait for the server's ``READY {json}`` stdout line; parse its payload."""
    deadline = time.monotonic() + timeout
    buffered = b""
    stream = process.stdout
    while True:
        if process.poll() is not None:
            raise RemoteTransportError(
                f"shard server exited with code {process.returncode} before READY"
            )
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise RemoteTransportError(f"shard server produced no READY line in {timeout:.0f}s")
        readable, _, _ = select.select([stream], [], [], min(remaining, 0.25))
        if not readable:
            continue
        chunk = os.read(stream.fileno(), 4096)
        if not chunk:
            # EOF: select() now reports the pipe readable forever, so
            # back off instead of busy-spinning while poll() catches the
            # (normal-case) process exit — or the timeout fires for a
            # wedged process that closed its stdout without exiting.
            time.sleep(0.05)
            continue
        buffered += chunk
        while b"\n" in buffered:
            line, buffered = buffered.split(b"\n", 1)
            text = line.decode("utf-8", "replace").strip()
            if text.startswith("READY "):
                return json.loads(text[len("READY "):])


class ShardProcess:
    """One spawned shard server subprocess and its resolved endpoint."""

    def __init__(self, shard_id: int, process: subprocess.Popen, ready: dict) -> None:
        self.shard_id = shard_id
        self.process = process
        self.ready = ready
        self.endpoint: str = ready["address"]

    @property
    def alive(self) -> bool:
        """True while the subprocess is still running."""
        return self.process.poll() is None

    def kill(self) -> None:
        """Kill the subprocess immediately (SIGKILL; crash simulation)."""
        if self.alive:
            self.process.kill()
        self.process.wait(timeout=30)
        if self.process.stdout is not None:
            self.process.stdout.close()

    def terminate(self, timeout: float = 10.0) -> None:
        """Terminate the subprocess, escalating to kill on a hang."""
        if self.alive:
            self.process.terminate()
            try:
                self.process.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=timeout)
        if self.process.stdout is not None:
            self.process.stdout.close()



__all__ = [
    "DEFAULT_STARTUP_TIMEOUT",
    "ShardProcess",
    "read_snapshot",
    "write_snapshot",
]
