"""Shard routing: the deterministic hash partition of alignment pairs.

A shard is one ``serve`` process hosting one
:class:`~repro.service.service.ExplanationService`.  The
:class:`ShardRouter` decides which shard answers a pair — CRC-32 of the
pair, not Python's per-process salted ``hash`` — so a pair is served by
the same shard in every run and every process.  The remote
:class:`~repro.service.cluster.client.ClusterClient` routes requests by
it, and each :class:`~repro.service.transport.server.ShardServer` counts
its own partition with it.
"""

from __future__ import annotations

import zlib


class ShardRouter:
    """Deterministic hash partition of alignment pairs across shards."""

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
