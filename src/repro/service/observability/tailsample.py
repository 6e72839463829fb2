"""Tail-based trace sampling: decide what to keep *after* the request ran.

PR 7's head-based sampling (``trace_sample_rate``) decides before a
request runs — which is exactly backwards for the traces an operator
wants: the slow ones, the errored ones, the ones that failed over across
replicas.  Tail sampling inverts the decision: the root facade traces a
configurable fraction of *all* requests into the span rings as pending,
and only **promotes-to-keep at completion** when the request turned out
interesting:

* **slow** — client-observed latency at or over the SLO threshold;
* **error** — the request raised;
* **retry** — the failover loop recorded a ``retry`` span (the request
  crossed replicas);
* plus an optional deterministic fraction of fast, clean traces as a
  healthy-baseline control group.

Kept traces are *pinned*: the client ring pins them locally and fans the
``trace`` wire op out with ``pin: true`` so every server-side ring moves
the trace's spans out of eviction reach.
Dropped traces are left to ring eviction — the span ring *is* the
pending buffer, so recycling them costs nothing, while an eager purge
would cost O(ring) on every fast request.

Sampling decisions are **counter-rotation based**, not random — request
``n`` is traced iff ``floor(n·f) > floor((n-1)·f)`` — so tests and
replays are deterministic and the kept set is independent of wall-clock
or seed state.  Tail sampling never touches request execution, so
results are bit-identical with it enabled, disabled, or reconfigured.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass


def _rotation_hit(count: int, fraction: float) -> bool:
    """True when sample *count* (1-based) lands on the keep rotation."""
    if fraction >= 1.0:
        return True
    if fraction <= 0.0:
        return False
    return math.floor(count * fraction) > math.floor((count - 1) * fraction)


@dataclass(frozen=True)
class TailSampleConfig:
    """Knobs for one tail sampler.

    ``trace_fraction`` of requests enter the pending buffer;
    ``slow_ms`` is the promote threshold (bind it to the latency SLO);
    ``keep_fast_fraction`` of the *pending* fast-and-clean traces are
    kept as a baseline (0.0 = only interesting traces survive).
    """

    trace_fraction: float = 1.0
    slow_ms: float = 250.0
    keep_fast_fraction: float = 0.0
    kept_capacity: int = 256

    def __post_init__(self) -> None:
        if not 0.0 <= self.trace_fraction <= 1.0:
            raise ValueError(f"trace_fraction must be in [0, 1], got {self.trace_fraction}")
        if not 0.0 <= self.keep_fast_fraction <= 1.0:
            raise ValueError(
                f"keep_fast_fraction must be in [0, 1], got {self.keep_fast_fraction}"
            )
        if self.slow_ms <= 0.0:
            raise ValueError(f"slow_ms must be positive, got {self.slow_ms}")
        if self.kept_capacity < 1:
            raise ValueError(f"kept_capacity must be >= 1, got {self.kept_capacity}")


@dataclass(frozen=True)
class TailDecision:
    """Outcome of one completed pending trace."""

    keep: bool
    reason: str | None  # "slow" | "error" | "retry" | "baseline" | None


class TailSampler:
    """Thread-safe tail-sampling state: rotations, counters, kept ids."""

    def __init__(self, config: TailSampleConfig | None = None) -> None:
        self.config = config or TailSampleConfig()
        self._lock = threading.Lock()
        self._started = 0
        self._fast_seen = 0
        self._kept_ids: list[str] = []
        self._counters = {
            "started": 0,
            "skipped": 0,
            "kept_slow": 0,
            "kept_error": 0,
            "kept_retry": 0,
            "kept_baseline": 0,
            "dropped": 0,
        }

    def begin(self) -> bool:
        """Should the next request be traced into the pending buffer?"""
        with self._lock:
            self._started += 1
            hit = _rotation_hit(self._started, self.config.trace_fraction)
            self._counters["started" if hit else "skipped"] += 1
            return hit

    def complete(
        self,
        trace_id: str,
        latency_ms: float,
        errored: bool = False,
        retried: bool = False,
    ) -> TailDecision:
        """Promote or drop one pending trace at request completion."""
        with self._lock:
            if errored:
                reason = "error"
            elif retried:
                reason = "retry"
            elif latency_ms >= self.config.slow_ms:
                reason = "slow"
            else:
                self._fast_seen += 1
                reason = (
                    "baseline"
                    if _rotation_hit(self._fast_seen, self.config.keep_fast_fraction)
                    else None
                )
            if reason is None:
                self._counters["dropped"] += 1
                return TailDecision(keep=False, reason=None)
            self._counters[f"kept_{reason}"] += 1
            self._kept_ids.append(trace_id)
            if len(self._kept_ids) > self.config.kept_capacity:
                del self._kept_ids[0]
            return TailDecision(keep=True, reason=reason)

    def kept_ids(self) -> list[str]:
        """Most recent kept trace ids, oldest first (bounded)."""
        with self._lock:
            return list(self._kept_ids)

    def snapshot(self) -> dict:
        """JSON-safe counters for ``stats_snapshot()["tail_sampling"]``."""
        with self._lock:
            kept = sum(
                value for key, value in self._counters.items() if key.startswith("kept_")
            )
            return {
                "config": {
                    "trace_fraction": self.config.trace_fraction,
                    "slow_ms": self.config.slow_ms,
                    "keep_fast_fraction": self.config.keep_fast_fraction,
                },
                "counters": dict(self._counters),
                "kept": kept,
                "kept_ids": list(self._kept_ids),
            }


__all__ = ["TailDecision", "TailSampleConfig", "TailSampler"]
