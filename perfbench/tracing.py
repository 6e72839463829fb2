"""Span recording for traced runs, from the benchmark's own files.

A traced run wraps the entry points of each layer (module functions and
class methods reached through the public API) in thin recorders and
restores the originals afterwards; untraced runs never install them.
Every wrapped call becomes a span ``(id, parent, name, start, end,
thread, segment, size)``: *parent* is the innermost enclosing span on
the same thread, *segment* says which part of the run it belongs to
(``"setup"`` or ``"phase"``), and *size* is the call's batch size where
one exists (or the wire op of a transport call).  Spans stay in memory
and are written out as JSON when the run ends.  Calls too frequent for
a span (scalar model similarity) are only counted.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path

from .harness import Metric

#: Wire ops of client reads (probes, stats pulls and writes are not reads).
READ_OPS = ("explain", "confidence", "verify", "batch")


def _size_of_pairs(args, kwargs):
    pairs = args[1] if len(args) > 1 else kwargs.get("pairs", ())
    return len(pairs)


def _size_of_unique_pairs(args, kwargs):
    pairs = args[1] if len(args) > 1 else kwargs.get("pairs", ())
    return len(dict.fromkeys(pairs))


def _wire_op(args, kwargs):
    payload = args[1] if len(args) > 1 else kwargs.get("payload", {})
    return payload.get("op")


#: (span name, module, owner inside the module or None, attribute, size fn)
SPAN_TARGETS = (
    ("datasets.generate", "repro.datasets.synthetic", "SyntheticBenchmarkGenerator", "generate", None),
    ("models.fit", "repro.models.base", "EAModel", "fit", None),
    ("models.predict", "repro.models.base", "EAModel", "predict", None),
    ("engine.explain_batch", "repro.core.engine", "ExplanationEngine", "explain_batch", _size_of_pairs),
    ("engine.matched_neighbors", "repro.core.engine", "ExplanationEngine", "matched_neighbors", None),
    ("adg.build_many", "repro.core.adg.builder", "ADGBuilder", "build_many", _size_of_pairs),
    ("repair.confidence_batch", "repro.core.repair.pipeline", "EARepairer", "confidence_batch",
     _size_of_unique_pairs),
    # the repair stages and rule mining as bound in the repair pipeline module
    ("repair.one_to_many", "repro.core.repair.pipeline", None, "repair_one_to_many", None),
    ("repair.mining", "repro.core.repair.pipeline", None, "mine_relation_alignment", None),
    ("repair.mining", "repro.core.repair.pipeline", None, "mine_not_same_as_rules", None),
    ("repair.low_confidence", "repro.core.repair.low_confidence", "LowConfidenceRepairer", "repair", None),
    ("repair.cr1_resolve", "repro.core.repair.relation_conflicts", "RelationConflictResolver", "resolve",
     None),
    ("transport.call", "repro.service.transport.client", "RemoteShardClient", "call", _wire_op),
    ("cluster.spawn", "repro.service.cluster.local", "ReplicatedLocalCluster", "start", None),
)

#: (counter name, module, owner, attribute): calls counted, not spanned.
COUNT_TARGETS = (("models.similarity", "repro.models.base", "EAModel", "similarity"),)


class Tracer:
    """In-memory span recorder whose wrappers are installed per segment."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[tuple] = []
        self.segment = "setup"
        self._ids = itertools.count(1)
        self._counters: dict[tuple[str, str], itertools.count] = defaultdict(itertools.count)
        self._local = threading.local()
        self._originals: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _span_wrapper(self, name: str, function, size_of):
        tracer = self

        @functools.wraps(function)
        def recorded(*args, **kwargs):
            stack = tracer._stack()
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else None
            size = size_of(args, kwargs) if size_of is not None else None
            stack.append(span_id)
            started = time.perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                ended = time.perf_counter()
                stack.pop()
                tracer.spans.append(
                    (span_id, parent, name, started, ended, threading.get_ident(), tracer.segment, size)
                )

        return recorded

    def _count_wrapper(self, name: str, function):
        tracer = self

        @functools.wraps(function)
        def counted(*args, **kwargs):
            next(tracer._counters[(tracer.segment, name)])
            return function(*args, **kwargs)

        return counted

    def _patch(self, module_name: str, owner_name: str | None, attribute: str, wrapper) -> None:
        module = importlib.import_module(module_name)
        owner = module if owner_name is None else getattr(module, owner_name)
        original = owner.__dict__[attribute] if owner_name is not None else getattr(owner, attribute)
        self._originals.append((owner, attribute, original))
        setattr(owner, attribute, wrapper(original))

    def install(self) -> None:
        """Wrap every target (no-op when already installed)."""
        if self._originals:
            return
        for name, module, owner, attribute, size_of in SPAN_TARGETS:
            self._patch(module, owner, attribute,
                        lambda fn, n=name, s=size_of: self._span_wrapper(n, fn, s))
        for name, module, owner, attribute in COUNT_TARGETS:
            self._patch(module, owner, attribute, lambda fn, n=name: self._count_wrapper(n, fn))

    def uninstall(self) -> None:
        """Restore every original, newest patch first."""
        while self._originals:
            owner, attribute, original = self._originals.pop()
            setattr(owner, attribute, original)

    @contextlib.contextmanager
    def recording(self, segment: str):
        """Install the wrappers for the duration of one *segment*."""
        self.segment = segment
        for name, *_ in COUNT_TARGETS:
            self._counters[(segment, name)]  # create before any worker thread races to
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # ------------------------------------------------------------------
    def count(self, segment: str, name: str) -> int:
        """How many counted calls *name* made during *segment*."""
        counter = self._counters.get((segment, name))
        return 0 if counter is None else int(repr(counter)[len("count("):-1])

    def write(self, path: Path, meta: dict) -> None:
        """Write the spans and counters out as one JSON document."""
        path.parent.mkdir(parents=True, exist_ok=True)
        counts = {f"{segment}/{name}": self.count(segment, name) for segment, name in list(self._counters)}
        document = {
            "run_id": self.run_id,
            "meta": meta,
            "fields": ["id", "parent", "name", "start", "end", "thread", "segment", "size"],
            "spans": self.spans,
            "counts": counts,
        }
        path.write_text(json.dumps(document))


# ----------------------------------------------------------------------
# Per-layer figures from the spans
# ----------------------------------------------------------------------
class SpanTable:
    """Durations, self times and sizes of one segment's spans, by name."""

    def __init__(self, spans: list[tuple], segment: str) -> None:
        child_time: dict[int, float] = defaultdict(float)
        for span_id, parent, name, start, end, *_ in spans:
            if parent is not None:
                child_time[parent] += end - start
        self.names: dict[int, str] = {span[0]: span[2] for span in spans}
        self.rows = [span for span in spans if span[6] == segment]
        self._child_time = child_time

    def of(self, name: str) -> list[tuple]:
        return [span for span in self.rows if span[2] == name]

    def total_s(self, name: str) -> float:
        return sum(span[4] - span[3] for span in self.of(name))

    def self_s(self, name: str) -> float:
        return sum(span[4] - span[3] - self._child_time.get(span[0], 0.0) for span in self.of(name))

    def calls(self, name: str) -> int:
        return len(self.of(name))

    def mean_ms(self, name: str, sizes: tuple | None = None) -> float:
        spans = [span for span in self.of(name) if sizes is None or span[7] in sizes]
        return 1000.0 * sum(span[4] - span[3] for span in spans) / len(spans) if spans else 0.0

    def size_total(self, name: str, parent_name: str | None = None) -> int:
        return sum(
            span[7] or 0
            for span in self.of(name)
            if parent_name is None or self.names.get(span[1]) == parent_name
        )


def core_layer_metrics(tracer: Tracer) -> dict[str, Metric]:
    """Per-layer figures of the client process: set-up spans and the traced phase."""
    setup = SpanTable(tracer.spans, "setup")
    phase = SpanTable(tracer.spans, "phase")
    explain_calls = phase.calls("engine.explain_batch")
    confidence_calls = phase.calls("repair.confidence_batch")
    asked = phase.size_total("repair.confidence_batch")
    reached = phase.size_total("engine.explain_batch", parent_name="repair.confidence_batch")
    return {
        "datasets.generate_s": Metric(setup.total_s("datasets.generate"), "s"),
        "models.fit_s": Metric(setup.total_s("models.fit"), "s"),
        "models.predict_s": Metric(phase.total_s("models.predict"), "s"),
        "models.similarity_calls": Metric(tracer.count("phase", "models.similarity"), "count"),
        "engine.explain_batch_s": Metric(phase.self_s("engine.explain_batch"), "s", "self time"),
        "engine.explain_batch_calls": Metric(explain_calls, "count"),
        "engine.pairs_per_call": Metric(
            phase.size_total("engine.explain_batch") / explain_calls if explain_calls else 0.0, "pairs"
        ),
        "engine.matched_neighbors_s": Metric(phase.total_s("engine.matched_neighbors"), "s"),
        "adg.build_many_s": Metric(phase.total_s("adg.build_many"), "s"),
        "adg.graphs_built": Metric(phase.size_total("adg.build_many"), "count"),
        "repair.one_to_many_s": Metric(phase.total_s("repair.one_to_many"), "s"),
        "repair.low_confidence_s": Metric(phase.total_s("repair.low_confidence"), "s"),
        "repair.cr1_resolve_s": Metric(phase.total_s("repair.cr1_resolve"), "s"),
        "repair.mining_s": Metric(phase.total_s("repair.mining"), "s"),
        "repair.confidence_calls": Metric(confidence_calls, "count"),
        "repair.pairs_per_call": Metric(asked / confidence_calls if confidence_calls else 0.0, "pairs"),
        "repair.memo_hit_ratio": Metric(
            1.0 - reached / asked if asked else 0.0, "ratio", "1 - pairs reaching explain_batch / pairs asked"
        ),
        "transport.call_ms": Metric(phase.mean_ms("transport.call", sizes=READ_OPS), "ms"),
        "cluster.spawn_s": Metric(setup.total_s("cluster.spawn"), "s"),
    }


#: Per-layer figures of the serving stack, all zero on offline-repair.
SERVICE_LAYER_METRICS = {
    "service.queue_ms": "ms",
    "service.engine_ms": "ms",
    "service.batch_occupancy": "requests",
    "service.cache_hit_ratio": "ratio",
    "service.rejected": "count",
    "service.invalidation_retained_ratio": "ratio",
    "sharding.imbalance": "ratio",
    "transport.added_ms": "ms",
    "transport.bytes_per_op": "B",
    "transport.codec_us_per_frame": "us",
    "cluster.replica_rss_mb": "MB",
    "cluster.retries": "count",
}


def zero_service_metrics() -> dict[str, Metric]:
    """The serving-stack figures of a workload that does not run it."""
    return {name: Metric(0.0, unit) for name, unit in SERVICE_LAYER_METRICS.items()}
