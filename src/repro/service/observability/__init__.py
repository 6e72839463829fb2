"""Observability plane: traces, histograms, exporters, SLOs, alerting.

Seven small modules that together answer "where did this request's time
go, anywhere in the fleet" — and, since PR 10, "is the fleet meeting its
objectives, and which traces explain it when it is not":

* :mod:`~repro.service.observability.context` — the
  :class:`TraceContext` minted at a client facade and propagated through
  the dispatcher, shard routing and the wire.
* :mod:`~repro.service.observability.spans` — per-stage :class:`Span`
  records in bounded per-process rings (with pin-against-eviction for
  tail-sampled keeps), the slow-request log, and :func:`stitch_trace`
  to reassemble a fleet-wide timeline with gap detection.
* :mod:`~repro.service.observability.metrics` — fixed-ladder
  log-bucketed histograms (mergeable exactly across processes) and the
  Prometheus text exporter behind ``--metrics-out`` / the ``metrics``
  CLI subcommand.
* :mod:`~repro.service.observability.slo` — declarative latency /
  error-rate objectives evaluated over the merged histograms and
  counters: rolling error budgets and multi-window burn rates.
* :mod:`~repro.service.observability.alerts` — the multiwindow
  burn-rate alerter: firing/resolved transitions in a bounded
  deduplicated log, published in ``stats_snapshot`` and the fleet
  event timeline.
* :mod:`~repro.service.observability.tailsample` — tail-based trace
  sampling: trace a fraction of everything, keep only what turned out
  slow, errored, retried, or a deterministic healthy baseline.
* :mod:`~repro.service.observability.doctor` — the fleet doctor:
  ranks one stats snapshot (SLO state, alerts, routing, queues, wire
  telemetry) into a human-readable diagnosis behind the ``doctor``
  CLI subcommand.
"""

from .alerts import AlertPolicy, BurnRateAlerter
from .context import TraceContext, new_span_id, new_trace, trace_from_wire
from .doctor import diagnose, render_diagnosis
from .metrics import (
    BUCKET_BOUNDS,
    Histogram,
    MetricsRegistry,
    histogram_quantile,
    merge_histogram_raw,
    prometheus_text,
    summarize_histogram_raw,
)
from .slo import (
    SLOConfigError,
    SLOEngine,
    SLOObjective,
    default_objectives,
    load_objectives,
    parse_objective,
    parse_objectives,
    resolve_objectives,
)
from .spans import (
    ServiceTracer,
    SlowRequestLog,
    Span,
    SpanRecorder,
    span_from_wire,
    stitch_trace,
)
from .tailsample import TailDecision, TailSampleConfig, TailSampler

__all__ = [
    "AlertPolicy",
    "BUCKET_BOUNDS",
    "BurnRateAlerter",
    "Histogram",
    "MetricsRegistry",
    "SLOConfigError",
    "SLOEngine",
    "SLOObjective",
    "ServiceTracer",
    "SlowRequestLog",
    "Span",
    "SpanRecorder",
    "TailDecision",
    "TailSampleConfig",
    "TailSampler",
    "TraceContext",
    "default_objectives",
    "diagnose",
    "histogram_quantile",
    "load_objectives",
    "merge_histogram_raw",
    "new_span_id",
    "new_trace",
    "parse_objective",
    "parse_objectives",
    "prometheus_text",
    "render_diagnosis",
    "resolve_objectives",
    "span_from_wire",
    "stitch_trace",
    "summarize_histogram_raw",
    "trace_from_wire",
]
