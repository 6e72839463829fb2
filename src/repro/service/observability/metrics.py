"""Log-bucketed latency histograms and the Prometheus text exporter.

Every process buckets its per-stage and whole-request timings into the
**same fixed doubling bucket ladder** (1 µs … ~1100 s), so merging
fleet-wide is exact element-wise addition of counts, and quantiles are
estimated from the merged buckets with bounded relative error (one
octave, from the doubling base).  They are the service's one latency
source: :class:`~repro.service.stats.ServiceStats` derives its
``p50_ms``/``p95_ms`` from the ``request`` histogram.

:func:`prometheus_text` renders a merged stats snapshot — the
``--stats-json`` shape — in the Prometheus text exposition format, which
is what ``--metrics-out`` and the ``metrics`` CLI subcommand write.
"""

from __future__ import annotations

import threading
from typing import Iterable

#: Lowest bucket upper bound, in seconds (1 µs).
_BUCKET_BASE = 1e-6
#: Number of finite buckets; bounds double, so the top is ~2^30 µs ≈ 1100 s.
_BUCKET_COUNT = 31

#: Shared upper bounds (seconds) of the finite buckets.  Fixed for every
#: histogram in every process — that is the mergeability contract.
BUCKET_BOUNDS: tuple[float, ...] = tuple(
    _BUCKET_BASE * (2.0**index) for index in range(_BUCKET_COUNT)
)


def _bucket_index(seconds: float) -> int:
    """Index of the first bucket whose upper bound holds *seconds*.

    Values above the top bound land in the overflow slot
    (``_BUCKET_COUNT``); a linear scan would be fine at 31 buckets, but
    bisection keeps the hot path O(log n).
    """
    low, high = 0, _BUCKET_COUNT
    while low < high:
        mid = (low + high) // 2
        if seconds <= BUCKET_BOUNDS[mid]:
            high = mid
        else:
            low = mid + 1
    return low


class Histogram:
    """Thread-safe log-bucketed histogram of durations in seconds.

    State is ``counts`` (one slot per finite bucket plus one overflow
    slot), ``sum`` and ``count`` — the exact shape Prometheus histograms
    use, so the exporter is a direct rendering and merging two raw forms
    is element-wise addition.
    """

    __slots__ = ("_lock", "_counts", "_sum", "_count")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counts = [0] * (_BUCKET_COUNT + 1)
        self._sum = 0.0
        self._count = 0

    def observe(self, seconds: float) -> None:
        """Record one duration (negative inputs clamp to zero)."""
        if seconds < 0.0:
            seconds = 0.0
        index = _bucket_index(seconds)
        with self._lock:
            self._counts[index] += 1
            self._sum += seconds
            self._count += 1

    def raw(self) -> dict:
        """Mergeable JSON-safe form: ``{"counts", "sum", "count"}``."""
        with self._lock:
            return {"counts": list(self._counts), "sum": self._sum, "count": self._count}


def merge_histogram_raw(parts: Iterable[dict]) -> dict:
    """Element-wise sum of raw histogram forms (missing/short parts are zeros)."""
    counts = [0] * (_BUCKET_COUNT + 1)
    total_sum = 0.0
    total_count = 0
    for part in parts:
        if not isinstance(part, dict):
            continue
        for index, value in enumerate(part.get("counts", ())):
            if index < len(counts):
                counts[index] += value
        total_sum += part.get("sum", 0.0)
        total_count += part.get("count", 0)
    return {"counts": counts, "sum": total_sum, "count": total_count}


def histogram_quantile(raw: dict, quantile: float) -> float:
    """Estimate a quantile (seconds) from a raw histogram form.

    Nearest-rank over the cumulative bucket counts with linear
    interpolation inside the winning bucket; 0.0 on an empty histogram.
    The error bound is the bucket width (a factor of 2 at the doubling
    base), which is plenty for "which stage ate the latency" questions.
    """
    count = raw.get("count", 0)
    if not count:
        return 0.0
    rank = quantile * count
    cumulative = 0
    for index, bucket_count in enumerate(raw.get("counts", ())):
        if not bucket_count:
            continue
        previous = cumulative
        cumulative += bucket_count
        if cumulative >= rank:
            upper = BUCKET_BOUNDS[index] if index < _BUCKET_COUNT else BUCKET_BOUNDS[-1] * 2.0
            lower = BUCKET_BOUNDS[index - 1] if index > 0 else 0.0
            fraction = (rank - previous) / bucket_count
            return lower + (upper - lower) * min(max(fraction, 0.0), 1.0)
    return BUCKET_BOUNDS[-1] * 2.0


def summarize_histogram_raw(raw: dict) -> dict:
    """Derived per-stage figures: count, mean and p50/p95 in milliseconds."""
    count = raw.get("count", 0)
    total = raw.get("sum", 0.0)
    return {
        "count": count,
        "mean_ms": (total / count) * 1000.0 if count else 0.0,
        "p50_ms": histogram_quantile(raw, 0.50) * 1000.0,
        "p95_ms": histogram_quantile(raw, 0.95) * 1000.0,
    }


class MetricsRegistry:
    """Named histograms created on first use (the per-stage timing registry)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._histograms: dict[str, Histogram] = {}

    def histogram(self, name: str) -> Histogram:
        """The histogram registered under *name*, creating it if needed."""
        with self._lock:
            histogram = self._histograms.get(name)
            if histogram is None:
                histogram = self._histograms[name] = Histogram()
            return histogram

    def observe(self, name: str, seconds: float) -> None:
        """Record one duration into the histogram named *name*."""
        self.histogram(name).observe(seconds)

    def raw(self) -> dict:
        """Mergeable form: ``{name: histogram.raw()}`` for every histogram."""
        with self._lock:
            histograms = dict(self._histograms)
        return {name: histogram.raw() for name, histogram in sorted(histograms.items())}


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------

_COUNTER_KEYS = (
    "submitted",
    "completed",
    "failed",
    "rejected",
    "expired",
    "cache_hits",
    "cache_misses",
    "cache_evictions",
    "cache_invalidations",
    "num_batches",
    "batched_requests",
    "slow_requests",
)

_GAUGE_KEYS = (
    "cache_hit_rate",
    "mean_batch_occupancy",
    "p50_ms",
    "p95_ms",
    "max_batch_size",
)


def _format_value(value: float) -> str:
    """Prometheus sample value: integers bare, floats via repr."""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def _labels_text(labels: dict) -> str:
    """Render a label set as ``{k="v",...}`` (empty string for no labels)."""
    if not labels:
        return ""
    inner = ",".join(f'{key}="{value}"' for key, value in sorted(labels.items()))
    return "{" + inner + "}"


def _histogram_lines(metric: str, raw: dict, labels: dict) -> list[str]:
    """Cumulative ``_bucket``/``_sum``/``_count`` series for one histogram."""
    lines = []
    cumulative = 0
    counts = raw.get("counts", [])
    for index, bound in enumerate(BUCKET_BOUNDS):
        cumulative += counts[index] if index < len(counts) else 0
        lines.append(
            f"{metric}_bucket{_labels_text({**labels, 'le': repr(bound)})} {cumulative}"
        )
    if len(counts) > _BUCKET_COUNT:
        cumulative += counts[_BUCKET_COUNT]
    lines.append(f"{metric}_bucket{_labels_text({**labels, 'le': '+Inf'})} {cumulative}")
    lines.append(f"{metric}_sum{_labels_text(labels)} {_format_value(raw.get('sum', 0.0))}")
    lines.append(f"{metric}_count{_labels_text(labels)} {raw.get('count', 0)}")
    return lines


def prometheus_text(stats: dict, namespace: str = "repro") -> str:
    """Render a stats snapshot in the Prometheus text exposition format.

    Accepts either a single snapshot dict or the full ``--stats-json``
    shape (``{"overall": ..., "per_shard": [...]}``); per-shard rows, when
    present, contribute ``{namespace}_shard_submitted_total`` samples so
    partition skew is visible to a scraper without extra endpoints.
    """
    overall = stats.get("overall", stats)
    if not isinstance(overall, dict):
        overall = {}
    lines: list[str] = []
    for key in _COUNTER_KEYS:
        if key in overall:
            metric = f"{namespace}_{key}_total"
            lines.append(f"# TYPE {metric} counter")
            lines.append(f"{metric} {_format_value(overall[key])}")
    for key in _GAUGE_KEYS:
        if key in overall:
            metric = f"{namespace}_{key}"
            lines.append(f"# TYPE {metric} gauge")
            lines.append(f"{metric} {_format_value(overall[key])}")
    wire = overall.get("wire")
    if isinstance(wire, dict):
        for key, value in sorted(wire.items()):
            metric = f"{namespace}_wire_{key}_total"
            lines.append(f"# TYPE {metric} counter")
            lines.append(f"{metric} {_format_value(value)}")
    invalidation = overall.get("invalidation")
    if isinstance(invalidation, dict):
        for key in ("scoped", "wholesale", "entries_dropped", "entries_retained", "blast_entities"):
            if key in invalidation:
                metric = f"{namespace}_invalidation_{key}_total"
                lines.append(f"# TYPE {metric} counter")
                lines.append(f"{metric} {_format_value(invalidation[key])}")
        if "max_blast_entities" in invalidation:
            metric = f"{namespace}_invalidation_max_blast_entities"
            lines.append(f"# TYPE {metric} gauge")
            lines.append(f"{metric} {_format_value(invalidation['max_blast_entities'])}")
    per_operation = overall.get("per_operation")
    if isinstance(per_operation, dict):
        for kind, row in sorted(per_operation.items()):
            for key in ("cache_hits", "cache_misses"):
                metric = f"{namespace}_operation_{key}_total"
                lines.append(
                    f"{metric}{_labels_text({'operation': kind})} "
                    f"{_format_value(row.get(key, 0))}"
                )
    stages = overall.get("stages")
    if isinstance(stages, dict):
        metric = f"{namespace}_stage_duration_seconds"
        lines.append(f"# TYPE {metric} histogram")
        for stage, raw in sorted(stages.items()):
            if isinstance(raw, dict):
                lines.extend(_histogram_lines(metric, raw, {"stage": stage}))
    per_shard = stats.get("per_shard")
    if isinstance(per_shard, list):
        metric = f"{namespace}_shard_submitted_total"
        lines.append(f"# TYPE {metric} counter")
        for index, row in enumerate(per_shard):
            if isinstance(row, dict):
                shard = str(row.get("shard", index))
                lines.append(
                    f"{metric}{_labels_text({'shard': shard})} "
                    f"{_format_value(row.get('submitted', 0))}"
                )
    fleet = stats.get("fleet")
    if isinstance(fleet, dict):
        counters = fleet.get("counters")
        if isinstance(counters, dict):
            for key in ("lease_revocations", "lease_restored"):
                if key in counters:
                    metric = f"{namespace}_fleet_{key}_total"
                    lines.append(f"# TYPE {metric} counter")
                    lines.append(f"{metric} {_format_value(counters[key])}")
        leases = fleet.get("leases")
        if isinstance(leases, dict) and leases:
            metric = f"{namespace}_fleet_lease_ok"
            lines.append(f"# TYPE {metric} gauge")
            for endpoint, ok in sorted(leases.items()):
                lines.append(
                    f"{metric}{_labels_text({'endpoint': endpoint})} {_format_value(bool(ok))}"
                )
    slo = stats.get("slo")
    if isinstance(slo, dict):
        lines.extend(_slo_lines(slo, namespace))
    tail = stats.get("tail_sampling")
    if isinstance(tail, dict) and isinstance(tail.get("counters"), dict):
        metric = f"{namespace}_tail_sampling_total"
        lines.append(f"# TYPE {metric} counter")
        for key, value in sorted(tail["counters"].items()):
            lines.append(
                f"{metric}{_labels_text({'outcome': key})} {_format_value(value)}"
            )
    return "\n".join(lines) + "\n"


def _slo_lines(slo: dict, namespace: str) -> list[str]:
    """``{namespace}_slo_*`` / ``{namespace}_alert_*`` series for one snapshot.

    Renders the ``"slo"`` section the cluster client publishes:
    per-objective burn rates (labelled by window), remaining error
    budget, bad fraction, the firing set, and the alerter's lifetime
    transition counters.
    """
    lines: list[str] = []
    objectives = slo.get("objectives")
    if isinstance(objectives, dict) and objectives:
        burn_metric = f"{namespace}_slo_burn_rate"
        lines.append(f"# TYPE {burn_metric} gauge")
        for name, evaluation in sorted(objectives.items()):
            if not isinstance(evaluation, dict):
                continue
            for window, rate in sorted(evaluation.get("burn", {}).items()):
                lines.append(
                    f"{burn_metric}{_labels_text({'objective': name, 'window': window})} "
                    f"{_format_value(rate)}"
                )
        for key, metric_suffix in (
            ("budget_remaining", "slo_error_budget_remaining"),
            ("bad_fraction", "slo_bad_fraction"),
            ("target", "slo_target"),
        ):
            metric = f"{namespace}_{metric_suffix}"
            lines.append(f"# TYPE {metric} gauge")
            for name, evaluation in sorted(objectives.items()):
                if isinstance(evaluation, dict) and key in evaluation:
                    lines.append(
                        f"{metric}{_labels_text({'objective': name})} "
                        f"{_format_value(evaluation[key])}"
                    )
    alerts = slo.get("alerts")
    if isinstance(alerts, dict):
        firing = alerts.get("firing")
        if isinstance(firing, dict) and isinstance(objectives, dict):
            metric = f"{namespace}_alert_firing"
            lines.append(f"# TYPE {metric} gauge")
            for name in sorted(objectives):
                lines.append(
                    f"{metric}{_labels_text({'objective': name})} "
                    f"{_format_value(name in firing)}"
                )
        counters = alerts.get("counters")
        if isinstance(counters, dict):
            metric = f"{namespace}_alert_transitions_total"
            lines.append(f"# TYPE {metric} counter")
            for key, value in sorted(counters.items()):
                lines.append(
                    f"{metric}{_labels_text({'transition': key})} {_format_value(value)}"
                )
    return lines


__all__ = [
    "BUCKET_BOUNDS",
    "Histogram",
    "MetricsRegistry",
    "histogram_quantile",
    "merge_histogram_raw",
    "prometheus_text",
    "summarize_histogram_raw",
]
