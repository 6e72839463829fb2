"""SLO-plane tests: objectives, burn rates, alerting, tail sampling, doctor.

Five layers of coverage:

* **Units** — objective validation and the CLI/JSON/TOML loaders; exact
  good/total accounting out of the fixed-ladder histograms; the
  `SLOEngine`'s multi-window burn rates driven deterministically by a
  virtual clock over synthetic cumulative snapshot streams; the
  `BurnRateAlerter` state machine (fire / dedup / escalate / downgrade /
  resolve / vanish) on hand-crafted evaluations; `TailSampler` rotation
  determinism, keep-reason priority and bounded kept set; pin-against-
  eviction in `SpanRecorder`; `stitch_trace` gap detection.
* **Doctor units** — :func:`diagnose` is a pure function of a stats
  snapshot, so every check (unreachable replicas, firing alerts, slow
  replica, queue skew, shard imbalance, stage hotspot) is proven on
  synthetic snapshots without a cluster.
* **Cluster acceptance** — a real-socket 2-shard x 2-replica fleet with
  one deliberately slowed replica: the latency burn-rate alert fires,
  tail sampling keeps the slow trace (and exactly the configured
  fraction of fast ones), the doctor names the offending replica, and
  results are bit-identical with tail sampling on vs off.
* **Subprocess acceptance + exporter well-formedness** — the same SLO /
  tail-sampling plumbing over a real 2x2 ``serve``-subprocess cluster,
  whose Prometheus scrape must parse cleanly under a strict
  text-exposition-format checker (valid names, consistent label sets,
  no duplicate samples).
* **CLI** — ``doctor`` exit codes and JSON mode, ``metrics --interval``
  atomic rewrite loop, malformed ``--slo`` specs failing fast.
"""

import importlib.util
import json
import math
import re
import sys
import time
from pathlib import Path

import pytest

from faultlib import VirtualClock, predicted_pairs
from repro.service import (
    EXPLAIN,
    ClusterClient,
    ClusterManager,
    ExEAClient,
    ExplanationService,
    ReplicatedLocalCluster,
    ServiceConfig,
    ShardServer,
)
from repro.service.cluster import topology_for_endpoints
from repro.service.observability import (
    AlertPolicy,
    BurnRateAlerter,
    Histogram,
    SLOConfigError,
    SLOEngine,
    SLOObjective,
    SpanRecorder,
    TailSampleConfig,
    TailSampler,
    default_objectives,
    diagnose,
    load_objectives,
    new_trace,
    parse_objective,
    parse_objectives,
    prometheus_text,
    render_diagnosis,
    resolve_objectives,
    stitch_trace,
)
from repro.service.observability.slo import good_total_from_histogram, window_label
from repro.service.__main__ import cluster_main, doctor_main, metrics_main

GOOD_SECONDS = 0.001  # well under any threshold used here
BAD_SECONDS = 1.0  # well over any threshold used here


def _latency_snapshot(histogram, completed=0, failed=0, expired=0):
    """A merged-overall-shaped snapshot around one cumulative histogram."""
    return {
        "completed": completed,
        "failed": failed,
        "expired": expired,
        "stages": {"request": histogram.raw()},
    }


# ----------------------------------------------------------------------
# Objective specs and loading
# ----------------------------------------------------------------------
class TestObjectiveSpecs:
    def test_latency_objective_validates(self):
        objective = SLOObjective(
            name="p95", kind="latency", threshold_ms=250.0, target=0.95
        )
        assert "250" in objective.describe()

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(name="", kind="errors", target=0.9),
            dict(name="x", kind="weird", target=0.9),
            dict(name="x", kind="errors", target=1.0),
            dict(name="x", kind="errors", target=0.0),
            dict(name="x", kind="latency", target=0.9),  # missing threshold
            dict(name="x", kind="latency", target=0.9, threshold_ms=0.0),
            dict(name="x", kind="errors", target=0.9, budget_window_s=0.0),
        ],
    )
    def test_invalid_objectives_raise(self, kwargs):
        with pytest.raises(SLOConfigError):
            SLOObjective(**kwargs)

    def test_parse_cli_latency_spec_with_histogram(self):
        objective = parse_objective("explain-p95:latency:250:0.95:request.explain")
        assert objective.kind == "latency"
        assert objective.threshold_ms == 250.0
        assert objective.target == 0.95
        assert objective.histogram == "request.explain"

    def test_parse_cli_errors_spec(self):
        objective = parse_objective("availability:errors:0.999")
        assert objective.kind == "errors" and objective.target == 0.999

    @pytest.mark.parametrize(
        "spec",
        [
            "too-short",
            "name:unknown:0.9",
            "name:latency:abc:0.9",
            "name:latency:250:0.9:request:extra",
            "name:errors:0.9:extra",
        ],
    )
    def test_malformed_cli_specs_raise(self, spec):
        with pytest.raises(SLOConfigError):
            parse_objective(spec)

    def test_parse_objectives_accepts_json_and_toml_idioms_and_bare_lists(self):
        entry = {"name": "lat", "kind": "latency", "threshold_ms": 100, "target": 0.9}
        for document in ({"objectives": [entry]}, {"objective": [entry]}, [entry]):
            (objective,) = parse_objectives(document)
            assert objective.name == "lat"

    def test_parse_objectives_rejects_unknown_keys_and_duplicates(self):
        with pytest.raises(SLOConfigError, match="unknown keys"):
            parse_objectives([{"name": "x", "target": 0.9, "kind": "errors", "bogus": 1}])
        entry = {"name": "dup", "kind": "errors", "target": 0.9}
        with pytest.raises(SLOConfigError, match="duplicate"):
            parse_objectives([entry, dict(entry)])
        with pytest.raises(SLOConfigError):
            parse_objectives({"objectives": []})

    def test_load_objectives_from_json_file(self, tmp_path):
        path = tmp_path / "slo.json"
        path.write_text(
            json.dumps(
                {"objectives": [{"name": "avail", "kind": "errors", "target": 0.999}]}
            )
        )
        (objective,) = load_objectives(path)
        assert objective.name == "avail"

    def test_load_objectives_rejects_invalid_json(self, tmp_path):
        path = tmp_path / "slo.json"
        path.write_text("{not json")
        with pytest.raises(SLOConfigError, match="invalid JSON"):
            load_objectives(path)

    @pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib needs Python 3.11")
    def test_load_objectives_from_toml_file(self, tmp_path):
        path = tmp_path / "slo.toml"
        path.write_text(
            "[[objective]]\n"
            'name = "lat"\nkind = "latency"\nthreshold_ms = 250.0\ntarget = 0.95\n'
        )
        (objective,) = load_objectives(path)
        assert objective.threshold_ms == 250.0

    def test_resolve_combines_file_and_cli_specs(self, tmp_path):
        path = tmp_path / "slo.json"
        path.write_text(json.dumps([{"name": "a", "kind": "errors", "target": 0.99}]))
        objectives = resolve_objectives(path, ["b:errors:0.9"])
        assert [objective.name for objective in objectives] == ["a", "b"]
        with pytest.raises(SLOConfigError, match="duplicate"):
            resolve_objectives(path, ["a:errors:0.9"])

    def test_default_objectives_cover_latency_and_availability(self):
        kinds = {objective.kind for objective in default_objectives()}
        assert kinds == {"latency", "errors"}

    def test_window_labels(self):
        assert window_label(300.0) == "5m"
        assert window_label(21600.0) == "6h"
        assert window_label(123.0) == "123s"


# ----------------------------------------------------------------------
# Exact good/total accounting from the fixed bucket ladder
# ----------------------------------------------------------------------
class TestGoodTotalFromHistogram:
    def test_counts_events_at_or_under_the_threshold_bucket(self):
        histogram = Histogram()
        for _ in range(10):
            histogram.observe(GOOD_SECONDS)
        for _ in range(5):
            histogram.observe(BAD_SECONDS)
        assert good_total_from_histogram(histogram.raw(), 16.0) == (10, 15)

    def test_threshold_above_the_ladder_counts_everything_finite_good(self):
        histogram = Histogram()
        histogram.observe(BAD_SECONDS)
        assert good_total_from_histogram(histogram.raw(), 1e9) == (1, 1)

    def test_mid_bucket_threshold_rounds_up_to_the_containing_bound(self):
        histogram = Histogram()
        histogram.observe(0.0012)  # lands in the (1.024 ms, 2.048 ms] bucket
        good, total = good_total_from_histogram(histogram.raw(), 1.5)
        assert (good, total) == (1, 1)

    def test_empty_histogram_is_no_traffic(self):
        assert good_total_from_histogram(Histogram().raw(), 10.0) == (0, 0)


# ----------------------------------------------------------------------
# SLOEngine: deterministic multi-window burn over a virtual clock
# ----------------------------------------------------------------------
class TestSLOEngine:
    def _engine(self, clock, target=0.9, threshold_ms=16.0):
        objective = SLOObjective(
            name="lat", kind="latency", threshold_ms=threshold_ms, target=target
        )
        return SLOEngine([objective], clock=clock)

    def test_engine_rejects_empty_and_duplicate_objectives(self):
        with pytest.raises(SLOConfigError):
            SLOEngine([])
        objective = SLOObjective(name="dup", kind="errors", target=0.9)
        with pytest.raises(SLOConfigError, match="duplicate"):
            SLOEngine([objective, objective])

    def test_no_traffic_burns_nothing(self):
        clock = VirtualClock(1000.0)
        engine = self._engine(clock)
        evaluation = engine.evaluate()["lat"]
        assert evaluation["total"] == 0
        assert all(rate == 0.0 for rate in evaluation["burn"].values())
        assert evaluation["budget_remaining"] == 1.0

    def test_missing_histogram_contributes_no_events(self):
        clock = VirtualClock(1000.0)
        objective = SLOObjective(
            name="ghost", kind="latency", threshold_ms=10.0, target=0.9,
            histogram="no-such-stage",
        )
        engine = SLOEngine([objective], clock=clock)
        engine.observe({"stages": {"request": Histogram().raw()}})
        assert engine.evaluate()["ghost"]["total"] == 0

    def test_burn_windows_difference_the_cumulative_history_exactly(self):
        """An hour of clean traffic then one 5-minute all-bad burst: each
        window's burn rate is the hand-computed delta over that window."""
        clock = VirtualClock(1000.0)
        engine = self._engine(clock, target=0.9)
        histogram = Histogram()
        for _ in range(12):  # one cumulative sample every 5 min for 1 h
            clock.advance(300.0)
            for _ in range(100):
                histogram.observe(GOOD_SECONDS)
            engine.observe(_latency_snapshot(histogram))
        steady = engine.evaluate()["lat"]
        assert all(rate == 0.0 for rate in steady["burn"].values())
        assert steady["budget_remaining"] == 1.0

        clock.advance(300.0)
        for _ in range(900):  # the burst: 900 bad events, nothing good
            histogram.observe(BAD_SECONDS)
        engine.observe(_latency_snapshot(histogram))
        evaluation = engine.evaluate()["lat"]
        # 5m window: 0 good / 900 total -> bad 1.0 -> burn 1.0 / (1-0.9).
        assert evaluation["burn"]["5m"] == pytest.approx(10.0)
        # 1h window: 1100 good / 2000 total -> bad 0.45 -> burn 4.5.
        assert evaluation["burn"]["1h"] == pytest.approx(4.5)
        # 30m window: 500 good / 1400 total -> burn (900/1400)/0.1.
        assert evaluation["burn"]["30m"] == pytest.approx(900 / 1400 / 0.1)
        # 6h reaches past the first sample -> zero baseline -> lifetime.
        assert evaluation["burn"]["6h"] == pytest.approx(900 / 2100 / 0.1)
        assert evaluation["bad_fraction"] == pytest.approx(900 / 2100)
        assert evaluation["budget_remaining"] == 0.0  # clamped

    def test_single_scrape_reports_lifetime_burn_in_every_window(self):
        """The doctor's one-shot mode: with exactly one observation every
        window falls back to the zero baseline, i.e. lifetime burn."""
        clock = VirtualClock(5000.0)
        engine = self._engine(clock, target=0.9)
        histogram = Histogram()
        for _ in range(95):
            histogram.observe(GOOD_SECONDS)
        for _ in range(5):
            histogram.observe(BAD_SECONDS)
        engine.observe(_latency_snapshot(histogram))
        evaluation = engine.evaluate()["lat"]
        assert set(evaluation["burn"]) == {"5m", "30m", "1h", "6h"}
        assert all(
            rate == pytest.approx(0.5) for rate in evaluation["burn"].values()
        )
        assert evaluation["budget_remaining"] == pytest.approx(0.5)

    def test_error_objective_reads_the_outcome_counters(self):
        clock = VirtualClock(1000.0)
        objective = SLOObjective(name="avail", kind="errors", target=0.99)
        engine = SLOEngine([objective], clock=clock)
        engine.observe({"completed": 1000, "failed": 0, "expired": 0})
        clock.advance(300.0)
        engine.observe({"completed": 1000, "failed": 100, "expired": 0})
        evaluation = engine.evaluate()["avail"]
        assert evaluation["burn"]["5m"] == pytest.approx(100.0)  # all-bad window
        assert evaluation["burn"]["6h"] == pytest.approx(100 / 1100 / 0.01)
        assert evaluation["histogram"] is None

    def test_fire_then_recover_round_trip_through_the_alerter(self):
        """Engine + alerter on one virtual clock: the burst pages (both
        fast windows burning), five clean minutes later it resolves."""
        clock = VirtualClock(1000.0)
        engine = self._engine(clock, target=0.9)
        alerter = BurnRateAlerter(
            AlertPolicy(page_burn=4.0, ticket_burn=3.0), clock=clock
        )
        histogram = Histogram()
        for _ in range(12):
            clock.advance(300.0)
            for _ in range(100):
                histogram.observe(GOOD_SECONDS)
            engine.observe(_latency_snapshot(histogram))
            assert alerter.update(engine.evaluate()) == []
        clock.advance(300.0)
        for _ in range(900):
            histogram.observe(BAD_SECONDS)
        engine.observe(_latency_snapshot(histogram))
        (fired,) = alerter.update(engine.evaluate())
        assert fired["state"] == "firing" and fired["severity"] == "page"
        assert alerter.firing() == {"lat": "page"}

        clock.advance(300.0)
        for _ in range(2000):
            histogram.observe(GOOD_SECONDS)
        engine.observe(_latency_snapshot(histogram))
        (resolved,) = alerter.update(engine.evaluate())
        assert resolved["state"] == "resolved" and resolved["severity"] == "page"
        assert alerter.firing() == {}
        assert alerter.snapshot()["counters"] == {
            "fired": 1, "resolved": 1, "escalated": 0,
        }


# ----------------------------------------------------------------------
# BurnRateAlerter state machine on crafted evaluations
# ----------------------------------------------------------------------
def _evaluation(b5=0.0, b30=0.0, b1h=0.0, b6h=0.0, budget=1.0):
    return {
        "burn": {"5m": b5, "30m": b30, "1h": b1h, "6h": b6h},
        "budget_remaining": budget,
        "description": "synthetic objective",
    }


class TestBurnRateAlerter:
    def test_policy_validation(self):
        with pytest.raises(ValueError):
            AlertPolicy(page_burn=0.0)
        with pytest.raises(ValueError):
            AlertPolicy(page_burn=5.0, ticket_burn=6.0)

    def test_page_needs_both_fast_windows(self):
        alerter = BurnRateAlerter(clock=VirtualClock())
        assert alerter.update({"o": _evaluation(b5=20.0)}) == []  # 1h quiet
        assert alerter.update({"o": _evaluation(b1h=20.0)}) == []  # 5m quiet
        (event,) = alerter.update({"o": _evaluation(b5=20.0, b1h=20.0)})
        assert event["state"] == "firing" and event["severity"] == "page"

    def test_ticket_needs_both_slow_windows(self):
        alerter = BurnRateAlerter(clock=VirtualClock())
        assert alerter.update({"o": _evaluation(b30=7.0)}) == []
        (event,) = alerter.update({"o": _evaluation(b30=7.0, b6h=7.0)})
        assert event["severity"] == "ticket"

    def test_steady_state_is_deduplicated(self):
        alerter = BurnRateAlerter(clock=VirtualClock())
        firing = {"o": _evaluation(b5=20.0, b1h=20.0)}
        assert len(alerter.update(firing)) == 1
        assert alerter.update(firing) == []  # no change, no event
        assert len(alerter.snapshot()["events"]) == 1

    def test_escalate_then_downgrade(self):
        clock = VirtualClock(100.0)
        alerter = BurnRateAlerter(clock=clock)
        (fired,) = alerter.update({"o": _evaluation(b30=7.0, b6h=7.0)})
        assert fired["state"] == "firing" and fired["severity"] == "ticket"
        (escalated,) = alerter.update({"o": _evaluation(b5=20.0, b1h=20.0)})
        assert escalated["state"] == "escalated" and escalated["severity"] == "page"
        (downgraded,) = alerter.update({"o": _evaluation(b30=7.0, b6h=7.0)})
        assert downgraded["state"] == "downgraded"
        assert downgraded["severity"] == "ticket"
        assert alerter.snapshot()["counters"]["escalated"] == 2

    def test_vanished_objective_resolves(self):
        alerter = BurnRateAlerter(clock=VirtualClock())
        alerter.update({"o": _evaluation(b5=20.0, b1h=20.0)})
        (event,) = alerter.update({})
        assert event["state"] == "resolved"
        assert event["description"] == "objective removed"
        assert alerter.firing() == {}

    def test_event_log_is_bounded_by_policy_capacity(self):
        alerter = BurnRateAlerter(
            AlertPolicy(capacity=4), clock=VirtualClock()
        )
        for _ in range(5):  # 10 transitions: fire, resolve, fire, ...
            alerter.update({"o": _evaluation(b5=20.0, b1h=20.0)})
            alerter.update({"o": _evaluation()})
        snapshot = alerter.snapshot()
        assert len(snapshot["events"]) == 4
        assert snapshot["counters"]["fired"] == 5


# ----------------------------------------------------------------------
# TailSampler units
# ----------------------------------------------------------------------
class TestTailSampler:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(trace_fraction=1.5),
            dict(trace_fraction=-0.1),
            dict(keep_fast_fraction=2.0),
            dict(slow_ms=0.0),
            dict(kept_capacity=0),
        ],
    )
    def test_config_validation(self, kwargs):
        with pytest.raises(ValueError):
            TailSampleConfig(**kwargs)

    def test_begin_rotation_is_deterministic(self):
        sampler = TailSampler(TailSampleConfig(trace_fraction=0.5))
        assert [sampler.begin() for _ in range(10)] == [False, True] * 5
        counters = sampler.snapshot()["counters"]
        assert counters["started"] == 5 and counters["skipped"] == 5

    def test_keep_reason_priority_error_over_retry_over_slow(self):
        sampler = TailSampler(TailSampleConfig(slow_ms=10.0))
        assert sampler.complete("t1", 99.0, errored=True, retried=True).reason == "error"
        assert sampler.complete("t2", 99.0, retried=True).reason == "retry"
        assert sampler.complete("t3", 99.0).reason == "slow"
        assert sampler.complete("t4", 10.0).reason == "slow"  # at the threshold

    def test_baseline_rotation_keeps_exactly_the_configured_fast_fraction(self):
        sampler = TailSampler(
            TailSampleConfig(slow_ms=1000.0, keep_fast_fraction=0.25)
        )
        decisions = [sampler.complete(f"t{n}", 1.0) for n in range(8)]
        assert [decision.keep for decision in decisions].count(True) == 2
        counters = sampler.snapshot()["counters"]
        assert counters["kept_baseline"] == 2 and counters["dropped"] == 6

    def test_kept_ids_are_bounded_most_recent_last(self):
        sampler = TailSampler(TailSampleConfig(slow_ms=1.0, kept_capacity=3))
        for n in range(5):
            sampler.complete(f"t{n}", 99.0)
        assert sampler.kept_ids() == ["t2", "t3", "t4"]

    def test_snapshot_totals_add_up(self):
        sampler = TailSampler(TailSampleConfig(slow_ms=10.0, keep_fast_fraction=0.0))
        sampler.begin()
        sampler.complete("slow", 50.0)
        sampler.complete("fast", 1.0)
        snapshot = sampler.snapshot()
        assert snapshot["kept"] == 1
        assert snapshot["counters"]["dropped"] == 1
        assert snapshot["config"]["slow_ms"] == 10.0


# ----------------------------------------------------------------------
# Pinning kept traces against ring eviction
# ----------------------------------------------------------------------
class TestSpanPinning:
    def test_pinned_trace_survives_ring_eviction(self):
        recorder = SpanRecorder(4)
        trace = new_trace()
        recorder.add("engine", trace, 0.001)
        recorder.add("queue", trace, 0.001)
        assert recorder.pin(trace.trace_id) == 2
        for _ in range(10):
            recorder.add("noise", new_trace(), 0.001)
        assert {span.name for span in recorder.spans(trace.trace_id)} == {
            "engine", "queue",
        }

    def test_spans_recorded_after_the_pin_are_pinned_too(self):
        recorder = SpanRecorder(4)
        trace = new_trace()
        recorder.add("engine", trace, 0.001)
        recorder.pin(trace.trace_id)
        recorder.add("late-server-stage", trace, 0.001)
        for _ in range(10):
            recorder.add("noise", new_trace(), 0.001)
        names = {span.name for span in recorder.spans(trace.trace_id)}
        assert "late-server-stage" in names

    def test_pin_is_idempotent(self):
        recorder = SpanRecorder(8)
        trace = new_trace()
        recorder.add("engine", trace, 0.001)
        recorder.pin(trace.trace_id)
        recorder.pin(trace.trace_id)
        assert len(recorder.spans(trace.trace_id)) == 1

    def test_pin_table_is_fifo_bounded(self):
        recorder = SpanRecorder(4, max_pinned=2)
        traces = [new_trace() for _ in range(3)]
        for trace in traces:
            recorder.add("engine", trace, 0.001)
            recorder.pin(trace.trace_id)
        assert recorder.pinned_traces() == [traces[1].trace_id, traces[2].trace_id]
        for _ in range(10):  # evict the unpinned ring copies
            recorder.add("noise", new_trace(), 0.001)
        assert recorder.spans(traces[0].trace_id) == []
        assert recorder.spans(traces[2].trace_id) != []

    def test_discard_clears_ring_and_pin_table(self):
        recorder = SpanRecorder(8)
        trace = new_trace()
        recorder.add("engine", trace, 0.001)
        recorder.pin(trace.trace_id)
        recorder.discard(trace.trace_id)
        assert recorder.spans(trace.trace_id) == []
        assert trace.trace_id not in recorder.pinned_traces()

    def test_zero_capacity_recorder_ignores_pins(self):
        assert SpanRecorder(0).pin("anything") == 0

    def test_stitch_reports_evicted_parents_as_gaps(self):
        trace = new_trace()
        recorder = SpanRecorder(8)
        recorder.add(
            "engine", trace, 0.002, span_id="e1", parent_span_id="evicted-root"
        )
        timeline = stitch_trace(recorder.spans(), trace.trace_id)
        assert timeline["missing_spans"] == ["evicted-root"]
        assert timeline["complete"] is False

    def test_stitch_with_root_present_is_complete(self):
        trace = new_trace()
        recorder = SpanRecorder(8)
        recorder.add("client_send", trace, 0.010)
        recorder.add(
            "engine", trace, 0.002, span_id="e1", parent_span_id=trace.span_id
        )
        timeline = stitch_trace(recorder.spans(), trace.trace_id)
        assert timeline["missing_spans"] == [] and timeline["complete"] is True


# ----------------------------------------------------------------------
# Doctor units: synthetic snapshots, no cluster required
# ----------------------------------------------------------------------
def _replica(endpoint, shard=0, replica=0, healthy=True, lease_ok=True,
             queue_depth=0, p95_ms=1.0):
    return {
        "endpoint": endpoint, "shard": shard, "replica": replica,
        "healthy": healthy, "lease_ok": lease_ok,
        "queue_depth": queue_depth, "p95_ms": p95_ms,
    }


class TestDoctorDiagnose:
    def test_empty_fleet_is_healthy(self):
        diagnosis = diagnose({"overall": {}})
        assert diagnosis["health"] == "healthy"
        assert diagnosis["findings"] == []
        assert "no findings" in render_diagnosis(diagnosis)

    def test_unreachable_replicas_are_critical(self):
        diagnosis = diagnose({"overall": {}, "unreachable": ["b:1", "a:1"]})
        (finding,) = diagnosis["findings"]
        assert finding["code"] == "unreachable-replicas"
        assert finding["details"]["endpoints"] == ["a:1", "b:1"]
        assert diagnosis["health"] == "critical"

    def test_down_and_lease_revoked_replicas_are_reported(self):
        stats = {
            "overall": {},
            "routing": {"replicas": [
                _replica("dead:1", healthy=False),
                _replica("stalled:1", lease_ok=False),
                _replica("fine:1"),
            ]},
        }
        codes = {f["code"]: f for f in diagnose(stats)["findings"]}
        assert "dead:1" in codes["replicas-marked-down"]["message"]
        assert "stalled:1" in codes["leases-revoked"]["message"]

    def test_firing_page_alert_outranks_everything(self):
        stats = {
            "overall": {},
            "routing": {"replicas": [
                _replica("a:1", p95_ms=1.0), _replica("b:1", p95_ms=1.0),
                _replica("c:1", p95_ms=50.0),
            ]},
            "slo": {
                "objectives": {"lat": {
                    "burn": {"5m": 20.0, "1h": 20.0, "30m": 5.0, "6h": 5.0},
                    "budget_remaining": 0.0,
                }},
                "alerts": {"firing": {"lat": "page"}},
            },
        }
        diagnosis = diagnose(stats)
        assert diagnosis["health"] == "critical"
        first = diagnosis["findings"][0]
        assert first["code"] == "slo-burn-alert" and first["severity"] == "critical"
        assert "'lat'" in first["message"] and "page" in first["message"]
        severities = [f["severity"] for f in diagnosis["findings"]]
        rank = {"critical": 0, "warning": 1, "info": 2}
        assert [rank[s] for s in severities] == sorted(rank[s] for s in severities)

    def test_quiet_budget_erosion_is_a_warning(self):
        stats = {
            "overall": {},
            "slo": {
                "objectives": {"lat": {"burn": {}, "budget_remaining": 0.1}},
                "alerts": {"firing": {}},
            },
        }
        (finding,) = diagnose(stats)["findings"]
        assert finding["code"] == "error-budget-low"
        assert diagnose(stats)["health"] == "degraded"

    def test_slow_replica_is_named_with_its_factor(self):
        stats = {
            "overall": {},
            "routing": {"replicas": [
                _replica("a:1", p95_ms=10.0), _replica("b:1", p95_ms=10.0),
                _replica("c:1", p95_ms=10.0),
                _replica("slow:1", shard=1, p95_ms=100.0),
            ]},
        }
        (finding,) = diagnose(stats)["findings"]
        assert finding["code"] == "slow-replica"
        assert finding["details"]["endpoint"] == "slow:1"
        assert finding["details"]["shard"] == 1
        assert "10.0x the fleet median" in finding["message"]

    def test_queue_depth_skew_and_shard_imbalance(self):
        stats = {
            "overall": {
                "shard_imbalance": {"request_share": {"max_over_mean": 2.0}}
            },
            "routing": {"replicas": [
                _replica("a:1"), _replica("b:1"), _replica("c:1"),
                _replica("d:1"), _replica("deep:1", queue_depth=30),
            ]},
        }
        codes = {f["code"]: f for f in diagnose(stats)["findings"]}
        assert codes["queue-depth-skew"]["details"]["endpoint"] == "deep:1"
        assert codes["queue-depth-skew"]["details"]["queue_depth"] == 30
        assert "2.00x" in codes["shard-imbalance"]["message"]

    def test_stage_hotspot_and_slow_request_context(self):
        stats = {
            "overall": {
                "stage_latency_ms": {
                    "engine": {"p95_ms": 9.0, "count": 10},
                    "queue": {"p95_ms": 1.0, "count": 10},
                    "request": {"p95_ms": 11.0, "count": 10},  # excluded: envelope
                },
                "slow_requests": 3,
            },
        }
        codes = {f["code"]: f for f in diagnose(stats)["findings"]}
        assert codes["stage-hotspot"]["details"]["stage"] == "engine"
        assert codes["slow-requests-logged"]["details"]["slow_requests"] == 3
        assert diagnose(stats)["health"] == "healthy"  # info-only findings

    def test_render_is_ranked_and_numbered(self):
        stats = {"overall": {}, "unreachable": ["gone:1"]}
        text = render_diagnosis(diagnose(stats))
        assert text.startswith("fleet health: CRITICAL")
        assert "findings: 1 critical, 0 warning, 0 info" in text
        assert " 1. [critical" in text


# ----------------------------------------------------------------------
# Prometheus text-exposition well-formedness checker
# ----------------------------------------------------------------------
_METRIC_LINE = re.compile(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{(.*)\})? (\S+)$")
_LABEL_PAIR = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="([^"]*)"')


def parse_exposition(text):
    """Parse Prometheus text exposition, asserting well-formedness.

    Returns ``[(name, ((label, value), ...)), ...]`` for every sample
    line, after checking: metric and label names are valid, every label
    block reconstructs exactly (no malformed residue), every value
    parses as a float, no duplicate (name, labelset) samples, and every
    metric name uses one consistent label keyset across its samples.
    """
    samples = []
    for line in text.splitlines():
        if not line.strip() or line.startswith("#"):
            continue
        match = _METRIC_LINE.match(line)
        assert match is not None, f"malformed exposition line: {line!r}"
        name, label_block, value = match.groups()
        labels = ()
        if label_block is not None:
            pairs = _LABEL_PAIR.findall(label_block)
            rebuilt = ",".join(f'{key}="{val}"' for key, val in pairs)
            assert rebuilt == label_block, f"malformed labels in: {line!r}"
            labels = tuple(sorted(pairs))
        float(value)  # raises (failing the test) on a malformed value
        samples.append((name, labels))
    assert samples, "exposition contained no samples"
    seen = set()
    keysets = {}
    for name, labels in samples:
        assert (name, labels) not in seen, f"duplicate sample {name}{dict(labels)}"
        seen.add((name, labels))
        keys = tuple(key for key, _ in labels)
        assert keysets.setdefault(name, keys) == keys, (
            f"inconsistent label keys for {name}: {keys} vs {keysets[name]}"
        )
    return samples


class TestExpositionChecker:
    def test_rejects_malformed_lines(self):
        with pytest.raises(AssertionError):
            parse_exposition("not a metric line at all!")
        with pytest.raises(AssertionError):
            parse_exposition('ok{label="x" junk} 1')
        with pytest.raises(AssertionError):
            parse_exposition("dup 1\ndup 1")


# ----------------------------------------------------------------------
# Cluster acceptance: slow replica -> alert + kept trace + doctor naming
# ----------------------------------------------------------------------
@pytest.fixture()
def slow_fleet(fitted_model, service_dataset):
    """A 2-shard x 2-replica fleet over real sockets; replica (0, 0) slow.

    The slow replica runs its *own* service whose batch execution sleeps
    80 ms per cycle (cache off so repeats stay slow), so its latency
    shows up exactly where production slowness would: in its request
    histogram, the p95 the manager's stats probe reads from that
    histogram into the routing table, and the client-observed latency.  The three fast endpoints share one
    ordinary service.  The slow replica is listed FIRST for shard 0, so
    the first shard-0 request deterministically lands on it before the
    client's latency EMA shifts traffic away.
    """
    fast_service = ExplanationService(
        fitted_model, service_dataset, ServiceConfig(num_workers=1)
    ).start()
    slow_service = ExplanationService(
        fitted_model, service_dataset, ServiceConfig(num_workers=1, cache_capacity=0)
    )
    original_execute = slow_service._execute_batch

    def delayed_execute(worker_id, batch):
        time.sleep(0.08)
        original_execute(worker_id, batch)

    slow_service._execute_batch = delayed_execute
    slow_service.start()
    servers = [
        ShardServer(slow_service, shard_id=0, num_shards=2),
        ShardServer(fast_service, shard_id=0, num_shards=2),
        ShardServer(fast_service, shard_id=1, num_shards=2),
        ShardServer(fast_service, shard_id=1, num_shards=2),
    ]
    addresses = [server.bind("127.0.0.1:0") for server in servers]
    for server in servers:
        server.start_in_thread()
    topology = topology_for_endpoints([addresses[:2], addresses[2:]])
    yield {
        "topology": topology,
        "slow_address": addresses[0],
        "slow_service": slow_service,
    }
    for server in servers:
        server.stop()
    fast_service.close(drain=False)
    slow_service.close(drain=False)


def _manual_manager(topology):
    """A manager probed by hand (no thread churn): deterministic probes."""
    return ClusterManager(
        topology, probe_interval=60.0, miss_threshold=2, backoff_base=0.0,
        stats_every=1,
    )


class TestClusterSLOAcceptance:
    def test_slow_replica_fires_alert_keeps_trace_and_doctor_names_it(
        self, slow_fleet, fitted_model
    ):
        """The acceptance bar: with one induced
        slow replica, the latency burn-rate alert fires (and lands in
        the fleet event log), tail sampling keeps at least one slow or
        retried trace while keeping exactly the configured rotation of
        fast ones, the doctor names the offending replica, and results
        are bit-identical with tail sampling on vs off."""
        topology = slow_fleet["topology"]
        slow_address = slow_fleet["slow_address"]
        pairs = predicted_pairs(fitted_model, limit=12)
        sampler = TailSampler(
            TailSampleConfig(trace_fraction=1.0, slow_ms=30.0, keep_fast_fraction=0.25)
        )
        objective = SLOObjective(
            name="interactive-latency", kind="latency", threshold_ms=8.0, target=0.99
        )
        manager = _manual_manager(topology)
        try:
            with ClusterClient(
                topology,
                manager=manager,
                tail_sampler=sampler,
                slo_objectives=(objective,),
                alert_policy=AlertPolicy(page_burn=1.5, ticket_burn=1.0),
            ) as client:
                sampled_results = {}
                for _ in range(2):
                    for pair in pairs:
                        value, trace = client.traced(EXPLAIN, *pair, timeout=60)
                        assert value is not None
                        sampled_results[pair] = value
                # A deterministic volume of slow events for the merged
                # histograms: requests served by the slow replica's own
                # service, exactly what a production hot spot produces.
                slow_client = ExEAClient(slow_fleet["slow_service"])
                for pair in pairs[:8]:
                    slow_client.explain(*pair, timeout=60)
                manager.probe_once()  # publish per-replica p95 / queue depth
                snapshot = client.stats_snapshot()

            # -- the burn-rate alert fired, at page severity --
            evaluation = snapshot["slo"]["objectives"]["interactive-latency"]
            assert evaluation["total"] > 0
            assert evaluation["burn"]["5m"] > 1.5
            assert snapshot["slo"]["alerts"]["firing"] == {
                "interactive-latency": "page"
            }
            assert any(
                event["state"] == "firing"
                for event in snapshot["slo"]["alerts"]["events"]
            )
            # ... and the transition landed in the fleet event log.
            assert any(
                event["type"] == "slo_alert"
                for event in snapshot["fleet"]["events"]
            )

            # -- tail sampling kept the interesting trace, bounded the rest --
            counters = snapshot["tail_sampling"]["counters"]
            assert counters["started"] == 2 * len(pairs)
            assert counters["kept_slow"] + counters["kept_retry"] >= 1
            fast_seen = counters["dropped"] + counters["kept_baseline"]
            assert counters["kept_baseline"] == math.floor(0.25 * fast_seen)
            kept_ids = snapshot["tail_sampling"]["kept_ids"]
            assert kept_ids
            # Kept traces are pinned in the client's own ring.
            pinned = set(client.tracer.pinned_traces())
            assert set(kept_ids) <= pinned

            # -- the doctor names the slow replica --
            diagnosis = diagnose(snapshot)
            assert diagnosis["health"] == "critical"  # the page-level burn
            codes = {finding["code"] for finding in diagnosis["findings"]}
            assert "slo-burn-alert" in codes
            slow_finding = next(
                finding
                for finding in diagnosis["findings"]
                if finding["code"] == "slow-replica"
            )
            assert slow_finding["details"]["endpoint"] == slow_address
            assert slow_finding["details"]["shard"] == 0
            assert slow_address in render_diagnosis(diagnosis)

            # -- bit-identical with tail sampling off --
            plain_manager = _manual_manager(topology)
            try:
                with ClusterClient(topology, manager=plain_manager) as plain:
                    for pair in pairs:
                        assert plain.explain(*pair, timeout=60) == sampled_results[pair]
            finally:
                plain_manager.stop()
        finally:
            manager.stop()


# ----------------------------------------------------------------------
# Subprocess 2x2 acceptance + exporter well-formedness
# ----------------------------------------------------------------------
class TestSubprocessClusterSLOPlane:
    def test_slo_and_tail_sections_over_a_real_subprocess_cluster(
        self, fitted_model, service_dataset
    ):
        """SLO evaluation, tail sampling (with fleet-wide pin fan-out)
        and a well-formed Prometheus scrape over a real 2-shard x
        2-replica ``serve``-subprocess cluster.  Results stay
        bit-identical between the plain cluster client and one carrying
        the whole SLO/tail plane."""
        pairs = predicted_pairs(fitted_model, limit=8)
        with ReplicatedLocalCluster(
            fitted_model,
            service_dataset,
            num_shards=2,
            num_replicas=2,
            service_config=ServiceConfig(num_workers=1),
            probe_interval=60.0,
        ) as cluster:
            baseline = {
                pair: cluster.client.explain(*pair, timeout=60) for pair in pairs
            }
            sampler = TailSampler(
                TailSampleConfig(
                    trace_fraction=1.0, slow_ms=250.0, keep_fast_fraction=0.5
                )
            )
            with ClusterClient(
                cluster.topology,
                timeout=60.0,
                tail_sampler=sampler,
                slo_objectives=default_objectives(),
            ) as client:
                sampled = {}
                for pair in pairs:
                    value, _ = client.traced(EXPLAIN, *pair, timeout=60)
                    sampled[pair] = value
                snapshot = client.stats_snapshot()
                # Fast-and-clean requests: exactly the configured
                # rotation kept, every keep pinned fleet-wide.
                counters = snapshot["tail_sampling"]["counters"]
                assert counters["started"] == len(pairs)
                kept = snapshot["tail_sampling"]["kept"]
                assert kept + counters["dropped"] == len(pairs)
                for kept_id in snapshot["tail_sampling"]["kept_ids"]:
                    assert client.trace_spans(kept_id), "pinned trace lost its spans"
            assert sampled == baseline  # tail sampling never affects results

        evaluations = snapshot["slo"]["objectives"]
        assert set(evaluations) == {"request-latency", "availability"}
        assert evaluations["availability"]["total"] >= len(pairs)
        assert "firing" in snapshot["slo"]["alerts"]

        # The scrape of this traced cluster renders well-formed
        # exposition text, including the new SLO / alert / tail series.
        samples = parse_exposition(prometheus_text(snapshot))
        names = {name for name, _ in samples}
        assert "repro_slo_burn_rate" in names
        assert "repro_slo_error_budget_remaining" in names
        assert "repro_tail_sampling_total" in names
        burn_labels = [
            dict(labels) for name, labels in samples if name == "repro_slo_burn_rate"
        ]
        assert {row["window"] for row in burn_labels} == {"5m", "30m", "1h", "6h"}
        assert {row["objective"] for row in burn_labels} == set(evaluations)


# ----------------------------------------------------------------------
# CLI: doctor and the metrics exporter loop
# ----------------------------------------------------------------------
@pytest.fixture()
def single_server(fitted_model, service_dataset):
    """One started loopback shard server (1 shard, 1 replica)."""
    service = ExplanationService(
        fitted_model, service_dataset, ServiceConfig(num_workers=1)
    )
    server = ShardServer(service, shard_id=0, num_shards=1)
    address = server.bind("127.0.0.1:0")
    server.start_in_thread()
    service.start()
    yield service, address
    server.stop()
    service.close(drain=False)


class TestDoctorCLI:
    def test_doctor_reports_a_healthy_fleet_and_exits_zero(
        self, single_server, fitted_model, capsys
    ):
        service, address = single_server
        ExEAClient(service).explain(*predicted_pairs(fitted_model, limit=1)[0])
        assert doctor_main(["--endpoints", address]) == 0
        output = capsys.readouterr().out
        assert output.startswith("fleet health:")
        assert "objectives evaluated: availability, request-latency" in output

    def test_doctor_json_mode_emits_the_machine_readable_document(
        self, single_server, capsys
    ):
        _, address = single_server
        assert doctor_main(["--endpoints", address, "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert set(document) == {"diagnosis", "slo"}
        assert document["diagnosis"]["health"] in ("healthy", "degraded", "critical")
        assert "request-latency" in document["slo"]["objectives"]

    def test_doctor_honours_cli_objectives(self, single_server, capsys):
        _, address = single_server
        doctor_main(["--endpoints", address, "--slo", "custom:errors:0.5", "--json"])
        document = json.loads(capsys.readouterr().out)
        assert list(document["slo"]["objectives"]) == ["custom"]

    def test_one_shot_doctor_names_the_slow_replica(
        self, slow_fleet, fitted_model, tmp_path, capsys
    ):
        """A fresh doctor probes the fleet once before it scrapes; that
        probe reads every replica's p95, so a one-shot run still names
        the slow replica."""
        topology = slow_fleet["topology"]
        pairs = predicted_pairs(fitted_model, limit=8)
        manager = _manual_manager(topology)
        try:
            with ClusterClient(topology, manager=manager) as client:
                for pair in pairs:
                    client.explain(*pair, timeout=60)
        finally:
            manager.stop()
        slow_client = ExEAClient(slow_fleet["slow_service"])
        for pair in pairs[:4]:
            slow_client.explain(*pair, timeout=60)
        topology_path = tmp_path / "cluster.json"
        topology_path.write_text(json.dumps(topology.to_dict()))

        assert doctor_main(["--topology", str(topology_path), "--json"]) in (0, 1)
        findings = json.loads(capsys.readouterr().out)["diagnosis"]["findings"]
        slow = [finding for finding in findings if finding["code"] == "slow-replica"]
        assert [finding["details"]["endpoint"] for finding in slow] == [
            slow_fleet["slow_address"]
        ]

    def test_malformed_slo_spec_exits_two_before_connecting(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            doctor_main(["--endpoints", "127.0.0.1:1", "--slo", "garbage"])
        assert excinfo.value.code == 2
        assert "slo:" in capsys.readouterr().err

    def test_doctor_requires_exactly_one_addressing_mode(self, capsys):
        # `cluster` and `metrics` share the doctor's addressing helper.
        for main in (doctor_main, cluster_main, metrics_main):
            assert main([]) == 2
            assert main(["--endpoints", "a:1", "--topology", "t.json"]) == 2
            assert "exactly one of" in capsys.readouterr().err


class TestMetricsCLI:
    def test_interval_mode_rewrites_out_atomically(
        self, single_server, tmp_path, capsys
    ):
        _, address = single_server
        out = tmp_path / "metrics.prom"
        assert (
            metrics_main(
                [
                    "--endpoints", address,
                    "--out", str(out),
                    "--interval", "0.01",
                    "--count", "3",
                ]
            )
            == 0
        )
        parse_exposition(out.read_text())
        # Loop mode with --out prints nothing (composes with pipelines)
        # and leaves no temp files behind (writes go through os.replace).
        assert capsys.readouterr().out == ""
        assert [path.name for path in tmp_path.iterdir()] == ["metrics.prom"]

    def test_one_shot_prints_the_exposition(self, single_server, capsys):
        _, address = single_server
        assert metrics_main(["--endpoints", address]) == 0
        parse_exposition(capsys.readouterr().out)


# ----------------------------------------------------------------------
# The CI bench tripwire (tools/check_bench.py)
# ----------------------------------------------------------------------
def _load_check_bench():
    path = Path(__file__).resolve().parents[2] / "tools" / "check_bench.py"
    spec = importlib.util.spec_from_file_location("check_bench", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestBenchTripwire:
    def test_collapse_beyond_the_factor_fails(self):
        check_bench = _load_check_bench()
        report = check_bench.compare(
            {"ZH-EN": {"warm_rps": 10.0}}, {"ZH-EN": {"warm_rps": 100.0}}
        )
        (failure,) = report["failures"]
        assert failure["workload"] == "ZH-EN"
        assert failure["collapse"] == pytest.approx(10.0)

    def test_noise_inside_the_factor_passes(self):
        check_bench = _load_check_bench()
        report = check_bench.compare(
            {"ZH-EN": {"warm_rps": 40.0}}, {"ZH-EN": {"warm_rps": 100.0}}
        )
        assert report["failures"] == []
        assert report["checked"] == ["ZH-EN"]

    def test_one_sided_workloads_are_skipped_not_failed(self):
        check_bench = _load_check_bench()
        report = check_bench.compare(
            {"fresh-only": {"warm_rps": 1.0}}, {"committed-only": {"warm_rps": 9e9}}
        )
        assert report["failures"] == []
        assert set(report["skipped"]) == {"fresh-only", "committed-only"}

    def test_zero_fresh_throughput_is_an_infinite_collapse(self):
        check_bench = _load_check_bench()
        report = check_bench.compare(
            {"ZH-EN": {"warm_rps": 0.0}}, {"ZH-EN": {"warm_rps": 100.0}}
        )
        (failure,) = report["failures"]
        assert failure["collapse"] == math.inf

    def test_remote_warm_throughput_is_watched(self):
        """The cross-process row reports ``remote_warm_rps``, not ``warm_rps``."""
        check_bench = _load_check_bench()
        report = check_bench.compare(
            {"ZH-EN-remote": {"remote_warm_rps": 10.0, "inprocess_warm_rps": 100.0}},
            {"ZH-EN-remote": {"remote_warm_rps": 100.0, "inprocess_warm_rps": 100.0}},
        )
        (failure,) = report["failures"]
        assert (failure["workload"], failure["metric"]) == ("ZH-EN-remote", "remote_warm_rps")
        # The committed reference carries the metric, so CI compares the row.
        reference = check_bench.load_rows([check_bench.DEFAULT_REFERENCE])
        assert reference["ZH-EN-remote"]["remote_warm_rps"] > 0

    def test_default_reference_holds_only_quick_rows(self):
        """Quick rows are compared with quick rows, never with full-mode ones."""
        check_bench = _load_check_bench()
        reference = check_bench.load_rows([check_bench.DEFAULT_REFERENCE])
        assert any("warm_rps" in row for row in reference.values())
        full_mode = [
            workload
            for workload, row in reference.items()
            if row.get("meta", {}).get("mode") != "quick"
        ]
        assert full_mode == []
