"""Micro-benchmark: the cost of the PR-10 SLO plane on the serving path.

Two measurements, both on the ZH-EN mixed workload:

* ``test_tail_sampling_overhead`` — the same traced replay driven
  through :class:`ExEAClient` twice: head-based tracing only (the PR-7
  baseline) vs tail-based sampling tracing 100% of requests
  (``TailSampler``, keep-on-slow/error/retry plus a 5% healthy
  baseline).  Tail sampling only ever *observes* completions — the row
  asserts results stay bit-identical and the warm replay keeps at least
  half the baseline throughput (in practice the overhead is a counter
  bump and an occasional ring pin per request).
* the same row records the SLO engine's evaluation rate: how many
  observe+evaluate cycles per second the burn-rate math sustains over a
  live stats snapshot with the stock objectives — the doctor and the
  cluster client run this on every ``stats_snapshot()``.

Results are written to ``BENCH_service.json`` (key ``ZH-EN-slo``).

Run directly (``python bench_slo_overhead.py [--quick]``) or via pytest.
``--quick`` is the CI smoke mode: tiny workload, no numeric assertions,
no artifact writes.
"""

import json
import sys
import time
from pathlib import Path

from conftest import record_fresh_row, run_once
from repro.core import ExEAConfig, ExplanationConfig
from repro.datasets import replay_workload
from repro.experiments import run_metadata, sample_correct_pairs
from repro.service import (
    CONFIDENCE,
    EXPLAIN,
    ExEAClient,
    ExplanationService,
    ServiceConfig,
)
from repro.service.observability import (
    BurnRateAlerter,
    SLOEngine,
    TailSampleConfig,
    TailSampler,
    default_objectives,
)

ARTIFACT = Path(__file__).parent / "BENCH_service.json"

NUM_REQUESTS = 2000
SKEW = 1.0
MAX_HOPS = 2
#: Healthy-baseline fraction of fast traces the tail sampler keeps.
KEEP_FAST = 0.05
#: observe+evaluate cycles measured for the SLO engine rate.
SLO_CYCLES = 2000


def _write_row(key: str, row: dict) -> None:
    existing = {}
    if ARTIFACT.exists():
        existing = json.loads(ARTIFACT.read_text())
    existing[key] = {**row, "meta": run_metadata()}
    ARTIFACT.write_text(json.dumps(existing, indent=2, sort_keys=True))


def test_tail_sampling_overhead(benchmark, dataset_cache, model_cache, bench_scale, quick):
    dataset = dataset_cache("ZH-EN")
    model = model_cache("Dual-AMN", "ZH-EN")
    pairs = sample_correct_pairs(
        model, dataset, bench_scale.explanation_sample, seed=bench_scale.seed
    )
    num_requests = 200 if quick else NUM_REQUESTS
    workload = replay_workload(
        pairs, num_requests, seed=bench_scale.seed, skew=SKEW, kinds=(EXPLAIN, CONFIDENCE)
    )
    unique_pairs = sorted({(source, target) for _, source, target in workload})
    exea_config = ExEAConfig(explanation=ExplanationConfig(max_hops=MAX_HOPS))
    config = ServiceConfig(max_batch_size=32, num_workers=2)
    slo_cycles = 200 if quick else SLO_CYCLES

    def replay_traced(sampler: TailSampler | None):
        """Fresh service; cold pass, timed warm traced pass, result sample."""
        service = ExplanationService(model, dataset, config, exea_config=exea_config)
        with service:
            client = ExEAClient(service, tail_sampler=sampler)
            for kind, source, target in workload:  # cold: populate the cache
                client.traced(kind, source, target)
            start = time.perf_counter()
            results = [
                client.traced(kind, source, target)[0] for kind, source, target in workload
            ]
            warm_seconds = time.perf_counter() - start
            sample = {pair: client.explain(*pair) for pair in unique_pairs}
            stats = service.stats.snapshot()
        return warm_seconds, results, sample, stats

    def measure():
        base_seconds, base_results, base_sample, stats = replay_traced(None)
        sampler = TailSampler(
            TailSampleConfig(trace_fraction=1.0, slow_ms=250.0, keep_fast_fraction=KEEP_FAST)
        )
        tail_seconds, tail_results, tail_sample, _ = replay_traced(sampler)
        counters = sampler.snapshot()["counters"]
        kept_total = sum(
            counters[key]
            for key in ("kept_slow", "kept_error", "kept_retry", "kept_baseline")
        )

        # The burn-rate math the cluster client / doctor runs per snapshot.
        engine = SLOEngine(default_objectives())
        alerter = BurnRateAlerter()
        start = time.perf_counter()
        for _ in range(slo_cycles):
            engine.observe(stats)
            alerter.update(engine.evaluate())
        slo_seconds = time.perf_counter() - start

        return {
            "workload": "ZH-EN-slo",
            "max_hops": MAX_HOPS,
            "model": model.name,
            "kinds": [EXPLAIN, CONFIDENCE],
            "num_requests": len(workload),
            "num_unique_pairs": len(unique_pairs),
            "skew": SKEW,
            "baseline_warm_seconds": base_seconds,
            "baseline_warm_rps": len(workload) / base_seconds,
            "tail_warm_seconds": tail_seconds,
            "tail_warm_rps": len(workload) / tail_seconds,
            # warm_rps is the tail-sampled figure so the CI tripwire
            # (tools/check_bench.py) watches the instrumented path.
            "warm_rps": len(workload) / tail_seconds,
            "warm_seconds": tail_seconds,
            "tail_overhead_factor": tail_seconds / max(base_seconds, 1e-12),
            "tail_keep_fast_fraction": KEEP_FAST,
            "tail_counters": counters,
            "tail_kept_total": kept_total,
            "slo_cycles": slo_cycles,
            "slo_evals_per_second": slo_cycles / max(slo_seconds, 1e-12),
            "requests_identical": base_results == tail_results,
            "pairs_with_identical_results": sum(
                1 for pair in unique_pairs if base_sample[pair] == tail_sample[pair]
            ),
        }

    row = run_once(benchmark, measure)
    print()
    print(
        f"[service-slo] baseline warm {row['baseline_warm_rps']:.0f} req/s, "
        f"tail-sampled warm {row['tail_warm_rps']:.0f} req/s "
        f"(overhead {row['tail_overhead_factor']:.2f}x, kept "
        f"{row['tail_kept_total']}/{row['tail_counters']['started']} traces); "
        f"SLO engine {row['slo_evals_per_second']:.0f} evals/s "
        f"({row['pairs_with_identical_results']}/{row['num_unique_pairs']} identical)"
    )

    # The hard invariant at any speed: tail sampling observes, it never
    # changes a result bit.
    assert row["requests_identical"]
    assert row["pairs_with_identical_results"] == row["num_unique_pairs"]
    # Every trace was started (fraction 1.0) and keeps stay a small subset.
    assert row["tail_counters"]["started"] == row["num_requests"] * 2
    assert row["tail_kept_total"] <= row["tail_counters"]["started"]
    record_fresh_row(row["workload"], row, quick)
    if quick:
        return  # smoke mode: no numeric assertions, no artifact writes
    _write_row(row["workload"], row)
    # Acceptance: observing completions costs at most half the warm
    # throughput (generous bound; the steady-state overhead is far lower).
    assert row["tail_warm_rps"] >= 0.5 * row["baseline_warm_rps"]
    assert row["slo_evals_per_second"] > 100


if __name__ == "__main__":
    import pytest

    raise SystemExit(pytest.main([__file__, "-q", *sys.argv[1:]]))
