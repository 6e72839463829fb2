"""Micro-benchmark: serving under live KG churn (PR-8 acceptance row).

A mixed explain+confidence replay runs against a **mutating** graph: a
deterministic write stream (triple removals on the rarest relations,
evenly spaced at 1-5% of requests) is interleaved with the reads.  Every
write advances the cache generation; what distinguishes the PR-8 data
plane is *how much of the warm cache survives each write*:

* **scoped** (``ServiceConfig(scoped_invalidation=True)``, the default) —
  only entries whose pair intersects the mutation blast radius are
  evicted, so the hot set keeps hitting between writes;
* **wholesale** (``scoped_invalidation=False``, the pre-PR-8 contract) —
  every write empties the cache and every hot pair recomputes.

The headline row (``ZH-EN-live``) records, at the 2% write rate, the
churn-phase hit rate and client-side p95 under both modes, the scoped
hit rate across the 1-5% sweep, and two bit-identity proofs:

* after the full churn replay, every unique pair served by the scoped
  service equals a **cold rebuild** on the post-mutation graphs;
* the same mutation log fanned out through a **2 shard x 2 replica
  subprocess cluster** (ordered ``mutate`` op) serves the same
  post-mutation results over the wire.

Acceptance: at 2% writes the scoped churn hit rate is >= 5x the
wholesale one, with all bit-identity counts full.

Run directly (``python bench_mutation_churn.py [--quick]``) or via
pytest.  ``--quick`` is the CI smoke mode: tiny workloads, no numeric
assertions, no artifact writes.
"""

import json
import sys
import time
from pathlib import Path

from conftest import run_once
from repro.core import ExEA, ExEAConfig, ExplanationConfig
from repro.datasets import replay_workload
from repro.experiments import (
    ExperimentScale,
    prepare_dataset,
    run_metadata,
    sample_correct_pairs,
    train_model,
)
from repro.kg import EADataset
from repro.service import (
    CONFIDENCE,
    EXPLAIN,
    ExEAClient,
    ExplanationService,
    MutationSpec,
    ReplicatedLocalCluster,
    ServiceConfig,
)

ARTIFACT = Path(__file__).parent / "BENCH_service.json"

NUM_REQUESTS = 1500
NUM_PAIRS = 150
MAX_HOPS = 2
#: Uniform traffic over a wide pair population: the regime where a
#: wholesale flush hurts most (no hot head re-warms the cache for free).
SKEW = 0.0
#: Explanation-heavy read mix (explain : confidence), the paper's primary
#: serving workload.  Explain entries carry the scoped win: their blast
#: radius is the structural ball only, while confidence entries are also
#: relation-seeded and churn with the functionality statistics.
KIND_WEIGHTS = (3, 1)
#: Write fractions of the churn sweep; the middle one is the headline.
WRITE_RATES = (0.01, 0.02, 0.05)
HEADLINE_RATE = 0.02
#: The live row runs on a larger graph than the table benches: blast
#: radii must be *local* (a 125-entity graph is one 2-hop ball), and the
#: paper's serving claim is about exactly that locality.
LIVE_SCALE = ExperimentScale(dataset_scale=3.0, embedding_dim=24, seed=1)
LIVE_MODEL = "MTransE"

_live_cache: dict = {}


def _live_fixtures():
    """Dataset + model at the live scale, cached for the process."""
    if not _live_cache:
        dataset = prepare_dataset("ZH-EN", LIVE_SCALE)
        _live_cache["dataset"] = dataset
        _live_cache["model"] = train_model(LIVE_MODEL, dataset, LIVE_SCALE)
    return _live_cache["dataset"], _live_cache["model"]


def _write_row(key: str, row: dict) -> None:
    existing = {}
    if ARTIFACT.exists():
        existing = json.loads(ARTIFACT.read_text())
    existing[key] = {**row, "meta": run_metadata()}
    ARTIFACT.write_text(json.dumps(existing, indent=2, sort_keys=True))


def _dataset_copy(dataset):
    """A private copy whose graphs the churn replay may mutate freely."""
    return EADataset(
        dataset.kg1.copy(),
        dataset.kg2.copy(),
        dataset.train_alignment,
        dataset.test_alignment,
        name=dataset.name,
    )


def _mutation_stream(dataset, count: int) -> list[MutationSpec]:
    """*count* deterministic removals, rarest relations first.

    Mutating low-carrier relations keeps the relation-seeded confidence
    blast radius local — which is the realistic churn shape (live updates
    touch specific facts, not the graph's backbone relations) and what
    scoped invalidation is built to exploit.
    """
    kg = dataset.kg1
    relations = sorted(kg.relations, key=lambda r: (len(kg.triples_with_relation(r)), r))
    specs: list[MutationSpec] = []
    for relation in relations:
        for triple in sorted(kg.triples_with_relation(relation), key=lambda t: t.as_tuple()):
            specs.append(MutationSpec(op="remove", kg=1, triple=triple))
            if len(specs) == count:
                return specs
    return specs


def _interleave(workload, specs):
    """Spread the writes evenly through the reads: one event stream."""
    if not specs:
        return [("read", request) for request in workload]
    interval = max(1, len(workload) // len(specs))
    events = []
    writes = iter(specs)
    pending = next(writes, None)
    for position, request in enumerate(workload):
        events.append(("read", request))
        if pending is not None and position % interval == interval - 1:
            events.append(("write", pending))
            pending = next(writes, None)
    if pending is not None:
        events.append(("write", pending))
    return events


def _churn_once(model, dataset, exea_config, workload, specs, scoped: bool):
    """One service lifecycle: warm, churn, measure, final read sample.

    Returns churn-phase hit rate, client-side p95 (ms), elapsed seconds,
    the scoped/wholesale invalidation counters, and the post-churn value
    of every unique pair (for the bit-identity checks).
    """
    config = ServiceConfig(max_batch_size=32, num_workers=2, scoped_invalidation=scoped)
    events = _interleave(workload, specs)
    unique_pairs = sorted({(source, target) for _, source, target in workload})
    with ExplanationService(model, dataset, config, exea_config=exea_config) as service:
        client = ExEAClient(service)
        for kind, source, target in workload:  # warm every pair both ways
            client.explain(source, target)
            client.confidence(source, target)
        before = service.stats.snapshot()

        latencies = []
        start = time.perf_counter()
        for event, payload in events:
            if event == "write":
                service.mutate([payload])
                continue
            kind, source, target = payload
            began = time.perf_counter()
            if kind == EXPLAIN:
                client.explain(source, target)
            else:
                client.confidence(source, target)
            latencies.append(time.perf_counter() - began)
        elapsed = time.perf_counter() - start

        after = service.stats.snapshot()
        final = {
            pair: (client.explain(*pair), client.confidence(*pair))
            for pair in unique_pairs
        }
    hits = after["cache_hits"] - before["cache_hits"]
    lookups = hits + after["cache_misses"] - before["cache_misses"]
    latencies.sort()
    p95 = latencies[int(0.95 * (len(latencies) - 1))] if latencies else 0.0
    return {
        "hit_rate": hits / lookups if lookups else 0.0,
        "p95_ms": p95 * 1000.0,
        "seconds": elapsed,
        "rps": len(latencies) / elapsed if elapsed else 0.0,
        "invalidation": after["invalidation"],
        "final": final,
    }


def _cold_truth(model, dataset, exea_config, specs, pairs):
    """Post-mutation results computed from scratch on a fresh copy."""
    mutated = _dataset_copy(dataset)
    for spec in specs:
        kg = mutated.kg1 if spec.kg == 1 else mutated.kg2
        if spec.op == "remove":
            kg.remove_triple(spec.triple)
        else:
            kg.add_triple(spec.triple)
    cold = ExEA(model, mutated, exea_config)
    reference = cold.reference_alignment()
    return {
        pair: (cold.explain(*pair), cold.repairer.confidence(*pair, reference))
        for pair in pairs
    }


def _cluster_leg(model, dataset, exea_config, specs, truth) -> dict:
    """Fan the same mutation log through a real subprocess cluster."""
    config = ServiceConfig(max_batch_size=32, num_workers=2)
    start = time.perf_counter()
    with ReplicatedLocalCluster(
        model,
        _dataset_copy(dataset),
        num_shards=2,
        num_replicas=2,
        service_config=config,
        exea_config=exea_config,
    ) as cluster:
        client = cluster.client
        for pair in truth:  # warm the remote caches pre-churn
            client.confidence(*pair)
        reports = [client.mutate([spec]) for spec in specs]
        matching = sum(
            1
            for pair, (explanation, confidence) in truth.items()
            if client.explain(*pair) == explanation
            and client.confidence(*pair) == confidence
        )
    return {
        "seconds": time.perf_counter() - start,
        "mutations": len(reports),
        "final_seq": reports[-1]["seq"] if reports else 0,
        "replicas_applied": min((len(r["replicas_applied"]) for r in reports), default=0),
        "scoped_on_every_replica": all(r["scoped"] for r in reports),
        "pairs_with_identical_results": matching,
    }


def test_mutation_churn(benchmark, quick):
    dataset, model = _live_fixtures()
    pairs = sample_correct_pairs(
        model, dataset, 30 if quick else NUM_PAIRS, seed=LIVE_SCALE.seed
    )
    num_requests = 150 if quick else NUM_REQUESTS
    workload = replay_workload(
        pairs,
        num_requests,
        seed=LIVE_SCALE.seed,
        skew=SKEW,
        kinds=(EXPLAIN, CONFIDENCE),
        kind_weights=KIND_WEIGHTS,
    )
    unique_pairs = sorted({(source, target) for _, source, target in workload})
    exea_config = ExEAConfig(explanation=ExplanationConfig(max_hops=MAX_HOPS))

    def measure():
        sweep = {}
        headline = {}
        for rate in WRITE_RATES if not quick else (HEADLINE_RATE,):
            specs = _mutation_stream(dataset, max(1, int(len(workload) * rate)))
            scoped = _churn_once(
                model, _dataset_copy(dataset), exea_config, workload, specs, scoped=True
            )
            sweep[f"{rate:.0%}"] = {
                "writes": len(specs),
                "scoped_hit_rate": scoped["hit_rate"],
                "scoped_p95_ms": scoped["p95_ms"],
            }
            if rate == HEADLINE_RATE:
                wholesale = _churn_once(
                    model, _dataset_copy(dataset), exea_config, workload, specs, scoped=False
                )
                truth = _cold_truth(model, dataset, exea_config, specs, unique_pairs)
                headline = {
                    "writes": len(specs),
                    "scoped": scoped,
                    "wholesale": wholesale,
                    "truth": truth,
                    "specs": specs,
                }

        scoped = headline["scoped"]
        wholesale = headline["wholesale"]
        truth = headline["truth"]
        matching = sum(
            1 for pair in unique_pairs if scoped["final"][pair] == truth[pair]
        )
        matching_wholesale = sum(
            1 for pair in unique_pairs if wholesale["final"][pair] == truth[pair]
        )
        cluster = _cluster_leg(model, dataset, exea_config, headline["specs"], truth)
        return {
            "workload": "ZH-EN-live",
            "model": model.name,
            "max_hops": MAX_HOPS,
            "kinds": [EXPLAIN, CONFIDENCE],
            "num_requests": len(workload),
            "num_unique_pairs": len(unique_pairs),
            "skew": SKEW,
            "write_rate": HEADLINE_RATE,
            "writes": headline["writes"],
            "scoped_hit_rate": scoped["hit_rate"],
            "scoped_p95_ms": scoped["p95_ms"],
            "scoped_rps": scoped["rps"],
            "scoped_invalidations": scoped["invalidation"]["scoped"],
            "scoped_entries_retained": scoped["invalidation"]["entries_retained"],
            "scoped_entries_dropped": scoped["invalidation"]["entries_dropped"],
            "max_blast_entities": scoped["invalidation"]["max_blast_entities"],
            "wholesale_hit_rate": wholesale["hit_rate"],
            "wholesale_p95_ms": wholesale["p95_ms"],
            "wholesale_rps": wholesale["rps"],
            "hit_rate_ratio": (
                scoped["hit_rate"] / wholesale["hit_rate"]
                if wholesale["hit_rate"]
                else float("inf")
            ),
            "pairs_with_identical_results": matching,
            "pairs_with_identical_results_wholesale": matching_wholesale,
            "write_rate_sweep": sweep,
            "cluster": cluster,
        }

    row = run_once(benchmark, measure)
    print()
    ratio = row["hit_rate_ratio"]
    print(
        f"[mutation-churn] {row['writes']} writes @ {row['write_rate']:.0%}: "
        f"scoped hit {row['scoped_hit_rate']:.3f} (p95 {row['scoped_p95_ms']:.2f} ms) vs "
        f"wholesale {row['wholesale_hit_rate']:.3f} (p95 {row['wholesale_p95_ms']:.2f} ms), "
        f"ratio {ratio if ratio == float('inf') else round(ratio, 1)}x; "
        f"{row['pairs_with_identical_results']}/{row['num_unique_pairs']} identical to cold rebuild"
    )
    leg = row["cluster"]
    print(
        f"[mutation-churn] cluster: seq {leg['final_seq']} on "
        f">= {leg['replicas_applied']} replicas, "
        f"{leg['pairs_with_identical_results']}/{row['num_unique_pairs']} identical "
        f"({leg['seconds']:.1f}s)"
    )

    # Hard invariants at any speed: churn must not change a result bit,
    # in process or through the cluster.
    assert row["pairs_with_identical_results"] == row["num_unique_pairs"]
    assert row["pairs_with_identical_results_wholesale"] == row["num_unique_pairs"]
    assert leg["pairs_with_identical_results"] == row["num_unique_pairs"]
    assert leg["replicas_applied"] == 4
    if quick:
        return  # smoke mode: no numeric assertions, no artifact writes
    row.pop("truth", None)
    _write_row(row["workload"], row)
    # Acceptance: scoped invalidation keeps >= 5x the wholesale hit rate
    # under the headline churn, and every write took the scoped path.
    assert row["scoped_hit_rate"] >= 5.0 * row["wholesale_hit_rate"]
    assert row["scoped_invalidations"] == row["writes"]
    assert row["max_blast_entities"] >= 1


if __name__ == "__main__":
    import pytest

    raise SystemExit(pytest.main([__file__, "-q", *sys.argv[1:]]))
