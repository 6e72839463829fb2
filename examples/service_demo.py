"""Explanation-as-a-service demo: dispatcher-batched serving in process.

Trains a base model, starts the in-process explanation service, and pushes
a skewed traffic replay through concurrent clients — the serving analogue
of examples/quickstart.py.  Shows the three served operations (explain,
repair-confidence, verify), cache invalidation on a KG mutation, and the
telemetry the service keeps.  Sharding is a deployment of ``serve``
processes (see docs/OPERATIONS.md, "Running a cluster").

Run with:  python examples/service_demo.py
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent.parent / "src"))

from repro.datasets import load_benchmark, replay_workload
from repro.models import DualAMN, TrainingConfig
from repro.service import (
    ExEAClient,
    ExplanationService,
    ServiceConfig,
    replay_concurrently,
)


def main() -> None:
    # 1. Dataset + base model, as in the quickstart.
    dataset = load_benchmark("ZH-EN", scale=0.4)
    model = DualAMN(TrainingConfig(dim=32, seed=0)).fit(dataset)
    print(f"{model.name} greedy-alignment accuracy: {model.accuracy():.3f}")

    # 2. Start the service: 2 workers, batches of up to 16 requests that
    #    hold whatever queued while the workers were busy, a 4k-entry
    #    versioned LRU cache.
    config = ServiceConfig(max_batch_size=16, num_workers=2)
    with ExplanationService(model, dataset, config) as service:
        client = ExEAClient(service)

        # 3. Single requests: the three served operations (pick a correctly
        #    predicted pair so the matching subgraph is informative).
        predictions = model.predict()
        correct = sorted(p for p in predictions if p in dataset.test_alignment.pairs)
        pair = correct[0] if correct else sorted(predictions.pairs)[0]
        explanation = client.explain(*pair)
        confidence = client.confidence(*pair)
        verdict = client.verify(*pair)
        print(f"\n{pair}: {len(explanation.matched_paths)} matched paths, "
              f"confidence {confidence:.3f}, verified={verdict}")

        # 4. Concurrent replay: 6 clients, Zipf-skewed traffic over the
        #    predicted pairs.  Hot pairs are served from the cache.
        workload = replay_workload(sorted(model.predict().pairs), 300, seed=1, skew=1.2)
        elapsed = replay_concurrently(client, workload, num_clients=6)
        print(f"\nReplayed {len(workload)} requests in {elapsed * 1000:.0f}ms "
              f"({len(workload) / elapsed:.0f} req/s)")

        # 5. Mutate the KG: the version counters invalidate the cache, the
        #    next request recomputes against the new graph.
        removed = sorted(dataset.kg1.triples, key=lambda t: t.as_tuple())[0]
        dataset.kg1.remove_triple(removed)
        client.explain(*pair)
        print(f"\nAfter removing {removed}: cache invalidated "
              f"({service.stats.cache_invalidations} invalidation(s))")

        # 6. Telemetry.
        print("\nService stats:")
        for key, value in sorted(service.stats.snapshot().items()):
            print(f"  {key:25s} {value:.3f}" if isinstance(value, float) else f"  {key:25s} {value}")


if __name__ == "__main__":
    main()
