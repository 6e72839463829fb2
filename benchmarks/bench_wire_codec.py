"""Micro-benchmark: the binary wire v2 codec, plain and blob paths.

Measures the codec work alone (no sockets, no service): a realistic
batch-response frame of ZH-EN explanation results is encoded and decoded
in full, and through the blob paths the warm replay actually runs —
server-side splicing of pre-encoded results and client-side cached blob
decoding.  Three figures per path:

* ``encode_us_per_frame`` / ``decode_us_per_frame`` — best-of-``REPEATS``
  mean microseconds over ``ITERATIONS`` passes;
* ``frame_bytes`` — the encoded body size.

The workload mirrors the warm remote replay: ``BATCH`` results drawn
Zipf-style from a small set of hot explanation payloads, so the blob
paths get the duplicate-heavy traffic their caches exist for.

Results land in ``BENCH_wire.json`` next to this file.  Run directly
(``python bench_wire_codec.py [--quick]``) or via pytest; ``--quick`` is
the CI smoke mode (tiny counts, no assertions, no artifact writes).
"""

import json
import sys
import time
from pathlib import Path

from conftest import run_once
from repro.core import ExEA, ExEAConfig, ExplanationConfig
from repro.datasets import replay_workload
from repro.experiments import run_metadata, sample_correct_pairs
from repro.service.transport import decode_binary, encode_binary, encode_binary_value

ARTIFACT = Path(__file__).parent / "BENCH_wire.json"

#: Results per measured batch frame (the transport's BATCH_CHUNK_SIZE).
BATCH = 256
#: Unique hot pairs the batch draws from (the warm-replay working set).
HOT_PAIRS = 20
MAX_HOPS = 2
ITERATIONS = 30
REPEATS = 5


def _measure_us(function, iterations: int, repeats: int) -> float:
    """Best-of-*repeats* mean microseconds per call over *iterations*."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(iterations):
            function()
        best = min(best, time.perf_counter() - start)
    return best / iterations * 1e6


def test_wire_codec(benchmark, dataset_cache, model_cache, bench_scale, quick):
    dataset = dataset_cache("ZH-EN")
    model = model_cache("Dual-AMN", "ZH-EN")
    pairs = sample_correct_pairs(
        model, dataset, bench_scale.explanation_sample, seed=bench_scale.seed
    )
    exea = ExEA(model, dataset, ExEAConfig(explanation=ExplanationConfig(max_hops=MAX_HOPS)))
    reference = exea.reference_alignment()

    batch = 16 if quick else BATCH
    iterations = 3 if quick else ITERATIONS
    repeats = 1 if quick else REPEATS

    # A batch response frame as the server builds it: `batch` explanation
    # results over `HOT_PAIRS` unique hot pairs (Zipf-style duplication).
    workload = replay_workload(
        pairs[:HOT_PAIRS], batch, seed=bench_scale.seed, skew=1.0
    )
    explanations = {
        pair: exea.generator.explain(*pair, reference)
        for pair in {(source, target) for _, source, target in workload}
    }
    results = [explanations[(source, target)] for _, source, target in workload]

    raw_payload = {"results": [{"ok": item} for item in results]}
    blobs = {pair: encode_binary_value(item) for pair, item in explanations.items()}
    blob_payload = {
        "results": [{"ok": blobs[(source, target)]} for _, source, target in workload]
    }

    def measure():
        binary_body = encode_binary(raw_payload)
        spliced_body = encode_binary(blob_payload)
        decode_cache: dict = {}
        decode_binary(spliced_body, decode_cache)  # warm the blob cache

        row = {
            "workload": "ZH-EN-wire",
            "max_hops": MAX_HOPS,
            "model": model.name,
            "batch": batch,
            "unique_results": len(explanations),
            "iterations": iterations,
            "repeats": repeats,
            "binary": {
                "frame_bytes": len(binary_body),
                "encode_us_per_frame": _measure_us(
                    lambda: encode_binary(raw_payload), iterations, repeats
                ),
                "decode_us_per_frame": _measure_us(
                    lambda: decode_binary(binary_body), iterations, repeats
                ),
            },
            "binary_spliced": {
                "frame_bytes": len(spliced_body),
                # The server's warm path: splice pre-encoded blobs.
                "encode_us_per_frame": _measure_us(
                    lambda: encode_binary(blob_payload), iterations, repeats
                ),
                # The client's warm path: every blob hits the decode cache.
                "decode_us_per_frame": _measure_us(
                    lambda: decode_binary(spliced_body, decode_cache),
                    iterations,
                    repeats,
                ),
            },
        }
        row["spliced_vs_plain_encode"] = (
            row["binary"]["encode_us_per_frame"]
            / max(row["binary_spliced"]["encode_us_per_frame"], 1e-9)
        )
        row["cached_vs_plain_decode"] = (
            row["binary"]["decode_us_per_frame"]
            / max(row["binary_spliced"]["decode_us_per_frame"], 1e-9)
        )
        return row

    row = run_once(benchmark, measure)
    print()
    print(
        f"[wire] {row['batch']}-result frame: {row['binary']['frame_bytes']} B; "
        f"encode {row['binary']['encode_us_per_frame']:.0f} us vs "
        f"spliced {row['binary_spliced']['encode_us_per_frame']:.0f} us "
        f"({row['spliced_vs_plain_encode']:.1f}x); "
        f"decode {row['binary']['decode_us_per_frame']:.0f} us vs "
        f"cached {row['binary_spliced']['decode_us_per_frame']:.0f} us "
        f"({row['cached_vs_plain_decode']:.1f}x)"
    )

    # Correctness at any speed: both paths round-trip the same results.
    assert [slot["ok"] for slot in decode_binary(encode_binary(raw_payload))["results"]] == results
    assert [slot["ok"] for slot in decode_binary(encode_binary(blob_payload))["results"]] == results
    if quick:
        return  # smoke mode: no numeric assertions, no artifact writes
    ARTIFACT.write_text(
        json.dumps(
            {row["workload"]: {**row, "meta": run_metadata()}}, indent=2, sort_keys=True
        )
    )
    # The warm blob paths must beat the full codec pass in both directions.
    assert row["spliced_vs_plain_encode"] > 1.0
    assert row["cached_vs_plain_decode"] > 1.0


if __name__ == "__main__":
    import pytest

    raise SystemExit(pytest.main([__file__, "-q", *sys.argv[1:]]))
