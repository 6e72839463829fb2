"""Fit-scale benchmark: GCN-Align and Dual-AMN training time and memory vs graph size.

Both GCN-based models propagate entity features over an ``(n, n)``
operator of the union graph of the two KGs.  This benchmark fits each
model on ZH-EN at scales 1, 5 and 10 (≈860 to ≈8.5k nodes) with the
default training settings and records, per model and scale:

* ``nodes`` and ``nnz`` — entities of both KGs, and the stored cells of
  the propagation operator (one per distinct entity pair joined by a
  triple or seed pair, in either direction, plus the diagonal);
* ``fit_seconds`` — wall time of one untraced ``fit``;
* ``peak_traced_mb`` — the ``tracemalloc`` peak of a second, separate
  ``fit``, and ``peak_dense_matrices``, that peak over the size of one
  dense ``n x n`` float64 matrix;
* ``base_accuracy`` — Hits@1 of the greedy prediction over the test
  alignment;
* ``meta`` — commit, CPU count, Python and NumPy versions and the BLAS
  thread count.

Rows are keyed ``<model>-ZH-EN-<scale>-<propagation>``.  Checkouts from
before the sparse operator trained on a dense ``n x n`` matrix; the
script labels its rows ``dense`` there and ``sparse`` otherwise, so one
``BENCH_fit.json`` can hold both curves.

Results are written to ``BENCH_fit.json`` next to this file.  Run
directly (``python bench_fit_scale.py [--quick]``) or via pytest.
``--quick`` is the CI smoke mode: scale 1 only, no numeric assertions,
no artifact writes.
"""

import importlib.util
import json
import os
import platform
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import blas_threads, run_once
from repro.datasets import generate_dataset
from repro.datasets.registry import benchmark_config
from repro.experiments import ExperimentScale, run_metadata
from repro.models import EntityIndex, make_model

ARTIFACT = Path(__file__).parent / "BENCH_fit.json"

DATASET = "ZH-EN"
MODELS = ("GCN-Align", "Dual-AMN")
SCALES = (1, 5, 10)
#: The one scale ``--quick`` runs.
QUICK_SCALE = 1
#: Propagation operator of the checkout under test.
PROPAGATION = "sparse" if importlib.util.find_spec("repro.models.sparse") else "dense"


def _graph_size(dataset) -> tuple[int, int]:
    """Nodes and stored cells of the propagation operator over *dataset*."""
    index = EntityIndex(dataset)
    cells = {(node, node) for node in range(index.num_entities())}
    edges = [(t.head, t.tail) for kg in (dataset.kg1, dataset.kg2) for t in kg.triples]
    for first, second in edges + list(dataset.train_alignment):
        i, j = index.entity_to_id[first], index.entity_to_id[second]
        cells.update({(i, j), (j, i)})
    return index.num_entities(), len(cells)


def _write_row(key: str, row: dict) -> None:
    existing = json.loads(ARTIFACT.read_text()) if ARTIFACT.exists() else {}
    existing[key] = row
    ARTIFACT.write_text(json.dumps(existing, indent=2, sort_keys=True))


@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("model_name", MODELS)
def test_fit_scale(benchmark, quick, model_name, scale):
    if quick and scale != QUICK_SCALE:
        pytest.skip(f"--quick runs scale {QUICK_SCALE} only")
    dataset = generate_dataset(benchmark_config(DATASET, scale=scale))
    config = ExperimentScale().training_config()

    def measure():
        nodes, nnz = _graph_size(dataset)
        started = time.perf_counter()
        model = make_model(model_name, config).fit(dataset)
        fit_seconds = time.perf_counter() - started
        tracemalloc.start()
        try:
            traced = make_model(model_name, config).fit(dataset)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        dense_bytes = nodes * nodes * np.dtype(np.float64).itemsize
        return {
            "model": model_name,
            "dataset": DATASET,
            "scale": scale,
            "propagation": PROPAGATION,
            "nodes": nodes,
            "nnz": nnz,
            "dim": config.dim,
            "epochs": model.epochs,
            "fit_seconds": fit_seconds,
            "peak_traced_mb": peak / 1e6,
            "peak_dense_matrices": peak / dense_bytes,
            "base_accuracy": model.predict().accuracy(dataset.test_alignment),
            "traced_fit_identical": bool(np.array_equal(model.entity_matrix, traced.entity_matrix)),
            "meta": {
                **run_metadata(),
                "nproc": os.cpu_count(),
                "python": platform.python_version(),
                "numpy": np.__version__,
                "blas_threads": blas_threads(),
            },
        }

    row = run_once(benchmark, measure)
    print()
    print(
        f"[fit-scale] {model_name} ZH-EN x{scale} ({PROPAGATION}): {row['nodes']} nodes, "
        f"{row['nnz']} nnz, fit {row['fit_seconds']:.2f} s, traced peak "
        f"{row['peak_traced_mb']:.0f} MB ({row['peak_dense_matrices']:.2f} dense), "
        f"base acc {row['base_accuracy']:.4f}"
    )
    # Fitting is seeded: tracing the allocations must not change a bit.
    assert row["traced_fit_identical"]
    if quick:
        return  # smoke mode: no numeric assertions, no artifact writes
    _write_row(f"{model_name}-{DATASET}-{scale}-{PROPAGATION}", row)


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q", "-s", *sys.argv[1:]]))
