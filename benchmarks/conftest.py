"""Shared fixtures for the benchmark harness.

Every benchmark module regenerates one table or figure of the paper's
evaluation (see DESIGN.md for the index).  Datasets and trained base models
are cached per session so the harness spends its time on the experiment
being measured, not on repeated training.

Scale: the benchmarks run the same code paths as the paper at a reduced,
CPU-friendly size (see ``BENCH_SCALE``).  Increase ``dataset_scale`` /
sample sizes for a closer run.
"""

import ctypes
import glob
import json
import os
import sys
from pathlib import Path

import numpy as np
import pytest

_SRC = Path(__file__).parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.experiments import ExperimentScale, prepare_dataset, run_metadata, train_model  # noqa: E402

#: Scale used by all benchmarks (reduced from the paper's 15k-pair datasets).
BENCH_SCALE = ExperimentScale(
    dataset_scale=0.3,
    embedding_dim=24,
    explanation_sample=20,
    verification_sample=30,
    llm_sample=15,
    seed=1,
)

#: All datasets / models of the paper's evaluation.
ALL_DATASETS = ("ZH-EN", "JA-EN", "FR-EN", "DBP-WD", "DBP-YAGO")
ALL_MODELS = ("MTransE", "AlignE", "GCN-Align", "Dual-AMN")
#: Subsets used by the LLM / noise experiments (as in the paper).
LLM_DATASETS = ("ZH-EN", "DBP-WD")
LLM_MODELS = ("MTransE", "Dual-AMN")


def pytest_addoption(parser):
    parser.addoption(
        "--quick",
        action="store_true",
        default=False,
        help=(
            "benchmark smoke mode: tiny workloads, no numeric assertions, "
            "no artifact writes (used by the CI smoke job)"
        ),
    )


@pytest.fixture(scope="session")
def quick(request):
    """True when the harness runs in --quick smoke mode."""
    return request.config.getoption("--quick")


@pytest.fixture(scope="session")
def bench_scale():
    return BENCH_SCALE


@pytest.fixture(scope="session")
def dataset_cache():
    """Session cache of benchmark datasets keyed by (name, noisy)."""
    cache = {}

    def get(name: str, noisy: bool = False):
        key = (name, noisy)
        if key not in cache:
            cache[key] = prepare_dataset(name, BENCH_SCALE, noisy_seed=noisy)
        return cache[key]

    return get


@pytest.fixture(scope="session")
def model_cache(dataset_cache):
    """Session cache of trained base models keyed by (model, dataset, noisy)."""
    cache = {}

    def get(model_name: str, dataset_name: str, noisy: bool = False):
        key = (model_name, dataset_name, noisy)
        if key not in cache:
            dataset = dataset_cache(dataset_name, noisy)
            cache[key] = train_model(model_name, dataset, BENCH_SCALE)
        return cache[key]

    return get


def run_once(benchmark, function):
    """Run *function* exactly once under pytest-benchmark and return its result."""
    return benchmark.pedantic(function, rounds=1, iterations=1, warmup_rounds=0)


def blas_threads() -> int | str:
    """Thread count of the OpenBLAS build NumPy loaded, when it can be asked."""
    libs_dir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs_dir / "*openblas*"))):
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(library, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def record_fresh_row(key: str, row: dict, quick: bool) -> None:
    """Append *row* to the ``REPRO_BENCH_FRESH_OUT`` file, when configured.

    The CI bench-smoke job points this env var at a scratch file; every
    benchmark records its freshly measured row there even in ``--quick``
    mode (which never touches the committed ``BENCH_*.json`` artifacts),
    and ``tools/check_bench.py`` then compares the fresh rows against the
    committed quick rows (``BENCH_quick.json``, written the same way) to
    catch order-of-magnitude performance collapses.  The row's ``meta``
    records the run metadata, the BLAS thread count in effect and whether
    it was measured in quick mode.
    """
    path = os.environ.get("REPRO_BENCH_FRESH_OUT")
    if not path:
        return
    target = Path(path)
    existing = {}
    if target.exists():
        existing = json.loads(target.read_text())
    meta = {
        **run_metadata(),
        "mode": "quick" if quick else "full",
        "nproc": os.cpu_count(),
        "blas_threads": blas_threads(),
    }
    existing[key] = {**row, "meta": meta}
    target.write_text(json.dumps(existing, indent=2, sort_keys=True))
