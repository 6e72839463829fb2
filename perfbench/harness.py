"""Pieces the workloads share: seeded inputs, set-up, the closed client
loop, percentile hygiene, peak RSS, run metadata and the result envelope
the benchmark prints.
"""

from __future__ import annotations

import ctypes
import glob
import itertools
import math
import os
import platform
import statistics
import subprocess
import threading
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from repro.datasets import generate_dataset
from repro.datasets.registry import benchmark_config
from repro.experiments.config import ExperimentScale
from repro.models import make_model
from repro.service import ServiceOverloadedError

#: Every workload runs on the ZH-EN synthetic benchmark.
DATASET = "ZH-EN"
#: Closed-loop client threads of the serving workload.
CLIENT_THREADS = 2
#: A percentile is printed only with at least this many samples beyond it.
MIN_BEYOND = 10
#: Set-up rounds per untraced run; ``setup_s`` reports their median.
SETUP_ROUNDS = 3
#: Per-call client timeout, so a wedged server fails a run instead of hanging it.
CALL_TIMEOUT_S = 60.0


# ----------------------------------------------------------------------
# Seeded inputs and set-up
# ----------------------------------------------------------------------
def dataset_config(scale: float, seed: int):
    """ZH-EN at *scale*, its generator seed offset by the run's *seed*."""
    config = benchmark_config(DATASET, scale=scale)
    return replace(config, seed=config.seed + seed)


def generate(scale: float, seed: int):
    """The seeded synthetic dataset instance of one run."""
    return generate_dataset(dataset_config(scale, seed))


def fit(model_name: str, dataset, seed: int):
    """Fit *model_name* with the default experiment scale, training seed offset by *seed*."""
    defaults = ExperimentScale()
    scale = ExperimentScale(embedding_dim=defaults.embedding_dim, seed=defaults.seed + seed)
    return make_model(model_name, scale.training_config()).fit(dataset)


# ----------------------------------------------------------------------
# Timing
# ----------------------------------------------------------------------
@dataclass
class LoopResult:
    """What a closed-loop phase did: per-kind latencies, errors, wall time."""

    wall_s: float
    latencies: dict[str, list[float]]
    #: completion time of each sample since the phase started, parallel to ``latencies``
    ends: dict[str, list[float]]
    raised: int
    refused: int
    errors: list[str]

    @property
    def completed(self) -> int:
        return sum(len(samples) for samples in self.latencies.values())

    @property
    def issued(self) -> int:
        return self.completed + self.raised + self.refused


def closed_loop(operation, num_ops: int, seconds: float, threads: int = CLIENT_THREADS) -> LoopResult:
    """Drive *operation* from *threads* clients in a closed loop.

    Each client takes the next operation index and calls
    ``operation(index)``, which performs it and returns its kind
    (``"read"`` or ``"write"``) and the seconds its client call took,
    timed around the call alone so the benchmark's own answer checks
    stay out of the latency.  A client sends its next operation only
    when the previous one returned.  The phase ends when *seconds* have
    passed or *num_ops* operations have been issued.  A refusal
    (backpressure) or any other raised error is counted instead of a
    latency.
    """
    indices = itertools.count()
    lock = threading.Lock()
    latencies: dict[str, list[float]] = defaultdict(list)
    ends: dict[str, list[float]] = defaultdict(list)
    counts = {"raised": 0, "refused": 0}
    errors: list[str] = []
    started = time.perf_counter()
    deadline = started + seconds

    def client() -> None:
        mine: dict[str, list[float]] = defaultdict(list)
        mine_ends: dict[str, list[float]] = defaultdict(list)
        raised = refused = 0
        while time.perf_counter() < deadline:
            index = next(indices)
            if index >= num_ops:
                break
            try:
                kind, call_seconds = operation(index)
            except ServiceOverloadedError:
                refused += 1
                continue
            except Exception:  # noqa: BLE001 - the loop must keep running; counted and reported
                raised += 1
                if len(errors) < 3:
                    errors.append(traceback.format_exc())
                continue
            mine[kind].append(call_seconds)
            mine_ends[kind].append(time.perf_counter() - started)
        with lock:
            for kind, samples in mine.items():
                latencies[kind].extend(samples)
                ends[kind].extend(mine_ends[kind])
            counts["raised"] += raised
            counts["refused"] += refused

    workers = [threading.Thread(target=client, name=f"client-{i}") for i in range(threads)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    return LoopResult(
        wall_s=time.perf_counter() - started,
        latencies=dict(latencies),
        ends=dict(ends),
        raised=counts["raised"],
        refused=counts["refused"],
        errors=errors,
    )


def percentile(samples: list[float], quantile: float) -> dict | None:
    """Nearest-rank percentile with its sample count and the count beyond it.

    Returns ``None`` — the percentile is refused — when fewer than
    :data:`MIN_BEYOND` samples lie beyond it.
    """
    count = len(samples)
    rank = max(1, math.ceil(quantile * count))
    beyond = count - rank
    if count == 0 or beyond < MIN_BEYOND:
        return None
    return {"value": sorted(samples)[rank - 1], "samples": count, "beyond": beyond}


def describe_percentile(label: str, stats: dict | None) -> str:
    """One report line for a latency percentile, or its refusal."""
    if stats is None:
        return f"{label}: refused (fewer than {MIN_BEYOND} samples beyond it)"
    return f"{label} = {stats['value'] * 1000.0:.4f} ms (n={stats['samples']}, {stats['beyond']} beyond)"


def fast_quartile(values: list[float], lower_is_better: bool = True) -> float:
    """The quartile of *values* on the good side: Q1 of times, Q3 of rates.

    The machine this benchmark was built on changes speed by up to 1.7x
    in phases from under a second to minutes (a fixed pure-Python loop
    takes 36 to 60 ms), so per-window figures of one run spread widely
    and their median moves with the share of slow phases.  The
    good-side quartile tracks the undisturbed speed, and a change to the
    program moves every window alike.
    """
    if len(values) == 1:
        return values[0]
    first, _, third = statistics.quantiles(values, n=4, method="inclusive")
    return first if lower_is_better else third


def latency_metrics(groups: list[list[float]], what: str, outcome: "Outcome") -> dict[str, "Metric"]:
    """``p50_ms``/``p90_ms`` of each group of samples (seconds), reduced by :func:`fast_quartile`.

    A group is a time window; a single group is reported as is.  The
    pooled percentiles and a diagnostic p99 go to the report.  Raises
    when a group's percentile would rest on fewer than
    :data:`MIN_BEYOND` samples beyond it: the run then prints no result.
    """
    pooled = [sample for samples in groups for sample in samples]
    for label, quantile in (("p50", 0.5), ("p90", 0.9), ("p99 (diagnostic)", 0.99)):
        outcome.lines.append(describe_percentile(f"{what} pooled {label}", percentile(pooled, quantile)))
    metrics = {}
    for name, quantile in (("p50_ms", 0.5), ("p90_ms", 0.9)):
        per_group = [percentile(samples, quantile) for samples in groups]
        if not per_group or any(stats is None for stats in per_group):
            raise RuntimeError(f"{what}: too few samples for {name}")
        smallest = min(per_group, key=lambda stats: stats["samples"])
        over = f"first quartile over {len(groups)} windows, each " if len(groups) > 1 else ""
        metrics[name] = Metric(
            fast_quartile([stats["value"] for stats in per_group]) * 1000.0,
            "ms",
            f"{what}, {over}n>={smallest['samples']} with >={smallest['beyond']} beyond",
        )
    return metrics


def windowed(loop: LoopResult, window_s: float) -> tuple[list[float], list[list[float]]]:
    """Operations per second and read latencies of each full *window_s* window."""
    count = int(loop.wall_s // window_s)
    if count < 3:
        raise RuntimeError(f"a {loop.wall_s:.1f} s phase holds fewer than 3 windows of {window_s} s")
    operations = [0] * count
    reads: list[list[float]] = [[] for _ in range(count)]
    for kind, ends in loop.ends.items():
        for end, latency in zip(ends, loop.latencies[kind]):
            window = int(end // window_s)
            if window < count:
                operations[window] += 1
                if kind == "read":
                    reads[window].append(latency)
    return [ops / window_s for ops in operations], reads


# ----------------------------------------------------------------------
# Memory and metadata
# ----------------------------------------------------------------------
def peak_rss_mb(pid: int | None = None) -> float:
    """Peak resident set size (VmHWM) of *pid*, or of this process, in MB."""
    target = "self" if pid is None else str(pid)
    try:
        with open(f"/proc/{target}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    if pid is None:
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return 0.0


def openblas_threads() -> int | str:
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


def git_commit(root: Path) -> str:
    """HEAD of the checkout when it is a git repository, else ``"unknown"``."""
    if not (root / ".git").exists():
        return "unknown"
    try:
        result = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return result.stdout.strip() if result.returncode == 0 else "unknown"


def run_metadata(root: Path, seed: int) -> dict:
    """Provenance of one run; workloads add their input sizes."""
    return {
        "git_commit": git_commit(root),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas_threads": openblas_threads(),
        "seed": seed,
    }


# ----------------------------------------------------------------------
# Result envelope
# ----------------------------------------------------------------------
@dataclass
class Metric:
    """One named figure with its unit and an optional note for the report."""

    value: float
    unit: str
    note: str = ""


@dataclass
class Outcome:
    """Everything one workload run measured and checked.

    ``end_to_end`` holds the metrics BENCHMARK.json lists (every workload
    reports every one of them); ``report`` holds the workload's own
    figures, printed by name but not part of the result line;
    ``per_layer`` is filled by traced runs only.
    """

    workload: str
    setup_rounds: list[float] = field(default_factory=list)
    end_to_end: dict[str, Metric] = field(default_factory=dict)
    report: dict[str, Metric] = field(default_factory=dict)
    per_layer: dict[str, Metric] = field(default_factory=dict)
    lines: list[str] = field(default_factory=list)
    meta: dict = field(default_factory=dict)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    failed: int = 0

    def check(self, ok: bool, what: str, count: int = 1) -> bool:
        """Count *count* attempted answers; record *what* when they failed."""
        self.attempted += count
        if not ok:
            self.failed += count
            self.failures.append(what)
        return ok

    def mismatches(self, failed: int, attempted: int, what: str) -> None:
        """Count *attempted* answers of which *failed* were wrong."""
        self.attempted += attempted
        if failed:
            self.failed += failed
            self.failures.append(f"{what}: {failed} of {attempted}")

    def count_loop(self, loop: LoopResult) -> None:
        """Count a closed-loop phase's raised and refused operations as failed."""
        self.attempted += loop.raised + loop.refused
        if loop.raised or loop.refused:
            self.failed += loop.raised + loop.refused
            self.failures.append(f"{loop.raised} raised, {loop.refused} refused")
            self.failures.extend(loop.errors)

    @property
    def error_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
