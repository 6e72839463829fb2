"""Bench-smoke tripwire: fresh quick rows vs the committed quick rows.

The CI bench-smoke job runs every benchmark in ``--quick`` mode with
``REPRO_BENCH_FRESH_OUT`` pointing at a scratch file, so each benchmark
records the row it just measured without touching the committed
``benchmarks/BENCH_*.json`` artifacts.  This script then compares the
fresh rows against a committed reference of rows measured the same way
and fails ONLY on a catastrophic collapse: a workload whose committed
warm throughput exceeds the fresh measurement by more than
``--max-collapse`` (default 3x).  Warm throughput is ``warm_rps``, or
``remote_warm_rps`` on the ``ZH-EN-remote`` row — the one quick row that
crosses the process boundary.

The default reference is ``benchmarks/BENCH_quick.json``: quick rows
written through ``REPRO_BENCH_FRESH_OUT`` with their run metadata
(``meta.mode == "quick"``).  Full-mode rows replay ten times as many
requests, so their warm throughput sits several times above any quick
measurement; they are not a reference.  Regenerate it from the
``benchmarks/`` directory with the bench-smoke sequence and
``REPRO_BENCH_FRESH_OUT=BENCH_quick.json``.

Quick mode runs a tenth of the full workload on a shared CI runner, so
absolute numbers are noisy by design — the deliberately loose factor
catches "the batcher stopped batching" / "the cache stopped hitting"
regressions, not single-digit-percent drift.  Workloads present on only
one side are reported but never fail the check (new benchmarks land
before their committed row).

Usage::

    python tools/check_bench.py --fresh /tmp/fresh.json \
        [--committed benchmarks/BENCH_quick.json ...] [--max-collapse 3.0]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
#: Committed quick-mode rows the fresh rows are compared against.
DEFAULT_REFERENCE = REPO_ROOT / "benchmarks" / "BENCH_quick.json"

#: Row metrics the tripwire watches (throughput only; latencies are far
#: too machine-dependent for a cross-run comparison).  ``remote_warm_rps``
#: is the warm replay through shard server subprocesses (``ZH-EN-remote``).
WATCHED_KEYS = ("warm_rps", "remote_warm_rps")


def load_rows(paths: list[Path]) -> dict:
    """Merge the ``{workload: row}`` documents at *paths* (later wins)."""
    merged: dict = {}
    for path in paths:
        document = json.loads(path.read_text())
        if isinstance(document, dict):
            merged.update(
                {key: row for key, row in document.items() if isinstance(row, dict)}
            )
    return merged


def compare(fresh: dict, committed: dict, max_collapse: float = 3.0) -> dict:
    """Compare fresh rows against committed ones.

    Returns ``{"failures": [...], "checked": [...], "skipped": [...]}``
    where each failure names the workload, metric, both values and the
    collapse factor.  Only workloads AND metrics present on both sides
    are compared; a fresh value of zero with a non-zero committed one is
    an infinite collapse and always fails.
    """
    failures: list[dict] = []
    checked: list[str] = []
    skipped: list[str] = []
    for workload in sorted(set(fresh) | set(committed)):
        if workload not in fresh or workload not in committed:
            skipped.append(workload)
            continue
        fresh_row, committed_row = fresh[workload], committed[workload]
        compared = False
        for key in WATCHED_KEYS:
            fresh_value = fresh_row.get(key)
            committed_value = committed_row.get(key)
            if not isinstance(fresh_value, (int, float)) or not isinstance(
                committed_value, (int, float)
            ):
                continue
            if committed_value <= 0:
                continue
            compared = True
            collapse = committed_value / fresh_value if fresh_value > 0 else float("inf")
            if collapse > max_collapse:
                failures.append(
                    {
                        "workload": workload,
                        "metric": key,
                        "fresh": fresh_value,
                        "committed": committed_value,
                        "collapse": collapse,
                    }
                )
        if compared:
            checked.append(workload)
        else:
            skipped.append(workload)
    return {"failures": failures, "checked": checked, "skipped": skipped}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--fresh",
        required=True,
        help="fresh quick rows written via REPRO_BENCH_FRESH_OUT",
    )
    parser.add_argument(
        "--committed",
        action="append",
        default=None,
        help="committed quick-row file(s); default: benchmarks/BENCH_quick.json",
    )
    parser.add_argument(
        "--max-collapse",
        type=float,
        default=3.0,
        help="largest tolerated committed/fresh warm-rps ratio (default: 3.0)",
    )
    args = parser.parse_args(argv)

    fresh_path = Path(args.fresh)
    if not fresh_path.exists():
        print(f"check_bench: fresh rows file {fresh_path} does not exist", file=sys.stderr)
        print(
            "check_bench: did the bench run export REPRO_BENCH_FRESH_OUT?", file=sys.stderr
        )
        return 2
    committed_paths = [Path(path) for path in args.committed or [DEFAULT_REFERENCE]]
    fresh = load_rows([fresh_path])
    committed = load_rows(committed_paths)
    result = compare(fresh, committed, max_collapse=args.max_collapse)

    failed_workloads = {failure["workload"] for failure in result["failures"]}
    for workload in result["checked"]:
        if workload not in failed_workloads:
            print(f"check_bench: {workload}: ok")
    for workload in result["skipped"]:
        print(f"check_bench: {workload}: skipped (no watched metric on both sides)")
    for failure in result["failures"]:
        print(
            f"check_bench: FAIL {failure['workload']}.{failure['metric']}: "
            f"fresh {failure['fresh']:.0f} vs committed {failure['committed']:.0f} "
            f"({failure['collapse']:.1f}x collapse > {args.max_collapse:.1f}x)",
            file=sys.stderr,
        )
    if result["failures"]:
        return 1
    if not result["checked"]:
        print("check_bench: no overlapping workloads to compare", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
