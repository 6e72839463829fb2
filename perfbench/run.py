"""Run one benchmark workload and print its metrics, the last line as JSON.

    python3 perfbench/run.py --workload offline-repair --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload remote-hot-rw --seed 1 --seconds 12 --trace 1
    python3 perfbench/run.py --self-test

Run from the root of a checkout.  ``--trace 0`` reports the end-to-end
metrics BENCHMARK.json lists, ``--trace 1`` the per-layer ones (and
writes the spans to ``.bench_out/``).  See ``perfbench/README.md``.
"""

import time

PROCESS_START = time.perf_counter()  # setup_s counts the imports below

import argparse  # noqa: E402
import contextlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("offline-repair", "remote-hot-rw")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="check that one altered answer makes error_ratio > 0")
    args = parser.parse_args(argv)
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    return args


def _prepare_environment() -> None:
    """Import path, BLAS threads and temp files, before NumPy is first imported.

    OpenBLAS runs one thread per process unless the caller says
    otherwise: with Python threads (and, on remote-hot-rw, three
    processes) sharing two cores, BLAS worker threads that spin between
    calls turn into run-to-run noise.  Spawned shard servers inherit it.
    """
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    temp_dir = OUT_DIR / "tmp"
    temp_dir.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(temp_dir)  # inherited by spawned shard servers
    tempfile.tempdir = str(temp_dir)


def _runner(workload: str):
    from perfbench import offline, remote

    return {
        "offline-repair": offline.run,
        "remote-hot-rw": remote.run_remote_hot_rw,
    }[workload]


def _expected_metrics(trace: int) -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [metric["name"] for metric in spec["per_layer" if trace else "end_to_end"]]


def _emit(outcome, args, import_s: float) -> None:
    from perfbench.harness import Metric, run_metadata

    if not args.trace:
        setup_s = import_s + statistics.median(outcome.setup_rounds)
        outcome.end_to_end["setup_s"] = Metric(
            setup_s, "s", f"imports {import_s:.3f} s + median of {len(outcome.setup_rounds)} set-up rounds"
        )
    meta = {**run_metadata(ROOT, args.seed), **outcome.meta, "seconds": args.seconds, "trace": args.trace}
    print(f"perfbench {outcome.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("meta " + json.dumps(meta, sort_keys=True))
    for line in outcome.lines:
        print(line)
    shown = outcome.per_layer if args.trace else {**outcome.report, **outcome.end_to_end}
    for name, metric in shown.items():
        print(f"{name} = {metric.value:.6g} {metric.unit}" + (f"  ({metric.note})" if metric.note else ""))
    print(f"error_ratio = {outcome.error_ratio:.6g} ratio ({outcome.failed} of {outcome.attempted})")
    for failure in outcome.failures:
        print("FAILED: " + failure.rstrip())

    metrics = outcome.per_layer if args.trace else outcome.end_to_end
    expected = _expected_metrics(args.trace)
    if sorted(metrics) != sorted(expected):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(expected)}")
    result = {
        "correct": outcome.failed == 0 and outcome.attempted > 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": metrics[name].value, "unit": metrics[name].unit} for name in expected},
    }
    print(json.dumps(result))


@contextlib.contextmanager
def _patched(owner, attribute: str, value):
    original = getattr(owner, attribute)
    setattr(owner, attribute, value)
    try:
        yield
    finally:
        setattr(owner, attribute, original)


def _alter_first(original, alter):
    calls = itertools.count()

    def altered(*args, **kwargs):
        value = original(*args, **kwargs)
        return alter(value) if next(calls) == 0 else value

    return altered


def _self_test() -> int:
    """Small runs of each workload, clean and with one altered confidence answer."""
    from perfbench import offline, remote
    from repro.core import ExEA
    from repro.service import ClusterClient

    cases = (
        ("offline-repair", offline, offline.run, ExEA, "confidence"),
        ("remote-hot-rw", remote, remote.run_remote_hot_rw, ClusterClient, "confidence"),
    )
    ok = True
    for name, module, run, owner, attribute in cases:
        with _patched(module, "SCALE", 1.0), _patched(module, "SETUP_ROUNDS", 1):
            clean = run(0, 3.0)
            with _patched(owner, attribute, _alter_first(getattr(owner, attribute), lambda v: v + 1e-9)):
                altered = run(0, 3.0)
        passed = clean.failed == 0 and altered.error_ratio > 0
        ok &= passed
        print(
            f"self-test {name}: clean error_ratio={clean.error_ratio:.6g} ({clean.failed} of {clean.attempted}),"
            f" one altered {owner.__name__}.{attribute} answer error_ratio={altered.error_ratio:.6g}"
            f" ({altered.failed} of {altered.attempted}) -> {'ok' if passed else 'FAILED'}"
        )
    return 0 if ok else 1


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    _prepare_environment()
    if args.self_test:
        return _self_test()
    run = _runner(args.workload)
    import_s = time.perf_counter() - PROCESS_START
    tracer = None
    if args.trace:
        from perfbench.tracing import Tracer

        tracer = Tracer(run_id=f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
    outcome = run(args.seed, args.seconds, tracer)
    if tracer is not None:
        tracer.write(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json", outcome.meta)
    _emit(outcome, args, import_s)
    return 0


if __name__ == "__main__":
    sys.exit(main())
