"""CLI of the service stack: in-process replay, shard serving, remote replay.

Five subcommands (see ``docs/OPERATIONS.md`` for the full reference):

* ``replay`` (the default when no subcommand is given, preserving the
  historic invocation) — load a registry dataset, fit a model, serve a
  scripted Zipf traffic replay through the in-process sharded service::

      PYTHONPATH=src python -m repro.service --dataset ZH-EN --model Dual-AMN \\
          --requests 400 --clients 8 --workers 2 --shards 4 --mix mixed

* ``serve`` — host ONE shard group in THIS process behind a TCP/Unix
  socket (run one such process per shard)::

      PYTHONPATH=src python -m repro.service serve --dataset ZH-EN \\
          --shard-id 0 --num-shards 2 --listen 127.0.0.1:7401

  Prints ``READY {json}`` (including the resolved ephemeral port for
  ``--listen host:0``) once accepting, then serves until a ``shutdown``
  request or SIGTERM.  ``--snapshot PATH`` serves a pickled model/dataset
  snapshot instead of refitting (what tests and benchmarks use).

* ``cluster`` — replay scripted traffic against running shard servers,
  with health-checked failover and load-aware routing.  ``--endpoints``
  lists one server per shard, in shard order; ``--topology`` reads a
  declarative topology file (JSON/TOML; shard → ordered replica
  endpoints + weights) for a **replicated** cluster::

      PYTHONPATH=src python -m repro.service cluster \\
          --endpoints 127.0.0.1:7401,127.0.0.1:7402 --requests 400 --clients 8
      PYTHONPATH=src python -m repro.service cluster \\
          --topology cluster.json --requests 400 --clients 8

* ``metrics`` — scrape running servers and emit their merged telemetry in
  Prometheus text-exposition format (to stdout or ``--out``; with
  ``--interval SECONDS`` it re-scrapes periodically and rewrites
  ``--out`` atomically so readers never see a torn file)::

      PYTHONPATH=src python -m repro.service metrics \\
          --endpoints 127.0.0.1:7401,127.0.0.1:7402

* ``doctor`` — scrape a fleet once, evaluate its SLOs, and print a
  ranked diagnosis (which shard/replica/stage is burning the error
  budget); exits non-zero when the fleet is in a critical state::

      PYTHONPATH=src python -m repro.service doctor --topology cluster.json

All of the replay subcommands print a JSON report; ``--stats-json PATH``
additionally dumps the raw :class:`~repro.service.stats.ServiceStats`
snapshot (overall + per-shard rows) for machine consumption and
``--metrics-out PATH`` writes the same telemetry in Prometheus text
format.  Replays are deterministic (seeded Zipf traffic over the model's
predicted pairs) and results are bit-identical across ``--shards``
choices and the in-process/remote boundary.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time

from ..datasets import load_benchmark, replay_workload
from ..models import TrainingConfig, make_model
from .cluster import (
    ClusterClient,
    ClusterManager,
    ClusterTopology,
    RebalanceConfig,
    WeightConfig,
    load_topology,
    topology_for_endpoints,
)
from .config import ServiceConfig
from .observability import (
    BurnRateAlerter,
    SLOConfigError,
    SLOEngine,
    TailSampleConfig,
    TailSampler,
    default_objectives,
    diagnose,
    prometheus_text,
    render_diagnosis,
    resolve_objectives,
)
from .service import CONFIDENCE, EXPLAIN, VERIFY, ExEAClient, replay_concurrently
from .sharding import ShardedExplanationService
from .transport import DEFAULT_MAX_FRAME_BYTES, ShardServer, read_snapshot

SUBCOMMANDS = ("replay", "serve", "cluster", "metrics", "doctor")


# ----------------------------------------------------------------------
# Shared argument groups
# ----------------------------------------------------------------------
def _add_model_arguments(parser: argparse.ArgumentParser) -> None:
    """Dataset/model spec shared by ``replay`` and spec-mode ``serve``."""
    parser.add_argument("--dataset", default="ZH-EN", help="registry dataset name (default: ZH-EN)")
    parser.add_argument("--model", default="Dual-AMN", help="base EA model name (default: Dual-AMN)")
    parser.add_argument("--scale", type=float, default=0.3, help="dataset scale factor")
    parser.add_argument("--dim", type=int, default=24, help="embedding dimensionality")
    parser.add_argument("--seed", type=int, default=1, help="training / traffic seed")


def _add_service_arguments(parser: argparse.ArgumentParser) -> None:
    """ServiceConfig knobs shared by every subcommand that builds a service."""
    parser.add_argument("--workers", type=int, default=2, help="worker threads per shard")
    parser.add_argument("--max-batch-size", type=int, default=32)
    parser.add_argument("--queue-capacity", type=int, default=1024)
    parser.add_argument("--cache-capacity", type=int, default=4096)
    parser.add_argument(
        "--deadline-ms", type=float, default=None, help="per-request deadline (default: none)"
    )
    parser.add_argument(
        "--slow-ms",
        type=float,
        default=None,
        help=(
            "log any request slower than this many milliseconds (pair, latency, "
            "per-stage breakdown) into the slow-request ring shown by --stats-json"
        ),
    )
    parser.add_argument(
        "--trace-buffer",
        type=int,
        default=2048,
        help="per-process span ring capacity for traced requests (0 disables tracing)",
    )


def _add_traffic_arguments(parser: argparse.ArgumentParser) -> None:
    """Replay-traffic knobs shared by ``replay`` and ``cluster``."""
    parser.add_argument("--requests", type=int, default=400, help="replay length")
    parser.add_argument("--clients", type=int, default=8, help="concurrent replay clients")
    parser.add_argument("--skew", type=float, default=1.0, help="Zipf skew of the traffic")
    parser.add_argument(
        "--mix",
        default="explain",
        choices=["explain", "mixed"],
        help="request mix: explain-only or explain+confidence+verify",
    )
    parser.add_argument("--json", dest="json_path", default=None, help="also write the report here")
    parser.add_argument(
        "--stats-json",
        dest="stats_json_path",
        default=None,
        help="write the raw ServiceStats snapshot (overall + per-shard rows) here",
    )
    parser.add_argument(
        "--metrics-out",
        dest="metrics_out_path",
        default=None,
        help="write the final telemetry in Prometheus text-exposition format here",
    )


def _add_addressing_arguments(parser: argparse.ArgumentParser) -> None:
    """How ``cluster``/``metrics``/``doctor`` find the fleet (see :func:`_topology`)."""
    parser.add_argument(
        "--endpoints",
        default=None,
        help=(
            "comma-separated shard endpoints ordered by shard id, one replica each "
            "(host:port or unix:/path)"
        ),
    )
    parser.add_argument(
        "--topology",
        default=None,
        help="cluster topology file (.json or .toml; see docs/OPERATIONS.md) instead of --endpoints",
    )


def _topology(args: argparse.Namespace, prog: str) -> ClusterTopology | None:
    """The addressed fleet's topology, or ``None`` (exit 2) on bad addressing.

    Exactly one of ``--endpoints`` or ``--topology`` is required.
    ``--endpoints A,B`` is the one-replica topology: endpoint ``i`` serves
    shard ``i``.
    """
    if bool(args.endpoints) == bool(args.topology):
        print(f"{prog}: exactly one of --endpoints or --topology is required", file=sys.stderr)
        return None
    if args.endpoints:
        return topology_for_endpoints(
            [[endpoint.strip()] for endpoint in args.endpoints.split(",") if endpoint.strip()]
        )
    return load_topology(args.topology)


def _add_client_sampling_arguments(parser: argparse.ArgumentParser) -> None:
    """Client-side trace sampling shared by ``cluster``/``metrics``/``doctor``."""
    parser.add_argument(
        "--tail-sample",
        type=float,
        default=None,
        metavar="FRACTION",
        help=(
            "enable tail-based trace sampling: trace this fraction of requests "
            "(deterministic rotation, 0..1) and keep only the traces that turn out "
            "slow, errored, or retried across replicas (plus --tail-keep-fast of "
            "the healthy ones); without it every traced request is kept"
        ),
    )
    parser.add_argument(
        "--tail-slow-ms",
        type=float,
        default=250.0,
        help="tail sampling keeps any trace at least this slow end-to-end (default: 250)",
    )
    parser.add_argument(
        "--tail-keep-fast",
        type=float,
        default=0.0,
        metavar="FRACTION",
        help="healthy-baseline fraction of fast, clean traces tail sampling keeps (default: 0)",
    )


def _add_slo_arguments(parser: argparse.ArgumentParser) -> None:
    """Objective sources shared by ``cluster`` and ``doctor``."""
    parser.add_argument(
        "--slo-config",
        default=None,
        help="SLO objectives file (.json or .toml; see docs/OPERATIONS.md)",
    )
    parser.add_argument(
        "--slo",
        action="append",
        default=None,
        metavar="SPEC",
        help=(
            "inline objective, repeatable: name:latency:THRESHOLD_MS:TARGET[:HISTOGRAM] "
            "or name:errors:TARGET (e.g. explain-p95:latency:250:0.95:request.explain)"
        ),
    )


def _resolve_slo_objectives(args: argparse.Namespace):
    """Objectives from ``--slo-config`` / ``--slo``, exiting 2 on bad specs."""
    try:
        return resolve_objectives(args.slo_config, args.slo)
    except SLOConfigError as error:
        print(f"slo: {error}", file=sys.stderr)
        raise SystemExit(2) from error


def _tail_sampler(args: argparse.Namespace) -> TailSampler | None:
    """Build the tail sampler from the CLI flags, or ``None`` when disabled."""
    if args.tail_sample is None:
        return None
    try:
        config = TailSampleConfig(
            trace_fraction=args.tail_sample,
            slow_ms=args.tail_slow_ms,
            keep_fast_fraction=args.tail_keep_fast,
        )
    except ValueError as error:
        print(f"tail sampling: {error}", file=sys.stderr)
        raise SystemExit(2) from error
    return TailSampler(config)


def _service_config(args: argparse.Namespace, num_shards: int = 1) -> ServiceConfig:
    """Build the ServiceConfig from parsed CLI knobs."""
    return ServiceConfig(
        max_batch_size=args.max_batch_size,
        queue_capacity=args.queue_capacity,
        num_workers=args.workers,
        cache_capacity=args.cache_capacity,
        default_deadline_ms=args.deadline_ms,
        num_shards=num_shards,
        trace_buffer=args.trace_buffer,
        slow_request_ms=args.slow_ms,
    )


def _fit_model(args: argparse.Namespace):
    """Load the registry dataset and fit the base model per the CLI spec."""
    print(f"[service] loading {args.dataset} (scale {args.scale}) ...", file=sys.stderr)
    dataset = load_benchmark(args.dataset, scale=args.scale)
    print(f"[service] fitting {args.model} (dim {args.dim}) ...", file=sys.stderr)
    model = make_model(args.model, TrainingConfig(dim=args.dim, seed=args.seed)).fit(dataset)
    return model, dataset


def _workload(args: argparse.Namespace, pairs: list[tuple[str, str]]):
    """Deterministic Zipf replay over *pairs* per the traffic knobs."""
    kinds = (EXPLAIN,) if args.mix == "explain" else (EXPLAIN, CONFIDENCE, VERIFY)
    return replay_workload(pairs, args.requests, seed=args.seed, skew=args.skew, kinds=kinds)


def _emit_report(report: dict, stats: dict, args: argparse.Namespace) -> None:
    """Print the JSON report and honour ``--json`` / ``--stats-json``."""
    text = json.dumps(report, indent=2, sort_keys=True)
    print(text)
    if args.json_path:
        with open(args.json_path, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    if args.stats_json_path:
        with open(args.stats_json_path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(stats, indent=2, sort_keys=True) + "\n")
    if getattr(args, "metrics_out_path", None):
        with open(args.metrics_out_path, "w", encoding="utf-8") as handle:
            handle.write(prometheus_text(stats))


# ----------------------------------------------------------------------
# replay — the in-process sharded replay (historic default)
# ----------------------------------------------------------------------
def build_replay_parser() -> argparse.ArgumentParser:
    """Parser of the (default) in-process ``replay`` subcommand."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description=(
            "Serve EA explanations for a registry dataset and replay scripted traffic "
            "(the `replay` subcommand, and the default when no subcommand is given)."
        ),
        epilog=(
            "other subcommands: `serve` hosts one shard group behind a TCP/Unix socket "
            "(one process per shard); `cluster` replays traffic against running shard "
            "servers, one per shard or a replicated topology with failover. "
            "Run `python -m repro.service serve --help` / `cluster --help`, "
            "or see docs/OPERATIONS.md."
        ),
    )
    _add_model_arguments(parser)
    _add_traffic_arguments(parser)
    _add_service_arguments(parser)
    parser.add_argument(
        "--shards", type=int, default=1, help="shard groups the pair space partitions into"
    )
    return parser


#: Back-compat alias — the historic module exposed ``build_parser``.
build_parser = build_replay_parser


def replay_main(argv: list[str]) -> int:
    """Fit a model and replay traffic through the in-process sharded service."""
    args = build_replay_parser().parse_args(argv)
    model, dataset = _fit_model(args)
    workload = _workload(args, sorted(model.predict().pairs))
    config = _service_config(args, num_shards=args.shards)

    print(
        f"[service] replaying {len(workload)} requests over {args.clients} clients "
        f"({args.shards} shard(s)) ...",
        file=sys.stderr,
    )
    with ShardedExplanationService(model, dataset, config) as service:
        elapsed = replay_concurrently(ExEAClient(service), workload, args.clients)

    stats = service.stats_snapshot()
    report = {
        "dataset": dataset.name,
        "model": model.name,
        "transport": "local",
        "num_requests": len(workload),
        "num_clients": args.clients,
        "seconds": elapsed,
        "requests_per_second": len(workload) / elapsed if elapsed > 0 else 0.0,
        "service": stats["overall"],
        "num_shards": stats["num_shards"],
        "config": {
            "max_batch_size": config.max_batch_size,
            "queue_capacity": config.queue_capacity,
            "num_workers": config.num_workers,
            "cache_capacity": config.cache_capacity,
            "num_shards": config.num_shards,
        },
    }
    _emit_report(report, stats, args)
    return 0


# ----------------------------------------------------------------------
# serve — one shard group behind a socket, in this process
# ----------------------------------------------------------------------
def build_serve_parser() -> argparse.ArgumentParser:
    """Parser of the ``serve`` subcommand (one shard server process)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.service serve",
        description="Host one shard group of the explanation service behind a socket.",
    )
    parser.add_argument(
        "--snapshot",
        default=None,
        help=(
            "serve a pickled model/dataset snapshot instead of fitting from the spec below; "
            "a service config embedded in the snapshot takes precedence over the CLI service flags"
        ),
    )
    _add_model_arguments(parser)
    _add_service_arguments(parser)
    parser.add_argument("--shard-id", type=int, default=0, help="this process's shard index")
    parser.add_argument("--num-shards", type=int, default=1, help="total shard processes")
    parser.add_argument(
        "--listen",
        default="127.0.0.1:0",
        help="host:port or unix:/path to listen on (port 0 = ephemeral, reported via READY)",
    )
    parser.add_argument(
        "--max-frame-kb",
        type=int,
        default=DEFAULT_MAX_FRAME_BYTES // 1024,
        help="largest accepted request/response frame, in KiB",
    )
    parser.add_argument(
        "--lease-ttl",
        type=float,
        default=None,
        help="liveness lease this server grants on pings, in seconds (default: 15)",
    )
    return parser


def serve_main(argv: list[str]) -> int:
    """Run one shard server until shutdown is requested."""
    args = build_serve_parser().parse_args(argv)

    exea_config = None
    if args.snapshot:
        snapshot = read_snapshot(args.snapshot)
        model, dataset = snapshot["model"], snapshot["dataset"]
        config = snapshot.get("service_config")
        exea_config = snapshot.get("exea_config")
        if config is not None:
            # The snapshot's embedded config wins so every shard of a
            # cluster serves under identical tuning; say so instead of
            # silently discarding the CLI flags.
            print(
                "[service] using the service config embedded in the snapshot "
                "(CLI service flags ignored)",
                file=sys.stderr,
            )
        else:
            config = _service_config(args)
    else:
        model, dataset = _fit_model(args)
        config = _service_config(args)

    # Each server process hosts exactly ONE shard group; cross-process
    # sharding is the client's CRC-32 routing over --num-shards endpoints.
    from .service import ExplanationService

    service = ExplanationService(model, dataset, config, exea_config=exea_config)
    server_kwargs = {}
    if args.lease_ttl is not None:
        server_kwargs["lease_ttl"] = args.lease_ttl
    server = ShardServer(
        service,
        shard_id=args.shard_id,
        num_shards=args.num_shards,
        max_frame_bytes=args.max_frame_kb * 1024,
        **server_kwargs,
    )
    address = server.bind(args.listen)
    service.start()
    ready = {
        "shard_id": args.shard_id,
        "num_shards": args.num_shards,
        "address": address,
        "dataset": dataset.name,
        "model": model.name,
    }
    print("READY " + json.dumps(ready, sort_keys=True), flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
        service.close(drain=False)
    return 0


# ----------------------------------------------------------------------
# cluster — replicated replay through the control plane
# ----------------------------------------------------------------------
def build_cluster_parser() -> argparse.ArgumentParser:
    """Parser of the ``cluster`` subcommand (replicated remote replay)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.service cluster",
        description=(
            "Replay scripted traffic against running shard servers (one per shard, or a "
            "replicated topology), with health-checked failover and load-aware routing."
        ),
    )
    _add_addressing_arguments(parser)
    _add_traffic_arguments(parser)
    _add_client_sampling_arguments(parser)
    _add_slo_arguments(parser)
    parser.add_argument("--seed", type=int, default=1, help="traffic seed")
    parser.add_argument("--timeout", type=float, default=60.0, help="per-request socket timeout (s)")
    parser.add_argument(
        "--probe-interval", type=float, default=0.5, help="seconds between health-probe cycles"
    )
    parser.add_argument(
        "--miss-threshold",
        type=int,
        default=3,
        help="consecutive failed pings before a replica is marked down",
    )
    parser.add_argument(
        "--lease-ttl",
        type=float,
        default=None,
        help=(
            "arm lease-based liveness checking: revoke a replica's routing lease when "
            "this many seconds pass without a successful ping, or when its queued work "
            "stalls (default: off)"
        ),
    )
    parser.add_argument(
        "--adaptive-weights",
        action="store_true",
        help=(
            "adapt effective replica weights from probed p95/queue skew "
            "(EMA-smoothed, clamped, flap-damped; default: off)"
        ),
    )
    parser.add_argument(
        "--rebalance",
        action="store_true",
        help=(
            "migrate pair slots between shard groups online when the request share "
            "stays imbalanced (dual-routed handoff, atomic table flip; default: off)"
        ),
    )
    parser.add_argument(
        "--rebalance-threshold",
        type=float,
        default=1.25,
        help="imbalance ratio (max shard share / mean) that counts as skewed",
    )
    parser.add_argument(
        "--rebalance-sustain",
        type=int,
        default=3,
        help="consecutive skewed evaluations before slots migrate",
    )
    parser.add_argument(
        "--shutdown",
        action="store_true",
        help="ask every replica server to exit after the replay",
    )
    return parser


def cluster_main(argv: list[str]) -> int:
    """Replay deterministic traffic through a replicated, health-checked cluster."""
    args = build_cluster_parser().parse_args(argv)
    topology = _topology(args, "cluster")
    if topology is None:
        return 2
    manager = ClusterManager(
        topology,
        probe_interval=args.probe_interval,
        miss_threshold=args.miss_threshold,
        lease_ttl=args.lease_ttl,
        weights=WeightConfig() if args.adaptive_weights else None,
        rebalance=RebalanceConfig(
            threshold=args.rebalance_threshold, sustain=args.rebalance_sustain
        )
        if args.rebalance
        else None,
    )
    with ClusterClient(
        topology,
        manager=manager,
        timeout=args.timeout,
        tail_sampler=_tail_sampler(args),
        slo_objectives=_resolve_slo_objectives(args),
    ) as client:
        pairs = client.pairs()
        workload = _workload(args, pairs)
        print(
            f"[service] replaying {len(workload)} requests over {args.clients} clients "
            f"against {topology.num_shards} shard(s) x up to {topology.num_replicas} "
            "replica(s) ...",
            file=sys.stderr,
        )
        elapsed = replay_concurrently(client, workload, args.clients)
        stats = client.stats_snapshot()
        if args.shutdown:
            client.shutdown_servers()
        manager.stop()

    report = {
        "transport": "cluster",
        "topology": topology.to_dict(),
        "num_requests": len(workload),
        "num_clients": args.clients,
        "seconds": elapsed,
        "requests_per_second": len(workload) / elapsed if elapsed > 0 else 0.0,
        "service": stats["overall"],
        "num_shards": stats["num_shards"],
        "num_replicas": stats["num_replicas"],
        "routing": stats["routing"],
    }
    if "slo" in stats:
        report["slo"] = stats["slo"]
    _emit_report(report, stats, args)
    return 0


# ----------------------------------------------------------------------
# metrics — scrape running servers into Prometheus text exposition
# ----------------------------------------------------------------------
def build_metrics_parser() -> argparse.ArgumentParser:
    """Parser of the ``metrics`` subcommand (Prometheus-text scrape)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.service metrics",
        description=(
            "Pull the merged telemetry of running shard servers (or a replicated "
            "cluster) and print it in Prometheus text-exposition format."
        ),
    )
    _add_addressing_arguments(parser)
    _add_client_sampling_arguments(parser)
    parser.add_argument("--timeout", type=float, default=10.0, help="per-request socket timeout (s)")
    parser.add_argument("--out", default=None, help="also write the exposition text here")
    parser.add_argument(
        "--interval",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "re-scrape every SECONDS until interrupted, rewriting --out atomically "
            "each cycle so readers never observe a torn file (default: scrape once)"
        ),
    )
    parser.add_argument(
        "--count",
        type=int,
        default=None,
        help=argparse.SUPPRESS,  # stop after N scrapes in --interval mode (tests)
    )
    return parser


def _write_text_atomic(path: str, text: str) -> None:
    """Write *text* to *path* with no torn intermediate state.

    The content lands in a temporary file in the same directory first and
    is renamed over the target, so a concurrent reader (a Prometheus
    textfile collector, a tailing dashboard) sees either the previous
    scrape or the new one — never a partial write.
    """
    target = os.path.abspath(path)
    directory = os.path.dirname(target) or "."
    fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".metrics-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp_path, target)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def _build_scrape_client(args: argparse.Namespace, prog: str) -> ClusterClient | None:
    """The cluster client the scrape subcommands read, or ``None`` (exit 2)."""
    topology = _topology(args, prog)
    if topology is None:
        return None
    return ClusterClient(topology, timeout=args.timeout, tail_sampler=_tail_sampler(args))


def metrics_main(argv: list[str]) -> int:
    """Scrape server telemetry and emit Prometheus text exposition.

    One-shot by default; ``--interval`` turns it into a long-lived
    exporter loop that keeps the client's connections warm and rewrites
    ``--out`` atomically per cycle (printing to stdout only when no
    ``--out`` is given, so the loop composes with shell pipelines).
    """
    args = build_metrics_parser().parse_args(argv)
    client = _build_scrape_client(args, "metrics")
    if client is None:
        return 2
    scrapes = 0
    try:
        with client:
            while True:
                text = prometheus_text(client.stats_snapshot())
                if args.out:
                    _write_text_atomic(args.out, text)
                if not args.out or args.interval is None:
                    print(text, end="", flush=True)
                scrapes += 1
                if args.interval is None:
                    break
                if args.count is not None and scrapes >= args.count:
                    break
                time.sleep(args.interval)
    except KeyboardInterrupt:
        pass
    return 0


# ----------------------------------------------------------------------
# doctor — one ranked diagnosis of a running fleet
# ----------------------------------------------------------------------
def build_doctor_parser() -> argparse.ArgumentParser:
    """Parser of the ``doctor`` subcommand (ranked fleet diagnosis)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.service doctor",
        description=(
            "Scrape a running fleet, evaluate its SLOs, and print a ranked diagnosis: "
            "which shard/replica/stage is burning the error budget, what is firing, "
            "what the control plane already did about it."
        ),
    )
    _add_addressing_arguments(parser)
    _add_client_sampling_arguments(parser)
    _add_slo_arguments(parser)
    parser.add_argument("--timeout", type=float, default=10.0, help="per-request socket timeout (s)")
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the machine-readable diagnosis instead of the human summary",
    )
    return parser


def doctor_main(argv: list[str]) -> int:
    """Diagnose a running fleet; exit 1 when its health is critical.

    The doctor is a fresh process, so it cannot see any long-lived
    client's alert history — it evaluates the configured objectives
    (``--slo``/``--slo-config``, defaulting to the stock request-latency
    and availability pair) against the fleet's *lifetime* counters in one
    shot: the zero-baseline burn windows make a single scrape meaningful.
    """
    args = build_doctor_parser().parse_args(argv)
    objectives = _resolve_slo_objectives(args) or default_objectives()
    client = _build_scrape_client(args, "doctor")
    if client is None:
        return 2
    with client:
        stats = client.stats_snapshot()
    engine = SLOEngine(objectives)
    engine.observe(stats["overall"])
    evaluations = engine.evaluate()
    alerter = BurnRateAlerter()
    alerter.update(evaluations)
    diagnosis = diagnose(stats, evaluations, alerter.firing())
    if args.json:
        document = {
            "diagnosis": diagnosis,
            "slo": {"objectives": evaluations, "alerts": alerter.snapshot()},
        }
        print(json.dumps(document, indent=2, sort_keys=True))
    else:
        print(render_diagnosis(diagnosis))
    return 1 if diagnosis["health"] == "critical" else 0


# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    """Entry point: dispatch replay (default) / serve / cluster / metrics / doctor.

    A bare word that is not a known subcommand fails fast with the list
    of valid ones — falling through to the replay parser would turn a
    typo like ``sevre`` into a confusing unrecognized-arguments error.
    """
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and not argv[0].startswith("-"):
        if argv[0] == "serve":
            return serve_main(argv[1:])
        if argv[0] == "cluster":
            return cluster_main(argv[1:])
        if argv[0] == "metrics":
            return metrics_main(argv[1:])
        if argv[0] == "doctor":
            return doctor_main(argv[1:])
        if argv[0] == "replay":
            argv = argv[1:]
        else:
            print(
                f"unknown subcommand {argv[0]!r}; expected one of "
                f"{', '.join(SUBCOMMANDS)} (default: replay)",
                file=sys.stderr,
            )
            return 2
    return replay_main(argv)


if __name__ == "__main__":
    raise SystemExit(main())
