"""The fleet doctor: one ranked diagnosis out of every telemetry plane.

``python -m repro.service doctor`` scrapes a fleet (endpoints or
topology) exactly like the ``metrics`` subcommand, then runs
:func:`diagnose` over the stats snapshot: SLO evaluations, alert state,
routing/fleet snapshots, queue depths, per-replica latency and wire
telemetry are condensed into an ordered list of findings — most severe
first — so one command answers "is the fleet healthy, and if not, which
shard/replica/stage is burning the budget".

:func:`diagnose` is a pure function of the snapshot (plus optional SLO
evaluations), so every check is unit-testable on synthetic snapshots
without a cluster.  Severities are ``critical`` (page-worthy: dead
replicas, page-level burn), ``warning`` (budget erosion, skew, revoked
leases) and ``info`` (context: stage hotspots, slow-request counts).
The overall ``health`` is ``critical`` / ``degraded`` / ``healthy``
from the worst finding present.
"""

from __future__ import annotations

from typing import Mapping

#: Finding severities, most severe first (the ranking order).
SEVERITIES = ("critical", "warning", "info")

#: A replica whose p95 exceeds the fleet median by this factor is called out.
SLOW_REPLICA_FACTOR = 2.0
#: Request-share imbalance (max/mean) that counts as a skewed partition.
IMBALANCE_FACTOR = 1.5
#: Error-budget fraction under which an objective is flagged even unfired.
LOW_BUDGET_FRACTION = 0.25


def _finding(severity: str, code: str, message: str, **details) -> dict:
    return {"severity": severity, "code": code, "message": message, "details": details}


def _median(values: list[float]) -> float:
    ordered = sorted(values)
    return ordered[len(ordered) // 2] if ordered else 0.0


def _replica_rows(stats: Mapping) -> list[dict]:
    """Per-replica rows (endpoint, health, lease, probed p95/queue) of a cluster snapshot."""
    routing = stats.get("routing")
    if isinstance(routing, Mapping) and isinstance(routing.get("replicas"), list):
        return [row for row in routing["replicas"] if isinstance(row, Mapping)]
    return []


def diagnose(
    stats: Mapping,
    evaluations: Mapping | None = None,
    firing: Mapping[str, str] | None = None,
) -> dict:
    """Rank one stats snapshot into ``{"health", "findings", "summary"}``.

    *stats* is a
    :meth:`~repro.service.cluster.client.ClusterClient.stats_snapshot` shape;
    *evaluations* is :meth:`SLOEngine.evaluate` output and *firing* the
    alerter's active set — both default to whatever the snapshot's own
    ``"slo"`` section carries, so a scrape of an SLO-configured cluster
    client needs no extra arguments.
    """
    findings: list[dict] = []
    slo = stats.get("slo")
    if isinstance(slo, Mapping):
        if evaluations is None and isinstance(slo.get("objectives"), Mapping):
            evaluations = slo["objectives"]
        if firing is None:
            alerts = slo.get("alerts")
            if isinstance(alerts, Mapping) and isinstance(alerts.get("firing"), Mapping):
                firing = alerts["firing"]

    # -- liveness: unreachable replicas are the loudest possible signal --
    unreachable = stats.get("unreachable")
    if isinstance(unreachable, list) and unreachable:
        findings.append(
            _finding(
                "critical",
                "unreachable-replicas",
                f"{len(unreachable)} replica(s) unreachable: {', '.join(sorted(unreachable))}",
                endpoints=sorted(unreachable),
            )
        )

    rows = _replica_rows(stats)
    down = [row for row in rows if not row.get("healthy", True)]
    if down:
        names = ", ".join(str(row.get("endpoint")) for row in down)
        findings.append(
            _finding(
                "critical",
                "replicas-marked-down",
                f"{len(down)} replica(s) marked down by the failure detector: {names}",
                endpoints=[row.get("endpoint") for row in down],
            )
        )
    revoked = [
        row for row in rows if row.get("healthy", True) and not row.get("lease_ok", True)
    ]
    if revoked:
        names = ", ".join(str(row.get("endpoint")) for row in revoked)
        findings.append(
            _finding(
                "warning",
                "leases-revoked",
                f"{len(revoked)} replica(s) answering pings but lease-revoked "
                f"(stalled work): {names}",
                endpoints=[row.get("endpoint") for row in revoked],
            )
        )

    # -- SLO state: firing alerts first, then quiet budget erosion --
    if firing:
        for name, severity in sorted(firing.items()):
            evaluation = (evaluations or {}).get(name, {})
            burn = evaluation.get("burn", {}) if isinstance(evaluation, Mapping) else {}
            findings.append(
                _finding(
                    "critical" if severity == "page" else "warning",
                    "slo-burn-alert",
                    f"objective '{name}' is firing at {severity} severity "
                    f"(burn rates: "
                    + ", ".join(f"{window}={rate:.1f}" for window, rate in sorted(burn.items()))
                    + ")",
                    objective=name,
                    alert_severity=severity,
                    burn=dict(burn),
                    budget_remaining=evaluation.get("budget_remaining"),
                )
            )
    if isinstance(evaluations, Mapping):
        for name, evaluation in sorted(evaluations.items()):
            if not isinstance(evaluation, Mapping):
                continue
            if firing and name in firing:
                continue
            budget = evaluation.get("budget_remaining")
            if isinstance(budget, (int, float)) and budget < LOW_BUDGET_FRACTION:
                findings.append(
                    _finding(
                        "warning",
                        "error-budget-low",
                        f"objective '{name}' has {budget:.0%} of its error budget left",
                        objective=name,
                        budget_remaining=budget,
                    )
                )

    # -- who is slow: per-replica p95 against the fleet median --
    latencies = [
        (row, float(row.get("p95_ms") or 0.0)) for row in rows if row.get("healthy", True)
    ]
    positive = [value for _, value in latencies if value > 0.0]
    if len(positive) >= 2:
        median = _median(positive)
        slow = [
            (row, value)
            for row, value in latencies
            if median > 0.0 and value > SLOW_REPLICA_FACTOR * median
        ]
        for row, value in sorted(slow, key=lambda item: -item[1]):
            findings.append(
                _finding(
                    "warning",
                    "slow-replica",
                    f"replica {row.get('endpoint')} (shard {row.get('shard')}) "
                    f"p95 {value:.1f} ms is {value / median:.1f}x the fleet median "
                    f"({median:.1f} ms)",
                    endpoint=row.get("endpoint"),
                    shard=row.get("shard"),
                    replica=row.get("replica"),
                    p95_ms=value,
                    median_p95_ms=median,
                )
            )

    # -- queue depth skew: someone is absorbing more work than peers --
    depths = [(row, int(row.get("queue_depth") or 0)) for row in rows]
    total_depth = sum(value for _, value in depths)
    if depths and total_depth:
        deepest, depth = max(depths, key=lambda item: item[1])
        mean = total_depth / len(depths)
        if depth > 4 * max(mean, 1.0):
            findings.append(
                _finding(
                    "warning",
                    "queue-depth-skew",
                    f"replica {deepest.get('endpoint')} holds {depth} queued requests "
                    f"({mean:.1f} fleet mean)",
                    endpoint=deepest.get("endpoint"),
                    queue_depth=depth,
                    mean_queue_depth=mean,
                )
            )

    overall = stats.get("overall")
    overall = overall if isinstance(overall, Mapping) else {}

    # -- partition skew: one shard carrying an outsized request share --
    imbalance = overall.get("shard_imbalance")
    if isinstance(imbalance, Mapping):
        share = imbalance.get("request_share")
        if isinstance(share, Mapping):
            factor = float(share.get("max_over_mean") or 1.0)
            if factor > IMBALANCE_FACTOR:
                findings.append(
                    _finding(
                        "warning",
                        "shard-imbalance",
                        f"hottest shard carries {factor:.2f}x its fair request share",
                        max_over_mean=factor,
                    )
                )

    # -- fleet control-plane context: what autonomy already did --
    fleet = stats.get("fleet")
    if isinstance(fleet, Mapping):
        counters = fleet.get("counters")
        if isinstance(counters, Mapping):
            revocations = int(counters.get("lease_revocations") or 0)
            restored = int(counters.get("lease_restored") or 0)
            if revocations > restored:
                findings.append(
                    _finding(
                        "warning",
                        "leases-outstanding",
                        f"{revocations - restored} lease revocation(s) not yet restored",
                        revoked=revocations,
                        restored=restored,
                    )
                )

    # -- where the time goes: the hottest pipeline stage by p95 --
    stage_latency = overall.get("stage_latency_ms")
    if isinstance(stage_latency, Mapping):
        stages = {
            name: row.get("p95_ms", 0.0)
            for name, row in stage_latency.items()
            if isinstance(row, Mapping)
            and row.get("count")
            and not str(name).startswith("request")
        }
        if stages:
            hottest = max(stages, key=lambda name: stages[name])
            findings.append(
                _finding(
                    "info",
                    "stage-hotspot",
                    f"hottest pipeline stage is '{hottest}' "
                    f"(p95 {stages[hottest]:.2f} ms)",
                    stage=hottest,
                    p95_ms=stages[hottest],
                    stages_p95_ms=stages,
                )
            )

    slow_count = int(overall.get("slow_requests") or 0)
    if slow_count:
        findings.append(
            _finding(
                "info",
                "slow-requests-logged",
                f"{slow_count} request(s) crossed the slow-request threshold "
                "(join their trace_id against the span rings)",
                slow_requests=slow_count,
            )
        )

    wire = stats.get("client_wire")
    if isinstance(wire, Mapping) and isinstance(wire.get("overall"), Mapping):
        frames = int(wire["overall"].get("frames_sent") or 0)
        if frames:
            findings.append(
                _finding(
                    "info",
                    "wire-traffic",
                    f"client wire: {frames} frames sent, "
                    f"{int(wire['overall'].get('bytes_sent') or 0)} bytes out / "
                    f"{int(wire['overall'].get('bytes_received') or 0)} bytes in",
                    **{
                        key: int(value)
                        for key, value in wire["overall"].items()
                        if isinstance(value, (int, float))
                    },
                )
            )

    rank = {severity: index for index, severity in enumerate(SEVERITIES)}
    findings.sort(key=lambda finding: rank.get(finding["severity"], len(SEVERITIES)))
    worst = findings[0]["severity"] if findings else "info"
    if worst == "critical":
        health = "critical"
    elif worst == "warning":
        health = "degraded"
    else:
        health = "healthy"
    counts = {
        severity: sum(1 for finding in findings if finding["severity"] == severity)
        for severity in SEVERITIES
    }
    return {
        "health": health,
        "findings": findings,
        "summary": {
            "counts": counts,
            "replicas": len(rows),
            "objectives": sorted(evaluations) if isinstance(evaluations, Mapping) else [],
        },
    }


def render_diagnosis(diagnosis: Mapping) -> str:
    """Human-readable form of one :func:`diagnose` result."""
    health = str(diagnosis.get("health", "unknown")).upper()
    findings = diagnosis.get("findings") or []
    lines = [f"fleet health: {health}"]
    summary = diagnosis.get("summary") or {}
    counts = summary.get("counts") or {}
    lines.append(
        "findings: "
        + ", ".join(f"{counts.get(severity, 0)} {severity}" for severity in SEVERITIES)
    )
    objectives = summary.get("objectives") or []
    if objectives:
        lines.append("objectives evaluated: " + ", ".join(objectives))
    for index, finding in enumerate(findings, start=1):
        lines.append(
            f"{index:2d}. [{finding.get('severity', '?'):8s}] {finding.get('message', '')}"
        )
    if not findings:
        lines.append("no findings — nothing to report")
    return "\n".join(lines)


__all__ = [
    "IMBALANCE_FACTOR",
    "LOW_BUDGET_FRACTION",
    "SEVERITIES",
    "SLOW_REPLICA_FACTOR",
    "diagnose",
    "render_diagnosis",
]
