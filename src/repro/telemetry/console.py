"""Cluster console: render the framework's live state as a text table.

``repro top`` drives this — one row per worker (state, tasks completed,
throughput, RPC health, signal reaction latency) plus space, failover,
admission and SLO-alert summary lines.  :func:`cluster_snapshot` reads
the state once, as one plain dict (``repro top --json`` and CI scripts
print it); :func:`cluster_table` formats that dict.  Reading changes
nothing, so either can be called from a monitor process mid-run (live
frames) or once after ``framework.run()`` returns (final snapshot).
"""

from __future__ import annotations

from typing import Any, Optional

__all__ = ["cluster_snapshot", "cluster_table"]


def _fmt_ms(value: Optional[float]) -> str:
    return f"{value:,.0f}" if value is not None else "-"


def _signal_latencies(metrics: Any, hostname: str) -> list[float]:
    out = []
    for _, payload in metrics.events_named("signal-honored"):
        if payload.get("worker") == hostname:
            latency = payload.get("latency_ms")
            if latency is not None:
                out.append(float(latency))
    return out


def _wal_totals(spaces: list) -> Optional[dict]:
    """Log and checkpoint figures summed over the durable spaces (None
    when no space has a write-ahead log)."""
    stores = [space.wal.store for space in spaces if hasattr(space, "wal")]
    if not stores:
        return None
    return {
        "commits": sum(store.last_lsn() for store in stores),
        "syncs": sum(store.syncs for store in stores),
        "checkpoints": sum(store.checkpoints for store in stores),
        "tail_bytes": sum(store.tail_bytes for store in stores),
        "state_bytes": sum(store.state_bytes for store in stores),
    }


def _match_totals(spaces: list) -> dict:
    """``JavaSpace.match_stats`` summed over the spaces."""
    totals: dict[str, int] = {}
    for space in spaces:
        for key, value in space.match_stats.items():
            totals[key] = totals.get(key, 0) + value
    return totals


def _space_counts(space: dict) -> str:
    return (f"writes={space['writes']} takes={space['takes']} "
            f"reads={space['reads']} queue≈{space['queue']} "
            f"wakeups={space['wakeups']} bytes={space['bytes_written']:,}")


def cluster_table(framework: Any, report: Any = None) -> str:
    """One frame of the cluster console for ``framework``: its
    :func:`cluster_snapshot`, formatted."""
    snapshot = cluster_snapshot(framework, report)
    header = (f"{'worker':<12} {'state':<10} {'tasks':>5} {'tasks/s':>8} "
              f"{'busy ms':>9} {'reconn':>6} {'retry':>5} "
              f"{'sig p50':>8} {'sig max':>8}")
    lines = [f"cluster {snapshot['app']!r}  t={snapshot['t_ms']:,.0f} ms",
             header, "-" * len(header)]

    for worker in snapshot["workers"]:
        lines.append(
            f"{worker['host']:<12} {worker['state']:<10} "
            f"{worker['tasks']:>5} {worker['tasks_per_s']:>8.2f} "
            f"{_fmt_ms(worker['busy_ms']):>9} {worker['reconnects']:>6} "
            f"{worker['retries']:>5} {_fmt_ms(worker['signal_p50_ms']):>8} "
            f"{_fmt_ms(worker['signal_max_ms']):>8}")

    lines.append("-" * len(header))
    shards = snapshot["shards"]
    if len(shards) > 1:
        # Sharded space: one line per partition, then the merged totals.
        for i, shard in enumerate(shards):
            lines.append(f"shard {i:<2} {_space_counts(shard)}")
    space = snapshot["space"]
    match = space["match"]
    # match: what finding those entries cost — ids walked, field
    # indexes built.
    lines.append(
        f"space: {_space_counts(space)} "
        f"match: {match['scan_steps']} steps/"
        f"{match['index_builds']} indexes")

    wal = snapshot.get("wal")
    if wal is not None:
        # Durability cost: what the checkpoint trigger weighs (the log
        # tail against the last checkpoint) and how often it fired.
        lines.append(
            f"wal: commits={wal['commits']} syncs={wal['syncs']} "
            f"checkpoints={wal['checkpoints']} "
            f"tail={wal['tail_bytes']:,}B state={wal['state_bytes']:,}B")

    failover = snapshot.get("failover")
    if failover is not None:
        # Failover/fencing health: one summary line for the supervisor
        # fleet — current epoch per shard, promotions performed, and how
        # many stale-epoch RPCs the fence turned away.  probes/misses:
        # what liveness costs — one probe round per host pair and
        # heartbeat, however many shards it answers for.
        epochs = ",".join(str(epoch) for epoch in failover["epochs"])
        lines.append(
            f"failover: epoch={epochs} failovers={failover['failovers']} "
            f"fenced_rpcs={failover['fenced_rpcs']} "
            f"repl_stalls={failover['repl_stalls']} "
            f"probes={failover['probes']} misses={failover['probe_misses']}")

    admission = snapshot.get("admission")
    if admission is not None:
        # Multi-tenant job service: admission verdict totals over every
        # server, then the DRR dispatcher's per-tenant take grants.
        lines.append(
            f"admission: checked={admission['checked']} "
            f"admitted={admission['admitted']} "
            f"rejected={admission['rejected']} shed={admission['shed']}")
    tenants = snapshot.get("tenants")
    if tenants:
        lines.append("tenants: " + " ".join(
            f"{tenant}={count}" for tenant, count in tenants.items()))
    preemption = snapshot.get("preemption")
    if preemption is not None:
        lines.append(
            f"preemption: preemptions={preemption['preemptions']} "
            f"released={preemption['tasks_released']} "
            f"polls={preemption['polls']}")

    master = snapshot.get("master")
    if master is not None:
        lines.append(
            f"master: checkpoints={master['checkpoints_written']} "
            f"checkpoint_age={_fmt_ms(master['checkpoint_age_ms'])}")

    alerts = snapshot.get("alerts")
    if alerts:
        # SLO pane: active alerts first (worst news on top), then the
        # resolved history so a post-run frame still tells the story.
        active = [alert for alert in alerts if "resolved_ms" not in alert]
        lines.append(f"alerts: {len(active)} active / {len(alerts)} total")
        for alert in alerts:
            state = (f"resolved t={alert['resolved_ms']:,.0f}"
                     if "resolved_ms" in alert else "ACTIVE")
            lines.append(
                f"  [{state}] {alert['rule']}: {alert['metric']} "
                f"{alert['op']} {alert['threshold']:g} "
                f"(value {alert['value']:g} at t={alert['fired_ms']:,.0f})")

    job = snapshot.get("job")
    if job is not None:
        lines.append(
            f"job:   parallel={job['parallel_ms']:,.0f} ms "
            f"planning={job['planning_ms']:,.0f} ms "
            f"aggregation={job['aggregation_ms']:,.0f} ms "
            f"(complete={job['complete']})")
    return "\n".join(lines)


def cluster_snapshot(framework: Any, report: Any = None) -> dict:
    """The console's state as one JSON-ready dict (``repro top --json``).

    The space figures are read off the spaces serving now (a promoted
    standby's replica after a failover); a shard's ``queue`` is its
    :meth:`~repro.tuplespace.space.JavaSpace.queue_depth`.
    """
    metrics = framework.metrics
    snapshot: dict[str, Any] = {
        "app": framework.app.app_id,
        "t_ms": framework.runtime.now(),
    }

    workers = []
    for host in framework.worker_hosts:
        hostname = host.node.hostname
        busy_ms = host.worker_time_ms()
        proxy = host.client
        latencies = sorted(_signal_latencies(metrics, hostname))
        workers.append({
            "host": hostname,
            "state": str(host.state),
            "tasks": host.tasks_done,
            "tasks_per_s": (host.tasks_done / (busy_ms / 1000.0)
                            if busy_ms else 0.0),
            "busy_ms": busy_ms,
            "reconnects": proxy.reconnects if proxy is not None else 0,
            "retries": proxy.retries if proxy is not None else 0,
            "signal_p50_ms": (latencies[len(latencies) // 2]
                              if latencies else None),
            "signal_max_ms": latencies[-1] if latencies else None,
        })
    snapshot["workers"] = workers

    spaces = framework.current_spaces()
    shard_stats = []
    for space in spaces:
        stats = space.stats
        shard_stats.append({
            "writes": stats["writes"], "takes": stats["takes"],
            "reads": stats["reads"], "queue": space.queue_depth(),
            "wakeups": stats["wakeups"],
            "bytes_written": stats["bytes_written"],
        })
    snapshot["shards"] = shard_stats
    snapshot["space"] = {
        key: sum(shard[key] for shard in shard_stats)
        for key in ("writes", "takes", "reads", "queue",
                    "wakeups", "bytes_written")
    }
    snapshot["space"]["match"] = _match_totals(spaces)

    wal = _wal_totals(spaces)
    if wal is not None:
        snapshot["wal"] = wal

    supervisors = framework.supervisors
    servers = framework.space_servers
    if supervisors:
        snapshot["failover"] = {
            "epochs": [s.epoch for s in supervisors],
            "failovers": sum(s.failovers for s in supervisors),
            "fenced_rpcs": framework.total_fenced_rpcs(),
            "repl_stalls": sum(server.repl_stalls for server in servers),
            "probes": sum(s.probes for s in supervisors),
            "probe_misses": sum(s.probe_misses for s in supervisors),
            "lease_renewals": framework.lease_renewals(),
        }

    admissions = [server.admission for server in servers
                  if server.admission is not None]
    if admissions:
        totals: dict[str, int] = {}
        for admission in admissions:
            for key, value in admission.stats.items():
                totals[key] = totals.get(key, 0) + value
        snapshot["admission"] = totals
        grants = framework.tenant_grants()
        if grants:
            snapshot["tenants"] = dict(sorted(grants.items()))
    if framework.governor is not None:
        snapshot["preemption"] = dict(framework.governor.stats)

    if framework.master.checkpoint_ms is not None:
        snapshot["master"] = {
            name: getattr(framework.master, name)
            for name in ("checkpoints_written", "checkpoint_age_ms")}

    if framework.watchdog is not None:
        snapshot["alerts"] = [a.to_dict() for a in framework.watchdog.alerts]

    if report is not None:
        snapshot["job"] = {
            "parallel_ms": report.parallel_ms,
            "planning_ms": report.planning_ms,
            "aggregation_ms": report.aggregation_ms,
            "complete": report.complete,
        }
    return snapshot
