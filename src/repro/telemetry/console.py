"""Cluster console: render the framework's live state as a text table.

``repro top`` drives this — one row per worker (state, tasks completed,
throughput, RPC health, signal reaction latency) plus space, failover,
admission and SLO-alert summary lines.  The renderer only *reads*
framework state, so it can be called from a monitor process mid-run
(live frames) or once after ``framework.run()`` returns (final
snapshot).  :func:`cluster_snapshot` yields the same state as one plain
dict for ``repro top --json`` and CI scripts.
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


def cluster_table(framework: Any, report: Any = None) -> str:
    """One frame of the cluster console for ``framework``."""
    runtime = framework.runtime
    metrics = framework.metrics
    now = runtime.now()

    header = (f"{'worker':<12} {'state':<10} {'tasks':>5} {'tasks/s':>8} "
              f"{'busy ms':>9} {'reconn':>6} {'retry':>5} "
              f"{'sig p50':>8} {'sig max':>8}")
    lines = [f"cluster {framework.app.app_id!r}  t={now:,.0f} ms",
             header, "-" * len(header)]

    for host in framework.worker_hosts:
        hostname = host.node.hostname
        busy_ms = host.worker_time_ms()
        rate = (host.tasks_done / (busy_ms / 1000.0)
                if busy_ms else 0.0)
        proxy = host._proxy
        reconnects = proxy.reconnects if proxy is not None else 0
        retries = proxy.retries if proxy is not None else 0
        latencies = sorted(_signal_latencies(metrics, hostname))
        p50 = latencies[len(latencies) // 2] if latencies else None
        worst = latencies[-1] if latencies else None
        lines.append(
            f"{hostname:<12} {str(host.state):<10} {host.tasks_done:>5} "
            f"{rate:>8.2f} {_fmt_ms(busy_ms):>9} {reconnects:>6} "
            f"{retries:>5} {_fmt_ms(p50):>8} {_fmt_ms(worst):>8}")

    lines.append("-" * len(header))
    spaces = getattr(framework, "spaces", None) or [framework.space]
    if len(spaces) > 1:
        # Sharded space: one line per partition, then the merged totals.
        for i, space in enumerate(spaces):
            stats = space.stats
            queued = stats["writes"] - stats["takes"] - stats["expired"]
            lines.append(
                f"shard {i:<2} writes={stats['writes']} "
                f"takes={stats['takes']} reads={stats['reads']} "
                f"queue≈{max(queued, 0)} wakeups={stats['wakeups']} "
                f"bytes={stats['bytes_written']:,}")
    totals = {
        key: sum(space.stats[key] for space in spaces)
        for key in ("writes", "takes", "reads", "expired",
                    "wakeups", "bytes_written")
    }
    queued = totals["writes"] - totals["takes"] - totals["expired"]
    match = _match_totals(spaces)
    # match: what finding those entries cost — ids walked, field
    # indexes built.
    lines.append(
        f"space: writes={totals['writes']} takes={totals['takes']} "
        f"reads={totals['reads']} queue≈{max(queued, 0)} "
        f"wakeups={totals['wakeups']} bytes={totals['bytes_written']:,} "
        f"match: {match['scan_steps']} steps/"
        f"{match['index_builds']} indexes")

    wal = _wal_totals(spaces)
    if wal is not None:
        # Durability cost: what the checkpoint trigger weighs (the log
        # tail against the last checkpoint) and how often it fired.
        lines.append(
            f"wal: commits={wal['commits']} syncs={wal['syncs']} "
            f"checkpoints={wal['checkpoints']} "
            f"tail={wal['tail_bytes']:,}B state={wal['state_bytes']:,}B")

    supervisors = getattr(framework, "supervisors", None) or []
    if supervisors:
        # Failover/fencing health: one summary line for the supervisor
        # fleet — current epoch per shard, promotions performed, and how
        # many stale-epoch RPCs the fence turned away.
        epochs = ",".join(str(s.epoch) for s in supervisors)
        failovers = sum(s.failovers for s in supervisors)
        fenced = (framework.total_fenced_rpcs()
                  if hasattr(framework, "total_fenced_rpcs") else 0)
        stalls = sum(getattr(server, "repl_stalls", 0)
                     for server in getattr(framework, "space_servers", []))
        # probes/misses: what liveness costs — one probe round per host
        # pair and heartbeat, however many shards it answers for.
        lines.append(
            f"failover: epoch={epochs} failovers={failovers} "
            f"fenced_rpcs={fenced} repl_stalls={stalls} "
            f"probes={sum(s.probes for s in supervisors)} "
            f"misses={sum(s.probe_misses for s in supervisors)}")

    admissions = [server.admission
                  for server in getattr(framework, "space_servers", [])
                  if getattr(server, "admission", None) is not None]
    if admissions:
        # Multi-tenant job service: admission verdict totals over every
        # server, then the DRR dispatcher's per-tenant take grants.
        totals_a: dict[str, int] = {}
        for admission in admissions:
            for key, value in admission.stats.items():
                totals_a[key] = totals_a.get(key, 0) + value
        lines.append(
            f"admission: checked={totals_a.get('checked', 0)} "
            f"admitted={totals_a.get('admitted', 0)} "
            f"rejected={totals_a.get('rejected', 0)} "
            f"shed={totals_a.get('shed', 0)}")
        grants = (framework.tenant_grants()
                  if hasattr(framework, "tenant_grants") else {})
        if grants:
            lines.append("tenants: " + " ".join(
                f"{tenant}={count}"
                for tenant, count in sorted(grants.items())))
    governor = getattr(framework, "governor", None)
    if governor is not None:
        lines.append(
            f"preemption: preemptions={governor.stats['preemptions']} "
            f"released={governor.stats['tasks_released']} "
            f"polls={governor.stats['polls']}")

    if framework.master.checkpoint_ms is not None:
        lines.append(
            f"master: checkpoints={framework.master.checkpoints_written} "
            f"checkpoint_age={_fmt_ms(framework.master.checkpoint_age_ms)}")

    watchdog = getattr(framework, "watchdog", None)
    if watchdog is not None and watchdog.alerts:
        # SLO pane: active alerts first (worst news on top), then the
        # resolved history so a post-run frame still tells the story.
        active = [a for a in watchdog.alerts if a.active]
        lines.append(f"alerts: {len(active)} active / "
                     f"{len(watchdog.alerts)} total")
        for alert in watchdog.alerts:
            state = "ACTIVE" if alert.active else \
                f"resolved t={alert.resolved_ms:,.0f}"
            lines.append(
                f"  [{state}] {alert.rule.name}: "
                f"{alert.rule.metric} {alert.rule.op} "
                f"{alert.rule.threshold:g} (value {alert.value:g} "
                f"at t={alert.fired_ms:,.0f})")

    if report is not None:
        lines.append(
            f"job:   parallel={report.parallel_ms:,.0f} ms "
            f"planning={report.planning_ms:,.0f} ms "
            f"aggregation={report.aggregation_ms:,.0f} ms "
            f"(complete={report.complete})")
    return "\n".join(lines)


def cluster_snapshot(framework: Any, report: Any = None) -> dict:
    """The console's state as one JSON-ready dict (``repro top --json``).

    Mirrors :func:`cluster_table` section by section so scripts and CI
    never have to scrape the table renderer.
    """
    runtime = framework.runtime
    metrics = framework.metrics
    snapshot: dict[str, Any] = {
        "app": framework.app.app_id,
        "t_ms": runtime.now(),
    }

    workers = []
    for host in framework.worker_hosts:
        hostname = host.node.hostname
        busy_ms = host.worker_time_ms()
        proxy = host._proxy
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

    spaces = getattr(framework, "spaces", None) or [framework.space]
    shard_stats = []
    for space in spaces:
        stats = space.stats
        queued = stats["writes"] - stats["takes"] - stats["expired"]
        shard_stats.append({
            "writes": stats["writes"], "takes": stats["takes"],
            "reads": stats["reads"], "queue": max(queued, 0),
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

    supervisors = getattr(framework, "supervisors", None) or []
    if supervisors:
        snapshot["failover"] = {
            "epochs": [s.epoch for s in supervisors],
            "failovers": sum(s.failovers for s in supervisors),
            "fenced_rpcs": (framework.total_fenced_rpcs()
                            if hasattr(framework, "total_fenced_rpcs")
                            else 0),
            "repl_stalls": sum(
                getattr(server, "repl_stalls", 0)
                for server in getattr(framework, "space_servers", [])),
            "probes": sum(s.probes for s in supervisors),
            "probe_misses": sum(s.probe_misses for s in supervisors),
            "lease_renewals": framework.lease_renewals(),
        }

    admissions = [server.admission
                  for server in getattr(framework, "space_servers", [])
                  if getattr(server, "admission", None) is not None]
    if admissions:
        totals_a: dict[str, int] = {}
        for admission in admissions:
            for key, value in admission.stats.items():
                totals_a[key] = totals_a.get(key, 0) + value
        snapshot["admission"] = totals_a
        grants = (framework.tenant_grants()
                  if hasattr(framework, "tenant_grants") else {})
        if grants:
            snapshot["tenants"] = dict(sorted(grants.items()))
    governor = getattr(framework, "governor", None)
    if governor is not None:
        snapshot["preemption"] = dict(governor.stats)

    if framework.master.checkpoint_ms is not None:
        snapshot["master"] = {
            name: getattr(framework.master, name)
            for name in ("checkpoints_written", "checkpoint_age_ms")}

    watchdog = getattr(framework, "watchdog", None)
    if watchdog is not None:
        snapshot["alerts"] = [a.to_dict() for a in watchdog.alerts]

    if report is not None:
        snapshot["job"] = {
            "parallel_ms": report.parallel_ms,
            "planning_ms": report.planning_ms,
            "aggregation_ms": report.aggregation_ms,
            "complete": report.complete,
        }
    return snapshot
