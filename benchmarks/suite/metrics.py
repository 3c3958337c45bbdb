"""Every metric name the suite emits, and how each value is computed.

Names are fixed here and cited verbatim by later issues.  Two tables:

* :data:`END_TO_END` — what a user of the system sees.  The four that
  exist and are non-zero on every workload are *gated*: they are the
  ``end_to_end`` list of ``BENCHMARK.json`` and carry a bound there.
  The other nine apply to some workloads only, or are exact
  virtual-time/count figures; ``BENCHMARK.json`` can hold neither a
  per-workload metric nor a zero bound, so they are listed (and printed
  by ``--trace 1``) with the per-layer metrics.  They are still measured
  by the untraced run, and ``--sets`` still holds them to their bounds.
* :data:`PER_LAYER` — counts and self times of single layers, from the
  traced run, each with the end-to-end metric it is expected to move.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Any, Callable, Optional

from benchmarks.suite.workloads import WORKLOADS, quantile

__all__ = ["END_TO_END", "PER_LAYER", "UNITS", "Metric", "benchmark_json",
           "layer_values", "pool_untraced"]

FARMS = ("farm_batched", "farm_per_task", "farm_hardened")
ALL = tuple(WORKLOADS)


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str                             # "lower" | "higher"
    bound: Optional[float] = None           # allowed worsening (share)
    workloads: tuple[str, ...] = ALL        # where it applies
    exact: bool = False                     # must repeat bit for bit
    gated: bool = False                     # in BENCHMARK.json end_to_end
    moves: str = ""                         # prediction, written first


#: Bounds of the host-time metrics are about three times the spread
#: (quartile distance over median) that ten identical pinned runs showed
#: on the reference sandbox — 2–8 % depending on the minute — not the
#: tighter figures one would like: a change smaller than the host's own
#: drift cannot be resolved here.
END_TO_END: list[Metric] = [
    Metric("setup_s", "s", "lower", 0.25, gated=True),
    Metric("ops_per_s", "1/s", "higher", 0.25, gated=True),
    Metric("cpu_us_per_op", "us", "lower", 0.25, gated=True),
    Metric("peak_rss_mb", "MiB", "lower", 0.15, gated=True),
    Metric("virtual_makespan_ms", "virtual_ms", "lower", 0.02,
           tuple(w for w in ALL if w != "space_mixed"), exact=True),
    Metric("net_messages_per_op", "count", "lower", 0.02,
           (*FARMS, "chaos_sweep"), exact=True),
    Metric("net_kb_per_op", "KiB", "lower", 0.02,
           (*FARMS, "chaos_sweep"), exact=True),
    Metric("failed_ops_share", "ratio", "lower", 0.0, exact=True),
    Metric("commit_us_p50", "us", "lower", 0.15, ("space_mixed",)),
    Metric("commit_us_p99", "us", "lower", 0.25, ("space_mixed",)),
    Metric("read_us_p50", "us", "lower", 0.15, ("space_mixed",)),
    Metric("read_us_p99", "us", "lower", 0.25, ("space_mixed",)),
    Metric("recover_ms", "ms", "lower", 0.25, ("space_mixed",)),
]


def _layer(prefix: str, unit_names: str, moves: str) -> list[Metric]:
    """``"suffix:unit suffix:unit"`` → metrics named ``prefix.suffix``."""
    out = []
    for item in unit_names.split():
        suffix, _, unit = item.partition(":")
        out.append(Metric(f"{prefix}.{suffix}", unit, "lower", moves=moves))
    return out


_SIM = "ops_per_s, cpu_us_per_op on farm_per_task, farm_hardened; " \
       "not space_mixed"
_NET = "ops_per_s on farm_per_task; net_messages_per_op, net_kb_per_op " \
       "on farms; not farm_batched, space_mixed"
_CODEC = "ops_per_s on farm_batched; net_kb_per_op on farms; " \
         "commit_us_p50 on space_mixed; not paper_eval"
_PROXY = "ops_per_s on farm_per_task; admission/fence on farm_hardened; " \
         "not space_mixed"
_SPACE = "read_us_p50/p99, commit_us_p50, ops_per_s on space_mixed; " \
         "not farm_hardened, paper_eval"
_WAL = "commit_us_p99, recover_ms on space_mixed; ops_per_s on " \
       "farm_hardened; 0 on farm_batched, farm_per_task"
_SHARD = "ops_per_s, net_messages_per_op on farm_hardened; 0 on " \
         "unsharded farms"
_FAILOVER = "ops_per_s, net_messages_per_op on farm_hardened; " \
            "virtual_makespan_ms on chaos_sweep; not farm_batched"
_CORE = "ops_per_s on farm_batched (largest share); setup_s everywhere; " \
        "not space_mixed"
_TELEMETRY = "ops_per_s on farm_batched; not space_mixed"
_PAPER = "ops_per_s on paper_eval; 0 on farms (monitoring off)"
_CHAOS = "ops_per_s, failed_ops_share on chaos_sweep; 0 elsewhere"

PER_LAYER: list[Metric] = [
    *_layer("sim", "self_us_per_op:us events_per_op:count "
            "handoffs_per_op:count processes:count", _SIM),
    *_layer("host", "us_per_sim_event:us ctx_switches_per_op:count "
            "cpu_sys_share:ratio", _SIM),
    *_layer("net", "self_us_per_op:us messages_per_op:count kb_per_op:KiB "
            "datagrams_per_op:count dropped:count", _NET),
    *_layer("util.codec", "self_us_per_op:us encodes_per_op:count "
            "decodes_per_op:count bytes_per_op:B", _CODEC),
    *_layer("tuplespace.proxy", "client_self_us_per_op:us "
            "server_self_us_per_op:us rpcs_per_op:count retries:count "
            "fenced_rpcs:count admission_self_us_per_op:us "
            "admission_rejected_share:ratio", _PROXY),
    Metric("tuplespace.proxy.batch_ops_per_rpc", "count", "higher",
           moves=_PROXY),
    *_layer("tuplespace.space", "self_us_per_op:us writes_per_op:count "
            "reads_per_op:count takes_per_op:count wakeups_per_write:count "
            "expired:count us_per_write:us us_per_read_selective:us "
            "us_per_take_selective:us us_per_take_fifo:us "
            "us_per_take_multiple:us us_per_count:us", _SPACE),
    *_layer("tuplespace.wal", "self_us_per_commit:us commits_per_op:count "
            "syncs_per_commit:count bytes_per_user_byte:ratio", _WAL),
    *_layer("tuplespace.durable", "snapshots:count snapshot_self_us:us "
            "repl_records_per_op:count", _WAL),
    *_layer("tuplespace.sharding", "self_us_per_op:us "
            "keyed_calls_per_op:count scatter_calls_per_op:count "
            "exists_polls_per_op:count", _SHARD),
    *_layer("tuplespace.failover", "self_us_per_virtual_s:us "
            "probes_per_virtual_s:count promotions:count", _FAILOVER),
    *_layer("core.master", "self_us_per_op:us", _CORE),
    *_layer("core.worker", "self_us_per_op:us idle_polls:count", _CORE),
    Metric("core.worker.tasks_per_take", "count", "higher", moves=_CORE),
    *_layer("core.framework", "start_self_us:us", _CORE),
    *_layer("telemetry", "self_us_per_op:us", _TELEMETRY),
    *_layer("snmp", "self_us_per_op:us pdus_per_virtual_s:count", _PAPER),
    *_layer("core.netmgmt", "self_us_per_op:us", _PAPER),
    *_layer("core.inference", "self_us_per_op:us signals:count", _PAPER),
    *_layer("jini", "self_us_per_op:us", _PAPER),
    *_layer("node", "self_us_per_op:us", _PAPER),
    *_layer("apps", "self_us_per_op:us execute_self_us_per_op:us", _PAPER),
    *_layer("faults", "injected:count healed:count", _CHAOS),
    *_layer("verify", "self_us_per_op:us", _CHAOS),
    *_layer("host", "unattributed_share:ratio driver_share:ratio "
            "other_layers_share:ratio trace_overhead_ratio:ratio "
            "speed_factor:ratio unit_ms_p50:ms unit_ms_p90:ms "
            "gc_collections:count", ""),
]

#: Unit of every metric, by name.
UNITS = {m.name: m.unit for m in (*END_TO_END, *PER_LAYER)}


def benchmark_json(run_seconds: int) -> dict[str, Any]:
    """The contract file, derived from the tables above."""
    gated = [m for m in END_TO_END if m.gated]
    rest = [m for m in END_TO_END if not m.gated] + PER_LAYER
    return {
        "command": ["python3", "benchmarks/suite/run.py"],
        "paths": ["benchmarks/suite"],
        "run_seconds": run_seconds,
        "workloads": [{"name": w.name, "why": w.why}
                      for w in WORKLOADS.values()],
        "end_to_end": [{"name": m.name, "unit": m.unit, "better": m.better,
                        "bound": m.bound} for m in gated],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better}
                      for m in rest],
    }


# ----------------------------------------------------------- untraced values --

#: What ``child.probe_speed`` takes on the quiet reference sandbox.
#:
#: Every host time is reported *at reference speed*: divided by (speed
#: probe beside it ÷ this).  The host slows this CPU by up to a third for
#: seconds or minutes at a time and process CPU time inflates with it,
#: so raw medians of identical pinned runs moved 20–50 % — which a bound
#: would read as a regression.  Rescaling each unit by the two probes
#: that bracket it, then taking the median, removed most of that and
#: never widened a spread; the README ("Noise of the sandbox") has the
#: measurements and what else was tried.  ``host.speed_factor`` reports
#: the correction: raw ≈ reported × factor.
PROBE_REF_S = 0.0034


def _factors(child: dict) -> list[float]:
    """How much slower than the reference the CPU was during each unit."""
    probes = child["probe_s"]
    return [(probes[i] + probes[i + 1]) / 2 / PROBE_REF_S
            for i in range(len(child["unit_s"]))]


def _at_reference_speed(child: dict, key: str) -> list[float]:
    return [t / f for t, f in zip(child[key], _factors(child))]


def pool_untraced(workload: str, children: list[dict]) -> dict[str, Any]:
    """End-to-end values (and the host counters) of one untraced run,
    pooled over its measuring processes.

    Returns ``{"values": {name: value}, "n": {name: samples}, ...}``;
    a metric that does not apply to ``workload`` is absent."""
    unit_s = [s for child in children
              for s in _at_reference_speed(child, "unit_s")]
    unit_cpu_s = [s for child in children
                  for s in _at_reference_speed(child, "unit_cpu_s")]
    #: Per process: the typical factor (for latencies sampled all over
    #: the window) and the last one (for what runs after the window).
    typical = [statistics.median(_factors(c)) for c in children]
    last = [c["probe_s"][-1] / PROBE_REF_S for c in children]
    attempted = sum(child["attempted"] for child in children)
    failed = sum(child["failed"] for child in children)
    cpu_s = sum(c["cpu_user_s"] + c["cpu_sys_s"] for c in children)
    ops_per_unit = attempted / len(unit_s)
    values: dict[str, float] = {
        "setup_s": statistics.median(
            c["setup_s"] / (c["probe_s"][0] / PROBE_REF_S) for c in children),
        "ops_per_s": ops_per_unit / statistics.median(unit_s),
        "cpu_us_per_op": statistics.median(unit_cpu_s) / ops_per_unit * 1e6,
        "peak_rss_mb": max(c["peak_rss_mb"] for c in children),
        "failed_ops_share": failed / attempted,
    }
    n = {"setup_s": len(children), "ops_per_s": len(unit_s),
         "cpu_us_per_op": len(unit_s), "peak_rss_mb": len(children),
         "failed_ops_share": attempted}
    virtual = [v for child in children for v in child["virtual_ms"]]
    if virtual:
        values["virtual_makespan_ms"] = statistics.median(virtual)
        n["virtual_makespan_ms"] = len(virtual)
    if "net_messages" in children[0]["extra"]:
        values["net_messages_per_op"] = sum(
            c["extra"]["net_messages"] for c in children) / attempted
        values["net_kb_per_op"] = sum(
            c["extra"]["net_bytes"] for c in children) / 1024.0 / attempted
        n["net_messages_per_op"] = n["net_kb_per_op"] = attempted
    for name, count in (("commit_us_p50", "commit_n"),
                        ("commit_us_p99", "commit_n"),
                        ("read_us_p50", "read_n"), ("read_us_p99", "read_n"),
                        ("recover_ms", None)):
        if name in children[0]["extra"]:
            values[name] = statistics.median(
                c["extra"][name] / f
                for c, f in zip(children, typical if count else last))
            n[name] = (sum(c["extra"][count] for c in children)
                       if count else len(children))
    declared = {m.name for m in END_TO_END if workload in m.workloads}
    if set(values) != declared:
        raise RuntimeError(
            f"{workload}: measured {sorted(values)} but the table declares "
            f"{sorted(declared)}")
    host = {
        "host.speed_factor": statistics.median(typical),
        "host.unit_ms_p50": statistics.median(unit_s) * 1e3,
        "host.unit_ms_p90": quantile(unit_s, 0.90) * 1e3,
        "host.ctx_switches_per_op": sum(
            c["ctx_switches"] for c in children) / attempted,
        "host.cpu_sys_share": sum(
            c["cpu_sys_s"] for c in children) / cpu_s,
        "host.gc_collections": float(sum(
            c["gc_collections"] for c in children)),
    }
    return {"values": values, "n": n, "host": host, "attempted": attempted,
            "failed": failed, "units": len(unit_s),
            "failures": [f for c in children for f in c["failures"]]}


# ------------------------------------------------------------- traced values --

_TAKES = ("take", "take_multiple", "take_if_exists")
_ROUTED = ("write", "write_all", "read", "take", "take_multiple",
           "take_if_exists", "count", "contents")


def _split(key: str) -> tuple[str, str, str, str]:
    """``"Class.method[kind]|caller"`` → (name, base, kind, caller)."""
    name, _, caller = key.partition("|")
    base, _, kind = name.partition("[")
    return name, base, kind.rstrip("]"), caller


def layer_values(traced: dict, untraced: dict[str, Any]) -> dict[str, float]:
    """Every :data:`PER_LAYER` value from one traced measuring process
    (plus the host counters of the untraced run beside it)."""
    trace = traced["trace"]
    ops = traced["attempted"]
    cpu_ns = traced["process_cpu_ns"]
    self_ns, census, counts = (trace["self_ns"], trace["census"],
                               trace["counts"])
    virtual_s = census.get("sim.virtual_ms", 0.0) / 1e3

    #: The traced process's own typical speed factor: its self times are
    #: host times too and are reported at reference speed like the rest.
    speed = statistics.median(_factors(traced))

    def layer_ns(prefix: str) -> float:
        return sum(ns for layer, ns in self_ns.items()
                   if layer == prefix or layer.startswith(prefix + "."))

    def self_us(prefix: str) -> float:
        return layer_ns(prefix) / 1e3 / speed

    def calls(match: Callable[[str, str, str, str], bool]) -> int:
        return sum(n for key, n in trace["calls"].items()
                   if match(*_split(key)))

    def named(*names: str) -> int:
        return calls(lambda name, base, kind, caller:
                     name in names or base in names)

    def us_per(*names: str) -> float:
        busy = sum(ns for name, ns in trace["busy_ns"].items()
                   if name in names or name.partition("[")[0] in names)
        return busy / 1e3 / speed / named(*names) if named(*names) else 0.0

    def per(value: float, base: float) -> float:
        return value / base if base else 0.0

    def space_op(method: str, kind: str = "") -> tuple[str, str]:
        suffix = f"[{kind}]" if kind else ""
        return (f"JavaSpace.{method}{suffix}",
                f"JavaSpace.{method}_encoded{suffix}")

    events = named("SimKernel.call_later", "SimKernel.sleep")
    commits = named("WriteAheadLog.append", "WriteAheadLog.import_record")
    rpcs = calls(lambda name, base, kind, caller:
                 base == "StreamSocket.send"
                 and caller == "tuplespace.proxy.client")
    worker_takes = calls(lambda name, base, kind, caller:
                         caller == "core.worker"
                         and base.rpartition(".")[2] in _TAKES)
    routed = {kind: calls(lambda name, base, k, caller, kind=kind:
                          base.startswith("ShardRouter.") and k == kind
                          and base.rpartition(".")[2] in _ROUTED)
              for kind in ("keyed", "scatter")}
    probes = calls(lambda name, base, kind, caller:
                   base == "Network.connect"
                   and caller == "tuplespace.failover")
    named_layers = ("sim", "net", "util.codec", "tuplespace", "core.master",
                    "core.worker", "core.framework", "telemetry", "snmp",
                    "core.netmgmt", "core.inference", "jini", "node", "apps",
                    "faults", "verify", "bench")
    attributed = sum(self_ns.values())
    host = untraced["host"]
    u = untraced["values"]

    values = {
        "sim.self_us_per_op": self_us("sim") / ops,
        "sim.events_per_op": events / ops,
        "sim.handoffs_per_op": named("SimKernel.sleep", "SimCondition.wait",
                                     "SimKernel.spawn") / ops,
        "sim.processes": float(named("SimKernel.spawn")),
        "host.us_per_sim_event": per(u["cpu_us_per_op"], events / ops),
        "host.ctx_switches_per_op": host["host.ctx_switches_per_op"],
        "host.cpu_sys_share": host["host.cpu_sys_share"],
        "net.self_us_per_op": self_us("net") / ops,
        "net.messages_per_op": census.get("net.messages", 0.0) / ops,
        "net.kb_per_op": (census.get("net.message_bytes", 0.0)
                          + census.get("net.datagram_bytes", 0.0))
        / 1024.0 / ops,
        "net.datagrams_per_op": census.get("net.datagrams", 0.0) / ops,
        "net.dropped": census.get("net.dropped", 0.0),
        "util.codec.self_us_per_op": self_us("util.codec") / ops,
        "util.codec.encodes_per_op": named("encode_entry", "serialize") / ops,
        "util.codec.decodes_per_op": named("decode_any", "deserialize") / ops,
        "util.codec.bytes_per_op": counts.get("util.codec.bytes", 0) / ops,
        "tuplespace.proxy.client_self_us_per_op":
            self_us("tuplespace.proxy.client") / ops,
        "tuplespace.proxy.server_self_us_per_op":
            self_us("tuplespace.proxy.server") / ops,
        "tuplespace.proxy.rpcs_per_op": rpcs / ops,
        "tuplespace.proxy.batch_ops_per_rpc": per(
            counts.get("proxy.batch_ops", 0), named("ProxyBatch.flush")),
        "tuplespace.proxy.retries": census.get("proxy.retries", 0.0),
        "tuplespace.proxy.fenced_rpcs": census.get("proxy.fenced_rpcs", 0.0),
        "tuplespace.proxy.admission_self_us_per_op":
            self_us("tuplespace.proxy.admission") / ops,
        "tuplespace.proxy.admission_rejected_share": per(
            census.get("admission.rejected", 0.0),
            census.get("admission.checked", 0.0)),
        "tuplespace.space.self_us_per_op": self_us("tuplespace.space") / ops,
        "tuplespace.space.writes_per_op":
            census.get("space.writes", 0.0) / ops,
        "tuplespace.space.reads_per_op": census.get("space.reads", 0.0) / ops,
        "tuplespace.space.takes_per_op": census.get("space.takes", 0.0) / ops,
        "tuplespace.space.wakeups_per_write": per(
            census.get("space.wakeups", 0.0), census.get("space.writes", 0.0)),
        "tuplespace.space.expired": census.get("space.expired", 0.0),
        # Per entry written, so batched and single writes compare.
        "tuplespace.space.us_per_write": per(sum(
            ns for name, ns in trace["busy_ns"].items()
            if name in (*space_op("write"), *space_op("write_all")))
            / 1e3 / speed, census.get("space.writes", 0.0)),
        "tuplespace.space.us_per_read_selective":
            us_per(*space_op("read", "selective")),
        "tuplespace.space.us_per_take_selective":
            us_per(*space_op("take", "selective")),
        "tuplespace.space.us_per_take_fifo": us_per(*space_op("take", "fifo")),
        "tuplespace.space.us_per_take_multiple":
            us_per(*space_op("take_multiple")),
        "tuplespace.space.us_per_count": us_per("JavaSpace.count"),
        "tuplespace.wal.self_us_per_commit": per(
            self_us("tuplespace.wal"), commits),
        "tuplespace.wal.commits_per_op": commits / ops,
        "tuplespace.wal.syncs_per_commit": per(
            census.get("wal.syncs", 0.0), commits),
        "tuplespace.wal.bytes_per_user_byte": per(
            counts.get("wal.bytes", 0), census.get("space.bytes_written", 0.0)
        ) if commits else 0.0,
        "tuplespace.durable.snapshots": float(
            named("WriteAheadLog.install_snapshot")),
        "tuplespace.durable.snapshot_self_us": sum(
            ns for name, ns in trace["busy_ns"].items()
            if name == "WriteAheadLog.install_snapshot") / 1e3 / speed,
        "tuplespace.durable.repl_records_per_op":
            named("DurableSpace.apply_commit") / ops,
        "tuplespace.sharding.self_us_per_op":
            self_us("tuplespace.sharding") / ops,
        "tuplespace.sharding.keyed_calls_per_op": routed["keyed"] / ops,
        "tuplespace.sharding.scatter_calls_per_op": routed["scatter"] / ops,
        "tuplespace.sharding.exists_polls_per_op": calls(
            lambda name, base, kind, caller: base == "SpaceProxy.exists"
            and caller == "tuplespace.sharding") / ops,
        "tuplespace.failover.self_us_per_virtual_s": per(
            self_us("tuplespace.failover"), virtual_s),
        "tuplespace.failover.probes_per_virtual_s": per(probes, virtual_s),
        "tuplespace.failover.promotions": float(named("HotStandby.promote")),
        "core.master.self_us_per_op": self_us("core.master") / ops,
        "core.worker.self_us_per_op": self_us("core.worker") / ops,
        "core.worker.idle_polls": float(counts.get("worker.idle_polls", 0)),
        "core.worker.tasks_per_take": per(ops, worker_takes),
        "core.framework.start_self_us":
            traced["setup_self_ns"].get("core.framework", 0) / 1e3
            / (traced["probe_s"][0] / PROBE_REF_S),
        "telemetry.self_us_per_op": self_us("telemetry") / ops,
        "snmp.self_us_per_op": self_us("snmp") / ops,
        "snmp.pdus_per_virtual_s": per(named("encode_message"), virtual_s),
        "core.netmgmt.self_us_per_op": self_us("core.netmgmt") / ops,
        "core.inference.self_us_per_op": self_us("core.inference") / ops,
        "core.inference.signals": census.get("inference.signals", 0.0),
        "jini.self_us_per_op": self_us("jini") / ops,
        "node.self_us_per_op": self_us("node") / ops,
        "apps.self_us_per_op": self_us("apps") / ops,
        "apps.execute_self_us_per_op": self_us("apps.execute") / ops,
        "faults.injected": census.get("faults.injected", 0.0),
        "faults.healed": census.get("faults.healed", 0.0),
        "verify.self_us_per_op": self_us("verify") / ops,
        "host.unattributed_share": 1.0 - attributed / cpu_ns,
        "host.driver_share": layer_ns("bench") / cpu_ns,
        "host.other_layers_share": (attributed - sum(
            layer_ns(layer) for layer in named_layers)) / cpu_ns,
        "host.trace_overhead_ratio": u["ops_per_s"] / (
            ops / len(traced["unit_s"])
            / statistics.median(_at_reference_speed(traced, "unit_s"))),
        "host.speed_factor": host["host.speed_factor"],
        "host.unit_ms_p50": host["host.unit_ms_p50"],
        "host.unit_ms_p90": host["host.unit_ms_p90"],
        "host.gc_collections": host["host.gc_collections"],
    }
    declared = {m.name for m in PER_LAYER}
    if set(values) != declared:
        raise RuntimeError(
            f"per-layer table and formulas disagree: "
            f"{sorted(set(values) ^ declared)}")
    return values
