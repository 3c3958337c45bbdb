"""Outside-in layer tracing: spans around the program's public callables.

Used only by the separate traced run; an end-to-end number never comes
from here.  Nothing under ``src/`` is touched: :class:`Tracer.install`
rebinds the callables named in :data:`BOUNDARIES` to wrappers and puts
them back on :meth:`Tracer.uninstall`.

A *layer* is a module of the program (``repro.`` stripped; small
packages collapse to their package name).  Every simulated process gets
a root span from the ``SimKernel.spawn`` wrapper and every scheduled
event from the ``call_later`` wrapper, both labelled from the module of
the function they run — so a server's dispatch loop is billed to
``tuplespace.proxy.server`` although none of its methods is wrapped.
A wrapped callable opens a child span in its own layer.

Time is ``time.thread_time_ns()``: a simulated process blocked in the
kernel accrues none, so a blocking ``take`` does not swallow the work
other processes do while it waits.  Self time is billed at every span
transition (to whichever span is on top of the calling thread's stack),
so a worker loop that never returns still has its time counted.  Closed
accounting: the sum over layers plus the unattributed rest equals the
process CPU of the window.

Known gaps (left for an in-program tracing issue): a private helper
runs inside its caller's span — the epoch fence check sits in
``tuplespace.proxy.server``, snapshot pickling in ``tuplespace.space``
— and the span machinery's own cost lands in the parent layer.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Optional

__all__ = ["BOUNDARIES", "CENSUS", "Boundary", "Tracer", "layer_of"]

_cpu = time.thread_time_ns
_wall = time.perf_counter_ns

#: Layer of the benchmark's own code (driver loop, oracles, shadow model).
BENCH = "bench"

_PACKAGE_LAYERS = {name: name for name in (
    "sim", "net", "snmp", "jini", "node", "apps", "telemetry", "faults",
    "verify", "experiments")}
_PACKAGE_LAYERS["runtime"] = "sim"
_MODULE_LAYERS = {
    "core.metrics": "telemetry",
    "tuplespace.proxy": "tuplespace.proxy.server",
    "tuplespace.transaction": "tuplespace.space",
    "util.serialization": "util.codec",
}


def layer_of(module: Optional[str]) -> str:
    """The layer a function defined in ``module`` belongs to."""
    if not module or not (module == "repro" or module.startswith("repro.")):
        return BENCH
    name = module[len("repro."):]
    package = name.split(".", 1)[0]
    if package in _PACKAGE_LAYERS:
        return _PACKAGE_LAYERS[package]
    return _MODULE_LAYERS.get(name, name)


# ------------------------------------------------------------------- table --

@dataclass(frozen=True)
class Boundary:
    """One public callable to wrap.

    ``target`` is ``"module:function"`` or ``"module:Class.method"``;
    ``layer`` defaults to the module's.  ``kind(args, kwargs)`` returns a
    suffix for the span name (splits one callable into cases);
    ``post(counts, caller_layer, args, result)`` tallies what only the
    arguments or the result show.  ``root_arg`` marks the positional
    argument that is itself a callable to run later under a root span
    (``spawn``'s function, ``call_later``'s action).  ``subclasses``
    wraps every override of an abstract method.
    """

    target: str
    layer: Optional[str] = None
    kind: Optional[Callable[[tuple, dict], str]] = None
    post: Optional[Callable[[dict, str, tuple, Any], None]] = None
    root_arg: Optional[int] = None
    subclasses: bool = False

    @property
    def name(self) -> str:
        return self.target.partition(":")[2]


def _methods(owner: str, names: str, **opts: Any) -> list[Boundary]:
    sep = "." if ":" in owner and not owner.endswith(":") else ""
    return [Boundary(f"{owner}{sep}{name}", **opts) for name in names.split()]


def _template_kind(args: tuple, kwargs: dict) -> str:
    template = args[1] if len(args) > 1 else kwargs["template"]
    selective = any(v is not None for v in vars(template).values())
    return "[selective]" if selective else "[fifo]"


def _route_kind(args: tuple, kwargs: dict) -> str:
    subject = args[1] if len(args) > 1 else next(iter(kwargs.values()))
    if isinstance(subject, list):       # write_all groups entries by key
        return "[keyed]"
    return "[keyed]" if subject.shard_key() is not None else "[scatter]"


def _event_kind(args: tuple, kwargs: dict) -> str:
    return f"[{args[1]}]"


def _codec_bytes(counts: dict, caller: str, args: tuple, result: Any) -> None:
    counts["util.codec.bytes"] += len(result)


def _wal_frame_bytes(counts: dict, caller: str, args: tuple,
                     result: Any) -> None:
    counts["wal.bytes"] += len(result)


def _wal_snapshot_bytes(counts: dict, caller: str, args: tuple,
                        result: Any) -> None:
    counts["wal.bytes"] += len(args[2])         # (self, lsn, state)


def _batch_ops(counts: dict, caller: str, args: tuple, result: Any) -> None:
    counts["proxy.batch_ops"] += len(result)
    _idle_flush(counts, caller, args, result)


def _idle_take(counts: dict, caller: str, args: tuple, result: Any) -> None:
    if caller == "core.worker" and not result:
        counts["worker.idle_polls"] += 1


def _idle_flush(counts: dict, caller: str, args: tuple, result: Any) -> None:
    # A worker's batch always ends in its (pre)fetch take_multiple.
    if caller == "core.worker" and result and result[-1] == []:
        counts["worker.idle_polls"] += 1


_CLIENT = "tuplespace.proxy.client"
_P = "repro.tuplespace.proxy:"
_S = "repro.tuplespace.sharding:"
_V = "repro.verify.history:"

#: Layer boundaries, grouped by layer.  A row whose target no longer
#: resolves is reported under ``untraced_boundaries``, never re-guessed.
BOUNDARIES: list[Boundary] = [
    # sim: scheduling, handoffs, the event loop itself
    Boundary("repro.sim.kernel:SimKernel.spawn", root_arg=1),
    Boundary("repro.sim.kernel:SimKernel.call_later", root_arg=2),
    *_methods("repro.sim.kernel:SimKernel",
              "sleep run run_until_idle shutdown"),
    *_methods("repro.sim.condition:SimCondition", "wait notify"),
    # net
    *_methods("repro.net.network:StreamSocket", "send receive close"),
    *_methods("repro.net.network:DatagramSocket", "send_to receive close"),
    *_methods("repro.net.network:Listener", "accept close"),
    *_methods("repro.net.network:Network",
              "connect listen bind_datagram join_multicast leave_multicast "
              "set_chaos clear_chaos isolate heal partition partition_pair "
              "heal_partition heal_all_partitions pause resume slow "
              "heal_slow heal_all_slow resume_all"),
    # util.codec (both entry codecs)
    Boundary("repro.util.codec:encode_entry", post=_codec_bytes),
    Boundary("repro.util.serialization:serialize", post=_codec_bytes),
    *_methods("repro.util.codec:", "decode_any peek_class"),
    *_methods("repro.util.serialization:", "deserialize"),
    # tuplespace.proxy: client stubs, server lifecycle, admission
    *_methods(_P + "SpaceProxy", "take take_multiple take_if_exists",
              layer=_CLIENT, post=_idle_take),
    *_methods(_P + "SpaceProxy",
              "write read read_if_exists count exists write_all contents "
              "transaction ping notify batch close fail", layer=_CLIENT),
    Boundary(_P + "ProxyBatch.flush", layer=_CLIENT, post=_batch_ops),
    *_methods(_P + "ProxyBatch",
              "write write_all read take take_multiple count txn_create "
              "commit abort", layer=_CLIENT),
    *_methods(_P + "RemoteTransaction", "commit abort", layer=_CLIENT),
    *_methods(_P + "SpaceServer",
              "start stop crash enable_admission grant_lease"),
    Boundary(_P + "AdmissionController.check",
             layer="tuplespace.proxy.admission"),
    # tuplespace.space (+ its transactions)
    *_methods("repro.tuplespace.space:JavaSpace",
              "read take read_encoded take_encoded take_multiple "
              "take_multiple_encoded", kind=_template_kind),
    *_methods("repro.tuplespace.space:JavaSpace",
              "write write_encoded write_all write_all_encoded exists "
              "read_if_exists take_if_exists snapshot contents count notify "
              "configure_fair_share"),
    Boundary("repro.tuplespace.transaction:TransactionManager.create"),
    *_methods("repro.tuplespace.transaction:Transaction", "commit abort"),
    # tuplespace.wal / tuplespace.durable
    *_methods("repro.tuplespace.wal:WriteAheadLog",
              "append import_record sync records_since bump_epoch set_epoch"),
    Boundary("repro.tuplespace.wal:WriteAheadLog.install_snapshot",
             post=_wal_snapshot_bytes),
    Boundary("repro.tuplespace.wal:record_frame", post=_wal_frame_bytes),
    *_methods("repro.tuplespace.wal:FileWalStore", "close"),
    *_methods("repro.tuplespace.durable:DurableSpace",
              "recover sync checkpoint bootstrap apply_commit"),
    *_methods("repro.tuplespace.durable:HotStandby", "start stop promote"),
    # tuplespace.sharding
    *_methods(_S + "ShardRouter", "take take_multiple take_if_exists",
              kind=_route_kind, post=_idle_take),
    *_methods(_S + "ShardRouter", "write write_all read count contents",
              kind=_route_kind),
    *_methods(_S + "ShardRouter",
              "read_if_exists transaction batch notify ping close fail"),
    Boundary(_S + "ShardedBatch.flush", post=_idle_flush),
    *_methods(_S + "ShardedBatch",
              "write write_all read take take_multiple count txn_create "
              "commit abort"),
    *_methods(_S + "ShardedTransaction", "commit abort"),
    # tuplespace.failover
    *_methods("repro.tuplespace.failover:SpaceSupervisor", "start stop"),
    Boundary("repro.tuplespace.failover:JiniSpaceLocator.__call__"),
    # core.master / core.worker / core.framework (+ class loading)
    *_methods("repro.core.master:Master", "run cancel crash"),
    *_methods("repro.core.worker:WorkerHost",
              "start stop crash handle_signal"),
    *_methods("repro.core.framework:AdaptiveClusterFramework",
              "__init__ start start_all_workers run run_with_recovery "
              "shutdown attach_tenant_master kill_primary_space kill_shard "
              "kill_master final_contents"),
    *_methods("repro.core.codeserver:CodeServer", "publish start stop"),
    Boundary("repro.core.codeserver:download_bundle"),
    *_methods("repro.core.config_engine:RemoteNodeConfigurationEngine",
              "load_classes unload_classes deliver wait_for_clearance"),
    # telemetry (flight recorder, Metrics.event, registry: on by default)
    Boundary("repro.core.metrics:Metrics.event", kind=_event_kind),
    *_methods("repro.core.metrics:Metrics", "record scalar"),
    *_methods("repro.telemetry.trace:Tracer",
              "start record instant activate"),
    *_methods("repro.telemetry.registry:Histogram", "observe"),
    *_methods("repro.telemetry.registry:Registry",
              "prometheus_text samples value snapshot_into"),
    *_methods("repro.telemetry.registry:MetricsSnapshotter", "tick"),
    *_methods("repro.telemetry.blackbox:FlightRecorder", "attach dump"),
    # snmp / core.netmgmt / core.inference / jini / node / apps
    *_methods("repro.snmp.manager:SnmpManager",
              "get get_next get_bulk walk_bulk walk set close"),
    *_methods("repro.snmp.agent:SnmpAgent", "start stop"),
    *_methods("repro.snmp.pdu:", "encode_message decode_message"),
    *_methods("repro.snmp.trap:TrapReceiver", "start stop"),
    *_methods("repro.snmp.trap:LoadBandTrapEmitter", "start stop"),
    *_methods("repro.core.netmgmt:NetworkManagementModule",
              "start stop poll_once"),
    *_methods("repro.core.inference:InferenceEngine",
              "register unregister decide observe observe_failure"),
    *_methods("repro.jini.join:LookupClient",
              "register renew cancel lookup close"),
    *_methods("repro.jini.join:JoinManager", "start stop"),
    *_methods("repro.jini.lookup:LookupService",
              "start stop register renew cancel lookup"),
    *_methods("repro.jini.discovery:DiscoveryClient", "discover"),
    *_methods("repro.jini.discovery:LookupLocator", "probe get_registrar"),
    *_methods("repro.jini.sdm:ServiceDiscoveryManager",
              "start stop lookup_one refresh_once"),
    *_methods("repro.node.cpu:CpuModel",
              "execute execute_interruptible set_background "
              "clear_background"),
    *_methods("repro.node.machine:Node", "start_agent stop_agent build_mib"),
    *_methods("repro.node.memory:MemoryModel", "allocate free"),
    *_methods("repro.node.loadgen:LoadScript", "start"),
    Boundary("repro.core.application:Application.execute",
             layer="apps.execute", subclasses=True),
    *_methods("repro.core.application:Application", "plan aggregate",
              layer="apps", subclasses=True),
    # faults / verify
    *_methods("repro.faults.injector:FaultInjector",
              "for_framework arm disarm"),
    Boundary("repro.faults.plan:FaultPlan.generate"),
    Boundary("repro.verify.checker:check_history"),
    *_methods(_V + "HistoryRecorder", "record record_unkeyed"),
    *_methods(_V + "RecordingSpace", "take take_multiple take_if_exists",
              post=_idle_take),
    *_methods(_V + "RecordingSpace",
              "write write_all read read_if_exists transaction"),
    Boundary(_V + "RecordingBatch.flush", post=_idle_flush),
    *_methods(_V + "RecordingBatch",
              "write write_all read take take_multiple count txn_create "
              "commit abort"),
    *_methods(_V + "RecordingTransaction", "commit abort"),
    # experiments: entry points that run on the caller's thread
    *_methods("repro.experiments.harness:", "run_simulation"),
    *_methods("repro.experiments.chaos:",
              "chaos_experiment coordination_chaos_experiment"),
    *_methods("repro.experiments.report:", "run_full_evaluation"),
    *_methods("repro.experiments.scalability:", "scalability_experiment"),
    *_methods("repro.experiments.adaptation:", "adaptation_experiment"),
    *_methods("repro.experiments.dynamics:", "dynamics_experiment"),
    *_methods("repro.experiments.classify:", "classify_applications"),
]

#: Counters the program keeps on its public stats surfaces.  The tracer
#: notes every instance of the class as it is constructed and sums
#: ``reader`` over them: ``(counter, "module:Class", "attr.path[()]")``.
CENSUS: list[tuple[str, str, str]] = [
    ("sim.virtual_ms", "repro.sim.kernel:SimKernel", "now()"),
    ("net.messages", "repro.net.network:Network", "stats.messages"),
    ("net.message_bytes", "repro.net.network:Network", "stats.message_bytes"),
    ("net.datagrams", "repro.net.network:Network", "stats.datagrams"),
    ("net.datagram_bytes", "repro.net.network:Network",
     "stats.datagram_bytes"),
    ("net.dropped", "repro.net.network:Network", "stats.dropped"),
    ("space.writes", "repro.tuplespace.space:JavaSpace", "stats.writes"),
    ("space.reads", "repro.tuplespace.space:JavaSpace", "stats.reads"),
    ("space.takes", "repro.tuplespace.space:JavaSpace", "stats.takes"),
    ("space.wakeups", "repro.tuplespace.space:JavaSpace", "stats.wakeups"),
    ("space.expired", "repro.tuplespace.space:JavaSpace", "stats.expired"),
    ("space.bytes_written", "repro.tuplespace.space:JavaSpace",
     "stats.bytes_written"),
    ("wal.syncs", "repro.tuplespace.wal:WalStore", "syncs"),
    ("proxy.retries", "repro.tuplespace.proxy:SpaceProxy", "retries"),
    ("proxy.fenced_rpcs", "repro.tuplespace.proxy:SpaceServer",
     "fenced_rpcs"),
    ("admission.checked", "repro.tuplespace.proxy:AdmissionController",
     "stats.checked"),
    ("admission.rejected", "repro.tuplespace.proxy:AdmissionController",
     "stats.rejected"),
    ("inference.signals", "repro.core.inference:InferenceEngine",
     "stats.signals"),
    ("faults.injected", "repro.faults.injector:FaultInjector", "injected"),
    ("faults.healed", "repro.faults.injector:FaultInjector", "healed"),
]


def _read(instance: Any, path: str) -> float:
    value = instance
    for step in path.split("."):
        if step.endswith("()"):
            value = getattr(value, step[:-2])()
        elif hasattr(value, "__getitem__"):
            value = value[step]
        else:
            value = getattr(value, step)
    return float(value)


# ------------------------------------------------------------------ tracer --

class Tracer:
    """Span bookkeeping plus the install/uninstall of the wrappers.

    Aggregates are always kept; full span records only while
    ``recording`` is on (the child turns it on for the first units) and
    below ``max_records``.
    """

    #: One span record (a row of ``records``), in this column order.
    RECORD_COLUMNS = ("id", "parent", "name", "layer", "unit", "thread",
                      "start_ns", "end_ns", "busy_ns")

    def __init__(self, max_records: int = 200_000) -> None:
        self.self_ns: dict[str, int] = defaultdict(int)       # layer
        self.calls: dict[tuple[str, str], int] = defaultdict(int)
        self.busy_ns: dict[str, int] = defaultdict(int)       # span name
        self.wall_ns: dict[str, int] = defaultdict(int)
        self.errors: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)        # post hooks
        self.records: list[tuple] = []
        self.max_records = max_records
        self.dropped_records = 0
        self.recording = False
        self.unit = -1
        self.untraced: list[str] = []
        self._ids = itertools.count(1)
        self._tls = threading.local()
        self._undo: list[tuple[Any, str, Any]] = []
        self._live: dict[str, list[Any]] = defaultdict(list)  # census
        self._folded: dict[str, float] = defaultdict(float)

    # -- spans ----------------------------------------------------------------

    def _adopt_thread(self) -> list:
        """First span on this thread.  Any thread but the main one was
        started by ``SimKernel.spawn``, and its CPU clock started at 0
        with it: the interpreter's thread bootstrap before our root span
        is the sim layer's cost, so bill it there instead of losing it."""
        tls = self._tls
        main = threading.current_thread() is threading.main_thread()
        tls.stack = [(BENCH if main else "sim", 0)]
        tls.mark = _cpu() if main else 0
        tls.tid = threading.get_ident()
        return tls.stack

    def _run(self, fn: Callable, args: tuple, kwargs: dict, name: str,
             layer: str, post: Optional[Callable]) -> Any:
        tls = self._tls
        try:
            stack = tls.stack
        except AttributeError:
            stack = self._adopt_thread()
        caller, parent_id = stack[-1]
        span_id = next(self._ids)
        c0 = _cpu()
        w0 = _wall()
        self.self_ns[caller] += c0 - tls.mark
        tls.mark = c0
        self.calls[name, caller] += 1
        stack.append((layer, span_id))
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            self.errors[name] += 1
            raise
        finally:
            c1 = _cpu()
            w1 = _wall()
            self.self_ns[layer] += c1 - tls.mark
            tls.mark = c1
            stack.pop()
            self.busy_ns[name] += c1 - c0
            self.wall_ns[name] += w1 - w0
            if self.recording:
                if len(self.records) < self.max_records:
                    self.records.append((span_id, parent_id, name, layer,
                                         self.unit, tls.tid, w0, w1, c1 - c0))
                else:
                    self.dropped_records += 1
        if post is not None:
            post(self.counts, caller, args, result)
        return result

    def flush(self) -> None:
        """Bill the calling thread's time since its last transition."""
        tls = self._tls
        try:
            stack = tls.stack
        except AttributeError:
            stack = self._adopt_thread()
        now = _cpu()
        self.self_ns[stack[-1][0]] += now - tls.mark
        tls.mark = now

    # -- wrappers -------------------------------------------------------------

    def _wrap(self, fn: Callable, boundary: Boundary, layer: str) -> Callable:
        run, name = self._run, boundary.name
        kind, post, root_arg = boundary.kind, boundary.post, boundary.root_arg

        if root_arg is not None:
            def traced(*args: Any, **kwargs: Any) -> Any:
                if len(args) > root_arg:
                    inner = args[root_arg]
                    inner_layer = layer_of(getattr(
                        getattr(inner, "func", inner), "__module__", None))
                    label = f"{name}:{inner_layer}"

                    def rooted() -> Any:
                        return run(inner, (), {}, label, inner_layer, None)

                    args = (*args[:root_arg], rooted, *args[root_arg + 1:])
                return run(fn, args, kwargs, name, layer, post)
        elif kind is not None:
            def traced(*args: Any, **kwargs: Any) -> Any:
                return run(fn, args, kwargs, name + kind(args, kwargs),
                           layer, post)
        else:
            def traced(*args: Any, **kwargs: Any) -> Any:
                return run(fn, args, kwargs, name, layer, post)
        traced.__wrapped__ = fn         # type: ignore[attr-defined]
        traced.__module__ = getattr(fn, "__module__", None)
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _rebind(self, owner: Any, attr: str, raw: Any, boundary: Boundary,
                layer: str, modules: list[Any]) -> None:
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped: Any = type(raw)(self._wrap(raw.__func__, boundary, layer))
        else:
            wrapped = self._wrap(raw, boundary, layer)
        self._undo.append((owner, attr, raw))
        setattr(owner, attr, wrapped)
        if isinstance(owner, type):
            return
        # A module-level function: ``from m import f`` copied the
        # reference into other modules' globals; follow it there.
        for module in modules:
            if module is owner:
                continue
            for key, value in list(vars(module).items()):
                if value is raw:
                    self._undo.append((module, key, raw))
                    setattr(module, key, wrapped)

    def install(self, adapter: Any) -> None:
        """Wrap every boundary that still resolves; list the rest."""
        modules = adapter.patchable_modules()
        for boundary in BOUNDARIES:
            found = adapter.resolve(boundary.target)
            if found is None:
                self.untraced.append(boundary.target)
                continue
            owner, attr, raw = found
            layer = boundary.layer or layer_of(boundary.target.partition(":")[0])
            if not boundary.subclasses:
                self._rebind(owner, attr, raw, boundary, layer, modules)
                continue
            for cls in adapter.subclasses_of(owner):
                override = vars(cls).get(attr)
                if callable(override):
                    named = Boundary(f"{cls.__module__}:{cls.__name__}.{attr}")
                    self._rebind(cls, attr, override, named, layer, modules)
        for target in sorted({cls for _, cls, _ in CENSUS}):
            found = adapter.resolve(target + ".__init__")
            if found is None:
                self.untraced.append(target)
                continue
            self._note_instances(*found, target)

    def _note_instances(self, cls: type, attr: str, init: Callable,
                        target: str) -> None:
        live = self._live[target]

        def noting_init(instance: Any, *args: Any, **kwargs: Any) -> None:
            init(instance, *args, **kwargs)
            live.append(instance)

        noting_init.__wrapped__ = init  # type: ignore[attr-defined]
        self._undo.append((cls, attr, init))
        setattr(cls, attr, noting_init)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    # -- census ---------------------------------------------------------------

    def _sum_live(self) -> dict[str, float]:
        totals: dict[str, float] = defaultdict(float)
        for counter, target, reader in CENSUS:
            for instance in self._live.get(target, ()):
                totals[counter] += _read(instance, reader)
        return totals

    def fold_census(self) -> None:
        """Bank the counters of every noted instance and let it go.

        For workloads whose units build and tear down their own
        deployments: nothing noted during a unit is alive after it."""
        for counter, value in self._sum_live().items():
            self._folded[counter] += value
        for live in self._live.values():
            live.clear()

    def census(self) -> dict[str, float]:
        totals = dict(self._folded)
        for counter, value in self._sum_live().items():
            totals[counter] = totals.get(counter, 0.0) + value
        return totals

    # -- windows --------------------------------------------------------------

    def snapshot(self) -> dict[str, dict]:
        """Every aggregate now, as plain JSON-ready dicts."""
        self.flush()
        return {
            "self_ns": dict(self.self_ns),
            "calls": {f"{name}|{caller}": n
                      for (name, caller), n in self.calls.items()},
            "busy_ns": dict(self.busy_ns),
            "wall_ns": dict(self.wall_ns),
            "errors": dict(self.errors),
            "counts": dict(self.counts),
            "census": self.census(),
        }

    @staticmethod
    def delta(start: dict[str, dict], end: dict[str, dict]) -> dict[str, dict]:
        return {group: {key: value - start[group].get(key, 0)
                        for key, value in values.items()
                        if value != start[group].get(key, 0)}
                for group, values in end.items()}
