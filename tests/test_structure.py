"""The shape of the source tree, as one table of facts read from its ``ast``.

Each row of :data:`RULES` states a positive fact about ``src/repro``:
which modules may import a codec, where a process is started, where a
worker signal is applied, which fields hold the worker's lifecycle, which
private names cross a module boundary.  A row is a query over the parsed
source and the exact set of ``(module, qualname[, name])`` sites it must
find, each with the one-line reason it is there.  The facts are read from
the code, not its text, so a comment that names a deleted symbol passes
and a renamed copy of deleted code fails.  Each set is exact: a site that
goes away leaves its row in the same change, so an allow-list only
shrinks.  A failing row names the sites to add and the sites to remove.
"""

from __future__ import annotations

import ast
import dataclasses
import functools
from pathlib import Path
from typing import Callable, Iterator, NamedTuple

import pytest

from repro.core.framework import FrameworkConfig
from repro.tuplespace.ops import OPS

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"

Site = tuple  # (module, qualname) or (module, qualname, name)


class Node(NamedTuple):
    module: str      # path under src/repro, e.g. "core/worker.py"
    qualname: str    # enclosing classes and functions ("" at module level)
    node: ast.AST
    local: bool      # inside a function


#: The node types a rule reads; the rest are walked through, not kept.
_KEPT = (ast.Call, ast.Attribute, ast.Name, ast.Import, ast.ImportFrom,
         ast.Assign, ast.AnnAssign, ast.FunctionDef, ast.AsyncFunctionDef,
         ast.ClassDef)


@functools.cache
def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


@functools.cache
def _source() -> dict[type, list[Node]]:
    """The nodes of ``src/repro`` a rule reads, parsed once, by type."""
    nodes: dict[type, list[Node]] = {kind: [] for kind in _KEPT}
    for path in sorted(SRC.rglob("*.py")):
        module = path.relative_to(SRC).as_posix()
        stack = [(_tree(path), "", False)]
        while stack:
            node, qualname, local = stack.pop()
            if isinstance(node, _KEPT):
                nodes[type(node)].append(Node(module, qualname, node, local))
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                    qualname = f"{qualname}.{node.name}".lstrip(".")
                    local = local or not isinstance(node, ast.ClassDef)
            stack.extend((child, qualname, local)
                         for child in ast.iter_child_nodes(node))
    return nodes


def _of(*kinds: type) -> Iterator[Node]:
    for kind in kinds:
        yield from _source()[kind]


def _callee(call: ast.Call) -> str:
    func = call.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(
        func, "id", "")


def _calls(*names: str, under: str = "") -> set[Site]:
    """Sites that call something named one of ``names``."""
    return {(site.module, site.qualname) for site in _of(ast.Call)
            if site.module.startswith(under)
            and _callee(site.node) in names}


def _attributes(*names: str, under: str = "", store: bool = False
                ) -> set[Site]:
    """Sites that name ``.<attr>`` (only assignments with ``store``)."""
    return {(site.module, site.qualname, site.node.attr)
            for site in _of(ast.Attribute)
            if site.module.startswith(under) and site.node.attr in names
            and (not store or isinstance(site.node.ctx, ast.Store))}


def _loads(name: str) -> set[Site]:
    """Sites that read the name ``name`` (its definition aside)."""
    return {(site.module, site.qualname) for site in _of(ast.Name)
            if site.node.id == name and isinstance(site.node.ctx, ast.Load)}


def _defs(name: str) -> set[Site]:
    return {(site.module, f"{site.qualname}.{name}".lstrip("."))
            for site in _of(ast.FunctionDef, ast.AsyncFunctionDef)
            if site.node.name == name}


def _importers(module: str) -> set[Site]:
    """Sites that import ``module`` (absolute imports; src uses no other)."""
    found = set()
    for site in _of(ast.Import, ast.ImportFrom):
        node = site.node
        names = ([node.module] if isinstance(node, ast.ImportFrom)
                 else [alias.name for alias in node.names])
        if any(name == module or name.startswith(module + ".")
               for name in names if name):
            found.add((site.module, site.qualname))
    return found


def _class(module: str, name: str) -> ast.ClassDef:
    return next(site.node for site in _of(ast.ClassDef)
                if site.module == module and site.node.name == name)


def _methods(module: str, name: str) -> set[Site]:
    return {(module, name, node.name) for node in _class(module, name).body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}


def _fields(module: str, name: str) -> set[Site]:
    """Every ``self.<field>`` a class's methods read or write, its own
    methods aside."""
    methods = {method for *_, method in _methods(module, name)}
    return {(module, name, node.attr)
            for node in ast.walk(_class(module, name))
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "self"
            and node.attr not in methods}


def _op_tables() -> set[Site]:
    """Module- and class-level constants whose value names two or more
    op-table keys: a hand-kept op set beside ``OPS``."""
    found = set()
    for site in _of(ast.Assign, ast.AnnAssign):
        node = site.node
        if site.local or node.value is None:
            continue
        targets = node.targets if isinstance(node, ast.Assign) else [
            node.target]
        named = {sub.value for sub in ast.walk(node.value)
                 if isinstance(sub, ast.Constant) and sub.value in OPS}
        if len(named) >= 2:
            found |= {(site.module, site.qualname, target.id)
                      for target in targets if isinstance(target, ast.Name)}
    return found


#: Read off any object: the namedtuple API, not a private member.
_NAMEDTUPLE_API = {"_replace", "_asdict", "_fields", "_make"}


def _private_reads() -> set[Site]:
    """``x._name`` (``x`` not ``self``/``cls``) where no code of the
    reading module defines ``_name``: a private name crossing a module
    boundary."""
    defined: dict[str, set[str]] = {}
    for site in _of(ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef):
        defined.setdefault(site.module, set()).add(site.node.name)
    for site in _of(ast.Name):
        if isinstance(site.node.ctx, ast.Store):
            defined.setdefault(site.module, set()).add(site.node.id)
    for site in _of(ast.Attribute):
        node = site.node
        if (isinstance(node.ctx, ast.Store)
                and isinstance(node.value, ast.Name)
                and node.value.id in ("self", "cls")):
            defined.setdefault(site.module, set()).add(node.attr)
    return {(site.module, site.qualname, site.node.attr)
            for site in _of(ast.Attribute)
            if site.node.attr.startswith("_")
            and not site.node.attr.startswith("__")
            and site.node.attr not in _NAMEDTUPLE_API
            and not (isinstance(site.node.value, ast.Name)
                     and site.node.value.id in ("self", "cls"))
            and site.node.attr not in defined.get(site.module, ())}


def _private_imports() -> set[Site]:
    """``from x import _name``: a private name imported across modules."""
    return {(site.module, site.qualname, alias.name)
            for site in _of(ast.ImportFrom) for alias in site.node.names
            if alias.name.startswith("_") and not alias.name.startswith("__")}


def _governor_reads() -> set[Site]:
    """What the preemption governor reads of a host beyond its public
    surface: private state, or the lifecycle holder and its machine."""
    return {(site.module, site.qualname, site.node.attr)
            for site in _of(ast.Attribute)
            if site.module == "core/tenancy.py"
            and ((site.node.attr.startswith("_")
                  and ast.unparse(site.node.value) != "self")
                 or site.node.attr in ("machine", "engine"))}


def _unresolved_boundaries() -> set[Site]:
    """Suite boundaries whose target no longer resolves.  The benchmark
    suite traces the program from the outside by name, so a rename must
    fail here rather than silently empty a layer of its report."""
    from benchmarks.suite import adapter, tracing

    return {("benchmarks/suite/tracing.py", "BOUNDARIES", boundary.target)
            for boundary in tracing.BOUNDARIES
            if adapter.resolve(boundary.target) is None}


# -- knobs --------------------------------------------------------------------
#
# ROADMAP aim 2: "Every knob … must justify itself with a test or
# experiment that flips it; otherwise it goes."  The scan reads the places
# a config is built in ``src/`` and ``benchmarks/``: each field must be
# given something other than its default at one of them at least.  Tests
# and examples do not count: a value only they set is a constant the
# product never varies.  A field nobody flips is a constant wearing a
# knob's clothes — delete it, or add it to NEVER_FLIPPED with the reason
# it has to stay.

SCANNED = ("src", "benchmarks")

#: Fields allowed to go unflipped, each with the reason it is still a
#: field and not a constant.
NEVER_FLIPPED = {
    "community": "a credential: deployment settings stay configurable "
                 "even while every test cluster uses 'public'",
    "port_offset": "a deployment setting: only test_concurrent_apps shares "
                   "one network between two deployments",
    "staleness_ms": "None is the paper's behaviour; the load nemesis on "
                    "the roadmap is its planned experiment",
}


def _splats(call: ast.Call) -> bool:
    return any(keyword.arg is None for keyword in call.keywords)


def _config_builders(trees: list[ast.AST]) -> set[str]:
    """``FrameworkConfig``, ``dataclasses.replace``, and every function
    that forwards its ``**kwargs`` into one of those (``make_config``,
    ``build_farm``, test-local helpers), found to a fixed point."""
    builders = {"FrameworkConfig", "replace"}
    functions = [node for tree in trees for node in ast.walk(tree)
                 if isinstance(node, ast.FunctionDef)
                 and node.args.kwarg is not None]
    grew = True
    while grew:
        grew = False
        for function in functions:
            if function.name not in builders and any(
                    isinstance(node, ast.Call) and _splats(node)
                    and _callee(node) in builders
                    for node in ast.walk(function)):
                builders.add(function.name)
                grew = True
    return builders


def _flipped_fields() -> set[str]:
    """Fields given a non-default value (any non-constant expression
    counts) as a keyword of a config-building call — or of a ``dict(...)``
    in a file that splats dicts into one."""
    defaults = {}
    for field in dataclasses.fields(FrameworkConfig):
        defaults[field.name] = (
            field.default if field.default is not dataclasses.MISSING
            else field.default_factory())
    trees = [_tree(path)
             for directory in SCANNED
             for path in sorted((ROOT / directory).rglob("*.py"))]
    builders = _config_builders(trees)
    flipped: set[str] = set()
    for tree in trees:
        calls = [node for node in ast.walk(tree)
                 if isinstance(node, ast.Call)]
        building = [call for call in calls if _callee(call) in builders]
        counted = list(building)
        if any(_splats(call) for call in building):
            counted += [call for call in calls if _callee(call) == "dict"]
        for call in counted:
            for keyword in call.keywords:
                if keyword.arg not in defaults:
                    continue
                value = keyword.value
                if not (isinstance(value, ast.Constant)
                        and value.value == defaults[keyword.arg]
                        and type(value.value)
                        is type(defaults[keyword.arg])):
                    flipped.add(keyword.arg)
    return flipped


def _knob(field: str) -> Site:
    return ("core/framework.py", "FrameworkConfig", field)


def _unflipped_knobs() -> set[Site]:
    flipped = _flipped_fields()
    return {_knob(field.name) for field in dataclasses.fields(FrameworkConfig)
            if field.name not in flipped}


def _never_set_knobs() -> set[Site]:
    """NEVER_FLIPPED fields no call sets as a keyword anywhere — in
    ``src/`` (outside ``framework.py``, which only reads them), the tests,
    the benchmarks or the examples."""
    keywords = {keyword.arg
                for top in ("src", "tests", "benchmarks", "examples")
                for path in (ROOT / top).rglob("*.py")
                if path.name != "framework.py"
                for node in ast.walk(_tree(path))
                if isinstance(node, ast.Call)
                for keyword in node.keywords}
    return {_knob(field) for field in NEVER_FLIPPED if field not in keywords}


# -- the table ----------------------------------------------------------------


class Rule(NamedTuple):
    name: str
    query: Callable[[], set[Site]]
    expected: dict[Site, str]   # each site the query must find → why


def _members(module: str, owner: str, **why: str) -> dict[Site, str]:
    return {(module, owner, name): reason for name, reason in why.items()}


_WORKER = "core/worker.py"
_ENGINE = "core/config_engine.py"
_FRAMEWORK = "core/framework.py"
_PROXY = "tuplespace/proxy.py"
_SHARDING = "tuplespace/sharding.py"

RULES = [
    # -- one frame kind: entries are 0xC3 frames, commit records 0xC5 --
    Rule("pickle_importers", lambda: _importers("pickle"), {
        ("util/serialization.py", ""):
            "the one whole-object codec, behind serialize()",
    }),
    Rule("serialization_importers",
         lambda: _importers("repro.util.serialization"), {
             ("util/codec.py", ""): "a container field takes the pickle tag",
             ("util/__init__.py", ""): "re-exports serialized_size",
             ("net/network.py", ""): "a message crosses the network as "
                                     "serialized bytes",
             ("experiments/classify.py", ""): "Table 2 grades a task by "
                                              "its serialized size",
             ("core/joblevel.py", ""): "a job checkpoint is costed by its "
                                       "serialized size",
         }),
    # -- one wiring path: the classic deployment is the one-shard case --
    Rule("sharded_reads", lambda: _attributes("sharded"), {
        (_FRAMEWORK, "AdaptiveClusterFramework.__init__", "sharded"):
            "set once from the shard count and placement",
        (_FRAMEWORK, "AdaptiveClusterFramework._place_shards", "sharded"):
            "the classic deployment is the placement table's one row",
        (_FRAMEWORK, "AdaptiveClusterFramework._space_client", "sharded"):
            "the one rule for which space client a process gets",
        (_FRAMEWORK, "AdaptiveClusterFramework._make_master", "sharded"):
            "a master over RPC retries once per supervisor heartbeat",
    }),
    Rule("master_constructed", lambda: _calls("Master"), {
        (_FRAMEWORK, "AdaptiveClusterFramework._make_master"):
            "the one place a master process is built",
    }),
    Rule("space_clients_constructed",
         lambda: _calls("SpaceProxy", "ShardRouter", "RecordingSpace"), {
             (_FRAMEWORK, "AdaptiveClusterFramework._space_client"):
                 "the one rule for which space client a process gets; a "
                 "worker only calls the space_factory it is handed",
             (_SHARDING, "ShardRouter.__init__"):
                 "the router's own proxy per shard",
         }),
    # -- one op table: each op's facts live in tuplespace/ops.py --
    Rule("txn_create_defined", lambda: _defs("txn_create"), {
        ("tuplespace/ops.py", "_Recorder.txn_create"):
            "the batch recorder is written once for every batch class",
    }),
    Rule("op_name_tables", _op_tables, {
        ("tuplespace/ops.py", "", "OPS"): "the op table itself",
        ("verify/history.py", "", "_LOST_TAKE"):
            "the checker's model of the slack a lost take leaves (one "
            "entry, or an unknown number), not a fact of the wire op",
    }),
    # -- one split-phase call: the router overlaps requests through its
    #    proxies and starts no process (see spawn_sites) --
    Rule("split_phase_defined", lambda: _defs("_begin"), {
        (_PROXY, "SpaceProxy._begin"):
            "send now, collect later: the router's one overlap path",
    }),
    # -- one request path per side --
    Rule("requests_sent", lambda: _calls("_send_request"), {
        (_PROXY, "SpaceProxy._send"):
            "every call's first attempt: lone, split-phase or batch",
        (_PROXY, "SpaceProxy._attempt"): "a recovered call's next attempt",
    }),
    Rule("handlers_indexed", lambda: _loads("_HANDLERS"), {
        (_PROXY, "SpaceServer._run"):
            "one step runs a lone request and each batch sub-op",
    }),
    Rule("listeners_opened", lambda: _calls("listen"), {
        ("net/network.py", "Network.serve_connections"):
            "the one accept loop of every stream server",
        (_PROXY, "SpaceProxy.notify.attempt"):
            "the notify dial-back, whose first event is read at once",
    }),
    Rule("router_socket_calls",
         lambda: _calls("send", "receive", "connect", under=_SHARDING), {}),
    # -- where a process starts --
    Rule("spawn_sites", lambda: _attributes("spawn"), {
        ("cli.py", "_traced_run.body", "spawn"): "the live console's process",
        ("core/joblevel.py", "JobLevelScheduler.run", "spawn"):
            "one process per scheduled job",
        ("core/worker.py", "WorkerHost.handle_signal", "spawn"):
            "the host's one run process, at its first Start",
        ("experiments/adaptation.py", "adaptation_experiment.body", "spawn"):
            "the experiment's driver",
        ("experiments/chaos.py", "contention_chaos_experiment.run", "spawn"):
            "the campaign's driver",
        ("experiments/harness.py", "run_simulation", "spawn"):
            "the experiments' root process",
        ("experiments/intrusiveness.py",
         "intrusiveness_experiment.body", "spawn"): "the experiment's driver",
        ("faults/injector.py", "FaultInjector.arm", "spawn"):
            "one process per planned fault",
        ("jini/join.py", "JoinManager.start", "spawn"):
            "the lease renewal loop",
        ("jini/sdm.py", "ServiceDiscoveryManager.start", "spawn"):
            "the lookup refresh loop",
        ("node/loadgen.py", "LoadSimulator1._apply", "spawn"):
            "a background load burst",
        ("node/loadgen.py", "LoadScript.start", "spawn"): "the load script",
        ("runtime/simulated.py", "SimulatedRuntime.spawn", "spawn"):
            "the runtime's spawn itself",
        ("tuplespace/durable.py", "HotStandby.start", "spawn"):
            "the standby's tail of the primary's feed",
        ("tuplespace/durable.py", "HotStandby._on_feed", "spawn"):
            "the tail re-dials after the feed drops",
        ("tuplespace/failover.py", "SpaceSupervisor._promote", "spawn"):
            "a failover blocks, so it runs beside the heartbeat",
        ("tuplespace/failover.py", "SpaceSupervisor._failover", "spawn"):
            "fencing the deposed primary runs after the failover",
    }),
    # -- one task cycle at every pipeline depth --
    Rule("worker_takes",
         lambda: _calls("take", "take_multiple", under=_WORKER), {
             (_WORKER, "WorkerHost._cycle"):
                 "the one take/compute/write-back cycle",
         }),
    Rule("planning_cost_sites",
         lambda: _attributes("planning_cost_ms", under="core/master.py"), {
             ("core/master.py", "Master.run", "planning_cost_ms"):
                 "the one seeding loop charges each chunk's planning",
         }),
    Rule("worker_host_methods", lambda: _methods(_WORKER, "WorkerHost"),
         _members(
             _WORKER, "WorkerHost",
             __init__="wiring",
             start="brings up the node agent and the rule-base client",
             stop="the host's own shutdown",
             crash="abrupt node failure",
             state="the lifecycle state, read off the engine",
             carry="what the pipeline holds, for the governor",
             _start_trap_emitter="trap-mode monitoring",
             worker_time_ms="the paper's computation time",
             link_rulebase="the in-process link to the rule-base",
             _dial_rulebase="the control socket to the rule-base",
             _on_control="signals off the control socket",
             handle_signal="applies one signal through the engine",
             _stop_self="the worker's own Stop",
             _honored="records a signal's honoured latency",
             _run="the host's one run process",
             _worker_loop="one Start's loop",
             _cycle="the one task cycle",
             _replacement_for="quarantine decision for a failed task",
             _abort_quietly="abort a leftover transaction",
             _release_pending="give back a carried batch",
             _charge_batch="a batch's modelled CPU in one charge",
         )),
    # -- one holder of the worker's lifecycle --
    Rule("core_conditions", lambda: _calls("condition", under="core/"), {
        (_ENGINE, "RemoteNodeConfigurationEngine.__init__"):
            "the lifecycle holder's lock and wake-ups",
    }),
    Rule("lifecycle_assignments",
         lambda: _attributes("generation", "halted", under="core/",
                             store=True),
         _members(_ENGINE, "RemoteNodeConfigurationEngine.__init__",
                  generation="no Start yet", halted="not halted yet")
         | _members(_ENGINE, "RemoteNodeConfigurationEngine.deliver",
                    generation="a Start opens a new generation")
         | _members(_ENGINE, "RemoteNodeConfigurationEngine.halt",
                    halted="the host stopped or crashed")),
    Rule("state_machines_built", lambda: _calls("WorkerStateMachine"), {
        (_ENGINE, "RemoteNodeConfigurationEngine.__init__"):
            "the worker's one Fig. 5 state",
        ("core/inference.py", "InferenceEngine.order"):
            "advances a record's assumed_state, the rule-base's view",
    }),
    Rule("worker_host_fields", lambda: _fields(_WORKER, "WorkerHost"),
         _members(
             _WORKER, "WorkerHost",
             runtime="wiring", node="wiring", app="wiring",
             tracer="wiring", network="wiring", metrics="wiring",
             netmgmt_address="wiring", space_factory="builds the client",
             client="the space client of the current Start",
             worker_poll_ms="setting", compute_real="setting",
             transactional="setting", model_time="setting",
             max_task_attempts="setting", recovery="setting",
             _recovery_rng="setting", task_txn_lease_ms="setting",
             prefetch="the pipeline depth",
             _pending="the carry a flush prefetched",
             _active_batch="the batch being computed",
             crashed="set by crash()", engine="the lifecycle holder",
             worker_id="the rule-base's id for this worker",
             running="host lifetime, not worker state",
             tasks_done="count", first_take_ms="timing",
             last_result_ms="timing", _control="the control socket",
             _registered="registered with the rule-base",
             _report_stop="how the worker's own Stop is reported",
             _trap_emitter="trap-mode monitoring",
             _received_at="when each signal last arrived",
         )),
    Rule("engine_fields",
         lambda: _fields(_ENGINE, "RemoteNodeConfigurationEngine"),
         _members(
             _ENGINE, "RemoteNodeConfigurationEngine",
             runtime="wiring", network="wiring", node="wiring",
             code_server="wiring", classes_loaded="class-loading state",
             loads="class-loading count", model_time="setting",
             machine="the worker's Fig. 5 state",
             generation="the newest Start", halted="the host stopped",
             _cond="guards and wakes the three above",
         )),
    Rule("engine_methods",
         lambda: _methods(_ENGINE, "RemoteNodeConfigurationEngine"),
         _members(
             _ENGINE, "RemoteNodeConfigurationEngine",
             __init__="wiring", load_classes="the Start's class load",
             unload_classes="dropped on Stop",
             deliver="applies a signal under the lock",
             halt="the host stopped or crashed",
             ended="is a Start's loop over?",
             await_start="the run process waits for a Start",
             wait_for_clearance="the between-tasks gate",
         )),
    # -- one decider: only the worker applies a signal --
    Rule("signals_applied",
         lambda: _attributes("handle_signal", "can_apply"), {
             (_WORKER, "WorkerHost._on_control", "handle_signal"):
                 "off the control socket",
             (_WORKER, "WorkerHost.link_rulebase", "handle_signal"):
                 "over the in-process link it hands the rule-base",
             (_WORKER, "WorkerHost._stop_self", "handle_signal"):
                 "the worker's own Stop",
             (_WORKER, "WorkerHost._stop_self", "can_apply"):
                 "its own Stop only if Fig. 5 allows it",
         }),
    Rule("governor_reads", _governor_reads, {}),
    # -- the benchmark suite's view of the program --
    Rule("suite_boundaries", _unresolved_boundaries, {}),
    # -- knobs --
    Rule("knobs_flipped", _unflipped_knobs,
         {_knob(field): reason for field, reason in NEVER_FLIPPED.items()}),
    Rule("never_flipped_knobs_set", _never_set_knobs, {}),
    # -- module privacy: a private name crosses a module boundary only
    #    between friends of one package --
    Rule("private_names_across_modules",
         lambda: _private_reads() | _private_imports(), {
             ("sim/condition.py", "SimCondition.wait", "_park"):
                 "a condition parks its waiter on the kernel",
             ("sim/condition.py", "SimCondition._expire", "_wake"):
                 "a timed-out waiter wakes on the kernel",
             ("sim/condition.py", "SimCondition.notify", "_kernel_wake"):
                 "a notified waiter's one-frame wake",
             ("tuplespace/durable.py", "DurableSpace.recover",
              "_apply_committed"):
                 "recovery replays into the space it builds",
             ("tuplespace/sharding.py", "ShardRouter._everywhere", "_begin"):
                 "the router's split-phase call",
             ("tuplespace/sharding.py", "ShardRouter._overlapped.scan",
              "_begin"): "the router's split-phase call",
             ("tuplespace/sharding.py", "ShardRouter._scatter_write_all",
              "_begin"): "the router's split-phase call",
             ("tuplespace/space.py", "JavaSpace._attempt", "_enlist"):
                 "a space joins the transaction it works under",
             ("tuplespace/space.py", "JavaSpace._claim", "_enlist"):
                 "a space joins the transaction it works under",
             ("tuplespace/space.py", "JavaSpace._write_frames", "_enlist"):
                 "a space joins the transaction it works under",
             ("tuplespace/transaction.py", "Transaction.commit",
              "_complete_transaction"):
                 "a transaction completes in each space it enlisted",
             ("tuplespace/transaction.py", "Transaction.abort",
              "_complete_transaction"):
                 "a transaction completes in each space it enlisted",
         }),
]


@pytest.mark.parametrize("rule", RULES, ids=[rule.name for rule in RULES])
def test_rule(rule: Rule) -> None:
    found = rule.query()
    add = sorted(found - rule.expected.keys())
    remove = sorted(rule.expected.keys() - found)
    assert not add and not remove, (
        f"{rule.name}: add {add}, remove {remove}")
