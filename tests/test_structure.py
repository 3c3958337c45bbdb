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
import functools
from collections import Counter
from pathlib import Path
from typing import Callable, Iterator, NamedTuple, Optional

import pytest

from repro.tuplespace.ops import OPS

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"

Site = tuple  # (module, qualname[, name[, count]])


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


def _name(func: ast.expr) -> str:
    return func.attr if isinstance(func, ast.Attribute) else getattr(
        func, "id", "")


def _callee(call: ast.Call) -> str:
    return _name(call.func)


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


def _references(name: str, under: str) -> set[Site]:
    """Sites that name ``.<name>``, each with how many times: a second
    reference inside one function changes its site."""
    counts = Counter((site.module, site.qualname, site.node.attr)
                     for site in _of(ast.Attribute)
                     if site.module.startswith(under)
                     and site.node.attr == name)
    return {(*site, count) for site, count in counts.items()}


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


#: Why a BOUNDARIES target may not resolve: the code it named is gone.
_UNTRACED = "deleted: no product run, so no suite workload, calls it; item " \
            "1's re-recorded suite drops the row"


# -- options ------------------------------------------------------------------
#
# ROADMAP aim 2: "Every knob … must justify itself with a test or
# experiment that flips it; otherwise it goes."  An option is a defaulted
# parameter, positional or keyword-only, of any module function, method,
# classmethod, staticmethod or constructor of ``src/repro`` (a closure
# inside a function is not an option), or a field of a config or policy
# dataclass (POLICIES).  The scan reads every call in ``src/`` and
# ``benchmarks/``: by keyword, by position (``self``/``cls`` aside), through
# ``functools.partial``, a ``**kwargs`` forwarder or ``cli.py``'s campaign
# table, every option must be given something other than its default at
# one of them at least.  Calls match by name, so a call of any method of
# that name counts.  Tests and examples do not count: a value only they
# set is a constant the product never varies.  An option nobody flips is
# a constant wearing a knob's clothes — make it one, or add it to
# NEVER_FLIPPED with the reason it has to stay.  Result and state records
# are dataclasses outside POLICIES, so the row does not read them.

SCANNED = ("src", "benchmarks")

#: The dataclasses whose fields are options; each is built by a caller
#: to configure a deployment, a server, a client or a network.
POLICIES = ("FrameworkConfig", "ThresholdPolicy", "RecoveryPolicy",
            "AdmissionConfig", "LatencyModel", "ChaosProfile")

_APP = "application input: each job or run states its own size, seed " \
       "and costs"
_DEPLOY = "a deployment setting: addresses and credentials stay " \
          "configurable"
_INJECT = "a test injection point: a test substitutes a fake here"
_SUITE = "passed by the frozen benchmark suite (ROADMAP item 1(d))"
_REFERENCE = "a reference implementation that tests compare against"
_SPACE = "the paper's JavaSpaces client surface: an op takes a " \
         "transaction, a lease and a timeout"
_GROUP_COMMIT = "safety code: the group-commit time watermark, a flush " \
                "that bounds how long a lull delays durability (ROADMAP " \
                "item 4(c) decides it)"


def _options_of(module: str, owner: str, reason: str, *names: str
                ) -> dict[Site, str]:
    return {(module, owner, name): reason for name in names}


#: Options allowed to go unflipped, each with the reason it is still an
#: option and not a constant.
NEVER_FLIPPED: dict[Site, str] = {
    ("core/framework.py", "FrameworkConfig", "port_offset"):
        "a deployment setting: only test_concurrent_apps shares one "
        "network between two deployments",
    ("core/framework.py", "FrameworkConfig", "staleness_ms"):
        "None is the paper's behaviour; the load nemesis on the roadmap "
        "is its planned experiment",
    **_options_of("apps/options/app.py", "OptionPricingApplication", _APP,
                  "n_blocks"),
    **_options_of("apps/options/mc.py", "european_mc_price", _REFERENCE,
                  "antithetic", "rng"),
    **_options_of("apps/options/mc.py", "european_mc_greeks", _REFERENCE,
                  "rng"),
    **_options_of("apps/prefetch/app.py", "PrefetchApplication", _APP,
                  "cluster", "damping", "n_pages", "seed"),
    **_options_of("apps/prefetch/distributed.py", "DistributedPageRank",
                  _APP, "max_rounds", "tol"),
    ("apps/prefetch/pagerank.py", "pagerank_power", "tol"): _REFERENCE,
    ("apps/prefetch/pagerank.py", "power_iteration_step", "damping"):
        _REFERENCE,
    **_options_of("apps/prefetch/server.py", "WebServerModel", _APP,
                  "ranks", "timings"),
    **_options_of("apps/prefetch/server.py", "simulate_browsing_session",
                  _APP, "follow_rank_probability", "n_requests", "seed"),
    ("apps/raytrace/app.py", "RayTracingApplication", "max_depth"): _APP,
    **_options_of("apps/raytrace/render.py", "render_image", _APP,
                  "max_depth", "samples_per_axis"),
    ("experiments/adaptation.py", "adaptation_experiment", "seed"): _APP,
    ("snmp/mib.py", "Mib.register", "writable"):
        "application input: whoever registers an OID declares its access "
        "with its value",
    ("node/cluster.py", "Cluster", "master_spec"):
        "a deployment setting: the master's machine, which the framework "
        "checks can host the Jini and JavaSpaces services",
    ("cli.py", "main", "argv"): _INJECT,
    ("experiments/chaos.py", "contention_chaos_experiment", "fault_plan"):
        "a test injection point: a test composes its own fault plan with "
        "the contention campaign",
    **_options_of("net/network.py", "ChaosProfile",
                  "a test injection point: tests inject drops and delays "
                  "through Network.set_chaos",
                  "datagram_drop", "delay_probability", "extra_delay_ms",
                  "stream_drop"),
    ("sim/kernel.py", "SimKernel.run_until_idle", "max_events"):
        "safety code: the guard that ends a runaway simulation",
    ("tuplespace/durable.py", "DurableSpace", "group_commit_ms"):
        _GROUP_COMMIT,
    ("tuplespace/durable.py", "DurableSpace.recover", "group_commit_ms"):
        _GROUP_COMMIT,
    **_options_of("experiments/chaos.py", "chaos_experiment", _SUITE,
                  "codec"),
    **_options_of("experiments/chaos.py", "coordination_chaos_experiment",
                  _SUITE, "codec"),
    **_options_of("tuplespace/durable.py", "DurableSpace.recover", _SUITE,
                  "codec", "snapshot_every"),
    **_options_of("tuplespace/wal.py", "FileWalStore", _SUITE,
                  "codec", "group_size"),
    ("tuplespace/space.py", "JavaSpace.exists", "timeout_ms"): _SPACE,
    ("tuplespace/space.py", "JavaSpace.read", "txn"): _SPACE,
    ("tuplespace/ops.py", "_Client.read", "txn"): _SPACE,
    ("tuplespace/ops.py", "_Recorder.read", "txn"): _SPACE,
    **_options_of("tuplespace/space.py", "JavaSpace.write_all", _SPACE,
                  "lease_ms"),
    **_options_of("tuplespace/proxy.py", "SpaceProxy.exists", _SPACE,
                  "timeout_ms"),
    **_options_of("tuplespace/ops.py", "_Client.write_all", _SPACE,
                  "lease_ms"),
    **_options_of("tuplespace/ops.py", "_Recorder.write_all", _SPACE,
                  "lease_ms"),
}


def _splats(call: ast.Call) -> bool:
    return any(keyword.arg is None for keyword in call.keywords)


class Option(NamedTuple):
    callee: str                 # the name a call uses: the class for a
                                # constructor or a field, else the def's
    default: ast.expr
    index: Optional[int]        # position in a call; None: keyword only


def _parameters(function: ast.FunctionDef, skip: int
                ) -> Iterator[tuple[str, ast.expr, Optional[int]]]:
    """Each defaulted parameter: name, default, position in a call (the
    first ``skip`` parameters, ``self`` or ``cls``, are not passed)."""
    args = function.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    for index, (arg, default) in enumerate(
            zip(positional[first:], args.defaults), first):
        yield arg.arg, default, index - skip
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, default, None


@functools.cache
def _options() -> dict[Site, Option]:
    """Every option of ``src/repro``: a defaulted parameter of a module
    function, a method or a constructor (keyed by its class), and a
    field of a policy dataclass."""
    found = {}
    for site in _of(ast.FunctionDef, ast.AsyncFunctionDef):
        function, owner = site.node, site.qualname
        if site.local:
            continue
        decorators = {getattr(node, "id", "") for node in
                      function.decorator_list}
        skip = int(bool(owner) and "staticmethod" not in decorators)
        if function.name == "__init__":
            key, callee = owner, owner.rpartition(".")[2]
        else:
            key = f"{owner}.{function.name}".lstrip(".")
            callee = function.name
        for name, default, index in _parameters(function, skip):
            found[(site.module, key, name)] = Option(callee, default, index)
    for site in _of(ast.ClassDef):
        if site.node.name not in POLICIES:
            continue
        for item in site.node.body:
            if (isinstance(item, ast.AnnAssign)
                    and isinstance(item.target, ast.Name)
                    and item.value is not None):
                value = item.value
                if isinstance(value, ast.Call) and _callee(value) == "field":
                    value = next((k.value for k in value.keywords
                                  if k.arg == "default"), value)
                found[(site.module, site.node.name, item.target.id)] = (
                    Option(site.node.name, value, None))
    return found


def _is_default(value: ast.expr, default: ast.expr) -> bool:
    if isinstance(default, ast.Constant):
        return (isinstance(value, ast.Constant)
                and value.value == default.value
                and type(value.value) is type(default.value))
    return ast.dump(value) == ast.dump(default)


#: Nodes that hold no call: the call scan does not descend into them.
_LEAVES = (ast.Name, ast.Constant, ast.expr_context, ast.operator,
           ast.unaryop, ast.cmpop, ast.boolop, ast.alias, ast.arg)


class Built(NamedTuple):
    name: str                   # what the call builds or calls
    args: list[ast.expr]        # its positional arguments
    call: ast.Call


def _table_names(row: ast.expr, index: Optional[int]) -> set[str]:
    if index is not None and isinstance(row, ast.Tuple):
        row = row.elts[index]
    return {row.value} if isinstance(row, ast.Constant) else set()


@functools.cache
def _scan(path: Path) -> tuple[list[Built], dict[str, set[str]]]:
    """One walk of a file: each call with the name of what it calls, and
    each function that forwards its ``**kwargs`` into a call (callee →
    forwarders).  A call names its callee; ``super().__init__(…)`` its
    class's first base; ``partial(f, …)`` ``f``; and ``getattr(module,
    name)(…)`` each function a module-level table gives ``name``
    (``cli.py``'s campaigns); ``cls(…)`` its class."""
    tree = _tree(path)
    tables = {node.targets[0].id: node.value.values for node in tree.body
              if isinstance(node, ast.Assign)
              and isinstance(node.targets[0], ast.Name)
              and isinstance(node.value, ast.Dict)}
    bound: dict[str, set[str]] = {}     # a name unpacked from a table
    dispatches, found = [], []
    forwarders: dict[str, set[str]] = {}
    stack: list[tuple[ast.AST, str, str, Optional[str]]] = [
        (tree, "", "", None)]
    while stack:
        node, owner, base, forwarder = stack.pop()
        if isinstance(node, ast.ClassDef):
            owner = node.name
            base = getattr(node.bases[0], "id", "") if node.bases else ""
        elif isinstance(node, ast.FunctionDef) and node.args.kwarg:
            forwarder = node.name
        elif (isinstance(node, ast.Assign)
              and isinstance(node.value, ast.Subscript)
              and getattr(node.value.value, "id", None) in tables):
            rows = tables[node.value.value.id]
            for target in node.targets:
                names = (list(enumerate(target.elts))
                         if isinstance(target, ast.Tuple)
                         else [(None, target)])
                for index, name in names:
                    bound[getattr(name, "id", "")] = set().union(
                        *(_table_names(row, index) for row in rows))
        elif isinstance(node, ast.Call):
            func = node.func
            if forwarder and _splats(node):
                forwarders.setdefault(_callee(node), set()).add(forwarder)
            if (isinstance(func, ast.Attribute) and func.attr == "__init__"
                    and isinstance(func.value, ast.Call)
                    and _callee(func.value) == "super"):
                found.append(Built(base, node.args, node))
            elif (isinstance(func, ast.Call) and _callee(func) == "getattr"
                  and len(func.args) == 2
                  and isinstance(func.args[1], ast.Name)):
                dispatches.append((func.args[1].id, node))
            elif _callee(node) == "partial" and node.args:
                found.append(Built(_name(node.args[0]), node.args[1:], node))
            else:
                callee = _callee(node)
                found.append(Built(owner if callee == "cls" else callee,
                                   node.args, node))
        stack.extend((child, owner, base, forwarder)
                     for child in ast.iter_child_nodes(node)
                     if not isinstance(child, _LEAVES))
    found += [Built(name, node.args, node) for table_name, node in dispatches
              for name in bound.get(table_name, ())]
    return found, forwarders


def _builders(forwarders: dict[str, set[str]], callee: str) -> set[str]:
    """``callee`` (and ``dataclasses.replace`` of a policy), and every
    function that forwards its ``**kwargs`` into one of those, found to a
    fixed point."""
    builders = {callee} | ({"replace"} if callee in POLICIES else set())
    todo = list(builders)
    while todo:
        for forwarder in forwarders.get(todo.pop(), ()):
            if forwarder not in builders:
                builders.add(forwarder)
                todo.append(forwarder)
    return builders


def _passed(tops: tuple[str, ...], flipped: bool) -> set[Site]:
    """Options a call in ``tops`` passes (with ``flipped``, only something
    other than their default; any non-constant expression counts): by
    keyword or by position of a call of their function, class or
    ``partial``, as a keyword of a ``**kwargs`` forwarder, or as a
    keyword of a ``dict(…)`` or ``.update(…)`` in a file that splats
    into one."""
    scans = [_scan(path) for top in tops
             for path in sorted((ROOT / top).rglob("*.py"))]
    files = [built for built, _ in scans]
    forwarders: dict[str, set[str]] = {}
    for _, forwarded in scans:
        for name, functions in forwarded.items():
            forwarders.setdefault(name, set()).update(functions)
    calls: dict[str, list[tuple[int, Built]]] = {}
    for number, built in enumerate(files):
        for call in built:
            calls.setdefault(call.name, []).append((number, call))
    callees: dict[str, dict[str, list[tuple[Site, Option]]]] = {}
    for site, option in _options().items():
        callees.setdefault(option.callee, {}).setdefault(
            site[2], []).append((site, option))
    found: set[Site] = set()
    for callee, by_name in callees.items():
        building = [(number, call)
                    for name in _builders(forwarders, callee)
                    for number, call in calls.get(name, ())]
        splatting = {number for number, call in building
                     if _splats(call.call)}
        counted = building + [(number, call) for number in splatting
                              for call in files[number]
                              if call.name in ("dict", "update")]
        for _, call in counted:
            passed = [(keyword.arg, keyword.value)
                      for keyword in call.call.keywords if keyword.arg]
            if call.name == callee:
                for index, value in enumerate(call.args):
                    if isinstance(value, ast.Starred):
                        break
                    passed += [(site[2], value)
                               for options in by_name.values()
                               for site, option in options
                               if option.index == index]
            for name, value in passed:
                found |= {site for site, option in by_name.get(name, ())
                          if not flipped
                          or not _is_default(value, option.default)}
    return found


def _unflipped_options() -> set[Site]:
    return _options().keys() - _passed(SCANNED, flipped=True)


def _never_set_options() -> set[Site]:
    """NEVER_FLIPPED options no call passes anywhere — in ``src/``, the
    tests, the benchmarks or the examples: kept for nobody."""
    return NEVER_FLIPPED.keys() - _passed(
        ("src", "tests", "benchmarks", "examples"), flipped=False)


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
    Rule("split_phase_defined", lambda: _defs("begin"), {
        (_PROXY, "SpaceProxy.begin"):
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
         lambda: _references("planning_cost_ms", under="core/master.py"), {
             ("core/master.py", "Master.run", "planning_cost_ms", 1):
                 "the one seeding loop charges each chunk's planning, "
                 "once",
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
    Rule("suite_boundaries", _unresolved_boundaries, {
        ("benchmarks/suite/tracing.py", "BOUNDARIES", target): _UNTRACED
        for target in (
            "repro.core.metrics:Metrics.record",
            "repro.core.metrics:Metrics.scalar",
            "repro.core.netmgmt:NetworkManagementModule.poll_once",
            "repro.jini.discovery:LookupLocator.get_registrar",
            "repro.jini.discovery:LookupLocator.probe",
            "repro.jini.join:LookupClient.renew",
            "repro.jini.lookup:LookupService.renew",
            "repro.jini.sdm:ServiceDiscoveryManager.lookup_one",
            "repro.jini.sdm:ServiceDiscoveryManager.refresh_once",
            "repro.jini.sdm:ServiceDiscoveryManager.start",
            "repro.jini.sdm:ServiceDiscoveryManager.stop",
            "repro.snmp.manager:SnmpManager.get",
            "repro.snmp.manager:SnmpManager.get_bulk",
            "repro.snmp.manager:SnmpManager.get_next",
            "repro.snmp.manager:SnmpManager.set",
            "repro.snmp.manager:SnmpManager.walk",
            "repro.snmp.manager:SnmpManager.walk_bulk",
            "repro.telemetry.registry:MetricsSnapshotter.tick",
            "repro.telemetry.registry:Registry.snapshot_into",
        )}),
    # -- options --
    Rule("knobs_flipped", _unflipped_options, NEVER_FLIPPED),
    Rule("never_flipped_knobs_set", _never_set_options, {
        ("tuplespace/durable.py", "DurableSpace", "group_commit_ms"):
            _GROUP_COMMIT,
        ("tuplespace/durable.py", "DurableSpace.recover", "group_commit_ms"):
            _GROUP_COMMIT,
    }),
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
