"""Structural rules of the source tree, read from its ``ast``.

Each row states a positive fact about where something may happen in
``src/repro``: which functions start a process, where a worker signal is
applied, what the preemption governor may read of a host.  The rules are
checked on the parsed code, so a comment that names a symbol passes and a
renamed copy of the code does not.  Each allow-list is exact: a site that
goes away leaves its row in the same change, so a list only shrinks.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def _attributes(path: Path) -> Iterator[tuple[str, ast.Attribute]]:
    """Every attribute reference in ``path`` with the qualified name of the
    function or class it sits in (``""`` at module level)."""
    scope: list[str] = []

    def walk(node: ast.AST) -> Iterator[tuple[str, ast.Attribute]]:
        named = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef))
        if named:
            scope.append(node.name)
        if isinstance(node, ast.Attribute):
            yield ".".join(scope), node
        for child in ast.iter_child_nodes(node):
            yield from walk(child)
        if named:
            scope.pop()

    yield from walk(ast.parse(path.read_text(), str(path)))


def _sites(attr: str) -> set[tuple[str, str]]:
    """``(module path, qualname)`` of every reference to ``.<attr>``."""
    return {(path.relative_to(SRC).as_posix(), qualname)
            for path in sorted(SRC.rglob("*.py"))
            for qualname, node in _attributes(path) if node.attr == attr}


#: Every function that starts a simulated or threaded process.  The
#: monitoring plane (snmp, netmgmt, the code server, the lookup service),
#: the preemption governor, the shard router and the proxy are callback
#: driven and start none.
SPAWN_SITES = {
    ("cli.py", "_traced_run.body"),
    ("core/joblevel.py", "JobLevelScheduler.run"),
    ("core/worker.py", "WorkerHost.handle_signal"),
    ("experiments/adaptation.py", "adaptation_experiment.body"),
    ("experiments/chaos.py", "contention_chaos_experiment.run"),
    ("experiments/harness.py", "run_simulation"),
    ("experiments/intrusiveness.py", "intrusiveness_experiment.body"),
    ("faults/injector.py", "FaultInjector.arm"),
    ("jini/join.py", "JoinManager.start"),
    ("jini/sdm.py", "ServiceDiscoveryManager.start"),
    ("node/loadgen.py", "LoadSimulator1._apply"),
    ("node/loadgen.py", "LoadScript.start"),
    ("runtime/simulated.py", "SimulatedRuntime.spawn"),
    ("tuplespace/durable.py", "HotStandby.start"),
    ("tuplespace/durable.py", "HotStandby._on_feed"),
    ("tuplespace/failover.py", "SpaceSupervisor._promote"),
    ("tuplespace/failover.py", "SpaceSupervisor._failover"),
}


def test_processes_start_only_at_the_listed_sites():
    assert _sites("spawn") == SPAWN_SITES


def test_worker_signals_are_applied_only_by_the_worker():
    """One decider: the rule-base orders every signal over the worker's
    link, so only the worker applies one — off its control socket, over
    the in-process link it hands the rule-base, or as its own Stop.
    Nothing else checks a transition's legality against the worker."""
    assert _sites("handle_signal") == {
        ("core/worker.py", "WorkerHost._on_control"),
        ("core/worker.py", "WorkerHost.link_rulebase"),
        ("core/worker.py", "WorkerHost._stop_self"),
    }
    assert _sites("can_apply") == {("core/worker.py", "WorkerHost._stop_self")}


def test_the_governor_reads_hosts_through_their_public_surface():
    """The preemption governor is a fact source: it reads a host's carry
    and identity, never its private state or its lifecycle holder."""
    private = [ast.unparse(node) for _, node in
               _attributes(SRC / "core" / "tenancy.py")
               if (node.attr.startswith("_")
                   and ast.unparse(node.value) != "self")
               or node.attr in ("machine", "engine")]
    assert private == []
