"""The wire ops each pipeline depth sends, pinned at the proxy.

Every request a :class:`SpaceProxy` puts on the wire is logged as its
op name; a ``batch`` shows as its sub-op list and a ``write_all`` as its
entry count.  These sequences are the contract the worker's one task
cycle and the master's one seeding loop keep at every depth:

* depth 1 — ``txn_create, take, write, txn_commit`` per task, a poison
  task's replacement included, and ``txn_create, take, txn_abort`` per
  empty poll;
* depth > 1 — a ``[txn_create, take_multiple]`` opener, then
  ``[write_all, txn_commit, txn_create, take_multiple]`` per batch in
  steady state; a carry given back on Pause ends in ``txn_abort``;
* the master seeds with one ``write`` per task at ``seed_batch=1`` and
  one ``write_all`` per chunk above it, a final chunk of one included.
"""

from __future__ import annotations

from typing import Any

import pytest

from repro.core import AdaptiveClusterFramework, FrameworkConfig
from repro.core.codeserver import CODE_SERVER_PORT, CodeServer
from repro.core.entries import ResultEntry, TaskEntry
from repro.core.metrics import Metrics
from repro.core.signals import Signal
from repro.core.worker import WorkerHost
from repro.net import Address, Network
from repro.node import testbed_small
from repro.node.machine import FAST_PC, Node
from repro.tuplespace import JavaSpace, SpaceProxy, SpaceServer
from tests.core.toyapp import SumOfSquares

SPACE_ADDR = Address("master", 4155)

OPEN = "batch[txn_create,take_multiple]"
STEADY = "batch[write_all,txn_commit,txn_create,take_multiple]"
CYCLE = ["txn_create", "take", "write", "txn_commit"]
IDLE = ["txn_create", "take", "txn_abort"]


class PoisonApp(SumOfSquares):
    """SumOfSquares whose designated task always raises."""

    def __init__(self, poison: int, **kwargs: Any) -> None:
        super().__init__(**kwargs)
        self.poison = poison

    def execute(self, payload: Any) -> Any:
        if payload == self.poison:
            raise ValueError(f"poison task {payload}")
        return payload * payload

    def aggregate(self, results: dict[int, Any]) -> Any:
        return sum(results.values())


@pytest.fixture()
def wire(monkeypatch):
    """``(host, label)`` for every request any proxy sends."""
    log: list[tuple[str, str]] = []
    send = SpaceProxy._send_request

    def recording(self, op, args):
        if op == "batch":
            label = f"batch[{','.join(sub['op'] for sub in args['ops'])}]"
        elif op == "write_all":
            label = f"write_all({len(args['entries_data'])})"
        else:
            label = op
        log.append((self.host, label))
        return send(self, op, args)

    monkeypatch.setattr(SpaceProxy, "_send_request", recording)
    return log


def drive(rt, fn):
    proc = rt.kernel.spawn(fn, name="driver")
    rt.kernel.run_until_idle()
    if proc.error is not None:
        raise proc.error
    return proc.result


def run_worker(rt, app, prefetch, script, max_task_attempts=3):
    """One transactional worker on ``w1`` against a served space holding
    ``app.n`` tasks; ``script(host)`` runs once Start is signalled."""
    net = Network(rt)
    space = JavaSpace(rt)
    SpaceServer(rt, space, net, SPACE_ADDR).start()
    code = CodeServer(rt, net, "master")
    code.publish(app.app_id, app.classload_profile())
    code.start()
    host = WorkerHost(
        rt, Node(rt, net, "w1", FAST_PC), app,
        space_factory=lambda: SpaceProxy(net, "w1", SPACE_ADDR),
        code_server=Address("master", CODE_SERVER_PORT),
        netmgmt_address=None, metrics=Metrics(rt), worker_poll_ms=50.0,
        transactional=True, prefetch=prefetch,
        max_task_attempts=max_task_attempts,
    )
    host.running = True

    def body():
        for i in range(app.n):
            space.write(TaskEntry(app.app_id, i, i))
        host.handle_signal(Signal.START)
        script(host)
        host.stop()
        return space.count(ResultEntry())

    return drive(rt, body)


def ops_of(log, host):
    return [label for who, label in log if who == host]


def split_idle(ops, unit):
    """``ops`` minus its trailing whole repetitions of ``unit``."""
    while ops[-len(unit):] == unit:
        ops = ops[:-len(unit)]
    return ops


def test_depth_one_sends_one_op_per_step_poison_replacement_included(rt, wire):
    app = PoisonApp(poison=1, n=3, task_cost=100.0)
    results = run_worker(rt, app, 1, lambda host: rt.sleep(3_000.0),
                         max_task_attempts=2)
    assert results == 2
    ops = ops_of(wire, "w1")
    # Tasks 0, 1 (fails: requeued), 2, then 1 again (dead-lettered).
    assert split_idle(ops, IDLE) == CYCLE * 4
    assert len(ops) > len(CYCLE) * 4          # the idle polls did run


def test_depth_four_opens_then_retires_and_prefetches_in_one_rpc(rt, wire):
    app = SumOfSquares(n=12, task_cost=100.0)
    assert run_worker(rt, app, 4, lambda host: rt.sleep(6_000.0)) == 12
    ops = ops_of(wire, "w1")
    # The third write-back's prefetch comes back empty: its txn is
    # aborted, then each idle poll is an opener plus its abort.
    assert split_idle(ops, [OPEN, "txn_abort"]) == (
        [OPEN] + [STEADY] * 3 + ["txn_abort"])


def test_depth_four_pause_gives_the_carry_back_with_txn_abort(rt, wire):
    app = SumOfSquares(n=12, task_cost=100.0)

    def script(host):
        rt.sleep(600.0)                  # mid first batch
        host.handle_signal(Signal.PAUSE)
        rt.sleep(1_000.0)
        host.handle_signal(Signal.RESUME)
        rt.sleep(6_000.0)

    assert run_worker(rt, app, 4, script) == 12
    ops = ops_of(wire, "w1")
    assert ops[:3] == [OPEN, STEADY, "txn_abort"]
    assert split_idle(ops[3:], [OPEN, "txn_abort"]) == (
        [OPEN] + [STEADY] * 2 + ["txn_abort"])


@pytest.mark.parametrize("seed_batch, seeds", [
    (1, ["write"] * 25),
    (24, ["write_all(24)", "write_all(1)"]),
])
def test_master_seeds_one_write_per_task_or_one_write_all_per_chunk(
        rt, wire, seed_batch, seeds):
    cluster = testbed_small(rt, workers=2)
    app = SumOfSquares(n=25)
    framework = AdaptiveClusterFramework(
        rt, cluster, app,
        FrameworkConfig(monitoring=False, admission=True,
                        master_seed_batch=seed_batch),
    )

    def experiment():
        framework.start()
        report = framework.run()
        framework.shutdown()
        return report

    assert drive(rt, experiment).complete
    ops = ops_of(wire, cluster.master.hostname)
    assert [op for op in ops if op.startswith("write")] == seeds
