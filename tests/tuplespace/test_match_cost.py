"""What matching costs, counted — not timed.

``JavaSpace.match_stats`` counts the ids a bucket walk examines
(``scan_steps``); wrapping the codec counts every decode in the
process.  The ceilings are exact and noise-free: a selective
operation costs its matches, not its bucket, and an entry is decoded
once, by whoever consumes it.
"""

from __future__ import annotations

import sys
from collections import Counter

import pytest

from repro.core.entries import TaskEntry
from repro.core.framework import AdaptiveClusterFramework, FrameworkConfig
from repro.experiments.harness import run_simulation
from repro.node.cluster import testbed_small
from repro.sim.rng import RandomStreams
from repro.tuplespace import JavaSpace
from repro.util import codec
from tests.conftest import run_in_sim
from tests.core.toyapp import SumOfSquares

ENTRIES = 20_000
APPS = [f"app{i:02d}" for i in range(50)]


def _count_calls(monkeypatch, function_name: str) -> Counter:
    """Wrap ``repro.util.codec.<function_name>`` wherever a ``repro``
    module holds a reference to it; calls are tallied per module."""
    real = getattr(codec, function_name)
    calls: Counter = Counter()
    for name, module in list(sys.modules.items()):
        if name.startswith("repro.") and \
                getattr(module, function_name, None) is real:
            def counting(data, _module=name):
                calls[_module] += 1
                return real(data)
            monkeypatch.setattr(module, function_name, counting)
    return calls


@pytest.fixture()
def standing_store(rt):
    """20 000 compact entries over 50 ``app_id``s, container payloads."""
    space = JavaSpace(rt)

    def preload():
        for start in range(0, ENTRIES, 500):
            space.write_all([
                TaskEntry(APPS[i % len(APPS)], i, {"region": (0, i, 600, i)})
                for i in range(start, start + 500)])

    run_in_sim(rt, preload)
    return space


def test_index_activation_unpickles_no_payload(rt, standing_store,
                                               monkeypatch):
    space = standing_store
    unpickled = _count_calls(monkeypatch, "deserialize")
    decoded = _count_calls(monkeypatch, "decode_any")

    def activate():
        return space.count(TaskEntry(app_id=APPS[3]))

    assert run_in_sim(rt, activate) == ENTRIES // len(APPS)
    assert space.match_stats["index_builds"] == 1
    # 20 000 frames were read for their app_id; none was decoded and no
    # ``p`` payload was touched.
    assert not decoded and not unpickled


def test_selective_ops_cost_their_matches_not_their_bucket(
        rt, standing_store, monkeypatch):
    space = standing_store
    stats = space.match_stats
    per_app = ENTRIES // len(APPS)

    def body():
        space.read(TaskEntry(app_id=APPS[0]), timeout_ms=0.0)   # activates
        decoded = _count_calls(monkeypatch, "decode_any")
        for round_ in range(3):
            for app in APPS[:10]:
                before = stats["scan_steps"]
                assert space.read(TaskEntry(app_id=app),
                                  timeout_ms=0.0).app_id == app
                assert stats["scan_steps"] - before <= 2
                before = stats["scan_steps"]
                assert space.take(TaskEntry(app_id=app),
                                  timeout_ms=0.0).app_id == app
                assert stats["scan_steps"] - before <= 2
        # One decode per entry handed out, none to find it.
        assert sum(decoded.values()) == 2 * 3 * 10
        decoded.clear()
        # Two indexed fields: the walk is the shorter bucket (one id).
        before = stats["scan_steps"]
        found = space.read(TaskEntry(app_id=APPS[7], task_id=507),
                           timeout_ms=0.0)
        assert (found.app_id, found.task_id) == (APPS[7], 507)
        assert stats["scan_steps"] - before == 1
        decoded.clear()
        # count examines the bucket it counts (plus the ids the takes
        # above left dead at its head) and decodes nothing.
        before = stats["scan_steps"]
        assert space.count(TaskEntry(app_id=APPS[0])) == per_app - 3
        assert stats["scan_steps"] - before <= per_app
        assert space.count(TaskEntry(app_id="no-such-app")) == 0
        assert not decoded

    run_in_sim(rt, body)


def test_fifo_drain_of_one_value_bucket_is_linear(rt):
    """Every task of a job shares ``app_id``: draining that one value
    bucket must retire its head, not march over the dead ids again."""
    n = 50_000
    space = JavaSpace(rt)

    def body():
        for start in range(0, n, 1_000):
            space.write_all([TaskEntry("the-job", i)
                             for i in range(start, start + 1_000)])
        space.read(TaskEntry(app_id="the-job"), timeout_ms=0.0)  # activates
        before = space.match_stats["scan_steps"]
        for i in range(n):
            assert space.take_encoded(TaskEntry(app_id="the-job"),
                                      timeout_ms=0.0) is not None
        assert space.take(TaskEntry(app_id="the-job"), timeout_ms=0.0) is None
        return space.match_stats["scan_steps"] - before

    assert run_in_sim(rt, body) <= 3 * n


def test_a_job_decodes_each_entry_once_at_its_consumer(monkeypatch):
    """240 tasks through a real ``SpaceServer``: the worker decodes the
    task it computes on and the master the result it aggregates — two
    decodes per task — and the space, which matched, indexed, stored and
    shipped every one of them, decodes none."""
    tasks = 240

    def body(runtime):
        cluster = testbed_small(runtime, workers=4,
                                streams=RandomStreams(11))
        app = SumOfSquares(n=tasks, task_cost=2_500.0, planning_cost=20.0,
                           aggregation_cost=30.0)
        framework = AdaptiveClusterFramework(
            runtime, cluster, app,
            FrameworkConfig(
                monitoring=False, compute_real=True,
                transactional_takes=True, worker_poll_ms=10_000.0,
                dead_letter_poll_ms=10_000.0, worker_prefetch=6,
                master_seed_batch=tasks, master_drain_batch=tasks))
        framework.start()
        framework.start_all_workers()
        assert framework.master.run().complete          # warm-up
        decoded = _count_calls(monkeypatch, "decode_any")
        report = framework.master.run()
        counts = dict(decoded)
        framework.shutdown()
        assert report.complete
        assert report.solution == sum(i * i for i in range(tasks))
        return counts

    decoded = run_simulation(body)
    assert decoded == {
        # the workers' proxies: one TaskEntry each
        "repro.tuplespace.proxy": tasks,
        # the master drains ResultEntry objects from its in-process
        # space: the decode of an entry handed out, not of one matched
        "repro.tuplespace.space": tasks,
    }
