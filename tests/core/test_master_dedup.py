"""Property test: exactly-once aggregation under eager-scheduling races.

Simulated workers take task entries and return results after arbitrary
delays; slow ones trip the master's straggler replication, so the same
task can be computed several times.  Whatever the interleaving, the
master must fold each task exactly once, account for every duplicate,
and leave nothing stuck in the space.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.entries import ResultEntry, TaskEntry
from repro.core.master import Master
from repro.core.metrics import Metrics
from repro.node import testbed_small
from repro.runtime import SimulatedRuntime
from repro.tuplespace.space import JavaSpace
from tests.core.toyapp import SumOfSquares

STRAGGLER_MS = 300.0


def run_race(delays: list[float]) -> tuple:
    """One master + scripted per-take delays; returns (report, writes, leftovers)."""
    runtime = SimulatedRuntime()
    try:
        cluster = testbed_small(runtime, workers=1)
        app = SumOfSquares(n=len(delays), task_cost=10.0)
        app.aggregate = lambda results: sum(results.values())  # type: ignore
        space = JavaSpace(runtime)
        master = Master(
            runtime, cluster.master, space, app, Metrics(runtime),
            straggler_timeout_ms=STRAGGLER_MS,
            model_time=False,
        )
        writes = [0]
        queue = list(delays)  # i-th *take* (original or replica) waits delays[i]

        def consumer():
            idle = 0
            while idle < 3:
                entry = space.take(TaskEntry(app_id=app.app_id),
                                   timeout_ms=200.0)
                if entry is None:
                    idle += 1
                    continue
                idle = 0
                delay = queue.pop(0) if queue else 0.0

                def respond(e=entry, d=delay):
                    runtime.sleep(d)
                    writes[0] += 1
                    space.write(ResultEntry(
                        app_id=app.app_id, task_id=e.task_id,
                        payload=e.payload * e.payload,
                        worker=f"w{e.task_id % 3}",
                    ))

                runtime.spawn(respond, name=f"respond-{entry.task_id}")

        def root():
            runtime.spawn(consumer, name="consumer")
            return master.run()

        proc = runtime.kernel.spawn(root, name="race-root")
        runtime.kernel.run_until_idle()
        if proc.error is not None:
            raise proc.error
        assert proc.finished
        report = proc.result
        leftovers = 0
        while space.take_if_exists(ResultEntry(app_id=app.app_id)) is not None:
            leftovers += 1
        return report, writes[0], leftovers
    finally:
        runtime.shutdown()


@settings(max_examples=10, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=4 * STRAGGLER_MS),
                min_size=2, max_size=8))
def test_exactly_once_aggregation_under_replica_races(delays):
    n = len(delays)
    report, writes, leftovers = run_race(delays)
    assert report.complete
    assert report.solution == sum(i * i for i in range(n))
    # Exactly-once: one result counted per task, no matter the racing.
    assert sum(report.results_by_worker.values()) == n
    # Every extra computation is accounted for: consumed as a duplicate
    # by the master or still in the space after it stopped (a result that
    # landed after aggregation ended) — never folded into the solution.
    assert report.duplicate_results + leftovers == writes - n
    assert report.dead_letters == {}


def test_replication_fires_only_for_taken_but_silent_tasks():
    """A task still queued in the space is never replicated."""
    report, writes, leftovers = run_race([4 * STRAGGLER_MS, 0.0, 0.0])
    assert report.complete
    assert report.replicated_tasks >= 1
    assert report.solution == 0 + 1 + 4
