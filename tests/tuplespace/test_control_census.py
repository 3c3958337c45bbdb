"""What the hardened control plane costs per step, counted exactly.

A warm lease-probe round from a supervisor host to a node serving
``SHARDS`` primaries is the transport's own work — one request, one
reply, the five kernel events that carry them, no OS switch — plus the
renewal bookkeeping, which keeps its Python and C calls (counted with
``sys.setprofile``) at most ``MAX_ROUND_CALLS``.  A fair-share claim
finds each tenant's first match from the tenant's index bucket, so its
calls do not grow with the queue behind it.
"""

from __future__ import annotations

import sys

from repro.core.entries import ResultEntry, TaskEntry
from repro.tuplespace import JavaSpace
from tests.conftest import run_in_sim
from tests.tuplespace.test_failover import HEARTBEAT, SHARDS, Cohosted

#: Calls per warm probe round to 4 co-hosted primaries (the round that
#: sent each peer's renewal through the node's request dispatch, and
#: kept its bookkeeping in five methods per member, made 207; reading the
#: journal position through a property and a method on both sides of
#: the request, 134).
MAX_ROUND_CALLS = 130


def _count_calls(fn):
    """Python and C calls ``fn()`` makes on this thread, and its result."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" or event == "c_call":
            calls += 1

    sys.setprofile(profile)
    try:
        result = fn()
    finally:
        sys.setprofile(None)
    return calls - 1, result        # setprofile(None) is a c_call too


def test_a_warm_probe_round_costs_its_transport_and_no_more(rt):
    farm = Cohosted(rt)
    kernel, stats = rt.kernel, farm.network.stats

    def window():
        """Calls, events, switches, messages and rounds of one
        heartbeat's sleep."""
        before = (kernel.events, kernel.switches, stats["messages"],
                  [s.probes for s in farm.supervisors])
        calls, _ = _count_calls(lambda: rt.sleep(HEARTBEAT))
        return (calls, kernel.events - before[0],
                kernel.switches - before[1], stats["messages"] - before[2],
                [s.probes - n for s, n in zip(farm.supervisors, before[3])])

    def proc():
        farm.supervise()
        rt.sleep(50.0 + 3 * HEARTBEAT)      # bootstraps settled, warm
        rounds = [window() for _ in range(3)]
        for supervisor in farm.supervisors:
            supervisor.stop()
        rt.sleep(2 * HEARTBEAT)
        bare = window()                     # the sleep's own cost
        farm.stop()
        return rounds, bare

    rounds, bare = run_in_sim(rt, proc)
    assert bare[1:] == (1, 0, 0, [0] * SHARDS)
    for calls, events, switches, messages, probes in rounds:
        assert probes == [1] * SHARDS
        assert (events - bare[1], switches, messages) == (5, 0, 2)
        assert calls - bare[0] <= MAX_ROUND_CALLS


def _claim_cost(rt, queued: int):
    """Calls and scan steps of one warm fair-share take with ``queued``
    single-tenant entries visible."""
    space = JavaSpace(rt)
    space.configure_fair_share({"a": 1.0})
    space.write(ResultEntry("job", 0))      # a class the template skips
    for task_id in range(queued + 1):
        space.write(TaskEntry("job", task_id, tenant="a"))
    # The first fair take walks the queue once, activating the index.
    assert space.take(TaskEntry(), timeout_ms=0.0).task_id == 0
    steps = space.match_stats["scan_steps"]
    calls, got = _count_calls(lambda: space.take(TaskEntry(),
                                                 timeout_ms=0.0))
    assert got.task_id == 1
    return calls, space.match_stats["scan_steps"] - steps


def test_a_fair_claim_does_not_walk_the_queue(rt):
    small = run_in_sim(rt, lambda: _claim_cost(rt, 10))
    large = run_in_sim(rt, lambda: _claim_cost(rt, 1_000))
    assert small == large       # (calls, scan steps)
