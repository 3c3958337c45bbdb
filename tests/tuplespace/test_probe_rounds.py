"""What one probe round settles, round after round.

A miss counts only in a run: an answered round resets it, so short
stalls spread over a long watch never add up to a promotion, and a
round that timed out leaves nothing on its connection for the next one
to read.  The all-refusals rule (promote without waiting out the lease)
likewise looks only at the misses since the last answered round.  The
renewal rule's boundary is the fence's: at the expiry instant itself
the lease still holds and may be renewed.
"""

from __future__ import annotations

from repro.net.address import Address
from repro.net.network import Network
from repro.tuplespace import JavaSpace
from repro.tuplespace.proxy import SpaceServer
from tests.tuplespace.test_failover import HEARTBEAT, Cohosted, run


def test_stalls_apart_never_add_up_and_an_answer_clears_the_lease_wait(rt):
    runtime = rt
    farm = Cohosted(runtime)

    def scenario():
        farm.supervise()
        runtime.sleep(50.0 + 3 * HEARTBEAT)
        for _ in range(3):
            # Stall the primaries' host as a round goes out: its reply
            # deadline passes unanswered, the next round finds it back.
            sent = farm.supervisors[0].probes
            while farm.supervisors[0].probes == sent:
                runtime.sleep(1.0)
            farm.network.pause("phost")
            runtime.sleep(1.2 * HEARTBEAT)
            farm.network.resume("phost")
            runtime.sleep(4 * HEARTBEAT)
        assert [s.probe_misses for s in farm.supervisors] == [3] * 4
        assert not any(s.failovers for s in farm.supervisors)
        # The stalls' misses were "lost"; answered rounds since then mean
        # a run of refusals alone proves the crashed primary lease-less.
        farm.servers[1].crash()
        runtime.sleep(6 * HEARTBEAT)
        assert [s.failovers > 0 for s in farm.supervisors] == [
            False, True, False, False]
        assert farm.metrics.events_named("failover-lease-wait") == []
        farm.stop()

    run(runtime, scenario)


def test_the_expiry_instant_still_holds_and_renews(rt):
    server = SpaceServer(rt, JavaSpace(rt), Network(rt), Address("p", 1))

    def proc():
        server.grant_lease(750.0)
        rt.sleep(750.0)
        assert server.renew_lease(None) == "ok"     # extends nothing
        assert server._lease_expires == 750.0
        assert server.renew_lease(900.0) == "ok"
        assert server._lease_expires == 900.0
        rt.sleep(200.0)
        assert server.renew_lease(1_200.0) == "lease_expired"
        assert server._lease_expires == 900.0
        server.superseded = True
        assert server.renew_lease(1_200.0) == "superseded"
        return server._endpoint.renewals

    assert run(rt, proc) == 4
