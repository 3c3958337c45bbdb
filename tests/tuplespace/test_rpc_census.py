"""What one space RPC costs the simulator, counted exactly.

A warm connection between two hosts carries each call as one request and
one reply: 2 messages, and 4 kernel events — the request's arrival, the
zero-delay hop that runs the server's callback, the reply's arrival and
the zero-delay wake of the blocked client.  The client drains all four
on its own thread, so no call costs an OS switch.  Bytes are the pickled
envelopes' sizes and pin the wire format of each request and reply.
"""

from __future__ import annotations

from repro.core.entries import TaskEntry
from repro.net import Address, Network
from repro.tuplespace import JavaSpace, SpaceProxy, SpaceServer
from tests.conftest import run_in_sim

SERVER = Address("master", 4155)

#: op → (messages, message bytes, kernel events, OS switches).
EXPECTED = {
    "ping": (2, 120, 4, 0),
    "txn_create": (2, 98, 4, 0),
    "write": (2, 177, 4, 0),
    "txn_commit": (2, 82, 4, 0),
    "take": (2, 276, 4, 0),
}


def test_each_warm_rpc_costs_two_messages_and_four_events(rt):
    net = Network(rt)
    SpaceServer(rt, JavaSpace(rt), net, SERVER).start()
    kernel = rt.kernel
    census = {}

    def measure(op, call):
        before = (net.stats["messages"], net.stats["message_bytes"],
                  kernel.events, kernel.switches)
        result = call()
        after = (net.stats["messages"], net.stats["message_bytes"],
                 kernel.events, kernel.switches)
        census[op] = tuple(b - a for a, b in zip(before, after))
        return result

    def client():
        proxy = SpaceProxy(net, "worker1", SERVER)
        proxy.ping()                    # dial and warm the connection
        measure("ping", proxy.ping)
        txn = measure("txn_create", proxy.transaction)
        measure("write", lambda: proxy.write(TaskEntry("a", 1, 7), txn))
        measure("txn_commit", txn.commit)
        taken = measure("take", lambda: proxy.take(TaskEntry(app_id="a"),
                                                   timeout_ms=100.0))
        proxy.close()
        return taken

    taken = run_in_sim(rt, client)
    assert (taken.app_id, taken.task_id, taken.payload) == ("a", 1, 7)
    assert census == EXPECTED
