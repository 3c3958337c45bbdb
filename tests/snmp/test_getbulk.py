"""SNMPv2 GetBulk support."""

from __future__ import annotations

import pytest

from repro.net import Network
from repro.snmp import Mib, Oid, SnmpAgent, SnmpManager
from repro.snmp.pdu import GetBulkRequest, decode_message, encode_message
from tests.conftest import run_in_sim


def test_getbulk_pdu_round_trip():
    pdu = GetBulkRequest(request_id=7, varbinds=[(Oid("1.3.6.1"), None)],
                         error_status=1, error_index=20)
    out = decode_message(encode_message(pdu))
    assert isinstance(out, GetBulkRequest)
    assert out.non_repeaters == 1
    assert out.max_repetitions == 20


@pytest.fixture()
def env(rt):
    net = Network(rt)
    mib = Mib()
    for i in range(1, 31):
        mib.register(Oid(f"1.3.6.1.9.1.{i}"), i * 10)
    mib.register(Oid("1.3.6.1.8.0"), "scalar")
    SnmpAgent(rt, net, "w", mib).start()
    return net, SnmpManager(rt, net, "m")


def test_getbulk_repeats_getnext(rt, env):
    _, manager = env

    def proc():
        return manager.get_bulk("w", [Oid("1.3.6.1.9.1")], non_repeaters=0,
                                max_repetitions=5)

    batch = run_in_sim(rt, proc)
    assert [(str(o), v) for o, v in batch] == [
        (f"1.3.6.1.9.1.{i}", i * 10) for i in range(1, 6)
    ]


def test_getbulk_non_repeaters(rt, env):
    _, manager = env

    def proc():
        return manager.get_bulk(
            "w", [Oid("1.3.6.1.8"), Oid("1.3.6.1.9.1")],
            non_repeaters=1, max_repetitions=3,
        )

    batch = run_in_sim(rt, proc)
    # One GETNEXT for the scalar branch, three for the table branch.
    assert (str(batch[0][0]), batch[0][1]) == ("1.3.6.1.8.0", "scalar")
    assert len(batch) == 4


def test_getbulk_truncates_at_end_of_mib(rt, env):
    _, manager = env

    def proc():
        return manager.get_bulk("w", [Oid("1.3.6.1.9.1.28")],
                                non_repeaters=0, max_repetitions=10)

    batch = run_in_sim(rt, proc)
    assert [str(o) for o, _ in batch] == ["1.3.6.1.9.1.29", "1.3.6.1.9.1.30"]


def test_walk_bulk_matches_plain_walk(rt, env):
    _, manager = env

    def proc():
        plain = manager.walk("w", Oid("1.3.6.1.9"))
        bulk = manager.walk_bulk("w", Oid("1.3.6.1.9"))
        return plain, bulk

    plain, bulk = run_in_sim(rt, proc)
    assert plain == bulk
    assert len(bulk) == 30


def test_walk_bulk_uses_fewer_round_trips(rt, env):
    _, manager = env

    def proc():
        manager.walk("w", Oid("1.3.6.1.9"))
        plain_requests = manager.stats["requests"]
        manager.walk_bulk("w", Oid("1.3.6.1.9"))
        bulk_requests = manager.stats["requests"] - plain_requests
        return plain_requests, bulk_requests

    plain, bulk = run_in_sim(rt, proc)
    assert plain >= 30   # one GETNEXT per OID (+ terminator)
    assert bulk <= 4     # 16 at a time
