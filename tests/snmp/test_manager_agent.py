"""Manager/agent interaction over the simulated network.

Every request goes through the manager's one transaction table: the
monitor's GET by :meth:`SnmpManager.fetch`, and the agent's GETNEXT and
SET by the table's ``_request``, which ``fetch`` sends through too."""

from __future__ import annotations

import pytest

from repro.errors import ConnectionClosedError, NoSuchOidError, TimeoutError_
from repro.net import Address, ChaosProfile, LatencyModel, Network
from repro.sim import RandomStreams
from repro.snmp import (
    HOST_RESOURCES,
    SNMP_PORT,
    GetNextRequest,
    GetRequest,
    Mib,
    Oid,
    SetRequest,
    SnmpAgent,
    SnmpManager,
)
from repro.snmp.pdu import ERROR_NO_SUCH_NAME


@pytest.fixture()
def env(rt):
    net = Network(rt, latency=LatencyModel(base_ms=0.5, jitter_ms=0.0, per_kb_ms=0.0))
    mib = Mib()
    mib.register(HOST_RESOURCES.SYS_NAME, "worker-3")
    mib.register(HOST_RESOURCES.HR_PROCESSOR_LOAD, lambda: 37)
    mib.register(HOST_RESOURCES.EXTERNAL_LOAD, lambda: 12)
    mib.register(Oid("1.3.6.1.4.1.20010.9.0"), 0, writable=True)
    agent = SnmpAgent(rt, net, "worker3", mib, community="cluster")
    agent.start()
    manager = SnmpManager(rt, net, "manager", community="cluster", timeout_ms=50.0)
    return net, agent, manager


def fetch(rt, manager, host, oid):
    """The manager's GET, run until it answers: ``(value, error)``."""
    outcomes = []
    manager.fetch(host, oid, lambda value, error: outcomes.append((value, error)))
    rt.kernel.run_until_idle()
    [outcome] = outcomes
    return outcome


def request(rt, manager, host, pdu_class, varbinds):
    """One request PDU through the manager's transaction table, run until
    it answers: ``(response, error)``."""
    outcomes = []
    pdu = pdu_class(request_id=next(manager._request_ids),
                    varbinds=[(Oid(oid), value) for oid, value in varbinds],
                    community=manager.community)
    manager._request(Address(host, SNMP_PORT), pdu,
                     lambda response, error: outcomes.append((response, error)))
    rt.kernel.run_until_idle()
    [outcome] = outcomes
    return outcome


def test_get_single_oid(rt, env):
    _, _, manager = env
    assert fetch(rt, manager, "worker3",
                 HOST_RESOURCES.HR_PROCESSOR_LOAD) == (37, None)


def test_get_multiple_oids_in_one_pdu(rt, env):
    _, _, manager = env
    response, error = request(
        rt, manager, "worker3", GetRequest,
        [(HOST_RESOURCES.SYS_NAME, None), (HOST_RESOURCES.EXTERNAL_LOAD, None)])
    assert error is None and response.error_status == 0
    values = dict(response.varbinds)
    assert values[HOST_RESOURCES.SYS_NAME] == "worker-3"
    assert values[HOST_RESOURCES.EXTERNAL_LOAD] == 12


def test_get_unknown_oid_raises(rt, env):
    _, _, manager = env
    value, error = fetch(rt, manager, "worker3", Oid("1.3.6.1.99.0"))
    assert value is None and isinstance(error, NoSuchOidError)


def test_walk_subtree(rt, env):
    """GETNEXT from the subtree's root visits every OID under it in
    lexicographic order; past the MIB's last OID the agent answers
    noSuchName."""
    _, _, manager = env
    subtree = Oid("1.3.6.1.2.1")
    oids, cursor = [], subtree
    while True:
        response, error = request(rt, manager, "worker3", GetNextRequest,
                                  [(cursor, None)])
        assert error is None
        if response.error_status != 0:
            break
        [(cursor, _value)] = response.varbinds
        oids.append(cursor)
    assert response.error_status == ERROR_NO_SUCH_NAME
    assert oids == sorted(oids)
    under = [oid for oid in oids
             if oid.parts[:len(subtree.parts)] == subtree.parts]
    assert HOST_RESOURCES.SYS_NAME in under
    assert HOST_RESOURCES.HR_PROCESSOR_LOAD in under
    # enterprise OIDs come after the 1.3.6.1.2.1 subtree
    assert HOST_RESOURCES.EXTERNAL_LOAD not in under
    assert oids.index(HOST_RESOURCES.EXTERNAL_LOAD) > oids.index(under[-1])


def test_set_writable_oid(rt, env):
    _, _, manager = env
    target = Oid("1.3.6.1.4.1.20010.9.0")
    response, error = request(rt, manager, "worker3", SetRequest,
                              [(target, 99)])
    assert error is None and response.error_status == 0
    assert fetch(rt, manager, "worker3", target) == (99, None)
    # A read-only OID refuses the write with noSuchName, as SNMPv1 does.
    response, _ = request(rt, manager, "worker3", SetRequest,
                          [(HOST_RESOURCES.SYS_NAME, "x")])
    assert (response.error_status, response.error_index) == (
        ERROR_NO_SUCH_NAME, 1)
    assert fetch(rt, manager, "worker3",
                 HOST_RESOURCES.SYS_NAME) == ("worker-3", None)


def test_wrong_community_times_out(rt, env):
    net, agent, _ = env
    intruder = SnmpManager(rt, net, "intruder", community="wrong",
                           timeout_ms=20.0, retries=1)
    _, error = fetch(rt, intruder, "worker3", HOST_RESOURCES.SYS_NAME)
    assert isinstance(error, TimeoutError_)
    assert agent.stats["bad_community"] == 2  # initial + 1 retry


def test_no_agent_times_out_after_retries(rt, env):
    _, _, manager = env
    t0 = rt.now()
    _, error = fetch(rt, manager, "ghost", HOST_RESOURCES.SYS_NAME)
    assert isinstance(error, TimeoutError_)
    assert rt.now() - t0 >= 3 * 50.0  # 1 try + 2 retries, 50 ms timeout each
    assert manager.stats["timeouts"] == 1
    assert manager.stats["retries"] == 2


def test_manager_survives_lossy_network(rt):
    lossy = Network(rt, latency=LatencyModel(base_ms=0.5, jitter_ms=0.0))
    lossy.set_chaos(ChaosProfile(datagram_drop=0.45),
                    RandomStreams(11).stream("net"))
    mib = Mib()
    mib.register(HOST_RESOURCES.HR_PROCESSOR_LOAD, 55)
    SnmpAgent(rt, lossy, "w", mib).start()
    manager = SnmpManager(rt, lossy, "m", timeout_ms=30.0, retries=8)
    assert [fetch(rt, manager, "w", HOST_RESOURCES.HR_PROCESSOR_LOAD)
            for _ in range(5)] == [(55, None)] * 5
    assert manager.stats["retries"] > 0     # the loss did cost attempts
    assert manager.stats["timeouts"] == 0


def test_live_value_sampled_at_each_poll(rt, env):
    net, agent, manager = env
    samples = iter([10, 60, 90])
    agent.mib.register(HOST_RESOURCES.TOTAL_LOAD, lambda: next(samples))
    assert [fetch(rt, manager, "worker3", HOST_RESOURCES.TOTAL_LOAD)[0]
            for _ in range(3)] == [10, 60, 90]


def test_agent_stop_releases_port(rt, env):
    net, agent, _ = env
    agent.stop()
    net.bind_datagram(Address("worker3", SNMP_PORT))  # port free again


def test_shared_manager_demultiplexes_concurrent_replies(rt, env):
    """Two requests in flight on one manager: each reply reaches its own
    request (matched by id), whichever answers first."""
    net, _, manager = env
    mib = Mib()
    mib.register(HOST_RESOURCES.HR_PROCESSOR_LOAD, lambda: 81)
    SnmpAgent(rt, net, "worker4", mib, community="cluster").start()
    # worker3 is asked first, but worker4 answers first.
    net.slow("worker3", 4.0)
    answers = {}
    for host in ("worker3", "worker4"):
        manager.fetch(host, HOST_RESOURCES.HR_PROCESSOR_LOAD,
                      lambda value, error, host=host:
                      answers.setdefault(host, (value, error)))
    rt.kernel.run_until_idle()
    assert answers == {"worker3": (37, None), "worker4": (81, None)}
    assert manager.stats == {"requests": 2, "retries": 0, "timeouts": 0}


def test_fetch_answers_by_callback(rt, env):
    _, _, manager = env
    outcomes = []
    manager.fetch("worker3", HOST_RESOURCES.EXTERNAL_LOAD,
                  lambda value, error: outcomes.append((value, error)))
    manager.fetch("worker3", Oid("1.3.6.1.99.0"),
                  lambda value, error: outcomes.append((value, type(error))))
    rt.kernel.run_until_idle()
    assert outcomes == [(12, None), (None, NoSuchOidError)]


def test_closing_the_manager_fails_requests_in_flight(rt, env):
    """A closed served socket ends its callback quietly and hands every
    pending request a ConnectionClosedError instead of a timeout."""
    _, _, manager = env
    outcomes = []
    manager.fetch("ghost", HOST_RESOURCES.SYS_NAME,
                  lambda value, error: outcomes.append(type(error)))
    manager.close()
    rt.kernel.run_until_idle()
    assert outcomes == [ConnectionClosedError]
    assert manager.stats["timeouts"] == 0


def test_agent_stop_with_a_request_in_flight(rt, env):
    """The request reaches a stopped agent: nothing raises, the poller
    sees a timeout after its retries."""
    _, agent, manager = env
    rt.call_later(0.1, agent.stop)      # before the request lands
    _, error = fetch(rt, manager, "worker3", HOST_RESOURCES.SYS_NAME)
    assert isinstance(error, TimeoutError_)
    assert agent.stats["requests"] == 0
    assert manager.stats["timeouts"] == 1
