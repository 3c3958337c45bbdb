"""Service discovery manager: cache freshness and add/remove events."""

from __future__ import annotations

import pytest

from repro.net import Address, Network
from repro.jini import (
    JoinManager,
    LookupService,
    ServiceDiscoveryManager,
    ServiceItem,
)
from repro.jini.join import LookupClient
from repro.tuplespace.lease import FOREVER

REGISTRAR = Address("registrar", 4162)


@pytest.fixture()
def env(rt):
    net = Network(rt)
    lookup = LookupService(rt, net, REGISTRAR)
    lookup.start()
    return net, lookup


def run(rt, fn):
    proc = rt.kernel.spawn(fn, name="test-root")
    rt.kernel.run_until_idle()
    if proc.error is not None:
        raise proc.error
    return proc.result


def test_refresh_populates_cache(rt, env):
    net, lookup = env
    lookup.register(ServiceItem("svc-1", "proxy-1", {"type": "JavaSpaces"}))
    sdm = ServiceDiscoveryManager(rt, net, "client", {"type": "JavaSpaces"})

    def proc():
        sdm.refresh_once()
        found = sdm.services()
        sdm.stop()
        return [s.service_id for s in found]

    assert run(rt, proc) == ["svc-1"]


def test_query_filters_cache(rt, env):
    net, lookup = env
    lookup.register(ServiceItem("space", None, {"type": "JavaSpaces"}))
    lookup.register(ServiceItem("printer", None, {"type": "printer"}))
    sdm = ServiceDiscoveryManager(rt, net, "client", {"type": "printer"})

    def proc():
        sdm.refresh_once()
        found = sdm.services()
        sdm.stop()
        return [s.service_id for s in found]

    assert run(rt, proc) == ["printer"]


def test_added_and_removed_callbacks_fire(rt, env):
    net, lookup = env
    events = []
    sdm = ServiceDiscoveryManager(rt, net, "client", {"type": "JavaSpaces"},
                                  refresh_interval_ms=300.0)
    sdm.on_added(lambda item: events.append(("added", item.service_id)))
    sdm.on_removed(lambda item: events.append(("removed", item.service_id)))

    def proc():
        sdm.start()
        rt.sleep(100.0)                       # first refresh: empty registry
        registration = lookup.register(
            ServiceItem("space", None, {"type": "JavaSpaces"}), lease_ms=FOREVER
        )
        rt.sleep(400.0)                       # next refresh sees it
        lookup.cancel(registration.registration_id)
        rt.sleep(400.0)                       # and then sees it vanish
        sdm.stop()
        return list(events)

    assert run(rt, proc) == [("added", "space"), ("removed", "space")]


def test_lease_expiry_surfaces_as_removal(rt, env):
    net, lookup = env
    removed = []
    sdm = ServiceDiscoveryManager(rt, net, "client", {"type": "JavaSpaces"},
                                  refresh_interval_ms=200.0)
    sdm.on_removed(lambda item: removed.append(item.service_id))

    def proc():
        lookup.register(ServiceItem("ephemeral", None, {"type": "JavaSpaces"}),
                        lease_ms=300.0)
        sdm.start()
        rt.sleep(900.0)   # lease lapses; a later refresh notices
        sdm.stop()
        return list(removed)

    assert run(rt, proc) == ["ephemeral"]


def test_lookup_one_sees_a_late_service(rt, env):
    net, lookup = env
    sdm = ServiceDiscoveryManager(rt, net, "client", {"type": "JavaSpaces"},
                                  refresh_interval_ms=150.0)

    def late_registration():
        rt.sleep(200.0)
        lookup.register(ServiceItem("late", "addr", {"type": "JavaSpaces"}))

    def proc():
        sdm.start()
        rt.spawn(late_registration, name="late")
        rt.sleep(1_000.0)   # a refresh after the registration
        item = sdm.lookup_one()
        sdm.stop()
        return item.service_id if item else None

    assert run(rt, proc) == "late"


def test_lookup_one_finds_nothing_quietly(rt, env):
    net, _ = env
    sdm = ServiceDiscoveryManager(rt, net, "client", {"type": "nothing"},
                                  refresh_interval_ms=100.0)

    def proc():
        sdm.start()
        rt.sleep(300.0)
        item = sdm.lookup_one()
        sdm.stop()
        return item

    assert run(rt, proc) is None


def test_multiple_registrars_merged(rt, env):
    net, lookup = env
    second = LookupService(rt, net, Address("registrar2", 4162))
    second.start()
    lookup.register(ServiceItem("a", None, {"type": "x"}))
    second.register(ServiceItem("b", None, {"type": "x"}))
    sdm = ServiceDiscoveryManager(rt, net, "client", {"type": "x"})

    def proc():
        sdm.refresh_once()
        found = sorted(s.service_id for s in sdm.services())
        sdm.stop()
        second.stop()
        return found

    assert run(rt, proc) == ["a", "b"]
