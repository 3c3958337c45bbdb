"""OID semantics and MIB walking."""

from __future__ import annotations

import pytest

from repro.errors import NoSuchOidError, SnmpError
from repro.snmp import HOST_RESOURCES, Mib, Oid


def test_oid_parse_and_format():
    oid = Oid("1.3.6.1.2.1.1.1.0")
    assert str(oid) == "1.3.6.1.2.1.1.1.0"
    assert oid.parts == (1, 3, 6, 1, 2, 1, 1, 1, 0)


def test_oid_from_iterable_and_copy():
    assert Oid([1, 3, 6]) == Oid("1.3.6")
    assert Oid(Oid("1.3.6")) == Oid("1.3.6")


def test_oid_leading_dot_tolerated():
    assert Oid(".1.3.6") == Oid("1.3.6")


@pytest.mark.parametrize("bad", ["", "1", "x.y", "1.-3.6", "9.3.6"])
def test_malformed_oids_rejected(bad):
    with pytest.raises(SnmpError):
        Oid(bad)


def test_oid_ordering_is_lexicographic():
    assert Oid("1.3.6.1") < Oid("1.3.6.1.0")
    assert Oid("1.3.6.1.2") < Oid("1.3.6.2")
    assert sorted([Oid("1.3.10"), Oid("1.3.2")]) == [Oid("1.3.2"), Oid("1.3.10")]


def test_oid_concat_and_prefix():
    base = Oid("1.3.6.1")
    leaf = base + (2, 1)
    assert leaf == Oid("1.3.6.1.2.1")
    assert base < leaf


def test_mib_get_static_and_callable():
    mib = Mib()
    mib.register(Oid("1.3.6.1.1"), "static")
    counter = iter(range(10))
    mib.register(Oid("1.3.6.1.2"), lambda: next(counter))
    assert mib.get(Oid("1.3.6.1.1")) == "static"
    assert mib.get(Oid("1.3.6.1.2")) == 0
    assert mib.get(Oid("1.3.6.1.2")) == 1  # sampled per query


def test_mib_get_unknown_raises():
    with pytest.raises(NoSuchOidError):
        Mib().get(Oid("1.3.6"))


def test_mib_get_next_walks_in_order():
    mib = Mib()
    for suffix in (5, 1, 3):
        mib.register(Oid(f"1.3.6.{suffix}"), suffix)
    oid, value = mib.get_next(Oid("1.3.6.1"))
    assert (str(oid), value) == ("1.3.6.3", 3)
    oid, value = mib.get_next(Oid("1.3.0"))
    assert (str(oid), value) == ("1.3.6.1", 1)
    with pytest.raises(NoSuchOidError):
        mib.get_next(Oid("1.3.6.5"))


def test_mib_set_requires_writable():
    mib = Mib()
    mib.register(Oid("1.3.6.1"), 0, writable=True)
    mib.register(Oid("1.3.6.2"), 0)
    mib.set(Oid("1.3.6.1"), 42)
    assert mib.get(Oid("1.3.6.1")) == 42
    with pytest.raises(NoSuchOidError):
        mib.set(Oid("1.3.6.2"), 42)


def test_host_resources_oids_are_distinct():
    oids = [
        HOST_RESOURCES.SYS_DESCR,
        HOST_RESOURCES.SYS_UPTIME,
        HOST_RESOURCES.HR_PROCESSOR_LOAD,
        HOST_RESOURCES.EXTERNAL_LOAD,
        HOST_RESOURCES.TOTAL_LOAD,
    ]
    assert len(set(oids)) == len(oids)
