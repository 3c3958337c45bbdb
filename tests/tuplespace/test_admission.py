"""AdmissionController.check: which frames it decodes, which it judges."""

from __future__ import annotations

import pytest

from repro.core.entries import ResultEntry, TaskEntry
from repro.errors import AdmissionError
from repro.tuplespace import JavaSpace
from repro.tuplespace import proxy as proxy_module
from repro.tuplespace.proxy import AdmissionConfig, AdmissionController
from repro.util.codec import decode_any, encode_entry, is_compact
from tests.conftest import run_in_sim


@pytest.fixture()
def decodes(monkeypatch):
    """Every frame the admission path hands to ``decode_any``."""
    seen = []

    def counting(frame):
        seen.append(frame)
        return decode_any(frame)

    monkeypatch.setattr(proxy_module, "decode_any", counting)
    return seen


def test_result_write_back_costs_no_admission_decode(rt, decodes):
    controller = AdmissionController(rt, JavaSpace(rt),
                                     AdmissionConfig(max_in_flight=0))
    results = [encode_entry(ResultEntry("app", i, payload=[i], tenant="t"))
               for i in range(4)]
    tasks = [encode_entry(TaskEntry("app", i, tenant="t")) for i in range(4)]
    # A worker's write-back: requeue-flagged, whatever it carries.
    controller.check("write_all", {"entries_data": results, "requeue": True})
    controller.check("write_all", {"entries_data": tasks, "requeue": True})
    # Without the flag an uncontrolled class is skipped on its header.
    controller.check("write_all", {"entries_data": results})
    assert decodes == []
    assert controller.stats["checked"] == 0


def test_tenant_tagged_task_frame_is_still_judged(rt, decodes):
    controller = AdmissionController(rt, JavaSpace(rt),
                                     AdmissionConfig(max_in_flight=0))
    tagged = encode_entry(TaskEntry("app", 1, tenant="t"))
    untagged = encode_entry(TaskEntry("app", 2))

    def body():
        controller.check("write", {"entry_data": untagged})  # single-tenant
        with pytest.raises(AdmissionError) as rejected:
            controller.check("write_all", {"entries_data": [tagged]})
        return rejected.value

    error = run_in_sim(rt, body)
    assert (error.tenant, error.reason) == ("t", "in-flight")
    # Judged on field slices of the frame: admission decodes no entry.
    assert decodes == []
    assert controller.stats["rejected"] == 1


def test_pickle_fallback_task_frame_is_decoded_to_be_judged(rt, decodes):
    """A frame with no field slices is the one case admission decodes."""
    controller = AdmissionController(rt, JavaSpace(rt),
                                     AdmissionConfig(max_in_flight=0))
    drifted = TaskEntry("app", 3, tenant="t")
    drifted.note = "off-schema attribute"
    frame = encode_entry(drifted)
    assert not is_compact(frame)

    def body():
        with pytest.raises(AdmissionError) as rejected:
            controller.check("write", {"entry_data": frame})
        return rejected.value

    error = run_in_sim(rt, body)
    assert (error.tenant, error.reason) == ("t", "in-flight")
    assert decodes == [frame]
