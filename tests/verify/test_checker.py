"""Consistency-checker unit tests: each conservation law, both ways."""

from __future__ import annotations

from types import SimpleNamespace

from repro.tuplespace.entry import Entry
from repro.verify import check_history
from repro.verify.history import (
    ABORTED,
    COMMITTED,
    INDETERMINATE,
    PENDING,
    REJECTED,
    Op,
)


class TaskEntry(Entry):
    def __init__(self, task_id=None):
        self.task_id = task_id


def _op(op, key_id, status, *, cls="TaskEntry", invoked=0.0, responded=1.0,
        count=1, keyed=True):
    return Op(op=op, entry_class=cls,
              key=(cls, key_id) if keyed else None,
              client="c", invoked_ms=invoked, responded_ms=responded,
              status=status, count=count)


def _history(*ops):
    return SimpleNamespace(ops=list(ops))


def test_clean_write_take_pair_passes():
    report = check_history(_history(
        _op("write", 1, COMMITTED, invoked=0.0),
        _op("take", 1, COMMITTED, invoked=5.0, responded=6.0),
    ), final_entries=[])
    assert report.ok
    assert report.ops == 2 and report.keys == 1
    assert "no consistency violations" in report.summary()


def test_phantom_take_is_a_violation():
    report = check_history(_history(
        _op("take", 1, COMMITTED),
    ), final_entries=[])
    assert not report.ok
    assert "never written or was already taken" in report.violations[0]


def test_double_take_of_single_write_is_a_violation():
    report = check_history(_history(
        _op("write", 1, COMMITTED),
        _op("take", 1, COMMITTED),
        _op("take", 1, COMMITTED),
    ), final_entries=[])
    assert not report.ok


def test_indeterminate_write_excuses_the_extra_take():
    report = check_history(_history(
        _op("write", 1, COMMITTED),
        _op("write", 1, INDETERMINATE),
        _op("take", 1, COMMITTED),
        _op("take", 1, COMMITTED),
    ), final_entries=[])
    assert report.ok


def test_take_before_any_write_violates_causality():
    report = check_history(_history(
        _op("write", 1, COMMITTED, invoked=10.0, responded=11.0),
        _op("take", 1, COMMITTED, invoked=1.0, responded=2.0),
    ), final_entries=[TaskEntry(1)])
    assert not report.ok
    assert "before any write" in report.violations[0]


def test_lost_committed_write_is_a_violation():
    report = check_history(_history(
        _op("write", 1, COMMITTED),
    ), final_entries=[])
    assert not report.ok
    assert "a committed write was lost" in report.violations[0]


def test_write_surviving_in_final_contents_is_accounted():
    report = check_history(_history(
        _op("write", 1, COMMITTED),
    ), final_entries=[TaskEntry(1)])
    assert report.ok


def test_keyed_indeterminate_take_excuses_a_missing_write():
    report = check_history(_history(
        _op("write", 1, COMMITTED),
        _op("take", 1, INDETERMINATE),
    ), final_entries=[])
    assert report.ok


def test_unkeyed_indeterminate_take_grants_per_class_slack():
    report = check_history(_history(
        _op("write", 1, COMMITTED),
        _op("take", None, INDETERMINATE, keyed=False, count=1),
    ), final_entries=[])
    assert report.ok
    # ...but the slack is per class and per count: two missing writes
    # against one lost take reply is still a violation.
    report = check_history(_history(
        _op("write", 1, COMMITTED),
        _op("write", 2, COMMITTED),
        _op("take", None, INDETERMINATE, keyed=False, count=1),
    ), final_entries=[])
    assert not report.ok


def test_unknown_cardinality_take_disables_the_class_lost_write_check():
    report = check_history(_history(
        _op("write", 1, COMMITTED),
        _op("write", 2, COMMITTED),
        _op("take", None, INDETERMINATE, keyed=False, count=None),
    ), final_entries=[])
    assert report.ok


def test_pending_ops_fold_into_indeterminate():
    # A client cut down at shutdown leaves PENDING records: a pending
    # take may have consumed the entry (excusing its absence), and a
    # pending write may never have happened (so its absence is fine).
    report = check_history(_history(
        _op("write", 1, COMMITTED),
        _op("take", 1, PENDING, responded=None),
    ), final_entries=[])
    assert report.ok
    report = check_history(_history(
        _op("write", 1, PENDING, responded=None),
    ), final_entries=[])
    assert report.ok


def test_aborted_and_rejected_ops_do_not_count():
    report = check_history(_history(
        _op("write", 1, ABORTED),
        _op("write", 1, REJECTED),
    ), final_entries=[])
    assert report.ok  # neither took effect; nothing to conserve
    report = check_history(_history(
        _op("write", 1, ABORTED),
        _op("take", 1, COMMITTED),
    ), final_entries=[])
    assert not report.ok  # an aborted write cannot feed a committed take


def test_untracked_classes_skip_the_lost_write_check():
    report = check_history(_history(
        _op("write", 1, COMMITTED, cls="Heartbeat"),
    ), final_entries=[])
    assert report.ok


def test_reads_never_participate():
    report = check_history(_history(
        _op("write", 1, COMMITTED),
        _op("read", 2, COMMITTED),
    ), final_entries=[TaskEntry(1)])
    assert report.ok and report.keys == 1


def test_violation_reporting_is_capped():
    ops = [_op("take", i, COMMITTED) for i in range(40)]
    report = check_history(_history(*ops), final_entries=[])
    assert not report.ok
    assert len(report.violations) == 20
    assert report.suppressed == 20
    assert "and 20 more" in report.summary()


LOST_1 = ("('TaskEntry', 1): 1 committed write(s) neither taken nor "
          "present in the final contents -- a committed write was lost")


def test_one_indeterminate_write_excuses_one_take_only():
    report = check_history(_history(
        _op("write", 1, INDETERMINATE),
        _op("take", 1, COMMITTED),
        _op("take", 1, COMMITTED),
    ), final_entries=[])
    assert report.violations[0].startswith(
        "('TaskEntry', 1): 2 committed takes but only 0 committed "
        "(+1 indeterminate) writes")


def test_violations_are_reported_in_key_order():
    report = check_history(_history(
        _op("write", 1, COMMITTED),
        _op("take", 1, COMMITTED),
        _op("take", 1, COMMITTED),
        _op("take", 2, COMMITTED),
    ), final_entries=[])
    assert [v.split(":")[0] for v in report.violations] == [
        "('TaskEntry', 1)", "('TaskEntry', 2)"]


def test_causality_compares_the_earliest_response_and_invocation():
    # Histories list ops by invocation; a later take may respond first.
    report = check_history(_history(
        _op("write", 1, COMMITTED, invoked=9.0, responded=10.0),
        _op("write", 1, COMMITTED, invoked=5.0, responded=6.0),
        _op("take", 1, COMMITTED, invoked=6.0, responded=8.0),
        _op("take", 1, COMMITTED, invoked=1.0, responded=3.0),
    ), final_entries=[])
    assert report.violations == [
        "('TaskEntry', 1): a take responded at t=3.0ms, before any write "
        "was invoked (earliest t=5.0ms)"]


def test_each_final_entry_accounts_for_one_write():
    report = check_history(_history(
        _op("write", 1, COMMITTED),
        _op("write", 1, COMMITTED),
        _op("write", 2, COMMITTED),
    ), final_entries=[TaskEntry(1), TaskEntry(2)])
    assert report.violations == [LOST_1]


def test_one_keyed_indeterminate_take_excuses_one_write_only():
    report = check_history(_history(
        _op("write", 1, COMMITTED),
        _op("write", 1, COMMITTED),
        _op("take", 1, INDETERMINATE),
    ), final_entries=[])
    assert report.violations == [LOST_1]


def test_rejected_write_that_landed_is_a_violation():
    # A rejection promises no side effects: a final entry beyond what
    # the accepted writes explain means the "rejected" write landed.
    # Key 2 has the same surplus but no rejected write: not this check.
    report = check_history(_history(
        _op("write", 1, COMMITTED),
        _op("write", 1, REJECTED),
        _op("write", 2, COMMITTED),
    ), final_entries=[TaskEntry(1), TaskEntry(1), TaskEntry(2),
                      TaskEntry(2)])
    assert report.violations == [
        "('TaskEntry', 1): 1 final entry beyond what 1 committed "
        "(+0 indeterminate) writes explain, with 1 rejected write(s) on "
        "the key -- a rejected operation had side effects"]
    landed = check_history(_history(_op("write", 1, REJECTED)),
                           final_entries=[TaskEntry(1)])
    assert len(landed.violations) == 1
    # A phantom take leaves nothing to explain a rejected write by.
    phantom = check_history(_history(
        _op("take", 1, COMMITTED),
        _op("write", 1, REJECTED),
    ), final_entries=[])
    assert len(phantom.violations) == 1
