"""Post-run consistency checking over a recorded operation history.

The space is a multiset of entries, so linearizability collapses to
*conservation laws* over each entry identity ``(class, shard_key)``:

1. **No phantom takes.**  Entries taken (committed) can never exceed
   entries written (committed + indeterminate).  A violation means a
   take returned an entry that was never written or was already taken —
   the signature of a split-brain double-serve.
2. **Causality.**  A committed take must respond after some write of the
   same entry was invoked.  (With committed writes only — indeterminate
   writes have no known effective time.)
3. **No lost committed writes.**  For tracked entry classes, every
   committed write must be accounted for: taken (committed), possibly
   taken (keyed indeterminate take), still present in the final
   contents, or covered by per-class slack from unkeyed indeterminate
   takes (a take whose reply was lost may have consumed an entry we
   cannot name).  A violation means an acknowledged write vanished —
   the signature of a fenced-too-late primary acking writes the new
   primary never saw.
4. **Rejected writes have no side effects.**  ``rejected`` records
   (:class:`~repro.errors.FencedError` /
   :class:`~repro.errors.AdmissionError`, both raised *before*
   dispatch) promise the entry never entered the space.  For a key
   that has rejected writes, the final contents must therefore be
   fully explained by its committed/indeterminate writes; a surplus
   entry means a "rejected" write actually landed — an admission
   controller or fence that refused the client *after* mutating
   state, which would make the client's blind retry a duplicate.

``indeterminate`` records only ever *relax* these checks (they widen
the write allowance and the take slack); they can never create a
violation.  That makes the checker sound — every reported violation is
a real consistency breach — at the cost of missing breaches hidden
behind genuinely ambiguous network outcomes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Optional

from repro.verify.history import (
    ABORTED,
    COMMITTED,
    INDETERMINATE,
    PENDING,
    REJECTED,
    HistoryRecorder,
    Op,
    entry_key,
)

__all__ = ["HistoryReport", "check_history"]

#: Entry classes subject to the lost-write check.  Other classes
#: (checkpoints, heartbeats, ...) are written with finite leases and may
#: expire legitimately.
TRACKED_CLASSES = frozenset({"TaskEntry", "ResultEntry"})

_MAX_REPORTED = 20


@dataclass
class _KeyTally:
    writes_committed: int = 0
    writes_indeterminate: int = 0
    writes_rejected: int = 0
    takes_committed: int = 0
    takes_indeterminate: int = 0
    first_write_invoked: Optional[float] = None
    first_take_responded: Optional[float] = None


@dataclass
class HistoryReport:
    """Outcome of :func:`check_history`."""

    violations: list[str] = field(default_factory=list)
    ops: int = 0
    keys: int = 0
    by_status: dict[str, int] = field(default_factory=dict)
    suppressed: int = 0  # violations beyond the reporting cap

    @property
    def ok(self) -> bool:
        return not self.violations and self.suppressed == 0

    def summary(self) -> str:
        counts = ", ".join(f"{status}={count}" for status, count
                           in sorted(self.by_status.items()))
        head = (f"history: {self.ops} ops over {self.keys} keys "
                f"({counts or 'empty'})")
        if self.ok:
            return f"{head} -- no consistency violations"
        total = len(self.violations) + self.suppressed
        lines = [f"{head} -- {total} VIOLATION(S):"]
        lines.extend(f"  - {v}" for v in self.violations)
        if self.suppressed:
            lines.append(f"  ... and {self.suppressed} more")
        return "\n".join(lines)


def check_history(
    history: HistoryRecorder,
    final_entries: Optional[Iterable[Any]] = None,
) -> HistoryReport:
    """Check a run's operation history for consistency violations.

    ``final_entries`` is the space's contents after the run (all shards
    merged); without it the lost-write check is skipped.  Returns a
    :class:`HistoryReport`; ``report.ok`` is the pass/fail verdict.
    """
    report = HistoryReport(ops=len(history.ops))
    tallies: dict[tuple[str, Any], _KeyTally] = {}
    #: Per-class slack from unkeyed indeterminate takes.  ``None`` =
    #: unbounded (a lost take_multiple reply of unknown cardinality).
    slack: dict[str, Optional[int]] = {}

    for op in history.ops:
        report.by_status[op.status] = report.by_status.get(op.status, 0) + 1
        if op.status == ABORTED or op.op == "read":
            continue
        # An op still pending when the history closed (its client was cut
        # down mid-flight at shutdown) never had an observed outcome: it
        # may or may not have taken effect, which is the definition of
        # indeterminate.
        status = INDETERMINATE if op.status == PENDING else op.status
        if op.key is None:
            if op.op == "take" and status == INDETERMINATE:
                known = slack.setdefault(op.entry_class, 0)
                if known is not None:
                    slack[op.entry_class] = (
                        None if op.count is None else known + op.count)
            continue
        tally = tallies.setdefault(op.key, _KeyTally())
        if op.op == "write":
            if status == COMMITTED:
                tally.writes_committed += 1
                if (tally.first_write_invoked is None
                        or op.invoked_ms < tally.first_write_invoked):
                    tally.first_write_invoked = op.invoked_ms
            elif status == INDETERMINATE:
                tally.writes_indeterminate += 1
            elif status == REJECTED:
                tally.writes_rejected += 1
        elif op.op == "take":
            if status == COMMITTED:
                tally.takes_committed += 1
                if (tally.first_take_responded is None
                        or (op.responded_ms is not None
                            and op.responded_ms < tally.first_take_responded)):
                    tally.first_take_responded = op.responded_ms
            elif status == INDETERMINATE:
                tally.takes_indeterminate += 1

    report.keys = len(tallies)
    violations: list[str] = []
    ordered = sorted(tallies.items(), key=lambda kv: repr(kv[0]))

    # -- check 1: no phantom takes -------------------------------------------
    for key, tally in ordered:
        allowance = tally.writes_committed + tally.writes_indeterminate
        if tally.takes_committed > allowance:
            violations.append(
                f"{key}: {tally.takes_committed} committed takes but only "
                f"{tally.writes_committed} committed "
                f"(+{tally.writes_indeterminate} indeterminate) writes -- "
                f"an entry was served that was never written or was "
                f"already taken")

    # -- check 2: causality ---------------------------------------------------
    # (Only a committed take sets ``first_take_responded``, and only a
    # committed write ``first_write_invoked``.)
    for key, tally in ordered:
        if (tally.writes_indeterminate == 0
                and tally.first_take_responded is not None
                and tally.first_write_invoked is not None
                and tally.first_take_responded < tally.first_write_invoked):
            violations.append(
                f"{key}: a take responded at "
                f"t={tally.first_take_responded:.1f}ms, before any write "
                f"was invoked (earliest t={tally.first_write_invoked:.1f}ms)")

    # -- check 3: no lost committed writes -----------------------------------
    if final_entries is not None:
        remaining: dict[tuple[str, Any], int] = {}
        for entry in final_entries:
            key = entry_key(entry)
            if key is not None:
                remaining[key] = remaining.get(key, 0) + 1
        missing_by_class: dict[str, list[tuple[Any, int]]] = {}
        for key, tally in tallies.items():
            if key[0] not in TRACKED_CLASSES:
                continue
            unaccounted = (tally.writes_committed - tally.takes_committed
                           - tally.takes_indeterminate
                           - remaining.get(key, 0))
            if unaccounted > 0:
                missing_by_class.setdefault(key[0], []).append(
                    (key[1], unaccounted))
        for cls, missing in sorted(missing_by_class.items()):
            total_missing = sum(n for _, n in missing)
            cls_slack = slack.get(cls, 0)
            if cls_slack is None or total_missing <= cls_slack:
                continue  # plausibly consumed by takes with lost replies
            for raw_key, count in sorted(missing, key=repr):
                violations.append(
                    f"({cls!r}, {raw_key!r}): {count} committed write(s) "
                    f"neither taken nor present in the final contents -- "
                    f"a committed write was lost")

        # -- check 4: rejected writes have no side effects --------------------
        # A rejection (fence or admission control) happens before dispatch,
        # so the entry must not be in the space.  Surplus final entries on
        # a key with rejected writes mean a "rejected" write landed — and
        # the client's safe-because-no-side-effects retry duplicated it.
        for key, tally in ordered:
            if tally.writes_rejected == 0:
                continue
            explained = (tally.writes_committed + tally.writes_indeterminate
                         - tally.takes_committed)
            surplus = remaining.get(key, 0) - max(explained, 0)
            if surplus > 0:
                violations.append(
                    f"{key}: {surplus} final entr{'y' if surplus == 1 else 'ies'} "
                    f"beyond what {tally.writes_committed} committed "
                    f"(+{tally.writes_indeterminate} indeterminate) writes "
                    f"explain, with {tally.writes_rejected} rejected "
                    f"write(s) on the key -- a rejected operation had "
                    f"side effects")

    report.violations = violations[:_MAX_REPORTED]
    report.suppressed = max(0, len(violations) - _MAX_REPORTED)
    return report
