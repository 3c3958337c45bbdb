"""Remote-event notification (JavaSpaces ``notify``)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.tuplespace.entry import Entry, match_items
from repro.tuplespace.lease import Lease

__all__ = ["RemoteEvent", "EventRegistration"]


@dataclass(frozen=True)
class RemoteEvent:
    """Delivered to a listener when a matching entry becomes visible.

    ``sequence`` increases per registration, letting listeners detect
    missed events, as in Jini's RemoteEvent contract.
    """

    source: str
    registration_id: int
    sequence: int


class EventRegistration:
    """Handle returned by ``notify``: couples the listener and its lease."""

    def __init__(
        self,
        registration_id: int,
        template: Entry,
        listener: Callable[[RemoteEvent], Any],
        lease: Lease,
    ) -> None:
        self.registration_id = registration_id
        self.template = template
        #: What the template selects on — fixed at registration (the
        #: space hands over an isolated snapshot), not recomputed for
        #: every entry that becomes visible.
        self.items = match_items(template)
        self.listener = listener
        self.lease = lease
        self.sequence = 0

    def next_sequence(self) -> int:
        self.sequence += 1
        return self.sequence

    def active(self) -> bool:
        return not self.lease.is_expired()
