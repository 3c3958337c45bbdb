"""Object identifiers."""

from __future__ import annotations

from functools import total_ordering
from typing import Iterable, Union

from repro.errors import SnmpError

__all__ = ["Oid"]


@total_ordering
class Oid:
    """An SNMP object identifier (dotted sequence of sub-identifiers).

    Ordering is lexicographic on the sub-identifier tuple — the order
    GETNEXT walks the MIB in.
    """

    __slots__ = ("parts",)

    def __init__(self, value: Union[str, Iterable[int], "Oid"]) -> None:
        if isinstance(value, Oid):
            self.parts: tuple[int, ...] = value.parts
        elif isinstance(value, str):
            text = value.strip().lstrip(".")
            if not text:
                raise SnmpError("empty OID")
            try:
                self.parts = tuple(int(p) for p in text.split("."))
            except ValueError as exc:
                raise SnmpError(f"malformed OID {value!r}") from exc
        else:
            self.parts = tuple(int(p) for p in value)
        if len(self.parts) < 2:
            raise SnmpError(f"OID needs at least two sub-identifiers: {self.parts}")
        if any(p < 0 for p in self.parts):
            raise SnmpError(f"negative sub-identifier in {self.parts}")
        if self.parts[0] > 2:
            raise SnmpError(f"first sub-identifier must be 0..2: {self.parts}")

    def __str__(self) -> str:
        return ".".join(str(p) for p in self.parts)

    def __repr__(self) -> str:
        return f"Oid({str(self)!r})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Oid) and self.parts == other.parts

    def __lt__(self, other: "Oid") -> bool:
        return self.parts < other.parts

    def __hash__(self) -> int:
        return hash(self.parts)

    def __add__(self, suffix: Iterable[int]) -> "Oid":
        return Oid(self.parts + tuple(suffix))
