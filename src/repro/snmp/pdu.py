"""SNMPv1 message model and BER-subset codec.

Implements the pieces of X.690 BER that SNMPv1 needs:

* ``INTEGER`` (tag 0x02, two's-complement, minimal length),
* ``OCTET STRING`` (tag 0x04, UTF-8 for str payloads),
* ``NULL`` (tag 0x05),
* ``OBJECT IDENTIFIER`` (tag 0x06, first two arcs packed, base-128
  subidentifiers with continuation bits),
* ``SEQUENCE`` (tag 0x30),
* context-class PDU tags 0xA0..0xA3 (GetRequest, GetNextRequest,
  GetResponse, SetRequest).

Long-form lengths are produced for contents over 127 bytes, so large
messages round-trip too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional, Union

from repro.errors import CodecError
from repro.snmp.oid import Oid

__all__ = [
    "GetRequest",
    "GetNextRequest",
    "GetResponse",
    "SetRequest",
    "encode_message",
    "decode_message",
    "ERROR_NO_SUCH_NAME",
    "ERROR_BAD_VALUE",
    "ERROR_GEN_ERR",
]

SNMP_VERSION_1 = 0

TAG_INTEGER = 0x02
TAG_OCTET_STRING = 0x04
TAG_NULL = 0x05
TAG_OID = 0x06
TAG_SEQUENCE = 0x30
TAG_GET_REQUEST = 0xA0
TAG_GET_NEXT_REQUEST = 0xA1
TAG_GET_RESPONSE = 0xA2
TAG_SET_REQUEST = 0xA3
TAG_GET_BULK_REQUEST = 0xA5  # SNMPv2 GetBulk (error fields reinterpreted)
TAG_TRAP_V2 = 0xA7  # SNMPv2-Trap-PDU structure (same body as requests)

ERROR_NONE = 0
ERROR_TOO_BIG = 1
ERROR_NO_SUCH_NAME = 2
ERROR_BAD_VALUE = 3
ERROR_GEN_ERR = 5

VarBind = tuple[Oid, Any]


@dataclass
class _Pdu:
    request_id: int
    varbinds: list[VarBind] = field(default_factory=list)
    error_status: int = ERROR_NONE
    error_index: int = 0
    community: str = "public"

    TAG = TAG_GET_REQUEST  # overridden


class GetRequest(_Pdu):
    """Read the values bound to the requested OIDs."""

    TAG = TAG_GET_REQUEST


class GetNextRequest(_Pdu):
    """Read the lexicographically next OID after each requested one."""

    TAG = TAG_GET_NEXT_REQUEST


class GetResponse(_Pdu):
    """Agent reply carrying varbinds and an error status/index."""

    TAG = TAG_GET_RESPONSE


class SetRequest(_Pdu):
    """Write values to writable OIDs."""

    TAG = TAG_SET_REQUEST


class TrapV2(_Pdu):
    """Unsolicited notification (SNMPv2c trap layout)."""

    TAG = TAG_TRAP_V2


class GetBulkRequest(_Pdu):
    """SNMPv2 GetBulk: ``error_status`` carries non-repeaters and
    ``error_index`` max-repetitions (exactly RFC 1905's reuse of the
    fields).  Convenience properties expose the real names."""

    TAG = TAG_GET_BULK_REQUEST

    @property
    def non_repeaters(self) -> int:
        return self.error_status

    @property
    def max_repetitions(self) -> int:
        return self.error_index


_PDU_BY_TAG = {
    TAG_GET_REQUEST: GetRequest,
    TAG_GET_NEXT_REQUEST: GetNextRequest,
    TAG_GET_RESPONSE: GetResponse,
    TAG_SET_REQUEST: SetRequest,
    TAG_GET_BULK_REQUEST: GetBulkRequest,
    TAG_TRAP_V2: TrapV2,
}


# --------------------------------------------------------------------- encode --
#
# One pass over the PDU, building each TLV from its content length.  OID
# encodings (and, below, decodings) come from tables: a monitoring plane
# polls the same handful of MIB objects forever.  Tables stop growing at
# ``_OID_TABLE_MAX`` entries, so a long walk cannot bloat them.

_OID_TABLE_MAX = 1024
_OID_BER: dict[Oid, bytes] = {}        # Oid -> its full OID TLV
_OID_OF: dict[bytes, Oid] = {}         # OID content bytes -> Oid
#: INTEGER TLVs of 0..127, the common case (request ids, error fields,
#: loads in percent).
_SMALL_INT = [bytes((TAG_INTEGER, 1, value)) for value in range(128)]
_NULL = bytes((TAG_NULL, 0))


def _header(tag: int, length: int) -> bytes:
    """Tag and BER length octets (long form over 127)."""
    if length < 0x80:
        return bytes((tag, length))
    payload = length.to_bytes((length.bit_length() + 7) // 8, "big")
    return bytes((tag, 0x80 | len(payload))) + payload


def _encode_integer(value: int) -> bytes:
    if 0 <= value < 128:
        return _SMALL_INT[value]
    content = value.to_bytes((value.bit_length() + 8) // 8, "big", signed=True)
    return _header(TAG_INTEGER, len(content)) + content


def _encode_oid(oid: Oid) -> bytes:
    ber = _OID_BER.get(oid)
    if ber is not None:
        return ber
    parts = oid.parts
    out = bytearray((parts[0] * 40 + parts[1],))
    for sub in parts[2:]:
        chunk = bytearray((sub & 0x7F,))
        sub >>= 7
        while sub:
            chunk.insert(0, 0x80 | (sub & 0x7F))
            sub >>= 7
        out += chunk
    ber = _header(TAG_OID, len(out)) + out
    if len(_OID_BER) < _OID_TABLE_MAX:
        _OID_BER[oid] = ber
    return ber


def _octets(content: bytes) -> bytes:
    return _header(TAG_OCTET_STRING, len(content)) + content


def _encode_value(value: Any) -> bytes:
    kind = type(value)
    if kind is int:
        return _encode_integer(value)
    if value is None:
        return _NULL
    if isinstance(value, bool):
        return _encode_integer(int(value))
    if isinstance(value, int):
        return _encode_integer(value)
    if isinstance(value, float):
        # SNMPv1 has no REAL type; agents report scaled integers.
        return _encode_integer(round(value))
    if isinstance(value, str):
        return _octets(value.encode("utf-8"))
    if isinstance(value, bytes):
        return _octets(value)
    if isinstance(value, Oid):
        return _encode_oid(value)
    raise CodecError(f"cannot encode value of type {type(value).__name__}")


def encode_message(pdu: _Pdu) -> bytes:
    """Encode a full SNMPv1 message: Sequence(version, community, PDU)."""
    varbinds = []
    for oid, value in pdu.varbinds:
        body = _encode_oid(oid if oid.__class__ is Oid else Oid(oid)) \
            + _encode_value(value)
        varbinds.append(_header(TAG_SEQUENCE, len(body)))
        varbinds.append(body)
    varbind_list = b"".join(varbinds)
    pdu_body = (_encode_integer(pdu.request_id)
                + _encode_integer(pdu.error_status)
                + _encode_integer(pdu.error_index)
                + _header(TAG_SEQUENCE, len(varbind_list)) + varbind_list)
    body = (_SMALL_INT[SNMP_VERSION_1]
            + _octets(pdu.community.encode("utf-8"))
            + _header(pdu.TAG, len(pdu_body)) + pdu_body)
    return _header(TAG_SEQUENCE, len(body)) + body


# --------------------------------------------------------------------- decode --
#
# One walk over the message by index: every TLV is a (tag, start, end)
# window into the original bytes, so nothing is sliced until a value is
# built.  Truncation and every structural error raise CodecError.


def _tlv(data: bytes, pos: int, end: int) -> tuple[int, int, int]:
    """The TLV at ``pos`` inside ``data[:end]``: (tag, content start,
    content end)."""
    if pos + 2 > end:
        raise CodecError("truncated message")
    tag = data[pos]
    length = data[pos + 1]
    pos += 2
    if length >= 0x80:
        n_bytes = length & 0x7F
        if n_bytes == 0 or n_bytes > 4:
            raise CodecError(f"unsupported length-of-length {n_bytes}")
        if pos + n_bytes > end:
            raise CodecError("truncated content")
        length = int.from_bytes(data[pos:pos + n_bytes], "big")
        pos += n_bytes
    stop = pos + length
    if stop > end:
        raise CodecError("truncated content")
    return tag, pos, stop


def _decode_integer(data: bytes, start: int, stop: int) -> int:
    if start == stop:
        raise CodecError("empty INTEGER")
    if stop - start == 1:
        value = data[start]
        return value - 256 if value > 127 else value
    return int.from_bytes(data[start:stop], "big", signed=True)


def _decode_oid(data: bytes, start: int, stop: int) -> Oid:
    content = data[start:stop]
    oid = _OID_OF.get(content)
    if oid is not None:
        return oid
    if not content:
        raise CodecError("empty OID")
    first = content[0]
    head = min(first // 40, 2)
    parts = [head, first - 40 * head]
    sub = 0
    for byte in content[1:]:
        sub = (sub << 7) | (byte & 0x7F)
        if not byte & 0x80:
            parts.append(sub)
            sub = 0
    if sub:
        raise CodecError("OID subidentifier not terminated")
    oid = Oid(parts)
    if len(_OID_OF) < _OID_TABLE_MAX:
        _OID_OF[content] = oid
    return oid


def _decode_value(data: bytes, tag: int, start: int, stop: int) -> Any:
    if tag == TAG_INTEGER:
        return _decode_integer(data, start, stop)
    if tag == TAG_NULL:
        return None
    if tag == TAG_OCTET_STRING:
        content = data[start:stop]
        try:
            return content.decode("utf-8")
        except UnicodeDecodeError:
            return content
    if tag == TAG_OID:
        return _decode_oid(data, start, stop)
    raise CodecError(f"unexpected value tag 0x{tag:02x}")


def decode_message(data: bytes) -> _Pdu:
    """Decode bytes produced by :func:`encode_message`."""
    if data.__class__ is not bytes:
        try:
            data = bytes(memoryview(data))
        except TypeError:
            raise CodecError(f"not a byte buffer: {type(data).__name__}") from None
    tag, pos, end = _tlv(data, 0, len(data))
    if tag != TAG_SEQUENCE:
        raise CodecError(f"message must be a SEQUENCE, got 0x{tag:02x}")

    tag, start, pos = _tlv(data, pos, end)
    if tag != TAG_INTEGER or _decode_integer(data, start, pos) != SNMP_VERSION_1:
        raise CodecError("unsupported SNMP version")
    tag, start, pos = _tlv(data, pos, end)
    if tag != TAG_OCTET_STRING:
        raise CodecError("community must be OCTET STRING")
    try:
        community = data[start:pos].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CodecError("community is not UTF-8") from exc

    pdu_tag, pos, end = _tlv(data, pos, end)
    pdu_class = _PDU_BY_TAG.get(pdu_tag)
    if pdu_class is None:
        raise CodecError(f"unknown PDU tag 0x{pdu_tag:02x}")
    _, start, pos = _tlv(data, pos, end)
    request_id = _decode_integer(data, start, pos)
    _, start, pos = _tlv(data, pos, end)
    error_status = _decode_integer(data, start, pos)
    _, start, pos = _tlv(data, pos, end)
    error_index = _decode_integer(data, start, pos)
    tag, pos, end = _tlv(data, pos, end)
    if tag != TAG_SEQUENCE:
        raise CodecError("varbind list must be a SEQUENCE")

    varbinds: list[VarBind] = []
    while pos < end:
        tag, start, pos = _tlv(data, pos, end)
        if tag != TAG_SEQUENCE:
            raise CodecError("varbind must be a SEQUENCE")
        oid_tag, oid_start, oid_stop = _tlv(data, start, pos)
        if oid_tag != TAG_OID:
            raise CodecError("varbind name must be an OID")
        value_tag, value_start, value_stop = _tlv(data, oid_stop, pos)
        varbinds.append((_decode_oid(data, oid_start, oid_stop),
                         _decode_value(data, value_tag, value_start,
                                       value_stop)))

    return pdu_class(
        request_id=request_id,
        varbinds=varbinds,
        error_status=error_status,
        error_index=error_index,
        community=community,
    )
