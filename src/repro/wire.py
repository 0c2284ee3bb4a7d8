"""A small explicit TLV wire format for protocol messages.

Everything that crosses an untrusted boundary in the simulator — sealed
blobs, attestation messages, migration data — is serialized through this
module rather than pickled, so the byte layout is explicit, versioned, and
cannot smuggle Python objects.

A message is a mapping from string keys to values of type ``bytes``, ``int``,
``str``, ``bool``, or a (possibly nested) list of those.  Encoding, every
integer big-endian:

    message   := MAGIC u16(count) field*
    field     := u16(len(key)) key value
    value     := u8(0) u32(len) bytes
               | u8(1) u8(sign) u64(magnitude)     (no two's complement)
               | u8(2) u32(len) utf-8
               | u8(3) u8(0 | 1)
               | u8(4) u32(count) value*

The format's limits: at most 65,535 fields per message and 65,535 UTF-8
bytes per key (u16); at most 2**32 - 1 bytes per ``bytes`` or ``str``
value and items per list (u32); integers of magnitude at most 2**64 - 1;
and lists nested at most :data:`MAX_NESTING` deep, a list directly under a
key being depth 1.  :func:`encode` refuses a value outside these limits, and
:func:`decode` a message nested deeper, with :class:`WireError`, so
everything encoded also decodes.
"""

from __future__ import annotations

import struct

from repro.errors import WireError

_MAGIC = b"RPR1"

_T_BYTES = 0
_T_INT = 1
_T_STR = 2
_T_BOOL = 3
_T_LIST = 4

#: Deepest list nesting that :func:`encode` and :func:`decode` accept.  The
#: benchmark workloads' traffic nests at most 2 deep; the bound refuses a
#: message that is all list headers before its depth costs anything.
MAX_NESTING = 16

_U16_MAX = 0xFFFF
_U32_MAX = 0xFFFF_FFFF
_U64_MAX = 0xFFFF_FFFF_FFFF_FFFF

_U16 = struct.Struct(">H")  # field count, key length
_HEAD = struct.Struct(">BI")  # type + u32 length or item count
_INT = struct.Struct(">BBQ")  # type + sign + u64 magnitude
_TRUE = bytes((_T_BOOL, 1))
_FALSE = bytes((_T_BOOL, 0))
_KINDS = frozenset((bytes, int, str, bool, list))

Value = bytes | int | str | bool | list


def _kind_of(value: object) -> tuple[type, object]:
    """The wire kind of a value whose exact type is none of the five, and the
    value to encode for it: the ``isinstance`` chain, bool before int."""
    if isinstance(value, bool):
        return bool, value
    if isinstance(value, (bytes, bytearray)):
        return bytes, bytes(value)
    if isinstance(value, int):
        return int, value
    if isinstance(value, str):
        return str, value
    if isinstance(value, list):
        return list, value
    raise WireError(f"unsupported wire type: {type(value).__name__}")


def encode(message: dict[str, Value]) -> bytes:
    """Serialize a message dict to bytes (keys sorted for determinism).

    One pass: every header and payload is appended to one list, which is
    joined once; lists are walked with an explicit stack.
    """
    if len(message) > _U16_MAX:
        raise WireError(f"too many fields: {len(message)} > {_U16_MAX}")
    parts = [_MAGIC, _U16.pack(len(message))]
    append = parts.append
    pack_head = _HEAD.pack
    enclosing = []  # iterators of the lists that enclose `items`
    items = iter(sorted(message))  # with nothing enclosing it: the keys
    while True:
        for value in items:
            if not enclosing:
                key_bytes = value.encode("utf-8")
                length = len(key_bytes)
                if length > _U16_MAX:
                    raise WireError(f"key of {length} bytes exceeds {_U16_MAX}")
                append(_U16.pack(length))
                append(key_bytes)
                value = message[value]
            kind = type(value)
            if kind not in _KINDS:
                kind, value = _kind_of(value)
            if kind is bytes:
                length = len(value)
                if length > _U32_MAX:
                    raise WireError(f"bytes value of {length} bytes exceeds {_U32_MAX}")
                append(pack_head(_T_BYTES, length))
                append(value)
            elif kind is str:
                data = value.encode("utf-8")
                length = len(data)
                if length > _U32_MAX:
                    raise WireError(f"str value of {length} bytes exceeds {_U32_MAX}")
                append(pack_head(_T_STR, length))
                append(data)
            elif kind is int:
                magnitude = abs(value)
                if magnitude > _U64_MAX:
                    raise WireError(f"int magnitude exceeds {_U64_MAX}")
                append(_INT.pack(_T_INT, value < 0, magnitude))
            elif kind is bool:
                append(_TRUE if value else _FALSE)
            else:
                if len(enclosing) == MAX_NESTING:
                    raise WireError(f"lists nested deeper than {MAX_NESTING}")
                length = len(value)
                if length > _U32_MAX:
                    raise WireError(f"list of {length} items exceeds {_U32_MAX}")
                append(pack_head(_T_LIST, length))
                enclosing.append(items)
                items = iter(value)
                break
        else:
            if not enclosing:
                break
            items = enclosing.pop()
    return b"".join(parts)


def pack_records(rows: list[dict[str, Value]]) -> list[bytes]:
    """Frame a batch of record dicts as a list of encoded sub-messages.

    Used for batch exchanges (e.g. the Migration Enclaves' ``transfer_batch``
    command): each record is one self-delimiting encoded message, so the
    batch travels as a single wire list while every record stays individually
    parseable and versionable.
    """
    return [encode(row) for row in rows]


def unpack_records(items: list) -> list[dict[str, Value]]:
    """Inverse of :func:`pack_records`.

    Raises :class:`WireError` when an item is not an encoded sub-message, so
    callers get the same failure mode for a malformed batch as for a
    malformed top-level message.
    """
    rows: list[dict[str, Value]] = []
    for item in items:
        if not isinstance(item, (bytes, bytearray)):
            raise WireError("batch record is not an encoded message")
        rows.append(decode(bytes(item)))
    return rows


def decode(data: bytes) -> dict[str, Value]:
    """Parse bytes produced by :func:`encode`.

    One pass: headers are read in place with ``unpack_from`` and each payload
    is sliced once; lists are filled through an explicit stack of the lists
    still open, at most :data:`MAX_NESTING` deep.
    """
    end = len(data)
    if end < 6 or data[:4] != _MAGIC:
        raise WireError("bad magic")
    (count,) = _U16.unpack_from(data, 4)
    offset = 6
    message: dict[str, Value] = {}
    for _ in range(count):
        if offset + 2 > end:
            raise WireError("truncated key length")
        (key_len,) = _U16.unpack_from(data, offset)
        offset += 2
        if offset + key_len > end:
            raise WireError("truncated key")
        try:
            key = data[offset : offset + key_len].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise WireError(f"invalid utf-8 in key: {exc}") from exc
        offset += key_len
        open_lists = []  # [items, items still to read], innermost last
        while True:
            if offset >= end:
                raise WireError("truncated value")
            vtype = data[offset]
            if vtype == _T_BYTES or vtype == _T_STR:
                if offset + 5 > end:
                    raise WireError("truncated length")
                start = offset + 5
                offset = start + _HEAD.unpack_from(data, offset)[1]
                if offset > end:
                    raise WireError("truncated payload")
                value = data[start:offset]
                if vtype == _T_STR:
                    try:
                        value = value.decode("utf-8")
                    except UnicodeDecodeError as exc:
                        raise WireError(f"invalid utf-8 in string value: {exc}") from exc
            elif vtype == _T_INT:
                if offset + 10 > end:
                    raise WireError("truncated int")
                _, sign, magnitude = _INT.unpack_from(data, offset)
                value = -magnitude if sign else magnitude
                offset += 10
            elif vtype == _T_BOOL:
                if offset + 2 > end:
                    raise WireError("truncated bool")
                value = data[offset + 1] != 0
                offset += 2
            elif vtype == _T_LIST:
                if offset + 5 > end:
                    raise WireError("truncated list length")
                if len(open_lists) == MAX_NESTING:
                    raise WireError(f"lists nested deeper than {MAX_NESTING}")
                length = _HEAD.unpack_from(data, offset)[1]
                offset += 5
                if length:
                    open_lists.append([[], length])
                    continue
                value = []
            else:
                raise WireError(f"unknown wire type code: {vtype}")
            # The value fills a slot of the innermost open list, and a list
            # it completes fills one of the list around it; with no list
            # open, it is the field's value.
            while open_lists:
                innermost = open_lists[-1]
                innermost[0].append(value)
                innermost[1] -= 1
                if innermost[1]:
                    break
                value = open_lists.pop()[0]
            else:
                break
        message[key] = value
    if offset != end:
        raise WireError("trailing bytes after message")
    return message
