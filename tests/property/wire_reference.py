"""The wire codec as it was before the one-pass rewrite, kept verbatim as the
reference that ``test_wire_properties.py`` compares :mod:`repro.wire` with.

Its ``encode``/``decode`` recurse once per value; it has no nesting bound
and raises ``OverflowError`` for values outside the format's limits.
"""

from __future__ import annotations

from repro.errors import WireError

_MAGIC = b"RPR1"

_T_BYTES = 0
_T_INT = 1
_T_STR = 2
_T_BOOL = 3
_T_LIST = 4

Value = bytes | int | str | bool | list


def _encode_value(value: Value) -> bytes:
    if isinstance(value, bool):  # must precede int check
        return bytes([_T_BOOL, 1 if value else 0])
    if isinstance(value, (bytes, bytearray)):
        data = bytes(value)
        return bytes([_T_BYTES]) + len(data).to_bytes(4, "big") + data
    if isinstance(value, int):
        sign = 1 if value < 0 else 0
        return bytes([_T_INT, sign]) + abs(value).to_bytes(8, "big")
    if isinstance(value, str):
        data = value.encode("utf-8")
        return bytes([_T_STR]) + len(data).to_bytes(4, "big") + data
    if isinstance(value, list):
        parts = [bytes([_T_LIST]), len(value).to_bytes(4, "big")]
        for item in value:
            parts.append(_encode_value(item))
        return b"".join(parts)
    raise WireError(f"unsupported wire type: {type(value).__name__}")


def _decode_value(data: bytes, offset: int) -> tuple[Value, int]:
    if offset >= len(data):
        raise WireError("truncated value")
    vtype = data[offset]
    offset += 1
    if vtype == _T_BOOL:
        if offset >= len(data):
            raise WireError("truncated bool")
        return data[offset] != 0, offset + 1
    if vtype == _T_INT:
        if offset + 9 > len(data):
            raise WireError("truncated int")
        sign = data[offset]
        magnitude = int.from_bytes(data[offset + 1 : offset + 9], "big")
        return (-magnitude if sign else magnitude), offset + 9
    if vtype in (_T_BYTES, _T_STR):
        if offset + 4 > len(data):
            raise WireError("truncated length")
        length = int.from_bytes(data[offset : offset + 4], "big")
        offset += 4
        if offset + length > len(data):
            raise WireError("truncated payload")
        payload = data[offset : offset + length]
        offset += length
        if vtype == _T_STR:
            try:
                return payload.decode("utf-8"), offset
            except UnicodeDecodeError as exc:
                raise WireError(f"invalid utf-8 in string value: {exc}") from exc
        return payload, offset
    if vtype == _T_LIST:
        if offset + 4 > len(data):
            raise WireError("truncated list length")
        count = int.from_bytes(data[offset : offset + 4], "big")
        offset += 4
        items = []
        for _ in range(count):
            item, offset = _decode_value(data, offset)
            items.append(item)
        return items, offset
    raise WireError(f"unknown wire type code: {vtype}")


def encode(message: dict[str, Value]) -> bytes:
    """Serialize a message dict to bytes (keys sorted for determinism)."""
    parts = [_MAGIC, len(message).to_bytes(2, "big")]
    for key in sorted(message):
        key_bytes = key.encode("utf-8")
        parts.append(len(key_bytes).to_bytes(2, "big"))
        parts.append(key_bytes)
        parts.append(_encode_value(message[key]))
    return b"".join(parts)


def decode(data: bytes) -> dict[str, Value]:
    """Parse bytes produced by :func:`encode`."""
    if len(data) < 6 or data[:4] != _MAGIC:
        raise WireError("bad magic")
    count = int.from_bytes(data[4:6], "big")
    offset = 6
    message: dict[str, Value] = {}
    for _ in range(count):
        if offset + 2 > len(data):
            raise WireError("truncated key length")
        key_len = int.from_bytes(data[offset : offset + 2], "big")
        offset += 2
        if offset + key_len > len(data):
            raise WireError("truncated key")
        try:
            key = data[offset : offset + key_len].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise WireError(f"invalid utf-8 in key: {exc}") from exc
        offset += key_len
        value, offset = _decode_value(data, offset)
        message[key] = value
    if offset != len(data):
        raise WireError("trailing bytes after message")
    return message
