"""Small byte-level helpers shared by the crypto primitives."""

from __future__ import annotations

import hmac

from repro.errors import CryptoError


def xor_bytes(a: bytes, b: bytes) -> bytes:
    """XOR two equal-length byte strings."""
    if len(a) != len(b):
        raise CryptoError(f"xor_bytes length mismatch: {len(a)} vs {len(b)}")
    return (int.from_bytes(a, "big") ^ int.from_bytes(b, "big")).to_bytes(len(a), "big")


def require_bytes(*values: object) -> None:
    """Refuse any value that is not ``bytes`` with :class:`CryptoError`.

    Channel records and sealed blobs come from the host, and their fields
    may decode to any wire type; a string or list where ciphertext should
    be is as forged as a bad tag."""
    for value in values:
        if not isinstance(value, bytes):
            raise CryptoError(f"expected bytes, got {type(value).__name__}")


def constant_time_equal(a: bytes, b: bytes) -> bool:
    """Timing-safe comparison (delegates to :func:`hmac.compare_digest`)."""
    return hmac.compare_digest(a, b)


def int_to_block(value: int) -> bytes:
    """Encode a non-negative integer as a big-endian 16-byte block."""
    return value.to_bytes(16, "big")


def block_to_int(block: bytes) -> int:
    """Decode a 16-byte block as a big-endian integer."""
    if len(block) != 16:
        raise CryptoError(f"expected 16-byte block, got {len(block)}")
    return int.from_bytes(block, "big")


def u32(value: int) -> bytes:
    """Big-endian 4-byte encoding of a 32-bit unsigned integer."""
    return (value & 0xFFFFFFFF).to_bytes(4, "big")


def u64(value: int) -> bytes:
    """Big-endian 8-byte encoding of a 64-bit unsigned integer."""
    return (value & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "big")


def chunks(data: bytes, size: int):
    """Yield successive ``size``-byte chunks of ``data`` (last may be short)."""
    for i in range(0, len(data), size):
        yield data[i : i + size]
