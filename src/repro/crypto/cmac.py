"""AES-CMAC (NIST SP 800-38B / RFC 4493), from scratch.

SGX derives all its keys (sealing keys, report keys, provisioning keys) with
AES-128 in a CMAC-based KDF, and local-attestation REPORTs are MACed with
CMAC.  Known-answer tests against the RFC 4493 vectors live in
``tests/unit/test_cmac_kdf.py``.
"""

from __future__ import annotations

from repro.crypto.aes import AES
from repro.crypto.bytesutil import constant_time_equal, xor_bytes
from repro.errors import CryptoError

_BLOCK = 16
_RB = 0x87  # the constant R_128 from SP 800-38B


def _double(block: bytes) -> bytes:
    """Multiply a 128-bit value by x in GF(2^128) (the 'dbl' operation)."""
    value = int.from_bytes(block, "big")
    carry = value >> 127
    value = (value << 1) & ((1 << 128) - 1)
    if carry:
        value ^= _RB
    return value.to_bytes(_BLOCK, "big")


class AesCmac:
    """AES-CMAC producing 16-byte tags."""

    def __init__(self, key: bytes):
        self._cipher = AES(key)
        l = self._cipher.encrypt_block(b"\x00" * _BLOCK)
        self._k1 = _double(l)
        self._k2 = _double(self._k1)

    def mac(self, message: bytes) -> bytes:
        """Compute the CMAC tag of ``message``."""
        n = (len(message) + _BLOCK - 1) // _BLOCK
        if n == 0:
            n = 1
            complete = False
        else:
            complete = len(message) % _BLOCK == 0
        if complete:
            last = xor_bytes(message[(n - 1) * _BLOCK :], self._k1)
        else:
            tail = message[(n - 1) * _BLOCK :]
            padded = tail + b"\x80" + b"\x00" * (_BLOCK - len(tail) - 1)
            last = xor_bytes(padded, self._k2)
        x = b"\x00" * _BLOCK
        for i in range(n - 1):
            x = self._cipher.encrypt_block(xor_bytes(x, message[i * _BLOCK : (i + 1) * _BLOCK]))
        return self._cipher.encrypt_block(xor_bytes(x, last))

    def verify(self, message: bytes, tag: bytes) -> bool:
        """Timing-safe verification of a CMAC tag."""
        if len(tag) != _BLOCK:
            raise CryptoError(f"CMAC tag must be {_BLOCK} bytes")
        return constant_time_equal(self.mac(message), tag)


def aes_cmac(key: bytes, message: bytes) -> bytes:
    """One-shot convenience wrapper."""
    return AesCmac(key).mac(message)
