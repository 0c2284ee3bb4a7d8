"""AES-CMAC (NIST SP 800-38B / RFC 4493).

SGX derives all its keys (sealing keys, report keys, provisioning keys) with
AES-128 in a CMAC-based KDF, and local-attestation REPORTs are MACed with
CMAC.  CMAC is CBC-MAC with the last block masked by a subkey, so
:meth:`AesCmac.mac` is one OpenSSL ``libcrypto`` AES-CBC encryption (zero
IV, no padding) of the masked message, through the loader in
:mod:`repro.crypto.native`, and the tag is its last block.  The subkeys
derive from ``L = E_K(0^128)``, the same call over one zero block.  Where no
libcrypto loads, the from-scratch :class:`~repro.crypto.aes.AES` chains the
blocks instead (:func:`reference_cbc_mac`).  Known-answer tests against the
RFC 4493 vectors live in ``tests/unit/test_cmac_kdf.py``.
"""

from __future__ import annotations

import ctypes

from repro.crypto.aes import AES, check_key
from repro.crypto.bytesutil import constant_time_equal, require_bytes, xor_bytes
from repro.crypto.native import aes_cipher, cipher_context, libcrypto
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


def reference_cbc_mac(key: bytes, blocks: bytes) -> bytes:
    """From scratch: the last block of the AES-CBC encryption of ``blocks``
    (a whole number of blocks) under a zero IV."""
    cipher = AES(key)
    x = bytes(_BLOCK)
    for i in range(0, len(blocks), _BLOCK):
        x = cipher.encrypt_block(xor_bytes(x, blocks[i : i + _BLOCK]))
    return x


def _cbc_mac(key: bytes, blocks: bytes) -> bytes:
    """:func:`reference_cbc_mac`'s result, from one libcrypto call when one
    loads."""
    lib = libcrypto()
    if lib is None:
        return reference_cbc_mac(key, blocks)
    ctx = cipher_context(lib)
    try:
        cipher = aes_cipher(lib, key, "cbc")
        if (
            lib.EVP_CipherInit_ex(ctx, cipher, None, key, bytes(_BLOCK), 1) != 1
            or lib.EVP_CIPHER_CTX_set_padding(ctx, 0) != 1
        ):
            raise CryptoError("libcrypto could not set up AES-CBC")
        out = ctypes.create_string_buffer(len(blocks))
        size = ctypes.c_int()
        if (
            lib.EVP_CipherUpdate(ctx, out, ctypes.byref(size), blocks, len(blocks)) != 1
            or size.value != len(blocks)
        ):
            raise CryptoError("libcrypto AES-CBC update failed")
        return out.raw[-_BLOCK:]
    finally:
        lib.EVP_CIPHER_CTX_free(ctx)


class AesCmac:
    """AES-CMAC producing 16-byte tags."""

    def __init__(self, key: bytes):
        self._key = check_key(key)
        self._k1 = _double(_cbc_mac(self._key, bytes(_BLOCK)))
        self._k2 = _double(self._k1)

    def mac(self, message: bytes) -> bytes:
        """Compute the CMAC tag of ``message``."""
        require_bytes(message)
        head = max(0, (len(message) - 1) // _BLOCK * _BLOCK)  # all but the last block
        tail = message[head:]
        if len(tail) == _BLOCK:
            last = xor_bytes(tail, self._k1)
        else:
            last = xor_bytes(tail + b"\x80" + bytes(_BLOCK - len(tail) - 1), self._k2)
        return _cbc_mac(self._key, message[:head] + last)

    def verify(self, message: bytes, tag: bytes) -> bool:
        """Timing-safe verification of a CMAC tag."""
        if len(tag) != _BLOCK:
            raise CryptoError(f"CMAC tag must be {_BLOCK} bytes")
        return constant_time_equal(self.mac(message), tag)


def aes_cmac(key: bytes, message: bytes) -> bytes:
    """One-shot convenience wrapper."""
    return AesCmac(key).mac(message)
