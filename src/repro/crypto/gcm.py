"""AES-GCM authenticated encryption (NIST SP 800-38D).

This is the AEAD used everywhere the paper uses ``sgx_seal_data`` or an
attested secure channel.  :meth:`AesGcm.encrypt` and :meth:`AesGcm.decrypt`
are one OpenSSL ``libcrypto`` EVP AES-GCM call each, through the loader in
:mod:`repro.crypto.native`; ``decrypt`` returns plaintext only after
``EVP_CipherFinal_ex`` has accepted the tag, which OpenSSL compares in
constant time.  Measured on a 2-vCPU x86-64 VM (CPython 3.11, OpenSSL 3.0),
an encryption takes 9-13 us up to a 5 KiB Migration Library persist and
about 23 us for the sealed KV store's 66,669-byte snapshot, against
0.14-0.66 ms and 1.4-2.0 ms from scratch (DESIGN.md section 9).

:func:`reference_encrypt` and :func:`reference_decrypt` are the same AEAD
from scratch: CTR over the T-table :class:`~repro.crypto.aes.AES`, and
GHASH, ``X_1 * H^n + X_2 * H^(n-1) + ... + X_n * H`` over GF(2^128) for the
blocks ``AAD || pad || ciphertext || pad || lengths``, by Horner's rule with
Shoup-style 8-bit tables for ``H``.  Tests compare the two, and ``AesGcm``
runs the reference where no libcrypto loads or where libcrypto refuses the
IV length (this one takes 1-128 bytes): a sealed blob's IV comes from the
host, so every length behaves as the reference says.

Known-answer tests against the NIST GCM vectors live in
``tests/unit/test_gcm.py``.
"""

from __future__ import annotations

import ctypes

from repro.crypto.aes import AES, check_key
from repro.crypto.bytesutil import (
    block_to_int,
    constant_time_equal,
    int_to_block,
    require_bytes,
    xor_bytes,
)
from repro.crypto.ctr import ctr_transform
from repro.crypto.native import aes_cipher, cipher_context, libcrypto
from repro.errors import CryptoError

_R = 0xE1000000000000000000000000000000  # GCM reduction polynomial (bit-reflected)
_X8 = 1 << 119  # the field element x^8 in GCM bit order


def gf_mult(x: int, y: int) -> int:
    """Bitwise multiplication in GF(2^128) with GCM bit ordering.

    Algorithm 1 of SP 800-38D; used to build the tables and directly in
    tests.
    """
    z = 0
    v = y
    for i in range(128):
        if (x >> (127 - i)) & 1:
            z ^= v
        if v & 1:
            v = (v >> 1) ^ _R
        else:
            v >>= 1
    return z


def _mult_by_x(v: int) -> int:
    """Multiply a field element by x (one shift + conditional reduction)."""
    if v & 1:
        return (v >> 1) ^ _R
    return v >> 1


def _expand_byte_table(basis: list[int]) -> list[int]:
    """Table over all byte values from the 8 per-bit basis elements.

    ``basis[k]`` is the element contributed by bit ``7 - k`` of the byte
    (i.e. the byte's MSB maps to ``basis[0]``).
    """
    # Doubling, lowest bit first: once bit j is in, table[(1 << j) | b] is
    # table[b] ^ basis[7 - j] for every b below 1 << j.
    table = [0]
    for element in reversed(basis):
        table += [entry ^ element for entry in table]
    return table


# RED[b] = (b placed at coefficients x^120..x^127) * x^8 — key-independent.
_RED_BASIS = [gf_mult(1 << j, _X8) for j in range(7, -1, -1)]
_REDUCTION_TABLE = _expand_byte_table(_RED_BASIS)


class _GhashKey:
    """Precomputed Shoup tables for multiplication by a fixed H.

    Built from 8 doublings + byte expansion rather than 256 full bitwise
    multiplications.
    """

    def __init__(self, h: int):
        self.h = h
        # basis[k] = x^k * H; byte b at the top maps its MSB to x^0.
        basis = [h]
        for _ in range(7):
            basis.append(_mult_by_x(basis[-1]))
        # T[b] = (b placed at coefficients x^0..x^7) * H
        self.table = _expand_byte_table(basis)
        self.reduction = _REDUCTION_TABLE

    def mult(self, y: int) -> int:
        """Compute ``y * H`` using the 8-bit tables."""
        z = 0
        table = self.table
        reduction = self.reduction
        # Process bytes LSB-first: each step multiplies the accumulator by
        # x^8 (shift + reduction of the dropped byte) and folds in the next
        # byte's table entry, so byte j ends up weighted by x^(8j).
        for byte in reversed(y.to_bytes(16, "big")):
            z = (z >> 8) ^ reduction[z & 0xFF] ^ table[byte]
        return z


def ghash_table_cache_stats() -> dict[str, int]:
    """Zero counts under the keys of the GHASH table caches that native
    AES-GCM made pointless.  Its only reader is the frozen benchmark tracer
    (``benchmarks/e2e/tracing.py``)."""
    return {
        "hits": 0, "misses": 0, "size": 0, "capacity": 0,
        "lane_hits": 0, "lane_misses": 0, "lane_size": 0,
    }


def _ghash_horner(key: _GhashKey, blocks: bytes) -> int:
    """GHASH of ``blocks`` (a whole number of 16-byte blocks), one at a time."""
    y = 0
    mult = key.mult
    for i in range(0, len(blocks), 16):
        y = mult(y ^ int.from_bytes(blocks[i : i + 16], "big"))
    return y


def _ghash(key: _GhashKey, aad: bytes, ciphertext: bytes) -> int:
    lengths = ((len(aad) * 8) << 64) | (len(ciphertext) * 8)
    return _ghash_horner(key, b"".join((
        aad, bytes(-len(aad) % 16), ciphertext, bytes(-len(ciphertext) % 16),
        int_to_block(lengths),
    )))


def _inc32(block: int) -> int:
    """Add one to the low 32 bits of a counter block, mod 2^32 (SP 800-38D
    section 6.2); the upper 96 bits never change."""
    return (block & ~0xFFFFFFFF) | ((block + 1) & 0xFFFFFFFF)


def _j0(key: _GhashKey, iv: bytes) -> int:
    """The pre-counter block: ``IV || 0^31 || 1`` for a 96-bit IV, else
    GHASH of the IV (SP 800-38D section 7.1)."""
    if len(iv) == 12:
        return (int.from_bytes(iv, "big") << 32) | 1
    return _ghash(key, b"", iv)


def _reference_setup(key: bytes, iv: bytes) -> tuple[AES, _GhashKey, int]:
    cipher = AES(key)
    ghash_key = _GhashKey(block_to_int(cipher.encrypt_block(bytes(16))))
    return cipher, ghash_key, _j0(ghash_key, iv)


def _tag(cipher: AES, ghash_key: _GhashKey, j0: int, aad: bytes, ciphertext: bytes) -> bytes:
    mask = cipher.encrypt_block(int_to_block(j0))
    return xor_bytes(mask, int_to_block(_ghash(ghash_key, aad, ciphertext)))


def reference_encrypt(
    key: bytes, iv: bytes, plaintext: bytes, aad: bytes = b""
) -> tuple[bytes, bytes]:
    """From-scratch AES-GCM encryption: ``(ciphertext, tag)``."""
    cipher, ghash_key, j0 = _reference_setup(key, iv)
    ciphertext = ctr_transform(cipher, _inc32(j0), plaintext)
    return ciphertext, _tag(cipher, ghash_key, j0, aad, ciphertext)


def reference_decrypt(
    key: bytes, iv: bytes, ciphertext: bytes, tag: bytes, aad: bytes = b""
) -> bytes:
    """From-scratch AES-GCM decryption; raises on a tag mismatch."""
    cipher, ghash_key, j0 = _reference_setup(key, iv)
    if not constant_time_equal(_tag(cipher, ghash_key, j0, aad, ciphertext), tag):
        raise CryptoError("GCM tag mismatch")
    return ctr_transform(cipher, _inc32(j0), ciphertext)


# EVP_CIPHER_CTX_ctrl commands (openssl/evp.h).
_SET_IVLEN = 0x9
_GET_TAG = 0x10
_SET_TAG = 0x11


def _evp_gcm(key: bytes, iv: bytes, data: bytes, aad: bytes, tag: bytes | None):
    """One libcrypto AES-GCM call: ``(ciphertext, tag)`` when ``tag`` is
    ``None``, else the plaintext once the tag checks out.  ``None`` when no
    libcrypto loads or it refuses the IV length."""
    lib = libcrypto()
    if lib is None:
        return None
    encrypt = tag is None
    ctx = cipher_context(lib)
    try:
        cipher = aes_cipher(lib, key, "gcm")
        if len(iv) == 12:
            ok = lib.EVP_CipherInit_ex(ctx, cipher, None, key, iv, encrypt)
        else:
            if lib.EVP_CipherInit_ex(ctx, cipher, None, None, None, encrypt) != 1:
                raise CryptoError("libcrypto could not set up AES-GCM")
            if lib.EVP_CIPHER_CTX_ctrl(ctx, _SET_IVLEN, len(iv), None) != 1:
                lib.ERR_clear_error()  # the refusal queued an error; the reference takes it
                return None
            ok = lib.EVP_CipherInit_ex(ctx, None, None, key, iv, encrypt)
        if ok != 1:
            raise CryptoError("libcrypto could not set up AES-GCM")
        size = ctypes.byref(ctypes.c_int())
        if aad and lib.EVP_CipherUpdate(ctx, None, size, aad, len(aad)) != 1:
            raise CryptoError("libcrypto could not authenticate the AAD")
        out = ctypes.create_string_buffer(len(data))
        if data and lib.EVP_CipherUpdate(ctx, out, size, data, len(data)) != 1:
            raise CryptoError("libcrypto AES-GCM update failed")
        if not encrypt and lib.EVP_CIPHER_CTX_ctrl(ctx, _SET_TAG, len(tag), tag) != 1:
            raise CryptoError("libcrypto could not set the GCM tag")
        if lib.EVP_CipherFinal_ex(ctx, out, size) != 1:
            ctypes.memset(out, 0, len(data))
            raise CryptoError("libcrypto AES-GCM failed" if encrypt else "GCM tag mismatch")
        if not encrypt:
            return out.raw
        mac = ctypes.create_string_buffer(16)
        if lib.EVP_CIPHER_CTX_ctrl(ctx, _GET_TAG, 16, mac) != 1:
            raise CryptoError("libcrypto could not read the GCM tag")
        return out.raw, mac.raw
    finally:
        lib.EVP_CIPHER_CTX_free(ctx)


class AesGcm:
    """AES-GCM with 128-bit tags and, by default, 96-bit IVs."""

    TAG_SIZE = 16
    IV_SIZE = 12

    def __init__(self, key: bytes):
        self._key = check_key(key)

    def encrypt(self, iv: bytes, plaintext: bytes, aad: bytes = b"") -> tuple[bytes, bytes]:
        """Return ``(ciphertext, tag)``."""
        require_bytes(iv, plaintext, aad)
        sealed = _evp_gcm(self._key, iv, plaintext, aad, None)
        if sealed is None:
            sealed = reference_encrypt(self._key, iv, plaintext, aad)
        return sealed

    def decrypt(self, iv: bytes, ciphertext: bytes, tag: bytes, aad: bytes = b"") -> bytes:
        """Verify the tag and return the plaintext; raises on any mismatch,
        and on an input that is not ``bytes``."""
        require_bytes(iv, ciphertext, tag, aad)
        if len(tag) != self.TAG_SIZE:
            raise CryptoError(f"GCM tag must be {self.TAG_SIZE} bytes")
        plaintext = _evp_gcm(self._key, iv, ciphertext, aad, tag)
        if plaintext is None:
            plaintext = reference_decrypt(self._key, iv, ciphertext, tag, aad)
        return plaintext

    def seal(self, iv: bytes, plaintext: bytes, aad: bytes = b"") -> bytes:
        """Convenience: return ``ciphertext || tag`` as one buffer."""
        ciphertext, tag = self.encrypt(iv, plaintext, aad)
        return ciphertext + tag

    def open(self, iv: bytes, sealed: bytes, aad: bytes = b"") -> bytes:
        """Inverse of :meth:`seal`."""
        if len(sealed) < self.TAG_SIZE:
            raise CryptoError("sealed buffer shorter than a GCM tag")
        return self.decrypt(iv, sealed[: -self.TAG_SIZE], sealed[-self.TAG_SIZE :], aad)
