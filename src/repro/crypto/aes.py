"""AES block cipher (FIPS 197), implemented from scratch: the reference.

AES-GCM and AES-CMAC run on libcrypto (:mod:`repro.crypto.gcm`,
:mod:`repro.crypto.cmac`); this cipher is what tests compare them against
and what they fall back to where libcrypto does not load or refuses an
input.  :meth:`AES.encrypt_block` runs T-table rounds: the state is four
32-bit column words, and four 256-entry word tables fold SubBytes,
ShiftRows and MixColumns into 16 lookups per round.
:meth:`AES.encrypt_blocks` encrypts a sequence of blocks with it (the CTR
keystream), and :meth:`AES.decrypt_block` (inverse cipher, used by tests)
keeps byte-wise rounds with GF(2^8) multiplication tables.

The S-box and its inverse are computed programmatically from the GF(2^8)
inverse plus the affine transform, rather than transcribed, to rule out
copy errors; known-answer tests against the FIPS 197 vectors live in
``tests/unit/test_aes.py``.
"""

from __future__ import annotations

import struct
from collections.abc import Sequence

from repro.errors import CryptoError


def _gf_mul(a: int, b: int) -> int:
    """Multiply in GF(2^8) with the AES polynomial x^8+x^4+x^3+x+1."""
    result = 0
    for _ in range(8):
        if b & 1:
            result ^= a
        high = a & 0x80
        a = (a << 1) & 0xFF
        if high:
            a ^= 0x1B
        b >>= 1
    return result


def _build_sbox() -> tuple[bytes, bytes]:
    # Multiplicative inverses via exponentiation: a^254 = a^-1 in GF(2^8).
    inverse = [0] * 256
    for a in range(1, 256):
        x = a
        for _ in range(253):  # a^255 = 1, so a^254 = a^-1
            x = _gf_mul(x, a)
        inverse[a] = x
    sbox = [0] * 256
    for a in range(256):
        x = inverse[a]
        # Affine transform: b = x ^ rotl(x,1) ^ rotl(x,2) ^ rotl(x,3) ^ rotl(x,4) ^ 0x63
        b = x
        for shift in range(1, 5):
            b ^= ((x << shift) | (x >> (8 - shift))) & 0xFF
        sbox[a] = b ^ 0x63
    inv_sbox = [0] * 256
    for a, s in enumerate(sbox):
        inv_sbox[s] = a
    return bytes(sbox), bytes(inv_sbox)


SBOX, INV_SBOX = _build_sbox()

_RCON = [0x01]
while len(_RCON) < 14:
    _RCON.append(_gf_mul(_RCON[-1], 2))

# Inverse ShiftRows on the flat 16-byte column-major state (flat index =
# 4*col + row): row r of column c comes from column c - r.
_INV_SHIFT_ROWS_IDX = tuple(4 * ((col - row) % 4) + row for col in range(4) for row in range(4))

_KEY_ROUNDS = {16: 10, 24: 12, 32: 14}


def _rotr8(word: int) -> int:
    return (word >> 8 | word << 24) & 0xFFFFFFFF


# T-tables for the forward cipher: _TE0[a] is column (2, 1, 1, 3) * S[a] as a
# big-endian word, i.e. SubBytes + MixColumns of a row-0 byte; _TE1.._TE3 are
# its byte rotations for rows 1-3, so a round is lookups and XORs only.
_TE0 = [_gf_mul(s, 2) << 24 | s << 16 | s << 8 | _gf_mul(s, 3) for s in SBOX]
_TE1 = [_rotr8(w) for w in _TE0]
_TE2 = [_rotr8(w) for w in _TE1]
_TE3 = [_rotr8(w) for w in _TE2]
_unpack_words = struct.Struct(">4I").unpack
_pack_words = struct.Struct(">4I").pack

# GF(2^8) multiplication tables for the inverse MixColumns constants, so the
# inverse rounds are table lookups instead of per-bit _gf_mul loops.
_MUL9 = [_gf_mul(i, 9) for i in range(256)]
_MUL11 = [_gf_mul(i, 11) for i in range(256)]
_MUL13 = [_gf_mul(i, 13) for i in range(256)]
_MUL14 = [_gf_mul(i, 14) for i in range(256)]


def key_schedule_cache_stats() -> dict[str, int]:
    """Zero counts under the keys of the key-schedule cache that native
    AES-GCM and AES-CMAC made pointless.  Its only reader is the frozen
    benchmark tracer (``benchmarks/e2e/tracing.py``)."""
    return {"hits": 0, "misses": 0, "size": 0, "capacity": 0}


def check_key(key: bytes) -> bytes:
    """``key`` as ``bytes`` once its length is an AES key's: 16, 24 or 32
    bytes.  Every AES construction here (the block cipher, AES-GCM and
    AES-CMAC) checks its key with it."""
    if len(key) not in _KEY_ROUNDS:
        raise CryptoError(f"invalid AES key length: {len(key)}")
    return bytes(key)


class AES:
    """AES-128/192/256 block cipher over 16-byte blocks."""

    def __init__(self, key: bytes):
        key = check_key(key)
        self.rounds = _KEY_ROUNDS[len(key)]
        self._round_keys = self._expand_key(key)
        self._round_key_words = struct.unpack(
            f">{4 * len(self._round_keys)}I", b"".join(self._round_keys)
        )

    # ----------------------------------------------------------- key schedule
    def _expand_key(self, key: bytes) -> list[bytes]:
        nk = len(key) // 4
        nr = self.rounds
        words = [list(key[4 * i : 4 * i + 4]) for i in range(nk)]
        for i in range(nk, 4 * (nr + 1)):
            temp = list(words[i - 1])
            if i % nk == 0:
                temp = temp[1:] + temp[:1]  # RotWord
                temp = [SBOX[b] for b in temp]  # SubWord
                temp[0] ^= _RCON[i // nk - 1]
            elif nk > 6 and i % nk == 4:
                temp = [SBOX[b] for b in temp]
            words.append([a ^ b for a, b in zip(words[i - nk], temp)])
        round_keys = []
        for r in range(nr + 1):
            rk = bytes(b for w in words[4 * r : 4 * r + 4] for b in w)
            round_keys.append(rk)
        return round_keys

    # ------------------------------------------------------------ encryption
    def encrypt_block(self, block: bytes) -> bytes:
        """Encrypt a single 16-byte block (T-table rounds).

        The state is four big-endian column words; each inner round is
        sixteen table lookups and XORs, and the last round (no MixColumns)
        reads the S-box directly.
        """
        if len(block) != 16:
            raise CryptoError(f"AES block must be 16 bytes, got {len(block)}")
        rk = self._round_key_words
        t0, t1, t2, t3 = _TE0, _TE1, _TE2, _TE3
        s0, s1, s2, s3 = _unpack_words(block)
        s0 ^= rk[0]
        s1 ^= rk[1]
        s2 ^= rk[2]
        s3 ^= rk[3]
        last = 4 * self.rounds
        for i in range(4, last, 4):
            s0, s1, s2, s3 = (
                t0[s0 >> 24] ^ t1[s1 >> 16 & 255] ^ t2[s2 >> 8 & 255] ^ t3[s3 & 255] ^ rk[i],
                t0[s1 >> 24] ^ t1[s2 >> 16 & 255] ^ t2[s3 >> 8 & 255] ^ t3[s0 & 255] ^ rk[i + 1],
                t0[s2 >> 24] ^ t1[s3 >> 16 & 255] ^ t2[s0 >> 8 & 255] ^ t3[s1 & 255] ^ rk[i + 2],
                t0[s3 >> 24] ^ t1[s0 >> 16 & 255] ^ t2[s1 >> 8 & 255] ^ t3[s2 & 255] ^ rk[i + 3],
            )
        sbox = SBOX
        return _pack_words(
            (sbox[s0 >> 24] << 24 | sbox[s1 >> 16 & 255] << 16
             | sbox[s2 >> 8 & 255] << 8 | sbox[s3 & 255]) ^ rk[last],
            (sbox[s1 >> 24] << 24 | sbox[s2 >> 16 & 255] << 16
             | sbox[s3 >> 8 & 255] << 8 | sbox[s0 & 255]) ^ rk[last + 1],
            (sbox[s2 >> 24] << 24 | sbox[s3 >> 16 & 255] << 16
             | sbox[s0 >> 8 & 255] << 8 | sbox[s1 & 255]) ^ rk[last + 2],
            (sbox[s3 >> 24] << 24 | sbox[s0 >> 16 & 255] << 16
             | sbox[s1 >> 8 & 255] << 8 | sbox[s2 & 255]) ^ rk[last + 3],
        )

    def encrypt_blocks(self, blocks: Sequence[bytes]) -> bytes:
        """Encrypt each of ``blocks`` (16 bytes each) and return the
        ciphertext blocks joined: the CTR keystream of a list of counters."""
        data = b"".join(blocks)
        if len(data) != 16 * len(blocks):
            raise CryptoError("encrypt_blocks expects 16-byte blocks")
        encrypt = self.encrypt_block
        return b"".join(encrypt(data[i : i + 16]) for i in range(0, len(data), 16))

    def decrypt_block(self, block: bytes) -> bytes:
        """Decrypt a single 16-byte block (inverse cipher)."""
        if len(block) != 16:
            raise CryptoError(f"AES block must be 16 bytes, got {len(block)}")
        state = [b ^ k for b, k in zip(block, self._round_keys[self.rounds])]
        state = [state[i] for i in _INV_SHIFT_ROWS_IDX]
        state = [INV_SBOX[b] for b in state]
        for r in range(self.rounds - 1, 0, -1):
            state = [b ^ k for b, k in zip(state, self._round_keys[r])]
            state = self._inv_mix_columns(state)
            state = [state[i] for i in _INV_SHIFT_ROWS_IDX]
            state = [INV_SBOX[b] for b in state]
        state = [b ^ k for b, k in zip(state, self._round_keys[0])]
        return bytes(state)

    @staticmethod
    def _inv_mix_columns(state: list[int]) -> list[int]:
        out: list[int] = []
        for c in range(4):
            a0, a1, a2, a3 = state[4 * c : 4 * c + 4]
            out.extend(
                [
                    _MUL14[a0] ^ _MUL11[a1] ^ _MUL13[a2] ^ _MUL9[a3],
                    _MUL9[a0] ^ _MUL14[a1] ^ _MUL11[a2] ^ _MUL13[a3],
                    _MUL13[a0] ^ _MUL9[a1] ^ _MUL14[a2] ^ _MUL11[a3],
                    _MUL11[a0] ^ _MUL13[a1] ^ _MUL9[a2] ^ _MUL14[a3],
                ]
            )
        return out
