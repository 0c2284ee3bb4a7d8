"""AES-GCM authenticated encryption (NIST SP 800-38D), from scratch.

This is the AEAD used everywhere the paper uses ``sgx_seal_data`` or an
attested secure channel.  GHASH, over GF(2^128), is
``X_1 * H^n + X_2 * H^(n-1) + ... + X_n * H`` for the blocks
``AAD || pad || ciphertext || pad || lengths``.  It takes one of two paths,
chosen by the number of blocks ``n``:

* below :data:`LANE_MIN_BLOCKS` (1,024), Horner's rule one block at a time
  with Shoup-style 8-bit tables for ``H``, built once per key and kept in a
  512-entry LRU;
* from there on, a numpy path that runs Horner in :data:`LANES` (32) lanes
  at once with the multiplier ``H^32``, each step one table gather and one
  XOR-reduce over all lanes, then folds the lanes together with 32
  multiplications by ``H`` on the Shoup table.  Its 64 KiB position table
  (every byte value at every byte position, times ``H^32``) lives in its own
  4-entry LRU, so a stream of fresh keys sealing bulk data cannot pin
  64 KiB each.

Both paths give the same bytes.  On a 2-vCPU x86-64 VM (CPython 3.11,
numpy 2.4) a Shoup block costs about 2.5 us and a lane block about
0.2 us; a lane call adds about 0.06 ms of fold and, for a key without a
cached table, 0.15 ms of table building.  The lanes therefore win from
about 35 blocks with a cached table and 100 with a fresh one, and by 11x
(10.5 -> 0.9 ms) on the sealed KV store's 4,167-block snapshot.  The
switch sits well above that crossover so that the short-lived keys of
channel records and library persists (at most 512 blocks on every
workload of the repo benchmark) never build a lane table or evict a
long-lived key's table from the small lane cache: only bulk sealed state
takes the lane path.

Known-answer tests against the NIST GCM vectors live in
``tests/unit/test_gcm.py``.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from repro.crypto.aes import AES
from repro.crypto.bytesutil import block_to_int, constant_time_equal, int_to_block, xor_bytes
from repro.crypto.ctr import ctr_transform
from repro.errors import CryptoError

_R = 0xE1000000000000000000000000000000  # GCM reduction polynomial (bit-reflected)
_X8 = 1 << 119  # the field element x^8 in GCM bit order

#: Shortest GHASH input, in 16-byte blocks, that takes the lane-parallel path.
LANE_MIN_BLOCKS = 1024
#: Horner lanes of that path.
LANES = 32


def gf_mult(x: int, y: int) -> int:
    """Bitwise multiplication in GF(2^128) with GCM bit ordering.

    Reference implementation (Algorithm 1 of SP 800-38D); used to build the
    fast tables and directly in tests.
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
    multiplications, so constructing an AEAD (every seal derives a fresh
    key) stays cheap.
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


# H -> _GhashKey, most-recently-used last.  Recurring keys (the sealing root
# keys, long-lived channel keys) recur with the same H, so the 256-entry
# Shoup table can be shared across AEAD instances; _GhashKey is never mutated
# after construction, which makes sharing safe.  Mirrors the AES key-schedule
# cache in :mod:`repro.crypto.aes`.
_GHASH_TABLE_CACHE: OrderedDict[int, _GhashKey] = OrderedDict()
_GHASH_TABLE_CACHE_MAX = 512
_ghash_hits = 0
_ghash_misses = 0


def ghash_table_cache_stats() -> dict[str, int]:
    """Hit/miss/size counters for the GHASH table cache (tests, tuning)."""
    return {
        "hits": _ghash_hits,
        "misses": _ghash_misses,
        "size": len(_GHASH_TABLE_CACHE),
        "capacity": _GHASH_TABLE_CACHE_MAX,
    }


def clear_ghash_table_cache() -> None:
    """Empty the Shoup and lane table caches and zero the counters."""
    global _ghash_hits, _ghash_misses
    _GHASH_TABLE_CACHE.clear()
    _LANE_TABLE_CACHE.clear()
    _ghash_hits = 0
    _ghash_misses = 0


def _ghash_key_for(h: int) -> _GhashKey:
    global _ghash_hits, _ghash_misses
    cached = _GHASH_TABLE_CACHE.get(h)
    if cached is not None:
        _ghash_hits += 1
        _GHASH_TABLE_CACHE.move_to_end(h)
        return cached
    _ghash_misses += 1
    cached = _GhashKey(h)
    _GHASH_TABLE_CACHE[h] = cached
    while len(_GHASH_TABLE_CACHE) > _GHASH_TABLE_CACHE_MAX:
        _GHASH_TABLE_CACHE.popitem(last=False)
    return cached


# H -> lane position table (see _lane_table), most-recently-used last.  Kept
# apart from the Shoup cache and small, because each entry is 64 KiB and most
# keys that reach the lane path (fresh native sealing keys) never recur.
_LANE_TABLE_CACHE: OrderedDict[int, np.ndarray] = OrderedDict()
_LANE_TABLE_CACHE_MAX = 4
# Row offset of each byte position in the flattened (16 * 256, 2) table.
_POSITION_OFFSETS = (np.arange(16, dtype=np.uint16) * 256)[:, None]


def _lane_table(key: _GhashKey) -> np.ndarray:
    """``T[256 * p + b] = (byte b at byte position p) * H^LANES``.

    Rows are 16-byte field elements in block byte order, as two uint64
    words; a product ``y * H^LANES`` is the XOR of the 16 rows picked by
    ``y``'s bytes, with no reduction step.
    """
    h_k = key.h
    for _ in range(LANES - 1):
        h_k = key.mult(h_k)
    # basis[p, i] = x^(8p + i) * H^LANES, the element for bit 7 - i of byte p.
    powers = [h_k]
    for _ in range(127):
        powers.append(_mult_by_x(powers[-1]))
    basis = np.frombuffer(b"".join(map(int_to_block, powers)), dtype=np.uint64).reshape(16, 8, 2)
    table = np.zeros((16, 1, 2), dtype=np.uint64)
    for i in range(7, -1, -1):  # the doubling of _expand_byte_table, per position
        table = np.concatenate((table, table ^ basis[:, i, None]), axis=1)
    return table.reshape(16 * 256, 2)


def _lane_table_for(key: _GhashKey) -> np.ndarray:
    table = _LANE_TABLE_CACHE.get(key.h)
    if table is not None:
        _LANE_TABLE_CACHE.move_to_end(key.h)
        return table
    table = _lane_table(key)
    _LANE_TABLE_CACHE[key.h] = table
    while len(_LANE_TABLE_CACHE) > _LANE_TABLE_CACHE_MAX:
        _LANE_TABLE_CACHE.popitem(last=False)
    return table


def _ghash_horner(key: _GhashKey, blocks: bytes) -> int:
    """GHASH of ``blocks`` (a whole number of 16-byte blocks), one at a time."""
    y = 0
    mult = key.mult
    for i in range(0, len(blocks), 16):
        y = mult(y ^ int.from_bytes(blocks[i : i + 16], "big"))
    return y


def _ghash_lanes(key: _GhashKey, blocks: bytes) -> int:
    """:func:`_ghash_horner`'s result, computed in LANES lanes.

    Zero blocks in front make the count a multiple of LANES without changing
    the sum.  Lane ``j`` then holds blocks ``j, j + LANES, ...``, and Horner
    with ``H^LANES`` weights each by ``H^LANES`` per row after it.  Horner
    with ``H`` over the lanes, in order, weights lane ``j`` by a further
    ``H^(LANES - j)``.
    """
    table = _lane_table_for(key)
    front = -(len(blocks) // 16) % LANES
    rows = np.frombuffer(bytes(16 * front) + blocks, dtype=np.uint64).reshape(-1, LANES, 2)
    acc = rows[0]
    for row in rows[1:]:
        positions = acc.view(np.uint8).T + _POSITION_OFFSETS
        acc = np.bitwise_xor.reduce(np.take(table, positions, axis=0), axis=0) ^ row
    return _ghash_horner(key, acc.tobytes())


def _ghash(key: _GhashKey, aad: bytes, ciphertext: bytes) -> bytes:
    lengths = ((len(aad) * 8) << 64) | (len(ciphertext) * 8)
    blocks = b"".join((
        aad, bytes(-len(aad) % 16), ciphertext, bytes(-len(ciphertext) % 16),
        int_to_block(lengths),
    ))
    kernel = _ghash_lanes if len(blocks) >= 16 * LANE_MIN_BLOCKS else _ghash_horner
    return int_to_block(kernel(key, blocks))


def _inc32(block: int) -> int:
    """Add one to the low 32 bits of a counter block, mod 2^32 (SP 800-38D
    section 6.2); the upper 96 bits never change."""
    return (block & ~0xFFFFFFFF) | ((block + 1) & 0xFFFFFFFF)


class AesGcm:
    """AES-GCM with 96-bit IVs and 128-bit tags."""

    TAG_SIZE = 16
    IV_SIZE = 12

    def __init__(self, key: bytes):
        self._cipher = AES(key)
        h = block_to_int(self._cipher.encrypt_block(b"\x00" * 16))
        self._ghash_key = _ghash_key_for(h)

    def _j0(self, iv: bytes) -> int:
        if len(iv) == self.IV_SIZE:
            return (int.from_bytes(iv, "big") << 32) | 1
        # Arbitrary-length IVs are GHASHed (SP 800-38D section 7.1).
        return block_to_int(_ghash(self._ghash_key, b"", iv))

    def encrypt(self, iv: bytes, plaintext: bytes, aad: bytes = b"") -> tuple[bytes, bytes]:
        """Return ``(ciphertext, tag)``."""
        j0 = self._j0(iv)
        ciphertext = ctr_transform(self._cipher, _inc32(j0), plaintext)
        s = _ghash(self._ghash_key, aad, ciphertext)
        tag = xor_bytes(self._cipher.encrypt_block(int_to_block(j0)), s)
        return ciphertext, tag

    def decrypt(self, iv: bytes, ciphertext: bytes, tag: bytes, aad: bytes = b"") -> bytes:
        """Verify the tag and return the plaintext; raises on any mismatch."""
        if len(tag) != self.TAG_SIZE:
            raise CryptoError(f"GCM tag must be {self.TAG_SIZE} bytes")
        j0 = self._j0(iv)
        s = _ghash(self._ghash_key, aad, ciphertext)
        expected = xor_bytes(self._cipher.encrypt_block(int_to_block(j0)), s)
        if not constant_time_equal(expected, tag):
            raise CryptoError("GCM tag mismatch")
        return ctr_transform(self._cipher, _inc32(j0), ciphertext)

    def seal(self, iv: bytes, plaintext: bytes, aad: bytes = b"") -> bytes:
        """Convenience: return ``ciphertext || tag`` as one buffer."""
        ciphertext, tag = self.encrypt(iv, plaintext, aad)
        return ciphertext + tag

    def open(self, iv: bytes, sealed: bytes, aad: bytes = b"") -> bytes:
        """Inverse of :meth:`seal`."""
        if len(sealed) < self.TAG_SIZE:
            raise CryptoError("sealed buffer shorter than a GCM tag")
        return self.decrypt(iv, sealed[: -self.TAG_SIZE], sealed[-self.TAG_SIZE :], aad)
