"""AES-GCM authenticated encryption (NIST SP 800-38D), from scratch.

This is the AEAD used everywhere the paper uses ``sgx_seal_data`` or an
attested secure channel.  GHASH, over GF(2^128), is
``X_1 * H^n + X_2 * H^(n-1) + ... + X_n * H`` for the blocks
``AAD || pad || ciphertext || pad || lengths``.  It takes one of three paths,
chosen by the number of blocks ``n``:

* below :data:`LANE_MIN_BLOCKS` (112), Horner's rule one block at a time
  with Shoup-style 8-bit tables for ``H``, built once per key and kept in a
  512-entry LRU;
* from there on, a numpy pass that runs Horner in :data:`LANES` (32) lanes
  at once with the multiplier ``H^32``, each step one table gather and one
  XOR-reduce over all lanes, then folds the 32 lane sums with Horner on the
  Shoup table;
* from :data:`WIDE_MIN_BLOCKS` (1,792) on, the same pass first runs in
  :data:`WIDE_LANES` (256) lanes with ``H^256`` and hands its 256 lane sums,
  a GHASH input of their own, to the 32-lane pass.  The sealed KV store's
  4,169-block snapshot then takes 17 + 8 rows instead of 131.

A lane pass's 64 KiB position table (every byte value at every byte
position, times ``H^lanes``) lives in its own 4-entry LRU keyed by
``(H, lanes)``, so a stream of fresh keys sealing bulk data cannot pin
64 KiB each; a wide input holds two entries.  ``H^32`` takes 31 Shoup
multiplications and ``H^256 = (H^32)^8`` three more squarings with
:func:`gf_mult` (~0.12 ms, where 224 more Shoup steps would take ~1 ms).

All three paths give the same bytes.  On a 2-vCPU x86-64 VM (CPython 3.11,
numpy 2.4), in shuffled trials, a Shoup block cost about 4.7 us; a 32-lane
call on 97-128 blocks about 0.20 ms with a cached table and 0.50 ms with
a fresh one, which includes about 0.3 ms of table building.  The lanes
therefore win from about 35 blocks with a cached table and from about 106
with a fresh one (0.50 ms either way at 104 blocks; 0.49 against 0.53 ms
at 112).  A 256-lane step costs ~26 us against ~7 us for a 32-lane one,
and a cold wide call builds both tables (~0.3 + ~0.4 ms).  In three runs
of 30 shuffled trials per size on a fresh key (medians, 32 against 256
lanes), the wide pass won from about 384 blocks with both tables cached
(512 blocks: 341/293, 336/287, 355/291 us) and, with both cold, lost at
1,536 blocks (1,054/1,149, 1,045/1,121, 1,031/1,123 us), tied at 1,792
(1,154/1,155, 1,054/1,111, 1,142/1,141) and won at 2,048 (1,268/1,198,
1,166/1,111, 1,300/1,044); four more runs of 60 put 1,793-1,856 at a tie
too.  The switch sits at that cold crossover, as the 112-block one does,
so no input is slower even when its tables must be built.  The KV
snapshot's GHASH takes ~0.70 ms instead of ~1.81 ms with cached tables
(1.4 against 2.1 ms cold), and the Fig. 4 100,000-byte payload's ~0.9
instead of ~2.6 ms.

On the repo benchmark's workloads, channel records (66-95 blocks) stay on
the Shoup loop, and the 4 KiB sealed blob (259 blocks) and Migration
Library persists (341) on the 32 lanes: 1.34 -> 0.29 ms (cached table)
and 1.76 -> 0.64 ms (fresh) against the Shoup loop.  Only the KV store's
snapshot (4,169 blocks in each put and snapshot load, and from 1,827 of
its 70-4,169 while the store is filled) and the Fig. 4 payload reach the
wide pass.  Most persists seal under keys not seen before, so the lane
cache builds, per timed op, 2 tables on the paper workload (of 3 lane
calls; the third hits), 0.02 on the sealed KV store (whose snapshot
key keeps both its tables), 16 on the 64x64 window drain and 32 on the
tenant evacuation.  Of the last two's builds, 47 % and 44 % are for a
key's second persist, 8-17 (drain) or ~125 (evacuation) other lane keys
after its first, past the cache.  Holding the drain's would take ~18
entries (~1 MiB) to save about 0.4 % of an op's wall time, so the cache
stays at 4.

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
LANE_MIN_BLOCKS = 112
#: Horner lanes of that path.
LANES = 32
#: Shortest GHASH input that first runs in :data:`WIDE_LANES` lanes.
WIDE_MIN_BLOCKS = 1792
#: Horner lanes of the wide pass, whose lane sums the :data:`LANES` pass folds.
WIDE_LANES = 256


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
    """Hit/miss/size counters for the Shoup table cache and, under ``lane_``
    keys, for the lane table cache (tests, tuning)."""
    return {
        "hits": _ghash_hits,
        "misses": _ghash_misses,
        "size": len(_GHASH_TABLE_CACHE),
        "capacity": _GHASH_TABLE_CACHE_MAX,
        "lane_hits": _lane_hits,
        "lane_misses": _lane_misses,
        "lane_size": len(_LANE_TABLE_CACHE),
    }


def clear_ghash_table_cache() -> None:
    """Empty the Shoup and lane table caches and zero the counters."""
    global _ghash_hits, _ghash_misses, _lane_hits, _lane_misses
    _GHASH_TABLE_CACHE.clear()
    _LANE_TABLE_CACHE.clear()
    _ghash_hits = 0
    _ghash_misses = 0
    _lane_hits = 0
    _lane_misses = 0


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


# (H, lanes) -> lane position table (see _lane_table), most-recently-used
# last.  Kept apart from the Shoup cache and small, because each entry is
# 64 KiB and most keys that reach the lane path (the fresh keys of library
# persists and native seals) never recur.
_LANE_TABLE_CACHE: OrderedDict[tuple[int, int], np.ndarray] = OrderedDict()
_LANE_TABLE_CACHE_MAX = 4
_lane_hits = 0
_lane_misses = 0
# Row offset of each byte position in the flattened (16 * 256, 2) table.
_POSITION_OFFSETS = (np.arange(16, dtype=np.uint16) * 256)[:, None]


def _lane_table(key: _GhashKey, lanes: int) -> np.ndarray:
    """``T[256 * p + b] = (byte b at byte position p) * H^lanes``.

    Rows are 16-byte field elements in block byte order, as two uint64
    words; a product ``y * H^lanes`` is the XOR of the 16 rows picked by
    ``y``'s bytes, with no reduction step.  ``lanes`` is :data:`LANES`
    times a power of two: ``H^LANES`` takes 31 Shoup multiplications and
    each doubling of it one squaring.
    """
    h_k = key.h
    for _ in range(LANES - 1):
        h_k = key.mult(h_k)
    for _ in range((lanes // LANES).bit_length() - 1):
        h_k = gf_mult(h_k, h_k)
    # basis[p, i] = x^(8p + i) * H^lanes, the element for bit 7 - i of byte p.
    powers = [h_k]
    for _ in range(127):
        powers.append(_mult_by_x(powers[-1]))
    basis = np.frombuffer(b"".join(map(int_to_block, powers)), dtype=np.uint64).reshape(16, 8, 2)
    table = np.zeros((16, 1, 2), dtype=np.uint64)
    for i in range(7, -1, -1):  # the doubling of _expand_byte_table, per position
        table = np.concatenate((table, table ^ basis[:, i, None]), axis=1)
    return table.reshape(16 * 256, 2)


def _lane_table_for(key: _GhashKey, lanes: int) -> np.ndarray:
    global _lane_hits, _lane_misses
    entry = (key.h, lanes)
    table = _LANE_TABLE_CACHE.get(entry)
    if table is not None:
        _lane_hits += 1
        _LANE_TABLE_CACHE.move_to_end(entry)
        return table
    _lane_misses += 1
    table = _lane_table(key, lanes)
    _LANE_TABLE_CACHE[entry] = table
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


def _ghash_lanes(key: _GhashKey, blocks: bytes, lanes: int) -> int:
    """:func:`_ghash_horner`'s result, computed in ``lanes`` lanes.

    Zero blocks in front make the count a multiple of ``lanes`` without
    changing the sum.  Lane ``j`` then holds blocks ``j, j + lanes, ...``,
    and Horner with ``H^lanes`` weights each by ``H^lanes`` per row after
    it.  The lane sums, in order, are a GHASH input of their own, which
    weights lane ``j`` by a further ``H^(lanes - j)``: a wide pass hands
    them to the :data:`LANES` pass, which hands its own to Horner.
    """
    table = _lane_table_for(key, lanes)
    front = -(len(blocks) // 16) % lanes
    rows = np.frombuffer(bytes(16 * front) + blocks, dtype=np.uint64).reshape(-1, lanes, 2)
    acc = rows[0]
    for row in rows[1:]:
        positions = acc.view(np.uint8).T + _POSITION_OFFSETS
        acc = np.bitwise_xor.reduce(np.take(table, positions, axis=0), axis=0) ^ row
    if lanes > LANES:
        return _ghash_lanes(key, acc.tobytes(), LANES)
    return _ghash_horner(key, acc.tobytes())


def _ghash(key: _GhashKey, aad: bytes, ciphertext: bytes) -> bytes:
    lengths = ((len(aad) * 8) << 64) | (len(ciphertext) * 8)
    blocks = b"".join((
        aad, bytes(-len(aad) % 16), ciphertext, bytes(-len(ciphertext) % 16),
        int_to_block(lengths),
    ))
    count = len(blocks) // 16
    if count >= WIDE_MIN_BLOCKS:
        return int_to_block(_ghash_lanes(key, blocks, WIDE_LANES))
    if count >= LANE_MIN_BLOCKS:
        return int_to_block(_ghash_lanes(key, blocks, LANES))
    return int_to_block(_ghash_horner(key, blocks))


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
