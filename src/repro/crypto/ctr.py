"""AES-CTR keystream generation.

Used internally by GCM.  Counter blocks are 16-byte big-endian integers of
which only the low 32 bits increment and wrap (GCM's ``inc32``).  The
keystream comes from one of the two AES paths, chosen by input length:

* up to :data:`SCALAR_MAX_BLOCKS` (16) blocks, one T-table
  :meth:`AES.encrypt_block` call per counter block;
* above that, one numpy :meth:`AES.encrypt_blocks` call over all of them.

A numpy call costs about 0.3-0.4 ms from one block up to a few dozen, while
a scalar block costs 13 us (AES-128) to 17 us (AES-256), so the scalar path
wins below roughly 20 blocks (16 for AES-256) and the batch path wins
13-17x at 2,048 blocks (measured on a 2-vCPU x86-64 VM, CPython 3.11).  Migration
protocol records, MSK hand-offs and counter bundles fall on the scalar side;
sealed application state of a few kilobytes and up on the batch side.  Both
paths produce the same bytes.
"""

from __future__ import annotations

import numpy as np

from repro.crypto.aes import AES
from repro.crypto.bytesutil import xor_bytes
from repro.errors import CryptoError

#: Longest input, in blocks, whose keystream is built one block at a time.
SCALAR_MAX_BLOCKS = 16


def counter_blocks(initial_counter: int, count: int) -> np.ndarray:
    """Build ``count`` consecutive 16-byte counter blocks starting at
    ``initial_counter`` (GCM-style: only the low 32 bits increment and wrap).
    """
    if count < 0:
        raise CryptoError("block count must be non-negative")
    high = (initial_counter >> 32) << 32
    low = initial_counter & 0xFFFFFFFF
    lows = (low + np.arange(count, dtype=np.uint64)) & np.uint64(0xFFFFFFFF)
    blocks = np.empty((count, 16), dtype=np.uint8)
    high_bytes = np.frombuffer((high >> 32).to_bytes(12, "big"), dtype=np.uint8)
    blocks[:, :12] = high_bytes
    lows32 = lows.astype(">u4")
    blocks[:, 12:] = lows32.view(np.uint8).reshape(-1, 4)
    return blocks


def ctr_transform(cipher: AES, initial_counter: int, data: bytes) -> bytes:
    """Encrypt/decrypt ``data`` with the keystream starting at
    ``initial_counter``.  CTR is an involution, so one function serves both
    directions.
    """
    if not data:
        return b""
    nblocks = (len(data) + 15) // 16
    if nblocks <= SCALAR_MAX_BLOCKS:
        high = (initial_counter >> 32) << 32
        low = initial_counter & 0xFFFFFFFF
        encrypt = cipher.encrypt_block
        keystream = b"".join(
            encrypt((high | ((low + i) & 0xFFFFFFFF)).to_bytes(16, "big"))
            for i in range(nblocks)
        )
        return xor_bytes(data, keystream[: len(data)])
    keystream = cipher.encrypt_blocks(counter_blocks(initial_counter, nblocks))
    keystream_flat = keystream.reshape(-1)[: len(data)]
    plain = np.frombuffer(data, dtype=np.uint8)
    return (plain ^ keystream_flat).tobytes()
