"""AES-CTR keystream generation, from scratch: the reference for GCM.

Counter blocks are 16-byte big-endian integers of which only the low 32
bits increment and wrap (GCM's ``inc32``).  The keystream is one
:meth:`AES.encrypt_blocks` call over all of them.
"""

from __future__ import annotations

from repro.crypto.aes import AES
from repro.crypto.bytesutil import xor_bytes


def ctr_transform(cipher: AES, initial_counter: int, data: bytes) -> bytes:
    """Encrypt/decrypt ``data`` with the keystream starting at
    ``initial_counter``.  CTR is an involution, so one function serves both
    directions.
    """
    if not data:
        return b""
    high = initial_counter & ~0xFFFFFFFF
    low = initial_counter & 0xFFFFFFFF
    counters = [
        (high | ((low + i) & 0xFFFFFFFF)).to_bytes(16, "big")
        for i in range((len(data) + 15) // 16)
    ]
    keystream = cipher.encrypt_blocks(counters)
    return xor_bytes(data, keystream[: len(data)])
