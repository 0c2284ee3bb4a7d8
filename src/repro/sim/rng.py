"""Deterministic randomness for the whole simulation.

Real SGX hardware draws keys from ``RDRAND`` and fuse-derived secrets.  For a
reproducible simulation every source of randomness — key generation, nonces,
counter UUIDs, measurement noise — flows through a :class:`DeterministicRng`
seeded from a single experiment seed.  Children are derived by label, so
adding a new consumer does not perturb the streams of existing ones.
"""

from __future__ import annotations

import hashlib
import random


class DeterministicRng:
    """A labelled, fork-able deterministic random generator.

    Wraps :class:`random.Random` (Mersenne Twister) seeded from SHA-256 of
    the parent seed material plus a label.  Cryptographic *security* is not a
    goal here — the simulator's threat model never includes guessing the
    simulation RNG — but determinism and stream independence are.
    """

    def __init__(self, seed: int | str | bytes = 0, label: str = "root"):
        if isinstance(seed, int):
            seed_bytes = seed.to_bytes(16, "big", signed=False) if seed >= 0 else str(seed).encode()
        elif isinstance(seed, str):
            seed_bytes = seed.encode()
        else:
            seed_bytes = bytes(seed)
        self._material = hashlib.sha256(seed_bytes + b"|" + label.encode()).digest()
        self._random = random.Random(int.from_bytes(self._material, "big"))
        self.label = label

    def child(self, label: str) -> "DeterministicRng":
        """Derive an independent stream identified by ``label``."""
        return DeterministicRng(self._material, label)

    def random_bytes(self, n: int) -> bytes:
        return self._random.randbytes(n)

    def randint_below(self, upper: int) -> int:
        """Uniform integer in ``[0, upper)``."""
        if upper <= 0:
            raise ValueError("upper bound must be positive")
        return self._random.randrange(upper)

    def gauss(self, mu: float, sigma: float) -> float:
        return self._random.gauss(mu, sigma)

    def uniform(self, a: float, b: float) -> float:
        return self._random.uniform(a, b)

    def choice(self, seq):
        return self._random.choice(seq)

    def shuffle(self, seq: list) -> None:
        self._random.shuffle(seq)
