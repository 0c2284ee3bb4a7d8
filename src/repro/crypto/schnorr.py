"""Schnorr signatures over the quadratic-residue subgroup of the RFC 3526
2048-bit MODP group.

Used wherever the paper needs ordinary digital signatures:

* the enclave developer's signing key (``SIGSTRUCT`` → MRSIGNER),
* the data-center operator's provider certificates that Migration Enclaves
  exchange to prove they belong to the same cloud (Requirement R2), and
* the issuer key inside the simulated EPID scheme.

Nonces are derived deterministically (RFC 6979 style, HMAC-SHA256 over the
key and message) so that signing never consumes simulation randomness.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass

from repro.crypto import modexp
from repro.crypto.bytesutil import constant_time_equal
from repro.crypto.dh import MODP_2048_P, MODP_2048_Q
from repro.errors import CryptoError
from repro.sim.rng import DeterministicRng

_P = MODP_2048_P
_Q = MODP_2048_Q
_G = 4  # 2^2 is a quadratic residue, so it generates the order-q subgroup

# Verification raises g to responses s whose shorter side min(s, q - s) is
# below 2**576 (s = k - x*e mod q with 320-bit k and x and 256-bit e).  g
# has order q, so the registered generator raises g**-1 to q - s when that
# is shorter, from its table of 576-bit powers: ~0.3 ms where a 2,047-bit
# exponentiation takes ~3.5 ms.
modexp.register_fixed_base(_G, _P, order=_Q)


# sign() re-derives g**x on every call; the signing keys in play (ME keys,
# the EPID group key, the IAS report key) are few and long-lived, so a
# bounded memo removes one full-length exponentiation per signature.
_PUBLIC_MEMO: dict[int, int] = {}
_PUBLIC_MEMO_MAX = 256


def public_key_of(private: int) -> int:
    """The Schnorr public key ``g**x mod p`` (constant-time, memoized)."""
    public = _PUBLIC_MEMO.get(private)
    if public is None:
        public = modexp.powmod(_G, private, _P)
        if len(_PUBLIC_MEMO) >= _PUBLIC_MEMO_MAX:
            _PUBLIC_MEMO.clear()
        _PUBLIC_MEMO[private] = public
    return public


@dataclass(frozen=True)
class SchnorrKeyPair:
    private: int
    public: int

    @property
    def public_bytes(self) -> bytes:
        return self.public.to_bytes(256, "big")


@dataclass(frozen=True)
class SchnorrSignature:
    challenge: int  # e
    response: int  # s

    def to_bytes(self) -> bytes:
        return self.challenge.to_bytes(32, "big") + self.response.to_bytes(256, "big")

    @classmethod
    def from_bytes(cls, data: bytes) -> "SchnorrSignature":
        if len(data) != 288:
            raise CryptoError(f"Schnorr signature must be 288 bytes, got {len(data)}")
        return cls(
            challenge=int.from_bytes(data[:32], "big"),
            response=int.from_bytes(data[32:], "big"),
        )


def generate_keypair(rng: DeterministicRng) -> SchnorrKeyPair:
    private = (int.from_bytes(rng.random_bytes(40), "big") % (_Q - 1)) + 1
    return SchnorrKeyPair(private=private, public=public_key_of(private))


def _hash_challenge(commitment: int, public: int, message: bytes) -> int:
    digest = hashlib.sha256(
        commitment.to_bytes(256, "big") + public.to_bytes(256, "big") + message
    ).digest()
    return int.from_bytes(digest, "big") % _Q


def _deterministic_nonce(private: int, message: bytes) -> int:
    seed = hmac.new(private.to_bytes(256, "big"), message, hashlib.sha256).digest()
    expanded = seed
    while len(expanded) < 40:
        expanded += hmac.new(seed, expanded, hashlib.sha256).digest()
    return (int.from_bytes(expanded[:40], "big") % (_Q - 1)) + 1


def sign(private: int, message: bytes) -> SchnorrSignature:
    """Produce a Schnorr signature (e, s) with s = k - x*e mod q."""
    k = _deterministic_nonce(private, message)
    commitment = modexp.powmod(_G, k, _P)
    public = public_key_of(private)
    e = _hash_challenge(commitment, public, message)
    s = (k - private * e) % _Q
    return SchnorrSignature(challenge=e, response=s)


def verify(public: int, message: bytes, signature: SchnorrSignature) -> bool:
    """Check g^s * y^e == commitment and the challenge binds the message."""
    if not 1 < public < _P:
        return False
    if not (0 <= signature.challenge < _Q and 0 <= signature.response < _Q):
        return False
    # g^s (by its shorter side) times y^e; a repeated signature is served
    # from modexp's product memo.
    commitment = modexp.verify_product(
        _G, signature.response, public, signature.challenge, _P
    )
    expected = _hash_challenge(commitment, public, message)
    # Compare fixed-width encodings in constant time rather than ints with ==;
    # 256 bytes holds any value below q, so the encoding cannot overflow.
    return constant_time_equal(
        expected.to_bytes(256, "big"), signature.challenge.to_bytes(256, "big")
    )
