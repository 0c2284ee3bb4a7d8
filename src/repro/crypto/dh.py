"""Finite-field Diffie-Hellman over the RFC 3526 2048-bit MODP group.

Local and remote attestation in SGX bind a Diffie-Hellman key exchange into
the attestation evidence (REPORT data / quote data) so that the resulting
secure channel terminates inside the attested enclave.  This module provides
the raw group operations; the binding is done by :mod:`repro.attestation`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto import modexp
from repro.crypto.kdf import HkdfSha256
from repro.errors import CryptoError
from repro.sim.rng import DeterministicRng

# RFC 3526, group 14: a 2048-bit safe prime (p = 2q + 1).
MODP_2048_P = int(
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74"
    "020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437"
    "4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
    "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3DC2007CB8A163BF05"
    "98DA48361C55D39A69163FA8FD24CF5F83655D23DCA3AD961C62F356208552BB"
    "9ED529077096966D670C354E4ABC9804F1746C08CA18217C32905E462E36CE3B"
    "E39E772C180E86039B2783A2EC07A28FB5C55DF06F4C52C9DE2BCBF695581718"
    "3995497CEA956AE515D2261898FA051015728E5A8AACAA68FFFFFFFFFFFFFFFF",
    16,
)
MODP_2048_G = 2
MODP_2048_Q = (MODP_2048_P - 1) // 2  # order of the quadratic-residue subgroup


@dataclass(frozen=True)
class DhKeyPair:
    private: int
    public: int


class DiffieHellman:
    """Ephemeral DH key agreement in the 2048-bit MODP group."""

    def __init__(self, p: int = MODP_2048_P, g: int = MODP_2048_G):
        self.p = p
        self.g = g

    def generate_keypair(self, rng: DeterministicRng) -> DhKeyPair:
        """Generate an ephemeral keypair from the (injected) RNG."""
        # 256 bits of private key is ample for a 2048-bit group.
        private = int.from_bytes(rng.random_bytes(32), "big") | 1
        public = modexp.powmod(self.g, private, self.p)
        return DhKeyPair(private=private, public=public)

    def validate_public(self, public: int) -> None:
        """Reject degenerate peer values (1, 0, p-1, out of range)."""
        if not 2 <= public <= self.p - 2:
            raise CryptoError("invalid DH public value")

    def shared_secret(self, private: int, peer_public: int) -> bytes:
        """Compute the raw shared secret with a validated peer value."""
        self.validate_public(peer_public)
        # The base is a fresh peer value, so nothing can be precomputed; the
        # exponent is the private key, so powmod, which is constant-time.
        secret = modexp.powmod(peer_public, private, self.p)
        if secret in (0, 1, self.p - 1):
            raise CryptoError("degenerate DH shared secret")
        return secret.to_bytes((self.p.bit_length() + 7) // 8, "big")

    def derive_session_key(
        self, private: int, peer_public: int, transcript: bytes, length: int = 16
    ) -> bytes:
        """HKDF the shared secret into a session key bound to ``transcript``."""
        raw = self.shared_secret(private, peer_public)
        return HkdfSha256.derive(raw, salt=b"repro-dh", info=transcript, length=length)


def encode_public(public: int) -> bytes:
    """Fixed-width big-endian encoding of a group element."""
    return public.to_bytes(256, "big")


def decode_public(data: bytes) -> int:
    if len(data) != 256:
        raise CryptoError(f"DH public value must be 256 bytes, got {len(data)}")
    return int.from_bytes(data, "big")
