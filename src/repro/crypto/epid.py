"""Simulated EPID group signatures (Brickell–Li [8], simulated).

Real EPID is a pairing-based anonymous group signature scheme.  We preserve
the three properties the paper's protocols rely on, with a much simpler
construction (documented as a substitution in DESIGN.md):

* **Genuine-platform guarantee** — only platforms that joined the group (at
  "manufacturing" time) hold the group signing key, so a verifying service
  can tell the signature came from a genuine platform.
* **Anonymity** — all members sign with the *same* group key, so signatures
  do not identify the platform.  A per-signature pseudonym (hash of the
  member secret and a basename) supports linkability only where EPID has it.
* **Revocation** — private-key-based revocation: the verifier holds revealed
  member secrets and rejects signatures whose pseudonym matches a revoked
  member, mirroring EPID's PrivRL check.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from repro.crypto import schnorr
from repro.crypto.bytesutil import constant_time_equal
from repro.errors import CryptoError
from repro.sim.rng import DeterministicRng


@dataclass(frozen=True)
class EpidSignature:
    """A group signature: pseudonym + Schnorr signature by the group key."""

    pseudonym: bytes
    basename: bytes
    signature: schnorr.SchnorrSignature

    def to_bytes(self) -> bytes:
        return self.pseudonym + len(self.basename).to_bytes(2, "big") + self.basename + self.signature.to_bytes()


@dataclass
class EpidMemberKey:
    """Held by one platform (inside its Quoting Enclave)."""

    member_secret: bytes
    group_key_private: int
    group_id: bytes

    def pseudonym(self, basename: bytes) -> bytes:
        return hashlib.sha256(b"epid-nym|" + self.member_secret + b"|" + basename).digest()

    def sign(self, message: bytes, basename: bytes = b"") -> EpidSignature:
        nym = self.pseudonym(basename)
        payload = self.group_id + nym + basename + message
        return EpidSignature(
            pseudonym=nym,
            basename=basename,
            signature=schnorr.sign(self.group_key_private, payload),
        )


@dataclass
class EpidGroup:
    """The group issuer (Intel, in the paper's setting).

    Holds the group keypair; issues member keys at platform manufacturing
    time and maintains the private-key revocation list consulted by the
    verifier (the IAS in our simulation).
    """

    rng: DeterministicRng
    group_id: bytes = b""
    _keypair: schnorr.SchnorrKeyPair = field(init=False)
    _members: list[EpidMemberKey] = field(default_factory=list)
    _revoked_secrets: list[bytes] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._keypair = schnorr.generate_keypair(self.rng.child("epid-group-key"))
        if not self.group_id:
            self.group_id = self.rng.child("epid-group-id").random_bytes(4)

    @property
    def public_key(self) -> int:
        return self._keypair.public

    def join(self) -> EpidMemberKey:
        """Issue a member key to a new platform."""
        member = EpidMemberKey(
            member_secret=self.rng.child(f"epid-member-{len(self._members)}").random_bytes(32),
            group_key_private=self._keypair.private,
            group_id=self.group_id,
        )
        self._members.append(member)
        return member

    def revoke(self, member: EpidMemberKey) -> None:
        """Private-key-based revocation: the member secret is revealed."""
        if member.member_secret not in self._revoked_secrets:
            self._revoked_secrets.append(member.member_secret)

    def verify(self, message: bytes, signature: EpidSignature) -> bool:
        """Group-signature verification plus the PrivRL revocation check."""
        if len(signature.pseudonym) != 32:
            raise CryptoError("malformed EPID pseudonym")
        for secret in self._revoked_secrets:
            revoked_nym = hashlib.sha256(
                b"epid-nym|" + secret + b"|" + signature.basename
            ).digest()
            if constant_time_equal(revoked_nym, signature.pseudonym):
                return False
        payload = self.group_id + signature.pseudonym + signature.basename + message
        return schnorr.verify(self._keypair.public, payload, signature.signature)
