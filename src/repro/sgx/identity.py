"""Enclave identities: MRENCLAVE, MRSIGNER, SIGSTRUCT, attributes.

An enclave has two identities (Section II-A3 of the paper):

* the **enclave identity** (MRENCLAVE) — a deterministic hash of the
  enclave's measured pages, identical on every physical machine; and
* the **signing identity** (MRSIGNER) — the hash of the developer public key
  that signed the enclave's SIGSTRUCT.

Sealing key derivation selects one of these via :class:`KeyPolicy`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.crypto import schnorr
from repro.crypto.kdf import sha256
from repro.errors import InvalidParameterError
from repro.sim.rng import DeterministicRng


class KeyPolicy(enum.Enum):
    """Which identity the sealing key binds to (``sgx_seal_data`` policy)."""

    MRENCLAVE = "MRENCLAVE"
    MRSIGNER = "MRSIGNER"


@dataclass(frozen=True)
class Attributes:
    """Subset of SGX enclave attributes that affect key derivation."""

    debug: bool = False
    mode64bit: bool = True

    def to_bytes(self) -> bytes:
        return bytes([1 if self.debug else 0, 1 if self.mode64bit else 0])


@dataclass(frozen=True)
class EnclaveIdentity:
    """The measured identity of a loaded enclave."""

    mrenclave: bytes
    mrsigner: bytes
    isv_prod_id: int = 0
    isv_svn: int = 0
    attributes: Attributes = Attributes()

    def __post_init__(self) -> None:
        if len(self.mrenclave) != 32:
            raise InvalidParameterError("MRENCLAVE must be 32 bytes")
        if len(self.mrsigner) != 32:
            raise InvalidParameterError("MRSIGNER must be 32 bytes")

    def to_bytes(self) -> bytes:
        return (
            self.mrenclave
            + self.mrsigner
            + self.isv_prod_id.to_bytes(2, "big")
            + self.isv_svn.to_bytes(2, "big")
            + self.attributes.to_bytes()
        )

    def short(self) -> str:
        """Human-readable abbreviation for logs."""
        return self.mrenclave[:4].hex()


# (signer public key, MRENCLAVE, ISVPRODID, ISVSVN) -> Sigstruct: public
# values only (a key pair's public key is g**x of its private key, so it
# names the signer).  On SGX the developer signs a build once; here every
# enclave load asks for the SIGSTRUCT again, and the signing nonce is
# deterministic, so a re-signature would repeat byte for byte.  Bounded like
# schnorr's public-key memo.
_SIGSTRUCT_MEMO: dict[tuple[int, bytes, int, int], "Sigstruct"] = {}
_SIGSTRUCT_MEMO_MAX = 256


@dataclass(frozen=True)
class SigningKey:
    """An enclave developer's signing keypair.

    ``mrsigner`` is the hash of the public key, as on real SGX.
    """

    keypair: schnorr.SchnorrKeyPair

    @classmethod
    def generate(cls, rng: DeterministicRng) -> "SigningKey":
        return cls(keypair=schnorr.generate_keypair(rng))

    @property
    def mrsigner(self) -> bytes:
        return sha256(self.keypair.public_bytes)

    def sign_sigstruct(
        self, mrenclave: bytes, isv_prod_id: int = 0, isv_svn: int = 0
    ) -> "Sigstruct":
        """The build's SIGSTRUCT, signed once per (signer, build) and then
        served from :data:`_SIGSTRUCT_MEMO`."""
        memo_key = (self.keypair.public, mrenclave, isv_prod_id, isv_svn)
        sigstruct = _SIGSTRUCT_MEMO.get(memo_key)
        if sigstruct is None:
            body = _sigstruct_body(mrenclave, isv_prod_id, isv_svn)
            sigstruct = Sigstruct(
                mrenclave=mrenclave,
                isv_prod_id=isv_prod_id,
                isv_svn=isv_svn,
                signer_public=self.keypair.public,
                signature=schnorr.sign(self.keypair.private, body),
            )
            if len(_SIGSTRUCT_MEMO) >= _SIGSTRUCT_MEMO_MAX:
                _SIGSTRUCT_MEMO.clear()
            _SIGSTRUCT_MEMO[memo_key] = sigstruct
        return sigstruct


def _sigstruct_body(mrenclave: bytes, isv_prod_id: int, isv_svn: int) -> bytes:
    return b"SIGSTRUCT|" + mrenclave + isv_prod_id.to_bytes(2, "big") + isv_svn.to_bytes(2, "big")


@dataclass(frozen=True)
class Sigstruct:
    """The signed enclave metadata checked at load time (EINIT analogue)."""

    mrenclave: bytes
    isv_prod_id: int
    isv_svn: int
    signer_public: int
    signature: schnorr.SchnorrSignature

    @property
    def mrsigner(self) -> bytes:
        return sha256(self.signer_public.to_bytes(256, "big"))

    def verify(self) -> bool:
        body = _sigstruct_body(self.mrenclave, self.isv_prod_id, self.isv_svn)
        return schnorr.verify(self.signer_public, body, self.signature)
