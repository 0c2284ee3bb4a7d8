"""SGX sealing: ``sgx_seal_data`` / ``sgx_unseal_data`` analogues.

Sealing encrypts enclave data under a key derived (EGETKEY) from the CPU
fuse and the enclave identity, using AES-GCM.  Guarantees (Section II-A4):

* confidentiality + integrity of the sealed blob;
* unsealable only by the same identity (MRENCLAVE policy) or same signer
  (MRSIGNER policy) **on the same physical machine**;
* NO freshness: the untrusted OS can hand back an old blob undetected —
  which is exactly why enclaves pair sealing with monotonic counters.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import wire
from repro.crypto.gcm import AesGcm
from repro.errors import CryptoError, MacMismatchError
from repro.sgx.cpu import KeyName, KeyRequest, SgxCpu
from repro.sgx.identity import EnclaveIdentity, KeyPolicy
from repro.sim.rng import DeterministicRng


@dataclass(frozen=True)
class SealedData:
    """The sealed blob handed to untrusted storage.

    Mirrors ``sgx_sealed_data_t``: the key request needed to re-derive the
    sealing key, the AEAD payload, and the additional authenticated text
    (``p_additional_MACtext`` — authenticated but not encrypted).
    """

    key_policy: KeyPolicy
    key_id: bytes
    isv_svn: int
    iv: bytes
    ciphertext: bytes
    tag: bytes
    additional_mac_text: bytes

    def to_bytes(self) -> bytes:
        return wire.encode(
            {
                "key_policy": self.key_policy.value,
                "key_id": self.key_id,
                "isv_svn": self.isv_svn,
                "iv": self.iv,
                "ciphertext": self.ciphertext,
                "tag": self.tag,
                "aad": self.additional_mac_text,
            }
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "SealedData":
        fields = sealed_fields(
            data, key_policy=str, key_id=bytes, isv_svn=int, iv=bytes,
            ciphertext=bytes, tag=bytes, aad=bytes,
        )
        try:
            key_policy = KeyPolicy(fields["key_policy"])
        except ValueError as exc:
            raise MacMismatchError(f"sealed blob key policy: {exc}") from exc
        if not 0 <= fields["isv_svn"] <= 0xFFFF:
            raise MacMismatchError("sealed blob ISVSVN is not a 16-bit value")
        return cls(
            key_policy=key_policy,
            key_id=fields["key_id"],
            isv_svn=fields["isv_svn"],
            iv=fields["iv"],
            ciphertext=fields["ciphertext"],
            tag=fields["tag"],
            additional_mac_text=fields["aad"],
        )


def sealed_fields(blob: bytes, **types: type) -> dict[str, wire.Value]:
    """Decode a sealed blob from the untrusted host, checking its fields.

    A blob that decodes but lacks one of the named fields, or holds another
    type in it, is as forged as one with a bad tag and raises
    :class:`MacMismatchError`; truncated bytes keep their ``WireError``.
    """
    fields = wire.decode(blob)
    for name, kind in types.items():
        if type(fields.get(name)) is not kind:
            raise MacMismatchError(f"sealed blob field {name!r} is missing or not {kind.__name__}")
    return fields


def _charge_aead(cpu: SgxCpu, num_bytes: int) -> None:
    if cpu.meter is not None:
        cpu.meter.charge(
            "aes_gcm",
            cpu.meter.model.aes_gcm_base + cpu.meter.model.aes_gcm_per_byte * num_bytes,
        )


def seal_data(
    cpu: SgxCpu,
    identity: EnclaveIdentity,
    rng: DeterministicRng,
    plaintext: bytes,
    additional_mac_text: bytes = b"",
    key_policy: KeyPolicy = KeyPolicy.MRSIGNER,
) -> SealedData:
    """``sgx_seal_data``: derive a fresh sealing key and AEAD the payload.

    Note the EGETKEY charge: the native path derives the key on every call,
    which is why the paper's MSK-cached migratable sealing is slightly
    *faster* than this baseline (Fig. 4).
    """
    key_id = rng.random_bytes(16)
    request = KeyRequest(
        key_name=KeyName.SEAL,
        key_policy=key_policy,
        key_id=key_id,
        isv_svn=identity.isv_svn,
    )
    key = cpu.egetkey(identity, request)
    iv = rng.random_bytes(12)
    _charge_aead(cpu, len(plaintext) + len(additional_mac_text))
    ciphertext, tag = AesGcm(key).encrypt(iv, plaintext, additional_mac_text)
    return SealedData(
        key_policy=key_policy,
        key_id=key_id,
        isv_svn=identity.isv_svn,
        iv=iv,
        ciphertext=ciphertext,
        tag=tag,
        additional_mac_text=additional_mac_text,
    )


def unseal_data(
    cpu: SgxCpu, identity: EnclaveIdentity, sealed: SealedData
) -> tuple[bytes, bytes]:
    """``sgx_unseal_data``: returns ``(plaintext, additional_mac_text)``.

    Raises :class:`MacMismatchError` if the blob was sealed by a different
    identity/machine or tampered with.
    """
    request = KeyRequest(
        key_name=KeyName.SEAL,
        key_policy=sealed.key_policy,
        key_id=sealed.key_id,
        isv_svn=sealed.isv_svn,
    )
    key = cpu.egetkey(identity, request)
    _charge_aead(cpu, len(sealed.ciphertext) + len(sealed.additional_mac_text))
    try:
        plaintext = AesGcm(key).decrypt(
            sealed.iv, sealed.ciphertext, sealed.tag, sealed.additional_mac_text
        )
    except CryptoError as exc:
        raise MacMismatchError(f"unseal failed: {exc}") from exc
    return plaintext, sealed.additional_mac_text
