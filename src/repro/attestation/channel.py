"""Authenticated-encryption secure channel over untrusted transport.

All enclave-to-enclave communication in the paper crosses untrusted channels
(host memory, the guest OS, the data-center network), so after attestation
the endpoints run records through AES-GCM with strictly increasing sequence
numbers.  Directional keys are derived from the session key so that records
cannot be reflected back to their sender.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import wire
from repro.crypto.gcm import AesGcm
from repro.crypto.kdf import HkdfSha256
from repro.errors import ChannelError, CryptoError


@dataclass
class _Direction:
    aead: AesGcm
    sequence: int = 0


def _direction_key(session_key: bytes, label: bytes) -> bytes:
    return HkdfSha256.derive(session_key, salt=b"repro-channel", info=label, length=16)


@dataclass
class SecureChannel:
    """One endpoint of an established secure channel.

    Create both endpoints from the same ``session_key`` with opposite
    ``initiator`` flags; the initiator's send key is the responder's receive
    key and vice versa.
    """

    session_key: bytes = field(repr=False)
    initiator: bool = True
    closed: bool = False

    def __post_init__(self) -> None:
        if len(self.session_key) < 16:
            raise ChannelError("session key too short")
        i2r = _direction_key(self.session_key, b"initiator->responder")
        r2i = _direction_key(self.session_key, b"responder->initiator")
        if self.initiator:
            self._send = _Direction(AesGcm(i2r))
            self._recv = _Direction(AesGcm(r2i))
        else:
            self._send = _Direction(AesGcm(r2i))
            self._recv = _Direction(AesGcm(i2r))

    def _require_open(self) -> None:
        if self.closed:
            raise ChannelError("channel is closed")

    def send(self, plaintext: bytes, aad: bytes = b"") -> bytes:
        """Encrypt ``plaintext`` into a record for the peer."""
        self._require_open()
        seq = self._send.sequence
        self._send.sequence += 1
        iv = b"\x00" * 4 + seq.to_bytes(8, "big")
        bound_aad = seq.to_bytes(8, "big") + aad
        ciphertext, tag = self._send.aead.encrypt(iv, plaintext, bound_aad)
        return wire.encode({"seq": seq, "ct": ciphertext, "tag": tag, "aad": aad})

    def recv(self, record: bytes) -> tuple[bytes, bytes]:
        """Decrypt a record; enforces strict in-order delivery.

        Returns ``(plaintext, aad)``.  Any replayed, reordered, or tampered
        record raises :class:`ChannelError`.
        """
        self._require_open()
        expected = self._recv.sequence
        seq_bytes = expected.to_bytes(8, "big")
        try:
            fields = wire.decode(record)
            seq = fields["seq"]
            ciphertext = fields["ct"]
            tag = fields["tag"]
            aad = fields["aad"]
            bound_aad = seq_bytes + aad
        except (wire.WireError, KeyError, TypeError) as exc:
            # WireError: undecodable record; KeyError: missing field;
            # TypeError: a field decoded to the wrong shape (e.g. dict
            # indexing on a non-dict, or an ``aad`` that is not bytes).
            # Anything else is a real bug and should surface, not be
            # relabeled as a malformed record.
            raise ChannelError(f"malformed channel record: {exc}") from exc
        if seq != expected:
            raise ChannelError(
                f"sequence violation: expected {expected}, got {seq} "
                "(replay or reordering)"
            )
        iv = b"\x00" * 4 + seq_bytes
        try:
            plaintext = self._recv.aead.decrypt(iv, ciphertext, tag, bound_aad)
        except CryptoError as exc:
            raise ChannelError(f"record authentication failed: {exc}") from exc
        self._recv.sequence += 1
        return plaintext, aad

    def close(self) -> None:
        self.closed = True


def channel_pair(session_key: bytes) -> tuple[SecureChannel, SecureChannel]:
    """Convenience for tests: both endpoints of a channel."""
    return (
        SecureChannel(session_key=session_key, initiator=True),
        SecureChannel(session_key=session_key, initiator=False),
    )
