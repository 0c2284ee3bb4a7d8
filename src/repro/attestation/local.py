"""Mutual local attestation with an embedded Diffie-Hellman exchange.

Two enclaves on the same machine prove their identities to each other via
CPU-MACed REPORTs and derive a shared secure-channel key (Section II-A6).
The DH public values ride inside the REPORT's user data, so the resulting
channel provably terminates inside the attested enclaves, and the REPORT MAC
key (derived from the CPU fuse) guarantees both parties are genuine enclaves
on the *same physical machine*.

Message flow (all messages cross untrusted host memory):

    initiator                                   responder
        | <------- msg0: responder TARGETINFO ------- |
        | -- msg1: REPORT_i(target=r, data=H(g_a)) -> |
        | <- msg2: REPORT_r(target=i, data=H(ga,gb)) -|
    both derive: K = HKDF(g^ab, transcript)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro import wire
from repro.attestation.channel import SecureChannel
from repro.crypto.dh import DiffieHellman, decode_public, encode_public
from repro.crypto.kdf import sha256
from repro.errors import AttestationError
from repro.sgx.identity import EnclaveIdentity
from repro.sgx.report import Report, TargetInfo, pad_report_data
from repro.sgx.sdk import TrustedRuntime
from repro.sim.rng import DeterministicRng

IdentityPolicy = Callable[[EnclaveIdentity], bool]


def _bind_msg1(g_a: int) -> bytes:
    return pad_report_data(sha256(b"LA-msg1|" + encode_public(g_a)))


def _bind_msg2(g_a: int, g_b: int) -> bytes:
    return pad_report_data(sha256(b"LA-msg2|" + encode_public(g_a) + encode_public(g_b)))


def _transcript(g_a: int, g_b: int, id_a: EnclaveIdentity, id_b: EnclaveIdentity) -> bytes:
    return sha256(
        b"LA-transcript|"
        + encode_public(g_a)
        + encode_public(g_b)
        + id_a.to_bytes()
        + id_b.to_bytes()
    )


@dataclass
class LocalAttestationResult:
    """Outcome of a successful mutual local attestation."""

    peer_identity: EnclaveIdentity
    channel: SecureChannel


class LocalAttestationInitiator:
    """Runs the initiator side inside an enclave (uses only its SDK)."""

    def __init__(self, sdk: TrustedRuntime, rng: DeterministicRng, accept: IdentityPolicy | None = None):
        self._sdk = sdk
        self._dh = DiffieHellman()
        self._rng = rng
        self._accept = accept
        self._keypair = None

    def msg1(self, msg0: bytes) -> bytes:
        """Consume the responder's TARGETINFO; emit our report + g_a."""
        fields = wire.decode(msg0)
        target = TargetInfo(mrenclave=fields["target_mrenclave"])
        if self._sdk._cpu.meter is not None:
            self._sdk._cpu.meter.charge("dh_keygen", self._sdk._cpu.meter.model.dh_keygen)
        # Drawn from the stream itself, not a fixed-label child of it: a
        # caller that keeps one stream across handshakes gets a fresh
        # ephemeral each time.
        self._keypair = self._dh.generate_keypair(self._rng)
        report = self._sdk.create_report(target, _bind_msg1(self._keypair.public))
        return wire.encode(
            {"report": report.to_bytes(), "g_a": encode_public(self._keypair.public)}
        )

    def finish(self, msg2: bytes) -> LocalAttestationResult:
        """Verify the responder's report and derive the channel."""
        if self._keypair is None:
            raise AttestationError("msg1 must be produced before finish")
        fields = wire.decode(msg2)
        report = Report.from_bytes(fields["report"])
        g_b = decode_public(fields["g_b"])
        if not self._sdk.verify_report(report):
            raise AttestationError("initiator: responder report MAC invalid")
        if report.report_data != _bind_msg2(self._keypair.public, g_b):
            raise AttestationError("initiator: responder report does not bind DH values")
        if self._accept is not None and not self._accept(report.identity):
            raise AttestationError("initiator: responder identity rejected by policy")
        meter = self._sdk._cpu.meter
        if meter is not None:
            meter.charge("dh_shared", meter.model.dh_shared)
        transcript = _transcript(
            self._keypair.public, g_b, self._sdk.identity, report.identity
        )
        key = self._dh.derive_session_key(self._keypair.private, g_b, transcript)
        return LocalAttestationResult(
            peer_identity=report.identity,
            channel=SecureChannel(session_key=key, initiator=True),
        )


class LocalAttestationResponder:
    """Runs the responder side inside an enclave."""

    def __init__(self, sdk: TrustedRuntime, rng: DeterministicRng, accept: IdentityPolicy | None = None):
        self._sdk = sdk
        self._dh = DiffieHellman()
        self._rng = rng
        self._accept = accept

    def msg0(self) -> bytes:
        """Advertise our TARGETINFO so the initiator can report to us."""
        return wire.encode({"target_mrenclave": self._sdk.identity.mrenclave})

    def msg2(self, msg1: bytes) -> tuple[bytes, LocalAttestationResult]:
        """Verify the initiator's report; emit ours and derive the channel."""
        fields = wire.decode(msg1)
        report = Report.from_bytes(fields["report"])
        g_a = decode_public(fields["g_a"])
        if not self._sdk.verify_report(report):
            raise AttestationError("responder: initiator report MAC invalid")
        if report.report_data != _bind_msg1(g_a):
            raise AttestationError("responder: initiator report does not bind g_a")
        if self._accept is not None and not self._accept(report.identity):
            raise AttestationError("responder: initiator identity rejected by policy")
        meter = self._sdk._cpu.meter
        if meter is not None:
            meter.charge("dh_keygen", meter.model.dh_keygen)
        keypair = self._dh.generate_keypair(self._rng.child("la-resp-dh"))
        peer_target = TargetInfo(mrenclave=report.identity.mrenclave)
        my_report = self._sdk.create_report(peer_target, _bind_msg2(g_a, keypair.public))
        if meter is not None:
            meter.charge("dh_shared", meter.model.dh_shared)
        transcript = _transcript(g_a, keypair.public, report.identity, self._sdk.identity)
        key = self._dh.derive_session_key(keypair.private, g_a, transcript)
        result = LocalAttestationResult(
            peer_identity=report.identity,
            channel=SecureChannel(session_key=key, initiator=False),
        )
        msg2 = wire.encode(
            {"report": my_report.to_bytes(), "g_b": encode_public(keypair.public)}
        )
        return msg2, result


def attest_locally(
    initiator_sdk: TrustedRuntime,
    responder_sdk: TrustedRuntime,
    rng: DeterministicRng,
    initiator_accept: IdentityPolicy | None = None,
    responder_accept: IdentityPolicy | None = None,
) -> tuple[LocalAttestationResult, LocalAttestationResult]:
    """Run the whole local-attestation exchange between two co-located
    enclaves; returns (initiator_result, responder_result)."""
    initiator = LocalAttestationInitiator(initiator_sdk, rng.child("la-i"), initiator_accept)
    responder = LocalAttestationResponder(responder_sdk, rng.child("la-r"), responder_accept)
    msg0 = responder.msg0()
    msg1 = initiator.msg1(msg0)
    msg2, responder_result = responder.msg2(msg1)
    initiator_result = initiator.finish(msg2)
    return initiator_result, responder_result
