"""SGX CPU: EGETKEY, EREPORT, and the sealing layer built on them.

These tests pin down the machine-binding properties the whole paper rests
on: sealing keys differ across machines and identities, reports only verify
on the machine (and for the target) they were created on.
"""

import pytest

from repro import wire
from repro.crypto.gcm import reference_encrypt
from repro.errors import InvalidParameterError, MacMismatchError, SgxError
from repro.sgx.cpu import KeyName, KeyRequest, SgxCpu
from repro.sgx.identity import Attributes, EnclaveIdentity, KeyPolicy
from repro.sgx.report import TargetInfo, pad_report_data
from repro.sgx.sealing import SealedData, seal_data, unseal_data
from repro.sim.rng import DeterministicRng


def make_identity(tag: bytes, signer: bytes = b"S", prod: int = 0, svn: int = 0):
    return EnclaveIdentity(
        mrenclave=tag.ljust(32, b"\x00"),
        mrsigner=signer.ljust(32, b"\x00"),
        isv_prod_id=prod,
        isv_svn=svn,
    )


@pytest.fixture
def identity():
    return make_identity(b"enclave-1")


class TestEgetkey:
    def test_deterministic(self, cpu, identity):
        request = KeyRequest(key_name=KeyName.SEAL)
        assert cpu.egetkey(identity, request) == cpu.egetkey(identity, request)

    def test_machine_bound(self, cpu, cpu_b, identity):
        request = KeyRequest(key_name=KeyName.SEAL)
        assert cpu.egetkey(identity, request) != cpu_b.egetkey(identity, request)

    def test_mrenclave_policy_separates_enclaves(self, cpu):
        request = KeyRequest(key_name=KeyName.SEAL, key_policy=KeyPolicy.MRENCLAVE)
        assert cpu.egetkey(make_identity(b"e1"), request) != cpu.egetkey(
            make_identity(b"e2"), request
        )

    def test_mrsigner_policy_shared_across_enclaves(self, cpu):
        request = KeyRequest(key_name=KeyName.SEAL, key_policy=KeyPolicy.MRSIGNER)
        key1 = cpu.egetkey(make_identity(b"e1", signer=b"dev"), request)
        key2 = cpu.egetkey(make_identity(b"e2", signer=b"dev"), request)
        assert key1 == key2

    def test_mrsigner_policy_separates_signers(self, cpu):
        request = KeyRequest(key_name=KeyName.SEAL, key_policy=KeyPolicy.MRSIGNER)
        assert cpu.egetkey(make_identity(b"e", signer=b"d1"), request) != cpu.egetkey(
            make_identity(b"e", signer=b"d2"), request
        )

    def test_prod_id_separates_under_mrsigner(self, cpu):
        request = KeyRequest(key_name=KeyName.SEAL, key_policy=KeyPolicy.MRSIGNER)
        assert cpu.egetkey(make_identity(b"e", prod=1), request) != cpu.egetkey(
            make_identity(b"e", prod=2), request
        )

    def test_key_id_separates(self, cpu, identity):
        k1 = cpu.egetkey(identity, KeyRequest(key_name=KeyName.SEAL, key_id=b"\x01" * 16))
        k2 = cpu.egetkey(identity, KeyRequest(key_name=KeyName.SEAL, key_id=b"\x02" * 16))
        assert k1 != k2

    def test_key_name_separates(self, cpu, identity):
        seal = cpu.egetkey(identity, KeyRequest(key_name=KeyName.SEAL))
        report = cpu.egetkey(identity, KeyRequest(key_name=KeyName.REPORT))
        assert seal != report

    def test_svn_access_control(self, cpu):
        old = make_identity(b"e", svn=2)
        # an SVN-2 enclave may derive keys for SVN <= 2 but not SVN 3
        cpu.egetkey(old, KeyRequest(key_name=KeyName.SEAL, isv_svn=1))
        cpu.egetkey(old, KeyRequest(key_name=KeyName.SEAL, isv_svn=2))
        with pytest.raises(SgxError):
            cpu.egetkey(old, KeyRequest(key_name=KeyName.SEAL, isv_svn=3))

    def test_upgraded_enclave_reads_old_sealed_data(self, cpu):
        old = make_identity(b"e", svn=1)
        new = make_identity(b"e", svn=2)
        request = KeyRequest(key_name=KeyName.SEAL, key_policy=KeyPolicy.MRSIGNER, isv_svn=1)
        assert cpu.egetkey(old, request) == cpu.egetkey(new, request)

    def test_bad_key_id_length(self):
        with pytest.raises(InvalidParameterError):
            KeyRequest(key_name=KeyName.SEAL, key_id=b"short")


class TestEreport:
    def test_report_verifies_for_target(self, cpu, identity):
        target = make_identity(b"verifier")
        report = cpu.ereport(identity, TargetInfo(target.mrenclave), pad_report_data(b"d"))
        assert cpu.verify_report(target, report)

    def test_report_rejected_by_non_target(self, cpu, identity):
        target = make_identity(b"verifier")
        other = make_identity(b"other")
        report = cpu.ereport(identity, TargetInfo(target.mrenclave), pad_report_data(b"d"))
        assert not cpu.verify_report(other, report)

    def test_report_rejected_on_other_machine(self, cpu, cpu_b, identity):
        target = make_identity(b"verifier")
        report = cpu.ereport(identity, TargetInfo(target.mrenclave), pad_report_data(b"d"))
        assert not cpu_b.verify_report(target, report)

    def test_tampered_report_data_rejected(self, cpu, identity):
        import dataclasses

        target = make_identity(b"verifier")
        report = cpu.ereport(identity, TargetInfo(target.mrenclave), pad_report_data(b"d"))
        tampered = dataclasses.replace(report, report_data=pad_report_data(b"x"))
        assert not cpu.verify_report(target, tampered)

    def test_report_serialization_roundtrip(self, cpu, identity):
        from repro.sgx.report import Report

        target = make_identity(b"verifier")
        report = cpu.ereport(identity, TargetInfo(target.mrenclave), pad_report_data(b"d"))
        restored = Report.from_bytes(report.to_bytes())
        assert cpu.verify_report(target, restored)
        assert restored.identity.mrenclave == identity.mrenclave

    def test_report_data_must_be_padded(self, cpu, identity):
        target = make_identity(b"verifier")
        with pytest.raises(InvalidParameterError):
            cpu.ereport(identity, TargetInfo(target.mrenclave), b"unpadded")

    def test_pad_report_data_limits(self):
        assert len(pad_report_data(b"x")) == 64
        with pytest.raises(InvalidParameterError):
            pad_report_data(bytes(65))


class TestSealing:
    def test_roundtrip(self, cpu, identity, rng):
        sealed = seal_data(cpu, identity, rng.child("s"), b"secret", b"label")
        plaintext, aad = unseal_data(cpu, identity, sealed)
        assert plaintext == b"secret" and aad == b"label"

    def test_cross_machine_unseal_fails(self, cpu, cpu_b, identity, rng):
        sealed = seal_data(cpu, identity, rng.child("s"), b"secret")
        with pytest.raises(MacMismatchError):
            unseal_data(cpu_b, identity, sealed)

    def test_mrenclave_policy_blocks_other_enclave(self, cpu, rng):
        sealer = make_identity(b"e1")
        other = make_identity(b"e2")
        sealed = seal_data(
            cpu, sealer, rng.child("s"), b"secret", key_policy=KeyPolicy.MRENCLAVE
        )
        with pytest.raises(MacMismatchError):
            unseal_data(cpu, other, sealed)

    def test_mrsigner_policy_allows_sibling_enclave(self, cpu, rng):
        sealer = make_identity(b"e1", signer=b"dev")
        sibling = make_identity(b"e2", signer=b"dev")
        sealed = seal_data(
            cpu, sealer, rng.child("s"), b"secret", key_policy=KeyPolicy.MRSIGNER
        )
        plaintext, _ = unseal_data(cpu, sibling, sealed)
        assert plaintext == b"secret"

    @staticmethod
    def _unseal_blob(cpu, identity, fields):
        return unseal_data(cpu, identity, SealedData.from_bytes(wire.encode(fields)))

    def test_tampered_ciphertext_rejected(self, cpu, identity, rng):
        sealed = seal_data(cpu, identity, rng.child("s"), b"secret")
        fields = wire.decode(sealed.to_bytes())
        flipped = bytes([sealed.ciphertext[0] ^ 1]) + sealed.ciphertext[1:]
        for bad in (
            {**fields, "ciphertext": flipped},
            {k: v for k, v in fields.items() if k != "tag"},
            {**fields, "ciphertext": 7},
        ):
            with pytest.raises(MacMismatchError):
                self._unseal_blob(cpu, identity, bad)

    def test_tampered_mac_text_rejected(self, cpu, identity, rng):
        sealed = seal_data(cpu, identity, rng.child("s"), b"secret", b"version=2")
        fields = wire.decode(sealed.to_bytes())
        for bad in (
            {**fields, "aad": b"version=9"},
            {k: v for k, v in fields.items() if k != "aad"},
            {**fields, "aad": 9},
        ):
            with pytest.raises(MacMismatchError):
                self._unseal_blob(cpu, identity, bad)

    @pytest.mark.parametrize("iv_size", [0, 1, 12, 60, 128, 129, 4096])
    def test_host_supplied_iv_of_any_length(self, cpu, identity, rng, iv_size):
        """A blob's IV comes from the host.  Whatever its length, a blob
        sealed by the reference opens, and with a flipped tag it raises
        ``MacMismatchError`` (libcrypto takes IVs of 1-128 bytes; ``AesGcm``
        hands the rest to the reference)."""
        sealed = seal_data(cpu, identity, rng.child("s"), b"secret", b"label")
        key = cpu.egetkey(identity, KeyRequest(
            key_name=KeyName.SEAL, key_policy=sealed.key_policy,
            key_id=sealed.key_id, isv_svn=sealed.isv_svn,
        ))
        iv = (bytes(range(256)) * 16)[:iv_size]
        ciphertext, tag = reference_encrypt(key, iv, b"secret", b"label")
        fields = {**wire.decode(sealed.to_bytes()), "iv": iv, "ciphertext": ciphertext, "tag": tag}
        assert self._unseal_blob(cpu, identity, fields) == (b"secret", b"label")
        with pytest.raises(MacMismatchError):
            self._unseal_blob(cpu, identity, {**fields, "tag": bytes([tag[0] ^ 1]) + tag[1:]})

    def test_malformed_key_request_rejected(self, cpu, identity, rng):
        sealed = seal_data(cpu, identity, rng.child("s"), b"secret")
        fields = wire.decode(sealed.to_bytes())
        for bad in ({**fields, "key_policy": "MRNONE"}, {**fields, "isv_svn": -1}):
            with pytest.raises(MacMismatchError):
                self._unseal_blob(cpu, identity, bad)

    def test_serialization_roundtrip(self, cpu, identity, rng):
        sealed = seal_data(cpu, identity, rng.child("s"), b"secret", b"aad")
        restored = SealedData.from_bytes(sealed.to_bytes())
        plaintext, aad = unseal_data(cpu, identity, restored)
        assert plaintext == b"secret" and aad == b"aad"

    def test_replay_of_old_blob_is_undetectable(self, cpu, identity, rng):
        """Sealing alone gives NO freshness — the paper's core premise."""
        sealed_v1 = seal_data(cpu, identity, rng.child("s1"), b"state-v1")
        seal_data(cpu, identity, rng.child("s2"), b"state-v2")
        plaintext, _ = unseal_data(cpu, identity, sealed_v1)
        assert plaintext == b"state-v1"  # old state accepted without error
