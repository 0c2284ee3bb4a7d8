"""Enclave identities, SIGSTRUCTs, and page measurement."""

import pytest

from repro.crypto import schnorr
from repro.errors import InvalidParameterError
from repro.sgx import identity
from repro.sgx.enclave import EnclaveBase, build_identity, ecall
from repro.sgx.identity import Attributes, EnclaveIdentity, KeyPolicy, SigningKey
from repro.sgx.measurement import (
    EnclavePage,
    PageProperties,
    measure_pages,
    measure_source,
    pages_from_blob,
)


class DemoEnclave(EnclaveBase):
    @ecall
    def noop(self):
        return None


class OtherEnclave(EnclaveBase):
    @ecall
    def noop(self):
        return 1


class TestIdentity:
    def test_identity_field_validation(self):
        with pytest.raises(InvalidParameterError):
            EnclaveIdentity(mrenclave=b"short", mrsigner=bytes(32))
        with pytest.raises(InvalidParameterError):
            EnclaveIdentity(mrenclave=bytes(32), mrsigner=b"short")

    def test_to_bytes_includes_all_fields(self):
        base = EnclaveIdentity(mrenclave=bytes(32), mrsigner=bytes(32))
        svn = EnclaveIdentity(mrenclave=bytes(32), mrsigner=bytes(32), isv_svn=3)
        prod = EnclaveIdentity(mrenclave=bytes(32), mrsigner=bytes(32), isv_prod_id=7)
        debug = EnclaveIdentity(
            mrenclave=bytes(32), mrsigner=bytes(32), attributes=Attributes(debug=True)
        )
        blobs = {base.to_bytes(), svn.to_bytes(), prod.to_bytes(), debug.to_bytes()}
        assert len(blobs) == 4

    def test_key_policy_values(self):
        assert KeyPolicy("MRENCLAVE") is KeyPolicy.MRENCLAVE
        assert KeyPolicy("MRSIGNER") is KeyPolicy.MRSIGNER


class TestSigstruct:
    def test_sign_and_verify(self, rng):
        key = SigningKey.generate(rng.child("dev"))
        sigstruct = key.sign_sigstruct(bytes(32), isv_prod_id=1, isv_svn=2)
        assert sigstruct.verify()
        assert sigstruct.mrsigner == key.mrsigner

    def test_tampered_sigstruct_rejected(self, rng):
        key = SigningKey.generate(rng.child("dev"))
        sigstruct = key.sign_sigstruct(bytes(32))
        import dataclasses

        tampered = dataclasses.replace(sigstruct, mrenclave=b"\x01" * 32)
        assert not tampered.verify()

    def test_different_signers_different_mrsigner(self, rng):
        k1 = SigningKey.generate(rng.child("a"))
        k2 = SigningKey.generate(rng.child("b"))
        assert k1.mrsigner != k2.mrsigner

    def test_build_signed_once_across_loads(self, rng, monkeypatch):
        """Two loads of one build sign its SIGSTRUCT once and get equal ones;
        another ISVSVN is another build and is signed again."""
        key = SigningKey.generate(rng.child("once"))
        signs = []
        real_sign = schnorr.sign

        def counted_sign(private, message):
            signs.append(message)
            return real_sign(private, message)

        monkeypatch.setattr(schnorr, "sign", counted_sign)
        monkeypatch.setattr(identity, "_SIGSTRUCT_MEMO", {})
        first = build_identity(DemoEnclave, key, b"cfg", isv_svn=3)
        second = build_identity(DemoEnclave, key, b"cfg", isv_svn=3)
        assert first == second
        assert len(signs) == 1
        mrenclave = measure_source(DemoEnclave, b"cfg")
        assert key.sign_sigstruct(mrenclave, isv_svn=3) == key.sign_sigstruct(mrenclave, isv_svn=3)
        assert len(signs) == 1
        assert key.sign_sigstruct(mrenclave, isv_svn=4).verify()
        assert len(signs) == 2


class TestMeasurement:
    def test_deterministic(self):
        pages = pages_from_blob(b"enclave code here")
        assert measure_pages(pages) == measure_pages(pages)

    def test_content_changes_measurement(self):
        assert measure_pages(pages_from_blob(b"code-v1")) != measure_pages(
            pages_from_blob(b"code-v2")
        )

    def test_page_properties_change_measurement(self):
        content = b"same content"
        rx = pages_from_blob(content, PageProperties(read=True, execute=True))
        rw = pages_from_blob(content, PageProperties(read=True, write=True))
        assert measure_pages(rx) != measure_pages(rw)

    def test_page_order_matters(self):
        pages = [EnclavePage(b"a"), EnclavePage(b"b")]
        assert measure_pages(pages) != measure_pages(list(reversed(pages)))

    def test_page_size_limit(self):
        with pytest.raises(InvalidParameterError):
            EnclavePage(bytes(4097))

    def test_pages_from_blob_splits(self):
        pages = pages_from_blob(bytes(4096 * 2 + 10))
        assert len(pages) == 3

    def test_measure_source_deterministic(self):
        assert measure_source(DemoEnclave) == measure_source(DemoEnclave)

    def test_measure_source_distinguishes_classes(self):
        assert measure_source(DemoEnclave) != measure_source(OtherEnclave)

    def test_config_changes_measurement(self):
        assert measure_source(DemoEnclave, b"cfg1") != measure_source(DemoEnclave, b"cfg2")

    def test_measured_libraries_affect_identity(self):
        class WithLib(EnclaveBase):
            MEASURED_LIBRARIES = (DemoEnclave,)

        class WithOtherLib(EnclaveBase):
            MEASURED_LIBRARIES = (OtherEnclave,)

        assert measure_source(WithLib) != measure_source(WithOtherLib)


class TestBuildIdentity:
    def test_same_class_same_identity_everywhere(self, rng):
        key = SigningKey.generate(rng.child("dev"))
        id1 = build_identity(DemoEnclave, key)
        id2 = build_identity(DemoEnclave, key)
        assert id1.mrenclave == id2.mrenclave
        assert id1.mrsigner == id2.mrsigner

    def test_signer_identity_independent_of_class(self, rng):
        key = SigningKey.generate(rng.child("dev"))
        assert build_identity(DemoEnclave, key).mrsigner == build_identity(
            OtherEnclave, key
        ).mrsigner

    def test_isv_fields_propagate(self, rng):
        key = SigningKey.generate(rng.child("dev"))
        identity = build_identity(DemoEnclave, key, isv_prod_id=9, isv_svn=4)
        assert identity.isv_prod_id == 9 and identity.isv_svn == 4
