"""Enclave runtime: ECALL dispatch, lifecycle, SDK facade."""

import pytest

from repro.crypto.epid import EpidGroup
from repro.errors import (
    EnclaveLostError,
    InvalidParameterError,
)
from repro.sgx.enclave import Enclave, EnclaveBase, EnclaveState, build_identity, ecall
from repro.sgx.quote import QuotingEnclave
from repro.sgx.sdk import TrustedRuntime
from repro.sgx.sealing import SealedData


class DemoEnclave(EnclaveBase):
    def __init__(self, sdk):
        super().__init__(sdk)
        self.loaded = False
        self.secret = b"initial"

    def on_load(self):
        self.loaded = True

    @ecall
    def get_secret(self) -> bytes:
        return self.secret

    @ecall
    def set_secret(self, value: bytes):
        self.secret = value

    def internal_helper(self):
        return "not an ecall"

    @ecall
    def call_out(self):
        return self.sdk.ocall("host_fn", 40, delta=2)


def make_enclave(cpu, pse, rng, signing_key, qe=None) -> Enclave:
    identity = build_identity(DemoEnclave, signing_key)
    enclave = Enclave(DemoEnclave, identity, None, cpu.meter)
    runtime = TrustedRuntime(cpu, identity, pse, qe, rng.child("rt"))
    enclave.trusted = DemoEnclave(runtime)
    enclave.trusted.on_load()
    return enclave


class TestEcallDispatch:
    def test_declared_ecall_works(self, cpu, pse, rng, signing_key):
        enclave = make_enclave(cpu, pse, rng, signing_key)
        enclave.ecall("set_secret", b"updated")
        assert enclave.ecall("get_secret") == b"updated"

    def test_undeclared_method_rejected(self, cpu, pse, rng, signing_key):
        enclave = make_enclave(cpu, pse, rng, signing_key)
        with pytest.raises(InvalidParameterError):
            enclave.ecall("internal_helper")

    def test_unknown_method_rejected(self, cpu, pse, rng, signing_key):
        enclave = make_enclave(cpu, pse, rng, signing_key)
        with pytest.raises(InvalidParameterError):
            enclave.ecall("no_such_method")

    def test_ecall_charges_transition_cost(self, cpu, pse, rng, signing_key, clock):
        enclave = make_enclave(cpu, pse, rng, signing_key)
        start = clock.now
        enclave.ecall("get_secret")
        assert clock.now > start


class TestLifecycle:
    def test_destroy_loses_state(self, cpu, pse, rng, signing_key):
        enclave = make_enclave(cpu, pse, rng, signing_key)
        enclave.ecall("set_secret", b"precious")
        enclave.destroy()
        assert enclave.state is EnclaveState.DESTROYED
        assert enclave.trusted is None
        with pytest.raises(EnclaveLostError):
            enclave.ecall("get_secret")

    def test_destroy_idempotent(self, cpu, pse, rng, signing_key):
        enclave = make_enclave(cpu, pse, rng, signing_key)
        enclave.destroy()
        enclave.destroy()
        assert not enclave.alive

    def test_on_load_hook(self, cpu, pse, rng, signing_key):
        enclave = make_enclave(cpu, pse, rng, signing_key)
        assert enclave.trusted.loaded


class TestOcalls:
    def test_ocall_dispatch(self, cpu, pse, rng, signing_key):
        from repro.cloud.vm import ocall_dispatcher

        identity = build_identity(DemoEnclave, signing_key)
        enclave = Enclave(DemoEnclave, identity, None, cpu.meter)
        runtime = TrustedRuntime(
            cpu, identity, pse, None, rng.child("rt"), ocall_dispatcher(enclave)
        )
        enclave.trusted = DemoEnclave(runtime)
        enclave.register_ocall("host_fn", lambda base, delta=0: base + delta)
        assert enclave.ecall("call_out") == 42

    def test_missing_ocall_handler(self, cpu, pse, rng, signing_key):
        from repro.cloud.vm import ocall_dispatcher
        from repro.errors import InvalidStateError

        identity = build_identity(DemoEnclave, signing_key)
        enclave = Enclave(DemoEnclave, identity, None, cpu.meter)
        runtime = TrustedRuntime(
            cpu, identity, pse, None, rng.child("rt"), ocall_dispatcher(enclave)
        )
        enclave.trusted = DemoEnclave(runtime)
        with pytest.raises(InvalidStateError):
            enclave.ecall("call_out")


class TestSdkFacade:
    def test_seal_unseal_via_sdk(self, cpu, pse, rng, signing_key):
        enclave = make_enclave(cpu, pse, rng, signing_key)
        sdk = enclave.trusted.sdk
        blob = sdk.seal_data(b"data", b"aad")
        assert sdk.unseal_data(blob) == (b"data", b"aad")

    def test_counters_via_sdk(self, cpu, pse, rng, signing_key):
        sdk = make_enclave(cpu, pse, rng, signing_key).trusted.sdk
        uuid, value = sdk.create_monotonic_counter()
        assert value == 0
        assert sdk.increment_monotonic_counter(uuid) == 1
        assert sdk.read_monotonic_counter(uuid) == 1
        sdk.destroy_monotonic_counter(uuid)

    def test_quote_via_sdk(self, cpu, pse, rng, signing_key):
        group = EpidGroup(rng.child("epid"))
        qe = QuotingEnclave(cpu, group.join())
        enclave = make_enclave(cpu, pse, rng, signing_key, qe)
        quote = enclave.trusted.sdk.get_quote(b"data", b"bn")
        assert group.verify(quote.signed_payload(), quote.epid_signature)

    def test_quote_without_qe(self, cpu, pse, rng, signing_key):
        enclave = make_enclave(cpu, pse, rng, signing_key)
        with pytest.raises(InvalidParameterError):
            enclave.trusted.sdk.get_quote(b"data")

    def test_random_bytes(self, cpu, pse, rng, signing_key):
        sdk = make_enclave(cpu, pse, rng, signing_key).trusted.sdk
        a, b = sdk.random_bytes(16), sdk.random_bytes(16)
        assert len(a) == 16 and a != b

    def test_native_seals_never_reuse_key_and_nonce(self, cpu, pse, rng, signing_key):
        """Each native seal draws a fresh key id and IV: one instance that
        sealed twice under one (key, nonce) would leak the XOR of the two
        plaintexts and the GHASH key."""
        sdk = make_enclave(cpu, pse, rng, signing_key).trusted.sdk
        first = SealedData.from_bytes(sdk.seal_data(b"first state", b"aad"))
        second = SealedData.from_bytes(sdk.seal_data(b"second state", b"aad"))
        assert first.key_id != second.key_id
        assert first.iv != second.iv
        assert sdk.unseal_data(first.to_bytes()) == (b"first state", b"aad")
        assert sdk.unseal_data(second.to_bytes()) == (b"second state", b"aad")
