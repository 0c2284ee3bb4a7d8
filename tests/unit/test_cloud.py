"""Cloud substrate: storage, network, proxies, machines, VMs, hypervisor."""

import pytest

from repro.cloud.datacenter import DataCenter, ProviderCredential
from repro.cloud.kdc import KeyDistributionCenter, shared_storage
from repro.cloud.proxy import ProxiedPse
from repro.cloud.storage import StorageError, UntrustedStorage
from repro.errors import (
    InvalidParameterError,
    NetworkError,
    ServiceUnavailableError,
)
from repro.sgx.enclave import EnclaveBase, ecall
from repro.sgx.identity import SigningKey
from tests.adversary import tap


class StoreEnclave(EnclaveBase):
    @ecall
    def roundtrip(self, data: bytes) -> bytes:
        return self.sdk.unseal_data(self.sdk.seal_data(data))[0]

    @ecall
    def make_counter(self):
        return self.sdk.create_monotonic_counter()


class TestUntrustedStorage:
    def test_write_read(self):
        store = UntrustedStorage("m")
        store.write("path", b"data")
        assert store.read("path") == b"data"
        assert store.exists("path")

    def test_missing_blob(self):
        with pytest.raises(StorageError):
            UntrustedStorage("m").read("missing")

    def test_delete(self):
        store = UntrustedStorage("m")
        store.write("path", b"data")
        store.delete("path")
        assert not store.exists("path")

    def test_history_and_replay(self):
        store = UntrustedStorage("m")
        store.write("path", b"v1")
        store.write("path", b"v2")
        assert store.versions("path") == [b"v1", b"v2"]
        store.replay("path", 0)
        assert store.read("path") == b"v1"

    def test_replay_nothing_written(self):
        with pytest.raises(StorageError):
            UntrustedStorage("m").replay("path", 0)

    def test_corrupt(self):
        store = UntrustedStorage("m")
        store.write("path", b"\x00\x01")
        store.corrupt("path", 0)
        assert store.read("path") == b"\xff\x01"

    def test_paths_sorted(self):
        store = UntrustedStorage("m")
        store.write("b", b"")
        store.write("a", b"")
        assert store.paths() == ["a", "b"]


class TestNetwork:
    def test_request_response(self, datacenter):
        net = datacenter.network
        net.register("machine-a/svc", lambda payload, src: payload[::-1])
        assert net.send("machine-b", "machine-a/svc", b"abc") == b"cba"

    def test_unknown_endpoint(self, datacenter):
        with pytest.raises(NetworkError):
            datacenter.network.send("machine-a", "nowhere/svc", b"x")

    def test_duplicate_registration(self, datacenter):
        net = datacenter.network
        net.register("machine-a/dup", lambda p, s: p)
        with pytest.raises(NetworkError):
            net.register("machine-a/dup", lambda p, s: p)
        net.register("machine-a/dup", lambda p, s: p + b"2", replace=True)
        assert net.send("machine-b", "machine-a/dup", b"x") == b"x2"

    def test_tap_can_modify(self, datacenter):
        net = datacenter.network
        net.register("machine-a/svc2", lambda payload, src: payload)
        with tap(net, lambda src, dst, payload, direction: payload.replace(b"cat", b"dog")):
            assert net.send("machine-b", "machine-a/svc2", b"a cat") == b"a dog"

    def test_tap_can_drop(self, datacenter):
        net = datacenter.network
        net.register("machine-a/svc3", lambda payload, src: payload)
        with tap(net, lambda src, dst, payload, direction: None):
            with pytest.raises(NetworkError, match="dropped"):
                net.send("machine-b", "machine-a/svc3", b"x")
        assert net.send("machine-b", "machine-a/svc3", b"x") == b"x"

    def test_charges_time(self, datacenter):
        net = datacenter.network
        net.register("machine-a/svc4", lambda payload, src: payload)
        before = datacenter.clock.now
        net.send("machine-b", "machine-a/svc4", bytes(10_000))
        assert datacenter.clock.now > before

    def test_counters(self, datacenter):
        net = datacenter.network
        net.register("machine-a/svc5", lambda payload, src: b"ok")
        sent_before = net.messages_sent
        net.send("machine-b", "machine-a/svc5", b"hello")
        assert net.messages_sent == sent_before + 1

    def test_duplicate_delivery_counts_in_odometers(self, datacenter):
        """Regression: the fault injector's duplicate leg runs the handler a
        second time but historically left ``messages_sent``/``bytes_sent``
        untouched — the extra delivery is real traffic and must count."""
        from repro.faults.injector import FaultInjector
        from repro.faults.plan import FaultPlan
        from repro.sim.rng import DeterministicRng

        net = datacenter.network
        calls = []
        net.register("machine-a/svc6", lambda payload, src: calls.append(1) or b"ok")
        net.fault_injector = FaultInjector(
            plan=FaultPlan().duplicate(direction="request"),
            rng=DeterministicRng(7).child("faults"),
            machines={},
            meter=datacenter.meter,
        )
        try:
            sent_before, bytes_before = net.messages_sent, net.bytes_sent
            response = net.send("machine-b", "machine-a/svc6", b"hello")
        finally:
            net.fault_injector = None
        assert response == b"ok"
        assert len(calls) == 2  # handler really ran twice
        # Two request deliveries + the payload twice + one response.
        assert net.messages_sent == sent_before + 2
        assert net.bytes_sent == bytes_before + 2 * len(b"hello") + len(b"ok")


class TestProxiedPse:
    def test_same_semantics_as_direct(self, datacenter):
        machine = datacenter.machine("machine-a")
        from repro.sgx.identity import EnclaveIdentity

        identity = EnclaveIdentity(mrenclave=bytes(32), mrsigner=bytes(32))
        proxy = ProxiedPse(machine.pse, machine.meter)
        uuid, value = proxy.create_counter(identity)
        assert value == 0
        assert proxy.increment_counter(identity, uuid) == 1
        assert proxy.read_counter(identity, uuid) == 1
        proxy.destroy_counter(identity, uuid)

    def test_disconnect(self, datacenter):
        machine = datacenter.machine("machine-a")
        from repro.sgx.identity import EnclaveIdentity

        identity = EnclaveIdentity(mrenclave=bytes(32), mrsigner=bytes(32))
        proxy = ProxiedPse(machine.pse, machine.meter)
        proxy.connected = False
        with pytest.raises(ServiceUnavailableError):
            proxy.create_counter(identity)
        proxy.connected = True
        proxy.create_counter(identity)

    def test_guest_enclaves_get_proxied_pse(self, datacenter):
        machine = datacenter.machine("machine-a")
        vm = machine.create_vm("guest")
        app = vm.launch_application("app")
        key = SigningKey.generate(datacenter.rng.child("k"))
        enclave = app.launch_enclave(StoreEnclave, key)
        assert isinstance(enclave.trusted.sdk._pse, ProxiedPse)

    def test_management_enclaves_get_direct_pse(self, datacenter):
        machine = datacenter.machine("machine-a")
        app = machine.management_vm.launch_application("mgmt-app")
        key = SigningKey.generate(datacenter.rng.child("k"))
        enclave = app.launch_enclave(StoreEnclave, key)
        assert enclave.trusted.sdk._pse is machine.pse


class TestMachineAndVm:
    def test_enclave_lifecycle_via_app(self, datacenter):
        machine = datacenter.machine("machine-a")
        vm = machine.create_vm("guest-x")
        app = vm.launch_application("app")
        key = SigningKey.generate(datacenter.rng.child("k"))
        enclave = app.launch_enclave(StoreEnclave, key)
        assert enclave.ecall("roundtrip", b"data") == b"data"
        app.crash()
        assert not enclave.alive
        assert not app.running

    def test_duplicate_vm_name(self, datacenter):
        machine = datacenter.machine("machine-a")
        machine.create_vm("dup-vm")
        with pytest.raises(InvalidParameterError):
            machine.create_vm("dup-vm")

    def test_hibernate_destroys_enclaves_keeps_counters(self, datacenter):
        machine = datacenter.machine("machine-a")
        vm = machine.create_vm("guest-h")
        app = vm.launch_application("app")
        key = SigningKey.generate(datacenter.rng.child("k"))
        enclave = app.launch_enclave(StoreEnclave, key)
        uuid, _ = enclave.ecall("make_counter")
        machine.hibernate()
        assert not enclave.alive
        assert machine.pse.counter_exists(uuid.counter_id)

    def test_cannot_load_enclave_in_foreign_vm(self, datacenter):
        machine_a = datacenter.machine("machine-a")
        machine_b = datacenter.machine("machine-b")
        vm = machine_a.create_vm("guest-f")
        key = SigningKey.generate(datacenter.rng.child("k"))
        with pytest.raises(InvalidParameterError):
            machine_b.load_enclave(vm, StoreEnclave, key)

    def test_app_storage_namespaced(self, datacenter):
        machine = datacenter.machine("machine-a")
        vm = machine.create_vm("guest-s")
        app = vm.launch_application("myapp")
        app.store("blob", b"data")
        assert machine.storage.read("myapp/blob") == b"data"
        assert app.load("blob") == b"data"
        assert app.has_stored("blob")


class TestHypervisor:
    def test_migration_moves_vm(self, datacenter):
        source = datacenter.machine("machine-a")
        destination = datacenter.machine("machine-b")
        vm = source.create_vm("mig-vm", memory_bytes=1 << 30)
        report = datacenter.hypervisor.migrate_vm(vm, destination)
        assert vm.machine is destination
        assert vm in destination.vms and vm not in source.vms
        assert report.duration > 0
        assert report.bytes_copied >= 1 << 30

    def test_migration_destroys_enclaves(self, datacenter):
        source = datacenter.machine("machine-a")
        destination = datacenter.machine("machine-b")
        vm = source.create_vm("mig-vm2")
        app = vm.launch_application("app")
        key = SigningKey.generate(datacenter.rng.child("k"))
        enclave = app.launch_enclave(StoreEnclave, key)
        datacenter.hypervisor.migrate_vm(vm, destination)
        assert not enclave.alive
        assert datacenter.hypervisor.enclaves_destroyed >= 1

    def test_migration_to_self_rejected(self, datacenter):
        source = datacenter.machine("machine-a")
        vm = source.create_vm("mig-vm3")
        with pytest.raises(InvalidParameterError):
            datacenter.hypervisor.migrate_vm(vm, source)

    def test_bigger_vm_takes_longer(self, datacenter):
        source = datacenter.machine("machine-a")
        destination = datacenter.machine("machine-b")
        small = source.create_vm("small-vm", memory_bytes=1 << 28)
        big = source.create_vm("big-vm", memory_bytes=1 << 33)
        small_report = datacenter.hypervisor.migrate_vm(small, destination)
        big_report = datacenter.hypervisor.migrate_vm(big, destination)
        assert big_report.duration > small_report.duration

    def test_vm_migration_order_of_seconds(self, datacenter):
        """The paper's comparison point: ~seconds for a 4 GiB VM."""
        source = datacenter.machine("machine-a")
        destination = datacenter.machine("machine-b")
        vm = source.create_vm("four-gig", memory_bytes=1 << 32)
        report = datacenter.hypervisor.migrate_vm(vm, destination)
        assert 1.0 < report.duration < 20.0


class TestDataCenter:
    def test_machine_lookup(self, datacenter):
        assert datacenter.machine("machine-a").name == "machine-a"
        with pytest.raises(InvalidParameterError):
            datacenter.machine("machine-z")

    def test_duplicate_machine(self, datacenter):
        with pytest.raises(InvalidParameterError):
            datacenter.add_machine("machine-a")

    def test_credential_issue_verify(self, datacenter, rng):
        from repro.crypto import schnorr

        me_key = schnorr.generate_keypair(rng.child("me"))
        credential = datacenter.issue_credential("machine-a", bytes(32), me_key.public)
        assert credential.verify(datacenter.ca_public_key)

    def test_credential_tamper_detected(self, datacenter, rng):
        import dataclasses

        from repro.crypto import schnorr

        me_key = schnorr.generate_keypair(rng.child("me"))
        credential = datacenter.issue_credential("machine-a", bytes(32), me_key.public)
        forged = dataclasses.replace(credential, machine_address="evil-machine")
        assert not forged.verify(datacenter.ca_public_key)

    def test_credential_roundtrip(self, datacenter, rng):
        from repro.crypto import schnorr

        me_key = schnorr.generate_keypair(rng.child("me"))
        credential = datacenter.issue_credential("machine-a", bytes(32), me_key.public)
        restored = ProviderCredential.from_bytes(credential.to_bytes())
        assert restored.verify(datacenter.ca_public_key)
        assert restored.machine_address == "machine-a"

    def test_no_credentials_for_foreign_machines(self, datacenter):
        with pytest.raises(InvalidParameterError):
            datacenter.issue_credential("not-ours", bytes(32), 12345)

    def test_foreign_datacenter_credential_rejected(self, rng):
        from repro.crypto import schnorr

        dc1 = DataCenter(name="dc-one", seed=1)
        dc1.add_machine("m1")
        dc2 = DataCenter(name="dc-two", seed=2)
        me_key = schnorr.generate_keypair(rng.child("me"))
        credential = dc1.issue_credential("m1", bytes(32), me_key.public)
        assert not credential.verify(dc2.ca_public_key)


class TestKdc:
    def test_key_stable_across_machines(self, datacenter):
        kdc = KeyDistributionCenter(datacenter.ias, datacenter.rng.child("kdc"))
        key = SigningKey.generate(datacenter.rng.child("k"))
        keys = []
        for name in ("machine-a", "machine-b"):
            machine = datacenter.machine(name)
            vm = machine.create_vm(f"kdc-vm-{name}")
            app = vm.launch_application("app")
            enclave = app.launch_enclave(StoreEnclave, key)
            quote = enclave.trusted.sdk.get_quote(b"kdc", basename=b"kdc")
            keys.append(kdc.request_key(quote.to_bytes()))
        assert keys[0] == keys[1]  # the portability the rollback attack needs

    def test_key_differs_per_identity(self, datacenter):
        class OtherEnclave(EnclaveBase):
            @ecall
            def noop(self):
                pass

        kdc = KeyDistributionCenter(datacenter.ias, datacenter.rng.child("kdc"))
        key = SigningKey.generate(datacenter.rng.child("k"))
        machine = datacenter.machine("machine-a")
        vm = machine.create_vm("kdc-vm-2")
        app = vm.launch_application("app")
        e1 = app.launch_enclave(StoreEnclave, key)
        e2 = app.launch_enclave(OtherEnclave, key)
        q1 = e1.trusted.sdk.get_quote(b"kdc", basename=b"kdc")
        q2 = e2.trusted.sdk.get_quote(b"kdc", basename=b"kdc")
        assert kdc.request_key(q1.to_bytes()) != kdc.request_key(q2.to_bytes())

    def test_label_separation(self, datacenter):
        kdc = KeyDistributionCenter(datacenter.ias, datacenter.rng.child("kdc"))
        key = SigningKey.generate(datacenter.rng.child("k"))
        machine = datacenter.machine("machine-a")
        vm = machine.create_vm("kdc-vm-3")
        app = vm.launch_application("app")
        enclave = app.launch_enclave(StoreEnclave, key)
        quote = enclave.trusted.sdk.get_quote(b"kdc", basename=b"kdc").to_bytes()
        assert kdc.request_key(quote, b"a") != kdc.request_key(quote, b"b")

    def test_bad_quote_rejected(self, datacenter):
        from repro.errors import AttestationError

        kdc = KeyDistributionCenter(datacenter.ias, datacenter.rng.child("kdc"))
        with pytest.raises(AttestationError):
            kdc.request_key(b"not-a-quote")

    def test_shared_storage(self):
        store = shared_storage()
        store.write("object", b"v1")
        store.write("object", b"v2")
        store.replay("object", 0)
        assert store.read("object") == b"v1"
