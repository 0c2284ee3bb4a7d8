"""End-to-end migration flows through the full stack (Fig. 1 / Fig. 2)."""

import pytest

from repro.apps.counter_app import MigratableBenchEnclave
from repro.cloud.datacenter import DataCenter
from repro.core.protocol import (
    MigratableApp,
    flush_staged,
    install_all_migration_enclaves,
    install_migration_enclave,
)
from repro.errors import (
    CounterNotFoundError,
    InvalidStateError,
    MigrationError,
)
from repro.sgx.identity import SigningKey


@pytest.fixture
def world():
    dc = DataCenter(name="integ", seed=7)
    for name in ("machine-a", "machine-b", "machine-c"):
        dc.add_machine(name)
    hosts = install_all_migration_enclaves(dc)
    key = SigningKey.generate(dc.rng.child("dev"))
    app = MigratableApp.deploy(dc, dc.machine("machine-a"), MigratableBenchEnclave, key)
    return dc, hosts, app


class TestHappyPath:
    def test_counters_and_msk_survive_migration(self, world):
        dc, hosts, app = world
        enclave = app.start_new()
        counter_id, _ = enclave.ecall("create_counter")
        for _ in range(3):
            enclave.ecall("increment_counter", counter_id)
        sealed = enclave.ecall("seal", b"precious", b"v3")

        enclave = app.migrate(dc.machine("machine-b"), migrate_vm=False)
        # effective counter value continues exactly where it was
        assert enclave.ecall("read_counter", counter_id) == 3
        assert enclave.ecall("increment_counter", counter_id) == 4
        # MSK-sealed data is readable on the destination
        assert enclave.ecall("unseal", sealed) == (b"precious", b"v3")

    def test_migration_with_live_vm_migration(self, world):
        dc, hosts, app = world
        enclave = app.start_new()
        counter_id, _ = enclave.ecall("create_counter")
        enclave.ecall("increment_counter", counter_id)
        enclave = app.migrate(dc.machine("machine-b"), migrate_vm=True)
        assert app.vm.machine is dc.machine("machine-b")
        assert enclave.ecall("read_counter", counter_id) == 1

    def test_multi_hop_migration(self, world):
        dc, hosts, app = world
        enclave = app.start_new()
        counter_id, _ = enclave.ecall("create_counter")
        value = 0
        for target in ("machine-b", "machine-c", "machine-a", "machine-b"):
            enclave.ecall("increment_counter", counter_id)
            value += 1
            enclave = app.migrate(dc.machine(target), migrate_vm=False)
            assert enclave.ecall("read_counter", counter_id) == value

    def test_pending_cleared_after_confirmation(self, world):
        dc, hosts, app = world
        enclave = app.start_new()
        mrenclave = enclave.identity.mrenclave
        app.migrate(dc.machine("machine-b"), migrate_vm=False)
        assert not hosts["machine-a"].enclave.ecall("has_pending_outgoing", mrenclave)
        assert not hosts["machine-b"].enclave.ecall("has_incoming", mrenclave)

    def test_restart_on_destination_after_migration(self, world):
        dc, hosts, app = world
        enclave = app.start_new()
        counter_id, _ = enclave.ecall("create_counter")
        enclave.ecall("increment_counter", counter_id)
        app.migrate(dc.machine("machine-b"), migrate_vm=False)
        enclave = app.restart()  # plain RESTORE on the destination
        assert enclave.ecall("read_counter", counter_id) == 1

    def test_migration_without_any_counters(self, world):
        dc, hosts, app = world
        enclave = app.start_new()
        sealed = enclave.ecall("seal", b"only-msk-data")
        enclave = app.migrate(dc.machine("machine-b"), migrate_vm=False)
        assert enclave.ecall("unseal", sealed)[0] == b"only-msk-data"

    def test_many_counters_migrate(self, world):
        dc, hosts, app = world
        enclave = app.start_new()
        ids = []
        for index in range(5):
            counter_id, _ = enclave.ecall("create_counter")
            for _ in range(index):
                enclave.ecall("increment_counter", counter_id)
            ids.append(counter_id)
        enclave = app.migrate(dc.machine("machine-b"), migrate_vm=False)
        for index, counter_id in enumerate(ids):
            assert enclave.ecall("read_counter", counter_id) == index


class TestSourceSideSafety:
    def test_source_machine_counters_gone(self, world):
        dc, hosts, app = world
        enclave = app.start_new()
        counter_id, _ = enclave.ecall("create_counter")
        uuid = enclave.trusted.miglib._state.counter_uuids[counter_id]
        app.migrate(dc.machine("machine-b"), migrate_vm=False)
        assert dc.machine("machine-a").pse.was_destroyed(uuid.counter_id)

    def test_stale_source_buffer_cannot_use_counters(self, world):
        dc, hosts, app = world
        enclave = app.start_new()
        counter_id, _ = enclave.ecall("create_counter")
        stale_buffer = app.stored_library_buffer()
        app.migrate(dc.machine("machine-b"), migrate_vm=False)

        source = dc.machine("machine-a")
        vm = source.create_vm("attacker")
        attack_app = vm.launch_application("attacker")
        forked = attack_app.launch_enclave(MigratableBenchEnclave, app.signing_key)
        forked.register_ocall("send_to_me", lambda a, p: attack_app.send(f"{a}/me", p))
        forked.register_ocall("save_library_state", lambda b: None)
        forked.ecall("migration_init", stale_buffer, "RESTORE", source.address)
        with pytest.raises(CounterNotFoundError):
            forked.ecall("increment_counter", counter_id)

    def test_frozen_buffer_refuses_to_operate(self, world):
        dc, hosts, app = world
        app.start_new()
        app.migrate(dc.machine("machine-b"), migrate_vm=False)
        # the buffer persisted on the source during migration carries the flag
        frozen_buffer = dc.machine("machine-a").storage.read("app/miglib_state")

        source = dc.machine("machine-a")
        vm = source.create_vm("attacker-2")
        attack_app = vm.launch_application("attacker2")
        forked = attack_app.launch_enclave(MigratableBenchEnclave, app.signing_key)
        forked.register_ocall("send_to_me", lambda a, p: attack_app.send(f"{a}/me", p))
        forked.register_ocall("save_library_state", lambda b: None)
        with pytest.raises(InvalidStateError):
            forked.ecall("migration_init", frozen_buffer, "RESTORE", source.address)


class TestDestinationMatching:
    def test_wrong_enclave_cannot_fetch(self, world):
        """ME releases data only to the MRENCLAVE that sent it (Sec. VI-A)."""
        dc, hosts, app = world

        class ImpostorEnclave(MigratableBenchEnclave):
            pass

        enclave = app.start_new()
        enclave.ecall("create_counter")
        enclave.ecall("migration_start", "machine-b")
        flush_staged(app.app, "machine-b")

        destination = dc.machine("machine-b")
        vm = destination.create_vm("impostor-vm")
        imp_app = vm.launch_application("impostor")
        impostor = imp_app.launch_enclave(ImpostorEnclave, app.signing_key)
        impostor.register_ocall("send_to_me", lambda a, p: imp_app.send(f"{a}/me", p))
        impostor.register_ocall("save_library_state", lambda b: None)
        with pytest.raises(MigrationError):
            impostor.ecall("migration_init", None, "MIGRATE", destination.address)
        # the data is still there for the real enclave
        assert hosts["machine-b"].enclave.ecall("has_incoming", enclave.identity.mrenclave)

    def test_data_waits_for_destination_enclave(self, world):
        dc, hosts, app = world
        enclave = app.start_new()
        counter_id, _ = enclave.ecall("create_counter")
        enclave.ecall("increment_counter", counter_id)
        enclave.ecall("migration_start", "machine-b")
        flush_staged(app.app, "machine-b")
        mrenclave = enclave.identity.mrenclave
        assert hosts["machine-b"].enclave.ecall("has_incoming", mrenclave)
        # the destination enclave starts later and still gets its data
        app.app.terminate()
        app.vm.machine.release_vm(app.vm)
        dc.machine("machine-b").adopt_vm(app.vm)
        migrated = app.launch_from_incoming()
        assert migrated.ecall("read_counter", counter_id) == 1


class TestUnauthorizedDestinations:
    def test_unknown_destination_rejected(self, world):
        dc, hosts, app = world
        enclave = app.start_new()
        enclave.ecall("migration_start", "machine-that-does-not-exist")
        with pytest.raises(MigrationError):
            flush_staged(app.app, "machine-that-does-not-exist")

    def test_foreign_provider_me_rejected(self, world):
        """R2: a ME outside the provider's CA cannot receive migrations."""
        dc, hosts, app = world
        # A machine in the same network but provisioned by another provider.
        rogue_dc = DataCenter(name="rogue-cloud", seed=99)
        # Splice a rogue machine into our network namespace: simulate by
        # registering a fake '/me' endpoint that behaves like a foreign ME.
        rogue = dc.add_machine("machine-rogue")
        rogue_key = SigningKey.generate(dc.rng.child("rogue-me"))
        # Install an ME but provision it with the ROGUE provider's CA chain.
        from repro.core.migration_enclave import MigrationEnclave

        mgmt_app = rogue.management_vm.launch_application("rogue-me")
        me = mgmt_app.launch_enclave(MigrationEnclave, rogue_key)
        me.register_ocall("net_send", lambda dst, p: mgmt_app.send(dst, p))
        rogue_dc.add_machine("machine-rogue")
        credential = rogue_dc.issue_credential(
            "machine-rogue", me.identity.mrenclave, me.ecall("signing_public_key")
        )
        me.ecall(
            "provision",
            credential.to_bytes(),
            rogue_dc.ca_public_key,  # rogue CA pinned in the rogue ME
            dc.ias_verify_for(rogue),
            dc.ias.report_public_key,
            "machine-rogue",
            None,
        )
        dc.network.register(
            "machine-rogue/me", lambda p, s: me.ecall("handle_message", p, s)
        )

        enclave = app.start_new()
        enclave.ecall("migration_start", "machine-rogue")
        with pytest.raises(MigrationError):
            flush_staged(app.app, "machine-rogue")
        # data is retained at the source ME for retry
        assert hosts["machine-a"].enclave.ecall(
            "has_pending_outgoing", enclave.identity.mrenclave
        )

    def test_retry_after_failure_to_new_destination(self, world):
        dc, hosts, app = world
        enclave = app.start_new()
        counter_id, _ = enclave.ecall("create_counter")
        enclave.ecall("increment_counter", counter_id)
        mrenclave = enclave.identity.mrenclave
        enclave.ecall("migration_start", "machine-nowhere")
        with pytest.raises(MigrationError):
            flush_staged(app.app, "machine-nowhere")
        # Operator retries towards machine-c (Section V-D error handling).
        hosts["machine-a"].enclave.ecall("retry_pending", mrenclave, "machine-c")
        app.app.terminate()
        app.vm.machine.release_vm(app.vm)
        dc.machine("machine-c").adopt_vm(app.vm)
        migrated = app.launch_from_incoming()
        assert migrated.ecall("read_counter", counter_id) == 1
