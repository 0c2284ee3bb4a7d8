"""Migration Enclave checkpointing: stored data survives a mgmt-VM restart."""

import pytest

from repro.apps.counter_app import MigratableBenchEnclave
from repro.cloud.datacenter import DataCenter
from repro.core.migration_enclave import MigrationEnclave
from repro.core.protocol import (
    ME_CHECKPOINT_SLOTS,
    MigratableApp,
    _me_checkpoint_generation,
    flush_staged,
    install_all_migration_enclaves,
    reinstall_migration_enclave,
)
from repro.errors import InvalidStateError, MacMismatchError, MigrationError
from repro.sgx.identity import SigningKey


@pytest.fixture
def world():
    dc = DataCenter(name="durable", seed=47)
    dc.add_machine("machine-a")
    dc.add_machine("machine-b")
    hosts = install_all_migration_enclaves(dc)
    key = SigningKey.generate(dc.rng.child("dev"))
    app = MigratableApp.deploy(dc, dc.machine("machine-a"), MigratableBenchEnclave, key)
    return dc, hosts, app


def restart_me(dc, machine, me_signing_key, checkpoint):
    """Tear down and re-deploy the ME on a machine, restoring a checkpoint."""
    dc.network.unregister(f"{machine.address}/me")
    mgmt_app = machine.management_vm.launch_application("migration-service-2")
    me = mgmt_app.launch_enclave(MigrationEnclave, me_signing_key)
    me.register_ocall("net_send", lambda dst, p: mgmt_app.send(dst, p))
    me.ecall("import_sealed_state", checkpoint)
    credential = dc.issue_credential(
        machine.address, me.identity.mrenclave, me.ecall("signing_public_key")
    )
    me.ecall(
        "provision",
        credential.to_bytes(),
        dc.ca_public_key,
        dc.ias_verify_for(machine),
        dc.ias.report_public_key,
        machine.address,
        None,
    )
    dc.network.register(
        f"{machine.address}/me", lambda p, s: me.ecall("handle_message", p, s)
    )
    return me


class TestCheckpointRestore:
    def test_incoming_data_survives_me_restart(self, world):
        dc, hosts, app = world
        enclave = app.start_new()
        counter_id, _ = enclave.ecall("create_counter")
        enclave.ecall("increment_counter", counter_id)
        enclave.ecall("migration_start", "machine-b")
        flush_staged(app.app, "machine-b")
        mrenclave = enclave.identity.mrenclave

        # checkpoint machine-b's ME, then "crash" and redeploy it
        machine_b = dc.machine("machine-b")
        checkpoint = hosts["machine-b"].enclave.ecall("export_sealed_state")
        hosts["machine-b"].enclave.destroy()
        me_key = SigningKey.generate(dc.rng.child("me-signer"))
        # the original install used the same derivation, so reuse it:
        new_me = restart_me(dc, machine_b, me_key, checkpoint)
        assert new_me.ecall("has_incoming", mrenclave)

        # the destination enclave can still fetch its data from the new ME
        app.app.terminate()
        app.vm.machine.release_vm(app.vm)
        machine_b.adopt_vm(app.vm)
        migrated = app.launch_from_incoming()
        assert migrated.ecall("read_counter", counter_id) == 1

    def test_checkpoint_is_machine_bound(self, world):
        dc, hosts, app = world
        checkpoint = hosts["machine-a"].enclave.ecall("export_sealed_state")
        # an ME on ANOTHER machine cannot import it (native sealing)
        machine_b = dc.machine("machine-b")
        me_key = SigningKey.generate(dc.rng.child("me2"))
        mgmt = machine_b.management_vm.launch_application("imposter-me")
        foreign_me = mgmt.launch_enclave(MigrationEnclave, me_key)
        with pytest.raises((MacMismatchError, MigrationError)):
            foreign_me.ecall("import_sealed_state", checkpoint)

    def test_garbage_checkpoint_rejected(self, world):
        dc, hosts, app = world
        me = hosts["machine-a"].enclave
        blob = me.trusted.sdk.seal_data(b"not-a-checkpoint", b"wrong-context")
        with pytest.raises(InvalidStateError):
            me.ecall("import_sealed_state", blob)

    def test_signing_key_survives_checkpoint(self, world):
        """The credential certifies the ME key, so the key must persist."""
        dc, hosts, app = world
        me = hosts["machine-a"].enclave
        public_before = me.ecall("signing_public_key")
        checkpoint = me.ecall("export_sealed_state")
        machine_a = dc.machine("machine-a")
        me_key = SigningKey.generate(dc.rng.child("me3"))
        mgmt = machine_a.management_vm.launch_application("restarted-me")
        new_me = mgmt.launch_enclave(MigrationEnclave, me_key)
        assert new_me.ecall("signing_public_key") != public_before
        new_me.ecall("import_sealed_state", checkpoint)
        assert new_me.ecall("signing_public_key") == public_before


class TestABCheckpointSlots:
    """The durable install keeps A/B checkpoint slots plus a pointer; a
    damaged newest slot must cost one generation, never bootability."""

    @pytest.fixture
    def durable_world(self):
        dc = DataCenter(name="ab-slots", seed=48)
        dc.add_machine("machine-a")
        dc.add_machine("machine-b")
        me_key = SigningKey.generate(dc.rng.child("me-signer"))
        hosts = install_all_migration_enclaves(dc, me_key, durable=True)
        key = SigningKey.generate(dc.rng.child("dev"))
        app = MigratableApp.deploy(
            dc, dc.machine("machine-a"), MigratableBenchEnclave, key
        )
        return dc, hosts, app, me_key

    @staticmethod
    def mgmt_app_of(machine):
        return next(
            a
            for a in machine.management_vm.applications
            if a.name == "migration-service"
        )

    def drive_checkpoints(self, dc, app):
        """Run a migration's message flow so machine-b's ME handles several
        messages and therefore writes several checkpoint generations."""
        enclave = app.start_new()
        enclave.ecall("create_counter")
        enclave.ecall("migration_start", "machine-b")
        flush_staged(app.app, "machine-b")

    def test_torn_newest_slot_falls_back_one_generation(self, durable_world):
        dc, hosts, app, me_key = durable_world
        self.drive_checkpoints(dc, app)
        machine_b = dc.machine("machine-b")
        mgmt_app = self.mgmt_app_of(machine_b)
        latest = _me_checkpoint_generation(mgmt_app)
        assert latest >= 2  # both slots populated by the message flow
        machine_b.crash()
        # The newest slot is AEAD-garbage after the power failure:
        machine_b.storage.corrupt(
            f"migration-service/{ME_CHECKPOINT_SLOTS[latest % 2]}"
        )
        host = reinstall_migration_enclave(dc, machine_b, me_key, durable=True)
        assert host.restored_generation is not None
        assert host.restored_generation < latest

    def test_intact_slots_restore_the_newest_generation(self, durable_world):
        dc, hosts, app, me_key = durable_world
        self.drive_checkpoints(dc, app)
        machine_b = dc.machine("machine-b")
        latest = _me_checkpoint_generation(self.mgmt_app_of(machine_b))
        machine_b.crash()
        host = reinstall_migration_enclave(dc, machine_b, me_key, durable=True)
        assert host.restored_generation == latest

    def test_all_slots_destroyed_boots_fresh(self, durable_world):
        dc, hosts, app, me_key = durable_world
        self.drive_checkpoints(dc, app)
        machine_b = dc.machine("machine-b")
        machine_b.crash()
        for path in list(machine_b.storage.paths()):
            if path.startswith("migration-service/me_checkpoint"):
                machine_b.storage.corrupt(path)
        host = reinstall_migration_enclave(dc, machine_b, me_key, durable=True)
        # Availability cost only: parked data is lost, the ME still boots.
        assert host.restored_generation is None
        assert host.enclave.alive
