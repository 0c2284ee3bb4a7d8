"""The Migration Library in isolation, against a real ME on one machine."""

import pytest

from repro.apps.counter_app import MigratableBenchEnclave
from repro.core.migration_library import InitState
from repro.core.protocol import MigratableApp, install_all_migration_enclaves
from repro.errors import (
    CounterNotFoundError,
    InvalidParameterError,
    InvalidStateError,
    MacMismatchError,
    MigrationError,
    SgxError,
    SgxStatus,
    WireError,
)
from repro.sgx.identity import SigningKey


@pytest.fixture
def world(datacenter):
    install_all_migration_enclaves(datacenter)
    key = SigningKey.generate(datacenter.rng.child("dev"))
    app = MigratableApp.deploy(
        datacenter, datacenter.machine("machine-a"), MigratableBenchEnclave, key
    )
    return datacenter, app


class TestInit:
    def test_new_returns_buffer(self, world):
        _, app = world
        enclave = app.start_new()
        assert app.stored_library_buffer()
        assert not enclave.ecall("is_frozen")

    def test_double_init_rejected(self, world):
        _, app = world
        enclave = app.start_new()
        with pytest.raises(InvalidStateError):
            enclave.ecall("migration_init", None, "NEW", "machine-a")

    def test_restore_resumes_state(self, world):
        _, app = world
        enclave = app.start_new()
        counter_id, _ = enclave.ecall("create_counter")
        enclave.ecall("increment_counter", counter_id)
        blob = enclave.ecall("seal", b"persisted")
        enclave = app.restart()
        assert enclave.ecall("read_counter", counter_id) == 1
        assert enclave.ecall("unseal", blob)[0] == b"persisted"

    def test_restore_requires_buffer(self, world):
        dc, app = world
        app.start_new()
        app.app.terminate()
        app.app.machine.storage.delete("app/miglib_state")
        with pytest.raises(InvalidStateError):
            app.restart()

    def test_restore_on_other_machine_fails(self, world):
        """The library buffer is sealed with the NATIVE key: machine-bound."""
        dc, app = world
        app.start_new()
        buffer = app.stored_library_buffer()
        machine_b = dc.machine("machine-b")
        vm = machine_b.create_vm("foreign")
        foreign_app = vm.launch_application("app2")
        enclave = foreign_app.launch_enclave(MigratableBenchEnclave, app.signing_key)
        enclave.register_ocall("send_to_me", lambda a, p: foreign_app.send(f"{a}/me", p))
        enclave.register_ocall("save_library_state", lambda b: None)
        with pytest.raises(MigrationError):
            enclave.ecall("migration_init", buffer, "RESTORE", machine_b.address)

    def test_migrate_init_without_pending_data(self, world):
        dc, app = world
        vm = dc.machine("machine-a").create_vm("waiting")
        waiting_app = vm.launch_application("waiter")
        enclave = waiting_app.launch_enclave(MigratableBenchEnclave, app.signing_key)
        enclave.register_ocall("send_to_me", lambda a, p: waiting_app.send(f"{a}/me", p))
        enclave.register_ocall("save_library_state", lambda b: None)
        with pytest.raises(MigrationError):
            enclave.ecall("migration_init", None, "MIGRATE", "machine-a")

    def test_tampered_buffer_rejected(self, world):
        _, app = world
        app.start_new()
        buffer = bytearray(app.stored_library_buffer())
        buffer[len(buffer) // 2] ^= 0xFF
        app.app.terminate()
        app.app.machine.storage.write("app/miglib_state", bytes(buffer))
        with pytest.raises(MigrationError):
            app.restart()

    def test_uninitialized_library_refuses_operations(self, world):
        _, app = world
        enclave = app.app.launch_enclave(MigratableBenchEnclave, app.signing_key)
        with pytest.raises(InvalidStateError):
            enclave.ecall("create_counter")


class TestMigratableSealing:
    def test_roundtrip(self, world):
        _, app = world
        enclave = app.start_new()
        blob = enclave.ecall("seal", b"secret", b"mac-text")
        assert enclave.ecall("unseal", blob) == (b"secret", b"mac-text")

    def test_tamper_detected(self, world):
        from repro import wire

        _, app = world
        enclave = app.start_new()
        blob = enclave.ecall("seal", b"secret")
        fields = wire.decode(blob)
        flipped = bytearray(blob)
        flipped[-1] ^= 1
        missing_field = wire.encode({k: v for k, v in fields.items() if k != "iv"})
        wrong_type = wire.encode({**fields, "tag": 7})
        for bad in (bytes(flipped), missing_field, wrong_type):
            with pytest.raises(MacMismatchError):
                enclave.ecall("unseal", bad)
        with pytest.raises(WireError):
            enclave.ecall("unseal", blob[:-1])

    def test_mac_text_authenticated(self, world):
        from repro import wire

        _, app = world
        enclave = app.start_new()
        fields = wire.decode(enclave.ecall("seal", b"secret", b"v=1"))
        fields["aad"] = b"v=9"
        with pytest.raises(MacMismatchError):
            enclave.ecall("unseal", wire.encode(fields))

    def test_msk_survives_restart(self, world):
        _, app = world
        enclave = app.start_new()
        blob = enclave.ecall("seal", b"secret")
        enclave = app.restart()
        assert enclave.ecall("unseal", blob)[0] == b"secret"

    def test_large_payload(self, world):
        _, app = world
        enclave = app.start_new()
        payload = bytes(100_000)
        assert enclave.ecall("unseal", enclave.ecall("seal", payload))[0] == payload


class TestMigratableCounters:
    def test_create_returns_sequential_ids(self, world):
        _, app = world
        enclave = app.start_new()
        assert enclave.ecall("create_counter") == (0, 0)
        assert enclave.ecall("create_counter") == (1, 0)

    def test_increment_and_read(self, world):
        _, app = world
        enclave = app.start_new()
        counter_id, _ = enclave.ecall("create_counter")
        assert enclave.ecall("increment_counter", counter_id) == 1
        assert enclave.ecall("increment_counter", counter_id) == 2
        assert enclave.ecall("read_counter", counter_id) == 2

    def test_destroy(self, world):
        _, app = world
        enclave = app.start_new()
        counter_id, _ = enclave.ecall("create_counter")
        assert enclave.ecall("destroy_counter", counter_id) is SgxStatus.SGX_SUCCESS
        with pytest.raises(CounterNotFoundError):
            enclave.ecall("read_counter", counter_id)

    def test_destroyed_slot_reusable(self, world):
        _, app = world
        enclave = app.start_new()
        counter_id, _ = enclave.ecall("create_counter")
        enclave.ecall("destroy_counter", counter_id)
        new_id, value = enclave.ecall("create_counter")
        assert new_id == counter_id and value == 0  # fresh counter, same slot

    def test_unknown_counter_id(self, world):
        _, app = world
        enclave = app.start_new()
        with pytest.raises(CounterNotFoundError):
            enclave.ecall("read_counter", 7)

    def test_out_of_range_counter_id(self, world):
        _, app = world
        enclave = app.start_new()
        with pytest.raises(InvalidParameterError):
            enclave.ecall("read_counter", 256)
        with pytest.raises(InvalidParameterError):
            enclave.ecall("read_counter", -1)

    def test_counter_uuids_survive_restart(self, world):
        _, app = world
        enclave = app.start_new()
        counter_id, _ = enclave.ecall("create_counter")
        enclave.ecall("increment_counter", counter_id)
        enclave.ecall("increment_counter", counter_id)
        enclave = app.restart()
        assert enclave.ecall("read_counter", counter_id) == 2

    def test_overflow_guard(self, world):
        dc, app = world
        enclave = app.start_new()
        counter_id, _ = enclave.ecall("create_counter")
        # Force a huge offset (as a migration would after ~2^32 increments).
        enclave.trusted.miglib._state.counter_offsets[counter_id] = 0xFFFFFFFF
        with pytest.raises(SgxError) as excinfo:
            enclave.ecall("increment_counter", counter_id)
        assert excinfo.value.status is SgxStatus.SGX_ERROR_MC_USED_UP


class TestFreeze:
    def test_migration_start_freezes(self, world):
        dc, app = world
        enclave = app.start_new()
        enclave.ecall("create_counter")
        enclave.ecall("migration_start", "machine-b")
        assert enclave.ecall("is_frozen")
        with pytest.raises(InvalidStateError):
            enclave.ecall("seal", b"after-freeze")
        with pytest.raises(InvalidStateError):
            enclave.ecall("create_counter")

    def test_frozen_buffer_refuses_restore(self, world):
        dc, app = world
        enclave = app.start_new()
        enclave.ecall("migration_start", "machine-b")
        with pytest.raises(InvalidStateError):
            app.restart()

    def test_double_migration_rejected(self, world):
        """After a CONFIRMED migration nothing is pending, so a second
        migration_start (now a retry request) has nothing to resend."""
        dc, app = world
        enclave = app.start_new()
        enclave.ecall("migration_start", "machine-b")
        # complete delivery on the destination so the pending copy is released
        dest_app = MigratableApp.deploy(
            dc, dc.machine("machine-b"), MigratableBenchEnclave, app.signing_key,
            vm_name="dest-vm",
        )
        dest_app.launch_from_incoming()
        with pytest.raises(MigrationError):
            enclave.ecall("migration_start", "machine-b")

    def test_counters_destroyed_before_send(self, world):
        dc, app = world
        enclave = app.start_new()
        counter_id, _ = enclave.ecall("create_counter")
        uuid = enclave.trusted.miglib._state.counter_uuids[counter_id]
        enclave.ecall("migration_start", "machine-b")
        machine_a = dc.machine("machine-a")
        assert not machine_a.pse.counter_exists(uuid.counter_id)
        assert machine_a.pse.was_destroyed(uuid.counter_id)
