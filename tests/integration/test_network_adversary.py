"""Network adversaries during migration (the SGX threat model on the wire).

The adversary controls the data-center network.  These tests verify that

* **eavesdropping** never reveals the MSK or counter values in transit;
* **tampering** with the ME↔ME traffic aborts the migration cleanly, with
  the data retained for retry;
* **dropping** messages behaves like any network fault: no state is lost,
  no fork window opens.
"""

import pytest

from repro.apps.counter_app import MigratableBenchEnclave
from repro.cloud.datacenter import DataCenter
from repro.core.protocol import MigratableApp, flush_staged, install_all_migration_enclaves
from repro.errors import MigrationError
from repro.sgx.identity import SigningKey
from tests.adversary import tap


@pytest.fixture
def world():
    dc = DataCenter(name="netadv", seed=71)
    dc.add_machine("machine-a")
    dc.add_machine("machine-b")
    hosts = install_all_migration_enclaves(dc)
    key = SigningKey.generate(dc.rng.child("dev"))
    app = MigratableApp.deploy(dc, dc.machine("machine-a"), MigratableBenchEnclave, key)
    return dc, hosts, app


class TestEavesdropping:
    def test_msk_never_on_the_wire(self, world):
        dc, hosts, app = world
        enclave = app.start_new()
        counter_id, _ = enclave.ecall("create_counter")
        for _ in range(3):
            enclave.ecall("increment_counter", counter_id)
        msk = bytes(enclave.trusted.miglib._state.msk)
        assert len(msk) == 16

        captured: list[bytes] = []

        def sniffer(src, dst, payload, direction):
            captured.append(bytes(payload))
            return payload

        with tap(dc.network, sniffer):
            app.migrate(dc.machine("machine-b"), migrate_vm=False)

        wire_bytes = b"".join(captured)
        assert len(wire_bytes) > 1000  # we really did capture the migration
        assert msk not in wire_bytes, "MSK leaked in plaintext on the wire!"

    def test_library_state_blob_never_on_the_wire(self, world):
        """The Table II buffer (with UUIDs + offsets) stays local/sealed."""
        dc, hosts, app = world
        enclave = app.start_new()
        enclave.ecall("create_counter")
        state_bytes = enclave.trusted.miglib._state.to_bytes()

        captured: list[bytes] = []
        with tap(dc.network, lambda s, d, p, _: (captured.append(bytes(p)), p)[1]):
            app.migrate(dc.machine("machine-b"), migrate_vm=False)
        assert state_bytes not in b"".join(captured)


class TestTampering:
    def test_corrupting_me_traffic_aborts_cleanly(self, world):
        dc, hosts, app = world
        enclave = app.start_new()
        counter_id, _ = enclave.ecall("create_counter")
        enclave.ecall("increment_counter", counter_id)
        mrenclave = enclave.identity.mrenclave

        def corrupt_cross_host(src, dst, payload, direction):
            if src == "machine-a" and dst.startswith("machine-b/"):
                flipped = bytearray(payload)
                flipped[len(flipped) // 2] ^= 0xFF
                return bytes(flipped)
            return payload

        with tap(dc.network, corrupt_cross_host):
            enclave.ecall("migration_start", "machine-b")
            with pytest.raises(MigrationError):
                flush_staged(app.app, "machine-b")

        # data retained at the source ME; retry succeeds once the path heals
        assert hosts["machine-a"].enclave.ecall("has_pending_outgoing", mrenclave)
        enclave.ecall("migration_start", "machine-b")
        flush_staged(app.app, "machine-b")
        app.app.terminate()
        app.vm.machine.release_vm(app.vm)
        dc.machine("machine-b").adopt_vm(app.vm)
        migrated = app.launch_from_incoming()
        assert migrated.ecall("read_counter", counter_id) == 1

    def test_dropped_transfer_keeps_data_at_source(self, world):
        dc, hosts, app = world
        enclave = app.start_new()
        mrenclave = enclave.identity.mrenclave

        def drop_cross_host(src, dst, payload, direction):
            if src == "machine-a" and dst.startswith("machine-b/"):
                return None
            return payload

        with tap(dc.network, drop_cross_host):
            enclave.ecall("migration_start", "machine-b")
            with pytest.raises(MigrationError):
                flush_staged(app.app, "machine-b")
        assert hosts["machine-a"].enclave.ecall("has_pending_outgoing", mrenclave)

    def test_replayed_transfer_cannot_duplicate_delivery(self, world):
        """Replaying captured ME->ME traffic cannot deliver the migration
        data twice: the RA-session records are sequence-numbered."""
        from repro import wire as wire_mod

        dc, hosts, app = world
        enclave = app.start_new()
        counter_id, _ = enclave.ecall("create_counter")

        recorded: list[tuple[str, bytes]] = []

        def recorder(src, dst, payload, direction):
            if src == "machine-a" and dst == "machine-b/me":
                recorded.append((dst, bytes(payload)))
            return payload

        with tap(dc.network, recorder):
            enclave.ecall("migration_start", "machine-b")
            flush_staged(app.app, "machine-b")

        # complete the legitimate delivery
        app.app.terminate()
        app.vm.machine.release_vm(app.vm)
        dc.machine("machine-b").adopt_vm(app.vm)
        migrated = app.launch_from_incoming()
        mrenclave = migrated.identity.mrenclave
        assert not hosts["machine-b"].enclave.ecall("has_incoming", mrenclave)

        # now replay every recorded message at the destination ME
        for dst, payload in recorded:
            response = wire_mod.decode(dc.network.send("adversary", dst, payload))
            # session records fail their sequence/MAC checks
            if wire_mod.decode(payload).get("t") == "ra_rec":
                assert response.get("status") == "error"
        # the replay must NOT have re-materialized the migration data
        assert not hosts["machine-b"].enclave.ecall("has_incoming", mrenclave)
