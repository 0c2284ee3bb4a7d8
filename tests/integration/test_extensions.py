"""Future-work features: combined live migration and semi-transparency."""

import pytest

from repro.cloud.datacenter import DataCenter
from repro.core.combined import FullyMigratableEnclave, LiveMigratableApp
from repro.core.protocol import MigratableApp, install_all_migration_enclaves
from repro.core.result import MigrationOutcome
from repro.core.transparent import SemiTransparentMigrator
from repro.apps.kvstore import SecureKvStore
from repro.errors import MigrationError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.sgx.enclave import ecall
from repro.sgx.identity import SigningKey


class LiveStatefulEnclave(FullyMigratableEnclave):
    """An enclave with BOTH live memory and persistent state."""

    def __init__(self, sdk):
        super().__init__(sdk)
        self.session_cache: dict[str, str] = {}  # live memory, never sealed
        self.counter_id = None

    @ecall
    def setup(self):
        self.counter_id, _ = self.miglib.create_migratable_counter()

    @ecall
    def record_session(self, user: str, token: str):
        self.session_cache[user] = token
        return self.miglib.increment_migratable_counter(self.counter_id)

    @ecall
    def session_of(self, user: str) -> str:
        return self.session_cache[user]

    @ecall
    def counter_value(self) -> int:
        return self.miglib.read_migratable_counter(self.counter_id)

    # ---- Gu memory interface: the live session cache + bindings ----
    def get_memory_image(self) -> bytes:
        from repro import wire

        users = sorted(self.session_cache)
        return wire.encode(
            {
                "users": list(users),
                "tokens": [self.session_cache[u] for u in users],
                "counter_id": -1 if self.counter_id is None else self.counter_id,
            }
        )

    def set_memory_image(self, image: bytes) -> None:
        from repro import wire

        fields = wire.decode(image)
        self.session_cache = dict(zip(fields["users"], fields["tokens"]))
        self.counter_id = None if fields["counter_id"] < 0 else fields["counter_id"]


@pytest.fixture
def world():
    dc = DataCenter(name="ext", seed=19)
    machine_a = dc.add_machine("machine-a")
    machine_b = dc.add_machine("machine-b")
    install_all_migration_enclaves(dc)
    key = SigningKey.generate(dc.rng.child("dev"))
    return dc, machine_a, machine_b, key


class TestCombinedLiveMigration:
    def test_memory_and_persistent_state_both_survive(self, world):
        dc, machine_a, machine_b, key = world
        app = LiveMigratableApp.deploy(dc, machine_a, LiveStatefulEnclave, key)
        enclave = app.start_new()
        enclave.ecall("setup")
        enclave.ecall("record_session", "alice", "token-1")
        enclave.ecall("record_session", "bob", "token-2")

        migrated = app.live_migrate(machine_b)
        # live memory survived WITHOUT any seal/restore round trip
        assert migrated.ecall("session_of", "alice") == "token-1"
        assert migrated.ecall("session_of", "bob") == "token-2"
        # and persistent state continued too
        assert migrated.ecall("counter_value") == 2
        assert migrated.ecall("record_session", "carol", "token-3") == 3

    def test_source_fully_retired(self, world):
        dc, machine_a, machine_b, key = world
        app = LiveMigratableApp.deploy(dc, machine_a, LiveStatefulEnclave, key)
        enclave = app.start_new()
        enclave.ecall("setup")
        app.live_migrate(machine_b)
        assert not enclave.alive

    def test_live_migrate_requires_running_enclave(self, world):
        dc, machine_a, machine_b, key = world
        app = LiveMigratableApp.deploy(dc, machine_a, LiveStatefulEnclave, key)
        with pytest.raises(MigrationError):
            app.live_migrate(machine_b)

    def test_combined_identity_measures_both_libraries(self, world):
        """Both the Migration Library and the Gu machinery are part of the
        enclave's measured identity."""
        from repro.sgx.measurement import measure_source

        class OnlyMiglib(SecureKvStore):
            pass

        assert measure_source(LiveStatefulEnclave) != measure_source(OnlyMiglib)


class TestSemiTransparentMigration:
    def test_whole_vm_migrates_with_enclaves(self, world):
        dc, machine_a, machine_b, key = world
        migrator = SemiTransparentMigrator(dc)

        app1 = MigratableApp.deploy(
            dc, machine_a, SecureKvStore, key, vm_name="tenant-vm", app_name="kv1",
            vm_memory=1 << 32,  # a 4 GiB guest, as in the paper's comparison
        )
        enclave1 = app1.start_new()
        enclave1.ecall("kv_init")
        snap1 = enclave1.ecall("put", "a", b"1")
        migrator.register(app1)

        # second enclave, a different build
        class SecondKvStore(SecureKvStore):
            pass

        app2 = MigratableApp(
            vm_name="tenant-vm", app_name="kv2", enclave_class=SecondKvStore,
            signing_key=SigningKey.generate(dc.rng.child("dev2")), dc=dc,
        )
        app2.vm = app1.vm
        app2.app = app1.vm.launch_application("kv2")
        enclave2 = app2.start_new()
        enclave2.ecall("kv_init")
        snap2 = enclave2.ecall("put", "b", b"2")
        migrator.register(app2)

        report = migrator.migrate_vm(app1.vm, machine_b)
        assert report.enclaves_migrated == 2
        assert app1.vm.machine is machine_b
        # the paper's performance goal: enclave overhead well under VM time
        assert report.vm_migration_seconds > 1.0
        assert report.enclave_overhead_seconds < report.vm_migration_seconds

        # both enclaves are back up with their state
        app1.enclave.ecall("load_snapshot", snap1)
        assert app1.enclave.ecall("get", "a") == b"1"
        app2.enclave.ecall("load_snapshot", snap2)
        assert app2.enclave.ecall("get", "b") == b"2"

    def test_enclaves_of_one_build_keep_their_own_state(self, world):
        """Two enclaves of one build in one VM share an MRENCLAVE: each
        ships under its own transaction, so neither record overwrites the
        other at either ME and each app gets its own MSK back."""
        dc, machine_a, machine_b, key = world
        migrator = SemiTransparentMigrator(dc)
        first = MigratableApp.deploy(
            dc, machine_a, SecureKvStore, key, vm_name="shared-vm", app_name="kv1"
        )
        second = MigratableApp(
            vm_name="shared-vm", app_name="kv2", enclave_class=SecureKvStore,
            signing_key=key, dc=dc,
        )
        second.vm = first.vm
        second.app = first.vm.launch_application("kv2")
        snapshots = []
        for index, app in enumerate((first, second)):
            enclave = app.start_new()
            enclave.ecall("kv_init")
            snapshots.append(enclave.ecall("put", f"key-{index}", bytes([index])))
            migrator.register(app)

        report = migrator.migrate_vm(first.vm, machine_b)
        assert report.enclaves_migrated == 2
        for index, (app, snapshot) in enumerate(zip((first, second), snapshots)):
            app.enclave.ecall("load_snapshot", snapshot)
            assert app.enclave.ecall("get", f"key-{index}") == bytes([index])

    def test_vm_without_enclaves_rejected(self, world):
        dc, machine_a, machine_b, key = world
        migrator = SemiTransparentMigrator(dc)
        vm = machine_a.create_vm("empty-vm")
        with pytest.raises(MigrationError):
            migrator.migrate_vm(vm, machine_b)


class TestParkedTransactionGuard:
    """``migrate_vm`` and ``live_migrate`` never freeze or ship an enclave
    whose migration transaction is parked: a second transaction would
    leave the first record armed at the destination ME."""

    @staticmethod
    def park(app_class, enclave_class):
        """Seed 3, one app in ``tenant-vm`` on machine-a whose migration to
        machine-b parked (every ``ra_msg1`` dropped)."""
        dc = DataCenter(name="ext", seed=3)
        machine_a = dc.add_machine("machine-a")
        machine_b = dc.add_machine("machine-b")
        hosts = install_all_migration_enclaves(dc)
        key = SigningKey.generate(dc.rng.child("dev"))
        app = app_class.deploy(
            dc, machine_a, enclave_class, key, vm_name="tenant-vm", app_name="kv1"
        )
        app.start_new()
        dc.network.fault_injector = FaultInjector(
            plan=FaultPlan().drop(msg_type="ra_msg1", max_triggers=10_000),
            rng=dc.rng.child("faults"),
            machines=dict(dc.machines),
            meter=dc.meter,
        )
        parked = app.migrate(machine_b, migrate_vm=False)
        dc.network.fault_injector = None
        assert parked.outcome is MigrationOutcome.PENDING_RETRY
        assert parked.txn_id == "kv1-txn-1"
        return app, machine_b, hosts

    @staticmethod
    def finish(app, machine_b, hosts):
        mrenclave = app.enclave.identity.mrenclave
        resumed = app.resume()
        assert resumed.outcome is MigrationOutcome.RESUMED
        assert resumed.txn_id == "kv1-txn-1"
        assert app.app.machine is machine_b
        for host in hosts.values():
            assert not host.enclave.ecall("has_incoming", mrenclave)

    def test_migrate_vm_refuses_a_parked_member(self):
        app, machine_b, hosts = self.park(MigratableApp, SecureKvStore)
        migrator = SemiTransparentMigrator(app.dc)
        migrator.register(app)
        with pytest.raises(MigrationError, match="kv1-txn-1"):
            migrator.migrate_vm(app.vm, machine_b)
        assert app.vm.machine is not machine_b
        self.finish(app, machine_b, hosts)

    def test_live_migrate_refuses_a_parked_app(self):
        app, machine_b, hosts = self.park(LiveMigratableApp, LiveStatefulEnclave)
        with pytest.raises(MigrationError, match="kv1-txn-1"):
            app.live_migrate(machine_b)
        self.finish(app, machine_b, hosts)
