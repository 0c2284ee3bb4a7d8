"""Future-work features: combined live migration and semi-transparency."""

import pytest

from repro import wire
from repro.cloud.datacenter import DataCenter
from repro.cloud.storage import PHASE_PREPARE, MigrationJournal
from repro.core.combined import FullyMigratableEnclave, LiveMigratableApp
from repro.core.protocol import MigratableApp, install_all_migration_enclaves
from repro.core.result import MigrationOutcome
from repro.core.transparent import SemiTransparentMigrator
from repro.apps.counter_app import MigratableBenchEnclave
from repro.apps.kvstore import SecureKvStore
from repro.errors import MigrationError, MigrationPendingError, TransientError
from repro.faults.chaos import World, check_invariants
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.sgx.enclave import ecall
from repro.sgx.identity import SigningKey
from tests.adversary import tap


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


def _seed3_world(*machines):
    """Seed 3 with the MEs installed on ``machines``."""
    dc = DataCenter(name="ext", seed=3)
    for name in machines:
        dc.add_machine(name)
    hosts = install_all_migration_enclaves(dc)
    return dc, hosts, SigningKey.generate(dc.rng.child("dev"))


def _join_vm(first, app_name, enclave_class, key):
    """A second migratable app, of ``first``'s class, inside ``first``'s VM."""
    second = type(first)(
        vm_name=first.vm_name, app_name=app_name, enclave_class=enclave_class,
        signing_key=key, dc=first.dc,
    )
    second.vm = first.vm
    second.app = first.vm.launch_application(app_name)
    return second


def _drop_every_ra_msg1(dc):
    dc.network.fault_injector = FaultInjector(
        plan=FaultPlan().drop(msg_type="ra_msg1", max_triggers=10_000),
        rng=dc.rng.child("faults"),
        machines=dict(dc.machines),
        meter=dc.meter,
    )


def _assert_nothing_incoming(hosts, *apps):
    for app in apps:
        mrenclave = app.enclave.identity.mrenclave
        for host in hosts.values():
            assert not host.enclave.ecall("has_incoming", mrenclave)


def _journal(app, machine):
    return MigrationJournal(machine.storage, app.app_name).read()


class TestSharedVm:
    """A VM moves once, and only with every migratable app inside it."""

    @staticmethod
    def world(second_class=SecureKvStore):
        """Seed 3: ``kv1`` and ``kv2`` in ``tenant-vm`` on machine-a, both
        registered for ``migrate_vm``; each has stored its name under
        ``b"v"``, and ``snapshots`` holds the sealed stores."""
        dc, hosts, key = _seed3_world("machine-a", "machine-b")
        kv1 = MigratableApp.deploy(
            dc, dc.machine("machine-a"), SecureKvStore, key,
            vm_name="tenant-vm", app_name="kv1",
        )
        kv2 = _join_vm(kv1, "kv2", second_class, key)
        migrator = SemiTransparentMigrator(dc)
        snapshots = {}
        for app in (kv1, kv2):
            enclave = app.start_new()
            enclave.ecall("kv_init")
            snapshots[app.app_name] = enclave.ecall("put", app.app_name, b"v")
            migrator.register(app)
        return dc, hosts, migrator, kv1, kv2, snapshots

    @staticmethod
    def assert_left_in_place(dc, kv1, kv2, snapshots):
        """Nothing froze or moved, and ``kv2`` restarts from its state."""
        machine_a = dc.machine("machine-a")
        assert kv1.vm.machine is machine_a
        assert not kv1.enclave.ecall("is_frozen")
        assert _journal(kv1, machine_a) is None
        kv2.restart().ecall("load_snapshot", snapshots["kv2"])
        assert kv2.enclave.ecall("get", "kv2") == b"v"
        assert kv2.app.machine is machine_a

    def test_migrate_group_moves_the_vm_once(self, monkeypatch):
        dc, hosts, _, kv1, kv2, _ = self.world()
        moved = []
        move = dc.hypervisor.migrate_vm
        monkeypatch.setattr(
            dc.hypervisor, "migrate_vm",
            lambda vm, destination: moved.append(vm.name) or move(vm, destination),
        )
        machine_b = dc.machine("machine-b")
        results = MigratableApp.migrate_group([kv1, kv2], machine_b, migrate_vm=True)
        assert [r.outcome for r in results] == [MigrationOutcome.COMPLETED] * 2
        assert [r.txn_id for r in results] == ["kv1-txn-1", "kv2-txn-1"]
        assert moved == ["tenant-vm"]
        assert kv1.vm.machine is machine_b
        for app in (kv1, kv2):
            assert app.enclave.ecall("migration_ready")
            for machine in dc.machines.values():
                assert _journal(app, machine) is None
        _assert_nothing_incoming(hosts, kv1, kv2)

    def test_migrate_vm_refuses_a_terminated_member(self):
        class SecondKvStore(SecureKvStore):
            pass

        dc, _, migrator, kv1, kv2, snapshots = self.world(SecondKvStore)
        kv2.app.terminate()
        with pytest.raises(MigrationError, match="kv2"):
            migrator.migrate_vm(kv1.vm, dc.machine("machine-b"))
        self.assert_left_in_place(dc, kv1, kv2, snapshots)

    def test_migrate_refuses_to_leave_a_vm_member_behind(self):
        class SecondKvStore(SecureKvStore):
            pass

        dc, _, _, kv1, kv2, snapshots = self.world(SecondKvStore)
        with pytest.raises(MigrationError, match="kv2"):
            kv1.migrate(dc.machine("machine-b"))
        self.assert_left_in_place(dc, kv1, kv2, snapshots)

    def test_vm_waits_for_a_member_that_did_not_ship(self):
        """A tap drops every local-attestation hello to machine-a's ME
        after ``kv1``'s: ``kv1`` ships, ``kv2`` cannot stage, so the VM
        stays and both park; the next ``migrate_vm`` finishes both under
        their first transactions."""
        dc, hosts, migrator, kv1, kv2, _ = self.world()
        machine_a, machine_b = dc.machine("machine-a"), dc.machine("machine-b")
        hellos = []

        def drop_later_stages(src, dst, payload, direction):
            if direction == "request" and dst == "machine-a/me" and (
                wire.decode(payload).get("t") == "la_hello"
            ):
                hellos.append(payload)
                if len(hellos) > 1:
                    return None
            return payload

        with tap(dc.network, drop_later_stages):
            with pytest.raises(MigrationPendingError, match="kv2"):
                migrator.migrate_vm(kv1.vm, machine_b)
        assert kv1.vm.machine is machine_a
        for app in (kv1, kv2):
            record = _journal(app, machine_a)
            assert (record.role, record.txn_id) == ("source", f"{app.app_name}-txn-1")
            assert app.enclave.ecall("is_frozen")

        report = migrator.migrate_vm(kv1.vm, machine_b)
        assert [r.outcome for r in report.results] == [MigrationOutcome.RESUMED] * 2
        assert [r.txn_id for r in report.results] == ["kv1-txn-1", "kv2-txn-1"]
        assert kv1.vm.machine is machine_b
        _assert_nothing_incoming(hosts, kv1, kv2)

    def test_migrate_vm_relaunches_a_member_that_died_parked(self):
        """Both members park (every ``ra_msg1`` dropped), then ``kv1``'s
        process crashes: the next ``migrate_vm`` relaunches it from its
        frozen library state and finishes both transactions."""
        dc, hosts, key = _seed3_world("machine-a", "machine-b")
        machine_b = dc.machine("machine-b")
        kv1 = MigratableApp.deploy(
            dc, dc.machine("machine-a"), MigratableBenchEnclave, key,
            vm_name="tenant-vm", app_name="kv1",
        )
        kv2 = _join_vm(kv1, "kv2", MigratableBenchEnclave, key)
        migrator = SemiTransparentMigrator(dc)
        world = World(
            dc=dc, apps=[kv1, kv2], counter_ids=[], counter_targets=[2, 2],
            me_signer=key, dev_key=key,
        )
        for index, app in enumerate(world.apps):
            enclave = app.start_new()
            # One extra counter in kv2 gives each app its own tracked id.
            for _ in range(index):
                enclave.ecall("create_counter")
            counter_id, _ = enclave.ecall("create_counter")
            enclave.ecall("increment_counter", counter_id)
            enclave.ecall("increment_counter", counter_id)
            world.counter_ids.append(counter_id)
            migrator.register(app)
        _drop_every_ra_msg1(dc)
        with pytest.raises(TransientError):
            migrator.migrate_vm(kv1.vm, machine_b)
        dc.network.fault_injector = None
        kv1.app.crash()

        report = migrator.migrate_vm(kv1.vm, machine_b)
        assert [r.outcome for r in report.results] == [MigrationOutcome.RESUMED] * 2
        assert [r.txn_id for r in report.results] == ["kv1-txn-1", "kv2-txn-1"]
        assert kv1.vm.machine is machine_b
        _assert_nothing_incoming(hosts, kv1, kv2)
        assert check_invariants(world) == []

    def test_live_wave_refuses_two_members_of_one_vm(self):
        """A live hand-over retires the source VM, so a wave may not take
        two live apps out of one VM: refused before anything freezes."""
        dc, _, key = _seed3_world("machine-a", "machine-b")
        machine_a = dc.machine("machine-a")
        kv1 = LiveMigratableApp.deploy(
            dc, machine_a, LiveStatefulEnclave, key,
            vm_name="tenant-vm", app_name="kv1",
        )
        kv2 = _join_vm(kv1, "kv2", LiveStatefulEnclave, key)
        for app in (kv1, kv2):
            app.start_new().ecall("setup")
        with pytest.raises(MigrationError, match="kv1 and kv2"):
            LiveMigratableApp.migrate_group([kv1, kv2], dc.machine("machine-b"))
        for app in (kv1, kv2):
            assert not app.enclave.ecall("is_frozen")
            assert app.app.machine is machine_a
            for machine in dc.machines.values():
                assert _journal(app, machine) is None


class TestJournaledFreeze:
    """``migrate_vm`` and ``live_migrate`` journal their freezes, so a
    parked one is continued under the same transaction (R3)."""

    def test_parked_migrate_vm_is_resumed_under_its_transaction(self):
        dc, hosts, key = _seed3_world("machine-a", "machine-b")
        machine_a, machine_b = dc.machine("machine-a"), dc.machine("machine-b")
        app = MigratableApp.deploy(
            dc, machine_a, SecureKvStore, key, vm_name="tenant-vm", app_name="kv1"
        )
        app.start_new()
        migrator = SemiTransparentMigrator(dc)
        migrator.register(app)
        _drop_every_ra_msg1(dc)
        with pytest.raises(TransientError):
            migrator.migrate_vm(app.vm, machine_b)
        dc.network.fault_injector = None
        record = _journal(app, machine_a)
        assert (record.txn_id, record.phase) == ("kv1-txn-1", PHASE_PREPARE)

        resumed = app.resume()
        assert resumed.outcome is MigrationOutcome.RESUMED
        assert resumed.txn_id == "kv1-txn-1"
        assert app.app.machine is machine_b
        _assert_nothing_incoming(hosts, app)

    def test_parked_live_migrate_is_continued_by_the_next_call(self):
        dc, hosts, key = _seed3_world("machine-a", "machine-b")
        machine_b = dc.machine("machine-b")
        app = LiveMigratableApp.deploy(
            dc, dc.machine("machine-a"), LiveStatefulEnclave, key,
            vm_name="tenant-vm", app_name="kv1",
        )
        enclave = app.start_new()
        enclave.ecall("setup")
        enclave.ecall("record_session", "alice", "token-1")
        _drop_every_ra_msg1(dc)
        parked = app.live_migrate(machine_b)
        dc.network.fault_injector = None
        assert parked.outcome is MigrationOutcome.PENDING_RETRY
        assert parked.txn_id == "kv1-txn-1"

        resumed = app.live_migrate(machine_b)
        assert resumed.outcome is MigrationOutcome.RESUMED
        assert resumed.txn_id == "kv1-txn-1"
        assert resumed.ecall("session_of", "alice") == "token-1"
        assert resumed.ecall("counter_value") == 1
        _assert_nothing_incoming(hosts, app)


class TestParkedTransactionGuard:
    """A parked transaction is continued by ``migrate_vm`` or
    ``live_migrate`` to its destination, and refused toward any other: a
    second transaction would leave the first record armed at the
    destination ME."""

    @staticmethod
    def park(app_class, enclave_class, destination):
        """Seed 3, one app in ``tenant-vm`` on machine-a whose migration to
        ``destination`` parked (every ``ra_msg1`` dropped)."""
        dc, hosts, key = _seed3_world("machine-a", "machine-b", "machine-c")
        app = app_class.deploy(
            dc, dc.machine("machine-a"), enclave_class, key,
            vm_name="tenant-vm", app_name="kv1",
        )
        app.start_new()
        if enclave_class is LiveStatefulEnclave:
            app.enclave.ecall("setup")
            app.enclave.ecall("record_session", "alice", "token-1")
        _drop_every_ra_msg1(dc)
        parked = app.migrate(dc.machine(destination), migrate_vm=False)
        dc.network.fault_injector = None
        assert parked.outcome is MigrationOutcome.PENDING_RETRY
        assert parked.txn_id == "kv1-txn-1"
        return app, hosts

    @staticmethod
    def assert_continued(result, app, hosts, destination):
        assert result.outcome is MigrationOutcome.RESUMED
        assert result.txn_id == "kv1-txn-1"
        assert app.app.machine is app.dc.machine(destination)
        _assert_nothing_incoming(hosts, app)

    def test_migrate_vm_continues_a_parked_member(self):
        app, hosts = self.park(MigratableApp, SecureKvStore, "machine-b")
        migrator = SemiTransparentMigrator(app.dc)
        migrator.register(app)
        (result,) = migrator.migrate_vm(app.vm, app.dc.machine("machine-b")).results
        self.assert_continued(result, app, hosts, "machine-b")

    def test_live_migrate_continues_a_parked_app(self):
        app, hosts = self.park(LiveMigratableApp, LiveStatefulEnclave, "machine-b")
        result = app.live_migrate(app.dc.machine("machine-b"))
        self.assert_continued(result, app, hosts, "machine-b")
        assert result.ecall("session_of", "alice") == "token-1"

    def test_migrate_vm_refuses_a_parked_member(self):
        app, hosts = self.park(MigratableApp, SecureKvStore, "machine-c")
        migrator = SemiTransparentMigrator(app.dc)
        migrator.register(app)
        with pytest.raises(MigrationError, match="kv1-txn-1"):
            migrator.migrate_vm(app.vm, app.dc.machine("machine-b"))
        assert app.vm.machine is app.dc.machine("machine-a")
        self.assert_continued(app.resume(), app, hosts, "machine-c")

    def test_live_migrate_refuses_a_parked_app(self):
        app, hosts = self.park(LiveMigratableApp, LiveStatefulEnclave, "machine-c")
        with pytest.raises(MigrationError, match="kv1-txn-1"):
            app.live_migrate(app.dc.machine("machine-b"))
        self.assert_continued(app.resume(), app, hosts, "machine-c")
