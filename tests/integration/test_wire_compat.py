"""Wire-compatibility pins for the five public migration entry points.

``migrate``, ``migrate_group``, ``live_migrate``, ``migrate_vm`` and the
source side of ``resume`` all run one wave (``MigratableApp._execute``, see
``repro.core.api``); ``live_migrate`` swaps in the live relocation step and
``migrate_vm`` moves a VM holding two enclaves once.  These pins fix the
exact byte sequence each entry point puts on the simulated network, so a
refactor of the host migration code is pure plumbing only if they hold.
The golden file (``tests/golden/wire_traces_seed0.json``) stores one
``src->dst:sha256`` line per network leg.

Caveat for future editors: ``WireProbeEnclave``'s class source below is part
of its measured identity (MRENCLAVE), which flows into attestation payloads.
Editing that class — or any class listed in its ``MEASURED_LIBRARIES`` —
legitimately changes the ``live_migrate`` trace and requires regenerating
the golden file (see ``regenerate_golden`` at the bottom).
"""

import hashlib
import json
from pathlib import Path

from repro.apps.counter_app import MigratableBenchEnclave
from repro.cloud.datacenter import DataCenter
from repro.core.combined import FullyMigratableEnclave, LiveMigratableApp
from repro.core.protocol import MigratableApp, install_all_migration_enclaves
from repro.core.result import MigrationOutcome
from repro.core.transparent import SemiTransparentMigrator
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.sgx.enclave import ecall
from repro.sgx.identity import SigningKey
from tests.adversary import tap

GOLDEN = Path(__file__).resolve().parent.parent / "golden" / "wire_traces_seed0.json"


class WireProbeEnclave(FullyMigratableEnclave):
    """Minimal live-migratable enclave: one word of data memory."""

    def __init__(self, sdk):
        super().__init__(sdk)
        self.word = b""

    @ecall
    def put(self, word: bytes) -> None:
        self.word = bytes(word)

    @ecall
    def get(self) -> bytes:
        return self.word

    def get_memory_image(self) -> bytes:
        return self.word

    def set_memory_image(self, image: bytes) -> None:
        self.word = bytes(image)


def _tapped(dc, operation) -> list[str]:
    """Run ``operation`` with a network tap recording every leg's hash."""
    trace: list[str] = []

    def record(src, dst, payload, direction):
        trace.append(f"{src}->{dst}:{hashlib.sha256(payload).hexdigest()}")
        return payload

    with tap(dc.network, record):
        operation()
    return trace


def _world(name: str) -> tuple:
    dc = DataCenter(name=name, seed=0)
    machine_a = dc.add_machine("machine-a")
    machine_b = dc.add_machine("machine-b")
    install_all_migration_enclaves(dc)
    key = SigningKey.generate(dc.rng.child("wire-dev"))
    return dc, machine_a, machine_b, key


def migrate_trace() -> list[str]:
    dc, machine_a, machine_b, key = _world("wire-migrate")
    app = MigratableApp.deploy(dc, machine_a, MigratableBenchEnclave, key)
    enclave = app.start_new()
    counter_id, _ = enclave.ecall("create_counter")
    enclave.ecall("increment_counter", counter_id)
    trace = _tapped(dc, lambda: app.migrate(machine_b, migrate_vm=False))
    return trace


def migrate_group_trace() -> list[str]:
    dc, machine_a, machine_b, key = _world("wire-wave")
    apps = []
    for index in range(2):
        app = MigratableApp.deploy(
            dc,
            machine_a,
            MigratableBenchEnclave,
            key,
            vm_name=f"wire-vm-{index}",
            app_name=f"wire-app-{index}",
        )
        enclave = app.start_new()
        enclave.ecall("create_counter")
        apps.append(app)
    return _tapped(
        dc, lambda: MigratableApp.migrate_group(apps, machine_b, migrate_vm=False)
    )


def live_migrate_trace() -> list[str]:
    dc, machine_a, machine_b, key = _world("wire-live")
    app = LiveMigratableApp.deploy(dc, machine_a, WireProbeEnclave, key)
    enclave = app.start_new()
    enclave.ecall("put", b"hot-word")
    return _tapped(dc, lambda: app.live_migrate(machine_b))


def _shared_vm_world() -> tuple:
    """Two same-build enclaves in one VM, both registered for ``migrate_vm``."""
    dc, machine_a, machine_b, key = _world("wire-vm")
    migrator = SemiTransparentMigrator(dc)
    first = MigratableApp.deploy(
        dc, machine_a, MigratableBenchEnclave, key,
        vm_name="wire-vm", app_name="wire-app-0",
    )
    second = MigratableApp(
        vm_name="wire-vm", app_name="wire-app-1",
        enclave_class=MigratableBenchEnclave, signing_key=key, dc=dc,
    )
    second.vm = first.vm
    second.app = first.vm.launch_application("wire-app-1")
    for app in (first, second):
        enclave = app.start_new()
        counter_id, _ = enclave.ecall("create_counter")
        enclave.ecall("increment_counter", counter_id)
        migrator.register(app)
    return dc, migrator, first.vm, machine_b


def migrate_vm_trace() -> list[str]:
    dc, migrator, vm, machine_b = _shared_vm_world()
    return _tapped(dc, lambda: migrator.migrate_vm(vm, machine_b))


def resume_trace() -> list[str]:
    """Park a migration (every message dropped), then pin resume()'s bytes."""
    dc, machine_a, machine_b, key = _world("wire-resume")
    app = MigratableApp.deploy(dc, machine_a, MigratableBenchEnclave, key)
    enclave = app.start_new()
    counter_id, _ = enclave.ecall("create_counter")
    enclave.ecall("increment_counter", counter_id)
    dc.network.fault_injector = FaultInjector(
        plan=FaultPlan().drop(max_triggers=1000),
        rng=dc.rng.child("wire-faults"),
        machines=dict(dc.machines),
        meter=dc.meter,
    )
    parked = app.migrate(machine_b, migrate_vm=False)
    assert parked.outcome is MigrationOutcome.PENDING_RETRY
    dc.network.fault_injector = None
    return _tapped(dc, lambda: app.resume(migrate_vm=False))


ENTRY_POINTS = {
    "migrate": migrate_trace,
    "migrate_group": migrate_group_trace,
    "live_migrate": live_migrate_trace,
    "resume": resume_trace,
    "migrate_vm": migrate_vm_trace,
}


class TestWireCompatibility:
    def test_all_entry_points_match_golden_traces(self):
        golden = json.loads(GOLDEN.read_text())
        for name, capture in ENTRY_POINTS.items():
            assert capture() == golden[name], (
                f"{name} wire traffic drifted from the pre-refactor protocol"
            )

    def test_traces_are_seed_deterministic(self):
        assert migrate_trace() == migrate_trace()

    def test_migrate_vm_report_keeps_its_figures(self):
        """The shared VM moves once: the VM time is one live migration and
        the enclave overhead is everything else the call spent."""
        _, migrator, vm, machine_b = _shared_vm_world()
        report = migrator.migrate_vm(vm, machine_b)
        assert report.enclaves_migrated == 2
        assert report.vm_migration_seconds == 1.2822439127718623
        assert report.enclave_overhead_seconds == 1.6905122847652168


def regenerate_golden() -> None:  # pragma: no cover - maintenance helper
    """Recapture the pins (ONLY when a deliberate protocol change lands)."""
    GOLDEN.write_text(
        json.dumps({name: fn() for name, fn in ENTRY_POINTS.items()}, indent=2)
        + "\n"
    )


if __name__ == "__main__":  # pragma: no cover
    regenerate_golden()
    print(f"wrote {GOLDEN}")
