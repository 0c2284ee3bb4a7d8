"""Semi-transparent migration (Section X of the paper).

Fully transparent enclave migration is impossible on SGX without hardware
changes, but the paper observes the next-best thing: "having the hypervisor
or management VM locate and call the migrate() function of all enclaves
associated with a particular VM.  The migration process will then take place
as described in this paper, but will essentially be transparent to the
applications and OS of the guest VM."

:class:`SemiTransparentMigrator` implements that management-VM component: a
registry mapping guest VMs to the migratable applications inside them, and
one ``migrate_vm`` call that notifies every enclave, live-migrates the VM,
and re-initializes every enclave on the destination — no application-level
involvement beyond having registered at deploy time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cloud.datacenter import DataCenter
from repro.cloud.machine import PhysicalMachine
from repro.cloud.vm import VirtualMachine
from repro.core.migration_library import InitState
from repro.core.protocol import MigratableApp, flush_staged
from repro.errors import MigrationError
from repro.sgx.enclave import Enclave


@dataclass
class TransparentMigrationReport:
    """What one semi-transparent VM migration did."""

    vm_name: str
    destination: str
    enclaves_migrated: int
    vm_migration_seconds: float
    enclave_overhead_seconds: float


@dataclass
class SemiTransparentMigrator:
    """The management-VM component driving whole-VM enclave migration."""

    dc: DataCenter
    _registry: dict[str, list[MigratableApp]] = field(default_factory=dict)

    def register(self, mapp: MigratableApp) -> None:
        """Called at deployment time: associate a migratable application
        with its guest VM so the operator can migrate the VM later."""
        self._registry.setdefault(mapp.vm.name, []).append(mapp)

    def registered_apps(self, vm: VirtualMachine) -> list[MigratableApp]:
        return list(self._registry.get(vm.name, []))

    def migrate_vm(
        self, vm: VirtualMachine, destination: PhysicalMachine
    ) -> TransparentMigrationReport:
        """Migrate a guest VM together with every enclave inside it.

        The guest applications do nothing: the migrator calls each
        enclave's ``migration_start`` under its own transaction, flushes
        them to the destination in one batch, live-migrates the VM, and
        brings every enclave back up from its migration data there.  A VM
        with an app whose migration transaction is in progress is refused
        before anything freezes; that app's ``resume`` finishes it first.
        """
        apps = self.registered_apps(vm)
        for mapp in apps:
            mapp._journaled_txn(None)
        clock = self.dc.clock
        overhead_start = clock.now

        # Phase 1: notify every migratable enclave (the paper's step 1-3).
        # Distinct transactions keep enclaves of one build apart at the MEs.
        active: list[tuple[MigratableApp, str]] = []
        for mapp in apps:
            enclave = mapp.enclave
            if enclave is None or not enclave.alive:
                continue
            txn = mapp._next_txn()
            enclave.ecall("migration_start", destination.address, txn)
            active.append((mapp, txn))
        if not active:
            raise MigrationError(f"no live migratable enclaves in VM {vm.name!r}")
        flush_staged(active[0][0].app, destination.address)
        for mapp, _ in active:
            mapp.app.terminate()
        enclave_phase1 = clock.now - overhead_start

        # Phase 2: ordinary live VM migration.
        vm_start = clock.now
        self.dc.hypervisor.migrate_vm(vm, destination)
        vm_seconds = clock.now - vm_start

        # Phase 3: restart every enclave from its incoming migration data.
        restart_start = clock.now
        migrated: list[Enclave] = []
        for mapp, txn in active:
            migrated.append(mapp.launch(InitState.MIGRATE, txn_id=txn))
        enclave_overhead = enclave_phase1 + (clock.now - restart_start)

        return TransparentMigrationReport(
            vm_name=vm.name,
            destination=destination.name,
            enclaves_migrated=len(migrated),
            vm_migration_seconds=vm_seconds,
            enclave_overhead_seconds=enclave_overhead,
        )
