"""Semi-transparent migration (Section X of the paper).

Fully transparent enclave migration is impossible on SGX without hardware
changes, but the paper observes the next-best thing: "having the hypervisor
or management VM locate and call the migrate() function of all enclaves
associated with a particular VM.  The migration process will then take place
as described in this paper, but will essentially be transparent to the
applications and OS of the guest VM."

:class:`SemiTransparentMigrator` implements that management-VM component: a
registry mapping guest VMs to the migratable applications inside them, and
one ``migrate_vm`` call that runs them as one migration wave with the VM
(:meth:`~repro.core.protocol.MigratableApp.migrate_group`): every enclave is
journaled and notified, the VM moves once, and every enclave re-initializes
on the destination — no application-level involvement beyond having
registered at deploy time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cloud.datacenter import DataCenter
from repro.cloud.machine import PhysicalMachine
from repro.cloud.vm import VirtualMachine
from repro.core.protocol import MigratableApp
from repro.core.result import MigrationOutcome, MigrationResult
from repro.errors import MigrationError


@dataclass
class TransparentMigrationReport:
    """What one semi-transparent VM migration did."""

    vm_name: str
    destination: str
    #: One result per registered app, in registration order.
    results: list[MigrationResult]
    vm_migration_seconds: float
    enclave_overhead_seconds: float

    @property
    def enclaves_migrated(self) -> int:
        return len(self.results)


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

        The guest applications do nothing: the registered apps run as one
        wave with the VM (``migrate_group(..., migrate_vm=True)``).  Each
        enclave journals its own transaction and freezes, one flush ships
        them all, the VM live-migrates once, and every enclave comes back up
        from its migration data there.  Every registered app needs a
        running enclave or a parked transaction to ``destination`` (a dead
        one is relaunched from its frozen state), and an app in the VM that
        keeps library state but is not registered is refused, before
        anything freezes.

        A transient failure raises and leaves the wave parked; calling
        ``migrate_vm`` again continues every member's transaction.  One
        member's ``resume`` cannot finish a VM it shares: the VM leaves only
        with all of them.
        """
        apps = self.registered_apps(vm)
        if not apps:
            raise MigrationError(f"no migratable enclaves registered in VM {vm.name!r}")
        hypervisor = self.dc.hypervisor
        start, vm_start = self.dc.clock.now, hypervisor.migration_seconds
        results = MigratableApp.migrate_group(apps, destination, migrate_vm=True)
        for result in results:
            if result.outcome is MigrationOutcome.PENDING_RETRY:
                raise result.error
        vm_seconds = hypervisor.migration_seconds - vm_start
        return TransparentMigrationReport(
            vm_name=vm.name,
            destination=destination.name,
            results=results,
            vm_migration_seconds=vm_seconds,
            enclave_overhead_seconds=self.dc.clock.now - start - vm_seconds,
        )
