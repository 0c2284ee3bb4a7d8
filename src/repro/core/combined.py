"""Combined migration: data memory (Gu et al.) + persistent state (ours).

Section VIII of the paper: "Combining the two approaches would lead to a
possibility to migrate enclaves without the need to stop and restart them."
The authors could not integrate Gu et al.'s system (closed source, non-SDK);
in the simulator both mechanisms exist, so this module performs the
combination as a migration wave of one with its own relocation step:

1. the source enclave ships its **persistent state** (MSK + effective
   counter values) through the Migration Enclaves under a journaled
   transaction — freezing the library and destroying the source counters
   exactly as in the stop/restart flow;
2. the enclave starts in a fresh destination VM and installs that
   persistent state (``migration_init(MIGRATE)``);
3. the source's **data memory** is then re-encrypted and shipped directly
   to the destination enclave Gu-style, so no in-memory state is lost and
   the application never has to round-trip through sealed snapshots; the
   source is retired.

The result is a live hand-over: the destination resumes with both the
memory image and working migratable counters/sealing.
"""

from __future__ import annotations

from repro.cloud.machine import PhysicalMachine
from repro.core.baseline import GuFlagMode, GuMigratableEnclave, register_gu_transport
from repro.core.migration_library import InitState, MigrationLibrary
from repro.core.protocol import MigratableApp, MigratableEnclave
from repro.core.result import MigrationResult
from repro.core.retry import RetryPolicy
from repro.sgx.enclave import Enclave


class FullyMigratableEnclave(MigratableEnclave, GuMigratableEnclave):
    """Base class combining the Migration Library with Gu-style memory
    migration.  Subclasses implement ``get_memory_image`` /
    ``set_memory_image`` for their live data memory and use ``self.miglib``
    for persistent state, and get live migration via
    :meth:`LiveMigratableApp.live_migrate`.
    """

    def __init__(self, sdk):
        # Cooperative __init__ walks the MRO: MigratableEnclave sets up the
        # library, GuMigratableEnclave the memory-migration machinery.
        super().__init__(sdk)


FullyMigratableEnclave.MEASURED_LIBRARIES = (
    MigrationLibrary,
    MigratableEnclave,
    GuMigratableEnclave,
)


class LiveMigratableApp(MigratableApp):
    """Application wrapper whose migrations are live (no stop/restart)
    hand-overs: every wave relocates it through :meth:`_install`, which
    retires the source VM, so no other member of the wave may share it."""

    relocates_alone = True

    def launch(
        self,
        init_state: InitState,
        *,
        retry_policy: RetryPolicy | None = None,
        txn_id: str = "",
    ) -> Enclave:
        enclave = super().launch(init_state, retry_policy=retry_policy, txn_id=txn_id)
        app = self.app
        self._gu_endpoint = register_gu_transport(enclave, app)
        enclave.ecall(
            "gu_init",
            GuFlagMode.MEMORY.name,
            None,
            self.dc.ias_verify_for(app.machine),
            self.dc.ias.report_public_key,
        )
        return enclave

    def live_migrate(self, destination: PhysicalMachine) -> MigrationResult:
        """Migrate persistent state *and* data memory without a restart.

        A wave of one (:meth:`migrate`) whose relocation step is the live
        hand-over: the destination enclave is serving when this returns,
        and the source app and VM are retired.  ``PENDING_RETRY`` keeps the
        journal, as ``migrate`` does: calling ``live_migrate`` again, or
        :meth:`resume`, finishes the same transaction.
        """
        return self.migrate(destination)

    def _move_vm(self, members: list, destination: PhysicalMachine, migrate_vm: bool):
        """Nothing moves: :meth:`_install` starts each member in a fresh
        destination VM and retires its source after the memory hand-over."""

    def _install(self, destination: PhysicalMachine, txn: str, policy: RetryPolicy):
        """The live relocation step: a fresh destination VM, the MIGRATE
        install, the Gu-style memory hand-over, and the source retired."""
        source_app, source_vm, source_enclave = self.app, self.vm, self.enclave
        self.vm = destination.create_vm(f"{self.vm_name}-live")
        self.app = self.vm.launch_application(self.app_name)
        enclave = super()._install(destination, txn, policy)
        # launch() registered the destination's Gu endpoint; the source
        # keeps its own registration for the hand-over.
        source_enclave.ecall("gu_start_migration", self._gu_endpoint)
        source_app.terminate()
        source_vm.machine.release_vm(source_vm)
        return enclave
