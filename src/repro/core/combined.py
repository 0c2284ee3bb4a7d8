"""Combined migration: data memory (Gu et al.) + persistent state (ours).

Section VIII of the paper: "Combining the two approaches would lead to a
possibility to migrate enclaves without the need to stop and restart them."
The authors could not integrate Gu et al.'s system (closed source, non-SDK);
in the simulator both mechanisms exist, so this module performs the
combination:

1. the source enclave ships its **persistent state** (MSK + effective
   counter values) through the Migration Enclaves — freezing the library
   and destroying the source counters exactly as in the stop/restart flow;
2. the destination enclave starts and installs that persistent state
   (``migration_init(MIGRATE)``);
3. the source's **data memory** is then re-encrypted and shipped directly
   to the destination enclave Gu-style, so no in-memory state is lost and
   the application never has to round-trip through sealed snapshots.

The result is a live hand-over: the destination resumes with both the
memory image and working migratable counters/sealing.
"""

from __future__ import annotations

from repro.cloud.machine import PhysicalMachine
from repro.core.baseline import GuFlagMode, GuMigratableEnclave, register_gu_transport
from repro.core.migration_library import InitState
from repro.core.protocol import MigratableApp, MigratableEnclave, flush_staged
from repro.core.migration_library import MigrationLibrary
from repro.core.result import CostSnapshot, MigrationOutcome, MigrationResult
from repro.core.retry import RetryPolicy
from repro.errors import MigrationError
from repro.sgx.enclave import Enclave


class FullyMigratableEnclave(MigratableEnclave, GuMigratableEnclave):
    """Base class combining the Migration Library with Gu-style memory
    migration.  Subclasses implement ``get_memory_image`` /
    ``set_memory_image`` for their live data memory and use ``self.miglib``
    for persistent state, and get live migration via :func:`live_migrate`.
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
    """Application wrapper adding the live (no stop/restart) migration flow."""

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

        The destination enclave is running and serving as soon as this
        returns; the source is left frozen (library) and spin-locked (Gu).
        Returns a :class:`MigrationResult` carrying the destination enclave.
        An app with a migration transaction in progress is refused until
        :meth:`resume` finishes it.
        """
        source_enclave = self.enclave
        if source_enclave is None or not source_enclave.alive:
            raise MigrationError("no running enclave to migrate")
        self._journaled_txn(None)
        source_app = self.app
        source_vm = self.vm
        txn = self._next_txn()
        start_cost = CostSnapshot.capture(self.dc)

        # 1. persistent state through the Migration Enclaves
        source_enclave.ecall("migration_start", destination.address, txn)
        flush_staged(source_app, destination.address)

        # 2. bring up the destination instance and install persistent state
        destination_vm = destination.create_vm(f"{self.vm_name}-live")
        destination_app = destination_vm.launch_application(self.app_name)
        self.vm = destination_vm
        self.app = destination_app
        destination_enclave = self.launch(InitState.MIGRATE, txn_id=txn)

        # 3. hand the data memory over Gu-style (source -> destination)
        destination_endpoint = self._gu_endpoint
        # note: self._gu_endpoint was re-set by launch() to the destination;
        # the source keeps its own endpoint registration.
        source_enclave.ecall("gu_start_migration", destination_endpoint)

        # 4. retire the source
        source_app.terminate()
        source_vm.machine.release_vm(source_vm)
        self.enclave = destination_enclave
        return MigrationResult(
            outcome=MigrationOutcome.COMPLETED,
            txn_id=txn,
            cost=CostSnapshot.capture(self.dc).delta(start_cost),
            enclave=destination_enclave,
        )
