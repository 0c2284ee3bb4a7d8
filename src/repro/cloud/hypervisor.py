"""Live VM migration (pre-copy), the baseline the paper compares against.

Implements the classic pre-copy algorithm [Nelson et al., ATC'05 — the
paper's reference 10]: copy all memory while the VM runs, then iteratively
re-copy the pages dirtied during the previous round, and finally stop the VM
for a brief switchover.  With data-center bandwidth this takes "in the order
of seconds" — the yardstick against which the paper's 0.47 s enclave
overhead is judged small.

SGX enclaves do NOT survive this: the EPC cannot be read by the hypervisor,
so enclaves inside the VM are simply destroyed (Section II-B).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cloud.machine import PhysicalMachine
from repro.cloud.vm import VirtualMachine
from repro.errors import InvalidParameterError
from repro.sim.costs import CostMeter


@dataclass
class MigrationReport:
    """What one live migration did and how long it took."""

    vm_name: str
    source: str
    destination: str
    rounds: int
    bytes_copied: int
    duration: float


@dataclass
class Hypervisor:
    """Data-center-level VM manager."""

    meter: CostMeter
    precopy_rounds: int = 3
    enclaves_destroyed: int = 0
    #: Virtual seconds spent in every ``migrate_vm`` so far (an odometer:
    #: read it before and after to time the migrations in between).
    migration_seconds: float = field(default=0.0, init=False)

    def migrate_vm(
        self, vm: VirtualMachine, destination: PhysicalMachine
    ) -> MigrationReport:
        """Live-migrate ``vm`` to ``destination``; returns a timing report.

        Any enclaves running inside the VM are destroyed — an SGX-aware
        mechanism (this paper's, or Gu et al.'s for data memory) must handle
        them separately.
        """
        source = vm.machine
        if source is destination:
            raise InvalidParameterError("source and destination machines are identical")
        model = self.meter.model
        start = self.meter.now

        # Pre-copy rounds: each round re-copies the fraction of memory
        # dirtied while the previous round was in flight.  Copy time is
        # bandwidth latency, so under trace capture it replays as a sleep
        # (concurrent migrations overlap it freely).
        bytes_copied = 0
        round_bytes = vm.memory_bytes
        rounds = 0
        for _ in range(self.precopy_rounds):
            self.meter.charge_exact("vm_precopy", model.transfer_time(round_bytes))
            bytes_copied += round_bytes
            rounds += 1
            round_bytes = int(round_bytes * model.vm_dirty_round_fraction)
            if round_bytes < 4096:
                break
        # Stop-and-copy switchover: final dirty set + device state.
        self.meter.charge_exact("vm_switchover", model.transfer_time(round_bytes))
        bytes_copied += round_bytes
        self.meter.charge("vm_fixed", model.vm_migration_fixed)

        # Enclaves cannot cross: their EPC pages are opaque to us.
        for app in vm.applications:
            for enclave in app.enclaves:
                if enclave.alive:
                    self.enclaves_destroyed += 1
                    source.on_enclave_destroyed(enclave)
                    enclave.destroy()

        source.release_vm(vm)
        destination.adopt_vm(vm)
        duration = self.meter.now - start
        self.migration_seconds += duration
        return MigrationReport(
            vm_name=vm.name,
            source=source.name,
            destination=destination.name,
            rounds=rounds,
            bytes_copied=bytes_copied,
            duration=duration,
        )
