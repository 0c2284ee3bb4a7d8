"""Typed results for migration operations.

``MigratableApp.migrate`` (and friends) used to return a bare
:class:`~repro.sgx.enclave.Enclave` or ``None``, losing everything a caller
needs to reason about a hardened protocol: did it complete or merely park at
the source ME?  How many retries did it burn?  What did it cost?
:class:`MigrationResult` carries all of that, while remaining a drop-in
replacement at old call sites: attribute access it does not define is
delegated to the resulting enclave, so ``app.migrate(dst).ecall(...)``
keeps working unchanged.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from repro.cloud.datacenter import DataCenter
    from repro.sgx.enclave import Enclave


class MigrationOutcome(enum.Enum):
    """Terminal state of one migration attempt (or resume)."""

    COMPLETED = "completed"  # enclave live at the destination, source cleared
    RESUMED = "resumed"  # an interrupted migration was driven to completion
    SHIPPED = "shipped"  # ME-level op: data delivered to the destination ME
    PENDING_RETRY = "pending_retry"  # frozen; data parked at the source ME


@dataclass(frozen=True)
class CostSnapshot:
    """Simulation-cost odometer readings (take two, subtract)."""

    virtual_time: float = 0.0
    messages_sent: int = 0
    bytes_sent: int = 0

    @classmethod
    def capture(cls, datacenter: "DataCenter") -> "CostSnapshot":
        return cls(
            virtual_time=datacenter.meter.now,
            messages_sent=datacenter.network.messages_sent,
            bytes_sent=datacenter.network.bytes_sent,
        )

    def delta(self, since: "CostSnapshot") -> "CostSnapshot":
        return CostSnapshot(
            virtual_time=self.virtual_time - since.virtual_time,
            messages_sent=self.messages_sent - since.messages_sent,
            bytes_sent=self.bytes_sent - since.bytes_sent,
        )


@dataclass
class MigrationResult:
    """What one ``migrate``/``resume`` call actually did.

    Truthy iff the operation achieved its goal (enclave live at the
    destination, or — for ME-level operations — data delivered to the
    destination ME).  Unknown attributes delegate to ``enclave`` for
    backward compatibility with call sites that treated the return value as
    the enclave itself.
    """

    outcome: MigrationOutcome
    txn_id: str
    retries_used: int = 0
    cost: CostSnapshot | None = None
    enclave: "Enclave | None" = None
    error: Exception | None = None
    #: Recovery-path observability: ``FleetService.resume_plan`` marks the
    #: result it synthesizes for a member found already migrated with
    #: ``{"reconciled": True}``.  Purely informational — no protocol
    #: decision keys off it.
    diagnostics: dict = field(default_factory=dict)

    def __bool__(self) -> bool:
        return self.outcome in (
            MigrationOutcome.COMPLETED,
            MigrationOutcome.RESUMED,
            MigrationOutcome.SHIPPED,
        )

    def __getattr__(self, name: str) -> Any:
        # Only called for attributes not found normally; dunders are looked
        # up on the type, so this never shadows dataclass machinery.
        if name.startswith("_") or self.enclave is None:
            raise AttributeError(
                f"{type(self).__name__} has no attribute {name!r}"
                + ("" if name.startswith("_") else " and carries no enclave")
            )
        return getattr(self.enclave, name)
