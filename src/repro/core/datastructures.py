"""The migration framework's data structures (Tables I and II of the paper).

Both structures use an explicit packed binary layout so their sizes are
meaningful and stable:

* :class:`MigrationData` (Table I) — what travels from source to destination:

    ===================  =============  =====================================
    name                 type           description
    ===================  =============  =====================================
    counters_active      bool[256]      shows used counters
    counter_values       uint32[256]    used as next offset
    msk                  128-bit key    used by migratable seal
    ===================  =============  =====================================

* :class:`LibraryState` (Table II) — the Migration Library's persistent
  internals, sealed and stored on the local machine:

    ===================  ==================  ================================
    name                 type                description
    ===================  ==================  ================================
    frozen               uint8               freeze flag for migration
    counters_active      bool[256]           shows used counters
    counter_uuids        SGX counter[256]    UUIDs of the SGX counters
    counter_offsets      uint32[256]         offsets of the counters
    msk                  128-bit key         used by migratable seal
    ===================  ==================  ================================
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from repro.errors import InvalidParameterError
from repro.sgx.platform_services import CounterUuid

NUM_COUNTERS = 256
_UUID_SIZE = 16
_MSK_SIZE = 16

_EMPTY_UUID = bytes(_UUID_SIZE)

#: Table I, packed once: counters_active, counter_values, msk.
_TABLE_I = struct.Struct(f">{NUM_COUNTERS}?{NUM_COUNTERS}I{_MSK_SIZE}s")
#: Table II: frozen, counters_active, the UUIDs as one field, counter
#: offsets, msk.
_TABLE_II = struct.Struct(
    f">?{NUM_COUNTERS}?{_UUID_SIZE * NUM_COUNTERS}s{NUM_COUNTERS}I{_MSK_SIZE}s"
)
MIGRATION_DATA_SIZE = _TABLE_I.size  # 1296
LIBRARY_STATE_SIZE = _TABLE_II.size  # 5393


def _check_widths(
    active: list[bool], msk: bytes, uuids: list[CounterUuid | None] | None = None
) -> None:
    """The widths ``pack`` cannot see: it pads or cuts an ``s`` field (the
    MSK, the joined UUIDs), and a short ``counters_active`` would shift every
    later field.  Checked at construction and again before packing, for
    fields resized after construction; a wrong total item count or an
    out-of-range value raises ``struct.error`` in ``pack``."""
    if len(active) != NUM_COUNTERS:
        raise InvalidParameterError(f"counters_active must have {NUM_COUNTERS} entries")
    if uuids is not None and len(uuids) != NUM_COUNTERS:
        raise InvalidParameterError(f"counter_uuids must have {NUM_COUNTERS} entries")
    if len(msk) != _MSK_SIZE:
        raise InvalidParameterError("MSK must be a 128-bit key")


def _check_values(values: list[int]) -> None:
    if len(values) != NUM_COUNTERS:
        raise InvalidParameterError(f"counter value array must have {NUM_COUNTERS} entries")
    for value in values:
        if not 0 <= value <= 0xFFFFFFFF:
            raise InvalidParameterError(f"counter value out of uint32 range: {value}")


@dataclass
class MigrationData:
    """Table I: the payload transferred between Migration Enclaves."""

    counters_active: list[bool]
    counter_values: list[int]
    msk: bytes

    def __post_init__(self) -> None:
        _check_widths(self.counters_active, self.msk)
        _check_values(self.counter_values)

    @classmethod
    def empty(cls) -> "MigrationData":
        return cls(
            counters_active=[False] * NUM_COUNTERS,
            counter_values=[0] * NUM_COUNTERS,
            msk=b"\x00" * _MSK_SIZE,
        )

    def to_bytes(self) -> bytes:
        _check_widths(self.counters_active, self.msk)
        return _TABLE_I.pack(*self.counters_active, *self.counter_values, self.msk)

    @classmethod
    def from_bytes(cls, data: bytes) -> "MigrationData":
        if len(data) != MIGRATION_DATA_SIZE:
            raise InvalidParameterError(
                f"MigrationData must be {MIGRATION_DATA_SIZE} bytes, got {len(data)}"
            )
        fields = _TABLE_I.unpack(data)
        return cls(
            counters_active=list(fields[:NUM_COUNTERS]),
            counter_values=list(fields[NUM_COUNTERS:-1]),
            msk=fields[-1],
        )


@dataclass
class LibraryState:
    """Table II: the Migration Library's sealed persistent internals."""

    frozen: bool = False
    counters_active: list[bool] = field(
        default_factory=lambda: [False] * NUM_COUNTERS
    )
    counter_uuids: list[CounterUuid | None] = field(
        default_factory=lambda: [None] * NUM_COUNTERS
    )
    counter_offsets: list[int] = field(default_factory=lambda: [0] * NUM_COUNTERS)
    msk: bytes = b"\x00" * _MSK_SIZE

    def __post_init__(self) -> None:
        _check_widths(self.counters_active, self.msk, self.counter_uuids)
        _check_values(self.counter_offsets)

    def free_slot(self) -> int:
        """Lowest unused internal counter id, or -1 when all 256 are taken."""
        for index, active in enumerate(self.counters_active):
            if not active:
                return index
        return -1

    def active_slots(self) -> list[int]:
        return [i for i, active in enumerate(self.counters_active) if active]

    def to_bytes(self) -> bytes:
        _check_widths(self.counters_active, self.msk, self.counter_uuids)
        uuids = b"".join(
            _EMPTY_UUID if uuid is None else uuid.to_bytes() for uuid in self.counter_uuids
        )
        return _TABLE_II.pack(
            self.frozen, *self.counters_active, uuids, *self.counter_offsets, self.msk
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "LibraryState":
        if len(data) != LIBRARY_STATE_SIZE:
            raise InvalidParameterError(
                f"LibraryState must be {LIBRARY_STATE_SIZE} bytes, got {len(data)}"
            )
        fields = _TABLE_II.unpack(data)
        active = list(fields[1 : 1 + NUM_COUNTERS])
        packed_uuids = fields[1 + NUM_COUNTERS]
        uuids: list[CounterUuid | None] = [None] * NUM_COUNTERS
        for index in range(NUM_COUNTERS):
            if active[index]:
                raw = packed_uuids[index * _UUID_SIZE : (index + 1) * _UUID_SIZE]
                if raw != _EMPTY_UUID:
                    uuids[index] = CounterUuid.from_bytes(raw)
        return cls(
            frozen=fields[0],
            counters_active=active,
            counter_uuids=uuids,
            counter_offsets=list(fields[2 + NUM_COUNTERS : -1]),
            msk=fields[-1],
        )
