"""Table I / Table II structures: exact layouts, round-trips, validation."""

import struct

import pytest

from repro.core.datastructures import (
    LIBRARY_STATE_SIZE,
    MIGRATION_DATA_SIZE,
    NUM_COUNTERS,
    LibraryState,
    MigrationData,
)
from repro.errors import InvalidParameterError
from repro.sgx.platform_services import CounterUuid


class TestMigrationData:
    def test_paper_layout_size(self):
        # Table I: bool[256] + uint32[256] + 128-bit key
        assert MIGRATION_DATA_SIZE == 256 + 4 * 256 + 16 == 1296
        assert len(MigrationData.empty().to_bytes()) == MIGRATION_DATA_SIZE

    def test_roundtrip(self):
        data = MigrationData.empty()
        data.counters_active[3] = True
        data.counter_values[3] = 0xDEADBEEF
        data.counters_active[255] = True
        data.counter_values[255] = 1
        data.msk = bytes(range(16))
        restored = MigrationData.from_bytes(data.to_bytes())
        assert restored.counters_active == data.counters_active
        assert restored.counter_values == data.counter_values
        assert restored.msk == data.msk

    def test_wrong_size_rejected(self):
        with pytest.raises(InvalidParameterError):
            MigrationData.from_bytes(bytes(MIGRATION_DATA_SIZE - 1))

    def test_array_length_validation(self):
        with pytest.raises(InvalidParameterError):
            MigrationData(counters_active=[False], counter_values=[0] * 256, msk=bytes(16))
        with pytest.raises(InvalidParameterError):
            MigrationData(
                counters_active=[False] * 256, counter_values=[0], msk=bytes(16)
            )

    def test_value_range_validation(self):
        with pytest.raises(InvalidParameterError):
            MigrationData(
                counters_active=[False] * 256,
                counter_values=[2**32] + [0] * 255,
                msk=bytes(16),
            )

    def test_msk_size_validation(self):
        with pytest.raises(InvalidParameterError):
            MigrationData(
                counters_active=[False] * 256, counter_values=[0] * 256, msk=b"short"
            )

    def test_bytes_are_the_field_by_field_layout(self):
        data = MigrationData.empty()
        data.counters_active[7] = True
        data.counter_values[7] = 0xFFFFFFFF
        data.counter_values[200] = 513
        data.msk = bytes(range(16, 32))
        expected = bytes(data.counters_active) + b"".join(
            value.to_bytes(4, "big") for value in data.counter_values
        ) + data.msk
        assert data.to_bytes() == expected

    def test_fields_changed_after_construction_raise_not_truncate(self):
        data = MigrationData.empty()
        data.counter_values[0] = 2**32
        with pytest.raises(struct.error):
            data.to_bytes()
        data = MigrationData.empty()
        data.msk = bytes(17)
        with pytest.raises(InvalidParameterError):
            data.to_bytes()


class TestLibraryState:
    def test_paper_layout_size(self):
        # Table II: uint8 + bool[256] + uuid[256] + uint32[256] + 128-bit key
        assert LIBRARY_STATE_SIZE == 1 + 256 + 16 * 256 + 4 * 256 + 16 == 5393
        assert len(LibraryState().to_bytes()) == LIBRARY_STATE_SIZE

    def test_roundtrip_with_uuids(self):
        state = LibraryState()
        state.frozen = True
        state.msk = bytes(range(16))
        state.counters_active[0] = True
        state.counter_uuids[0] = CounterUuid(b"\x00\x00\x00\x09", bytes(range(12)))
        state.counter_offsets[0] = 777
        restored = LibraryState.from_bytes(state.to_bytes())
        assert restored.frozen
        assert restored.msk == state.msk
        assert restored.counters_active[0]
        assert restored.counter_uuids[0] == state.counter_uuids[0]
        assert restored.counter_offsets[0] == 777
        assert restored.counter_uuids[1] is None

    def test_default_state(self):
        state = LibraryState()
        assert not state.frozen
        assert state.active_slots() == []
        assert state.free_slot() == 0

    def test_free_slot_scans(self):
        state = LibraryState()
        state.counters_active[0] = True
        state.counters_active[1] = True
        assert state.free_slot() == 2

    def test_free_slot_full(self):
        state = LibraryState()
        state.counters_active = [True] * NUM_COUNTERS
        assert state.free_slot() == -1

    def test_active_slots(self):
        state = LibraryState()
        state.counters_active[5] = True
        state.counters_active[9] = True
        assert state.active_slots() == [5, 9]

    def test_wrong_size_rejected(self):
        with pytest.raises(InvalidParameterError):
            LibraryState.from_bytes(bytes(10))

    def test_uuid_array_validation(self):
        with pytest.raises(InvalidParameterError):
            LibraryState(counter_uuids=[None])

    def test_bytes_are_the_field_by_field_layout(self):
        uuid = CounterUuid(b"\x00\x00\x01\x02", bytes(range(12)))
        state = LibraryState(frozen=True, msk=bytes(range(16)))
        state.counters_active[2] = True
        state.counter_uuids[2] = uuid
        state.counter_offsets[2] = 0xFFFFFFFF
        expected = (
            b"\x01"
            + bytes(state.counters_active)
            + bytes(16 * 2) + uuid.to_bytes() + bytes(16 * 253)
            + b"".join(offset.to_bytes(4, "big") for offset in state.counter_offsets)
            + state.msk
        )
        assert state.to_bytes() == expected

    def test_fields_changed_after_construction_raise_not_truncate(self):
        state = LibraryState()
        state.counter_offsets[9] = -1
        with pytest.raises(struct.error):
            state.to_bytes()
        state = LibraryState()
        state.counter_uuids.pop()
        with pytest.raises(InvalidParameterError):
            state.to_bytes()
        state = LibraryState()
        state.counters_active.append(False)
        with pytest.raises(InvalidParameterError):
            state.to_bytes()
