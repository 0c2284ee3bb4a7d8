"""Tables I and II — the migrated-data and library-state structures.

The 'benchmark' here is the codec cost of the exact packed layouts, plus
assertions that the byte sizes match the paper's field inventory.
"""

from repro.bench.figures import table1, table2, tcb
from repro.core.datastructures import (
    LIBRARY_STATE_SIZE,
    MIGRATION_DATA_SIZE,
    LibraryState,
    MigrationData,
)
from repro.sgx.platform_services import CounterUuid


def _populated_migration_data() -> MigrationData:
    data = MigrationData.empty()
    for slot in range(0, 256, 3):
        data.counters_active[slot] = True
        data.counter_values[slot] = slot * 1000
    data.msk = bytes(range(16))
    return data


def _populated_library_state() -> LibraryState:
    state = LibraryState()
    state.msk = bytes(range(16))
    for slot in range(0, 256, 5):
        state.counters_active[slot] = True
        state.counter_uuids[slot] = CounterUuid(
            (slot + 1).to_bytes(4, "big"), bytes(12)
        )
        state.counter_offsets[slot] = slot
    return state


def test_table1_migration_data_codec(benchmark):
    data = _populated_migration_data()

    def roundtrip():
        return MigrationData.from_bytes(data.to_bytes())

    restored = benchmark(roundtrip)
    assert restored.counter_values == data.counter_values
    assert len(data.to_bytes()) == MIGRATION_DATA_SIZE == 1296


def test_table2_library_state_codec(benchmark):
    state = _populated_library_state()

    def roundtrip():
        return LibraryState.from_bytes(state.to_bytes())

    restored = benchmark(roundtrip)
    assert restored.counter_offsets == state.counter_offsets
    assert len(state.to_bytes()) == LIBRARY_STATE_SIZE == 5393


def test_table_reports_render(benchmark):
    def render():
        return table1()[0] + "\n" + table2()[0]

    text = benchmark(render)
    assert "counters active" in text and "Freeze flag" in text


def test_tcb_size_report(benchmark):
    """Section VII-A: the TCB report renders both counts.

    The LoC bounds themselves are asserted once, by
    ``tests/unit/test_figures.py::TestTcb``.
    """
    text, data = benchmark.pedantic(tcb, rounds=1, iterations=1)
    for component, loc in (("Migration Enclave", data["me_loc"]),
                           ("Migration Library", data["lib_loc"])):
        row = next(line for line in text.splitlines() if line.startswith(component))
        assert row.split()[-1] == str(loc)
