"""The exponentiations of one ``paper_migrate`` migration, counted.

Wall-time work on :mod:`repro.crypto.modexp` (DESIGN §9) is measured
against a fixed count per migration: 14 secret exponentiations
(``powmod``: DH keygens and shared secrets, Schnorr signs), 6 verification
products (``mul2_powmod``) and 3 products served by the memo.  The
benchmark tracer reports the first two together as
``crypto.modexp.calls``, 20 per migration.  A speed-up must leave these
counts as they are, so these tests pin them on the benchmark's seed-0
world, from empty key tables: first after one warm-up migration there and
back, while no key has its table and each product raises the Schnorr
generator once through its table; then in the steady state, where the 4
verification keys (the EPID group key, the IAS report key and each ME's
key) have their tables and each product is one Montgomery chain that reads
the generator's powers directly.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.apps.counter_app import MigratableBenchEnclave
from repro.cloud.datacenter import DataCenter
from repro.core.protocol import MigratableApp, install_all_migration_enclaves
from repro.core.result import MigrationOutcome
from repro.crypto import modexp
from repro.sgx.identity import SigningKey


def _counting(calls: Counter, name: str, fn):
    def counted(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    return counted


@pytest.fixture
def paper_world():
    """The benchmark's seed-0 ``paper_migrate`` world, from empty key tables
    and product memo (key uses of other tests do not leak in), and a
    migration there and back."""
    modexp.clear_key_tables()
    modexp.clear_product_memo()
    dc = DataCenter(name="e2e-paper_migrate", seed=0)
    machines = [dc.add_machine(f"m{i:02d}") for i in range(2)]
    install_all_migration_enclaves(dc)
    key = SigningKey.generate(dc.rng.child("e2e-developer"))
    app = MigratableApp.deploy(
        dc, machines[0], MigratableBenchEnclave, key,
        vm_name="paper-vm", app_name="paper-app",
    )
    app.start_new()
    counter_id, _ = app.ecall("create_counter")
    app.ecall("increment_counter", counter_id)
    app.ecall("seal", bytes(4096), b"paper-app/0")

    def there_and_back():
        for machine in (machines[1], machines[0]):
            result = app.migrate(machine, migrate_vm=False)
            assert result.outcome is MigrationOutcome.COMPLETED

    yield app, counter_id, there_and_back
    modexp.clear_key_tables()
    modexp.clear_product_memo()


def _count_calls(monkeypatch) -> Counter:
    calls: Counter = Counter()
    for name in ("powmod", "mul2_powmod"):
        monkeypatch.setattr(modexp, name, _counting(calls, name, getattr(modexp, name)))
    monkeypatch.setattr(
        modexp.FixedBaseTable, "pow",
        _counting(calls, "generator", modexp.FixedBaseTable.pow),
    )
    return calls


def test_paper_migration_exponentiation_counts(monkeypatch, paper_world):
    app, counter_id, there_and_back = paper_world
    # The warm-up makes the first uses that later migrations repeat: the
    # build's SIGSTRUCT and each ME's provider credential.
    there_and_back()
    calls = _count_calls(monkeypatch)
    hits = modexp.product_memo_stats()["hits"]
    there_and_back()
    migrations = 2
    assert calls == {
        "powmod": 14 * migrations,
        "mul2_powmod": 6 * migrations,
        "generator": 6 * migrations,
    }
    assert modexp.product_memo_stats()["hits"] - hits == 3 * migrations
    # No key has reached its 16th fresh product yet.
    assert modexp.public_key_cache_stats()["misses"] == 0
    assert app.ecall("read_counter", counter_id) == 1


def test_steady_state_products_come_from_key_tables(monkeypatch, paper_world):
    app, counter_id, there_and_back = paper_world
    # Each ME key makes one fresh product per migration, so 8 round trips
    # bring every key to its 16th.
    for _ in range(8):
        there_and_back()
    assert modexp.public_key_cache_stats()["misses"] == 4
    calls = _count_calls(monkeypatch)
    memo_hits = modexp.product_memo_stats()["hits"]
    keys = modexp.public_key_cache_stats()
    there_and_back()
    migrations = 2
    # No FixedBaseTable.pow: the chain reads the generator's powers directly.
    assert calls == {"powmod": 14 * migrations, "mul2_powmod": 6 * migrations}
    assert modexp.product_memo_stats()["hits"] - memo_hits == 3 * migrations
    now = modexp.public_key_cache_stats()
    assert now["hits"] - keys["hits"] == 6 * migrations
    assert now["misses"] == keys["misses"]
    assert app.ecall("read_counter", counter_id) == 1
