"""The exponentiations of one ``paper_migrate`` migration, counted.

Wall-time work on :mod:`repro.crypto.modexp` (DESIGN §9) is measured
against a fixed count per migration: 14 secret exponentiations
(``powmod``: DH keygens and shared secrets, Schnorr signs), 6 verification
products (``mul2_powmod``), each raising the Schnorr generator once through
its table, and 3 products served by the memo.  The benchmark tracer reports
the first two together as ``crypto.modexp.calls``, 20 per migration.  A
speed-up must leave these counts as they are, so this test pins them on the
benchmark's seed-0 world, one warm-up migration there and back first.
"""

from __future__ import annotations

from collections import Counter

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


def test_paper_migration_exponentiation_counts(monkeypatch):
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

    # The warm-up makes the first uses that later migrations repeat: the
    # build's SIGSTRUCT and each ME's provider credential.
    modexp.clear_product_memo()
    there_and_back()
    calls: Counter = Counter()
    for name in ("powmod", "mul2_powmod"):
        monkeypatch.setattr(modexp, name, _counting(calls, name, getattr(modexp, name)))
    monkeypatch.setattr(
        modexp.FixedBaseTable, "pow",
        _counting(calls, "generator", modexp.FixedBaseTable.pow),
    )
    hits = modexp.product_memo_stats()["hits"]
    there_and_back()
    migrations = 2
    assert calls == {
        "powmod": 14 * migrations,
        "mul2_powmod": 6 * migrations,
        "generator": 6 * migrations,
    }
    assert modexp.product_memo_stats()["hits"] - hits == 3 * migrations
    assert app.ecall("read_counter", counter_id) == 1
