"""Derive-once: no ``DeterministicRng`` object derives one label twice.

``DeterministicRng.child(label)`` is a pure function of the parent's seed
material and the label, so a second ``child`` call with the same label on
the same object replays the first stream: the same DH ephemeral, IV or key
id.  Each run below records every object's labels, keyed weakly on the
object so a dead stream's record goes with it, and fails on a repeat.

The per-handshake objects in ``attestation/`` derive fixed labels
(``ra-init-dh``, ``ra-resp-dh``, ``la-resp-dh``), so a clean run also pins
that each such object serves one handshake.
"""

from __future__ import annotations

import weakref
from collections import Counter

import pytest

from repro.apps.counter_app import MigratableBenchEnclave
from repro.cloud.datacenter import DataCenter
from repro.core.protocol import MigratableApp, install_all_migration_enclaves
from repro.core.result import MigrationOutcome
from repro.fleet.demo import build_demo_fleet
from repro.sgx.identity import SigningKey
from repro.sim.rng import DeterministicRng

#: Fixed labels of the per-handshake objects; every run below makes at
#: least one local and one remote attestation.
HANDSHAKE_LABELS = ("ra-init-dh", "ra-resp-dh", "la-resp-dh")


class Derivations:
    """Every ``child`` label per live ``DeterministicRng``, and each repeat."""

    def __init__(self) -> None:
        self.labels: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self.counts: Counter = Counter()
        self.repeats: list[str] = []

    def record(self, rng: DeterministicRng, label: str) -> None:
        labels = self.labels.setdefault(rng, set())
        if label in labels:
            self.repeats.append(f"{rng.label!r} derived {label!r} again")
        labels.add(label)
        self.counts[label] += 1


@pytest.fixture
def derivations(monkeypatch) -> Derivations:
    log = Derivations()
    derive = DeterministicRng.child

    def child(self, label):
        log.record(self, label)
        return derive(self, label)

    monkeypatch.setattr(DeterministicRng, "child", child)
    return log


def _world(seed: int, n_apps: int, session_resumption: bool = False):
    dc = DataCenter(name="derive-once", seed=seed)
    for name in ("machine-a", "machine-b"):
        dc.add_machine(name)
    install_all_migration_enclaves(dc, session_resumption=session_resumption)
    key = SigningKey.generate(dc.rng.child("dev"))
    apps = []
    for index in range(n_apps):
        app = MigratableApp.deploy(
            dc, dc.machine("machine-a"), MigratableBenchEnclave, key,
            vm_name=f"vm-{index}", app_name=f"app-{index}",
        )
        enclave = app.start_new()
        counter_id, _ = enclave.ecall("create_counter")
        enclave.ecall("increment_counter", counter_id)
        apps.append(app)
    return dc, apps


def _assert_derived_once(log: Derivations) -> None:
    assert log.repeats == []
    for label in HANDSHAKE_LABELS:
        assert log.counts[label] > 0, f"no {label!r} derivation was checked"


def test_one_migration(derivations):
    dc, (app,) = _world(seed=1, n_apps=1)
    result = app.migrate(dc.machine("machine-b"), migrate_vm=False)
    assert result.outcome is MigrationOutcome.COMPLETED
    _assert_derived_once(derivations)


def test_two_member_batched_wave(derivations):
    dc, apps = _world(seed=2, n_apps=2)
    results = MigratableApp.migrate_group(apps, dc.machine("machine-b"))
    assert [r.outcome for r in results] == [MigrationOutcome.COMPLETED] * 2
    _assert_derived_once(derivations)


def test_back_and_forth_with_session_resumption(derivations):
    dc, (app,) = _world(seed=3, n_apps=1, session_resumption=True)
    for name in ("machine-b", "machine-a", "machine-b"):
        result = app.migrate(dc.machine(name), migrate_vm=False)
        assert result.outcome is MigrationOutcome.COMPLETED
    _assert_derived_once(derivations)


def test_pipelined_demo_drain(derivations):
    demo = build_demo_fleet(seed=0, n_enclaves=8, dispatch="pipelined")
    result = demo.service.apply(demo.service.plan_drain("fleet-0"))
    assert result.completed
    _assert_derived_once(derivations)
