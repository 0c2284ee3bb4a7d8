"""Derive-once and fresh nonces over whole migration runs.

``DeterministicRng.child(label)`` is a pure function of the parent's seed
material and the label, so a second ``child`` call with the same label on
the same object replays the first stream: the same DH ephemeral, IV or key
id.  Each run below records every object's labels, keyed weakly on the
object so a dead stream's record goes with it, and fails on a repeat.

The per-handshake objects in ``attestation/`` derive fixed labels
(``ra-init-dh``, ``ra-resp-dh``, ``la-resp-dh``), so a clean run also pins
that each such object serves one handshake.

The nonce oracle checks the property the streams exist for: no
``AesGcm.encrypt`` call in a run reuses a ``(key, iv)`` pair — seals,
migratable seals and the channels' sequence IVs alike.
"""

from __future__ import annotations

import weakref
from collections import Counter

import pytest

from repro.apps.counter_app import MigratableBenchEnclave
from repro.cloud.datacenter import DataCenter
from repro.core.combined import FullyMigratableEnclave, LiveMigratableApp
from repro.core.protocol import MigratableApp, install_all_migration_enclaves
from repro.core.result import MigrationOutcome
from repro.core.transparent import SemiTransparentMigrator
from repro.crypto.gcm import AesGcm
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


class Nonces:
    """Every ``(key, iv)`` pair AES-GCM encrypted under, and each repeat."""

    def __init__(self) -> None:
        self.pairs: set[tuple[bytes, bytes]] = set()
        self.repeats: list[str] = []

    def record(self, key: bytes, iv: bytes) -> None:
        if (key, iv) in self.pairs:
            self.repeats.append(f"IV {iv.hex()} reused under one key")
        self.pairs.add((key, iv))


@pytest.fixture
def nonces(monkeypatch) -> Nonces:
    log = Nonces()
    encrypt = AesGcm.encrypt

    def wrapped(self, iv, plaintext, aad=b""):
        log.record(self._key, bytes(iv))
        return encrypt(self, iv, plaintext, aad)

    monkeypatch.setattr(AesGcm, "encrypt", wrapped)
    return log


class LiveBenchEnclave(FullyMigratableEnclave, MigratableBenchEnclave):
    """The bench enclave plus one word of data memory for the live
    hand-over."""

    def __init__(self, sdk):
        super().__init__(sdk)
        self.word = b""

    def get_memory_image(self) -> bytes:
        return self.word

    def set_memory_image(self, image: bytes) -> None:
        self.word = bytes(image)


def _world(
    seed: int,
    n_apps: int,
    session_resumption: bool = False,
    *,
    shared_vm: bool = False,
    app_class=MigratableApp,
    enclave_class=MigratableBenchEnclave,
):
    """``n_apps`` apps on machine-a, each in its own VM or all in one."""
    dc = DataCenter(name="derive-once", seed=seed)
    for name in ("machine-a", "machine-b"):
        dc.add_machine(name)
    install_all_migration_enclaves(dc, session_resumption=session_resumption)
    key = SigningKey.generate(dc.rng.child("dev"))
    apps = []
    for index in range(n_apps):
        if shared_vm and apps:
            app = app_class(
                vm_name=apps[0].vm_name, app_name=f"app-{index}",
                enclave_class=enclave_class, signing_key=key, dc=dc,
            )
            app.vm = apps[0].vm
            app.app = app.vm.launch_application(app.app_name)
        else:
            app = app_class.deploy(
                dc, dc.machine("machine-a"), enclave_class, key,
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


def _assert_fresh_nonces(log: Nonces) -> None:
    assert log.repeats == []
    assert log.pairs, "no encryption was checked"


def test_one_migration(derivations, nonces):
    dc, (app,) = _world(seed=1, n_apps=1)
    result = app.migrate(dc.machine("machine-b"), migrate_vm=False)
    assert result.outcome is MigrationOutcome.COMPLETED
    _assert_derived_once(derivations)
    _assert_fresh_nonces(nonces)


def test_two_member_batched_wave(derivations, nonces):
    dc, apps = _world(seed=2, n_apps=2)
    results = MigratableApp.migrate_group(apps, dc.machine("machine-b"))
    assert [r.outcome for r in results] == [MigrationOutcome.COMPLETED] * 2
    _assert_derived_once(derivations)
    _assert_fresh_nonces(nonces)


def test_back_and_forth_with_session_resumption(derivations, nonces):
    dc, (app,) = _world(seed=3, n_apps=1, session_resumption=True)
    for name in ("machine-b", "machine-a", "machine-b"):
        result = app.migrate(dc.machine(name), migrate_vm=False)
        assert result.outcome is MigrationOutcome.COMPLETED
    _assert_derived_once(derivations)
    _assert_fresh_nonces(nonces)


def test_pipelined_demo_drain(derivations, nonces):
    demo = build_demo_fleet(seed=0, n_enclaves=8, dispatch="pipelined")
    result = demo.service.apply(demo.service.plan_drain("fleet-0"))
    assert result.completed
    _assert_derived_once(derivations)
    _assert_fresh_nonces(nonces)


def test_shared_vm_there_and_back(derivations, nonces):
    dc, apps = _world(seed=4, n_apps=2, shared_vm=True)
    migrator = SemiTransparentMigrator(dc)
    for app in apps:
        migrator.register(app)
    for name in ("machine-b", "machine-a"):
        report = migrator.migrate_vm(apps[0].vm, dc.machine(name))
        assert [r.outcome for r in report.results] == [MigrationOutcome.COMPLETED] * 2
    _assert_derived_once(derivations)
    _assert_fresh_nonces(nonces)


def test_live_migration(derivations, nonces):
    dc, (app,) = _world(
        seed=5, n_apps=1, app_class=LiveMigratableApp, enclave_class=LiveBenchEnclave
    )
    result = app.live_migrate(dc.machine("machine-b"))
    assert result.outcome is MigrationOutcome.COMPLETED
    _assert_derived_once(derivations)
    _assert_fresh_nonces(nonces)
