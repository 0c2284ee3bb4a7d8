"""Unit tests for the fleet single-instance registry (clone detection)."""

import pytest

from repro import wire
from repro.cloud.storage import UntrustedStorage
from repro.errors import (
    CloneDetectedError,
    FencedInstanceError,
    RegistryUnavailableError,
)
from repro.fleet.registry import SingleInstanceRegistry
from repro.sim.clock import VirtualClock
from repro.sim.costs import CostMeter, CostModel
from repro.sim.rng import DeterministicRng
from repro.sim.scheduler import Sleep, TraceRecorder

IDENTITY = b"enclave-identity-0123456789abcdef"
A = b"instance-a"
B = b"instance-b"
C = b"instance-c"


def make_meter():
    return CostMeter(CostModel(), VirtualClock(), DeterministicRng(0))


def make_registry():
    return SingleInstanceRegistry(UntrustedStorage("ctl"), make_meter())


class TestClaimLifecycle:
    def test_unknown_identity_is_adopted(self):
        registry = make_registry()
        registry.claim(IDENTITY, A, machine="m-a", epoch=1, kind="new")
        record = registry.record_of(IDENTITY)
        assert record.holder == A
        assert record.epoch == 1
        assert registry.incident_count() == 0

    def test_same_holder_reclaim_keeps_max_epoch(self):
        registry = make_registry()
        registry.claim(IDENTITY, A, machine="m-a", epoch=5, kind="new")
        registry.claim(IDENTITY, A, machine="m-a", epoch=3, kind="restore")
        assert registry.record_of(IDENTITY).epoch == 5

    def test_live_holder_denies_second_instance(self):
        registry = make_registry()
        registry.claim(IDENTITY, A, machine="m-a", epoch=1, kind="new")
        registry.bind_liveness(IDENTITY, lambda: True)
        with pytest.raises(CloneDetectedError):
            registry.claim(IDENTITY, B, machine="m-a", epoch=2, kind="restore")
        assert B in registry.record_of(IDENTITY).fenced
        assert registry.incident_count() == 1

    def test_dead_holder_takeover_accepts_equal_epoch(self):
        """A crash between the claim and the epoch-bump persist leaves the
        disk one bump behind; the legitimate relaunch presents epoch ==
        recorded and must be accepted (migrations move the epoch by two,
        so stale snapshots still strictly regress)."""
        registry = make_registry()
        registry.claim(IDENTITY, A, machine="m-a", epoch=4, kind="new")
        registry.bind_liveness(IDENTITY, lambda: False)
        registry.claim(IDENTITY, B, machine="m-a", epoch=4, kind="restore")
        assert registry.record_of(IDENTITY).holder == B

    def test_dead_holder_takeover_fences_stale_epoch(self):
        registry = make_registry()
        registry.claim(IDENTITY, A, machine="m-a", epoch=4, kind="new")
        registry.bind_liveness(IDENTITY, lambda: False)
        with pytest.raises(CloneDetectedError):
            registry.claim(IDENTITY, B, machine="m-a", epoch=3, kind="restore")
        assert B in registry.record_of(IDENTITY).fenced

    def test_fencing_is_permanent(self):
        registry = make_registry()
        registry.claim(IDENTITY, A, machine="m-a", epoch=1, kind="new")
        registry.bind_liveness(IDENTITY, lambda: True)
        with pytest.raises(CloneDetectedError):
            registry.claim(IDENTITY, B, machine="m-a", epoch=2, kind="restore")
        registry.bind_liveness(IDENTITY, lambda: False)
        # Even with a huge epoch and a dead holder, a fenced instance stays out.
        with pytest.raises(FencedInstanceError):
            registry.claim(IDENTITY, B, machine="m-a", epoch=99, kind="restore")

    def test_crashed_probe_counts_as_dead(self):
        from repro.errors import ReproError

        registry = make_registry()
        registry.claim(IDENTITY, A, machine="m-a", epoch=2, kind="new")

        def probe():
            raise ReproError("enclave lost")

        registry.bind_liveness(IDENTITY, probe)
        registry.claim(IDENTITY, B, machine="m-a", epoch=3, kind="restore")
        assert registry.record_of(IDENTITY).holder == B


class TestMigrationHandoff:
    def _frozen_record(self, registry):
        registry.claim(IDENTITY, A, machine="m-a", epoch=1, kind="new")
        registry.advance(IDENTITY, A, epoch=2, destination="m-b", machine="m-a")

    def test_frozen_holder_hands_off_to_migrate_claim(self):
        registry = make_registry()
        self._frozen_record(registry)
        registry.claim(IDENTITY, B, machine="m-b", epoch=3, kind="migrate")
        record = registry.record_of(IDENTITY)
        assert record.holder == B
        assert not record.frozen
        assert registry.incident_count() == 0

    def test_frozen_record_denies_restore_claims(self):
        """The cloning window: between freeze and install, only the
        migration handoff may take the identity."""
        registry = make_registry()
        self._frozen_record(registry)
        with pytest.raises(CloneDetectedError):
            registry.claim(IDENTITY, B, machine="m-a", epoch=2, kind="restore")

    def test_handoff_from_wrong_machine_is_fenced(self):
        registry = make_registry()
        self._frozen_record(registry)
        with pytest.raises(CloneDetectedError):
            registry.claim(IDENTITY, B, machine="m-c", epoch=3, kind="migrate")

    def test_handoff_with_wrong_epoch_is_fenced(self):
        registry = make_registry()
        self._frozen_record(registry)
        with pytest.raises(CloneDetectedError):
            registry.claim(IDENTITY, B, machine="m-b", epoch=5, kind="migrate")

    def test_advance_fences_interloper_retroactively(self):
        """An instance that slipped in during the freeze window is fenced
        the moment the legitimate shipment's advance lands, and the
        shipper is reinstated as holder."""
        registry = make_registry()
        registry.claim(IDENTITY, A, machine="m-a", epoch=1, kind="new")
        # Holder froze (probe now reports dead) and an interloper claims.
        registry.bind_liveness(IDENTITY, lambda: False)
        registry.claim(IDENTITY, C, machine="m-a", epoch=2, kind="restore")
        assert registry.record_of(IDENTITY).holder == C
        # The frozen state ships; the ME reports the freeze.
        registry.advance(IDENTITY, A, epoch=2, destination="m-b", machine="m-a")
        record = registry.record_of(IDENTITY)
        assert record.holder == A
        assert C in record.fenced
        assert record.frozen
        assert registry.incident_count() == 1


class TestMeHeartbeat:
    def test_monotonic_beats_accepted(self):
        registry = make_registry()
        assert registry.me_beat("m-a", A, 1) == 1
        assert registry.me_beat("m-a", A, 2) == 2
        assert registry.incident_count() == 0

    def test_regressed_beat_is_fenced(self):
        registry = make_registry()
        registry.me_beat("m-a", A, 3)
        with pytest.raises(CloneDetectedError):
            registry.me_beat("m-a", B, 1)
        assert registry.incident_count() == 1
        assert registry.has_incident_on("m-a")
        with pytest.raises(FencedInstanceError):
            registry.me_beat("m-a", B, 99)

    def test_reinstalled_me_continues_sequence(self):
        registry = make_registry()
        registry.me_beat("m-a", A, 3)
        # New instance, but the restored checkpoint carried the counter on.
        assert registry.me_beat("m-a", B, 4) == 4
        assert registry.incident_count() == 0


class TestAvailability:
    def test_offline_claim_denies_after_backoff(self):
        registry = make_registry()
        registry.offline = True
        before = registry.meter.clock.now
        with pytest.raises(RegistryUnavailableError):
            registry.claim(IDENTITY, A, machine="m-a", epoch=1, kind="new")
        # 0.05 + 0.1 + 0.2 of virtual backoff elapsed before the denial.
        assert registry.meter.clock.now - before == pytest.approx(0.35)

    def test_registry_back_mid_backoff_accepts(self):
        registry = make_registry()
        registry.offline = True

        original_advance = registry.meter.clock.advance

        def advance_and_heal(seconds):
            original_advance(seconds)
            registry.offline = False

        registry.meter.clock.advance = advance_and_heal
        registry.claim(IDENTITY, A, machine="m-a", epoch=1, kind="new")
        assert registry.record_of(IDENTITY).holder == A


class TestRecordedTime:
    """Inside a recorded fleet group the clock stands still; the registry
    must read elapsed time through the meter like every other reader."""

    def test_fenced_claim_is_stamped_with_the_recorded_time(self):
        registry = make_registry()
        meter = registry.meter
        registry.claim(IDENTITY, A, machine="m-a", epoch=1, kind="new")
        registry.bind_liveness(IDENTITY, lambda: True)
        with meter.recording(TraceRecorder(home="m-a")):
            meter.charge_exact("cpu", 1.0)
            with pytest.raises(CloneDetectedError):
                registry.claim(IDENTITY, B, machine="m-a", epoch=2, kind="restore")
        assert registry.incidents()[-1].time == meter.clock.now + 1.0

    def test_offline_backoff_is_recorded_not_charged_to_the_clock(self):
        registry = make_registry()
        meter = registry.meter
        registry.offline = True
        before = meter.clock.now
        recorder = TraceRecorder(home="m-a")
        with meter.recording(recorder):
            with pytest.raises(RegistryUnavailableError):
                registry.claim(IDENTITY, A, machine="m-a", epoch=1, kind="new")
        assert meter.clock.now == before
        assert recorder.segments == [
            Sleep(0.05, "retry_backoff"),
            Sleep(0.1, "retry_backoff"),
            Sleep(0.2, "retry_backoff"),
        ]


class TestDurability:
    def test_state_survives_reload(self):
        storage = UntrustedStorage("ctl")
        meter = make_meter()
        registry = SingleInstanceRegistry(storage, meter)
        registry.claim(IDENTITY, A, machine="m-a", epoch=2, kind="new")
        registry.me_beat("m-a", A, 1)
        reloaded = SingleInstanceRegistry(storage, meter)
        record = reloaded.record_of(IDENTITY)
        assert record.holder == A
        assert record.epoch == 2
        # Liveness probes are runtime-only: the reloaded registry degrades
        # to epoch monotonicity, still fencing stale snapshots.
        with pytest.raises(CloneDetectedError):
            reloaded.claim(IDENTITY, B, machine="m-a", epoch=1, kind="restore")

    def test_corrupt_blob_counts_and_yields_empty_registry(self):
        storage = UntrustedStorage("ctl")
        registry = SingleInstanceRegistry(storage, make_meter())
        registry.claim(IDENTITY, A, machine="m-a", epoch=2, kind="new")
        storage.write(registry.path, b"\xff\xfe rotted")
        storage.sync(registry.path)
        before = storage.journal_corruption_count
        assert registry.record_of(IDENTITY) is None
        assert storage.journal_corruption_count == before + 1
        # A fresh claim re-registers; the registry heals forward.
        registry.claim(IDENTITY, A, machine="m-a", epoch=3, kind="restore")
        assert registry.record_of(IDENTITY).epoch == 3

    @pytest.mark.parametrize(
        "mistype",
        [
            lambda fields: {**fields, "gen": "x"},
            lambda fields: {**fields, "records": [5]},
            lambda fields: {**fields, "records": [
                wire.encode({**wire.decode(fields["records"][0]), "epoch": "2"})
            ]},
        ],
        ids=["str-gen", "int-row", "str-epoch"],
    )
    def test_mistyped_field_counts_and_yields_empty_registry(self, mistype):
        """A blob with a field of another type, at the top or in a record
        row, is corrupt like a rotted one: the next claim counts it and
        re-registers."""
        storage = UntrustedStorage("ctl")
        registry = SingleInstanceRegistry(storage, make_meter())
        registry.claim(IDENTITY, A, machine="m-a", epoch=2, kind="new")
        fields = wire.decode(storage.read(registry.path))
        storage.write(registry.path, wire.encode(mistype(fields)))
        storage.sync(registry.path)
        before = storage.journal_corruption_count
        registry.claim(IDENTITY, A, machine="m-a", epoch=3, kind="restore")
        assert storage.journal_corruption_count == before + 1
        assert registry.record_of(IDENTITY).epoch == 3

    def test_clear_resets_incident_log(self):
        registry = make_registry()
        registry.me_beat("m-a", A, 3)
        with pytest.raises(CloneDetectedError):
            registry.me_beat("m-a", B, 1)
        assert registry.has_incident_on("m-a")
        registry.clear()
        assert registry.incident_count() == 0
        assert not registry.has_incident_on("m-a")
