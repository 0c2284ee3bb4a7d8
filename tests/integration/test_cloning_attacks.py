"""End-to-end cloning-window campaigns against the single-instance registry.

The chaos ``--clone`` sweep exhausts every (campaign, window, fault) cell;
these tests pin one representative scenario per campaign plus the defense
semantics the sweep builds on: deny-by-default while the registry is
unreachable, the freeze flag as the layer *below* the registry, graceful
degradation (fenced clone terminated, legitimate instance keeps serving),
and the fleet surfaces (pre-flight checks, ``fleet status``).
"""

import pytest

from repro.attacks import cloning
from repro.cloud.storage import UntrustedStorage
from repro.core.result import MigrationOutcome
from repro.errors import CloneDetectedError, PreflightError
from repro.faults.chaos import (
    DESTINATION,
    SOURCE,
    CloneScenario,
    check_invariants,
    run_scenario,
)
from repro.fleet.demo import build_demo_fleet
from repro.fleet.registry import SingleInstanceRegistry


class TestCampaigns:
    def test_restore_window_clone_is_accepted_then_fenced(self):
        """Window 0 opens after the freeze hit disk but before the ME's
        advance: the classic cloning window.  The registry accepts the
        clone (holder looks dead, epoch is fresh enough) and fences it
        retroactively when the legitimate shipment lands."""
        report = run_scenario(
            CloneScenario("restore-window", "0:la_rec", 0, "none", -1)
        )
        assert report.clone_outcome == "accepted"
        assert report.detected and report.fenced
        assert report.detection_latency > 0
        assert report.migrate_outcome == "completed"
        assert report.ok, report.violations

    def test_restore_window_late_clone_is_denied_outright(self):
        """By the destination's install the registry records a live holder
        at the new epoch; a stale claim is denied before any state loads."""
        report = run_scenario(
            CloneScenario("restore-window", "16:la_rec", 16, "none", -1)
        )
        assert report.clone_outcome == "denied:CloneDetectedError"
        assert report.detected and report.fenced
        assert report.ok, report.violations

    def test_wave_double_join_is_fenced(self):
        trace = [
            leg for leg in cloning.probe_window_trace("wave-double-join", 2018)
            if leg.direction == "request"
        ]
        seq = trace[len(trace) // 2].seq
        report = run_scenario(
            CloneScenario("wave-double-join", str(seq), seq, "none", -1)
        )
        assert report.detected and report.fenced
        assert report.migrate_outcome == "completed+completed"
        assert report.ok, report.violations

    def test_stale_session_replay_falls_back_and_fences(self):
        trace = [
            leg for leg in cloning.probe_window_trace("stale-session-replay", 2018)
            if leg.direction == "request"
        ]
        seq = trace[2].seq
        report = run_scenario(
            CloneScenario("stale-session-replay", str(seq), seq, "none", -1)
        )
        assert report.detected and report.fenced
        assert any("full remote attestation" in line for line in report.timeline)
        assert report.ok, report.violations

    def test_healed_disk_relaunch_is_fenced_by_stale_epoch(self):
        report = run_scenario(
            CloneScenario("healed-disk", "tombstone-heal", -1, "none", -1)
        )
        # Defense in depth: the newest healed blob is frozen (refused by
        # the freeze flag), the deeper pre-freeze replay reaches the
        # registry and is fenced for epoch regression.
        assert any("refused:InvalidStateError" in line for line in report.timeline)
        assert report.clone_outcome == "denied:CloneDetectedError"
        assert report.detected and report.fenced
        assert report.ok, report.violations

    def test_rolled_back_me_checkpoint_fences_on_first_beat(self):
        report = run_scenario(
            CloneScenario("healed-disk", "me-checkpoint", -1, "none", -1)
        )
        assert report.clone_outcome == "denied:CloneDetectedError"
        assert report.detected and report.fenced
        assert report.recovery_outcome == "restarted"
        assert report.ok, report.violations


class TestDenyByDefault:
    def test_offline_registry_denies_clone_but_legit_keeps_serving(self):
        world = cloning.campaign_world("restore-window", 2018)
        stale = world.app.stored_library_buffer()
        world.registry.offline = True
        outcome, clone, _ = cloning.launch_clone(
            world, world.dc.machine(SOURCE), stale, "offline-clone"
        )
        assert outcome.startswith("denied-transient")
        assert clone is None
        # Graceful degradation: the legitimate instance never consults the
        # registry on its serving path and keeps answering reads.
        assert world.app.enclave.ecall("read_counter", world.counter_id) == 3

    def test_offline_registry_parks_migration_then_resume_completes(self):
        """An unreachable registry must never silently open a migration
        window: the freeze advance is denied (retryably), the transaction
        parks, and resume finishes once the registry is back."""
        world = cloning.campaign_world("restore-window", 2018)
        destination = world.dc.machine(DESTINATION)
        world.registry.offline = True
        result = world.app.migrate(destination, migrate_vm=False)
        assert result.outcome is MigrationOutcome.PENDING_RETRY
        world.registry.offline = False
        result = world.app.resume(migrate_vm=False)
        assert result.outcome is MigrationOutcome.RESUMED
        assert result.machine_name == DESTINATION
        assert check_invariants(world) == []


class TestFreezeFlagBelowRegistry:
    def test_frozen_healed_blob_refused_without_registry_incident(self):
        """The freeze flag is the layer below the registry: a healed blob
        that is *frozen* is refused inside the library before any claim is
        made, so no incident is recorded (and the chaos sweep's windows
        therefore exclude this non-adjudicated refusal)."""
        world = cloning.campaign_world("healed-disk", 2018)
        result = world.app.migrate(
            world.dc.machine(DESTINATION), migrate_vm=False
        )
        assert result.outcome is MigrationOutcome.COMPLETED
        source = world.dc.machine(SOURCE)
        path = cloning._library_blob_path(world.app)
        source.storage.heal(path + "*")
        buffer = source.storage.read(path)
        before = world.registry.incident_count()
        outcome, clone, _ = cloning.launch_clone(
            world, source, buffer, "frozen-clone"
        )
        assert outcome == "refused:InvalidStateError"
        assert clone is None
        assert world.registry.incident_count() == before


class TestFleetSurfaces:
    def _registry(self, demo):
        return SingleInstanceRegistry(UntrustedStorage("ctl"), demo.dc.meter)

    def test_preflight_rejects_offline_registry_and_incidents(self):
        demo = build_demo_fleet(seed=0, n_enclaves=8)
        service = demo.service
        registry = self._registry(demo)
        service.registry = registry
        plan = service.plan_drain("fleet-0")
        registry.offline = True
        with pytest.raises(PreflightError, match="registry unavailable"):
            service.apply(plan)
        registry.offline = False
        wave_machine = plan.waves[0].moves[0].source
        registry.me_beat(wave_machine, b"me-x", 3)
        with pytest.raises(CloneDetectedError):
            registry.me_beat(wave_machine, b"me-y", 1)
        with pytest.raises(PreflightError, match="clone incident"):
            service.apply(plan)
        registry.clear()
        assert service.apply(plan).completed

    def test_status_surfaces_done_groups_and_registry(self):
        """``python -m repro fleet status`` output: mid-plan, the journal-v2
        group cursor names the groups a resume would skip."""

        class _Killed(Exception):
            pass

        def kill_after_first_group(stage, index):
            if stage == "group":
                raise _Killed()

        demo = build_demo_fleet(seed=0, n_enclaves=8)
        service = demo.service
        service.registry = self._registry(demo)
        plan = service.plan_drain("fleet-0")
        with pytest.raises(_Killed):
            service.apply(plan, boundary_hook=kill_after_first_group)
        status = service.status()
        assert "groups done (skipped on resume): 1/" in status
        assert "instance registry: online, 0 clone incidents" in status
        resumed = service.resume_plan()
        assert resumed.completed
        assert "no plan in progress" in service.status()
