"""Cloning-window attack campaigns at fleet scale, and their detection.

Briongos et al. observe that any migration scheme with persistent state has
*cloning windows*: instants where an adversary who controls the untrusted
host can launch a second instance from a snapshot of the sealed library
state — during the RESTORE window (before the legitimate instance's claim
lands), against a stale ME epoch (replaying a cached attested session after
the destination ME was reinstalled), into a batched ``transfer_batch`` wave
(double-joining a staged member), or from a *healed* disk image after
tombstone recovery (the backup restores a pre-freeze blob the freeze flag
never marked).

This module is the adversary of the chaos harness's clone family
(:class:`~repro.faults.chaos.CloneScenario`): it scripts those campaigns as
deterministic schedules over the :mod:`repro.faults` hooks, so they compose
with network faults at exact message positions — a
:meth:`~repro.faults.plan.FaultPlan.hook` rule launches the clone at the
``seq``-th observed message of the victim migration, optionally while
another rule drops an earlier protocol leg and the retry/resume machinery is
mid-recovery.  The world, the recovery routine and the R3/R4 oracle are the
harness's.

The defense under test is the epoch/heartbeat clone detection of
:mod:`repro.fleet.registry`:

* guarded libraries (``MigratableApp.clone_guard``) claim a per-instance
  epoch with the fleet's :class:`SingleInstanceRegistry` before operating;
* MEs report freeze hand-offs (``advance``) and monotonic heartbeats, so a
  clone accepted inside the freeze window is fenced *retroactively* when
  the legitimate shipment lands, and an ME restored from an older sealed
  checkpoint fences itself on its first beat;
* a fenced clone is terminated (graceful degradation) while the legitimate
  instance keeps serving; an unreachable registry denies by default.

Every campaign fills the harness's
:class:`~repro.faults.chaos.ScenarioReport` with the clone's fate, whether
the registry *detected* (recorded an incident) and *fenced* it, and the
detection latency in virtual seconds.
"""

from __future__ import annotations

from repro import wire
from repro.apps.counter_app import MigratableBenchEnclave
from repro.cloud.network import Endpoint
from repro.core.protocol import LIBRARY_STATE_PATH, MigratableApp
from repro.errors import (
    CloneDetectedError,
    FencedInstanceError,
    InvalidStateError,
    ReproError,
    TransientError,
)
from repro.faults.chaos import (
    DESTINATION,
    SOURCE,
    ScenarioReport,
    World,
    attach_injector,
    build_world,
    migrate,
    probe_trace,
    recover,
    reinstall_me,
)
from repro.faults.injector import ObservedMessage
from repro.faults.plan import FaultPlan

#: Counter targets per deployed app (padded ids, as in every harness
#: world): distinct values so a cross-instance mix-up shows as R4.
CLONE_COUNTER_TARGETS = (3, 5)

#: How many times the adversary re-presses a claim that was denied only
#: transiently (deny-by-default while the registry/network was unreachable).
ADVERSARY_RETRIES = 3

#: Name stem of the clones each message-window campaign launches.
_CLONE_LABELS = {
    "restore-window": "restore-clone",
    "wave-double-join": "wave-clone",
    "stale-session-replay": "replay-clone",
}


# ------------------------------------------------------------------ worlds
def campaign_world(campaign: str, seed: int = 2018) -> World:
    """The guarded world a campaign attacks: source and destination with
    durable, registry-attached MEs, the control machine holding the
    :class:`SingleInstanceRegistry`, and clone-guarded counter enclaves on
    the source — two for the wave and the stale-session replay (which also
    caches attested ME sessions), one otherwise."""
    apps = 2 if campaign in ("wave-double-join", "stale-session-replay") else 1
    return build_world(
        seed,
        campaign == "stale-session-replay",
        targets=CLONE_COUNTER_TARGETS[:apps],
        name="clone",
        label="clone",
        app_prefix="clone",
        guarded=True,
    )


def _victims(world: World, campaign: str) -> list[MigratableApp]:
    """The apps the campaign's victim migration moves.  The stale-session
    replay's victim is the *second* migration: app 0 migrates fault-free
    (warming the source ME's cached attested session), then the
    destination ME is reinstalled so that session points at a stale ME
    epoch, and app 1 migrates."""
    if campaign != "stale-session-replay":
        return world.apps
    outcome, completed = migrate(world, world.apps[:1])
    if not completed:
        raise AssertionError(f"warm-up migration failed: {outcome}")
    reinstall_me(world, DESTINATION)
    return world.apps[1:]


def probe_window_trace(campaign: str, seed: int = 2018) -> list[ObservedMessage]:
    """Message trace of a window campaign's victim migration, fault-free:
    every request leg is a cloning window the campaign races."""
    world = campaign_world(campaign, seed)
    return probe_trace(world, _victims(world, campaign))


# ------------------------------------------------------------- clone moves
def _terminate(app, enclave) -> None:
    """Tear the clone down: remove it from its host app and destroy it."""
    if enclave in app.enclaves:
        app.enclaves.remove(enclave)
    app.machine.on_enclave_destroyed(enclave)
    enclave.destroy()


def launch_clone(
    world: World, machine, stale_buffer: bytes, label: str
) -> tuple[str, object, object]:
    """One clone-launch attempt from a sealed library snapshot.

    Returns ``(outcome, enclave, host_app)``; the enclave is non-None only
    when the claim was *accepted* (the registry let a second instance in).
    Denials tear the clone down immediately — "fenced and terminated".
    """
    vm = machine.create_vm(f"{label}-vm")
    attack_app = vm.launch_application(label)
    clone = attack_app.launch_enclave(MigratableBenchEnclave, world.dev_key)
    clone.register_ocall(
        "send_to_me",
        lambda addr, p: attack_app.send(str(Endpoint.me(addr)), p),
    )
    clone.register_ocall("save_library_state", lambda blob: None)
    try:
        clone.ecall("migration_init", stale_buffer, "RESTORE", machine.address)
    except (CloneDetectedError, FencedInstanceError) as exc:
        _terminate(attack_app, clone)
        return f"denied:{type(exc).__name__}", None, attack_app
    except InvalidStateError as exc:
        # The freeze flag refused the snapshot before any claim was made.
        _terminate(attack_app, clone)
        return f"refused:{type(exc).__name__}", None, attack_app
    except TransientError as exc:
        # Deny-by-default: the registry/network was unreachable mid-window.
        _terminate(attack_app, clone)
        return f"denied-transient:{type(exc).__name__}", None, attack_app
    except ReproError as exc:
        _terminate(attack_app, clone)
        return f"failed:{type(exc).__name__}", None, attack_app
    return "accepted", clone, attack_app


def _adjudicated(outcome: str) -> bool:
    """True once the registry gave a final answer (accept or hard deny)."""
    return outcome == "accepted" or outcome.startswith("denied:")


class _CloneCampaignState:
    """Shared mutable state between the hook, the press-home retries, and
    the report: the attacker's first-attempt timestamp and latest result."""

    def __init__(self, world: World, machine, stale_buffer: bytes, label: str):
        self.world = world
        self.machine = machine
        self.stale_buffer = stale_buffer
        self.label = label
        self.attempts = 0
        self.first_attempt_at: float | None = None
        self.outcome: str | None = None
        self.clone = None
        self.clone_app = None
        self.log: list[str] = []

    def attempt(self) -> None:
        if self.first_attempt_at is None:
            self.first_attempt_at = self.world.dc.clock.now
        outcome, clone, app = launch_clone(
            self.world,
            self.machine,
            self.stale_buffer,
            f"{self.label}-{self.attempts}",
        )
        self.attempts += 1
        self.outcome, self.clone, self.clone_app = outcome, clone, app
        self.log.append(
            f"t={self.world.dc.clock.now:.6f} clone attempt "
            f"{self.attempts}: {outcome}"
        )

    def hook(self, src: str, dst: str, payload: bytes, direction: str):
        """FaultPlan hook body: launch the clone at the matched message,
        then deliver the message unchanged."""
        if self.attempts == 0:
            self.attempt()
        return payload

    def press_home(self) -> None:
        """After the fault window closes, the adversary keeps pressing a
        claim that never reached the registry until it is adjudicated."""
        if self.outcome is None:
            self.attempt()  # the window never opened; attack post-protocol
        retries = 0
        while not _adjudicated(self.outcome) and retries < ADVERSARY_RETRIES:
            if self.outcome.startswith("refused:"):
                break  # freeze flag said no before any claim: terminal
            self.world.dc.clock.advance(0.05)
            self.attempt()
            retries += 1


def _resolve_clone(state: _CloneCampaignState, report: ScenarioReport) -> None:
    """Fence-and-terminate resolution: a clone the registry accepted but
    later fenced is destroyed; an accepted, *unfenced* clone is left alive
    so the R3 check convicts the defense."""
    registry = state.world.registry
    if state.clone is None:
        return
    try:
        identity = state.clone.ecall("guard_identity")
    except ReproError:
        identity = b""
    record = registry.record_of(identity) if identity else None
    if record is not None and record.fenced:
        _terminate(state.clone_app, state.clone)
        state.clone = None
        report.timeline.append(
            "fenced clone terminated; legitimate instance keeps serving"
        )
    else:
        report.timeline.append(
            "accepted clone was never fenced — leaving it alive for the "
            "invariant check"
        )


def _score_detection(
    state: _CloneCampaignState,
    report: ScenarioReport,
    incidents_before: int,
) -> None:
    registry = state.world.registry
    new_incidents = registry.incidents()[incidents_before:]
    report.detected = bool(new_incidents)
    report.fenced = bool(new_incidents) and state.clone is None
    if new_incidents and state.first_attempt_at is not None:
        report.detection_latency = round(
            new_incidents[0].time - state.first_attempt_at, 6
        )
    report.clone_outcome = state.outcome or "not-attempted"
    report.timeline.extend(state.log)
    if not report.detected:
        report.violations.append(
            "defense: clone attempt left no registry incident"
        )
    elif not report.fenced:
        report.violations.append("defense: detected clone was never fenced")


# ---------------------------------------------------------------- campaigns
def run_campaign(scenario, world: World, report: ScenarioReport) -> None:
    """Run one :class:`~repro.faults.chaos.CloneScenario` on its
    :func:`campaign_world`."""
    if scenario.campaign == "healed-disk":
        _run_healed_disk(scenario, world, report)
    else:
        _run_window(scenario, world, report)


def _run_window(scenario, world: World, report: ScenarioReport) -> None:
    """The three message-window campaigns, one script: at message
    ``window_seq`` of the victim migration a clone claims RESTORE on the
    source from the adversary's pre-migration snapshot of app 0.

    * ``restore-window`` — the second instance races one guarded migration;
    * ``wave-double-join`` — it double-joins a two-member batched wave (one
      staged ``transfer_batch`` exchange);
    * ``stale-session-replay`` — it claims the already-migrated app 0's old
      identity while app 1's migration must fall back to full remote
      attestation against the reinstalled destination ME.

    With ``fault="drop"`` an earlier protocol leg is lost first (the drop
    rule is listed first, so it is adjudicated before the hook on a shared
    message).
    """
    dc = world.dc
    stale_buffer = world.apps[0].stored_library_buffer()
    victims = _victims(world, scenario.campaign)
    if scenario.campaign == "stale-session-replay":
        report.timeline.append(
            "app 0 migrated; destination ME reinstalled (cached session is "
            "now bound to a stale ME epoch)"
        )
    state = _CloneCampaignState(
        world, dc.machine(SOURCE), stale_buffer, _CLONE_LABELS[scenario.campaign]
    )
    incidents_before = world.registry.incident_count()
    plan = FaultPlan()
    if scenario.fault == "drop" and scenario.fault_seq >= 0:
        plan.drop(nth=scenario.fault_seq)
    injector = attach_injector(world, plan.hook(state.hook, nth=scenario.window_seq))
    report.migrate_outcome, completed = migrate(world, victims)
    # Keep the injector installed while recovering: occurrence counting
    # continues, so a window later than the fault position opens during the
    # resume pass — the clone races the *recovery*, not just the protocol.
    if not completed:
        recover(world, report)
    dc.network.fault_injector = None
    state.press_home()
    _resolve_clone(state, report)
    _score_detection(state, report, incidents_before)
    if scenario.campaign != "stale-session-replay":
        return
    # The stale cached session must NOT have been accepted: the second
    # migration re-runs the full remote-attestation handshake.
    if not any(leg.msg_type == "ra_msg1" for leg in injector.trace):
        report.violations.append(
            "stale cached session accepted by a reinstalled ME (no full-RA "
            "fallback observed)"
        )
    else:
        report.timeline.append(
            "full remote attestation re-ran against the reinstalled ME"
        )


def _run_healed_disk(scenario, world: World, report: ScenarioReport) -> None:
    """Relaunch from a healed disk image after tombstone recovery.

    ``scenario.window`` selects the artifact the backup restores:

    * ``"tombstone-heal"`` — after a completed migration the source's
      sealed library blob is healed from the archive; the newest copy is
      frozen (freeze-flag refusal), so the adversary replays successively
      older versions until a pre-freeze snapshot initializes — and its
      stale epoch is fenced by the registry.
    * ``"replay-prefreeze"`` — the adversary skips straight to replaying
      the newest *unfrozen* version (same endgame, shorter timeline).
    * ``"me-checkpoint"`` — the *destination ME's* sealed checkpoint is
      rolled back below already-reported heartbeats; the reinstalled ME
      regresses on its first beat and fences itself.
    """
    dc = world.dc
    report.migrate_outcome, completed = migrate(world, world.apps)
    if not completed:
        report.violations.append("setup migration did not complete")
        return
    incidents_before = world.registry.incident_count()
    attach_injector(
        world, FaultPlan().drop(nth=1) if scenario.fault == "drop" else FaultPlan()
    )
    if scenario.window == "me-checkpoint":
        beat_at = _healed_me_checkpoint(world, report)
        dc.network.fault_injector = None
        _score_me_detection(world, report, incidents_before, beat_at)
    else:
        _healed_library_blob(
            world, dc.machine(SOURCE), scenario.window, report, incidents_before
        )
        dc.network.fault_injector = None


def _library_blob_path(app: MigratableApp) -> str:
    return f"{app.app_name}/{LIBRARY_STATE_PATH}"


def _healed_library_blob(
    world: World,
    source,
    window: str,
    report: ScenarioReport,
    incidents_before: int,
) -> None:
    """Heal/replay the migrated-away library blob and press clones from
    progressively older versions until the registry adjudicates."""
    path = _library_blob_path(world.app)
    if window == "tombstone-heal":
        source.storage.heal(path + "*")
        report.timeline.append(f"healed {path!r} from the storage archive")
    versions = source.storage.versions(path)
    state = _CloneCampaignState(world, source, b"", "healed-clone")
    for index in range(len(versions) - 1, -1, -1):
        blob = versions[index]
        if blob is None:
            report.timeline.append(f"version {index}: tombstone, skipped")
            continue
        source.storage.replay(path, index)
        state.stale_buffer = source.storage.read(path)
        state.attempt()
        if window == "replay-prefreeze" and state.outcome.startswith("refused:"):
            # This variant goes straight for an unfrozen snapshot.
            continue
        if _adjudicated(state.outcome):
            break
        if state.outcome.startswith("denied-transient"):
            state.press_home()
            if _adjudicated(state.outcome):
                break
    _resolve_clone(state, report)
    _score_detection(state, report, incidents_before)


def _beat_destination(world: World) -> dict:
    """One heartbeat against the destination ME over the network (the
    durable path: the ME checkpoints after every handled message)."""
    reply = world.app.app.send(
        str(Endpoint.me(world.dc.machine(DESTINATION).address)),
        wire.encode({"t": "heartbeat"}),
    )
    return wire.decode(reply)


def _healed_me_checkpoint(world: World, report: ScenarioReport) -> float:
    """Roll the destination ME's sealed checkpoint back below heartbeats
    the registry has already seen, then power-cycle and reinstall."""
    dc = world.dc
    destination = dc.machine(DESTINATION)
    ckpt_paths = [
        p for p in destination.storage.paths() if "me_checkpoint" in p
    ]
    baseline = {p: len(destination.storage.versions(p)) for p in ckpt_paths}
    for _ in range(3):
        for _attempt in range(3):
            try:
                reply = _beat_destination(world)
            except ReproError as exc:
                # A lost beat (or reply) is retried — heartbeats are
                # idempotent from the operator's side, and a re-delivered
                # beat only advances the monotonic counter further.
                report.timeline.append(
                    f"heartbeat lost in transit ({type(exc).__name__}); retrying"
                )
                world.dc.clock.advance(0.05)
                continue
            if reply.get("status") != "ok":
                report.timeline.append(f"heartbeat rejected: {reply}")
            break
    report.timeline.append(
        "3 heartbeats reported and persisted in the v4 checkpoint"
    )
    destination.crash()
    for path, count in baseline.items():
        if count and len(destination.storage.versions(path)) > count:
            destination.storage.replay(path, count - 1)
    report.timeline.append(
        "machine crashed; ME checkpoint blobs replayed to the pre-beat image"
    )
    host = reinstall_me(world, DESTINATION)
    # The app enclave died with the machine; its guarded relaunch is the
    # legitimate takeover (dead holder, fresh epoch claim).
    try:
        world.app.restart()
        report.recovery_outcome = "restarted"
    except ReproError as exc:
        report.recovery_outcome = f"raised:{type(exc).__name__}"
    # First beat from the rolled-back ME: direct ECALL, so the regression
    # surfaces as a typed CloneDetectedError to the operator.
    beat_at = dc.clock.now
    try:
        beat = host.enclave.ecall("heartbeat")
        report.timeline.append(
            f"rolled-back ME heartbeat ACCEPTED at {beat['heartbeat']} "
            "(should have regressed)"
        )
        report.clone_outcome = "accepted"
    except CloneDetectedError as exc:
        report.clone_outcome = "denied:CloneDetectedError"
        report.timeline.append(f"rolled-back ME fenced on first beat: {exc}")
    except FencedInstanceError as exc:
        report.clone_outcome = "denied:FencedInstanceError"
        report.timeline.append(f"rolled-back ME already fenced: {exc}")
    except TransientError:
        report.clone_outcome = "denied-transient:TransientError"
    return beat_at


def _score_me_detection(
    world: World,
    report: ScenarioReport,
    incidents_before: int,
    beat_at: float,
) -> None:
    new_incidents = world.registry.incidents()[incidents_before:]
    report.detected = bool(new_incidents)
    report.fenced = report.detected and report.clone_outcome.startswith("denied:")
    if new_incidents:
        report.detection_latency = round(new_incidents[0].time - beat_at, 6)
    if not report.detected:
        report.violations.append(
            "defense: rolled-back ME checkpoint left no registry incident"
        )
    elif not report.fenced:
        report.violations.append("defense: regressed ME was never fenced")
