"""ME epoch invalidation: a reinstalled Migration Enclave mints a fresh
session epoch, so cached attested sessions bound to the old epoch cannot be
replayed — the peer falls back to full remote attestation."""

from repro import wire
from repro.attacks import cloning
from repro.cloud.network import Endpoint
from repro.core.migration_enclave import MigrationEnclave
from repro.core.protocol import reinstall_migration_enclave
from repro.core.result import MigrationOutcome
from repro.faults.chaos import DESTINATION, SOURCE, attach_injector
from repro.faults.plan import FaultPlan


def _beat(world, machine_name):
    reply = world.app.app.send(
        str(Endpoint.me(world.dc.machine(machine_name).address)),
        wire.encode({"t": "heartbeat"}),
    )
    return wire.decode(reply)


class TestFreshEpochOnReinstall:
    def test_reinstalled_me_has_fresh_epoch_and_continuous_heartbeat(self):
        """The session epoch is *never* restored from the sealed checkpoint
        (that is what invalidates cached sessions); the heartbeat *is*
        restored (that is what catches checkpoint rollbacks)."""
        world = cloning.campaign_world("restore-window", 2018)
        first = _beat(world, SOURCE)
        assert first["status"] == "ok"
        assert first["heartbeat"] == 1
        reinstall_migration_enclave(
            world.dc,
            world.dc.machine(SOURCE),
            world.me_signer,
            durable=True,
            registry=world.registry,
        )
        second = _beat(world, SOURCE)
        assert second["status"] == "ok"
        # Fresh epoch: the reinstalled instance is a different session peer.
        assert second["epoch"] != first["epoch"]
        # Continuous heartbeat: the restored checkpoint carried the counter
        # forward, so the legitimate reinstall is NOT flagged as a clone.
        assert second["heartbeat"] == first["heartbeat"] + 1
        assert world.registry.incident_count() == 0

    def test_me_enclave_epoch_differs_after_reinstall(self):
        world = cloning.campaign_world("restore-window", 2018)
        machine = world.dc.machine(SOURCE)

        def me_enclave():
            return next(
                e
                for e in machine.enclaves
                if e.enclave_class is MigrationEnclave and e.alive
            )

        old = me_enclave()
        # Beat through the message path (it checkpoints the counter) so the
        # reinstalled ME continues the sequence instead of regressing.
        old_epoch = _beat(world, SOURCE)["epoch"]
        reinstall_migration_enclave(
            world.dc, machine, world.me_signer, durable=True,
            registry=world.registry,
        )
        new = next(
            e
            for e in machine.enclaves
            if e.enclave_class is MigrationEnclave and e.alive and e is not old
        )
        assert new.ecall("heartbeat")["epoch"] != old_epoch


class TestStaleCachedSession:
    def test_stale_cached_session_falls_back_to_full_ra(self):
        """After the destination ME is reinstalled, the source ME's cached
        attested session points at a dead epoch: the next migration must
        re-run the full remote-attestation handshake (ra_msg1 reappears)."""
        trace = cloning.probe_window_trace("stale-session-replay", 2018)
        assert any(leg.msg_type == "ra_msg1" for leg in trace)

    def test_warm_cached_session_is_resumed_without_full_ra(self):
        """Control: with session resumption on and no reinstall, the second
        migration to the same destination resumes the cached session and
        never sends ra_msg1."""
        world = cloning.campaign_world("stale-session-replay", 2018)
        destination = world.dc.machine(DESTINATION)
        result = world.apps[0].migrate(destination, migrate_vm=False)
        assert result.outcome is MigrationOutcome.COMPLETED
        injector = attach_injector(world, FaultPlan())
        result = world.apps[1].migrate(destination, migrate_vm=False)
        world.dc.network.fault_injector = None
        assert result.outcome is MigrationOutcome.COMPLETED
        assert not any(leg.msg_type == "ra_msg1" for leg in injector.trace)
