"""Deterministic demo fleet: the world behind ``python -m repro fleet``.

Four machines, sixteen counter enclaves placed round-robin, durable MEs
everywhere, two tenants interleaved, and one anti-affinity pair — enough
structure that every planner constraint is actually exercised by the demo
drain plan.  Seeded, so ``plan_drain("fleet-0")`` is byte-stable (it is
golden-pinned in ``tests/golden/fleet_plan_seed0.json``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cloud.datacenter import DataCenter
from repro.core.protocol import (
    MigratableApp,
    MigrationEnclaveHost,
    install_all_migration_enclaves,
)
from repro.core.retry import RetryPolicy
from repro.apps.counter_app import MigratableBenchEnclave
from repro.sgx.identity import SigningKey
from repro.fleet.model import FleetConstraints
from repro.fleet.service import FleetService

DEMO_MACHINES = 4
DEMO_ENCLAVES = 16
#: apps 0 and 1 are replicas of one service: never co-located.
DEMO_GROUP = "replica-set-0"
DEMO_POLICY = RetryPolicy(max_attempts=3, base_delay=0.05)


@dataclass
class DemoFleet:
    dc: DataCenter
    service: FleetService
    apps: list[MigratableApp] = field(default_factory=list)
    #: tracked counter id per app (padded so the id identifies the app).
    counter_ids: list[int] = field(default_factory=list)


def build_demo_fleet(
    seed: int = 0,
    n_machines: int = DEMO_MACHINES,
    n_enclaves: int = DEMO_ENCLAVES,
    dispatch: str = "serial",
) -> DemoFleet:
    """Build the seeded demo world and a registered :class:`FleetService`.

    ``dispatch="pipelined"`` replays every (wave, destination) group on the
    discrete-event scheduler, admitted as soon as the machines it claims
    are free (same bytes, contended virtual time).
    """
    dc = DataCenter(name="fleet-demo", seed=seed)
    for index in range(n_machines):
        dc.add_machine(f"fleet-{index}")
    hosts: dict[str, MigrationEnclaveHost] = install_all_migration_enclaves(
        dc, durable=True
    )
    service = FleetService(
        dc=dc,
        hosts=hosts,
        constraints=FleetConstraints(machine_capacity=n_enclaves),
        retry_policy=DEMO_POLICY,
        dispatch=dispatch,
    )
    dev_key = SigningKey.generate(dc.rng.child("fleet-demo-dev"))
    demo = DemoFleet(dc=dc, service=service)
    for index in range(n_enclaves):
        machine = dc.machine(f"fleet-{index % n_machines}")
        app = MigratableApp.deploy(
            dc,
            machine,
            MigratableBenchEnclave,
            dev_key,
            vm_name=f"fleet-vm-{index}",
            app_name=f"fleet-app-{index}",
        )
        app.retry_policy = DEMO_POLICY
        enclave = app.start_new()
        # Pad counter ids so each app's tracked counter id is unique
        # fleet-wide (id == index), then give each a distinct value — the
        # post-migration state check can attribute any serving instance.
        for _ in range(index):
            enclave.ecall("create_counter")
        counter_id, _ = enclave.ecall("create_counter")
        for _ in range(index % 5 + 1):
            enclave.ecall("increment_counter", counter_id)
        service.register(
            app,
            tenant=f"tenant-{'a' if index % 2 == 0 else 'b'}",
            anti_affinity_group=DEMO_GROUP if index < 2 else None,
        )
        demo.apps.append(app)
        demo.counter_ids.append(counter_id)
    return demo


def counter_values(demo: DemoFleet) -> dict[str, int]:
    """Read every app's tracked counter (asserting the enclave serves)."""
    values: dict[str, int] = {}
    for app, counter_id in zip(demo.apps, demo.counter_ids):
        values[app.app_name] = app.enclave.ecall("read_counter", counter_id)
    return values
