#!/usr/bin/env python
"""Fleet operations: policies, unauthorized destinations, crash recovery.

Shows the operator-facing side of the framework:

* R2 in action — a Migration Enclave provisioned by a *different* cloud
  provider cannot receive migrations, even though it runs identical code;
* operator policies — a region policy keeps an enclave inside the EU;
* error handling — a failed migration leaves the data at the source ME and
  can be retried towards another machine;
* crash recovery — an application crash loses the enclave, but a restart
  restores everything from the sealed library buffer.

Run:  python examples/datacenter_ops.py
"""

from repro.apps.kvstore import SecureKvStore
from repro.cloud.datacenter import DataCenter
from repro.core.migration_enclave import MigrationEnclave
from repro.core.policy import PolicySet, RegionPolicy, SameProviderPolicy
from repro.core.protocol import (
    MigratableApp,
    flush_staged,
    install_migration_enclave,
)
from repro.errors import MigrationError
from repro.sgx.identity import SigningKey


def main() -> int:
    dc = DataCenter(name="eu-cloud", seed=11)
    frankfurt = dc.add_machine("fra-01")
    paris = dc.add_machine("par-01")
    virginia = dc.add_machine("iad-01")

    regions = {"fra-01": "eu", "par-01": "eu", "iad-01": "us"}
    me_key = SigningKey.generate(dc.rng.child("me-signer"))
    eu_policy = PolicySet(
        [SameProviderPolicy(dc.name), RegionPolicy(regions, frozenset({"eu"}))]
    )
    for machine in (frankfurt, paris, virginia):
        install_migration_enclave(dc, machine, me_key, eu_policy)

    print("== deploy a GDPR-constrained enclave in Frankfurt ==")
    dev_key = SigningKey.generate(dc.rng.child("dev"))
    app = MigratableApp.deploy(dc, frankfurt, SecureKvStore, dev_key)
    enclave = app.start_new()
    enclave.ecall("kv_init")
    snapshot = enclave.ecall("put", "records", b"eu-personal-data")
    frankfurt.storage.write("backups/kv", snapshot)

    print("== region policy blocks migration to Virginia ==")
    # The enclave freezes and parks its state at the local ME; the ME checks
    # its policies when the host asks it to ship the parked record.
    enclave.ecall("migration_start", "iad-01")
    try:
        flush_staged(app.app, "iad-01")
        print("   !!! policy did not fire")
        return 1
    except MigrationError as exc:
        print(f"   blocked: {exc}")

    print("== a rogue provider's ME is rejected outright (R2) ==")
    rogue_cloud = DataCenter(name="rogue-cloud", seed=666)
    rogue_cloud.add_machine("rogue-01")
    rogue_machine = dc.add_machine("rogue-01")
    mgmt = rogue_machine.management_vm.launch_application("rogue-me")
    rogue_me = mgmt.launch_enclave(MigrationEnclave, me_key)
    rogue_me.register_ocall("net_send", lambda dst, p: mgmt.send(dst, p))
    rogue_credential = rogue_cloud.issue_credential(
        "rogue-01", rogue_me.identity.mrenclave, rogue_me.ecall("signing_public_key")
    )
    rogue_me.ecall(
        "provision",
        rogue_credential.to_bytes(),
        rogue_cloud.ca_public_key,
        dc.ias_verify_for(rogue_machine),
        dc.ias.report_public_key,
        "rogue-01",
        None,
    )
    dc.network.register("rogue-01/me", lambda p, s: rogue_me.ecall("handle_message", p, s))
    # the library is frozen, so this asks the source ME to re-route the
    # retained data towards the rogue machine — whose ME is then refused
    enclave.ecall("migration_start", "rogue-01")
    try:
        flush_staged(app.app, "rogue-01")
        print("   !!! migration to rogue provider succeeded")
        return 1
    except MigrationError as exc:
        print(f"   blocked: {str(exc)[:90]}…")

    print("== the data is still at the source ME; retry towards Paris ==")
    enclave.ecall("migration_start", "par-01")  # frozen library -> ME retry
    flush_staged(app.app, "par-01")
    app.app.terminate()
    app.vm.machine.release_vm(app.vm)
    paris.adopt_vm(app.vm)
    enclave = app.launch_from_incoming()
    enclave.ecall("load_snapshot", frankfurt.storage.read("backups/kv"))
    print(f"   enclave now in: {app.vm.machine.name}, "
          f"records: {enclave.ecall('get', 'records').decode()}")

    print("== crash recovery: the app dies, the sealed buffer brings it back ==")
    snapshot = enclave.ecall("put", "post-migration", b"paris-write")
    paris.storage.write("backups/kv", snapshot)
    app.app.crash()
    print(f"   enclave alive after crash: {enclave.alive}")
    enclave = app.restart()
    enclave.ecall("load_snapshot", paris.storage.read("backups/kv"))
    print(f"   recovered keys: {enclave.ecall('keys')}")
    enclave.ecall("put", "post-crash", b"still-working")
    print(f"   enclave serving again: {enclave.ecall('get', 'post-crash').decode()}")

    print("\nfleet operations demo complete ✔")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
