"""Migration Enclave protocol robustness: bad messages, provisioning, auth."""

import pytest

from repro import wire
from repro.apps.counter_app import MigratableBenchEnclave
from repro.cloud.datacenter import DataCenter
from repro.cloud.network import Endpoint
from repro.core.migration_enclave import MigrationEnclave
from repro.core.migration_library import InitState
from repro.core.policy import AllowedDestinationsPolicy, PolicySet, SameProviderPolicy
from repro.core.protocol import (
    MigratableApp,
    flush_staged,
    install_all_migration_enclaves,
    install_migration_enclave,
)
from repro.errors import InvalidStateError, MigrationError, ReproError
from repro.sgx.identity import SigningKey
from tests.adversary import tap


@pytest.fixture
def world():
    dc = DataCenter(name="me-proto", seed=13)
    dc.add_machine("machine-a")
    dc.add_machine("machine-b")
    hosts = install_all_migration_enclaves(dc)
    return dc, hosts


class TestMessageHandling:
    def test_unknown_message_type(self, world):
        dc, hosts = world
        response = wire.decode(
            dc.network.send("machine-b", "machine-a/me", wire.encode({"t": "bogus"}))
        )
        assert response["status"] == "error"

    def test_deeply_nested_message_gets_error_response(self, world):
        """Any endpoint can send 5,000 nested list headers (25 KB): the ME
        answers with an error, no exception escapes its ECALL, and it serves
        the next message."""
        dc, hosts = world
        me = str(Endpoint.me("machine-a"))
        lists = (b"\x04" + (1).to_bytes(4, "big")) * 4_999 + b"\x04" + bytes(4)
        payload = b"RPR1" + (1).to_bytes(2, "big") + (1).to_bytes(2, "big") + b"t" + lists
        response = wire.decode(dc.network.send("evil", me, payload))
        assert response["status"] == "error"
        assert "nested deeper" in response["error"]
        response = wire.decode(dc.network.send("evil", me, wire.encode({"t": "heartbeat"})))
        assert response["status"] == "ok"

    def test_record_for_unknown_session(self, world):
        dc, hosts = world
        message = wire.encode({"t": "la_rec", "sid": "la-9999", "payload": b"x"})
        response = wire.decode(dc.network.send("machine-b", "machine-a/me", message))
        assert response["status"] == "error"

    def test_ra_record_for_unknown_session(self, world):
        dc, hosts = world
        message = wire.encode({"t": "ra_rec", "sid": "ra-9999", "payload": b"x"})
        response = wire.decode(dc.network.send("machine-b", "machine-a/me", message))
        assert response["status"] == "error"

    @pytest.mark.parametrize("kind", ["la_rec", "ra_rec"])
    @pytest.mark.parametrize(
        "field,value",
        [("ct", "forged"), ("ct", [1, 2]), ("tag", "0123456789abcdef")],
        ids=["str-ct", "list-ct", "str-tag"],
    )
    def test_record_field_of_another_type_gets_error_response(self, world, kind, field, value):
        """Before each channel record of a migration reaches its ME, a copy
        whose ciphertext or tag decodes to a string or list is delivered
        first: the ME answers it with an error, and the migration goes on."""
        dc, hosts = world
        replies = []

        def forge_first(src, dst, payload, direction):
            try:
                message = wire.decode(payload)
            except wire.WireError:
                return payload
            if not replies and message.get("t") == kind:
                record = wire.decode(message["payload"])
                record[field] = value
                forged = wire.encode({**message, "payload": wire.encode(record)})
                me = hosts[dst.split("/")[0]].enclave
                replies.append(wire.decode(me.ecall("handle_message", forged, src)))
            return payload

        with tap(dc.network, forge_first):
            key = SigningKey.generate(dc.rng.child("dev"))
            app = MigratableApp.deploy(dc, dc.machine("machine-a"), MigratableBenchEnclave, key)
            enclave = app.start_new()
            counter_id, _ = enclave.ecall("create_counter")
            enclave.ecall("increment_counter", counter_id)
            enclave = app.migrate(dc.machine("machine-b"), migrate_vm=False)
        assert [reply["status"] for reply in replies] == ["error"]
        assert enclave.ecall("read_counter", counter_id) == 1

    def test_la_msg1_without_hello(self, world):
        dc, hosts = world
        message = wire.encode({"t": "la_msg1", "sid": "nope", "payload": b"x"})
        response = wire.decode(dc.network.send("machine-b", "machine-a/me", message))
        assert response["status"] == "error"

    def test_garbage_ra_msg1(self, world):
        dc, hosts = world
        message = wire.encode({"t": "ra_msg1", "payload": b"garbage"})
        response = wire.decode(dc.network.send("machine-b", "machine-a/me", message))
        assert response["status"] == "error"

    def test_forged_done_notice_ignored(self, world):
        dc, hosts = world
        key = SigningKey.generate(dc.rng.child("dev"))
        app = MigratableApp.deploy(dc, dc.machine("machine-a"), MigratableBenchEnclave, key)
        enclave = app.start_new()
        mrenclave = enclave.identity.mrenclave
        enclave.ecall("migration_start", "machine-b")
        flush_staged(app.app, "machine-b")
        # adversary forges a done notice without knowing the token
        notice = wire.encode(
            {"t": "done_notice", "target_mrenclave": mrenclave, "token": bytes(16)}
        )
        response = wire.decode(dc.network.send("evil", "machine-a/me", notice))
        assert response["status"] == "error"
        assert hosts["machine-a"].enclave.ecall("has_pending_outgoing", mrenclave)


class TestProvisioning:
    def test_unprovisioned_me_refuses_migrations(self):
        dc = DataCenter(name="unprov", seed=3)
        machine = dc.add_machine("machine-a")
        dc.add_machine("machine-b")
        key = SigningKey.generate(dc.rng.child("me"))
        mgmt_app = machine.management_vm.launch_application("svc")
        me = mgmt_app.launch_enclave(MigrationEnclave, key)
        me.register_ocall("net_send", lambda dst, p: mgmt_app.send(dst, p))
        dc.network.register("machine-a/me", lambda p, s: me.ecall("handle_message", p, s))

        dev_key = SigningKey.generate(dc.rng.child("dev"))
        app = MigratableApp.deploy(dc, machine, MigratableBenchEnclave, dev_key)
        enclave = app.start_new()  # LA to the ME still works
        enclave.ecall("migration_start", "machine-b")
        with pytest.raises(MigrationError):
            flush_staged(app.app, "machine-b")

    def test_credential_for_wrong_key_rejected(self, world):
        dc, hosts = world
        machine = dc.machine("machine-a")
        key = SigningKey.generate(dc.rng.child("me2"))
        mgmt_app = machine.management_vm.launch_application("svc2")
        me = mgmt_app.launch_enclave(MigrationEnclave, key)
        wrong_credential = dc.issue_credential(
            "machine-a", me.identity.mrenclave, 12345  # not the ME's key
        )
        with pytest.raises(InvalidStateError):
            me.ecall(
                "provision",
                wrong_credential.to_bytes(),
                dc.ca_public_key,
                dc.ias_verify_for(machine),
                dc.ias.report_public_key,
                "machine-a",
                None,
            )

    def test_credential_for_wrong_enclave_rejected(self, world):
        dc, hosts = world
        machine = dc.machine("machine-a")
        key = SigningKey.generate(dc.rng.child("me3"))
        mgmt_app = machine.management_vm.launch_application("svc3")
        me = mgmt_app.launch_enclave(MigrationEnclave, key)
        credential = dc.issue_credential(
            "machine-a", bytes(32), me.ecall("signing_public_key")
        )
        with pytest.raises(InvalidStateError):
            me.ecall(
                "provision",
                credential.to_bytes(),
                dc.ca_public_key,
                dc.ias_verify_for(machine),
                dc.ias.report_public_key,
                "machine-a",
                None,
            )

    def test_retry_without_pending_rejected(self, world):
        dc, hosts = world
        with pytest.raises(MigrationError):
            hosts["machine-a"].enclave.ecall("retry_pending", bytes(32), "machine-b")


class TestPolicies:
    def test_allowed_destinations_policy_blocks(self):
        dc = DataCenter(name="policy-dc", seed=21)
        machine_a = dc.add_machine("machine-a")
        machine_b = dc.add_machine("machine-b")
        machine_c = dc.add_machine("machine-c")
        me_key = SigningKey.generate(dc.rng.child("me-signer"))
        # machine-a's ME only allows migrations to machine-c
        policies = PolicySet(
            [SameProviderPolicy(dc.name), AllowedDestinationsPolicy(frozenset({"machine-c"}))]
        )
        install_migration_enclave(dc, machine_a, me_key, policies)
        install_migration_enclave(dc, machine_b, me_key)
        install_migration_enclave(dc, machine_c, me_key)

        dev_key = SigningKey.generate(dc.rng.child("dev"))
        app = MigratableApp.deploy(dc, machine_a, MigratableBenchEnclave, dev_key)
        enclave = app.start_new()
        enclave.ecall("migration_start", "machine-b")
        with pytest.raises(MigrationError):
            flush_staged(app.app, "machine-b")
        # allowed destination still works
        migrated = app.migrate(machine_c, migrate_vm=False)
        assert migrated.alive


class TestStrandedRecord:
    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP open item 'A frozen library retried under a new transaction "
        "strands its first record (R3)': the record frozen under no transaction "
        "stays parked and a later txn-less MIGRATE init installs it",
    )
    def test_retry_under_new_transaction_leaves_one_serving_instance(self):
        dc = DataCenter(name="r3-strand", seed=5)
        for name in ("machine-a", "machine-b", "machine-c"):
            dc.add_machine(name)
        install_all_migration_enclaves(dc)
        key = SigningKey.generate(dc.rng.child("dev"))
        app = MigratableApp.deploy(dc, dc.machine("machine-a"), MigratableBenchEnclave, key)
        enclave = app.start_new()
        counter_id, _ = enclave.ecall("create_counter")
        enclave.ecall("increment_counter", counter_id)

        # 1. A direct migration_start (no transaction) whose ship is dropped.
        def drop_to_b(src, dst, payload, direction):
            return None if src == "machine-a" and dst.startswith("machine-b/") else payload

        with tap(dc.network, drop_to_b):
            enclave.ecall("migration_start", "machine-b")
            with pytest.raises(MigrationError):
                flush_staged(app.app, "machine-b")
        # 2. The host migrates elsewhere, under a transaction of its own.
        app.migrate(dc.machine("machine-c"))
        # 3. Any host triggers a flush to machine-b, unauthenticated.
        wire.decode(dc.network.send(
            "evil", "machine-a/me", wire.encode({"t": "flush_staged", "dest": "machine-b"})
        ))
        # 4. A copy of the enclave on machine-b inits MIGRATE naming no transaction.
        copy = MigratableApp.deploy(
            dc, dc.machine("machine-b"), MigratableBenchEnclave, key, vm_name="copy"
        )
        instances = [app.enclave]
        try:
            instances.append(copy.launch(InitState.MIGRATE))
        except ReproError:
            pass
        serving = []
        for instance in instances:
            try:
                serving.append(instance.ecall("read_counter", counter_id))
            except ReproError:
                pass
        assert len(serving) <= 1, f"{len(serving)} instances serve the counter: {serving}"
