"""The Migration Enclave (Sections V-B and VI-A of the paper).

One Migration Enclave (ME) runs in the non-migratable management VM of every
physical machine and brokers all migrations for that host:

* **Local side** — application enclaves local-attest to the ME; the ME
  records each caller's MRENCLAVE from the attestation REPORT and uses it to
  match migration data to recipients.
* **Outgoing** — a ``stage_out`` command parks the caller's migration data.
  A ``flush_staged`` trigger then makes the ME remote-attest the
  destination ME (requiring *exactly its own MRENCLAVE*); both MEs
  authenticate with provider credentials issued during the setup phase and
  exchange signatures over the attestation transcript (Requirement R2).
  Only then is every record staged for that destination forwarded, in one
  ``transfer_batch``.  Each record is retained until the destination
  confirms, so a failed migration can be retried or redirected.
* **Incoming** — data is stored until an enclave whose MRENCLAVE equals the
  source enclave's performs a local attestation and fetches it; the ME then
  returns a confirmation token to the source ME, which releases its copy.
"""

from __future__ import annotations


from repro import wire
from repro.attestation.local import LocalAttestationResponder
from repro.attestation.remote import RemoteAttestationInitiator, RemoteAttestationResponder
from repro.cloud.datacenter import ProviderCredential
from repro.cloud.network import Endpoint
from repro.core.datastructures import MIGRATION_DATA_SIZE
from repro.core.policy import MigrationContext, PolicySet
from repro.core.result import MigrationOutcome, MigrationResult
from repro.crypto import schnorr
from repro.errors import (
    AttestationError,
    ChannelError,
    CloneDetectedError,
    FencedInstanceError,
    InvalidStateError,
    MigrationError,
    PolicyViolationError,
    TransientError,
)
from repro.sgx.enclave import EnclaveBase, ecall



def _public_of(private: int) -> int:
    """Recompute a Schnorr public key from its private scalar."""
    return schnorr.public_key_of(private)


class MigrationEnclave(EnclaveBase):
    """Trusted code of the per-machine Migration Enclave."""

    def __init__(self, sdk):
        super().__init__(sdk)
        self._keypair = schnorr.generate_keypair(sdk._rng.child("me-signing"))
        self._credential: ProviderCredential | None = None
        self._ca_public_key: int | None = None
        self._ias_verify = None
        self._ias_public_key: int | None = None
        self._my_address: str | None = None
        self._policies = PolicySet()
        # sid -> session dict(kind, channel, peer_identity, authenticated, peer_credential)
        self._sessions: dict[str, dict] = {}
        self._session_seq = 0
        # Attested-session resumption (opt-in, see provision()).  The epoch
        # identifies THIS enclave instance: a reinstalled/recovered ME gets a
        # fresh epoch (and an empty session table), so peers can never resume
        # into a different instance than the one they attested.  Derived from
        # a labelled RNG child so it does not perturb any other stream.
        self._epoch: bytes = sdk._rng.child("me-session-epoch").random_bytes(8)
        self._session_resumption = False
        # Clone defense (opt-in): the fleet's single-instance registry, a
        # host-side arbiter attached after provisioning; None = the default
        # deployment with no clone detection (and, for guarded enclaves,
        # deny-by-default on their claims).  The heartbeat is a monotonic
        # counter persisted in checkpoint v4: a legitimately reinstalled ME
        # continues the sequence, an ME cloned from a healed older
        # checkpoint regresses and is fenced by the registry.
        self._registry = None
        self._heartbeat = 0
        # Session epoch of the checkpoint this instance was restored from
        # (b"" for a fresh instance).  Diagnostics only: _epoch itself is
        # NEVER restored, so peers can never resume a session into a
        # different instance than the one they attested.
        self._restored_epoch: bytes = b""
        # destination address -> {sid, channel, peer_credential, epoch}
        self._resumable: dict[str, dict] = {}
        # Migration-data stores, keyed target mrenclave -> transaction id ->
        # record.  A wave parks several records for the SAME mrenclave (a
        # fleet of one enclave build migrating together), so the transaction
        # id — unique per migrating application — is part of the key; a
        # command that names no transaction (a direct ECALL) uses the sole
        # record.
        # incoming record: {"data": bytes, "source_me": str, "token": bytes, "txn": str}
        self._incoming: dict[bytes, dict[str, dict]] = {}
        # pending record: {"data": bytes, "dest": str, "token": bytes, "txn": str}
        self._pending_outgoing: dict[bytes, dict[str, dict]] = {}
        # Idempotency ledgers, keyed by target mrenclave -> set of
        # transaction ids.  _completed (source side): migrations this ME
        # confirmed delivered (done_notice received).  _confirmed
        # (destination side): migrations whose data the local enclave
        # fetched and acknowledged.  They let a crashed-and-resumed peer
        # repeat stage_out / retry / transfer_batch for the same transaction
        # without forking state.
        self._completed: dict[bytes, set[str]] = {}
        self._confirmed: dict[bytes, set[str]] = {}

    # ------------------------------------------------------------- ECALLs
    @ecall
    def signing_public_key(self) -> int:
        """The ME's transcript-signing key, certified during setup."""
        return self._keypair.public

    @ecall
    def provision(
        self,
        credential_bytes: bytes,
        ca_public_key: int,
        ias_verify,
        ias_public_key: int,
        my_address: str,
        policies: PolicySet | None = None,
        session_resumption: bool = False,
    ) -> None:
        """Setup phase (Section V-B): install the provider credential, the
        pinned CA key, the IAS access, and any operator policies.

        ``session_resumption=True`` (default off — it goes beyond the paper)
        lets this ME reuse an already-attested, provider-authenticated
        secure channel for repeated migrations to the same destination ME,
        keyed by (machine pair, peer ME epoch).  Any failure of a resumed
        session — a restarted peer, a desynchronized channel — falls back
        to a full remote attestation, so R1/R2 are unchanged: every channel
        in use was established by mutual RA + provider authentication with
        the very ME instance currently holding it.
        """
        credential = ProviderCredential.from_bytes(credential_bytes)
        if credential.me_public_key != self._keypair.public:
            raise InvalidStateError("credential does not certify this ME's signing key")
        if not credential.verify(ca_public_key):
            raise InvalidStateError("provider credential signature invalid")
        if credential.mrenclave != self.sdk.identity.mrenclave:
            raise InvalidStateError("credential certifies a different ME identity")
        self._credential = credential
        self._ca_public_key = ca_public_key
        self._ias_verify = ias_verify
        self._ias_public_key = ias_public_key
        self._my_address = my_address
        if policies is not None:
            self._policies = policies
        self._session_resumption = bool(session_resumption)
        self._resumable.clear()

    @ecall
    def handle_message(self, payload: bytes, src: str) -> bytes:
        """Single network entry point (dispatched by the management app).

        Anything the untrusted network delivers must at worst produce an
        error response — never corrupt ME state or crash the service.
        """
        try:
            message = wire.decode(payload)
        except wire.WireError as exc:
            return wire.encode({"status": "error", "error": f"malformed message: {exc}"})
        try:
            return self._dispatch_message(message)
        except (KeyError, TypeError, ValueError) as exc:
            return wire.encode({"status": "error", "error": f"bad message fields: {exc}"})
        except wire.WireError as exc:
            return wire.encode({"status": "error", "error": f"malformed payload: {exc}"})

    def _dispatch_message(self, message: dict) -> bytes:
        msg_type = message.get("t")
        if msg_type == "la_hello":
            return self._on_la_hello()
        if msg_type == "la_msg1":
            return self._on_la_msg1(message)
        if msg_type == "la_rec":
            return self._on_la_record(message)
        if msg_type == "ra_msg1":
            return self._on_ra_msg1(message)
        if msg_type == "ra_rec":
            return self._on_ra_record(message)
        if msg_type == "done_notice":
            return self._on_done_notice(message)
        if msg_type == "flush_staged":
            return self._on_flush_staged(message)
        if msg_type == "heartbeat":
            return self._on_heartbeat()
        return wire.encode({"status": "error", "error": f"unknown message {msg_type!r}"})

    # ------------------------------------------------------ clone defense
    @ecall
    def attach_registry(self, registry) -> None:
        """Attach the fleet's single-instance registry (clone defense).

        Like ``ias_verify`` and the policy set, the registry is host-side
        infrastructure handed in by the operator; an ME without one answers
        every ``clone_check`` with a retryable denial (deny-by-default)."""
        self._registry = registry

    def _beat(self) -> dict:
        """Advance the monotonic heartbeat and report it to the registry."""
        self._heartbeat += 1
        if self._registry is not None and self._my_address is not None:
            self._registry.me_beat(self._my_address, self._epoch, self._heartbeat)
        return {"epoch": self._epoch, "heartbeat": self._heartbeat}

    @ecall
    def heartbeat(self) -> dict:
        """One liveness beat: returns ``{"epoch", "heartbeat"}``.

        Raises :class:`~repro.errors.CloneDetectedError` if the registry
        proves this instance regressed (restored from a stale checkpoint).
        Drive beats through the ``{"t": "heartbeat"}`` network message
        instead when durability matters: the message path checkpoints."""
        return self._beat()

    def _on_heartbeat(self) -> bytes:
        try:
            result = self._beat()
        except CloneDetectedError as exc:
            return wire.encode({"status": "clone_detected", "error": str(exc)})
        except FencedInstanceError as exc:
            return wire.encode({"status": "fenced", "error": str(exc)})
        except TransientError as exc:
            return wire.encode(
                {"status": "error", "retryable": True, "error": str(exc)}
            )
        return wire.encode(
            {
                "status": "ok",
                "epoch": result["epoch"],
                "heartbeat": result["heartbeat"],
            }
        )

    def _advance_registry(self, data: bytes, destination: str) -> dict | None:
        """Report a freeze to the registry from the guard suffix on shipped
        migration data.  Returns an error reply to send instead of
        proceeding, or None when the data is unguarded / the advance
        succeeded."""
        if len(data) <= MIGRATION_DATA_SIZE or self._registry is None:
            return None
        try:
            suffix = wire.decode(data[MIGRATION_DATA_SIZE:])
            identity, instance, epoch = (
                suffix["id"],
                suffix["instance"],
                int(suffix["epoch"]),
            )
        except (wire.WireError, KeyError, TypeError, ValueError):
            return None  # unparseable suffix: treat as unguarded
        try:
            self._registry.advance(
                identity,
                instance,
                epoch=epoch,
                destination=destination,
                machine=self._my_address or "",
            )
        except FencedInstanceError as exc:
            return {"status": "error", "error": str(exc)}
        except TransientError as exc:
            return {"status": "error", "retryable": True, "error": str(exc)}
        return None

    def _handle_clone_check(self, command: dict, session: dict) -> dict:
        """A guarded library claims its identity before operating."""
        if self._registry is None:
            return {
                "status": "error",
                "retryable": True,
                "error": "no single-instance registry attached to this "
                "Migration Enclave (deny-by-default)",
            }
        try:
            self._registry.claim(
                command["id"],
                command["instance"],
                machine=self._my_address or "",
                epoch=int(command["epoch"]),
                kind=str(command.get("kind", "")),
            )
        except CloneDetectedError as exc:
            return {"status": "clone_detected", "error": str(exc)}
        except FencedInstanceError as exc:
            return {"status": "fenced", "error": str(exc)}
        except TransientError as exc:
            return {"status": "error", "retryable": True, "error": str(exc)}
        return {"status": "ok"}

    # -------------------------------------------------------- diagnostics
    @ecall
    def has_incoming(self, mrenclave: bytes) -> bool:
        return bool(self._incoming.get(mrenclave))

    @ecall
    def has_pending_outgoing(self, mrenclave: bytes) -> bool:
        return bool(self._pending_outgoing.get(mrenclave))

    # ----------------------------------------------------- record resolution
    @staticmethod
    def _resolve_record(
        records: dict[str, dict] | None, txn: str
    ) -> tuple[dict | None, str | None]:
        """Find the record for ``txn`` in a per-mrenclave store slice.

        An empty ``txn`` (a caller that names no transaction) resolves the
        sole record and reports ambiguity when a wave parked several, so an
        unnamed command can never operate on the wrong application's state.
        Returns ``(record, error)``.
        """
        if not records:
            return None, None
        if txn:
            return records.get(txn), None
        if len(records) == 1:
            return next(iter(records.values())), None
        return None, "several transactions pending for this enclave identity"

    # ------------------------------------------------------- durability
    @ecall
    def export_sealed_state(self) -> bytes:
        """Checkpoint the stored migration data (sealed, machine-bound).

        The paper's ME "stores the data temporarily until the local enclave
        has been started"; checkpointing makes that store survive a
        management-VM restart.  Sessions and keys are NOT checkpointed —
        peers simply re-attest.
        """

        def encode_store(store: dict[bytes, dict[str, dict]]) -> list:
            rows = []
            for target, records in sorted(store.items()):
                for txn, entry in sorted(records.items()):
                    rows.append(
                        wire.encode(
                            {
                                "target": target,
                                "data": entry["data"],
                                "peer": entry.get("source_me", entry.get("dest", "")),
                                "token": entry["token"],
                                "txn": txn,
                            }
                        )
                    )
            return rows

        def encode_ledger(ledger: dict[bytes, set[str]]) -> list:
            return [
                wire.encode({"target": target, "txn": txn})
                for target, txns in sorted(ledger.items())
                for txn in sorted(txns)
            ]

        fields = {
            "incoming": encode_store(self._incoming),
            "pending": encode_store(self._pending_outgoing),
            "completed": encode_ledger(self._completed),
            "confirmed": encode_ledger(self._confirmed),
            "signing_private": self._keypair.private.to_bytes(256, "big"),
        }
        # v4 adds the clone-defense fields: the monotonic heartbeat (so a
        # legitimately reinstalled ME continues the sequence and a clone
        # restored from a healed older checkpoint regresses — the registry
        # fences it on its first beat) and this instance's session epoch
        # (lineage diagnostics only; import NEVER adopts it as the live
        # epoch).  Deployments that never used the defense keep writing
        # byte-identical v3 checkpoints.
        defense_active = (
            self._heartbeat > 0
            or self._registry is not None
            or self._restored_epoch != b""
        )
        aad = b"me-checkpoint-v3"
        if defense_active:
            fields["heartbeat"] = self._heartbeat
            fields["epoch"] = self._epoch
            aad = b"me-checkpoint-v4"
        payload = wire.encode(fields)
        # MRENCLAVE policy: only the same ME *code* on the same machine can
        # restore the checkpoint, regardless of deployment signer.
        from repro.sgx.identity import KeyPolicy

        return self.sdk.seal_data(payload, aad, KeyPolicy.MRENCLAVE)

    @ecall
    def import_sealed_state(self, checkpoint: bytes) -> None:
        """Restore a checkpoint after a restart (same machine only).

        A torn or rotted checkpoint blob must fail with a *typed*
        :class:`~repro.errors.ReproError` and leave the enclave untouched:
        recovery walks the A/B checkpoint generations newest-first and falls
        back to the next candidate on any ReproError, so everything is
        unsealed, parsed, and staged in locals before the first field is
        committed.
        """
        plaintext, aad = self.sdk.unseal_data(checkpoint)
        # v3: stores and ledgers hold one row per (mrenclave, transaction)
        # pair so wave records survive a restart individually.  v4 appends
        # the heartbeat counter and the writing instance's session epoch.
        if aad not in (b"me-checkpoint-v3", b"me-checkpoint-v4"):
            raise InvalidStateError("not a Migration Enclave checkpoint")
        try:
            fields = wire.decode(plaintext)
            restored_private = int.from_bytes(fields["signing_private"], "big")
            restored_heartbeat = int(fields.get("heartbeat", 0))
            restored_epoch = bytes(fields.get("epoch", b""))
            staged_stores: dict[str, dict] = {}
            for name in ("incoming", "pending"):
                peer_key = "source_me" if name == "incoming" else "dest"
                staged: dict[bytes, dict[str, dict]] = {}
                for row in fields[name]:
                    entry = wire.decode(row)
                    txn = entry.get("txn", "")
                    staged.setdefault(entry["target"], {})[txn] = {
                        "data": entry["data"],
                        peer_key: entry["peer"],
                        "token": entry["token"],
                        "txn": txn,
                    }
                staged_stores[name] = staged
            staged_ledgers: dict[str, dict] = {}
            for name in ("completed", "confirmed"):
                ledger: dict[bytes, set[str]] = {}
                for row in fields.get(name, []):
                    entry = wire.decode(row)
                    ledger.setdefault(entry["target"], set()).add(entry["txn"])
                staged_ledgers[name] = ledger
        except (wire.WireError, KeyError, TypeError, ValueError) as exc:
            raise InvalidStateError(f"malformed Migration Enclave checkpoint: {exc}") from exc
        # Parse succeeded — commit.  The signing key must persist or the
        # provisioned credential (which certifies the key) would no longer
        # match.
        self._keypair = schnorr.SchnorrKeyPair(
            private=restored_private,
            public=self._keypair.public
            if self._keypair.private == restored_private
            else _public_of(restored_private),
        )
        for name, store in (("incoming", self._incoming), ("pending", self._pending_outgoing)):
            store.clear()
            store.update(staged_stores[name])
        for name, ledger in (("completed", self._completed), ("confirmed", self._confirmed)):
            ledger.clear()
            ledger.update(staged_ledgers[name])
        # The heartbeat continues from the checkpoint (monotonic lineage —
        # that continuity is what lets the registry fence a clone restored
        # from an OLDER checkpoint).  The session epoch is recorded for
        # diagnostics only: this instance keeps its freshly minted _epoch,
        # so any session a peer cached against the previous instance can
        # never resume here and falls back to full remote attestation.
        self._heartbeat = restored_heartbeat
        self._restored_epoch = restored_epoch

    # ---------------------------------------------------- local attestation
    def _require_provisioned(self) -> None:
        if self._credential is None or self._ias_verify is None:
            raise InvalidStateError("Migration Enclave not provisioned")

    def _next_sid(self, kind: str) -> str:
        self._session_seq += 1
        return f"{kind}-{self._session_seq}"

    def _next_and_get_seq(self) -> int:
        self._session_seq += 1
        return self._session_seq

    def _on_la_hello(self) -> bytes:
        sid = self._next_sid("la")
        responder = LocalAttestationResponder(
            self.sdk, self.sdk._rng.child(f"me-la-{sid}")
        )
        self._sessions[sid] = {"kind": "la", "responder": responder}
        return wire.encode({"sid": sid, "payload": responder.msg0()})

    def _on_la_msg1(self, message: dict) -> bytes:
        session = self._sessions.get(message.get("sid"))
        if session is None or session["kind"] != "la" or "channel" in session:
            return wire.encode({"status": "error", "error": "bad LA session"})
        try:
            msg2, result = session["responder"].msg2(message["payload"])
        except AttestationError as exc:
            return wire.encode({"status": "error", "error": str(exc)})
        # Store the caller's MRENCLAVE from the attestation REPORT; it keys
        # all matching of migration data to recipients (Section VI-A).
        session["channel"] = result.channel
        session["peer_identity"] = result.peer_identity
        return wire.encode({"payload": msg2})

    def _on_la_record(self, message: dict) -> bytes:
        session = self._sessions.get(message.get("sid"))
        if session is None or session.get("channel") is None or session["kind"] != "la":
            return wire.encode({"status": "error", "error": "no such LA channel"})
        channel = session["channel"]
        try:
            plaintext, _ = channel.recv(message["payload"])
        except ChannelError as exc:
            return wire.encode({"status": "error", "error": str(exc)})
        command = wire.decode(plaintext)
        response = self._dispatch_library_command(command, session)
        return wire.encode({"payload": channel.send(wire.encode(response))})

    def _dispatch_library_command(self, command: dict, session: dict) -> dict:
        cmd = command.get("cmd")
        if cmd == "stage_out":
            return self._handle_stage_out(command, session)
        if cmd == "retry":
            return self._handle_retry(command, session)
        if cmd == "fetch":
            return self._handle_fetch(command, session)
        if cmd == "done":
            return self._handle_done(command, session)
        if cmd == "clone_check":
            return self._handle_clone_check(command, session)
        return {"status": "error", "error": f"unknown command {cmd!r}"}

    # ------------------------------------------------------------- outgoing
    def _park_pending(self, target: bytes, data: bytes, dest: str, txn: str) -> None:
        """Retain undelivered migration data for a later retry (Section V-D)."""
        self._pending_outgoing.setdefault(target, {})[txn] = {
            "data": data,
            "dest": dest,
            "token": b"",
            "txn": txn,
        }

    def _drop_pending(self, target: bytes, txn: str) -> None:
        """Remove one delivered/confirmed record; prune the empty slice so
        ``has_pending_outgoing`` goes back to False."""
        records = self._pending_outgoing.get(target)
        if records is None:
            return
        records.pop(txn, None)
        if not records:
            del self._pending_outgoing[target]

    def _handle_stage_out(self, command: dict, session: dict) -> dict:
        """The hand-off: retain the caller's migration data for a later
        ``flush_staged`` ship to ``dest`` — no ME<->ME exchange yet.

        A staged record is indistinguishable from a transfer that failed
        transiently (parked, empty token), so every retry/resume path
        applies to it unchanged.
        """
        destination = command["dest"]
        txn = command.get("txn", "")
        target_mrenclave = session["peer_identity"].mrenclave
        # A fresh transaction supersedes the identity's completion records:
        # multi-hop chains reuse the same MRENCLAVE, so a new transaction
        # must not be mistaken for a duplicate of the last.
        self._completed.pop(target_mrenclave, None)
        reply = self._advance_registry(command["data"], destination)
        if reply is not None:
            # Not parked: the frozen library re-stages via the no_pending
            # retry path, and the registry must hear the freeze first.
            return reply
        self._park_pending(target_mrenclave, command["data"], destination, txn)
        return {"status": "ok", "staged": True}

    def _handle_retry(self, command: dict, session: dict) -> dict:
        """The frozen source library (or its operator) selects a (possibly
        new) destination for migration data this ME still holds."""
        target_mrenclave = session["peer_identity"].mrenclave
        txn = command.get("txn", "")
        entry, ambiguous = self._resolve_record(
            self._pending_outgoing.get(target_mrenclave), txn
        )
        if ambiguous:
            return {"status": "error", "error": ambiguous}
        if entry is None:
            completed = self._completed.get(target_mrenclave, set())
            if txn and txn in completed:
                # This very transaction already reached the destination and
                # was confirmed; the retry is a harmless duplicate.
                return {"status": "ok", "already_done": True}
            if not txn and completed:
                # Legacy txn-less retry: with no transaction to key on, any
                # completion for this identity could be this migration — a
                # re-ship could hand state to a second instance (R3).
                return {"status": "error", "error": "migration already completed"}
            # With an explicit transaction, a *sibling* transaction's
            # completion (another wave member with the same MRENCLAVE) must
            # not block this one: the destination dedups per (mrenclave,
            # txn), so rebuilding and re-shipping this txn cannot fork.
            return {
                "status": "error",
                "error": "no pending migration data",
                "no_pending": True,
            }
        reply = self._advance_registry(entry["data"], command["dest"])
        if reply is not None:
            return reply
        # Re-route the parked record and clear any token of an earlier ship:
        # the next flush to this destination ships it (again).
        entry["dest"] = command["dest"]
        entry["token"] = b""
        return {"status": "ok", "staged": True}

    @ecall
    def retry_pending(self, mrenclave: bytes, destination: str) -> MigrationResult:
        """Operator action: retry a failed migration, possibly elsewhere.

        Ships every record this ME retains for the enclave identity (a
        wave may have parked several) the way ``flush_staged`` does, and
        raises if that fails; reports the transaction id when it is
        unambiguous.
        """
        records = self._pending_outgoing.get(mrenclave)
        if not records:
            raise MigrationError("no pending migration for that enclave")
        txns = sorted(records)
        self._ship(destination, [(mrenclave, records[txn]) for txn in txns])
        return MigrationResult(
            outcome=MigrationOutcome.SHIPPED,
            txn_id=txns[0] if len(txns) == 1 else "",
        )

    # ---------------------------------------------------------- shipping
    def _ship(self, destination: str, records: list[tuple[bytes, dict]]) -> dict:
        """Ship ``(target mrenclave, parked record)`` pairs to the
        destination ME: one attested, provider-authenticated session, one
        policy check and one ``transfer_batch`` exchange.  Returns the
        shipped / already-delivered counts; raises on failure, leaving
        every record parked.

        With session resumption enabled, an attested channel to this
        destination left over from a previous migration is tried first; a
        stale session (restarted peer, desynchronized channel) drops out of
        the cache and the full handshake below runs as if it never existed.
        """
        self._require_provisioned()
        if self._session_resumption:
            cached = self._resumable.get(destination)
            if cached is not None:
                try:
                    return self._send_batch(
                        destination,
                        cached["sid"],
                        cached["channel"],
                        cached["peer_credential"],
                        records,
                    )
                except PolicyViolationError:
                    # Policy outcomes do not depend on the session; a fresh
                    # handshake would be refused identically.
                    raise
                except (
                    TransientError,
                    MigrationError,
                    AttestationError,
                    ChannelError,
                    wire.WireError,
                    KeyError,
                    TypeError,
                ):
                    self._resumable.pop(destination, None)

        my_mrenclave = self.sdk.identity.mrenclave

        def same_me(identity) -> bool:
            # The peer must run exactly the same ME code (Section VI-A).
            return identity.mrenclave == my_mrenclave

        initiator = RemoteAttestationInitiator(
            self.sdk,
            self.sdk._rng.child(f"me-ra-out-{destination}-{self._next_and_get_seq()}"),
            self._ias_verify,
            self._ias_public_key,
            same_me,
        )
        msg1 = initiator.msg1()
        reply = wire.decode(
            self._net_send(destination, wire.encode({"t": "ra_msg1", "payload": msg1}))
        )
        if "payload" not in reply:
            raise MigrationError(f"destination ME refused attestation: {reply}")
        remote_sid = reply["sid"]
        result = initiator.finish(reply["payload"])
        channel = result.channel

        # Mutual provider authentication over the attested channel: exchange
        # credentials + signatures over the attestation transcript.
        my_sig = schnorr.sign(
            self._keypair.private, b"ME-AUTH|init|" + result.transcript
        )
        auth_reply = self._ra_exchange(
            destination,
            remote_sid,
            channel,
            {
                "cmd": "auth",
                "credential": self._credential.to_bytes(),
                "transcript_sig": my_sig.to_bytes(),
            },
        )
        if auth_reply.get("status") != "ok":
            raise AttestationError(f"provider authentication failed: {auth_reply}")
        peer_credential = ProviderCredential.from_bytes(auth_reply["credential"])
        peer_sig = schnorr.SchnorrSignature.from_bytes(auth_reply["transcript_sig"])
        self._verify_peer_credential(
            peer_credential, peer_sig, result, role=b"resp", expected_machine=destination
        )
        if self._session_resumption:
            self._resumable[destination] = {
                "sid": remote_sid,
                "channel": channel,
                "peer_credential": peer_credential,
                "epoch": auth_reply.get("epoch", b""),
            }
        return self._send_batch(destination, remote_sid, channel, peer_credential, records)

    def _on_flush_staged(self, message: dict) -> bytes:
        """Ship every record staged for ``dest`` in ONE ``transfer_batch``
        exchange over one attested ME<->ME session.

        Like an operator ``retry_pending``, the trigger itself arrives
        unauthenticated — it only *selects* records.  Each record's
        destination was fixed over the staging enclave's attested LA
        channel, so a forged flush can at worst ship data where it was
        already going.
        """
        destination = message["dest"]
        staged = [
            (target, entry)
            for target, records in sorted(self._pending_outgoing.items())
            for _txn, entry in sorted(records.items())
            if entry["token"] == b"" and entry["dest"] == destination
        ]
        if not staged:
            # Idempotent: a duplicated flush after everything shipped has
            # nothing left to do.
            return wire.encode({"status": "ok", "shipped": 0, "already_delivered": 0})
        try:
            counts = self._ship(destination, staged)
        except (TransientError, ChannelError) as exc:
            # Same classification as the library's ME channel: a broken or
            # desynchronized channel is cured by re-attesting on retry.
            return wire.encode({"status": "error", "error": str(exc), "retryable": True})
        except (
            MigrationError,
            AttestationError,
            PolicyViolationError,
            InvalidStateError,
        ) as exc:
            return wire.encode({"status": "error", "error": str(exc)})
        return wire.encode({"status": "ok", **counts})

    def _send_batch(
        self,
        destination: str,
        sid: str,
        channel,
        peer_credential: ProviderCredential,
        staged: list[tuple[bytes, dict]],
    ) -> dict:
        """One policy check + one ``transfer_batch`` exchange for the wave.

        The per-migration policy context names the machine pair and the ME
        identities — never the migrating enclave — so it is identical for
        every record of a wave; checking once IS the per-record loop, just
        not repeated.  Tokens are committed to the parked records only for
        outcomes the destination acknowledged, so a lost exchange leaves
        every record staged (empty token) for the next flush.
        """
        self._policies.check(
            MigrationContext(
                source_machine=self._my_address or "",
                destination_machine=destination,
                enclave_identity=self.sdk.identity,
                destination_credential=peer_credential,
            )
        )
        rows = []
        tokens = []
        for target, entry in staged:
            token = self.sdk.random_bytes(16)
            tokens.append(token)
            rows.append(
                {
                    "target": target,
                    "data": entry["data"],
                    "token": token,
                    "txn": entry["txn"],
                }
            )
        reply = self._ra_exchange(
            destination,
            sid,
            channel,
            {
                "cmd": "transfer_batch",
                "source_me": self._my_address or "",
                "records": wire.pack_records(rows),
            },
        )
        results = reply.get("results")
        if (
            reply.get("status") != "ok"
            or not isinstance(results, list)
            or len(results) != len(staged)
        ):
            raise MigrationError(f"destination ME rejected batch transfer: {reply}")
        shipped = delivered = 0
        for (target, entry), token, status in zip(staged, tokens, results):
            if status == "stored":
                # Retained until the done_notice for this token arrives.
                entry["token"] = token
                entry["dest"] = destination
                shipped += 1
            elif status == "already_delivered":
                self._completed.setdefault(target, set()).add(entry["txn"])
                self._drop_pending(target, entry["txn"])
                delivered += 1
            else:
                raise MigrationError(
                    f"destination ME refused wave record: {status!r}"
                )
        return {"shipped": shipped, "already_delivered": delivered}

    def _verify_peer_credential(
        self,
        credential: ProviderCredential,
        transcript_sig: schnorr.SchnorrSignature,
        ra_result,
        role: bytes,
        expected_machine: str | None,
    ) -> None:
        if self._ca_public_key is None:
            raise InvalidStateError("no CA key pinned")
        if not credential.verify(self._ca_public_key):
            raise AttestationError("peer credential not signed by our provider CA")
        if credential.mrenclave != ra_result.peer_identity.mrenclave:
            raise AttestationError("peer credential certifies a different enclave")
        if expected_machine is not None and credential.machine_address != expected_machine:
            raise AttestationError(
                f"peer ME is certified for machine {credential.machine_address!r}, "
                f"not the requested destination {expected_machine!r} (R2)"
            )
        if not schnorr.verify(
            credential.me_public_key,
            b"ME-AUTH|" + role + b"|" + ra_result.transcript,
            transcript_sig,
        ):
            raise AttestationError("peer transcript signature invalid")

    def _ra_exchange(self, destination: str, sid: str, channel, command: dict) -> dict:
        record = channel.send(wire.encode(command))
        reply = wire.decode(
            self._net_send(
                destination, wire.encode({"t": "ra_rec", "sid": sid, "payload": record})
            )
        )
        if "payload" not in reply:
            # A payload-less reply is a *session-level* failure (the peer
            # could not authenticate our record — corruption in flight — or
            # no longer knows the session, e.g. it restarted).  Re-attesting
            # establishes a fresh channel and cures all of these, so this is
            # a ChannelError, not a protocol failure.
            raise ChannelError(f"destination ME rejected channel record: {reply}")
        plaintext, _ = channel.recv(reply["payload"])
        return wire.decode(plaintext)

    def _net_send(self, destination: str, payload: bytes) -> bytes:
        return self.sdk.ocall("net_send", str(Endpoint.me(destination)), payload)

    # ------------------------------------------------------------- incoming
    def _on_ra_msg1(self, message: dict) -> bytes:
        self._require_provisioned()
        my_mrenclave = self.sdk.identity.mrenclave

        def same_me(identity) -> bool:
            return identity.mrenclave == my_mrenclave

        sid = self._next_sid("ra")
        responder = RemoteAttestationResponder(
            self.sdk,
            self.sdk._rng.child(f"me-ra-in-{sid}"),
            self._ias_verify,
            self._ias_public_key,
            same_me,
        )
        try:
            msg2, result = responder.msg2(message["payload"])
        except AttestationError as exc:
            return wire.encode({"status": "error", "error": str(exc)})
        self._sessions[sid] = {
            "kind": "ra",
            "channel": result.channel,
            "peer_identity": result.peer_identity,
            "transcript": result.transcript,
            "authenticated": False,
        }
        return wire.encode({"sid": sid, "payload": msg2})

    def _on_ra_record(self, message: dict) -> bytes:
        session = self._sessions.get(message.get("sid"))
        if session is None or session["kind"] != "ra":
            return wire.encode({"status": "error", "error": "no such RA session"})
        channel = session["channel"]
        try:
            plaintext, _ = channel.recv(message["payload"])
        except ChannelError as exc:
            return wire.encode({"status": "error", "error": str(exc)})
        command = wire.decode(plaintext)
        response = self._dispatch_me_command(command, session)
        return wire.encode({"payload": channel.send(wire.encode(response))})

    def _dispatch_me_command(self, command: dict, session: dict) -> dict:
        cmd = command.get("cmd")
        if cmd == "auth":
            return self._handle_peer_auth(command, session)
        if cmd == "transfer_batch":
            return self._handle_transfer_batch(command, session)
        return {"status": "error", "error": f"unknown ME command {cmd!r}"}

    def _handle_peer_auth(self, command: dict, session: dict) -> dict:
        try:
            peer_credential = ProviderCredential.from_bytes(command["credential"])
            peer_sig = schnorr.SchnorrSignature.from_bytes(command["transcript_sig"])

            class _RaView:
                peer_identity = session["peer_identity"]
                transcript = session["transcript"]

            self._verify_peer_credential(
                peer_credential, peer_sig, _RaView, role=b"init", expected_machine=None
            )
        except (
            AttestationError,
            InvalidStateError,
            wire.WireError,
            ValueError,
            KeyError,
        ) as exc:
            return {"status": "error", "error": str(exc)}
        session["authenticated"] = True
        session["peer_credential"] = peer_credential
        my_sig = schnorr.sign(
            self._keypair.private, b"ME-AUTH|resp|" + session["transcript"]
        )
        reply = {
            "status": "ok",
            "credential": self._credential.to_bytes(),
            "transcript_sig": my_sig.to_bytes(),
        }
        if self._session_resumption:
            # Instance-unique epoch: a reinstalled/restarted ME gets a fresh
            # one, so initiators can tell which instance a cached session
            # belongs to (the session itself also dies with the instance).
            # Only advertised when resumption is on, so the default
            # protocol's messages — and with them the virtual network
            # charges — are byte-identical to the pre-resumption protocol.
            reply["epoch"] = self._epoch
        return reply

    def _store_incoming(
        self, target: bytes, txn: str, data: bytes, source_me: str, token: bytes
    ) -> str:
        """Store one inbound record; refuse re-arming a confirmed one (R3)."""
        if txn and txn in self._confirmed.get(target, set()):
            # The local enclave already fetched and confirmed this exact
            # transaction; storing it again would arm the same state for a
            # second instance (R3).  Tell the source it is finished.
            return "already_delivered"
        self._incoming.setdefault(target, {})[txn] = {
            "data": data,
            "source_me": source_me,
            "token": token,
            "txn": txn,
        }
        return "stored"

    def _handle_transfer_batch(self, command: dict, session: dict) -> dict:
        """Store a whole wave in one exchange; per-record statuses let the
        source settle each transaction's ledger exactly as if the records
        had arrived one by one."""
        if not session.get("authenticated"):
            return {"status": "error", "error": "transfer before provider auth"}
        try:
            rows = wire.unpack_records(command["records"])
        except wire.WireError as exc:
            return {"status": "error", "error": f"malformed batch: {exc}"}
        source_me = command.get("source_me", "")
        results = []
        for row in rows:
            results.append(
                self._store_incoming(
                    row["target"],
                    row.get("txn", ""),
                    row["data"],
                    source_me,
                    row["token"],
                )
            )
        return {"status": "ok", "results": results}

    # ------------------------------------- delivery to the local destination
    def _handle_fetch(self, command: dict, session: dict) -> dict:
        """Release stored migration data — only to an enclave whose
        attested MRENCLAVE matches the source enclave's."""
        target = session["peer_identity"].mrenclave
        entry, ambiguous = self._resolve_record(
            self._incoming.get(target), command.get("txn", "")
        )
        if ambiguous:
            return {"status": "error", "error": ambiguous}
        if entry is None:
            return {"status": "none"}
        return {"status": "ok", "data": entry["data"]}

    def _handle_done(self, command: dict, session: dict) -> dict:
        target = session["peer_identity"].mrenclave
        records = self._incoming.get(target)
        entry, ambiguous = self._resolve_record(records, command.get("txn", ""))
        if ambiguous:
            return {"status": "error", "error": ambiguous}
        if entry is None:
            return {"status": "error", "error": "no migration to confirm"}
        del records[entry["txn"]]
        if not records:
            del self._incoming[target]
        # Remember the confirmed transaction so a source-side re-transfer of
        # the same transaction is answered "already_delivered" instead of
        # re-arming the data for a second instance.
        self._confirmed.setdefault(target, set()).add(entry["txn"])
        if entry["source_me"]:
            try:
                self._net_send(
                    entry["source_me"],
                    wire.encode(
                        {
                            "t": "done_notice",
                            "target_mrenclave": target,
                            "token": entry["token"],
                        }
                    ),
                )
            except TransientError:
                # Losing the notice is safe: the source just retains its
                # copy; it can never be delivered twice to the destination.
                pass
        return {"status": "ok"}

    def _on_done_notice(self, message: dict) -> bytes:
        target = message["target_mrenclave"]
        records = self._pending_outgoing.get(target)
        if not records:
            return wire.encode({"status": "ok"})  # idempotent
        # The (unauthenticated) notice is matched by its per-transfer random
        # token, which only the destination ME that stored the data learned;
        # the token also selects WHICH of a wave's records is confirmed.
        entry = next(
            (e for e in records.values() if e["token"] == message["token"]), None
        )
        if entry is None:
            return wire.encode({"status": "error", "error": "bad confirmation token"})
        # The destination confirmed: safe to delete the migration data.  The
        # completion record makes a duplicate retry of this transaction
        # short-circuit rather than re-ship.
        self._completed.setdefault(target, set()).add(entry["txn"])
        self._drop_pending(target, entry["txn"])
        return wire.encode({"status": "ok"})
