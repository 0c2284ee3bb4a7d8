"""The Migration Library (Section V-C / VI-B of the paper).

Linked into every migratable enclave (and therefore part of its MRENCLAVE),
the library substitutes the two machine-bound SGX primitives with migratable
counterparts:

* **Migratable sealing** — data is sealed under a Migration Sealing Key
  (MSK) generated once per enclave lifetime instead of the CPU sealing key.
  The MSK itself is sealed with the *native* sealing key and stored locally,
  and travels to the destination inside the migration data.  Because the MSK
  is cached in enclave memory, migratable sealing skips the per-call
  ``EGETKEY`` and is slightly *faster* than native sealing (Fig. 4).

* **Migratable counters** — the library wraps the native monotonic counters
  and adds a per-counter **offset**: ``effective = current + offset``.  On
  migration the effective values are shipped and installed as the new
  offsets over fresh (zero-valued) destination counters, making migration
  cost constant per counter regardless of its value.  Before the migration
  data leaves the enclave, all source counters are **destroyed** (and the
  library requires ``SGX_SUCCESS``), so stale library state cannot be used
  to fork the enclave on the source machine (Requirement R3).

The library also maintains the Table II persistent buffer, with a **freeze
flag**: once the enclave has migrated away, a restore from that buffer
refuses to operate (Requirement R3 again).
"""

from __future__ import annotations

import enum

from repro import wire
from repro.core.datastructures import (
    LIBRARY_STATE_SIZE,
    MIGRATION_DATA_SIZE,
    NUM_COUNTERS,
    LibraryState,
    MigrationData,
)
from repro.crypto.gcm import AesGcm
from repro.errors import (
    ChannelError,
    CloneDetectedError,
    CounterNotFoundError,
    CryptoError,
    FencedInstanceError,
    InvalidParameterError,
    InvalidStateError,
    MacMismatchError,
    MigrationError,
    MigrationPendingError,
    ReproError,
    ServiceUnavailableError,
    SgxError,
    SgxStatus,
    TransientError,
)
from repro.sgx.sdk import TrustedRuntime
from repro.sgx.sealing import sealed_fields
from repro.attestation.local import LocalAttestationInitiator

_MSK_SIZE = 16
_STATE_AAD = b"migration-library-state-v1"
_GUARD_ID_SIZE = 16
_GUARD_INSTANCE_SIZE = 8


def _split_guard(blob: bytes, base_size: int) -> tuple[bytes, dict | None]:
    """Separate an optional clone-guard suffix from a fixed-size payload.

    Clone-guarded enclaves append ``wire.encode({"v", "id", "epoch"})``
    after the Table I/II binary layout; unguarded payloads are exactly the
    base size, keeping the default protocol byte-identical.
    """
    if len(blob) <= base_size:
        return blob, None
    suffix = wire.decode(blob[base_size:])
    return blob[:base_size], {"id": suffix["id"], "epoch": suffix["epoch"]}


class InitState(enum.Enum):
    """``init_state`` argument of ``migration_init`` (Listing 1 / Fig. 1)."""

    NEW = "NEW"  # first start of this enclave, generate MSK
    RESTORE = "RESTORE"  # restart on the same machine (system restart)
    MIGRATE = "MIGRATE"  # first start on a destination machine


class MigrationLibrary:
    """The in-enclave migration support library.

    ``me_mrenclave`` pins the identity of the Migration Enclave the library
    will trust during local attestation; pass the measured identity of the
    deployed :class:`~repro.core.migration_enclave.MigrationEnclave` build.
    """

    def __init__(
        self,
        sdk: TrustedRuntime,
        me_mrenclave: bytes | None = None,
        destination_policy=None,
    ):
        self._sdk = sdk
        self._me_mrenclave = me_mrenclave
        # Enclave-provider policy (Section X): a trusted in-enclave check
        # over the destination address, evaluated BEFORE any state leaves.
        # Complements the operator policies enforced by the ME.
        self._destination_policy = destination_policy
        self._state: LibraryState | None = None
        # Clone-guard registration (opt-in via migration_init NEW): the
        # identity travels with the persistent state, the epoch counts
        # freeze/restore/install generations, and the instance nonce is
        # fresh per library load.  None = unguarded (the default; keeps
        # every persisted and shipped byte identical to the base protocol).
        self._guard: dict | None = None
        self._channel = None
        self._me_address: str | None = None
        self._session_id: str | None = None
        # One local-attestation stream per library instance: deriving it
        # per connect would repeat the DH ephemeral on every reconnect.
        self._la_rng = sdk._rng.child("lib-la")
        # The migration transaction this instance was started under (MIGRATE
        # init).  The ME may hold several same-MRENCLAVE records (one per
        # wave member), so fetch/confirm name theirs; an empty id (a caller
        # driving the ECALL directly) lets the ME resolve the sole record.
        self._txn_id: str = ""

    # ------------------------------------------------------------ utilities
    @property
    def initialized(self) -> bool:
        return self._state is not None

    @property
    def frozen(self) -> bool:
        return self._state is not None and self._state.frozen

    def _require_operational(self) -> None:
        if self._state is None:
            raise InvalidStateError("Migration Library not initialized")
        if self._state.frozen:
            raise InvalidStateError(
                "Migration Library is frozen: this enclave has migrated away"
            )

    def _charge(self, label: str, cost_attr: str) -> None:
        meter = self._sdk._cpu.meter
        if meter is not None:
            meter.charge(label, getattr(meter.model, cost_attr))

    # ------------------------------------------------- persistent state blob
    def _persist(self) -> bytes:
        """Seal the Table II buffer with the *native* sealing key and hand it
        to the untrusted application for storage.

        The new blob is sealed *before* the host is asked to store it, and
        the host's ``save_library_state`` handler replaces the on-disk copy
        atomically (write temp, fsync, rename — see
        ``Application.store_atomic``).  Together those two rules guarantee
        no crash point leaves zero decryptable copies: until the rename
        commits, the previous sealed blob is still the durable one.
        """
        assert self._state is not None
        plaintext = self._state.to_bytes()
        if self._guard is not None:
            plaintext += wire.encode(
                {"v": 1, "id": self._guard["id"], "epoch": self._guard["epoch"]}
            )
        blob = self._sdk.seal_data(plaintext, _STATE_AAD)
        try:
            self._sdk.ocall("save_library_state", blob)
        except InvalidParameterError:
            # Host did not register the OCALL; callers use the return value.
            pass
        return blob

    def _load_state(self, data_buffer: bytes) -> tuple[LibraryState, dict | None]:
        try:
            plaintext, aad = self._sdk.unseal_data(data_buffer)
        except MacMismatchError as exc:
            raise MigrationError(
                "library state buffer cannot be unsealed on this machine "
                "(wrong machine or tampered)"
            ) from exc
        if aad != _STATE_AAD:
            raise MigrationError("library state buffer has wrong context tag")
        core, guard = _split_guard(plaintext, LIBRARY_STATE_SIZE)
        return LibraryState.from_bytes(core), guard

    # -------------------------------------------------------- ME connection
    def _me_send(self, message: dict) -> dict:
        """One request/response exchange with the Migration Enclave.

        Transport is an OCALL into the untrusted app, which relays over the
        (untrusted) network; confidentiality and integrity come from the
        attested channel, not the transport.
        """
        if self._me_address is None:
            raise InvalidStateError("no Migration Enclave address configured")
        response = self._sdk.ocall("send_to_me", self._me_address, wire.encode(message))
        return wire.decode(response)

    def _ensure_channel(self) -> None:
        """Open the ME channel on first use (lazy: plain NEW/RESTORE inits
        never talk to the ME, so init stays cheap — Fig. 4)."""
        if self._channel is None:
            if self._me_address is None:
                raise InvalidStateError("no Migration Enclave address configured")
            self._connect_me(self._me_address)

    def _connect_me(self, me_address: str) -> None:
        """Local-attest the Migration Enclave and open the secure channel."""
        self._me_address = me_address

        def accept(identity) -> bool:
            if self._me_mrenclave is None:
                return True
            return identity.mrenclave == self._me_mrenclave

        initiator = LocalAttestationInitiator(self._sdk, self._la_rng, accept)
        hello = self._me_send({"t": "la_hello"})
        self._session_id = hello["sid"]
        msg1 = initiator.msg1(hello["payload"])
        msg2 = self._me_send({"t": "la_msg1", "sid": self._session_id, "payload": msg1})
        result = initiator.finish(msg2["payload"])
        self._channel = result.channel

    def _me_command(self, command: dict) -> dict:
        """Send one command over the (lazily established) secure channel.

        Any transport or channel failure tears the channel down so the next
        attempt re-attests from scratch: once a response is lost the channel
        sequence numbers are desynchronized (and after an ME restart the
        session is gone entirely), so the old channel is useless.  The
        failure is surfaced as a :class:`ServiceUnavailableError` — callers
        retry the *command*, which must therefore be idempotent.
        """
        try:
            self._ensure_channel()
            record = self._channel.send(wire.encode(command))
            response = self._me_send(
                {"t": "la_rec", "sid": self._session_id, "payload": record}
            )
            plaintext, _ = self._channel.recv(response["payload"])
            return wire.decode(plaintext)
        except (TransientError, ChannelError, KeyError, wire.WireError) as exc:
            self._channel = None
            self._session_id = None
            raise ServiceUnavailableError(
                f"Migration Enclave exchange failed: {exc}"
            ) from exc

    # ------------------------------------------------------ clone detection
    @property
    def guard_identity(self) -> bytes:
        """The clone-guard identity (empty when unguarded)."""
        return self._guard["id"] if self._guard is not None else b""

    def _clone_check(self, kind: str) -> None:
        """Claim this identity at the single-instance registry via the ME.

        Mandatory for guarded enclaves before any state becomes operational:
        the check runs inside ``migration_init`` (trusted code folded into
        the MRENCLAVE), so an attacker restoring a snapshot cannot skip it —
        stubbing the ``send_to_me`` transport just turns the claim into a
        transport failure, which is a denial, never an acceptance.
        """
        assert self._guard is not None
        response = self._me_command(
            {
                "cmd": "clone_check",
                "kind": kind,
                "id": self._guard["id"],
                "epoch": self._guard["epoch"],
                "instance": self._guard["instance"],
            }
        )
        status = response.get("status")
        if status == "ok":
            return
        error = str(response.get("error", status))
        if status == "clone_detected":
            raise CloneDetectedError(error)
        if status == "fenced":
            raise FencedInstanceError(error)
        if response.get("retryable"):
            # Registry (or ME) unavailable: deny now, allow a retry later.
            raise ServiceUnavailableError(
                f"single-instance claim could not be completed (denied): {error}"
            )
        raise MigrationError(f"single-instance claim failed: {error}")

    def _guard_suffix(self) -> bytes:
        """The guard fields shipped alongside Table I migration data, so the
        source ME can advance the registry and the destination library can
        continue the epoch sequence."""
        if self._guard is None:
            return b""
        return wire.encode(
            {
                "v": 1,
                "id": self._guard["id"],
                "epoch": self._guard["epoch"],
                "instance": self._guard["instance"],
            }
        )

    # ------------------------------------------------------------ Listing 1
    def migration_init(
        self,
        data_buffer: bytes | None,
        init_state: InitState,
        me_address: str,
        txn_id: str = "",
        clone_guard: bool = False,
    ) -> bytes:
        """Initialize the library (must be called every time the enclave is
        loaded).  Returns the sealed Table II buffer to store untrusted.

        * ``NEW`` — generate the MSK and empty counter arrays.
        * ``RESTORE`` — reload ``data_buffer`` after a restart on the same
          machine; refuses to operate if the freeze flag is set.
        * ``MIGRATE`` — fetch this enclave's migration data from the local
          Migration Enclave and install it (fresh counters, new offsets).
          ``txn_id`` (optional) names the migration transaction to fetch,
          needed when a wave parked several records for this MRENCLAVE.

        ``clone_guard=True`` on a NEW init enrolls the enclave with the
        fleet's single-instance registry; the guard travels inside the
        sealed state, so every later RESTORE/MIGRATE of that state — by
        anyone — must claim the registry before the library operates.
        """
        if self._state is not None:
            raise InvalidStateError("Migration Library already initialized")
        self._me_address = me_address
        self._txn_id = txn_id

        if init_state is InitState.NEW:
            self._charge("lib_init_new", "lib_counter_read_wrap")
            state = LibraryState()
            state.msk = self._sdk.random_bytes(_MSK_SIZE)
            if clone_guard:
                self._guard = {
                    "id": self._sdk.random_bytes(_GUARD_ID_SIZE),
                    "epoch": 1,
                    "instance": self._sdk.random_bytes(_GUARD_INSTANCE_SIZE),
                }
                try:
                    self._clone_check("new")
                except ReproError:
                    self._guard = None
                    raise
            self._state = state
            return self._persist()

        if init_state is InitState.RESTORE:
            if data_buffer is None:
                raise InvalidParameterError("RESTORE requires the sealed state buffer")
            state, guard = self._load_state(data_buffer)
            if guard is not None:
                guard["instance"] = self._sdk.random_bytes(_GUARD_INSTANCE_SIZE)
            if state.frozen:
                # Keep the frozen state loaded so diagnostics can see it,
                # but refuse every operation.  No registry claim: a frozen
                # instance can never operate, and the retry path it feeds
                # reports the freeze to the registry via the ME instead.
                self._state = state
                self._guard = guard
                raise InvalidStateError(
                    "refusing to operate: this enclave has been migrated "
                    "(freeze flag set in persistent state)"
                )
            if guard is not None:
                # Claim with the successor epoch, then persist the bump.
                # Unlike the unguarded path below, a guarded restore DOES
                # rewrite the buffer: the epoch advance is what lets the
                # registry tell this legitimate relaunch apart from a clone
                # replaying the same bytes later.
                guard["epoch"] += 1
                self._guard = guard
                try:
                    self._clone_check("restore")
                except ReproError:
                    self._guard = None
                    raise
                self._state = state
                return self._persist()
            self._state = state
            # Restore is read-only on disk: the loaded buffer already *is*
            # the persistent state, and re-sealing it here would overwrite
            # the newest on-disk generation.  If the disk rolled back to a
            # stale pre-freeze bundle (lost write), that overwrite would
            # destroy the only copy recording the freeze — and staleness is
            # not detectable until a counter read hits MC_NOT_FOUND
            # (Section VI-B), which happens well after init.
            return data_buffer

        if init_state is InitState.MIGRATE:
            migration, guard = self._fetch_incoming()
            if guard is not None:
                # Successor epoch over the shipped (frozen) one; the claim
                # must succeed before any state is installed.
                self._guard = {
                    "id": guard["id"],
                    "epoch": guard["epoch"] + 1,
                    "instance": self._sdk.random_bytes(_GUARD_INSTANCE_SIZE),
                }
                try:
                    self._clone_check("migrate")
                except ReproError:
                    self._guard = None
                    raise
            state = LibraryState()
            state.msk = migration.msk
            for slot in range(NUM_COUNTERS):
                if not migration.counters_active[slot]:
                    continue
                state.counters_active[slot] = True
                # Fresh destination counter starts at zero; the shipped
                # effective value becomes the offset, so the effective value
                # is preserved exactly (roll-back prevention, R4).
                uuid, value = self._sdk.create_monotonic_counter()
                assert value == 0
                state.counter_uuids[slot] = uuid
                state.counter_offsets[slot] = migration.counter_values[slot]
            self._state = state
            # The DONE confirmation is a separate step (confirm_migration):
            # the installed state must be persisted untrusted-side *before*
            # the source releases its copy, or a crash right here would
            # strand the enclave with neither copy usable.
            return self._persist()

        raise InvalidParameterError(f"unknown init state: {init_state}")

    def confirm_migration(self) -> None:
        """Confirm the installed migration to the local Migration Enclave.

        Releases the incoming copy and notifies the source ME so it can
        release its retained copy too.  Called after the fresh library state
        has been persisted.  Idempotent: if a previous confirmation got
        through but its response was lost, the ME reports nothing left to
        confirm and that is treated as success — so callers may blindly
        retry after transport failures.
        """
        self._require_operational()
        command: dict = {"cmd": "done"}
        if self._txn_id:
            command["txn"] = self._txn_id
        ack = self._me_command(command)
        if ack.get("status") == "ok":
            return
        if "no migration to confirm" in str(ack.get("error", "")):
            return
        raise MigrationError(f"Migration Enclave rejected DONE: {ack}")

    def _fetch_incoming(self) -> tuple[MigrationData, dict | None]:
        command: dict = {"cmd": "fetch"}
        if self._txn_id:
            # An unnamed fetch sends no field; the ME resolves the sole record.
            command["txn"] = self._txn_id
        response = self._me_command(command)
        if response.get("status") != "ok":
            raise MigrationError(
                "no incoming migration data for this enclave at the "
                f"Migration Enclave ({response.get('status')!r})"
            )
        core, guard = _split_guard(response["data"], MIGRATION_DATA_SIZE)
        return MigrationData.from_bytes(core), guard

    def migration_start(self, destination_address: str, txn_id: str = "") -> None:
        """Begin migrating this enclave to ``destination_address``.

        Order matters for fork prevention: effective counter values are
        captured, then every source counter is destroyed (requiring
        ``SGX_SUCCESS``), then the freeze flag is persisted, and only then
        does the migration data leave for the Migration Enclave.

        The data is staged at the local ME (``stage_out``), which parks it;
        the host's ``flush_staged`` then ships every record staged for the
        destination in one ME<->ME exchange, so a migration has the same
        shape alone or in a wave.  If a previous attempt failed after the
        freeze (the ME retained the data, Section V-D), calling this again
        asks the ME to re-route the parked record to
        ``destination_address`` — possibly a different machine — for the
        next flush.

        ``txn_id`` names the migration transaction; the ME uses it to make
        retried deliveries idempotent.  Failures that are safe to retry
        raise :class:`MigrationPendingError`; other failures raise plain
        :class:`MigrationError`.
        """
        if self._state is None:
            raise InvalidStateError("Migration Library not initialized")
        if self._destination_policy is not None and not self._destination_policy(
            destination_address
        ):
            raise MigrationError(
                f"enclave policy forbids migration to {destination_address!r}"
            )
        if self._state.frozen:
            self._retry_pending_migration(destination_address, txn_id)
            return
        state = self._state
        assert state is not None

        data = MigrationData.empty()
        data.msk = state.msk
        for slot in state.active_slots():
            uuid = state.counter_uuids[slot]
            assert uuid is not None
            current = self._sdk.read_monotonic_counter(uuid)
            data.counters_active[slot] = True
            data.counter_values[slot] = current + state.counter_offsets[slot]

        # Delete all source counters BEFORE the data leaves the enclave; a
        # restart from stale persistent state then hits MC_NOT_FOUND errors
        # no matter what offsets it holds (Section VI-B).
        for slot in state.active_slots():
            uuid = state.counter_uuids[slot]
            assert uuid is not None
            status = self._sdk.destroy_monotonic_counter(uuid)
            if status is not SgxStatus.SGX_SUCCESS:
                raise MigrationError(
                    f"counter destroy returned {status.name}; aborting migration"
                )
            state.counter_uuids[slot] = None

        # Fold the captured effective values into the offsets before the
        # freeze is persisted.  The counters are gone, so these offsets are
        # the only surviving record of the effective values; they let a
        # restarted source rebuild byte-identical migration data if the ME
        # never received it (crash or drop before stage_out arrived).
        for slot in state.active_slots():
            state.counter_offsets[slot] = data.counter_values[slot]

        if self._guard is not None:
            # The freeze is an epoch advance: the destination install will
            # claim with frozen+1, and the registry learns frozen (+ the
            # planned destination) from the guard suffix on the shipped
            # data, closing the restore-during-migration window.
            self._guard["epoch"] += 1
        state.frozen = True
        self._persist()
        self._ship(destination_address, data, txn_id)

    def _ship(self, destination_address: str, data: MigrationData, txn_id: str) -> None:
        """Hand frozen migration data to the local ME; classify the outcome."""
        try:
            response = self._me_command(
                {
                    "cmd": "stage_out",
                    "dest": destination_address,
                    "data": data.to_bytes() + self._guard_suffix(),
                    "txn": txn_id,
                }
            )
        except TransientError as exc:
            raise MigrationPendingError(
                f"could not hand migration data to the Migration Enclave: "
                f"{exc}; the enclave is frozen — call migration_start again "
                f"to retry"
            ) from exc
        if response.get("status") != "ok":
            if response.get("retryable"):
                raise MigrationPendingError(
                    f"Migration Enclave could not deliver migration data "
                    f"(retryable): {response.get('error')}"
                )
            raise MigrationError(
                f"Migration Enclave could not deliver migration data: "
                f"{response.get('error', response.get('status'))}"
            )

    def _retry_pending_migration(self, destination_address: str, txn_id: str) -> None:
        """Drive an already-frozen migration forward (Section V-D retry).

        The ME re-routes the record it still holds to the (possibly new)
        destination, and the next flush ships it.
        """
        try:
            response = self._me_command(
                {"cmd": "retry", "dest": destination_address, "txn": txn_id}
            )
        except TransientError as exc:
            raise MigrationPendingError(
                f"could not reach the Migration Enclave for retry: {exc}"
            ) from exc
        if response.get("status") == "ok":
            return
        if response.get("no_pending"):
            # The ME holds neither pending nor completed state for this
            # enclave: the original stage_out never arrived (or the ME lost
            # it in a pre-checkpoint crash).  Nothing was delivered
            # anywhere, so rebuilding the data from the frozen state and
            # staging it afresh cannot fork the enclave.
            self._ship(destination_address, self._rebuild_migration_data(), txn_id)
            return
        if response.get("retryable"):
            raise MigrationPendingError(
                f"retry of pending migration failed (retryable): "
                f"{response.get('error')}"
            )
        raise MigrationError(
            f"retry of pending migration failed: "
            f"{response.get('error', response.get('status'))}"
        )

    def _rebuild_migration_data(self) -> MigrationData:
        """Reconstruct the shipped data from the frozen persistent state.

        Valid because migration_start folded the effective counter values
        into the offsets before persisting the freeze; the MSK and those
        folded values are everything the destination needs.
        """
        state = self._state
        assert state is not None and state.frozen
        data = MigrationData.empty()
        data.msk = state.msk
        for slot in state.active_slots():
            data.counters_active[slot] = True
            data.counter_values[slot] = state.counter_offsets[slot]
        return data

    # --------------------------------------------- Listing 2: sealing (MSK)
    def seal_migratable_data(
        self, plaintext: bytes, additional_mac_text: bytes = b""
    ) -> bytes:
        """``sgx_seal_migratable_data``: AES-GCM under the cached MSK.

        Parameter-compatible with native sealing; no EGETKEY is needed
        because the MSK lives in enclave memory.
        """
        self._require_operational()
        meter = self._sdk._cpu.meter
        if meter is not None:
            meter.charge(
                "msk_seal",
                meter.model.aes_gcm_base
                + meter.model.aes_gcm_per_byte
                * (len(plaintext) + len(additional_mac_text)),
            )
        iv = self._sdk.random_bytes(12)
        ciphertext, tag = AesGcm(self._state.msk).encrypt(
            iv, plaintext, b"msk-seal|" + additional_mac_text
        )
        return wire.encode(
            {"iv": iv, "ct": ciphertext, "tag": tag, "aad": additional_mac_text}
        )

    def unseal_migratable_data(self, sealed_blob: bytes) -> tuple[bytes, bytes]:
        """``sgx_unseal_migratable_data``: returns (plaintext, MAC text).

        A blob with missing or mistyped fields is rejected as forged."""
        fields = sealed_fields(sealed_blob, iv=bytes, ct=bytes, tag=bytes, aad=bytes)
        self._require_operational()
        meter = self._sdk._cpu.meter
        if meter is not None:
            meter.charge(
                "msk_unseal",
                meter.model.aes_gcm_base
                + meter.model.aes_gcm_per_byte
                * (len(fields["ct"]) + len(fields["aad"])),
            )
        try:
            plaintext = AesGcm(self._state.msk).decrypt(
                fields["iv"], fields["ct"], fields["tag"], b"msk-seal|" + fields["aad"]
            )
        except CryptoError as exc:
            raise MacMismatchError(f"migratable unseal failed: {exc}") from exc
        return plaintext, fields["aad"]

    # -------------------------------------------- Listing 2: counters (ids)
    def _slot(self, counter_id: int):
        state = self._state
        assert state is not None
        if not 0 <= counter_id < NUM_COUNTERS:
            raise InvalidParameterError(f"counter id out of range: {counter_id}")
        if not state.counters_active[counter_id] or state.counter_uuids[counter_id] is None:
            raise CounterNotFoundError(f"migratable counter {counter_id} does not exist")
        return state.counter_uuids[counter_id]

    def create_migratable_counter(self) -> tuple[int, int]:
        """``sgx_create_migratable_counter``: returns (counter id, value).

        The id replaces the SGX UUID in the developer-facing API; the
        library keeps the UUID in its persistent buffer.
        """
        self._require_operational()
        state = self._state
        slot = state.free_slot()
        if slot < 0:
            raise SgxError(status=SgxStatus.SGX_ERROR_MC_OVER_QUOTA)
        uuid, value = self._sdk.create_monotonic_counter()
        state.counters_active[slot] = True
        state.counter_uuids[slot] = uuid
        state.counter_offsets[slot] = 0
        self._charge("lib_counter_create_wrap", "lib_counter_array_ops")
        self._persist()  # the UUID must survive a restart
        return slot, value + 0  # offset is zero at creation

    def destroy_migratable_counter(self, counter_id: int) -> SgxStatus:
        """``sgx_destroy_migratable_counter``."""
        self._require_operational()
        uuid = self._slot(counter_id)
        status = self._sdk.destroy_monotonic_counter(uuid)
        state = self._state
        state.counters_active[counter_id] = False
        state.counter_uuids[counter_id] = None
        state.counter_offsets[counter_id] = 0
        self._charge("lib_counter_destroy_wrap", "lib_counter_array_ops")
        self._persist()
        return status

    def increment_migratable_counter(self, counter_id: int) -> int:
        """``sgx_increment_migratable_counter``: returns the new effective
        value, guarding against uint32 overflow introduced by the offset."""
        self._require_operational()
        uuid = self._slot(counter_id)
        offset = self._state.counter_offsets[counter_id]
        self._charge("lib_counter_increment_wrap", "lib_counter_increment_wrap")
        current = self._sdk.increment_monotonic_counter(uuid)
        effective = current + offset
        if effective > 0xFFFFFFFF:
            raise SgxError(
                "effective counter would overflow uint32",
                status=SgxStatus.SGX_ERROR_MC_USED_UP,
            )
        return effective

    def read_migratable_counter(self, counter_id: int) -> int:
        """``sgx_read_migratable_counter``: returns the effective value."""
        self._require_operational()
        uuid = self._slot(counter_id)
        self._charge("lib_counter_read_wrap", "lib_counter_read_wrap")
        current = self._sdk.read_monotonic_counter(uuid)
        return current + self._state.counter_offsets[counter_id]
