"""Untrusted persistent storage with realistic durability semantics.

The OS-controlled disk where sealed blobs live.  Per the SGX threat model the
adversary fully controls it, so the API *designs in* the adversarial moves
the paper's attacks need: every write is kept in a version history, and the
adversary can snapshot any version and put it back later (replay), delete
blobs, or corrupt them.  Sealing's AEAD detects corruption; only monotonic
counters detect replay — which is the whole point of the paper.

On top of the adversary model sits a *crash-consistency* model.  A write
lands in a volatile write-back buffer and is only promoted to the durable
image by an explicit :meth:`UntrustedStorage.sync` (fsync).  A machine
:meth:`crash` discards everything unsynced, reverting the visible view to
the durable image — and, when a fault plan says so, the in-flight write can
be **torn** at a deterministic byte offset, a sync can **lie**
(``lost_write``: acked, dropped at crash), media can **rot** one byte, or a
read can return a **stale** earlier version.  All four are driven by the
seeded :class:`~repro.faults.injector.FaultInjector` attached via
``fault_injector``, so a plan plus a seed reproduces the identical failure.

:meth:`rename` is the atomic-replace primitive (metadata-journaled, ext4
``data=ordered`` semantics): if the source blob's data never became durable,
the rename *target keeps its previous durable content* at crash — which is
exactly why write-temp-then-sync-then-rename is self-healing.
:meth:`UntrustedStorage.write_atomic`, :meth:`~UntrustedStorage.delete_durably`
and :meth:`~UntrustedStorage.read_record` are the only implementation of
that discipline and of reading a corrupt record as absent.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fnmatch import fnmatch
from typing import Callable, Protocol, TypeVar

from repro import wire
from repro.errors import StorageError

T = TypeVar("T")


class DiskFaultHook(Protocol):
    """The disk-facing slice of :class:`~repro.faults.injector.FaultInjector`.

    Each hook observes one disk operation and returns the fault verdict for
    it (or ``None``/``False`` for "no fault").  Structural typing keeps the
    cloud layer free of an import cycle on the faults package.
    """

    def on_disk_write(self, machine: str, path: str, size: int) -> int | None:
        """Tear offset for this write, or ``None`` for a clean write."""

    def on_disk_sync(self, machine: str, path: str) -> bool:
        """``True`` when this sync lies (ack without promoting to durable)."""

    def on_disk_read(self, machine: str, path: str, size: int) -> tuple | None:
        """``("bit_rot", position, flip)`` or ``("stale_read",)`` or ``None``."""


@dataclass
class UntrustedStorage:
    """A per-machine blob store with full adversarial control.

    ``_blobs`` is the *buffered* view every honest reader sees (page cache);
    ``_durable`` is what actually survives a power failure.  ``write`` only
    touches the buffer; ``sync`` promotes; ``crash`` reverts the buffer to
    the durable image, applying any pending torn-write marks.
    """

    machine_id: str
    _blobs: dict[str, bytes] = field(default_factory=dict)
    _durable: dict[str, bytes] = field(default_factory=dict)
    _history: dict[str, "list[bytes | None]"] = field(default_factory=dict)
    _unsynced: set[str] = field(default_factory=set)
    _torn: dict[str, int] = field(default_factory=dict)  # path -> tear offset
    _lost: set[str] = field(default_factory=set)  # sync acked, never landed
    #: Times :meth:`read_record` found an unparseable record (any journal,
    #: index or registry blob); the disk chaos sweep sums it over the machines.
    journal_corruption_count: int = 0
    #: Disk-fault hook; the chaos harness points this at the FaultInjector.
    fault_injector: DiskFaultHook | None = field(default=None, repr=False)

    # ------------------------------------------------------------ honest API
    def write(self, path: str, data: bytes) -> None:
        """Buffer a write.  Visible to :meth:`read` immediately, durable only
        after :meth:`sync` — a crash before then discards (or tears) it."""
        data = bytes(data)
        self._blobs[path] = data
        self._history.setdefault(path, []).append(data)
        self._unsynced.add(path)
        # A fresh write supersedes any fate marked for the previous one.
        self._torn.pop(path, None)
        self._lost.discard(path)
        if self.fault_injector is not None:
            offset = self.fault_injector.on_disk_write(self.machine_id, path, len(data))
            if offset is not None:
                self._torn[path] = offset

    def sync(self, path: str | None = None) -> None:
        """fsync: promote buffered writes (and deletes) to the durable image.
        With no argument, flushes everything pending."""
        targets = [path] if path is not None else sorted(self._unsynced)
        for target in targets:
            if target not in self._unsynced:
                continue
            self._unsynced.discard(target)
            if target in self._torn:
                # The drive acked long ago but the platter holds a torn
                # copy; the lie only surfaces at the next power failure.
                continue
            if self.fault_injector is not None and self.fault_injector.on_disk_sync(
                self.machine_id, target
            ):
                self._lost.add(target)
                continue
            if target in self._blobs:
                self._durable[target] = self._blobs[target]
            else:
                self._durable.pop(target, None)

    def read(self, path: str) -> bytes:
        if path not in self._blobs:
            raise StorageError(f"no blob at {path!r} on {self.machine_id}")
        data = self._blobs[path]
        if self.fault_injector is not None:
            verdict = self.fault_injector.on_disk_read(self.machine_id, path, len(data))
            if verdict is not None and verdict[0] == "bit_rot" and data:
                _, position, flip = verdict
                rotted = bytearray(data)
                rotted[position % len(rotted)] ^= flip
                data = bytes(rotted)
                # Media rot is persistent: the buffered view (and, when the
                # blob had landed, the platter copy) now carry the flip.  The
                # history keeps the pristine bytes — the adversary archived
                # the write before the medium decayed.
                self._blobs[path] = data
                if path not in self._unsynced and path not in self._lost:
                    if path in self._durable:
                        self._durable[path] = data
            elif verdict is not None and verdict[0] == "stale_read":
                for old in reversed(self._history.get(path, [])):
                    if old is not None and old != data:
                        return old
        return data

    def exists(self, path: str) -> bool:
        return path in self._blobs

    def delete(self, path: str) -> None:
        """Unlink.  Tombstoned in the history (so :meth:`replay` can undo a
        mid-migration deletion) and — like a write — durable only after
        :meth:`sync`: a crash resurrects an unsynced delete."""
        if path not in self._blobs:
            return
        self._blobs.pop(path)
        self._history.setdefault(path, []).append(None)
        self._unsynced.add(path)
        self._torn.pop(path, None)
        self._lost.discard(path)

    def rename(self, old: str, new: str) -> None:
        """Atomically replace ``new`` with ``old`` (metadata-journaled).

        With ext4 ``data=ordered`` semantics: when the source blob's data is
        already durable the rename is immediately durable; when it is not
        (unsynced, or a lying sync dropped it), a crash leaves ``new`` with
        its *previous* durable content — never a mix of names and inodes.  A
        torn source write transfers its tear to the new name.
        """
        if old not in self._blobs:
            raise StorageError(f"no blob at {old!r} on {self.machine_id}")
        data = self._blobs.pop(old)
        self._blobs[new] = data
        self._history.setdefault(new, []).append(data)
        self._history.setdefault(old, []).append(None)
        promoted = (
            old in self._durable
            and old not in self._unsynced
            and old not in self._torn
            and old not in self._lost
        )
        self._durable.pop(old, None)
        if promoted:
            self._durable[new] = data
            self._unsynced.discard(new)
            self._torn.pop(new, None)
            self._lost.discard(new)
        else:
            if old in self._torn:
                self._torn[new] = self._torn.pop(old)
            else:
                self._torn.pop(new, None)
            if old in self._lost:
                self._lost.add(new)
            else:
                self._lost.discard(new)
            if old in self._unsynced:
                self._unsynced.add(new)
        self._unsynced.discard(old)
        self._torn.pop(old, None)
        self._lost.discard(old)

    def paths(self) -> list[str]:
        return sorted(self._blobs)

    # ------------------------------------------------------ durable records
    def write_atomic(self, path: str, data: bytes) -> None:
        """Durably replace ``path``: write ``path.tmp``, fsync it, rename it
        over ``path``.  At every crash point ``path`` holds the complete old
        value or the complete new one (modulo injected disk faults, which
        :meth:`read_record` turns into a counted absence)."""
        tmp = f"{path}.tmp"
        self.write(tmp, data)
        self.sync(tmp)
        self.rename(tmp, path)

    def delete_durably(self, path: str) -> None:
        """Unlink ``path`` and any temp a crashed :meth:`write_atomic` left
        behind, then fsync both deletes."""
        tmp = f"{path}.tmp"
        self.delete(tmp)
        self.delete(path)
        self.sync(tmp)
        self.sync(path)

    def read_record(self, path: str, parse: Callable[[bytes], T]) -> T | None:
        """``parse`` of the blob at ``path``, or ``None`` when the blob is
        absent or ``parse`` rejects it (``WireError``/``KeyError``).  A
        rejected record reads as absent but is counted in
        ``journal_corruption_count``, so recovery can see that it took this
        path."""
        if not self.exists(path):
            return None
        try:
            return parse(self.read(path))
        except (wire.WireError, KeyError):
            self.journal_corruption_count += 1
            return None

    # ----------------------------------------------------------- power event
    def crash(self) -> None:
        """Power failure: unsynced writes vanish, lying syncs surface, and
        any torn-marked in-flight write lands as prefix-of-new +
        suffix-of-old at its deterministic offset."""
        for path, offset in self._torn.items():
            new = self._blobs.get(path, b"")
            old = self._durable.get(path, b"")
            self._durable[path] = new[:offset] + old[offset:]
        self._blobs = dict(self._durable)
        self._unsynced.clear()
        self._torn.clear()
        self._lost.clear()

    # --------------------------------------------------------- adversary API
    def versions(self, path: str) -> "list[bytes | None]":
        """All values ever written to ``path`` (the adversary kept copies).
        ``None`` entries are deletion tombstones."""
        return list(self._history.get(path, []))

    def replay(self, path: str, version_index: int) -> None:
        """Put an old version back — the classic roll-back move.  Replaying
        a tombstone re-deletes the blob.  The adversary writes the platter
        directly, so the replayed version is immediately durable."""
        history = self._history.get(path)
        if not history:
            raise StorageError(f"nothing ever written to {path!r}")
        value = history[version_index]
        if value is None:
            self._blobs.pop(path, None)
            self._durable.pop(path, None)
        else:
            self._blobs[path] = value
            self._durable[path] = value
        self._unsynced.discard(path)
        self._torn.pop(path, None)
        self._lost.discard(path)

    def heal(self, pattern: str) -> list[str]:
        """Restore every blob matching ``pattern`` to its newest archived
        version — the recovery counterpart of :meth:`replay`, used by the
        disk chaos sweep after AEAD/parse checks reject the on-disk copy."""
        healed: list[str] = []
        for path, history in self._history.items():
            if not fnmatch(path, pattern):
                continue
            newest = next((v for v in reversed(history) if v is not None), None)
            if newest is None or self._blobs.get(path) == newest:
                continue
            self.replay(path, max(i for i, v in enumerate(history) if v is newest))
            healed.append(path)
        return sorted(healed)

    def corrupt(self, path: str, flip_byte: int = 0) -> None:
        """Flip one byte of the stored blob (integrity-attack helper).  The
        adversary writes the platter directly, so the flip is durable."""
        if path not in self._blobs:
            raise StorageError(f"no blob at {path!r} on {self.machine_id}")
        data = bytearray(self._blobs[path])
        if not data:
            raise StorageError(f"cannot corrupt empty blob at {path!r}")
        data[flip_byte % len(data)] ^= 0xFF
        self._blobs[path] = bytes(data)
        if path in self._durable:
            self._durable[path] = bytes(data)


# --------------------------------------------------------- migration journal
MIGRATION_JOURNAL_PATH = "migration_txn"

#: Journal phases, in protocol order.
PHASE_PREPARE = "prepare"  # source decided to migrate; nothing shipped yet
PHASE_SHIPPED = "shipped"  # library frozen, data handed to the source ME
PHASE_ARRIVED = "arrived"  # VM relocated; destination side is restoring


@dataclass(frozen=True)
class MigrationRecord:
    """The persisted migration-in-progress record (Section VI-C semantics).

    Written by the *untrusted* application before each irreversible protocol
    step so a crashed source or destination knows, on restart, which
    transaction to resume and in which direction.  It is a recovery hint
    only: deleting or forging it can at worst stall recovery (availability).
    R3/R4 never depend on it — forks and rollbacks are prevented by the
    trusted layers (freeze flag, counter destruction, ME matching).

    ``generation`` counts journal rewrites for this application; the journal
    assigns it on write so a resurrected stale record (a lying fsync under
    the disk fault model) is distinguishable from the one it shadowed.
    """

    txn_id: str
    role: str  # "source" | "destination"
    phase: str  # PHASE_PREPARE | PHASE_SHIPPED | PHASE_ARRIVED
    source: str  # source machine address
    destination: str  # destination machine address
    retries: int = 0
    generation: int = 0

    def to_bytes(self) -> bytes:
        return wire.encode(
            {
                "txn": self.txn_id,
                "role": self.role,
                "phase": self.phase,
                "source": self.source,
                "destination": self.destination,
                "retries": self.retries,
                "gen": self.generation,
            }
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "MigrationRecord":
        fields = wire.typed_fields(
            {"gen": 0, **wire.decode(data)},
            txn=str, role=str, phase=str, source=str, destination=str,
            retries=int, gen=int,
        )
        return cls(
            txn_id=fields["txn"],
            role=fields["role"],
            phase=fields["phase"],
            source=fields["source"],
            destination=fields["destination"],
            retries=fields["retries"],
            generation=fields["gen"],
        )


@dataclass
class MigrationJournal:
    """One application's migration-in-progress record on one machine's disk.

    ``owner`` is the application name; the record lives under the same
    per-application prefix as the app's other blobs.  It is written with
    :meth:`UntrustedStorage.write_atomic` and read with
    :meth:`UntrustedStorage.read_record`, so the path always holds the
    complete previous record or the complete new one, and injected disk
    faults surface as a counted ``None`` or a stale generation.
    """

    storage: UntrustedStorage
    owner: str

    @property
    def path(self) -> str:
        return f"{self.owner}/{MIGRATION_JOURNAL_PATH}"

    def write(self, record: MigrationRecord) -> None:
        current = self.read()
        record = replace(
            record, generation=(current.generation if current else 0) + 1
        )
        self.storage.write_atomic(self.path, record.to_bytes())

    def read(self) -> MigrationRecord | None:
        return self.storage.read_record(self.path, MigrationRecord.from_bytes)

    def clear(self) -> None:
        self.storage.delete_durably(self.path)
