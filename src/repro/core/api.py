"""The unified migration request API.

Historically each migration flavor grew its own entry point on
:class:`~repro.core.protocol.MigratableApp` — ``migrate`` (stop/restart,
Fig. 2), ``migrate_group`` (batched waves), ``live_migrate`` (Gu-style
memory + persistent state), and ``resume`` (crash recovery) — each with its
own parameter list and subtly different retry/journal plumbing.  Automation
layered on top (the fleet control plane, benches, chaos harnesses) had to
know which method to call and how to spell its arguments.

This module collapses the four shapes into three request kinds: a frozen
:class:`MigrationRequest` describing *what* should happen — which members,
which destination, live or stop/restart, whether the VM moves, which retry
policy — which a single internal ``MigratableApp._execute(request)`` path
interprets.  A stop/restart ``migrate`` is a wave of one, so every
stop/restart migration runs the same stage / flush / complete protocol.
The four public methods remain as thin wrappers (their signatures and wire
traffic are pinned by ``tests/integration/test_wire_compat.py``), while
programmatic callers such as the fleet executor build requests directly.

Design notes:

* ``target`` is a machine **address** (string), not a
  :class:`~repro.cloud.machine.PhysicalMachine` handle, so a request is
  data: the fleet planner can journal the plan it derives from and rebuild
  equal requests after a crash.
* ``members`` is a tuple of apps.  Single-app kinds carry exactly one
  member; :data:`RequestKind.WAVE` carries the whole wave (one member for
  ``migrate``; possibly empty, which executes to an empty result list).
* ME<->ME session reuse is an install-time property of the Migration
  Enclaves, so no request carries it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.core.retry import RetryPolicy
from repro.errors import InvalidParameterError


class RequestKind(enum.Enum):
    """Which migration flow a :class:`MigrationRequest` asks for."""

    WAVE = "wave"  # stop/restart of one or more enclaves (stage/flush/complete)
    LIVE = "live"  # persistent state + data memory, no restart
    RESUME = "resume"  # finish an interrupted transaction from the journal


@dataclass(frozen=True)
class MigrationRequest:
    """One migration order, in data.

    Build with the :meth:`wave` / :meth:`live_migrate` / :meth:`resume`
    constructors rather than positionally — they enforce the
    per-kind invariants (resume has no target, live never moves the VM,
    only waves carry multiple members) at construction time, so
    ``_execute`` can dispatch without re-validating.
    """

    kind: RequestKind
    members: tuple  # tuple[MigratableApp, ...]
    target: str | None = None  # destination machine address
    migrate_vm: bool = True
    retry_policy: RetryPolicy | None = None

    def __post_init__(self):
        if not isinstance(self.members, tuple):
            raise InvalidParameterError("request members must be a tuple")
        if self.kind is RequestKind.RESUME:
            if self.target is not None:
                raise InvalidParameterError(
                    "resume reads its destination from the journal, not the request"
                )
        elif not self.target:
            raise InvalidParameterError(f"{self.kind.value} request needs a target")
        if self.kind is not RequestKind.WAVE and len(self.members) != 1:
            raise InvalidParameterError(
                f"{self.kind.value} request carries exactly one member"
            )

    # ------------------------------------------------------------ builders
    @classmethod
    def wave(
        cls,
        apps,
        target: str,
        *,
        migrate_vm: bool = False,
        retry_policy: RetryPolicy | None = None,
    ) -> "MigrationRequest":
        """Stop/restart migration of a group (one ME<->ME exchange per
        source machine); ``migrate`` passes a group of one."""
        return cls(
            kind=RequestKind.WAVE,
            members=tuple(apps),
            target=target,
            migrate_vm=migrate_vm,
            retry_policy=retry_policy,
        )

    @classmethod
    def live_migrate(cls, app, target: str) -> "MigrationRequest":
        """Live (no stop/restart) migration; requires a LiveMigratableApp."""
        return cls(kind=RequestKind.LIVE, members=(app,), target=target)

    @classmethod
    def resume(
        cls,
        app,
        *,
        migrate_vm: bool = False,
        retry_policy: RetryPolicy | None = None,
    ) -> "MigrationRequest":
        """Finish the app's journaled in-progress migration."""
        return cls(
            kind=RequestKind.RESUME,
            members=(app,),
            migrate_vm=migrate_vm,
            retry_policy=retry_policy,
        )
