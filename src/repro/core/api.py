"""The migration request: one wave of enclaves, in data.

A :class:`MigrationRequest` names *what* should move — which members, to
which destination, whether the VM moves, under which retry policy — and
``MigratableApp._execute(request)`` runs it as one stage / flush / relocate
wave.  Every source-side entry point goes through that wave: ``migrate``
and ``live_migrate`` are waves of one, ``migrate_group`` and ``migrate_vm``
waves of many, ``resume`` re-runs the wave of one under the journaled
transaction, and the fleet executor builds requests directly.

Design notes:

* ``target`` is a machine **address** (string), not a
  :class:`~repro.cloud.machine.PhysicalMachine` handle, so a request is
  data: the fleet planner can journal the plan it derives from and rebuild
  equal requests after a crash.
* ``members`` is a tuple of apps, possibly empty (which executes to an
  empty result list).
* ME<->ME session reuse is an install-time property of the Migration
  Enclaves, so no request carries it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import ClassVar

from repro.core.retry import RetryPolicy
from repro.errors import InvalidParameterError


class RequestKind(enum.Enum):
    """The migration flow a :class:`MigrationRequest` asks for: the wave
    (stop/restart of one or more enclaves) is the only one."""

    WAVE = "wave"


@dataclass(frozen=True)
class MigrationRequest:
    """One wave order, in data; build it with :meth:`wave`."""

    #: Traces name a request's span by its kind.
    kind: ClassVar[RequestKind] = RequestKind.WAVE

    members: tuple  # tuple[MigratableApp, ...]
    target: str  # destination machine address
    migrate_vm: bool = True
    retry_policy: RetryPolicy | None = None

    def __post_init__(self):
        if not isinstance(self.members, tuple):
            raise InvalidParameterError("request members must be a tuple")
        if not self.target:
            raise InvalidParameterError("a migration request needs a target")

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
        return cls(tuple(apps), target, migrate_vm, retry_policy)
