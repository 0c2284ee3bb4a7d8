"""SEC006 — Migration Library init calls must name a declared init state.

``core/migration_library.py`` declares the library's entry edges:
``migration_init`` takes an ``InitState`` that selects NEW, RESTORE or
MIGRATE, and RESTORE reloads the sealed Table II buffer of the previous
run.  The order of the library's calls (init, operations, freeze) is
SEC009's, on every call path.  This rule checks the declarations:

* ``InitState.<member>`` references that are not declared by the enum,
* ``migration_init(None, InitState.RESTORE, ...)`` at any
  ``.migration_init(...)`` call — RESTORE requires the sealed Table II
  buffer.

The legal ``InitState`` members are read from the library itself, so this
rule can never drift from the source of truth.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.engine import Rule, SourceModule
from repro.analysis.findings import Finding


def _init_state_members() -> frozenset[str]:
    """The declared InitState members, read from the library itself."""
    try:
        from repro.core.migration_library import InitState

        return frozenset(InitState.__members__)
    except Exception:  # pragma: no cover - analysis of a detached tree
        return frozenset({"NEW", "RESTORE", "MIGRATE"})


class ProtocolStateRule(Rule):
    rule_id = "SEC006"
    title = "MigrationLibrary init calls must name a declared InitState"
    requirement = "R3"
    fix_hint = (
        "use a declared InitState member, and pass the sealed Table II "
        "buffer of the previous run to a RESTORE init"
    )

    def __init__(self) -> None:
        self._members = _init_state_members()

    def check(self, module: SourceModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            yield from self._check_init_state_ref(module, node)
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "migration_init"
            ):
                yield from self._check_restore_buffer(module, node)

    def _check_init_state_ref(
        self, module: SourceModule, node: ast.AST
    ) -> Iterator[Finding]:
        member = None
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "InitState"
            and not node.attr.startswith("__")
        ):
            member = node.attr
        elif (
            isinstance(node, ast.Subscript)
            and isinstance(node.value, ast.Name)
            and node.value.id == "InitState"
            and isinstance(node.slice, ast.Constant)
            and isinstance(node.slice.value, str)
        ):
            member = node.slice.value
        if member is not None and member not in self._members:
            yield module.finding(
                self,
                node,
                f"InitState.{member} is not a declared init state "
                f"(legal: {', '.join(sorted(self._members))})",
            )

    def _check_restore_buffer(
        self, module: SourceModule, call: ast.Call
    ) -> Iterator[Finding]:
        args = list(call.args)
        if len(args) < 2:
            return
        buffer_arg, init_arg = args[0], args[1]
        is_restore = (
            isinstance(init_arg, ast.Attribute)
            and isinstance(init_arg.value, ast.Name)
            and init_arg.value.id == "InitState"
            and init_arg.attr == "RESTORE"
        )
        if (
            is_restore
            and isinstance(buffer_arg, ast.Constant)
            and buffer_arg.value is None
        ):
            yield module.finding(
                self,
                call,
                "migration_init(None, InitState.RESTORE, ...) — RESTORE "
                "requires the sealed Table II buffer from the previous run",
            )
