"""SEC007 — migration-critical blobs must be fsynced before the function ends.

The disk fault model (``repro.cloud.storage``) buffers every ``write`` in a
volatile write-back cache: without an explicit ``sync``, a machine crash
silently discards the blob.  For most data that is an availability nit; for
the artifacts recovery depends on — the migration journal, the Migration
Enclave's A/B checkpoints, the sealed Table II library bundle — it reopens
exactly the crash windows the chaos ``--disk`` sweep exists to close: a
journal that never landed cannot name the transaction to resume, and an
unlanded checkpoint strands parked migration data.

Flagged: a ``*.storage.write(path, ...)`` call whose path argument names a
migration-critical artifact (``migration_txn``, ``me_checkpoint``,
``miglib_state``, or the constants that hold those paths) with no
``sync``/``store``/``store_atomic`` call later in the same function.  The
durable primitive ``UntrustedStorage.write_atomic`` (write-temp → fsync →
rename) and its per-application wrapper ``Application.store_atomic`` are the
sanctioned spelling — this rule catches the raw-write shortcut that skips
them.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.engine import Rule, SourceModule, calls_in, functions_of, terminal_name
from repro.analysis.findings import Finding

#: Substrings (of literals) and identifiers (of path expressions) that mark
#: a blob as migration-critical.  Matching either way keeps the rule robust
#: to both ``storage.write("app/migration_txn", ...)`` and
#: ``storage.write(LIBRARY_STATE_PATH, ...)`` spellings.
_CRITICAL_TOKENS = ("migration_txn", "me_checkpoint", "miglib_state")
_CRITICAL_NAMES = frozenset(
    {
        "MIGRATION_JOURNAL_PATH",
        "ME_CHECKPOINT_PATH",
        "ME_CHECKPOINT_SLOTS",
        "ME_CHECKPOINT_POINTER",
        "LIBRARY_STATE_PATH",
    }
)
_DURABLE_FOLLOWUPS = frozenset({"sync", "store", "store_atomic"})


def _is_storage_write(call: ast.Call) -> bool:
    func = call.func
    return (
        isinstance(func, ast.Attribute)
        and func.attr == "write"
        and terminal_name(func.value) == "storage"
    )


def _path_is_critical(arg: ast.AST) -> bool:
    if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
        return any(token in arg.value for token in _CRITICAL_TOKENS)
    text = ast.unparse(arg)
    if any(token in text for token in _CRITICAL_TOKENS):
        return True
    names = {node.id for node in ast.walk(arg) if isinstance(node, ast.Name)}
    names.update(
        node.attr for node in ast.walk(arg) if isinstance(node, ast.Attribute)
    )
    return bool(_CRITICAL_NAMES.intersection(names))


class DurableWriteRule(Rule):
    rule_id = "SEC007"
    title = "Migration-critical storage writes must be followed by sync"
    requirement = "R4"
    fix_hint = (
        "follow the storage.write with storage.sync(path) — or use the "
        "durable primitive storage.write_atomic(path, data) (or "
        "Application.store_atomic), which fsyncs and renames for you"
    )

    def check(self, module: SourceModule) -> Iterator[Finding]:
        for func in functions_of(module.tree):
            writes: list[tuple[int, ast.Call]] = []
            followups: list[int] = []
            for call in calls_in(func):
                if _is_storage_write(call) and call.args and _path_is_critical(call.args[0]):
                    writes.append((call.lineno, call))
                elif terminal_name(call.func) in _DURABLE_FOLLOWUPS:
                    followups.append(call.lineno)
            for line, call in writes:
                if not any(followup > line for followup in followups):
                    yield module.finding(
                        self,
                        call,
                        f"migration-critical blob written at line {line} with "
                        "no later sync in this function — a crash silently "
                        "drops it from the write-back buffer, and recovery "
                        "then cannot see the journal/checkpoint it needs",
                    )
