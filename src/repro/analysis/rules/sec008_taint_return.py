"""SEC008 — secret-derived values must not cross the boundary via returns.

Requirement R1 closes every exit, not just the loud ones SEC001 watches
(``print``, logging, OCALL arguments).  The quiet exits are *returns*: an
``@ecall`` method's return value lands in untrusted host memory, a
``Network``-object send puts bytes on the adversary's wire, and a
``storage``-object write persists them on the adversary's disk.  CTR
(Nakatsuka et al.) and the cloning study both found real leaks of exactly
this shape — a secret laundered through an innocent-looking helper's return
value.

This rule runs the shared taint engine (``analysis/dataflow.py``) over
every trusted function: secret-named reads (``msk``, ``*_key``, ``secret``,
``private`` …) are sources, sealing/AEAD/KDF/MAC calls are sanitizers
(:data:`repro.analysis.summaries.SANITIZER_RE`), and helper calls apply the
callee's summary — so ``return self._get_msk()`` is flagged with the full
multi-hop trace even though no secret name appears at the return site.

Flagged, in trusted-zone modules:

* an ``@ecall`` method whose return value carries secret taint,
* a secret-tainted argument to a network-ish ``send``/``sendall`` (secure
  channels *encrypt* inside ``send`` and are recognized as sanitizing),
* a secret-tainted argument to a storage-ish ``write``, ``write_atomic``
  or ``store``.

Not flagged: values that passed a sanitizer, parameter-derived values (the
caller already had them), and untrusted-zone code (nothing there is a
secret by construction — SEC001/SEC002 police that boundary).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.engine import ProjectRule, terminal_name
from repro.analysis.findings import Finding, TraceStep
from repro.analysis.summaries import param_index

#: Receiver-name fragments that mark a ``send`` as hitting the untrusted
#: wire.  A ``channel.send`` is the attested secure channel — it encrypts
#: internally and is therefore a legal exit.
_NETWORK_HINTS = ("network", "net", "sock", "wire", "transport")
_CHANNEL_HINTS = ("channel", "chan", "session")
_STORAGE_HINTS = ("storage", "store", "disk", "file", "db")

_SEND_NAMES = frozenset({"send", "sendall", "send_to", "post", "transmit"})
_WRITE_NAMES = frozenset(
    {"write", "write_atomic", "write_bytes", "store", "store_atomic", "put"}
)


def _receiver_text(call: ast.Call) -> str:
    if isinstance(call.func, ast.Attribute):
        return terminal_name(call.func.value).lower()
    return ""


def _is_network_send(call: ast.Call) -> bool:
    if terminal_name(call.func) not in _SEND_NAMES:
        return False
    receiver = _receiver_text(call)
    if any(hint in receiver for hint in _CHANNEL_HINTS):
        return False  # secure channel: encrypts inside send
    return any(hint in receiver for hint in _NETWORK_HINTS)


def _is_storage_write(call: ast.Call) -> bool:
    if terminal_name(call.func) not in _WRITE_NAMES:
        return False
    receiver = _receiver_text(call)
    return any(hint in receiver for hint in _STORAGE_HINTS)


class TaintedReturnRule(ProjectRule):
    rule_id = "SEC008"
    title = "Secret-derived values must not reach ECALL returns, network sends, or storage writes unsealed"
    requirement = "R1"
    fix_hint = (
        "seal the value before it leaves trusted code "
        "(seal_data / seal_migratable_data) or return a sealed/derived blob "
        "instead of the raw secret"
    )

    def check_project(self, project) -> Iterator[Finding]:
        from repro.analysis.dataflow import TaintTracker

        summaries = getattr(project, "summaries", {})
        for fn in project.functions.values():
            if fn.is_context or fn.module.zone != "trusted":
                continue
            flow = TaintTracker(
                project, fn, summaries=summaries, name_seed_params=False
            ).run()
            yield from self._check_returns(project, fn, flow)
            yield from self._check_calls(fn, flow)

    # ------------------------------------------------------------- returns
    def _check_returns(self, project, fn, flow) -> Iterator[Finding]:
        if not fn.is_ecall:
            return
        for event in flow.returns:
            for taint in self._real_taints(event.taints):
                yield self._finding(
                    fn,
                    event.node,
                    taint,
                    f"ECALL {fn.qualname!r} returns a value derived from "
                    f"secret {taint.label!r} — the return lands in untrusted "
                    "host memory unsealed",
                )

    # --------------------------------------------------------------- sinks
    def _check_calls(self, fn, flow) -> Iterator[Finding]:
        for event in flow.calls:
            kind = None
            if _is_network_send(event.node):
                kind = "network send"
            elif _is_storage_write(event.node):
                kind = "storage write"
            if kind is None:
                continue
            all_taints = list(event.arg_taints) + list(event.kw_taints.values())
            for taints in all_taints:
                for taint in self._real_taints(taints):
                    yield self._finding(
                        fn,
                        event.node,
                        taint,
                        f"value derived from secret {taint.label!r} reaches a "
                        f"{kind} ({terminal_name(event.node.func)}) unsealed",
                    )

    # ------------------------------------------------------------- helpers
    @staticmethod
    def _real_taints(taints):
        """Secret taints only — parameter markers are the caller's problem."""
        return sorted(
            (t for t in taints if param_index(t.label) is None),
            key=lambda t: t.label,
        )

    def _finding(self, fn, node, taint, message: str) -> Finding:
        line = getattr(node, "lineno", 1)
        sink = TraceStep(
            path=fn.module.display_path,
            line=line,
            text=fn.module.line_text(line),
            note="crosses the boundary here",
        )
        return Finding(
            path=fn.module.display_path,
            line=line,
            col=getattr(node, "col_offset", 0) + 1,
            rule=self.rule_id,
            severity=self.severity,
            message=message,
            hint=self.fix_hint,
            text=fn.module.line_text(line),
            trace=tuple(taint.steps) + (sink,),
        )
