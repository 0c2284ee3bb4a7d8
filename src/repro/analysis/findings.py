"""Findings model for the static-analysis subsystem.

A :class:`Finding` is one rule violation at one source location.  Findings
carry everything a reviewer needs to act (rule id, severity, location,
message, fix hint) plus the stripped source-line text.

Interprocedural findings additionally carry a ``trace``: the def→use hops
(:class:`TraceStep`) that prove the flow, printed by ``--explain`` and
folded into the finding's :attr:`Finding.fingerprint` (the SARIF
``partialFingerprints`` and JSON ``fingerprint``), so two distinct flows
landing on the same sink line stay distinguishable.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass, field


class Severity(enum.Enum):
    """How seriously a finding blocks a merge."""

    ERROR = "error"
    WARNING = "warning"


@dataclass(frozen=True)
class TraceStep:
    """One hop of a dataflow trace: where a tainted value moved."""

    path: str
    line: int
    text: str  # stripped source line
    note: str  # e.g. "secret 'msk' read", "returned by helper()"

    def format_text(self) -> str:
        return f"{self.path}:{self.line}: {self.note}\n        {self.text}"


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str
    severity: Severity = field(default=Severity.ERROR, compare=False)
    hint: str = field(default="", compare=False)
    text: str = field(default="", compare=False)  # stripped source line
    trace: tuple = field(default=(), compare=False)  # tuple[TraceStep, ...]

    @property
    def fingerprint(self) -> str:
        """Line-number-independent flow identity: rule + path + sink text +
        the trace's hop notes.  Stable across edits that only move code."""
        digest = hashlib.sha256()
        digest.update(f"{self.rule}|{self.path}|{self.text}".encode())
        for step in self.trace:
            digest.update(f"|{step.path}|{step.note}".encode())
        return digest.hexdigest()[:16]

    def to_dict(self) -> dict:
        payload = {
            "rule": self.rule,
            "severity": self.severity.value,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "hint": self.hint,
            "text": self.text,
            "fingerprint": self.fingerprint,
        }
        if self.trace:
            payload["trace"] = [
                {
                    "path": step.path,
                    "line": step.line,
                    "text": step.text,
                    "note": step.note,
                }
                for step in self.trace
            ]
        return payload

    def format_text(self, explain: bool = False) -> str:
        out = f"{self.path}:{self.line}:{self.col}: {self.rule} {self.severity.value}: {self.message}"
        if self.hint:
            out += f"\n    hint: {self.hint}"
        if explain and self.trace:
            out += "\n    flow:"
            for step in self.trace:
                out += f"\n      {step.format_text()}"
        return out
