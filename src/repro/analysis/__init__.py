"""``repro.analysis`` — AST-based static analysis for the paper's invariants.

The reproduction's security argument (Requirements R1-R4, Sections IV-VI)
rests on properties no Python type checker can see: key material never
crosses the enclave boundary unsealed, GCM nonces are unique, monotonic
counters advance before sealed state is released, and the Migration Library
only moves through its legal protocol states.  This package machine-checks
them on every run:

* :mod:`repro.analysis.engine` — file walking, pragma suppression, rule
  dispatch (stdlib ``ast``, zero dependencies);
* :mod:`repro.analysis.callgraph` — project-wide symbol table and call
  graph, including the ``Enclave.ecall("name", ...)`` dispatch edge;
* :mod:`repro.analysis.summaries` / :mod:`repro.analysis.dataflow` —
  per-function taint summaries and the interprocedural taint tracker;
* :mod:`repro.analysis.rules` — the catalog, SEC001-SEC004 and
  SEC006-SEC010 (SEC009 is the one lifecycle checker, on call paths of one
  function or many);
* :mod:`repro.analysis.cli` — ``python -m repro.analysis`` / ``repro-analyze``.

Suppress a justified finding in place with ``# repro: ignore[SEC00x]`` plus
a comment saying why the flow is safe; the pragma is the only suppression,
so every other finding fails the gate.
"""

from __future__ import annotations

from repro.analysis.engine import AnalysisEngine, SourceModule, zone_for
from repro.analysis.findings import Finding, Severity
from repro.analysis.rules import ALL_RULE_CLASSES, default_rules


def analyze_source(source: str, display_path: str = "module.py"):
    """Analyze one source text with the default rules (test entry point)."""
    return AnalysisEngine().analyze_source(source, display_path)


def analyze_paths(paths):
    """Analyze files/directories with the default rules."""
    return AnalysisEngine().analyze_paths(paths)


__all__ = [
    "ALL_RULE_CLASSES",
    "AnalysisEngine",
    "Finding",
    "Severity",
    "SourceModule",
    "analyze_paths",
    "analyze_source",
    "default_rules",
    "zone_for",
]
