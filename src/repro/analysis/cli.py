"""Command-line interface: ``python -m repro.analysis`` / ``repro-analyze``.

Prints every finding the engine reports, in sorted order; a justified
exception is accepted only by a ``# repro: ignore[...]`` pragma on its line.
Exit codes: 0 — clean; 1 — findings; 2 — usage or I/O error.
``--format json`` emits a machine-readable report and ``--format sarif`` a
SARIF 2.1.0 log for code-scanning UIs.  ``--rule`` restricts reporting to the
named rules and ``--explain`` prints the def→use dataflow trace under each
finding that has one.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.analysis.engine import AnalysisEngine
from repro.analysis.findings import Finding, Severity
from repro.analysis.rules import ALL_RULE_CLASSES

DEFAULT_PATHS = ("src/repro",)

_SARIF_LEVEL = {Severity.ERROR: "error", Severity.WARNING: "warning"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-analyze",
        description=(
            "Interprocedural enclave-boundary and secret-flow analyzer for "
            "the SGX-migration reproduction (rules SEC001-SEC004, SEC006-SEC010)"
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=list(DEFAULT_PATHS),
        help=f"files or directories to analyze (default: {' '.join(DEFAULT_PATHS)})",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--rule",
        action="append",
        default=None,
        metavar="SEC00x",
        help="report only the named rule(s); repeatable",
    )
    parser.add_argument(
        "--explain",
        action="store_true",
        help="print the def->use dataflow trace under each finding",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )
    return parser


def _print_catalog(stream) -> None:
    for cls in ALL_RULE_CLASSES:
        entry = cls.catalog_entry()
        print(
            f"{entry['rule']}  [{entry['requirement']}]  "
            f"{entry['severity']}: {entry['title']}",
            file=stream,
        )


def _sarif_report(findings: list[Finding]) -> dict:
    """A minimal SARIF 2.1.0 log: one run, the full rule catalog, results
    with location + flow fingerprint."""
    rules = [
        {
            "id": cls.rule_id,
            "name": cls.__name__,
            "shortDescription": {"text": cls.title},
            "help": {"text": cls.fix_hint},
            "defaultConfiguration": {"level": _SARIF_LEVEL[cls.severity]},
            "properties": {"requirement": cls.requirement},
        }
        for cls in ALL_RULE_CLASSES
    ]
    results = []
    for finding in findings:
        result = {
            "ruleId": finding.rule,
            "level": _SARIF_LEVEL.get(finding.severity, "error"),
            "message": {"text": finding.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {"uri": finding.path},
                        "region": {
                            "startLine": finding.line,
                            "startColumn": finding.col,
                        },
                    }
                }
            ],
            "partialFingerprints": {"reproFlow/v1": finding.fingerprint},
        }
        if finding.trace:
            result["codeFlows"] = [
                {
                    "threadFlows": [
                        {
                            "locations": [
                                {
                                    "location": {
                                        "physicalLocation": {
                                            "artifactLocation": {"uri": step.path},
                                            "region": {"startLine": step.line},
                                        },
                                        "message": {"text": step.note},
                                    }
                                }
                                for step in finding.trace
                            ]
                        }
                    ]
                }
            ]
        results.append(result)
    return {
        "$schema": "https://json.schemastore.org/sarif-2.1.0.json",
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-analyze",
                        "informationUri": "https://example.invalid/repro-analysis",
                        "rules": rules,
                    }
                },
                "results": results,
            }
        ],
    }


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        _print_catalog(sys.stdout)
        return 0

    missing = [p for p in args.paths if not Path(p).exists()]
    if missing:
        print(f"error: no such path: {', '.join(missing)}", file=sys.stderr)
        return 2

    known_rules = {cls.rule_id for cls in ALL_RULE_CLASSES} | {"PARSE"}
    selected = None
    if args.rule:
        selected = {rule.upper() for rule in args.rule}
        unknown = selected - known_rules
        if unknown:
            print(
                f"error: unknown rule(s): {', '.join(sorted(unknown))} "
                f"(see --list-rules)",
                file=sys.stderr,
            )
            return 2

    findings = AnalysisEngine().analyze_paths(args.paths)
    if selected is not None:
        findings = [finding for finding in findings if finding.rule in selected]

    if args.format == "json":
        report = {
            "findings": [finding.to_dict() for finding in findings],
            "total": len(findings),
            "rules": sorted({finding.rule for finding in findings}),
        }
        print(json.dumps(report, indent=2))
    elif args.format == "sarif":
        print(json.dumps(_sarif_report(findings), indent=2))
    else:
        for finding in findings:
            print(finding.format_text(explain=args.explain))
        print(f"{len(findings)} finding(s)" if findings else "clean: 0 findings")
    return 1 if findings else 0


if __name__ == "__main__":
    raise SystemExit(main())
