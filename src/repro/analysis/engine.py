"""Rule engine: file walking, AST parsing, pragma suppression, rule dispatch.

The engine is deliberately dependency-free (stdlib ``ast`` only).  Each rule
receives a :class:`SourceModule` — the parsed tree plus a *trust-zone*
classification derived from the file's path — and yields findings.  Code
under ``cloud/``, ``attacks/``, ``examples/`` and ``benchmarks/`` is
**untrusted** (it models the adversary-controlled host side of the paper's
system model, Section III); everything else is trusted enclave/infrastructure
code.  Several rules only make sense on one side of that boundary.

Suppression is explicit and reviewable: a ``# repro: ignore[SEC002]``
pragma on the offending line (or on a pure-comment line directly above it)
silences the named rules at that location; the surrounding comment is the
place to justify *why* the flow is safe.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

from repro.analysis.findings import Finding, Severity

#: Path components whose files model the untrusted side of the system.
UNTRUSTED_PARTS = frozenset({"cloud", "attacks", "examples", "benchmarks"})

_PRAGMA_RE = re.compile(r"#\s*repro:\s*ignore\[([A-Za-z0-9_*\s,]+)\]")


def zone_for(display_path: str) -> str:
    """Classify a file as ``trusted`` or ``untrusted`` by its path."""
    parts = Path(display_path).parts
    return "untrusted" if UNTRUSTED_PARTS.intersection(parts) else "trusted"


@dataclass
class SourceModule:
    """One parsed source file handed to every rule."""

    display_path: str
    source: str
    lines: list[str]
    tree: ast.Module
    zone: str

    def line_text(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""

    def finding(
        self,
        rule: "Rule",
        node: ast.AST,
        message: str,
        hint: str | None = None,
    ) -> Finding:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        return Finding(
            path=self.display_path,
            line=line,
            col=col + 1,
            rule=rule.rule_id,
            severity=rule.severity,
            message=message,
            hint=rule.fix_hint if hint is None else hint,
            text=self.line_text(line),
        )


class Rule:
    """Base class for analysis rules.

    Subclasses set the class attributes and implement :meth:`check`.
    ``requirement`` names the paper requirement (R1–R4, Section IV) the rule
    machine-checks, so the catalog stays traceable to the security argument.
    """

    rule_id: str = "SEC000"
    severity: Severity = Severity.ERROR
    title: str = ""
    requirement: str = ""
    fix_hint: str = ""

    def check(self, module: SourceModule) -> Iterator[Finding]:
        raise NotImplementedError

    @classmethod
    def catalog_entry(cls) -> dict:
        return {
            "rule": cls.rule_id,
            "severity": cls.severity.value,
            "title": cls.title,
            "requirement": cls.requirement,
        }


class ProjectRule(Rule):
    """A rule that needs the whole-program view (call graph, summaries).

    Project rules run once per analysis over the
    :class:`~repro.analysis.callgraph.Project` instead of once per module;
    they may report findings in any *analyzed* module (never in context
    modules).  The engine attaches the shared taint summaries to the project
    as ``project.summaries`` before any project rule runs.
    """

    def check_project(self, project) -> Iterator[Finding]:
        raise NotImplementedError

    def check(self, module: SourceModule) -> Iterator[Finding]:
        return iter(())


# --------------------------------------------------------------- AST helpers
def terminal_name(node: ast.AST) -> str:
    """The rightmost identifier of an expression, or ``""``.

    ``state.msk`` → ``msk``; ``wire.encode`` → ``encode``; for a call the
    callee's terminal name; for a constant-string subscript the key itself
    (``fields["tag"]`` → ``tag``).
    """
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Call):
        return terminal_name(node.func)
    if isinstance(node, ast.Subscript):
        if isinstance(node.slice, ast.Constant) and isinstance(node.slice.value, str):
            return node.slice.value
        return terminal_name(node.value)
    return ""


def is_constant_expr(node: ast.AST) -> bool:
    """True when an expression is fully determined at compile time.

    Covers the ways a constant IV is typically spelled: literals,
    ``b"\\x00" * 12``, concatenations of literals, and tuples of constants.
    """
    if isinstance(node, ast.Constant):
        return True
    if isinstance(node, ast.BinOp):
        return is_constant_expr(node.left) and is_constant_expr(node.right)
    if isinstance(node, ast.UnaryOp):
        return is_constant_expr(node.operand)
    if isinstance(node, (ast.Tuple, ast.List)):
        return all(is_constant_expr(item) for item in node.elts)
    if isinstance(node, ast.Call) and terminal_name(node) == "bytes":
        return all(is_constant_expr(arg) for arg in node.args)
    return False


def functions_of(tree: ast.Module) -> Iterator[ast.FunctionDef | ast.AsyncFunctionDef]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def calls_in(scope: ast.AST) -> Iterator[ast.Call]:
    """All calls in a scope, in source order (line, then column)."""
    calls = [node for node in ast.walk(scope) if isinstance(node, ast.Call)]
    calls.sort(key=lambda c: (c.lineno, c.col_offset))
    yield from calls


# ------------------------------------------------------------------- pragmas
def pragma_lines(lines: list[str]) -> dict[int, set[str]]:
    """Map line number → set of rule ids suppressed on that line.

    A pragma on a pure-comment line also covers the next line, so wide
    statements can keep the justification above the code.
    """
    suppressed: dict[int, set[str]] = {}
    for idx, raw in enumerate(lines, start=1):
        match = _PRAGMA_RE.search(raw)
        if not match:
            continue
        rules = {part.strip() for part in match.group(1).split(",") if part.strip()}
        suppressed.setdefault(idx, set()).update(rules)
        if raw.lstrip().startswith("#"):
            suppressed.setdefault(idx + 1, set()).update(rules)
    return suppressed


def _is_suppressed(finding: Finding, pragmas: dict[int, set[str]]) -> bool:
    rules = pragmas.get(finding.line, ())
    return finding.rule in rules or "*" in rules


def _unsuppressed(
    findings: Iterable[Finding], pragmas_by_path: dict[str, dict[int, set[str]]]
) -> list[Finding]:
    """``findings`` minus those a pragma in ``pragmas_by_path`` covers."""
    return sorted({
        finding
        for finding in findings
        if not _is_suppressed(finding, pragmas_by_path.get(finding.path, {}))
    })


# -------------------------------------------------------------------- engine
#: Directories (relative to cwd) whose files are parsed into the project as
#: *context* — their call and dispatch edges count (many ECALL handlers are
#: driven only from tests), but findings are never reported in them.
DEFAULT_CONTEXT_PATHS = ("tests",)


class AnalysisEngine:
    """Walks files, builds the project, runs every rule, filters pragmas.

    ``apply_pragmas=False`` disables ``# repro: ignore[...]`` suppression —
    the golden-pin test uses it so suppressed findings still count.
    ``context_paths=None`` auto-discovers :data:`DEFAULT_CONTEXT_PATHS`;
    pass an explicit (possibly empty) list to override.
    """

    def __init__(
        self,
        rules: Iterable[Rule] | None = None,
        apply_pragmas: bool = True,
        context_paths: Iterable[str | Path] | None = None,
    ):
        if rules is None:
            from repro.analysis.rules import default_rules

            rules = default_rules()
        self.rules: list[Rule] = list(rules)
        self.apply_pragmas = apply_pragmas
        self.context_paths = context_paths

    # ------------------------------------------------------------- file walk
    def collect_files(self, paths: Iterable[str | Path]) -> list[Path]:
        files: list[Path] = []
        for entry in paths:
            path = Path(entry)
            if path.is_dir():
                files.extend(
                    p
                    for p in sorted(path.rglob("*.py"))
                    if not any(part.startswith(".") for part in p.parts)
                )
            elif path.suffix == ".py":
                files.append(path)
        return files

    @staticmethod
    def _display(path: Path) -> str:
        try:
            return str(path.resolve().relative_to(Path.cwd()))
        except ValueError:
            return str(path)

    def _load_module(self, path: Path) -> "SourceModule | Finding":
        source = path.read_text(encoding="utf-8")
        return self._parse(source, self._display(path))

    @staticmethod
    def _parse(source: str, display_path: str) -> "SourceModule | Finding":
        lines = source.splitlines()
        try:
            tree = ast.parse(source, filename=display_path)
        except SyntaxError as exc:
            return Finding(
                path=display_path,
                line=exc.lineno or 1,
                col=(exc.offset or 0) + 1,
                rule="PARSE",
                severity=Severity.ERROR,
                message=f"file does not parse: {exc.msg}",
                text=lines[exc.lineno - 1].strip() if exc.lineno and exc.lineno <= len(lines) else "",
            )
        return SourceModule(
            display_path=display_path,
            source=source,
            lines=lines,
            tree=tree,
            zone=zone_for(display_path),
        )

    def _context_files(self, analyzed: set[Path]) -> list[Path]:
        roots = self.context_paths
        if roots is None:
            roots = [p for p in DEFAULT_CONTEXT_PATHS if Path(p).is_dir()]
        files = self.collect_files(roots)
        return [path for path in files if path.resolve() not in analyzed]

    # -------------------------------------------------------------- analysis
    def analyze_paths(self, paths: Iterable[str | Path]) -> list[Finding]:
        files = self.collect_files(paths)
        analyzed_resolved = {path.resolve() for path in files}
        modules: list[SourceModule] = []
        findings: list[Finding] = []
        for path in files:
            loaded = self._load_module(path)
            if isinstance(loaded, Finding):
                findings.append(loaded)
            else:
                modules.append(loaded)
        context: list[SourceModule] = []
        for path in self._context_files(analyzed_resolved):
            try:
                loaded = self._load_module(path)
            except OSError:
                continue
            if isinstance(loaded, SourceModule):
                context.append(loaded)
        findings.extend(self._run(modules, context))
        return sorted(findings)

    # ---------------------------------------------------------- single file
    def analyze_source(self, source: str, display_path: str) -> list[Finding]:
        """Analyze one source text (the unit-test entry point).

        The single module becomes a one-file project, so interprocedural
        rules see flows between functions defined in the same fixture.
        """
        loaded = self._parse(source, display_path)
        if isinstance(loaded, Finding):
            return [loaded]
        return self._run([loaded], [])

    # ------------------------------------------------------------- rule runs
    def build_project(self, paths: Iterable[str | Path]):
        """The whole-program :class:`~repro.analysis.callgraph.Project` the
        engine would analyze for ``paths`` — public entry for tests and
        tools that need the call graph itself (no rules are run)."""
        from repro.analysis.callgraph import Project

        files = self.collect_files(paths)
        analyzed_resolved = {path.resolve() for path in files}
        modules = [
            loaded
            for loaded in (self._load_module(path) for path in files)
            if isinstance(loaded, SourceModule)
        ]
        context = [
            loaded
            for loaded in (
                self._load_module(path)
                for path in self._context_files(analyzed_resolved)
            )
            if isinstance(loaded, SourceModule)
        ]
        return Project(modules, context=context)

    def _run(self, modules: list[SourceModule], context: list[SourceModule]) -> list[Finding]:
        from repro.analysis.callgraph import Project
        from repro.analysis.dataflow import compute_summaries

        project = Project(modules, context=context)
        project.summaries = compute_summaries(project)

        raw: list[Finding] = []
        for rule in self.rules:
            if isinstance(rule, ProjectRule):
                raw.extend(rule.check_project(project))
            else:
                for module in modules:
                    raw.extend(rule.check(module))

        if not self.apply_pragmas:
            return sorted(set(raw))
        pragmas_by_path = {
            module.display_path: pragma_lines(module.lines) for module in modules
        }
        return _unsuppressed(raw, pragmas_by_path)

    @staticmethod
    def filter_pragmas(findings: Iterable[Finding]) -> list[Finding]:
        """The findings of a pragma-on run, from those of a pragma-off run
        (``apply_pragmas=False``) over the same files, in the same working
        directory.

        Suppression is only a filter after the rules have run, so one raw
        scan serves both settings.  Each finding's file is read again for
        its pragmas.  A file that does not parse has only its ``PARSE``
        finding, which a pragma-on run never filters, so its pragmas are
        not read.
        """
        findings = list(findings)
        pragmas_by_path = {
            path: pragma_lines(Path(path).read_text(encoding="utf-8").splitlines())
            for path in {finding.path for finding in findings if finding.rule != "PARSE"}
        }
        return _unsuppressed(findings, pragmas_by_path)
