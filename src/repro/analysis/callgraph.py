"""Project-wide symbol table and call graph for interprocedural analysis.

PR-1's rules were single-function pattern matchers, so any violation
laundered through a helper was invisible.  This module gives every rule the
whole-program view those flows require:

* a **symbol table** over all analyzed modules: module-level functions,
  classes with their base-class chains, and each class's methods (including
  whether a method is an ``@ecall`` entry point);
* light **attribute-type inference**: ``self.miglib = MigrationLibrary(...)``
  in ``__init__`` records ``miglib -> MigrationLibrary`` so a later
  ``self.miglib.migration_start(...)`` resolves to the library's method;
* the **call graph**, including the string-dispatch edge
  ``Enclave.ecall("name", ...) -> @ecall def name`` that is the only way
  untrusted code legally enters an enclave.

Resolution is deliberately name-based and conservative: ``self.method``
resolves through the class's project-local MRO, plain names through the
defining module then its explicit imports then a project-unique fallback,
and ``obj.method`` through inferred attribute types then a project-unique
method name.  An unresolvable call simply has no edge — rules must treat
missing edges as "unknown", never as "safe".

**Context modules** (``tests/`` by default) are parsed into the project so
their dispatch sites and call edges count for reachability, but no findings
are ever reported in them.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator

from repro.analysis.engine import SourceModule, terminal_name

#: Decorator names that mark a trusted method as an ECALL entry point.
_ECALL_DECORATORS = frozenset({"ecall"})

#: Call names that construct a fresh object whose lifecycle starts over
#: (used by the lifecycle rule to reset its abstract state).
CONSTRUCTOR_HINTS = frozenset({"launch_enclave"})

#: Method names owned by builtin types; a project class defining one of
#: these must not capture every `obj.<name>()` call in the tree.
_BUILTIN_METHODS = frozenset(
    {
        "join", "split", "strip", "encode", "decode", "format", "replace",
        "startswith", "endswith", "upper", "lower", "hex", "get", "items",
        "keys", "values", "update", "pop", "append", "extend", "insert",
        "remove", "sort", "index", "count", "add", "discard", "clear",
        "copy", "read", "write", "close", "open", "send", "to_bytes",
        "from_bytes",
    }
)


def _decorator_names(node: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    return {terminal_name(d) for d in node.decorator_list}


@dataclass
class FunctionInfo:
    """One function or method definition in the project."""

    fid: str  # "display_path::Class.name" or "display_path::name"
    name: str
    module: SourceModule
    node: ast.FunctionDef | ast.AsyncFunctionDef
    class_name: str | None = None
    is_ecall: bool = False
    is_context: bool = False  # defined in a context module (tests/...)

    @property
    def params(self) -> list[str]:
        args = self.node.args
        names = [a.arg for a in args.posonlyargs] + [a.arg for a in args.args]
        return names

    @property
    def qualname(self) -> str:
        return f"{self.class_name}.{self.name}" if self.class_name else self.name


@dataclass
class ClassInfo:
    """One class definition: methods, bases (by simple name), attr types."""

    name: str
    module: SourceModule
    node: ast.ClassDef
    bases: list[str] = field(default_factory=list)
    methods: dict[str, str] = field(default_factory=dict)  # name -> fid
    attr_types: dict[str, str] = field(default_factory=dict)  # self.X -> Class


@dataclass
class CallSite:
    """One call expression with its resolved callee set."""

    caller: str  # fid of the enclosing function ("" at module level)
    module: SourceModule
    node: ast.Call
    callees: tuple[str, ...]  # resolved fids (may be empty)
    kind: str  # "direct" | "method" | "dispatch" | "constructor"
    dispatch_name: str | None = None  # for kind == "dispatch"


class Project:
    """All parsed modules plus the symbol table and call graph over them."""

    def __init__(self, modules: list[SourceModule], context: list[SourceModule] | None = None):
        self.modules: dict[str, SourceModule] = {m.display_path: m for m in modules}
        self.context_paths: set[str] = set()
        for mod in context or []:
            if mod.display_path not in self.modules:
                self.modules[mod.display_path] = mod
                self.context_paths.add(mod.display_path)
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        self.module_functions: dict[str, dict[str, str]] = {}  # path -> name -> fid
        self.imports: dict[str, dict[str, str]] = {}  # path -> local name -> source name
        self.methods_by_name: dict[str, list[str]] = {}  # method name -> [fid]
        self.ecall_methods: dict[str, list[str]] = {}  # ecall name -> [fid]
        self.call_sites: list[CallSite] = []
        self.calls_by_caller: dict[str, list[CallSite]] = {}
        self.calls_by_callee: dict[str, list[CallSite]] = {}
        self.dispatch_sites: dict[str, list[CallSite]] = {}  # ecall name -> sites
        self._index()
        self._infer_attr_types()
        self._build_call_graph()

    # ------------------------------------------------------------- indexing
    def _index(self) -> None:
        for path, mod in self.modules.items():
            is_context = path in self.context_paths
            self.module_functions[path] = {}
            self.imports[path] = {}
            for node in mod.tree.body:
                self._index_top_level(mod, node, is_context)
            for node in ast.walk(mod.tree):
                if isinstance(node, ast.ImportFrom):
                    for alias in node.names:
                        self.imports[path][alias.asname or alias.name] = alias.name

    def _index_top_level(self, mod: SourceModule, node: ast.AST, is_context: bool) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fid = f"{mod.display_path}::{node.name}"
            self.functions[fid] = FunctionInfo(
                fid=fid, name=node.name, module=mod, node=node, is_context=is_context
            )
            self.module_functions[mod.display_path][node.name] = fid
        elif isinstance(node, ast.ClassDef):
            info = ClassInfo(
                name=node.name,
                module=mod,
                node=node,
                bases=[terminal_name(base) for base in node.bases],
            )
            # Last definition of a class name wins project-wide; test doubles
            # shadowing a real class are rare and context classes never
            # overwrite analyzed ones.
            if node.name not in self.classes or not is_context:
                self.classes[node.name] = info
            for item in node.body:
                if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                fid = f"{mod.display_path}::{node.name}.{item.name}"
                is_ecall = bool(_ECALL_DECORATORS & _decorator_names(item))
                self.functions[fid] = FunctionInfo(
                    fid=fid,
                    name=item.name,
                    module=mod,
                    node=item,
                    class_name=node.name,
                    is_ecall=is_ecall,
                    is_context=is_context,
                )
                info.methods[item.name] = fid
                self.methods_by_name.setdefault(item.name, []).append(fid)
                if is_ecall:
                    self.ecall_methods.setdefault(item.name, []).append(fid)

    def _infer_attr_types(self) -> None:
        """Record ``self.X = ClassName(...)`` assignments as attr types."""
        for info in self.classes.values():
            for node in ast.walk(info.node):
                if not isinstance(node, ast.Assign):
                    continue
                value = node.value
                if not (isinstance(value, ast.Call) and isinstance(value.func, (ast.Name, ast.Attribute))):
                    continue
                cls_name = terminal_name(value.func)
                if cls_name not in self.classes:
                    continue
                for target in node.targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        info.attr_types[target.attr] = cls_name

    # ----------------------------------------------------------- resolution
    def mro(self, class_name: str) -> Iterator[ClassInfo]:
        """The project-local base chain of a class, depth-first."""
        seen: set[str] = set()
        stack = [class_name]
        while stack:
            name = stack.pop(0)
            if name in seen:
                continue
            seen.add(name)
            info = self.classes.get(name)
            if info is None:
                continue
            yield info
            stack.extend(info.bases)

    def resolve_method(self, class_name: str, method: str) -> str | None:
        for info in self.mro(class_name):
            fid = info.methods.get(method)
            if fid is not None:
                return fid
        return None

    def attr_type(self, class_name: str, attr: str) -> str | None:
        for info in self.mro(class_name):
            hit = info.attr_types.get(attr)
            if hit is not None:
                return hit
        return None

    def _resolve_name(self, mod_path: str, name: str) -> tuple[str, ...]:
        """A plain ``name(...)`` call: local def, explicit import, class
        constructor, then project-unique fallback."""
        local = self.module_functions.get(mod_path, {}).get(name)
        if local is not None:
            return (local,)
        imported = self.imports.get(mod_path, {}).get(name)
        if imported is not None and imported != name:
            name = imported
        if name in self.classes:
            init = self.resolve_method(name, "__init__")
            return (init,) if init else ()
        candidates = [
            fid
            for path, table in self.module_functions.items()
            if (fid := table.get(name)) is not None
        ]
        if len(candidates) == 1:
            return (candidates[0],)
        return ()

    def _resolve_call(self, caller: FunctionInfo | None, mod: SourceModule, call: ast.Call) -> CallSite:
        func = call.func
        caller_fid = caller.fid if caller else ""
        # --- Enclave.ecall("name", ...) string dispatch
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "ecall"
            and call.args
            and isinstance(call.args[0], ast.Constant)
            and isinstance(call.args[0].value, str)
        ):
            name = call.args[0].value
            callees = tuple(self.ecall_methods.get(name, ()))
            return CallSite(
                caller=caller_fid, module=mod, node=call, callees=callees,
                kind="dispatch", dispatch_name=name,
            )
        if isinstance(func, ast.Name):
            if func.id in self.classes:
                init = self.resolve_method(func.id, "__init__")
                return CallSite(
                    caller=caller_fid, module=mod, node=call,
                    callees=(init,) if init else (), kind="constructor",
                )
            return CallSite(
                caller=caller_fid, module=mod, node=call,
                callees=self._resolve_name(mod.display_path, func.id), kind="direct",
            )
        if isinstance(func, ast.Attribute):
            method = func.attr
            receiver = func.value
            # self.method() -> own class MRO
            if (
                isinstance(receiver, ast.Name)
                and receiver.id == "self"
                and caller is not None
                and caller.class_name is not None
            ):
                fid = self.resolve_method(caller.class_name, method)
                if fid is not None:
                    return CallSite(
                        caller=caller_fid, module=mod, node=call,
                        callees=(fid,), kind="method",
                    )
            # self.attr.method() -> inferred attribute type
            if (
                isinstance(receiver, ast.Attribute)
                and isinstance(receiver.value, ast.Name)
                and receiver.value.id == "self"
                and caller is not None
                and caller.class_name is not None
            ):
                cls = self.attr_type(caller.class_name, receiver.attr)
                if cls is not None:
                    fid = self.resolve_method(cls, method)
                    if fid is not None:
                        return CallSite(
                            caller=caller_fid, module=mod, node=call,
                            callees=(fid,), kind="method",
                        )
            # module alias: `import repro.x as m; m.f()` or `wire.encode(...)`
            if isinstance(receiver, ast.Name):
                for path, table in self.module_functions.items():
                    if path.endswith(f"/{receiver.id}.py") and method in table:
                        return CallSite(
                            caller=caller_fid, module=mod, node=call,
                            callees=(table[method],), kind="direct",
                        )
            # obj.method() -> unique method name project-wide.  Never for
            # builtin str/bytes/dict/list method names or literal receivers:
            # `"".join(...)` must not resolve to a project `join()` (the EPID
            # group-join protocol happens to define one).
            candidates = self.methods_by_name.get(method, [])
            if isinstance(receiver, ast.Constant) or method in _BUILTIN_METHODS:
                candidates = []
            if len(candidates) == 1:
                return CallSite(
                    caller=caller_fid, module=mod, node=call,
                    callees=(candidates[0],), kind="method",
                )
            return CallSite(
                caller=caller_fid, module=mod, node=call, callees=(), kind="method",
            )
        return CallSite(caller=caller_fid, module=mod, node=call, callees=(), kind="direct")

    # ----------------------------------------------------------- call graph
    def _build_call_graph(self) -> None:
        for fid, info in self.functions.items():
            for node in ast.walk(info.node):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node is not info.node:
                    continue  # nested defs get their own pass if indexed
                if isinstance(node, ast.Call):
                    self._add_site(self._resolve_call(info, info.module, node))
        # Module-level calls (outside any def) still create dispatch edges.
        for path, mod in self.modules.items():
            in_function = {
                id(n)
                for f in self.functions.values()
                if f.module is mod
                for n in ast.walk(f.node)
            }
            for node in ast.walk(mod.tree):
                if isinstance(node, ast.Call) and id(node) not in in_function:
                    self._add_site(self._resolve_call(None, mod, node))

    def _add_site(self, site: CallSite) -> None:
        self.call_sites.append(site)
        self.calls_by_caller.setdefault(site.caller, []).append(site)
        for callee in site.callees:
            self.calls_by_callee.setdefault(callee, []).append(site)
        if site.kind == "dispatch" and site.dispatch_name:
            self.dispatch_sites.setdefault(site.dispatch_name, []).append(site)

    # ---------------------------------------------------------- convenience
    def function_at(self, fid: str) -> FunctionInfo | None:
        return self.functions.get(fid)

    def analyzed_modules(self) -> Iterator[SourceModule]:
        """Modules findings may be reported in (context excluded)."""
        for path, mod in self.modules.items():
            if path not in self.context_paths:
                yield mod

    def enclave_classes(self) -> Iterator[ClassInfo]:
        """Classes that expose at least one ``@ecall`` entry point."""
        for info in self.classes.values():
            if info.module.display_path in self.context_paths:
                continue
            if any(
                self.functions[fid].is_ecall
                for fid in info.methods.values()
                if fid in self.functions
            ):
                yield info

    def reachable_from(self, entries: set[str]) -> set[str]:
        """Transitive closure over call-graph edges from ``entries``."""
        seen = set(entries)
        frontier = list(entries)
        while frontier:
            fid = frontier.pop()
            for site in self.calls_by_caller.get(fid, ()):
                for callee in site.callees:
                    if callee not in seen:
                        seen.add(callee)
                        frontier.append(callee)
        return seen
