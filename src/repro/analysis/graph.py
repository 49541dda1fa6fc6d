"""Whole-program symbol table and call graph (the v2 analyser core).

PR 4's rules see one file at a time; the concurrency rules (REP101+)
need to know *what calls what* across the project. This module builds
that view from the already-parsed :class:`FileContext` objects:

* a **symbol table** of module-qualified functions, methods and classes
  (``repro.serving.engine.ScoringEngine.score_rows``), including defs
  nested in functions (the HTTP handler class lives inside
  ``ScoringService._make_server``);
* **call edges** resolved alias-aware (``from x import f as g``),
  receiver-typed (``self.cache = LRUResultCache(...)`` makes
  ``self.cache.get(...)`` a method edge) and through ``self``/``cls``
  with project base classes;
* **bounded dynamic dispatch**: an attribute call whose receiver type
  is unknown binds to every project method of that name when there are
  at most :data:`DISPATCH_LIMIT` candidates; beyond that — or for
  computed callees — the call lands in an explicit **unresolved
  bucket** that ``repro-study lint --graph`` reports, never silently
  dropped.

The graph is deliberately conservative-but-honest: edges it cannot
justify are not invented, and calls it cannot classify are counted.
"""

from __future__ import annotations

import ast
import builtins
from dataclasses import dataclass, field
from pathlib import PurePosixPath
from typing import Iterator

from repro.analysis.rules import FileContext, _dotted, _walk_lexical

__all__ = [
    "CallSite",
    "ClassInfo",
    "FunctionInfo",
    "ProjectGraph",
    "build_graph",
    "module_name_for",
    "DISPATCH_LIMIT",
    "MODULE_NODE",
]

#: Maximum candidate set for a dynamic-dispatch attribute call; more
#: candidates than this means the edge is noise, so it goes to the
#: unresolved bucket instead.
DISPATCH_LIMIT = 8

#: Pseudo-function name for a module's top-level code.
MODULE_NODE = "<module>"

#: Attribute names so common on stdlib/numpy objects that binding them
#: to same-named project methods would drown the graph in false edges.
#: Receiver-typed resolution still sees through these; only the
#: last-resort dynamic fallback consults this set.
_COMMON_EXTERNAL_METHODS = frozenset({
    "accept", "acquire", "add", "all", "any", "append", "astype",
    "bind", "cancel", "clear", "close", "connect", "copy", "count",
    "cumsum", "decode", "dot", "encode", "endswith", "exists",
    "extend", "fileno", "fill", "findall", "flatten", "flush",
    "format", "get", "getheader", "getresponse", "group", "index",
    "insert", "is_dir", "is_file", "is_set", "items", "join", "keys",
    "listen", "lower", "lstrip", "match", "max", "mean", "min",
    "mkdir", "most_common", "move_to_end", "nonzero", "notify",
    "notify_all", "open", "partition", "pop", "popitem", "put",
    "read", "readline", "recv", "release", "remove", "replace",
    "reshape", "resolve", "reverse", "rglob", "round", "rsplit",
    "rstrip", "search", "send", "sendall", "set", "setdefault",
    "shutdown", "sort", "split", "start", "startswith", "std",
    "strip", "sub", "sum", "task_done", "tell", "title", "tobytes",
    "tolist", "update", "upper", "values", "wait", "wait_for",
    "write",
})


def module_name_for(path: str) -> str:
    """Dotted module name for a source path.

    Components up to and including the last ``src`` directory are
    stripped (``src/repro/serving/http.py`` → ``repro.serving.http``);
    paths without a ``src`` component use the file stem, which keeps
    single-file fixtures readable.
    """
    parts = PurePosixPath(path.replace("\\", "/")).parts
    names = [p[:-3] if p.endswith(".py") else p for p in parts]
    if "src" in parts[:-1]:
        idx = len(parts) - 1 - tuple(reversed(parts)).index("src")
        names = names[idx + 1:]
    else:
        names = names[-1:]
    if len(names) > 1 and names[-1] == "__init__":
        names = names[:-1]
    return ".".join(n for n in names if n) or MODULE_NODE


@dataclass
class FunctionInfo:
    """One def (or a module's top-level pseudo-function) in the project."""

    qualname: str
    name: str
    module: str
    path: str
    node: ast.AST
    #: Owning class qualname when this is a method, else None.
    owner: str | None = None


@dataclass
class ClassInfo:
    """One class definition with resolved bases and typed attributes."""

    qualname: str
    name: str
    module: str
    path: str
    node: ast.ClassDef
    bases: tuple[str, ...] = ()
    #: method name → function qualname (own methods only; bases via MRO).
    methods: dict[str, str] = field(default_factory=dict)
    #: ``self.X = ClassName(...)`` in any method → attr name → class qualname.
    attr_types: dict[str, str] = field(default_factory=dict)


@dataclass
class CallSite:
    """One call expression, classified."""

    caller: str
    path: str
    line: int
    name: str
    #: direct | method | dynamic | external | unresolved
    kind: str
    targets: tuple[str, ...] = ()
    reason: str = ""


class ProjectGraph:
    """Symbol table + call graph over a set of parsed files."""

    def __init__(self) -> None:
        self.files: dict[str, FileContext] = {}
        self.modules: dict[str, str] = {}
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        self.calls: dict[str, list[CallSite]] = {}
        self.unresolved: list[CallSite] = []
        self.n_external_calls = 0
        #: def/module AST node → its FunctionInfo (identity keyed).
        self.function_by_node: dict[ast.AST, FunctionInfo] = {}
        #: function qualname → local variable name → class qualname.
        self.local_types: dict[str, dict[str, str]] = {}
        self._methods_by_name: dict[str, list[str]] = {}

    # -- symbol collection ---------------------------------------------------

    def _register_module(self, path: str) -> str:
        module = module_name_for(path)
        if module in self.modules and self.modules[module] != path:
            suffix = 2
            while f"{module}~{suffix}" in self.modules:
                suffix += 1
            module = f"{module}~{suffix}"
        self.modules[module] = path
        return module

    def _add_function(self, info: FunctionInfo) -> None:
        self.functions[info.qualname] = info
        self.function_by_node[info.node] = info
        if info.owner is not None:
            self._methods_by_name.setdefault(info.name, []).append(
                info.qualname
            )

    @staticmethod
    def _child_statement_groups(stmt: ast.stmt) -> Iterator[list[ast.stmt]]:
        """Statement lists nested in a compound statement (if/try/with/...)."""
        for name in ("body", "orelse", "finalbody"):
            block = getattr(stmt, name, None)
            if isinstance(block, list) and block and isinstance(
                block[0], ast.stmt
            ):
                yield block
        for handler in getattr(stmt, "handlers", []) or []:
            yield handler.body

    def _collect_symbols(self, path: str, ctx: FileContext) -> None:
        module = self._register_module(path)
        self._add_function(
            FunctionInfo(
                qualname=f"{module}.{MODULE_NODE}",
                name=MODULE_NODE,
                module=module,
                path=path,
                node=ctx.tree,
            )
        )

        def walk(
            stmts: list[ast.stmt],
            scope: tuple[str, ...],
            owner: ClassInfo | None,
        ) -> None:
            for stmt in stmts:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qual = ".".join((module, *scope, stmt.name))
                    info = FunctionInfo(
                        qualname=qual,
                        name=stmt.name,
                        module=module,
                        path=path,
                        node=stmt,
                        owner=owner.qualname if owner else None,
                    )
                    self._add_function(info)
                    if owner is not None:
                        owner.methods.setdefault(stmt.name, qual)
                    walk(stmt.body, (*scope, stmt.name), None)
                elif isinstance(stmt, ast.ClassDef):
                    qual = ".".join((module, *scope, stmt.name))
                    cls = ClassInfo(
                        qualname=qual,
                        name=stmt.name,
                        module=module,
                        path=path,
                        node=stmt,
                        bases=tuple(
                            base
                            for base in (
                                ctx.resolve(b) for b in stmt.bases
                            )
                            if base is not None
                        ),
                    )
                    self.classes[qual] = cls
                    walk(stmt.body, (*scope, stmt.name), cls)
                else:
                    for block in self._child_statement_groups(stmt):
                        walk(block, scope, owner)

        walk(ctx.tree.body, (), None)

    # -- type and method lookup ----------------------------------------------

    def class_for_dotted(self, dotted: str, module: str) -> ClassInfo | None:
        """Resolve an alias-normalised dotted name to a project class."""
        found = self.classes.get(dotted)
        if found is not None:
            return found
        return self.classes.get(f"{module}.{dotted}")

    def lookup_method(
        self, cls: ClassInfo, name: str, _depth: int = 0
    ) -> str | None:
        """Method qualname on ``cls`` or its project bases (MRO-ish)."""
        if name in cls.methods:
            return cls.methods[name]
        if _depth > 8:
            return None
        for base in cls.bases:
            base_cls = self.class_for_dotted(base, cls.module)
            if base_cls is not None and base_cls is not cls:
                found = self.lookup_method(base_cls, name, _depth + 1)
                if found is not None:
                    return found
        return None

    def _collect_attr_types(self) -> None:
        """``self.X = ClassName(...)`` anywhere in a method types attr X."""
        for info in self.functions.values():
            if info.owner is None or isinstance(info.node, ast.Module):
                continue
            cls = self.classes.get(info.owner)
            if cls is None:
                continue
            ctx = self.files[info.path]
            for stmt in _walk_lexical(info.node.body):
                if not isinstance(stmt, ast.Assign):
                    continue
                if not isinstance(stmt.value, ast.Call):
                    continue
                dotted = ctx.resolve(stmt.value.func)
                if dotted is None:
                    continue
                target_cls = self.class_for_dotted(dotted, info.module)
                if target_cls is None:
                    continue
                for target in stmt.targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        cls.attr_types.setdefault(
                            target.attr, target_cls.qualname
                        )

    def _collect_local_types(self, info: FunctionInfo) -> dict[str, str]:
        """``x = ClassName(...)`` / ``x = self`` local type facts."""
        if isinstance(info.node, ast.Module):
            body = info.node.body
        else:
            body = info.node.body
        ctx = self.files[info.path]
        local: dict[str, str] = {}
        for stmt in _walk_lexical(body):
            if not isinstance(stmt, ast.Assign) or len(stmt.targets) != 1:
                continue
            target = stmt.targets[0]
            if not isinstance(target, ast.Name):
                continue
            value = stmt.value
            if (
                isinstance(value, ast.Name)
                and value.id == "self"
                and info.owner is not None
            ):
                local.setdefault(target.id, info.owner)
            elif isinstance(value, ast.Call):
                dotted = ctx.resolve(value.func)
                if dotted is None:
                    continue
                target_cls = self.class_for_dotted(dotted, info.module)
                if target_cls is not None:
                    local.setdefault(target.id, target_cls.qualname)
        return local

    # -- call resolution -----------------------------------------------------

    def _scope_prefixes(self, info: FunctionInfo) -> Iterator[str]:
        parts = info.qualname.split(".")
        module_depth = len(info.module.split("."))
        for cut in range(len(parts) - 1, module_depth - 1, -1):
            yield ".".join(parts[:cut])

    def _instantiation_target(self, cls: ClassInfo) -> tuple[str, ...]:
        init = self.lookup_method(cls, "__init__")
        return (init,) if init is not None else ()

    def _resolve_call(
        self,
        info: FunctionInfo,
        call: ast.Call,
        ctx: FileContext,
        local_types: dict[str, str],
    ) -> CallSite:
        func = call.func
        line = getattr(call, "lineno", 0)

        def site(kind: str, name: str, targets=(), reason: str = "") -> CallSite:
            return CallSite(
                caller=info.qualname,
                path=info.path,
                line=line,
                name=name,
                kind=kind,
                targets=tuple(targets),
                reason=reason,
            )

        if isinstance(func, ast.Name):
            raw = func.id
            for prefix in self._scope_prefixes(info):
                qual = f"{prefix}.{raw}"
                if qual in self.functions:
                    return site("direct", raw, (qual,))
                if qual in self.classes:
                    return site(
                        "direct",
                        raw,
                        self._instantiation_target(self.classes[qual]),
                    )
            dotted = ctx.resolve(func)
            if dotted is not None and dotted != raw:
                if dotted in self.functions:
                    return site("direct", dotted, (dotted,))
                cls = self.classes.get(dotted)
                if cls is not None:
                    return site(
                        "direct", dotted, self._instantiation_target(cls)
                    )
                return site("external", dotted)
            if hasattr(builtins, raw) or raw in ctx.aliases:
                return site("external", raw)
            return site(
                "unresolved",
                raw,
                reason="call through a local variable or closure",
            )

        if isinstance(func, ast.Attribute):
            attr = func.attr
            dotted = ctx.resolve(func)
            if dotted is not None:
                if dotted in self.functions:
                    return site("direct", dotted, (dotted,))
                cls = self.class_for_dotted(dotted, info.module)
                if cls is not None:
                    return site(
                        "direct", dotted, self._instantiation_target(cls)
                    )

            receiver_cls: ClassInfo | None = None
            base = func.value
            if isinstance(base, ast.Name):
                if base.id in ("self", "cls") and info.owner is not None:
                    receiver_cls = self.classes.get(info.owner)
                elif base.id in local_types:
                    receiver_cls = self.classes.get(local_types[base.id])
            elif (
                isinstance(base, ast.Attribute)
                and isinstance(base.value, ast.Name)
                and base.value.id == "self"
                and info.owner is not None
            ):
                owner_cls = self.classes.get(info.owner)
                if owner_cls is not None:
                    typed = self._attr_type(owner_cls, base.attr)
                    if typed is not None:
                        receiver_cls = self.classes.get(typed)

            if receiver_cls is not None:
                target = self.lookup_method(receiver_cls, attr)
                if target is not None:
                    return site("method", f"{receiver_cls.name}.{attr}", (target,))
                # Known project class without that method: inherited
                # from an external base (e.g. socketserver.ThreadingTCPServer).
                return site("external", dotted or f".{attr}")

            # A dotted callee rooted at an imported name that matched
            # no project symbol is an external library call
            # (subprocess.run, np.asarray) — it must not fall through
            # to dynamic dispatch against same-named project methods.
            raw = _dotted(func)
            if raw is not None:
                head = raw.split(".", 1)[0]
                if head != "self" and head in ctx.aliases:
                    return site("external", dotted or raw)

            if attr in _COMMON_EXTERNAL_METHODS:
                return site("external", dotted or f".{attr}")
            candidates = self._methods_by_name.get(attr, [])
            if not candidates:
                return site("external", dotted or f".{attr}")
            if len(candidates) <= DISPATCH_LIMIT:
                return site("dynamic", f".{attr}", tuple(sorted(candidates)))
            return site(
                "unresolved",
                f".{attr}",
                reason=(
                    f"dynamic dispatch: {len(candidates)} project methods "
                    f"named {attr!r} (limit {DISPATCH_LIMIT})"
                ),
            )

        return site("unresolved", "<computed>", reason="computed callee")

    def _attr_type(self, cls: ClassInfo, attr: str, _depth: int = 0) -> str | None:
        if attr in cls.attr_types:
            return cls.attr_types[attr]
        if _depth > 8:
            return None
        for base in cls.bases:
            base_cls = self.class_for_dotted(base, cls.module)
            if base_cls is not None and base_cls is not cls:
                typed = self._attr_type(base_cls, attr, _depth + 1)
                if typed is not None:
                    return typed
        return None

    def _resolve_calls(self) -> None:
        for qual, info in self.functions.items():
            ctx = self.files[info.path]
            local_types = self._collect_local_types(info)
            self.local_types[qual] = local_types
            body = (
                info.node.body
                if isinstance(info.node, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef))
                else []
            )
            sites: list[CallSite] = []
            for node in _walk_lexical(body):
                if isinstance(node, ast.Call):
                    resolved = self._resolve_call(info, node, ctx, local_types)
                    sites.append(resolved)
                    if resolved.kind == "unresolved":
                        self.unresolved.append(resolved)
                    elif resolved.kind == "external":
                        self.n_external_calls += 1
            self.calls[qual] = sites

    # -- queries -------------------------------------------------------------

    def callees(self, qualname: str) -> Iterator[str]:
        for call in self.calls.get(qualname, []):
            yield from call.targets

    def to_dict(self) -> dict:
        """JSON-ready dump for ``repro-study lint --graph``."""
        edges = [
            [call.caller, target, call.kind]
            for calls in self.calls.values()
            for call in calls
            for target in call.targets
        ]
        return {
            "modules": dict(sorted(self.modules.items())),
            "functions": len(self.functions),
            "classes": len(self.classes),
            "call_edges": sorted(edges),
            "external_calls": self.n_external_calls,
            "unresolved_calls": [
                {
                    "caller": c.caller,
                    "name": c.name,
                    "path": c.path,
                    "line": c.line,
                    "reason": c.reason,
                }
                for c in sorted(
                    self.unresolved, key=lambda c: (c.path, c.line)
                )
            ],
        }


def build_graph(files: dict[str, FileContext]) -> ProjectGraph:
    """Build the project graph over parsed files (path → context)."""
    graph = ProjectGraph()
    graph.files = dict(files)
    for path in sorted(files):
        graph._collect_symbols(path, files[path])
    graph._collect_attr_types()
    graph._resolve_calls()
    return graph
