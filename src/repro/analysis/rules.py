"""The project-specific rule set (REP001–REP005).

Every rule here guards an invariant some other part of the repo *tests
dynamically* but nothing previously enforced statically:

* **REP001 determinism** — the sweep engine's bit-identical parity for
  any ``n_jobs`` (PR 1) holds only because every random draw flows
  from an explicitly seeded ``np.random.Generator``.  Unseeded
  ``default_rng()`` or module-level ``np.random.*`` / stdlib
  ``random.*`` calls would silently break it.
* **REP002 lock hygiene** — the serving layer synchronises its shared
  state with locks (engine result cache, HTTP engines map, metrics,
  kernel build).  Locks must be held via ``with`` (exception-safe
  release), and bodies that hold a lock must not block on I/O, sleeps
  or subprocesses.
* **REP003 numeric safety** — MCPV/Kappa/R² code compares *stored*
  values against exactly-representable integral sentinels (``0.0``,
  ``1.0``), which is allowed; ``==`` / ``!=`` against computed floats
  (means, stds, divisions, non-integral literals) is not.
* **REP004 exception hygiene** — no bare/silently-swallowing broad
  excepts; deliberate raises use the :mod:`repro.exceptions`
  hierarchy, never raw ``ValueError`` / ``RuntimeError`` and friends
  (``TypeError`` / ``NotImplementedError`` stay builtin: they mark
  caller programming errors, which the hierarchy's docstring
  explicitly lets propagate).
* **REP005 resource hygiene** — ``open()`` / sockets / ``ctypes.CDLL``
  handles are bound in ``with`` blocks; anything held longer (the
  kernel's process-lifetime ``.so`` cache) must argue its case in a
  pragma.
"""

from __future__ import annotations

import ast
from typing import Callable, Iterable, Iterator

from repro.analysis.findings import Finding

__all__ = [
    "Rule",
    "ProjectRule",
    "FileContext",
    "RULES",
    "PROJECT_RULES",
    "ENGINE_RULE_ID",
    "rule_catalog",
    "blocking_call_name",
]

#: Rule id used for engine-level findings (parse errors, bad pragmas).
ENGINE_RULE_ID = "REP000"


class FileContext:
    """Everything a rule needs about one source file."""

    def __init__(self, path: str, source: str, tree: ast.Module):
        self.path = path
        self.source = source
        self.lines = source.splitlines()
        self.tree = tree
        self.aliases = _import_aliases(tree)
        self._parents: dict[ast.AST, ast.AST] | None = None

    def snippet(self, node: ast.AST) -> str:
        return self.snippet_line(getattr(node, "lineno", 0))

    def snippet_line(self, line: int) -> str:
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1]
        return ""

    def finding(self, node: ast.AST, rule_id: str, message: str) -> Finding:
        return Finding(
            path=self.path,
            line=getattr(node, "lineno", 0),
            col=getattr(node, "col_offset", 0) + 1,
            rule_id=rule_id,
            message=message,
            snippet=self.snippet(node),
        )

    def resolve(self, node: ast.AST) -> str | None:
        """Dotted name of ``node`` with import aliases normalised.

        ``np.random.default_rng`` resolves to
        ``numpy.random.default_rng`` under ``import numpy as np``;
        names that do not start from an imported module resolve to
        their literal dotted form (or ``None`` for non-name bases).
        """
        dotted = _dotted(node)
        if dotted is None:
            return None
        head, _, rest = dotted.partition(".")
        target = self.aliases.get(head)
        if target is not None:
            return f"{target}.{rest}" if rest else target
        return dotted

    def parent(self, node: ast.AST) -> ast.AST | None:
        if self._parents is None:
            self._parents = {
                child: parent
                for parent in ast.walk(self.tree)
                for child in ast.iter_child_nodes(parent)
            }
        return self._parents.get(node)


class Rule:
    """A registered rule: id, description, and a check callable."""

    def __init__(
        self,
        rule_id: str,
        name: str,
        description: str,
        check: Callable[[FileContext], Iterator[Finding]],
    ):
        self.rule_id = rule_id
        self.name = name
        self.description = description
        self._check = check

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        return self._check(ctx)


class ProjectRule:
    """A whole-program rule: checked once against the project graph.

    ``check`` receives a :class:`~repro.analysis.concurrency.ProjectContext`
    (call graph + lock model + reference roots) rather than one file.
    """

    def __init__(self, rule_id: str, name: str, description: str, check):
        self.rule_id = rule_id
        self.name = name
        self.description = description
        self._check = check

    def check(self, project) -> Iterator[Finding]:
        return self._check(project)


RULES: dict[str, Rule] = {}

#: Whole-program rules (REP101+); populated by repro.analysis.concurrency.
PROJECT_RULES: dict[str, ProjectRule] = {}


def _register(rule_id: str, name: str, description: str):
    def wrap(fn: Callable[[FileContext], Iterator[Finding]]):
        RULES[rule_id] = Rule(rule_id, name, description, fn)
        return fn

    return wrap


def rule_catalog() -> dict[str, str]:
    """rule id → one-line description (for ``--json`` output and docs)."""
    # Importing here (not at module top) avoids a cycle: concurrency
    # needs FileContext from this module, while this catalog must list
    # the project rules concurrency registers.
    from repro.analysis import concurrency  # noqa: F401

    catalog = {rule_id: RULES[rule_id].name for rule_id in sorted(RULES)}
    for rule_id in sorted(PROJECT_RULES):
        catalog[rule_id] = PROJECT_RULES[rule_id].name
    return catalog


# -- shared AST helpers ------------------------------------------------------

def _dotted(node: ast.AST) -> str | None:
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _import_aliases(tree: ast.Module) -> dict[str, str]:
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                aliases[alias.asname or alias.name.split(".")[0]] = (
                    alias.name if alias.asname else alias.name.split(".")[0]
                )
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for alias in node.names:
                if alias.name == "*":
                    continue
                aliases[alias.asname or alias.name] = (
                    f"{node.module}.{alias.name}"
                )
    return aliases


def _walk_lexical(body: Iterable[ast.AST]) -> Iterator[ast.AST]:
    """Walk statements without descending into nested def/class scopes."""
    stack = list(body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)
        ):
            continue
        stack.extend(ast.iter_child_nodes(node))


# -- REP001: determinism -----------------------------------------------------

#: Seedable/structural attributes of ``numpy.random`` that do not touch
#: the legacy global state.
_NP_RANDOM_OK = {
    "default_rng",
    "Generator",
    "SeedSequence",
    "BitGenerator",
    "PCG64",
    "PCG64DXSM",
    "Philox",
    "MT19937",
    "SFC64",
}


@_register(
    "REP001",
    "determinism: RNG must be an explicitly seeded Generator",
    "No unseeded np.random.default_rng(), no module-level np.random.* "
    "or stdlib random.* calls — randomness must thread through a seeded "
    "np.random.Generator, the invariant the n_jobs parity tests rely on.",
)
def _check_determinism(ctx: FileContext) -> Iterator[Finding]:
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        name = ctx.resolve(node.func)
        if name is None:
            continue
        if name == "numpy.random.default_rng":
            if not node.args and not node.keywords:
                yield ctx.finding(
                    node,
                    "REP001",
                    "unseeded np.random.default_rng() draws entropy from "
                    "the OS; pass an explicit seed (or accept a Generator "
                    "parameter) so runs are reproducible",
                )
        elif name.startswith("numpy.random."):
            attr = name.split(".", 2)[2]
            if attr not in _NP_RANDOM_OK:
                yield ctx.finding(
                    node,
                    "REP001",
                    f"np.random.{attr}() uses numpy's hidden global RNG "
                    "state; use a seeded np.random.Generator instead",
                )
        elif name.startswith("random.") and ctx.aliases.get("random") == "random":
            yield ctx.finding(
                node,
                "REP001",
                f"stdlib {name}() uses process-global RNG state; use a "
                "seeded np.random.Generator instead",
            )


# -- REP002: lock hygiene ----------------------------------------------------

_LOCK_FACTORIES = {
    "threading.Lock",
    "threading.RLock",
    "threading.Condition",
    "threading.Semaphore",
    "threading.BoundedSemaphore",
}

_LOCKISH_NAMES = {"lock", "rlock", "mutex", "cond", "condition"}
_LOCKISH_SUFFIXES = ("_lock", "_rlock", "_mutex", "_cond", "_condition")

_BLOCKING_CALLS = {
    "time.sleep",
    "open",
    "socket.socket",
    "socket.create_connection",
    "urllib.request.urlopen",
}

_BLOCKING_PREFIXES = ("subprocess.", "requests.", "shutil.")

_BLOCKING_METHODS = {"recv", "recv_into", "sendall", "accept", "connect"}


def _lock_names(ctx: FileContext) -> set[str]:
    names = set()
    for node in ast.walk(ctx.tree):
        if not isinstance(node, (ast.Assign, ast.AnnAssign)):
            continue
        value = node.value
        if not isinstance(value, ast.Call):
            continue
        if ctx.resolve(value.func) in _LOCK_FACTORIES:
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                dotted = _dotted(target)
                if dotted is not None:
                    names.add(dotted)
    return names


def _looks_like_lock(dotted: str | None, known: set[str]) -> bool:
    if dotted is None:
        return False
    if dotted in known:
        return True
    tail = dotted.rsplit(".", 1)[-1].lower()
    return tail in _LOCKISH_NAMES or tail.endswith(_LOCKISH_SUFFIXES)


def blocking_call_name(ctx: FileContext, call: ast.Call) -> str | None:
    """Display name of ``call`` when it blocks (sleep/I/O/subprocess), else None.

    Shared by REP002 (lexical: blocking directly inside a ``with lock:``
    body) and REP102 (interprocedural: blocking *reached* from one).
    """
    name = ctx.resolve(call.func)
    if name in _BLOCKING_CALLS:
        return name
    if name is not None and name.startswith(_BLOCKING_PREFIXES):
        return name
    if isinstance(call.func, ast.Attribute) and call.func.attr in _BLOCKING_METHODS:
        return name or f".{call.func.attr}"
    return None


@_register(
    "REP002",
    "lock hygiene: with-only locks, no blocking calls while held",
    "threading locks are acquired only via 'with' (exception-safe "
    "release), and lock-holding bodies never block on I/O, sleeps or "
    "subprocesses — guards the serving engine's five locks.",
)
def _check_lock_hygiene(ctx: FileContext) -> Iterator[Finding]:
    known = _lock_names(ctx)
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in ("acquire", "release") and _looks_like_lock(
                _dotted(node.func.value), known
            ):
                yield ctx.finding(
                    node,
                    "REP002",
                    f"bare .{node.func.attr}() on a lock; hold locks with "
                    "'with <lock>:' so errors cannot leak a held lock",
                )
        if isinstance(node, ast.With):
            held = [
                _dotted(item.context_expr)
                for item in node.items
                if _looks_like_lock(_dotted(item.context_expr), known)
            ]
            if not held:
                continue
            for inner in _walk_lexical(node.body):
                if not isinstance(inner, ast.Call):
                    continue
                label = blocking_call_name(ctx, inner)
                if label is not None:
                    yield ctx.finding(
                        inner,
                        "REP002",
                        f"blocking call {label.lstrip('.')}() inside "
                        f"'with {held[0]}:' body; move the slow work "
                        "outside the lock",
                    )


# -- REP003: numeric safety --------------------------------------------------

_FLOAT_PRODUCERS = {
    "mean",
    "std",
    "var",
    "average",
    "median",
    "percentile",
    "quantile",
    "norm",
    "dot",
    "prod",
    "sum",
}

_MATH_FLOAT = {
    "sqrt", "log", "log2", "log10", "log1p", "exp", "expm1", "sin",
    "cos", "tan", "atan2", "hypot", "pow", "fsum", "dist",
}


def _is_nan_literal(node: ast.AST, ctx: FileContext) -> bool:
    return (
        isinstance(node, ast.Call)
        and ctx.resolve(node.func) == "float"
        and len(node.args) == 1
        and isinstance(node.args[0], ast.Constant)
        and isinstance(node.args[0].value, str)
        and node.args[0].value.strip().lower() in ("nan", "-nan")
    )


def _is_computed_float(node: ast.AST, ctx: FileContext) -> bool:
    if isinstance(node, ast.Constant):
        value = node.value
        return isinstance(value, float) and not value.is_integer()
    if isinstance(node, ast.UnaryOp):
        return _is_computed_float(node.operand, ctx)
    if isinstance(node, ast.Call):
        if isinstance(node.func, ast.Attribute) and (
            node.func.attr in _FLOAT_PRODUCERS
        ):
            return True
        name = ctx.resolve(node.func)
        return name is not None and (
            name.startswith("math.") and name.split(".")[1] in _MATH_FLOAT
        )
    if isinstance(node, ast.BinOp):
        if any(
            isinstance(op_node, ast.BinOp)
            and isinstance(op_node.op, (ast.Div, ast.Pow))
            for op_node in ast.walk(node)
        ):
            return True
        return any(
            _is_computed_float(part, ctx)
            for part in (node.left, node.right)
        )
    return False


@_register(
    "REP003",
    "numeric safety: no equality on computed floats",
    "== / != against computed floats (means, stds, divisions, "
    "non-integral literals) is flagged; comparing stored values to "
    "exactly-representable integral sentinels (0.0, 1.0) is the "
    "allowlisted pattern — protects the MCPV/Kappa/R² code.",
)
def _check_numeric_safety(ctx: FileContext) -> Iterator[Finding]:
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Compare):
            continue
        if not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
            continue
        operands = [node.left, *node.comparators]
        if any(_is_nan_literal(o, ctx) for o in operands):
            yield ctx.finding(
                node,
                "REP003",
                "comparison with float('nan') is always False; use "
                "math.isnan()/np.isnan()",
            )
            continue
        if any(_is_computed_float(o, ctx) for o in operands):
            yield ctx.finding(
                node,
                "REP003",
                "float equality on a computed value; use "
                "math.isclose()/np.isclose(), or bind the value and "
                "compare against an exact integral sentinel",
            )


# -- REP004: exception hygiene -----------------------------------------------

_BROAD_EXCEPTS = {"Exception", "BaseException"}

#: Builtins whose deliberate raising should go through repro.exceptions.
#: TypeError / NotImplementedError / AssertionError stay builtin: they
#: mark caller programming errors, which the hierarchy lets propagate.
_DISALLOWED_RAISES = {
    "Exception",
    "BaseException",
    "ValueError",
    "RuntimeError",
    "KeyError",
    "IndexError",
    "LookupError",
    "ArithmeticError",
    "ZeroDivisionError",
    "OSError",
    "IOError",
    "AttributeError",
    "NameError",
    "StopIteration",
}


def _handler_is_silent(handler: ast.ExceptHandler) -> bool:
    """True when the body neither re-raises nor touches the exception."""
    for node in _walk_lexical(handler.body):
        if isinstance(node, ast.Raise):
            return False
        if (
            handler.name is not None
            and isinstance(node, ast.Name)
            and node.id == handler.name
        ):
            return False
    return True


@_register(
    "REP004",
    "exception hygiene: no silent broad excepts, raise repro types",
    "Bare excepts are forbidden; except Exception must re-raise or use "
    "the caught exception; deliberate raises use the repro.exceptions "
    "hierarchy rather than raw builtins.",
)
def _check_exception_hygiene(ctx: FileContext) -> Iterator[Finding]:
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.ExceptHandler):
            if node.type is None:
                yield ctx.finding(
                    node,
                    "REP004",
                    "bare 'except:' catches SystemExit/KeyboardInterrupt; "
                    "name the exception type",
                )
                continue
            caught = node.type
            types = (
                caught.elts if isinstance(caught, ast.Tuple) else [caught]
            )
            broad = any(
                isinstance(t, ast.Name) and t.id in _BROAD_EXCEPTS
                for t in types
            )
            if broad and _handler_is_silent(node):
                yield ctx.finding(
                    node,
                    "REP004",
                    "broad 'except Exception' swallows the failure "
                    "silently; narrow the type, re-raise, or surface/log "
                    "the caught exception",
                )
        elif isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc
            name_node = exc.func if isinstance(exc, ast.Call) else exc
            if (
                isinstance(name_node, ast.Name)
                and name_node.id in _DISALLOWED_RAISES
                and name_node.id not in ctx.aliases
            ):
                yield ctx.finding(
                    node,
                    "REP004",
                    f"raise {name_node.id} bypasses the repro.exceptions "
                    "hierarchy; raise a ReproError subclass (multiply "
                    "inheriting the builtin if callers catch it)",
                )


# -- REP005: resource hygiene ------------------------------------------------

_TRACKED_RESOURCES = {
    "open": "file handle",
    "socket.socket": "socket",
    "socket.create_connection": "socket",
    "ctypes.CDLL": "shared-object handle",
    "tempfile.NamedTemporaryFile": "temporary file",
    "tempfile.TemporaryFile": "temporary file",
    "tempfile.TemporaryDirectory": "temporary directory",
}

_WRAPPERS = {"contextlib.closing", "closing"}


def _is_with_context(ctx: FileContext, node: ast.Call) -> bool:
    parent = ctx.parent(node)
    if isinstance(parent, ast.Call):
        wrapper = ctx.resolve(parent.func)
        if wrapper in _WRAPPERS:
            parent = ctx.parent(parent)
    return isinstance(parent, ast.withitem)


@_register(
    "REP005",
    "resource hygiene: handles bound in 'with' blocks",
    "open()/socket/ctypes.CDLL acquisitions must be 'with' context "
    "expressions (directly or via contextlib.closing); anything held "
    "longer needs a justified pragma — guards the kernel's .so cache.",
)
def _check_resource_hygiene(ctx: FileContext) -> Iterator[Finding]:
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        name = ctx.resolve(node.func)
        kind = _TRACKED_RESOURCES.get(name or "")
        if kind is None:
            continue
        if not _is_with_context(ctx, node):
            yield ctx.finding(
                node,
                "REP005",
                f"{name}() acquires a {kind} outside a 'with' block; "
                "bind it in 'with' or pair it with an explicit "
                "close/finalizer and a justified pragma",
            )
