"""Parallel-worker purity lint (``python -m repro.analysis.purity``).

The PR-1 result cache replays experiment cells by config hash: a worker
function submitted to the :class:`~concurrent.futures.ProcessPoolExecutor`
must be a pure function of its payload, or cached Records silently diverge
from fresh runs.  This checker is the static counterpart of that contract:

========  =============================================================
RPR009    impurity in a process-pool worker or anything it transitively
          calls within ``repro``: mutation of module-level state
          (``global`` writes, stores through module-level objects,
          mutating method calls on shared objects), reseeding the
          process-global RNG (``random.seed`` / ``numpy.random.seed``),
          capturing a module-level mutable that a reachable function
          mutates, or reading an environment variable that is not part
          of the result-cache key.
========  =============================================================

Workers are discovered automatically: any function passed to ``.map()`` /
``.submit()`` on a ``ProcessPoolExecutor`` found in the checked tree, plus
anything named via ``--entry module.path:function``.  The walk follows
plain-function calls resolved through imports; method dispatch and class
instantiation are not traversed (the runtime's own state is per-cell by
construction).

One escape is deliberate: ``telemetry`` (``repro.obs.core``) may be
reset/enabled inside a worker (``run_batch(telemetry=True)`` toggles it) —
the telemetry flag is excluded from the cache key by design, so its
process-local state is not cache-semantic.  No environment variable may be
read; name one with ``--allow-env NAME`` if it cannot change a cached
Record, or suppress single findings with ``# repro: noqa[RPR009]``.
"""

from __future__ import annotations

import argparse
import ast
import sys
from collections import deque
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field
from pathlib import Path

from .common import (
    FORMATS,
    Finding,
    Rule,
    filter_findings,
    iter_py_files,
    render_findings,
)

__all__ = [
    "Finding",
    "Rule",
    "iter_rules",
    "check_source",
    "check_paths",
    "main",
]

_RULES: tuple[Rule, ...] = (
    Rule("RPR009", "process-pool worker mutates shared state / reads env"),
)


def iter_rules() -> tuple[Rule, ...]:
    """The purity rules, in code order."""
    return _RULES


#: Imported objects whose mutating methods are cache-key-neutral by design.
SANCTIONED_OBJECTS = frozenset({("repro.obs.core", "telemetry")})

#: Method names that mutate their receiver.
_MUTATOR_METHODS = frozenset(
    {
        "append", "extend", "insert", "remove", "discard", "pop", "popitem",
        "clear", "add", "update", "setdefault", "sort", "reverse",
        "reset", "enable", "disable", "seed", "configure", "set",
    }
)

#: Fully-dotted calls that reseed the process-global RNG.
_GLOBAL_RESEEDS = frozenset({"random.seed", "numpy.random.seed"})

_FuncDef = ast.FunctionDef | ast.AsyncFunctionDef
_Resolver = Callable[[str], "tuple[str, str] | None"]


@dataclass
class _Module:
    name: str
    path: str
    tree: ast.Module
    source_lines: list[str]
    functions: dict[str, _FuncDef] = field(default_factory=dict)
    imports: dict[str, tuple[str, str | None]] = field(default_factory=dict)
    module_names: set[str] = field(default_factory=set)
    mutable_globals: set[str] = field(default_factory=set)


def _module_name(path: Path) -> str:
    parts = list(path.with_suffix("").parts)
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    for anchor in ("repro",):
        if anchor in parts:
            parts = parts[parts.index(anchor):]
            break
    else:
        parts = parts[-1:]
    return ".".join(parts)


def _resolve_from(module: str, node: ast.ImportFrom) -> str:
    """Absolute module targeted by a (possibly relative) from-import."""
    if node.level == 0:
        return node.module or ""
    base = module.split(".")
    # Level 1 = current package; each extra level strips one more.
    strip = node.level
    if base:
        base = base[: max(len(base) - strip, 0)]
    if node.module:
        base.append(node.module)
    return ".".join(base)


def _collect_imports(
    module_name: str, nodes: Iterable[ast.stmt]
) -> dict[str, tuple[str, str | None]]:
    out: dict[str, tuple[str, str | None]] = {}
    for node in nodes:
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    out[alias.asname] = (alias.name, None)
                else:
                    root = alias.name.partition(".")[0]
                    out[root] = (root, None)
        elif isinstance(node, ast.ImportFrom):
            target = _resolve_from(module_name, node)
            for alias in node.names:
                bound = alias.asname or alias.name
                out[bound] = (target, alias.name)
    return out


def _is_mutable_literal(node: ast.expr) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp,
                         ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("list", "dict", "set", "bytearray", "defaultdict",
                                "deque", "Counter", "OrderedDict")
    return False


def _index_module(path: Path, source: str, tree: ast.Module) -> _Module:
    mod = _Module(
        name=_module_name(path),
        path=str(path),
        tree=tree,
        source_lines=source.splitlines(),
    )
    mod.imports = _collect_imports(
        mod.name, (n for n in ast.walk(tree) if isinstance(n, (ast.Import,
                                                               ast.ImportFrom)))
    )
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            mod.functions[stmt.name] = stmt
            mod.module_names.add(stmt.name)
        elif isinstance(stmt, ast.ClassDef):
            mod.module_names.add(stmt.name)
        elif isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    mod.module_names.add(target.id)
                    if _is_mutable_literal(stmt.value):
                        mod.mutable_globals.add(target.id)
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            mod.module_names.add(stmt.target.id)
            if stmt.value is not None and _is_mutable_literal(stmt.value):
                mod.mutable_globals.add(stmt.target.id)
        elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
            pass  # already in mod.imports; aliases are module names too
    mod.module_names.update(mod.imports)
    return mod


# ---------------------------------------------------------------------------
# Worker-entry discovery
# ---------------------------------------------------------------------------


def _attr_chain(node: ast.expr) -> tuple[str, ...] | None:
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        parts.reverse()
        return tuple(parts)
    return None


def _is_executor_ctor(mod: _Module, node: ast.expr) -> bool:
    if not isinstance(node, ast.Call):
        return False
    chain = _attr_chain(node.func)
    if chain is None:
        return False
    resolved = _resolve_prefix(mod, mod.imports, chain)
    return resolved in (
        "concurrent.futures.ProcessPoolExecutor",
        "concurrent.futures.process.ProcessPoolExecutor",
    )


def _discover_entries(mod: _Module) -> list[str]:
    """Names of functions this module submits to a ProcessPoolExecutor."""
    executor_names: set[str] = set()
    for node in ast.walk(mod.tree):
        if isinstance(node, ast.With):
            for item in node.items:
                if _is_executor_ctor(mod, item.context_expr) and isinstance(
                    item.optional_vars, ast.Name
                ):
                    executor_names.add(item.optional_vars.id)
        elif isinstance(node, ast.Assign):
            if _is_executor_ctor(mod, node.value):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        executor_names.add(target.id)
    entries: list[str] = []
    if not executor_names:
        return entries
    for node in ast.walk(mod.tree):
        if not isinstance(node, ast.Call):
            continue
        fn = node.func
        if (
            isinstance(fn, ast.Attribute)
            and fn.attr in ("map", "submit")
            and isinstance(fn.value, ast.Name)
            and fn.value.id in executor_names
            and node.args
            and isinstance(node.args[0], ast.Name)
        ):
            entries.append(node.args[0].id)
    return entries


# ---------------------------------------------------------------------------
# Reachable-function audit
# ---------------------------------------------------------------------------


def _resolve_prefix(
    mod: _Module, imports: dict[str, tuple[str, str | None]], chain: tuple[str, ...]
) -> str:
    """Dotted path of an attribute chain, with its root import resolved."""
    root = chain[0]
    if root in imports:
        target, attr = imports[root]
        prefix = target if attr is None else f"{target}.{attr}"
        return ".".join((prefix, *chain[1:]))
    return ".".join(chain)


def _local_bindings(fn: _FuncDef) -> tuple[set[str], set[str]]:
    """(local names, names declared ``global``) across the function body."""
    declared_global: set[str] = set()
    local: set[str] = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Global):
            declared_global.update(node.names)
    for node in ast.walk(fn):
        if isinstance(node, ast.arg):
            local.add(node.arg)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, (ast.Store, ast.Del)):
            local.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if node is not fn:
                local.add(node.name)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            local.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                local.add(alias.asname or alias.name.partition(".")[0])
    return local - declared_global, declared_global


class _Auditor:
    """Walks workers and their transitive repro-local callees."""

    def __init__(
        self,
        modules: dict[str, _Module],
        allow_env: frozenset[str],
        sanctioned: frozenset[tuple[str, str]],
    ) -> None:
        self.modules = modules
        self.allow_env = allow_env
        self.sanctioned = sanctioned
        self.findings: dict[tuple[str, int, int, str], Finding] = {}
        #: (module, name) -> mutable-global reads, pending the mutation check.
        self.reads: list[tuple[tuple[str, str], _Module, ast.AST, str]] = []
        #: (module, name) pairs some reachable function mutates.
        self.mutated: set[tuple[str, str]] = set()
        self.visited: set[tuple[str, str]] = set()
        self.queue: deque[tuple[_Module, _FuncDef, str]] = deque()

    # -- plumbing ---------------------------------------------------------

    def _add(self, mod: _Module, node: ast.AST, message: str, entry: str) -> None:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        key = (mod.path, line, col, message)
        if key not in self.findings:
            self.findings[key] = Finding(
                mod.path, line, col, "RPR009",
                f"{message} (reachable from worker '{entry}')",
                getattr(node, "end_lineno", None),
            )

    def enqueue(self, mod: _Module, name: str, entry: str) -> None:
        fn = mod.functions.get(name)
        if fn is None or (mod.name, name) in self.visited:
            return
        self.visited.add((mod.name, name))
        self.queue.append((mod, fn, entry))

    def run(self) -> list[Finding]:
        while self.queue:
            mod, fn, entry = self.queue.popleft()
            self._audit(mod, fn, entry)
        for key, mod, node, entry in self.reads:
            if key in self.mutated:
                self._add(
                    mod, node,
                    f"captures module-level mutable '{key[1]}' that a "
                    "reachable function mutates",
                    entry,
                )
        return sorted(
            self.findings.values(), key=lambda f: (f.path, f.line, f.col)
        )

    # -- one function -----------------------------------------------------

    def _audit(self, mod: _Module, fn: _FuncDef, entry: str) -> None:
        local, declared_global = _local_bindings(fn)
        imports = dict(mod.imports)
        imports.update(
            _collect_imports(
                mod.name,
                (n for n in ast.walk(fn)
                 if isinstance(n, (ast.Import, ast.ImportFrom))),
            )
        )

        def resolve_object(name: str) -> tuple[str, str] | None:
            """(defining module, name) for a non-local object, if known."""
            if name in local:
                return None
            if name in imports:
                target, attr = imports[name]
                if attr is None:
                    return None  # a module, not an object
                return (target, attr)
            if name in mod.module_names:
                return (mod.name, name)
            return None

        # Rule: `global x` + store.
        if declared_global:
            for node in ast.walk(fn):
                if (
                    isinstance(node, ast.Name)
                    and isinstance(node.ctx, (ast.Store, ast.Del))
                    and node.id in declared_global
                ):
                    self._add(
                        mod, node,
                        f"mutates module-level name '{node.id}' via `global`",
                        entry,
                    )
                    self.mutated.add((mod.name, node.id))

        for node in ast.walk(fn):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets: list[ast.expr]
                if isinstance(node, ast.Assign):
                    targets = list(node.targets)
                else:
                    targets = [node.target]
                for target in targets:
                    self._check_store(mod, target, resolve_object, entry)
            elif isinstance(node, ast.Call):
                self._check_call(mod, node, imports, local, resolve_object, entry)
            elif isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load):
                chain = _attr_chain(node.value)
                if chain is not None and chain[0] not in local:
                    dotted = _resolve_prefix(mod, imports, chain)
                    if dotted == "os.environ":
                        self._check_env_key(mod, node, node.slice, entry)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                if node.id not in local and node.id in mod.mutable_globals:
                    self.reads.append(((mod.name, node.id), mod, node, entry))

    def _check_store(
        self,
        mod: _Module,
        target: ast.expr,
        resolve_object: _Resolver,
        entry: str,
    ) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._check_store(mod, elt, resolve_object, entry)
            return
        if isinstance(target, ast.Starred):
            self._check_store(mod, target.value, resolve_object, entry)
            return
        if not isinstance(target, (ast.Subscript, ast.Attribute)):
            return
        chain = _attr_chain(
            target.value if isinstance(target, ast.Subscript) else target
        )
        if chain is None:
            return
        resolved = resolve_object(chain[0])
        if resolved is None or resolved in self.sanctioned:
            return
        self._add(
            mod, target,
            f"mutates module-level state '{chain[0]}' "
            f"(defined in {resolved[0]})",
            entry,
        )
        self.mutated.add(resolved)

    def _check_call(
        self,
        mod: _Module,
        node: ast.Call,
        imports: dict[str, tuple[str, str | None]],
        local: set[str],
        resolve_object: _Resolver,
        entry: str,
    ) -> None:
        chain = _attr_chain(node.func)
        if chain is None:
            return
        root = chain[0]

        # Transitive walk: plain calls resolved through imports.
        if root not in local:
            if len(chain) == 1:
                if root in mod.functions:
                    self.enqueue(mod, root, entry)
                elif root in imports:
                    target, attr = imports[root]
                    callee_mod = self.modules.get(target)
                    if callee_mod is not None and attr is not None:
                        self.enqueue(callee_mod, attr, entry)
            elif len(chain) == 2 and root in imports:
                target, attr = imports[root]
                if attr is None:  # module alias: mod_alias.func(...)
                    callee_mod = self.modules.get(target)
                    if callee_mod is not None:
                        self.enqueue(callee_mod, chain[1], entry)

        dotted = _resolve_prefix(mod, imports, chain) if root not in local else ""
        if dotted in _GLOBAL_RESEEDS:
            self._add(
                mod, node,
                f"`{dotted}` reseeds the process-global RNG inside a worker",
                entry,
            )
            return
        if dotted in ("os.getenv", "os.environ.get"):
            if node.args:
                self._check_env_key(mod, node, node.args[0], entry)
            return

        # Mutating method on a shared (module-level or imported) object.
        if len(chain) >= 2 and chain[-1] in _MUTATOR_METHODS and root not in local:
            resolved = resolve_object(root)
            if resolved is not None and resolved not in self.sanctioned:
                self._add(
                    mod, node,
                    f"calls mutating method '.{chain[-1]}()' on shared "
                    f"object '{root}' (defined in {resolved[0]})",
                    entry,
                )
                self.mutated.add(resolved)

    def _check_env_key(
        self, mod: _Module, node: ast.AST, key: ast.expr, entry: str
    ) -> None:
        if isinstance(key, ast.Constant) and isinstance(key.value, str):
            if key.value in self.allow_env:
                return
            self._add(
                mod, node,
                f"reads env var '{key.value}', which is not part of the "
                "result-cache key",
                entry,
            )
        else:
            self._add(
                mod, node,
                "reads an env var with a non-literal key inside a worker",
                entry,
            )


# ---------------------------------------------------------------------------
# Public API
# ---------------------------------------------------------------------------


def _load_modules(
    paths: Sequence[str | Path],
) -> tuple[dict[str, _Module], list[Finding]]:
    modules: dict[str, _Module] = {}
    findings: list[Finding] = []
    for file in iter_py_files(paths):
        text = file.read_text()
        try:
            tree = ast.parse(text, filename=str(file))
        except SyntaxError as exc:
            findings.append(
                Finding(
                    str(file), exc.lineno or 1, exc.offset or 0, "RPR000",
                    f"syntax error: {exc.msg}",
                )
            )
            continue
        mod = _index_module(file, text, tree)
        modules[mod.name] = mod
    return modules, findings


def _run_check(
    modules: dict[str, _Module],
    extra_findings: list[Finding],
    select: Sequence[str] | None,
    entries: Sequence[str] | None,
    allow_env: Iterable[str] | None,
) -> list[Finding]:
    auditor = _Auditor(modules, frozenset(allow_env or ()), SANCTIONED_OBJECTS)
    for mod in modules.values():
        for name in _discover_entries(mod):
            auditor.enqueue(mod, name, f"{mod.name}:{name}")
    for spec in entries or ():
        mod_name, _, fn_name = spec.partition(":")
        mod = modules.get(mod_name)
        if mod is not None and fn_name:
            auditor.enqueue(mod, fn_name, spec)
    raw = extra_findings + auditor.run()

    by_path: dict[str, list[Finding]] = {}
    for f in raw:
        by_path.setdefault(f.path, []).append(f)
    lines_by_path = {m.path: m.source_lines for m in modules.values()}
    out: list[Finding] = []
    for path in sorted(by_path):
        out.extend(
            filter_findings(by_path[path], lines_by_path.get(path, []), select)
        )
    return out


def check_paths(
    paths: Sequence[str | Path],
    select: Sequence[str] | None = None,
    entries: Sequence[str] | None = None,
    allow_env: Iterable[str] | None = None,
) -> list[Finding]:
    """Check every worker discovered under ``paths`` (plus ``entries``)."""
    modules, errors = _load_modules(paths)
    return _run_check(modules, errors, select, entries, allow_env)


def check_source(
    source: str,
    path: str | Path = "<string>",
    select: Sequence[str] | None = None,
    entries: Sequence[str] | None = None,
    allow_env: Iterable[str] | None = None,
) -> list[Finding]:
    """Check one module's source text in isolation."""
    p = Path(path)
    try:
        tree = ast.parse(source, filename=str(p))
    except SyntaxError as exc:
        return [
            Finding(
                str(p), exc.lineno or 1, exc.offset or 0, "RPR000",
                f"syntax error: {exc.msg}",
            )
        ]
    mod = _index_module(p, source, tree)
    return _run_check({mod.name: mod}, [], select, entries, allow_env)


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the exit status."""
    parser = argparse.ArgumentParser(
        prog="repro purity",
        description="process-pool worker purity lint (RPR009)",
    )
    parser.add_argument(
        "paths", nargs="*", default=["src/repro"],
        help="files or directories to check (default: src/repro)",
    )
    parser.add_argument(
        "--select", nargs="+", metavar="RPRnnn", default=None,
        help="only report the given rule codes",
    )
    parser.add_argument(
        "--entry", action="append", metavar="MODULE:FUNC", default=None,
        help="treat MODULE:FUNC as an additional worker entry point",
    )
    parser.add_argument(
        "--allow-env", action="append", metavar="NAME", default=None,
        help="env var a worker may read (one that cannot change a cached Record)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rules and exit"
    )
    parser.add_argument(
        "--format", choices=FORMATS, default="text",
        help="output format (github emits ::error workflow annotations)",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in iter_rules():
            print(f"{rule.code}  {rule.summary}")
        return 0

    findings = check_paths(
        args.paths, args.select, entries=args.entry, allow_env=args.allow_env
    )
    print(render_findings(findings, args.format))
    return 1 if findings else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
