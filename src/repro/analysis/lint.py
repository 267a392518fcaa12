"""The AST lint rules (RPR001-RPR005), run by ``repro lint``.

The reproduction's correctness rests on properties no general-purpose linter
checks: every simulation must be bit-for-bit deterministic (the PR-1 result
cache replays cells by config hash, so hidden randomness or wall-clock reads
silently poison it), and simulated times are floats compared against the
Gantt charts' ``_EPS`` tolerance, never with ``==``.  These rules encode
those contracts:

========  =============================================================
RPR001    unseeded randomness: ``random.Random()`` / ``default_rng()``
          without a seed, or any call through a process-global RNG
          (``random.random``, ``numpy.random.rand``, ...).
RPR002    ``==`` / ``!=`` on simulated-time floats (``start``, ``ect``,
          ``makespan``, ...) where an ``_EPS`` tolerance is required.
RPR003    wall-clock nondeterminism (``time.time``, ``datetime.now``)
          inside scheduler/simulator modules (``core``/``cluster``;
          ``perf_counter`` stays legal — it measures scheduling
          overhead, which the paper reports separately from simulated
          makespan).
RPR004    mutable default arguments.
RPR005    bare ``except:``.
========  =============================================================

Suppress a finding with a trailing ``# repro: noqa[RPR001]`` comment
(several codes comma-separated; ``# repro: noqa`` alone silences the line).
"""

from __future__ import annotations

import ast
from collections.abc import Sequence
from pathlib import Path

from .common import Finding, Rule, Source

__all__ = ["check", "iter_rules"]

_RULES: tuple[Rule, ...] = (
    Rule("RPR001", "unseeded or process-global random number generation"),
    Rule("RPR002", "== / != on simulated-time floats (use an _EPS tolerance)"),
    Rule("RPR003", "wall-clock read inside a scheduler/simulator module"),
    Rule("RPR004", "mutable default argument"),
    Rule("RPR005", "bare except clause"),
)


def iter_rules() -> tuple[Rule, ...]:
    """All lint rules, in code order."""
    return _RULES


# ``random`` module functions that route through the hidden global RNG.
_GLOBAL_RNG_FUNCS = frozenset(
    {
        "random", "randint", "randrange", "getrandbits", "randbytes",
        "choice", "choices", "shuffle", "sample", "uniform", "triangular",
        "betavariate", "expovariate", "gammavariate", "gauss",
        "lognormvariate", "normalvariate", "vonmisesvariate",
        "paretovariate", "weibullvariate", "binomialvariate",
    }
)

# Legacy ``numpy.random`` module-level functions (global RandomState).
_NUMPY_GLOBAL_FUNCS = frozenset(
    {
        "rand", "randn", "randint", "random", "random_sample", "ranf",
        "sample", "choice", "shuffle", "permutation", "uniform", "normal",
        "standard_normal", "beta", "binomial", "poisson", "exponential",
        "gamma", "geometric", "laplace", "lognormal", "pareto", "weibull",
    }
)

# Identifiers that denote simulated-time quantities in this codebase; a
# direct equality on any of them is almost certainly a float-tolerance bug.
_TIME_NAMES = frozenset(
    {
        "start", "end", "ect", "tct", "clock", "makespan", "exec_start",
        "completion", "transfers_done", "start_time", "horizon", "ready",
        "finish_time", "avail_time", "arrival_time",
    }
)
_TIME_SUFFIXES = ("_ect", "_tct", "_makespan", "_deadline")

_WALLCLOCK_TIME_FUNCS = frozenset({"time", "time_ns"})
_WALLCLOCK_DT_METHODS = frozenset({"now", "utcnow", "today"})

# Modules the wall-clock rule (RPR003) applies to: anything under the
# scheduler (``core``) or simulator (``cluster``) packages.
_SIM_PACKAGE_DIRS = ("core", "cluster")


class _Imports:
    """Names bound to the modules/classes the rules care about."""

    def __init__(self) -> None:
        self.random_mod: set[str] = set()  # import random [as r]
        self.numpy_mod: set[str] = set()  # import numpy [as np]
        self.numpy_random_mod: set[str] = set()  # from numpy import random
        self.time_mod: set[str] = set()  # import time [as t]
        self.datetime_mod: set[str] = set()  # import datetime [as dt]
        self.datetime_cls: set[str] = set()  # from datetime import datetime
        self.random_cls: set[str] = set()  # from random import Random
        self.numpy_rng_ctor: set[str] = set()  # from numpy.random import default_rng


class _Visitor(ast.NodeVisitor):
    def __init__(self, path: str, in_sim_module: bool) -> None:
        self.path = path
        self.in_sim_module = in_sim_module
        self.imports = _Imports()
        self.findings: list[Finding] = []

    # -- helpers ---------------------------------------------------------------
    def _add(self, node: ast.AST, code: str, message: str) -> None:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        end_line = getattr(node, "end_lineno", None)
        self.findings.append(Finding(self.path, line, col, code, message, end_line))

    # -- imports ---------------------------------------------------------------
    def visit_Import(self, node: ast.Import) -> None:
        imp = self.imports
        for alias in node.names:
            bound = alias.asname or alias.name.partition(".")[0]
            if alias.name == "random":
                imp.random_mod.add(bound)
            elif alias.name == "numpy":
                imp.numpy_mod.add(bound)
            elif alias.name == "numpy.random":
                # ``import numpy.random`` binds ``numpy`` (or the alias).
                if alias.asname:
                    imp.numpy_random_mod.add(alias.asname)
                else:
                    imp.numpy_mod.add(bound)
            elif alias.name == "time":
                imp.time_mod.add(bound)
            elif alias.name == "datetime":
                imp.datetime_mod.add(bound)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        imp = self.imports
        for alias in node.names:
            bound = alias.asname or alias.name
            if node.module == "random":
                if alias.name == "Random":
                    imp.random_cls.add(bound)
                elif alias.name in _GLOBAL_RNG_FUNCS or alias.name == "seed":
                    self._add(
                        node,
                        "RPR001",
                        f"`from random import {alias.name}` binds the "
                        "process-global RNG; use a seeded random.Random "
                        "instance instead",
                    )
            elif node.module == "numpy" and alias.name == "random":
                imp.numpy_random_mod.add(bound)
            elif node.module == "numpy.random":
                if alias.name in ("default_rng", "RandomState"):
                    imp.numpy_rng_ctor.add(bound)
                elif alias.name in _NUMPY_GLOBAL_FUNCS or alias.name == "seed":
                    self._add(
                        node,
                        "RPR001",
                        f"`from numpy.random import {alias.name}` binds the "
                        "legacy global RandomState; use a seeded Generator "
                        "instead",
                    )
            elif node.module == "datetime" and alias.name in ("datetime", "date"):
                imp.datetime_cls.add(bound)
            elif node.module == "time" and alias.name in _WALLCLOCK_TIME_FUNCS:
                if self.in_sim_module:
                    self._add(
                        node,
                        "RPR003",
                        f"`from time import {alias.name}` in a simulator "
                        "module; simulated time must come from the Gantt "
                        "clock, not the wall clock",
                    )
        self.generic_visit(node)

    # -- RPR001 / RPR003: calls -----------------------------------------------
    def _attr_root(self, node: ast.expr) -> tuple[str, ...] | None:
        """``a.b.c`` -> ("a", "b", "c"); None for non-name chains."""
        parts: list[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name):
            parts.append(node.id)
            parts.reverse()
            return tuple(parts)
        return None

    def visit_Call(self, node: ast.Call) -> None:
        chain = self._attr_root(node.func)
        if chain is not None:
            self._check_random_call(node, chain)
            if self.in_sim_module:
                self._check_wallclock_call(node, chain)
        self.generic_visit(node)

    def _check_random_call(self, node: ast.Call, chain: tuple[str, ...]) -> None:
        imp = self.imports
        seeded = bool(node.args or node.keywords)
        # random.<fn>(...) through the stdlib module.
        if len(chain) == 2 and chain[0] in imp.random_mod:
            fn = chain[1]
            if fn == "Random" and not seeded:
                self._add(node, "RPR001", "random.Random() created without a seed")
            elif fn == "SystemRandom":
                self._add(node, "RPR001", "random.SystemRandom is never reproducible")
            elif fn == "seed" and not seeded:
                self._add(node, "RPR001", "random.seed() called without a seed value")
            elif fn in _GLOBAL_RNG_FUNCS:
                self._add(
                    node,
                    "RPR001",
                    f"random.{fn}() uses the process-global RNG; draw from a "
                    "seeded random.Random / numpy Generator instead",
                )
            return
        # Random() imported directly from the random module.
        if len(chain) == 1 and chain[0] in imp.random_cls and not seeded:
            self._add(node, "RPR001", f"{chain[0]}() created without a seed")
            return
        # default_rng / RandomState imported straight from numpy.random.
        if len(chain) == 1 and chain[0] in imp.numpy_rng_ctor and not seeded:
            self._add(node, "RPR001", f"{chain[0]}() created without a seed")
            return
        # numpy.random.<fn>(...) — either via the numpy module or an alias
        # of the numpy.random submodule.
        fn = ""
        if (
            len(chain) == 3
            and chain[0] in imp.numpy_mod
            and chain[1] == "random"
        ):
            fn = chain[2]
        elif len(chain) == 2 and chain[0] in imp.numpy_random_mod:
            fn = chain[1]
        if not fn:
            return
        if fn in ("default_rng", "RandomState") and not seeded:
            self._add(node, "RPR001", f"numpy.random.{fn}() created without a seed")
        elif fn == "seed" and not seeded:
            self._add(node, "RPR001", "numpy.random.seed() called without a seed value")
        elif fn in _NUMPY_GLOBAL_FUNCS:
            self._add(
                node,
                "RPR001",
                f"numpy.random.{fn}() uses the legacy global RandomState; "
                "use a seeded numpy.random.Generator instead",
            )

    def _check_wallclock_call(self, node: ast.Call, chain: tuple[str, ...]) -> None:
        imp = self.imports
        if (
            len(chain) == 2
            and chain[0] in imp.time_mod
            and chain[1] in _WALLCLOCK_TIME_FUNCS
        ):
            self._add(
                node,
                "RPR003",
                f"time.{chain[1]}() read inside a simulator module; simulated "
                "time must come from the Gantt clock",
            )
            return
        if (
            len(chain) == 2
            and chain[0] in imp.datetime_cls
            and chain[1] in _WALLCLOCK_DT_METHODS
        ) or (
            len(chain) == 3
            and chain[0] in imp.datetime_mod
            and chain[1] in ("datetime", "date")
            and chain[2] in _WALLCLOCK_DT_METHODS
        ):
            self._add(
                node,
                "RPR003",
                f"datetime .{chain[-1]}() read inside a simulator module "
                "breaks run-to-run determinism",
            )

    # -- RPR002: float-time equality -------------------------------------------
    def _terminal_name(self, node: ast.expr) -> str | None:
        if isinstance(node, ast.Attribute):
            return node.attr
        if isinstance(node, ast.Name):
            return node.id
        return None

    def _is_time_expr(self, node: ast.expr) -> bool:
        name = self._terminal_name(node)
        if name is None:
            return False
        return name in _TIME_NAMES or name.endswith(_TIME_SUFFIXES)

    def _exempt_operand(self, node: ast.expr) -> bool:
        """Operands that make an equality non-float (None / str / bool)."""
        return isinstance(node, ast.Constant) and (
            node.value is None or isinstance(node.value, (str, bool))
        )

    def visit_Compare(self, node: ast.Compare) -> None:
        operands = [node.left, *node.comparators]
        for op, lhs, rhs in zip(node.ops, operands, operands[1:], strict=False):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            if self._exempt_operand(lhs) or self._exempt_operand(rhs):
                continue
            hit = next((x for x in (lhs, rhs) if self._is_time_expr(x)), None)
            if hit is not None:
                sym = "==" if isinstance(op, ast.Eq) else "!="
                self._add(
                    node,
                    "RPR002",
                    f"direct {sym} on simulated-time value "
                    f"{self._terminal_name(hit)!r}; compare with an _EPS "
                    "tolerance (see repro.cluster.gantt)",
                )
        self.generic_visit(node)

    # -- RPR004: mutable defaults ----------------------------------------------
    def _check_defaults(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef | ast.Lambda
    ) -> None:
        defaults = [*node.args.defaults, *node.args.kw_defaults]
        for default in defaults:
            if default is None:
                continue
            mutable = isinstance(default, (ast.List, ast.Dict, ast.Set))
            if (
                isinstance(default, ast.Call)
                and isinstance(default.func, ast.Name)
                and default.func.id in ("list", "dict", "set", "bytearray")
            ):
                mutable = True
            if mutable:
                self._add(
                    default,
                    "RPR004",
                    "mutable default argument is shared across calls; "
                    "default to None and create it in the body",
                )

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_defaults(node)
        self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_defaults(node)
        self.generic_visit(node)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._check_defaults(node)
        self.generic_visit(node)

    # -- RPR005: bare except -----------------------------------------------------
    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            self._add(
                node,
                "RPR005",
                "bare `except:` swallows SystemExit/KeyboardInterrupt; "
                "catch a specific exception",
            )
        self.generic_visit(node)


def _is_sim_module(path: Path) -> bool:
    return any(part in _SIM_PACKAGE_DIRS for part in path.parts[:-1])


def check(sources: Sequence[Source]) -> list[Finding]:
    """Raw RPR001-RPR005 findings over parsed modules (noqa not applied)."""
    findings: list[Finding] = []
    for src in sources:
        visitor = _Visitor(src.path, _is_sim_module(Path(src.path)))
        visitor.visit(src.tree)
        findings.extend(visitor.findings)
    return findings
