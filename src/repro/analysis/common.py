"""The one pipeline of the repro static checks, and what they share.

``repro lint`` runs every rule through :func:`lint_paths`:

1. each file is parsed once; a file that is not UTF-8 or does not parse
   gives one ``RPR000`` finding, whatever ``select`` names, and is checked
   no further;
2. the parsed modules go unchanged to the three rule sets: the AST rules
   (:mod:`repro.analysis.lint`, RPR001-RPR005), the dimensional-analysis
   checker (:mod:`repro.analysis.units`, RPR006-RPR008) with its
   cross-file harvest, and the worker-purity walk
   (:mod:`repro.analysis.purity`, RPR009);
3. ``# repro: noqa[RPRnnn]`` and ``select`` are applied once per file, and
   the findings are sorted by (path, line, col, code).

Every rule set produces :class:`Finding` objects that render through the
same three output formats (``text``, ``json``, ``github``).
"""

from __future__ import annotations

import ast
import json
import re
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from pathlib import Path

__all__ = [
    "FORMATS",
    "Finding",
    "Rule",
    "Source",
    "filter_findings",
    "iter_rules",
    "lint_paths",
    "lint_source",
    "noqa_codes",
    "render_findings",
]

FORMATS = ("text", "json", "github")


@dataclass(frozen=True)
class Rule:
    """One lint rule: its code and a one-line description."""

    code: str
    summary: str


@dataclass(frozen=True)
class Finding:
    """One finding, pointing at ``path:line:col``.

    ``end_line`` is the last source line of the offending node (when known):
    a ``# repro: noqa`` on either the first or the last line suppresses the
    finding, so multi-line expressions can carry the escape on their
    continuation line.
    """

    path: str
    line: int
    col: int
    code: str
    message: str
    end_line: int | None = None

    def __str__(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"


@dataclass(frozen=True)
class Source:
    """One parsed file, as every rule set receives it."""

    path: str
    lines: list[str]
    tree: ast.Module


_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa(?:\[(?P<codes>[A-Z0-9,\s]+)\])?", re.IGNORECASE
)


def noqa_codes(source_line: str) -> frozenset[str] | None:
    """Codes suppressed on this line (empty set = all), or ``None``."""
    m = _NOQA_RE.search(source_line)
    if m is None:
        return None
    codes = m.group("codes")
    if codes is None:
        return frozenset()
    return frozenset(c.strip().upper() for c in codes.split(",") if c.strip())


def _suppressed_on(line_text: str, code: str) -> bool:
    suppressed = noqa_codes(line_text)
    return suppressed is not None and (not suppressed or code in suppressed)


def filter_findings(
    findings: Iterable[Finding],
    source_lines: Sequence[str],
    select: Sequence[str] | None = None,
) -> list[Finding]:
    """Sort findings, apply ``--select``, and drop ``noqa``-suppressed ones."""
    wanted = frozenset(select) if select else None
    out: list[Finding] = []
    for f in sorted(findings, key=lambda f: (f.line, f.col, f.code)):
        if wanted is not None and f.code not in wanted:
            continue
        lines_to_check = {f.line}
        if f.end_line is not None:
            lines_to_check.add(f.end_line)
        hit = False
        for ln in lines_to_check:
            text = source_lines[ln - 1] if 0 < ln <= len(source_lines) else ""
            if _suppressed_on(text, f.code):
                hit = True
                break
        if not hit:
            out.append(f)
    return out


def iter_rules() -> tuple[Rule, ...]:
    """Every rule of the three rule sets, in code order."""
    from . import lint, purity, units

    return (*lint.iter_rules(), *units.iter_rules(), *purity.iter_rules())


def _iter_py_files(paths: Sequence[str | Path]) -> Iterator[Path]:
    """Every ``.py`` file under ``paths`` (files or directories), sorted."""
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            yield from sorted(p.rglob("*.py"))
        else:
            yield p


def _lint(
    files: Iterable[tuple[str, str | bytes]],
    select: Sequence[str] | None,
    entries: Sequence[str] | None,
    allow_env: Iterable[str] | None,
) -> list[Finding]:
    """The pipeline over ``(path, source)`` pairs; see the module docstring."""
    # Imported here, not at the top: the rule sets import this module, and
    # ``import repro`` must not load them.
    from . import lint, purity, units

    unparsed: list[Finding] = []
    sources: list[Source] = []
    for path, source in files:
        if isinstance(source, bytes):
            try:
                text = source.decode()
            except UnicodeDecodeError as exc:
                unparsed.append(
                    Finding(
                        path, source.count(b"\n", 0, exc.start) + 1, 0,
                        "RPR000", f"not UTF-8: {exc.reason} at byte {exc.start}",
                    )
                )
                continue
        else:
            text = source
        try:
            tree = ast.parse(text, filename=path)
        except SyntaxError as exc:
            unparsed.append(
                Finding(
                    path, exc.lineno or 1, exc.offset or 0, "RPR000",
                    f"syntax error: {exc.msg}",
                )
            )
            continue
        sources.append(Source(path, text.splitlines(), tree))

    by_path: dict[str, list[Finding]] = {}
    for f in (
        *lint.check(sources),
        *units.check(sources),
        *purity.check(sources, entries, allow_env),
    ):
        by_path.setdefault(f.path, []).append(f)
    lines = {s.path: s.lines for s in sources}
    kept = [
        f
        for path, found in by_path.items()
        for f in filter_findings(found, lines[path], select)
    ]
    return sorted(
        [*unparsed, *kept], key=lambda f: (f.path, f.line, f.col, f.code)
    )


def lint_paths(
    paths: Sequence[str | Path],
    select: Sequence[str] | None = None,
    entries: Sequence[str] | None = None,
    allow_env: Iterable[str] | None = None,
) -> list[Finding]:
    """Check every ``.py`` file under ``paths`` (files or directories).

    ``entries`` names extra process-pool workers (``module:function``) for
    the purity walk; ``allow_env`` names environment variables a worker may
    read. A path that does not exist raises :class:`FileNotFoundError`
    before any file is checked.
    """
    for raw in paths:
        if not Path(raw).exists():
            raise FileNotFoundError(f"no such file or directory: {raw}")
    # A file named twice, or under two of the paths, is still read once.
    unique = dict.fromkeys(_iter_py_files(paths))
    files = ((str(f), f.read_bytes()) for f in unique)
    return _lint(files, select, entries, allow_env)


def lint_source(
    source: str,
    path: str | Path = "<string>",
    select: Sequence[str] | None = None,
    entries: Sequence[str] | None = None,
    allow_env: Iterable[str] | None = None,
) -> list[Finding]:
    """Check one module's source text, as if it were the only file."""
    return _lint([(str(Path(path)), source)], select, entries, allow_env)


def render_findings(findings: Sequence[Finding], fmt: str = "text") -> str:
    """Render findings in one of :data:`FORMATS`.

    ``github`` emits ``::error`` workflow commands so findings annotate the
    offending lines inline on pull requests; ``json`` emits a list of
    finding dicts for tooling.
    """
    n = len(findings)
    if fmt == "json":
        return json.dumps(
            [
                {
                    "path": f.path,
                    "line": f.line,
                    "col": f.col,
                    "end_line": f.end_line,
                    "code": f.code,
                    "message": f.message,
                }
                for f in findings
            ],
            indent=2,
        )
    lines: list[str] = []
    if fmt == "github":
        for f in findings:
            # Workflow-command syntax: properties before ::, free text after.
            msg = f.message.replace("%", "%25").replace("\n", "%0A")
            lines.append(
                f"::error file={f.path},line={f.line},col={f.col + 1},"
                f"title={f.code}::{msg}"
            )
    else:
        lines.extend(str(f) for f in findings)
    lines.append(f"{n} finding{'s' if n != 1 else ''}" if n else "clean: no findings")
    return "\n".join(lines)
