"""Edge cases of the shared ``# repro: noqa[...]`` escape and renderers.

All three rule sets (lint, units, purity) run through the one pipeline of
:mod:`repro.analysis.common`; these tests pin down the corner cases of the
escape syntax — multiple codes, whitespace, unknown codes, continuation
lines — the three output formats, and the pipeline's single parse.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.analysis.common import (
    FORMATS,
    Finding,
    filter_findings,
    lint_paths,
    lint_source,
    noqa_codes,
    render_findings,
)


class TestNoqaParsing:
    def test_bare_noqa_suppresses_everything(self):
        assert noqa_codes("x = 1  # repro: noqa") == frozenset()

    def test_single_code(self):
        assert noqa_codes("x = 1  # repro: noqa[RPR001]") == {"RPR001"}

    def test_multiple_codes_with_spaces(self):
        line = "x = 1  # repro: noqa[RPR001, RPR006 , RPR009]"
        assert noqa_codes(line) == {"RPR001", "RPR006", "RPR009"}

    def test_case_insensitive(self):
        assert noqa_codes("x = 1  # REPRO: NOQA[rpr002]") == {"RPR002"}

    def test_no_marker(self):
        assert noqa_codes("x = 1  # plain comment") is None
        assert noqa_codes("x = 1") is None

    def test_unknown_code_does_not_suppress_others(self):
        src = "import random\nrandom.random()  # repro: noqa[RPR999]\n"
        findings = lint_source(src)
        assert [f.code for f in findings] == ["RPR001"]

    def test_listed_code_must_match(self):
        src = "import random\nrandom.random()  # repro: noqa[RPR002]\n"
        assert [f.code for f in lint_source(src)] == ["RPR001"]
        src_ok = "import random\nrandom.random()  # repro: noqa[RPR001]\n"
        assert lint_source(src_ok) == []


class TestContinuationLines:
    def _finding(self, **kw):
        base = dict(
            path="x.py", line=1, col=0, code="RPR006", message="mixed"
        )
        base.update(kw)
        return Finding(**base)

    def test_noqa_on_first_line(self):
        lines = ["a = (size_mb  # repro: noqa[RPR006]", "     + delay_s)"]
        f = self._finding(line=1, end_line=2)
        assert filter_findings([f], lines) == []

    def test_noqa_on_last_line_of_multiline_expression(self):
        lines = ["a = (size_mb", "     + delay_s)  # repro: noqa[RPR006]"]
        f = self._finding(line=1, end_line=2)
        assert filter_findings([f], lines) == []

    def test_noqa_on_middle_line_does_not_suppress(self):
        lines = [
            "a = (size_mb",
            "     # repro: noqa[RPR006]",
            "     + delay_s)",
        ]
        f = self._finding(line=1, end_line=3)
        assert filter_findings([f], lines) == [f]

    def test_without_end_line_only_first_line_counts(self):
        lines = ["a = (size_mb", "     + delay_s)  # repro: noqa[RPR006]"]
        f = self._finding(line=1, end_line=None)
        assert filter_findings([f], lines) == [f]

    def test_select_filter(self):
        f6 = self._finding(code="RPR006")
        f7 = self._finding(code="RPR007", col=4)
        got = filter_findings([f7, f6], ["a = b"], select=["RPR007"])
        assert got == [f7]

    def test_sorted_by_position(self):
        f_late = self._finding(line=5)
        f_early = self._finding(line=2)
        got = filter_findings([f_late, f_early], ["x"] * 6)
        assert [f.line for f in got] == [2, 5]


class TestRenderFormats:
    F = Finding("src/x.py", 3, 4, "RPR006", "50% slower\nsecond line")

    def test_formats_tuple(self):
        assert FORMATS == ("text", "json", "github")

    def test_text(self):
        out = render_findings([self.F], "text")
        assert "src/x.py:3:4: RPR006" in out
        assert out.endswith("1 finding")

    def test_text_clean(self):
        assert render_findings([], "text") == "clean: no findings"

    def test_json_round_trips(self):
        doc = json.loads(render_findings([self.F], "json"))
        assert doc == [
            {
                "path": "src/x.py",
                "line": 3,
                "col": 4,
                "end_line": None,
                "code": "RPR006",
                "message": "50% slower\nsecond line",
            }
        ]

    def test_github_escapes_workflow_syntax(self):
        out = render_findings([self.F], "github")
        line = out.splitlines()[0]
        # Columns are 1-based for GitHub annotations; % and newlines must
        # be escaped or the workflow command is cut short.
        assert line.startswith("::error file=src/x.py,line=3,col=5,title=RPR006::")
        assert "%25" in line and "%0A" in line
        assert "\n50" not in line


class TestCliAggregation:
    """``repro lint`` runs all nine codes in one pass."""

    def test_lint_command_reports_units_and_purity_codes(self, capsys, tmp_path):
        from repro.cli import main as cli_main

        bad = tmp_path / "bad.py"
        bad.write_text(
            "import random\n"
            "from concurrent.futures import ProcessPoolExecutor\n"
            "def job(size_mb, delay_s):\n"
            "    random.seed(0)\n"
            "    return size_mb + delay_s\n"
            "def run(xs):\n"
            "    with ProcessPoolExecutor() as pool:\n"
            "        return list(pool.map(job, xs))\n"
        )
        assert cli_main(["lint", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "RPR006" in out  # units: size_mb + delay_s
        assert "RPR009" in out  # purity: reseed inside a pooled worker

    def test_lint_list_rules_shows_all_nine(self, capsys):
        from repro.cli import main as cli_main

        assert cli_main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for n in range(1, 10):
            assert f"RPR00{n}" in out

    def test_select_runs_one_rule_set(self, capsys, tmp_path):
        from repro.cli import main as cli_main

        clean = tmp_path / "clean.py"
        clean.write_text("def f(x):\n    return x\n")
        assert cli_main(["lint", str(clean), "--select", "RPR006", "RPR007", "RPR008"]) == 0
        assert cli_main(["lint", str(clean), "--select", "RPR009"]) == 0
        out = capsys.readouterr().out
        assert out.count("clean: no findings") == 2


class TestOneParse:
    """Each file is parsed once, so a syntax error is one finding."""

    def test_syntax_error_is_one_finding(self, capsys, tmp_path):
        from repro.cli import main as cli_main

        broken = tmp_path / "broken.py"
        broken.write_text("def f(:\n")
        for select in ([], ["--select", "RPR006"]):
            assert cli_main(["lint", str(broken), "--format", "json", *select]) == 1
            doc = json.loads(capsys.readouterr().out)
            assert [f["code"] for f in doc] == ["RPR000"], select

    def test_other_files_are_still_checked(self, tmp_path):
        (tmp_path / "broken.py").write_text("def f(:\n")
        (tmp_path / "mixed.py").write_text(
            "def f(size_mb: MB, delay_s: Seconds):\n    return size_mb + delay_s\n"
        )
        found = [(Path(f.path).name, f.code) for f in lint_paths([tmp_path])]
        assert found == [("broken.py", "RPR000"), ("mixed.py", "RPR006")]

    def test_undecodable_file_is_one_finding(self, tmp_path):
        (tmp_path / "latin1.py").write_bytes(b"x = 1\n# caf\xe9\n")
        (tmp_path / "mixed.py").write_text(
            "def f(size_mb: MB, delay_s: Seconds):\n    return size_mb + delay_s\n"
        )
        for select in (None, ["RPR006"]):
            found = [
                (Path(f.path).name, f.line, f.code)
                for f in lint_paths([tmp_path], select)
            ]
            assert found == [("latin1.py", 2, "RPR000"), ("mixed.py", 2, "RPR006")]

    def test_missing_path_is_a_usage_error(self, capsys, tmp_path):
        from repro.cli import main as cli_main

        (tmp_path / "ok.py").write_text("x = 1\n")
        missing = tmp_path / "nosuch.py"
        assert cli_main(["lint", str(tmp_path / "ok.py"), str(missing)]) == 2
        captured = capsys.readouterr()
        assert str(missing) in captured.err
        assert captured.out == ""

    def test_a_file_named_twice_is_checked_once(self, tmp_path):
        (tmp_path / "broken.py").write_text("def f(:\n")
        mixed = tmp_path / "mixed.py"
        mixed.write_text(
            "def f(size_mb: MB, delay_s: Seconds):\n    return size_mb + delay_s\n"
        )
        found = [f.code for f in lint_paths([tmp_path, mixed, tmp_path / "broken.py"])]
        assert found == ["RPR000", "RPR006"]
