"""Tests for the parallel-purity lint (:mod:`repro.analysis.purity`).

``fixtures_purity/impure_worker.py`` plants the three impurity shapes the
lint exists for (global reseed, shared-state mutation, uncached env read);
the real worker tree under ``src/repro`` must check clean — its only
legitimate reseed (:func:`repro.parallel.pool._seed_cell`) carries a
justified ``noqa`` escape. The lint runs through ``repro lint``'s one
pipeline; ``PURITY`` selects its rule alone.
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis import lint_paths, lint_source
from repro.analysis.purity import iter_rules
from repro.cli import main

FIXTURES = Path(__file__).parent / "fixtures_purity"
SRC_REPRO = Path(__file__).resolve().parents[2] / "src" / "repro"
PURITY = [r.code for r in iter_rules()]


def check_paths(paths, **kw):
    return lint_paths(paths, PURITY, **kw)


def check_source(source, path, **kw):
    return lint_source(source, path, PURITY, **kw)


class TestRuleRegistry:
    def test_single_rule(self):
        assert [r.code for r in iter_rules()] == ["RPR009"]


class TestPlantedFixture:
    def test_all_three_impurities_found(self):
        findings = check_paths([FIXTURES / "impure_worker.py"])
        assert findings and all(f.code == "RPR009" for f in findings)
        messages = "\n".join(f.message for f in findings)
        assert "random.seed" in messages
        assert "_SEEN" in messages
        assert "REPRO_SECRET_KNOB" in messages

    def test_findings_name_the_worker_entry(self):
        findings = check_paths([FIXTURES / "impure_worker.py"])
        assert all("impure_worker:cell" in f.message for f in findings)

    def test_transitive_callee_is_walked(self):
        # The ``_SEEN`` mutation lives in ``_helper``, one call away from
        # the worker — the traversal must reach it.
        findings = check_paths([FIXTURES / "impure_worker.py"])
        helper_lines = [f for f in findings if "_SEEN" in f.message]
        assert helper_lines, findings

    def test_clean_worker_has_no_findings(self):
        assert check_paths([FIXTURES / "clean_worker.py"]) == []

    def test_allow_env_silences_the_env_read(self):
        findings = check_paths(
            [FIXTURES / "impure_worker.py"], allow_env=["REPRO_SECRET_KNOB"]
        )
        assert all("REPRO_SECRET_KNOB" not in f.message for f in findings)
        assert findings  # the other impurities remain


class TestEntryDiscovery:
    def test_submit_entries_are_discovered(self):
        src = (
            "from concurrent.futures import ProcessPoolExecutor\n"
            "import random\n"
            "def job(x):\n"
            "    random.seed(x)\n"
            "    return x\n"
            "def run():\n"
            "    pool = ProcessPoolExecutor()\n"
            "    return pool.submit(job, 1).result()\n"
        )
        findings = check_source(src, "pool_submit.py")
        assert [f.code for f in findings] == ["RPR009"]

    def test_no_executor_means_no_entries(self):
        src = (
            "import random\n"
            "def job(x):\n"
            "    random.seed(x)\n"  # impure, but never pooled
            "    return x\n"
        )
        assert check_source(src, "serial.py") == []

    def test_explicit_entry_overrides_discovery(self):
        src = (
            "import random\n"
            "def job(x):\n"
            "    random.seed(x)\n"
            "    return x\n"
        )
        findings = check_source(src, "serial.py", entries=["serial:job"])
        assert [f.code for f in findings] == ["RPR009"]

    def test_global_statement_is_flagged(self):
        src = (
            "from concurrent.futures import ProcessPoolExecutor\n"
            "_COUNT = 0\n"
            "def job(x):\n"
            "    global _COUNT\n"
            "    _COUNT += 1\n"
            "    return x\n"
            "def run(xs):\n"
            "    with ProcessPoolExecutor() as pool:\n"
            "        return list(pool.map(job, xs))\n"
        )
        findings = check_source(src, "counting.py")
        assert findings and all(f.code == "RPR009" for f in findings)

    def test_noqa_suppresses(self):
        src = (
            "from concurrent.futures import ProcessPoolExecutor\n"
            "import random\n"
            "def job(x):\n"
            "    random.seed(x)  # repro: noqa[RPR009]\n"
            "    return x\n"
            "def run(xs):\n"
            "    with ProcessPoolExecutor() as pool:\n"
            "        return list(pool.map(job, xs))\n"
        )
        assert check_source(src, "escaped.py") == []


class TestRepoWorkersAreClean:
    def test_whole_tree_checks_clean(self):
        # The one sanctioned reseed (repro.parallel.pool._seed_cell) is
        # escaped in-module; nothing else may show up.
        assert check_paths([SRC_REPRO]) == []

    def test_seed_cell_escape_is_the_only_one(self):
        # The checkers' own sources mention the escape in docstrings, so
        # the scan skips src/repro/analysis itself.
        escapes = []
        for file in sorted(SRC_REPRO.rglob("*.py")):
            if file.parent.name == "analysis":
                continue
            for i, line in enumerate(file.read_text().splitlines(), 1):
                if "noqa[RPR009]" in line:
                    escapes.append((file.name, i))
        assert [name for name, _ in escapes] == ["pool.py", "pool.py"]


class TestMainEntry:
    def test_findings_exit_one(self, capsys):
        path = str(FIXTURES / "impure_worker.py")
        assert main(["lint", path, "--select", *PURITY]) == 1
        out = capsys.readouterr().out
        assert "RPR009" in out

    def test_clean_exit_zero(self, capsys):
        path = str(FIXTURES / "clean_worker.py")
        assert main(["lint", path, "--select", *PURITY]) == 0
        assert "clean" in capsys.readouterr().out

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        assert "RPR009" in capsys.readouterr().out

    def test_github_format(self, capsys):
        argv = ["lint", str(FIXTURES), "--format", "github", "--select", *PURITY]
        assert main(argv) == 1
        out = capsys.readouterr().out
        assert "::error file=" in out and "title=RPR009" in out

    def test_allow_env_flag(self, capsys):
        path = str(FIXTURES / "impure_worker.py")
        code = main(
            ["lint", path, "--allow-env", "REPRO_SECRET_KNOB", "--select", *PURITY]
        )
        assert code == 1  # reseed + mutation remain
        assert "REPRO_SECRET_KNOB" not in capsys.readouterr().out
