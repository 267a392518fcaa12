"""Tests for the repo-specific AST linter (RPR001-RPR005).

The rules run through ``repro lint``'s one pipeline; ``LINT`` selects this
rule set alone.
"""

from pathlib import Path

import pytest

import repro
from repro.analysis import lint_paths, lint_source
from repro.analysis.lint import iter_rules
from repro.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
SRC_REPRO = Path(repro.__file__).parent
LINT = [r.code for r in iter_rules()]


def codes(source, path="mod.py", select=None):
    return [f.code for f in lint_source(source, path, select or LINT)]


class TestRuleRegistry:
    def test_five_rules_in_order(self):
        assert [r.code for r in iter_rules()] == [
            "RPR001", "RPR002", "RPR003", "RPR004", "RPR005"
        ]


class TestRPR001Randomness:
    def test_global_module_call(self):
        src = "import random\nx = random.randint(0, 3)\n"
        assert codes(src) == ["RPR001"]

    def test_unseeded_instance(self):
        assert codes("import random\nr = random.Random()\n") == ["RPR001"]

    def test_seeded_instance_ok(self):
        assert codes("import random\nr = random.Random(42)\n") == []

    def test_aliased_numpy_global(self):
        src = "import numpy as np\nv = np.random.shuffle(xs)\n"
        assert codes(src) == ["RPR001"]

    def test_unseeded_default_rng(self):
        src = "import numpy as np\ng = np.random.default_rng()\n"
        assert codes(src) == ["RPR001"]

    def test_seeded_default_rng_ok(self):
        src = "import numpy as np\ng = np.random.default_rng(7)\n"
        assert codes(src) == []

    def test_from_import_of_global_fn(self):
        assert codes("from random import choice\n") == ["RPR001"]

    def test_from_numpy_random_import_global(self):
        assert codes("from numpy.random import rand\n") == ["RPR001"]

    def test_direct_default_rng_import(self):
        src = "from numpy.random import default_rng\ng = default_rng()\n"
        assert codes(src) == ["RPR001"]
        seeded = "from numpy.random import default_rng\ng = default_rng(3)\n"
        assert codes(seeded) == []

    def test_unrelated_module_not_confused(self):
        # A local object named `random` must not trip the rule.
        src = "random = make_policy()\nx = random.random()\n"
        assert codes(src) == []


class TestRPR002TimeEquality:
    def test_eq_on_makespan(self):
        assert codes("ok = res.makespan == 3.5\n") == ["RPR002"]

    def test_noteq_on_bare_name(self):
        assert codes("if ect != best: pass\n") == ["RPR002"]

    def test_suffix_match(self):
        assert codes("hit = node_ect == cand_ect\n") == ["RPR002"]

    def test_ordering_comparisons_ok(self):
        assert codes("ok = res.makespan <= 3.5\n") == []

    def test_none_and_str_exempt(self):
        assert codes("ok = rec.exec_start is None\n") == []
        assert codes("ok = rec.exec_start == None\n") == []
        assert codes("ok = kind == 'start'\n") == []

    def test_non_time_names_ok(self):
        assert codes("ok = node == best_node\n") == []


class TestRPR003WallClock:
    SRC = "import time\nstamp = time.time()\n"

    def test_flagged_in_sim_module(self):
        assert codes(self.SRC, path="src/repro/cluster/runtime.py") == ["RPR003"]
        assert codes(self.SRC, path="src/repro/core/driver.py") == ["RPR003"]

    def test_ignored_outside_sim_packages(self):
        assert codes(self.SRC, path="src/repro/experiments/runner.py") == []

    def test_perf_counter_allowed(self):
        src = "import time\nt0 = time.perf_counter()\n"
        assert codes(src, path="src/repro/core/driver.py") == []

    def test_datetime_now(self):
        src = "from datetime import datetime\nd = datetime.now()\n"
        assert codes(src, path="src/repro/cluster/state.py") == ["RPR003"]

    def test_from_time_import_time(self):
        src = "from time import time\n"
        assert codes(src, path="src/repro/core/jdp.py") == ["RPR003"]


class TestRPR004MutableDefaults:
    def test_literal_defaults(self):
        assert codes("def f(a=[]): pass\n") == ["RPR004"]
        assert codes("def f(a={}): pass\n") == ["RPR004"]

    def test_constructor_defaults(self):
        assert codes("def f(a=dict()): pass\n") == ["RPR004"]

    def test_kwonly_default(self):
        assert codes("def f(*, a=[]): pass\n") == ["RPR004"]

    def test_lambda_default(self):
        assert codes("g = lambda a=[]: a\n") == ["RPR004"]

    def test_none_and_tuple_ok(self):
        assert codes("def f(a=None, b=()): pass\n") == []


class TestRPR005BareExcept:
    def test_bare_flagged(self):
        src = "try:\n    x()\nexcept:\n    pass\n"
        assert codes(src) == ["RPR005"]

    def test_typed_ok(self):
        src = "try:\n    x()\nexcept Exception:\n    pass\n"
        assert codes(src) == []


class TestSuppressionAndSelection:
    def test_noqa_all_codes(self):
        src = "import random\nx = random.random()  # repro: noqa\n"
        assert codes(src) == []

    def test_noqa_specific_code(self):
        src = "import random\nx = random.random()  # repro: noqa[RPR001]\n"
        assert codes(src) == []

    def test_noqa_other_code_does_not_suppress(self):
        src = "import random\nx = random.random()  # repro: noqa[RPR005]\n"
        assert codes(src) == ["RPR001"]

    def test_select_filters(self):
        src = "import random\n\ndef f(a=[]):\n    return random.random()\n"
        assert codes(src) == ["RPR004", "RPR001"]
        assert codes(src, select=["RPR004"]) == ["RPR004"]

    def test_syntax_error_reported_not_raised(self):
        findings = lint_source("def f(:\n", "broken.py")
        assert [f.code for f in findings] == ["RPR000"]


class TestFixtureFiles:
    """End-to-end over real files: each deliberate violation is caught."""

    def test_each_rule_fires_on_its_fixture(self):
        findings = lint_paths([FIXTURES], LINT)
        by_file = {}
        for f in findings:
            by_file.setdefault(Path(f.path).name, set()).add(f.code)
        assert by_file["rpr001_random.py"] == {"RPR001"}
        assert by_file["rpr002_time_compare.py"] == {"RPR002"}
        assert by_file["rpr003_wallclock.py"] == {"RPR003"}
        assert by_file["rpr004_mutable_default.py"] == {"RPR004"}
        assert by_file["rpr005_bare_except.py"] == {"RPR005"}
        assert "suppressed.py" not in by_file  # noqa escapes hold

    def test_fixture_finding_count(self):
        assert len(lint_paths([FIXTURES], LINT)) == 11

    def test_findings_point_at_lines(self):
        f = next(
            f for f in lint_paths([FIXTURES / "rpr005_bare_except.py"], LINT)
        )
        assert f.line == 7
        assert str(f).startswith(f"{f.path}:7:")


class TestRepoIsClean:
    def test_src_repro_lints_clean(self):
        assert lint_paths([SRC_REPRO]) == []


class TestMainEntry:
    def test_clean_tree_exits_zero(self, capsys):
        assert main(["lint", str(SRC_REPRO), "--select", *LINT]) == 0
        assert "clean" in capsys.readouterr().out

    def test_findings_exit_one(self, capsys):
        assert main(["lint", str(FIXTURES), "--select", *LINT]) == 1
        out = capsys.readouterr().out
        assert "RPR001" in out and "11 findings" in out

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in ("RPR001", "RPR005"):
            assert code in out

    def test_select_option(self, capsys):
        assert main(["lint", str(FIXTURES), "--select", "RPR002"]) == 1
        out = capsys.readouterr().out
        assert "RPR002" in out and "RPR001" not in out
