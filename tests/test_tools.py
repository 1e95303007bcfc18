"""The code-line counter of ``tools/code_lines.py``, which the size gates read,
and the contract mode of ``tools/output_digest.py``."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
_SPEC = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

SOURCE = '''"""A module docstring,
over two lines."""

import os  # code with a trailing comment


# a comment-only line
class Thing:
    """A class docstring."""

    def method(self):
        """A function docstring,
        over two lines.
        """
        text = """a multi-line string
        that is not a docstring"""
        return text
'''


def test_code_lines_follow_the_four_rules():
    # import, class, def, the two lines of the string, return.
    assert code_lines.code_lines(SOURCE) == 6


def test_each_rule_on_its_own():
    assert code_lines.code_lines('"""Docstring only."""\n') == 0
    assert code_lines.code_lines("\n# comment\n\n") == 0
    assert code_lines.code_lines("x = 1  # comment\n") == 1
    assert code_lines.code_lines('x = 1\ny = """a\nb"""\n') == 3
    # A string after the first statement is not a docstring.
    assert code_lines.code_lines('def f():\n    pass\n    """not a docstring"""\n') == 3


# The contract mode of ``tools/output_digest.py``, on synthetic dumps.
_DIGEST = Path(__file__).resolve().parent.parent / "tools" / "output_digest.py"


def synthetic_dump():
    def table():
        return [[0.25, 0.75], [0.5, 0.5]]

    return {"0": {
        "suite": {
            "game 1 haspi": {"status": "converged", "counts": [12, 13],
                             "policies": [table(), table()], "J": [-1.5, 2.0]},
            "game 1 oracle": {"status": "cycle", "counts": [52], "policies": [table()], "J": []},
        },
        "cli-files": {
            "solve": {"status": 0},
            "file mehaml": {"status": "converged", "counts": [44],
                            "policies": [table()], "J": [3.0, 1.0, 3.0]},
            "file replication_table.csv": {"status": "written", "text": "alpha\r\n1\r\n"},
        },
    }}


def run_compare(tmp_path, old, new):
    paths = []
    for name, dump in (("old", old), ("new", new)):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(dump))
    return subprocess.run([sys.executable, str(_DIGEST), "--compare", *map(str, paths)],
                          capture_output=True, text=True, check=False)


def test_identical_dumps_are_within_bounds(tmp_path):
    result = run_compare(tmp_path, synthetic_dump(), synthetic_dump())
    assert result.returncode == 0, result.stdout + result.stderr
    assert result.stdout.splitlines() == [
        "worst policy difference 0.000e+00 (none)",
        "worst relative J difference 0.000e+00 (none)",
        "within bounds",
    ]


def test_changed_statuses_breach(tmp_path):
    new = synthetic_dump()
    new["0"]["suite"]["game 1 oracle"]["status"] = "converged"
    new["0"]["cli-files"]["solve"]["status"] = 2
    result = run_compare(tmp_path, synthetic_dump(), new)
    assert result.returncode == 1
    assert "breach: seed 0 cli-files solve: status 0 became 2" in result.stdout
    assert "breach: seed 0 suite game 1 oracle: status 'cycle' became 'converged'" in result.stdout
    assert result.stdout.endswith("breaches: 2\n")


def test_policy_moves_are_held_to_their_bounds(tmp_path):
    new = synthetic_dump()
    new["0"]["suite"]["game 1 haspi"]["policies"][1][0][0] += 1e-11
    # The line-search run may take another sweep count, and moves within 1e-9.
    mehaml = new["0"]["cli-files"]["file mehaml"]
    mehaml["policies"][0][1][1] += 1e-10
    mehaml["counts"], mehaml["J"] = [45], [3.0, 1.0, 2.0, 3.0]
    result = run_compare(tmp_path, synthetic_dump(), new)
    assert result.returncode == 1
    lines = result.stdout.splitlines()
    assert lines[0] == "breach: seed 0 suite game 1 haspi: a policy moved by 1.000e-11 > 1e-12"
    assert lines[1] == "worst policy difference 1.000e-10 (seed 0 cli-files file mehaml)"
    assert lines[-1] == "breaches: 1"


def test_returns_are_held_to_a_relative_bound(tmp_path):
    new = synthetic_dump()
    new["0"]["suite"]["game 1 haspi"]["J"] = [-1.5 * (1 + 5e-13), 2.0 + 1e-11]
    new["0"]["suite"]["game 1 haspi"]["counts"] = [12, 14]
    result = run_compare(tmp_path, synthetic_dump(), new)
    assert result.returncode == 1
    assert result.stdout.splitlines()[:2] == [
        "breach: seed 0 suite game 1 haspi: counts [12, 13] became [12, 14]",
        "breach: seed 0 suite game 1 haspi: J 2.0 became 2.00000000001",
    ]


# ``tools/trace_cost.py`` on the first few suite games.
_TRACE_COST = Path(__file__).resolve().parent.parent / "tools" / "trace_cost.py"


def test_trace_cost_reports_both_settings_of_both_solvers():
    result = subprocess.run(
        [sys.executable, str(_TRACE_COST), "--games", "3", "--rounds", "2"],
        capture_output=True, text=True, check=False,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    lines = result.stdout.splitlines()
    assert lines[0].startswith("3 suite games, 2 rounds, maxent_marl from ")
    report = json.loads(lines[-1])
    assert sorted(report) == ["haspi", "mehaml"]
    for row in report.values():
        assert sorted(row) == ["ratio", "traced_s", "untraced_s"]
        for q1, median, q3 in row.values():
            assert 0 < q1 <= median <= q3
    assert len(lines) == 1 + 2 * 3 + 1
