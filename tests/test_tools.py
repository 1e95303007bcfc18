"""The code-line counter of ``tools/code_lines.py``, which the size gates read."""

import importlib.util
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
