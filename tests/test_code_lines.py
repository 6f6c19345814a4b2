"""tools/code_lines.py counts statement lines, not docstrings, comments or blanks."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment does not hide the code


# a comment-only line
def f(a,
      b):
    """Function docstring."""
    x = "not a docstring"
    return (a +
            b)


class C:
    """Class docstring."""
    y = 1
'''


def test_counts_only_code_lines():
    # import, def over 2 lines, x, return over 2 lines, class, y
    assert code_lines.code_lines(SOURCE) == 8


def test_counts_each_module_of_a_package(tmp_path):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n\n# end\n")
    assert code_lines.count_package(tmp_path) == {"a.py": 8, "b.py": 1}


def test_main_prints_modules_and_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n")
    assert code_lines.main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines] == [["a.py", "8"], ["b.py", "1"], ["total", "9"]]
