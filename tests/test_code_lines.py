"""The code-line counter in ``tools/code_lines.py``: a non-blank line outside
comments and docstrings is one code line, and nothing else is."""

import importlib.util
import pathlib

_spec = importlib.util.spec_from_file_location(
    "code_lines",
    pathlib.Path(__file__).resolve().parent.parent / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

CODE = '''import math


def f(x):
    s = """a string

that is not a docstring"""
    return math.sqrt(x) + len(s)


class C:
    y = 1
'''

# CODE with a docstring on the module, the class and the def, comments,
# a trailing comment and more blank lines
COMMENTED = '''"""Module docstring,
over two lines."""

# a comment
import math  # a trailing comment keeps its line


def f(x):
    """One-line docstring."""

    s = """a string

that is not a docstring"""
    # the sum
    return math.sqrt(x) + len(s)


class C:
    """Class docstring."""

    y = 1
'''


def test_docstrings_comments_and_blank_lines_count_nothing():
    # import, def, the string's two non-blank lines, return, class, y
    assert code_lines.code_lines(CODE) == 7
    assert code_lines.code_lines(COMMENTED) == 7


def test_the_counter_prints_each_module_and_the_total(tmp_path, capsys):
    paths = []
    for name, source in (("a.py", CODE), ("b.py", COMMENTED)):
        paths.append(tmp_path / name)
        paths[-1].write_text(source)
    code_lines.main([str(p) for p in paths])
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["7", "a.py"], ["7", "b.py"], ["14", "total"]]
