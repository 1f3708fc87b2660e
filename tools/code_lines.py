"""Count the code lines of the latbounds package.

A code line is a non-blank line that holds a token outside comments and
docstrings: a line of a module, class or function docstring counts for
nothing, and neither does a line with only a comment.  Prints one count per
module of ``src/latbounds`` and their total:

    python3 tools/code_lines.py [FILE ...]
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_PACKAGE = Path(__file__).resolve().parent.parent / "src" / "latbounds"

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree):
    """Line numbers spanned by the docstrings of a module, class or def."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Non-blank lines of source outside comments and docstrings."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    text = source.splitlines()
    return sum(1 for n in lines - _docstring_lines(ast.parse(source))
               if text[n - 1].strip())  # a blank line inside a string


def main(argv=None):
    paths = [Path(a) for a in argv] if argv else sorted(_PACKAGE.glob("*.py"))
    total = 0
    for path in paths:
        count = code_lines(path.read_text())
        total += count
        print(f"{count:6d}  {path.name}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main(sys.argv[1:])
