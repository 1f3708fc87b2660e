"""The library never guards a result with ``assert``.

``python -O`` strips assert statements, so a certified check written as one
would silently vanish; such checks raise ``InvariantError`` instead.
"""

import ast
import pathlib

import latbounds

PACKAGE = pathlib.Path(latbounds.__file__).resolve().parent


def test_library_has_no_assert_statements():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, "assert statements in the library: " + ", ".join(found)
