"""Source guards over the AST of every module in the library.

* No ``assert`` statements: ``python -O`` strips them, so a certified check
  written as one would silently vanish; such checks raise
  ``InvariantError`` instead.
* One record builder: a report record is the only dict with a ``"verdict"``
  key, and ``verify._record`` is the only code that writes one, so every
  check's record has the same layout.
* One search path: ``enumeration.ball_blocks`` is the only code that
  names the search ``_enum_coeffs``, which ``enumeration`` defines; sums
  and ``enumerate_arrays`` take their points from its blocks.
"""

import ast
import pathlib

import latbounds

PACKAGE = pathlib.Path(latbounds.__file__).resolve().parent


def _modules():
    for path in sorted(PACKAGE.glob("*.py")):
        yield path, ast.parse(path.read_text(), filename=str(path))


def test_library_has_no_assert_statements():
    found = []
    for path, tree in _modules():
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, "assert statements in the library: " + ", ".join(found)


def test_only_verify_record_builds_a_record():
    found = []
    for path, tree in _modules():
        allowed = set()
        if path.name == "verify.py":
            for node in ast.walk(tree):
                if isinstance(node, ast.FunctionDef) and node.name == "_record":
                    allowed |= {id(sub) for sub in ast.walk(node)}
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Dict) and id(node) not in allowed
                  and any(isinstance(key, ast.Constant) and key.value == "verdict"
                          for key in node.keys)]
    assert not found, ("records built outside verify._record: "
                       + ", ".join(found))


def test_only_ball_blocks_runs_the_search():
    search = "_enum_coeffs"
    found, defined = [], False
    for path, tree in _modules():
        allowed = set()
        if path.name == "enumeration.py":
            for node in ast.walk(tree):
                if isinstance(node, ast.FunctionDef) and node.name == "ball_blocks":
                    allowed |= {id(sub) for sub in ast.walk(node)}
            defined = any(isinstance(node, ast.FunctionDef)
                          and node.name == search for node in tree.body)
        found += [f"{path.name}:{getattr(node, 'lineno', 0)}"
                  for node in ast.walk(tree) if id(node) not in allowed
                  and search in (getattr(node, "id", None),
                                 getattr(node, "attr", None),
                                 getattr(node, "name", None))
                  and not isinstance(node, ast.FunctionDef)]
    # a guard on a name that nothing defines would pass vacuously
    assert defined, f"enumeration.py defines no search named {search}"
    assert not found, ("the search is named outside ball_blocks: "
                       + ", ".join(found))
