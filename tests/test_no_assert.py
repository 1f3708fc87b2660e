"""Source guards over the AST of every module in the library.

* No ``assert`` statements: ``python -O`` strips them, so a certified check
  written as one would silently vanish; such checks raise
  ``InvariantError`` instead.
* One record builder: a report record is the only dict with a ``"verdict"``
  key, and ``verify._record`` is the only code that writes one, so every
  check's record has the same layout.  ``_record`` and the verdict rule
  ``_verdict`` are named only in ``verify``, so no other module builds a
  record or decides a verdict.
* One check pipeline: ``cli`` imports no ``_``-prefixed name from another
  ``latbounds`` module; it parses and dispatches, and each check's record
  comes from ``verify``.
* One search path: ``enumeration.ball_blocks`` is the only code that
  names the search ``_enum_coeffs``, which ``enumeration`` defines; sums
  and ``enumerate_arrays`` take their points from its blocks.
* One sum kernel: ``verify._sums`` is the only code that names the
  truncation ``_truncated``, so every certified sum (``certified_sum``,
  which gives a tail check its shifted and full sums, and the dual sums)
  is truncated and summed in one place, as a term map over one pass.
* One meaning of a certified sum: ``verify.certified_sum`` is the only code
  that builds a ``CertifiedSum``, a sum of positive terms with its tail
  bound and rounding; the signed dual sums are ``verify.Interval``s.
* One LLL path: ``lattice.lll_reduce`` is the only code that reaches the
  LLL loop ``_lll``, through the cached ``Lattice._reduction``, so a
  lattice is reduced once however many checks ask for its reduction.
* Lattices are built in two places at most: ``lattice`` (the dual, the
  LLL reduction, the named families, and the bases of files and of a
  manifest's inline lattices, which ``read_basis`` reads) and ``cli``.
  The checks dilate their test function, never the lattice, so every
  lattice they sum over has its reduction cached.
* One decay table: ``functions.envelope`` states each family's decay
  envelope, the ``Envelope`` (loga, beta, q) that ``functions`` defines and
  no other module names, so the certified sums, the tail coefficients and
  the command line's default bodies read one statement of it.
* One rounding rule: the checks of ``verify`` build their intervals with
  ``verify.Interval``, whose operators round each end outward.  None of
  them does arithmetic on an end it reads as ``.partial``,
  ``.remainder_bound``, ``.lo`` or ``.hi``, or on a name it unpacks from an
  expression that names ``Interval`` or ``.interval``, except as the one
  operation inside ``_up(...)`` or ``_down(...)``, which rounds it outward.
* One reader for manifest numbers: no ``float(...)`` in ``cli`` takes a
  manifest value (a subscript or ``.get`` of ``params``) directly, since
  ``float`` reads ``"nan"``, ``"2"`` and ``true`` as numbers; each is read
  through ``cli._number``, which refuses all three, so a parameter added
  later is refused at planning too.
* One reader for a shift: ``Lattice.shift`` is the only code that tests a
  shift's shape (``v.shape``) or finiteness (``np.isfinite`` of an
  expression naming ``v``), so the enumeration, every sum and check, and a
  manifest's ``v`` refuse a malformed shift alike, and none broadcasts a
  short one.
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


def test_only_verify_names_the_record_and_the_verdict_rule():
    for name in ("_record", "_verdict"):
        found, defined = _named_outside(name, "verify.py")
        assert defined, f"verify.py defines no {name}"
        assert not found, (f"{name} is named outside verify.py: "
                           + ", ".join(found))


def test_cli_imports_no_private_name():
    # cli parses and dispatches; what it needs of another module is public
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    imports = [node for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)
               and (node.level or (node.module or "").startswith("latbounds"))]
    assert imports, "cli.py imports nothing from latbounds"
    modules = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.Import) for alias in node.names}
    found = [f"cli.py:{node.lineno} {alias.name}" for node in imports
             for alias in node.names if alias.name.startswith("_")]
    found += [f"cli.py:{node.lineno} {node.value.id}.{node.attr}"
              for node in ast.walk(tree) if isinstance(node, ast.Attribute)
              and node.attr.startswith("_") and not node.attr.startswith("__")
              and getattr(node.value, "id", None) in modules]
    assert not found, "cli.py imports private names: " + ", ".join(found)


def _named_outside(name, module, owner=None):
    """Where the library names ``name`` outside the function ``owner`` of
    ``module`` (outside ``module`` itself, when owner is None), and whether
    ``module`` defines ``name``, a function or class at its top level or in
    one of its classes.  A guard on a name that nothing defines would pass
    vacuously, so each guard checks both."""
    found, defined = [], False
    for path, tree in _modules():
        allowed = set()
        if path.name == module:
            owned = [tree] if owner is None else [
                node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name == owner]
            allowed = {id(sub) for node in owned for sub in ast.walk(node)}
            scopes = [tree] + [node for node in tree.body
                               if isinstance(node, ast.ClassDef)]
            defined = any(isinstance(node, (ast.FunctionDef, ast.ClassDef))
                          and node.name == name
                          for scope in scopes for node in scope.body)
        found += [f"{path.name}:{getattr(node, 'lineno', 0)}"
                  for node in ast.walk(tree) if id(node) not in allowed
                  and name in (getattr(node, "id", None),
                               getattr(node, "attr", None),
                               getattr(node, "name", None))
                  and not isinstance(node, ast.FunctionDef)]
    return found, defined


def test_only_ball_blocks_runs_the_search():
    found, defined = _named_outside("_enum_coeffs", "enumeration.py",
                                    "ball_blocks")
    assert defined, "enumeration.py defines no search named _enum_coeffs"
    assert not found, ("the search is named outside ball_blocks: "
                       + ", ".join(found))


def test_only_the_sum_kernel_truncates():
    # every certified sum, primal, dual or a tail check's, takes its radius
    # and tail bound from the one kernel verify._sums
    found, defined = _named_outside("_truncated", "verify.py", "_sums")
    assert defined, "verify.py defines no _truncated"
    assert not found, ("_truncated is named outside _sums: "
                       + ", ".join(found))


def test_only_certified_sum_builds_a_certified_sum():
    # the dual sums, whose terms are signed, are Intervals, so every
    # CertifiedSum's fields mean what its docstring says
    found, defined = [], False
    for path, tree in _modules():
        allowed = set()
        if path.name == "verify.py":
            defined = any(isinstance(node, ast.ClassDef)
                          and node.name == "CertifiedSum" for node in tree.body)
            allowed = {id(sub) for node in ast.walk(tree)
                       if isinstance(node, ast.FunctionDef)
                       and node.name == "certified_sum"
                       for sub in ast.walk(node)}
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and id(node) not in allowed
                  and "CertifiedSum" in (getattr(node.func, "id", None),
                                         getattr(node.func, "attr", None))]
    assert defined, "verify.py defines no CertifiedSum"
    assert not found, ("a CertifiedSum built outside verify.certified_sum: "
                       + ", ".join(found))


def test_only_lll_reduce_reaches_the_lll_loop():
    # the loop _lll runs only in the cached Lattice._reduction, which only
    # lll_reduce reads, so each Lattice is reduced at most once
    for name, owner in (("_lll", "_reduction"), ("_reduction", "lll_reduce")):
        found, defined = _named_outside(name, "lattice.py", owner)
        assert defined, f"lattice.py defines no {name}"
        assert not found, (f"{name} is named outside {owner}: "
                           + ", ".join(found))


def test_only_lattice_and_cli_construct_a_lattice():
    # a check dilates its test function, never its lattice, so each lattice
    # it sums over is one whose reduction and dual are cached
    found, defined = [], False
    for path, tree in _modules():
        calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
                 and "Lattice" in (getattr(node.func, "id", None),
                                   getattr(node.func, "attr", None))]
        if path.name == "lattice.py":
            defined = bool(calls) and any(
                isinstance(node, ast.ClassDef) and node.name == "Lattice"
                for node in tree.body)
        elif path.name != "cli.py":
            found += [f"{path.name}:{node.lineno}" for node in calls]
    assert defined, "lattice.py defines and constructs no Lattice"
    assert not found, ("a Lattice constructed outside lattice.py and cli.py: "
                       + ", ".join(found))


def test_only_functions_states_a_decay():
    # each family's (loga, beta, q) is stated once, in functions.envelope
    found, defined = _named_outside("Envelope", "functions.py")
    assert defined, "functions.py defines no Envelope"
    assert not found, ("Envelope is named outside functions.py: "
                       + ", ".join(found))


# the checks whose intervals come only from verify.Interval, the names of
# the interval ends they must not do float arithmetic on, and the calls that
# round the result of one such operation outward
_INTERVAL_CHECKS = ("check_part1", "check_tail_inequality", "check_part3",
                    "_dual_sums", "dual_fhat_sum", "_psf_residual",
                    "psf_residual", "check_psf", "transference_check",
                    "TransferenceReport.record")
_ENDS = {"partial", "remainder_bound", "lo", "hi"}
_OUTWARD = {"_up", "_down"}


def _unpacked_ends(function):
    """Names that ``function`` unpacks from an expression naming
    ``Interval`` or ``.interval``: the ends of an interval it holds."""
    names = set()
    for node in ast.walk(function):
        if (isinstance(node, ast.Assign)
                and any(getattr(sub, "id", None) == "Interval"
                        or getattr(sub, "attr", None) == "interval"
                        for sub in ast.walk(node.value))):
            names |= {sub.id for target in node.targets
                      if isinstance(target, ast.Tuple)
                      for sub in ast.walk(target) if isinstance(sub, ast.Name)}
    return names


def _bare_end_arithmetic(function):
    ends = _unpacked_ends(function)
    rounded = {id(arg) for node in ast.walk(function)
               if isinstance(node, ast.Call)
               and getattr(node.func, "id", None) in _OUTWARD
               for arg in node.args}
    return [node.lineno for node in ast.walk(function)
            if isinstance(node, ast.BinOp) and id(node) not in rounded
            and any((isinstance(side, ast.Attribute) and side.attr in _ENDS)
                    or (isinstance(side, ast.Name) and side.id in ends)
                    for side in (node.left, node.right))]


def test_checks_round_interval_ends_through_interval():
    tree = ast.parse((PACKAGE / "verify.py").read_text())
    functions = {node.name: node for node in tree.body
                 if isinstance(node, ast.FunctionDef)}
    functions.update({f"{cls.name}.{node.name}": node for cls in tree.body
                      if isinstance(cls, ast.ClassDef) for node in cls.body
                      if isinstance(node, ast.FunctionDef)})
    missing = [name for name in _INTERVAL_CHECKS if name not in functions]
    assert not missing, "verify.py defines no " + ", ".join(missing)
    found = [f"{name}:{line}" for name in _INTERVAL_CHECKS
             for line in _bare_end_arithmetic(functions[name])]
    assert not found, ("float arithmetic on an interval end: "
                       + ", ".join(found))


def _reads_params(node):
    """Whether node is ``params[...]`` or ``params.get(...)``."""
    if isinstance(node, ast.Subscript):
        return getattr(node.value, "id", None) == "params"
    return (isinstance(node, ast.Call)
            and getattr(node.func, "attr", None) == "get"
            and getattr(node.func.value, "id", None) == "params")


def test_manifest_numbers_are_read_through_number():
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    assert any(isinstance(node, ast.FunctionDef) and node.name == "_number"
               for node in tree.body), "cli.py defines no _number"
    found = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Call)
             and getattr(node.func, "id", None) == "float"
             and any(_reads_params(arg) for arg in node.args)]
    assert not found, ("float() of a manifest value in cli.py, lines "
                       + ", ".join(map(str, found)))


def _tests_a_shift(node):
    """Whether node is ``v.shape`` or an ``isfinite`` call naming ``v``."""
    if isinstance(node, ast.Attribute) and node.attr == "shape":
        return getattr(node.value, "id", None) == "v"
    return (isinstance(node, ast.Call)
            and "isfinite" in (getattr(node.func, "id", None),
                               getattr(node.func, "attr", None))
            and any(getattr(sub, "id", None) == "v"
                    for arg in node.args for sub in ast.walk(arg)))


def test_only_lattice_shift_checks_a_shift():
    # one reader, so no caller checks a shift less than another does
    found, defined = [], False
    for path, tree in _modules():
        allowed = set()
        if path.name == "lattice.py":
            shift = [node for cls in tree.body if isinstance(cls, ast.ClassDef)
                     and cls.name == "Lattice" for node in cls.body
                     if isinstance(node, ast.FunctionDef)
                     and node.name == "shift"]
            inside = [sub for node in shift for sub in ast.walk(node)]
            defined = any(map(_tests_a_shift, inside))
            allowed = set(map(id, inside))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if id(node) not in allowed and _tests_a_shift(node)]
    assert defined, "lattice.py defines no Lattice.shift that checks v"
    assert not found, ("a shift checked outside Lattice.shift: "
                       + ", ".join(found))
