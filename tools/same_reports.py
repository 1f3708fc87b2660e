"""Compare the reports of this source tree with those of another.

    python3 tools/same_reports.py OTHER_TREE

Writes the ``theta_highdim``, ``transference`` and ``dual_tables``
benchmark manifests at seeds 3 and 17 into a temporary directory
(``perfbench/workloads.write_manifest``), then, in this tree and in
OTHER_TREE, runs ``python3 -m latbounds verify`` on each of them and on
``manifests/acceptance.json`` (with ``--plot-csv``), every report, stdout
and CSV written to the temporary directory.  It also plans each manifest
with the tree's code and writes the ``p``, ``nodes`` and ``values`` of every
transform table that planning builds (the ``hypotheses`` plans' ``table``)
to NAME.tables.json, each float as its shortest round-trip text, so that
"same" means the same bits.  Prints "same" or "differs" for each file,
under each JSON file that differs the path of each field that moved (such
as ``records[12].residual`` or ``[0].values[17]``), and exits 1 on any
difference.  Both trees run the same manifests.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

WORKLOADS = ("theta_highdim", "transference", "dual_tables")
SEEDS = (3, 17)


def _manifests(out_dir):
    """{name: manifest path}: the generated manifests and the acceptance one."""
    sys.dont_write_bytecode = True  # leave no cache under perfbench/
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads
    paths = {f"{w}-seed{s}": workloads.write_manifest(w, s, str(ROOT), out_dir)
             for w in WORKLOADS for s in SEEDS}
    paths["acceptance"] = str(ROOT / "manifests" / "acceptance.json")
    return paths


# run in a tree's interpreter: MANIFEST OUT; writes the tables that
# planning MANIFEST builds, each once, in the order they are first used
_TABLES = """
import functools, json, os, sys
import latbounds.cli as cli
path, out = sys.argv[1:]
plans = cli.plan_manifest(cli.read_manifest(path),
                          os.path.dirname(os.path.abspath(path)))
tables = {}
for plan in plans:
    table = plan.keywords.get("table") if isinstance(plan, functools.partial) else None
    if table is not None:
        tables[id(table)] = {"p": table.p, "nodes": table.nodes.tolist(),
                             "values": table.values.tolist()}
with open(out, "w") as fh:
    json.dump(list(tables.values()), fh)
"""


def run_tree(tree, manifests, out_dir):
    """Run ``latbounds verify`` from tree on every manifest, writing
    NAME.json, NAME.stdout and, for acceptance, NAME.csv to out_dir, and
    the tables its planning builds to NAME.tables.json; True when every
    run ended in a verdict (exit 0, 1 or 2) and every plan was written."""
    os.makedirs(out_dir, exist_ok=True)
    ok = True
    env = {**os.environ, "PYTHONPATH": str(Path(tree, "src"))}
    for name, path in manifests.items():
        out = Path(out_dir, name)
        cmd = [sys.executable, "-m", "latbounds", "verify", path,
               "--output", f"{out}.json"]
        if name == "acceptance":
            cmd += ["--plot-csv", f"{out}.csv"]
        done = subprocess.run(cmd, env=env, cwd=tree, capture_output=True,
                              text=True)
        Path(f"{out}.stdout").write_text(done.stdout)
        tables = subprocess.run(
            [sys.executable, "-c", _TABLES, path, f"{out}.tables.json"],
            env=env, cwd=tree, capture_output=True, text=True)
        if done.returncode > 2:  # past PASS, FAIL and INCONCLUSIVE
            print(f"{tree}: {name} exited {done.returncode}\n{done.stderr}",
                  file=sys.stderr)
            ok = False
        if tables.returncode:
            print(f"{tree}: {name} tables exited {tables.returncode}\n"
                  f"{tables.stderr}", file=sys.stderr)
            ok = False
    return ok


_ABSENT = object()  # the side of a field that one JSON value lacks


def moved_fields(a, b, path=""):
    """The paths of the fields in which two JSON values differ, in a's
    order and then b's: a key or an index that one side lacks, or a leaf
    whose JSON text differs (so 1 and 1.0 differ, and NaN equals NaN)."""
    if isinstance(a, dict) and isinstance(b, dict):
        keys = [*a, *(k for k in b if k not in a)]
        return [moved for k in keys
                for moved in moved_fields(a.get(k, _ABSENT), b.get(k, _ABSENT),
                                          f"{path}.{k}" if path else k)]
    if isinstance(a, list) and isinstance(b, list):
        def at(x, i):
            return x[i] if i < len(x) else _ABSENT
        return [moved for i in range(max(len(a), len(b)))
                for moved in moved_fields(at(a, i), at(b, i), f"{path}[{i}]")]
    if a is _ABSENT or b is _ABSENT or json.dumps(a) != json.dumps(b):
        return [path]
    return []


def compare(dir_a, dir_b):
    """Print "same" or "differs" for each file of either directory, and
    under each JSON file of both that differs, the path of each field that
    moved; True when every file is in both, byte for byte."""
    names = sorted({p.name for p in Path(dir_a).iterdir()}
                   | {p.name for p in Path(dir_b).iterdir()})
    same = True
    for name in names:
        a, b = Path(dir_a, name), Path(dir_b, name)
        both = a.is_file() and b.is_file()
        equal = both and a.read_bytes() == b.read_bytes()
        print(f"{'same' if equal else 'differs':8s}{name}")
        if not equal and both and name.endswith(".json"):
            for path in moved_fields(json.loads(a.read_text()),
                                     json.loads(b.read_text())):
                print(f"{'':8s}  {path}")
        same = same and equal
    return same


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        sys.exit(__doc__)
    other = Path(argv[0]).resolve()
    with tempfile.TemporaryDirectory() as tmp:
        manifests = _manifests(tmp)
        here, there = Path(tmp, "this"), Path(tmp, "other")
        ran = [run_tree(tree, manifests, out)
               for tree, out in ((ROOT, here), (other, there))]
        return 0 if compare(here, there) and all(ran) else 1


if __name__ == "__main__":
    sys.exit(main())
