"""The steps of ``tools/same_reports.py``: planning a manifest writes each
transform table it builds, bit for bit; two directories are the same only
when each file is in both, byte for byte, and a JSON file that differs
names each field that moved."""

import importlib.util
import json
import math
import os
import pathlib
import subprocess
import sys

import pytest

_spec = importlib.util.spec_from_file_location(
    "same_reports",
    pathlib.Path(__file__).resolve().parent.parent / "tools" / "same_reports.py")
same_reports = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_reports)

FILES = {"acceptance.json": b'{"records": []}\n',
         "acceptance.stdout": b"summary checks=0\n",
         "acceptance.csv": b"check_index,lattice_id\n"}


def _tree(root, files):
    root.mkdir()
    for name, data in files.items():
        (root / name).write_bytes(data)
    return root


@pytest.mark.parametrize("other, differs", [
    (FILES, set()),
    ({**FILES, "acceptance.csv": b"check_index,lattice_iD\n"},
     {"acceptance.csv"}),
    ({"acceptance.json": FILES["acceptance.json"]},
     {"acceptance.stdout", "acceptance.csv"}),
], ids=["identical", "one-byte-changed", "files-missing"])
def test_compare_reports_each_file(tmp_path, capsys, other, differs):
    a, b = _tree(tmp_path / "a", FILES), _tree(tmp_path / "b", other)
    assert same_reports.compare(a, b) == (not differs)
    seen = dict(line.split()[::-1]
                for line in capsys.readouterr().out.splitlines())
    assert seen == {name: "differs" if name in differs else "same"
                    for name in FILES}


def test_compare_names_the_fields_that_moved(tmp_path, capsys):
    # under a differing JSON report, one line per moved field: a changed
    # leaf, a key one side lacks, and an index past the shorter list
    report = {"records": [{"residual": 1e-10, "verdict": "PASS"},
                          {"residual": 2e-10, "verdict": "PASS"}]}
    other = {"records": [{"residual": 1e-10, "verdict": "PASS"},
                         {"residual": 3e-10, "verdict": "PASS", "lo": 0.0},
                         {}], "summary": 1}
    a = _tree(tmp_path / "a", {"r.json": json.dumps(report).encode(),
                               "r.stdout": b"x\n"})
    b = _tree(tmp_path / "b", {"r.json": json.dumps(other).encode(),
                               "r.stdout": b"y\n"})
    assert not same_reports.compare(a, b)
    assert capsys.readouterr().out.split("\n") == [
        "differs r.json", "          records[1].residual",
        "          records[1].lo", "          records[2]",
        "          summary", "differs r.stdout", ""]


def test_moved_fields_reads_json_text():
    # 1 and 1.0 are different report bytes; NaN is the same text as NaN
    assert same_reports.moved_fields({"a": [1, math.nan]},
                                     {"a": [1.0, math.nan]}) == ["a[0]"]


def test_planning_writes_each_table_once_bit_for_bit(tmp_path, table15):
    # two p = 1.5 entries share one table; the gaussian needs none
    def entry(family, **params):
        return {"check_name": "hypotheses",
                "params": {"family": family, "dim": 2, "samples": 10, **params}}
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({"checks": [
        entry("supergaussian", p=1.5), entry("gaussian"),
        entry("supergaussian", p=1.5, dim=3)]}))
    out = tmp_path / "m.tables.json"
    root = pathlib.Path(same_reports.ROOT)
    subprocess.run([sys.executable, "-c", same_reports._TABLES, str(manifest),
                    str(out)], check=True,
                   env={**os.environ, "PYTHONPATH": str(root / "src")})
    (table,) = json.loads(out.read_text())
    assert table == {"p": 1.5, "nodes": table15.nodes.tolist(),
                     "values": table15.values.tolist()}


def test_compare_names_a_moved_table_value(tmp_path, capsys):
    table = [{"p": 1.5, "nodes": [0.0, 96.0], "values": [2.0, 1e-6]}]
    moved = [{"p": 1.5, "nodes": [0.0, 96.0],
              "values": [2.0, math.nextafter(1e-6, 1)]}]
    a = _tree(tmp_path / "a", {"m.tables.json": json.dumps(table).encode()})
    b = _tree(tmp_path / "b", {"m.tables.json": json.dumps(moved).encode()})
    assert not same_reports.compare(a, b)
    assert capsys.readouterr().out.split("\n") == [
        "differs m.tables.json", "          [0].values[1]", ""]
