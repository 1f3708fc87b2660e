"""The comparison step of ``tools/same_reports.py``: two directories are the
same only when each file is in both, byte for byte."""

import importlib.util
import pathlib

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
