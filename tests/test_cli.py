import csv
import json
import math
import subprocess
import sys

import numpy as np
import pytest

import latbounds.cli as cli
import latbounds.enumeration as enumeration
import latbounds.functions as functions
import latbounds.verify as verify
from latbounds.cli import _fmt, _write_plot_csv, main, plan_manifest
from latbounds.enumeration import BodySpec, enumerate_arrays
from latbounds.errors import BudgetExceededError
from latbounds.functions import TestFunctionSpec as FnSpec
from latbounds.functions import envelope, log_f
from latbounds.lattice import Lattice, integer_lattice, lp_norm, save_lattice
from latbounds.verify import nu_for_body


def run_module(*args):
    cp = subprocess.run([sys.executable, "-m", "latbounds", *args],
                        capture_output=True, text=True)
    return cp.returncode, cp.stdout, cp.stderr


@pytest.fixture
def run_cli(capsys):
    """Run the command line in process: (exit code, stdout, stderr)."""
    def run(*args):
        code = main(list(args))
        cap = capsys.readouterr()
        return code, cap.out, cap.err
    return run


@pytest.fixture(scope="module")
def z1(tmp_path_factory):
    path = tmp_path_factory.mktemp("lat") / "z1.json"
    save_lattice(integer_lattice(1), path)
    return str(path)


@pytest.fixture(scope="module")
def z2(tmp_path_factory):
    path = tmp_path_factory.mktemp("lat") / "z2.json"
    save_lattice(integer_lattice(2), path)
    return str(path)


def get_fields(out, name):
    for line in out.splitlines():
        if line.startswith(name + " "):
            return line.split()[1:]
    raise KeyError(name)


def get_field(out, name):
    return get_fields(out, name)[0]


def test_theta_z1(run_cli, z1):
    code, out, _ = run_cli("theta", z1, "--family", "gaussian")
    assert code == 0
    assert abs(float(get_field(out, "partial")) - 1.086434811213308) < 1e-9
    assert float(get_field(out, "remainder_bound")) < 1e-9
    assert float(get_field(out, "truncation_radius")) > 0


def test_theta_missing_basis_names_field(run_cli, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"dim": 1}))
    code, _, err = run_cli("theta", str(bad), "--family", "gaussian")
    assert code == 3
    assert "basis" in err


def test_theta_rejects_nonpositive_t(run_cli, z1):
    code, _, err = run_cli("theta", z1, "--family", "gaussian", "--t", "0")
    assert code == 3
    assert "t > 0" in err


def test_theta_rejects_unknown_family(run_cli, z1):
    code, _, err = run_cli("theta", z1, "--family", "bogus")
    assert code == 3
    assert "bogus" in err


def test_theta_rejects_wrong_v_length(run_cli, z2):
    code, _, err = run_cli("theta", z2, "--family", "gaussian", "--v", "0.1")
    assert code == 3
    assert "coordinates" in err


def test_unknown_subcommand_is_usage_error():
    # argparse's own usage exit, rerouted from 2 to 3
    code, _, err = run_module("frobnicate")
    assert code == 3
    assert "invalid choice" in err


def test_module_entry_point(z1):
    code, out, _ = run_module("theta", z1, "--family", "gaussian")
    assert code == 0
    assert abs(float(get_field(out, "partial")) - 1.086434811213308) < 1e-9


def test_constants_rows(run_cli):
    code, out, _ = run_cli("constants")
    assert code == 0
    assert "cstar 0.424789765356" in out
    assert "l1_coefficient_exact 0.15426346839" in out
    row = [l for l in out.splitlines() if l.startswith("transference_l2 n=1 ")][0]
    assert abs(float(row.split()[-1]) - 1.11408) < 5e-5
    row = [l for l in out.splitlines() if l.startswith("handshake n=4 p=2 u=1 ")][0]
    assert abs(float(row.split()[-1]) - 401.7107384) < 1e-6


def test_constants_empty_grid_is_usage_error(run_cli):
    code, _, err = run_cli("constants", "--n", "")
    assert code == 3
    assert "empty" in err


def test_psf_verdict(run_cli, z2):
    code, out, _ = run_cli("psf", z2, "--family", "gaussian", "--t", "1.5",
                           "--v", "0.2,0.3", "--max-residual", "1e-8")
    assert code == 0
    assert "verdict PASS" in out


def test_tail_subcommand(run_cli, z2):
    code, out, _ = run_cli("tail", z2, "--family", "gaussian", "--tau", "1")
    assert code == 0
    assert "verdict PASS" in out
    assert float(get_field(out, "margin")) > 0


@pytest.mark.parametrize("argv, spec", [
    (["--family", "supergaussian", "--p", "1.5", "--radius", "2.5"],
     FnSpec("supergaussian", 2, 1.5)),
    (["--family", "gaussian", "--tau", "1"], FnSpec("gaussian", 2)),
    (["--family", "exp_l1", "--tscale", "3"], FnSpec("exp_l1", 2)),
    (["--family", "inv_cosh_product", "--alpha", "1"],
     FnSpec("inv_cosh_product", 2)),
])
def test_tail_body_is_a_ball_of_the_envelope_norm(run_cli, z2, argv, spec):
    code, out, _ = run_cli("tail", z2, *argv)
    assert code == 0
    assert get_field(out, "body_p") == _fmt(envelope(spec).q)


def test_transference_subcommand(run_cli, z1):
    code, out, _ = run_cli("transference", z1, "--p", "2",
                           "--resolution", "256")
    assert code == 0
    # the upper end of lhs_interval is sigma times the bracket's upper end
    assert float(get_fields(out, "lhs_interval")[1]) <= 1.11409
    # p outside {1, 2} is rejected by the planner, as in a manifest
    code, _, err = run_cli("transference", z1, "--p", "1.5")
    assert code == 3
    assert "p in {1, 2}" in err


def test_kissing_subcommand(run_cli, z2):
    code, out, _ = run_cli("kissing", z2, "--p", "2", "--u", "1.5")
    assert code == 0
    assert get_field(out, "count") == "8"


def _write_manifest(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def test_verify_manifest_end_to_end(run_cli, tmp_path, z2):
    man = {
        "lattice_file": z2,
        "seed": 7,
        "output": "report.json",
        "checks": [
            {"check_name": "part1", "params": {"family": "gaussian", "t": 1.0}},
            {"check_name": "tail_inequality",
             "params": {"family": "gaussian", "tau": 1.0}},
            {"check_name": "psf",
             "params": {"family": "gaussian", "t": 1.5, "v": "random",
                        "max_residual": 1e-8}},
            {"check_name": "handshake", "params": {"p": 2, "u": 1.5}},
            {"check_name": "hypotheses",
             "params": {"family": "gaussian", "dim": 2, "samples": 1000}},
        ],
    }
    mp = _write_manifest(tmp_path / "man.json", man)
    code, out, _ = run_cli("verify", mp)
    assert code == 0
    assert "summary checks=5 pass=5 fail=0 inconclusive=0" in out
    report = json.loads((tmp_path / "report.json").read_text())
    assert [r["check"] for r in report["records"]] == [
        "part1", "tail_inequality", "psf", "handshake", "hypotheses"]
    assert report["records"][0]["margin"] == 0.0  # identity case
    # records keep manifest order and stdout lines match
    assert out.splitlines()[0].startswith("[0] part1")


def test_verify_reports_byte_identical(run_cli, tmp_path, z2):
    man = {
        "lattice_file": z2, "seed": 5,
        "checks": [{"check_name": "part1",
                    "params": {"family": "gaussian", "t": 1.5, "v": "random"}},
                   {"check_name": "theta", "params": {"family": "gaussian"}}],
    }
    mp = _write_manifest(tmp_path / "man.json", man)
    outs = []
    for run in (1, 2):
        out = tmp_path / f"rep{run}.json"
        code, _, _ = run_cli("verify", mp, "--output", str(out))
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def _psf_manifest(path, z1, max_residual):
    return _write_manifest(path, {
        "lattice_file": z1,
        "checks": [{"check_name": "psf",
                    "params": {"family": "exp_l1", "tol": 1e-6,
                               "max_residual": max_residual}}]})


def test_verify_failing_check_exits_one(run_cli, tmp_path, z1):
    # no residual, a size, meets -1: a certified FAIL
    code, out, _ = run_cli("verify", _psf_manifest(tmp_path / "man.json", z1,
                                                   -1))
    assert code == 1
    assert "fail=1" in out


def test_verify_psf_inside_its_residual_exits_two(run_cli, tmp_path, z1):
    # 1e-30 lies inside the residual interval [0, about 2.4e-7]
    code, out, _ = run_cli("verify", _psf_manifest(tmp_path / "man.json", z1,
                                                   1e-30))
    assert code == 2
    assert "inconclusive=1" in out


@pytest.mark.parametrize("t, residual", [(0.1, math.inf), (0.2, 4.5e-6)])
def test_verify_psf_right_side_not_known_positive_exits_two(run_cli, tmp_path,
                                                            t, residual):
    # at t = 0.1 the sum is about 2e-34, far below the right side's error,
    # which the dual kernel charges against the unshifted sum: its interval
    # holds 0, so the residual is [0, inf] and decides nothing; at t = 0.2
    # the right side is positive, and its residual still holds max_residual
    params = {"family": "gaussian", "v": [0.5], "t": t, "tol": 1e-9,
              "max_residual": 1e-8, "lattice": {"kind": "integer", "dim": 1}}
    code, _, report = _verify_one(run_cli, tmp_path, "psf", params)
    assert code == 2
    (rec,) = report["records"]
    assert rec["verdict"] == "INCONCLUSIVE"
    assert rec["residual"] == pytest.approx(residual, rel=0.01)
    assert verify.psf_residual(integer_lattice(1), FnSpec("gaussian", 1), [0.5],
                               t, 1e-9) == pytest.approx(residual, rel=0.01)


def test_verify_unknown_check_rejected_before_running(run_cli, tmp_path, z1):
    man = {"lattice_file": z1,
           "checks": [{"check_name": "theta", "params": {"family": "gaussian"}},
                      {"check_name": "wat", "params": {}}]}
    mp = _write_manifest(tmp_path / "man.json", man)
    code, out, err = run_cli("verify", mp)
    assert code == 3
    assert "checks[1]" in err and "wat" in err
    assert out == ""  # nothing executed


def test_verify_empty_checks_usage_error(run_cli, tmp_path, z1):
    mp = _write_manifest(tmp_path / "man.json",
                         {"lattice_file": z1, "checks": []})
    code, _, err = run_cli("verify", mp)
    assert code == 3
    assert "checks" in err


def test_verify_budget_exhaustion_exits_four(run_cli, tmp_path, z2):
    man = {"lattice_file": z2, "budgets": {"nodes": 3},
           "checks": [{"check_name": "theta",
                       "params": {"family": "gaussian"}}]}
    mp = _write_manifest(tmp_path / "man.json", man)
    code, _, err = run_cli("verify", mp)
    assert code == 4
    assert "budget" in err.lower()


def _lattice_argv(tmp_path, data):
    """A theta run on a lattice file holding data."""
    path = tmp_path / "lat.json"
    path.write_text(json.dumps(data))
    return ["theta", str(path), "--family", "gaussian"]


def _manifest_argv(tmp_path, z2, budgets, params, check="theta"):
    man = {"lattice_file": z2, "budgets": budgets,
           "checks": [{"check_name": check,
                       "params": {"family": "gaussian", **params}}]}
    return ["verify", _write_manifest(tmp_path / "man.json", man)]


# (argv, what stderr names); a manifest param is refused as checks[0]'s
@pytest.mark.parametrize("argv, named", [
    (lambda tmp, z2: ["theta", z2, "--family", "gaussian",
                      "--node-budget", "0"], "budget"),
    (lambda tmp, z2: ["transference", z2, "--p", "2", "--grid-budget", "-1"],
     "budget"),
    (lambda tmp, z2: _manifest_argv(tmp, z2, {"nodes": True}, {}), "budget"),
    (lambda tmp, z2: _manifest_argv(tmp, z2, {}, {"t": float("nan")}),
     "checks[0]: t must be a number"),
    (lambda tmp, z2: _manifest_argv(tmp, z2, {}, {"v": [float("inf"), 0.0]}),
     "checks[0]: v must be finite"),
    (lambda tmp, z2: _manifest_argv(tmp, z2, {}, {"tol": "nan"}),
     "checks[0]: tol must be a number, got 'nan'"),
    (lambda tmp, z2: _manifest_argv(tmp, z2, {}, {"max_residual": "nan"},
                                    "psf"),
     "checks[0]: max_residual must be a number, got 'nan'"),
    (lambda tmp, z2: _manifest_argv(tmp, z2, {}, {"t": "nan"}),
     "checks[0]: t must be a number, got 'nan'"),
    (lambda tmp, z2: _manifest_argv(tmp, z2, {}, {"p": 2, "u": "nan"},
                                    "handshake"),
     "checks[0]: u must be a number, got 'nan'"),
    (lambda tmp, z2: _manifest_argv(tmp, z2, {}, {
        "family": "supergaussian", "p": True, "t": 2}, "part1"),
     "checks[0]: p must be a number, got True"),
    (lambda tmp, z2: _manifest_argv(tmp, z2, {}, {
        "family": "supergaussian", "p": 1, "t": "2"}, "part1"),
     "checks[0]: t must be a number, got '2'"),
    (lambda tmp, z2: _manifest_argv(tmp, z2, {}, {"v": ["0.1", 0.0]}),
     "checks[0]: v must be a list of numbers"),
    (lambda tmp, z2: ["theta", z2, "--family", "gaussian", "--v", "0.3"],
     "checks[0]: v must have shape (2,): the lattice needs 2 coordinates"),
    (lambda tmp, z2: _lattice_argv(tmp, {"dim": True, "basis": [[2.0]]}),
     "dim must be a positive integer, got True"),
    (lambda tmp, z2: _lattice_argv(tmp, {"dim": 2,
                                         "basis": [["1", 0], [0, 1]]}),
     "basis must be 2 rows of 2 numbers"),
    (lambda tmp, z2: _manifest_argv(tmp, z2, {}, {"lattice": {
        "kind": "basis", "basis": [["2", 0], [0, True]]}}),
     "checks[0]: inline lattice: basis must be 2 rows of 2 numbers"),
], ids=["zero-node-budget", "negative-grid-budget", "bool-budget", "nan-t",
        "infinite-v", "string-nan-tol", "string-nan-max-residual",
        "string-nan-t", "string-nan-u", "bool-p", "string-t", "string-v",
        "short-v", "bool-dim-file", "string-basis-file",
        "string-and-bool-inline-basis"])
def test_malformed_budgets_and_nan_are_usage_errors(run_cli, tmp_path, z2,
                                                    argv, named):
    code, out, err = run_cli(*argv(tmp_path, z2))
    assert code == 3
    assert "Traceback" not in err
    assert named in err
    assert out == ""  # refused while planning


def test_a_later_malformed_entry_stops_the_run_before_any_sum(
        run_cli, tmp_path, z2, monkeypatch):
    calls = []

    def spy(*args, _sum=verify.certified_sum, **kwargs):
        calls.append(args)
        return _sum(*args, **kwargs)
    monkeypatch.setattr(verify, "certified_sum", spy)
    theta = {"check_name": "theta", "params": {"family": "gaussian"}}
    for t, code in ((1.5, 0), ("nan", 3)):
        later = {"check_name": "theta", "params": {"family": "gaussian",
                                                   "t": t}}
        mp = _write_manifest(tmp_path / "man.json",
                             {"lattice_file": z2, "checks": [theta, later]})
        calls.clear()
        assert run_cli("verify", mp)[0] == code
        assert len(calls) == (2 if code == 0 else 0)


def test_a_request_too_large_for_memory_exits_four(run_cli, tmp_path,
                                                   monkeypatch):
    # a lattice too large to hold at planning, and samples too many to hold
    # at run time; whether numpy refuses such an allocation up front depends
    # on the machine's overcommit policy, so both sites are stood in for
    def eye(n, *args, _eye=np.eye, **kwargs):
        if n > 10_000:
            raise MemoryError(f"Unable to allocate an array of shape ({n}, {n})")
        return _eye(n, *args, **kwargs)

    class Generator:
        def __init__(self, seed):
            pass

        def normal(self, loc, scale, size):
            raise MemoryError(f"Unable to allocate an array of shape {size}")
    monkeypatch.setattr(np, "eye", eye)
    monkeypatch.setattr(functions.np.random, "default_rng", Generator)
    huge = _entry("theta", family="gaussian",
                  lattice={"kind": "integer", "dim": 1_000_000})
    many = _entry("hypotheses", family="gaussian", dim=2,
                  samples=100_000_000_000)
    for entry, shape in ((huge, "(1000000, 1000000)"),
                         (many, "(100000000000, 2)")):
        mp = _write_manifest(tmp_path / "man.json", {"checks": [entry]})
        code, out, err = run_cli("verify", mp)
        assert code == 4
        assert err.startswith("out of memory: ") and shape in err
        assert len(err.splitlines()) == 1 and out == ""


def test_verify_plot_csv(run_cli, tmp_path, z2):
    man = {"lattice_file": z2,
           "checks": [{"check_name": "tail_inequality",
                       "params": {"family": "gaussian", "tau": 1.0}}]}
    mp = _write_manifest(tmp_path / "man.json", man)
    csv = tmp_path / "curves.csv"
    code, _, _ = run_cli("verify", mp, "--plot-csv", str(csv))
    assert code == 0
    lines = csv.read_text().splitlines()
    assert lines[0] == "check_index,lattice_id,family,radius,tail_mass_upper,bound"
    assert len(lines) == 25  # 24 radii for the single tail check


def test_plot_csv_quotes_a_name_with_a_comma(run_cli, tmp_path):
    name = 'Z,2 "sq"'
    lattice = {"kind": "basis", "basis": [[1.0, 0.0], [0.0, 1.0]],
               "name": name}
    man = {"checks": [{"check_name": "tail_inequality",
                       "params": {"family": "gaussian", "tau": 1.0,
                                  "lattice": lattice}}]}
    out = tmp_path / "curves.csv"
    code, _, _ = run_cli("verify", _write_manifest(tmp_path / "man.json", man),
                         "--plot-csv", str(out))
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 25 and {len(row) for row in rows} == {6}
    assert {row[1] for row in rows[1:]} == {name}


def test_plot_csv_with_an_empty_sweep_ball(run_cli, tmp_path, z2):
    # the sweep ball, radius 1.75 * 0.1 around (1/2, 1/2), holds no point
    man = {"lattice_file": z2,
           "checks": [{"check_name": "tail_inequality",
                       "params": {"family": "gaussian", "radius": 0.1,
                                  "v": [0.5, 0.5]}}]}
    csv = tmp_path / "curves.csv"
    code, _, _ = run_cli("verify", _write_manifest(tmp_path / "man.json", man),
                         "--plot-csv", str(csv))
    assert code == 0
    assert len(csv.read_text().splitlines()) == 25


@pytest.mark.parametrize("samples", [0, -3, 2.5, True])
def test_hypotheses_samples_checked_before_running(run_cli, tmp_path, z2,
                                                   samples):
    man = {"lattice_file": z2,
           "checks": [{"check_name": "theta", "params": {"family": "gaussian"}},
                      {"check_name": "hypotheses",
                       "params": {"family": "gaussian", "dim": 2,
                                  "samples": samples}}]}
    code, out, err = run_cli("verify", _write_manifest(tmp_path / "man.json",
                                                       man))
    assert code == 3
    assert "checks[1]" in err and "samples" in err
    assert out == ""  # nothing executed


def _entry(check_name, **params):
    return {"check_name": check_name, "params": params}


@pytest.mark.parametrize("what, top, entry", [
    ("manifest 'seed'", {"seed": 3.5}, _entry("theta", family="gaussian")),
    ("lattice 'dim'", {}, _entry("theta", family="gaussian",
                                 lattice={"kind": "integer", "dim": 2.7})),
    ("lattice 'dim'", {}, _entry("theta", family="gaussian",
                                 lattice={"kind": "integer", "dim": True})),
    ("lattice 'seed'", {}, _entry("theta", family="gaussian",
                                  lattice={"kind": "unimodular", "dim": 2,
                                           "seed": 3.5})),
    ("hypotheses 'dim'", {}, _entry("hypotheses", family="gaussian",
                                    dim=2.0)),
    ("hypotheses 'seed'", {}, _entry("hypotheses", family="gaussian", dim=2,
                                     seed=3.5)),
    ("resolution", {}, _entry("transference", p=2, resolution=8.9)),
], ids=["manifest-seed", "float-dim", "bool-dim", "lattice-seed",
        "hypotheses-dim", "hypotheses-seed", "resolution"])
def test_non_integer_manifest_integers_are_refused(run_cli, tmp_path, z2,
                                                   what, top, entry):
    # a float or a bool where the manifest needs an integer is refused, not
    # truncated, before any check runs
    man = {"lattice_file": z2, **top, "checks": [entry]}
    code, out, err = run_cli("verify", _write_manifest(tmp_path / "man.json",
                                                       man))
    assert code == 3
    assert out == ""
    assert f"{what} must be an integer" in err


_EYE2 = [[1.0, 0.0], [0.0, 1.0]]


@pytest.mark.parametrize("what, top, ref", [
    ("'output' must be a path", {"output": 5}, None),
    ("lattice name must be a string", {},
     {"kind": "basis", "basis": _EYE2, "name": 5}),
    ("lattice name must be a string", {}, "named.json"),
], ids=["output", "inline-name", "file-name"])
def test_non_string_output_and_names_are_refused(run_cli, tmp_path, z2, what,
                                                 top, ref):
    # a number where the manifest needs a path or a name is refused before
    # any check runs, not a TypeError once the report or the csv is written
    (tmp_path / "named.json").write_text(json.dumps(
        {"dim": 2, "basis": _EYE2, "name": 5}))
    entry = _entry("tail_inequality", family="gaussian", radius=1.0,
                   **({"lattice": ref} if ref else {}))
    man = {"lattice_file": z2, **top, "checks": [entry]}
    code, out, err = run_cli("verify", _write_manifest(tmp_path / "man.json",
                                                       man),
                             "--plot-csv", str(tmp_path / "curves.csv"))
    assert code == 3
    assert out == ""
    assert what in err


@pytest.mark.parametrize("argv, expected", [
    (("kissing", "{z2}", "--p", "2", "--u", "30"), 0),
    (("constants", "--u", "30"), 0),
    (("tail", "{z2}", "--family", "inv_cosh_product", "--alpha", "1e160"), 3),
], ids=["kissing", "constants", "tail"])
def test_overflowing_bounds_exit_without_traceback(z2, argv, expected):
    # a cap past the floats is +inf and the tail coefficient underflows to
    # 0.0, so neither raises; a ball that large is then refused in tail
    code, out, err = run_module(*(a.format(z2=z2) for a in argv))
    assert code == expected
    assert "Traceback" not in err
    if argv[0] == "kissing":
        assert get_field(out, "bound") == "inf"
    if argv[0] == "constants":
        assert out.splitlines()[-1].endswith(" inf")
    if argv[0] == "tail":
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")


def _diag(*d):
    return {"kind": "basis", "basis": [[x if i == j else 0.0
                                        for j in range(len(d))]
                                       for i, x in enumerate(d)]}


def _verify_one(run_cli, tmp_path, name, params):
    """(exit code, stderr, report) of `latbounds verify` on one entry."""
    man = _write_manifest(tmp_path / "m.json",
                          {"checks": [{"check_name": name, "params": params}],
                           "output": "r.json"})
    code, _, err = run_cli("verify", man)
    report = tmp_path / "r.json"
    return code, err, json.loads(report.read_text()) if code <= 2 else None


def _sheared_pair(a, b):
    """The basis rows (a, a) and (0, b): for b far from a multiple of a, a
    lattice that is not split, so its certified sums search it."""
    return {"kind": "basis", "basis": [[a, a], [0.0, b]]}


def test_tiny_tail_past_the_floats_is_certified(run_cli, tmp_path):
    # beta |c|^2 and beta (S - reach)^2 both leave the floats here: the tail
    # is taken in logs, and beta (w0 - E|c|^2) tells the two apart, so the
    # sum certifies instead of calling its tail unreachable; its bound, below
    # every float, is the least subnormal, not 0
    coarse = _sheared_pair(1e150, 2e150)
    code, _, report = _verify_one(run_cli, tmp_path, "theta", {
        "family": "gaussian", "t": 1e-5, "tol": 1e-9, "lattice": coarse})
    assert code == 0
    (rec,) = report["records"]
    assert rec["partial"] == 1.0 and rec["remainder_bound"] == math.ulp(0.0)
    # the other points' terms, past the floats, add nothing to the rounding
    assert 0 < rec["rounding"] < 1e-13
    # psf's dual side, t L*, is too fine to count: a usage error, not an
    # unreachable tail
    code, err, _ = _verify_one(run_cli, tmp_path, "psf", {
        "family": "gaussian", "t": 1e-5, "tol": 1e-9, "max_residual": 1.0,
        "lattice": coarse})
    assert code == 3 and "2^52" in err
    # here the ball of radius reach holds ~1e10 points along the short
    # axis: the node budget stops it (exit 4), past the tail presolve
    params = {"family": "gaussian", "t": 1.19e-7, "tol": 1e-9,
              "max_residual": 1.0, "lattice": _sheared_pair(2.36e139, 2e150)}
    code, err, _ = _verify_one(run_cli, tmp_path, "psf", params)
    assert code == 4 and "budget" in err and "tail presolve" not in err
    # shifted by (1, 0.5), every term near the shift is below the least
    # float, e^{-2.8e14}: no relative tolerance can be met
    code, err, _ = _verify_one(run_cli, tmp_path, "psf",
                               {**params, "v": [1.0, 0.5]})
    assert code == 4 and "tail presolve: every term" in err


def test_theta_on_a_ball_past_the_floats_squared(run_cli, tmp_path):
    # the ball's radius, about 2.4e155, squared leaves the floats: the
    # search runs scaled by a power of two and certifies its 37 points
    path = tmp_path / "coarse.json"
    save_lattice(Lattice([[1.3e154]]), path)
    code, out, _ = run_cli("theta", str(path), "--family", "supergaussian",
                           "--p", "1.99", "--t", "5e154", "--v", "0")
    assert code == 0
    assert get_field(out, "npoints") == "37"


def test_underflowing_terms_name_the_underflow(run_cli, tmp_path):
    # shifted this far, every term near the shift is 0 in floats: no
    # relative tolerance is reachable, and the message says why
    code, err, _ = _verify_one(run_cli, tmp_path, "theta", {
        "family": "gaussian", "t": 1e-5, "v": [3e149, 1e149],
        "lattice": _diag(1e150, 2e150)})
    assert code == 4
    assert "underflows to 0 in floats" in err and "tail presolve" in err


@pytest.mark.parametrize("params", [
    {"family": "gaussian", "radius": 1e300},
    {"family": "supergaussian", "p": 1.5, "tscale": 1e300},
    # sqrt(pi) radius, the radius of e^{-s^2}, is past the floats already
    {"family": "gaussian", "radius": 1.7e308},
])
def test_out_of_range_body_names_its_radius(run_cli, tmp_path, params):
    code, err, _ = _verify_one(run_cli, tmp_path, "tail_inequality", {
        **params, "lattice": {"kind": "integer", "dim": 2}})
    assert code == 3
    lines = err.splitlines()
    assert len(lines) == 1 and "radius" in lines[0]
    assert "out of range" in lines[0] and "Numerical result" not in lines[0]


def test_far_shift_is_refused(run_cli, z2):
    # floats near 1e17 are 16 apart: the coefficients cannot be counted
    code, _, err = run_cli("theta", z2, "--family", "gaussian",
                           "--v", "1e17,0.5")
    assert code == 3
    assert "2^52" in err


def test_huge_shift_exits_three_without_traceback(z2):
    # a subprocess: log_f overflows at this shift, and the RuntimeWarning
    # stays a warning there
    code, _, err = run_module("theta", z2, "--family", "gaussian",
                              "--v", "1e308,1e308")
    assert code == 3
    assert "Traceback" not in err and "2^52" in err
    # refused when planned, before log_f can overflow and warn
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("p", ["3e-4", "1e-5"])
def test_tiny_p_is_refused_without_traceback(z2, p):
    # e^{-|x|^p} decays too slowly for any finite truncation radius: the
    # tail presolve refuses it with one line (exit 4), as at p = 0.01
    code, out, err = run_module("theta", z2, "--family", "supergaussian",
                                "--p", p)
    assert code == 4
    assert out == ""
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and "tail presolve" in lines[0]


def test_tiny_p_table_is_refused_without_traceback(z2):
    # 2 Gamma(1 + 1/p), fhat_p(0), overflows a float below p = 1/170: the
    # asymptote check of psf_product_diagonal refuses it (exit 3), as at
    # p = 0.01
    code, out, err = run_module("psf", z2, "--family", "supergaussian",
                                "--p", "1e-3")
    assert code == 3
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and "pre-asymptotic" in lines[0]


@pytest.mark.parametrize("v", ["inf,0", "1e200,0"])
def test_bad_shift_is_refused_before_any_evaluation(z2, v):
    # a subprocess, so that a RuntimeWarning would show on stderr
    code, out, err = run_module("theta", z2, "--family", "gaussian",
                                f"--v={v}")
    assert code == 3
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def test_a_check_loads_no_scipy(z2):
    # the certified tail needs no special-function library, so neither the
    # import nor a check may load one
    script = ("import sys\n"
              "import latbounds.cli\n"
              "code = latbounds.cli.main(['theta', sys.argv[1], '--family', "
              "'gaussian', '--v', '0.2,-0.1'])\n"
              "assert code == 0, code\n"
              "print(sorted(m for m in sys.modules "
              "if m.split('.')[0] == 'scipy'))\n")
    cp = subprocess.run([sys.executable, "-c", script, z2],
                        capture_output=True, text=True)
    assert cp.returncode == 0, cp.stderr
    assert cp.stdout.splitlines()[-1] == "[]"


def test_plot_csv_sweep_keeps_manifest_node_budget(tmp_path, z2):
    man = {"lattice_file": z2,
           "checks": [{"check_name": "tail_inequality",
                       "params": {"family": "gaussian", "tau": 1.0}}]}
    records = [run() for run in plan_manifest(man, str(tmp_path))]
    plans = plan_manifest({**man, "budgets": {"nodes": 3}}, str(tmp_path))
    with pytest.raises(BudgetExceededError) as exc:
        _write_plot_csv(tmp_path / "curves.csv", plans, records)
    assert exc.value.budget == 3


@pytest.mark.parametrize("params", [
    {"family": "gaussian", "tau": 1.0,
     "lattice": {"kind": "integer", "dim": 2}},
    {"family": "gaussian", "tau": 1.2, "v": "random",
     "lattice": {"kind": "unimodular", "dim": 3, "seed": 5}},
    {"family": "supergaussian", "p": 1.0, "tscale": 1.3, "v": [0.2, -0.1],
     "lattice": {"kind": "integer", "dim": 2}},
], ids=["Z2", "sheared-Z3", "l1-supergaussian"])
def test_plot_csv_sweep_reads_the_records(tmp_path, monkeypatch, params):
    man = {"seed": 4, "checks": [{"check_name": "tail_inequality",
                                  "params": params}]}
    plans = plan_manifest(man, str(tmp_path))
    records = [run() for run in plans]

    def no_sum(*args, **kwargs):
        raise AssertionError("the sweep re-ran a certified sum")
    with monkeypatch.context() as mp:
        mp.setattr(verify, "certified_sum", no_sum)
        _write_plot_csv(tmp_path / "curves.csv", plans, records)
    rows = [line.split(",") for line in
            (tmp_path / "curves.csv").read_text().splitlines()[1:]]

    # brute force: the shifted sum's upper end minus one fsum of the points
    # inside each radius, and the coefficient there times the full sum
    L, spec, body, v, _ = plans[0].args[:5]
    shifted = verify.certified_sum(L, spec, v, 1.0, 1e-9)
    full = verify.certified_sum(L, spec, np.zeros(L.dim), 1.0, 1e-9)
    _, emb = enumerate_arrays(L, v, 1.75 * body.radius, body.p)
    norms = lp_norm(emb + v, body.p)
    vals = np.exp(log_f(spec, emb + v))
    radii = np.linspace(0.25 * body.radius, 1.75 * body.radius, 24)
    assert len(rows) == len(radii)
    for row, radius in zip(rows, radii):
        assert row[:4] == ["0", L.name, spec.label, _fmt(radius)]
        tail = shifted.interval().hi - math.fsum(vals[norms <= radius])
        assert abs(float(row[4]) - tail) <= 1e-10 * max(abs(tail), 1e-3)
        try:
            nu = nu_for_body(spec, BodySpec(body.p, float(radius)), L.dim)
        except ValueError:
            assert row[5] == ""
            continue
        bound = nu.value * full.partial
        assert abs(float(row[5]) - bound) <= 1e-11 * bound


def test_plot_csv_with_a_zero_coefficient(run_cli, tmp_path, z1):
    # nu underflows to 0 at tau = 1000 on Z^1, so the check's rhs is
    # [0, 0] and no bound can be scaled from it
    man = {"lattice_file": z1,
           "checks": [{"check_name": "tail_inequality",
                       "params": {"family": "gaussian", "tau": 1000.0}}]}
    csv = tmp_path / "curves.csv"
    code, _, err = run_cli("verify", _write_manifest(tmp_path / "man.json",
                                                     man),
                           "--plot-csv", str(csv))
    assert code == 2 and err == ""
    rows = csv.read_text().splitlines()[1:]
    assert len(rows) == 24 and all(row.endswith(",") for row in rows)


def test_part3_needs_no_transform_table(tmp_path, monkeypatch):
    # part3 sums its dual side on the primal lattice, so a fractional-p
    # supergaussian plans and runs without building a table
    def no_table(*args, **kwargs):
        raise AssertionError("part3 built a transform table")
    monkeypatch.setattr(cli, "build_transform_table", no_table)
    man = {"seed": 3,
           "checks": [{"check_name": "part3",
                       "params": {"family": "supergaussian", "p": 1.5,
                                  "radius": 1.9, "v": "random",
                                  "lattice": {"kind": "basis",
                                              "basis": [[2.0, 0.0], [0.0, 2.0]],
                                              "name": "2Z^2"}}}]}
    records = [run() for run in plan_manifest(man, str(tmp_path))]
    assert records[0]["verdict"] == "PASS"


def test_exact_route_near_p1_builds_no_table(tmp_path, monkeypatch):
    # a p within 1e-12 of 1 takes the rational route in eval_fhat and psf,
    # so planning must not build a table that nothing would read
    def no_table(*args, **kwargs):
        raise AssertionError("built a transform table nothing reads")
    monkeypatch.setattr(cli, "build_transform_table", no_table)
    p = 1.0 + 1e-13
    man = {"seed": 3,
           "checks": [{"check_name": "psf",
                       "params": {"family": "supergaussian", "p": p,
                                  "t": 1.5, "v": "random", "tol": 1e-9,
                                  "max_residual": 1e-8,
                                  "lattice": {"kind": "integer", "dim": 2}}},
                      {"check_name": "hypotheses",
                       "params": {"family": "supergaussian", "p": p,
                                  "dim": 2, "samples": 500}}]}
    records = [run() for run in plan_manifest(man, str(tmp_path))]
    assert [rec["verdict"] for rec in records] == ["PASS", "PASS"]


def test_manifest_builds_each_table_once(tmp_path, monkeypatch):
    # two hypotheses entries with the same p read the same table
    built = []
    monkeypatch.setattr(cli, "build_transform_table",
                        lambda p, **kwargs: built.append(p) or object())
    man = {"seed": 3,
           "checks": [{"check_name": "hypotheses",
                       "params": {"family": "supergaussian", "p": 1.5,
                                  "dim": 2}},
                      {"check_name": "hypotheses",
                       "params": {"family": "supergaussian", "p": 1.5,
                                  "dim": 3}}]}
    assert len(plan_manifest(man, str(tmp_path))) == 2
    assert built == [1.5]


def test_fractional_psf_builds_no_table(tmp_path, monkeypatch):
    # psf evaluates fhat_p at the exact dual points, so neither its plan
    # nor its run builds a table
    def no_table(*args, **kwargs):
        raise AssertionError("psf built a transform table")
    monkeypatch.setattr(cli, "build_transform_table", no_table)
    man = {"seed": 3,
           "checks": [{"check_name": "psf",
                       "params": {"family": "supergaussian", "p": 1.5,
                                  "v": "random", "tol": 1e-3,
                                  "max_residual": 1e-3,
                                  "lattice": {"kind": "integer", "dim": 2}}}]}
    records = [run() for run in plan_manifest(man, str(tmp_path))]
    assert records[0]["verdict"] == "PASS"


@pytest.mark.parametrize("family, p", [("supergaussian", 1.5),
                                       ("exp_l1", None)])
def test_psf_product_route_refuses_general_basis_at_plan_time(
        run_cli, tmp_path, monkeypatch, family, p):
    # the product routes sum a diagonal dual only; planning must say so
    # before it builds a table the check could never read.  A coupling far
    # below the basis's scale is a coupling too: dropping it is not exact
    def no_table(*args, **kwargs):
        raise AssertionError("built a transform table nothing reads")
    monkeypatch.setattr(cli, "build_transform_table", no_table)
    for lattice in ({"kind": "unimodular", "dim": 2, "seed": 3},
                    {"kind": "basis", "basis": [[1.0, 1e-13], [0.0, 1.0]]}):
        params = {"family": family, "t": 1.5, "v": "random", "tol": 1e-6,
                  "max_residual": 1e-3, "lattice": lattice}
        if p is not None:
            params["p"] = p
        man = {"seed": 3, "checks": [{"check_name": "psf", "params": params}]}
        with pytest.raises(cli.ManifestError, match="only diagonal lattices"):
            plan_manifest(man, str(tmp_path))
        code, out, err = run_cli("verify", _write_manifest(
            tmp_path / "m.json", man))
        assert code == 3
        assert "only diagonal lattices are supported" in err
        assert out == ""


def test_main_callable_in_process(capsys, z1):
    # the entry point returns exit codes rather than raising SystemExit
    code = main(["theta", z1, "--family", "gaussian"])
    assert code == 0
    out = capsys.readouterr().out
    assert "partial" in out


def test_inline_lattice_kinds(run_cli, tmp_path):
    man = {"seed": 1,
           "checks": [
               {"check_name": "theta",
                "params": {"family": "gaussian",
                           "lattice": {"kind": "integer", "dim": 2}}},
               {"check_name": "theta",
                "params": {"family": "gaussian",
                           "lattice": {"kind": "unimodular", "dim": 2,
                                       "seed": 3}}},
               {"check_name": "theta",
                "params": {"family": "gaussian",
                           "lattice": {"kind": "basis",
                                       "basis": [[2.0, 0.0], [1.0, 1.0]],
                                       "name": "sheared"}}}]}
    mp = _write_manifest(tmp_path / "man.json", man)
    code, out, _ = run_cli("verify", mp)
    assert code == 0
    assert "sheared" in out


def test_lattice_file_resolved_relative_to_manifest(run_cli, tmp_path):
    save_lattice(integer_lattice(1), tmp_path / "local.json")
    man = {"lattice_file": "local.json",
           "checks": [{"check_name": "theta",
                       "params": {"family": "gaussian"}}]}
    mp = _write_manifest(tmp_path / "man.json", man)
    code, _, _ = run_cli("verify", mp)
    assert code == 0


@pytest.mark.parametrize("argv, check_name, params", [
    (["theta", "--family", "gaussian", "--t", "1.5", "--v", "0.1,-0.2"],
     "theta", {"family": "gaussian", "t": 1.5, "v": [0.1, -0.2]}),
    (["psf", "--family", "inv_cosh_product", "--t", "1.5", "--v", "0.2,0.3",
      "--max-residual", "1e-8"],
     "psf", {"family": "inv_cosh_product", "t": 1.5, "v": [0.2, 0.3],
             "max_residual": 1e-8}),
    (["tail", "--family", "gaussian", "--radius", "1.3", "--v", "0.4,0.1"],
     "tail_inequality", {"family": "gaussian", "radius": 1.3, "v": [0.4, 0.1]}),
    (["transference", "--p", "1", "--resolution", "32"],
     "transference", {"p": 1, "resolution": 32}),
    (["kissing", "--p", "2", "--u", "1.5"],
     "handshake", {"p": 2, "u": 1.5}),
])
def test_one_shot_prints_the_verify_record(run_cli, tmp_path, z2, argv,
                                           check_name, params):
    code, out, _ = run_cli(argv[0], z2, *argv[1:])
    mp = _write_manifest(tmp_path / "man.json", {
        "lattice_file": z2,
        "checks": [{"check_name": check_name, "params": params}]})
    rep_path = tmp_path / "report.json"
    assert run_cli("verify", mp, "--output", str(rep_path))[0] == code
    rec = json.loads(rep_path.read_text())["records"][0]
    expected = [*rec["params"].items(),
                *((k, v) for k, v in rec.items()
                  if k not in ("check", "lattice_id", "params"))]
    printed = [line.split() for line in out.splitlines()]
    assert [row[0] for row in printed] == [k for k, _ in expected]
    for row, (key, val) in zip(printed, expected):
        vals = val if isinstance(val, list) else [val]
        assert row[1:] == [x if isinstance(x, str) else _fmt(x) for x in vals]


@pytest.mark.parametrize("argv, lines", [
    (["theta", "--family", "supergaussian", "--p", "1.5", "--v", "0.1,-0.2"],
     {"p": ["1.5"], "v": ["0.1", "-0.2"]}),
    (["transference", "--p", "2", "--resolution", "16"],
     {"resolution": ["16"]}),
    (["psf", "--family", "supergaussian", "--p", "2", "--t", "1.5"],
     {"p": ["2"]}),
])
def test_one_shot_prints_every_param_that_shapes_the_numbers(run_cli, z2,
                                                             argv, lines):
    code, out, _ = run_cli(argv[0], z2, *argv[1:])
    assert code == 0
    for name, vals in lines.items():
        assert get_fields(out, name) == vals


def test_psf_without_threshold_passes(run_cli, z2):
    code, out, _ = run_cli("psf", z2, "--family", "gaussian", "--t", "1.5")
    assert code == 0
    assert get_field(out, "max_residual") == "inf"
    assert get_field(out, "verdict") == "PASS"


def test_entries_naming_one_lattice_share_it(tmp_path, z2, monkeypatch):
    # a transference plan hands its lattice to transference_check, so a
    # stand-in whose record is that lattice shows which object each got
    class Report:
        def __init__(self, L, *args, **kwargs):
            self.record = lambda: L
    monkeypatch.setattr(cli, "transference_check", Report)
    sheared = [[2.0, 0.0], [1.0, 1.0]]
    refs = [None, z2, {"kind": "unimodular", "dim": 2, "seed": 3},
            {"seed": 3, "dim": 2, "kind": "unimodular"},
            {"kind": "basis", "basis": sheared, "name": "a"},
            {"kind": "basis", "basis": sheared, "name": "b"}]
    checks = [_entry("transference", p=2, **({"lattice": ref} if ref else {}))
              for ref in refs for _ in range(2)]
    plans = plan_manifest({"lattice_file": z2, "checks": checks},
                          str(tmp_path))
    got = [plan() for plan in plans]
    assert all(L is twin for L, twin in zip(got[::2], got[1::2]))
    default, path, uni, uni_reordered, a, b = got[::2]
    assert uni is uni_reordered
    assert (a.name, b.name) == ("a", "b")
    assert len({id(L) for L in (default, path, uni, a, b)}) == 5


def test_acceptance_round_sums_each_unshifted_ball_once(acceptance_manifest,
                                                        monkeypatch):
    # the right side of every tail and part 1 check on one lattice,
    # function, t and tol is one kept certified sum: in a round of the
    # shipped manifest no unshifted one-column ball is truncated and summed
    # twice, exp_l1 being the p = 1 supergaussian.  Every lattice of the
    # manifest is split, so its sums are products of 1-D ones, and the round
    # makes 125 passes over 1,651 points (108 over 63,463 when its sums
    # searched their n-D balls, 131,049 points when each check summed its
    # own).  Its fixed costs are paid once: the certified tail is evaluated
    # at most 250 times (761 before it was memoized, for 234 distinct
    # arguments), the cell bounds once per reduced lattice and q, and no
    # 1-D ball runs the n-D search
    unshifted, points, cells, searched = [], [], [], []

    def sums(L, spec, v, t, tol, budget, terms, _run=verify._sums):
        S, tail, cols, rounding, n = _run(L, spec, v, t, tol, budget, terms)
        if not np.any(v) and len(cols) == 1:
            f = (("supergaussian", spec.dim, 1.0) if spec.family == "exp_l1"
                 else (spec.family, spec.dim, spec.p))
            unshifted.append((id(L), f, t, tol, budget))
        return S, tail, cols, rounding, n

    def ball_sums(*args, _run=verify._ball_sums):
        cols, n = _run(*args)
        points.append(n)
        return cols, n
    def cell_bounds(basis, q, _run=verify._cell_bounds):
        cells.append((id(basis), q))
        return _run(basis, q)

    def enum_coeffs(basis, *args, _run=enumeration._enum_coeffs):
        searched.append(basis.shape[0])
        return _run(basis, *args)
    monkeypatch.setattr(verify, "_sums", sums)
    monkeypatch.setattr(verify, "_ball_sums", ball_sums)
    monkeypatch.setattr(verify, "_cell_bounds", cell_bounds)
    monkeypatch.setattr(enumeration, "_enum_coeffs", enum_coeffs)
    verify._log_tail.cache_clear()
    manifest = cli.read_manifest(str(acceptance_manifest))
    plans = plan_manifest(manifest, str(acceptance_manifest.parent))
    assert all(run()["verdict"] == cli.PASS for run in plans)
    assert unshifted and len(set(unshifted)) == len(unshifted)
    assert len(points) == 125 and sum(points) == 1_651
    assert verify._log_tail.cache_info().misses <= 250
    assert cells and len(set(cells)) == len(cells)
    assert 1 not in searched
