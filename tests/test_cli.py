import json
import subprocess
import sys

import numpy as np
import pytest

import latbounds.cli as cli
import latbounds.transform as transform
from latbounds.cli import _fmt, _write_plot_csv, main, plan_manifest
from latbounds.errors import BudgetExceededError
from latbounds.lattice import integer_lattice, save_lattice


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


def test_verify_failing_check_exits_one(run_cli, tmp_path, z1):
    man = {"lattice_file": z1,
           "checks": [{"check_name": "psf",
                       "params": {"family": "exp_l1", "tol": 1e-6,
                                  "max_residual": 1e-30}}]}
    mp = _write_manifest(tmp_path / "man.json", man)
    code, out, _ = run_cli("verify", mp)
    assert code == 1
    assert "fail=1" in out


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


def _manifest_argv(tmp_path, z2, budgets, params):
    man = {"lattice_file": z2, "budgets": budgets,
           "checks": [{"check_name": "theta",
                       "params": {"family": "gaussian", **params}}]}
    return ["verify", _write_manifest(tmp_path / "man.json", man)]


@pytest.mark.parametrize("argv", [
    lambda tmp, z2: ["theta", z2, "--family", "gaussian",
                     "--node-budget", "0"],
    lambda tmp, z2: ["transference", z2, "--p", "2", "--grid-budget", "-1"],
    lambda tmp, z2: _manifest_argv(tmp, z2, {"nodes": True}, {}),
    lambda tmp, z2: _manifest_argv(tmp, z2, {}, {"t": float("nan")}),
], ids=["zero-node-budget", "negative-grid-budget", "bool-budget", "nan-t"])
def test_malformed_budgets_and_nan_are_usage_errors(run_cli, tmp_path, z2,
                                                    argv):
    code, _, err = run_cli(*argv(tmp_path, z2))
    assert code == 3
    assert "Traceback" not in err


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


def test_plot_csv_sweep_keeps_manifest_node_budget(tmp_path, z2):
    man = {"lattice_file": z2, "budgets": {"nodes": 3},
           "checks": [{"check_name": "tail_inequality",
                       "params": {"family": "gaussian", "tau": 1.0}}]}
    plans = plan_manifest(man, str(tmp_path))
    with pytest.raises(BudgetExceededError) as exc:
        _write_plot_csv(tmp_path / "curves.csv", plans)
    assert exc.value.budget == 3


def test_part3_needs_no_transform_table(tmp_path, monkeypatch):
    # part3 sums its dual side on the primal lattice, so a fractional-p
    # supergaussian plans and runs without building or caching a table
    def no_table(*args, **kwargs):
        raise AssertionError("part3 built a transform table")
    monkeypatch.setattr(cli, "cached_transform_table", no_table)
    tables = tmp_path / "tables"
    tables.mkdir()
    man = {"seed": 3, "table_dir": str(tables),
           "checks": [{"check_name": "part3",
                       "params": {"family": "supergaussian", "p": 1.5,
                                  "radius": 1.9, "v": "random",
                                  "lattice": {"kind": "basis",
                                              "basis": [[2.0, 0.0], [0.0, 2.0]],
                                              "name": "2Z^2"}}}]}
    records = [run() for run in plan_manifest(man, str(tmp_path))]
    assert records[0]["verdict"] == "PASS"
    assert list(tmp_path.rglob("*")) == [tables]


def test_exact_route_near_p1_builds_no_table(tmp_path, monkeypatch):
    # a p within 1e-12 of 1 takes the rational route in eval_fhat and psf,
    # so planning must not build a table that nothing would read
    def no_table(*args, **kwargs):
        raise AssertionError("built a transform table nothing reads")
    monkeypatch.setattr(cli, "cached_transform_table", no_table)
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
    # a psf and a hypotheses entry with the same p read the same table
    built = []
    monkeypatch.setattr(transform, "build_transform_table",
                        lambda p, **kwargs: built.append(p) or object())
    man = {"seed": 3,
           "checks": [{"check_name": "psf",
                       "params": {"family": "supergaussian", "p": 1.5,
                                  "max_residual": 1e-6,
                                  "lattice": {"kind": "integer", "dim": 1}}},
                      {"check_name": "hypotheses",
                       "params": {"family": "supergaussian", "p": 1.5,
                                  "dim": 3}}]}
    assert len(plan_manifest(man, str(tmp_path))) == 2
    assert built == [1.5]


@pytest.mark.parametrize("family, p", [("supergaussian", 1.5),
                                       ("exp_l1", None)])
def test_psf_product_route_refuses_general_basis_at_plan_time(
        run_cli, tmp_path, monkeypatch, family, p):
    # the product routes sum a diagonal dual only; planning must say so
    # before it builds a table the check could never read
    def no_table(*args, **kwargs):
        raise AssertionError("built a transform table nothing reads")
    monkeypatch.setattr(cli, "cached_transform_table", no_table)
    params = {"family": family, "t": 1.5, "v": "random", "tol": 1e-6,
              "max_residual": 1e-3,
              "lattice": {"kind": "unimodular", "dim": 2, "seed": 3}}
    if p is not None:
        params["p"] = p
    man = {"seed": 3, "checks": [{"check_name": "psf", "params": params}]}
    with pytest.raises(cli.ManifestError, match="only diagonal lattices"):
        plan_manifest(man, str(tmp_path))
    code, out, err = run_cli("verify", _write_manifest(tmp_path / "m.json",
                                                       man))
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

