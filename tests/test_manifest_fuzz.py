"""Manifests with extreme finite numbers, and lattice names of any JSON
type, run through ``main`` in process.

Every entry must end in an exit code of the contract (0 PASS, 1 FAIL,
2 inconclusive, 3 usage, 4 budget), never in an exception escaping
``main``.  Tier-1 turns a RuntimeWarning into an error, so an overflow or a
NaN in array code also fails here.  Budgets are small (10^5 nodes, 10^4
covering centres) so that every entry ends quickly.
"""

import contextlib
import io
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from latbounds import verify
from latbounds.cli import main

EXIT_CODES = {0, 1, 2, 3, 4}

# magnitudes from 1e-300 to 1e300 of either sign, next to plain values
_magnitudes = st.floats(-300, 300).map(lambda e: 10.0 ** e)
NUMBERS = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0]),
                    st.floats(-10, 10), _magnitudes,
                    _magnitudes.map(lambda x: -x))
FAMILIES = st.sampled_from(["gaussian", "supergaussian", "exp_l1",
                            "sech_product", "inv_cosh_product"])
P_VALUES = st.one_of(st.sampled_from([0.5, 1.0, 1.5, 2.0]),
                     st.floats(0.05, 2.0), NUMBERS)
# lattice names: a string, or a JSON value that is not one
NAMES = st.one_of(st.none(), st.sampled_from(["a", ""]), st.integers(-5, 5),
                  st.booleans(), NUMBERS, st.lists(st.integers(0, 3),
                                                   max_size=2))


@st.composite
def lattices(draw):
    dim = draw(st.integers(1, 3))
    if draw(st.booleans()):
        return dim, {"kind": "integer", "dim": dim}
    diag = [draw(st.sampled_from([-1.0, 1.0]))
            * 10.0 ** draw(st.floats(-150, 150)) for _ in range(dim)]
    basis = [[diag[i] if i == j else 0.0 for j in range(dim)]
             for i in range(dim)]
    lattice = {"kind": "basis", "basis": basis}
    name = draw(NAMES)
    if name is not None:
        lattice["name"] = name
    return dim, lattice


@st.composite
def entries(draw):
    name = draw(st.sampled_from(["theta", "part1", "tail_inequality", "part3",
                                 "psf", "transference", "handshake",
                                 "hypotheses"]))
    if name == "hypotheses":
        params = {"family": draw(FAMILIES), "dim": draw(st.integers(1, 3)),
                  "samples": draw(st.integers(1, 200))}
        if params["family"] == "supergaussian":
            params["p"] = draw(P_VALUES)
        return {"check_name": name, "params": params}
    dim, lattice = draw(lattices())
    params = {"lattice": lattice}
    if name == "transference":
        params.update(p=draw(st.sampled_from([1, 2])),
                      resolution=draw(st.integers(1, 8)))
    elif name == "handshake":
        params.update(p=draw(P_VALUES), u=draw(NUMBERS))
    else:
        params.update(family=draw(FAMILIES), tol=draw(NUMBERS),
                      v=draw(st.one_of(
                          st.just(0), st.just("random"),
                          st.lists(NUMBERS, min_size=dim, max_size=dim))))
        if params["family"] == "supergaussian":
            params["p"] = draw(P_VALUES)
        if name in ("theta", "part1", "psf"):
            params["t"] = draw(NUMBERS)
        if name == "psf":
            params["max_residual"] = draw(NUMBERS)
        if name in ("tail_inequality", "part3"):
            key = draw(st.sampled_from(["radius", "tau", "tscale", "alpha"]))
            params[key] = draw(NUMBERS)
    return {"check_name": name, "params": params}


def _run(tmp_dir, entry):
    """(exit code, stderr) of `latbounds verify` on a one-entry manifest,
    with a --plot-csv sweep, run in process."""
    manifest = tmp_dir / "manifest.json"
    manifest.write_text(json.dumps(
        {"budgets": {"nodes": 100_000, "grid": 10_000}, "checks": [entry]}))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = main(["verify", str(manifest),
                     "--plot-csv", str(tmp_dir / "curves.csv")])
    return code, err.getvalue()


def _z2(**params):
    return {"lattice": {"kind": "integer", "dim": 2}, **params}


# inputs that once escaped main with a traceback, each now exit 3
OUT_OF_RANGE = [
    ("tail_inequality", _z2(family="gaussian", radius=1e300)),
    ("part3", _z2(family="gaussian", radius=1e300)),
    ("tail_inequality", _z2(family="supergaussian", p=1.5, tscale=1e300)),
    ("theta", _z2(family="gaussian", t=1e-300)),
    ("theta", _z2(family="gaussian", t=1e300)),
    ("part1", _z2(family="gaussian", t=1e200)),
    ("psf", _z2(family="gaussian", t=1e300, max_residual=1.0)),
    ("psf", _z2(family="exp_l1", t=1e-300, max_residual=1.0)),
    ("theta", {"family": "gaussian",
               "lattice": {"kind": "basis", "basis": [[1, 0], [0, 1e-13]]}}),
    ("transference", {"p": 2, "lattice": {"kind": "basis",
                                          "basis": [[1, 0], [0, 1e-13]]}}),
]


@pytest.fixture(scope="module")
def tmp_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.mark.parametrize("name, params", OUT_OF_RANGE)
def test_out_of_range_entries_exit_three(tmp_dir, name, params):
    code, err = _run(tmp_dir, {"check_name": name, "params": params})
    lines = err.splitlines()
    assert code == 3
    assert len(lines) == 1 and lines[0].startswith("error: ")


@pytest.mark.parametrize("name, params, code, message", [
    ("theta", _z2(family="gaussian", t=1e-30), 0, ""),
    ("theta", _z2(family="gaussian", t=1e30), 3, "coefficients reach 2^52"),
    # cond 1e14 unreduced, but the LLL basis is well conditioned
    ("theta", {"family": "gaussian",
               "lattice": {"kind": "basis", "basis": [[1, 0], [1e7, 1]]}},
     0, ""),
    ("handshake", {"p": 2, "lattice": {"kind": "basis",
                                       "basis": [[1, 0], [1e7, 1]]}}, 0, ""),
])
def test_inputs_near_the_range_keep_their_results(tmp_dir, name, params,
                                                  code, message):
    got, err = _run(tmp_dir, {"check_name": name, "params": params})
    assert got == code
    assert message in err


def _basis(*diag):
    return {"kind": "basis", "basis": [[x if i == j else 0.0
                                        for j in range(len(diag))]
                                       for i, x in enumerate(diag)]}


# t L* has rows whose squared norms underflow
_UNDERFLOW = {"family": "sech_product", "tol": 2.0, "t": 1e-299,
              "max_residual": 1.0, "lattice": _basis(-1.0001405485169472)}
# the tail bound's argument beta r0^q overflows
_OVERFLOW = {"family": "gaussian", "tol": 2.0, "v": [1.0, 0.5],
             "t": 1.192092896e-07, "max_residual": 1.0,
             "lattice": _basis(2.3581670769050516e139, 1e150)}

# entries this generator found escaping main, each mended where it arose
FOUND = [
    # the determinant overflows
    ("transference", {"p": 1, "resolution": 3,
                      "lattice": _basis(1e150, 1e150, -1e150)}),
    # the dual side underflows to 0
    ("psf", _z2(family="exp_l1", tol=0.5, v=[-1.6e-39, 0.5], t=1.6e-39,
                max_residual=0.5)),
    # two psf entries found at tol 2.0, which psf now refuses at planning,
    # and their data at tol 0.5, which reach the same paths
    *(("psf", {**params, "tol": tol})
      for params in (_UNDERFLOW, _OVERFLOW) for tol in (2.0, 0.5)),
    # a tiny p, where the l^p norm of a row rounds to 1
    ("handshake", {"p": 6.372623431437756e-70, "u": 1.0,
                   "lattice": _basis(79.43282347242814)}),
    # the search's interval half-width overflows
    ("theta", {"family": "supergaussian", "p": 0.05, "tol": 0.5, "t": 0.5,
               "v": "random", "lattice": _basis(-8.058998115475536e-136)}),
    # the truncation search grows S towards +inf: it must stop
    ("theta", {"family": "supergaussian", "p": 0.05, "tol": 1.0, "t": 0.5,
               "v": [-5.8286054600892525],
               "lattice": _basis(4.32095136834112e148)}),
    # log f of points past the floats
    ("theta", {"family": "inv_cosh_product", "tol": 1.0,
               "v": [7.4e-222, -1.0158997602766167e-49], "t": 7.4e-222,
               "lattice": _basis(-1.2589599930839435e86,
                                 1.2589599930839435e86)}),
    # sin(p theta) underflows in the transform of a tiny p
    ("hypotheses", {"family": "supergaussian", "dim": 1, "samples": 1,
                    "p": 1e-300}),
]


def _psf(params, tol):
    return {"check_name": "psf", "params": {**params, "tol": tol}}


def test_psf_below_tol_one_reaches_the_found_paths(tmp_dir, monkeypatch):
    # at tol 0.5 the dual kernel runs on a dilation of L* whose squared row
    # norms underflow, and the tail bound takes an argument past the
    # floats; each entry then ends in exit 4
    dilations, arguments = [], []
    dual_sums, upper_gamma = verify._dual_sums, verify._log_upper_gamma
    monkeypatch.setattr(verify, "_dual_sums", lambda L, spec, v, t, *rest: (
        dilations.append(L.basis / t) or dual_sums(L, spec, v, t, *rest)))
    monkeypatch.setattr(verify, "_log_upper_gamma", lambda a, x, *rest: (
        arguments.append(x) or upper_gamma(a, x, *rest)))
    assert _run(tmp_dir, _psf(_UNDERFLOW, 0.5))[0] == 4
    assert any(((b ** 2).sum(axis=1) < np.finfo(float).tiny).any()
               for b in dilations)
    assert _run(tmp_dir, _psf(_OVERFLOW, 0.5))[0] == 4
    assert math.inf in arguments


@pytest.mark.parametrize("params", [_UNDERFLOW, _OVERFLOW])
def test_psf_refuses_tol_of_one_or_more(tmp_dir, params):
    # at tol >= 1 the dual side may carry an error larger than the sum, so
    # the entry is refused at planning; at tol 0.999 it runs (and exits 4)
    code, err = _run(tmp_dir, _psf(params, 2.0))
    assert code == 3 and "tol" in err
    code, err = _run(tmp_dir, _psf(params, 0.999))
    assert code == 4 and "needs tol" not in err


def _seeded(test):
    """test with every OUT_OF_RANGE and FOUND entry as an explicit example."""
    for name, params in OUT_OF_RANGE + FOUND:
        test = example(entry={"check_name": name, "params": params})(test)
    return test


@_seeded
@settings(max_examples=200)
@given(entry=entries())
@example(entry={"check_name": "tail_inequality",
                "params": {"family": "gaussian", "tau": 1000.0,
                           "lattice": {"kind": "integer", "dim": 1}}})
@example(entry={"check_name": "tail_inequality",
                "params": {"family": "gaussian", "radius": 1.0,
                           "lattice": {**_basis(1.0), "name": 5}}})
def test_extreme_entries_exit_with_a_contract_code(tmp_dir, entry):
    code, _ = _run(tmp_dir, entry)
    assert code in EXIT_CODES

