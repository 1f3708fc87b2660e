"""Command-line front end: lattice files in, verdict reports out.

Subcommands
-----------
theta         certified lattice sum of a test function
psf           summation-identity residual between a lattice and its dual
tail          mass-outside-a-body check against the certified coefficient
transference  shortest-vector / dual-covering-radius product vs the bound
kissing       short-vector census vs the exponential cap
constants     the closed-form constants and bound grids
verify        run a manifest of checks and write a structured report

Lattices are JSON files with fields ``dim``, ``basis`` and optional ``name``.
A manifest is a JSON object {lattice_file, checks, budgets, seed, output};
every check entry is validated before any check runs.  The one-shot
subcommands (theta, psf, tail, transference, kissing) run their arguments as
a one-entry manifest (kissing is the ``handshake`` check) and print that
check's record as ``name value...`` lines: its params, then its results.
The params are every input that shapes the numbers, e.g. ``v`` for theta,
``p`` for a supergaussian and ``resolution`` for transference.
All numeric output is fixed at 12 significant digits and a run is
byte-deterministic given the same manifest, seed and budgets.

Each check's record comes from one call into ``verify`` (a ``check_...``
function, or ``transference_check(...).record()``); this module only parses
and validates its input and dispatches.

Exit codes: 0 all PASS, 1 any FAIL, 2 any inconclusive, 3 usage or parse
error, 4 budget or tolerance infeasibility, or a request too large for
memory.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import sys

import numpy as np

from .bounds import (L1_CEILING, cstar, handshake_bound, kalpha_radius,
                     l1_coefficient, transference_bound_l1,
                     transference_bound_l2)
from .enumeration import DEFAULT_GRID_BUDGET, DEFAULT_NODE_BUDGET, BodySpec
from .errors import BudgetExceededError, ToleranceUnreachedError
from .functions import TestFunctionSpec, envelope, fhat_route
from .lattice import (integer_lattice, load_lattice, random_unimodular_lattice,
                      read_basis)
from .transform import R_TAIL, build_transform_table
from .verify import (FAIL, INCONCLUSIVE, PASS, check_handshake,
                     check_hypothesis_sampling, check_part1, check_part3,
                     check_psf, check_tail_inequality, check_theta,
                     nu_for_body, psf_product_diagonal, tail_masses,
                     transference_check)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 3
EXIT_BUDGET = 4


def _fmt(x) -> str:
    return f"{float(x):.12g}"


def _round12(obj):
    """Recursively clamp floats to 12 significant digits for stable reports."""
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round12(v) for v in obj]
    return obj


class ManifestError(ValueError):
    """A manifest entry failed validation; nothing was executed."""


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the contract reserves 2 for
    # inconclusive verdicts, so route usage problems to 3
    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


# ---------------------------------------------------------------------------
# manifest handling


def _integer(value, what, low=None):
    """value if it is a JSON integer (at least low, if given); bool is an
    int subclass, but true is no count."""
    if type(value) is not int or (low is not None and value < low):
        raise ManifestError(f"{what} must be an integer"
                            + (f" >= {low}" if low is not None else ""))
    return value


def _number(params, key, default):
    """params[key], or default if key is absent, as a float.  It must be a
    JSON int or float: a bool, a string, None and NaN (which passes every
    range check) are refused, so a default of None makes the key required."""
    value = params.get(key, default)
    if type(value) not in (int, float) or math.isnan(value):
        raise ManifestError(f"{key} must be a number, got {value!r}")
    return float(value)


def _resolve_lattice(ref, base_dir, default_path):
    """A lattice reference: an explicit path, an inline generator, or None
    for the manifest's lattice_file."""
    if ref is None:
        if default_path is None:
            raise ManifestError("check has no 'lattice' and the manifest "
                                "has no lattice_file")
        ref = default_path
    if isinstance(ref, str):
        path = ref if os.path.isabs(ref) else os.path.join(base_dir, ref)
        return load_lattice(path)
    if not isinstance(ref, dict) or "kind" not in ref:
        raise ManifestError(f"lattice reference must be a path or an object "
                            f"with 'kind', got {ref!r}")
    kind = ref["kind"]
    if kind == "integer":
        return integer_lattice(_integer(ref["dim"], "lattice 'dim'"))
    if kind == "unimodular":
        return random_unimodular_lattice(_integer(ref["dim"], "lattice 'dim'"),
                                         _integer(ref["seed"], "lattice 'seed'"))
    if kind == "basis":  # as many rows as it has
        rows = ref["basis"]
        return read_basis(len(rows) if type(rows) is list else None, rows,
                          "inline lattice", ref.get("name"))
    raise ManifestError(f"unknown lattice kind {kind!r}")


def _check_v(params, L, rng):
    v = params.get("v", 0)
    if v == "random":
        return rng.uniform(-0.5, 0.5, L.dim)
    if type(v) in (int, float) and v == 0:
        return np.zeros(L.dim)
    if type(v) is not list or any(type(x) not in (int, float) for x in v):
        raise ManifestError(f"v must be a list of numbers or 'random', got {v!r}")
    v = L.shift(v)
    # the enumeration counts coefficients in floats; refusing here keeps
    # the test function from being evaluated (and overflowing) that far out
    if not np.all(np.abs(np.linalg.solve(L.basis.T, v)) < 2.0 ** 52):
        raise ManifestError("v's coefficients reach 2^52: too large to count")
    return v


def _body_from(params, spec, n):
    """BodySpec from one of radius / tau / tscale / alpha (family-native):
    a ball of the envelope's norm q."""
    keys = [k for k in ("radius", "tau", "tscale", "alpha") if k in params]
    if len(keys) != 1:
        raise ManifestError("give exactly one of radius, tau, tscale, alpha")
    key, q = keys[0], envelope(spec).q
    radius = _number(params, key, None)
    if key == "tau":
        if spec.family != "gaussian":
            raise ManifestError("tau parametrizes gaussian bodies only")
        radius = math.sqrt(radius * n / math.pi)
    elif key == "tscale":
        if spec.family not in ("supergaussian", "exp_l1"):
            raise ManifestError("tscale parametrizes supergaussian/exp_l1 bodies")
        radius = radius * (n / q) ** (1.0 / q)
    elif key == "alpha":
        if spec.family != "inv_cosh_product":
            raise ManifestError("alpha parametrizes inv_cosh_product bodies")
        radius = kalpha_radius(radius, n)
    return BodySpec(p=q, radius=radius)


def read_manifest(path):
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ManifestError(f"{path}: not valid JSON ({exc})")
    if not isinstance(data, dict):
        raise ManifestError(f"{path}: manifest must be a JSON object")
    checks = data.get("checks")
    if not isinstance(checks, list) or not checks:
        raise ManifestError(f"{path}: 'checks' must be a non-empty list")
    budgets = data.get("budgets", {})
    if not isinstance(budgets, dict):
        raise ManifestError(f"{path}: 'budgets' must be an object")
    for key in budgets:
        if key not in ("nodes", "grid"):
            raise ManifestError(f"{path}: unknown budget {key!r}")
    output = data.get("output")
    if output is not None and not isinstance(output, str):
        raise ManifestError(f"{path}: 'output' must be a path, got {output!r}")
    return data


_CHECK_NAMES = ("theta", "part1", "tail_inequality", "part3", "psf",
                "transference", "handshake", "hypotheses")


def _budgets(manifest):
    """(nodes, grid): the manifest's budgets, defaulted and validated."""
    budgets = manifest.get("budgets", {})
    out = (budgets.get("nodes", DEFAULT_NODE_BUDGET),
           budgets.get("grid", DEFAULT_GRID_BUDGET))
    for key, val in zip(("nodes", "grid"), out):
        _integer(val, f"budget {key!r}", low=1)
    return out


def plan_manifest(manifest, base_dir):
    """Validate every check entry and return its plan: a zero-argument
    callable that runs the check and returns its record.

    All parameter and lattice validation happens here, before any check
    executes; a bad entry aborts the whole run with a message naming it.
    """
    seed = _integer(manifest.get("seed", 0), "manifest 'seed'")
    nodes, grid = _budgets(manifest)
    default_lattice = manifest.get("lattice_file")
    lattices = {}  # one Lattice per distinct reference, shared by its checks
    tables = {}  # one table per p, for the hypotheses entries

    def lattice_for(ref):
        key = json.dumps(ref, sort_keys=True)
        if key not in lattices:
            lattices[key] = _resolve_lattice(ref, base_dir, default_lattice)
        return lattices[key]

    def table_for(spec):
        if fhat_route(spec) != "table":
            return None
        if spec.p not in tables:
            tables[spec.p] = build_transform_table(spec.p, r_max=R_TAIL,
                                                   tol=1e-8)
        return tables[spec.p]

    plans = []
    for idx, entry in enumerate(manifest["checks"]):
        label = f"checks[{idx}]"
        try:
            plans.append(_plan_one(entry, lattice_for, seed + idx, nodes,
                                   grid, table_for))
        except (ManifestError, ValueError, ArithmeticError, KeyError,
                TypeError) as exc:  # ArithmeticError: a number past the floats
            raise ManifestError(f"{label}: {exc}")
    return plans


def _plan_one(entry, lattice_for, seed, nodes, grid, table_for):
    if not isinstance(entry, dict) or "check_name" not in entry:
        raise ManifestError("entry must be an object with 'check_name'")
    name = entry["check_name"]
    if name not in _CHECK_NAMES:
        raise ManifestError(f"unknown check_name {name!r}; "
                            f"choose from {_CHECK_NAMES}")
    params = entry.get("params", {})
    if not isinstance(params, dict):
        raise ManifestError("'params' must be an object")
    rng = np.random.default_rng(seed)
    # a test function's p, or the norm of a transference or handshake
    p = _number(params, "p", None) if "p" in params else None

    if name == "hypotheses":
        dim = _integer(params["dim"], "hypotheses 'dim'")
        spec = TestFunctionSpec(params["family"], dim, p)
        samples = _integer(params.get("samples", 10000),
                           "hypotheses 'samples'", low=1)
        hseed = _integer(params.get("seed", seed), "hypotheses 'seed'")
        return functools.partial(check_hypothesis_sampling, spec, samples,
                                 hseed, table=table_for(spec))

    L = lattice_for(params.get("lattice"))

    if name == "transference":
        resolution = _integer(params.get("resolution", 64), "resolution", 1)
        if p not in (1, 2):
            raise ManifestError("transference needs p in {1, 2}")
        return lambda: transference_check(L, p, resolution=resolution,
                                          node_budget=nodes,
                                          grid_budget=grid).record()

    if name == "handshake":
        # below 0.01, lp_norm's error (n+2)u/p nears 1e-12
        if p is None or not 0.01 <= p <= 2:
            raise ManifestError("handshake needs 0.01 <= p <= 2")
        u = _number(params, "u", 1.0)
        if u < 1:
            raise ManifestError("handshake needs u >= 1")
        return functools.partial(check_handshake, L, p, u, nodes)

    # the rest carry a test function
    spec = TestFunctionSpec(params["family"], L.dim, p)
    v = _check_v(params, L, rng)
    tol = _number(params, "tol", 1e-9)
    if tol <= 0:
        raise ManifestError("tol must be positive")

    if name == "theta":
        t = _number(params, "t", 1.0)
        if t <= 0:
            raise ManifestError("theta needs t > 0")
        return functools.partial(check_theta, L, spec, v, t, tol, nodes)

    if name == "part1":
        t = _number(params, "t", 1.0)
        if t < 1:
            raise ManifestError("part1 needs t >= 1")
        return functools.partial(check_part1, L, spec, v, t, tol, nodes)

    if name == "psf":
        t = _number(params, "t", 1.0)
        if t <= 0:
            raise ManifestError("psf needs t > 0")
        if not tol < 1:  # the dual side's error could exceed the sum
            raise ManifestError(f"psf needs tol < 1, got tol = {tol:g}")
        max_residual = _number(params, "max_residual", None)
        psf_product_diagonal(L, spec)  # refuse what the product route cannot sum
        return functools.partial(check_psf, L, spec, v, t, tol, max_residual,
                                 nodes)

    body = _body_from(params, spec, L.dim)
    nu = nu_for_body(spec, body, L.dim)

    # the --plot-csv sweep reads a tail check's arguments off its partial
    return functools.partial(
        check_tail_inequality if name == "tail_inequality" else check_part3,
        L, spec, body, v, nu, tol=tol, node_budget=nodes)


def run_manifest(manifest, base_dir, plot_csv=None):
    plans = plan_manifest(manifest, base_dir)
    records = [run() for run in plans]
    if plot_csv:
        _write_plot_csv(plot_csv, plans, records)
    counts = {verdict: sum(rec["verdict"] == verdict for rec in records)
              for verdict in (PASS, FAIL, INCONCLUSIVE)}
    nodes, grid = _budgets(manifest)
    return {
        "seed": manifest.get("seed", 0),
        "budgets": {"nodes": nodes, "grid": grid},
        "records": records,
        "summary": {"checks": len(records), "pass": counts[PASS],
                    "fail": counts[FAIL], "inconclusive": counts[INCONCLUSIVE]},
    }


def _write_plot_csv(path, plans, records):
    """Radius sweep for every tail_inequality check: 24 radii from 1/4 to
    7/4 of its body's, each row ``verify.tail_masses`` of the plan's
    arguments and the check's record; a bound it cannot give is empty.  A
    field holding a comma or a quote is quoted as CSV quotes it."""
    rows = [["check_index", "lattice_id", "family", "radius",
             "tail_mass_upper", "bound"]]
    for idx, (plan, rec) in enumerate(zip(plans, records)):
        if getattr(plan, "func", None) is not check_tail_inequality:
            continue
        L, spec, body = plan.args[:3]
        radii = np.linspace(0.25 * body.radius, 1.75 * body.radius, 24)
        sweep = tail_masses(*plan.args, rec, radii,
                            plan.keywords["node_budget"])
        for radius, (upper, bound) in zip(radii, sweep):
            rows.append([idx, L.name, spec.label, _fmt(radius), _fmt(upper),
                         "" if bound is None else _fmt(bound)])
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


# ---------------------------------------------------------------------------
# subcommands


# argparse dests of the one-shot subcommands that are manifest params
_PARAM_DESTS = ("family", "p", "v", "tol", "t", "max_residual", "radius",
                "tau", "tscale", "alpha", "resolution", "u")


def _exit_code(summary):
    if summary["fail"]:
        return EXIT_FAIL
    if summary["inconclusive"]:
        return EXIT_INCONCLUSIVE
    return EXIT_PASS


def cmd_check(args):
    """Run one check as a one-entry manifest and print its record."""
    params = {key: getattr(args, key) for key in _PARAM_DESTS
              if getattr(args, key, None) is not None}
    if "v" in params:
        params["v"] = _parse_list(params["v"], float, "v")
    params["lattice"] = args.lattice
    given = {"nodes": args.node_budget,
             "grid": getattr(args, "grid_budget", None)}
    manifest = {"budgets": {k: b for k, b in given.items() if b is not None},
                "checks": [{"check_name": args.check, "params": params}]}
    report = run_manifest(manifest, os.getcwd())
    rec = report["records"][0]
    results = [(k, v) for k, v in rec.items()
               if k not in ("check", "lattice_id", "params")]
    for key, val in [*rec["params"].items(), *results]:
        vals = val if isinstance(val, list) else [val]
        print(key, *(x if isinstance(x, str) else _fmt(x) for x in vals))
    return _exit_code(report["summary"])


def _parse_list(text, cast, what):
    vals = [cast(tok) for tok in text.split(",") if tok.strip()]
    if not vals:
        raise ValueError(f"empty {what} list")
    return vals


def cmd_constants(args):
    ns = _parse_list(args.n, int, "n")
    ps = _parse_list(args.p, float, "p")
    us = _parse_list(args.u, float, "u")
    exact = l1_coefficient()
    print("cstar", _fmt(cstar()))
    print("l1_coefficient_exact", _fmt(exact))
    print("l1_coefficient_ceiling", _fmt(L1_CEILING))
    print("l1_coefficient_gap", _fmt(L1_CEILING - exact))
    for n in ns:
        print(f"transference_l2 n={n}", _fmt(transference_bound_l2(n)))
    for n in ns:
        tb = transference_bound_l1(n)
        print(f"transference_l1 n={n}", _fmt(tb.value), _fmt(tb.ceiling))
    for n in ns:
        for p in ps:
            for u in us:
                print(f"handshake n={n} p={_fmt(p)} u={_fmt(u)}",
                      _fmt(handshake_bound(n, p, u)))
    return EXIT_PASS


def cmd_verify(args):
    manifest = read_manifest(args.manifest)
    base_dir = os.path.dirname(os.path.abspath(args.manifest))
    report = run_manifest(manifest, base_dir, plot_csv=args.plot_csv)
    for idx, rec in enumerate(report["records"]):
        print(f"[{idx}] {rec['check']} {rec.get('lattice_id', '')} "
              f"{rec['verdict']}")
    s = report["summary"]
    print(f"summary checks={s['checks']} pass={s['pass']} "
          f"fail={s['fail']} inconclusive={s['inconclusive']}")
    out = args.output or manifest.get("output")
    if out:
        if not os.path.isabs(out):
            out = os.path.join(base_dir, out)
        with open(out, "w") as fh:
            json.dump(_round12(report), fh, indent=2)
            fh.write("\n")
    return _exit_code(s)


# ---------------------------------------------------------------------------


def _build_parser():
    top = _Parser(prog="latbounds",
                  description="certified lattice sums and inequality checks")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, tfun=True):
        p.add_argument("lattice", help="lattice JSON file")
        if tfun:
            p.add_argument("--family", required=True,
                           help="test function family")
            p.add_argument("--p", type=float, help="supergaussian exponent")
            p.add_argument("--v", help="shift vector, comma-separated")
            p.add_argument("--tol", type=float)
        p.add_argument("--node-budget", type=int)

    p = sub.add_parser("theta", help="certified lattice sum")
    common(p)
    p.add_argument("--t", type=float, help="dilation, sums f((x+v)/t)")
    p.set_defaults(func=cmd_check, check="theta")

    p = sub.add_parser("psf", help="summation identity residual")
    common(p)
    p.add_argument("--t", type=float)
    p.add_argument("--max-residual", type=float, default=math.inf)
    p.set_defaults(func=cmd_check, check="psf")

    p = sub.add_parser("tail", help="mass outside a body vs certified bound")
    common(p)
    p.add_argument("--radius", type=float)
    p.add_argument("--tau", type=float)
    p.add_argument("--tscale", type=float)
    p.add_argument("--alpha", type=float)
    p.set_defaults(func=cmd_check, check="tail_inequality")

    p = sub.add_parser("transference", help="sigma * dual covering radius vs bound")
    common(p, tfun=False)
    p.add_argument("--p", type=float, required=True, help="1 or 2")
    p.add_argument("--resolution", type=int)
    p.add_argument("--grid-budget", type=int,
                   help="cap on the cube centres the covering-radius search "
                        "evaluates; past it the check stops with an error")
    p.set_defaults(func=cmd_check, check="transference")

    p = sub.add_parser("kissing", help="short vector census vs cap")
    common(p, tfun=False)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--u", type=float)
    p.set_defaults(func=cmd_check, check="handshake")

    p = sub.add_parser("constants", help="closed-form constants and grids")
    p.add_argument("--n", default="1,2,3,4", help="dimensions, comma-separated")
    p.add_argument("--p", default="0.5,1,1.5,2")
    p.add_argument("--u", default="1,1.5")
    p.set_defaults(func=cmd_constants)

    p = sub.add_parser("verify", help="run a manifest of checks")
    p.add_argument("manifest", help="manifest JSON file")
    p.add_argument("--output", help="report path (overrides the manifest)")
    p.add_argument("--plot-csv",
                   help="write radius/tail/bound curves for tail checks")
    p.set_defaults(func=cmd_verify)
    return top


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ToleranceUnreachedError as exc:
        print(f"tolerance unreachable: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except MemoryError as exc:  # too large to hold: infeasible, as a budget
        print(f"out of memory: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ManifestError, ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
