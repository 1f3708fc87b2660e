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

Exit codes: 0 all PASS, 1 any FAIL, 2 any inconclusive, 3 usage or parse
error, 4 budget or tolerance infeasibility.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from .bounds import (cstar, handshake_bound, kalpha_radius,
                     transference_bound_l1, transference_bound_l2)
from .enumeration import (DEFAULT_GRID_BUDGET, DEFAULT_NODE_BUDGET, BodySpec,
                          enumerate_arrays)
from .errors import (BudgetExceededError, MissingTableError,
                     ToleranceUnreachedError)
from .functions import (TestFunctionSpec, check_hypotheses, fhat_route,
                        log_f, natural_norm_p)
from .lattice import (Lattice, integer_lattice, load_lattice,
                      random_unimodular_lattice)
from .transform import cached_transform_table
from .verify import (FAIL, INCONCLUSIVE, PASS, _record, _spec_params,
                     _verdict, certified_sum, check_part1, check_part3,
                     check_tail_inequality, handshake_census, nu_for_body,
                     psf_product_diagonal, psf_residual, transference_check)

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


def _parse_vec(text):
    try:
        return [float(tok) for tok in text.split(",")]
    except ValueError:
        raise ValueError(f"v must be comma-separated numbers, got {text!r}")


# ---------------------------------------------------------------------------
# manifest handling


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
        return integer_lattice(int(ref["dim"]))
    if kind == "unimodular":
        return random_unimodular_lattice(int(ref["dim"]), int(ref["seed"]))
    if kind == "basis":
        return Lattice(np.array(ref["basis"], dtype=float),
                       name=ref.get("name"))
    raise ManifestError(f"unknown lattice kind {kind!r}")


def _check_v(params, L, rng):
    v = params.get("v", 0)
    if isinstance(v, str):
        if v != "random":
            raise ManifestError(f"v must be a list of numbers or 'random', got {v!r}")
        return rng.uniform(-0.5, 0.5, L.dim)
    if isinstance(v, (int, float)) and v == 0:
        return np.zeros(L.dim)
    v = np.asarray(v, dtype=float)
    if v.shape != (L.dim,):
        raise ManifestError(f"v has shape {v.shape}, the lattice needs "
                            f"{L.dim} coordinates")
    return v


def _body_from(params, spec, n):
    """BodySpec from one of radius / tau / tscale / alpha (family-native)."""
    keys = [k for k in ("radius", "tau", "tscale", "alpha") if k in params]
    if len(keys) != 1:
        raise ManifestError("give exactly one of radius, tau, tscale, alpha")
    key = keys[0]
    val = float(params[key])
    if key == "radius":
        radius = val
        body_p = float(params.get("body_p", natural_norm_p(spec)))
    elif key == "tau":
        if spec.family != "gaussian":
            raise ManifestError("tau parametrizes gaussian bodies only")
        radius = math.sqrt(val * n / math.pi)
        body_p = 2.0
    elif key == "tscale":
        if spec.family not in ("supergaussian", "exp_l1"):
            raise ManifestError("tscale parametrizes supergaussian/exp_l1 bodies")
        p = 1.0 if spec.family == "exp_l1" else float(spec.p)
        radius = val * (n / p) ** (1.0 / p)
        body_p = p
    else:
        if spec.family != "inv_cosh_product":
            raise ManifestError("alpha parametrizes inv_cosh_product bodies")
        radius = kalpha_radius(val, n)
        body_p = 1.0
    return BodySpec(p=body_p, radius=radius)


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
    return data


_CHECK_NAMES = ("theta", "part1", "tail_inequality", "part3", "psf",
                "transference", "handshake", "hypotheses")


def _budgets(manifest):
    """(nodes, grid): the manifest's budgets, defaulted and validated."""
    budgets = manifest.get("budgets", {})
    out = (budgets.get("nodes", DEFAULT_NODE_BUDGET),
           budgets.get("grid", DEFAULT_GRID_BUDGET))
    for key, val in zip(("nodes", "grid"), out):
        # bool is an int subclass, but true is no budget
        if type(val) is not int or val <= 0:
            raise ManifestError(f"budget {key!r} must be a positive integer")
    return out


def _has_nan(obj):
    if isinstance(obj, float):
        return math.isnan(obj)
    if isinstance(obj, dict):
        return any(_has_nan(x) for x in obj.values())
    if isinstance(obj, list):
        return any(_has_nan(x) for x in obj)
    return False


def plan_manifest(manifest, base_dir):
    """Validate every check entry and return its plan: a zero-argument
    callable that runs the check and returns its record.

    All parameter and lattice validation happens here, before any check
    executes; a bad entry aborts the whole run with a message naming it.
    """
    seed = int(manifest.get("seed", 0))
    nodes, grid = _budgets(manifest)
    default_lattice = manifest.get("lattice_file")
    table_dir = manifest.get("table_dir")
    if table_dir is not None and not os.path.isabs(table_dir):
        table_dir = os.path.join(base_dir, table_dir)
    tables = {}  # one table per p: table_dir is the manifest's

    def table_for(spec):
        if fhat_route(spec) != "table":
            return None
        if spec.p not in tables:
            tables[spec.p] = cached_transform_table(
                spec.p, tol=1e-8, directory=table_dir, r_max=96.0)
        return tables[spec.p]

    plans = []
    for idx, entry in enumerate(manifest["checks"]):
        label = f"checks[{idx}]"
        try:
            plans.append(_plan_one(entry, base_dir, default_lattice,
                                   seed + idx, nodes, grid, table_for))
        except (ManifestError, ValueError, KeyError, TypeError) as exc:
            raise ManifestError(f"{label}: {exc}")
    return plans


def _plan_one(entry, base_dir, default_lattice, seed, nodes, grid, table_for):
    if not isinstance(entry, dict) or "check_name" not in entry:
        raise ManifestError("entry must be an object with 'check_name'")
    name = entry["check_name"]
    if name not in _CHECK_NAMES:
        raise ManifestError(f"unknown check_name {name!r}; "
                            f"choose from {_CHECK_NAMES}")
    params = entry.get("params", {})
    if not isinstance(params, dict):
        raise ManifestError("'params' must be an object")
    if _has_nan(params):
        # json reads NaN, and NaN passes every range check
        raise ManifestError("params must not contain NaN")
    rng = np.random.default_rng(seed)

    if name == "hypotheses":
        spec = TestFunctionSpec(params["family"], int(params["dim"]),
                                params.get("p"))
        samples = params.get("samples", 10000)
        if type(samples) is not int or samples <= 0:
            raise ManifestError("hypotheses 'samples' must be a positive "
                                "integer")
        hseed = int(params.get("seed", seed))
        table = table_for(spec)

        def run_hyp():
            rep = check_hypotheses(spec, samples=samples, seed=hseed,
                                   table=table)
            worst = min(st.worst_margin for st in rep.checks.values())
            total = sum(st.violations for st in rep.checks.values())
            return _record("hypotheses", "",
                           {"family": spec.family, "dim": spec.dim,
                            **({"p": spec.p} if spec.p is not None else {}),
                            "samples": samples, "seed": hseed},
                           PASS if rep.ok else FAIL,
                           violations=total, worst_margin=worst)
        return run_hyp

    L = _resolve_lattice(params.get("lattice"), base_dir, default_lattice)

    if name == "transference":
        p = float(params["p"])
        resolution = int(params.get("resolution", 64))
        if p not in (1, 2):
            raise ManifestError("transference needs p in {1, 2}")
        if resolution < 1:
            raise ManifestError("resolution must be >= 1")
        return lambda: transference_check(L, p, resolution=resolution,
                                          node_budget=nodes,
                                          grid_budget=grid).record()

    if name == "handshake":
        p = float(params["p"])
        u = float(params.get("u", 1.0))
        if not 0 < p <= 2:
            raise ManifestError("handshake needs 0 < p <= 2")
        if u < 1:
            raise ManifestError("handshake needs u >= 1")

        def run_hs():
            hc = handshake_census(L, p, u, node_budget=nodes)
            return _record("handshake", L.name, {"p": p, "u": u}, hc.verdict,
                           count=hc.count, bound=hc.bound)
        return run_hs

    # the rest carry a test function
    spec = TestFunctionSpec(params["family"], L.dim, params.get("p"))
    v = _check_v(params, L, rng)
    tol = float(params.get("tol", 1e-9))
    if tol <= 0:
        raise ManifestError("tol must be positive")

    if name == "theta":
        t = float(params.get("t", 1.0))
        if t <= 0:
            raise ManifestError("theta needs t > 0")

        def run_theta():
            cs = certified_sum(L, spec, v, t, tol, node_budget=nodes)
            return _record("theta", L.name,
                           _spec_params(spec, v=[float(x) for x in v], t=t,
                                        tol=tol),
                           PASS, partial=cs.partial,
                           remainder_bound=cs.remainder_bound,
                           truncation_radius=cs.truncation_radius,
                           npoints=cs.npoints)
        return run_theta

    if name == "part1":
        t = float(params.get("t", 1.0))
        if t < 1:
            raise ManifestError("part1 needs t >= 1")
        return lambda: check_part1(L, spec, v, t, tol=tol, node_budget=nodes)

    if name == "psf":
        t = float(params.get("t", 1.0))
        if t <= 0:
            raise ManifestError("psf needs t > 0")
        max_residual = float(params["max_residual"])
        psf_product_diagonal(L, spec)  # refuse a general basis before any table
        table = table_for(spec)

        def run_psf():
            res = psf_residual(L, spec, v, t, tol, node_budget=nodes,
                               table=table)
            _, verdict = _verdict((res, res), (max_residual, max_residual))
            return _record("psf", L.name,
                           _spec_params(spec, t=t, tol=tol,
                                        v=[float(x) for x in v],
                                        max_residual=max_residual),
                           verdict, residual=res)
        return run_psf

    body = _body_from(params, spec, L.dim)
    nu = nu_for_body(spec, body, L.dim)

    if name == "tail_inequality":
        # a partial, so the --plot-csv sweep can read the check's arguments
        return functools.partial(check_tail_inequality, L, spec, body, v, nu,
                                 tol=tol, node_budget=nodes)
    # part3
    return lambda: check_part3(L, spec, body, v, nu, tol=tol,
                               node_budget=nodes)


def run_manifest(manifest, base_dir, plot_csv=None):
    plans = plan_manifest(manifest, base_dir)
    records = [run() for run in plans]
    if plot_csv:
        _write_plot_csv(plot_csv, plans)
    counts = {PASS: 0, FAIL: 0, INCONCLUSIVE: 0}
    for rec in records:
        counts[rec["verdict"]] += 1
    nodes, grid = _budgets(manifest)
    report = {
        "seed": int(manifest.get("seed", 0)),
        "budgets": {"nodes": nodes, "grid": grid},
        "records": records,
        "summary": {"checks": len(records), "pass": counts[PASS],
                    "fail": counts[FAIL], "inconclusive": counts[INCONCLUSIVE]},
    }
    return report


def _write_plot_csv(path, plans):
    """Radius sweep for every tail_inequality plan: certified tail mass
    outside each radius next to the bound coefficient times the full sum.
    Each sweep takes its lattice, body, shift and budgets from its plan."""
    rows = ["check_index,lattice_id,family,radius,tail_mass_upper,bound"]
    for idx, plan in enumerate(plans):
        if getattr(plan, "func", None) is not check_tail_inequality:
            continue
        L, spec, body, v, _ = plan.args
        tol, nodes = plan.keywords["tol"], plan.keywords["node_budget"]
        full = certified_sum(L, spec, np.zeros(L.dim), 1.0, tol, nodes)
        shifted = (certified_sum(L, spec, v, 1.0, tol, nodes) if np.any(v)
                   else full)
        r_hi = 1.75 * body.radius
        _, emb = enumerate_arrays(L, v, r_hi, body.p, nodes)
        norms = (np.abs(emb + v) ** body.p).sum(axis=1) ** (1.0 / body.p) \
            if np.isfinite(body.p) else np.abs(emb + v).max(axis=1)
        vals = np.atleast_1d(np.exp(log_f(spec, emb + v)))
        order = np.argsort(norms, kind="stable")
        norms, vals = norms[order], np.cumsum(vals[order])
        for radius in np.linspace(0.25 * body.radius, r_hi, 24):
            k = int(np.searchsorted(norms, radius, side="right"))
            inside = float(vals[k - 1]) if k else 0.0
            tail_upper = shifted.upper - inside
            try:
                bound = nu_for_body(spec, BodySpec(p=body.p, radius=float(radius)),
                                    L.dim).value * full.partial
                bound_txt = _fmt(bound)
            except ValueError:
                bound_txt = ""
            rows.append(",".join([str(idx), L.name, spec.label,
                                  _fmt(radius), _fmt(tail_upper), bound_txt]))
    with open(path, "w") as fh:
        fh.write("\n".join(rows) + "\n")


# ---------------------------------------------------------------------------
# subcommands


# argparse dests of the one-shot subcommands that are manifest params
_PARAM_DESTS = ("family", "p", "v", "tol", "t", "max_residual", "body_p",
                "radius", "tau", "tscale", "alpha", "resolution", "u")


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
        params["v"] = _parse_vec(params["v"])
    params["lattice"] = args.lattice
    manifest = {"budgets": {"nodes": args.node_budget,
                            "grid": getattr(args, "grid_budget",
                                            DEFAULT_GRID_BUDGET)},
                "table_dir": getattr(args, "table_dir", None),
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
    cs = cstar()
    exact = (1 + cs) ** 2 * 3 / (4 * math.pi ** 2)
    print("cstar", _fmt(cs))
    print("l1_coefficient_exact", _fmt(exact))
    print("l1_coefficient_ceiling", _fmt(0.154264))
    print("l1_coefficient_gap", _fmt(0.154264 - exact))
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
    out = manifest.get("output")
    if args.output:
        out = args.output
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
            p.add_argument("--p", type=float, default=None,
                           help="supergaussian exponent")
            p.add_argument("--v", default=None,
                           help="shift vector, comma-separated")
            p.add_argument("--tol", type=float, default=1e-9)
        p.add_argument("--node-budget", type=int, default=DEFAULT_NODE_BUDGET)

    p = sub.add_parser("theta", help="certified lattice sum")
    common(p)
    p.add_argument("--t", type=float, default=1.0, help="dilation, sums f((x+v)/t)")
    p.set_defaults(func=cmd_check, check="theta")

    p = sub.add_parser("psf", help="summation identity residual")
    common(p)
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--max-residual", type=float, default=math.inf)
    p.add_argument("--table-dir", default=None,
                   help="transform table cache directory")
    p.set_defaults(func=cmd_check, check="psf")

    p = sub.add_parser("tail", help="mass outside a body vs certified bound")
    common(p)
    p.add_argument("--body-p", type=float, default=None)
    p.add_argument("--radius", type=float, default=None)
    p.add_argument("--tau", type=float, default=None)
    p.add_argument("--tscale", type=float, default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.set_defaults(func=cmd_check, check="tail_inequality")

    p = sub.add_parser("transference", help="sigma * dual covering radius vs bound")
    common(p, tfun=False)
    p.add_argument("--p", type=float, required=True, help="1 or 2")
    p.add_argument("--resolution", type=int, default=64)
    p.add_argument("--grid-budget", type=int, default=DEFAULT_GRID_BUDGET,
                   help="cap on the cube centres the covering-radius search "
                        "evaluates; past it the check stops with an error")
    p.set_defaults(func=cmd_check, check="transference")

    p = sub.add_parser("kissing", help="short vector census vs cap")
    common(p, tfun=False)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--u", type=float, default=1.0)
    p.set_defaults(func=cmd_check, check="handshake")

    p = sub.add_parser("constants", help="closed-form constants and grids")
    p.add_argument("--n", default="1,2,3,4", help="dimensions, comma-separated")
    p.add_argument("--p", default="0.5,1,1.5,2")
    p.add_argument("--u", default="1,1.5")
    p.set_defaults(func=cmd_constants)

    p = sub.add_parser("verify", help="run a manifest of checks")
    p.add_argument("manifest", help="manifest JSON file")
    p.add_argument("--output", default=None,
                   help="report path (overrides the manifest)")
    p.add_argument("--plot-csv", default=None,
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
    except MissingTableError as exc:
        print(f"missing table: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ManifestError, ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
