"""Checks of the program's outputs against computations made apart from it.

Each lattice here is Z^n or a diagonal lattice, in some basis, so its sums
factor into 1-D series that mpmath sums to 30 digits, and its covering
radius is known exactly.  The transform tables are compared with
``mpmath.quadosc``.  Nothing is compared with a stored copy of an earlier
output.  ``check`` returns {check index: reason} for every disagreement.
"""

import mpmath
import numpy as np

mpmath.mp.dps = 30

# Room, at the lower end of an interval only, for the rounding of the
# float terms the program adds up (exp, (x+v)/t, the distance expansion):
# it charges none of it, so a lower end can sit ulps above the exact value
# when the true tail is far below an ulp (2.2 ulp seen on a shifted Z^5
# gaussian sum).  Any term big enough to shift a lower end by 16 ulp is far
# inside the ball, so this cannot hide a missed point; interval widths here
# are 1e-10 relative and wider.
_ROUNDING = 16 * 2.0 ** -52
# The covering radius is computed on dual(L), which the program gets by
# inverting the basis in floats.  A sheared basis of condition number up
# to ~3e6 (the worst of 3000 seeds) moves that dual's covering radius by
# up to ~2e-11 relative, so the lower end of the bracket may exceed the
# exact radius by that much.  The bracket itself is >= 1/64 wide.
_DUAL_ROUNDING = 1e-9


def _dim(entry):
    lat = entry["params"]["lattice"]
    return int(lat["dim"]) if "dim" in lat else len(lat["basis"])


def _random_shift(manifest, idx, n):
    # "v": "random" draws check idx's shift from the manifest seed + idx
    rng = np.random.default_rng(int(manifest["seed"]) + idx)
    return rng.uniform(-0.5, 0.5, n)


def _series(term, v):
    """sum over k in Z of term(k + v)."""
    return mpmath.nsum(lambda k: term(k + v), [-mpmath.inf, mpmath.inf])


_GAUSSIAN = lambda x: mpmath.exp(-mpmath.pi * x * x)
_SECH = lambda x: mpmath.sech(mpmath.pi * x)


def _contains(lo, hi, value, slack=_ROUNDING):
    return mpmath.mpf(lo) <= value * (1 + slack) and value <= mpmath.mpf(hi)


def _exp_l1_dual(a, shift):
    """sum_k 2/(1 + 4 pi^2 (a k + shift)^2) in closed form (Poisson kernel);
    at shift 0 it is coth(1/(2a))/a."""
    a, shift = mpmath.mpf(a), mpmath.mpf(shift)
    r = mpmath.exp(-1 / a)
    if shift == 0:
        return mpmath.coth(1 / (2 * a)) / a
    c = mpmath.cos(2 * mpmath.pi * shift / a)
    return (1 - r * r) / (1 - 2 * r * c + r * r) / a


def _theta(manifest, records):
    bad = {}
    for idx, rec in records:
        params = manifest["checks"][idx]["params"]
        n = _dim(manifest["checks"][idx])
        term = {"gaussian": _GAUSSIAN, "sech_product": _SECH}[params["family"]]
        v = _random_shift(manifest, idx, n)
        exact = mpmath.fprod(_series(term, mpmath.mpf(x)) for x in v)
        lo, rem = rec["partial"], rec["remainder_bound"]
        if not _contains(lo, mpmath.mpf(lo) + mpmath.mpf(rem), exact):
            bad[idx] = f"sum {mpmath.nstr(exact, 17)} outside [{lo}, {lo}+{rem}]"
        elif rem > float(params["tol"]) * lo:
            bad[idx] = f"remainder {rem} above tol * partial"
    return bad


def _acceptance(manifest, records):
    theta3 = mpmath.jtheta(3, 0, mpmath.exp(-mpmath.pi))
    bad = {}
    for idx, rec in records:
        entry = manifest["checks"][idx]
        params = entry["params"]
        if (entry["check_name"] != "tail_inequality"
                or params["family"] != "gaussian"
                or params["lattice"]["kind"] not in ("integer", "unimodular")):
            continue
        exact = theta3 ** _dim(entry)
        nu = mpmath.mpf(rec["params"]["nu"])
        lo, hi = rec["rhs_interval"]
        if not _contains(mpmath.mpf(lo) / nu, mpmath.mpf(hi) / nu, exact):
            bad[idx] = (f"full sum {mpmath.nstr(exact, 17)} outside "
                        f"rhs_interval / nu = [{lo}, {hi}] / {rec['params']['nu']}")
    return bad


def _transference(manifest, records):
    bad = {}
    for idx, rec in records:
        entry = manifest["checks"][idx]
        n, p = _dim(entry), float(entry["params"]["p"])
        exact = mpmath.sqrt(n) / 2 if p == 2 else mpmath.mpf(n) / 2
        sigma = rec["params"]["sigma"]
        lo, hi = rec["params"]["rho_lower"], rec["params"]["rho_upper"]
        if sigma != 1.0:
            bad[idx] = f"sigma {sigma} != 1"
        elif not _contains(lo, hi, exact, _DUAL_ROUNDING):
            bad[idx] = f"covering radius {mpmath.nstr(exact, 17)} outside [{lo}, {hi}]"
    return bad


def _quad_fhat(p, r):
    """2 * integral_0^inf exp(-t^p) cos(2 pi r t) dt."""
    f = lambda t: mpmath.exp(-t ** p)
    if r == 0:
        return 2 * mpmath.quad(f, [0, mpmath.inf])
    w = 2 * mpmath.pi * r
    return 2 * mpmath.quadosc(lambda t: f(t) * mpmath.cos(w * t),
                              [0, mpmath.inf], omega=w)


def _tables(tables, seed):
    """{p: reason} for every table whose interpolant misses quadrature by
    more than its stated 10 * tol at sample radii drawn from the seed."""
    rng = np.random.default_rng(seed)
    bad = {}
    seen = set()
    for table in tables:
        key = (table["p"], tuple(table["values"]))
        if key in seen:
            continue
        seen.add(key)
        nodes = np.asarray(table["nodes"])
        radii = [0.0] + sorted(rng.uniform(0.0, nodes[-1], 3).tolist())
        for r in radii:
            approx = float(np.interp(r, nodes, table["values"]))
            exact = _quad_fhat(mpmath.mpf(table["p"]), mpmath.mpf(r))
            if abs(approx - exact) > 10 * table["tol"]:
                bad[table["p"]] = (f"table p={table['p']:g} at r={r:.6g}: "
                                   f"{approx} vs quadrature {mpmath.nstr(exact, 12)}")
    return bad


def _dual_tables(manifest, records, tables):
    bad = {}
    table_bad = _tables(tables, int(manifest["seed"]))
    for idx, rec in records:
        entry = manifest["checks"][idx]
        params = entry["params"]
        if params.get("p") in table_bad:
            bad[idx] = table_bad[params["p"]]
        elif entry["check_name"] == "psf":
            if not rec["residual"] <= params["max_residual"]:
                bad[idx] = f"residual {rec['residual']} above {params['max_residual']}"
        elif entry["check_name"] == "part3" and params["family"] == "exp_l1":
            # the dual of diag(d) is diag(1/d); both sums factor per axis
            spacing = [1.0 / row[i] for i, row in
                       enumerate(params["lattice"]["basis"])]
            v = rec["params"]["v"]
            shifted = mpmath.fprod(_exp_l1_dual(a, s) for a, s in zip(spacing, v))
            full = mpmath.fprod(_exp_l1_dual(a, 0) for a in spacing)
            coeff = 1 - 2 * mpmath.mpf(rec["params"]["nu"])
            lo, hi = rec["rhs_interval"]
            if not _contains(*rec["lhs_interval"], shifted):
                bad[idx] = (f"shifted dual sum {mpmath.nstr(shifted, 17)} "
                            "outside lhs_interval")
            elif not _contains(mpmath.mpf(lo) / coeff, mpmath.mpf(hi) / coeff,
                               full):
                bad[idx] = (f"dual sum {mpmath.nstr(full, 17)} outside "
                            "rhs_interval / (1 - 2 nu)")
    return bad


def check(workload, manifest, records, tables):
    # a check that raised is already counted as failed
    records = [(idx, rec) for idx, rec in enumerate(records)
               if "error" not in rec]
    if workload == "theta_highdim":
        return _theta(manifest, records)
    if workload == "acceptance":
        return _acceptance(manifest, records)
    if workload == "transference":
        return _transference(manifest, records)
    return _dual_tables(manifest, records, tables)
