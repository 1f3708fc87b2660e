"""Certified lattice sums and empirical checks of the implemented inequalities.

Every sum over a lattice is reported as an interval [partial, partial +
remainder_bound] whose remainder comes from a cell-tiling comparison with an
exponential envelope: assign to each point y of the shifted lattice the
centred fundamental cell of an LLL-reduced basis, so the cells of the points
beyond the truncation radius tile a region where the envelope can be
integrated in closed form (an incomplete-gamma expression).  Inequality
checks compare such intervals pessimistically and return PASS / FAIL /
INCONCLUSIVE; an interval straddling the boundary is never coerced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.special import gammaincc, gammaln

from .bounds import (NuBound, cosh_nu_bound, cstar, gaussian_nu_closed_form,
                     handshake_bound, mu_norm, supergaussian_mu_closed_form,
                     transference_bound_l1, transference_bound_l2)
from .enumeration import (DEFAULT_GRID_BUDGET, DEFAULT_NODE_BUDGET, BodySpec,
                          covering_radius_estimate, enumerate_arrays,
                          shortest_vector)
from .errors import InvariantError, ToleranceUnreachedError
from .functions import (TestFunctionSpec, is_self_dual, log_f,
                        natural_norm_p)
from .lattice import Lattice, dual, lll_reduce, lp_norm

PASS = "PASS"
FAIL = "FAIL"
INCONCLUSIVE = "INCONCLUSIVE"

_SAFETY = 1e-10        # relative headroom folded into analytic remainders
_FSUM_LIMIT = 500_000  # above this, pairwise numpy sum + certified slack


@dataclass(frozen=True)
class CertifiedSum:
    """A truncated lattice sum with a certified bound on the omitted tail.

    The true sum lies in [partial, partial + remainder_bound].
    truncation_radius is measured on (lambda + v)/t in the norm norm_p.
    """

    partial: float
    remainder_bound: float
    truncation_radius: float
    norm_p: float
    npoints: int = 0

    @property
    def lower(self):
        return self.partial

    @property
    def upper(self):
        return self.partial + self.remainder_bound

    def interval(self):
        return (self.partial, self.partial + self.remainder_bound)


class _Envelope(NamedTuple):
    loga: float  # per-coordinate log prefactor: f(x) <= e^{n loga - beta ||x||_q^q}
    beta: float
    q: float


_2PI_OVER_SQRT3 = 2 * math.pi / math.sqrt(3.0)


def _envelope_for(spec: TestFunctionSpec) -> _Envelope:
    fam = spec.family
    if fam == "gaussian":
        return _Envelope(0.0, math.pi, 2.0)
    if fam == "supergaussian":
        return _Envelope(0.0, 1.0, float(spec.p))
    if fam == "exp_l1":
        return _Envelope(0.0, 1.0, 1.0)
    if fam == "sech_product":
        # sech(pi x) <= 2 e^{-pi |x|}
        return _Envelope(math.log(2.0), math.pi, 1.0)
    if fam == "inv_cosh_product":
        # 1/(1 + 2 cosh z) <= e^{-z}
        return _Envelope(0.0, _2PI_OVER_SQRT3, 1.0)
    raise ValueError(f"no decay envelope for {fam!r}")


def _log_ball_vol(n, q):
    return n * (math.log(2.0) + gammaln(1 + 1 / q)) - gammaln(1 + n / q)


def _log_upper_gamma(a, x):
    """log of the unnormalized upper incomplete gamma, as an upper bound."""
    qv = float(gammaincc(a, x))
    if qv > 0.0:
        return float(gammaln(a)) + math.log(qv) + 1e-12
    # gammaincc underflowed; integration by parts gives
    # Gamma(a, x) <= 2 x^{a-1} e^{-x} once x >= 2(a-1)
    if x < 2.0 * max(a - 1.0, 1.0):
        raise ArithmeticError("incomplete-gamma underflow outside envelope range")
    return (a - 1.0) * math.log(x) - x + math.log(2.0)


def _cell_shape(reduced_basis, q):
    """Reach of the centred fundamental cell in the l^q norm.

    For q >= 1 this is the half-diameter sum(||b_i||_q)/2 (triangle
    inequality); for q < 1 the norm is only power-subadditive, so the reach
    is measured as sum((||b_i||_q / 2)^q) in the q-th power.
    """
    norms = lp_norm(np.asarray(reduced_basis, dtype=float), q)
    if q <= 1.0:
        return float(np.sum((0.5 * norms) ** q))
    return float(0.5 * np.sum(norms))


def _log_tail(n, covol, env, beta_eff, cell, S):
    """log of the certified bound on sum_{y in v+L, ||y||_q >= S} e^{n loga - beta_eff ||y||_q^q}.

    Returns +inf when S is too small for the tiling argument to apply.
    """
    q = env.q
    base = (n * env.loga + math.log(n) + _log_ball_vol(n, q) - math.log(q)
            - math.log(covol) - (n / q) * math.log(beta_eff))
    if q <= 1.0:
        w0 = S ** q - cell
        if w0 <= 0:
            return math.inf
        return base + beta_eff * cell + _log_upper_gamma(n / q, beta_eff * w0)
    s0 = S - 2 * cell
    if s0 <= 0:
        return math.inf
    return (base + (n - 1) * math.log1p(cell / s0)
            + _log_upper_gamma(n / q, beta_eff * s0 ** q))


def _presolve_radius(log_target, s0, log_tail_fn):
    S = s0
    for _ in range(400):
        if log_tail_fn(S) <= log_target:
            break
        S *= 1.4
    else:
        raise ToleranceUnreachedError(math.exp(min(log_target, 700.0)), math.inf,
                                      where="tail presolve")
    lo, hi = S / 1.4, S
    while hi / lo > 1.02:
        mid = math.sqrt(lo * hi)
        if log_tail_fn(mid) <= log_target:
            hi = mid
        else:
            lo = mid
    return hi


def _stable_sum(vals):
    """(sum, certified roundoff slack); exactly rounded below _FSUM_LIMIT."""
    vals = np.atleast_1d(vals)
    if vals.size <= _FSUM_LIMIT:
        return math.fsum(vals), 0.0
    tot = float(np.sum(vals))
    slack = 2.3e-16 * vals.size * float(np.sum(np.abs(vals)))
    return tot, slack


def certified_sum(L: Lattice, spec: TestFunctionSpec, v, t: float,
                  target_tol: float,
                  node_budget: int = DEFAULT_NODE_BUDGET,
                  radius: float | None = None) -> CertifiedSum:
    """Sum of f((lambda+v)/t) over the lattice, with certified remainder.

    Enumerates the points with ||(lambda+v)/t||_q <= R in the family's
    natural norm q, where R is grown (analytically, before any enumeration)
    until the tail bound drops below target_tol relative to the sum.  Pass
    radius= to pin R instead.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    if target_tol <= 0:
        raise ValueError("target_tol must be positive")
    if spec.dim != L.dim:
        raise ValueError(f"spec dimension {spec.dim} != lattice dimension {L.dim}")
    v = np.asarray(v, dtype=float)
    if v.shape != (L.dim,):
        raise ValueError(f"v must have shape ({L.dim},)")

    n = L.dim
    q = natural_norm_p(spec)
    env = _envelope_for(spec)
    reduced = lll_reduce(L)
    cell = _cell_shape(reduced.basis, q)
    beta_eff = env.beta / t ** q
    logtail = lambda S: _log_tail(n, L.covolume, env, beta_eff, cell, S)

    if radius is None:
        # positive lower bound for the eventual partial: the origin term and
        # the term at the rounded (Babai) point nearest -v
        c0 = np.round(reduced.coefficients(-v))
        cand = np.vstack([np.zeros(n), c0 @ reduced.basis])
        log_lower = float(np.max(log_f(spec, (cand + v) / t)))
        s_floor = (2.0 * cell) ** (1.0 / q) if q <= 1.0 else 2.5 * cell
        S = _presolve_radius(math.log(target_tol) + log_lower,
                             max(s_floor, 1e-3), logtail)
    else:
        S = float(radius) * t
        if not math.isfinite(logtail(S)):
            raise ValueError(f"radius {radius} too small for a certified tail")

    _, emb = enumerate_arrays(L, v, S, q, node_budget)
    vals = np.exp(log_f(spec, (emb + v) / t))
    partial, slack = _stable_sum(vals)
    rem = math.exp(min(logtail(S), 700.0)) * (1 + _SAFETY) + slack
    return CertifiedSum(partial=float(partial), remainder_bound=float(rem),
                        truncation_radius=S / t, norm_p=q, npoints=vals.size)


# ---------------------------------------------------------------------------
# dual-side sums


def _diag_entries(L):
    """|diagonal| of the basis if it is diagonal, else None."""
    B = L.basis
    scale = float(np.max(np.abs(B)))
    off = B - np.diag(np.diag(B))
    if float(np.max(np.abs(off))) > 1e-12 * max(scale, 1.0):
        return None
    return np.abs(np.diag(B)).astype(float)


def _sum1d_rational(a, shift, theta, tol_abs, grid_budget=DEFAULT_GRID_BUDGET):
    """sum_k 2/(1 + 4 pi^2 (a k + shift)^2) cos(2 pi theta k), certified.

    The tail past |k| = K is bounded term-by-term through the quadratic
    envelope; quadratic decay means K ~ 1/tol, so this is the expensive path
    and callers should split tolerances accordingly.
    """
    a = abs(float(a))
    s = abs(float(shift)) / a
    K = int(math.ceil(s + 1.0 / (math.pi ** 2 * a ** 2 * tol_abs))) + 2
    if 2 * K + 1 > grid_budget:
        raise ToleranceUnreachedError(tol_abs, 1.0 / (math.pi ** 2 * a ** 2
                                                      * (grid_budget / 2 - s)),
                                      where="rational 1d sum")
    k = np.arange(-K, K + 1, dtype=float)
    y = a * k + shift
    terms = 2.0 / (1.0 + 4 * math.pi ** 2 * y * y)
    if theta:
        terms = terms * np.cos(2 * math.pi * theta * k)
    partial, slack = _stable_sum(terms)
    rem = 1.0 / (math.pi ** 2 * a ** 2 * (K - s)) * (1 + _SAFETY) + slack
    return partial, rem, K * a + abs(shift)


def _sum1d_gauss_exact(a, shift, theta, tol_abs):
    """sum_k sqrt(pi) e^{-pi^2 (a k + shift)^2} cos(2 pi theta k), certified."""
    a = abs(float(a))
    s = abs(float(shift)) / a
    c = math.pi ** 2 * a ** 2
    # both half-tails under 2 sqrt(pi) e^{-c (K-s)^2} / (1 - e^{-c})
    K = int(math.ceil(s + math.sqrt(max(
        (math.log(2.0 * math.sqrt(math.pi) / tol_abs)
         - math.log1p(-math.exp(-c))) / c, 1.0)))) + 2
    k = np.arange(-K, K + 1, dtype=float)
    y = a * k + shift
    terms = math.sqrt(math.pi) * np.exp(-math.pi ** 2 * y * y)
    if theta:
        terms = terms * np.cos(2 * math.pi * theta * k)
    partial, slack = _stable_sum(terms)
    rem = (2.0 * math.sqrt(math.pi) * math.exp(-c * (K - s) ** 2)
           / -math.expm1(-c) * (1 + _SAFETY) + slack)
    return partial, rem, K * a + abs(shift)


def _sum1d_table(table, a, shift, theta, tol_abs, grid_budget=DEFAULT_GRID_BUDGET):
    """Tabulated-transform analogue of _sum1d_rational, with interpolation slop.

    The power-law envelope on fhat_p is only certified past the last table
    node, so every index whose argument lands inside the table is summed and
    charged 10x the table tolerance; the few points past the edge are charged
    their envelope.  The reachable absolute error therefore has a floor set
    by the table extent and the lattice spacing, reported honestly.
    """
    p = table.p
    a = abs(float(a))
    s = abs(float(shift)) / a
    ctail = 2.0 * abs(table.tail_exponent_coeff)
    if ctail == 0.0:  # p = 2: the transform is an exact gaussian
        raise ValueError("use the exact gaussian path for p = 2")
    per_point = 10.0 * table.tol
    K = int(math.ceil(table.r_max / a + s)) + 1
    if 2 * K + 1 > grid_budget:
        raise ToleranceUnreachedError(
            tol_abs, math.inf, where=f"table 1d sum (p={p:g}): spacing {a:g} "
            "needs more terms than the grid budget")
    k = np.arange(-K, K + 1, dtype=float)
    y = a * k + shift
    terms = table.eval(y)
    ay = np.abs(y)
    far = ay > table.r_max  # beyond the nodes: |truth - eval| <= envelope + eval
    slop = per_point * float(np.sum(~far))
    if np.any(far):
        slop += float(np.sum(terms[far] + table.tail_envelope(ay[far])))
    # omitted |k| > K have |y| >= a(K-s) >= r_max, where the envelope holds
    tail = 2.0 * ctail * a ** (-p - 1) * (K - s) ** (-p) / p
    if tail + slop > tol_abs:
        raise ToleranceUnreachedError(tol_abs, tail + slop,
                                      where=f"table 1d sum (p={p:g})")
    if theta:
        terms = terms * np.cos(2 * math.pi * theta * k)
    partial, slack = _stable_sum(terms)
    rem = tail * (1 + _SAFETY) + slop + slack
    return partial, rem, K * a + abs(shift)


def _product_interval(parts):
    """(prod of values, certified error) from per-factor (value, err) pairs."""
    value = 1.0
    for val, _, in parts:
        value *= val
    err = 0.0
    for j, (_, rj) in enumerate(parts):
        other = 1.0
        for i, (vi, ri) in enumerate(parts):
            if i != j:
                other *= abs(vi) + ri
        err += rj * other
    return value, err


def _product_fhat_sum(diag, spec, t, v, theta, tol_abs, table=None):
    """Certified sum over a diagonal lattice of prod_j fhat_1d(t d_j k_j + v_j),
    optionally phase-weighted by cos(2 pi sum theta_j k_j) via factorization."""
    fam = spec.family
    n = len(diag)
    if fam in ("exp_l1",) or (fam == "supergaussian" and abs(spec.p - 1.0) < 1e-12):
        one_d = _sum1d_rational
    elif fam == "supergaussian" and abs(spec.p - 2.0) < 1e-12:
        one_d = _sum1d_gauss_exact
    elif fam == "supergaussian":
        if table is None or abs(table.p - spec.p) > 1e-12:
            raise ValueError("supergaussian dual sums need the matching transform table")
        one_d = lambda a, sh, th, tl: _sum1d_table(table, a, sh, th, tl)
    else:
        raise ValueError(f"no product transform path for {fam!r}")

    # the cosine-only 1d sums rely on the sin part cancelling over the
    # symmetric index range, which needs either the shift or the phase to
    # vanish in each coordinate
    if any(v[j] and theta[j] for j in range(n)):
        raise InvariantError("a coordinate has both a shift and a phase")
    # first pass at loose tolerance to size the factors, then split the
    # absolute budget so the propagated product error stays under tol_abs
    rough = [one_d(t * diag[j], v[j], theta[j], 1e-3) for j in range(n)]
    mags = [abs(val) + err for val, err, _ in rough]
    full = 1.0
    for m in mags:
        full *= max(m, 1e-3)
    parts = []
    radius = 0.0
    for j in range(n):
        other = full / max(mags[j], 1e-3)
        tol_j = tol_abs / (n * max(other, 1e-12))
        val, err, reach = one_d(t * diag[j], v[j], theta[j], tol_j)
        parts.append((val, err))
        radius = max(radius, reach)
    value, err = _product_interval(parts)
    return value, err, radius


def dual_fhat_sum(L: Lattice, spec: TestFunctionSpec, v, target_tol: float,
                  node_budget: int = DEFAULT_NODE_BUDGET,
                  table=None) -> CertifiedSum:
    """Certified sum of fhat(mu + v) over the dual lattice.

    Self-dual families reduce to certified_sum on the dual; the supergaussian
    p=2 transform is an exact rescaled gaussian; the remaining transforms
    decay too slowly for the cell-tiling envelope and are summed coordinate
    by coordinate, which requires a diagonal basis.
    """
    v = np.asarray(v, dtype=float)
    fam = spec.family
    if is_self_dual(fam):
        return certified_sum(dual(L), spec, v, 1.0, target_tol, node_budget)
    if fam == "supergaussian" and abs(spec.p - 2.0) < 1e-12:
        # fhat(xi) = pi^{n/2} e^{-pi^2 ||xi||^2} = pi^{n/2} g(sqrt(pi) xi)
        rt = math.sqrt(math.pi)
        scaled = Lattice(dual(L).basis * rt)
        g = TestFunctionSpec("gaussian", L.dim)
        inner = certified_sum(scaled, g, rt * v, 1.0, target_tol, node_budget)
        amp = math.pi ** (L.dim / 2)
        return CertifiedSum(partial=amp * inner.partial,
                            remainder_bound=amp * inner.remainder_bound,
                            truncation_radius=inner.truncation_radius / rt,
                            norm_p=2.0, npoints=inner.npoints)

    Ld = dual(L)
    diag = _diag_entries(Ld)
    if diag is None:
        raise ValueError(
            f"{fam!r} dual sums decay too slowly for a general basis; "
            "only diagonal lattices are supported")
    # rough positive scale for converting the relative tolerance
    probe = _product_fhat_sum(diag, spec, 1.0, v, np.zeros(L.dim), 1e-3,
                              table=table)[0]
    tol_abs = target_tol * max(abs(probe), 1e-6)
    value, err, radius = _product_fhat_sum(diag, spec, 1.0, v,
                                           np.zeros(L.dim), tol_abs,
                                           table=table)
    # the summation region is a box, i.e. an l^inf ball
    return CertifiedSum(partial=float(value - err), remainder_bound=float(2 * err),
                        truncation_radius=float(radius), norm_p=math.inf)


def _weighted_dual_partial(L, spec, v, t, tol_abs, node_budget):
    """(value, errbound) for sum_mu fhat(t mu) cos(2 pi mu . v) over the dual.

    Only for families whose fhat admits an exponential envelope (the
    self-dual ones, plus supergaussian p=2 exactly).  The sin pairing over
    the symmetric point set must cancel; it is checked below 1e-12.
    """
    n = L.dim
    fam = spec.family
    if is_self_dual(fam):
        env = _envelope_for(spec)
        log_terms = lambda emb: log_f(spec, t * emb)
    elif fam == "supergaussian" and abs(spec.p - 2.0) < 1e-12:
        env = _Envelope(0.5 * math.log(math.pi), math.pi ** 2, 2.0)
        log_terms = lambda emb: (n * 0.5 * math.log(math.pi)
                                 - math.pi ** 2 * np.sum((t * emb) ** 2, axis=-1))
    else:
        raise ValueError(f"no enumerable dual envelope for {fam!r}")

    Ld = dual(L)
    reduced = lll_reduce(Ld)
    cell = _cell_shape(reduced.basis, env.q)
    beta_eff = env.beta * t ** env.q
    logtail = lambda S: _log_tail(n, Ld.covolume, env, beta_eff, cell, S)
    s_floor = (2.0 * cell) ** (1.0 / env.q) if env.q <= 1.0 else 2.5 * cell
    S = _presolve_radius(math.log(tol_abs), max(s_floor, 1e-3), logtail)
    _, emb = enumerate_arrays(Ld, np.zeros(n), S, env.q, node_budget)
    vals = np.exp(log_terms(emb))
    phase = 2 * math.pi * (emb @ v)
    cos_part, slack_c = _stable_sum(vals * np.cos(phase))
    sin_part, _ = _stable_sum(vals * np.sin(phase))
    if not abs(sin_part) <= 1e-12 * max(1.0, abs(cos_part)):
        raise InvariantError(
            "sin pairing failed to cancel over the symmetric point set")
    rem = math.exp(min(logtail(S), 700.0)) * (1 + _SAFETY) + slack_c
    return cos_part, rem


def psf_residual(L: Lattice, spec: TestFunctionSpec, v, t: float,
                 tol: float, node_budget: int = DEFAULT_NODE_BUDGET,
                 table=None) -> float:
    """|LHS - RHS| / |RHS| for the summation identity

        sum_L f((lambda+v)/t)  =  (t^n/covol) sum_{L*} fhat(t mu) cos(2 pi mu.v),

    with both sides summed independently to remainder <= tol relative.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    v = np.asarray(v, dtype=float)
    lhs = certified_sum(L, spec, v, t, tol, node_budget)
    n = L.dim
    factor = t ** n / L.covolume
    tol_abs = tol * max(lhs.partial, 1e-12) / factor

    fam = spec.family
    if is_self_dual(fam) or (fam == "supergaussian"
                             and abs(spec.p - 2.0) < 1e-12):
        dsum, _ = _weighted_dual_partial(L, spec, v, t, tol_abs, node_budget)
    else:
        Ld = dual(L)
        diag = _diag_entries(Ld)
        if diag is None:
            raise ValueError(
                f"{fam!r} dual sums decay too slowly for a general basis; "
                "only diagonal lattices are supported")
        # cos(2 pi mu . v) factorizes over the coordinates of a diagonal dual
        theta = diag * v
        dsum, _, _ = _product_fhat_sum(diag, spec, t, np.zeros(n), theta,
                                       tol_abs, table=table)
    rhs = factor * dsum
    return abs(lhs.partial - rhs) / abs(rhs)


# ---------------------------------------------------------------------------
# inequality checks


def _verdict(lhs_iv, rhs_iv):
    """(margin, verdict) for the claim lhs <= rhs, each side an interval.

    PASS needs the whole of lhs at or below the whole of rhs, FAIL the whole
    of lhs above the whole of rhs; overlapping intervals are INCONCLUSIVE.
    """
    margin = rhs_iv[0] - lhs_iv[1]
    if margin >= 0:
        return margin, PASS
    if lhs_iv[0] > rhs_iv[1]:
        return margin, FAIL
    return margin, INCONCLUSIVE


def _record(check, lattice_id, params, verdict, **results):
    """The report entry of one check: its results, in call order, between
    its params and its verdict."""
    return {"check": check, "lattice_id": lattice_id, "params": params,
            **results, "verdict": verdict}


def _compared(lhs_iv, rhs_iv, margin):
    """The results of an interval comparison, as record fields."""
    return {"lhs_interval": [float(lhs_iv[0]), float(lhs_iv[1])],
            "rhs_interval": [float(rhs_iv[0]), float(rhs_iv[1])],
            "margin": float(margin)}


def _spec_params(spec, **extra):
    out = {"family": spec.family}
    if spec.p is not None:
        out["p"] = float(spec.p)
    out.update(extra)
    return out


def check_part1(L: Lattice, spec: TestFunctionSpec, v, t: float,
                tol: float = 1e-9,
                node_budget: int = DEFAULT_NODE_BUDGET) -> dict:
    """Check sum f((lambda+v)/t) <= t^n sum f(lambda) for t >= 1.

    At t=1, v=0 the two sides are the same expression; it is computed once
    and reported with margin exactly 0.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    v = np.asarray(v, dtype=float)
    lhs = certified_sum(L, spec, v, t, tol, node_budget)
    params = _spec_params(spec, v=[float(x) for x in v], t=float(t), tol=tol)
    if t == 1.0 and not np.any(v):
        # both sides are one expression: their difference is exactly 0
        rhs_iv = lhs.interval()
        margin, verdict = _verdict((0.0, 0.0), (0.0, 0.0))
    else:
        base = certified_sum(L, spec, np.zeros(L.dim), 1.0, tol, node_budget)
        tn = t ** L.dim
        rhs_iv = (tn * base.partial, tn * base.upper)
        margin, verdict = _verdict(lhs.interval(), rhs_iv)
    return _record("part1", L.name, params, verdict,
                   **_compared(lhs.interval(), rhs_iv, margin))


def nu_for_body(spec: TestFunctionSpec, K: BodySpec, n: int) -> NuBound:
    """The certified tail coefficient for (spec, K), by the family's route.

    Radial families go through the closed forms (or the 1D optimizer below
    their domain); the inv-cosh product is not radial in any l^p norm and is
    bounded through its l^1-ball analysis instead.
    """
    fam = spec.family
    if fam == "gaussian":
        if K.p != 2:
            raise ValueError("gaussian tail bodies must be l2 balls")
        tau = math.pi * K.radius ** 2 / n
        if tau >= 0.5:
            return gaussian_nu_closed_form(tau, n)
        return mu_norm(spec, K.radius, n)
    if fam == "supergaussian":
        if abs(K.p - spec.p) > 1e-12:
            raise ValueError("body norm must match the supergaussian exponent")
        if K.radius >= (n / spec.p) ** (1.0 / spec.p):
            return supergaussian_mu_closed_form(spec.p, K.radius, n)
        return mu_norm(spec, K.radius, n)
    if fam == "exp_l1":
        if K.p != 1:
            raise ValueError("exp_l1 tail bodies must be l1 balls")
        profile = TestFunctionSpec("supergaussian", spec.dim, p=1.0)
        if K.radius >= n:
            return supergaussian_mu_closed_form(1.0, K.radius, n)
        return mu_norm(profile, K.radius, n)
    if fam == "inv_cosh_product":
        if K.p != 1:
            raise ValueError("inv_cosh tail bodies must be l1 balls")
        alpha = K.radius / ((1 + cstar()) * n)
        return cosh_nu_bound(alpha, n)
    raise ValueError(f"no certified tail coefficient route for {fam!r}")


def check_tail_inequality(L: Lattice, spec: TestFunctionSpec, K: BodySpec,
                          v, nu: NuBound, tol: float = 1e-9,
                          node_budget: int = DEFAULT_NODE_BUDGET) -> dict:
    """Check sum_{lambda+v not in K} f(lambda+v) <= nu * sum_L f(lambda).

    The out-of-K mass is the certified full shifted sum minus the exact sum
    over the finitely many points inside K.
    """
    v = np.asarray(v, dtype=float)
    full = certified_sum(L, spec, np.zeros(L.dim), 1.0, tol, node_budget)
    shifted = (full if not np.any(v)
               else certified_sum(L, spec, v, 1.0, tol, node_budget))
    _, emb_in = enumerate_arrays(L, v, K.radius, K.p, node_budget)
    inner = (math.fsum(np.atleast_1d(np.exp(log_f(spec, emb_in + v))))
             if emb_in.size else 0.0)
    outside = shifted.partial - inner
    lhs_iv = (outside, outside + shifted.remainder_bound)
    rhs_iv = (nu.value * full.lower, nu.value * full.upper)
    params = _spec_params(spec, body_p=float(K.p), body_radius=float(K.radius),
                          v=[float(x) for x in v], nu=nu.value,
                          nu_method=nu.method, tol=tol)
    margin, verdict = _verdict(lhs_iv, rhs_iv)
    return _record("tail_inequality", L.name, params, verdict,
                   **_compared(lhs_iv, rhs_iv, margin))


def check_part3(L: Lattice, spec: TestFunctionSpec, K: BodySpec, v,
                nu: NuBound, tol: float = 1e-9,
                node_budget: int = DEFAULT_NODE_BUDGET, table=None) -> dict:
    """Check sum_{L*} fhat(mu+v) >= (1 - 2 nu) sum_{L*} fhat(mu).

    Requires that K contain no nonzero lattice vector; that is verified by
    exact enumeration first, and a violation is an error naming the vector.
    """
    v = np.asarray(v, dtype=float)
    coords, emb = enumerate_arrays(L, np.zeros(L.dim), K.radius, K.p,
                                   node_budget)
    nonzero = np.any(coords != 0, axis=1)
    if np.any(nonzero):
        witness = emb[nonzero][0]
        raise ValueError(
            f"K (l^{K.p:g} ball, radius {K.radius:g}) contains the nonzero "
            f"lattice vector {np.round(witness, 12).tolist()}")
    coeff = 1.0 - 2.0 * nu.value
    rhs_sum = dual_fhat_sum(L, spec, np.zeros(L.dim), tol, node_budget, table)
    lhs = (rhs_sum if not np.any(v)
           else dual_fhat_sum(L, spec, v, tol, node_budget, table))
    rhs_iv = ((coeff * rhs_sum.lower, coeff * rhs_sum.upper) if coeff >= 0
              else (coeff * rhs_sum.upper, coeff * rhs_sum.lower))
    # the claim is rhs <= lhs
    margin, verdict = _verdict(rhs_iv, lhs.interval())
    params = _spec_params(spec, body_p=float(K.p), body_radius=float(K.radius),
                          v=[float(x) for x in v], nu=nu.value, tol=tol)
    return _record("part3", L.name, params, verdict,
                   **_compared(lhs.interval(), rhs_iv, margin))


class HandshakeCensus(NamedTuple):
    count: int
    bound: float
    verdict: str

    @property
    def passed(self):
        return self.verdict == PASS


def handshake_census(L: Lattice, p: float, u: float,
                     node_budget: int = DEFAULT_NODE_BUDGET) -> HandshakeCensus:
    """Exact count of nonzero points with ||x||_p <= u * sigma_p, vs the cap."""
    if not 0 < p <= 2:
        raise ValueError("p must be in (0, 2]")
    if u < 1:
        raise ValueError("u must be >= 1")
    sigma, _ = shortest_vector(L, p)
    coords, _ = enumerate_arrays(L, np.zeros(L.dim), u * sigma, p, node_budget)
    count = int(np.sum(np.any(coords != 0, axis=1)))
    bound = handshake_bound(L.dim, p, u)
    _, verdict = _verdict((count, count), (bound, bound))
    return HandshakeCensus(count=count, bound=bound, verdict=verdict)


@dataclass(frozen=True)
class TransferenceReport:
    """sigma_p of L times the covering-radius bracket of its dual, vs bound."""

    sigma: float
    rho_bracket: tuple
    product_upper: float
    stated_bound: float
    margin: float
    verdict: str
    p: float
    resolution: int
    lattice_id: str = ""

    def record(self):
        params = {"p": self.p, "resolution": self.resolution,
                  "sigma": self.sigma, "rho_lower": self.rho_bracket[0],
                  "rho_upper": self.rho_bracket[1]}
        return _record("transference", self.lattice_id, params, self.verdict,
                       **_compared((self.sigma * self.rho_bracket[0],
                                    self.product_upper),
                                   (self.stated_bound, self.stated_bound),
                                   self.margin))


def transference_check(L: Lattice, p: float, resolution: int = 64,
                       node_budget: int = DEFAULT_NODE_BUDGET,
                       grid_budget: int = DEFAULT_GRID_BUDGET) -> TransferenceReport:
    """sigma_p(L) * rho_p(dual L) against the dimension bound, p in {1, 2}."""
    if p not in (1, 2):
        raise ValueError("transference bounds are implemented for p in {1, 2}")
    n = L.dim
    sigma, _ = shortest_vector(L, p)
    rho_lo, rho_hi = covering_radius_estimate(dual(L), p, resolution,
                                              grid_budget=grid_budget,
                                              node_budget=node_budget)
    bound = transference_bound_l2(n) if p == 2 else transference_bound_l1(n).value
    product = sigma * rho_hi
    margin, verdict = _verdict((sigma * rho_lo, product), (bound, bound))
    return TransferenceReport(sigma=float(sigma),
                              rho_bracket=(float(rho_lo), float(rho_hi)),
                              product_upper=float(product),
                              stated_bound=float(bound), margin=float(margin),
                              verdict=verdict, p=float(p),
                              resolution=int(resolution), lattice_id=L.name)
