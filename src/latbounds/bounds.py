"""Closed-form and optimizer-based tail/transference/kissing coefficients.

The central object is the tail coefficient of a radially decaying function g:

    mu_g(r) = g(r) / sup_{0 < u <= 1} u^n g(u r)

which bounds the lattice-sum mass outside radius r relative to the whole
sum.  For the Gaussian and exp(-r^p) profiles the supremum has a closed
form; the generic route is a bracketed golden-section maximisation, kept
deterministic and derivative-free: the oracle the closed forms are tested
against, which no check calls.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import InvariantError

SQRT3_OVER_2PI = math.sqrt(3.0) / (2 * math.pi)
# the headline coefficient of n^2 in the l1 transference ceiling, rounded up
# from the exact l1_coefficient()
L1_CEILING = 0.154264

_INVPHI = (math.sqrt(5.0) - 1) / 2


def golden_section_max(fn, lo, hi, tol=1e-10):
    """(x*, fn(x*)) for a unimodal fn on [lo, hi], interval tol in x."""
    a, b = float(lo), float(hi)
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = fn(c), fn(d)
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = fn(d)
    x = 0.5 * (a + b)
    return x, fn(x)


@dataclass(frozen=True)
class NuBound:
    """A certified tail/mass coefficient plus how it was obtained."""

    value: float
    method: str  # closed_form | norm_optimizer | shrink_ratio

    def __post_init__(self):
        if self.method not in ("closed_form", "norm_optimizer", "shrink_ratio"):
            raise ValueError(f"unknown method {self.method!r}")
        if not (self.value >= 0):
            raise ValueError("bound value must be nonnegative")


def _radial_profile(spec):
    if spec.family == "gaussian":
        return lambda s: math.exp(-math.pi * s * s)
    if spec.family == "supergaussian":
        p = spec.p
        return lambda s: math.exp(-abs(s) ** p)
    raise ValueError(f"mu_norm has no radial profile for {spec.family!r}")


def mu_norm(spec, r: float, n: int) -> NuBound:
    """Tail coefficient by direct 1-D maximisation of u^n g(u r).

    spec must be a gaussian or supergaussian TestFunctionSpec; both are
    radial in their natural norm, so the n-dimensional definition collapses
    to one scalar optimisation over the shrink factor u.
    """
    if r <= 0:
        raise ValueError("r must be positive")
    if n < 1:
        raise ValueError("n must be >= 1")
    g = _radial_profile(spec)
    # log-domain objective; unimodal on (0, 1] for both profiles
    obj = lambda u: n * math.log(u) + math.log(g(u * r))
    _, log_best = golden_section_max(obj, 1e-12, 1.0)
    value = g(r) / math.exp(log_best)
    return NuBound(value=float(value), method="norm_optimizer")


def gaussian_nu_closed_form(tau: float, n: int) -> NuBound:
    """(2 e^{1-2 tau} tau)^{n/2}: Gaussian mass beyond radius sqrt(tau n / pi).

    Valid for tau >= 1/2 (below that the optimal shrink saturates at u=1 and
    the coefficient is identically 1).
    """
    if tau < 0.5:
        raise ValueError(f"tau must be >= 1/2, got {tau}")
    if n < 1:
        raise ValueError("n must be >= 1")
    value = (2 * math.exp(1 - 2 * tau) * tau) ** (n / 2)
    return NuBound(value=float(value), method="closed_form")


def supergaussian_mu_closed_form(p: float, r: float, n: int) -> NuBound:
    """(e t^p e^{-t^p})^{n/p}: exp(-s^p) mass beyond radius r = t (n/p)^{1/p}.

    Requires r at least the profile's inflection scale (n/p)^{1/p}, i.e.
    t >= 1; the optimal shrink is u* = 1/t.
    """
    if not 0 < p <= 2:
        raise ValueError("p must be in (0, 2]")
    if n < 1:
        raise ValueError("n must be >= 1")
    t = r / (n / p) ** (1.0 / p)
    if t < 1:
        raise ValueError(f"r must be >= (n/p)^(1/p), got t = {t}")
    try:
        tp = t ** p
    except OverflowError:
        tp = math.inf
    if tp == math.inf:
        raise ValueError(f"radius r = {r:g} is out of range: t^p, t = "
                         "r / (n/p)^(1/p), leaves the floats")
    value = (math.e * tp * math.exp(-tp)) ** (n / p)
    return NuBound(value=float(value), method="closed_form")


@functools.cache
def cstar() -> float:
    """max over z >= 0 of z - z tanh(z) / (1 + sech(z)/2), about 0.42479.

    Deterministic: coarse scan to bracket the single interior maximum, then
    golden-section refinement, computed once per process.
    """
    h = lambda z: z - z * math.tanh(z) / (1.0 + 0.5 / math.cosh(z))
    zs = [i * 0.01 for i in range(1001)]
    vals = [h(z) for z in zs]
    i = max(range(len(zs)), key=vals.__getitem__)
    lo = zs[max(i - 2, 0)]
    hi = zs[min(i + 2, len(zs) - 1)]
    _, best = golden_section_max(h, lo, hi, tol=1e-12)
    return best


def cosh_nu_bound(alpha: float, n: int) -> NuBound:
    """Tail coefficient of the inv-cosh product outside the l^1 ball K_alpha.

    K_alpha has radius (1 + C*) alpha n; for alpha > sqrt(3)/(2 pi) the
    coefficient is (2 pi alpha / sqrt 3)^n e^{-(2 pi alpha / sqrt 3 - 1) n}.
    """
    if alpha <= SQRT3_OVER_2PI:
        raise ValueError(
            f"alpha must exceed sqrt(3)/(2 pi) ~ {SQRT3_OVER_2PI:.6f}, got {alpha}")
    if n < 1:
        raise ValueError("n must be >= 1")
    x = alpha / SQRT3_OVER_2PI  # = 2 pi alpha / sqrt 3 > 1
    try:
        value = x ** n * math.exp(-(x - 1) * n)
    except OverflowError:
        value = 0.0
    if value == 0.0:  # x^n or e^{-(x-1) n} past the floats: the log form
        value = math.exp(n * (math.log(x) + 1 - x))
    # the coefficient is the mass ratio at the fixed shrink factor u = 1/x
    return NuBound(value=float(value), method="shrink_ratio")


def kalpha_radius(alpha: float, n: int) -> float:
    """l^1 radius (1 + C*) alpha n of the body K_alpha."""
    return (1.0 + cstar()) * alpha * n


def transference_bound_l2(n: int) -> float:
    """n/(2 pi) + 3 sqrt(n)/pi, an upper bound for sigma_2 * rho_2."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return n / (2 * math.pi) + 3 * math.sqrt(n) / math.pi


class L1TransferenceBound(NamedTuple):
    value: float    # the proof's exact product bound (1+C*)^2 alpha^2 n^2
    ceiling: float  # the rounded headline L1_CEILING n^2 (1+2 pi sqrt(3/n))^2


def l1_coefficient() -> float:
    """(1+C*)^2 3/(4 pi^2), the n^2 coefficient of the l1 transference bound
    as n grows: (1+C*)^2 alpha^2 with alpha's sqrt(3)/(2 pi)."""
    return (1 + cstar()) ** 2 * 3 / (4 * math.pi ** 2)


def transference_bound_l1(n: int) -> L1TransferenceBound:
    """Upper bound for sigma_1 * rho_1 with alpha = sqrt(3)/(2 pi) + 3/sqrt(n).

    Returns both the exact value and the rounded ceiling; the exact value is
    strictly smaller (the strictness is re-verified on every call since it
    depends on the computed C*).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    alpha = SQRT3_OVER_2PI + 3.0 / math.sqrt(n)
    value = (1.0 + cstar()) ** 2 * alpha ** 2 * n ** 2
    ceiling = L1_CEILING * n ** 2 * (1.0 + 2 * math.pi * math.sqrt(3.0 / n)) ** 2
    if not value < ceiling:
        raise InvariantError("exact product bound must stay below the ceiling")
    return L1TransferenceBound(value=float(value), ceiling=float(ceiling))


def handshake_bound(n: int, p: float, u: float) -> float:
    """Cap on nonzero lattice points within u times the l^p minimum:

        10 * (e^{u^p} n / p) * e^{u^p n / p}

    Valid for u >= 1 and 0 < p <= 2.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0 < p <= 2:
        raise ValueError("p must be in (0, 2]")
    if u < 1:
        raise ValueError(f"u must be >= 1, got {u}")
    try:
        up = u ** p
        return 10.0 * (math.exp(up) * n / p) * math.exp(up * n / p)
    except OverflowError:  # a cap past the floats caps nothing
        return math.inf

