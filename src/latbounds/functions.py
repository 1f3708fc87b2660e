"""The admissible test-function families and numeric checks of their hypotheses.

Five families, all positive, even, and rapidly decaying in their natural
norm, with nonnegative Fourier transforms:

  gaussian          exp(-pi ||x||_2^2)         self-dual
  sech_product      prod sech(pi x_i)          self-dual
  inv_cosh_product  prod 1/(1+2cosh(2pi x_i/sqrt 3))   self-dual
  exp_l1            exp(-||x||_1), transform prod 2/(1+4 pi^2 x_i^2)
  supergaussian     exp(-||x||_p^p), 0 < p <= 2; transform via a 1-D table

``envelope`` is the one statement of how each family decays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import MissingTableError

FAMILIES = ("gaussian", "sech_product", "inv_cosh_product", "supergaussian", "exp_l1")

_SELF_DUAL = ("gaussian", "sech_product", "inv_cosh_product")

_2PI_OVER_SQRT3 = 2 * math.pi / math.sqrt(3.0)


@dataclass(frozen=True)
class TestFunctionSpec:
    family: str
    dim: int
    p: float | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; pick one of {FAMILIES}")
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.family == "supergaussian":
            if self.p is None or not (0 < self.p <= 2):
                raise ValueError("supergaussian requires p in (0, 2]")
        elif self.p is not None:
            raise ValueError(f"family {self.family!r} takes no p parameter")

    @property
    def label(self):
        if self.family == "supergaussian":
            return f"supergaussian(p={self.p:g})"
        return self.family


class Envelope(NamedTuple):
    """f(x) <= e^{n loga - beta ||x||_q^q}: the gaussian, the supergaussian
    and exp_l1 are their own envelope, the products are bounded per factor."""

    loga: float  # per-coordinate log prefactor
    beta: float
    q: float


def envelope(spec: TestFunctionSpec) -> Envelope:
    """The family's decay envelope; q is the l^q norm it decays in."""
    fam = spec.family
    if fam == "gaussian":
        return Envelope(0.0, math.pi, 2.0)
    if fam == "supergaussian":
        return Envelope(0.0, 1.0, float(spec.p))
    if fam == "exp_l1":
        return Envelope(0.0, 1.0, 1.0)
    if fam == "sech_product":
        # sech(pi x) <= 2 e^{-pi |x|}
        return Envelope(math.log(2.0), math.pi, 1.0)
    # inv_cosh_product: 1/(1 + 2 cosh z) <= e^{-z}
    return Envelope(0.0, _2PI_OVER_SQRT3, 1.0)


def fhat_route(spec: TestFunctionSpec) -> str:
    """How fhat is computed, decided here only: 'self_dual' (fhat = f),
    'rational_product' (exp_l1 and supergaussian p=1), 'gaussian_rescale'
    (supergaussian p=2) or 'table' (fractional p: transform.fourier_1d,
    which eval_fhat reads from a 1-D transform table).
    A p within 1e-12 of 1 or 2 takes the exact route."""
    if spec.family in _SELF_DUAL:
        return "self_dual"
    if spec.family == "exp_l1" or abs(spec.p - 1.0) < 1e-12:
        return "rational_product"
    if abs(spec.p - 2.0) < 1e-12:
        return "gaussian_rescale"
    return "table"


@np.errstate(over="ignore")  # a decay past the floats: log f is -inf
def log_f(spec: TestFunctionSpec, x):
    """log f at one point (a float) or row-wise; stable for large arguments."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape[-1] != spec.dim:
        raise ValueError(f"points must have {spec.dim} coordinates")
    fam = spec.family
    if fam == "gaussian":
        out = -math.pi * (x * x).sum(axis=-1)
    elif fam == "exp_l1":
        out = -abs(x).sum(axis=-1)
    elif fam == "supergaussian":
        out = -(abs(x) ** spec.p).sum(axis=-1)
    elif fam == "sech_product":
        z = math.pi * abs(x)
        # log sech z = log 2 - z - log1p(e^{-2z})
        out = (math.log(2.0) - z - np.log1p(np.exp(-2 * z))).sum(axis=-1)
    else:  # inv_cosh_product
        z = _2PI_OVER_SQRT3 * abs(x)
        # log(1 + 2 cosh z) = z + log1p(e^{-z} + e^{-2z})
        out = -(z + np.log1p(np.exp(-z) + np.exp(-2 * z))).sum(axis=-1)
    return float(out) if x.ndim == 1 else out


def eval_f(spec: TestFunctionSpec, x):
    """f at one point (a float) or row-wise.  Strictly positive."""
    return np.exp(log_f(spec, x))


def eval_fhat(spec: TestFunctionSpec, x, table=None):
    """Fourier transform of f (convention fhat(y) = int f e^{-2 pi i <x,y>}).

    At one point (a float) or row-wise; nonnegative for every family.
    fhat_route picks the formula, and a fractional-p supergaussian needs
    the 1-D table for its exponent.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape[-1] != spec.dim:
        raise ValueError(f"points must have {spec.dim} coordinates")
    route = fhat_route(spec)
    if route == "self_dual":
        return eval_f(spec, x)
    if route == "rational_product":
        out = (2.0 / (1.0 + 4 * math.pi ** 2 * x * x)).prod(axis=-1)
    elif route == "gaussian_rescale":
        out = (math.pi ** (spec.dim / 2.0)
               * np.exp(-math.pi ** 2 * (x * x).sum(axis=-1)))
    else:
        if table is None:
            raise MissingTableError(
                f"supergaussian p={spec.p} needs a Transform1DTable")
        if abs(table.p - spec.p) > 1e-12:
            raise ValueError(f"table is for p={table.p}, spec has p={spec.p}")
        out = table.eval(x).prod(axis=-1)
    return float(out) if x.ndim == 1 else out


@dataclass
class CheckStats:
    evaluated: int = 0
    violations: int = 0
    worst_margin: float = math.inf  # most negative slack seen; >= 0 is clean

    def record(self, margins):
        margins = np.asarray(margins, dtype=float)
        self.evaluated += margins.size
        self.violations += int((margins < -1e-9).sum())
        self.worst_margin = min(self.worst_margin, float(margins.min()))
        return self


@dataclass
class HypothesisReport:
    checks: dict = field(default_factory=dict)

    @property
    def ok(self):
        return all(st.violations == 0 for st in self.checks.values())


def check_hypotheses(spec: TestFunctionSpec, samples: int = 10000, seed: int = 0,
                     table=None) -> HypothesisReport:
    """Sampled verification of the three usage hypotheses.

    * fhat >= 0 at random points,
    * fhat non-increasing along rays (fhat(t x) <= fhat(x) for t >= 1),
    * ratio-concavity of f: f(ux)/f(x) >= f(utx)/f(tx) for u, t in (0, 1],
      checked in log form.

    Sampling is deterministic for a given seed.  Violations beyond a 1e-9
    margin are counted and reported as data, never raised.

    On the table route (fractional p) the first two cannot fail:
    build_transform_table clamps the values nonnegative and non-increasing,
    and the table interpolates them linearly, then continues with a
    positive decreasing power law, so fhat, their product over the
    coordinates, is nonnegative and falls along every ray, up to rounding
    far inside the margin.  There they test the clamp; the test of fhat_p
    itself is the build's 4 tol clamp check.
    """
    rng = np.random.default_rng(seed)
    rep = HypothesisReport()
    n = spec.dim

    x = rng.normal(0.0, 1.5, size=(samples, n))

    vals = eval_fhat(spec, x, table=table)
    rep.checks["fhat_nonneg"] = CheckStats().record(vals)

    t_up = 1.0 + rng.exponential(0.7, size=samples)
    f_x = vals
    f_tx = eval_fhat(spec, t_up[:, None] * x, table=table)
    rep.checks["fhat_ray_monotone"] = CheckStats().record(
        (f_x - f_tx) / np.maximum(1.0, f_x))

    u = rng.uniform(0.02, 1.0, size=samples)
    t_dn = rng.uniform(0.02, 1.0, size=samples)
    lf = lambda pts: log_f(spec, pts)
    d = (lf(u[:, None] * x) - lf(x)) - (lf((u * t_dn)[:, None] * x) - lf(t_dn[:, None] * x))
    rep.checks["ratio_concave"] = CheckStats().record(d)

    return rep
