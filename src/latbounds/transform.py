"""Certified 1-D Fourier transforms of exp(-|t|^p) on 0 < p <= 2.

There is no closed form between p=1 and p=2, so we tabulate

    fhat_p(r) = integral exp(-|t|^p) cos(2 pi r t) dt

on an adaptive node set (oscillatory-weight quadrature, absolute error
certified <= tol per node) and continue past the last node with the
power-law asymptote  C_p * r^(-p-1).  The asymptote is rescaled to meet the
last tabulated value exactly, so evaluation is continuous at the junction;
the switch radius is pushed out until the raw asymptote agrees with
quadrature to 5% relative, which keeps the rescaling factor near 1.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np
from scipy.special import gamma, gammaincc

from .errors import ToleranceUnreachedError

_RMAX_CAP = 192.0


def transform_tail_coefficient(p: float) -> float:
    """Leading coefficient of the |r| -> inf expansion, fhat ~ C * r^(-p-1).

    Vanishes at p=2 where the transform decays faster than any power.
    """
    if not 0 < p <= 2:
        raise ValueError("p must be in (0, 2]")
    if p == 2:
        return 0.0
    return float(-math.pi ** (-p - 0.5) * gamma((p + 1) / 2) / gamma(-p / 2))


def _cutoff(p, tol):
    """T with a certified bound int_T^inf exp(-t^p) dt <= tol/8."""
    T = math.log(16.0 / tol) ** (1.0 / p)
    for _ in range(200):
        tail = gamma(1.0 / p) * float(gammaincc(1.0 / p, T ** p)) / p
        if tail <= tol / 8:
            return T, tail
        T *= 1.15
    raise ToleranceUnreachedError(tol / 8, tail, where="tail cutoff")


def fourier_1d(p: float, r: float, tol: float = 1e-10):
    """(value, error_bound) for fhat_p(r) with certified absolute error.

    Splits off the integrand tail analytically and runs oscillatory-weight
    quadrature on the rest.  A single QAGS/QAWO error estimate is not
    trusted: the routine is run at two tolerances and the results must agree,
    with the observed discrepancy folded into the reported bound.  Raises if
    the requested tolerance cannot be certified.
    """
    # scipy.integrate is most of the package's import time; only here needs it
    from scipy.integrate import quad

    if not 0 < p <= 2:
        raise ValueError("p must be in (0, 2]")
    r = abs(float(r))
    T, tailbound = _cutoff(p, tol)
    integrand = lambda t: math.exp(-t ** p)
    fewcycles = r * T < 4.0
    w = 2 * math.pi * r
    if fewcycles:
        # few cycles: QAWO is overkill, and handing QAGS the whole range
        # invites its extrapolation to stall on a pseudo-limit (seen in the
        # wild: errors 100x the estimate on smooth data).  Integrating
        # between the cosine zeros keeps every panel extrapolation-free.
        edges = [0.0]
        z = 0.25 * math.pi / w if w > 0 else T
        while z < T:
            edges.append(z)
            z += 0.5 * math.pi / w
        edges.append(T)

    def attempt(epsabs):
        if fewcycles:
            tot = errtot = 0.0
            per = epsabs / len(edges)
            for a, b in zip(edges[:-1], edges[1:]):
                val, err = quad(lambda t: math.exp(-t ** p) * math.cos(w * t),
                                a, b, epsabs=per, epsrel=1e-12, limit=200)
                tot += val
                errtot += err
            return tot, errtot
        return quad(integrand, 0.0, T, weight="cos", wvar=w,
                    epsabs=epsabs, epsrel=1e-13, limit=4000)

    prev = None
    total_err = math.inf
    for epsabs in (tol / 4, tol / 40, tol / 400):
        val, err = attempt(epsabs)
        if not np.isfinite(val):
            continue
        if prev is not None:
            total_err = 2 * err + 2 * abs(val - prev) + 2 * tailbound
            if total_err <= tol:
                return 2 * val, total_err
        prev = val
    raise ToleranceUnreachedError(tol, total_err, where=f"fhat_{p}({r})")


@dataclass
class Transform1DTable:
    """Tabulated fhat_p with power-law continuation beyond the last node."""

    p: float
    nodes: np.ndarray
    values: np.ndarray
    tail_exponent_coeff: float  # raw asymptotic coefficient C_p
    tail_scale: float           # continuity rescale applied past r_max
    tol: float

    @property
    def r_max(self):
        return float(self.nodes[-1])

    def eval(self, r):
        """Interpolated fhat_p(|r|); vectorized, nonnegative."""
        r = abs(np.asarray(r, dtype=float))
        out = np.interp(r, self.nodes, self.values)
        far = r > self.nodes[-1]
        if np.any(far):
            if self.tail_exponent_coeff == 0.0:
                out = np.where(far, 0.0, out)
            else:
                rsafe = np.where(far, r, 1.0)  # keep 0**(-p-1) out of the unused branch
                tail = (self.tail_scale * self.tail_exponent_coeff
                        * rsafe ** (-self.p - 1))
                out = np.where(far, tail, out)
        return out if out.ndim else float(out)

    def tail_envelope(self, r):
        """Upper bound on fhat_p(|r|) for r >= r_max (factor-2 head room)."""
        r = abs(np.asarray(r, dtype=float))
        if self.tail_exponent_coeff == 0.0:
            return np.full_like(r, float(self.values[-1]) + self.tol)
        return 2.0 * self.tail_exponent_coeff * r ** (-self.p - 1)

    def to_dict(self):
        return {
            "p": self.p,
            "nodes": [float(v) for v in self.nodes],
            "values": [float(v) for v in self.values],
            "tail_exponent_coeff": self.tail_exponent_coeff,
            "tail_scale": self.tail_scale,
            "tol": self.tol,
        }

    @classmethod
    def from_dict(cls, d):
        return cls(p=float(d["p"]),
                   nodes=np.asarray(d["nodes"], dtype=float),
                   values=np.asarray(d["values"], dtype=float),
                   tail_exponent_coeff=float(d["tail_exponent_coeff"]),
                   tail_scale=float(d["tail_scale"]),
                   tol=float(d["tol"]))


def _pick_r_max(p, tol):
    """Smallest radius (in steps of 2) where the asymptote is trustworthy.

    Trustworthy means 5% relative agreement with quadrature, or the value
    itself has decayed below tol (the p=2 route, where C_p = 0).
    """
    C = transform_tail_coefficient(p)
    r = 4.0
    while r <= _RMAX_CAP:
        val, _ = fourier_1d(p, r, tol)
        if val <= tol:
            return r
        if C > 0 and abs(C * r ** (-p - 1) - val) <= 0.05 * abs(val):
            return r
        r += 2.0
    raise ToleranceUnreachedError(0.05, math.inf,
                                  where=f"asymptote switch for p={p}")


def build_transform_table(p: float, r_max: float | None = None,
                          tol: float = 1e-8) -> Transform1DTable:
    """Adaptive table of fhat_p on [0, r_max].

    Nodes are refined until the midpoint of every interval interpolates to
    within 5*tol of quadrature, which keeps the piecewise-linear error below
    the documented 10*tol.  Values are clamped to be nonnegative and
    non-increasing (the true transform is both); clamps beyond 4*tol would
    mean broken quadrature and raise.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    C = transform_tail_coefficient(p)
    if r_max is None:
        r_max = _pick_r_max(p, tol)
    else:
        r_max = float(r_max)
        val, _ = fourier_1d(p, r_max, tol)
        ok = val <= tol or (C > 0 and abs(C * r_max ** (-p - 1) - val) <= 0.05 * abs(val))
        if not ok:
            raise ValueError(
                f"r_max={r_max} is inside the pre-asymptotic region for p={p}; "
                f"pass r_max=None to extend automatically")

    pts = {}

    def value(r):
        if r not in pts:
            pts[r] = fourier_1d(p, r, tol)[0]
        return pts[r]

    def refine(r0, r1, depth):
        rm = 0.5 * (r0 + r1)
        vm = value(rm)
        if abs(vm - 0.5 * (value(r0) + value(r1))) <= 5 * tol:
            return
        if depth > 40 or (r1 - r0) < 1e-9 * max(1.0, r_max):
            raise ToleranceUnreachedError(
                5 * tol, abs(vm - 0.5 * (value(r0) + value(r1))),
                where=f"node refinement near r={rm:.4g}")
        refine(r0, rm, depth + 1)
        refine(rm, r1, depth + 1)

    coarse = np.linspace(0.0, r_max, 65)
    for a, b in zip(coarse[:-1], coarse[1:]):
        refine(float(a), float(b), 0)

    nodes = np.array(sorted(pts))
    values = np.array([pts[r] for r in nodes])

    # impose the structure the true transform is known to have
    clamped = np.maximum(values, 0.0)
    clamped = np.minimum.accumulate(clamped)
    worst = float(abs(clamped - values).max())
    if worst > 4 * tol:
        raise ToleranceUnreachedError(4 * tol, worst, where="monotone clamp")
    values = clamped

    if C > 0:
        raw_tail = C * nodes[-1] ** (-p - 1)
        tail_scale = float(values[-1] / raw_tail) if raw_tail > 0 else 1.0
    else:
        tail_scale = 0.0
    return Transform1DTable(p=float(p), nodes=nodes, values=values,
                            tail_exponent_coeff=C, tail_scale=tail_scale,
                            tol=float(tol))


def table_cache_key(p, r_max, tol):
    return f"transform_p{p:g}_rmax{r_max:g}_tol{tol:g}.json"


def save_table(table: Transform1DTable, directory):
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory,
                        table_cache_key(table.p, table.r_max, table.tol))
    with open(path, "w") as fh:
        json.dump(table.to_dict(), fh)
    return path


def load_table(path) -> Transform1DTable:
    with open(path) as fh:
        return Transform1DTable.from_dict(json.load(fh))


def cached_transform_table(p, tol=1e-8, directory=None,
                           r_max=None) -> Transform1DTable:
    """Build a table, or reload a previously saved one from `directory`.

    The default extent is the asymptote switch radius, the shortest
    certifiable table.  Lattice summation wants a longer one (the tail
    envelope is only certified past the last node), so pass r_max explicitly
    there.
    """
    if directory is not None:
        if r_max is None:
            r_max = _pick_r_max(p, tol)
        path = os.path.join(directory, table_cache_key(p, r_max, tol))
        if os.path.exists(path):
            return load_table(path)
        table = build_transform_table(p, r_max=r_max, tol=tol)
        save_table(table, directory)
        return table
    return build_transform_table(p, r_max=r_max, tol=tol)
