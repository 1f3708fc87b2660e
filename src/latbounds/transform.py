"""1-D Fourier transforms of exp(-|t|^p) on 0 < p <= 2.

fhat_p(r) = integral exp(-|t|^p) cos(2 pi r t) dt is 2 pi f_p(2 pi r), with
f_p the density of the symmetric p-stable law.  For x > 0 and p != 1,
Zolotarev's integral (Zolotarev 1986; Nolan 1997) gives
f_p(x) = p / (pi |p-1| x) * integral_0^{pi/2} h e^-h dtheta, where
h = x^c (cos theta / sin p theta)^c cos((p-1) theta) / cos theta, c = p/(p-1):
positive, not oscillating, h monotone in theta.  `fourier_1d` integrates it
on u = log(theta / (pi/2 - theta)), in 20-node Gauss-Legendre panels between
the points where the integrand has fallen by 0.5, 2, 4.5, 8, ... below its
value at h = 1, halving a panel whose estimate is poor.  Its error is a
checked estimate, not a proven bound: the top Legendre coefficients of each
panel, a bound on the mass past the outer panels, and a rounding allowance.
p = 1, p = 2 and r = 0 have closed forms.

Tables hold fhat_p on adaptive nodes, built breadth-first (one batched call
per level), and continue past the last node with C_p r^(-p-1), rescaled to
meet the last value, from where the raw asymptote is within 5% of fhat_p.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import ToleranceUnreachedError

_RMAX_CAP = 192.0
_HALF_PI = 0.5 * math.pi
_U_MAX = 60.0                     # theta within e^-60 of 0 or pi/2
_DROPS = np.array([0.5, 2.0, 4.5, 8.0, 14.0, 22.0, 32.0, 46.0])
_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(20)
# maps the values at the nodes to the interpolant's P_18 and P_19 coefficients
_TOP = (np.polynomial.legendre.legvander(_NODES, 19)[:, 18:]
        * _WEIGHTS[:, None] * [18.5, 19.5])
_BLOCK = 512                      # radii per batch, to bound memory
_EPS = float(np.finfo(float).eps)


def transform_tail_coefficient(p: float) -> float:
    """Leading coefficient of the |r| -> inf expansion, fhat ~ C * r^(-p-1).

    Vanishes at p=2 where the transform decays faster than any power.
    """
    if not 0 < p <= 2:
        raise ValueError("p must be in (0, 2]")
    if p == 2:
        return 0.0
    return -math.pi ** (-p - 0.5) * math.gamma((p + 1) / 2) / math.gamma(-p / 2)


def _integrand(p, logx, u):
    """(log G, log h) at u, where G = h e^-h dtheta/du.  h falls with u for
    p > 1 and rises for p < 1."""
    c = p / (p - 1)
    e_lo, e_hi = np.exp(np.minimum(u, 0.0)), np.exp(-np.maximum(u, 0.0))
    d = _HALF_PI / (1 + e_lo * e_hi)
    theta, psi = d * e_lo, d * e_hi  # psi = pi/2 - theta, to full relative accuracy
    # sin(p theta) = sin(pi - p theta), whose argument keeps its relative
    # accuracy where p theta nears pi
    arg = np.minimum(p * theta, math.pi * (1 - 0.5 * p) + p * psi)
    log_h = (c * logx + (c - 1) * np.log(np.sin(psi)) - c * np.log(np.sin(arg))
             + np.log(np.cos((p - 1) * theta)))
    h = np.exp(np.minimum(log_h, 700.0))
    return log_h - h + np.log(theta * psi / _HALF_PI), log_h


def _bisect(lo, hi, above, steps):
    """Elementwise, where `above` turns from True (at lo) to False (at hi)."""
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        keep = above(mid)
        lo, hi = np.where(keep, mid, lo), np.where(keep, hi, mid)
    return 0.5 * (lo + hi)


def _zolotarev(p, r):
    """(value, error estimate) of fhat_p at radii r > 0; p not 1 or 2."""
    logx = np.log(2 * math.pi * r)[:, None]
    span = np.full_like(logx, _U_MAX)
    # the peak of h e^-h, where h = 1; near p = 1 it is ~|p-1| wide
    peak = _bisect(-span, span, lambda u: (_integrand(p, logx, u)[1] > 0) == (p > 1), 48)
    log_g, log_h = _integrand(p, logx, peak)
    # edges where log G has dropped by _DROPS, bisecting log distances
    side = np.repeat([-1.0, 1.0], _DROPS.size)
    target = log_g - np.tile(_DROPS, 2)
    log_dist = _bisect(np.full(target.shape, math.log(1e-12)),
                       np.full(target.shape, math.log(_U_MAX)),
                       lambda t: _integrand(p, logx, peak + side * np.exp(t))[0] > target, 10)
    edges = np.sort(np.hstack([peak + side * np.exp(log_dist), peak]), axis=1)
    row = np.repeat(np.arange(r.size), edges.shape[1] - 1)
    a, b = edges[:, :-1].ravel(), edges[:, 1:].ravel()
    total, gap, first = np.zeros(r.size), np.zeros(r.size), None
    # halve a panel whose estimate exceeds 1e-12 of the first pass's sum: a
    # shelf in h near p = 2 can leave one too wide for the rule
    for rounds in range(6, -1, -1):
        half = 0.5 * (b - a)
        g = np.exp(_integrand(p, logx[row], a[:, None] + half[:, None] * (1 + _NODES))[0])
        q, e = (g @ _WEIGHTS) * half, np.abs(g @ _TOP).sum(axis=1) * half
        first = np.bincount(row, q, r.size) if first is None else first
        split = (e > 1e-12 * first[row]) & (rounds > 0)
        total += np.bincount(row[~split], q[~split], r.size)
        gap += np.bincount(row[~split], e[~split], r.size)
        mid = 0.5 * (a + b)[split]
        a, b, row = np.r_[a[split], mid], np.r_[mid, b[split]], np.r_[row[split], row[split]]
    # past an outer edge h is monotone, so h e^-h is at most its value at the
    # edge (or its maximum 1/e, if the peak lies beyond) times the angle left
    ends = edges[:, [0, -1]]
    h = np.exp(np.minimum(_integrand(p, logx, ends)[1], 700.0))
    beyond = np.where([p > 1, p < 1], h < 1, h > 1)     # is h = 1 past the end?
    angle = _HALF_PI / (1 + np.exp(ends * [-1.0, 1.0]))
    tail = (np.where(beyond, 1 / math.e, h * np.exp(-h)) * angle).sum(axis=1)
    scale = p / (math.pi * abs(p - 1) * r)
    # float exponents carry about |c| (1 + |log x|) ulps into the integrand
    rounding = 16 * _EPS * (1 + abs(p / (p - 1)) * (1 + np.abs(logx[:, 0])))
    return scale * total, np.where(np.abs(log_h[:, 0]) > 1, np.inf,  # h = 1 not found
                                   scale * (gap + tail + rounding * total))


def _evaluate(p, r):
    if p in (1, 2):
        value = (2.0 / (1.0 + (2 * math.pi * r) ** 2) if p == 1
                 else math.sqrt(math.pi) * np.exp(-(math.pi * r) ** 2))
        return value, 4 * _EPS * value
    value = np.full_like(r, 2 * math.gamma(1 + 1 / p))
    err = (16 + 1 / p) * _EPS * value  # math.gamma, and 1/p's rounding
    value[r > 0], err[r > 0] = _zolotarev(p, r[r > 0])
    return value, err


def fourier_1d(p: float, r, tol: float = 1e-10):
    """(value, error) of fhat_p at r, a radius or an array of radii, from
    Zolotarev's integral in batches; the error is a checked estimate (see
    the module docstring).  Raises if it exceeds `tol` at any radius."""
    if not 0 < p <= 2:
        raise ValueError("p must be in (0, 2]")
    radii = np.abs(np.asarray(r, dtype=float))
    flat = radii.ravel()
    value, err = np.empty_like(flat), np.empty_like(flat)
    for i in range(0, flat.size, _BLOCK):
        value[i:i + _BLOCK], err[i:i + _BLOCK] = _evaluate(p, flat[i:i + _BLOCK])
    if flat.size and not err.max() <= tol:  # also catches NaN
        raise ToleranceUnreachedError(tol, err.max(), where=f"fhat_{p}({flat[err.argmax()]:g})")
    if radii.ndim == 0:
        return float(value[0]), float(err[0])
    return value.reshape(radii.shape), err.reshape(radii.shape)


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
        return {**vars(self), "nodes": self.nodes.tolist(), "values": self.values.tolist()}

    @classmethod
    def from_dict(cls, d):
        arrays = {k: np.asarray(d[k], dtype=float) for k in ("nodes", "values")}
        return cls(**{k: float(v) for k, v in d.items() if k not in arrays}, **arrays)


def _asymptotic(p, r, values, tol):
    """Where the values at r are below tol or within 5% of C_p r^(-p-1)."""
    C = transform_tail_coefficient(p)
    return (values <= tol) | ((C > 0) & (abs(C * r ** (-p - 1) - values) <= 0.05 * abs(values)))


def _pick_r_max(p, tol):
    """Smallest radius in 4, 6, ..., 192 where the asymptote is trustworthy."""
    radii = np.arange(4.0, _RMAX_CAP + 1.0, 2.0)
    ok = _asymptotic(p, radii, fourier_1d(p, radii, tol)[0], tol)
    if not ok.any():
        raise ToleranceUnreachedError(0.05, math.inf, where=f"asymptote switch for p={p}")
    return float(radii[np.argmax(ok)])


def build_transform_table(p: float, r_max: float | None = None,
                          tol: float = 1e-8) -> Transform1DTable:
    """Adaptive table of fhat_p on [0, r_max].

    Of 64 equal intervals, each whose midpoint value misses the average of
    its ends by more than 5*tol is halved, and so on level by level, which
    keeps the piecewise-linear error below the documented 10*tol.  Values
    are clamped to be nonnegative and non-increasing (the true transform is
    both); clamps beyond 4*tol would mean a broken evaluator and raise.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    C = transform_tail_coefficient(p)
    if r_max is None:
        r_max = _pick_r_max(p, tol)
    else:
        r_max = float(r_max)
        if not _asymptotic(p, r_max, fourier_1d(p, r_max, tol)[0], tol):
            raise ValueError(
                f"r_max={r_max} is inside the pre-asymptotic region for p={p}; "
                f"pass r_max=None to extend automatically")

    lo = np.linspace(0.0, r_max, 65)
    nodes, values = [lo], [fourier_1d(p, lo, tol)[0]]
    lo, hi, vlo, vhi = lo[:-1], lo[1:], values[0][:-1], values[0][1:]
    while lo.size:
        mid = 0.5 * (lo + hi)
        vmid = fourier_1d(p, mid, tol)[0]
        nodes.append(mid)
        values.append(vmid)
        miss = np.abs(vmid - 0.5 * (vlo + vhi))
        split = miss > 5 * tol
        if (hi - lo)[split].min(initial=np.inf) < 1e-9 * max(1.0, r_max):
            raise ToleranceUnreachedError(5 * tol, miss.max(), where=(
                f"node refinement near r={mid[np.argmax(miss)]:.4g}"))
        lo, hi = np.r_[lo[split], mid[split]], np.r_[mid[split], hi[split]]
        vlo, vhi = np.r_[vlo[split], vmid[split]], np.r_[vmid[split], vhi[split]]
    order = np.argsort(np.concatenate(nodes))
    nodes, values = np.concatenate(nodes)[order], np.concatenate(values)[order]

    # impose the structure the true transform is known to have
    clamped = np.minimum.accumulate(np.maximum(values, 0.0))
    worst = float(abs(clamped - values).max())
    if worst > 4 * tol:
        raise ToleranceUnreachedError(4 * tol, worst, where="monotone clamp")

    if C > 0:
        raw_tail = C * nodes[-1] ** (-p - 1)
        tail_scale = float(clamped[-1] / raw_tail) if raw_tail > 0 else 1.0
    else:
        tail_scale = 0.0
    return Transform1DTable(p=float(p), nodes=nodes, values=clamped,
                            tail_exponent_coeff=C, tail_scale=tail_scale,
                            tol=float(tol))


def table_cache_key(p, r_max, tol):
    return f"transform_p{p:g}_rmax{r_max:g}_tol{tol:g}.json"


def cached_transform_table(p, tol=1e-8, directory=None,
                           r_max=None) -> Transform1DTable:
    """Build a table, or reload one saved in `directory`.  The default extent
    is the asymptote switch radius; lattice summation wants a longer table
    (the tail envelope holds only past the last node), so passes r_max."""
    if directory is None:
        return build_transform_table(p, r_max=r_max, tol=tol)
    if r_max is None:
        r_max = _pick_r_max(p, tol)
    path = os.path.join(directory, table_cache_key(p, r_max, tol))
    if os.path.exists(path):
        with open(path) as fh:
            return Transform1DTable.from_dict(json.load(fh))
    table = build_transform_table(p, r_max=r_max, tol=tol)
    os.makedirs(directory, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(table.to_dict(), fh)
    return table
