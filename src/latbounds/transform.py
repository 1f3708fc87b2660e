"""1-D Fourier transforms of exp(-|t|^p) on 0 < p <= 2.

fhat_p(r) = integral exp(-|t|^p) cos(2 pi r t) dt is 2 pi f_p(2 pi r), with
f_p the density of the symmetric p-stable law.  `fourier_1d` has two routes.

The series route, for 1 < p < 2 only: fhat_p is then entire, and its power
series in y = (2 pi r)^2 is summed by Horner over all the radii at once,
each with a proven error bound (truncation and rounding, derived in
`_series`).  A radius keeps the series value where that bound is at most
tol/8: at p = 1.5 and tol 1e-8 that is r <= 0.64, near p = 1 about r <=
0.14, and a radius whose terms would not shrink past the last one is never
taken.  At p <= 1 the series diverges.

The integral route takes every other radius.  For x > 0 and p != 1,
Zolotarev's integral (Zolotarev 1986; Nolan 1997) gives
f_p(x) = p / (pi |p-1| x) * integral_0^{pi/2} h e^-h dtheta, where
h = x^c (cos theta / sin p theta)^c cos((p-1) theta) / cos theta, c = p/(p-1):
positive, not oscillating, h monotone in theta.  On u = log(theta / (pi/2 -
theta)), log h = c log x + H(u), and neither H nor dtheta/du depends on x:
`fourier_1d` evaluates them once per batch of up to _BLOCK radii, on one
grid, and each radius pays two exps a point of its window.  The batch sets
the grid and the width each radius' row is padded to; the rows are summed
_SLICE at a time, which only bounds the working set.  The integrand is
analytic and decays at both ends, so the trapezoid rule converges
geometrically (Trefethen and Weideman, SIAM Review 56, 2014).  Its error is
a checked estimate, not yet a bound: |T_2h - T_h| on nested grids (h halved
where it exceeds 1e-12 of the sum and the rounding), the mass past the
window's ends (h is monotone), and a rounding allowance summed point by
point.  Their strip-of-analyticity bound is the route to a proven bound.
p = 1, p = 2 and r = 0 have closed forms.

Tables hold fhat_p on adaptive nodes of [0, r_max], built breadth-first
(one batched call per level), and continue past r_max as values[-1]
(r_max/r)^(p+1): fhat_p's power-law tail C_p r^(-p-1) (Zolotarev 1986),
through the last value.  ``_refuse_pre_asymptotic`` states where that tail
may start, for the tables and for psf's fractional-p dual series alike.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ToleranceUnreachedError

_HALF_PI = 0.5 * math.pi
_U_MAX = 60.0                     # theta within e^-60 of 0 or pi/2
_STEP = 0.15                      # the grid step, times max(1, |c|, |c - 1|)
_LOW = 32.0                       # log(1e14), the mass past a window against the sum
_LOG_M = math.log(100.0)          # windows reach h = 100, where h e^-h < 4e-42
_BLOCK = 512                      # radii per batch: one grid, rows padded alike
_SLICE = 64                       # rows a pass holds, to bound memory
_EPS = float(np.finfo(float).eps)
_TERMS = 84                       # series terms: (2k)! stays a float up to c_85


def transform_tail_coefficient(p: float) -> float:
    """C in fhat ~ C r^(-p-1) as |r| -> inf; 0 at p=2 (faster than any power)."""
    if not 0 < p <= 2:
        raise ValueError("p must be in (0, 2]")
    if p == 2:
        return 0.0
    return -math.pi ** (-p - 0.5) * math.gamma((p + 1) / 2) / math.gamma(-p / 2)


def _grid(p, k, step):
    """[k, s H, left, right, J, E] at u = k step, no radius needed: s = sign(1 - p)
    makes s H rise; windows start on left and end on right, t = s H + s log(angle)
    and s H (angle = theta, p < 1) or s H and t (pi/2 - theta); E bounds H's ulps."""
    u = k * step
    c, s = p / (p - 1), (1.0 if p < 1 else -1.0)
    e = np.exp(-np.abs(u))
    d, log_d = _HALF_PI / (1 + e), math.log(_HALF_PI) - np.log1p(e)
    # theta and psi = pi/2 - theta, each to full relative accuracy
    theta, psi = np.where(u < 0, d * e, d), np.where(u < 0, d, d * e)
    log_theta, log_psi = log_d + np.minimum(u, 0.0), log_d - np.maximum(u, 0.0)
    # sin(p theta) = sin(pi - p theta) and cos((p - 1) theta) = sin(pi/2 -
    # |p - 1| theta), on arguments that keep their relative accuracy
    arg = np.minimum(p * theta, math.pi * (1 - 0.5 * p) + p * psi)
    with np.errstate(divide="ignore"):  # sin(arg) = 0 at a tiny p: E = inf
        a, b = (c - 1) * np.log(np.sin(psi)), c * np.log(np.sin(arg))
    cos = np.sin(min(p, 2 - p) * _HALF_PI + abs(p - 1) * psi)
    # theta, psi, the arguments and log sin of them are |u| + 11 ulps off (u
    # is rounded); logs, products and sums add their own size
    err = ((abs(c) + abs(c - 1) + 1) * (np.abs(u) + 11) + 8 * (np.abs(a) + np.abs(b))
           - 4 * math.log(math.sin(min(p, 2 - p) * _HALF_PI)) + 2)
    sh = s * (a - b + np.log(cos))
    t = sh + (log_theta if s > 0 else -log_psi)
    return [k, sh, *((t, sh) if s > 0 else (sh, t)), log_theta + log_psi - math.log(_HALF_PI), err]


def _window_sums(s, q, lo, hi, grid):
    """Sums of G = h e^-h dtheta/du, |1 - h| G, |1 - h| G E and G at even k
    over each radius' window, the grid points from where h e^-h angle (p < 1)
    or h e^-h reaches e^lo to where the other falls to e^-hi; and its ends.
    Every row is padded to the batch's longest window (numpy's pairwise sum
    depends on the width) and _SLICE rows are summed at a time, in place."""
    k, sh, left, right, jac, err = grid
    i0, i1 = np.searchsorted(left, q + lo), np.searchsorted(right, q + hi, "right")
    j = np.arange((i1 - i0).max(initial=0))
    even, odd, sens, sens_e = np.empty((4, q.size))  # even and odd j, then w
    for start in range(0, q.size, _SLICE):
        rows = slice(start, start + _SLICE)
        idx = np.minimum(i0[rows, None] + j, i1[rows, None] - 1)
        g = sh[idx]
        g -= q[rows, None]
        g *= s  # log h
        h = np.minimum(g, 700.0)  # an empty window pads with a point outside it
        np.exp(h, out=h)
        g -= h
        g += jac[idx]
        np.exp(g, out=g)
        g *= i0[rows, None] + j < i1[rows, None]
        even[rows], odd[rows] = g[:, ::2].sum(axis=1), g[:, 1::2].sum(axis=1)
        w = np.abs(np.subtract(1, h, out=h), out=h)
        w *= g
        sens[rows] = w.sum(axis=1)
        w *= err[idx]
        sens_e[rows] = w.sum(axis=1)
    return (even + odd, sens, sens_e, np.where(k[i0.clip(max=k.size - 1)] % 2, odd, even)), i0, i1


def _zolotarev(p, r):
    """(value, error estimate) of fhat_p at radii r > 0; p not 1 or 2."""
    c, s = p / (p - 1), (1.0 if p < 1 else -1.0)
    q = -s * c * np.log(2 * math.pi * r)     # s H where h = 1
    step = _STEP / max(1.0, abs(c), abs(c - 1))
    levels = math.floor(math.log(1 / step, 16))
    top = step * 16 ** levels
    grid = _grid(p, np.arange(-math.floor(_U_MAX / top), math.floor(_U_MAX / top) + 1), top)
    found = (grid[1][0] <= q) & (q <= grid[1][-1])  # else h = 1 is out of reach: error inf
    q = q.clip(grid[1][0], grid[1][-1])
    # windows reach h e^-h angle = e^-low: the mass past them < 1e-14 step e^J(peak)
    i = np.searchsorted(grid[1], q).clip(1, grid[0].size - 1)
    low = _LOW - math.log(step) - np.minimum(grid[4][i - 1], grid[4][i])
    lo, hi = (-low, np.full_like(q, _LOG_M)) if s > 0 else (np.full_like(q, -_LOG_M), low)
    starts, ends = np.sort(q + lo), np.sort(q + hi)
    for level in range(levels - 1, -1, -1):
        # split sixteenfold the cells that meet some radius' window
        k, _, left, right = grid[:4]
        meets = ((np.searchsorted(starts, left[1:], "right") > np.searchsorted(ends, right[:-1]))
                 & (np.diff(k) == 1))
        k = (16 * k[:-1][meets, None] + np.arange(17)).ravel()
        grid = _grid(p, k[np.diff(k, prepend=k[:1] - 1) > 0], step * 16 ** level)
    sums, i0, i1 = _window_sums(s, q, lo, hi, grid)
    total, sens, sens_e, even = (step * x for x in sums)
    gap, count = np.abs(total - 2 * even), i1 - i0
    # past a window end h e^-h is at most its value there (h is monotone) and
    # dtheta/du at most the angle left, so left-out points add step times that
    k, sh = grid[:2]
    ends = np.stack([i0, i1 - 1], axis=1).clip(0, k.size - 1)
    h = np.exp(np.minimum(s * (sh[ends] - q[:, None]), 700.0))
    angle = _HALF_PI / (1 + np.exp(k[ends] * step * [-1.0, 1.0]))
    tail = (h * np.exp(-h) * angle).sum(axis=1) * (1 + step)
    # rounding, in ulps: log h is off by E and |q| terms, and G by |1 - h| times
    # that (sens); the sum adds one a term; exp, J and the exponent's sums add
    # |log h| + 3h + 2|J| + ..., bounded through low and the window's reach
    shift = 2 * abs(c) + 4 * np.abs(q) + low + 3
    reach = step * np.abs(k[ends]).max(axis=1)
    todo = np.arange(q.size)
    for rounds in range(1, 8):
        rounding = _EPS * (sens_e + shift * sens + (count + 2 * low + 4 * reach + 32) * total)
        # halve the step where the estimate exceeds 1e-12 of the sum and the rounding
        todo = todo[gap[todo] > np.maximum(1e-12 * total[todo], rounding[todo])]
        if rounds == 7 or not todo.size:
            break
        step /= 2
        inside = np.cumsum(np.bincount(i0[todo], minlength=k.size + 1)
                           - np.bincount(i1[todo], minlength=k.size + 1))[:-1] > 0
        mid = (2 ** rounds * k[inside, None] + np.arange(1, 2 ** rounds, 2)).ravel()
        sums, m0, m1 = _window_sums(s, q[todo], lo[todo], hi[todo], _grid(p, mid, step))
        gap[todo], count[todo] = np.abs(0.5 * total[todo] - step * sums[0]), count[todo] + m1 - m0
        for acc, more in zip((total, sens, sens_e), sums):
            acc[todo] = 0.5 * acc[todo] + step * more
    scale = p / (math.pi * abs(p - 1) * np.where(found, r, 1.0))
    return scale * total, np.where(found & (i1 > i0), scale * (gap + tail + rounding), np.inf)


def _coefficients(p):
    """c_k = Gamma((2k+1)/p) / (2k)! for k = 0 .. _TERMS + 1, as floats, and
    a bound on each one's relative error: math.gamma within 16 ulps (CPython's
    mathmodule.c reports at most 10 in its tests), (2k)! and the quotient
    rounded once each, and the argument s = (2k+1)/p rounded once, which
    moves Gamma(s) by |psi| s u (u = eps/2), with |psi| <= 2 + log max(1, s)
    at s > 1/2."""
    s = np.array([(2 * k + 1) / p for k in range(_TERMS + 2)])
    c = np.array([math.gamma(x) / float(math.factorial(2 * k)) for k, x in enumerate(s)])
    return c, _EPS * (17 + 0.51 * s * (2 + np.log(np.maximum(s, 1.0))))


@functools.lru_cache(maxsize=64)
def _series_rows(p):
    """_series' Horner rows, k = 0 .. N: (-1)^k c_k for the value (0 at N),
    w_k c_k for the bound (c_N at N); and the largest y it takes."""
    c, allow = _coefficients(p)
    k = np.arange(_TERMS)
    weight = (2 * k + 4 + 4 * (k == 0)) * (0.5 * _EPS) + allow[:-2]
    rows = np.stack([np.r_[(-1.0) ** k * c[:-2], 0.0], np.r_[weight * c[:-2], c[-2]]], axis=1)
    return rows, c[-2] / c[-1] * (1 - 1e-9)


def _series(p, r):
    """(value, error bound) of fhat_p at radii r >= 0 from its power series;
    1 < p < 2.  The error is inf where the series is not tried.

    fhat_p(r) = (2/p) S(y), S(y) = sum_k (-1)^k c_k y^k, c_k = Gamma((2k+1)/p)
    / (2k)!, y = (2 pi r)^2: expand cos and integrate term by term, which
    sum_k int (xt)^2k / (2k)! e^-|t|^p dt = int cosh(xt) e^-|t|^p dt < inf
    allows for p > 1.  The ratio rho_k = c_{k+1} / c_k falls with k: with b =
    1/p, log(rho_{k+1} / rho_k) is 0 at b = 1 (every c_k is 1) and its
    b-derivative is the second difference of g(m) = m psi(m b) at m = 2k+1,
    2k+3, 2k+5, where g'' = b sum_n 2n / (mb + n)^3 > 0; so it is negative at
    b < 1.  The terms alternate in sign, so where y rho_N <= 1 they fall in
    size from k = N on, tend to 0 (rho_k ~ k^(2/p - 2)), and S less its first
    N = _TERMS terms is at most c_N y^N.  Only y <= c_N / c_{N+1} (1 - 1e-9)
    is taken, the 1e-9 paying for the c's errors.

    The sum is one Horner pass in y.  In units of u = eps/2, per term c_k y^k:
    Horner rounds term k by at most 2k+1 (Higham, Accuracy and Stability of
    Numerical Algorithms, 2002, eq. 5.3), the product with 2/p by 2 more,
    and c_k is off by its allowance (_coefficients).  y is fl(fl(2 pi r)^2),
    whose log is within 3.71 u of the exact one (math.pi is 0.36 u off), so
    it answers for a radius r' with |log(r'/r)| <= 1.86 u; since |r
    fhat_p'(r)| <= |fhat_p(r)| + fhat_p(0) <= 2 fhat_p(0) (integrate r d/dr
    cos(2 pi r t) by parts in t), the value moves by at most 3.72 u
    fhat_p(0), which is 3.72 u c_0 in S (below r ~ 1e-154, y's underflow adds
    c_1 2^-1074 more).  The weights w_k = (2k + 4 + 4 [k = 0]) u +
    allowance_k hold all of it; a second Horner row sums sum_k w_k c_k y^k +
    c_N y^N, and 1.01 pays for that row's own rounding, the errors of the c's
    in it, and Higham's m u / (1 - m u) in place of m u (m <= 2N)."""
    rows, top = _series_rows(p)
    value, err = np.full(r.size, np.nan), np.full(r.size, np.inf)
    with np.errstate(over="ignore"):  # a huge r gives y = inf, which is not taken
        y = (2 * math.pi * r) ** 2
    near = y <= top
    y = y[near]
    acc = np.zeros((2, y.size))
    for row in rows[::-1]:
        acc *= y
        acc += row[:, None]
    value[near], err[near] = (2 / p) * acc[0], (1.01 * (2 / p)) * acc[1]
    return value, err


def _evaluate(p, r):
    if p in (1, 2):
        value = (2.0 / (1.0 + (2 * math.pi * r) ** 2) if p == 1
                 else math.sqrt(math.pi) * np.exp(-(math.pi * r) ** 2))
        return value, 4 * _EPS * value
    value = np.full_like(r, 2 * math.gamma(1 + 1 / p) if p > 1 / 170 else math.inf)
    err = (16 + 1 / p) * _EPS * value  # math.gamma, and 1/p's rounding; inf past 2^1024
    value[r > 0], err[r > 0] = _zolotarev(p, r[r > 0])
    return value, err


def fourier_1d(p: float, r, tol: float = 1e-10):
    """(value, error) of fhat_p at r, a radius or an array of radii.  Raises
    if the error exceeds `tol` at any radius.

    At 1 < p < 2 and a finite tol, a radius whose power-series bound is at
    most tol/8 keeps the series value, and its error is a proven bound (the
    table's refinement compares values at 5 tol, which errors of tol/8 move
    by tol/4).  Every other radius, and every radius at p <= 1 or tol = inf,
    goes to Zolotarev's integral in batches of _BLOCK, and its error is a
    checked estimate (see the module docstring).

    An integral value depends on which radii share its batch, by an ulp or
    so: its row is padded to the batch's longest window, and the pairwise
    sum follows the width (at p = 1.5, 12 of 301 radii move, by at most
    4e-16 relative, between alone and in a batch of 3,001).  A series value
    depends on its radius alone."""
    if not 0 < p <= 2:
        raise ValueError("p must be in (0, 2]")
    radii = np.abs(np.asarray(r, dtype=float))
    flat = radii.ravel()
    value, err = np.empty_like(flat), np.empty_like(flat)
    rest = np.arange(flat.size)
    if 1 < p < 2 and tol < math.inf:
        value, err = _series(p, flat)
        rest = np.flatnonzero(~(err <= tol / 8))
    for i in range(0, rest.size, _BLOCK):
        block = rest[i:i + _BLOCK]
        value[block], err[block] = _evaluate(p, flat[block])
    if flat.size and not err.max() <= tol:  # also catches NaN
        raise ToleranceUnreachedError(tol, err.max(), where=f"fhat_{p}({flat[err.argmax()]:g})")
    if radii.ndim == 0:
        return float(value[0]), float(err[0])
    return value.reshape(radii.shape), err.reshape(radii.shape)


@dataclass
class Transform1DTable:
    """fhat_p tabulated on nodes from 0 to r_max, continued past r_max by
    its power-law tail through the last value."""

    p: float
    nodes: np.ndarray
    values: np.ndarray
    tol: float

    @property
    def r_max(self):
        return float(self.nodes[-1])

    def eval(self, r):
        """fhat_p(|r|): interpolated on the nodes, values[-1] (r_max/r)^(p+1)
        past r_max; vectorized, nonnegative."""
        r = abs(np.asarray(r, dtype=float))
        tail = self.values[-1] * (self.r_max / np.maximum(r, self.r_max)) ** (self.p + 1)
        out = np.where(r > self.r_max, tail, np.interp(r, self.nodes, self.values))
        return out if out.ndim else float(out)

    def to_dict(self):
        return {**vars(self), "nodes": self.nodes.tolist(), "values": self.values.tolist()}


# where every consumer takes fhat_p's power-law tail to start: the r_max of
# a manifest's tables and the end of the fractional-p psf dual series
R_TAIL = 96.0


def _refuse_pre_asymptotic(p, r, tol):
    """Raise ValueError unless fhat_p(r) is below tol or within 5% of
    C_p r^(-p-1): past r, a table and psf's dual series take that tail."""
    value = fourier_1d(p, r, tol)[0]
    tail = transform_tail_coefficient(p) * r ** (-p - 1)
    if not (value <= tol or abs(tail - value) <= 0.05 * abs(value)):
        raise ValueError(f"r = {r:g} is inside the pre-asymptotic region of "
                         f"fhat_p at p = {p:g}: neither below tol nor within "
                         "5% of C_p r^(-p-1)")


def build_transform_table(p: float, r_max: float, tol: float = 1e-8) -> Transform1DTable:
    """Adaptive table of fhat_p on [0, r_max]; r_max must pass
    ``_refuse_pre_asymptotic``, since ``eval`` continues past it by the tail.

    Of 64 equal intervals, each whose midpoint value misses the average of
    its ends by more than 5*tol is halved, and so on level by level, which
    keeps the piecewise-linear error below the documented 10*tol.  Values
    are clamped to be nonnegative and non-increasing (the true transform is
    both); clamps beyond 4*tol would mean a broken evaluator and raise.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    _refuse_pre_asymptotic(p, r_max, tol)

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

    return Transform1DTable(p=float(p), nodes=nodes, values=clamped, tol=float(tol))
