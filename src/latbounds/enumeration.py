"""Exact lattice point enumeration in l^p balls, shortest vectors, covering radii.

One primitive, ``enumerate_arrays``, does all enumeration; shortest vectors,
CVP distances and the covering-radius candidate sets are built on it.  It
runs a Fincke-Pohst branch-and-bound over the Gram-Schmidt coordinates of an
LLL-reduced basis, with a node budget.  At the bottom level the admissible
c0 are exactly those with D[0] * (c0 + shift[0] + s[0])^2 within the
remaining budget; that cost is convex in c0, so they form one integer
interval.  Each leaf of the search is therefore stored as an interval
(lo, length, higher coefficients), never point by point, and all leaves are
expanded into one (m, n) int64 array in a single numpy pass at the end.
l^p balls for p != 2 are handled by enumerating the circumscribed l^2 ball
and filtering, with the norm-comparison factor max(1, n^(1/2 - 1/p)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceededError, InvariantError
from .lattice import Lattice, _gso, lll_reduce, lp_norm

DEFAULT_NODE_BUDGET = 100_000_000
DEFAULT_GRID_BUDGET = 10_000_000

# relative slack used when deciding boundary membership ||x||_p <= r
_BOUNDARY_SLACK = 1e-12


@dataclass(frozen=True)
class BodySpec:
    """A centrally symmetric l^p ball of given radius (p may be inf)."""

    p: float
    radius: float

    def __post_init__(self):
        if not (self.p > 0):
            raise ValueError(f"p must be positive, got {self.p}")
        if not (self.radius > 0):
            raise ValueError(f"radius must be positive, got {self.radius}")

    def norm(self, x):
        """The gauge ||x||_K = ||x||_p / radius (1.0 on the boundary)."""
        return lp_norm(x, self.p) / self.radius

    def contains(self, x):
        return lp_norm(x, self.p) <= self.radius * (1 + _BOUNDARY_SLACK)


def l2_circumscribe_factor(p: float, n: int) -> float:
    """Radius inflation so the l^2 ball contains the l^p ball of radius 1.

    For p <= 2 the l^p ball already sits inside the l^2 ball of the same
    radius; for p > 2 the corners stick out by n^(1/2 - 1/p).
    """
    if math.isinf(p):
        return math.sqrt(n)
    if p >= 2:
        return n ** (0.5 - 1.0 / p)
    return 1.0


class _Counter:
    __slots__ = ("visited", "budget", "found")

    def __init__(self, budget):
        self.visited = 0
        self.budget = int(budget)
        self.found = 0

    def spend(self, k):
        self.visited += int(k)
        if self.visited > self.budget:
            raise BudgetExceededError(self.budget, self.visited,
                                      partial_count=self.found)


def _enum_l2_coeffs(basis, shift, r2, counter):
    """(m, n) int64 rows c with ||(c + shift) @ basis||_2 <= r2, unordered.

    shift is the real coefficient vector of the translation.  Levels are
    searched highest first; every bottom-level interval is kept as a leaf
    (lo, length, prefix) and all leaves are expanded together at the end.
    """
    n = basis.shape[0]
    mu, D, _ = _gso(basis)
    mu, D, shift = mu.tolist(), D.tolist(), shift.tolist()
    bound2 = r2 * r2 * (1 + 1e-9) + 1e-300
    los, lens, prefixes = [], [], []

    def descend(k, s, rem2, prefix):
        # s[j] = sum over fixed i>k of (c_i + shift_i) * mu[i][j]
        if rem2 < 0:
            return
        w2 = rem2 / D[k]
        if w2 < 0 or not math.isfinite(w2):
            return
        w = math.sqrt(w2)
        center = -shift[k] - s[k]
        cmin = math.ceil(center - w - 1e-12)
        cmax = math.floor(center + w + 1e-12)
        if cmax < cmin:
            return
        counter.spend(cmax - cmin + 1)
        limit = rem2 * (1 + 1e-9) + 1e-300
        if k == 0:
            a, b, d = shift[0], s[0], D[0]
            lo, hi = cmin, cmax
            while lo <= hi and not d * (lo + a + b) * (lo + a + b) <= limit:
                lo += 1
            while hi > lo and not d * (hi + a + b) * (hi + a + b) <= limit:
                hi -= 1
            if lo <= hi:
                los.append(lo)
                lens.append(hi - lo + 1)
                prefixes.append(prefix)
                counter.found += hi - lo + 1
            return
        row, sk, tk, dk = mu[k], s[k], shift[k], D[k]
        for c in range(cmin, cmax + 1):
            y = c + tk + sk
            cost = dk * y * y
            if cost <= limit:
                t = c + tk
                descend(k - 1, [s[j] + t * row[j] for j in range(k)],
                        rem2 - cost, (c,) + prefix)

    descend(n - 1, [0.0] * n, bound2, ())
    counts = np.array(lens, dtype=np.int64)
    m = int(counts.sum())
    first = np.cumsum(counts) - counts
    coeffs = np.empty((m, n), dtype=np.int64)
    coeffs[:, 0] = np.repeat(np.array(los, dtype=np.int64) - first, counts) \
        + np.arange(m)
    coeffs[:, 1:] = np.repeat(
        np.array(prefixes, dtype=np.int64).reshape(len(lens), n - 1),
        counts, axis=0)
    return coeffs


def enumerate_arrays(L: Lattice, v, r: float, p: float = 2,
                     node_budget: int = DEFAULT_NODE_BUDGET):
    """Points x in L with ||x + v||_p <= r, as (coords, embeddings) arrays.

    coords is (m, n) int64 in the basis of L, embeddings is coords @ basis;
    rows sorted lexicographically by coords.  Exact: no point of the ball
    is missed and none outside is returned (boundary ties resolved within
    1e-12 relative).  Raises BudgetExceededError when the branch-and-bound
    tree outgrows node_budget.
    """
    if r < 0:
        raise ValueError("radius must be nonnegative")
    v = np.asarray(v, dtype=float)
    if v.shape != (L.dim,):
        raise ValueError(f"v must have shape ({L.dim},)")
    reduced, U = lll_reduce(L, return_transform=True)
    shift = reduced.coefficients(v)
    r2 = r * l2_circumscribe_factor(p, L.dim)
    cred = _enum_l2_coeffs(reduced.basis, shift, r2, _Counter(node_budget))
    if not len(cred):
        return (np.zeros((0, L.dim), dtype=np.int64),
                np.zeros((0, L.dim), dtype=float))
    keep = lp_norm(cred @ reduced.basis + v, p) <= r * (1 + _BOUNDARY_SLACK)
    orig = cred[keep] @ U
    orig = orig[np.lexsort(orig.T[::-1])]
    return orig, orig.astype(float) @ L.basis


def shortest_vector(L: Lattice, p: float = 2,
                    node_budget: int = DEFAULT_NODE_BUDGET):
    """Minimum l^p norm over nonzero lattice points, with all minimizers.

    Returns (sigma, minimizers); minimizers is the (m, n) int64 array of the
    coefficients of every nonzero point whose norm is within 1e-9 relative
    of sigma, sorted lexicographically.
    """
    reduced = lll_reduce(L)
    r0 = min(lp_norm(row, p) for row in reduced.basis)
    coords, emb = enumerate_arrays(L, np.zeros(L.dim), r0 * (1 + 1e-6),
                                   p=p, node_budget=node_budget)
    nonzero = np.any(coords != 0, axis=1)
    if not nonzero.any():
        raise InvariantError("ball around the shortest basis row lost all points")
    norms = lp_norm(emb[nonzero], p)
    sigma = norms.min()
    return float(sigma), coords[nonzero][norms <= sigma * (1 + 1e-9)]


def cvp_distance(L: Lattice, target, p: float = 2,
                 node_budget: int = DEFAULT_NODE_BUDGET) -> float:
    """Exact l^p distance from target to the nearest lattice point.

    Starts from the rounding (Babai) candidate and enumerates; the initial
    radius already contains the optimum, the doubling loop is a safety net.
    """
    target = np.asarray(target, dtype=float)
    a = L.coefficients(target)
    babai = np.round(a) @ L.basis
    r = float(lp_norm(babai - target, p))
    if r == 0.0:
        return 0.0
    r *= 1 + 1e-9
    for _ in range(60):
        _, emb = enumerate_arrays(L, -target, r, p=p, node_budget=node_budget)
        if len(emb):
            return float(lp_norm(emb - target, p).min())
        r *= 2
    raise RuntimeError("cvp enumeration failed to find any point")  # pragma: no cover


def _fundamental_cell_data(L, p):
    reduced = lll_reduce(L)
    B = reduced.basis
    row_norms = lp_norm(B, p)
    d_cell = float(row_norms.sum())  # l^p diameter bound of the basis cell
    return reduced, B, d_cell


def covering_radius_estimate(L: Lattice, p: float = 2, resolution: int = 64,
                             grid_budget: int = DEFAULT_GRID_BUDGET,
                             node_budget: int = DEFAULT_NODE_BUDGET):
    """Certified bracket (lower, upper) for the l^p covering radius.

    Sweeps a resolution^dim grid over the fundamental cell of the reduced
    basis, takes the exact CVP distance at every grid point (lower bound),
    and pads by the grid-cell diameter (upper bound): the distance function
    is 1-Lipschitz, so no point of the cell can beat the padded maximum.
    """
    if resolution < 1:
        raise ValueError("resolution must be >= 1")
    n = L.dim
    total = resolution ** n
    if total > grid_budget:
        raise BudgetExceededError(grid_budget, total)

    reduced, B, d_cell = _fundamental_cell_data(L, p)
    centroid = 0.5 * B.sum(axis=0)
    # Every grid point is within d_cell/2 of the centroid, and its nearest
    # lattice point is within d_cell/2 of it (round the coefficients), so a
    # ball of radius d_cell around the centroid certifiably contains every
    # nearest neighbour of every grid point.
    _, S = enumerate_arrays(reduced, -centroid, d_cell, p=p,
                            node_budget=node_budget)
    if not len(S):
        raise InvariantError("candidate set for covering radius is empty")

    best = 0.0
    if p == 2:
        # matmul distance expansion: far cheaper than the broadcast path
        chunk = max(1, int(20_000_000 / max(1, len(S))))
        S_sq = (S * S).sum(axis=1)
    else:
        chunk = max(1, int(4_000_000 / max(1, len(S) * n)))
    babai_bound = d_cell / 2 + 1e-9 * max(1.0, d_cell)
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total))
        K = np.array(np.unravel_index(idx, (resolution,) * n)).T
        G = (K / resolution) @ B
        if p == 2:
            d2 = (G * G).sum(axis=1)[:, None] - 2.0 * (G @ S.T) + S_sq[None, :]
            dists = np.sqrt(np.maximum(d2.min(axis=1), 0.0))
        else:
            dists = lp_norm(G[:, None, :] - S[None, :, :], p).min(axis=1)
        if not dists.max() <= babai_bound:
            raise InvariantError("candidate ball missed a nearest point")
        best = max(best, float(dists.max()))

    return best, best + d_cell / resolution
