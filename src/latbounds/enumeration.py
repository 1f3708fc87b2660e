"""Exact lattice point enumeration in l^p balls, shortest vectors, covering radii.

One primitive, ``enumerate_arrays``, does all enumeration; shortest vectors
and the covering-radius candidate sets are built on it.  It runs a
Fincke-Pohst search over the Gram-Schmidt coordinates of an LLL-reduced
basis, level by level on numpy blocks of nodes, within a node budget.  The
bottom-level c0 that fit form one integer interval (the cost
D[0] * (c0 + shift[0] + s[0])^2 is convex), so leaves are stored as
intervals and expanded in one numpy pass at the end.  Coefficients are
counted in floats, so an interval end at 2^52 or beyond raises ValueError.
l^p balls for p != 2 are the circumscribed l^2 ball, filtered, with the
factor max(1, n^(1/2 - 1/p)).

The covering radius is bracketed by a second, geometric branch-and-bound:
dyadic cubes of the reduced basis's coefficient space are split only while
their Lipschitz upper bound can still exceed the best centre distance by
more than the requested width, so the work follows the shape of the
distance function rather than a uniform resolution^n grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceededError, InvariantError
from .lattice import (Lattice, _gso, distortion_bound, lll_reduce, lp_norm,
                      rational, rational_matmul, rational_solve)

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


# rows in one block of search nodes: children are built and searched this
# many at a time, depth first, so memory is O(n * _BLOCK) plus the leaves
_BLOCK = 1 << 16


def _spread(lo, counts):
    """Expand integer intervals [lo, lo + counts): (parent row, integer)."""
    parent = np.arange(len(counts)).repeat(counts)
    first = counts.cumsum() - counts
    return parent, (lo - first).repeat(counts) + np.arange(len(parent))


def _enum_l2_coeffs(basis, shift, r2, node_budget):
    """(m, n) int64 rows c with ||(c + shift) @ basis||_2 <= r2, unordered.

    shift is the real coefficient vector of the translation.  A level-k
    node holds c_>k, its offsets s and its remaining squared radius.  Each
    block's intervals are charged to node_budget before any child is built,
    and the leaves come out in the order of a node-by-node search.
    """
    n = basis.shape[0]
    mu, D, _ = _gso(basis)
    leaves = [(np.zeros(0), np.zeros(0, np.int64), np.zeros((0, n), np.int64))]
    visited = 0

    def search(k, s, rem, coef):
        nonlocal visited
        w = np.sqrt(rem / D[k])
        center = -shift[k] - s[:, k]
        lo = np.ceil(center - w - 1e-12)
        hi = np.floor(center + w + 1e-12)
        # lo <= hi + 1, so these bound every end and no count is negative
        if not (lo.min(initial=0) > -2**52 and hi.max(initial=0) < 2**52):
            raise ValueError("coefficients reach 2^52: too large to count")
        counts = (hi - lo + 1).astype(np.int64)
        visited += int(counts.sum())
        if visited > node_budget:
            raise BudgetExceededError(node_budget, visited)
        if k == 0:
            limit = rem * (1 + 1e-9) + 1e-300
            def fits(c):
                y = c + shift[0] + s[:, 0]
                return D[0] * y * y <= limit
            while True:  # step each end inward past the integers that miss
                bad_lo = (lo <= hi) & ~fits(lo)
                bad_hi = (hi > lo) & ~fits(hi)
                if not (bad_lo.any() or bad_hi.any()):
                    break
                lo += bad_lo
                hi -= bad_hi
            leaves.append((lo, (hi - lo + 1).astype(np.int64), coef))
            return
        parent, cs = _spread(lo, counts)
        for a in range(0, len(parent), _BLOCK):
            p, c = parent[a:a + _BLOCK], cs[a:a + _BLOCK]
            t = c + shift[k]
            y = t + s[:, k].take(p)
            rest = rem.take(p) - D[k] * y * y
            keep = rest >= 0  # a child with rest < 0 would charge nothing
            p = p[keep]
            child = coef.take(p, axis=0)
            child[:, k] = c[keep]
            s_child = s[:, :k].take(p, axis=0) + t[keep, None] * mu[k, :k]
            search(k - 1, s_child, rest[keep], child)

    search(n - 1, np.zeros((1, n)), np.array([r2 * r2 * (1 + 1e-9) + 1e-300]),
           np.zeros((1, n), dtype=np.int64))
    lo, counts, coef = map(np.concatenate, zip(*leaves))
    parent, c0 = _spread(lo, counts)
    coef = coef.take(parent, axis=0)
    coef[:, 0] = c0
    return coef


def enumerate_arrays(L: Lattice, v, r: float, p: float = 2,
                     node_budget: int = DEFAULT_NODE_BUDGET):
    """Points x in L with ||x + v||_p <= r, as (coords, embeddings) arrays.

    coords is (m, n) int64 in the basis of L, embeddings is coords @ basis;
    rows sorted lexicographically by coords.  Exact: no point of the ball
    is missed and none outside is returned (boundary ties resolved within
    1e-12 relative).  Raises BudgetExceededError when the branch-and-bound
    tree outgrows node_budget.
    """
    if not r >= 0:
        raise ValueError("radius must be nonnegative")
    v = np.asarray(v, dtype=float)
    if v.shape != (L.dim,):
        raise ValueError(f"v must have shape ({L.dim},)")
    reduced, U = lll_reduce(L, return_transform=True)
    shift = reduced.coefficients(v)
    r2 = r * l2_circumscribe_factor(p, L.dim)
    cred = _enum_l2_coeffs(reduced.basis, shift, r2, node_budget)
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


# relative outward rounding of a transported bracket: its two quotients,
# and the float evaluation of the distances it came from, cost a few ulp
_OUTWARD = 4 * 2.0 ** -52


def transport_bracket(lo, hi, eps):
    """Covering-radius bracket of lattice(A) from one of lattice(A @ T).

    With ||T - I|| <= eps < 1, rho(A @ T) <= (1 + eps) rho(A) and rho(A) <=
    rho(A @ T) / (1 - eps), so rho(A) lies in [lo/(1+eps), hi/(1-eps)].
    Both ends are rounded outward by a few ulp.
    """
    if not eps < 1:
        raise InvariantError(f"basis distortion {eps} is not below 1")
    return lo / (1 + eps) * (1 - _OUTWARD), hi / (1 - eps) * (1 + _OUTWARD)


def covering_radius_estimate(L: Lattice, p: float = 2, resolution: int = 64,
                             grid_budget: int = DEFAULT_GRID_BUDGET,
                             node_budget: int = DEFAULT_NODE_BUDGET):
    """Bracket (lower, upper) for the l^p covering radius of L, p >= 1.

    Branch-and-bound over dyadic cubes in the coefficient space of the
    LLL-reduced basis, starting from the whole cell [0,1)^n.  Level k
    evaluates the exact CVP distance at the centres of all its cubes (side
    2^-k) in one batch, the largest so far being the lower end; a cube's
    upper bound is that distance plus half its diameter, d_cell * 2^-(k+1),
    since the distance is 1-Lipschitz.  A cube whose upper bound is at most best + d_cell /
    resolution is dropped, every other one splits into its 2^n children, and
    the upper end is the largest upper bound of any dropped cube.  So
    upper - lower <= d_cell / resolution, as for a resolution^n grid, where
    d_cell is the sum of the reduced rows' l^p norms.

    grid_budget caps the number of centres evaluated; past it the search
    raises BudgetExceededError.  The bracket is for the lattice spanned
    exactly by L.basis: when the float LLL moved the lattice, the move is
    bounded exactly (``distortion_bound``) and undone by
    ``transport_bracket``.  The distances themselves are float values, a few
    ulp from exact; a caller that needs certified ends rounds them outward,
    as ``transference_check`` does.
    """
    if resolution < 1:
        raise ValueError("resolution must be >= 1")
    if not p >= 1:
        raise ValueError(f"the covering bracket needs a norm, p >= 1, got {p}")
    n = L.dim
    reduced, U = lll_reduce(L, return_transform=True)
    B = reduced.basis
    d_cell = float(lp_norm(B, p).sum())  # l^p diameter bound of the basis cell
    centroid = 0.5 * B.sum(axis=0)
    # Every point of the cell is within d_cell/2 of the centroid, and its
    # nearest lattice point is within d_cell/2 of it (round the
    # coefficients), so a ball of radius d_cell around the centroid
    # certifiably contains every nearest neighbour of every centre.
    _, S = enumerate_arrays(reduced, -centroid, d_cell, p=p,
                            node_budget=node_budget)
    if not len(S):
        raise InvariantError("candidate set for covering radius is empty")

    babai_bound = d_cell / 2 + 1e-9 * max(1.0, d_cell)
    chunk = max(1, 4_000_000 // (len(S) * n))
    children = np.indices((2,) * n).reshape(n, -1).T - 0.5
    K = np.full((1, n), 0.5)  # cube centres, in coefficients
    half = 0.5                # half the cubes' side
    best = upper_end = 0.0
    evaluated = 1
    while len(K):
        if evaluated > grid_budget:
            raise BudgetExceededError(grid_budget, evaluated)
        G = K @ B
        dists = np.concatenate([
            lp_norm(G[i:i + chunk, None, :] - S[None, :, :], p).min(axis=1)
            for i in range(0, len(G), chunk)])
        if not dists.max() <= babai_bound:
            raise InvariantError("candidate ball missed a nearest point")
        best = max(best, float(dists.max()))
        upper = dists + d_cell * half
        done = upper <= best + d_cell / resolution
        upper_end = float(np.max(upper, where=done, initial=upper_end))
        K = K[~done]
        evaluated += len(K) << n
        if evaluated <= grid_budget:  # else the loop raises, nothing built
            K = (K[:, None, :] + half * children).reshape(-1, n)
        half /= 2

    # reduced.basis = (U @ L.basis) @ drift exactly, U unimodular
    drift = rational_solve(rational_matmul(rational(U), rational(L.basis)),
                           rational(B))
    eps = distortion_bound(drift, p)
    return (best, upper_end) if eps == 0 else \
        transport_bracket(best, upper_end, eps)
