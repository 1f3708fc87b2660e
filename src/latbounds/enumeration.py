"""Exact lattice point enumeration in l^p balls, shortest vectors, covering radii.

One search, ``ball_blocks``, does all enumeration: a Fincke-Pohst search
over the Gram-Schmidt coordinates of an LLL-reduced basis, level by level
on numpy blocks of nodes, within a node budget.  Each bottom-level node's
interval of c0 is handed out whole: its integers are the leaves, expanded
block by block as they are formed, so no caller holds the whole tree.  Sums
stream these blocks; ``enumerate_arrays`` concatenates them, unsorted, for
shortest vectors and the covering-radius candidate sets.  On a 1-D lattice
the search is one level, whose integer range ``_line_leaves`` hands out
directly, bit for bit as the search would.  Coefficients are
counted in floats, so an interval end at 2^52 or beyond raises ValueError;
a ball of radius past 2^500 is searched scaled by a power of two, exactly,
so its squared radius stays in the floats.
An l^p ball with p > 2 is searched as its circumscribed l^2 ball, of
radius r n^(1/2 - 1/p).  For p < 2 each level's l^2 interval is also cut
by a weak-duality bound on the next Gram-Schmidt coordinate, which holds
the search to the l^p ball (for p < 1, to the l^1 ball of the same
radius); the cut is exact for p <= 1 when those coordinates are the axes
(Z^n, and a sheared Z^n once LLL-reduced), so an l^1 ball on Z^n searches
no leaf outside it.  Every leaf is then filtered by its exact l^p norm in
``ball_blocks``, the search's one membership test.

The covering radius is bracketed by a second, geometric branch-and-bound:
dyadic cubes of the reduced basis's coefficient space are split only while
their upper bound, the centre distance plus the cube's own reach, can still
exceed the best centre distance by more than the requested width, so the
work follows the shape of the distance function rather than a uniform
resolution^n grid.  A cube's reach is its half-side times the cell's l^p
diameter, the largest ||s @ B||_p over sign rows s (sqrt(n) on Z^n at p = 2,
not the triangle bound n).
The nearest lattice points of all centres are drawn from one candidate
ball around the cell's centroid, of radius half the diameter plus a proven
bound on the covering radius, the reach of a tiling cell (``_cell_bounds``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceededError, InvariantError
from .lattice import (Lattice, _gso, distortion_bound, dyadic, int_matmul,
                      int_solve, lll_reduce, lp_norm)

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
    """Radius inflation so the l^2 ball contains the l^p ball of radius 1:
    the radius of the search's l^2 intervals.

    For p <= 2 the l^p ball already sits inside the l^2 ball of the same
    radius (the search then cuts each level further by weak duality); for
    p > 2 the corners stick out by n^(1/2 - 1/p).
    """
    if math.isinf(p):
        return math.sqrt(n)
    if p >= 2:
        return n ** (0.5 - 1.0 / p)
    return 1.0


# rows in one block of search nodes or of leaves: built, searched depth first
# and handed out this many at a time, so memory is O(n * _BLOCK)
_BLOCK = 1 << 16

# The duality cut costs a few dozen numpy calls a level, about 0.2 ms a
# search, and saves only leaves: a ball whose l^2 volume over the covolume
# is below this many points is searched without it.  The measured break-even
# lies between 1,000 and 5,000 points for n = 2..6 (2-core x86, numpy 2.4).
_CUT_MIN_POINTS = 4096


def _spread(lo, counts):
    """Expand integer intervals [lo, lo + counts): (parent row, integer)."""
    parent = np.arange(len(counts)).repeat(counts)
    first = counts.cumsum() - counts
    return parent, (lo - first).repeat(counts) + np.arange(len(parent))


def _expected_points(r, D):
    """Volume of the l^2 ball of radius r over the covolume sqrt(prod D):
    about the number of lattice points in the ball."""
    if not r > 0:
        return 0.0
    n = len(D)
    log_points = (n * math.log(r) + n / 2 * math.log(math.pi)
                  - math.lgamma(n / 2 + 1) - 0.5 * math.fsum(np.log(D)))
    return math.exp(min(log_points, 700.0))


def _enum_coeffs(basis, shift, r, p, node_budget):
    """Yield int64 blocks, of at most _BLOCK rows, of candidate rows c, each
    once, in no particular order: every c with ||(c + shift) @ basis||_p
    <= r is among them, and the caller filters them by the exact norm.

    shift is the real coefficient vector of the translation.  A level-k
    node holds c_>k, its offsets s and its remaining squared radius of the
    l^2 ball of radius r * l2_circumscribe_factor(p, n).  For p < 2, on a
    ball of at least _CUT_MIN_POINTS expected points, each level's interval
    is cut further by weak duality: with x = (c + shift) @ basis, u_j the
    unit Gram-Schmidt rows and y_j = <x, u_j> fixed for j > k, Hoelder's
    inequality gives, for every t,
        +-<x, u_k> <= r ||+-u_k + t g||_q - t a,
    with g = sum_j sign(y_j) u_j, a = sum_j |y_j| and q the dual exponent
    of max(p, 1) (||x||_1 <= ||x||_p for p <= 1).  The smallest bound over
    t in {0, 1/2, 1} is taken; when the u_j are coordinate axes and p <= 1
    it is the exact r - a.  Such nodes also carry g and a, and the bound is
    rounded outward, by 1e-9 relative on r and on a.  Each block's
    intervals are charged to node_budget before any child is built, and the
    leaves come out in the order of a node-by-node search.  A bottom-level
    interval is handed out whole: every integer charged at level 0 is a
    leaf, and ``ball_blocks`` drops those outside the ball.
    """
    n = basis.shape[0]
    mu, D, ortho = _gso(basis)
    r2 = r * l2_circumscribe_factor(p, n)
    cut = p < 2 and _expected_points(r, D) >= _CUT_MIN_POINTS
    if cut:
        q = math.inf if p <= 1 else p / (p - 1)
        root = np.sqrt(D)
        u = ortho / root[:, None]
        reach = r * (1 + 1e-9)
        at_zero = reach * lp_norm(u, q)  # the bound at t = 0
        signed_u = np.stack([u, -u], axis=1)[:, :, None, :]  # +-u_k rows
        ts = np.array([0.5, 1.0])[:, None, None]
    visited = 0

    def search(k, s, rem, coef, g=None, a=None):
        nonlocal visited
        with np.errstate(over="ignore"):  # an infinite w fails the 2^52 test
            w = np.sqrt(rem / D[k])
        center = -shift[k] - s[:, k]
        if g is None:
            lo = np.ceil(center - w - 1e-12)
            hi = np.floor(center + w + 1e-12)
        else:
            # at t = 1/2 and 1 for +u_k and -u_k: by_t[t][sign] is one row
            by_t = reach * lp_norm(signed_u[k] + ts[..., None] * g, q) - ts * a
            bound = np.minimum(np.minimum(*by_t), at_zero[k])
            # pad for the rounding of u, y and the norms, as r * 1e-9 pads r
            up, down = np.minimum(w, (bound + 1e-9 * (r + a)) / root[k])
            lo = np.ceil(center - down - 1e-12)
            # a cut can empty an interval: clamp it to hi = lo - 1
            hi = np.maximum(np.floor(center + up + 1e-12), lo - 1)
        # lo <= hi + 1, so these bound every end and no count is negative
        if not (lo.min(initial=0) > -2**52 and hi.max(initial=0) < 2**52):
            raise ValueError("coefficients reach 2^52: too large to count")
        counts = (hi - lo + 1).astype(np.int64)
        visited += int(counts.sum())
        if visited > node_budget:
            raise BudgetExceededError(node_budget, visited)
        parent, cs = _spread(lo, counts)
        for b in range(0, len(parent), _BLOCK):
            i, c = parent[b:b + _BLOCK], cs[b:b + _BLOCK]
            if k == 0:  # each charged integer is a leaf
                leaves = coef.take(i, axis=0)
                leaves[:, 0] = c
                yield leaves
                continue
            t = c + shift[k]
            y = t + s[:, k].take(i)
            rest = rem.take(i) - D[k] * y * y
            keep = rest >= 0  # a child with rest < 0 would charge nothing
            i = i[keep]
            child = coef.take(i, axis=0)
            child[:, k] = c[keep]
            s_child = s[:, :k].take(i, axis=0) + t[keep, None] * mu[k, :k]
            if g is None:
                yield from search(k - 1, s_child, rest[keep], child)
            else:
                y = y[keep]
                g_child = g.take(i, axis=0) + np.sign(y)[:, None] * u[k]
                yield from search(k - 1, s_child, rest[keep], child, g_child,
                                  a.take(i) + root[k] * abs(y))

    yield from search(n - 1, np.zeros((1, n)),
                      np.array([r2 * r2 * (1 + 1e-9) + 1e-300]),
                      np.zeros((1, n), dtype=np.int64),
                      *((np.zeros((1, n)), np.zeros(1)) if cut else ()))


def _line_leaves(basis, shift, r, p, node_budget):
    """The blocks ``_enum_coeffs`` yields on a 1-D basis [[d]]: the integers
    of its root's one interval, charged to node_budget and handed out
    _BLOCK at a time from the low end, with the interval taken by the
    search's own float operations on scalars.  There the search has no
    parent offsets, g = 0 and a = 0, so its duality cut is the one bound
    r (1 + 1e-9) ||d / |d| ||_q, padded by 1e-9 r, over |d|."""
    d, s = float(basis[0, 0]), float(shift[0])
    D = d * d
    w = math.sqrt((r * r * (1 + 1e-9) + 1e-300) / D)
    if p < 2 and _expected_points(r, np.array([D])) >= _CUT_MIN_POINTS:
        q = math.inf if p <= 1 else p / (p - 1)
        root = math.sqrt(D)
        bound = r * (1 + 1e-9) * float(lp_norm([d / root], q))
        w = min(w, (bound + 1e-9 * r) / root)
    lo, hi = -s - w - 1e-12, -s + w + 1e-12
    # ceil(lo) > -2^52 exactly when lo > -2^52, and floor(hi) likewise
    if not (lo > -2**52 and hi < 2**52):
        raise ValueError("coefficients reach 2^52: too large to count")
    lo, hi = math.ceil(lo), math.floor(hi)
    if hi - lo + 1 > node_budget:
        raise BudgetExceededError(node_budget, hi - lo + 1)
    for b in range(lo, hi + 1, _BLOCK):
        yield np.arange(b, min(b + _BLOCK, hi + 1))[:, None]


def _block_matmul(a, b):
    """a @ b for a block of rows, rounded as those rows of any larger product
    are: BLAS takes a one-row product down its matrix-vector path, which
    sums in another order, so a lone row is multiplied as two."""
    return a @ b if len(a) != 1 else (a.repeat(2, axis=0) @ b)[:1]


def ball_blocks(L: Lattice, v, r: float, p: float = 2,
                node_budget: int = DEFAULT_NODE_BUDGET):
    """Yield (coords, embeddings) blocks of the points x in L with
    ||x + v||_p <= r, each once, unordered: coords (m, n) int64 in the basis
    of L, embeddings coords @ basis, rounded as in one product over all
    points.  Exact: no point of the ball is missed and none outside is
    returned (boundary ties resolved within 1e-12 relative).  v is read by
    ``L.shift``.  Raises BudgetExceededError once the search tree outgrows
    node_budget.

    A 1-D lattice d Z is its own reduction (U = [[1]]), and its search is
    one level: ``_line_leaves`` hands out that level's integer range, with
    no LLL, Gram-Schmidt or tree.  It charges the budget the range's length,
    every integer the search would charge, and yields the same blocks, so
    the points, their order (ascending coefficient k, descending x for d <
    0), their embeddings k d and the block splits are the search's.
    """
    if not r >= 0:
        raise ValueError("radius must be nonnegative")
    v = L.shift(v)
    if L.dim == 1:
        reduced, identity, search = L, True, _line_leaves
    else:
        reduced, U = lll_reduce(L, return_transform=True)
        # U is the identity when its n nonzero entries are the diagonal's 1s
        # (a cheaper test than a comparison with np.eye)
        identity = (np.count_nonzero(U) == L.dim
                    and bool((U.diagonal() == 1).all()))
        search = _enum_coeffs
    shift = reduced.coefficients(v)
    # a radius past 2^500 is searched and filtered on the ball scaled by
    # 2^-e, which is exact and keeps r^2 and ||y||^2 in the floats
    e = max(math.frexp(r)[1] - 500, 0)
    basis, v_e, r_e = np.ldexp(reduced.basis, -e), np.ldexp(v, -e), math.ldexp(r, -e)
    for cred in search(basis, shift, r_e, p, node_budget):
        y = _block_matmul(cred, basis) + v_e
        orig = cred[lp_norm(y, p) <= r_e * (1 + _BOUNDARY_SLACK)]
        if not identity:  # cred @ I is cred: skip the int64 product
            orig = orig @ U
        if len(orig):
            yield orig, _block_matmul(orig.astype(float), L.basis)


def enumerate_arrays(L: Lattice, v, r: float, p: float = 2,
                     node_budget: int = DEFAULT_NODE_BUDGET):
    """Points x in L with ||x + v||_p <= r, as (coords, embeddings) arrays:
    the blocks of ``ball_blocks`` concatenated, in the search's own order,
    which is deterministic and does not depend on the block size."""
    empty = (np.zeros((0, L.dim), np.int64), np.zeros((0, L.dim)))
    blocks = ball_blocks(L, v, r, p, node_budget)
    return tuple(map(np.concatenate, zip(empty, *blocks)))


def shortest_vector(L: Lattice, p: float = 2,
                    node_budget: int = DEFAULT_NODE_BUDGET):
    """Minimum l^p norm over nonzero lattice points, with all minimizers.

    Returns (sigma, minimizers); minimizers is the (m, n) int64 array of the
    coefficients of every nonzero point whose norm is within 1e-9 relative
    of sigma.
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


_U = 2.0 ** -53  # unit roundoff of float64

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


def _cell_bounds(reduced_basis, q):
    """(reach, moment) of a centred cell P that tiles space by lattice
    translates, the one of two such cells whose bound on the reach is the
    smaller.  reach bounds the largest ||c||_q over P; moment bounds the
    mean over P of ||c||_q^q for q <= 2 (None for q > 2).  Both are
    measured on the same cell, as the certified tail (``verify._log_tail``)
    needs.

    The parallelepiped {sum c_i b_i : |c_i| <= 1/2} reaches
    sum(||b_i||_q)/2 (triangle inequality).  The Gram-Schmidt box
    {sum c_i b*_i : |c_i| <= 1/2}, the cell of Babai's nearest-plane
    rounding, reaches R2 = sqrt(sum ||b*_i||^2)/2 in l^2, so
    max(1, n^{1/q - 1/2}) R2 in l^q; on Z^n that is sqrt(n)/2 against n/2
    for q = 2.  For q < 1 the norm is only power-subadditive, so the reach
    is measured in the q-th power: sum((||b_i||_q / 2)^q) and
    n^{1 - q/2} R2^q.

    With c uniform on P the c_i are independent and uniform on [-1/2, 1/2],
    so E c_i = 0, E c_i^2 = 1/12 and E|c_i|^q = 2^{-q}/(1 + q).  For
    q <= 2, ||x||_q^q <= n^{1 - q/2} ||x||_2^q (power mean) and Jensen
    (t^{q/2} is concave) give at most n^{1 - q/2} (sum ||b*_i||^2 / 12)^{q/2}
    on the box, the b*_i being orthogonal.  On the parallelepiped, Jensen
    for each coordinate x_j of c, E|x_j|^q <= (E x_j^2)^{q/2} with
    E x_j^2 = sum_i b_ij^2 / 12, and the power mean over j give
    n^{1 - q/2} (sum ||b_i||^2 / 12)^{q/2}; for q <= 1,
    ||c||_q^q <= sum |c_i|^q ||b_i||_q^q gives 2^{-q}/(1 + q)
    sum ||b_i||_q^q instead.  At q = 2 these are the means of ||c||^2,
    sum ||b*_i||^2 / 12 and sum ||b_i||^2 / 12.

    Rounding: sum ||b*_i||^2 is padded by 8 n u sum ||b_i||^2, a margin for
    the float rounding of the Gram-Schmidt norms, and the reach is rounded
    up.  Each moment is then at most n^2 + 6 roundings from its formula,
    each within 2u relative: n^2 powers or squares and the n^2 - 1
    additions of their sum, or the few ulp of n^{1 - q/2} (an exponent off
    by u/2 costs u log n / 2), and a power, a quotient and a product.  So
    the computed moment times 1 + 2 (n^2 + 8) u, rounded up, is a bound.
    """
    B = np.asarray(reduced_basis, dtype=float)
    n = B.shape[0]
    norms = lp_norm(B, q)
    _, norms2, _ = _gso(B)
    gs2 = float(np.sum(norms2) + 8 * n * _U * np.sum(B * B))
    box2 = 0.25 * gs2
    if q <= 1.0:
        reaches = (float(np.sum((0.5 * norms) ** q)),
                   n ** (1 - q / 2) * box2 ** (q / 2))
    else:
        reaches = (float(0.5 * np.sum(norms)),
                   max(1.0, n ** (1 / q - 0.5)) * math.sqrt(box2))
    if q > 2.0:
        return math.nextafter(min(reaches), math.inf), None
    para = (2.0 ** -q * float(np.sum(np.abs(B) ** q)) / (1 + q) if q <= 1.0
            else n ** (1 - q / 2) * (float(np.sum(B * B)) / 12) ** (q / 2))
    moments = (para, n ** (1 - q / 2) * (gs2 / 12) ** (q / 2))
    reach, moment = min(zip(reaches, moments))
    moment = math.nextafter(moment * (1 + 2 * (n * n + 8) * _U), math.inf)
    return math.nextafter(reach, math.inf), moment


def _cell_diameter(V, p, d_cell):
    """l^p diameter of the cell {c @ B : c in [0, 1]^n}, rounded up, <= d_cell.

    V holds the rows s/2 @ B over the sign rows s in {-1, 1}^n, the cell's
    2^n vertices about its centroid.  Two cell points differ by t @ B with
    t in [-1, 1]^n, and ||t @ B||_p is convex in t, so it peaks at a vertex:
    the diameter is the largest ||s @ B||_p = 2 ||s/2 @ B||_p, sqrt(n) on
    Z^n at p = 2 against the triangle bound d_cell = n.  Each entry of
    s @ B is off by at most n u sum_i |b_ij|, a vector whose l^p norm is at
    most n u d_cell, and the norm adds a few (n + 2) u relative; both are
    padded twice over.
    """
    n = V.shape[1]
    diam = 2 * float(lp_norm(V, p).max())
    diam = diam * (1 + 4 * (n + 2) * _U) + 2 * n * _U * d_cell
    return min(d_cell, math.nextafter(diam, math.inf))


def covering_radius_estimate(L: Lattice, p: float = 2, resolution: int = 64,
                             grid_budget: int = DEFAULT_GRID_BUDGET,
                             node_budget: int = DEFAULT_NODE_BUDGET):
    """Bracket (lower, upper) for the l^p covering radius of L, p >= 1.

    Branch-and-bound over dyadic cubes in the coefficient space of the
    LLL-reduced basis B, starting from the whole cell [0,1)^n.  Level k
    evaluates the exact CVP distance at the centres of all its cubes (side
    2^-k) in one batch, the largest so far being the lower end.  The
    distance is 1-Lipschitz, so a cube's upper bound is that distance plus
    its reach from the centre, diam * 2^-(k+1): diam, the cell's l^p
    diameter, is the largest ||s @ B||_p over s in {-1, 1}^n (a convex
    function peaks at a vertex), rounded up and at most d_cell, the sum of
    the reduced rows' l^p norms.  A cube whose upper bound is at most
    best + d_cell / resolution is dropped, every other one splits into its
    2^n children, and the upper end is the largest upper bound of any
    dropped cube.  So upper - lower <= d_cell / resolution, as for a
    resolution^n grid.

    Each centre's nearest lattice point is sought among the candidates in
    the ball of radius diam/2 + reach around the centroid: the centre lies
    within diam/2 of the centroid, and its nearest point within reach of
    it, where reach (``_cell_bounds``) bounds the covering radius from above.

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
    d_cell = float(lp_norm(B, p).sum())  # triangle bound on the diameter
    children = np.indices((2,) * n).reshape(n, -1).T - 0.5
    diam = _cell_diameter(children @ B, p, d_cell)
    reach = _cell_bounds(B, p)[0]  # every point is within reach of the lattice
    centroid = 0.5 * B.sum(axis=0)
    # Every point of the cell is within diam/2 of the centroid, and its
    # nearest lattice point is within reach of it, so a ball of radius
    # diam/2 + reach around the centroid certifiably contains every nearest
    # neighbour of every centre.
    _, S = enumerate_arrays(reduced, -centroid, diam / 2 + reach, p=p,
                            node_budget=node_budget)
    if not len(S):
        raise InvariantError("candidate set for covering radius is empty")

    babai_bound = reach + 1e-9 * max(1.0, d_cell)
    chunk = max(1, 4_000_000 // (len(S) * n))
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
        upper = dists + diam * half
        done = upper <= best + d_cell / resolution
        upper_end = float(np.max(upper, where=done, initial=upper_end))
        K = K[~done]
        evaluated += len(K) << n
        if evaluated <= grid_budget:  # else the loop raises, nothing built
            K = (K[:, None, :] + half * children).reshape(-1, n)
        half /= 2

    # reduced.basis = (U @ L.basis) @ drift exactly, U unimodular: in ints
    # on one scale, drift is the identity when U @ L.basis is B itself
    (A, C), _ = dyadic(L.basis, B)
    A = int_matmul(U.tolist(), A)
    return (best, upper_end) if A == C else transport_bracket(
        best, upper_end, distortion_bound(*int_solve(A, C), p))
