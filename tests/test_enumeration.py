import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st

import latbounds.enumeration as enumeration
from latbounds.enumeration import (covering_radius_estimate, enumerate_arrays,
                                   l2_circumscribe_factor, shortest_vector,
                                   transport_bracket)
from latbounds.errors import BudgetExceededError, InvariantError
from latbounds.lattice import (Lattice, _gso, integer_lattice, lp_norm,
                               lll_reduce, random_unimodular_lattice)

P_VALUES = [0.5, 1.0, 1.5, 2.0, math.inf]


def brute_points(basis, v, r, p, box=12):
    """All lattice points with ||x + v||_p <= r, by scanning a coefficient box.

    box must dominate every admissible coefficient; 12 is generous for the
    small radii used here.
    """
    n = basis.shape[0]
    out = []
    for c in itertools.product(range(-box, box + 1), repeat=n):
        x = np.array(c, dtype=float) @ basis
        if lp_norm(x + v, p) <= r * (1 + 1e-12):
            out.append(tuple(np.round(x, 9)))
    return sorted(out)


@pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
def test_enumerate_matches_brute_force_z2(p):
    L = integer_lattice(2)
    v = np.array([0.3, -0.45])
    r = 2.6
    _, emb = enumerate_arrays(L, v, r, p)
    got = sorted(tuple(np.round(row, 9)) for row in emb)
    assert got == brute_points(L.basis, v, r, p)


def test_enumerate_matches_brute_force_sheared():
    B = np.array([[2.0, 0.0], [1.0, 1.0]])
    L = Lattice(B)
    for p, r in ((2.0, 3.2), (1.0, 4.0)):
        _, emb = enumerate_arrays(L, np.zeros(2), r, p)
        got = sorted(tuple(np.round(row, 9)) for row in emb)
        assert got == brute_points(B, np.zeros(2), r, p)


def _rounded(emb):
    return sorted(tuple(np.round(row, 9)) for row in emb)


@given(n=st.integers(1, 3), seed=st.integers(0, 10 ** 6),
       p=st.sampled_from(P_VALUES), r=st.floats(0.1, 3.0),
       v=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3))
def test_enumerate_sheared_zn_matches_brute_force(n, seed, p, r, v):
    # a sheared basis of Z^n still spans Z^n: brute force in the unit basis
    L = random_unimodular_lattice(n, seed)
    v = np.array(v[:n])
    _, emb = enumerate_arrays(L, v, r, p)
    assert _rounded(emb) == brute_points(np.eye(n), v, r, p,
                                         box=math.ceil(r + 1))


@given(n=st.integers(1, 3), p=st.sampled_from(P_VALUES),
       r=st.floats(0.1, 2.5),
       entries=st.lists(st.floats(-2.0, 2.0), min_size=9, max_size=9),
       v=st.lists(st.floats(-0.5, 0.5), min_size=3, max_size=3))
def test_enumerate_real_basis_matches_brute_force(n, p, r, entries, v):
    B = np.array(entries[:n * n]).reshape(n, n)
    assume(abs(np.linalg.det(B)) > 0.5 and np.linalg.cond(B) < 10)
    v = np.array(v[:n])
    # |c_i| <= ||x||_2 * ||column i of B^-1||_2 bounds every coefficient
    reach = r * l2_circumscribe_factor(p, n) + np.linalg.norm(v)
    box = math.ceil(reach * np.linalg.norm(np.linalg.inv(B), axis=0).max())
    _, emb = enumerate_arrays(Lattice(B), v, r, p)
    assert _rounded(emb) == brute_points(B, v, r, p, box=box)


def test_enumerate_sorted_and_typed():
    for n, r in ((2, 1.5), (1, 2.2)):
        coords, emb = enumerate_arrays(integer_lattice(n), np.zeros(n), r, 2.0)
        assert coords.dtype == np.int64
        assert emb.shape == coords.shape
    assert emb[:, 0].tolist() == [-2.0, -1.0, 0.0, 1.0, 2.0]


def test_enumerate_budget():
    Z3 = integer_lattice(3)
    with pytest.raises(BudgetExceededError):
        enumerate_arrays(Z3, np.zeros(3), 6.0, 2.0, node_budget=5)
    # 1051 is the whole search tree of this ball: the smallest budget that
    # passes, so one node less must stop the search after its last node
    coords, _ = enumerate_arrays(Z3, np.zeros(3), 6.0, 2.0, node_budget=1051)
    assert len(coords) == 925
    with pytest.raises(BudgetExceededError) as exc:
        enumerate_arrays(Z3, np.zeros(3), 6.0, 2.0, node_budget=1050)
    assert exc.value.visited == 1051


@st.composite
def small_balls(draw):
    """(L, v, r, p): a sheared Z^n or a real basis, n <= 5, and a small ball."""
    n = draw(st.integers(1, 5))
    if draw(st.booleans()):
        L = random_unimodular_lattice(n, draw(st.integers(0, 10 ** 6)))
    else:
        entries = draw(st.lists(st.floats(-0.4, 0.4), min_size=n * n,
                                max_size=n * n))
        B = np.eye(n) + np.array(entries).reshape(n, n)
        assume(np.linalg.cond(B) < 10)
        L = Lattice(B)
    v = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)))
    return L, v, draw(st.floats(0.1, 2.0)), draw(st.sampled_from(P_VALUES))


@given(ball=small_balls())
def test_block_size_does_not_change_the_points(ball):
    want = enumerate_arrays(*ball)
    for block in (1, 2, 7):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(enumeration, "_BLOCK", block)
            got = enumerate_arrays(*ball)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and np.array_equal(g, w)


def reference_nodes(L, v, r, p):
    """Nodes charged by a node-by-node depth-first Fincke-Pohst search of
    enumerate_arrays' ball with the duality cut on every p < 2 ball: the
    length of every node's integer interval, the l^2 interval cut, for
    p < 2, by the weak-duality bound on the next Gram-Schmidt coordinate."""
    reduced = lll_reduce(L)
    shift = reduced.coefficients(v)
    mu, D, ortho = _gso(reduced.basis)
    root = np.sqrt(D)
    u = ortho / root[:, None]
    q = math.inf if p <= 1 else p / (p - 1) if p < 2 else None

    def count(k, s, rem, g, a):
        if rem < 0:
            return 0
        w = math.sqrt(rem / D[k])
        centre = -shift[k] - s[k]
        lo = math.ceil(centre - w - 1e-12)
        hi = math.floor(centre + w + 1e-12)
        if q is not None:
            up, down = (min(r * (1 + 1e-9) * lp_norm(sign * u[k] + t * g, q)
                            - t * a for t in (0.0, 0.5, 1.0))
                        + 1e-9 * (r + a) for sign in (1.0, -1.0))
            lo = max(lo, math.ceil(centre - down / root[k] - 1e-12))
            hi = min(hi, math.floor(centre + up / root[k] + 1e-12))
        total = max(hi - lo + 1, 0)
        for c in range(lo, hi + 1) if k else ():
            t = c + shift[k]
            y = t + s[k]
            total += count(k - 1, [s[j] + t * mu[k, j] for j in range(k)],
                           rem - D[k] * y * y, g + np.sign(y) * u[k],
                           a + root[k] * abs(y))
        return total

    r2 = r * l2_circumscribe_factor(p, L.dim)
    return count(L.dim - 1, [0.0] * L.dim, r2 * r2 * (1 + 1e-9) + 1e-300,
                 np.zeros(L.dim), 0.0)


@given(ball=small_balls())
def test_node_budget_is_the_whole_search_tree(ball):
    nodes = reference_nodes(*ball)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(enumeration, "_CUT_MIN_POINTS", 0)  # cut every p < 2 ball
        enumerate_arrays(*ball, node_budget=nodes)
        if nodes:
            with pytest.raises(BudgetExceededError):
                enumerate_arrays(*ball, node_budget=nodes - 1)


def test_small_lq_ball_is_searched_without_the_cut():
    # 1051 nodes is the l^2 tree of this ball (test_enumerate_budget): its
    # l^2 volume, 905 points, is below the cut's break-even, so the l^1
    # search charges the same tree
    Z3 = integer_lattice(3)
    assert enumeration._CUT_MIN_POINTS > 905
    enumerate_arrays(Z3, np.zeros(3), 6.0, 1.0, node_budget=1051)
    with pytest.raises(BudgetExceededError):
        enumerate_arrays(Z3, np.zeros(3), 6.0, 1.0, node_budget=1050)


@given(ball=small_balls())
def test_lq_search_keeps_the_lq_points_of_the_l2_search(ball):
    # the l^2 search is tested against brute force, so it is the oracle
    # for the weak-duality cut of the l^q search, q < 2
    L, v, r, _ = ball
    c2, e2 = enumerate_arrays(L, v, r, 2.0)
    for q in (0.5, 1.0, 1.5):
        inside = lp_norm(e2 + v, q) <= r * (1 + 1e-12)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(enumeration, "_CUT_MIN_POINTS", 0)  # cut every ball
            coords, emb = enumerate_arrays(L, v, r, q)
        assert np.array_equal(coords, c2[inside])
        assert np.array_equal(emb, e2[inside])


def test_tiny_ball_boundary_is_the_exact_filter():
    # the +-1e-12 slack of the bottom interval admits c0 = 0 for this tiny
    # ball, 5e-13 outside it; the exact-norm filter drops it, and keeps it
    # 5e-13 inside
    Z1 = integer_lattice(1)
    for shift, rows in ((1e-4 + 5e-13, []), (-1e-4 - 5e-13, []),
                        (1e-4 - 5e-13, [[0]]), (-1e-4 + 5e-13, [[0]])):
        coords, _ = enumerate_arrays(Z1, np.array([shift]), 1e-4)
        assert coords.tolist() == rows


@given(ball=small_balls(), cut=st.booleans())
@example(ball=(integer_lattice(1), np.array([1e-4 + 5e-13]), 1e-4, 2.0),
         cut=False)  # c0 = 0 is charged, and outside the ball
def test_every_bottom_node_charged_is_a_leaf(ball, cut):
    # the search filters nothing itself: each integer charged to the budget
    # at level 0 is yielded, and ball_blocks' exact norm is its one filter.
    # The search is depth first, so a level-0 expansion is the one directly
    # followed by leaves; every level's charge passes through _spread.
    L, v, r, p = ball
    reduced = lll_reduce(L)
    args = (reduced.basis, reduced.coefficients(v), r, p)
    events = []

    def spread(lo, counts, _run=enumeration._spread):
        events.append(("spread", int(counts.sum())))
        return _run(lo, counts)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(enumeration, "_spread", spread)
        if cut:
            mp.setattr(enumeration, "_CUT_MIN_POINTS", 0)
        for block in enumeration._enum_coeffs(*args, 10 ** 6):
            events.append(("leaves", len(block)))
        charged = sum(n for kind, n in events if kind == "spread")
        leaves = sum(n for kind, n in events if kind == "leaves")
        bottom = sum(n for (kind, n), (after, _) in zip(events, events[1:])
                     if kind == "spread" and after == "leaves")
        list(enumeration._enum_coeffs(*args, charged))
        with pytest.raises(BudgetExceededError):
            list(enumeration._enum_coeffs(*args, charged - 1))
    assert leaves == bottom


def _searched_blocks(L, v, r, p, budget):
    """The blocks of ball_blocks as the n-D search gives them: _enum_coeffs
    on the reduced basis, the exact-norm filter and U, each step taken as
    ball_blocks takes it on a lattice of dimension n > 1."""
    reduced, U = lll_reduce(L, return_transform=True)
    e = max(math.frexp(r)[1] - 500, 0)
    basis, v_e = np.ldexp(reduced.basis, -e), np.ldexp(v, -e)
    r_e = math.ldexp(r, -e)
    for cred in enumeration._enum_coeffs(basis, reduced.coefficients(v),
                                         r_e, p, budget):
        y = enumeration._block_matmul(cred, basis) + v_e
        inside = lp_norm(y, p) <= r_e * (1 + enumeration._BOUNDARY_SLACK)
        orig = cred[inside] @ U
        if len(orig):
            yield orig, enumeration._block_matmul(orig.astype(float), L.basis)


def _outcome(blocks):
    """Every block's coords and embedding bits, in order, or the error."""
    try:
        return [(c.dtype, c.shape, c.tobytes(), x.shape, x.tobytes())
                for c, x in blocks]
    except (BudgetExceededError, ValueError) as exc:
        return type(exc), exc.args


@pytest.mark.parametrize("d", [-2.0, 0.3, 1.0, 1.25, 2.0 ** -40, 1e150, 1e-151,
                               -1e-160])
def test_a_line_is_handed_out_as_the_search_hands_it_out(d):
    # on a 1-D lattice ball_blocks hands out the integer range of the
    # search's one level without running the search: the same points,
    # embeddings, order and block splits, the same refusals and the same
    # budget counts (a budget of 0 refuses every nonempty range and names
    # its length), cut or not, on small blocks and on _BLOCK.  A shift
    # 5e-13 past 1e-4 spacings, with a radius of 1e-4 spacings, puts an end
    # of the interval within its 1e-12 slack of an integer
    rng = np.random.default_rng(7)
    L = Lattice([[d]])
    shifts = [0.0, d / 2, -d / 2, float(rng.uniform(-3, 3)) * abs(d),
              d * (1e-4 + 5e-13)]
    seen = set()
    for x, p in itertools.product(shifts, [0.05, 0.5, 1.0, 1.5, 2.0,
                                           math.inf]):
        v = np.array([x])
        radii = [0.0, abs(3 * d + x), float(lp_norm([-2 * d + x], p)),
                 abs(d) * float(rng.uniform(0.5, 9)), abs(d) * 1e-4,
                 1.5 * 2.0 ** 501]
        for r, (cut, block), budget in itertools.product(
                radii, [(4096, 1 << 16), (0, 7)], [10 ** 8, 0]):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(enumeration, "_CUT_MIN_POINTS", cut)
                mp.setattr(enumeration, "_BLOCK", block)
                got = _outcome(enumeration.ball_blocks(L, v, r, p, budget))
                with np.errstate(over="ignore"):  # its w / |d| at 2^500
                    want = _outcome(_searched_blocks(L, v, r, p, budget))
            assert got == want, (x, p, r, cut, block, budget)
            seen.add(got[0] if isinstance(got, tuple) else len(got))
    # every case above hands out blocks or raises: both kinds are seen,
    # and some cases split into several blocks
    assert BudgetExceededError in seen and max(
        k for k in seen if isinstance(k, int)) > 1
    if abs(d) < 1e100:  # a radius past 2^500 reaches 2^52 coefficients
        assert ValueError in seen


def test_a_line_charges_its_range_to_the_budget():
    # a 1-D ball of 2 x 10^6 + 1 points is charged exactly that many nodes,
    # as the search charges it, and refused one node below
    L = Lattice([[2.0 ** -40]])
    r = 10 ** 6 * 2.0 ** -40
    with pytest.raises(BudgetExceededError) as got:
        next(enumeration.ball_blocks(L, np.zeros(1), r, 2.0, 2 * 10 ** 6))
    with pytest.raises(BudgetExceededError) as want:
        next(_searched_blocks(L, np.zeros(1), r, 2.0, 2 * 10 ** 6))
    assert got.value.args == want.value.args
    assert sum(len(c) for c, _ in enumeration.ball_blocks(
        L, np.zeros(1), r, 2.0, 2 * 10 ** 6 + 1)) == 2 * 10 ** 6 + 1


def test_a_line_runs_no_search(monkeypatch):
    # no LLL transform, Gram-Schmidt or tree search on a 1-D lattice
    def refuse(*args, **kwargs):
        raise AssertionError("the search ran on a line")
    monkeypatch.setattr(enumeration, "_enum_coeffs", refuse)
    monkeypatch.setattr(enumeration, "_gso", refuse)
    monkeypatch.setattr(enumeration, "lll_reduce", refuse)
    coords, emb = enumerate_arrays(Lattice([[-2.0]]), np.array([0.5]), 4.6)
    assert coords[:, 0].tolist() == [-2, -1, 0, 1, 2]
    assert emb[:, 0].tolist() == [4.0, 2.0, 0.0, -2.0, -4.0]


def test_end_test_overflow_is_silent():
    # the l^2 ball of radius 2e154 squares past the floats, so its
    # intervals come from an infinite remaining radius, with no overflow
    # warning; the l^1 cut keeps |k| <= 20000
    coords, emb = enumerate_arrays(Lattice([[1e150]]), np.zeros(1), 2e154,
                                   p=1)
    assert sorted(coords[:, 0].tolist()) == list(range(-20000, 20001))
    assert float(np.max(np.abs(emb))) == 2e154


def test_shortest_vector_zn():
    for n in (1, 2, 4):
        sigma, mins = shortest_vector(integer_lattice(n))
        assert abs(sigma - 1.0) < 1e-12
        assert mins.shape == (2 * n, n) and mins.dtype == np.int64


def test_shortest_vector_sheared_l1():
    # a(2,0) + b(1,1): the l^1 minimum 2 is attained 8 times
    L = Lattice(np.array([[2.0, 0.0], [1.0, 1.0]]))
    sigma, mins = shortest_vector(L, p=1)
    assert sigma == 2.0
    assert len(mins) == 8


def test_covering_radius_z2_hits_deep_hole():
    lo, hi = covering_radius_estimate(integer_lattice(2), p=2, resolution=64)
    # even grid lands exactly on (1/2, 1/2)
    assert abs(lo - math.sqrt(0.5)) < 1e-12
    assert hi >= lo
    assert hi - lo <= 2.0 / 64 + 1e-12


def test_covering_radius_l1_z2():
    lo, hi = covering_radius_estimate(integer_lattice(2), p=1, resolution=32)
    assert abs(lo - 1.0) < 1e-12
    assert hi - lo <= 2.0 / 32 + 1e-12


def test_covering_radius_skewed_basis_same_bracket():
    # same lattice, wildly different basis: bracket must agree
    B = np.array([[1.0, 0.0], [7.0, 1.0]])
    lo, hi = covering_radius_estimate(Lattice(B), p=2, resolution=64)
    assert abs(lo - math.sqrt(0.5)) < 1e-12


def test_covering_radius_budget():
    # the budget caps centre evaluations: A_2's deep hole is no cube centre,
    # and at resolution 512 its search evaluates 245 of them
    A2 = Lattice(np.array([[1.0, 0.0], [0.5, math.sqrt(3) / 2]]))
    with pytest.raises(BudgetExceededError):
        covering_radius_estimate(A2, resolution=512, grid_budget=100)
    lo, hi = covering_radius_estimate(A2, resolution=512, grid_budget=1000)
    rho = 1 / math.sqrt(3)
    assert lo <= rho * (1 + 1e-12) and rho <= hi * (1 + 1e-12)
    # Z^4 at resolution 32: 17 centres, not a 32^4 grid
    lo, hi = covering_radius_estimate(integer_lattice(4), 2, 32,
                                      grid_budget=5000)
    assert lo <= 1.0 <= hi
    assert hi - lo <= 4 / 32


@pytest.mark.parametrize("resolution", [3, 16, 64])
def test_covering_radius_hexagonal_needs_refinement(resolution):
    # A_2's deep hole, at distance 1/sqrt(3), is no cube centre of this basis
    B = np.array([[1.0, 0.0], [0.5, math.sqrt(3) / 2]])
    lo, hi = covering_radius_estimate(Lattice(B), 2, resolution)
    rho = 1 / math.sqrt(3)
    assert lo <= rho * (1 + 1e-12) and rho <= hi * (1 + 1e-12)
    assert hi - lo <= 2 / resolution  # d_cell = 2


@pytest.mark.parametrize("n, p, rho", [
    (5, 2, math.sqrt(5) / 2), (6, 2, math.sqrt(6) / 2), (5, 1, 2.5)])
def test_covering_radius_zn_bracket_is_tight(n, p, rho):
    # a cube of half-side h reaches h sqrt(n) at p = 2, not h n, so the
    # cubes next to the deep hole close at once; bounded by h n, Z^5 gave
    # [1.1180, 1.2416]
    lo, hi = covering_radius_estimate(integer_lattice(n), p, 32)
    assert abs(lo - rho) <= 1e-9 and abs(hi - rho) <= 1e-9


@given(n=st.integers(2, 4), p=st.sampled_from([1.0, 2.0]),
       seed=st.integers(0, 10 ** 6), real=st.booleans())
def test_covering_candidates_and_cube_reach(n, p, seed, real):
    rng = np.random.default_rng(seed)
    if real:
        B = rng.uniform(-3.0, 3.0, (n, n))
        assume(abs(np.linalg.det(B)) > 1e-3)
        L = Lattice(B)
    else:
        L = random_unimodular_lattice(n, seed)
    R = lll_reduce(L)
    B = R.basis
    d_cell = float(lp_norm(B, p).sum())
    signs = 2.0 * np.array(list(itertools.product((0, 1), repeat=n))) - 1
    diam = enumeration._cell_diameter(signs / 2 @ B, p, d_cell)
    reach = enumeration._cell_bounds(B, p)[0]
    assert diam <= d_cell
    # the nearest lattice point of a point of the cell, searched for in the
    # ball of radius d_cell, lies within reach of it, so within diam/2 +
    # reach of the centroid
    centroid = 0.5 * B.sum(axis=0)
    _, S = enumerate_arrays(R, -centroid, d_cell, p=p)
    X = rng.uniform(0.0, 1.0, (100, n)) @ B
    nearest = S[lp_norm(X[:, None, :] - S[None, :, :], p).argmin(axis=1)]
    assert np.all(lp_norm(X - nearest, p) <= reach)
    assert np.all(lp_norm(nearest - centroid, p) <= diam / 2 + reach)
    # a cube of half-side h reaches at most h * diam from its centre, with
    # equality, up to rounding, at a vertex
    h = rng.uniform(0.01, 0.5)
    delta = np.vstack([rng.uniform(-h, h, (300, n)), h * signs])
    assert np.all(lp_norm(delta @ B, p) <= h * diam)


def _exact_rho2_squared(B):
    """Squared l^2 covering radius of the 2-D lattice spanned exactly by the
    float rows of B: Gauss-reduce in Fractions, then the circumradius of the
    non-obtuse triangle (0, u, v)."""
    u, v = ([Fraction(x) for x in row] for row in B.tolist())
    dot = lambda a, b: a[0] * b[0] + a[1] * b[1]
    while True:
        if dot(v, v) < dot(u, u):
            u, v = v, u
        q = round(dot(u, v) / dot(u, u))
        if q == 0:
            break
        v = [v[0] - q * u[0], v[1] - q * u[1]]
    if dot(u, v) < 0:
        v = [-v[0], -v[1]]
    w = [u[0] - v[0], u[1] - v[1]]
    cross = u[0] * v[1] - u[1] * v[0]
    return dot(u, u) * dot(v, v) * dot(w, w) / (4 * cross * cross)


@given(a=st.floats(0.2, 1.0), b=st.floats(0.2, 1.0), s=st.floats(0.5, 2.0),
       k=st.integers(10 ** 3, 10 ** 7))
def test_covering_radius_holds_through_lll_drift(a, b, s, k):
    # a rectangular lattice behind a long float shear: undoing the shear in
    # floats moves the lattice by ~1e-10, far more than rounding the ends
    B = np.array([[a, b], [-b * s + k * a, a * s + k * b]])
    lo, hi = covering_radius_estimate(Lattice(B), 2, 16)
    rho2 = _exact_rho2_squared(B)
    # the distances are floats, a few ulp from exact
    assert Fraction(lo) ** 2 <= rho2 * (1 + Fraction(1, 10 ** 14))
    assert rho2 <= Fraction(hi) ** 2


def test_transport_bracket():
    assert transport_bracket(1.0, 2.0, 0.5)[0] <= 1.0 / 1.5
    assert transport_bracket(1.0, 2.0, 0.5)[1] >= 2.0 / 0.5
    with pytest.raises(InvariantError, match="distortion"):
        transport_bracket(1.0, 2.0, 1.0)


def test_covering_radius_rejects_quasi_norm():
    with pytest.raises(ValueError, match="p >= 1"):
        covering_radius_estimate(integer_lattice(2), p=0.5)


@pytest.mark.parametrize("check, coords, emb, match", [
    (shortest_vector, [0, 0], [0.0, 0.0], "lost all points"),
    (covering_radius_estimate, [], [], "empty"),
    (covering_radius_estimate, [9, 9], [9.0, 9.0], "missed a nearest point"),
])
def test_enumeration_invariants_raise(monkeypatch, check, coords, emb, match):
    monkeypatch.setattr(enumeration, "enumerate_arrays",
                        lambda L, *args, **kwargs: (
                            np.array(coords, dtype=np.int64).reshape(-1, L.dim),
                            np.array(emb, dtype=float).reshape(-1, L.dim)))
    with pytest.raises(InvariantError, match=match):
        check(integer_lattice(2))
