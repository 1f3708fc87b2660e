import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

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
        # lexicographic order of coordinate rows
        as_tuples = [tuple(row) for row in coords]
        assert as_tuples == sorted(as_tuples)
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
    enumerate_arrays' ball: the length of every node's integer interval."""
    reduced = lll_reduce(L)
    shift = reduced.coefficients(v)
    mu, D, _ = _gso(reduced.basis)

    def count(k, s, rem):
        if rem < 0:
            return 0
        w = math.sqrt(rem / D[k])
        centre = -shift[k] - s[k]
        lo = math.ceil(centre - w - 1e-12)
        hi = math.floor(centre + w + 1e-12)
        total = max(hi - lo + 1, 0)
        for c in range(lo, hi + 1) if k else ():
            t = c + shift[k]
            y = t + s[k]
            total += count(k - 1, [s[j] + t * mu[k, j] for j in range(k)],
                           rem - D[k] * y * y)
        return total

    r2 = r * l2_circumscribe_factor(p, L.dim)
    return count(L.dim - 1, [0.0] * L.dim, r2 * r2 * (1 + 1e-9) + 1e-300)


@given(ball=small_balls())
def test_node_budget_is_the_whole_search_tree(ball):
    nodes = reference_nodes(*ball)
    enumerate_arrays(*ball, node_budget=nodes)
    if nodes:
        with pytest.raises(BudgetExceededError):
            enumerate_arrays(*ball, node_budget=nodes - 1)


def test_bottom_interval_trimmed_by_the_end_test():
    # the +-1e-12 slack of the interval admits c0 = 0 for this tiny ball,
    # 5e-13 outside it; the end test drops it, and keeps it 5e-13 inside
    for shift, rows in ((1e-4 + 5e-13, []), (-1e-4 - 5e-13, []),
                        (1e-4 - 5e-13, [[0]])):
        coeffs = enumeration._enum_l2_coeffs(np.eye(1), np.array([shift]),
                                             1e-4, 10)
        assert coeffs.tolist() == rows


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
    # the budget caps centre evaluations (Z^3 at resolution 512 needs 777)
    with pytest.raises(BudgetExceededError):
        covering_radius_estimate(integer_lattice(3), resolution=512,
                                 grid_budget=100)
    # Z^4 at resolution 32: 1,553 centres, not a 32^4 grid
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
