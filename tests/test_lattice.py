import json
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import latbounds.enumeration as enumeration
import latbounds.lattice as lattice
import latbounds.verify as verify
from latbounds.enumeration import covering_radius_estimate
from latbounds.errors import IllConditionedBasisError, InvariantError
from latbounds.functions import TestFunctionSpec as FnSpec
from latbounds.lattice import (Lattice, distortion_bound, dual, dyadic,
                               int_matmul, int_solve, integer_lattice,
                               lll_reduce, load_lattice, lp_norm,
                               random_unimodular_lattice, save_lattice)
from latbounds.verify import certified_sum, transference_check


# Exact rational oracles, in Fractions: the program runs the same tests in
# ints (``dyadic``, ``int_matmul``, ``int_solve``), and these hold it to them.

def rational(A):
    """Exact copy of a float or integer matrix as lists of Fractions (every
    float is a dyadic rational)."""
    return [[Fraction(x) for x in row] for row in np.asarray(A).tolist()]


def rational_gcd(xs):
    """The greatest positive rational g with every x of xs in g Z."""
    den = math.lcm(*(x.denominator for x in xs))
    return Fraction(math.gcd(*(int(x * den) for x in xs)), den)


def rational_matmul(A, C):
    return [[sum(a * c for a, c in zip(row, col)) for col in zip(*C)]
            for row in A]


def rational_solve(A, C):
    """The exact X with A @ X == C, by Gauss-Jordan elimination."""
    n = len(A)
    M = [list(a) + list(c) for a, c in zip(A, C)]
    for k in range(n):
        piv = next((i for i in range(k, n) if M[i][k] != 0), None)
        if piv is None:
            raise InvariantError("exactly singular basis")
        M[k], M[piv] = M[piv], M[k]
        pk = M[k][k]
        M[k] = [x / pk for x in M[k]]
        for i in range(n):
            f = M[i][k]
            if i != k and f != 0:
                M[i] = [x - f * y for x, y in zip(M[i], M[k])]
    return [row[n:] for row in M]


def rational_distortion(T, p):
    """The least float eps >= ||T - I|| in ``distortion_bound``'s norm, for
    a matrix T of Fractions."""
    E = [[abs(t - int(i == j)) for j, t in enumerate(row)]
         for i, row in enumerate(T)]

    def above(q):
        x = float(q)
        return x if Fraction(x) >= q else math.nextafter(x, math.inf)
    if p == 2:
        q = sum(e * e for row in E for e in row)
        eps = math.sqrt(above(q))
        while Fraction(eps) ** 2 < q:
            eps = math.nextafter(eps, math.inf)
        return eps
    s = max(sum(row) for row in E)
    if p != 1:
        s = max(s, max(sum(col) for col in zip(*E)))
    return above(s)


def rational_axes(basis):
    """The spacings g_j of the axis lattices when the lattice of basis is
    (+)_j g_j Z e_j, else None: split exactly when diag(g) B^-1, the
    coefficients of every g_j e_j, is integral."""
    columns = [list(col) for col in zip(*rational(basis))]
    gaps = [rational_gcd(col) for col in columns]
    G = [[g if i == j else Fraction(0) for j in range(len(gaps))]
         for i, g in enumerate(gaps)]
    if any(x.denominator != 1
           for row in rational_solve(columns, G) for x in row):
        return None
    return [float(g) for g in gaps]


def test_lp_norm_values():
    x = np.array([3.0, -4.0])
    assert lp_norm(x, 2) == 5.0
    assert lp_norm(x, 1) == 7.0
    assert lp_norm(x, math.inf) == 4.0
    assert abs(lp_norm(x, 0.5) - (math.sqrt(3) + 2.0) ** 2) < 1e-12


def test_lattice_basics():
    L = Lattice(np.array([[2.0, 0.0], [1.0, 1.0]]), name="sheared")
    assert L.dim == 2
    assert abs(L.covolume - 2.0) < 1e-12
    # (3, 1) = 1 * (2, 0) + 1 * (1, 1)
    c = L.coefficients(np.array([3.0, 1.0]))
    assert np.allclose(c, [1.0, 1.0])


def test_dual_inverse_transpose():
    L = Lattice(np.array([[2.0, 0.0], [1.0, 1.0]]))
    Ld = dual(L)
    # <lambda, mu> in Z for all pairs
    G = L.basis @ Ld.basis.T
    assert np.allclose(G, np.round(G), atol=1e-12)
    assert abs(Ld.covolume - 1.0 / L.covolume) < 1e-12
    back = dual(Ld)
    assert np.allclose(back.basis, L.basis, atol=1e-12)


def _same_lattice(A, B):
    """Whether the rows of the float bases A and B generate one lattice, in
    exact rationals: each basis is an integer combination of the other
    (X with X @ B == A solves B^T X^T == A^T), so the change of basis is
    integer with an integer inverse, |det| = 1."""
    for X, Y in ((A, B), (B, A)):
        C = rational_solve(rational(Y.T), rational(X.T))
        if any(c.denominator != 1 for row in C for c in row):
            return False
    return True


def test_integer_lattice_self_dual():
    L = integer_lattice(3)
    assert L.name == "Z^3"
    assert _same_lattice(L.basis, dual(L).basis)


def test_save_load_round_trip(tmp_path):
    L = random_unimodular_lattice(3, seed=4)
    path = tmp_path / "lat.json"
    save_lattice(L, path)
    back = load_lattice(path)
    # bit-identical basis after the JSON round trip
    assert back.basis.tobytes() == L.basis.tobytes()
    assert back.name == L.name
    assert back.dim == 3


def test_load_errors_name_the_field(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"dim": 2}))
    with pytest.raises(ValueError, match="basis"):
        load_lattice(path)
    path.write_text("{not json")
    with pytest.raises(ValueError, match="JSON"):
        load_lattice(path)
    path.write_text(json.dumps({"dim": 2, "basis": [[1.0, 0.0]]}))
    with pytest.raises(ValueError):
        load_lattice(path)
    # true is no dimension, and a string or true no basis entry
    for data, field in (({"dim": True, "basis": [[2.0]]}, "dim"),
                        ({"dim": 2, "basis": [["1", 0], [0, 1]]}, "basis"),
                        ({"dim": 2, "basis": [[2, 0], [0, True]]}, "basis")):
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match=field):
            load_lattice(path)


def test_random_unimodular_det_one():
    for seed in range(8):
        L = random_unimodular_lattice(4, seed)
        assert round(np.linalg.det(L.basis)) == 1
        # integer entries
        assert np.allclose(L.basis, np.round(L.basis))
    # deterministic per seed
    a = random_unimodular_lattice(3, 12)
    b = random_unimodular_lattice(3, 12)
    assert np.array_equal(a.basis, b.basis)


def test_lll_same_lattice_and_shorter():
    L = random_unimodular_lattice(3, seed=10)  # worst conditioned of the batch
    R = lll_reduce(L)
    assert _same_lattice(L.basis, R.basis)
    assert lp_norm(R.basis, 2).max() <= lp_norm(L.basis, 2).max() + 1e-9


def test_lll_transform_unimodular():
    L = random_unimodular_lattice(2, seed=9)
    R, U = lll_reduce(L, return_transform=True)
    assert U.dtype == np.int64
    assert round(abs(np.linalg.det(U.astype(float)))) == 1
    assert np.allclose(U @ L.basis, R.basis, atol=1e-9)


def test_lll_classic_2d():
    # [[1, 1], [1, 0]] generates Z^2; reduction must find unit vectors
    L = Lattice(np.array([[1.0, 1.0], [1.0, 0.0]]))
    R = lll_reduce(L)
    assert lp_norm(R.basis, 2).max() <= 1 + 1e-9
    assert _same_lattice(L.basis, R.basis)


def test_lll_raises_when_covolume_changes(monkeypatch):
    L = integer_lattice(2)
    # the reduced lattice is built through the module's Lattice: scale it
    monkeypatch.setattr(lattice, "Lattice",
                        lambda basis, name=None: Lattice(2 * basis, name))
    with pytest.raises(InvariantError, match="covolume"):
        lll_reduce(L)


def test_unimodular_raises_when_determinant_is_lost(monkeypatch):
    # an int64 overflow in the shear product would show as det != 1
    monkeypatch.setattr(lattice.np.linalg, "det", lambda a: 2.0)
    with pytest.raises(InvariantError, match="determinant"):
        random_unimodular_lattice(3, seed=1)


def test_rational_solve_is_exact():
    # the exact rational solve, in ints: A @ X == d C with d = |det A|, on
    # the dual's basis and the scaled C brought to one scale by dyadic
    L = random_unimodular_lattice(3, 7)
    (A, C), _ = dyadic(dual(L).basis, np.eye(3) / 3)
    X, d = int_solve(A, C)
    assert int_matmul(A, X) == [[d * c for c in row] for row in C]
    assert [[Fraction(x, d) for x in row] for row in X] == rational_solve(
        rational(A), rational(C))
    with pytest.raises(InvariantError, match="singular"):
        int_solve([[2, 4], [1, 2]], C[:2])


def test_distortion_bound_rounds_up():
    third = Fraction(1, 3)
    # T = N / d
    assert distortion_bound([[1, 0], [0, 1]], 1, 2) == 0.0
    assert distortion_bound([[3, 0], [0, 3]], 3, 1) == 0.0
    # T = [[4/3, 1/3], [0, 1]]; p=1: the largest row sum of |T - I|, 2/3;
    # p=2: Frobenius sqrt(2)/3
    N = [[4, 1], [0, 3]]
    eps1, eps2 = distortion_bound(N, 3, 1), distortion_bound(N, 3, 2)
    assert Fraction(eps1) >= 2 * third and eps1 - 2 / 3 <= 2e-16
    assert Fraction(eps2) ** 2 >= 2 * third ** 2
    assert eps2 - math.sqrt(2) / 3 <= 2e-16
    T = [[1 + third, third], [Fraction(0), Fraction(1)]]
    for p in (1, 2, math.inf):
        assert distortion_bound(N, 3, p) == rational_distortion(T, p)
    # other p: the larger of the row and column sums
    N = [[4, 2], [1, 4]]  # [[1, 1/2], [1/4, 1]]
    assert distortion_bound(N, 4, 1) == 0.5
    assert distortion_bound(N, 4, math.inf) == 0.5


def test_float_dual_is_near_the_exact_dual():
    # B^T @ dual(L).basis is I up to the float inverse's error
    L = random_unimodular_lattice(2, 218)
    (Bt, D), E = dyadic(L.basis.T, dual(L).basis)
    assert 0 < distortion_bound(int_matmul(Bt, D), 1 << 2 * E, 2) < 1e-9
    Z = integer_lattice(3)
    (Bt, D), E = dyadic(Z.basis.T, dual(Z).basis)
    assert distortion_bound(int_matmul(Bt, D), 1 << 2 * E, 1) == 0.0


def _d4():
    return Lattice([[-1.0, -1.0, 0.0, 0.0], [1.0, -1.0, 0.0, 0.0],
                    [0.0, 1.0, -1.0, 0.0], [0.0, 0.0, 1.0, -1.0]], name="D4")


def _sheared(basis, seed):
    """basis behind a seeded unimodular shear: the same lattice."""
    n = len(basis)
    return random_unimodular_lattice(n, seed).basis @ np.asarray(basis)


# name: (basis, whether its lattice is split)
_AXES_CASES = {
    "Z1": (np.eye(1), True), "Z3": (np.eye(3), True), "Z8": (np.eye(8), True),
    "sheared_Z5": (random_unimodular_lattice(5, 3).basis, True),
    "sheared_Z8": (random_unimodular_lattice(8, 38).basis, True),
    "diag(1,1.25,1)": (np.diag([1.0, 1.25, 1.0]), True),
    "rows(1,1e-13),(0,1)": (np.array([[1.0, 1e-13], [0.0, 1.0]]), False),
    "D4": (_d4().basis, False),
    "diag(2.36e139,1e150)": (np.diag([2.36e139, 1e150]), True),
    "rows(2.36e139,1e150),(0,1e150)": (np.array([[2.36e139, 1e150],
                                                 [0.0, 1e150]]), True),
    "diag(1e150,1e-150)": (np.diag([1e150, 1e-150]), True),
    "diag(1e-160,3e-160)": (np.diag([1e-160, 3e-160]), True),
    "rows(1e-160,1e-160),(0,1e-160)": (np.array([[1e-160, 1e-160],
                                                 [0.0, 1e-160]]), True),
}


def _axes_agree(basis):
    """The integer _axes test against its Fraction oracle: the same answer
    and spacings, and one axis lattice per spacing."""
    L = Lattice(basis)
    axes, gaps = L._axes, rational_axes(L.basis)
    if gaps is None:
        assert axes is None
        return False
    assert [a.basis[0, 0] for a in axes] == gaps
    assert [a.name for a in axes] == [f"{g:g}Z" for g in gaps]
    assert all((x is y) == (x.basis[0, 0] == y.basis[0, 0])
               for x in axes for y in axes)
    return True


@pytest.mark.parametrize("name", sorted(_AXES_CASES))
def test_axes_match_the_fraction_criterion(name):
    basis, split = _AXES_CASES[name]
    assert _axes_agree(basis) == split


@given(n=st.integers(1, 8), seed=st.integers(0, 10 ** 6),
       spacings=st.lists(st.sampled_from([1.0, 0.5, 1.25, 3.0, 0.1, 1e-13,
                                          2.36e139, 1e-150, 1e-160]),
                         min_size=8, max_size=8),
       kind=st.sampled_from(["diagonal", "sheared", "real"]))
def test_axes_match_the_fraction_criterion_on_random_bases(n, seed, spacings,
                                                           kind):
    # diagonal bases and their shears are split; a random real basis
    # (n <= 5) almost never is, and the two tests must agree either way
    rng = np.random.default_rng(seed)
    D = np.diag(spacings[:n])
    if kind == "real":
        basis = rng.normal(size=(min(n, 5),) * 2)
    else:
        basis = D if kind == "diagonal" else _sheared(D, seed)
    try:
        L = Lattice(basis)
    except ValueError:  # a shear past the floats' scale
        return
    split = _axes_agree(L.basis)
    if kind == "diagonal":
        assert split


@given(d=st.floats(1e-161, 1e154), negative=st.booleans())
def test_a_line_is_its_own_reduction_with_inverse_one_over_d(d, negative):
    # d Z: no LLL, no SVD for a condition number and no LAPACK inverse; its
    # inverse is the bits np.linalg.inv gives
    d = -d if negative else d
    expected = np.linalg.inv(np.array([[d]]))
    L = Lattice([[d]])
    refuse = mock.Mock(side_effect=AssertionError("called"))
    with mock.patch.object(lattice, "_lll", refuse), \
            mock.patch.object(np.linalg, "cond", refuse), \
            mock.patch.object(np.linalg, "inv", refuse), \
            mock.patch.object(np.linalg, "svd", refuse):
        inverse = L._inverse
        R, U = lll_reduce(L, return_transform=True)
    assert inverse.tobytes() == expected.tobytes()
    assert not inverse.flags.writeable
    assert R is L and U.tolist() == [[1]] and not U.flags.writeable


# a rectangular lattice behind a long float shear, which the float LLL
# undoes only up to rounding (test_covering_radius_holds_through_lll_drift)
_MOVED = np.array([[0.3, 0.7], [-0.7 * 1.3 + 12345 * 0.3,
                                0.3 * 1.3 + 12345 * 0.7]])


@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("basis, moved", [
    (np.eye(1), False), (np.eye(2), False), (np.eye(3), False),
    (random_unimodular_lattice(2, 5).basis, False),
    (random_unimodular_lattice(3, 11).basis, False),
    (_MOVED, True),
], ids=["Z1", "Z2", "Z3", "sheared_Z2", "sheared_Z3", "lll_moves"])
def test_covering_drift_matches_the_fractions(basis, moved, p):
    # the covering bracket transports through the exact drift of the float
    # LLL: none (eps = 0, no solve) where U @ B is the reduced basis in
    # ints, else the eps of the Fraction solve, bit for bit
    L = Lattice(basis)
    R, U = lll_reduce(L, return_transform=True)
    drift = rational_solve(rational_matmul(rational(U), rational(L.basis)),
                           rational(R.basis))
    eps = rational_distortion(drift, p)
    assert (eps > 0) == moved
    seen = []

    def transport(lo, hi, e, _run=enumeration.transport_bracket):
        seen.append(e)
        return _run(lo, hi, e)
    with mock.patch.object(enumeration, "transport_bracket", transport):
        covering_radius_estimate(L, p, 4)
    assert seen == ([eps] if moved else [])


@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("basis", [
    np.eye(1), np.eye(3), random_unimodular_lattice(2, 218).basis,
    random_unimodular_lattice(3, 11).basis, _MOVED,
], ids=["Z1", "Z3", "sheared_Z2", "sheared_Z3", "lll_moves"])
def test_transport_matrix_matches_the_fractions(basis, p):
    # transference_check's M = B^T @ dual(L).basis, in ints on one scale,
    # is the exact Fraction product, and its eps that product's
    L = Lattice(basis)
    M = rational_matmul(rational(L.basis.T), rational(dual(L).basis))
    seen = []

    def bound(N, d, q, _run=verify.distortion_bound):
        eps = _run(N, d, q)
        seen.append(([[Fraction(x, d) for x in row] for row in N], q, eps))
        return eps
    with mock.patch.object(verify, "distortion_bound", bound):
        transference_check(L, p, resolution=4)
    assert seen == [(M, p, rational_distortion(M, p))]


def _count_reductions(monkeypatch):
    """Every Lattice that the uncached LLL loop runs on, in call order."""
    seen = []
    lll = lattice._lll

    def spy(L):
        seen.append(L)
        return lll(L)
    monkeypatch.setattr(lattice, "_lll", spy)
    return seen


def test_transference_reduces_each_lattice_once(monkeypatch):
    seen = _count_reductions(monkeypatch)
    transference_check(random_unimodular_lattice(3, 5), 2, resolution=4)
    # L and its dual are reduced, each once, though the check asks for them
    # many times
    assert len(set(map(id, seen))) == len(seen) >= 2


def test_a_reduced_lattice_is_its_own_reduction(monkeypatch):
    L = random_unimodular_lattice(3, 4)
    R = lll_reduce(L)
    assert lll_reduce(R) is R
    _, U = lll_reduce(R, return_transform=True)
    assert (U == np.eye(3, dtype=np.int64)).all() and not U.flags.writeable
    # the covering search enumerates on the dual's reduction, which the loop
    # does not reduce again: L and its dual are all it runs on
    seen = _count_reductions(monkeypatch)
    L = random_unimodular_lattice(3, 4)
    transference_check(L, 2, resolution=4)
    assert seen == [L, dual(L)]


def test_second_sum_on_a_lattice_reduces_nothing(monkeypatch):
    seen = _count_reductions(monkeypatch)
    # D3, the points of Z^3 of even sum: not split, so the sum searches L
    L = Lattice([[1.0, -1.0, 0.0], [0.0, 1.0, -1.0], [0.0, 1.0, 1.0]])
    spec = FnSpec("gaussian", 3)
    first = certified_sum(L, spec, np.full(3, 0.2), 1.0, 1e-6)
    assert seen == [L]
    again = certified_sum(L, spec, np.full(3, 0.2), 1.0, 1e-6)
    assert seen == [L]
    assert again == first


def test_stored_reduction_inverse_and_dual_are_shared_and_read_only():
    L = random_unimodular_lattice(3, 10)
    R, U = lll_reduce(L, return_transform=True)
    assert lll_reduce(L) is R and lll_reduce(L, return_transform=True)[1] is U
    assert dual(L) is dual(L)
    assert R.name == f"{L.name}/lll"
    for a in (R.basis, U, dual(L).basis, L._inverse):
        assert not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a[0, 0] = 0


def test_ill_conditioned_basis_raises_on_every_call():
    L = Lattice(np.array([[1.0, 1.0], [1.0, 1.0 + 1e-13]]))
    for _ in range(2):
        with pytest.raises(IllConditionedBasisError):
            L.coefficients(np.zeros(2))
        with pytest.raises(IllConditionedBasisError):
            dual(L)
