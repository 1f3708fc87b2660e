import json
import math
from fractions import Fraction

import numpy as np
import pytest

import latbounds.lattice as lattice
from latbounds.errors import IllConditionedBasisError, InvariantError
from latbounds.functions import TestFunctionSpec as FnSpec
from latbounds.lattice import (Lattice, distortion_bound, dual,
                               integer_lattice, lll_reduce, load_lattice,
                               lp_norm, random_unimodular_lattice, rational,
                               rational_matmul, rational_solve, save_lattice)
from latbounds.verify import certified_sum, transference_check


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
    L = random_unimodular_lattice(3, 7)
    A, C = rational(dual(L).basis), rational(np.eye(3) / 3)
    X = rational_solve(A, C)
    assert rational_matmul(A, X) == C
    with pytest.raises(InvariantError, match="singular"):
        rational_solve(rational([[1.0, 2.0], [0.5, 1.0]]), C[:2])


def test_distortion_bound_rounds_up():
    third = Fraction(1, 3)
    T = [[1 + third, third], [Fraction(0), Fraction(1)]]
    assert distortion_bound(rational(np.eye(2)), 2) == 0.0
    # p=1: the largest row sum of |T - I|, 2/3; p=2: Frobenius sqrt(2)/3
    eps1, eps2 = distortion_bound(T, 1), distortion_bound(T, 2)
    assert Fraction(eps1) >= 2 * third and eps1 - 2 / 3 <= 2e-16
    assert Fraction(eps2) ** 2 >= 2 * third ** 2
    assert eps2 - math.sqrt(2) / 3 <= 2e-16
    # other p: the larger of the row and column sums
    T = [[Fraction(1), Fraction(1, 2)], [Fraction(1, 4), Fraction(1)]]
    assert distortion_bound(T, 1) == 0.5
    assert distortion_bound(T, math.inf) == 0.5


def test_float_dual_is_near_the_exact_dual():
    # B^T @ dual(L).basis is I up to the float inverse's error
    L = random_unimodular_lattice(2, 218)
    M = rational_matmul(rational(L.basis.T), rational(dual(L).basis))
    assert 0 < distortion_bound(M, 2) < 1e-9
    Z = integer_lattice(3)
    M = rational_matmul(rational(Z.basis.T), rational(dual(Z).basis))
    assert distortion_bound(M, 1) == 0.0


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
