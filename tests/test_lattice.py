import json
import math

import numpy as np
import pytest

import latbounds.lattice as lattice
from latbounds.errors import InvariantError
from latbounds.lattice import (Lattice, dual, integer_lattice, lll_reduce,
                               load_lattice, lp_norm,
                               random_unimodular_lattice, same_lattice,
                               save_lattice)


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
    assert np.allclose(L.embed(np.array([1, -1])), [1.0, -1.0])
    # coefficients inverts embed
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


def test_integer_lattice_self_dual():
    L = integer_lattice(3)
    assert L.name == "Z^3"
    assert same_lattice(L, dual(L))


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
    assert same_lattice(L, R)
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
    assert same_lattice(L, R)


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
