"""Full-rank lattices in R^n: construction, duals, LLL reduction, file I/O.

Row convention throughout: the lattice is the set of integer combinations of
the *rows* of ``basis``.  The dual lattice uses the inverse-transpose basis,
so ``dual(dual(L))`` spans the original lattice again.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .errors import IllConditionedBasisError, InvariantError

# Refuse duals/solves beyond this condition number; answers would be noise.
COND_THRESHOLD = 1e12


def lp_norm(x, p):
    """l^p norm of a vector, or row-wise for a 2-D array.  p may be inf.

    For 0 < p < 1 this is the usual quasi-norm sum(|x_i|^p)^(1/p).
    """
    x = np.asarray(x, dtype=float)
    ax = abs(x)
    if math.isinf(p):
        return ax.max(axis=-1) if ax.ndim else ax
    if p == 2:
        return np.sqrt((x * x).sum(axis=-1))
    if p == 1:
        return ax.sum(axis=-1)
    return (ax ** p).sum(axis=-1) ** (1.0 / p)


class Lattice:
    """A full-rank lattice given by a square row basis."""

    def __init__(self, basis, name=None):
        basis = np.array(basis, dtype=float)
        if basis.ndim != 2 or basis.shape[0] != basis.shape[1]:
            raise ValueError(f"basis must be square, got shape {basis.shape}")
        if basis.shape[0] == 0:
            raise ValueError("dimension must be positive")
        det = np.linalg.det(basis)
        if det == 0 or not np.isfinite(det):
            raise ValueError("basis is singular")
        basis.setflags(write=False)
        self.basis = basis
        self.dim = basis.shape[0]
        self.covolume = abs(float(det))
        self.name = name or f"lattice{self.dim}d"

    def __repr__(self):
        return f"Lattice({self.name}, dim={self.dim}, covolume={self.covolume:.6g})"

    def embed(self, coords):
        """Map integer coefficient vectors (rows) to ambient coordinates."""
        return np.asarray(coords, dtype=float) @ self.basis

    def coefficients(self, points):
        """Inverse of :meth:`embed`: ambient points -> real coefficient rows."""
        _check_condition(self.basis)
        return np.asarray(points, dtype=float) @ np.linalg.inv(self.basis)


def _check_condition(basis):
    cond = np.linalg.cond(basis)
    if not np.isfinite(cond) or cond > COND_THRESHOLD:
        raise IllConditionedBasisError(cond, COND_THRESHOLD)


def dual(L: Lattice) -> Lattice:
    """Dual lattice: all y with <y, x> in Z for every lattice vector x."""
    _check_condition(L.basis)
    dbasis = np.linalg.inv(L.basis).T
    return Lattice(dbasis, name=f"{L.name}*")


def integer_lattice(n: int) -> Lattice:
    return Lattice(np.eye(n), name=f"Z^{n}")


def _gso(basis):
    """Gram-Schmidt: returns (mu, norms2) with basis = mu @ orthogonal rows.

    mu is unit lower triangular; norms2 holds squared lengths of the
    orthogonal rows.
    """
    n = basis.shape[0]
    ortho = basis.astype(float).copy()
    mu = np.eye(n)
    norms2 = np.zeros(n)
    for i in range(n):
        for j in range(i):
            mu[i, j] = ortho[i] @ ortho[j] / norms2[j] if norms2[j] > 0 else 0.0
            ortho[i] = ortho[i] - mu[i, j] * ortho[j]
        norms2[i] = ortho[i] @ ortho[i]
    return mu, norms2, ortho


def lll_reduce(L: Lattice, return_transform: bool = False):
    """LLL-reduce the basis, with Lovasz parameter 0.99.  Returns a new
    Lattice spanning the same points.

    With return_transform=True also returns the integer unimodular matrix U
    with reduced.basis == U @ L.basis (up to float roundoff).
    """
    b = L.basis.astype(float).copy()
    n = L.dim
    U = np.eye(n, dtype=np.int64)

    def size_reduce(k, mu):
        for j in range(k - 1, -1, -1):
            q = round(mu[k, j])
            if q != 0:
                b[k] -= q * b[j]
                U[k] -= q * U[j]
                mu[k, : j + 1] -= q * mu[j, : j + 1]

    mu, norms2, _ = _gso(b)
    k = 1
    iters = 0
    max_iters = 10000 * n * n + 1000
    while k < n:
        iters += 1
        if iters > max_iters:  # pragma: no cover - safety valve
            raise RuntimeError("LLL failed to terminate")
        size_reduce(k, mu)
        if norms2[k] >= (0.99 - mu[k, k - 1] ** 2) * norms2[k - 1]:
            k += 1
        else:
            b[[k - 1, k]] = b[[k, k - 1]]
            U[[k - 1, k]] = U[[k, k - 1]]
            mu, norms2, _ = _gso(b)
            k = max(k - 1, 1)

    reduced = Lattice(b, name=f"{L.name}/lll")
    # same lattice up to an integer change of basis; covolume must survive.
    # The input determinant is only known to ~eps * prod ||b_i|| (Hadamard),
    # so scale the sanity check accordingly for skewed bases.
    hadamard = float(np.prod(np.linalg.norm(L.basis, axis=1)))
    if not abs(reduced.covolume - L.covolume) <= 1e-12 * max(1.0, hadamard):
        raise InvariantError("LLL changed the covolume")
    if return_transform:
        return reduced, U
    return reduced


def same_lattice(L1: Lattice, L2: Lattice, tol: float = 1e-9) -> bool:
    """True when both bases generate the same point set.

    Checks that each basis is an (approximately) integer combination of the
    other and that covolumes agree.
    """
    if L1.dim != L2.dim:
        return False
    if abs(L1.covolume - L2.covolume) > tol * max(1.0, L1.covolume):
        return False
    for A, B in ((L1.basis, L2.basis), (L2.basis, L1.basis)):
        C = A @ np.linalg.inv(B)
        if not np.allclose(C, np.round(C), atol=tol):
            return False
    return True


def random_unimodular_lattice(dim: int, seed: int, shears: int | None = None) -> Lattice:
    """Seeded integer lattice with determinant exactly 1.

    Built as a product of elementary shear matrices (add an integer multiple
    in [-3, 3] of one row to another), so the determinant is 1 by
    construction and the entries stay desk-sized.
    """
    rng = np.random.default_rng(seed)
    M = np.eye(dim, dtype=np.int64)
    if shears is None:
        shears = 3 * dim
    for _ in range(shears):
        if dim == 1:
            break
        i, j = rng.choice(dim, size=2, replace=False)
        m = int(rng.integers(-3, 4))
        M[i] += m * M[j]
    if round(float(np.linalg.det(M.astype(float)))) != 1:
        raise InvariantError("shear product lost determinant 1")
    return Lattice(M.astype(float), name=f"uni{dim}d-s{seed}")


def load_lattice(path) -> Lattice:
    """Read a lattice from a JSON file with fields ``dim`` and ``basis``."""
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON ({exc})") from exc
    for field in ("dim", "basis"):
        if field not in data:
            raise ValueError(f"{path}: missing required field {field!r}")
    dim = data["dim"]
    basis = data["basis"]
    if not isinstance(dim, int) or dim <= 0:
        raise ValueError(f"{path}: dim must be a positive integer, got {dim!r}")
    if len(basis) != dim or any(len(row) != dim for row in basis):
        raise ValueError(f"{path}: basis must be {dim} rows of {dim} numbers")
    return Lattice(basis, name=data.get("name"))


def save_lattice(L: Lattice, path):
    """Write a lattice as JSON; floats keep full round-trip precision."""
    data = {"dim": L.dim, "basis": [[float(x) for x in row] for row in L.basis],
            "name": L.name}
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")
