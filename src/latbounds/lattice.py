"""Full-rank lattices in R^n: construction, duals, LLL reduction, file I/O.

Row convention throughout: the lattice is the set of integer combinations of
the *rows* of ``basis``.  The dual lattice uses the inverse-transpose basis,
so ``dual(dual(L))`` spans the original lattice again.

A ``Lattice`` computes its LLL reduction, its inverse basis and its dual
once, on first use, and keeps them: every caller shares the same objects,
so they are read-only (the bases and U are non-writeable arrays).  A 1-D
lattice d Z is its own reduction, with inverse 1/d: no LLL and no SVD.

Exact tests on float bases run in Python ints: every float is a dyadic
rational, so ``dyadic`` writes float matrices as int rows on one scale
2^-E, and ``int_matmul``, ``int_det`` (fraction-free elimination) and
``int_solve`` (Cramer's rule) work on them exactly.
"""

from __future__ import annotations

import json
import math
from functools import cached_property

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
    with np.errstate(over="ignore"):  # past the floats, as at a tiny p: inf
        return (ax ** p).sum(axis=-1) ** (1.0 / p)


class Lattice:
    """A full-rank lattice given by a square row basis."""

    def __init__(self, basis, name=None):
        basis = np.array(basis, dtype=float)
        if basis.ndim != 2 or basis.shape[0] != basis.shape[1]:
            raise ValueError(f"basis must be square, got shape {basis.shape}")
        if basis.shape[0] == 0:
            raise ValueError("dimension must be positive")
        if name is not None and not isinstance(name, str):
            raise ValueError(f"lattice name must be a string, got {name!r}")
        with np.errstate(over="ignore"):
            det, norms2 = np.linalg.det(basis), (basis * basis).sum(axis=1)
        if not (0 < abs(det) < math.inf
                and 0 < norms2.min() <= norms2.max() < math.inf):
            raise ValueError("basis is singular, or its scale is past the floats")
        basis.setflags(write=False)
        self.basis = basis
        self.dim = basis.shape[0]
        self.covolume = abs(float(det))
        self.name = name or f"lattice{self.dim}d"

    def __repr__(self):
        return f"Lattice({self.name}, dim={self.dim}, covolume={self.covolume:.6g})"

    def coefficients(self, points):
        """Ambient points -> real coefficient rows in this basis."""
        return np.asarray(points, dtype=float) @ self._inverse

    def shift(self, v):
        """v as a float array of shape (dim,), every entry finite, or a
        ValueError: the one reader of a shift of this lattice."""
        v = np.asarray(v, dtype=float)
        if v.shape != (self.dim,):
            raise ValueError(f"v must have shape ({self.dim},): the lattice "
                             f"needs {self.dim} coordinates, got {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("v must be finite")
        return v

    @cached_property
    def _inverse(self):
        if self.dim == 1:  # cond is 1; 1/d is the bits LAPACK's inv gives
            inverse = np.array([[1.0 / float(self.basis[0, 0])]])
        else:  # a failed condition check raises and stores nothing
            cond = np.linalg.cond(self.basis)
            if not np.isfinite(cond) or cond > COND_THRESHOLD:
                raise IllConditionedBasisError(cond, COND_THRESHOLD)
            inverse = np.linalg.inv(self.basis)
        inverse.setflags(write=False)
        return inverse

    @cached_property
    def _dual(self):
        return Lattice(self._inverse.T, name=f"{self.name}*")

    @cached_property
    def _axes(self):
        """The axis lattices d_j Z, one per coordinate, when this lattice is
        exactly their sum (+)_j d_j Z e_j (a split lattice), else None.

        With g_j the gcd of column j of the exact basis B, every lattice
        point's j-th coordinate lies in g_j Z, so the lattice lies in
        (+)_j g_j Z e_j with index |det B| / prod_j g_j, and equals it
        exactly when prod_j g_j = |det B|.  Both sides are taken on the
        int rows of B scaled by 2^E (``dyadic``), so the test is exact.
        g_j divides a float of the column and has the least power of two of
        its entries, so it is a float.  Coordinates of one spacing share one
        axis lattice, so each is summed once.
        """
        (rows,), E = dyadic(self.basis)
        gaps = [math.gcd(*col) for col in zip(*rows)]
        # |det B|, by a solve with no columns: an exactly singular B raises
        if math.prod(gaps) != int_solve(rows, [[] for _ in rows])[1]:
            return None
        axes = {g: Lattice([[g / (1 << E)]], name=f"{g / (1 << E):g}Z")
                for g in set(gaps)}
        return tuple(axes[g] for g in gaps)

    @cached_property
    def _reduction(self):
        # a 1-D basis is its own reduction: there is no pair of rows to swap
        reduced, U = ((self, np.eye(1, dtype=np.int64)) if self.dim == 1
                      else _lll(self))
        U.setflags(write=False)
        return reduced, U


def dual(L: Lattice) -> Lattice:
    """Dual lattice: all y with <y, x> in Z for every lattice vector x.
    Computed once per Lattice."""
    return L._dual


def integer_lattice(n: int) -> Lattice:
    return Lattice(np.eye(n), name=f"Z^{n}")


def _gso(basis):
    """Gram-Schmidt: returns (mu, norms2, ortho) with basis = mu @ ortho.

    mu is unit lower triangular; ortho holds the orthogonal rows and norms2
    their squared lengths.
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
    (read-only) with reduced.basis == U @ L.basis (up to float roundoff).
    The reduction runs once per Lattice; later calls return the same objects,
    and the reduced Lattice is its own reduction, with U the identity.
    """
    reduced, U = L._reduction
    if "_reduction" not in vars(reduced):
        # a reduced basis is its own reduction: the search is exact and the
        # cell bounds hold for any basis, so reducing it again buys nothing
        identity = np.eye(L.dim, dtype=np.int64)
        identity.setflags(write=False)
        reduced._reduction = reduced, identity
    return (reduced, U) if return_transform else reduced


def _lll(L: Lattice):
    """(reduced Lattice, U): the LLL loop itself, run on every call."""
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
    return reduced, U


def dyadic(*arrays):
    """Float matrices exactly as Python int rows on one scale: ([rows of
    each], E), every entry the int times 2^-E, E >= 0 the least such."""
    ratios = [[[x.as_integer_ratio() for x in row]
               for row in np.asarray(A, dtype=float).tolist()] for A in arrays]
    E = max(den.bit_length() for A in ratios for row in A
            for _, den in row) - 1
    return [[[num << (E + 1 - den.bit_length()) for num, den in row]
             for row in A] for A in ratios], E


def int_matmul(A, C):
    return [[sum(a * c for a, c in zip(row, col)) for col in zip(*C)]
            for row in A]


def int_det(A):
    """det A of an int matrix, by fraction-free elimination (Bareiss, Math.
    Comp. 22, 1968): each step divides exactly by the last pivot."""
    M, sign, last = [list(row) for row in A], 1, 1
    while len(M) > 1:
        piv = next((i for i, row in enumerate(M) if row[0]), None)
        if piv is None:
            return 0
        if piv:
            M[0], M[piv], sign = M[piv], M[0], -sign
        (p, *top), rest = M[0], M[1:]
        M = [[(p * x - row[0] * y) // last for x, y in zip(row[1:], top)]
             for row in rest]
        last = p
    return sign * M[0][0]


def int_solve(A, C):
    """(X, d) for int matrices A (n x n) and C (n rows): d = |det A| and X
    = d A^-1 C, an int matrix with A @ X == d C (Cramer's rule), so X / d
    is the exact solution of A @ Y == C."""
    d = int_det(A)
    if d == 0:
        raise InvariantError("exactly singular basis")
    s = 1 if d > 0 else -1
    return [[s * int_det([a[:i] + [c[j]] + a[i + 1:] for a, c in zip(A, C)])
             for j in range(len(C[0]))] for i in range(len(A))], s * d


def _float_above(num, den):  # the least float >= num / den, den > 0
    x = num / den  # an int quotient is correctly rounded
    a, b = x.as_integer_ratio()
    return x if a * den >= num * b else math.nextafter(x, math.inf)


def distortion_bound(N, d, p) -> float:
    """A float eps >= ||T - I|| for the exact rational T = N / d, N an int
    matrix and d > 0 an int, where ||.|| is the l^p operator norm of x ->
    x @ T on row vectors, p >= 1.

    p=1: the largest row sum of |T - I|; p=2: its Frobenius norm; any other
    p: the larger of the largest row and column sums (Riesz-Thorin).
    """
    E = [[abs(t - d * (i == j)) for j, t in enumerate(row)]
         for i, row in enumerate(N)]
    if p == 2:
        q = sum(e * e for row in E for e in row)  # ||T - I||^2 = q / d^2
        eps = math.sqrt(_float_above(q, d * d))
        while True:
            a, b = eps.as_integer_ratio()
            if a * a * d * d >= q * b * b:
                return eps
            eps = math.nextafter(eps, math.inf)
    s = max(sum(row) for row in E)
    if p != 1:
        s = max(s, max(sum(col) for col in zip(*E)))
    return _float_above(s, d)


def random_unimodular_lattice(dim: int, seed: int) -> Lattice:
    """Seeded integer lattice with determinant exactly 1.

    Built as a product of 3 dim elementary shear matrices (add an integer
    multiple in [-3, 3] of one row to another), so the determinant is 1 by
    construction and the entries stay desk-sized.
    """
    rng = np.random.default_rng(seed)
    M = np.eye(dim, dtype=np.int64)
    for _ in range(3 * dim):
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
    return read_basis(data["dim"], data["basis"], path, data.get("name"))


def read_basis(dim, basis, where, name=None) -> Lattice:
    """The Lattice of a basis read from JSON: dim a JSON integer (true is no
    count) and basis dim rows of dim JSON numbers (not strings such as "2",
    nor true); else a ValueError that names the field and where."""
    if type(dim) is not int or dim <= 0:
        raise ValueError(f"{where}: dim must be a positive integer, got {dim!r}")
    if type(basis) is not list or len(basis) != dim or any(
            type(row) is not list or len(row) != dim
            or any(type(x) not in (int, float) for x in row) for row in basis):
        raise ValueError(f"{where}: basis must be {dim} rows of {dim} numbers")
    return Lattice(basis, name=name)


def save_lattice(L: Lattice, path):
    """Write a lattice as JSON; floats keep full round-trip precision."""
    data = {"dim": L.dim, "basis": [[float(x) for x in row] for row in L.basis],
            "name": L.name}
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")
