"""Poisson summation as a cross-check: primal sum vs dual sum.

covol(L) * sum_L f(lambda + v) must equal sum_{L*} fhat(mu) e(mu . v).
The left side is certified_sum over L; for the families whose transform
decays exponentially the right side is part 3's kernel on L* with f dilated
by 1/t, itself a cos-weighted sum over that lattice.  Both carry certified
remainders, so the printed residual is a certified upper end of
|LHS - RHS| / RHS, the two intervals' relative distance rounded outward: a
consistency test of enumeration, duals and part 3's Poisson kernel at once.
exp_l1 and fractional p sum a diagonal dual directly, as products of 1-D
series: exp_l1's in closed form, fractional p's from fhat_p at the exact
dual points.
"""

import numpy as np

from latbounds import (Lattice, TestFunctionSpec, integer_lattice,
                       psf_residual, random_unimodular_lattice)

rng = np.random.default_rng(99)

print("== families with exact transforms ==")
for fam in ("gaussian", "sech_product", "inv_cosh_product", "supergaussian"):
    for L in (integer_lattice(2), random_unimodular_lattice(2, seed=3)):
        spec = TestFunctionSpec(fam, 2, p=2.0 if fam == "supergaussian" else None)
        v = rng.uniform(-0.5, 0.5, 2)
        res = psf_residual(L, spec, v, 1.5, 1e-9)
        print(f"{fam:18s} {L.name or 'lattice':12s} residual {res:.2e}")

print()
print("== slow-decaying dual: exp_l1's 1-d factors in closed form ==")
res = psf_residual(integer_lattice(2), TestFunctionSpec("exp_l1", 2),
                   np.array([0.2, -0.3]), 1.25, 1e-9)
print(f"exp_l1 on Z^2: residual {res:.2e}")

print()
print("== fractional p: 1-d factors from fhat_p at the exact dual points ==")
for p, tol in ((1.5, 1e-3), (1.9, 1e-5)):
    spec = TestFunctionSpec("supergaussian", 1, p=p)
    res = psf_residual(integer_lattice(1), spec, np.zeros(1), 1.0, tol)
    print(f"supergaussian p={p} on Z, tol {tol:g}: residual {res:.2e}")
print("(tol is limited by fhat_p's power-law tail past r = 96)")

print()
print("== scaling both sides: diagonal lattice, t away from 1 ==")
D = Lattice(np.diag([1.0, 1.25]))
res = psf_residual(D, TestFunctionSpec("gaussian", 2),
                   np.array([0.1, 0.4]), 1.2, 1e-10)
print(f"diag(1, 1.25), t = 1.2: residual {res:.2e}")
