"""Certified lattice sums: every number comes with a remainder bound.

The engine enumerates lattice points out to a radius where the tail of the
test function is provably below tolerance, then reports partial sum plus a
rigorous bound on everything it did not visit, and a bound on the rounding
of the float terms it did.  On a split lattice, exactly a sum of axis
lattices d_j Z as Z^2 and its skewed basis below are, the sum is the
product of such 1-D sums, one per coordinate.
"""

import numpy as np

from latbounds import (Lattice, TestFunctionSpec, certified_sum,
                       integer_lattice, lll_reduce)

Z1 = integer_lattice(1)
Z2 = integer_lattice(2)
gauss = TestFunctionSpec("gaussian", 1)

print("== theta of Z at the gaussian self-dual point ==")
cs = certified_sum(Z1, gauss, np.zeros(1), 1.0, 1e-9)
print(f"sum_{{k in Z}} e^(-pi k^2) = {cs.partial:.15f}"
      f" + [0, {cs.remainder_bound:.2e}] +- {cs.rounding:.1e} (rounding)")
print(f"visited {cs.npoints} points out to radius {cs.truncation_radius:.2f}")

# tighter tolerance -> wider truncation radius, more points, smaller remainder
for tol in (1e-3, 1e-6, 1e-12):
    cs = certified_sum(Z1, gauss, np.zeros(1), 1.0, tol)
    print(f"tol {tol:.0e}: {cs.npoints:3d} points, remainder <= {cs.remainder_bound:.2e}")

print()
print("== the sum only depends on the lattice, not the basis ==")
skewed = Lattice(np.array([[1.0, 0.0], [7.0, 1.0]]))  # generates Z^2
g2 = TestFunctionSpec("gaussian", 2)
a = certified_sum(Z2, g2, np.zeros(2), 1.0, 1e-9)
b = certified_sum(lll_reduce(skewed), g2, np.zeros(2), 1.0, 1e-9)
print(f"Z^2 basis:    {a.partial:.15f}")
print(f"skewed basis: {b.partial:.15f}")

print()
print("== dilation: theta_{tZ}(f) vs theta_Z at matching scale ==")
two_z = Lattice(np.array([[2.0]]))
lhs = certified_sum(two_z, gauss, np.zeros(1), 2.0, 1e-10)
print(f"sum f(lambda/2) over 2Z = {lhs.partial:.15f}  (= theta_Z again)")

print()
print("== shifted sums are never larger than t^n times the central one ==")
rng = np.random.default_rng(5)
base = certified_sum(Z2, g2, np.zeros(2), 1.0, 1e-9)
for t in (1.0, 1.25, 2.0):
    v = rng.uniform(-0.5, 0.5, 2)
    cs = certified_sum(Z2, g2, v, t, 1e-9)
    print(f"t = {t:.2f}, v = ({v[0]:+.3f}, {v[1]:+.3f}): "
          f"{cs.interval().hi:.9f} <= {t**2 * base.partial:.9f}")
