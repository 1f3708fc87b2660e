"""Transference products sigma(L) rho(L*) measured against the bounds.

sigma is the exact shortest-vector length, rho an enclosure of the covering
radius of the dual from a branch-and-bound over dyadic cubes of its cell.
The product is basis-free and bounded by n/(2pi) + 3 sqrt(n)/pi in l^2, and
by the exact quadratic expression in l^1.
"""

import math

from latbounds import (cstar, integer_lattice, random_unimodular_lattice,
                       transference_bound_l1, transference_bound_l2,
                       transference_check)

c = cstar()
print(f"C* = {c:.15f}   (maximum of z - z tanh(z) / (1 + sech(z)/2))")
coeff = (1 + c) ** 2 * 3 / (4 * math.pi ** 2)
print(f"l^1 leading coefficient (1+C*)^2 3/(4 pi^2) = {coeff:.12f} < 0.154264")
print()

print("         l^2 bound      l^1 bound (exact / ceiling)")
for n in (1, 2, 4, 8):
    l1 = transference_bound_l1(n)
    print(f"n = {n}:  {transference_bound_l2(n):12.6f}  "
          f"{l1.value:14.4f} / {l1.ceiling:.4f}")
print()

print("== products on Z^n (the cube centres hit the deep hole exactly) ==")
cases = [(n, p) for n in (1, 2, 3) for p in (2.0, 1.0)] + [(5, 2.0), (6, 2.0)]
for n, p in cases:
    rep = transference_check(integer_lattice(n), p, resolution=64)
    lo, hi = rep.rho_bracket
    print(f"Z^{n} l^{p:.0f}: sigma = {rep.sigma:.4f}, "
          f"rho in [{lo:.4f}, {hi:.4f}], "
          f"product <= {rep.product_upper:.4f} vs bound {rep.stated_bound:.4f}"
          f"  {rep.verdict}")

print()
print("== random unimodular bases (same lattice as Z^3 in disguise) ==")
for seed in (1, 2, 3):
    L = random_unimodular_lattice(3, seed)
    rep = transference_check(L, 2.0, resolution=64)
    print(f"{L.name}: product <= {rep.product_upper:.4f} "
          f"vs bound {rep.stated_bound:.4f}  {rep.verdict}")
