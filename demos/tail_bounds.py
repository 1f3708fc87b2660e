"""Mass outside a convex body vs the nu-factor bound, on concrete lattices.

For each family the fraction of the lattice sum living outside a centered
ball K is bounded by nu_f(K) times the full sum.  Here we compute both
sides with certified enumeration and watch the margin: each check returns
its report record, with the certified tail mass as lhs_interval and the
bound as rhs_interval.
"""

import numpy as np

from latbounds import (BodySpec, TestFunctionSpec, check_tail_inequality,
                       gaussian_nu_closed_form, integer_lattice, kalpha_radius,
                       nu_for_body, random_unimodular_lattice,
                       supergaussian_mu_closed_form)

print("== gaussian on Z^3, ball radius sqrt(tau n / pi) ==")
L = integer_lattice(3)
spec = TestFunctionSpec("gaussian", 3)
for tau in (0.75, 1.0, 2.0):
    r = float(np.sqrt(tau * 3 / np.pi))
    nu = gaussian_nu_closed_form(tau, 3)
    rec = check_tail_inequality(L, spec, BodySpec(2.0, r), np.zeros(3), nu)
    print(f"tau = {tau:0.2f}: tail <= {rec['lhs_interval'][1]:.3e}, "
          f"bound = {nu.value:.3e} * theta, margin {rec['margin']:+.3e}  "
          f"{rec['verdict']}")

print()
print("== same bound survives a shift of the ball's center ==")
rng = np.random.default_rng(11)
v = rng.uniform(-0.5, 0.5, 3)
nu = gaussian_nu_closed_form(1.0, 3)
r = float(np.sqrt(3 / np.pi))
rec = check_tail_inequality(L, spec, BodySpec(2.0, r), v, nu)
print(f"v = {np.round(v, 3).tolist()}: margin {rec['margin']:+.3e}  "
      f"{rec['verdict']}")

print()
print("== supergaussian families, l^p ball at radius t (n/p)^(1/p) ==")
for p in (1.0, 2.0):
    for t in (1.2, 1.5):
        L = integer_lattice(2)
        spec = TestFunctionSpec("supergaussian", 2, p=p)
        r = t * (2 / p) ** (1 / p)
        mu = supergaussian_mu_closed_form(p, r, 2)
        rec = check_tail_inequality(L, spec, BodySpec(p, r), np.zeros(2), mu)
        print(f"p = {p:.0f}, t = {t:.1f}: mu = {mu.value:.3e}, "
              f"margin {rec['margin']:+.3e}  {rec['verdict']}")

print()
print("== inv_cosh on a random unimodular lattice, K_alpha radius ==")
L = random_unimodular_lattice(3, seed=4)
spec = TestFunctionSpec("inv_cosh_product", 3)
alpha = 0.5
body = BodySpec(1.0, kalpha_radius(alpha, 3))
nu = nu_for_body(spec, body, 3)  # dispatches to the cosh closed form
rec = check_tail_inequality(L, spec, body, np.zeros(3), nu)
print(f"alpha = {alpha}: radius {body.radius:.4f}, nu = {nu.value:.4f}, "
      f"margin {rec['margin']:+.3e}  {rec['verdict']}")
