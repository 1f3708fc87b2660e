"""The admissibility hypotheses, sampled hard: fhat >= 0, radial
monotonicity of fhat, and concavity of the mass ratio along dilations.

Every bound in the library assumes these three properties of the test
function.  check_hypotheses hammers each with random samples and reports
the worst margin seen; a clean run is a prerequisite for trusting the
closed forms.
"""

from latbounds import (FAMILIES, TestFunctionSpec, build_transform_table,
                       check_hypotheses, eval_fhat, fourier_1d)

print("families:", ", ".join(FAMILIES))
print()

print("== exact transforms need no table ==")
for fam, p in (("gaussian", None), ("sech_product", None),
               ("inv_cosh_product", None), ("exp_l1", None),
               ("supergaussian", 1.0), ("supergaussian", 2.0)):
    rep = check_hypotheses(TestFunctionSpec(fam, 3, p=p), samples=2000, seed=1)
    label = fam if p is None else f"{fam}(p={p:g})"
    worst = min(st.worst_margin for st in rep.checks.values())
    print(f"{label:22s} ok = {rep.ok}, worst margin {worst:+.2e}")

print()
print("== fractional p: build a 1-d transform table first (Zolotarev's integral) ==")
table = build_transform_table(1.5, tol=1e-8, r_max=48.0)
print(f"p = 1.5 table: {len(table.nodes)} nodes out to r = {table.r_max:g}, "
      f"tolerance {table.tol:.1e}")
rep = check_hypotheses(TestFunctionSpec("supergaussian", 2, p=1.5),
                       samples=2000, seed=1, table=table)
print(f"supergaussian(p=1.5)   ok = {rep.ok}")
for name, st in rep.checks.items():
    print(f"  {name:18s} {st.evaluated} evaluated, {st.violations} violations")

print()
print("== spot values of the 1-d transform ==")
print(f"fhat_1(0.5) for e^-|x|:      {fourier_1d(1.0, 0.5)[0]:.12f}  "
      f"(exact 2/(1+4 pi^2 y^2))")
print(f"fhat_1(0.5) for e^-|x|^1.5:  {fourier_1d(1.5, 0.5)[0]:.12f}")
spec = TestFunctionSpec("supergaussian", 1, p=2.0)
print(f"fhat(0.5) at p = 2:          {eval_fhat(spec, [0.5]):.12f}  "
      f"(exact sqrt(pi) e^(-pi^2/4))")
