import math

import numpy as np
import pytest

from latbounds.bounds import NuBound, cosh_nu_bound
from latbounds.enumeration import BodySpec
import latbounds.verify as verify
from latbounds.errors import InvariantError, ToleranceUnreachedError
from latbounds.functions import TestFunctionSpec as FnSpec
from latbounds.lattice import Lattice, integer_lattice, lll_reduce, \
    random_unimodular_lattice
from latbounds.verify import (FAIL, INCONCLUSIVE, PASS, CertifiedSum,
                              _verdict, certified_sum, check_part1, check_part3,
                              check_tail_inequality, dual_fhat_sum,
                              handshake_census, nu_for_body, psf_residual,
                              transference_check)

THETA_Z1 = 1.086434811213308  # sum of exp(-pi k^2) over Z, frozen
D4 = Lattice(np.array([[1.0, -1.0, 0.0, 0.0],
                       [0.0, 1.0, -1.0, 0.0],
                       [0.0, 0.0, 1.0, -1.0],
                       [0.0, 0.0, 1.0, 1.0]]), name="D4")


# ---------------------------------------------------------------------------
# certified sums


def test_theta_z1_frozen():
    cs = certified_sum(integer_lattice(1), FnSpec("gaussian", 1),
                       np.zeros(1), 1.0, 1e-9)
    assert abs(cs.partial - THETA_Z1) < 1e-12
    assert 0 < cs.remainder_bound < 1e-9 * cs.partial
    assert cs.npoints == 7


def test_theta_z2_is_square():
    cs = certified_sum(integer_lattice(2), FnSpec("gaussian", 2),
                       np.zeros(2), 1.0, 1e-9)
    assert abs(cs.partial - THETA_Z1 ** 2) < 1e-11


def test_certified_sum_interval():
    cs = certified_sum(integer_lattice(1), FnSpec("gaussian", 1),
                       np.zeros(1), 1.0, 1e-9)
    lo, hi = cs.interval()
    assert lo == cs.partial
    assert hi == cs.partial + cs.remainder_bound
    assert cs.lower == lo and cs.upper == hi


def test_intervals_nest_with_tolerance():
    L, spec = integer_lattice(2), FnSpec("gaussian", 2)
    loose = certified_sum(L, spec, np.zeros(2), 1.0, 1e-4)
    tight = certified_sum(L, spec, np.zeros(2), 1.0, 1e-10)
    # same truth inside both intervals, tighter one narrower
    assert loose.lower - 1e-15 <= tight.upper
    assert tight.lower <= loose.upper + 1e-15
    assert tight.remainder_bound < loose.remainder_bound


def test_certified_sum_scaling_dilation():
    # sum f(x/t) over 2Z equals sum f(x) over Z at t = 2
    L2 = Lattice(np.array([[2.0]]))
    spec = FnSpec("gaussian", 1)
    cs = certified_sum(L2, spec, np.zeros(1), 2.0, 1e-9)
    assert abs(cs.partial - THETA_Z1) < 1e-9


def test_certified_sum_validation():
    L, spec = integer_lattice(2), FnSpec("gaussian", 2)
    with pytest.raises(ValueError):
        certified_sum(L, spec, np.zeros(2), 0.0, 1e-9)
    with pytest.raises(ValueError):
        certified_sum(L, spec, np.zeros(2), 1.0, -1e-9)
    with pytest.raises(ValueError):
        certified_sum(L, spec, np.zeros(3), 1.0, 1e-9)
    with pytest.raises(ValueError):
        certified_sum(L, FnSpec("gaussian", 3), np.zeros(2), 1.0, 1e-9)


def test_certified_sum_all_families_z2(table15):
    # every family's primal path sums cleanly on a small lattice
    v = np.array([0.25, -0.4])
    for fam, p in (("gaussian", None), ("sech_product", None),
                   ("inv_cosh_product", None), ("exp_l1", None),
                   ("supergaussian", 0.5), ("supergaussian", 1.5)):
        spec = FnSpec(fam, 2, p=p)
        cs = certified_sum(integer_lattice(2), spec, v, 1.0, 1e-8)
        assert cs.partial > 0
        assert cs.remainder_bound <= 1e-8 * cs.partial * (1 + 1e-6)


def test_exp_l1_z1_exact():
    # sum exp(-|k|) = 1 + 2/(e - 1)
    cs = certified_sum(integer_lattice(1), FnSpec("exp_l1", 1),
                       np.zeros(1), 1.0, 1e-10)
    assert abs(cs.partial - (1 + 2 / (math.e - 1))) <= cs.remainder_bound + 1e-12


# ---------------------------------------------------------------------------
# dual sums and the summation identity


def test_dual_sum_exp_l1_z1():
    ds = dual_fhat_sum(integer_lattice(1), FnSpec("exp_l1", 1),
                       np.zeros(1), 1e-6)
    # Poisson: equals the primal sum exactly for Z
    assert abs(ds.partial - (1 + 2 / (math.e - 1))) <= ds.remainder_bound


def test_dual_sum_supergaussian_p2_self_consistent():
    L = integer_lattice(1)
    spec = FnSpec("supergaussian", 1, p=2.0)
    prim = certified_sum(L, spec, np.zeros(1), 1.0, 1e-9)
    ds = dual_fhat_sum(L, spec, np.zeros(1), 1e-9)
    tol = prim.remainder_bound + ds.remainder_bound + 1e-12
    assert abs(prim.partial - ds.partial) <= tol


def test_dual_sum_table_path(table15):
    L = integer_lattice(1)
    spec = FnSpec("supergaussian", 1, p=1.5)
    prim = certified_sum(L, spec, np.zeros(1), 1.0, 1e-9)
    ds = dual_fhat_sum(L, spec, np.zeros(1), 1e-4, table=table15)
    assert abs(prim.partial - ds.partial) <= \
        prim.remainder_bound + ds.remainder_bound


def test_dual_sum_rejects_non_diagonal():
    L = Lattice(np.array([[1.0, 1.0], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="diagonal"):
        dual_fhat_sum(L, FnSpec("exp_l1", 2), np.zeros(2), 1e-6)


def test_dual_sum_honest_tolerance_failure():
    with pytest.raises(ToleranceUnreachedError) as ei:
        dual_fhat_sum(integer_lattice(1), FnSpec("exp_l1", 1),
                      np.zeros(1), 1e-12)
    assert ei.value.achieved > ei.value.requested


@pytest.mark.parametrize("fam,lat,t,v,cap", [
    ("gaussian", integer_lattice(2), 1.5, [0.2, 0.3], 1e-10),
    ("sech_product", integer_lattice(1), 1.0, [0.0], 1e-8),
    ("inv_cosh_product",
     Lattice(np.array([[1.0, 1.0], [0.0, 1.0]])), 1.0, [0.1, -0.3], 1e-8),
])
def test_psf_residual_fast_families(fam, lat, t, v, cap):
    spec = FnSpec(fam, lat.dim)
    res = psf_residual(lat, spec, np.array(v), t, 1e-9)
    assert res <= cap


def test_psf_residual_exp_l1():
    res = psf_residual(integer_lattice(1), FnSpec("exp_l1", 1),
                       np.zeros(1), 1.0, 1e-6)
    assert res <= 1e-6


def test_psf_residual_supergaussian_exact_and_table(table15):
    res = psf_residual(integer_lattice(2), FnSpec("supergaussian", 2, p=2.0),
                       np.array([0.3, 0.0]), 1.5, 1e-9)
    assert res <= 1e-10
    res = psf_residual(integer_lattice(1), FnSpec("supergaussian", 1, p=1.5),
                       np.zeros(1), 1.0, 1e-3, table=table15)
    assert res <= 1e-3


def test_psf_scaled_diagonal_lattice():
    L = Lattice(np.diag([1.0, 1.25]))
    res = psf_residual(L, FnSpec("exp_l1", 2), np.array([0.1, 0.2]),
                       1.2, 1e-6)
    assert res <= 1e-6


# ---------------------------------------------------------------------------
# the three inequality checks


@pytest.mark.parametrize("lhs, rhs, margin, verdict", [
    ((1.0, 2.0), (3.0, 4.0), 1.0, PASS),           # disjoint, lhs below
    ((3.0, 4.0), (1.0, 2.0), -3.0, FAIL),          # disjoint, lhs above
    ((1.0, 3.0), (2.0, 4.0), -1.0, INCONCLUSIVE),  # overlapping
    ((2.0, 4.0), (1.0, 3.0), -3.0, INCONCLUSIVE),  # overlapping, lhs higher
    ((1.0, 2.0), (2.0, 3.0), 0.0, PASS),           # touching at 2
    ((2.0, 3.0), (1.0, 2.0), -2.0, INCONCLUSIVE),  # touching, lhs above
    ((0.0, 0.0), (0.0, 0.0), 0.0, PASS),           # equal points
    ((5.0, 5.0), (4.0, 4.0), -1.0, FAIL),          # distinct points
])
def test_verdict_table(lhs, rhs, margin, verdict):
    assert _verdict(lhs, rhs) == (margin, verdict)


def test_part1_identity_margin_zero():
    rec = check_part1(integer_lattice(2), FnSpec("gaussian", 2),
                      np.zeros(2), 1.0)
    assert rec["verdict"] == PASS
    assert rec["margin"] == 0.0
    assert rec["check"] == "part1"


def test_part1_dilation_passes():
    rec = check_part1(integer_lattice(2), FnSpec("gaussian", 2),
                      np.array([0.3, -0.2]), 1.5)
    assert rec["verdict"] == PASS
    assert rec["margin"] > 0


def test_part1_rejects_t_below_one():
    with pytest.raises(ValueError):
        check_part1(integer_lattice(1), FnSpec("gaussian", 1),
                    np.zeros(1), 0.8)


def test_nu_for_body_dispatch():
    g = FnSpec("gaussian", 2)
    nb = nu_for_body(g, BodySpec(p=2.0, radius=1.0), 2)
    assert nb.method == "closed_form"
    nb = nu_for_body(g, BodySpec(p=2.0, radius=0.3), 2)  # tau < 1/2
    assert nb.method == "norm_optimizer"
    with pytest.raises(ValueError):
        nu_for_body(g, BodySpec(p=1.0, radius=1.0), 2)  # wrong ball shape
    ic = FnSpec("inv_cosh_product", 2)
    nb = nu_for_body(ic, BodySpec(p=1.0, radius=1.4248), 2)
    assert nb.method == "shrink_ratio"
    with pytest.raises(ValueError):
        nu_for_body(FnSpec("sech_product", 2), BodySpec(p=1.0, radius=1.0), 2)


def test_tail_inequality_passes():
    L, spec = integer_lattice(2), FnSpec("gaussian", 2)
    K = BodySpec(p=2.0, radius=math.sqrt(2 / math.pi))  # tau = 1
    nu = nu_for_body(spec, K, 2)
    rec = check_tail_inequality(L, spec, K, np.zeros(2), nu)
    assert rec["check"] == "tail_inequality"
    assert rec["verdict"] == PASS
    assert rec["margin"] > 0
    assert rec["margin"] == rec["rhs_interval"][0] - rec["lhs_interval"][1]


def test_tail_inequality_detects_false_bound():
    # a deliberately wrong coefficient must produce FAIL, not PASS
    L, spec = integer_lattice(2), FnSpec("gaussian", 2)
    K = BodySpec(p=2.0, radius=1.3)
    bogus = NuBound(value=1e-6, method="closed_form")
    rec = check_tail_inequality(L, spec, K, np.zeros(2), bogus)
    assert rec["verdict"] == FAIL


def test_tail_inequality_shifted():
    L, spec = integer_lattice(2), FnSpec("gaussian", 2)
    K = BodySpec(p=2.0, radius=1.3)
    nu = nu_for_body(spec, K, 2)
    rec = check_tail_inequality(L, spec, K, np.array([0.4, 0.1]), nu)
    assert rec["verdict"] == PASS


def test_part3_passes_and_precondition():
    L, spec = integer_lattice(2), FnSpec("gaussian", 2)
    K = BodySpec(p=2.0, radius=0.99)
    nu = nu_for_body(spec, K, 2)
    rec = check_part3(L, spec, K, np.array([0.2, 0.1]), nu)
    assert rec["verdict"] == PASS
    assert rec["margin"] > 0
    # radius 1.2 swallows (1, 0): not an admissible body for part 3
    bad = BodySpec(p=2.0, radius=1.2)
    with pytest.raises(ValueError, match="nonzero lattice vector"):
        check_part3(L, spec, bad, np.zeros(2), nu_for_body(spec, bad, 2))


def test_part3_scaled_inv_cosh():
    L = Lattice(np.diag([4.0, 4.0]), name="4Z2")
    spec = FnSpec("inv_cosh_product", 2)
    K = BodySpec(p=1.0, radius=(1 + 0.424789765355589) * 0.75 * 2)
    nu = cosh_nu_bound(0.75, 2)
    rec = check_part3(L, spec, K, np.zeros(2), nu)
    assert rec["verdict"] == PASS
    assert 1 - 2 * nu.value > 0  # a non-vacuous instance


# ---------------------------------------------------------------------------
# census and transference


def test_handshake_census_zn():
    for n in (1, 2, 4):
        hc = handshake_census(integer_lattice(n), 2.0, 1.0)
        assert hc.count == 2 * n
        assert hc.passed
        assert hc.count % 2 == 0


def test_handshake_census_d4():
    hc = handshake_census(D4, 2.0, 1.0)
    assert hc.count == 24
    assert abs(hc.bound - 20 * math.e ** 3) < 1e-9
    assert hc.passed
    # u = 1.5 picks up the next shell (norm 2) as well
    hc = handshake_census(D4, 2.0, 1.5)
    assert hc.count == 48


def test_handshake_census_reduction_invariant():
    L = random_unimodular_lattice(3, seed=5)
    a = handshake_census(L, 2.0, 1.5)
    b = handshake_census(lll_reduce(L), 2.0, 1.5)
    assert a.count == b.count


def test_handshake_census_validation():
    with pytest.raises(ValueError):
        handshake_census(integer_lattice(2), 2.5, 1.0)
    with pytest.raises(ValueError):
        handshake_census(integer_lattice(2), 2.0, 0.5)


def test_transference_z1_anchor():
    rep = transference_check(integer_lattice(1), 2.0, resolution=256)
    assert rep.verdict == PASS
    assert rep.sigma == 1.0
    assert abs(rep.rho_bracket[0] - 0.5) < 1e-15  # exact deep hole
    assert rep.product_upper <= rep.stated_bound
    rec = rep.record()
    assert rec["check"] == "transference"


def test_transference_z2_l1():
    rep = transference_check(integer_lattice(2), 1.0, resolution=64)
    assert rep.verdict == PASS
    assert abs(rep.rho_bracket[0] - 1.0) < 1e-15


def test_transference_rejects_other_p():
    with pytest.raises(ValueError):
        transference_check(integer_lattice(2), 1.5)


def test_product_fhat_sum_rejects_shift_with_phase():
    # no public caller passes both; the cosine-only 1-D sums would be wrong
    with pytest.raises(InvariantError, match="shift and a phase"):
        verify._product_fhat_sum(np.ones(2), FnSpec("exp_l1", 2), 1.0,
                                 np.array([0.1, 0.0]), np.array([0.2, 0.0]),
                                 1e-6)


def test_psf_raises_when_sin_pairing_does_not_cancel(monkeypatch):
    # a lopsided point set: the dual phase sum keeps a sin part
    monkeypatch.setattr(verify, "enumerate_arrays",
                        lambda L, *args, **kwargs: (
                            np.array([[1, 0]], dtype=np.int64),
                            np.array([[1.0, 0.0]])))
    with pytest.raises(InvariantError, match="sin pairing"):
        psf_residual(integer_lattice(2), FnSpec("gaussian", 2),
                     np.array([0.25, 0.0]), 1.0, 1e-6)


def test_certified_sum_interval_type():
    cs = CertifiedSum(partial=1.0, remainder_bound=0.25,
                      truncation_radius=3.0, norm_p=2.0)
    assert cs.interval() == (1.0, 1.25)
    assert INCONCLUSIVE == "INCONCLUSIVE"
