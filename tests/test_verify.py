import dataclasses
import functools
import gc
import itertools
import math
import operator
import weakref
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from latbounds.bounds import NuBound, cosh_nu_bound, mu_norm
import latbounds.enumeration as enumeration
import latbounds.lattice as lattice
from latbounds.enumeration import BodySpec, enumerate_arrays
import latbounds.verify as verify
from latbounds.errors import (BudgetExceededError, IllConditionedBasisError,
                              InvariantError, ToleranceUnreachedError)
from latbounds.functions import (CheckStats, Envelope, HypothesisReport,
                                 envelope, log_f)
from latbounds.functions import TestFunctionSpec as FnSpec
from latbounds.lattice import Lattice, _gso, dual, integer_lattice, \
    lll_reduce, lp_norm, random_unimodular_lattice
from latbounds.transform import transform_tail_coefficient
from latbounds.verify import (FAIL, INCONCLUSIVE, PASS, CertifiedSum,
                              Interval, _verdict, certified_sum, check_part1,
                              check_part3, check_psf, check_tail_inequality,
                              dual_fhat_sum, handshake_census, nu_for_body,
                              psf_residual, transference_check)

THETA_Z1 = 1.086434811213308  # sum of exp(-pi k^2) over Z, frozen


def _d_n(n):
    """A basis of D_n, the points of Z^n of even coordinate sum: the rows
    e_i - e_{i+1} and e_{n-1} + e_n."""
    basis = np.zeros((n, n))
    for i in range(n - 1):
        basis[i, i], basis[i, i + 1] = 1.0, -1.0
    basis[n - 1, n - 2:] = 1.0
    return basis


def _e8():
    """A basis of E8 = D8 u (D8 + 1/2): the rows 2 e_1, e_{i+1} - e_i for
    i < 7 and the glue vector (1/2, ..., 1/2); its covolume is 1."""
    basis = np.zeros((8, 8))
    basis[0, 0] = 2.0
    for i in range(1, 7):
        basis[i, i - 1], basis[i, i] = -1.0, 1.0
    basis[7] = 0.5
    return basis


D4 = Lattice(_d_n(4), name="D4")
# a lattice that is not split, the points of Z^2 of even sum, so a
# certified sum on it runs the kernel's search
CHECKER = Lattice([[1.0, 1.0], [1.0, -1.0]], name="D2")


def _searched(L, spec, v, t, tol, node_budget=enumeration.DEFAULT_NODE_BUDGET):
    """The search of L's ball through the kernel's one-column pass, on any
    lattice, as certified_sum builds it on a lattice that is not split."""
    S, tail, (partial,), rounding, npoints = verify._sums(
        L, spec, np.asarray(v, dtype=float), t, tol, node_budget,
        lambda emb, vals, _: (vals,))
    return CertifiedSum(partial, tail, S / t, npoints,
                        verify._up(rounding + verify._U * partial))


# ---------------------------------------------------------------------------
# certified sums


def test_theta_z1_frozen():
    L, spec = integer_lattice(1), FnSpec("gaussian", 1)
    # a tolerance of 1e-12 pins the partial sum to 1e-12
    cs = certified_sum(L, spec, np.zeros(1), 1.0, 1e-12)
    assert abs(cs.partial - THETA_Z1) < 1e-12
    assert 0 < cs.remainder_bound < 1e-12 * cs.partial
    assert cs.npoints == 7
    # at 1e-9 the partial may sit up to 1e-9 below, but the interval holds
    loose = certified_sum(L, spec, np.zeros(1), 1.0, 1e-9)
    assert 0 < loose.remainder_bound < 1e-9 * loose.partial
    lo, hi = loose.interval()
    assert lo <= THETA_Z1 <= hi


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_BIG = 1.7976931348623157e308  # the largest float


def _holds(interval, exact):
    """Whether the exact rational lies in interval; an infinite end, from
    an overflow, holds everything on its side."""
    lo, hi = interval
    return ((lo == -math.inf or Fraction(lo) <= exact)
            and (hi == math.inf or exact <= Fraction(hi)))


@given(a=_FINITE, b=_FINITE, c=_FINITE, d=_FINITE,
       scalar=st.sampled_from([None, float, np.float64]))
@example(a=_BIG, b=_BIG, c=_BIG, d=_BIG, scalar=None)       # sum overflows
@example(a=-_BIG, b=1e308, c=2.0, d=3.0, scalar=None)       # product overflows
@example(a=5e-324, b=1e-310, c=0.5, d=3.0, scalar=float)    # subnormals
@example(a=-1e-200, b=1e-160, c=1e-200, d=1e-150, scalar=None)  # underflow
@example(a=1.0, b=1.0, c=1.0, d=1.0, scalar=np.float64)     # exact results
def test_interval_ops_hold_the_exact_result(a, b, c, d, scalar):
    # +, - and * with an Interval, each way round, or with a float or a
    # numpy scalar (on either side of + and *): the exact result at every
    # pair of ends lies in the computed interval, so the whole exact image
    # does
    x = Interval(min(a, b), max(a, b))
    y = Interval(min(c, d), max(c, d)) if scalar is None else scalar(c)
    y_ends = y if scalar is None else (c,)
    for op in (operator.add, operator.sub, operator.mul):
        orders = [(x, y, False)]
        if scalar is None or op is not operator.sub:
            orders.append((y, x, True))
        for left, right, flip in orders:
            out = op(left, right)
            assert isinstance(out, Interval) and out.lo <= out.hi
            for xe, ye in itertools.product(x, y_ends):
                xe, ye = Fraction(xe), Fraction(ye)
                assert _holds(out, op(ye, xe) if flip else op(xe, ye))


def test_theta_z2_is_square():
    cs = certified_sum(integer_lattice(2), FnSpec("gaussian", 2),
                       np.zeros(2), 1.0, 1e-9)
    assert abs(cs.partial - THETA_Z1 ** 2) < 1e-11


def test_certified_sum_interval():
    cs = certified_sum(integer_lattice(1), FnSpec("gaussian", 1),
                       np.zeros(1), 1.0, 1e-9)
    lo, hi = cs.interval()
    # the ends hold the exact partial -+ rounding, plus remainder_bound at
    # the upper end, each rounded one ulp outward
    partial, rounding = Fraction(cs.partial), Fraction(cs.rounding)
    assert 0 < cs.rounding <= 1e-13 * cs.partial
    assert Fraction(lo) <= partial - rounding
    assert lo == math.nextafter(cs.partial - cs.rounding, -math.inf)
    assert Fraction(hi) >= partial + Fraction(cs.remainder_bound) + rounding
    width = math.nextafter(cs.remainder_bound + cs.rounding, math.inf)
    assert hi == math.nextafter(cs.partial + width, math.inf)


def test_intervals_nest_with_tolerance():
    L, spec = integer_lattice(2), FnSpec("gaussian", 2)
    loose = certified_sum(L, spec, np.zeros(2), 1.0, 1e-4)
    tight = certified_sum(L, spec, np.zeros(2), 1.0, 1e-10)
    # same truth inside both intervals, tighter one narrower
    (loose_lo, loose_hi), (tight_lo, tight_hi) = (loose.interval(),
                                                  tight.interval())
    assert loose_lo - 1e-15 <= tight_hi
    assert tight_lo <= loose_hi + 1e-15
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


def test_certified_sum_all_families_z2():
    # every family's primal path sums cleanly on a small lattice
    v = np.array([0.25, -0.4])
    for fam, p in (("gaussian", None), ("sech_product", None),
                   ("inv_cosh_product", None), ("exp_l1", None),
                   ("supergaussian", 0.5), ("supergaussian", 1.5)):
        spec = FnSpec(fam, 2, p=p)
        cs = certified_sum(integer_lattice(2), spec, v, 1.0, 1e-8)
        assert cs.partial > 0
        assert cs.remainder_bound <= 1e-8 * cs.partial * (1 + 1e-6)


def test_terms_past_the_floats_are_charged_nothing(monkeypatch):
    # on Z^3 at t = 1.5e-154, where the embedding is exact, the far points
    # of the ball have exponents past the floats (log f = -inf): their
    # terms are below every float, so only the origin's term is charged
    lost = []

    def spy(env, n, log_terms, drift, _run=verify._exponent_slip):
        lost.append(bool(np.any(log_terms == -math.inf)) and drift is None)
        return _run(env, n, log_terms, drift)
    monkeypatch.setattr(verify, "_exponent_slip", spy)
    cs = _searched(integer_lattice(3), FnSpec("gaussian", 3), np.zeros(3),
                   1.5e-154, 1e-9)
    assert any(lost) and cs.npoints > 1
    assert cs.partial == 1.0 and 0 < cs.rounding < 1e-13


def test_large_sum_meets_its_tolerance():
    # 936k points: the tail bound alone is the remainder, with no roundoff
    # slack that grows with the number of points
    cs = _searched(integer_lattice(3), FnSpec("gaussian", 3),
                   [0.3, 0.1, -0.2], 18.0, 1e-10)
    assert cs.npoints > 500_000
    assert cs.remainder_bound <= 1e-10 * cs.partial


def test_l1_sum_searches_its_l1_ball_not_the_l2_ball():
    # the l^1 ball of this sum holds 201,376 points and the l^2 ball of the
    # same radius 20 times as many, so a node budget of twice the points
    # passes only when the search cuts each level to the l^1 ball
    cs = _searched(integer_lattice(5), FnSpec("sech_product", 5),
                   np.full(5, 0.3), 1.0, 1e-9, node_budget=2 * 201_376)
    assert cs.npoints == 201_376


@pytest.mark.parametrize("n", [2, 3, 5])
def test_block_size_does_not_change_the_sum(n, monkeypatch):
    # on a sheared Z^n every product is exact, so the exactly rounded sum
    # cannot depend on how the enumeration cuts its blocks
    L, spec = random_unimodular_lattice(n, 3), FnSpec("gaussian", n)
    v = np.linspace(0.3, -0.2, n)
    want = certified_sum(L, spec, v, 1.0, 1e-4)
    for block in (1, 2, 7):
        monkeypatch.setattr(enumeration, "_BLOCK", block)
        got = certified_sum(L, spec, v, 1.0, 1e-4)
        assert (got.partial, got.npoints) == (want.partial, want.npoints)


def test_exp_l1_z1_exact():
    # sum exp(-|k|) = 1 + 2/(e - 1)
    cs = certified_sum(integer_lattice(1), FnSpec("exp_l1", 1),
                       np.zeros(1), 1.0, 1e-10)
    assert abs(cs.partial - (1 + 2 / (math.e - 1))) <= cs.remainder_bound + 1e-12


def _q_size(x, q):
    """||x||_q row-wise, or its q-th power for q < 1, as the cell reach is
    measured."""
    return np.sum(np.abs(x) ** q, axis=-1) if q < 1 else lp_norm(x, q)


def _cell_reaches(basis, q, rng):
    """(largest _q_size, mean, its standard error) over the Gram-Schmidt
    box and over the parallelepiped of the basis.  The largest is taken at
    the vertices, and for q < 1, where sum |x_i|^q is not convex, at random
    interior points too; the mean is that of sum |x_i|^q, ||x||^2 at q = 2,
    over 20,000 uniform points of the cell."""
    n = basis.shape[0]
    coeffs = np.array(list(itertools.product([-0.5, 0.5], repeat=n)))
    uniform = rng.uniform(-0.5, 0.5, (20_000, n))
    if q < 1:
        coeffs = np.vstack([coeffs, uniform[:200]])
    _, _, ortho = _gso(basis)
    cells = []
    for rows in (ortho, basis):
        size = np.sum(np.abs(uniform @ rows) ** q, axis=1)
        cells.append((float(np.max(_q_size(coeffs @ rows, q))),
                      float(size.mean()),
                      float(size.std()) / math.sqrt(len(size))))
    return cells


@given(n=st.integers(1, 5), q=st.sampled_from([0.5, 1.0, 1.5, 2.0]),
       seed=st.integers(0, 10_000), real=st.booleans())
def test_cell_reach_holds_a_tiling_cell(n, q, seed, real):
    rng = np.random.default_rng(seed)
    if real:
        B = rng.uniform(-3.0, 3.0, (n, n))
        assume(abs(np.linalg.det(B)) > 1e-3)
        L = Lattice(B)
    else:
        L = random_unimodular_lattice(n, seed)
    R = lll_reduce(L).basis
    reach, moment = enumeration._cell_bounds(R, q)
    cells = _cell_reaches(R, q, rng)
    (box, _, _), (para, _, _) = cells
    norms = lp_norm(R, q)
    para_bound = (float(np.sum((0.5 * norms) ** q)) if q <= 1
                  else float(0.5 * np.sum(norms)))
    # never longer than the parallelepiped's bound
    assert reach <= math.nextafter(para_bound, math.inf)
    # the cell whose bound was the smaller one lies within reach; the other
    # may reach further, as the Gram-Schmidt box can for q < 2 when the
    # parallelepiped is used.  For q = 2 the box's bound is always the
    # smaller.
    assert (box if reach < para_bound else para) <= reach
    if q == 2:
        assert box <= reach
    # the tail needs one cell that holds both: within reach, and its mean
    # ||c||_q^q at most moment, here sampled, to within six standard errors
    assert any(top <= reach and mean - 6 * se <= moment
               for top, mean, se in cells)


def test_gram_schmidt_box_shortens_zn_truncation():
    # the box reaches sqrt(5)/2 on Z^5, the parallelepiped 5/2; with the
    # parallelepiped this sum took 188,062 points and radius 8.13
    cs = _searched(integer_lattice(5), FnSpec("gaussian", 5),
                   np.full(5, 0.3), 1.0, 1e-9)
    assert cs.npoints <= 25_000
    assert cs.truncation_radius <= 5.3
    assert cs.remainder_bound <= 1e-9 * cs.partial


def test_z8_gaussian_pays_the_reach_once():
    # Jensen over the Gram-Schmidt box: 1.05 M points, where paying the
    # reach twice took 8.57 M; the interval holds the 30-digit product of
    # 1-D theta series, sum_k e^{-pi (k + x)^2} = theta_3(pi x, e^{-pi})
    cs = _searched(integer_lattice(8), FnSpec("gaussian", 8),
                   np.full(8, 0.3), 1.0, 1e-9)
    assert cs.npoints <= 1_200_000
    assert cs.remainder_bound <= 1e-9 * cs.partial
    with mpmath.workdps(30):
        exact = mpmath.jtheta(3, mpmath.pi * mpmath.mpf("0.3"),
                              mpmath.exp(-mpmath.pi)) ** 8
    assert _contains(cs.interval(), exact)


def test_z5_supergaussian_pays_the_reach_once():
    # Jensen over the cell with C = 2^{2-q}: 462,823 points, where paying
    # the reach twice took 782,629; the interval holds the 30-digit product
    # of 1-D series sum_k e^{-|k + 0.3|^1.5}
    cs = _searched(integer_lattice(5), FnSpec("supergaussian", 5, p=1.5),
                   np.full(5, 0.3), 1.0, 1e-9)
    assert cs.npoints <= 500_000
    assert cs.remainder_bound <= 1e-9 * cs.partial
    with mpmath.workdps(30):
        exact = mpmath.nsum(lambda k: mpmath.exp(-abs(k + mpmath.mpf("0.3"))
                                                 ** mpmath.mpf(1.5)),
                            [-mpmath.inf, mpmath.inf]) ** 5
    assert _contains(cs.interval(), exact)


def test_truncation_radius_past_1e154_stays_finite():
    # the bisection's mid = sqrt(lo) sqrt(hi): lo * hi leaves the floats
    # once S passes 1.3e154, as it does for this l^0.05 envelope
    env = envelope(FnSpec("supergaussian", 1, p=0.05))
    S, tail = verify._truncated(Lattice([[4.32e148]]), env,
                                env.beta / 0.5 ** 0.05, lambda _: 0.0)
    assert 1.3e154 < S < math.inf
    assert 0 <= tail <= 1.0
    # and the bisection ran: 3% less radius misses the target
    cell = verify._cell_bounds(np.array([[4.32e148]]), 0.05)
    assert verify._log_tail(1, 4.32e148, env, env.beta / 0.5 ** 0.05, cell,
                            S / 1.03) > 0.0


def test_tail_past_the_floats_keeps_its_bound():
    # past S ~ 1.3e154, (S - reach)^q leaves the floats, but beta times it,
    # with beta ~ 1.4e-308, does not; the bound then takes it from
    # log beta + q log (S - reach), and stays above the exact tail
    env = envelope(FnSpec("supergaussian", 1, p=1.99))
    beta = env.beta / 5e154 ** 1.99
    L = Lattice([[1.3e154]])
    cell = verify._cell_bounds(L.basis, env.q)
    size = np.abs(np.arange(-60, 61) * 0.26)  # |k b| / t; e^{-230} past 60
    for S in (9.2e154, 1.2e155, 1.6e155):
        assert env.q * math.log(S - cell[0]) > math.log(1.7e308)
        bound = verify._log_tail(1, 1.3e154, env, beta, cell, S)
        mass = math.fsum(np.exp(-size[size >= S / 5e154] ** 1.99))
        assert mass > 0 and mass <= math.exp(bound), (S, mass, bound)
    # where beta (S - reach)^q leaves the floats too, the tail is below
    # every float
    assert verify._log_tail(1, 1.3e154, env, 1.0, cell, 1e160) == -math.inf
    # the presolve's radius holds the 1e-9 tail the sum needs
    S, tail = verify._truncated(L, env, beta, lambda _: math.log(1e-9))
    mass = math.fsum(np.exp(-size[size >= S / 5e154] ** 1.99))
    assert mass <= tail <= 1e-9


def test_ball_whose_radius_squared_leaves_the_floats_is_summed():
    # the sum's ball has radius S ~ 2.4e155, whose square, and the squared
    # norms of its points, leave the floats: it is searched and filtered
    # scaled by a power of two, and holds the 37 points |k| <= 18
    L = Lattice([[1.3e154]])
    cs = verify.certified_sum(L, FnSpec("supergaussian", 1, p=1.99), [0.0],
                              5e154, 1e-9)
    assert cs.npoints == 37
    assert cs.remainder_bound <= 1e-9 * cs.partial
    with mpmath.workdps(30):
        a, p = mpmath.mpf(1.3e154) / mpmath.mpf(5e154), mpmath.mpf(1.99)
        exact = mpmath.fsum(mpmath.exp(-abs(k * a) ** p)
                            for k in range(-200, 201))
    assert _contains(cs.interval(), exact)


# beta per q and n, as (low, high): wide envelopes, where the bound is
# nearly tight (the exact tail reaches 0.986 of it for exp_l1 on Z^1), only
# in 1-D, so that the brute-force balls stay small
_TAIL_BETA = {(0.5, 1): (0.05, 12.0), (1.0, 1): (0.05, 6.0),
              (1.5, 1): (0.05, 6.0), (2.0, 1): (0.05, 6.0),
              (0.5, 2): (4.0, 12.0), (1.0, 2): (1.5, 6.0),
              (1.5, 2): (1.0, 6.0), (2.0, 2): (0.5, 6.0),
              (0.5, 3): (4.0, 12.0), (1.0, 3): (1.5, 6.0),
              (1.5, 3): (1.0, 6.0), (2.0, 3): (0.5, 6.0)}


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 3), q=st.sampled_from([0.5, 1.0, 1.5, 2.0]),
       seed=st.integers(0, 10_000), real=st.booleans(),
       loga=st.sampled_from([0.0, math.log(2.0)]),
       frac_beta=st.floats(0.0, 1.0), frac_s=st.floats(0.0, 1.0))
def test_log_tail_bounds_the_brute_force_tail(n, q, seed, real, loga,
                                              frac_beta, frac_s):
    # the exact envelope mass past S, summed over the ball out to where a
    # further e^{-25} of the envelope's decay remains, never exceeds the
    # certified bound; S runs from where the bound is first finite to
    # where it is 1e-12
    rng = np.random.default_rng(seed)
    if real:
        B = rng.uniform(-2.0, 2.0, (n, n))
        assume(abs(np.linalg.det(B)) > 0.3)
        L = Lattice(B)
    else:
        L = integer_lattice(n)
    lo, hi = _TAIL_BETA[q, n]
    beta = lo * (hi / lo) ** frac_beta
    env = Envelope(loga, beta, q)
    cell = verify._cell_bounds(lll_reduce(L).basis, q)
    bound = lambda S: verify._log_tail(n, L.covolume, env, beta, cell, S)
    reach_q = cell[0] if q <= 1 else cell[0] ** q
    s_min = reach_q ** (1 / q) * (1 + 1e-6)
    assume(bound(s_min) < math.inf)
    s_max = s_min
    while bound(s_max) > math.log(1e-12):
        s_max *= 1.1
    S = s_min + frac_s * (s_max - s_min)
    R = (S ** q + 25.0 / beta) ** (1 / q)
    v = rng.uniform(-0.5, 0.5, n) @ L.basis
    _, emb = enumerate_arrays(L, v, R, q)
    size = lp_norm(emb + v, q)
    mass = math.fsum(np.exp(n * loga - beta * size[size >= S] ** q))
    assert mass <= math.exp(bound(S)), (mass, math.exp(bound(S)))


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(q=st.floats(1.0, 2.0, exclude_min=True), a=_FINITE, b=_FINITE)
@example(q=2.0, a=1.0, b=-2.0)
@example(q=1.5, a=-3.0, b=1e-300)
def test_smoothness_constant_bounds_the_power(q, a, b):
    # |a + b|^q <= |a|^q + q sgn(a) |a|^{q-1} b + 2^{2-q} |b|^q, the
    # inequality behind the 1 < q <= 2 tail, at 50 digits, also at a = 0
    # and b = -2a; the allowance, 1e-40 of |a|^q + |b|^q, is for the
    # rounding, as q = 2 makes it an equality
    with mpmath.workdps(50):
        q = mpmath.mpf(q)
        const = 2 ** (2 - q)
        a, b = mpmath.mpf(a), mpmath.mpf(b)
        for x, y in ((a, b), (mpmath.mpf(0), b), (a, -2 * a)):
            lhs = abs(x + y) ** q - abs(x) ** q \
                - q * mpmath.sign(x) * abs(x) ** (q - 1) * y
            room = mpmath.mpf(10) ** -40 * (abs(x) ** q + abs(y) ** q)
            assert lhs <= const * abs(y) ** q + room, (q, x, y)


@pytest.mark.parametrize("q", [1.2, 1.5, 1.7])
def test_log_tail_pays_the_smoothness_constant(q):
    # for 1 < q < 2 the tail's factor is e^{beta 2^{2-q} E}: the bound is at
    # least its formula, base + beta 2^{2-q} E + log Gamma(n/q, beta (S -
    # reach)^q), at 40 digits.  The Gamma bound's own slack is below 0.004
    # here, and the constant 1 in place of 2^{2-q} would take beta
    # (2^{2-q} - 1) E, 0.069 to 0.22, off the bound.
    n, beta, (reach, moment), S = 2, 1.0, (0.8, 0.3), 6.0
    bound = verify._log_tail(n, 1.0, Envelope(0.0, beta, q), beta,
                             (reach, moment), S)
    with mpmath.workdps(40):
        q = mpmath.mpf(q)
        a = n / q
        base = (n * (mpmath.log(2) + mpmath.loggamma(1 + 1 / q))
                + mpmath.log(n) - mpmath.loggamma(1 + a) - mpmath.log(q)
                - a * mpmath.log(beta))
        exact = base + beta * 2 ** (2 - q) * moment + mpmath.log(
            mpmath.gammainc(a, beta * (S - mpmath.mpf(reach)) ** q))
        assert mpmath.mpf(bound) >= exact
        assert mpmath.mpf(bound) - exact <= 0.004


# a = n/q of the tails: gaussians (q = 2) on Z^1 to Z^8, and l^1, l^1.5,
# l^0.5 and l^(4/3) envelopes
_GAMMA_A = [0.5, 0.75, 1.0, 4 / 3, 1.5, 2.0, 2.5, 3.0, 10 / 3, 4.0, 16 / 3,
            8.0, 16.0]
_GAMMA_X = [10.0 ** (e / 8) for e in range(-48, 27)] + [2000.0]


@pytest.mark.parametrize("a", _GAMMA_A)
def test_log_upper_gamma_bounds_the_incomplete_gamma(a):
    u = 2.0 ** -53
    n_parts = max(0, math.ceil(a - 1))
    with mpmath.workdps(40):
        for x in _GAMMA_X:
            bound = verify._log_upper_gamma(a, x)
            exact = mpmath.log(mpmath.gammainc(mpmath.mpf(a), mpmath.mpf(x)))
            assert mpmath.mpf(bound) >= exact, (a, x)
            if a == int(a):
                # exact in real arithmetic: only the rounding and its
                # allowance separate the two, each at most the allowance
                log_x = math.log(x)
                log_s = float(exact - (a - 1) * mpmath.log(x) + x)
                allowance = 8 * u * (x + abs(a - 1) * abs(log_x) + log_s
                                     + n_parts)
                assert mpmath.mpf(bound) - exact <= 2 * allowance, (a, x)


def test_log_upper_gamma_is_a_bound_where_it_cannot_be_evaluated():
    # x = 0 from an underflowed argument, and a sum that overflows
    assert verify._log_upper_gamma(2.5, 0.0) == math.inf
    assert verify._log_upper_gamma(16.0, 1e-300) == math.inf


def test_non_finite_shifts_are_refused():
    L, spec = integer_lattice(2), FnSpec("gaussian", 2)
    for v in ([math.inf, 0.0], [0.0, -math.inf], [math.nan, 0.0]):
        with pytest.raises(ValueError, match="finite"):
            certified_sum(L, spec, v, 1.0, 1e-9)
        with pytest.raises(ValueError, match="finite"):
            dual_fhat_sum(L, spec, v, 1e-9)
        with pytest.raises(ValueError, match="finite"):
            enumerate_arrays(L, v, 2.0)


@pytest.mark.parametrize("t, target_tol, message", [
    (math.nan, 1e-9, "^t must be positive"),
    (1.0, math.nan, "^target_tol must be positive")], ids=["t", "target_tol"])
def test_a_nan_dilation_or_tolerance_is_refused(t, target_tol, message):
    # NaN passes a test of <= 0
    with pytest.raises(ValueError, match=message):
        certified_sum(integer_lattice(2), FnSpec("gaussian", 2), [0.1, 0.2],
                      t, target_tol)


@pytest.mark.parametrize("run", [
    lambda L, spec, K, v: dual_fhat_sum(L, spec, v, 1e-9),
    lambda L, spec, K, v: check_part3(L, spec, K, v, nu_for_body(spec, K, 2)),
], ids=["dual_fhat_sum", "check_part3"])
def test_a_short_shift_is_refused_not_broadcast(run):
    # refused, not broadcast to (0.3, 0.3)
    L, spec = integer_lattice(2), FnSpec("gaussian", 2)
    with pytest.raises(ValueError, match=r"v must have shape \(2,\): the "
                       r"lattice needs 2 coordinates, got \(1,\)"):
        run(L, spec, BodySpec(p=2.0, radius=0.99), [0.3])


# ---------------------------------------------------------------------------
# dual sums and the summation identity


def test_dual_sum_exp_l1_z1():
    ds = dual_fhat_sum(integer_lattice(1), FnSpec("exp_l1", 1),
                       np.zeros(1), 1e-6)
    # Poisson: equals the primal sum exactly for Z
    with mpmath.workdps(30):
        assert _contains(ds, 1 + 2 / (mpmath.e - 1))


def test_dual_sum_supergaussian_p2_self_consistent():
    L = integer_lattice(1)
    spec = FnSpec("supergaussian", 1, p=2.0)
    prim_lo, prim_hi = certified_sum(L, spec, np.zeros(1), 1.0,
                                     1e-9).interval()
    lo, hi = dual_fhat_sum(L, spec, np.zeros(1), 1e-9)
    # both hold the one sum, so they meet
    assert prim_lo <= hi and lo <= prim_hi


def test_dual_sum_table_path():
    # fractional p needs no transform table, and reaches tol 1e-9 on a
    # sheared basis of Z^2 (whose dual is Z^2 again)
    L = random_unimodular_lattice(2, 5)
    spec = FnSpec("supergaussian", 2, p=1.5)
    v = np.array([0.3, -0.15])
    ds = dual_fhat_sum(L, spec, v, 1e-9)
    exact = _oracle("supergaussian", 1.5, [1.0, 1.0], v)
    full = _oracle("supergaussian", 1.5, [1.0, 1.0], [0.0, 0.0])
    assert _contains(ds, exact)
    assert ds.hi - ds.lo <= 2e-9 * full


def test_dual_sum_sheared_basis_exp_l1():
    # [[1, 1], [0, 1]] spans Z^2: the Poisson-kernel closed form per axis
    L = Lattice(np.array([[1.0, 1.0], [0.0, 1.0]]))
    v = np.array([0.2, -0.35])
    ds = dual_fhat_sum(L, FnSpec("exp_l1", 2), v, 1e-6)
    assert _contains(ds, _oracle("exp_l1", None, [1.0, 1.0], v))


def test_psf_exp_l1_reaches_tight_tolerance():
    # exp_l1's 1-D dual factor is exact to a few hundred ulp, so psf
    # reaches tol 1e-12
    res = psf_residual(integer_lattice(1), FnSpec("exp_l1", 1),
                       np.zeros(1), 1.0, 1e-12)
    assert res <= 1e-11


def test_psf_table_route_honest_tolerance_failure():
    # the power-law tail past r = 96 floors the fractional-p dual product's
    # error (about 5.3e-5 at spacing 1); psf says so rather than truncating
    with pytest.raises(ToleranceUnreachedError) as ei:
        psf_residual(integer_lattice(1), FnSpec("supergaussian", 1, p=1.5),
                     np.zeros(1), 1.0, 1e-6)
    assert ei.value.achieved > ei.value.requested


def test_psf_fractional_p_reaches_its_tail_floor():
    # at p = 1.9 the tail past r = 96 is about 9.8e-7 at spacing 1, so tol
    # 1e-5 is reached; an interpolation charge of 10 tol per point gave 2e-5
    res = psf_residual(integer_lattice(1), FnSpec("supergaussian", 1, p=1.9),
                       np.zeros(1), 1.0, 1e-5)
    assert res <= 1e-5


def _poisson_dual_1d(p, a, theta):
    """sum_k fhat_p(a k) cos(2 pi theta k) to 30 digits, by Poisson
    summation on the primal side: (1/a) sum_m e^{-|(m + theta)/a|^p}, whose
    terms past |m + theta| = a 80^{1/p} are below e^{-80}."""
    with mpmath.workdps(30):
        a, theta = mpmath.mpf(a), mpmath.mpf(theta)
        M = int(a * 80 ** (1 / p)) + 2
        return mpmath.fsum(mpmath.exp(-abs((m + theta) / a) ** p)
                           for m in range(-M, M + 1)) / a


@pytest.mark.parametrize("p", [1.2, 1.5, 1.9])
@pytest.mark.parametrize("a", [0.5, 1.0, 1.5])
@pytest.mark.parametrize("theta", [0.0, 0.3])
def test_sum1d_fractional_contains_poisson_dual(p, a, theta):
    lo, hi = verify._sum1d_fractional(p, a, theta)
    exact = _poisson_dual_1d(p, a, theta)
    with mpmath.workdps(30):
        assert lo <= exact <= hi
    # the exact points leave the tail past r = 96 as the whole floor
    K = math.ceil(96 / a) + 1
    tail = 4 * abs(transform_tail_coefficient(p)) * a ** (-p - 1) * K ** -p / p
    assert tail <= (hi - lo) / 2 <= 1.01 * tail


def _kernel_series(a, theta, J=16, N=150):
    """sum_k 2/(1 + 4 pi^2 a^2 k^2) cos(2 pi theta k) to 30 digits, by
    Kummer's acceleration rather than the geometric closed form: with y =
    4 pi^2 a^2 k^2, 1/(1+y) = sum_{j=1}^J (-1)^{j-1} y^{-j} + (-1)^J
    y^{-J}/(1+y); the first J cos-sums are Bernoulli polynomials,
    sum_{k>=1} cos(2 pi k x)/k^{2j} = (-1)^{j+1} (2 pi)^{2j} B_{2j}(x) /
    (2 (2j)!) for x = theta mod 1, and the rest, whose terms fall like
    k^{-2J-2}, is summed to N.  Returns (value, bound on the omitted
    tail)."""
    with mpmath.workdps(75):
        a, x = mpmath.mpf(a), mpmath.mpf(theta) - mpmath.floor(theta)
        c = (2 * mpmath.pi * a) ** 2
        head = mpmath.fsum(mpmath.bernpoly(2 * j, x)
                           / (mpmath.factorial(2 * j) * a ** (2 * j))
                           for j in range(1, J + 1))
        rest = mpmath.fsum(2 * mpmath.cos(2 * mpmath.pi * x * k)
                           / (c ** J * k ** (2 * J) * (1 + c * k * k))
                           for k in range(1, N + 1))
        tail = 4 / (c ** (J + 1) * (2 * J + 1) * N ** (2 * J + 1))
        return 2 + 2 * (head + (-1) ** J * rest), tail


@given(a=st.floats(0.02, 50.0), theta=st.floats(-2.0, 2.0))
@example(a=0.02, theta=0.5)
@example(a=1.0, theta=0.0)
@example(a=0.3, theta=-2.0)
@example(a=50.0, theta=1.0)
@example(a=0.7, theta=0.5)
def test_sum1d_rational_contains_series(a, theta):
    lo, hi = verify._sum1d_rational(a, theta)
    exact, tail = _kernel_series(a, theta)
    with mpmath.workdps(40):
        assert tail <= 1e-30 * exact
        assert lo <= exact <= hi
        # the bound is a few hundred ulp at most, not a free pass
        assert (hi - lo) / 2 <= 1e-13 * lo


# No room at either end: an interval charges the rounding of its float
# terms (exp, cos, the embedding), so the exact value lies inside it.  A
# sum that charged none sat up to 17 ulp (3.7e-15 relative) above the
# exact value at its lower end, and 3.6 ulp below it at its upper end.
def _contains(interval, exact):
    lo, hi = interval
    with mpmath.workdps(30):
        return mpmath.mpf(lo) <= exact <= mpmath.mpf(hi)


def _oracle_1d(family, p, d, x):
    """sum over the dual of dZ of fhat(mu + x): jtheta for the gaussian,
    the Poisson kernel for exp_l1, nsum of the primal series
    d sum_k f(d k) cos(2 pi d k x) for a supergaussian."""
    d, x = mpmath.mpf(d), mpmath.mpf(x)
    if family == "gaussian":
        return d * mpmath.jtheta(3, mpmath.pi * d * x,
                                 mpmath.exp(-mpmath.pi * d * d))
    if family == "exp_l1":
        r = mpmath.exp(-d)
        return d * (1 - r * r) / (1 - 2 * r * mpmath.cos(2 * mpmath.pi * d * x)
                                  + r * r)
    return d * mpmath.nsum(lambda k: mpmath.exp(-abs(d * k) ** p)
                           * mpmath.cos(2 * mpmath.pi * d * k * x),
                           [-mpmath.inf, mpmath.inf])


def _oracle(family, p, diag, v):
    """The dual sum over diag(diag) at shift v, a product of 1-D series,
    to 30 digits."""
    with mpmath.workdps(30):
        return mpmath.fprod(_oracle_1d(family, p, d, x)
                            for d, x in zip(diag, v))


@given(fam=st.sampled_from([("gaussian", None), ("exp_l1", None),
                            ("supergaussian", 1.5), ("supergaussian", 2.0)]),
       diag=st.lists(st.sampled_from([0.75, 1.0, 1.25, 2.0, 3.0]),
                     min_size=1, max_size=3),
       tol=st.sampled_from([1e-6, 1e-9]), data=st.data())
def test_dual_sum_contains_mpmath_oracle(fam, diag, tol, data):
    family, p = fam
    n = len(diag)
    v = np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=n,
                                    max_size=n)))
    ds = dual_fhat_sum(Lattice(np.diag(diag)), FnSpec(family, n, p=p), v, tol)
    exact = _oracle(family, p, diag, v)
    full = _oracle(family, p, diag, [0.0] * n)
    assert _contains(ds, exact)
    assert ds.hi - ds.lo <= 2 * tol * full


# far shifts: the float phase 2 pi x.v is off by about 1e-9 there, far more
# than the tail bound at tol 1e-12, so only the charge for the phase's
# rounding keeps the exact sum inside the interval
@pytest.mark.parametrize("p, diag, v", [
    (1.5, [2.0], [945434.10762125]),
    (2.0, [1.0, 3.0, 0.75], [-218786.12557405, 137656.29537824,
                             921057.52184111])])
def test_dual_sum_at_a_far_shift_contains_mpmath_oracle(p, diag, v):
    ds = dual_fhat_sum(Lattice(np.diag(diag)),
                       FnSpec("supergaussian", len(diag), p=p), np.array(v),
                       1e-12)
    assert _contains(ds, _oracle("supergaussian", p, diag, v))


_PRIMAL_1D = {
    "gaussian": lambda x: mpmath.exp(-mpmath.pi * x * x),
    "exp_l1": lambda x: mpmath.exp(-abs(x)),
    "sech_product": lambda x: mpmath.sech(mpmath.pi * x),
    "inv_cosh_product": lambda x: 1 / (1 + 2 * mpmath.cosh(
        2 * mpmath.pi * x / mpmath.sqrt(3))),
    "supergaussian": lambda x: mpmath.exp(-abs(x) ** mpmath.mpf(1.5)),
}
# t per family, so that a 5-D ball stays near 1e5 points: the l^1 and
# l^1.5 families enumerate a filtered l^2 ball and decay slowly
_PRIMAL_T = {"gaussian": [0.5, 1.0, 1.5], "supergaussian": [0.25, 0.5],
             "sech_product": [0.2, 0.3], "exp_l1": [0.1, 0.15],
             "inv_cosh_product": [0.2, 0.3]}
# lattices that LLL leaves unsplit (every row with 2 nonzero entries on D4
# and D5, three with 8 on E8), so a sum on them reaches past a box-shaped
# cell; E8 is summed for the gaussian only, at t <= 0.75 (up to 3e5 points)
_ROOT_LATTICES = {"D4": _d_n(4), "D5": _d_n(5), "E8": _e8()}
_E8_T = [0.5, 0.75]


def _primal_oracle(term, lattice, v, t):
    """The sum over the lattice of prod_i term((x_i + v_i)/t), to 30
    digits; lattice is "D4", "D5", "E8" or a list d, the lattice diag(d).
    Each is a product of 1-D series s_i(sign) = sum_k sign^k term((d_i k +
    v_i)/t), d_i = 1 for the named ones: prod_i s_i(1) on diag(d).  D_n
    holds the points of Z^n of even sum, so its sum is half of
    prod_i s_i(1) + prod_i s_i(-1), and E8's is D8's at v plus D8's at
    v + 1/2 (Conway and Sloane, Sphere Packings, Lattices and Groups,
    ch. 4)."""
    def product(diag, v, sign=1):
        return mpmath.fprod(
            mpmath.nsum(lambda k: sign ** k * term((d * k + x) / t),
                        [-mpmath.inf, mpmath.inf])
            for d, x in zip(diag, v))

    def even_sum(v):
        ones = [1] * len(v)
        return (product(ones, v) + product(ones, v, -1)) / 2
    with mpmath.workdps(30):
        v = [mpmath.mpf(x) for x in v]
        if lattice == "E8":
            return even_sum(v) + even_sum([x + mpmath.mpf(0.5) for x in v])
        if lattice in ("D4", "D5"):
            return even_sum(v)
        return product(map(mpmath.mpf, lattice), v)


def _holds_primal_oracle(cs, term, lattice, v, t):
    return _contains(cs.interval(), _primal_oracle(term, lattice, v, t))


@given(family=st.sampled_from(sorted(_PRIMAL_1D)),
       diag=st.lists(st.sampled_from([1.0, 1.25, 1.5, 2.0]),
                     min_size=1, max_size=5),
       tol=st.sampled_from([1e-6, 1e-9]), data=st.data())
def test_certified_sum_contains_mpmath_oracle(family, diag, tol, data):
    n = len(diag)
    t = data.draw(st.sampled_from(_PRIMAL_T[family]))
    v = data.draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n))
    p = 1.5 if family == "supergaussian" else None
    cs = certified_sum(Lattice(np.diag(diag)), FnSpec(family, n, p=p),
                       np.array(v), t, tol)
    assert _holds_primal_oracle(cs, _PRIMAL_1D[family], diag, v, t)


# every family on D4 and D5, the gaussian on E8: each pair is a parameter,
# since a drawn lattice left whole pairs undrawn
@pytest.mark.parametrize("lattice, family", [
    *((name, family) for name in ("D4", "D5") for family in sorted(_PRIMAL_1D)),
    ("E8", "gaussian")])
@settings(max_examples=8)
@given(tol=st.sampled_from([1e-6, 1e-9]), data=st.data())
def test_certified_sum_on_unsplit_lattices_contains_mpmath_oracle(
        lattice, family, tol, data):
    basis = _ROOT_LATTICES[lattice]
    n = len(basis)
    t = data.draw(st.sampled_from(_E8_T if lattice == "E8"
                                  else _PRIMAL_T[family]))
    v = data.draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n))
    p = 1.5 if family == "supergaussian" else None
    cs = certified_sum(Lattice(basis), FnSpec(family, n, p=p), np.array(v),
                       t, tol)
    assert _holds_primal_oracle(cs, _PRIMAL_1D[family], lattice, v, t)


def test_certified_sum_truncates_at_the_nearest_points_term():
    # D5's reduced rows are not orthogonal, and the Babai point nearest -v
    # is far from the nearest point: aimed at its term, this sum took 5,244
    # points to a remainder 1e-17 of the sum; aimed at the nearest point's
    # term, tol is met against the sum itself
    v = [0.625, 0.0, 0.75, 0.5, 1.0]
    cs = certified_sum(Lattice(_d_n(5)), FnSpec("inv_cosh_product", 5),
                       np.array(v), 0.2, 1e-9)
    assert cs.npoints <= 3000
    assert _holds_primal_oracle(cs, _PRIMAL_1D["inv_cosh_product"], "D5", v,
                                0.2)


# ---------------------------------------------------------------------------
# split lattices: products of certified 1-D sums

# every family, the supergaussian at three p
_FAMILIES = [("gaussian", None), ("supergaussian", 0.7),
             ("supergaussian", 1.5), ("supergaussian", 2.0),
             ("sech_product", None), ("inv_cosh_product", None),
             ("exp_l1", None)]


def _term(family, p):
    """The 1-D factor g(x) of f(x) = prod_j g(x_j), in mpmath."""
    if family != "supergaussian":
        return _PRIMAL_1D[family]
    return lambda x: mpmath.exp(-abs(x) ** mpmath.mpf(p))


@functools.lru_cache(maxsize=None)
def _series(family, p, d, x, t):
    """_primal_oracle on the 1-D lattice dZ, shared by the products below."""
    return _primal_oracle(_term(family, p), [d], [x], t)


def _product_oracle(family, p, diag, v, t):
    """_primal_oracle over diag(diag), as the product of its 1-D series."""
    with mpmath.workdps(30):
        return mpmath.fprod(_series(family, p, float(d), float(x), t)
                            for d, x in zip(diag, v))


_SHIFT = np.random.default_rng(38).uniform(-0.5, 0.5, 5)
# the largest n of Z^n each family's n-D search sums at t = 1.5, tol 1e-6
# in a few 1e5 points
_SPLIT_MAX_N = {"gaussian": 5, 2.0: 5, "sech_product": 4,
                "inv_cosh_product": 4, 1.5: 4, "exp_l1": 3, 0.7: 2}


def _split_cases():
    """(family, p, lattice, diag), the lattice diag(diag) as a point set."""
    for family, p in _FAMILIES:
        top = _SPLIT_MAX_N[p or family]
        lattices = [(f"Z{n}", integer_lattice(n), [1.0] * n)
                    for n in range(2, top + 1)]
        lattices += [(f"uni{min(top, 3)}",
                      random_unimodular_lattice(min(top, 3), 9),
                      [1.0] * min(top, 3)),
                     ("diag(1,1.25)", Lattice(np.diag([1.0, 1.25])),
                      [1.0, 1.25]),
                     ("4Z3", Lattice(np.diag([4.0] * 3)), [4.0] * 3)]
        for name, L, diag in lattices:
            yield pytest.param(family, p, L, diag,
                               id=f"{family}{p or ''}-{name}")


@pytest.mark.parametrize("family, p, L, diag", _split_cases())
def test_product_route_agrees_with_the_search(family, p, L, diag):
    # at v = 0 and a random shift, t in {0.5, 1, 1.5}: a split lattice is
    # summed as a product, whose interval overlaps the n-D search's and
    # holds the 30-digit product of 1-D series with no room
    n = L.dim
    spec = FnSpec(family, n, p=p)
    assert L._axes is not None
    for t in (0.5, 1.0, 1.5):
        for v in (np.zeros(n), _SHIFT[:n]):
            cs = certified_sum(L, spec, v, t, 1e-6)
            lo, hi = cs.interval()
            elo, ehi = _searched(L, spec, v, t, 1e-6).interval()
            assert lo <= ehi and elo <= hi
            assert _contains((lo, hi), _product_oracle(family, p, diag, v, t))
            assert cs.remainder_bound <= 1e-6 * cs.partial


@pytest.mark.parametrize("name", sorted(_ROOT_LATTICES))
def test_lattices_that_are_not_split_are_searched(name):
    # D4 and D5 have index 2 in the sum of their axis lattices, Z^n, and E8
    # index 2^8 in (Z/2)^8: certified_sum is the kernel's n-D search, bit
    # for bit (test_certified_sum_on_unsplit_lattices_contains_mpmath_oracle
    # holds each family's interval against the coset oracle)
    L = Lattice(_ROOT_LATTICES[name])
    assert L._axes is None
    n = L.dim
    cases = [("gaussian", 0.5)] + ([("inv_cosh_product", 0.2)] if n < 8
                                   else [])
    for v in (np.zeros(n), np.full(n, 0.3)):
        for family, t in cases:
            spec = FnSpec(family, n)
            assert certified_sum(L, spec, v, t, 1e-6) == _searched(
                L, spec, v, t, 1e-6)


@pytest.mark.parametrize("family, p", _FAMILIES)
@pytest.mark.parametrize("L", [integer_lattice(8),
                               random_unimodular_lattice(8, 38)],
                         ids=["Z8", "sheared_Z8"])
def test_z8_certifies_every_family_at_tol_1e_9(L, family, p):
    # the scale target: at v = 0.3 (1, ..., 1), tol 1e-9, a product of
    # eight equal 1-D sums, one summed, in fewer than 1,000 terms; the n-D
    # search needs 1e6 (gaussian) to 1e16 (p = 0.7) points here
    cs = certified_sum(L, FnSpec(family, 8, p=p), np.full(8, 0.3), 1.0, 1e-9)
    assert cs.npoints < 1_000
    assert cs.remainder_bound <= 1e-9 * cs.partial
    assert _contains(cs.interval(),
                     _product_oracle(family, p, [1.0] * 8, [0.3] * 8, 1.0))


@pytest.mark.parametrize("family", ["exp_l1", "sech_product"])
def test_product_meets_a_tolerance_past_one(family):
    # (1 + tol/2n)^n - 1 <= tol fails past tol ~ 2.5, so each factor keeps
    # min(tol, 1)/(2n): at tol/(2n) the factors' tails came to 2,500 (exp_l1)
    # and 1,800 (sech_product) times this sum
    cs = certified_sum(integer_lattice(8), FnSpec(family, 8), np.full(8, 0.3),
                       1.0, 50.0)
    assert cs.remainder_bound <= 50.0 * cs.partial


@pytest.mark.parametrize("seed", range(4))
def test_product_record_holds_the_exact_product_of_its_factors(seed):
    # each factor is the 1-D certified_sum on its axis lattice at
    # target_tol / (2n); the record's interval() holds the exact rational
    # product of the factors' intervals, and [partial, partial +
    # remainder_bound] holds its upper end without the rounding
    rng = np.random.default_rng(seed)
    n = 3 + seed % 3
    L = Lattice(np.diag(rng.choice([1.0, 1.25, 2.0], n)))
    family, p = _FAMILIES[seed]
    v, t = rng.uniform(-0.5, 0.5, n), [0.5, 1.0, 1.5][seed % 3]
    cs = certified_sum(L, FnSpec(family, n, p=p), v, t, 1e-9)
    ends = [certified_sum(axis, FnSpec(family, 1, p=p), [x], t,
                          1e-9 / (2 * n)).interval()
            for axis, x in zip(L._axes, v)]
    lo = math.prod(Fraction(e.lo) for e in ends)
    hi = math.prod(Fraction(e.hi) for e in ends)
    assert Fraction(cs.interval().lo) <= Fraction(cs.partial) - Fraction(
        cs.rounding) <= lo
    assert hi <= Fraction(cs.partial) + Fraction(cs.remainder_bound)
    assert Fraction(cs.interval().hi) >= hi


def test_product_route_refuses_what_the_search_refuses():
    # each input refused with the same error type and message on a split
    # lattice (the product) and on one that is not (the search)
    z, gauss = np.zeros(2), FnSpec("gaussian", 2)

    def refusals(L):
        def refusal(spec, v, t, tol):
            with pytest.raises((ValueError, ToleranceUnreachedError)) as err:
                certified_sum(L, spec, v, t, tol)
            return type(err.value), str(err.value)
        return [refusal(gauss, z, 0.0, 1e-9), refusal(gauss, z, math.nan, 1e-9),
                refusal(gauss, z, 1.0, math.nan), refusal(gauss, z, 1.0, -1e-9),
                refusal(FnSpec("gaussian", 3), z, 1.0, 1e-9),
                refusal(gauss, np.zeros(3), 1.0, 1e-9),
                refusal(gauss, z, 1e-300, 1e-9), refusal(gauss, z, 1e300, 1e-9),
                # every term near the shift underflows
                refusal(gauss, [0.5, 0.5], 1e-10, 1e-9)]
    assert refusals(integer_lattice(2)) == refusals(CHECKER)
    # split, with spacings 1e13 apart: refused as the search refuses the
    # same lattice under a basis that is not split
    with pytest.raises(IllConditionedBasisError):
        certified_sum(Lattice(np.diag([1.0, 1e-13])), gauss, z, 1.0, 1e-9)
    with pytest.raises(IllConditionedBasisError):
        verify._sums(Lattice(np.diag([1.0, 1e-13])), gauss, z, 1.0, 1e-9,
                     enumeration.DEFAULT_NODE_BUDGET,
                     lambda emb, vals, _: (vals,))


def test_split_lattice_reduces_only_its_axes(monkeypatch):
    # a product sums on the axis lattices d_j Z, one per spacing, and each
    # 1-D axis lattice is its own reduction: the LLL loop runs on nothing,
    # and L itself is never searched
    reduced = []

    def spy(L, _run=lattice._lll):
        reduced.append(L)
        return _run(L)
    monkeypatch.setattr(lattice, "_lll", spy)
    L = Lattice(np.diag([1.0, 1.25, 1.0]))
    spec = FnSpec("sech_product", 3)
    for v in (np.zeros(3), np.array([0.1, 0.2, 0.3])):
        certified_sum(L, spec, v, 1.0, 1e-9)
    assert reduced == []
    assert L._axes[0] is L._axes[2] and L._axes[0] is not L._axes[1]
    assert all(lll_reduce(axis) is axis for axis in L._axes)


# a rotation of Z^3, written behind a skewed integer basis U as B = fl(U Q):
# the embedding fl(c B) then strays from c B by far more than an ulp of the
# terms (the partial sum by up to 8.5e-12 relative on U of seed 616), which
# only the drift part of the rounding charge covers
_ROTATION = [[-0.7068851272533239, 0.5180520519426255, -0.48159681097998086],
             [0.03732547399119605, -0.6525984373227343, -0.7567840435654398],
             [-0.7063428529116613, -0.5529352141815171, 0.4419755910213312]]


def _rotated_oracle(U, B, v, t):
    """The gaussian sum over the lattice of B at v, t, to 30 digits, over
    the exact basis U^-1 B (integers times floats, exact at 200 bits) and
    the points of a box whose terms exceed e^-160."""
    Uinv = np.round(np.linalg.inv(U)).astype(np.int64)
    assert (Uinv @ U.astype(np.int64) == np.eye(3, dtype=np.int64)).all()
    with mpmath.workprec(200):
        R = [[mpmath.fsum(int(Uinv[i, k]) * mpmath.mpf(B[k, j])
                          for k in range(3)) for j in range(3)]
             for i in range(3)]
        # U^-1 B is orthonormal up to rounding: ||k|| <= t sqrt(51) + ||v||
        K = math.ceil(t * math.sqrt(51) + math.hypot(*v)) + 1
        ks = np.array(list(itertools.product(range(-K, K + 1), repeat=3)))
        y = (ks @ np.array(R, dtype=float) + v) / t
        terms = []
        for k in ks[(y * y).sum(axis=1) <= 51].tolist():
            p = [(mpmath.fsum(k[i] * R[i][j] for i in range(3)) + v[j]) / t
                 for j in range(3)]
            terms.append(mpmath.exp(-mpmath.pi
                                    * mpmath.fsum(x * x for x in p)))
        return mpmath.fsum(terms)


@pytest.mark.parametrize("seed", [616, 353])
def test_sum_on_a_skewed_float_basis_contains_its_exact_value(seed):
    U = random_unimodular_lattice(3, seed).basis
    B = U @ np.array(_ROTATION)
    v = [0.25, -0.5, 0.125]
    cs = certified_sum(Lattice(B), FnSpec("gaussian", 3), np.array(v), 0.5,
                       1e-12)
    assert _contains(cs.interval(), _rotated_oracle(U, B, v, 0.5))
    assert cs.rounding <= 1e-9 * cs.partial


@pytest.mark.parametrize("lat", [integer_lattice(2),
                                 Lattice(np.diag([0.5, 2.0])),
                                 random_unimodular_lattice(3, 4), D4])
def test_dual_sum_ends_round_outward(lat, monkeypatch):
    # the ends of each of the kernel's two sums, each an Interval, hold
    # covol (partial -+ rem) computed exactly, from that sum's column of the
    # ball and the one tail bound the kernel took
    seen = {}
    for name in ("_ball_sums", "_truncated"):
        def spy(*args, _run=getattr(verify, name), _name=name):
            seen[_name] = _run(*args)
            return seen[_name]
        monkeypatch.setattr(verify, name, spy)
    for t in (1.0, 0.75):
        sums = verify._dual_sums(lat, FnSpec("gaussian", lat.dim),
                                 np.full(lat.dim, 0.15), t, 1e-9,
                                 enumeration.DEFAULT_NODE_BUDGET)
        (_, _, shifted, _, unshifted), _ = seen["_ball_sums"]
        _, rem = seen["_truncated"]
        c, rem = Fraction(lat.covolume), Fraction(rem)
        for ds, partial in zip(sums, map(Fraction, (shifted, unshifted))):
            assert isinstance(ds, verify.Interval)
            lo, hi = ds
            assert Fraction(lo) <= c * (partial - rem)
            assert Fraction(hi) >= c * (partial + rem)


@pytest.mark.parametrize("seed", [0, 1])
def test_dual_terms_do_not_depend_on_the_block(seed, monkeypatch):
    # a row's phase is its own sum, not a BLAS matrix-vector product whose
    # rounding at n = 8 depends on where the row sits in its block, and so
    # is its dilated term; the per-point columns are compared, not the two
    # charges, which hold one entry per block
    L = random_unimodular_lattice(8, seed)
    seen = []

    def spy(*args):  # keep the term map, skip the sum
        seen.append(args[-1])
        return [0.0] * 5, 0
    monkeypatch.setattr(verify, "_ball_sums", spy)
    v = np.random.default_rng(seed).uniform(-0.5, 0.5, 8)
    for t in (1.0, 1 / 1.5):
        verify._dual_sums(L, FnSpec("gaussian", 8), v, t, 1e-3,
                          enumeration.DEFAULT_NODE_BUDGET)
    coords, emb = enumerate_arrays(L, np.zeros(8), 2.5)
    rng = np.random.default_rng(seed)
    for terms in seen:
        points = lambda *block: [a for a in terms(*block) if np.ndim(a)]
        whole = [a.tobytes() for a in points(coords, emb)]
        assert len(whole) == 3
        for _ in range(10):
            cuts = np.sort(rng.choice(np.arange(1, len(emb)), 40,
                                      replace=False))
            parts = zip(*map(points, np.split(coords, cuts),
                             np.split(emb, cuts)))
            assert [np.concatenate(col).tobytes() for col in parts] == whole


def test_part3_sums_its_dual_ball_once(monkeypatch):
    # the shifted and the unshifted side share one truncation, one tail
    # bound and one point set, so one pass over the ball yields both
    calls = []

    def spy(*args, _run=verify._ball_sums):
        calls.append(args)
        return _run(*args)
    monkeypatch.setattr(verify, "_ball_sums", spy)
    L, spec = integer_lattice(2), FnSpec("gaussian", 2)
    K = BodySpec(p=2.0, radius=0.99)
    rec = check_part3(L, spec, K, np.array([0.2, 0.1]), nu_for_body(spec, K, 2))
    assert rec["verdict"] == PASS
    assert len(calls) == 1


def test_psf_reduces_only_the_lattice_and_its_dual(monkeypatch):
    # the dual side dilates g on the cached L*, so however many psf checks
    # run on one lattice, the LLL loop runs once for L and once for L*
    reduced = []

    def spy(L, _run=lattice._lll):
        reduced.append(L)
        return _run(L)
    monkeypatch.setattr(lattice, "_lll", spy)
    L = Lattice(_d_n(3), name="D3")  # not split: its sums search L
    v = np.array([0.2, -0.1, 0.35])
    for spec, t in ((FnSpec("gaussian", 3), 1.0), (FnSpec("gaussian", 3), 1.5),
                    (FnSpec("supergaussian", 3, p=2.0), 0.8),
                    (FnSpec("inv_cosh_product", 3), 1.25)):
        assert psf_residual(L, spec, v, t, 1e-9) <= 1e-8
    assert len(reduced) == 2
    assert reduced[0] is L and reduced[1] is dual(L)


def test_census_and_transference_pass_their_node_budget(monkeypatch):
    # a manifest's budgets.nodes bounds the shortest-vector search too
    budgets = []

    def spy(L, p=2, node_budget=enumeration.DEFAULT_NODE_BUDGET,
            _run=verify.shortest_vector):
        budgets.append(node_budget)
        return _run(L, p, node_budget)
    monkeypatch.setattr(verify, "shortest_vector", spy)
    handshake_census(D4, 2.0, 1.0, node_budget=12345)
    transference_check(integer_lattice(2), 2.0, resolution=4,
                       node_budget=12345)
    assert budgets == [12345, 12345]


# the residual's upper end is about the left side's width plus the right
# side's half-width, each at most tol of the sum: 2 tol where Poisson
# summation holds
@pytest.mark.parametrize("fam,lat,t,v,cap", [
    ("gaussian", integer_lattice(2), 1.5, [0.2, 0.3], 2e-9),
    ("sech_product", integer_lattice(1), 1.0, [0.0], 1e-8),
    ("inv_cosh_product",
     Lattice(np.array([[1.0, 1.0], [0.0, 1.0]])), 1.0, [0.1, -0.3], 1e-8),
    # p=2: the gaussian on sqrt(pi) t L*, here a non-diagonal dual
    ("supergaussian", random_unimodular_lattice(2, 2), 1.5, [0.3, -0.2],
     2e-9),
])
def test_psf_residual_fast_families(fam, lat, t, v, cap):
    spec = FnSpec(fam, lat.dim, p=2.0 if fam == "supergaussian" else None)
    res = psf_residual(lat, spec, np.array(v), t, 1e-9)
    assert res <= cap


def test_psf_residual_exp_l1():
    res = psf_residual(integer_lattice(1), FnSpec("exp_l1", 1),
                       np.zeros(1), 1.0, 1e-6)
    assert res <= 1e-6


def test_psf_residual_supergaussian_exact_and_table():
    res = psf_residual(integer_lattice(2), FnSpec("supergaussian", 2, p=2.0),
                       np.array([0.3, 0.0]), 1.5, 1e-9)
    assert res <= 2e-9  # 2 tol, as in test_psf_residual_fast_families
    res = psf_residual(integer_lattice(1), FnSpec("supergaussian", 1, p=1.5),
                       np.zeros(1), 1.0, 1e-3)
    assert res <= 1e-3


def test_psf_refuses_tol_of_one_or_more():
    # at tol >= 1 the dual side's error may exceed the sum itself; just
    # below 1 psf still runs, and the right side's lower end stays positive,
    # so the residual's upper end is finite (it spans both sides' widths,
    # about 2 tol here)
    for tol in (1.0, 2.0, math.inf):
        with pytest.raises(ValueError, match="tol"):
            psf_residual(integer_lattice(2), FnSpec("gaussian", 2),
                         np.zeros(2), 1.0, tol)
    assert 0 < psf_residual(integer_lattice(2), FnSpec("gaussian", 2),
                            np.zeros(2), 1.0, 0.999) < math.inf


def test_psf_verdict_rests_on_the_residual_interval():
    # an exact identity at max_residual 1e-30: the residual's lower end is
    # 0, its upper end the two sides' widths, so the verdict is open, not
    # a FAIL of float noise
    rec = check_psf(integer_lattice(1), FnSpec("exp_l1", 1), np.zeros(1),
                    1.0, 1e-6, 1e-30)
    assert rec["verdict"] == INCONCLUSIVE
    assert 0 < rec["residual"] <= 1e-6


def test_psf_fails_a_right_side_off_by_one_part_in_a_million(monkeypatch):
    # the whole residual interval lies near 1e-6, above max_residual
    dual_sums = verify._dual_sums

    def scaled(*args):
        shifted, unshifted = dual_sums(*args)
        return shifted * (1 + 1e-6), unshifted
    monkeypatch.setattr(verify, "_dual_sums", scaled)
    rec = check_psf(integer_lattice(2), FnSpec("gaussian", 2),
                    np.array([0.2, 0.3]), 1.5, 1e-9, 1e-8)
    assert rec["verdict"] == FAIL
    assert 0.9e-6 < rec["residual"] < 1.1e-6


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
    # NaN passes a test of t < 1; it gets part 1's own message, not the
    # kernel's "t must be positive"
    for t in (0.8, math.nan):
        with pytest.raises(ValueError, match="^t must be >= 1"):
            check_part1(integer_lattice(1), FnSpec("gaussian", 1),
                        np.zeros(1), t)


def test_nu_for_body_dispatch():
    g = FnSpec("gaussian", 2)
    nb = nu_for_body(g, BodySpec(p=2.0, radius=1.0), 2)
    assert nb.method == "closed_form"
    nb = nu_for_body(g, BodySpec(p=2.0, radius=0.3), 2)  # tau < 1/2
    assert nb == NuBound(1.0, "closed_form")
    with pytest.raises(ValueError):
        nu_for_body(g, BodySpec(p=1.0, radius=1.0), 2)  # wrong ball shape
    ic = FnSpec("inv_cosh_product", 2)
    nb = nu_for_body(ic, BodySpec(p=1.0, radius=1.4248), 2)
    assert nb.method == "shrink_ratio"
    with pytest.raises(ValueError):
        nu_for_body(FnSpec("sech_product", 2), BodySpec(p=1.0, radius=1.0), 2)


@settings(max_examples=150, deadline=None)
@given(family=st.sampled_from(["gaussian", "supergaussian", "exp_l1"]),
       p=st.floats(0.3, 2.0), n=st.integers(1, 8),
       scale=st.floats(0.05, 4.0).filter(lambda s: abs(s - 1) > 1e-9))
@example(family="gaussian", p=2.0, n=8, scale=0.05)
@example(family="supergaussian", p=0.3, n=8, scale=0.999)
def test_nu_for_body_meets_its_oracle(family, p, n, scale):
    # R = scale times the inflection scale: inside it nu is exactly 1, and
    # everywhere it is within 1e-9 of mu_norm, golden section over u on the
    # same radial profile (exp_l1's is the supergaussian's at p = 1)
    spec = FnSpec(family, n, p if family == "supergaussian" else None)
    env = envelope(spec)
    R = scale * (n / env.q) ** (1 / env.q) / env.beta ** (1 / env.q)
    nu = nu_for_body(spec, BodySpec(env.q, R), n)
    if scale < 1:
        assert nu == NuBound(1.0, "closed_form")
    profile = FnSpec("supergaussian", n, 1.0) if family == "exp_l1" else spec
    oracle = mu_norm(profile, R, n).value
    assert abs(nu.value - oracle) <= 1e-9 * oracle


@pytest.mark.parametrize("spec, body_p", [
    (FnSpec("gaussian", 2), 1.0), (FnSpec("supergaussian", 2, 1.5), 2.0),
    (FnSpec("exp_l1", 2), 2.0)], ids=["gaussian", "supergaussian", "exp_l1"])
def test_nu_for_body_refuses_a_body_in_the_wrong_norm(spec, body_p):
    with pytest.raises(ValueError, match="tail bodies must be"):
        nu_for_body(spec, BodySpec(body_p, 1.0), 2)


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


@pytest.mark.parametrize("v", [np.zeros(2), np.array([0.4, 0.1])],
                         ids=["unshifted", "shifted"])
def test_tail_inequality_sums_each_unshifted_ball_once(v, monkeypatch):
    # the full sum is certified_sum's unshifted one, kept while L lives: the
    # first check on L sums it (at v = 0 it is also the shifted sum), then
    # the shifted ball when v != 0, then its body; a second check on L,
    # spec and tol sums no unshifted ball: at v = 0 only its body.  L is
    # built here, so no other test's sums on it are kept
    spec = FnSpec("gaussian", 2)
    fresh = lambda: Lattice(CHECKER.basis)  # not split: every sum searches
    S = {w: certified_sum(fresh(), spec, w, 1.0, 1e-9)
         .truncation_radius for w in {(0.0, 0.0), tuple(v)}}
    shifted = [(tuple(v), S[tuple(v)])] if np.any(v) else []
    balls = []

    def spy(L, v, r, *args, _run=verify._ball_sums):
        balls[-1].append((tuple(v), r))
        return _run(L, v, r, *args)
    monkeypatch.setattr(verify, "_ball_sums", spy)
    L = fresh()
    for radius in (1.3, 1.6):
        balls.append([])
        K = BodySpec(p=2.0, radius=radius)
        rec = check_tail_inequality(L, spec, K, v, nu_for_body(spec, K, 2))
        assert rec["verdict"] == PASS
    assert balls == [[*shifted, ((0.0, 0.0), S[0.0, 0.0]), (tuple(v), 1.3)],
                     [*shifted, (tuple(v), 1.6)]]


def test_tail_inequality_refuses_a_body_in_the_wrong_norm(monkeypatch):
    # an l^1 body is not inside the gaussian's l^2 ball of the same radius,
    # so the pass could not cut it; refused before any pass
    monkeypatch.setattr(verify, "_ball_sums", None)
    L, spec = integer_lattice(2), FnSpec("gaussian", 2)
    with pytest.raises(ValueError, match="tail bodies must be l\\^2 balls"):
        check_tail_inequality(L, spec, BodySpec(1.0, 1.0), np.zeros(2),
                              NuBound(0.5, "closed_form"))


@pytest.mark.parametrize("L, radius", [
    (integer_lattice(2), 1.0), (random_unimodular_lattice(3, 5), math.sqrt(2)),
], ids=["Z2", "unimodular3"])
@pytest.mark.parametrize("dyadic", [False, True], ids=["v0", "dyadic_v"])
def test_tail_inequality_cuts_its_body_as_a_separate_pass(L, radius, dyadic,
                                                          monkeypatch):
    # the body's pass keeps the points on its boundary (the unit vectors of
    # Z^2 at R = 1, and the integer points of norm sqrt(2)), whose float
    # norms may sit an ulp past R.  Both lattices are Z^n as point sets, so
    # brute force over a box finds the body's points by their exact squared
    # norms, and the inner sum is their one exactly rounded fsum, taken
    # within u of itself plus the pass's own term rounding either way
    n = L.dim
    spec, K = FnSpec("gaussian", n), BodySpec(2.0, radius)
    v = np.array([0.5, -0.25, 0.125][:n]) if dyadic else np.zeros(n)
    y = np.array(list(itertools.product(range(-3, 4), repeat=n))) + v
    inner = math.fsum(np.exp(log_f(spec, y[(y * y).sum(axis=1)
                                           <= round(radius ** 2)])))
    seen = []

    def spy(*args, _run=verify._ball_sums):
        seen.append(_run(*args))
        return seen[-1]
    monkeypatch.setattr(verify, "_ball_sums", spy)
    rec = check_tail_inequality(L, spec, K, v, nu_for_body(spec, K, n))
    (charge, body), npoints = seen[-1]
    rounding = verify._term_rounding(charge, npoints)
    assert body == inner and 0 < rounding < 1e-13
    half = verify._up(rounding + verify._U * inner)
    lhs_iv = (certified_sum(L, spec, v, 1.0, 1e-9).interval()
              - (inner + Interval(-half, half)))
    assert rec["lhs_interval"] == list(lhs_iv)


@pytest.mark.parametrize("v", [(0.0, 0.0), (0.4, 0.1)], ids=["v0", "shifted"])
def test_tail_body_wider_than_the_truncation_ball(v):
    # R = 5 lies past S ~ 3.32, so the shifted sum covers the S-ball, not
    # the R-ball, and the inner sum holds mass the partial does not: the
    # interval still holds the out-of-K mass (brute force at 30 digits),
    # and its upper end is no higher than that of a shifted sum over the
    # R-ball with the same tail bound and rounding charge
    L, spec, K = integer_lattice(2), FnSpec("gaussian", 2), BodySpec(2.0, 5.0)
    v = np.array(v)
    rec = check_tail_inequality(L, spec, K, v, nu_for_body(spec, K, 2))
    shifted = certified_sum(L, spec, v, 1.0, 1e-9)
    assert shifted.truncation_radius < K.radius
    with mpmath.workdps(30):
        ks = itertools.product(range(-30, 31), repeat=2)
        sq = [sum((k + mpmath.mpf(x)) ** 2 for k, x in zip(kk, v)) for kk in ks]
        out = mpmath.fsum(mpmath.exp(-mpmath.pi * r) for r in sq if r > 25)
    lo, hi = rec["lhs_interval"]
    assert lo <= out <= hi
    terms = lambda _, emb: (np.exp(log_f(spec, emb + v)),)
    cut = K.radius * (1 + enumeration._BOUNDARY_SLACK)
    (wide,), count = verify._ball_sums(L, v, cut, K.p,
                                       enumeration.DEFAULT_NODE_BUDGET, terms)
    (inner,) = verify._body_sums(L, spec, v, K.radius, K.p,
                                 enumeration.DEFAULT_NODE_BUDGET,
                                 lambda emb, vals, _: (vals,))
    before = (CertifiedSum(wide, shifted.remainder_bound, K.radius, count,
                           shifted.rounding).interval() - inner)
    assert hi <= before.hi


@pytest.mark.parametrize("family, body_p", [("gaussian", 2.0),
                                             ("inv_cosh_product", 1.0)])
@pytest.mark.parametrize("v", [(0.0, 0.0), (0.3, -0.2)], ids=["v0", "shifted"])
def test_product_routed_tail_holds_its_out_of_body_mass(family, body_p, v):
    # the shifted sum is a product of 1-D sums, so no bit of it is a term of
    # the body's pass: the body is charged its own term rounding, and the
    # record's lhs holds the out-of-K mass, the 30-digit product of 1-D
    # series less the 30-digit body, with no room
    diag = [1.0, 1.25]
    L, spec = Lattice(np.diag(diag)), FnSpec(family, 2)
    K = BodySpec(body_p, 1.2)
    rec = check_tail_inequality(L, spec, K, v, nu_for_body(spec, K, 2))
    term = _PRIMAL_1D[family]
    with mpmath.workdps(30):
        body = mpmath.fsum(
            mpmath.fprod(term(d * k + mpmath.mpf(x))
                         for d, k, x in zip(diag, ks, v))
            for ks in itertools.product(range(-3, 4), repeat=2)
            if mpmath.fsum(abs(d * k + mpmath.mpf(x)) ** body_p
                           for d, k, x in zip(diag, ks, v)) <= 1.2 ** body_p)
        out = _product_oracle(family, None, diag, v, 1.0) - body
    assert _contains(rec["lhs_interval"], out)


def test_tail_mass_upper_holds_the_exact_sum_of_its_floats(monkeypatch):
    # each sweep row's upper end is at least the record's upper end plus the
    # mass inside the body less the mass inside the row's radius, those
    # three floats summed exactly
    L, spec, K = integer_lattice(2), FnSpec("gaussian", 2), BodySpec(2.0, 1.0)
    v = np.array([0.3, -0.2])
    nu = nu_for_body(spec, K, 2)
    rec = check_tail_inequality(L, spec, K, v, nu)
    seen = []

    def spy(*args, _run=verify._ball_sums):
        seen.append(_run(*args))
        return seen[-1]
    monkeypatch.setattr(verify, "_ball_sums", spy)
    rows = verify.tail_masses(L, spec, K, v, nu, rec,
                              np.linspace(0.25, 1.75, 24))
    ((_, *inside, inner), _), = seen
    top = Fraction(rec["lhs_interval"][1]) + Fraction(inner)
    assert len(rows) == len(inside) == 24
    for (upper, _), mass in zip(rows, inside):
        assert Fraction(upper) >= top - Fraction(mass)


# ---------------------------------------------------------------------------
# the unshifted sums kept per lattice


def _fields(cs):
    """A CertifiedSum's fields, its floats as their exact bits."""
    return [x.hex() if isinstance(x, float) else x
            for x in dataclasses.astuple(cs)]


def test_unshifted_sum_is_kept_while_its_lattice_lives():
    # a hit is the sum itself, field for field the sum computed afresh on a
    # new Lattice with the same basis; the entry dies with its lattice
    L, spec = random_unimodular_lattice(3, 7), FnSpec("gaussian", 3)
    first = certified_sum(L, spec, np.zeros(3), 1.0, 1e-9)
    assert certified_sum(L, spec, [0.0, -0.0, 0.0], 1.0, 1e-9) is first
    fresh = certified_sum(Lattice(L.basis), spec, np.zeros(3), 1.0, 1e-9)
    assert fresh is not first and _fields(fresh) == _fields(first)
    lattice_ref, sum_ref = weakref.ref(L), weakref.ref(first)
    del L, first
    gc.collect()
    assert lattice_ref() is None and sum_ref() is None


def test_a_failed_unshifted_sum_keeps_nothing():
    L = integer_lattice(2)
    with pytest.raises(BudgetExceededError):
        certified_sum(L, FnSpec("gaussian", 2), np.zeros(2), 1.0, 1e-9,
                      node_budget=3)
    with pytest.raises(ToleranceUnreachedError):
        certified_sum(L, FnSpec("supergaussian", 2, p=1e-3), np.zeros(2),
                      1.0, 1e-9)
    assert L not in verify._UNSHIFTED


def test_unshifted_sums_differing_in_one_argument_miss(monkeypatch):
    # spec, t, tol and node budget each key the sum; repeating every call
    # sums nothing more, and a v of the wrong shape is refused, not a hit
    passes = []

    def spy(*args, _run=verify._ball_sums):
        passes.append(args)
        return _run(*args)
    monkeypatch.setattr(verify, "_ball_sums", spy)
    L, zero = integer_lattice(2), np.zeros(2)
    base = dict(spec=FnSpec("gaussian", 2), t=1.0, target_tol=1e-9,
                node_budget=enumeration.DEFAULT_NODE_BUDGET)
    calls = [base, {**base, "spec": FnSpec("supergaussian", 2, p=2.0)},
             {**base, "t": 1.5}, {**base, "target_tol": 1e-6},
             {**base, "node_budget": 10 ** 6}]
    sums = [certified_sum(L, v=zero, **kw) for kw in calls]
    assert len(passes) == len(calls) == len(verify._UNSHIFTED[L])
    again = [certified_sum(L, v=zero, **kw) for kw in calls]
    assert all(a is b for a, b in zip(again, sums))
    assert len(passes) == len(calls)
    with pytest.raises(ValueError, match="v must have shape"):
        certified_sum(L, v=np.zeros(3), **base)


def test_exp_l1_is_kept_as_the_p1_supergaussian():
    # e^{-||x||_1} under two specs, with bit-identical terms: an unshifted
    # exp_l1 sum after a p = 1 supergaussian one is that sum, field for
    # field the exp_l1 sum computed afresh on a new Lattice
    L, zero = random_unimodular_lattice(2, 5), np.zeros(2)
    first = certified_sum(L, FnSpec("supergaussian", 2, p=1.0), zero, 1.3,
                          1e-9)
    assert certified_sum(L, FnSpec("exp_l1", 2), zero, 1.3, 1e-9) is first
    fresh = certified_sum(Lattice(L.basis), FnSpec("exp_l1", 2), zero, 1.3,
                          1e-9)
    assert fresh is not first and _fields(fresh) == _fields(first)


def test_a_shifted_sum_is_never_kept(monkeypatch):
    passes = []

    def spy(*args, _run=verify._ball_sums):
        passes.append(args)
        return _run(*args)
    monkeypatch.setattr(verify, "_ball_sums", spy)
    L, spec = Lattice(CHECKER.basis), FnSpec("gaussian", 2)
    first, again = (certified_sum(L, spec, [0.25, 0.0], 1.0, 1e-9)
                    for _ in range(2))
    assert len(passes) == 2 and _fields(first) == _fields(again)
    assert L not in verify._UNSHIFTED


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


def _bits(x):
    """x with every float, numpy float and array entry as its exact hex."""
    if isinstance(x, (float, np.floating)):
        return float(x).hex()
    if isinstance(x, np.ndarray):
        return _bits(x.tolist())
    if isinstance(x, dict):
        return {k: _bits(val) for k, val in x.items()}
    if isinstance(x, (list, tuple)):
        return [_bits(val) for val in x]
    if dataclasses.is_dataclass(x):
        return _bits(dataclasses.astuple(x))
    return x


def _memo_outputs(L, family, p):
    """Every output the memos of _log_tail and _CELLS feed, on L: the
    certified sum at v = 0 and a shift (the product route on a split L),
    the kernel's search of it, the dual sums, and a tail check with its
    sweep, but for p = 0.7 on a lattice that is not split, whose tail check
    searches a few 1e6 points."""
    n = L.dim
    spec, v = FnSpec(family, n, p=p), _SHIFT[:n]
    out = [[certified_sum(L, spec, x, 0.25, 1e-3) for x in (np.zeros(n), v)],
           _searched(L, spec, v, 0.25, 1e-3),
           verify._dual_sums(L, spec, v, 0.25, 1e-3,
                             enumeration.DEFAULT_NODE_BUDGET)]
    if p != 0.7 or L._axes is not None:
        K = BodySpec(envelope(spec).q, 2.0)
        # sech has no certified coefficient: any nu scales the right side
        nu = (NuBound(0.5, "closed_form") if family == "sech_product"
              else nu_for_body(spec, K, n))
        rec = check_tail_inequality(L, spec, K, v, nu, 1e-3)
        out += [rec, verify.tail_masses(L, spec, K, v, nu, rec,
                                        [0.5, 1.0, 1.5])]
    return _bits(out)


@pytest.mark.parametrize("basis", [np.eye(3),
                                   random_unimodular_lattice(3, 9).basis,
                                   D4.basis], ids=["Z3", "uni3", "D4"])
def test_warm_memos_change_no_bits(basis):
    # _log_tail's and the cell bounds' memos hand back what a cold call
    # computes: every output, for every family, is the same bits with both
    # cleared as when they are warm, one lattice serving every family, so
    # that an entry of one envelope would be seen by another.  The kept
    # unshifted sums are dropped, so that the warm pass sums again
    L, cold = Lattice(basis), {}
    for family, p in _FAMILIES:
        verify._log_tail.cache_clear()
        verify._CELLS.clear()
        cold[family, p] = _memo_outputs(L, family, p)
    assert verify._log_tail.cache_info().currsize > 0 and verify._CELLS
    verify._UNSHIFTED.pop(L, None)
    for axis in L._axes or ():
        verify._UNSHIFTED.pop(axis, None)
    for family, p in _FAMILIES:
        hits = verify._log_tail.cache_info().hits
        assert _memo_outputs(L, family, p) == cold[family, p], family
        assert verify._log_tail.cache_info().hits > hits


def test_cell_bounds_are_kept_while_their_lattice_lives():
    # one entry per reduced lattice and q, dropped with its lattice
    L = Lattice(D4.basis)
    certified_sum(L, FnSpec("gaussian", 4), np.zeros(4), 1.0, 1e-6)
    reduced = lll_reduce(L)
    assert list(verify._CELLS[reduced]) == [2.0]
    held, ref = len(verify._CELLS), weakref.ref(reduced)
    del L, reduced
    gc.collect()
    assert ref() is None and len(verify._CELLS) <= held - 1


@pytest.mark.parametrize("violations, verdict", [(0, PASS), (1, FAIL)])
def test_hypothesis_sampling_verdict_counts_violations(violations, verdict,
                                                       monkeypatch):
    # the violations against 0, by the one verdict rule
    stats = CheckStats(evaluated=10, violations=violations, worst_margin=-1.0)
    monkeypatch.setattr(verify, "check_hypotheses", lambda *a, **k:
                        HypothesisReport({"fhat_nonneg": stats}))
    rec = verify.check_hypothesis_sampling(FnSpec("gaussian", 2), 10, 0)
    assert (rec["violations"], rec["verdict"]) == (violations, verdict)


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


@given(n=st.integers(1, 3), seed=st.integers(0, 10 ** 6),
       p=st.sampled_from([1.0, 2.0]),
       resolution=st.sampled_from([1, 2, 5, 16, 32]))
@example(n=2, seed=158, p=1.0, resolution=32)
@example(n=2, seed=334, p=1.0, resolution=32)
@example(n=2, seed=454, p=1.0, resolution=32)
def test_transference_bracket_holds_exact_radius(n, seed, p, resolution):
    # the dual of a sheared Z^n is Z^n: rho_2 = sqrt(n)/2, rho_1 = n/2
    L = random_unimodular_lattice(n, seed)
    rep = transference_check(L, p, resolution=resolution)
    lo, hi = (Fraction(x) for x in rep.rho_bracket)
    if p == 2:
        assert lo * lo <= Fraction(n, 4) <= hi * hi
    else:
        assert lo <= Fraction(n, 2) <= hi
    d_cell = lp_norm(lll_reduce(dual(L)).basis, p).sum()
    assert hi - lo <= d_cell / resolution * (1 + 1e-9)


def test_transference_rejects_other_p():
    with pytest.raises(ValueError):
        transference_check(integer_lattice(2), 1.5)


@pytest.mark.parametrize("run", [
    lambda L, spec, v: psf_residual(L, spec, v, 1.0, 1e-6),
    lambda L, spec, v: dual_fhat_sum(L, spec, v, 1e-6),
], ids=["psf_residual", "dual_fhat_sum"])
def test_psf_raises_when_sin_pairing_does_not_cancel(monkeypatch, run):
    # a lopsided point set: the phase sum keeps a sin part
    monkeypatch.setattr(verify, "ball_blocks",
                        lambda L, *args, **kwargs: iter([(
                            np.array([[1, 0]], dtype=np.int64),
                            np.array([[1.0, 0.0]]))]))
    with pytest.raises(InvariantError, match="sin pairing"):
        run(CHECKER, FnSpec("gaussian", 2), np.array([0.25, 0.0]))


def test_certified_sum_interval_type():
    cs = CertifiedSum(partial=1.0, remainder_bound=0.25,
                      truncation_radius=3.0, npoints=1, rounding=0.125)
    # 0.875 and 1.375 are exact, and each end is the float past it
    assert isinstance(cs.interval(), verify.Interval)
    assert cs.interval() == (math.nextafter(0.875, -math.inf),
                             math.nextafter(1.375, math.inf))
    assert INCONCLUSIVE == "INCONCLUSIVE"
