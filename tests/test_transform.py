import functools
import json
import math
import re
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from latbounds import transform
from latbounds.cli import plan_manifest
from latbounds.errors import ToleranceUnreachedError
from latbounds.transform import (build_transform_table, fourier_1d,
                                 transform_tail_coefficient)


@functools.lru_cache(maxsize=None)
def _reference(p, r, dps=30):
    """fhat_p(r) to dps digits: 2 Gamma(1 + 1/p) at r = 0, else mpmath.quad
    (tanh-sinh) of Zolotarev's integral on theta itself, split at its peak.

    Not used below r = 1e-3, where the peak, at theta ~ 2 pi r, is narrow
    against its distance from 0: at p = 0.999, r = 1e-6 this is 1.95e-9 off
    the power series, against 3.1e-13 for fourier_1d.  _series serves
    there."""
    with mpmath.workdps(dps):
        p, r = mpmath.mpf(p), mpmath.mpf(r)
        if r == 0:
            return 2 * mpmath.gamma(1 + 1 / p)
        c = p / (p - 1)
        scale = (2 * mpmath.pi * r) ** c

        def h(th):
            return (scale * (mpmath.cos(th) / mpmath.sin(p * th)) ** c
                    * mpmath.cos((p - 1) * th) / mpmath.cos(th))

        lo, hi = mpmath.mpf(0), mpmath.pi / 2
        for _ in range(100):  # h falls through 1 for p > 1, rises for p < 1
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if (h(mid) > 1) == (p > 1) else (lo, mid)
        integral = mpmath.quad(lambda th: (lambda v: v * mpmath.exp(-v))(h(th)),
                               [0, lo, mpmath.pi / 2])
        return p / (mpmath.pi * abs(p - 1) * r) * integral


_ORACLE_P = (0.3, 0.5, 0.9, 0.99, 1.01, 1.1, 1.5, 1.9, 1.99)


@settings(max_examples=3)
@given(st.lists(st.floats(-3.0, math.log10(192.0)), min_size=len(_ORACLE_P),
                max_size=len(_ORACLE_P)))
def test_fourier_within_its_error_of_mpmath(log_radii):
    # one radius per p and example, and r = 0 for each p
    for p, log_r in zip(_ORACLE_P, log_radii):
        for r in (0.0, 10.0 ** log_r):
            val, err = fourier_1d(p, r, tol=1e-10)
            assert err <= 1e-10
            assert abs(mpmath.mpf(val) - _reference(p, r)) <= err


@functools.lru_cache(maxsize=None)
def _coefficient(p, k, dps=80):
    """Gamma((2k+1)/p) / (2k)! at the float p, to dps digits."""
    with mpmath.workdps(dps):
        p = mpmath.mpf(p)
        return mpmath.gamma((2 * k + 1) / p) / mpmath.factorial(2 * k)


def _series(p, r):
    """The power series (2/p) sum_k (-1)^k c_k (2 pi r)^2k, c_k = Gamma((2k+1)/p)
    / (2k)!, of fhat_p(r), at 80 digits (the terms reach 1.2e4 at p = 1.99 and
    r = 1.05), and the size of the first term left out, which bounds the rest
    once the terms alternate and shrink.  At p > 1 the series converges and
    is summed until a shrinking term falls below 1e-45; at p <= 1 it is only
    asymptotic, and three terms are summed (at tiny radii its terms shrink)."""
    with mpmath.workdps(80):
        y = (2 * mpmath.pi * mpmath.mpf(r)) ** 2
        total, k = mpmath.mpf(0), 0
        while True:
            term = 2 / mpmath.mpf(p) * (-1) ** k * _coefficient(p, k) * y ** k
            after = abs(term * y * _coefficient(p, k + 1) / _coefficient(p, k))
            if k == 3 and p <= 1 or abs(term) < 1e-45 and after <= abs(term):
                return total, abs(term)
            total, k = total + term, k + 1


# near p = 1 the integral's rounding allowance refuses tol 1e-10 at these
# radii; the series answers them
_NEAR_ONE_RADII = {1 + 1e-4: (0.01, 0.05), 1 + 1e-5: (0.01, 0.05, 0.1)}


@pytest.mark.parametrize("p", [0.5, 0.9, 0.999, 1.001, 1.5, 1.99, *_NEAR_ONE_RADII])
def test_fourier_at_tiny_radii_within_its_error_of_the_series(p):
    # the peak of h e^-h sits at theta ~ 2 pi r, near the window's edge
    for r in _NEAR_ONE_RADII.get(p, (1e-6, 1e-5)):
        val, err = fourier_1d(p, r, tol=1e-10)
        want, rest = _series(p, r)
        assert abs(mpmath.mpf(val) - want) + rest <= err


def _series_edge(p, tol):
    """The largest radius the series answers at tol, to 1e-12 relative: its
    bound rises with r, so the radii it answers are an interval from 0."""
    lo, hi = 0.0, 4.0
    while hi - lo > 1e-12 * hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if transform._series(p, np.array([mid]))[1][0] <= tol / 8 else (lo, mid)
    return lo


@pytest.mark.parametrize("p", [1.0001, 1.01, 1.2, 1.5, 1.9, 1.99])
def test_series_holds_its_value_up_to_its_edge(monkeypatch, p):
    c, allow = transform._coefficients(p)
    for k, ck in enumerate(c):
        assert abs(mpmath.mpf(ck) - _coefficient(p, k)) <= allow[k] * _coefficient(p, k)
    tol = 1e-8
    edge = _series_edge(p, tol)
    past = edge * (1 + 1e-11)
    radii = np.r_[edge * np.linspace(0.0, 1.0, 9), past]
    integral, zolotarev = [], transform._zolotarev
    monkeypatch.setattr(transform, "_zolotarev",
                        lambda p, r: integral.extend(r) or zolotarev(p, r))
    val, err = fourier_1d(p, radii, tol=tol)
    assert integral == [past]
    for r, v, e in zip(radii[:-1], val, err):
        want, rest = _series(p, r)
        assert e <= tol / 8
        assert abs(mpmath.mpf(v) - want) + rest <= e
    # past y = c_N / c_N+1 the terms need not fall, so whatever the tol
    # that radius goes to the integral
    beyond = math.sqrt(2 * c[-2] / c[-1]) / (2 * math.pi)
    integral.clear()
    fourier_1d(p, beyond, tol=1e300)
    assert integral == [beyond]


# _reference(p, r) at r = 1e-3, 0.1, 1, 10 and 96, kept as printed to 25
# digits: near p = 1 tanh-sinh takes about 2 s a radius
_NEAR_ONE = {
    0.999: ("2.000767988389094445307493", "1.4333473617575894582374",
            "0.04945439367402301802689661", "0.0005083374710782178069218445",
            "0.000005529944302419138588185004"),
    1.001: ("1.999077440763218796278139", "1.43447773966580985526042",
            "0.04936363782939798366658837", "0.0005046235265430907762089308",
            "0.000005464263415424944776167281"),
}


@pytest.mark.parametrize("p", [0.999, 1.001, 1.999])
def test_fourier_near_the_ends_of_p_within_its_error(p):
    # near p = 1 the window is ~|p - 1| wide and the rounding of c log x
    # large; near p = 2 h has a shelf where sin(p theta) is small
    radii = (1e-3, 0.1, 1.0, 10.0, 96.0)
    want = _NEAR_ONE.get(p) or [_reference(p, r) for r in radii]
    val, err = fourier_1d(p, np.array(radii), tol=1e-10)
    for v, e, w in zip(val, err, want):
        assert abs(mpmath.mpf(v) - mpmath.mpf(w)) <= e


def test_halved_steps_stay_within_their_error(monkeypatch):
    # four times the grid step leaves the first-pass estimates far above
    # 1e-12 of the sum, so each radius halves its step at least twice
    steps = []
    grid = transform._grid
    monkeypatch.setattr(transform, "_STEP", 4 * transform._STEP)
    monkeypatch.setattr(transform, "_grid",
                        lambda p, k, step: steps.append(step) or grid(p, k, step))
    # the integral itself: fourier_1d would answer (1.5, 0.37) by the series
    for p, r in ((0.5, 2.0), (1.5, 0.37), (1.99, 1.0)):
        steps.clear()
        (val,), (err,) = transform._zolotarev(p, np.array([r]))
        first = transform._STEP / max(1, abs(p / (p - 1)), abs(1 / (p - 1)))
        assert min(steps) <= first / 4
        assert err <= 1e-10
        assert abs(mpmath.mpf(val) - _reference(p, r)) <= err


def _dense_window_sums(s, q, lo, hi, grid):
    """transform._window_sums as one pass over every row of the batch at
    once: the form the sliced pass must match bit for bit."""
    k, sh, left, right, jac, err = grid
    i0, i1 = np.searchsorted(left, q + lo), np.searchsorted(right, q + hi, "right")
    j = np.arange((i1 - i0).max(initial=0))
    idx = np.minimum(i0[:, None] + j, i1[:, None] - 1)
    log_h = s * (sh[idx] - q[:, None])
    h = np.exp(np.minimum(log_h, 700.0))
    g = np.exp(log_h - h + jac[idx]) * (i0[:, None] + j < i1[:, None])
    w = g * np.abs(1 - h)
    halves = g[:, ::2].sum(axis=1), g[:, 1::2].sum(axis=1)
    return (halves[0] + halves[1], w.sum(axis=1), (w * err[idx]).sum(axis=1),
            np.where(k[i0.clip(max=k.size - 1)] % 2, *halves[::-1])), i0, i1


def _assert_same_window_sums(args):
    """The windows' ends (i0, i1), after checking both passes bit for bit."""
    (got, g0, g1), (want, w0, w1) = (transform._window_sums(*args),
                                     _dense_window_sums(*args))
    assert np.array_equal(g0, w0) and np.array_equal(g1, w1)
    for a, b in zip(got, want):
        assert np.array_equal(a, b, equal_nan=True)
    return w0, w1


def _coarse_window_args(p, r):
    """_window_sums' arguments for radii r on one coarse grid, q not
    clipped to it, so a radius whose h = 1 lies off the grid has an empty
    window."""
    c, s = p / (p - 1), (1.0 if p < 1 else -1.0)
    q = -s * c * np.log(2 * math.pi * r)
    far, near = np.full_like(q, transform._LOW), np.full_like(q, transform._LOG_M)
    lo, hi = (-far, near) if s > 0 else (-near, far)
    return s, q, lo, hi, transform._grid(p, np.arange(-400, 401), 0.15)


@pytest.mark.parametrize("size", [1, 63, 64, 65, 512])
@pytest.mark.parametrize("p", [0.7, 1.2, 1.5, 1.9])
def test_sliced_window_sums_match_the_dense_pass(monkeypatch, p, size):
    # every call fourier_1d makes, halved steps included, and a coarse grid
    # on which some windows are empty
    calls, sliced = [], transform._window_sums
    monkeypatch.setattr(transform, "_window_sums",
                        lambda *args: calls.append(args) or sliced(*args))
    transform._zolotarev(p, np.geomspace(1e-3, 96.0, size))
    monkeypatch.undo()
    for args in calls:
        _assert_same_window_sums(args)
    i0, i1 = _assert_same_window_sums(
        _coarse_window_args(p, np.geomspace(1e-40, 1e40, size)))
    assert size == 1 or (i1 <= i0).any()


def test_sliced_window_sums_match_at_an_infinite_error_term():
    # at a tiny p sin(p theta) underflows, so E, the rounding term, is inf
    args = _coarse_window_args(1e-300, np.geomspace(1e-3, 96.0, 130))
    assert np.isinf(args[4][5]).any()
    with np.errstate(invalid="ignore"):  # 0 * inf in both passes
        _assert_same_window_sums(args)


def test_sliced_table_matches_the_dense_pass(monkeypatch, table15):
    monkeypatch.setattr(transform, "_window_sums", _dense_window_sums)
    dense = build_transform_table(1.5, r_max=96.0, tol=1e-8)
    assert np.array_equal(dense.nodes, table15.nodes)
    assert np.array_equal(dense.values, table15.values)


def test_window_sums_hold_a_slice_at_a_time():
    # the dense pass over 512 rows peaked at 8 MiB, the sliced one near 1
    tracemalloc.start()
    try:
        fourier_1d(1.5, np.linspace(1e-3, 96.0, 512), 1e-8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20


def test_table_sends_only_the_series_misses_to_the_integral(monkeypatch):
    # the series answers most of the p = 1.5 table's 14,581 nodes (before
    # it, every node went to _zolotarev); tol = inf, as psf's 1-D sums call
    # it, takes the integral at every radius, in the same 512-radius batches
    integral, zolotarev = [], transform._zolotarev
    monkeypatch.setattr(transform, "_zolotarev",
                        lambda p, r: integral.append(r.size) or zolotarev(p, r))
    t = build_transform_table(1.5, r_max=96.0, tol=1e-8)
    assert t.nodes.size == 14581
    assert sum(integral) <= 3500
    radii = np.linspace(0.0, 96.0, 1201)
    val, err = fourier_1d(1.5, radii, tol=math.inf)
    want = [transform._evaluate(1.5, radii[i:i + 512]) for i in range(0, radii.size, 512)]
    assert np.array_equal(val, np.concatenate([w[0] for w in want]))
    assert np.array_equal(err, np.concatenate([w[1] for w in want]))


def test_fourier_matches_exact_p1():
    # transform of exp(-|x|) is 2/(1 + 4 pi^2 r^2)
    for r in (0.0, 0.3, 1.0, 4.7):
        val, err = fourier_1d(1.0, r, tol=1e-11)
        want = 2.0 / (1.0 + 4 * math.pi ** 2 * r * r)
        assert err <= 1e-11
        assert abs(val - want) <= err + 1e-13


def test_fourier_matches_exact_p2():
    # transform of exp(-x^2) is sqrt(pi) e^{-pi^2 r^2}
    for r in (0.0, 0.5, 1.1):
        val, err = fourier_1d(2.0, r, tol=1e-11)
        want = math.sqrt(math.pi) * math.exp(-math.pi ** 2 * r * r)
        assert abs(val - want) <= err + 1e-13


def test_fourier_zero_frequency_is_mass():
    # fhat_p(0) = int exp(-|x|^p) dx = 2 Gamma(1 + 1/p)
    for p in (0.5, 1.5):
        val, err = fourier_1d(p, 0.0, tol=1e-10)
        want = 2 * math.gamma(1 + 1.0 / p)
        assert abs(val - want) <= err


def test_fourier_error_honest_spot():
    # 50-digit power series (2/p) sum_k (-1)^k Gamma((2k+1)/p) pi^2k / (2k)!
    val, err = fourier_1d(1.5, 0.5, tol=1e-10)
    assert abs(val - 0.17383583111371357) <= err + 1e-12
    assert err <= 1e-10


def test_tail_coefficient_signs():
    # leading asymptote coefficient of r^{-p-1}; vanishes at p=2
    assert transform_tail_coefficient(2.0) == 0.0
    for p in (0.5, 1.0, 1.5):
        assert transform_tail_coefficient(p) > 0
    # p=1: transform 2/(4 pi^2 r^2 + 1) ~ (1/(2 pi^2)) r^{-2}
    assert abs(transform_tail_coefficient(1.0) - 1.0 / (2 * math.pi ** 2)) < 1e-12


def test_table_build_and_eval(table15):
    t = table15
    assert t.p == 1.5
    assert t.r_max == 96.0
    assert t.values.min() >= 0.0
    # interpolation agrees with direct quadrature at off-node points
    for r in (0.37, 1.234, 3.3):
        direct, err = fourier_1d(1.5, r, tol=1e-10)
        assert abs(t.eval(r) - direct) <= 10 * t.tol + err
    # vectorized eval
    out = t.eval(np.array([0.1, 50.0, 200.0]))
    assert out.shape == (3,)
    assert (out >= 0).all()


def test_table_is_built_in_batches(monkeypatch):
    # one fourier_1d call per refinement level, not one per node
    calls = []

    def spy(p, r, tol=1e-10):
        calls.append(np.size(r))
        return fourier_1d(p, r, tol)
    monkeypatch.setattr(transform, "fourier_1d", spy)
    t = build_transform_table(1.5, r_max=96.0, tol=1e-8)
    assert len(calls) <= 64
    assert sum(calls) >= len(t.nodes)
    assert t.nodes[0] == 0.0 and t.nodes[-1] == 96.0
    assert (np.diff(t.nodes) > 0).all()
    for r in np.random.default_rng(11).uniform(0.0, 96.0, 20):
        approx = np.interp(r, t.nodes, t.values)
        assert abs(approx - float(_reference(1.5, r, dps=15))) <= 10 * t.tol


def test_table_tail_envelope_dominates():
    # psf's fractional-p tail past r = 96 takes fhat_p below twice its
    # asymptote
    C = transform_tail_coefficient(1.5)
    for r in (96.0, 120.0, 300.0):
        direct, err = fourier_1d(1.5, r, tol=1e-8)
        assert abs(direct) <= 2 * abs(C) * r ** -2.5 + err


def test_table_asymptote_continuity(table15):
    t = table15
    eps = 1e-9
    below = t.eval(t.r_max - eps)
    above = t.eval(t.r_max + eps)
    assert abs(below - above) <= 5 * t.tol + 1e-9


@pytest.mark.parametrize("name", ["table15", "table05"])
def test_table_continues_past_r_max_by_its_tail(request, name):
    # past r_max, values[-1] (r_max/r)^(p+1): the tail C_p r^(-p-1) through
    # the last value, so within the 5% that r_max was checked to
    t = request.getfixturevalue(name)
    C = transform_tail_coefficient(t.p)
    for r in (2 * t.r_max, 10 * t.r_max):
        want = t.values[-1] * (t.r_max / r) ** (t.p + 1)
        assert abs(t.eval(r) - want) <= 4 * math.ulp(want)
        assert abs(t.eval(r) - C * r ** (-t.p - 1)) <= 0.05 * C * r ** (-t.p - 1)


@pytest.mark.parametrize("refused", [
    lambda: build_transform_table(1e-3, r_max=96.0),
    lambda: plan_manifest({"checks": [{"check_name": "psf", "params": {
        "family": "supergaussian", "p": 1e-3, "max_residual": 1e-6,
        "lattice": {"kind": "integer", "dim": 2}}}]}, "."),
], ids=["table", "psf-plan"])
def test_pre_asymptotic_radius_is_refused_alike(refused):
    # fhat_p at p = 1e-3 is far from its tail at r = 96 (R_TAIL): a table
    # and psf's dual series refuse it through one check, in one message
    with pytest.raises(ValueError, match=re.escape(
            "r = 96 is inside the pre-asymptotic region of fhat_p at p = 0.001")):
        refused()


def test_table_to_dict_keeps_what_the_benchmark_reads(table15):
    # the benchmark writes each table through to_dict and JSON, then reads
    # p, nodes, values and tol back to check it
    d = json.loads(json.dumps(table15.to_dict()))
    assert d["p"] == table15.p and d["tol"] == table15.tol
    assert np.array_equal(d["nodes"], table15.nodes)
    assert np.array_equal(d["values"], table15.values)


def test_tolerance_unreached_is_honest():
    with pytest.raises(ToleranceUnreachedError) as ei:
        fourier_1d(1.5, 0.25, tol=1e-16)
    assert ei.value.achieved > ei.value.requested


def test_build_table_small():
    t = build_transform_table(1.5, tol=1e-6, r_max=4.0)
    assert t.nodes[0] == 0.0
    assert t.nodes[-1] == 4.0
    assert (np.diff(t.nodes) > 0).all()
