import math

import pytest

import latbounds.bounds as bounds
from latbounds.bounds import (L1TransferenceBound, NuBound, cosh_nu_bound,
                              cstar, gaussian_nu_closed_form,
                              golden_section_max, handshake_bound,
                              kalpha_radius, mu_norm,
                              supergaussian_mu_closed_form,
                              transference_bound_l1, transference_bound_l2)
from latbounds.errors import InvariantError
from latbounds.functions import TestFunctionSpec as FnSpec

CSTAR = 0.424789765355589  # frozen; re-derived independently below


def test_golden_section_quadratic():
    x, fx = golden_section_max(lambda z: -(z - 0.3) ** 2, 0.0, 1.0)
    assert abs(x - 0.3) < 1e-9
    assert abs(fx) < 1e-18


def test_cstar_frozen_and_bracketed():
    c = cstar()
    assert abs(c - CSTAR) < 1e-12
    assert 0.424785 <= c <= 0.424795


def test_cstar_grid_certificate():
    # independent oracle: dense scan of the objective can't beat the
    # golden-section maximum by more than the grid's curvature error
    h = lambda z: z - z * math.tanh(z) / (1.0 + 0.5 / math.cosh(z))
    step = 1e-5
    grid_max = max(h(i * step) for i in range(int(10 / step)))
    c = cstar()
    assert grid_max <= c + 1e-12
    assert c - grid_max <= 1e-8  # h'' is O(1); step^2 curvature slack


def test_nu_bound_validation():
    with pytest.raises(ValueError):
        NuBound(value=0.5, method="guesswork")
    with pytest.raises(ValueError):
        NuBound(value=-0.1, method="closed_form")


def test_gaussian_closed_form_values():
    # tau = 1: (2/e)^{n/2}
    assert abs(gaussian_nu_closed_form(1.0, 2).value - 2 / math.e) < 1e-15
    nb = gaussian_nu_closed_form(1.0, 4)
    assert abs(nb.value - (2 / math.e) ** 2) < 1e-15
    assert nb.method == "closed_form"
    # boundary tau = 1/2 gives exactly 1
    assert gaussian_nu_closed_form(0.5, 3).value == 1.0
    with pytest.raises(ValueError):
        gaussian_nu_closed_form(0.49, 2)


def test_supergaussian_closed_form_values():
    # p=2, n=1, r=2: t = r / (1/2)^{1/2} = 2 sqrt 2, value = (e t^2 e^{-t^2})^{1/2}
    nb = supergaussian_mu_closed_form(2.0, 2.0, 1)
    assert abs(nb.value - 0.08541109836804665) < 1e-15
    # r below the inflection scale is out of the closed form's domain
    with pytest.raises(ValueError):
        supergaussian_mu_closed_form(2.0, 0.9, 2)
    with pytest.raises(ValueError):
        supergaussian_mu_closed_form(3.0, 2.0, 1)


@pytest.mark.parametrize("tau,n", [(0.5, 1), (0.75, 2), (1.0, 3), (2.0, 5)])
def test_gaussian_closed_form_matches_optimizer(tau, n):
    r = math.sqrt(tau * n / math.pi)
    cf = gaussian_nu_closed_form(tau, n)
    opt = mu_norm(FnSpec("gaussian", n), r, n)
    assert abs(cf.value - opt.value) <= 1e-9 * cf.value
    assert opt.method == "norm_optimizer"


@pytest.mark.parametrize("p,t,n", [(0.5, 1.5, 2), (1.0, 1.2, 3), (1.5, 2.0, 1),
                                   (2.0, 1.5, 4)])
def test_supergaussian_closed_form_matches_optimizer(p, t, n):
    r = t * (n / p) ** (1.0 / p)
    cf = supergaussian_mu_closed_form(p, r, n)
    opt = mu_norm(FnSpec("supergaussian", n, p=p), r, n)
    assert abs(cf.value - opt.value) <= 1e-9 * cf.value


def test_mu_norm_below_inflection_saturates():
    # small radius: the best shrink is u = 1 and the coefficient is 1
    nb = mu_norm(FnSpec("gaussian", 2), 0.2, 2)
    assert abs(nb.value - 1.0) < 1e-9


def test_cosh_nu_values():
    nb = cosh_nu_bound(0.5, 2)
    assert abs(nb.value - 0.6461321397389105) < 1e-14
    assert nb.method == "shrink_ratio"
    assert abs(cosh_nu_bound(0.75, 3).value - 0.11539080699341542) < 1e-14
    with pytest.raises(ValueError, match="alpha"):
        cosh_nu_bound(0.27, 2)


@pytest.mark.parametrize("alpha, n", [(0.524, 1000), (0.6, 1000),
                                      (1e160, 2)])
def test_cosh_nu_past_the_floats_takes_the_log_form(alpha, n):
    # where x^n overflows or e^{-(x-1) n} underflows, the coefficient is
    # (x e^{1-x})^n, not an error and not a 0.0 below a representable value
    x = alpha / bounds.SQRT3_OVER_2PI
    exact = math.exp(n * (math.log(x) + 1 - x))
    assert cosh_nu_bound(alpha, n).value == exact
    assert (exact > 0) == (alpha < 1)


def test_kalpha_radius():
    assert abs(kalpha_radius(0.5, 2) - (1 + CSTAR) * 1.0) < 1e-12


def test_transference_l2_values():
    assert abs(transference_bound_l2(1) - 1.1140846016432673) < 1e-14
    assert abs(transference_bound_l2(4) - 2.5464790894703255) < 1e-14
    # n/(2 pi) + 3 sqrt(n)/pi, spot-checked symbolically
    n = 9
    want = 9 / (2 * math.pi) + 9 / math.pi
    assert abs(transference_bound_l2(n) - want) < 1e-14


def test_transference_l1_strict_under_ceiling():
    for n in (1, 2, 3, 10, 100):
        tb = transference_bound_l1(n)
        assert isinstance(tb, L1TransferenceBound)
        assert tb.value < tb.ceiling
        # the gap is a fixed relative rounding margin, independent of n
        assert abs(tb.value / tb.ceiling - 0.999996553925671) < 1e-11


def test_transference_l1_frozen():
    tb = transference_bound_l1(1)
    assert abs(tb.value - 21.782132118341515) < 1e-11
    assert abs(tb.ceiling - 21.782207181446513) < 1e-11


def test_handshake_bound_values():
    assert abs(handshake_bound(4, 2, 1.0) - 20 * math.e ** 3) < 1e-9
    assert abs(handshake_bound(6, 2, 1.5) - 243092.51782726153) < 1e-6
    # monotone in u and n
    assert handshake_bound(4, 2, 1.5) > handshake_bound(4, 2, 1.0)
    assert handshake_bound(5, 2, 1.0) > handshake_bound(4, 2, 1.0)
    for bad in (dict(n=0, p=2, u=1), dict(n=2, p=0.0, u=1),
                dict(n=2, p=2.5, u=1), dict(n=2, p=2, u=0.9)):
        with pytest.raises(ValueError):
            handshake_bound(**bad)



def test_l1_bound_raises_above_its_ceiling(monkeypatch):
    # a C* too large for the rounded headline constant
    monkeypatch.setattr(bounds, "cstar", lambda: 1.0)
    with pytest.raises(InvariantError, match="ceiling"):
        transference_bound_l1(4)
