import math

import numpy as np
import pytest

from latbounds.errors import MissingTableError
from latbounds.functions import (FAMILIES, check_hypotheses, envelope,
                                 eval_f, eval_fhat, fhat_route, log_f)
from latbounds.functions import TestFunctionSpec as FnSpec


def test_family_catalog():
    assert set(FAMILIES) == {"gaussian", "supergaussian", "exp_l1",
                             "sech_product", "inv_cosh_product"}
    for fam in ("gaussian", "sech_product", "inv_cosh_product"):
        assert fhat_route(FnSpec(fam, 2)) == "self_dual"
    assert fhat_route(FnSpec("exp_l1", 2)) == "rational_product"
    # a p within 1e-12 of 1 or 2 takes the exact route
    for p, route in ((1.0, "rational_product"), (1 + 1e-13, "rational_product"),
                     (2.0, "gaussian_rescale"), (2 - 1e-13, "gaussian_rescale"),
                     (1.5, "table"), (0.5, "table"), (1 + 1e-9, "table")):
        assert fhat_route(FnSpec("supergaussian", 2, p=p)) == route


def test_spec_validation():
    with pytest.raises(ValueError):
        FnSpec("nope", 2)
    with pytest.raises(ValueError):
        FnSpec("supergaussian", 2)      # p required
    with pytest.raises(ValueError):
        FnSpec("supergaussian", 2, p=3.0)
    with pytest.raises(ValueError):
        FnSpec("gaussian", 0)


def test_natural_norms():
    assert envelope(FnSpec("gaussian", 2)).q == 2.0
    assert envelope(FnSpec("exp_l1", 2)).q == 1.0
    assert envelope(FnSpec("sech_product", 2)).q == 1.0
    assert envelope(FnSpec("inv_cosh_product", 2)).q == 1.0
    assert envelope(FnSpec("supergaussian", 2, p=0.5)).q == 0.5


def test_eval_f_values():
    x = np.array([[1.0, 0.0]])
    assert abs(eval_f(FnSpec("gaussian", 2), x) - math.exp(-math.pi)) < 1e-15
    assert abs(eval_f(FnSpec("exp_l1", 2), x) - math.exp(-1)) < 1e-15
    # sech(0) = 1, sech(pi) = 2 / (e^pi + e^-pi)
    v = eval_f(FnSpec("sech_product", 2), x)
    want = 2.0 / (math.exp(math.pi) + math.exp(-math.pi))
    assert abs(v - want) < 1e-15
    # 1/(1 + 2 cosh(2 pi /sqrt 3 * 1)) at the nonzero coordinate, 1/3 at zero
    z = 2 * math.pi / math.sqrt(3)
    want = (1.0 / (1 + 2 * math.cosh(z))) * (1.0 / 3.0)
    v = eval_f(FnSpec("inv_cosh_product", 2), x)
    assert abs(v - want) < 1e-15
    v = eval_f(FnSpec("supergaussian", 2, p=0.5), x)
    assert abs(v - math.exp(-1.0)) < 1e-15


def test_log_f_scalar_and_rows():
    spec = FnSpec("gaussian", 2)
    one = log_f(spec, np.array([0.5, 0.5]))
    assert isinstance(one, float)
    many = log_f(spec, np.array([[0.5, 0.5], [0.0, 0.0]]))
    assert many.shape == (2,)
    assert many[1] == 0.0
    row = log_f(spec, np.array([[0.5, 0.5]]))  # one row stays an array
    assert row.shape == (1,) and row[0] == one


def test_fhat_exact_forms():
    y = np.array([[0.25, -1.0]])
    # self-dual families: fhat == f
    for fam in ("gaussian", "sech_product", "inv_cosh_product"):
        spec = FnSpec(fam, 2)
        assert eval_fhat(spec, y) == eval_f(spec, y)
    # exp(-|x|) per coordinate: 2/(1 + 4 pi^2 y^2)
    spec = FnSpec("exp_l1", 2)
    want = (2 / (1 + 4 * math.pi ** 2 * 0.0625)) * (2 / (1 + 4 * math.pi ** 2))
    assert abs(eval_fhat(spec, y) - want) < 1e-15
    # supergaussian p=1 is the same function as exp_l1
    sg1 = FnSpec("supergaussian", 2, p=1.0)
    assert abs(eval_fhat(sg1, y) - want) < 1e-15
    # p=2: pi^{n/2} e^{-pi^2 |y|^2}
    sg2 = FnSpec("supergaussian", 2, p=2.0)
    want = math.pi * math.exp(-math.pi ** 2 * (0.0625 + 1.0))
    assert abs(eval_fhat(sg2, y) - want) < 1e-16


def test_fhat_known_value_at_one():
    # the transform of exp(-|x|) at y=1 is 2/(1+4 pi^2) = 0.049409...
    spec = FnSpec("exp_l1", 1)
    got = eval_fhat(spec, np.array([[1.0]]))
    assert abs(got - 0.04940904606371528) < 1e-15


def test_fhat_needs_table_for_fractional_p():
    spec = FnSpec("supergaussian", 1, p=1.5)
    with pytest.raises(MissingTableError):
        eval_fhat(spec, np.array([[0.5]]))


def test_fhat_table_mismatch(table15):
    spec = FnSpec("supergaussian", 1, p=0.5)
    with pytest.raises(ValueError, match="table"):
        eval_fhat(spec, np.array([[0.5]]), table=table15)


def test_fhat_table_route(table15):
    spec = FnSpec("supergaussian", 2, p=1.5)
    got = eval_fhat(spec, np.array([[0.5, 0.0]]), table=table15)
    # product of the 1-d transform values; fhat_{1.5}(0) = 2 Gamma(1 + 2/3)
    want = 0.17383583111594372 * 2 * math.gamma(1 + 2.0 / 3.0)
    assert abs(got - want) < 1e-6


@pytest.mark.parametrize("fam,p", [("gaussian", None), ("sech_product", None),
                                   ("inv_cosh_product", None), ("exp_l1", None),
                                   ("supergaussian", 1.0),
                                   ("supergaussian", 2.0)])
def test_hypotheses_clean_families(fam, p):
    spec = FnSpec(fam, 2, p=p)
    rep = check_hypotheses(spec, samples=2000, seed=3)
    assert rep.ok, rep.checks
    assert set(rep.checks) == {"fhat_nonneg", "fhat_ray_monotone",
                               "ratio_concave"}


def test_hypotheses_table_families(table15, table05):
    for p, table in ((1.5, table15), (0.5, table05)):
        spec = FnSpec("supergaussian", 2, p=p)
        rep = check_hypotheses(spec, samples=2000, seed=3, table=table)
        assert rep.ok, rep.checks


def test_hypotheses_deterministic():
    spec = FnSpec("gaussian", 3)
    a = check_hypotheses(spec, samples=500, seed=11)
    b = check_hypotheses(spec, samples=500, seed=11)
    for name in a.checks:
        assert a.checks[name].worst_margin == b.checks[name].worst_margin
