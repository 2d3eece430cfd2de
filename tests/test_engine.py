"""Checks of the coefficient-array jet engine that need no timing.

* exact laws: constant rescaling of the metric, g g^-1 = I coefficientwise;
* the positive-definiteness check is scale-free and rejects non-finite input;
* the tensor pipeline performs no scalar ``Jet`` products of its own.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewdiv.errors import NonPositiveDefiniteError
from skewdiv.expr import Binary, Num, evaluate
from skewdiv.geometry import MetricField, MetricJets
from skewdiv.identities import bochner_residual
from skewdiv.jets import Jet, contract, jet_space
from skewdiv.ptensor import PointAnalysis, PTensorSpec
from skewdiv.scenarios import random_scenario


def scaled_metric(metric: MetricField, s: float) -> MetricField:
    """The metric s*g, built on the same expression trees."""
    rows = [[Binary("*", Num(s), e) for e in row] for row in metric.exprs]
    return MetricField(metric.dim, rows, metric.params)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    dim=st.sampled_from([3, 4]),
    s=st.floats(min_value=1e-5, max_value=1e3),
)
def test_norms_scale_as_inverse_fifth_power(seed, dim, s):
    """|grad P|^2 and |div P|^2 of s*g are s^-5 times those of g (s constant)."""
    sc = random_scenario(seed, dim)
    pt = sc.grid_points()[0]
    base = PointAnalysis(sc.spec(), pt)
    spec = PTensorSpec(
        lam=sc.lam, f=sc.f, metric=scaled_metric(sc.metric, s), lam_params=sc.params
    )
    scaled = PointAnalysis(spec, pt)
    factor = s**-5
    assert scaled.nabla_p_norm_sq == pytest.approx(factor * base.nabla_p_norm_sq, rel=1e-12)
    assert scaled.div_p_norm_sq == pytest.approx(factor * base.div_p_norm_sq, rel=1e-12)


@pytest.mark.parametrize("dim,seed,s", [(3, 4, 1.0), (4, 2, 1e-5), (3, 6, 1e3)])
def test_metric_times_inverse_is_identity(dim, seed, s):
    sc = random_scenario(seed, dim)
    mj = MetricJets(scaled_metric(sc.metric, s), sc.grid_points()[-1])
    ident = contract("il,lj->ij", mj.g, mj.ginv, jet_space(dim, mj.order))
    ident[..., 0] -= np.eye(dim)
    assert np.max(np.abs(ident)) < 1e-12


def test_positive_definiteness_is_scale_free():
    tiny = MetricField.parse([["1e-5", "0", "0"], ["0", "1e-5", "0"], ["0", "0", "1e-5"]])
    MetricJets(tiny, (0.5, 0.5, 0.5))
    indefinite = MetricField.parse([["1e-5", "0", "0"], ["0", "-1e-5", "0"], ["0", "0", "1e-5"]])
    with pytest.raises(NonPositiveDefiniteError):
        MetricJets(indefinite, (0.5, 0.5, 0.5))


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf * 0 in jets
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_non_finite_metric_fails_and_names_the_point(value):
    m = MetricField.parse(
        [["a*(1 + r)", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]], {"a": value}
    )
    for evaluate_at in (m.component_jets, m.component_values):
        with pytest.raises(NonPositiveDefiniteError, match=r"\(0\.5, 0\.25, 0\.125\)"):
            evaluate_at((0.5, 0.25, 0.125))


def test_metric_parse_shares_symmetric_entries():
    m = random_scenario(3, 4).metric
    assert all(m.exprs[i][j] is m.exprs[j][i] for i in range(4) for j in range(4))
    assert len({id(e) for row in m.exprs for e in row}) == 10
    src = m.sources()
    assert all(src[i][j] == src[j][i] for i in range(4) for j in range(4))


@pytest.mark.parametrize("dim", [3, 4])
def test_tensor_pipeline_makes_no_scalar_jet_products(dim, monkeypatch):
    """Only expression evaluation multiplies scalar jets; tensors use contract."""
    sc = random_scenario(7, dim)
    spec = sc.spec()
    pt = sc.grid_points()[0]
    calls = []
    mul = Jet.__mul__

    def counted(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(Jet, "__mul__", counted)
    monkeypatch.setattr(Jet, "__rmul__", counted)

    spec.metric.component_jets(pt)
    evaluate(spec.lam, [spec.f.jet(pt)], spec.lam_params)
    expression_products = len(calls)
    assert expression_products > 0

    calls.clear()
    an = PointAnalysis(spec, pt)
    an.violation
    bochner_residual(spec, pt, analysis=an)
    assert len(calls) == expression_products
